"""Shared test setup.

``fsoqkd`` pins BLAS to one thread only when it is imported before numpy
(see ``fsoqkd/__init__.py``).  Every test module imports numpy first, so the
package is imported here, before any of them is collected.
"""

import fsoqkd  # noqa: F401
