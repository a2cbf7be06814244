"""The J0 kernel, :func:`diffraction.bessel_j0`, under its own module name.

Kept so that J0 evaluations stay countable per layer: perfbench/probe.py
traces ``fsoqkd.bessel.bessel_j0``.
"""

from .diffraction import bessel_j0  # noqa: F401
