"""The J0 kernel of the diffraction integrals, ``scipy.special.j0``.

Kept under its own module name so that J0 evaluations stay countable per
layer: perfbench/probe.py traces ``fsoqkd.bessel.bessel_j0``.
"""

from scipy.special import j0 as bessel_j0  # noqa: F401
