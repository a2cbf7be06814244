"""Reference evaluators of the diffracted field, kept for the tests.

The field that ``fsoqkd.diffraction`` computes from the Lommel series is
checked here against two independent quadratures of the same physics:

* :func:`disk_quadrature_integral` — the Babinet radial integral with the
  disk term by two-level Gauss-panel quadrature of the J0 kernel;
* :func:`rs_field_direct` — the direct two-dimensional Rayleigh–Sommerfeld
  integral in polar coordinates.

:func:`offset_disk_power_direct` integrates the series field itself over an
offset disk in polar coordinates centered on the disk, with no profile, no
interpolant and no angular-overlap weight.

:func:`fresnel_valid` states the Fresnel condition of the reduction, and
:func:`annulus_power` and :func:`profile_power` give the power a source
annulus carries and the power a profile collects, for energy checks.

Panels are chosen so that no panel spans more than half a local period of
the combined phase (a quadratic phase ``q * r**2``, a Bessel factor
oscillating like ``s * r`` and a Gaussian envelope of scale W), then a fixed
10-point Gauss rule is applied per panel.  A second pass on bisected panels
gives a Richardson-style error estimate; naive adaptive schemes stall on
integrands like these.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j0

from fsoqkd.beams import encircled_power, plane_params, total_power
from fsoqkd.diffraction import (DiskSpec, FieldProfile, QuadratureError,
                                SourceAnnulus, _fresnel_integral, _fresnel_prefactor,
                                _gaussian_hankel, disk_power, _source_gaussian,
                                _source_phase)

GAUSS_ORDER = 10
_GX, _GW = leggauss(GAUSS_ORDER)


def phase_panels(a: float, b: float, quad_rate: float, lin_rate: float,
                 envelope_scale: float, max_panels: int = 400_000) -> np.ndarray:
    """Panel edges on [a, b] bounding the phase swing per panel by pi.

    ``quad_rate`` is |q| for a phase term q*r^2, ``lin_rate`` is |s| for a
    term s*r; panel widths are additionally capped at a quarter of the
    envelope scale so the Gaussian amplitude is resolved.
    """
    if b <= a:
        return np.array([a, b])
    total = quad_rate * (b * b - a * a) + lin_rate * (b - a)
    n = max(8, int(np.ceil(total / np.pi)))
    if n > max_panels:
        raise QuadratureError(
            f"phase subdivision needs {n} panels, budget is {max_panels}",
            estimate=float("nan"))
    if total > 0 and n > 8:
        targets = np.arange(1, n) * (total / n)
        if quad_rate * (b * b - a * a) > 1e-12 * total:
            # invert quad_rate*(r^2 - a^2) + lin_rate*(r - a) = target
            c = targets + quad_rate * a * a + lin_rate * a
            edges = (-lin_rate + np.sqrt(lin_rate * lin_rate + 4.0 * quad_rate * c)) / (2.0 * quad_rate)
        else:
            edges = a + targets / max(lin_rate, 1e-300)
        edges = np.concatenate([[a], edges, [b]])
    else:
        edges = np.linspace(a, b, n + 1)

    cap = envelope_scale / 4.0
    widths = np.diff(edges)
    splits = np.maximum(1, np.ceil(widths / cap).astype(int))
    if splits.sum() > max_panels:
        raise QuadratureError(
            f"envelope subdivision needs {splits.sum()} panels, budget is {max_panels}",
            estimate=float("nan"))
    if (splits > 1).any():
        pieces = [np.array([a])]
        for lo, hi, m in zip(edges[:-1], edges[1:], splits):
            pieces.append(np.linspace(lo, hi, m + 1)[1:])
        edges = np.concatenate(pieces)
    return edges


def gauss_nodes(edges: np.ndarray):
    """Gauss nodes and weights for a panel decomposition."""
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * _GX[None, :]).ravel()
    weights = (half[:, None] * _GW[None, :]).ravel()
    return nodes, weights


def bisect_edges(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    return np.sort(np.concatenate([edges, mids]))


def fresnel_valid(src: SourceAnnulus, distance: float, factor: float = 10.0):
    """Fresnel condition Delta^3 >> (81*pi/(4*lambda)) * W^4(source plane).

    Returns ``(ok, margin)`` where ``margin`` is the ratio of the two sides
    and ``ok`` demands margin >= ``factor``.
    """
    if distance <= 0:
        return False, 0.0
    w = plane_params(src.beam, src.plane_distance).spot_size
    bound = 81.0 * math.pi / (4.0 * src.beam.wavelength) * w ** 4
    margin = distance ** 3 / bound
    return margin >= factor, margin


def disk_quadrature_integral(src: SourceAnnulus, distance: float, l_values):
    """The radial integral of ``diffraction._fresnel_integral`` by quadrature.

    The closed form over [0, inf) minus a Gauss-panel quadrature of the disk
    [0, a].  Returns (coarse, fine, source_nodes): the two levels differ in
    the disk quadrature only, the fine level uses bisected panels, and
    ``source_nodes`` is its node count.
    """
    k = src.beam.wavenumber
    amp, c = _source_gaussian(src)
    alpha = c + 0.5j * k / distance
    s = k * np.asarray(l_values, dtype=float) / distance
    whole = amp * _gaussian_hankel(alpha, s)
    a = src.inner_radius
    if a == 0.0:
        return whole, whole, 0

    def disk(nodes, weights):
        base = amp * np.exp(alpha * nodes ** 2) * nodes * weights
        out = np.empty(s.shape, dtype=complex)
        step = max(1, int(2_000_000 / max(nodes.size, 1)))
        for i0 in range(0, s.size, step):
            out[i0:i0 + step] = j0(np.outer(s[i0:i0 + step], nodes)) @ base
        return out

    edges = phase_panels(0.0, a, abs(alpha.imag), float(s.max(initial=0.0)),
                         plane_params(src.beam, src.plane_distance).spot_size)
    coarse = whole - disk(*gauss_nodes(edges))
    fine_nodes, fine_weights = gauss_nodes(bisect_edges(edges))
    return coarse, whole - disk(fine_nodes, fine_weights), fine_nodes.size


def rs_field_direct(src: SourceAnnulus, distance: float, l: float, phi: float = 0.0,
                    rel_tol: float = 1e-5) -> complex:
    """Direct 2-D Rayleigh–Sommerfeld integral (validation oracle).

    The kernel is ``(distance / (i lambda)) * exp(i k r12) / r12**2`` over the
    annulus.  The azimuth integral depends only on theta - phi for a
    cylindrically symmetric source, so phi is folded out by substitution and
    the result is phi-independent by construction.

    The 2-D kernel has no closed form for the Gaussian tail, so the source is
    cut at 3 W, three spot sizes of the source plane.  The tail beyond carries
    e^-18 of the power; dropping it moves the field by 1e-4 to 4e-4 of its
    maximum.
    """
    if distance <= 0:
        raise ValueError("propagation distance must be positive")
    if l < 0:
        raise ValueError("radial offset must be nonnegative")
    del phi  # result is independent of the observation azimuth

    beam = src.beam
    k = beam.wavenumber
    plane = plane_params(beam, src.plane_distance)
    a = src.inner_radius
    b = 3.0 * plane.spot_size
    if b <= a:
        raise ValueError("annulus is empty inside the oracle's outer cut")
    curv = 0.0 if math.isinf(plane.curvature_radius) else 1.0 / plane.curvature_radius
    # radial phase rate: quadratic from r12 ~ (r^2 - 2 r l cos)/2D plus the
    # source curvature term
    q = k / 2.0 * (1.0 / distance + curv)
    lin = k * l / distance
    r_edges = phase_panels(a, b, q, lin, plane.spot_size)
    theta_span = k * 2.0 * b * l / distance
    n_theta = max(12, int(math.ceil(theta_span / math.pi)) + 4)
    t_edges = np.linspace(0.0, math.pi, n_theta + 1)

    amp, c = _source_gaussian(src)

    def level(re, te):
        rn, rw = gauss_nodes(re)
        tn, tw = gauss_nodes(te)
        src_amp = amp * np.exp(c * rn ** 2) * rn * rw
        acc = 0.0 + 0.0j
        step = max(1, int(2_000_000 / max(rn.size, 1)))
        for i0 in range(0, tn.size, step):
            t = tn[i0:i0 + step, None]
            w = tw[i0:i0 + step, None]
            excess = (l ** 2 + rn[None, :] ** 2
                      - 2.0 * rn[None, :] * l * np.cos(t))
            r12 = np.sqrt(distance ** 2 + excess)
            # phase written as k*distance + k*(r12 - distance), the small
            # part computed by difference of squares to keep full precision
            acc += np.sum(w * np.exp(1j * k * (excess / (r12 + distance)))
                          / r12 ** 2 * src_amp[None, :])
        return 2.0 * acc  # integrand is even in theta about 0

    coarse = level(r_edges, t_edges)
    fine = level(bisect_edges(r_edges), np.linspace(0.0, math.pi, 2 * n_theta + 1))
    est = abs(fine - coarse) / max(abs(fine), 1e-300)
    if est > rel_tol and abs(fine) > 1e-12:
        raise QuadratureError("rs_field_direct did not converge", est)
    return complex(distance / (1j * beam.wavelength)
                   * np.exp(1j * k * distance) * _source_phase(src) * fine)


def annulus_power(src: SourceAnnulus) -> float:
    """Exact power carried by the annulus."""
    return (total_power(src.beam)
            - encircled_power(src.beam, src.plane_distance, src.inner_radius))


def profile_power(profile: FieldProfile, radius: float | None = None) -> float:
    """Integrated power of the profile out to ``radius`` (default: full grid)."""
    r = profile.truncation_radius if radius is None else radius
    return disk_power(profile, DiskSpec(radius=r, center_offset=0.0))


def offset_disk_power_direct(src: SourceAnnulus, distance: float, disk: DiskSpec,
                             refine: int = 1) -> float:
    """Power on a disk off the axis, from the field of the Lommel series
    (``_fresnel_integral`` times ``_fresnel_prefactor``) at every point.

    Polar coordinates (s, theta) centered on the disk, at distance
    rho = sqrt(D^2 + s^2 + 2 D s cos theta) from the beam axis:
    P = int_0^r int_0^2pi |U(rho)|^2 dtheta s ds.  In s, the 10-point Gauss
    rule on panels of at most 2 pi of the ring phase k (D + r + a) r / L
    (a the source's inner radius); in theta, the trapezoid rule on about one
    point per radian of that phase, which converges geometrically for the
    periodic integrand, on [0, pi] by its symmetry.  ``refine`` multiplies
    both counts.  Against itself at ``refine=2`` it agrees to ~1e-11 on
    L_AB 40 km, r 0.1 m, D up to 0.75 m, L_BE 1-40 km.
    """
    d, r = disk.center_offset, disk.radius
    phase = src.beam.wavenumber * (d + r + src.inner_radius) * r / distance
    edges = np.linspace(0.0, r, refine * max(4, math.ceil(phase / (2.0 * math.pi))) + 1)
    s, ws = gauss_nodes(edges)
    m = refine * (2 * math.ceil(phase / 2.0) + 16)  # points over 2 pi
    theta = 2.0 * math.pi * np.arange(m // 2 + 1) / m
    wt = np.full(theta.size, 4.0 * math.pi / m)
    wt[0] = wt[-1] = 2.0 * math.pi / m  # the ends of [0, pi] count once
    rho = np.sqrt(d * d + s[:, None] ** 2 + 2.0 * d * s[:, None] * np.cos(theta)).ravel()
    field = _fresnel_integral(src, distance, rho)[0] * _fresnel_prefactor(src, distance, rho)
    intensity = (field.real ** 2 + field.imag ** 2).reshape(s.size, theta.size)
    return float(((intensity @ wt) * s * ws).sum())
