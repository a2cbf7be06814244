"""Propagation of the cropped / blocked Gaussian beam past an absorbing edge.

Two evaluators are provided for the diffracted field behind a circular
absorbing aperture or obstacle:

* :func:`rs_field_direct` — direct two-dimensional Rayleigh–Sommerfeld
  integral in polar coordinates.  Slow by design; it is the validation oracle
  and no production path depends on it.
* :func:`fresnel_field_bessel` — the cylindrically symmetric Fresnel
  reduction, a single radial integral with a J0 kernel.  This is what
  profiles, sweeps and channel parameters use.

The Fresnel source is the beam outside a disk of radius ``a`` (Bob's aperture,
or Eve's obstacle before Bob), so the radial integral runs over [a, inf).  It
is evaluated as a Babinet complement: the whole beam over [0, inf) is a
Gaussian Hankel transform with a closed form (Gradshteyn & Ryzhik 6.631.4),

    int_0^inf exp(alpha r^2) J0(s r) r dr = -exp(s^2 / 4 alpha) / (2 alpha),

valid for Re alpha < 0, and only the disk [0, a] is integrated by Gauss-panel
quadrature and subtracted.  Here ``alpha = -1/W^2 + i (k/2)(1/L - 1/R)`` and
``s = k l / L``, with W and R the spot size and curvature radius at the source
plane, L the propagation distance and l the observation radius.  Nothing is
truncated, so the Gaussian tail is exact.

Sign convention (not settled, see ROADMAP item 2a): the source
carries the curvature phase ``exp(-i k r^2 / 2R)`` of
:func:`beams.field_amplitude`, while the Fresnel kernel is
``exp(+i k r^2 / 2L)``.  The net quadratic phase is (k/2)(1/L - 1/R), so the
diverging beam behaves as if converging and refocuses near L = R.

Field profiles sample the fast evaluator on an adaptive radial grid and are
interpolated with cubic splines (real and imaginary parts componentwise, i.e.
complex-valued splines).  Collected powers on centered or displaced disks are
integrated from the spline with the angular-overlap weight of the disk.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .beams import BeamParams, encircled_power, plane_params, total_power
from .bessel import bessel_j0
from .quadrature import QuadratureError, bisect_edges, gauss_nodes, phase_panels

# Bump when node-placement or source-integration policy changes; cached
# profiles are keyed on it.
GRID_POLICY_VERSION = 2

# Field-profile construction: nodes per half oscillation of the observation
# phase, and sup-norm relative tolerance of the two-level quadrature check.
PROFILE_NODES_PER_HALF_PERIOD = 8
PROFILE_FIELD_RTOL = 1e-6
PROFILE_MAX_NODES = 60_000

SERIALIZATION_VERSION = 2

# Instrumentation: number of profile constructions actually performed.  The
# CLI cache test (tests/test_cli.py) asserts a warm run performs zero.
PROPAGATION_COUNTER = [0]

_counter_lock = threading.Lock()


class CoverageError(ValueError):
    """A disk was requested outside the radial coverage of a profile."""


@dataclass(frozen=True)
class SourceAnnulus:
    """The beam outside a disk at a transverse plane, the diffraction source.

    The two canonical instances are the cropped beam behind a receiver
    (``inner_radius`` = receiver radius) and the blocked beam behind an
    absorbing obstacle (``inner_radius`` = obstacle radius).  The source
    always extends to infinity; ``outer_radius`` is kept only so that
    records and cache keys carry it, and must be ``math.inf``.
    """

    beam: BeamParams
    plane_distance: float
    inner_radius: float
    outer_radius: float = math.inf

    def __post_init__(self):
        if self.plane_distance < 0:
            raise ValueError("plane_distance must be nonnegative")
        if not 0 <= self.inner_radius < math.inf:
            raise ValueError("inner_radius must be finite and nonnegative")
        if self.outer_radius != math.inf:
            raise ValueError("outer_radius must be infinite; finite annuli are "
                             "not supported")

    def power(self) -> float:
        """Exact power carried by the annulus."""
        return (total_power(self.beam)
                - encircled_power(self.beam, self.plane_distance, self.inner_radius))


@dataclass(frozen=True)
class DiskSpec:
    """Collector disk on an observation plane, offset D from the beam axis."""

    radius: float
    center_offset: float = 0.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")
        if self.center_offset < 0:
            raise ValueError("center offset must be nonnegative")


@dataclass(frozen=True)
class QuadratureBudget:
    """Error-control metadata recorded by profile construction."""

    rel_tol: float
    achieved: float
    source_nodes: int
    profile_nodes: int


@dataclass(frozen=True)
class FieldProfile:
    """Radial samples of the diffracted complex field at one plane."""

    source: SourceAnnulus
    propagation_distance: float
    radial_nodes: np.ndarray
    complex_amplitudes: np.ndarray
    budget: QuadratureBudget

    @property
    def truncation_radius(self) -> float:
        return float(self.radial_nodes[-1])

    def interpolator(self) -> CubicSpline:
        # U(rho) is even in rho, so the derivative at the axis is clamped to 0.
        return CubicSpline(self.radial_nodes, self.complex_amplitudes,
                           bc_type=((1, 0.0 + 0.0j), "not-a-knot"))


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


def _source_gaussian(src: SourceAnnulus) -> tuple[complex, complex]:
    """Source field ``A exp(c r^2)`` with the constant phase k*L_src factored out.

    Adding k*L_src (~1e11 rad) to the small r-dependent phase inside one
    float64 exponent quantizes the differential phase at the 1e-5 rad level;
    the integrals therefore work with the envelope and the caller reattaches
    exp(-i k L_src) once.  Returns ``(A, c)`` with
    ``c = -1/W^2 - i k / 2R``.
    """
    beam = src.beam
    plane = plane_params(beam, src.plane_distance)
    inv_r = 0.0 if math.isinf(plane.curvature_radius) else 1.0 / plane.curvature_radius
    amp = (beam.field_peak * (beam.waist_radius / plane.spot_size)
           * np.exp(1j * plane.gouy_phase))
    return amp, complex(-1.0 / plane.spot_size ** 2, -beam.wavenumber * inv_r / 2.0)


def _source_phase(src: SourceAnnulus) -> complex:
    return np.exp(-1j * src.beam.wavenumber * src.plane_distance)


def _gaussian_hankel(alpha: complex, s):
    """int_0^inf exp(alpha r^2) J0(s r) r dr = -exp(s^2/(4 alpha)) / (2 alpha).

    Gradshteyn & Ryzhik 6.631.4; needs Re alpha < 0.
    """
    return -np.exp(np.asarray(s, dtype=float) ** 2 / (4.0 * alpha)) / (2.0 * alpha)


def _fresnel_integral(src: SourceAnnulus, distance: float, l_values: np.ndarray):
    """Radial J0 integral of the Fresnel reduction, for a batch of offsets.

    The source envelope times the kernel phase is ``A exp(alpha r^2)`` (see
    the module docstring), integrated over [a, inf) as the closed form over
    [0, inf) minus a Gauss-panel quadrature over the disk [0, a].  Returns
    (coarse, fine, source_nodes): the two levels differ in the disk quadrature
    only, the fine level uses bisected panels and is the one callers should
    keep, and ``source_nodes`` is its node count.
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
            out[i0:i0 + step] = bessel_j0(np.outer(s[i0:i0 + step], nodes)) @ base
        return out

    edges = phase_panels(0.0, a, abs(alpha.imag), float(s.max(initial=0.0)),
                         plane_params(src.beam, src.plane_distance).spot_size)
    coarse = whole - disk(*gauss_nodes(edges))
    fine_nodes, fine_weights = gauss_nodes(bisect_edges(edges))
    return coarse, whole - disk(fine_nodes, fine_weights), fine_nodes.size


def _fresnel_prefactor(src: SourceAnnulus, distance: float, l_values):
    k = src.beam.wavenumber
    lam = src.beam.wavelength
    return (2.0 * math.pi * np.exp(1j * k * distance) / (1j * lam * distance)
            * _source_phase(src)
            * np.exp(1j * k * np.asarray(l_values, dtype=float) ** 2 / (2.0 * distance)))


def fresnel_field_bessel(src: SourceAnnulus, distance: float, l: float,
                         rel_tol: float = 1e-6) -> complex:
    """Diffracted field at radial offset ``l``, Fresnel/Bessel reduction.

    The source integral over [inner_radius, inf) is the closed-form Hankel
    transform of the whole Gaussian minus a quadrature over the disk
    [0, inner_radius] (Babinet complement, see the module docstring); the
    two-level quadrature check is made on the subtracted value.  The source
    phase is ``exp(-i k r^2 / 2R)`` under the kernel ``exp(+i k r^2 / 2L)``,
    the convention stated in the module docstring.
    """
    if distance <= 0:
        raise ValueError("propagation distance must be positive")
    if l < 0:
        raise ValueError("radial offset must be nonnegative")
    coarse, fine, _ = _fresnel_integral(src, distance, np.array([l]))
    est = abs(fine[0] - coarse[0]) / max(abs(fine[0]), 1e-300)
    if est > rel_tol and abs(fine[0]) > 1e-12:
        raise QuadratureError("fresnel_field_bessel did not converge", est)
    return complex(_fresnel_prefactor(src, distance, l) * fine[0])


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


def _profile_nodes(src: SourceAnnulus, distance: float, coverage: float) -> np.ndarray:
    """Observation-plane radial nodes resolving carrier and ring structure.

    Local spacing follows the combined phase rate k*(l + r_out)/distance,
    where r_out = 3 W is the transverse extent of the source that matters,
    with density doubled near the axis and near the geometric shadow edge at
    l = inner_radius where the field has the most curvature.
    """
    k = src.beam.wavenumber
    r_out = 3.0 * plane_params(src.beam, src.plane_distance).spot_size
    n = max(64, int(math.ceil(PROFILE_NODES_PER_HALF_PERIOD
                              * (k * (coverage ** 2 / 2.0 + r_out * coverage)
                                 / distance) / math.pi)))
    if n > PROFILE_MAX_NODES:
        raise QuadratureError(
            f"profile grid needs {n} nodes, budget is {PROFILE_MAX_NODES}",
            estimate=float("nan"))
    # invert cumulative phase k*(l^2/2 + r_out*l)/distance at uniform steps
    targets = np.arange(1, n + 1) * (k * (coverage ** 2 / 2.0 + r_out * coverage)
                                     / distance / n)
    nodes = -r_out + np.sqrt(r_out ** 2 + 2.0 * distance * targets / k)
    nodes = np.concatenate([[0.0], nodes])
    nodes[-1] = coverage

    def densify(lo, hi):
        sel = (nodes >= lo) & (nodes <= hi)
        if sel.sum() < 2:
            return nodes
        mids = 0.5 * (nodes[sel][:-1] + nodes[sel][1:])
        return np.unique(np.concatenate([nodes, mids]))

    width = max(0.02 * coverage, 4.0 * (nodes[1] - nodes[0]))
    out = densify(0.0, min(width, coverage))
    if 0.0 < src.inner_radius < coverage:
        nodes = out
        out = densify(max(0.0, src.inner_radius - width),
                      min(coverage, src.inner_radius + width))
    return out


def propagate_profile(src: SourceAnnulus, distance: float, disk_hint: DiskSpec,
                      rel_tol: float = PROFILE_FIELD_RTOL) -> FieldProfile:
    """Sample the diffracted field on a grid covering the hinted disk.

    The achieved error is the sup-norm difference of the two quadrature
    levels of the Babinet-subtracted field, relative to its maximum.
    """
    if distance <= 0:
        raise ValueError("propagation distance must be positive")
    coverage = disk_hint.center_offset + disk_hint.radius
    nodes = _profile_nodes(src, distance, coverage)

    coarse, fine, source_nodes = _fresnel_integral(src, distance, nodes)
    scale = float(np.abs(fine).max())
    est = float(np.abs(fine - coarse).max()) / max(scale, 1e-300)
    if est > rel_tol and scale > 1e-12:
        raise QuadratureError("propagate_profile did not converge", est)
    amplitudes = _fresnel_prefactor(src, distance, nodes) * fine

    with _counter_lock:
        PROPAGATION_COUNTER[0] += 1

    budget = QuadratureBudget(rel_tol=rel_tol, achieved=est,
                              source_nodes=source_nodes,
                              profile_nodes=len(nodes))
    return FieldProfile(src, distance, nodes, amplitudes, budget)


def _overlap_halfwidth(rho: np.ndarray, disk: DiskSpec) -> np.ndarray:
    """Angular half-width of a circle of radius rho inside the offset disk."""
    d, re = disk.center_offset, disk.radius
    if d == 0.0:
        return np.where(rho <= re, math.pi, 0.0)
    alpha = np.zeros_like(rho)
    full = rho < (re - d) if d < re else np.zeros_like(rho, dtype=bool)
    lo, hi = abs(d - re), d + re
    band = (rho >= lo) & (rho <= hi) & ~full
    with np.errstate(invalid="ignore", divide="ignore"):
        arg = (rho ** 2 + d ** 2 - re ** 2) / (2.0 * rho * d)
    alpha[full] = math.pi
    alpha[band] = np.arccos(np.clip(arg[band], -1.0, 1.0))
    return alpha


def disk_power(profile: FieldProfile, disk: DiskSpec) -> float:
    """Power collected by a disk, exploiting the field's cylindrical symmetry.

    On-axis disks use the plain 2*pi*rho weight; offset disks weight the
    intensity by twice the angular half-width of the overlap arc.
    """
    outer = disk.center_offset + disk.radius
    if outer > profile.truncation_radius * (1.0 + 1e-12):
        raise CoverageError(
            f"disk extends to {outer:.6g} m, profile covers {profile.truncation_radius:.6g} m")

    spline = profile.interpolator()
    nodes = profile.radial_nodes
    lo_lim = max(0.0, disk.center_offset - disk.radius)
    hi_lim = min(outer, profile.truncation_radius)

    breakpoints = {lo_lim, hi_lim}
    if disk.center_offset < disk.radius:
        breakpoints.add(disk.radius - disk.center_offset)
    cuts = np.unique(np.concatenate([
        nodes[(nodes > lo_lim) & (nodes < hi_lim)],
        np.array(sorted(b for b in breakpoints if lo_lim <= b <= hi_lim)),
    ]))
    if cuts.size < 2:
        return 0.0
    # |spline|^2 is a degree-6 polynomial per interval; 8-point Gauss is exact
    # even with the smooth angular weight on top.
    gx, gw = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(cuts)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    vals = spline(pts)
    intensity = vals.real ** 2 + vals.imag ** 2
    weight = 2.0 * _overlap_halfwidth(pts, disk)
    return float(np.sum(intensity * weight * pts * wts))


def profile_power(profile: FieldProfile, radius: float | None = None) -> float:
    """Integrated power of the profile out to ``radius`` (default: full grid)."""
    r = profile.truncation_radius if radius is None else radius
    return disk_power(profile, DiskSpec(radius=r, center_offset=0.0))


def arago_relative_amplitude(obstacle_radius: float, distance: float, l,
                             wavelength: float):
    """Bright-spot relative amplitude behind a circular obstacle.

    Point-source result: ``sqrt(D^2/(D^2+r_b^2)) * |J0(2 pi r_b l / (lambda D))|``.
    Multiplying the undisturbed field magnitude by this factor predicts the
    shadow-region field of a nearly collimated beam.
    """
    if distance <= 0:
        raise ValueError("propagation distance must be positive")
    l = np.asarray(l, dtype=float)
    pref = math.sqrt(distance ** 2 / (distance ** 2 + obstacle_radius ** 2))
    out = pref * np.abs(bessel_j0(2.0 * math.pi * obstacle_radius * l
                                  / (wavelength * distance)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Serialization: versioned little-endian binary record.
# Header: uint32 version; 10 float64 fields (wavelength, waist radius, field
# peak, refractive index, source plane distance, inner radius, outer radius,
# propagation distance, budget rel_tol, budget achieved error); uint64 node
# count (the budget's profile_nodes); uint64 budget source_nodes.
# Body: (node, re, im) float64 triples.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<I10d2Q")


def serialize_profile(profile: FieldProfile) -> bytes:
    src = profile.source
    beam = src.beam
    budget = profile.budget
    n = profile.radial_nodes.size
    head = _HEADER.pack(
        SERIALIZATION_VERSION,
        beam.wavelength, beam.waist_radius, beam.field_peak, beam.refractive_index,
        src.plane_distance, src.inner_radius, src.outer_radius,
        profile.propagation_distance, budget.rel_tol, budget.achieved,
        n, budget.source_nodes)
    body = np.empty((n, 3))
    body[:, 0] = profile.radial_nodes
    body[:, 1] = profile.complex_amplitudes.real
    body[:, 2] = profile.complex_amplitudes.imag
    return head + body.astype("<f8").tobytes()


def deserialize_profile(blob: bytes) -> FieldProfile:
    if len(blob) < _HEADER.size:
        raise ValueError("profile record truncated: missing header")
    (version, wavelength, waist, peak, n_index, plane, inner, outer, distance,
     rel_tol, achieved, count, source_nodes) = _HEADER.unpack_from(blob)
    if version != SERIALIZATION_VERSION:
        raise ValueError(f"unsupported profile record version {version}")
    expect = _HEADER.size + count * 24
    if len(blob) != expect:
        raise ValueError(f"profile record truncated: {len(blob)} bytes, expected {expect}")
    body = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(count, 3)
    nodes = body[:, 0].copy()
    amps = body[:, 1] + 1j * body[:, 2]
    if count < 2 or nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0):
        raise ValueError("profile record corrupt: bad radial grid")
    beam = BeamParams(wavelength, waist, peak, n_index)
    src = SourceAnnulus(beam, plane, inner, outer)
    budget = QuadratureBudget(rel_tol=rel_tol, achieved=achieved,
                              source_nodes=int(source_nodes), profile_nodes=int(count))
    return FieldProfile(src, distance, nodes, amps, budget)
