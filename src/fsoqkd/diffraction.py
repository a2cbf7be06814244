"""Propagation of the cropped / blocked Gaussian beam past an absorbing edge.

:func:`propagate_profile` evaluates the cylindrically symmetric Fresnel
reduction, a single radial integral with a J0 kernel, on a radial grid.  This
is what sweeps, geometry searches and channel parameters use; the field at
one radius l is the outer node of a profile whose disk reaches l.

The Fresnel source is the beam outside a disk of radius ``a`` (Bob's aperture,
or Eve's obstacle before Bob), so the radial integral runs over [a, inf).  The
source envelope times the kernel phase is ``A exp(alpha r^2)`` with
``alpha = -1/W^2 + i (k/2)(1/L - 1/R)``, and the kernel is J0(s r) with
``s = k l / L``; W and R are the spot size and curvature radius at the source
plane, L the propagation distance and l the observation radius.  It is
evaluated as a Babinet complement: the whole beam over [0, inf) is a Gaussian
Hankel transform with a closed form (Gradshteyn & Ryzhik 6.631.4),

    int_0^inf exp(alpha r^2) J0(s r) r dr = -exp(s^2 / 4 alpha) / (2 alpha),

valid for Re alpha < 0, and the disk [0, a] is subtracted.  Nothing is
truncated, so the Gaussian tail is exact.

The disk term is exact too.  With ``c = alpha a^2`` and ``v = s a``,

    int_0^a exp(alpha r^2) J0(s r) r dr = a^2 J(c, v),

and repeated integration by parts with (x^n J_n(x))' = x^n J_{n-1}(x) gives
two convergent series, the Lommel functions of Born & Wolf, *Principles of
Optics*, section 8.8, at a complex argument:

* U form, used where 2|c| < v:
  ``J = e^c sum_{n>=1} (-2c/v)^(n-1) J_n(v) / v``;
* V form, used elsewhere:
  ``J = -e^(v^2/4c) / (2c) + (e^c / 2c) sum_{n>=0} (v/2c)^n J_n(v)``.

The first term of the V form is the closed form of the whole beam over a^2,
so there the Babinet difference cancels exactly and the field is the series
alone, ``-A a^2 (e^c / 2c) sum_{n>=0} (v/2c)^n J_n(v)``.  Either way the
ratio t of the series has |t| <= 1.

J_0(v) ... J_M(v) come from Miller's backward recurrence
``J_{n-1} = (2n/v) J_n - J_{n+1}``, started at J_M = 1 and J_{M+1} = 0 and
normalised by ``J_0 + 2 sum_k J_{2k} = 1`` (Abramowitz & Stegun 9.12;
Numerical Recipes section 6.5).  One vectorised loop runs it for every
observation point at once and carries the Horner sum of the series along; it
rescales by powers of two wherever the unnormalised values could overflow,
and calls no special function.  The orders follow the bound
|t^n J_n(v)| <= x^n / n! with x = max(v) / 2 (A&S 9.1.62): the series is
summed to the first order N whose tail bound ``2 x^(N+1) / (N+1)!`` is at
most ``SERIES_EPS``, and M lies a Miller margin of sqrt(40 N) above N.  The
achieved error of a profile is the tail bound beyond M, in units of
``|A a^2 e^c / 2c|``: that is the integral's magnitude on the axis, so the
bound is also relative to the largest value on the profile.

Sign convention (not settled, see ROADMAP item 1): the source
carries the curvature phase ``exp(-i k r^2 / 2R)`` of
:func:`beams.field_amplitude`, while the Fresnel kernel is
``exp(+i k r^2 / 2L)``.  The net quadratic phase is (k/2)(1/L - 1/R), so the
diverging beam behaves as if converging and refocuses near L = R.

Field profiles sample the radial integral on an adaptive grid and are
interpolated by a complex cubic spline: the slope is clamped to 0 at the axis,
where U(rho) is even, and the outer end is not-a-knot.  The spline is built and
evaluated here in the arithmetic of scipy's ``CubicSpline`` with that boundary
condition (the same tridiagonal system, solved by the LAPACK ``gtsv`` that
``solve_banded((1, 1), ...)`` calls, and the same piecewise power form), so it
equals scipy's bit for bit without the import of ``scipy.interpolate``.  The
systems of several profiles are solved as one block-diagonal system: the zero
couplings between blocks keep every block's elimination, pivots included,
what it is alone.  Collected powers on centered or displaced disks are
integrated from the spline with the angular-overlap weight of the disk, by an
8-point Gauss rule between the profile nodes; :func:`disk_power` takes one
profile or a whole sequence of them.

A profile is identified by :func:`profile_key`, the one list of the inputs
that determine it; the in-memory and the on-disk profile caches key on it.
"""

from __future__ import annotations

import cmath
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import get_lapack_funcs

from .beams import BeamParams, encircled_power, plane_params, total_power

# Bump when node-placement or source-integration policy changes; cached
# profiles are keyed on it.
GRID_POLICY_VERSION = 3

# Field-profile construction: nodes per half oscillation of the observation
# phase, and the relative tolerance on the achieved error.
PROFILE_NODES_PER_HALF_PERIOD = 8
PROFILE_FIELD_RTOL = 1e-6
PROFILE_MAX_NODES = 60_000

# Lommel series: the tail bound at each point's truncation, half an ulp of the
# value on the axis, and the budget on the orders of the Bessel recurrence.
SERIES_EPS = 2.0 ** -53
SERIES_MAX_TERMS = 200_000
# Bessel arguments are raised to this floor: below it every order past J0 and
# every O(v^2) part of the sums is under their rounding, and 2n/v stays finite.
BESSEL_ARG_FLOOR = 1e-20

SERIALIZATION_VERSION = 4

# Gauss-Legendre rule of disk_power, per interval between profile nodes.
_DISK_GX, _DISK_GW = leggauss(8)

# disk_power over a sequence of profiles works on runs of consecutive
# profiles holding at most this many radial nodes (a larger profile is a run
# of its own), so its temporaries stay a few hundred kB whatever the count.
DISK_POWER_CHUNK_NODES = 512

# Complex tridiagonal solver, the routine solve_banded((1, 1), ...) calls.
_GTSV, = get_lapack_funcs(("gtsv",), dtype=np.complex128)


class QuadratureError(RuntimeError):
    """A field evaluation did not reach its tolerance within its budget.

    Carries the achieved relative error estimate in ``estimate``.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


class CoverageError(ValueError):
    """A disk was requested outside the radial coverage of a profile."""


@dataclass(frozen=True)
class SourceAnnulus:
    """The beam outside a disk at a transverse plane, the diffraction source.

    The two canonical instances are the cropped beam behind a receiver
    (``inner_radius`` = receiver radius) and the blocked beam behind an
    absorbing obstacle (``inner_radius`` = obstacle radius).  The source
    always extends to infinity.
    """

    beam: BeamParams
    plane_distance: float
    inner_radius: float

    def __post_init__(self):
        if self.plane_distance < 0:
            raise ValueError("plane_distance must be nonnegative")
        if not 0 <= self.inner_radius < math.inf:
            raise ValueError("inner_radius must be finite and nonnegative")

    def power(self) -> float:
        """Exact power carried by the annulus."""
        return (total_power(self.beam)
                - encircled_power(self.beam, self.plane_distance, self.inner_radius))


def profile_key(src: SourceAnnulus, distance: float, coverage: float) -> tuple:
    """The inputs that determine a field profile: the beam, the source
    annulus, the propagation distance and the radial coverage."""
    b = src.beam
    return (b.wavelength, b.waist_radius, b.field_peak, src.plane_distance,
            src.inner_radius, distance, coverage)


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
    """Error-control metadata recorded by profile construction.

    ``achieved`` is the Lommel series' tail bound (see the module docstring)
    and ``source_nodes`` the number of Bessel orders it summed, 0 for a
    source without a disk.
    """

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

    @property
    def key(self) -> tuple:
        """:func:`profile_key` of the profile; its last node is the coverage."""
        return profile_key(self.source, self.propagation_distance,
                           self.truncation_radius)

    def interpolator(self):
        """Complex cubic spline through the samples, callable on radius arrays.

        Equal, bit for bit, to scipy's ``CubicSpline(radial_nodes,
        complex_amplitudes, bc_type=((1, 0j), "not-a-knot"))``: U(rho) is even
        in rho, so the slope is clamped to 0 at the axis, and the outer end is
        not-a-knot.  The node slopes solve scipy's tridiagonal system by the
        same LAPACK call, and a radius u past node x_i evaluates as
        ((c3 + c2 u) + c1 u^2) + c0 u^3, scipy's order of operations.  Radii
        outside the nodes extrapolate the end pieces.  Needs at least 3 nodes.
        """
        x = self.radial_nodes
        n = x.size
        coeffs = _spline_coefficients(x, self.complex_amplitudes, np.array([n - 1]))

        def spline(rho):
            rho = np.asarray(rho, dtype=float)
            i = np.clip(np.searchsorted(x, rho, side="right") - 1, 0, n - 2)
            u = np.atleast_1d(rho - x[i])
            u2 = u * u
            c = coeffs[:, i]
            vals = _cubic(c.real, u, u2) + 1j * _cubic(c.imag, u, u2)
            return vals.reshape(rho.shape)[()]

        return spline


def _spline_coefficients(x, y, last):
    """Piecewise-cubic coefficients of the splines of several profiles.

    ``x`` and ``y`` hold the nodes and samples of the profiles end to end,
    profile p ending at index ``last[p]``.  Column j of the (4, len-1)
    result holds the cubic on [x_j, x_j+1]; columns at ``last`` straddle two
    profiles and are never used.  Each profile's system is scipy's for its
    boundary condition, and the blocks sit on one tridiagonal matrix with zero
    couplings, solved by one ``gtsv`` call.
    """
    first = np.concatenate(([0], last[:-1] + 1))
    if np.any(last - first < 2):
        raise ValueError("a spline needs at least 3 nodes per profile")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d = np.empty(x.size)
    du = np.empty(x.size - 1)
    dl = np.empty(x.size - 1)
    b = np.empty(x.size, dtype=complex)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du[1:] = dx[:-1]
    dl[:-1] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d[first] = 1.0  # slope 0 at the axis
    du[first] = 0.0
    b[first] = 0.0
    du[last[:-1]] = 0.0  # no coupling between profiles
    dl[last[:-1]] = 0.0
    span = x[last] - x[last - 2]  # not-a-knot at the outer node
    d[last] = dx[last - 2]
    dl[last - 1] = span
    # scipy squares the last step with a scalar pow(), which differs from
    # h * h in the last bit on about 0.1% of values
    sq = np.array([h ** 2 for h in dx[last - 1].tolist()])
    b[last] = (sq * slope[last - 2]
               + (2 * span + dx[last - 1]) * dx[last - 2] * slope[last - 1]) / span
    *_, s, info = _GTSV(dl, d, du, b, overwrite_b=True)
    if info:
        raise np.linalg.LinAlgError("singular spline system")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _cubic(c, u, u2):
    """scipy's ((c3 + c2 u) + c1 u^2) + c0 u^3 for rows ``c`` of real parts.

    The offset u is real, so each complex product of scipy's evaluation is
    one real product per part: the real and the imaginary part of the spline
    are this on ``coeffs.real`` and on ``coeffs.imag``, scipy's values up to
    the sign of a zero.  ``u`` must be an array; the sum is built in place.
    """
    out = c[2] * u
    out += c[3]
    t = c[1] * u2
    out += t
    np.multiply(u2, u, out=t)
    t *= c[0]
    out += t
    return out


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


def _fresnel_integral(src: SourceAnnulus, distance: float, l_values: np.ndarray,
                      rel_tol: float = PROFILE_FIELD_RTOL):
    """Radial J0 integral of the Fresnel reduction, for a batch of offsets.

    The source envelope times the kernel phase is ``A exp(alpha r^2)``,
    integrated over [a, inf) as the closed form over [0, inf) less the disk
    term, in the U or V form of the module docstring.  Returns (integral,
    terms, achieved): the Bessel orders summed (0 without a disk) and the
    achieved error of the module docstring.
    """
    k = src.beam.wavenumber
    amp, c_src = _source_gaussian(src)
    alpha = c_src + 0.5j * k / distance
    s = k * np.asarray(l_values, dtype=float) / distance
    a = src.inner_radius
    if a == 0.0:
        return amp * _gaussian_hankel(alpha, s), 0, 0.0
    c = alpha * a * a
    v = np.maximum(s * a, BESSEL_ARG_FLOOR)
    u_form = v > 2.0 * abs(c)
    t = np.where(u_form, -2.0 * c / v, v / (2.0 * c))
    j0, tail, terms, achieved = _bessel_sums(v, t, rel_tol)
    scale = amp * a * a * cmath.exp(c)
    with np.errstate(under="ignore"):  # a Gaussian factor below the smallest double is 0
        whole = amp * _gaussian_hankel(alpha, s)
    out = np.where(u_form, whole - scale * tail / v, -scale / (2.0 * c) * (j0 + t * tail))
    return out, terms, achieved


def _bessel_sums(v: np.ndarray, t: np.ndarray, rel_tol: float = PROFILE_FIELD_RTOL):
    """J0(v) and ``sum_{n>=1} t^(n-1) J_n(v)`` by Miller's recurrence.

    ``v`` holds nonnegative arguments and ``t`` a ratio with |t| <= 1 for
    each, so every term is bounded by x^n / n! with x = max(v) / 2.  The
    recurrence starts at order M, the margin sqrt(40 N) above the first
    order N whose tail bound ``2 x^(N+1) / (N+1)!`` is at most
    ``SERIES_EPS``, and at most at ``SERIES_MAX_TERMS``.  Returns (J0, sum,
    terms, achieved): the M + 1 orders summed and the tail bound beyond M.
    Raises :class:`QuadratureError`, before the recurrence, when that bound
    exceeds ``rel_tol``.
    """
    v = np.maximum(v, BESSEL_ARG_FLOOR)
    x = 0.5 * float(v.max(initial=BESSEL_ARG_FLOOR))
    log_x = math.log(x)
    # 2 x^(m+1) / (m+1)! bounds the tail beyond order m once x < (m + 2) / 2
    m, log_term = 0, log_x
    while m < SERIES_MAX_TERMS and (log_term + math.log(2.0) > math.log(SERIES_EPS)
                                    or x >= 0.5 * (m + 2)):
        m += 1
        log_term += log_x - math.log(m + 1)
    top = min(m + math.ceil(math.sqrt(40.0 * m)), SERIES_MAX_TERMS)
    if x < 0.5 * (top + 2):
        log_tail = math.log(2.0) + (top + 1) * log_x - math.lgamma(top + 2)
    else:  # cut short by the budget while the terms still grow
        log_tail = x  # the whole series is at most e^x
    achieved = math.exp(log_tail) if log_tail < 709.0 else math.inf
    if achieved > rel_tol:
        raise QuadratureError(f"Bessel recurrence needs more than its budget of "
                              f"{SERIES_MAX_TERMS} orders", achieved)

    widest = max(math.log2(2.0 / float(v.min(initial=1.0))), 0.0)
    j_n, j_up = np.ones(v.shape), np.zeros(v.shape)
    horner = np.zeros(v.shape, dtype=complex)
    even = np.zeros(v.shape)
    room = 0.0  # log2 bound on the largest unnormalised value
    for n in range(top, 0, -1):
        growth = max(math.log2(n) + widest, 0.0) + 1.0  # >= log2(2n/v + 1)
        if room + growth > 960.0:
            _, exp2 = np.frexp(np.maximum(np.abs(j_n), np.abs(j_up)))
            factor = np.ldexp(1.0, -exp2)
            j_n, j_up, horner, even = j_n * factor, j_up * factor, horner * factor, even * factor
            room = 0.0
        room += growth
        horner = horner * t + j_n
        if n % 2 == 0:
            even += j_n
        j_n, j_up = 2.0 * n / v * j_n - j_up, j_n
    norm = j_n + 2.0 * even
    return j_n / norm, horner / norm, top + 1, achieved


def _fresnel_prefactor(src: SourceAnnulus, distance: float, l_values):
    k = src.beam.wavenumber
    lam = src.beam.wavelength
    return (2.0 * math.pi * np.exp(1j * k * distance) / (1j * lam * distance)
            * _source_phase(src)
            * np.exp(1j * k * np.asarray(l_values, dtype=float) ** 2 / (2.0 * distance)))


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

    The budget records the achieved error and the series terms of
    :func:`_fresnel_integral`; :class:`QuadratureError` is raised when the
    error would exceed ``rel_tol``.
    """
    if distance <= 0:
        raise ValueError("propagation distance must be positive")
    coverage = disk_hint.center_offset + disk_hint.radius
    nodes = _profile_nodes(src, distance, coverage)
    field, terms, achieved = _fresnel_integral(src, distance, nodes, rel_tol)
    amplitudes = _fresnel_prefactor(src, distance, nodes) * field
    budget = QuadratureBudget(rel_tol=rel_tol, achieved=achieved,
                              source_nodes=terms, profile_nodes=len(nodes))
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
    # a subnormal offset overflows arg; the clip below maps it to +-1
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        arg = (rho ** 2 + d ** 2 - re ** 2) / (2.0 * rho * d)
    alpha[full] = math.pi
    alpha[band] = np.arccos(np.clip(arg[band], -1.0, 1.0))
    return alpha


def disk_power(profile: FieldProfile | Sequence[FieldProfile],
               disk: DiskSpec) -> float | np.ndarray:
    """Power collected by a disk, exploiting the field's cylindrical symmetry.

    On-axis disks use the plain 2*pi*rho weight; offset disks weight the
    intensity by twice the angular half-width of the overlap arc.  A single
    :class:`FieldProfile` gives a float; a sequence of profiles gives an array
    of the same values, computed together.  A profile that does not cover the
    disk raises :class:`CoverageError`, the first such one in the sequence.
    """
    single = isinstance(profile, FieldProfile)
    profiles = [profile] if single else list(profile)
    outer = disk.center_offset + disk.radius
    for prof in profiles:
        if outer > prof.truncation_radius * (1.0 + 1e-12):
            raise CoverageError(f"disk extends to {outer:.6g} m, profile covers "
                                f"{prof.truncation_radius:.6g} m")
    out = np.empty(len(profiles))
    start = size = 0
    for stop, prof in enumerate(profiles):
        if stop > start and size + prof.radial_nodes.size > DISK_POWER_CHUNK_NODES:
            _disk_power_run(profiles[start:stop], disk, out[start:stop])
            start, size = stop, 0
        size += prof.radial_nodes.size
    if profiles:
        _disk_power_run(profiles[start:], disk, out[start:])
    return float(out[0]) if single else out


def _disk_power_run(profiles, disk: DiskSpec, out: np.ndarray):
    """disk_power of consecutive profiles into ``out``, their nodes taken
    end to end."""
    counts = [p.radial_nodes.size for p in profiles]
    x = np.concatenate([p.radial_nodes for p in profiles])
    y = np.concatenate([p.complex_amplitudes for p in profiles])
    last = np.cumsum(counts) - 1
    coeffs = _spline_coefficients(x, y, last)

    # The integration cuts of each profile: its nodes inside the disk's radial
    # range, the range ends and the overlap edge, sorted and distinct, as
    # (profile, radius) keys.  Consecutive cuts of one profile bound a panel.
    n = len(profiles)
    pid = np.repeat(np.arange(n), counts)
    lo_lim = max(0.0, disk.center_offset - disk.radius)
    hi_lim = np.minimum(disk.center_offset + disk.radius, x[last])
    inside = (x > lo_lim) & (x < hi_lim[pid])
    edges = [np.full(n, lo_lim), hi_lim]
    if disk.center_offset < disk.radius:
        edges.append(np.full(n, disk.radius - disk.center_offset))
    breaks = np.concatenate(edges)
    break_pid = np.tile(np.arange(n), len(edges))
    keep = (lo_lim <= breaks) & (breaks <= hi_lim[break_pid])
    cuts = np.sort(_keys(np.concatenate([pid[inside], break_pid[keep]]),
                         np.concatenate([x[inside], breaks[keep]])))
    distinct = np.ones(cuts.size, dtype=bool)  # np.unique is 4x slower here
    distinct[1:] = cuts[1:] != cuts[:-1]
    cuts = cuts[distinct]
    pair = cuts.real[1:] == cuts.real[:-1]
    left, panel_pid = cuts[:-1][pair], cuts.real[1:][pair]
    a, b = left.imag, cuts.imag[1:][pair]

    # |spline|^2 is a degree-6 polynomial per interval and the on-axis weight
    # 2*pi*rho adds one degree, so 8-point Gauss is exact on axis.  Off axis the
    # arccos overlap weight has square-root edges at |D - r| and D + r; they
    # cost 1e-8 to 1e-5 relative, the most where the nodes are sparse
    # (test_disk_power_quadrature_error).
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * _DISK_GX  # one row per panel
    wts = half[:, None] * _DISK_GW
    # A panel lies in one node interval, found from its left end.  Its Gauss
    # points take that interval's cubic, as the interpolator does, except for
    # a point rounded onto the panel's end node; that needs a panel a few ulps
    # wide, whose weight is far below the rounding of the sum.
    i = np.searchsorted(_keys(pid, x), left, side="right")[:, None] - 1
    # |U|^2 * weight * rho * w, in place to keep the run's memory small
    u = pts - x[i]
    u2 = u * u
    c = coeffs[:, i]
    terms = _cubic(c.real, u, u2)
    terms *= terms
    im = _cubic(c.imag, u, u2)
    terms += np.square(im, out=im)
    del u, u2, c, im
    terms *= 2.0 * _overlap_halfwidth(pts, disk)
    terms *= pts
    terms *= wts
    # one pairwise sum per profile over its own slice, as for one profile
    ends = _DISK_GX.size * np.searchsorted(panel_pid, np.arange(n + 1))
    terms = terms.ravel()
    for k, (lo, hi) in enumerate(zip(ends[:-1].tolist(), ends[1:].tolist())):
        out[k] = terms[lo:hi].sum()


def _keys(owner, radius):
    """(owner, radius) pairs as complex numbers, which numpy sorts and
    searches by real part, then imaginary part."""
    keys = np.empty(len(radius), dtype=complex)
    keys.real, keys.imag = owner, radius
    return keys


def profile_power(profile: FieldProfile, radius: float | None = None) -> float:
    """Integrated power of the profile out to ``radius`` (default: full grid)."""
    r = profile.truncation_radius if radius is None else radius
    return disk_power(profile, DiskSpec(radius=r, center_offset=0.0))


def arago_relative_amplitude(obstacle_radius: float, distance: float, l,
                             wavelength: float):
    """Bright-spot relative amplitude behind a circular obstacle.

    Point-source result: ``sqrt(D^2/(D^2+r_b^2)) * |J0(2 pi r_b l / (lambda D))|``,
    with J0 from the recurrence of the Lommel series.  Multiplying the
    undisturbed field magnitude by this factor predicts the shadow-region
    field of a nearly collimated beam.
    """
    if distance <= 0:
        raise ValueError("propagation distance must be positive")
    x = (2.0 * math.pi * obstacle_radius * np.asarray(l, dtype=float)
         / (wavelength * distance))
    pref = math.sqrt(distance ** 2 / (distance ** 2 + obstacle_radius ** 2))
    j0 = _bessel_sums(np.abs(x).ravel(), np.zeros(x.size, dtype=complex))[0]
    out = pref * np.abs(j0).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Serialization: versioned little-endian binary record.
# Header: uint32 version; 8 float64 fields: the profile key less its coverage
# (wavelength, waist radius, field peak, source plane distance, inner radius,
# propagation distance), then budget rel_tol and budget achieved error;
# uint64 node count (the budget's profile_nodes); uint64 budget source_nodes.
# Body: (node, re, im) float64 triples; the last node is the coverage.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<I8d2Q")


def serialize_profile(profile: FieldProfile) -> bytes:
    budget = profile.budget
    n = profile.radial_nodes.size
    head = _HEADER.pack(SERIALIZATION_VERSION, *profile.key[:-1],
                        budget.rel_tol, budget.achieved, n, budget.source_nodes)
    body = np.empty((n, 3))
    body[:, 0] = profile.radial_nodes
    body[:, 1] = profile.complex_amplitudes.real
    body[:, 2] = profile.complex_amplitudes.imag
    return head + body.astype("<f8").tobytes()


def deserialize_profile(blob: bytes) -> FieldProfile:
    if len(blob) < _HEADER.size:
        raise ValueError("profile record truncated: missing header")
    version, *key, rel_tol, achieved, count, source_nodes = _HEADER.unpack_from(blob)
    if version != SERIALIZATION_VERSION:
        raise ValueError(f"unsupported profile record version {version}")
    expect = _HEADER.size + count * 24
    if len(blob) != expect:
        raise ValueError(f"profile record truncated: {len(blob)} bytes, expected {expect}")
    body = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(count, 3)
    nodes = body[:, 0].copy()
    amps = body[:, 1] + 1j * body[:, 2]
    if count < 3 or nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0):
        raise ValueError("profile record corrupt: bad radial grid")
    # profile_key's order: three beam fields, two annulus fields, the distance
    src = SourceAnnulus(BeamParams(*key[:3]), *key[3:5])
    budget = QuadratureBudget(rel_tol=rel_tol, achieved=achieved,
                              source_nodes=int(source_nodes), profile_nodes=int(count))
    return FieldProfile(src, key[5], nodes, amps, budget)
