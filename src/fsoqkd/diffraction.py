"""Propagation of the cropped / blocked Gaussian beam past an absorbing edge.

:func:`propagate_profile` evaluates the cylindrically symmetric Fresnel
reduction, a single radial integral with a J0 kernel, on a radial grid.  This
is what sweeps, geometry searches and channel parameters use; the field at
one radius l is the outer node of a profile whose disk reaches l.
:func:`propagate_profiles` computes many profiles at once (see Batching
below); propagate_profile is its call with one request.

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
|t^n J_n(v)| <= x^n / n! with x = max(v) / 2 over a profile (A&S 9.1.62):
the series is summed to the first order N past the turning point
x < (N + 2) / 2 whose tail bound ``2 x^(N+1) / (N+1)!`` is at most
``SERIES_EPS``, and the recurrence starts there, M = N.  No margin above N
is needed: the error of the backward recurrence at order n is set by the
ratio of the minimal to the dominant solution at the start order (Gautschi,
SIAM Rev. 9, 24 (1967)), and at N the minimal solution J_N is already below
the tail bound.  The achieved error of a profile is the tail bound beyond M,
in units of ``|A a^2 e^c / 2c|``: that is the integral's magnitude on the
axis, so the bound is also relative to the largest value on the profile.

Sign convention: the source carries the curvature phase
``exp(-i k r^2 / 2R)`` of :func:`beams.field_amplitude`, while the Fresnel
kernel is ``exp(+i k r^2 / 2L)``.  The net quadratic phase is
(k/2)(1/L - 1/R), so the propagator propagates the phase-conjugated beam:
with no disk, |U| at L past the source plane is |field_amplitude| at
|L_src - L|, and the beam refocuses to its waist at L = L_src
(test_propagator_carries_the_phase_conjugated_beam).  On the axis the
series is exact, |U(0)|^2 = |A|^2 e^(-2 a^2/W^2) / ((2L/kW^2)^2 + (1 - L/R)^2)
with W and R at the source plane.

Field profiles sample the field U and its radial slope dU/dl on an adaptive
grid and interpolate by the cubic Hermite piece through (U, dU/dl) at the two
nodes of each interval.  The slope is exact: integrating by parts with
d/dr exp(alpha r^2) = 2 alpha r exp(alpha r^2) and (x J1(x))' = x J0(x),

    dI/ds = (a exp(alpha a^2) J1(s a) + s I(s)) / (2 alpha)

for the integral I(s) over [a, inf), with J1(v) from the same recurrence.
With no disk, a = 0, it is s I / (2 alpha), the derivative of the closed
form.  Collected powers integrate the interpolant, whose cubics
:attr:`FieldProfile.pieces` builds once per profile.  On a centered disk the
integral is in closed form: on each node interval |U|^2 is a degree-6
polynomial in rho and the weight 2 pi rho adds one degree, so the power is a
sum of its monomials' integrals up to the disk's edge.  On a displaced disk
the angular-overlap weight enters, and an 8-point Gauss rule runs between the
profile nodes; the panels ending at the weight's square-root edges |D - r|
and D + r substitute rho = edge +- t^2.  :func:`disk_power` takes one profile
or a whole sequence of them.  Offset disks are integrated one profile at a
time; only the centered closed form is batched over a sequence.

Batching: the fixed cost of a profile of a few dozen nodes, well over a
hundred small numpy calls, is far more than its arithmetic.
:func:`propagate_profiles` builds each request's grid as
:func:`propagate_profile` does, then lays the grids end to end and runs the
Fresnel integral, the prefactor and one recurrence over them together, in
chunks of at most ``CHUNK_NODES`` nodes (a larger profile is a chunk of its
own).  In the recurrence each point starts at its own profile's order: the
profiles are sorted by descending order, so the points under way are a
prefix of the chunk, and a point joins with the start values of a call of
its own.  Each profile's constants (source amplitude, alpha, c, the disk's
scale) enter as arrays repeated over its nodes, or as scalars in a chunk of
one profile, so every node meets the same operands in the same order as in
its own call; rescaling is exact, so where it happens does not matter.  The
chunk bound keeps that true: from 256 KiB on, numpy turns a temporary into
an in-place operation with its operands swapped, and a complex product is
not bitwise commutative.  A chunk of several profiles holds at most 4,096
nodes, 64 KiB of complex values, so neither it nor any of its profiles
alone reaches that size, and a larger profile is computed alone, as in its
own call: a profile has the same bits in any batch
(test_batch_of_random_geometries_is_one_call_each).  In one unbounded
chunk, 17,144 of the 40,904 amplitudes of fig5's 160 profiles at L_AB 40 km
changed.

A profile is identified by :func:`profile_key`, the one list of the inputs
that determine it; the on-disk profile cache keys on it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beams import BeamParams, plane_params

# Bump when node-placement or source-integration policy changes; cached
# profiles are keyed on it.
GRID_POLICY_VERSION = 4

# Field-profile construction: nodes per half oscillation of the observation
# phase, and the relative tolerance on the achieved error.
PROFILE_NODES_PER_HALF_PERIOD = 8
PROFILE_FIELD_RTOL = 1e-6
PROFILE_MAX_NODES = 60_000

# Lommel series: the tail bound at each point's truncation, half an ulp of the
# value on the axis, and the budget on the orders of the Bessel recurrence.
SERIES_EPS = 2.0 ** -53
SERIES_MAX_TERMS = 200_000
_LOG2, _LOG_SERIES_EPS = math.log(2.0), math.log(SERIES_EPS)
# Bessel arguments are raised to this floor: below it every order past J0 and
# every O(v^2) part of the sums is under their rounding, and 2n/v stays finite.
BESSEL_ARG_FLOOR = 1e-20

SERIALIZATION_VERSION = 6

# Gauss-Legendre rule of off-axis disk_power, per panel between its cuts:
# numpy's leggauss(8) as literals, bit for bit, so that numpy.polynomial
# stays unloaded.
_DISK_GX = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                     -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                     0.7966664774136267, 0.9602898564975362])
_DISK_GW = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                     0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                     0.22238103445337443, 0.10122853629037706])

# Batched work, the field of propagate_profiles and disk_power's centered
# closed form over a sequence, runs on chunks of consecutive profiles holding
# at most this many radial nodes (a larger profile is a chunk of its own).
# The field needs the bound for its bits (the module docstring, Batching):
# no complex temporary of a chunk reaches numpy's 256 KiB threshold for
# reusing a temporary in place with its operands swapped.  disk_power needs
# it for speed: on the 1,207 profiles (91,641 nodes) of a distance search it
# took 18 ms at 4,096 against 46 ms at 512, where the fixed cost of each
# chunk dominates, and 19-21 ms at 8,192 and 16,384 (2 cores).
CHUNK_NODES = 4096


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
        if not 0 <= self.plane_distance < math.inf:
            raise ValueError("plane_distance must be finite and nonnegative")
        if not 0 <= self.inner_radius < math.inf:
            raise ValueError("inner_radius must be finite and nonnegative")


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
        if not 0 < self.radius < math.inf:
            raise ValueError("disk radius must be positive and finite")
        if not 0 <= self.center_offset < math.inf:
            raise ValueError("center offset must be finite and nonnegative")


@dataclass(frozen=True)
class QuadratureBudget:
    """Error-control metadata recorded by profile construction.

    ``achieved`` is the Lommel series' tail bound (see the module docstring)
    and ``source_nodes`` the number of Bessel orders it summed, 0 for a
    source without a disk.
    """

    achieved: float
    source_nodes: int
    profile_nodes: int


@dataclass(frozen=True)
class FieldProfile:
    """Radial samples of the diffracted complex field and of its radial
    slope dU/dl at one plane."""

    source: SourceAnnulus
    propagation_distance: float
    radial_nodes: np.ndarray
    complex_amplitudes: np.ndarray
    slopes: np.ndarray
    budget: QuadratureBudget

    def __post_init__(self):
        if self.radial_nodes.size < 2:
            raise ValueError("a profile needs at least 2 nodes")

    @property
    def truncation_radius(self) -> float:
        return float(self.radial_nodes[-1])

    @property
    def key(self) -> tuple:
        """:func:`profile_key` of the profile; its last node is the coverage."""
        return profile_key(self.source, self.propagation_distance,
                           self.truncation_radius)

    @functools.cached_property
    def pieces(self) -> np.ndarray:
        """The interpolant's cubics, one :func:`_hermite_coefficients`
        column per node interval, built on first use."""
        return _hermite_coefficients(self.radial_nodes, self.complex_amplitudes,
                                     self.slopes)

    def field(self, rho, i=None):
        """The cubic Hermite interpolant through the samples and slopes at
        radii ``rho``, on node intervals ``i`` (by default each radius's own;
        radii past the ends extrapolate)."""
        x = self.radial_nodes
        rho = np.asarray(rho, dtype=float)
        if i is None:
            i = np.clip(np.searchsorted(x, rho, side="right") - 1, 0, x.size - 2)
        u, c = rho - x[i], self.pieces[:, i]
        # Horner's rule on the real and the imaginary parts: the offset u is real
        re, im = (((p[3] * u + p[2]) * u + p[1]) * u + p[0] for p in (c.real, c.imag))
        return re + 1j * im


def _hermite_coefficients(x, y, m):
    """Column j holds c0..c3 of ``c0 + c1 u + c2 u^2 + c3 u^3``, u = rho - x_j,
    the cubic with values ``y`` and slopes ``m`` at x_j and x_j+1.  A column
    uses its two nodes alone, so for profiles laid end to end the columns
    that straddle two of them are simply never used.

    The columns are multiplied by the real reciprocals of dx and dx^2
    rather than divided by them: numpy divides a complex by a real by
    multiplying both parts by the reciprocal, so the bits are the same
    (test_hermite_coefficients_equal_complex_division_bit_for_bit), and the
    product costs less than the division.
    """
    dx = np.diff(x)
    inv, inv2 = 1.0 / dx, 1.0 / (dx * dx)
    slope = np.diff(y) * inv
    m0, m1 = m[:-1], m[1:]
    return np.stack((y[:-1], m0, (3.0 * slope - 2.0 * m0 - m1) * inv,
                     (m0 + m1 - 2.0 * slope) * inv2))


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

    Gradshteyn & Ryzhik 6.631.4; needs Re alpha < 0.  ``alpha`` may be an
    array of the shape of ``s``; 4 alpha and 2 alpha are exact either way.
    """
    return -np.exp(np.asarray(s, dtype=float) ** 2 / (4.0 * alpha)) / (2.0 * alpha)


def _per_point(rows, sizes):
    """Per-profile constants, one row of scalars per profile, as a batch
    takes them: a lone profile's own scalars, else one array per column, each
    value repeated over its profile's ``sizes`` radii."""
    return rows[0] if len(rows) == 1 else [np.repeat(col, sizes) for col in zip(*rows)]


def _fresnel_integral(src: SourceAnnulus, distance: float, l_values: np.ndarray):
    """Radial J0 integral of the Fresnel reduction, for a batch of offsets.

    The source envelope times the kernel phase is ``A exp(alpha r^2)``,
    integrated over [a, inf) as the closed form over [0, inf) less the disk
    term, in the U or V form of the module docstring.  Returns (integral,
    slope, terms, achieved): the slope dI/ds of the module docstring, the
    Bessel orders summed (0 without a disk) and the achieved error, those of
    :func:`profile_work` at the largest offset.  Raises
    :class:`QuadratureError` when that error exceeds ``PROFILE_FIELD_RTOL``.
    """
    l_values = np.asarray(l_values, dtype=float)
    work = profile_work(src, distance, float(l_values.max(initial=0.0)))
    error = over_budget(0, work.tail)
    if error is not None:
        raise error
    integral, slope = _fresnel_integrals([(src, distance)], l_values, [l_values.size],
                                         [work.terms - 1])
    return integral, slope, work.terms, work.tail


def _fresnel_integrals(requests, l_values: np.ndarray, sizes, orders):
    """The integral and slope of :func:`_fresnel_integral` for ``requests``,
    (source, distance) pairs whose offsets lie end to end in ``l_values``,
    ``sizes`` of them each; all have a disk or none has.  The recurrence of
    request i starts at order ``orders[i]`` (:func:`_miller`)."""
    def constants(src, distance):
        k = src.beam.wavenumber
        amp, c_src = _source_gaussian(src)
        alpha = c_src + 0.5j * k / distance
        a = src.inner_radius
        if a == 0.0:
            return k, distance, amp, alpha
        c = alpha * a * a
        scale = amp * a * a * cmath.exp(c)
        return (k, distance, amp, alpha, a, c, 2.0 * abs(c), scale, scale / a,
                -scale / (2.0 * c))

    k, distance, amp, alpha, *disk = _per_point([constants(*r) for r in requests], sizes)
    s = k * l_values / distance
    if not disk:
        whole = amp * _gaussian_hankel(alpha, s)
        return whole, s * whole / (2.0 * alpha)
    a, c, u_edge, scale, scale_a, v_coef = disk
    v = np.maximum(s * a, BESSEL_ARG_FLOOR)
    u_form = v > u_edge
    t = np.where(u_form, -2.0 * c / v, v / (2.0 * c))
    j0, j1, tail = _miller(v, t, orders, sizes)
    with np.errstate(under="ignore"):  # a Gaussian factor below the smallest double is 0
        whole = amp * _gaussian_hankel(alpha, s)
    out = np.where(u_form, whole - scale * tail / v, v_coef * (j0 + t * tail))
    slope = (scale_a * j1 + s * out) / (2.0 * alpha)
    return out, slope


def _bessel_sums(v: np.ndarray, t: np.ndarray):
    """J0(v), J1(v) and ``sum_{n>=1} t^(n-1) J_n(v)`` by Miller's recurrence.

    ``v`` holds nonnegative arguments and ``t`` a ratio with |t| <= 1 for
    each, so every term is bounded by x^n / n! with x = max(v) / 2.  The
    recurrence starts at the first order N past x < (N + 2) / 2 whose tail
    bound ``2 x^(N+1) / (N+1)!`` is at most ``SERIES_EPS``, or at
    ``SERIES_MAX_TERMS`` if that is lower.  It needs no margin above N: its
    error is set by the ratio of the minimal solution J_N to the dominant
    one at the start (Gautschi, SIAM Rev. 9, 24 (1967)), and J_N is already
    below the tail bound.  Returns (J0, J1, sum, terms, achieved): the
    N + 1 orders summed and the tail bound beyond N (:func:`_series_order`).
    Raises :class:`QuadratureError`, before the recurrence, when that bound
    exceeds ``PROFILE_FIELD_RTOL``.
    """
    v = np.maximum(v, BESSEL_ARG_FLOOR)
    m, achieved = _series_order(0.5 * float(v.max(initial=BESSEL_ARG_FLOOR)))
    error = over_budget(0, achieved)
    if error is not None:
        raise error
    return (*_miller(v, t, [m], [v.size]), m + 1, achieved)


def _miller(v: np.ndarray, t: np.ndarray, orders, sizes):
    """The sums of :func:`_bessel_sums` over segments of ``v`` (1-d, at
    least ``BESSEL_ARG_FLOOR``) laid end to end, ``sizes`` points each, the
    recurrence of segment i started at its own order ``orders[i]``.  The
    orders must not increase, so that the points under way are a prefix of
    ``v``; a point joins with J_N = 1 and J_{N+1} = 0, as in a call of its
    own.  Rescaling is exact and the sums are linear in the values, so the
    rescales that a batch adds change no bit of the normalised results.
    """
    widest = max(math.log2(2.0 / float(v.min(initial=1.0))), 0.0)
    stops = list(itertools.accumulate(sizes))
    # J_n and J_{n+1}, whose buffers swap roles at each order, over the
    # points under way, v[:k]
    j_n, j_up = np.empty(v.shape), np.empty(v.shape)
    horner = np.zeros(v.shape, dtype=complex)
    even = np.zeros(v.shape)
    begun = k = 0  # segments under way, and their points
    start = orders[0] if orders else 0  # the next segment's order
    room = 0.0  # log2 bound on the largest unnormalised value
    for n in range(start, 0, -1):
        if n == start:
            while begun < len(orders) and orders[begun] == n:
                begun += 1
            start = orders[begun] if begun < len(orders) else 0
            j_n[k:stops[begun - 1]], j_up[k:stops[begun - 1]] = 1.0, 0.0
            k = stops[begun - 1]
            v_k, t_k, horner_k, even_k = v[:k], t[:k], horner[:k], even[:k]
            jn_k, jup_k = j_n[:k], j_up[:k]
        growth = max(math.log2(n) + widest, 0.0) + 1.0  # >= log2(2n/v + 1)
        if room + growth > 960.0:
            _, exp2 = np.frexp(np.maximum(np.abs(jn_k), np.abs(jup_k)))
            factor = np.ldexp(1.0, -exp2)
            for values in (jn_k, jup_k, horner_k, even_k):
                values *= factor
            room = 0.0
        room += growth
        # in place, the same IEEE operations in the same order as
        # horner * t + j_n and 2n / v * j_n - j_up
        horner_k *= t_k
        horner_k += jn_k
        if n % 2 == 0:
            even_k += jn_k
        j_next = np.divide(2.0 * n, v_k)
        j_next *= jn_k
        np.subtract(j_next, jup_k, out=jup_k)
        j_n, j_up, jn_k, jup_k = j_up, j_n, jup_k, jn_k
    j_n[k:], j_up[k:] = 1.0, 0.0  # segments of order 0 never begin
    norm = j_n + 2.0 * even
    return j_n / norm, j_up / norm, horner / norm


def _series_order(x: float) -> tuple[int, float]:
    """The start order N of :func:`_bessel_sums` for x = max(v) / 2, capped
    at ``SERIES_MAX_TERMS``, and the tail bound beyond it (inf past the
    largest double)."""
    log_x = math.log(x)
    # 2 x^(m+1) / (m+1)! bounds the tail beyond order m once x < (m + 2) / 2
    m, log_term = 0, log_x
    if x >= 0.5 * (SERIES_MAX_TERMS + 2):  # the loop would run to the budget
        m = SERIES_MAX_TERMS
    while m < SERIES_MAX_TERMS and (log_term + _LOG2 > _LOG_SERIES_EPS
                                    or x >= 0.5 * (m + 2)):
        m += 1
        log_term += log_x - math.log(m + 1)
    if x < 0.5 * (m + 2):
        log_tail = _LOG2 + (m + 1) * log_x - math.lgamma(m + 2)
    else:  # cut short by the budget while the terms still grow
        log_tail = x  # the whole series is at most e^x
    return m, math.exp(log_tail) if log_tail < 709.0 else math.inf


def _fresnel_prefactor(src: SourceAnnulus, distance: float, l_values):
    l_values = np.asarray(l_values, dtype=float)
    return _fresnel_prefactors([(src, distance)], l_values, [l_values.size])


def _fresnel_prefactors(requests, l_values: np.ndarray, sizes):
    """:func:`_fresnel_prefactor` for requests laid end to end, as in
    :func:`_fresnel_integrals`."""
    def constants(src, distance):
        k = src.beam.wavenumber
        lam = src.beam.wavelength
        front = (2.0 * math.pi * np.exp(1j * k * distance) / (1j * lam * distance)
                 * _source_phase(src))
        return front, 1j * k, 2.0 * distance

    front, ik, twice = _per_point([constants(*r) for r in requests], sizes)
    return front * np.exp(ik * l_values ** 2 / twice)


class ProfileWork(NamedTuple):
    """What one field profile costs, from :func:`profile_work`."""

    reach: float  # r_out = 3 W at the source plane
    phase: float  # k (c^2 / 2 + r_out c) / L over the coverage c
    nodes: int | float  # grid nodes before densifying
    terms: int  # Bessel orders summed at the outer node, 0 without a disk
    tail: float  # the series' tail bound there, 0.0 without a disk


def source_reach(src: SourceAnnulus) -> float:
    """r_out = 3 W at the source plane, the extent of the source that
    matters; ``math.inf`` past the largest double."""
    try:
        return 3.0 * plane_params(src.beam, src.plane_distance).spot_size
    except ArithmeticError:  # (L / z0)^2 past the largest double, or z0 = 0
        return math.inf


def profile_work(src: SourceAnnulus, distance: float, coverage: float) -> ProfileWork:
    """The work of the profile of ``src`` at ``distance`` over [0,
    ``coverage``] by float arithmetic alone: the grid of
    :func:`_profile_nodes` before densifying, and the orders and tail bound
    of :func:`_bessel_sums` at the largest argument v = k c a / L.  A value
    past the largest double is ``math.inf``; nothing raises."""
    k, a, reach = src.beam.wavenumber, src.inner_radius, source_reach(src)
    try:
        phase = k * (coverage ** 2 / 2.0 + reach * coverage) / distance
    except OverflowError:
        phase = math.inf
    count = PROFILE_NODES_PER_HALF_PERIOD * phase / math.pi
    nodes = max(64, math.ceil(count)) if count < math.inf else math.inf
    if a == 0.0:
        return ProfileWork(reach, phase, nodes, 0, 0.0)
    m, tail = _series_order(0.5 * max(k * coverage / distance * a, BESSEL_ARG_FLOOR))
    return ProfileWork(reach, phase, nodes, m + 1, tail)


def over_budget(nodes: int | float, tail: float) -> QuadratureError | None:
    """The error of a profile grid of ``nodes`` nodes or a Lommel series of
    tail bound ``tail`` past its budget, or None within both."""
    if nodes > PROFILE_MAX_NODES:
        return QuadratureError(f"profile grid needs {nodes} nodes, budget is "
                               f"{PROFILE_MAX_NODES}", estimate=float("nan"))
    if tail > PROFILE_FIELD_RTOL:
        return QuadratureError(f"Bessel recurrence needs more than its budget of "
                               f"{SERIES_MAX_TERMS} orders", tail)
    return None


def _profile_nodes(src: SourceAnnulus, distance: float, coverage: float,
                   work: ProfileWork | None = None) -> np.ndarray:
    """Observation-plane radial nodes resolving carrier and ring structure.

    Local spacing follows the combined phase rate k*(l + r_out)/distance,
    where r_out = 3 W is the transverse extent of the source that matters,
    with density doubled near the axis and near the geometric shadow edge at
    l = inner_radius where the field has the most curvature.  ``work`` is
    the :func:`profile_work` of the profile, if the caller has it.
    """
    if work is None:
        work = profile_work(src, distance, coverage)
    error = over_budget(work.nodes, work.tail)
    if error is not None:
        raise error
    n, r_out = work.nodes, work.reach
    # invert cumulative phase k*(l^2/2 + r_out*l)/distance at uniform steps
    targets = np.arange(1, n + 1) * (work.phase / n)
    nodes = -r_out + np.sqrt(r_out ** 2 + 2.0 * distance * targets / src.beam.wavenumber)
    nodes = np.concatenate([[0.0], nodes])
    nodes[-1] = coverage

    def densify(lo, hi):
        # the nodes are sorted, so those in [lo, hi] are one slice
        sel = nodes[nodes.searchsorted(lo):nodes.searchsorted(hi, "right")]
        if sel.size < 2:
            return nodes
        mids = 0.5 * (sel[:-1] + sel[1:])
        return _sorted_distinct(np.concatenate([nodes, mids]))

    width = max(0.02 * coverage, 4.0 * (nodes[1] - nodes[0]))
    out = densify(0.0, min(width, coverage))
    if 0.0 < src.inner_radius < coverage:
        nodes = out
        out = densify(max(0.0, src.inner_radius - width),
                      min(coverage, src.inner_radius + width))
    return out


def propagate_profile(src: SourceAnnulus, distance: float,
                      disk_hint: DiskSpec) -> FieldProfile:
    """Sample the diffracted field and its radial slope on a grid covering
    the hinted disk: :func:`propagate_profiles` of one request.

    The budget records the achieved error and the series terms of
    :func:`_fresnel_integral`; :class:`QuadratureError` is raised when the
    error would exceed ``PROFILE_FIELD_RTOL``.
    """
    return propagate_profiles([(src, distance)], disk_hint)[0]


def propagate_profiles(requests, disk_hint: DiskSpec) -> list[FieldProfile]:
    """The profiles of (source, distance) ``requests`` on one disk hint, in
    request order: bit for bit those of one :func:`propagate_profile` call
    each.  Every request's grid is built and checked first, in order, so a
    batch raises the error of its first request that fails; then the field
    is computed chunk by chunk (``CHUNK_NODES``), the profiles sorted by
    descending series order, those without a disk apart."""
    coverage = disk_hint.center_offset + disk_hint.radius
    items = []
    for src, distance in requests:
        if distance <= 0:
            raise ValueError("propagation distance must be positive")
        work = profile_work(src, distance, coverage)
        items.append((src, distance, _profile_nodes(src, distance, coverage, work), work))
    if len(items) == 1:
        return _propagate_chunk(items)
    chunks, size, disk = [], 0, None
    for i in sorted(range(len(items)), key=lambda i: -items[i][3].terms):
        nodes = items[i][2].size
        if size + nodes > CHUNK_NODES or disk != (items[i][0].inner_radius > 0.0):
            chunks.append([])
            size, disk = 0, items[i][0].inner_radius > 0.0
        chunks[-1].append(i)
        size += nodes
    profiles = [None] * len(items)
    for chunk in chunks:
        for i, profile in zip(chunk, _propagate_chunk([items[i] for i in chunk])):
            profiles[i] = profile
    return profiles


def _propagate_chunk(batch) -> list[FieldProfile]:
    """The profiles of (source, distance, nodes, work) items, computed
    together on their nodes laid end to end."""
    requests = [item[:2] for item in batch]
    sizes = [item[2].size for item in batch]
    nodes = np.concatenate([item[2] for item in batch]) if len(batch) > 1 else batch[0][2]
    field, slope = _fresnel_integrals(requests, nodes, sizes,
                                      [item[3].terms - 1 for item in batch])
    prefactor = _fresnel_prefactors(requests, nodes, sizes)
    amplitudes = prefactor * field
    # d/dl of prefactor * I(k l / L): the kernel phase exp(i k l^2 / 2L)
    # gives i k l / L, the argument s = k l / L gives k / L
    k_over_l, = _per_point([(src.beam.wavenumber / distance,)
                            for src, distance in requests], sizes)
    slopes = prefactor * k_over_l * (1j * nodes * field + slope)
    out, stop = [], 0
    for src, distance, grid, work in batch:
        start, stop = stop, stop + grid.size
        budget = QuadratureBudget(achieved=work.tail, source_nodes=work.terms,
                                  profile_nodes=grid.size)
        out.append(FieldProfile(src, distance, grid, amplitudes[start:stop],
                                slopes[start:stop], budget))
    return out


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

    On-axis disks use the plain 2*pi*rho weight, and the integral of the
    interpolant is exact: per node interval, the closed form of
    :func:`_centered_power`.  Offset disks weight the intensity by twice the
    angular half-width of the overlap arc, integrated by 8-point Gauss per
    panel, one profile at a time (:func:`_offset_power`).  A single
    :class:`FieldProfile` gives a float; a sequence of profiles gives an
    array of the same values, the centered closed form computed for runs of
    profiles together.  A profile that does not cover the disk raises
    :class:`CoverageError`, the first such one in the sequence.
    """
    single = isinstance(profile, FieldProfile)
    profiles = [profile] if single else list(profile)
    outer = disk.center_offset + disk.radius
    for prof in profiles:
        if outer > prof.truncation_radius * (1.0 + 1e-12):
            raise CoverageError(f"disk extends to {outer:.6g} m, profile covers "
                                f"{prof.truncation_radius:.6g} m")
    if disk.center_offset > 0.0:
        out = np.array([_offset_power(prof, disk) for prof in profiles])
    else:
        out = np.empty(len(profiles))
        start = size = 0
        for stop, prof in enumerate(profiles):
            if stop > start and size + prof.radial_nodes.size > CHUNK_NODES:
                _centered_power(profiles[start:stop], disk.radius, out[start:stop])
                start, size = stop, 0
            size += prof.radial_nodes.size
        if profiles:
            _centered_power(profiles[start:], disk.radius, out[start:])
    return float(out[0]) if single else out


def _offset_power(prof: FieldProfile, disk: DiskSpec) -> float:
    """disk_power of one profile on an offset disk, by 8-point Gauss per panel.

    The integration cuts are the profile's nodes inside the disk's radial
    range, the range ends, the overlap edge and the middle of the overlap
    band, so that no panel ends at both of its square-root edges.  The
    arccos overlap weight goes like sqrt(rho - edge) at |D - r| and
    sqrt(edge - rho) at D + r; rho = edge +- t^2 on the panels ending there
    makes the integrand smooth in t (test_disk_power_quadrature_error).
    """
    d, r = disk.center_offset, disk.radius
    lo, hi = max(0.0, d - r), min(d + r, prof.truncation_radius)
    x = prof.radial_nodes
    inner = x[np.searchsorted(x, lo, side="right"):np.searchsorted(x, hi)]  # lo < x < hi
    # r - d, where the full circles end, is below lo unless d < r (= lo at d = r)
    edges = np.array([lo, hi, r - d, 0.5 * (abs(d - r) + hi)])
    cuts = _sorted_distinct(np.concatenate([inner, edges[(lo <= edges) & (edges <= hi)]]))
    a, b = cuts[:-1], cuts[1:]
    half = 0.5 * (b - a)
    pts = 0.5 * (a + b)[:, None] + half[:, None] * _DISK_GX  # one row per panel
    wts = half[:, None] * _DISK_GW
    for at_edge, edge, sign in ((a == abs(d - r), a, 1.0), (b == hi, b, -1.0)):
        span = np.sqrt(b[at_edge] - a[at_edge])[:, None]
        t = 0.5 * span * (1.0 + _DISK_GX)
        pts[at_edge] = edge[at_edge][:, None] + sign * t * t
        wts[at_edge] = span * _DISK_GW * t  # (span / 2) w * d(rho)/dt
    # A panel lies in one node interval, found from its left end, and its Gauss
    # points take that cubic even where one rounds onto the panel's end node:
    # such a panel is a few ulps wide, far below the rounding of the sum.
    amp = prof.field(pts, np.searchsorted(x, a, side="right")[:, None] - 1)
    weight = 2.0 * _overlap_halfwidth(pts, disk)
    return ((amp.real ** 2 + amp.imag ** 2) * weight * pts * wts).sum()  # one pairwise sum


def _centered_power(profiles, radius: float, out: np.ndarray):
    """disk_power of consecutive profiles on a centered disk into ``out``,
    their nodes taken end to end: the exact integral of the interpolant.

    On node interval j the intensity of the cubic is the degree-6 polynomial
    ``sum_k a_k u^k``, u = rho - x_j, with a_k the sum over i + m = k of
    Re(c_i conj(c_m)).  With h the interval's part inside the disk,
    ``int_0^h a_k u^k (x_j + u) du = a_k h^(k+1) (x_j/(k+1) + h/(k+2))``.

    The columns come from one :func:`_hermite_coefficients` call, not from
    each profile's :attr:`FieldProfile.pieces`: over the 1,207 profiles of a
    distance search, 7.5 ms against 23.2 ms, where disk_power takes 10.7 ms.
    """
    ends = np.cumsum([p.radial_nodes.size for p in profiles])
    x = np.concatenate([p.radial_nodes for p in profiles])
    coeffs = _hermite_coefficients(x, np.concatenate([p.complex_amplitudes for p in profiles]),
                                   np.concatenate([p.slopes for p in profiles]))
    re, im = coeffs.real, coeffs.imag
    a = np.zeros((7, x.size - 1))
    for i in range(4):
        prod = re[i] * re[i:] + im[i] * im[i:]  # Re(c_i conj(c_m)), m >= i
        prod[1:] *= 2.0  # m > i comes twice, as (i, m) and (m, i)
        a[2 * i:i + 4] += prod
    left = x[:-1]
    h = np.clip(np.minimum(x[1:], radius) - left, 0.0, None)
    terms = np.zeros_like(h)
    for k in range(6, -1, -1):  # Horner's rule in h
        terms = terms * h + a[k] * (left / (k + 1) + h / (k + 2))
    terms *= h
    # one sum per profile over its own intervals, the same for the profile
    # alone; every other slice is the interval between two profiles
    bounds = np.empty(2 * ends.size - 1, dtype=np.intp)
    bounds[0], bounds[2::2], bounds[1::2] = 0, ends[:-1], ends[:-1] - 1
    out[:] = 2.0 * math.pi * np.add.reduceat(terms, bounds)[::2]


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d array without its import of ``numpy.ma``, and
    4x faster on disk_power's cuts."""
    values = np.sort(values)
    distinct = np.ones(values.size, dtype=bool)
    distinct[1:] = values[1:] != values[:-1]
    return values[distinct]


def arago_relative_amplitude(obstacle_radius: float, distance: float, l,
                             wavelength: float):
    """Bright-spot relative amplitude behind a circular obstacle.

    Point-source result: ``sqrt(D^2/(D^2+r_b^2)) * |J0(2 pi r_b l / (lambda D))|``,
    with J0 from :func:`bessel_j0`.  Multiplying the
    undisturbed field magnitude by this factor predicts the shadow-region
    field of a nearly collimated beam.
    """
    if distance <= 0:
        raise ValueError("propagation distance must be positive")
    x = (2.0 * math.pi * obstacle_radius * np.asarray(l, dtype=float)
         / (wavelength * distance))
    pref = math.sqrt(distance ** 2 / (distance ** 2 + obstacle_radius ** 2))
    out = pref * np.abs(bessel_j0(x))
    return float(out) if out.ndim == 0 else out


def bessel_j0(x):
    """J0(x) from the recurrence of the Lommel series, in the shape of ``x``;
    the orders follow the call's largest |x|."""
    x = np.abs(np.asarray(x, dtype=float))
    j0 = _bessel_sums(x.ravel(), np.zeros(x.size, dtype=complex))[0]
    return j0.reshape(x.shape)


# ---------------------------------------------------------------------------
# Serialization: versioned little-endian binary record.
# Header: uint32 version; 7 float64 fields: the profile key less its coverage
# (wavelength, waist radius, field peak, source plane distance, inner radius,
# propagation distance), then the budget's achieved error;
# uint64 node count (the budget's profile_nodes); uint64 budget source_nodes.
# Body: (node, re, im, slope re, slope im) float64 rows, read and written as
# the node column and a (amplitude, slope) complex view; the last node is the
# coverage.  The sequence form of deserialize_profile reads records laid end
# to end in one buffer, each RECORD_GAP bytes after the one before and the
# first at byte RECORD_GAP.  A gap and a header fill 80 bytes, two body rows,
# so a buffer of valid records is one table of 40-byte rows.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<I7d2Q")
RECORD_GAP = 4


def serialize_profile(profile: FieldProfile) -> bytes:
    budget = profile.budget
    n = profile.radial_nodes.size
    head = _HEADER.pack(SERIALIZATION_VERSION, *profile.key[:-1],
                        budget.achieved, n, budget.source_nodes)
    body = np.empty((n, 5), dtype="<f8")
    body[:, 0] = profile.radial_nodes
    waves = body[:, 1:].view("<c16")
    waves[:, 0], waves[:, 1] = profile.complex_amplitudes, profile.slopes
    return head + body.tobytes()


def deserialize_profile(blob: bytes, key: tuple | None = None,
                        src: SourceAnnulus | None = None, spans=None
                        ) -> FieldProfile | list[FieldProfile] | None:
    """The profile of a record, its arrays read-only views of ``blob``.

    Raises ValueError for a short or long record, another version, a grid
    that is not strictly increasing from 0 over at least 2 nodes, or a value
    that is not finite.  The last is one sum over the body, which is not
    finite if any value is not; it would also reject a finite record whose
    sum overflows, far above any field a profile holds.

    With ``key``, the :func:`profile_key` of a request, and ``src``, the
    annulus of that request, a valid record whose header and last node are
    not that key gives None, and one that is gives a profile whose source is
    ``src`` itself, so that no beam or annulus is built.  Without them the
    source is built from the header.

    Sequence form: with ``spans``, the (start, stop) byte range of each
    record in ``blob``, laid out as the comment above this function says,
    and ``key`` and ``src`` sequences with one entry per record, the list of
    their profiles, views of one table of the buffer's rows.  Version,
    length and key are checked header by header in Python; the grids, the
    finiteness and the last nodes in one pass over the table.  If any record
    fails, or the layout is not that one, it gives None; the caller then
    reads each record alone, by the form above, to learn which and why.
    """
    if spans is not None:
        return _deserialize_sequence(blob, key, src, spans)
    if len(blob) < _HEADER.size:
        raise ValueError("profile record truncated: missing header")
    version, *head, achieved, count, source_nodes = _HEADER.unpack_from(blob)
    if version != SERIALIZATION_VERSION:
        raise ValueError(f"unsupported profile record version {version}")
    expect = _HEADER.size + count * 40
    if len(blob) != expect:
        raise ValueError(f"profile record truncated: {len(blob)} bytes, expected {expect}")
    body = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape(count, 5)
    nodes = body[:, 0]
    # written so that a NaN node fails it
    if count < 2 or nodes[0] != 0.0 or not (nodes[1:] > nodes[:-1]).all():
        raise ValueError("profile record corrupt: bad radial grid")
    if not math.isfinite(body.sum()):
        raise ValueError("profile record corrupt: a value is not finite")
    # profile_key's order: three beam fields, two annulus fields, the
    # distance, then the coverage, which is the last node
    if key is not None and (tuple(head) != key[:6] or nodes[-1] != key[6]):
        return None
    if src is None:
        src = SourceAnnulus(BeamParams(*head[:3]), *head[3:5])
    waves = body[:, 1:].view("<c16")
    budget = QuadratureBudget(achieved, source_nodes, count)
    return FieldProfile(src, head[5], nodes, waves[:, 0], waves[:, 1], budget)


def _deserialize_sequence(blob, keys, sources, spans) -> list[FieldProfile] | None:
    heads, at = [], RECORD_GAP
    for (start, stop), key in zip(spans, keys):
        if start != at or stop - start < _HEADER.size:
            return None
        version, *head, achieved, count, source_nodes = _HEADER.unpack_from(blob, start)
        if (version != SERIALIZATION_VERSION or stop - start != _HEADER.size + count * 40
                or count < 2 or tuple(head) != key[:6]):
            return None
        heads.append((head[5], achieved, count, source_nodes))
        at = stop + RECORD_GAP
    rows = np.frombuffer(blob, dtype="<f8", count=(at - RECORD_GAP) // 8).reshape(-1, 5)
    nodes = rows[:, 0]
    counts = np.array([head[2] for head in heads])
    first = np.cumsum(counts + 2) - counts  # row of each record's axis node
    # pairs of rows that meet a header need not rise; a NaN node fails the rest
    rising = nodes[1:] > nodes[:-1]
    rising[first - 2] = rising[first - 1] = True
    rising[first[1:] - 3] = True
    # the sum takes in the headers too: it is finite if they and the bodies
    # are, as the header's gap, version and counts read as tiny doubles
    if not (rising.all() and (nodes[first] == 0.0).all()
            and (nodes[first + counts - 1] == [key[6] for key in keys]).all()
            and math.isfinite(rows.sum())):
        return None
    waves = rows[:, 1:].view("<c16")
    amplitudes, slopes = waves[:, 0], waves[:, 1]
    return [FieldProfile(src, distance, nodes[f:f + count], amplitudes[f:f + count],
                         slopes[f:f + count], QuadratureBudget(achieved, source_nodes, count))
            for (distance, achieved, count, source_nodes), f, src
            in zip(heads, first.tolist(), sources)]
