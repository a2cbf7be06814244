import functools
import itertools
import math
import struct
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import j0

from diffraction_reference import (annulus_power, disk_quadrature_integral,
                                   fresnel_valid, offset_disk_power_direct,
                                   phase_panels, profile_power, rs_field_direct)
from fsoqkd import diffraction
from fsoqkd.beams import BeamParams, field_amplitude, plane_params, total_power
from fsoqkd.diffraction import (CoverageError, DiskSpec, FieldProfile,
                                QuadratureBudget, QuadratureError, SourceAnnulus,
                                arago_relative_amplitude, deserialize_profile,
                                disk_power, propagate_profile,
                                serialize_profile, _bessel_sums,
                                _fresnel_integral, _fresnel_prefactor,
                                _gaussian_hankel, _overlap_halfwidth)

LAM = 1550e-9


def reference_field(src, distance, nodes):
    """Fresnel field at ``nodes`` with the source cut at 6 W (tail ~e^-36).

    Brute-force radial quadrature over [inner_radius, 6 W]: uniform panels
    spanning at most pi of the integrand's phase, 16 Gauss points each, the
    J0 kernel from scipy.  Shares only the constant prefactor with the code
    under test.
    """
    beam = src.beam
    k = beam.wavenumber
    plane = plane_params(beam, src.plane_distance)
    inv_r = 0.0 if math.isinf(plane.curvature_radius) else 1.0 / plane.curvature_radius
    a, b = src.inner_radius, 6.0 * plane.spot_size
    rate = 2.0 * abs(k / 2.0 * (1.0 / distance - inv_r)) * b + k * nodes.max() / distance
    n = max(64, int(math.ceil((b - a) * rate / math.pi)))
    edges = np.linspace(a, b, n + 1)
    gx, gw = leggauss(16)
    half = 0.5 * np.diff(edges)[:, None]
    r = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * gx).ravel()
    w = (half * gw).ravel()
    envelope = (beam.field_peak * beam.waist_radius / plane.spot_size
                * np.exp(-r ** 2 / plane.spot_size ** 2)
                * np.exp(-1j * (k * r ** 2 * inv_r / 2.0 - plane.gouy_phase)))
    base = envelope * np.exp(1j * k * r ** 2 / (2.0 * distance)) * r * w
    integral = np.array([j0(k * l * r / distance) @ base for l in nodes])
    return _fresnel_prefactor(src, distance, nodes) * integral


def field_at(src, distance, l):
    """Field at radius ``l`` on the production path: the outer node of a
    profile whose disk reaches ``l``, or node 0 of any profile on the axis."""
    prof = propagate_profile(src, distance, DiskSpec(l or 0.1, 0.0))
    return complex(prof.complex_amplitudes[-1 if l else 0])


@pytest.fixture(scope="module")
def beam():
    return BeamParams(LAM, 0.1)


def cropped(beam, plane=20e3, inner=0.1):
    return SourceAnnulus(beam, plane, inner)


# ------------------------------------------------------------ validity test

def test_fresnel_validity_far_field(beam):
    ok, margin = fresnel_valid(cropped(beam, 50e3), 50e3)
    assert ok and margin > 1e6


def test_fresnel_validity_fails_at_zero(beam):
    ok, margin = fresnel_valid(cropped(beam), 1e-6)
    assert not ok and margin < 1.0


def test_fresnel_validity_breaks_only_at_absurd_distance(beam):
    # with a 10 cm waist the condition only fails around 4e10 km link length
    for lab_km in (1e2, 1e6, 1e9):
        src = cropped(beam, lab_km * 1e3)
        assert fresnel_valid(src, lab_km * 1e3)[0]
    bad = 4e13  # meters
    assert not fresnel_valid(cropped(beam, bad), bad)[0]


# --------------------------------------------------- direct oracle behavior

def test_identity_aperture_reproduces_beam(beam):
    # no crop: free propagation from 1 km by 100 m equals the beam at 1.1 km
    src = SourceAnnulus(beam, 1e3, 0.0)
    got = rs_field_direct(src, 100.0, 0.0)
    want = field_amplitude(beam, 0.0, 1.1e3)
    assert abs(abs(got) - abs(want)) / abs(want) < 1e-3


def test_identity_aperture_approaches_source_plane(beam):
    src = SourceAnnulus(beam, 1e3, 0.0)
    target = abs(field_amplitude(beam, 0.0, 1e3))
    errors = [abs(abs(rs_field_direct(src, d, 0.0)) - target) / target
              for d in (200.0, 100.0, 50.0)]
    assert errors[-1] < 2e-2
    assert errors == sorted(errors, reverse=True)


def test_oracle_azimuth_independence(beam):
    src = cropped(beam)
    a = rs_field_direct(src, 15e3, 0.07, phi=0.0)
    b = rs_field_direct(src, 15e3, 0.07, phi=2.1)
    assert a == b


def test_oracle_matches_bessel_reduction(beam):
    src = cropped(beam)
    for dist, l in [(20e3, 0.0), (20e3, 0.1), (7e3, 0.05)]:
        direct = rs_field_direct(src, dist, l)
        fast = field_at(src, dist, l)
        assert abs(abs(direct) - abs(fast)) / abs(direct) < 1e-3


def test_bessel_reduction_at_axis_equals_plain_integral(beam):
    # at l = 0 the Bessel kernel is identically 1
    src = cropped(beam)
    u = field_at(src, 20e3, 0.0)
    want = complex(reference_field(src, 20e3, np.array([0.0]))[0])
    assert abs(u) > 0.0
    assert abs(u - want) / abs(want) <= 1e-10


def test_onaxis_refocused_amplitude_large_link(beam):
    # far-regime limit of the refocused on-axis field: E0 (1 - e^-9)
    lab = 400e3
    src = cropped(beam, lab)
    u = field_at(src, lab, 0.0)
    assert abs(u) / beam.field_peak == pytest.approx(1.0 - math.exp(-9.0), rel=5e-3)


def test_reconvergence_peak_near_link_distance(beam):
    lab = 60e3
    src = cropped(beam, lab)
    dists = np.geomspace(10e3, 300e3, 36)
    mags = [abs(field_at(src, float(d), 0.0)) for d in dists]
    peak = float(dists[int(np.argmax(mags))])
    assert abs(peak - lab) / lab < 0.10


def test_refocusing_sequence_qualitative(beam):
    # central magnitude grows toward the link distance then spreads
    lab = 60e3
    src = cropped(beam, lab)
    mags = {d: abs(field_at(src, d * 1e3, 0.0)) for d in (1, 20, 60, 120)}
    assert mags[1] < mags[20] < mags[60]
    assert mags[120] < mags[60]


# ------------------------------------------------------------ profiles

@pytest.fixture(scope="module")
def profile_60(beam):
    src = SourceAnnulus(beam, 60e3, 0.1)
    return propagate_profile(src, 60e3, DiskSpec(0.1, 0.0))


def test_profile_grid_shape(profile_60):
    nodes = profile_60.radial_nodes
    assert nodes[0] == 0.0
    assert np.all(np.diff(nodes) > 0)
    assert profile_60.truncation_radius >= 0.1


def test_profile_covers_offset_disk(beam):
    src = SourceAnnulus(beam, 40e3, 0.1)
    prof = propagate_profile(src, 5e3, DiskSpec(0.1, 0.3))
    assert prof.truncation_radius >= 0.4
    disk_power(prof, DiskSpec(0.1, 0.3))  # no coverage error
    with pytest.raises(CoverageError):
        disk_power(prof, DiskSpec(0.1, 0.5))


def test_profile_energy_bounded_by_source(beam):
    for dist in (5e3, 20e3, 60e3):
        src = SourceAnnulus(beam, 60e3, 0.1)
        prof = propagate_profile(src, dist, DiskSpec(0.1, 0.0))
        assert profile_power(prof) <= annulus_power(src) * (1 + 1e-3)


def test_profile_energy_near_conservation_wide_coverage(beam):
    # the untruncated source collects the same power as a source cut at 6 W,
    # whose tail bound is e^-36 of the power
    src = SourceAnnulus(beam, 30e3, 0.1)
    prof = propagate_profile(src, 10e3, DiskSpec(0.2, 0.0))
    ref = replace(prof, complex_amplitudes=reference_field(
        src, 10e3, prof.radial_nodes))
    a = disk_power(prof, DiskSpec(0.2, 0.0))
    b = disk_power(ref, DiskSpec(0.2, 0.0))
    assert abs(a - b) / b < 1e-8


@pytest.mark.parametrize("alpha,s", [
    (-4.0 + 0.0j, 0.0),
    (-20.0 + 150.0j, 0.0),
    (-20.0 - 150.0j, 40.0),
    (-2.0 + 7.0j, 9.0),
])
def test_gaussian_hankel_matches_mpmath(alpha, s):
    with mpmath.workdps(30):
        a = mpmath.mpc(alpha)
        # split at every pi of the quadratic phase, out to the e^-60 envelope
        r_end = math.sqrt(60.0 / -alpha.real)
        splits = max(8, int(abs(alpha.imag) * r_end ** 2 / math.pi))
        points = [r_end * math.sqrt(i / splits) for i in range(splits + 1)]
        want = mpmath.quad(lambda r: mpmath.exp(a * r * r) * mpmath.besselj(0, s * r) * r,
                           points + [mpmath.inf])
        want = complex(want)
    got = complex(_gaussian_hankel(alpha, s))
    assert abs(got - want) / abs(want) <= 1e-12


@pytest.mark.parametrize("scenario,lbe_km", [
    ("behind", 2.0), ("behind", 5.0), ("behind", 40.0), ("behind", 400.0),
    ("before", 5.0), ("before", 20.0),
])
def test_profile_matches_wide_truncated_reference(beam, scenario, lbe_km):
    lab, lbe = 40e3, lbe_km * 1e3
    plane = lab if scenario == "behind" else lab - lbe
    src = SourceAnnulus(beam, plane, 0.1)
    prof = propagate_profile(src, lbe, DiskSpec(0.1, 0.0))
    ref = reference_field(src, lbe, prof.radial_nodes)
    err = np.abs(prof.complex_amplitudes - ref).max() / np.abs(ref).max()
    assert err <= 1e-10


def test_unobstructed_source_is_closed_form_only(beam):
    src = SourceAnnulus(beam, 40e3, 0.0)
    prof = propagate_profile(src, 5e3, DiskSpec(0.1, 0.0))
    assert prof.budget.source_nodes == 0 and prof.budget.achieved == 0.0
    ref = reference_field(src, 5e3, prof.radial_nodes)
    assert np.abs(prof.complex_amplitudes - ref).max() / np.abs(ref).max() <= 1e-10


def test_grid_refinement_stable_disk_powers(beam, monkeypatch):
    import fsoqkd.diffraction as d

    src = SourceAnnulus(beam, 40e3, 0.1)
    base = propagate_profile(src, 12e3, DiskSpec(0.1, 0.0))
    monkeypatch.setattr(d, "PROFILE_NODES_PER_HALF_PERIOD",
                        2 * d.PROFILE_NODES_PER_HALF_PERIOD)
    dense = propagate_profile(src, 12e3, DiskSpec(0.1, 0.0))
    pa = disk_power(base, DiskSpec(0.1, 0.0))
    pb = disk_power(dense, DiskSpec(0.1, 0.0))
    assert base.radial_nodes.size < dense.radial_nodes.size
    assert abs(pa - pb) / pb < 1e-4


def test_profile_determinism(beam):
    src = SourceAnnulus(beam, 25e3, 0.1)
    a = propagate_profile(src, 8e3, DiskSpec(0.1, 0.0))
    b = propagate_profile(src, 8e3, DiskSpec(0.1, 0.0))
    assert np.array_equal(a.radial_nodes, b.radial_nodes)
    assert np.array_equal(a.complex_amplitudes, b.complex_amplitudes)


def test_propagation_rejects_nonpositive_distance(beam):
    src = cropped(beam)
    with pytest.raises(ValueError):
        propagate_profile(src, 0.0, DiskSpec(0.1, 0.0))
    with pytest.raises(ValueError):
        propagate_profile(src, -5.0, DiskSpec(0.1, 0.0))


def test_quadrature_budget_error_carries_estimate(beam, monkeypatch):
    import fsoqkd.diffraction as d

    monkeypatch.setattr(d, "PROFILE_MAX_NODES", 8)
    src = SourceAnnulus(beam, 40e3, 0.1)
    with pytest.raises(QuadratureError):
        propagate_profile(src, 2e3, DiskSpec(0.1, 0.5))


# ------------------------------------------------------------ Lommel series

def annulus_field_mpmath(src, distance, l):
    """``A int_a^inf exp(alpha r^2) J0(s r) r dr`` at the code's alpha and s:
    the closed form of the whole beam less the disk by 20-digit Gauss
    quadrature, split at every third of a Bessel period or pi of phase."""
    k = src.beam.wavenumber
    amp, c_src = diffraction._source_gaussian(src)
    alpha = c_src + 0.5j * k / distance
    s, a = k * l / distance, src.inner_radius
    with mpmath.workdps(20):
        al, ss = mpmath.mpc(alpha), mpmath.mpf(s)
        splits = int(abs(alpha.imag) * a * a / 2 + s * a / 3) + 4
        disk = mpmath.quad(lambda r: mpmath.exp(al * r * r) * mpmath.besselj(0, ss * r) * r,
                           [a * mpmath.mpf(j) / splits for j in range(splits + 1)],
                           method="gauss-legendre")
        return complex(mpmath.mpc(amp) * (-mpmath.exp(ss ** 2 / (4 * al)) / (2 * al) - disk))


SERIES_SOURCES = {"near": (40e3, 700.0, 0.1), "long": (40e3, 400e3, 0.1),
                  "before": (35e3, 5e3, 0.1), "wide": (40e3, 2e3, 0.3),
                  "short": (40e3, 100.0, 0.1)}


@pytest.mark.parametrize("source,v", [
    (source, v) for source in ("near", "long", "before", "wide")
    for v in (0.0, 1e-9, 0.5, "below", "above", 30.0)] + [("near", 400.0), ("short", 1000.0)])
def test_lommel_series_matches_mpmath(beam, source, v):
    # v = s a and c = alpha a^2 as in _fresnel_integral; "below" and "above"
    # put v a part in 1e9 on either side of the U/V boundary 2|c|
    plane, distance, a = SERIES_SOURCES[source]
    src = SourceAnnulus(beam, plane, a)
    k = beam.wavenumber
    c = (diffraction._source_gaussian(src)[1] + 0.5j * k / distance) * a * a
    if isinstance(v, str):
        v = 2.0 * abs(c) * (1.0 + (1e-9 if v == "above" else -1e-9))
    l = v * distance / (k * a)
    got = complex(_fresnel_integral(src, distance, np.array([l]))[0][0])
    want = annulus_field_mpmath(src, distance, l)
    assert abs(got - want) / abs(want) <= 1e-12


def annulus_slope_mpmath(src, distance, l):
    """dI/ds of :func:`annulus_field_mpmath`: mpmath's derivative of the
    closed form, plus ``A int_0^a exp(alpha r^2) J1(s r) r^2 dr`` by the same
    quadrature, since d J0(s r)/ds = -r J1(s r)."""
    k = src.beam.wavenumber
    amp, c_src = diffraction._source_gaussian(src)
    alpha = c_src + 0.5j * k / distance
    s, a = k * l / distance, src.inner_radius
    with mpmath.workdps(20):
        al, ss = mpmath.mpc(alpha), mpmath.mpf(s)
        whole = mpmath.diff(lambda x: -mpmath.exp(x ** 2 / (4 * al)) / (2 * al), ss)
        splits = int(abs(alpha.imag) * a * a / 2 + s * a / 3) + 4
        disk = mpmath.quad(lambda r: mpmath.exp(al * r * r) * mpmath.besselj(1, ss * r) * r * r,
                           [a * mpmath.mpf(j) / splits for j in range(splits + 1)],
                           method="gauss-legendre") if a else 0
        return complex(mpmath.mpc(amp) * (whole + disk))


@pytest.mark.parametrize("source,v", [
    (source, v) for source in ("near", "long", "before", "wide")
    for v in (0.0, 1e-9, 0.5, "below", "above", 30.0)]
    + [("near", 400.0), ("short", 1000.0)]
    + [("open", v) for v in (0.0, 1e-9, 0.5, 30.0)])
def test_lommel_series_slope_matches_mpmath(beam, source, v):
    # dI/ds = (a e^(alpha a^2) J1(s a) + s I) / (2 alpha) in both forms of the
    # series, on the axis, and without a disk (source "open", a = 0, where v
    # is taken for a 10 cm disk); measured <= 4.8e-14 relative
    plane, distance, a = {**SERIES_SOURCES, "open": (40e3, 5e3, 0.0)}[source]
    src = SourceAnnulus(beam, plane, a)
    k = beam.wavenumber
    radius = a or 0.1
    c = (diffraction._source_gaussian(src)[1] + 0.5j * k / distance) * radius ** 2
    if isinstance(v, str):
        v = 2.0 * abs(c) * (1.0 + (1e-9 if v == "above" else -1e-9))
    l = v * distance / (k * radius)
    got = complex(_fresnel_integral(src, distance, np.array([l]))[1][0])
    want = annulus_slope_mpmath(src, distance, l)
    if v == 0.0:  # the slope of an even function; a radius times |I(0)| scales it
        axis = abs(complex(_fresnel_integral(src, distance, np.array([0.0]))[0][0]))
        assert want == 0.0 and abs(got) <= 1e-17 * radius * axis
    else:
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("plane,distance,a,coverage", [
    (40e3, 700.0, 0.1, 0.1), (40e3, 400e3, 0.1, 0.1), (35e3, 5e3, 0.1, 0.1),
    (40e3, 2e3, 0.3, 0.3), (40e3, 100.0, 0.1, 0.1), (40e3, 5e3, 0.0, 0.1),
], ids=["near", "long", "before", "wide", "short", "open"])
def test_profile_slopes_match_richardson_difference(beam, plane, distance, a, coverage):
    # dU/dl at every node off the axis against a Richardson-extrapolated
    # central difference of the series field, steps a tenth of the finest
    # node spacing; measured 1.4e-12..6.4e-11 of max|dU/dl|
    src = SourceAnnulus(beam, plane, a)
    prof = propagate_profile(src, distance, DiskSpec(coverage))

    def central(h):
        x = prof.radial_nodes[1:]
        up, down = (_fresnel_prefactor(src, distance, x + sign * h)
                    * _fresnel_integral(src, distance, x + sign * h)[0]
                    for sign in (1.0, -1.0))
        return (up - down) / (2.0 * h)

    h = 0.1 * np.diff(prof.radial_nodes).min()
    richardson = (4.0 * central(h / 2.0) - central(h)) / 3.0
    peak = np.abs(prof.slopes).max()
    assert np.all(np.isfinite(prof.slopes))
    assert np.abs(prof.slopes[1:] - richardson).max() <= 2e-10 * peak
    assert abs(prof.slopes[0]) <= 1e-17 * peak  # U is even in l


# (Bob-Eve distance, coverage) of the compared profiles, behind Bob's
# aperture 40 km from Alice
QUADRATURE_NODE_SETS = [(100.0, 0.1), (700.0, 0.1), (500.0, 0.7), (5e3, 0.1),
                        (40e3, 0.1), (400e3, 0.1), (1000e3, 0.1)]


@pytest.mark.parametrize("distance,coverage", QUADRATURE_NODE_SETS)
def test_lommel_series_matches_disk_quadrature(beam, distance, coverage):
    src = SourceAnnulus(beam, 40e3, 0.1)
    nodes = diffraction._profile_nodes(src, distance, coverage)
    got, _, terms, achieved = _fresnel_integral(src, distance, nodes)
    _, want, _ = disk_quadrature_integral(src, distance, nodes)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert achieved <= diffraction.SERIES_EPS and terms > 0


def test_lommel_series_raises_no_floating_point_error(beam):
    rng = np.random.default_rng(5)
    v = np.concatenate([[0.0, 1e-300, 1e-30, 1e-20, 1e-9], np.geomspace(1e-6, 3e3, 60)])
    t = rng.uniform(0.0, 1.0, v.size) * np.exp(2j * np.pi * rng.uniform(size=v.size))
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        j0, j1, tail, _, _ = _bessel_sums(v, t)
        for plane, distance, a in SERIES_SOURCES.values():
            src = SourceAnnulus(beam, plane, a)
            nodes = np.concatenate([[0.0, 1e-300, 1e-12],
                                    diffraction._profile_nodes(src, distance, 0.3)])
            integral, slope, _, _ = _fresnel_integral(src, distance, nodes)
            assert np.all(np.isfinite(integral)) and np.all(np.isfinite(slope))
        arago_relative_amplitude(0.1, 700.0, np.linspace(0.0, 0.3, 50), LAM)
    assert np.all(np.isfinite(j0)) and np.all(np.isfinite(j1)) and np.all(np.isfinite(tail))


def test_term_budget_error_carries_the_tail_bound(beam, monkeypatch):
    # 12 km behind Bob the terms at the outer node fall below SERIES_EPS
    # after about 22 orders; a budget below that cuts the series short
    src = SourceAnnulus(beam, 40e3, 0.1)
    full = propagate_profile(src, 12e3, DiskSpec(0.1))
    assert full.budget.achieved <= diffraction.SERIES_EPS
    x = beam.wavenumber * 0.1 * 0.1 / 12e3 / 2.0  # v / 2 at the outer node

    def tail_bound(m):
        return 2.0 * x ** (m + 1) / math.factorial(m + 1)

    monkeypatch.setattr(diffraction, "SERIES_MAX_TERMS", 5)
    with pytest.raises(QuadratureError, match="budget of 5") as err:
        propagate_profile(src, 12e3, DiskSpec(0.1))
    assert err.value.estimate == pytest.approx(tail_bound(5), rel=1e-12)
    # a cut within the tolerance is recorded, not raised
    monkeypatch.setattr(diffraction, "SERIES_MAX_TERMS", 15)
    cut = propagate_profile(src, 12e3, DiskSpec(0.1))
    assert cut.budget.source_nodes == 16
    assert cut.budget.achieved == pytest.approx(tail_bound(15), rel=1e-12)
    assert diffraction.SERIES_EPS < cut.budget.achieved <= diffraction.PROFILE_FIELD_RTOL
    assert np.abs(cut.complex_amplitudes - full.complex_amplitudes).max() \
        <= cut.budget.achieved * np.abs(full.complex_amplitudes[0])


def series_start_order(x):
    """First order N past the turning point x < (N + 2) / 2 whose tail bound
    2 x^(N+1) / (N+1)! is at most SERIES_EPS."""
    n = 0
    while (math.log(2.0) + (n + 1) * math.log(x) - math.lgamma(n + 2)
           > math.log(diffraction.SERIES_EPS) or x >= 0.5 * (n + 2)):
        n += 1
    return n


@pytest.mark.parametrize("x", [1e-3, 0.05, 1.0, 29.0, 142.0, 5e4])
def test_recurrence_starts_at_the_tail_order(x):
    # the orders summed are 0..N, with no margin above the tail order N
    v = np.array([0.5 * x, 2.0 * x])
    terms = _bessel_sums(v, np.array([0.3, -1.0 + 0j]))[3]
    assert terms == series_start_order(x) + 1


def besselj_orders(v, top):
    """J_0(v) .. J_top(v) at the current mpmath precision: mpmath's J_top
    and J_(top+1), then the three-term recurrence down, which is stable
    for the minimal solution in that direction."""
    j = [mpmath.besselj(top + 1, v), mpmath.besselj(top, v)]
    for n in range(top, 0, -1):
        j.append(2 * n / v * j[-1] - j[-2])
    return j[:0:-1]


def test_recurrence_is_accurate_where_its_start_is_tightest():
    # for each start order N, x just below the threshold where the order
    # steps to N + 1, so that the tail bound at N is nearly SERIES_EPS; the
    # sums in the U form, sum_{n>=1} t^(n-1) J_n, and the V form,
    # sum_{n>=0} t^n J_n = J0 + t (U form), against 30-digit mpmath;
    # measured <= 1.1e-14 of the largest term
    ts = np.array([0.3, -0.3, 0.3 * np.exp(2j), 1.0, -1.0, np.exp(2j)])
    worst = 0.0
    for order in range(5, 201):
        x = math.exp((math.log(diffraction.SERIES_EPS / 2.0) + math.lgamma(order + 2))
                     / (order + 1)) * (1.0 - 1e-12)
        j0, j1, u_form, terms, _ = _bessel_sums(np.full(ts.size, 2.0 * x), ts)
        assert terms == order + 1
        with mpmath.workdps(30):
            v = mpmath.mpf(2.0 * x)
            j = besselj_orders(v, order + 30)
            assert abs(j[0] - mpmath.besselj(0, v)) < 1e-25
            assert abs(j[1] - mpmath.besselj(1, v)) < 1e-25
            magnitude = np.abs(np.array(j, dtype=float))
            worst = max(worst, abs(j0[0] - float(j[0])) / magnitude.max(),
                        abs(j1[0] - float(j[1])) / magnitude.max())
            for k, t in enumerate(ts):
                want_u, tm = mpmath.mpf(0), mpmath.mpc(t)
                for jn in j[:0:-1]:
                    want_u = want_u * tm + jn
                want_v = j[0] + tm * want_u
                terms_u = abs(t) ** np.arange(len(j) - 1) * magnitude[1:]
                largest_v = max(magnitude[0], abs(t) * terms_u.max())
                worst = max(worst, abs(u_form[k] - complex(want_u)) / terms_u.max(),
                            abs(j0[k] + t * u_form[k] - complex(want_v)) / largest_v)
    assert worst <= 1e-13


# ------------------------------------------------------------ disk power

def test_disk_power_vanishing_collector(profile_60):
    assert disk_power(profile_60, DiskSpec(1e-9, 0.0)) < 1e-12


def test_disk_power_full_coverage_is_total(profile_60):
    total = disk_power(profile_60, DiskSpec(profile_60.truncation_radius, 0.0))
    assert total == pytest.approx(profile_power(profile_60), rel=1e-12)


def test_disk_power_onaxis_equals_alpha_branch(profile_60):
    # the closed form on axis against the angular-overlap weight at D = 0, pi
    # inside the disk, by 8-point Gauss per interval: exact for the degree-7
    # integrand, so the two differ by rounding
    disk = DiskSpec(0.08, 0.0)
    rho = np.linspace(1e-4, 0.08, 7)
    assert np.all(_overlap_halfwidth(rho, disk) == math.pi)
    want = reference_disk_power(profile_60, disk)
    assert abs(disk_power(profile_60, disk) - want) <= 1e-13 * want


def test_disk_power_offaxis_matches_cartesian_oracle(beam):
    src = SourceAnnulus(beam, 40e3, 0.1)
    prof = propagate_profile(src, 5e3, DiskSpec(0.1, 0.25))
    want = disk_power(prof, DiskSpec(0.1, 0.2))
    spline = prof.field
    n = 1401
    xs = np.linspace(0.1, 0.3, n)
    ys = np.linspace(-0.1, 0.1, n)
    xx, yy = np.meshgrid(xs, ys)
    rr = np.hypot(xx, yy)
    inside = (xx - 0.2) ** 2 + yy ** 2 <= 0.01
    vals = np.where(inside,
                    np.abs(spline(np.clip(rr, 0, prof.truncation_radius))) ** 2,
                    0.0)
    brute = vals.sum() * (xs[1] - xs[0]) * (ys[1] - ys[0])
    assert abs(want - brute) / brute < 1e-3


def test_disk_power_disjoint_disk_is_zero(profile_60):
    prof = profile_60
    big = propagate_profile(prof.source, prof.propagation_distance,
                            DiskSpec(0.02, 0.15))
    # disk entirely off the lit axis still collects the ring power there
    val = disk_power(big, DiskSpec(0.02, 0.15))
    assert val >= 0.0


# ------------------------------------------------------ profile interpolant

@functools.cache
def profile_at(plane, distance, offset=0.0):
    """Profile behind a 10 cm disk at ``plane``, covering a 10 cm disk at ``offset``."""
    src = SourceAnnulus(BeamParams(LAM, 0.1), plane, 0.1)
    return propagate_profile(src, distance, DiskSpec(0.1, offset))


# (L_AB, L_BE, Eve's radius, her offset, bound) behind a 10 cm Bob: the
# interpolant's worst error at the node midpoints, relative to max|U|, was
# measured 1.1e-8, 1.9e-8, 3.0e-9, 1.5e-8, 1.3e-7 and 1.0e-8; the not-a-knot
# spline through the same nodes had 6.4e-8, 1.9e-7, 1.2e-8, 1.5e-7, 2.5e-7
# and 1.0e-7.
INTERPOLATION_ROWS = [(40e3, 0.5e3, 0.1, 0.0, 2e-8), (40e3, 5e3, 0.1, 0.0, 3e-8),
                      (40e3, 40e3, 0.1, 0.0, 5e-9), (40e3, 1e3, 0.1, 0.13, 3e-8),
                      (40e3, 40e3, 0.1, 0.15, 2e-7), (50e3, 1e3, 0.3, 0.0, 2e-8)]


@pytest.mark.parametrize("plane,distance,radius,offset,bound", INTERPOLATION_ROWS,
                         ids=["0.5km", "5km", "40km", "1km-offset", "40km-offset",
                              "1km-wide"])
def test_interpolator_matches_series_at_node_midpoints(beam, plane, distance, radius,
                                                       offset, bound):
    src = SourceAnnulus(beam, plane, 0.1)
    prof = propagate_profile(src, distance, DiskSpec(radius, offset))
    x = prof.radial_nodes
    mids = 0.5 * (x[:-1] + x[1:])
    direct = _fresnel_prefactor(src, distance, mids) * _fresnel_integral(src, distance, mids)[0]
    hermite = prof.field
    peak = np.abs(prof.complex_amplitudes).max()
    assert np.abs(hermite(mids) - direct).max() <= bound * peak
    # each piece starts at its left node's sample
    assert np.array_equal(hermite(x[:-1]), prof.complex_amplitudes[:-1])
    assert abs(hermite(x[-1]) - prof.complex_amplitudes[-1]) <= 1e-12 * peak
    axis = np.linspace(-0.07, 0.07, 15)
    grid = np.hypot(*np.meshgrid(axis, axis))
    assert hermite(grid).shape == grid.shape
    assert np.array_equal(hermite(grid).ravel(), hermite(grid.ravel()))


@pytest.mark.parametrize("count", [2, 4])
def test_interpolator_reproduces_a_cubic(beam, count):
    # the values and slopes of a cubic give back the cubic, extrapolated too
    rng = np.random.default_rng(count)
    cubic = np.polynomial.Polynomial(rng.normal(size=4) + 1j * rng.normal(size=4))
    nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 0.2, count - 1))])
    prof = FieldProfile(cropped(beam), 10e3, nodes, cubic(nodes), cubic.deriv()(nodes),
                        QuadratureBudget(0.0, 0, count))
    radii = np.concatenate([rng.uniform(-0.01, 0.25, 500), nodes])
    hermite = prof.field
    assert np.abs(hermite(radii) - cubic(radii)).max() <= 1e-12
    assert np.ndim(hermite(0.05)) == 0 and hermite(0.05) == hermite(np.array([0.05]))[0]


def quad_disk_power(prof, disk):
    """disk_power by adaptive quadrature on each interval between the breaks.

    The breaks are the disk's radial limits, the overlap edge |D - r| and
    the profile nodes, so every square-root edge of the overlap weight sits
    at an interval end.
    """
    spline = prof.field
    d, r = disk.center_offset, disk.radius
    lo, hi = max(0.0, d - r), d + r
    nodes = prof.radial_nodes
    cuts = np.unique(np.concatenate([[lo, hi, abs(d - r)],
                                     nodes[(nodes > lo) & (nodes < hi)]]))

    def integrand(rho):
        u = complex(spline(rho))
        alpha = float(_overlap_halfwidth(np.array([rho]), disk)[0])
        return (u.real ** 2 + u.imag ** 2) * 2.0 * alpha * rho

    return sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize("lbe_km", [5.0, 40.0])
def test_disk_power_quadrature_error(lbe_km):
    # The closed form is exact on axis.  Off axis the arccos overlap weight
    # has square-root edges, and the panels ending there are integrated in
    # t = sqrt(|rho - edge|); measured at most 1.1e-11 at 5 km and 4.2e-9
    # (D = 0.1 m) at 40 km, where the nodes are sparse.
    prof = profile_at(40e3, lbe_km * 1e3, 0.2)
    for offset, bound in [(0.0, 1e-14), (0.02, 1e-8), (0.05, 1e-8), (0.1, 1e-8),
                          (0.15, 1e-8), (0.2, 1e-8)]:
        disk = DiskSpec(0.1, offset)
        want = quad_disk_power(prof, disk)
        assert abs(disk_power(prof, disk) - want) / want <= bound


@pytest.mark.parametrize("plane,lbe_km", [
    (40e3, 0.7), (40e3, 5.0), (40e3, 40.0), (40e3, 400.0), (20e3, 2.0),
])
def test_disk_power_spline_interpolation_error(plane, lbe_km):
    # On-axis power from the interpolant against |U|^2 of the Babinet field
    # itself, 16-point Gauss on 800 panels; measured 5.5e-12..4.4e-8.
    prof = profile_at(plane, lbe_km * 1e3)
    edges = np.linspace(0.0, 0.1, 801)
    gx, gw = leggauss(16)
    half = 0.5 * np.diff(edges)[:, None]
    rho = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * gx).ravel()
    integral, _, _, _ = _fresnel_integral(prof.source, prof.propagation_distance, rho)
    field = _fresnel_prefactor(prof.source, prof.propagation_distance, rho) * integral
    direct = np.sum(np.abs(field) ** 2 * 2.0 * math.pi * rho * (half * gw).ravel())
    assert abs(disk_power(prof, DiskSpec(0.1)) - direct) / direct <= 1e-6


def complex_hermite_coefficients(x, y, m):
    """The Hermite columns by complex division by dx and dx^2."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    m0, m1 = m[:-1], m[1:]
    return np.stack((y[:-1], m0, (3.0 * slope - 2.0 * m0 - m1) / dx,
                     (m0 + m1 - 2.0 * slope) / (dx * dx)))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
       lowest=st.floats(-9.0, 3.0), width=st.floats(0.0, 12.0))
def test_hermite_coefficients_equal_complex_division_bit_for_bit(n, seed, lowest, width):
    # Node spacings from 10^lowest to at most 1e3 m; amplitudes and slopes
    # 1e-8 to 1e5 in size, of either sign in each part.  The domain stops
    # well above where dx^2 underflows (dx below about 1e-154): there 1/dx^2
    # is inf, and numpy's division takes its branch for a zero divisor.
    rng = np.random.default_rng(seed)
    spacings = 10.0 ** rng.uniform(lowest, min(lowest + width, 3.0), n - 1)
    x = np.concatenate(([0.0], np.cumsum(spacings)))

    def parts():
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 5.0, n)

    y, m = parts() + 1j * parts(), parts() + 1j * parts()
    got = diffraction._hermite_coefficients(x, y, m)
    want = complex_hermite_coefficients(x, y, m)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ------------------------------------------------------ batched disk power

def reference_disk_power(prof, disk):
    """disk_power of one profile by the 8-point rule, written out from its
    interpolant: the integration cuts, 8 Gauss points per cut interval (in
    t = sqrt(|rho - edge|) on the intervals ending at a square-root edge of
    an offset disk), |U|^2 of the interpolant and one pairwise np.sum, in the
    arithmetic that the off-axis integral of one profile, _offset_power,
    must keep."""
    hermite = prof.field
    nodes = prof.radial_nodes
    d, r = disk.center_offset, disk.radius
    lo = max(0.0, d - r)
    hi = min(d + r, prof.truncation_radius)
    breaks = {lo, hi}
    if d < r:
        breaks.add(r - d)
    if d > 0.0:
        breaks.add(0.5 * (abs(d - r) + hi))
    cuts = np.unique(np.concatenate([nodes[(nodes > lo) & (nodes < hi)],
                                     [b for b in breaks if lo <= b <= hi]]))
    if cuts.size < 2:
        return 0.0
    gx, gw = leggauss(8)
    a, b = cuts[:-1], cuts[1:]
    half = 0.5 * (b - a)
    pts = 0.5 * (a + b)[:, None] + half[:, None] * gx
    wts = half[:, None] * gw
    if d > 0.0:
        for at_edge, edge, sign in ((a == abs(d - r), a, 1.0), (b == hi, b, -1.0)):
            span = np.sqrt(b[at_edge] - a[at_edge])[:, None]
            t = 0.5 * span * (1.0 + gx)
            pts[at_edge] = edge[at_edge][:, None] + sign * t * t
            wts[at_edge] = span * gw * t
    pts, wts = pts.ravel(), wts.ravel()
    vals = hermite(pts)
    intensity = vals.real ** 2 + vals.imag ** 2
    weight = 2.0 * _overlap_halfwidth(pts, disk)
    return float(np.sum(intensity * weight * pts * wts))


def few_node_profile(beam, nodes, seed):
    rng = np.random.default_rng(seed)
    amps, slopes = rng.normal(size=(2, len(nodes))) + 1j * rng.normal(size=(2, len(nodes)))
    return FieldProfile(cropped(beam), 10e3, np.array(nodes), amps, slopes,
                        QuadratureBudget(0.0, 0, len(nodes)))


@pytest.fixture(scope="module")
def profile_mix(beam):
    """Behind-Bob profiles from 0.7 to 400 km (64 to ~1,000 nodes), one
    covering an offset disk, one before Bob, and 2-, 3- and 4-node profiles."""
    return [profile_at(40e3, 0.7e3), few_node_profile(beam, [0.0, 0.07, 0.15], 3),
            profile_at(40e3, 5e3), profile_at(40e3, 40e3), profile_at(40e3, 400e3),
            few_node_profile(beam, [0.0, 0.03, 0.1, 0.16], 4),
            profile_at(40e3, 5e3, 0.2), profile_at(35e3, 5e3),
            few_node_profile(beam, [0.0, 0.12], 2)]


def interpolant_disk_power(prof, radius):
    """Centered disk_power from the interpolant alone: |U|^2 * 2 pi rho by
    16-point Gauss on each node interval inside the disk, exact for the
    degree-7 integrand, summed by math.fsum."""
    hermite = prof.field
    nodes = prof.radial_nodes
    cuts = np.append(nodes[nodes < radius], min(radius, prof.truncation_radius))
    gx, gw = leggauss(16)
    half = 0.5 * np.diff(cuts)[:, None]
    rho = (0.5 * (cuts[:-1] + cuts[1:])[:, None] + half * gx).ravel()
    vals = hermite(rho)
    return math.fsum((vals.real ** 2 + vals.imag ** 2) * 2.0 * math.pi * rho
                     * (half * gw).ravel())


@pytest.mark.parametrize("plane,distance", [
    (40e3, 0.7e3), (40e3, 5e3), (40e3, 40e3), (40e3, 400e3), (35e3, 5e3),
], ids=["0.7km", "5km", "40km", "400km", "before-Bob"])
def test_centered_disk_power_is_the_integral_of_the_interpolant(plane, distance):
    # the closed form against quadrature: over the whole coverage, on a disk
    # narrower than it, and on one ending exactly on a node
    prof = profile_at(plane, distance)
    nodes = prof.radial_nodes
    on_node = float(nodes[nodes.size // 2])
    assert 0.05 not in nodes
    for radius in (0.1, 0.05, on_node):
        want = interpolant_disk_power(prof, radius)
        assert abs(disk_power(prof, DiskSpec(radius)) - want) <= 1e-13 * want


@pytest.mark.parametrize("chunk", [diffraction.CHUNK_NODES, 512, 100])
@pytest.mark.parametrize("radius,offset", [
    (0.1, 0.0), (0.05, 0.0), (0.03, 0.02), (0.04, 0.05), (0.02, 0.08), (0.05, 0.05),
    (0.04, 0.06 + 5e-14),
])
def test_disk_power_sequence_equals_per_profile_calls(profile_mix, radius, offset,
                                                      chunk, monkeypatch):
    # chunk 512 splits the sequence into runs of several profiles, chunk 100
    # into runs of one or several.  (0.02, 0.08) and (0.05, 0.05), D = r,
    # end on the 0.1 m coverage of the behind-Bob profiles; the last disk
    # ends past it within the coverage check's tolerance, so that its last
    # cut is the coverage, not D + r
    monkeypatch.setattr(diffraction, "CHUNK_NODES", chunk)
    disk = DiskSpec(radius, offset)
    batched = disk_power(profile_mix, disk)
    assert isinstance(batched, np.ndarray) and batched.shape == (len(profile_mix),)
    singles = [disk_power(p, disk) for p in profile_mix]
    assert all(type(v) is float for v in singles)
    assert np.array_equal(batched, singles)
    if offset == 0.0:  # the closed form
        want = [interpolant_disk_power(p, radius) for p in profile_mix]
        assert np.allclose(batched, want, rtol=1e-13, atol=0.0)
    else:  # the 8-point rule, whose arithmetic is kept
        assert np.array_equal(batched, [reference_disk_power(p, disk) for p in profile_mix])
    assert disk_power(tuple(profile_mix[::-1]), disk).tolist() == singles[::-1]


def test_disk_power_of_no_profiles_is_empty():
    assert disk_power([], DiskSpec(0.1)).shape == (0,)


def test_one_node_profile_is_rejected(beam):
    with pytest.raises(ValueError, match="at least 2 nodes"):
        few_node_profile(beam, [0.0], 1)


def test_disk_power_sequence_raises_for_the_first_uncovered_profile(profile_mix):
    # reaches 0.2 m: only the profile built for an offset disk covers it
    with pytest.raises(CoverageError, match="profile covers 0.1 m"):
        disk_power(profile_mix[2:], DiskSpec(0.1, 0.1))
    with pytest.raises(CoverageError, match="profile covers 0.15 m"):
        disk_power(profile_mix[1:], DiskSpec(0.1, 0.1))


def test_disk_power_gauss_points_rounding_onto_a_node():
    # A cut one ulp below a node makes a panel whose Gauss points all round
    # onto the node: FieldProfile.field puts them on the next interval,
    # _offset_power on the panel's own.  The panel weighs an ulp, so the
    # sum is the same.
    prof = profile_at(40e3, 5e3, 0.2)
    nodes = prof.radial_nodes
    node = next(x for x in nodes[(nodes > 0.02) & (nodes < 0.08)]
                if 0.5 * (np.nextafter(x, 0.0) + x) == x)
    lo = float(np.nextafter(node, 0.0))
    radius = next(r for r in 2.0 ** -np.arange(4, 12) if (lo + r) - r == lo)
    disk = DiskSpec(radius, lo + radius)  # the disk's radial range starts at lo
    assert disk.center_offset - disk.radius == lo
    want = reference_disk_power(prof, disk)
    assert disk_power(prof, disk) == want
    other = profile_at(40e3, 40e3, 0.2)
    assert disk_power([other, prof], disk).tolist() == [
        reference_disk_power(other, disk), want]


# --------------------------------------------------------------- Arago spot

def test_arago_factor_limits():
    assert arago_relative_amplitude(0.1, 1e5, 0.0, LAM) == pytest.approx(1.0, rel=1e-9)
    tiny = arago_relative_amplitude(1e-6, 1e3, 0.05, LAM)
    assert tiny == pytest.approx(1.0, rel=1e-6)


def test_arago_first_zero_location():
    r_b, dist = 0.1, 10e3
    l_zero = 2.4048255577 * LAM * dist / (2.0 * math.pi * r_b)
    assert arago_relative_amplitude(r_b, dist, l_zero, LAM) < 1e-6


def test_arago_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        arago_relative_amplitude(0.1, 0.0, 0.0, LAM)


# ------------------------------------------------------------ serialization

def test_profile_roundtrip_bit_exact(profile_60):
    blob = serialize_profile(profile_60)
    back = deserialize_profile(blob)
    assert np.array_equal(back.radial_nodes, profile_60.radial_nodes)
    assert np.array_equal(back.complex_amplitudes, profile_60.complex_amplitudes)
    assert np.array_equal(back.slopes, profile_60.slopes)
    assert back.source.inner_radius == profile_60.source.inner_radius
    assert back.key == profile_60.key
    assert back.propagation_distance == profile_60.propagation_distance
    assert back.budget == profile_60.budget
    assert back.budget.source_nodes > 0 and back.budget.achieved < 1e-6
    assert serialize_profile(back) == blob


def test_truncated_record_rejected(profile_60):
    blob = serialize_profile(profile_60)
    with pytest.raises(ValueError):
        deserialize_profile(blob[:-8])
    with pytest.raises(ValueError):
        deserialize_profile(blob[:10])


def one_node_record(profile):
    """The record of ``profile`` cut to its first node, count included."""
    blob = serialize_profile(profile)
    head = bytearray(blob[:diffraction._HEADER.size])
    head[-16:-8] = struct.pack("<Q", 1)
    return bytes(head) + blob[diffraction._HEADER.size:diffraction._HEADER.size + 40]


def test_record_with_fewer_than_two_nodes_rejected(profile_60):
    # a cubic Hermite piece needs the two nodes that bound it
    with pytest.raises(ValueError, match="corrupt"):
        deserialize_profile(one_node_record(profile_60))
    two = replace(profile_60, radial_nodes=profile_60.radial_nodes[:2],
                  complex_amplitudes=profile_60.complex_amplitudes[:2],
                  slopes=profile_60.slopes[:2])
    assert deserialize_profile(serialize_profile(two)).radial_nodes.size == 2


@pytest.mark.parametrize("row,column,value", [
    (5, 0, math.nan), (0, 0, math.nan), (-1, 0, math.inf), (5, 1, math.inf),
    (5, 2, math.nan), (7, 3, -math.inf), (7, 4, math.nan),
], ids=["nan-node", "nan-axis-node", "inf-last-node", "inf-amplitude",
        "nan-amplitude", "inf-slope", "nan-slope"])
def test_record_with_a_nan_node_or_a_non_finite_value_rejected(profile_60, row,
                                                                 column, value):
    blob = bytearray(serialize_profile(profile_60))
    n = profile_60.radial_nodes.size
    at = diffraction._HEADER.size + 40 * (row % n) + 8 * column
    blob[at:at + 8] = struct.pack("<d", value)
    with pytest.raises(ValueError, match="corrupt"):
        deserialize_profile(bytes(blob))


def test_wrong_version_rejected(profile_60):
    blob = bytearray(serialize_profile(profile_60))
    blob[0] = 99
    with pytest.raises(ValueError):
        deserialize_profile(bytes(blob))


# ------------------------------------------------------------- panel helper

def test_phase_panels_cover_interval():
    edges = phase_panels(0.1, 0.7, 500.0, 200.0, 0.2)
    assert edges[0] == 0.1 and edges[-1] == pytest.approx(0.7)
    assert np.all(np.diff(edges) > 0)


def test_phase_panels_budget():
    with pytest.raises(QuadratureError):
        phase_panels(0.0, 1.0, 1e12, 0.0, 1.0, max_panels=100)


# ------------------------------------------------------------ work estimate

def test_disk_gauss_rule_is_leggauss_8():
    gx, gw = leggauss(8)
    assert np.array_equal(diffraction._DISK_GX.view(np.uint64), gx.view(np.uint64))
    assert np.array_equal(diffraction._DISK_GW.view(np.uint64), gw.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(plane=st.floats(1e3, 200e3), inner=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
       distance=st.floats(300.0, 1e6), coverage=st.floats(0.01, 1.0),
       cap=st.sampled_from([None, 5, 15]))
def test_profile_work_is_the_grid_and_the_series_of_the_profile(
        plane, inner, distance, coverage, cap):
    # the node count before densifying, by the arithmetic _profile_nodes
    # always used, and the orders and tail bound _bessel_sums picks on the
    # profile's own grid, also under a capped series budget
    beam = BeamParams(LAM, 0.1)
    src = SourceAnnulus(beam, plane, inner)
    work = diffraction.profile_work(src, distance, coverage)
    r_out = 3.0 * plane_params(beam, plane).spot_size
    assert work.reach == r_out
    assert work.nodes == max(64, int(math.ceil(
        diffraction.PROFILE_NODES_PER_HALF_PERIOD
        * (beam.wavenumber * (coverage ** 2 / 2.0 + r_out * coverage) / distance)
        / math.pi)))
    assume(work.nodes <= 20_000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffraction, "PROFILE_MAX_NODES", 63)  # below every grid
        with pytest.raises(QuadratureError, match=f"grid needs {work.nodes} nodes"):
            diffraction._profile_nodes(src, distance, coverage)
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(diffraction, "SERIES_MAX_TERMS", cap)
        work = diffraction.profile_work(src, distance, coverage)
        if work.tail > diffraction.PROFILE_FIELD_RTOL:
            with pytest.raises(QuadratureError) as err:
                diffraction._profile_nodes(src, distance, coverage)
            assert err.value.estimate == work.tail
            mp.setattr(diffraction, "PROFILE_FIELD_RTOL", math.inf)
        nodes = diffraction._profile_nodes(src, distance, coverage)
        with np.errstate(all="ignore"):
            _, _, terms, achieved = _fresnel_integral(src, distance, nodes)
    assert (terms, achieved) == (work.terms, work.tail)
    assert (work.terms == 0) == (inner == 0.0)


@pytest.mark.parametrize("wavelength, waist, plane, coverage", [
    (LAM, 1e-150, 40e3, 0.1),  # (L / z0)^2 overflows in plane_params
    (LAM, 0.1, 1e300, 0.1),  # so does a source plane this far
    (1e30, 1e-150, 40e3, 0.1),  # z0 underflows to 0
    (LAM, 0.1, 40e3, 1e300),  # coverage^2 overflows
    (LAM, 0.1, 40e3, 1.5e308),  # and so does k c a / L
], ids=["waist", "plane", "z0", "coverage", "series"])
def test_profile_work_is_inf_rather_than_an_overflow(wavelength, waist, plane, coverage):
    src = SourceAnnulus(BeamParams(wavelength, waist), plane, 0.1)
    work = diffraction.profile_work(src, 20e3, coverage)
    assert work.nodes == math.inf
    assert str(diffraction.over_budget(work.nodes, work.tail)).startswith(
        "profile grid needs inf nodes")
    with pytest.raises(QuadratureError, match="needs inf nodes"):
        propagate_profile(src, 20e3, DiskSpec(0.05, coverage - 0.05))
    if coverage > 1e308:
        assert (work.terms, work.tail) == (diffraction.SERIES_MAX_TERMS + 1, math.inf)


# ------------------------------------------------- batched propagation

def assert_batch_is_one_call_each(requests, hint):
    """propagate_profiles equals one propagate_profile call per request,
    byte for byte: nodes, amplitudes, slopes and budget."""
    batch = diffraction.propagate_profiles(requests, hint)
    assert len(batch) == len(requests)
    for prof, (src, distance) in zip(batch, requests):
        one = propagate_profile(src, distance, hint)
        assert prof.source is src and prof.propagation_distance == distance
        for name in ("radial_nodes", "complex_amplitudes", "slopes"):
            got, want = getattr(prof, name), getattr(one, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert prof.budget == one.budget
    return batch


def test_batch_of_the_rate_sweep_is_one_call_each(beam):
    # perfbench's rate_opt_sweep: 48 distances of 69 nodes, one chunk
    src = SourceAnnulus(beam, 50e3, 0.1)
    requests = [(src, float(d)) for d in np.geomspace(20e3, 400e3, 48)]
    batch = assert_batch_is_one_call_each(requests, DiskSpec(0.1))
    assert sum(p.radial_nodes.size for p in batch) <= diffraction.CHUNK_NODES


def test_batch_of_the_distance_search_grid_is_one_call_each(beam):
    # perfbench's distance_search_warm grid, 1,200 distances over many chunks
    src = SourceAnnulus(beam, 40e3, 0.1)
    requests = [(src, float(d)) for d in np.geomspace(5e3, 400e3, 1200)]
    batch = assert_batch_is_one_call_each(requests, DiskSpec(0.1))
    assert sum(p.radial_nodes.size for p in batch) > 10 * diffraction.CHUNK_NODES


def test_batch_across_a_chunk_boundary_and_a_large_profile_is_one_call_each(beam):
    # 2 km to 100 km on a wide disk: profiles of a few hundred to a few
    # thousand nodes fill several chunks; 300 m gives one above 16,384 nodes,
    # whose temporaries numpy may reuse in place, a chunk of its own
    src = SourceAnnulus(beam, 40e3, 0.02)
    hint = DiskSpec(0.3, 0.5)
    requests = [(src, float(d)) for d in np.geomspace(2e3, 100e3, 40)] + [(src, 300.0)]
    batch = assert_batch_is_one_call_each(requests[::-1], hint)
    sizes = [p.radial_nodes.size for p in batch]
    assert max(sizes) > 16_384
    assert sum(sizes) - max(sizes) > 2 * diffraction.CHUNK_NODES


def test_batch_of_before_bob_sources_and_no_disk_is_one_call_each(beam):
    # one source per request, as before Bob, and sources with no disk
    # (inner radius 0), which are computed in chunks of their own
    requests = [(SourceAnnulus(beam, 40e3 - d, 0.1), d) for d in (500.0, 3e3, 15e3)]
    requests += [(SourceAnnulus(beam, plane, 0.0), 20e3) for plane in (1e3, 30e3)]
    requests += [(SourceAnnulus(beam, 25e3, 0.05), 6e3)]
    batch = assert_batch_is_one_call_each(requests, DiskSpec(0.1))
    assert [p.budget.source_nodes == 0 for p in batch] == [False] * 3 + [True] * 2 + [False]


def test_batch_of_random_geometries_is_one_call_each():
    # 60 batches: random beams, sources, disk hints and distances, half of
    # them with one source per request.  Both Lommel series forms occur: the
    # V form on the axis of every profile, the U form out to the nodes where
    # v = s a > 2 |c|, as in _fresnel_integral
    rng = np.random.default_rng(31)
    u_forms, profiles, largest = 0, 0, 0
    for _ in range(60):
        beam = BeamParams(float(rng.choice([800e-9, 1064e-9, 1550e-9])),
                          float(rng.uniform(0.02, 0.3)))
        inner = float(rng.uniform(0.01, 0.4))
        hint = DiskSpec(float(rng.uniform(0.02, 0.4)),
                        float(rng.choice([0.0, rng.uniform(0.0, 0.5)])))
        coverage = hint.center_offset + hint.radius
        planes = 10 ** rng.uniform(3.0, 6.0, 1 if rng.uniform() < 0.5 else 12)
        requests = []
        for plane, distance in zip(itertools.cycle(planes), 10 ** rng.uniform(2.5, 6.0, 12)):
            src = SourceAnnulus(beam, float(plane), inner)
            work = diffraction.profile_work(src, float(distance), coverage)
            # within budget, and at most about 1e6 point-orders of recurrence
            if (diffraction.over_budget(work.nodes, work.tail) is None
                    and work.nodes * work.terms <= 1e6):
                requests.append((src, float(distance)))
        if requests:
            batch = assert_batch_is_one_call_each(requests, hint)
            profiles += len(batch)
            largest = max([largest] + [p.radial_nodes.size for p in batch])
            for src, distance in requests:
                k = beam.wavenumber
                c = (diffraction._source_gaussian(src)[1] + 0.5j * k / distance) * inner ** 2
                u_forms += k * coverage / distance * inner > 2.0 * abs(c)
    assert profiles >= 200 and largest > diffraction.CHUNK_NODES
    assert 50 <= u_forms <= profiles - 50


def test_batch_with_an_over_budget_distance_raises_its_own_error(beam):
    src = SourceAnnulus(beam, 40e3, 0.1)
    hint = DiskSpec(0.1)
    with pytest.raises(QuadratureError) as own:
        propagate_profile(src, 5.0, hint)
    with pytest.raises(QuadratureError) as batched:
        diffraction.propagate_profiles([(src, 50e3), (src, 5.0), (src, 1.0), (src, 9e3)],
                                       hint)
    assert str(batched.value) == str(own.value)
    assert batched.value.estimate == own.value.estimate or (
        math.isnan(batched.value.estimate) and math.isnan(own.value.estimate))


# ------------------------------------------------- the conjugated beam

@pytest.mark.parametrize("lab_km", [20, 40, 80])
@pytest.mark.parametrize("lbe_km", [0.5, 5, 40, 400])
def test_propagator_carries_the_phase_conjugated_beam(beam, lab_km, lbe_km):
    # with no disk, |U| at L_BE past the source plane at L_AB is the beam's
    # |U| at |L_AB - L_BE|: the beam refocuses to its waist at L_BE = L_AB.
    # On the axis, |U(0)|^2 = |A|^2 e^(-2 a^2/W^2) / ((2L/kW^2)^2 + (1-L/R)^2)
    # with W, R and |A| at L_AB, L = L_BE, without a disk and behind Bob's.
    # Measured within 9e-16 (profile) and 1.3e-15 (axis) of these.
    lab, lbe = lab_km * 1e3, lbe_km * 1e3
    whole = propagate_profile(SourceAnnulus(beam, lab, 0.0), lbe, DiskSpec(0.3))
    want = np.abs(field_amplitude(beam, whole.radial_nodes, abs(lab - lbe)))
    assert np.abs(np.abs(whole.complex_amplitudes) - want).max() <= 1e-10 * want.max()
    plane = plane_params(beam, lab)
    w, k = plane.spot_size, beam.wavenumber
    peak2 = (beam.field_peak * beam.waist_radius / w) ** 2
    for a, prof in ((0.0, whole),
                    (0.1, propagate_profile(SourceAnnulus(beam, lab, 0.1), lbe, DiskSpec(0.1)))):
        axis2 = (peak2 * math.exp(-2.0 * a * a / w ** 2)
                 / ((2.0 * lbe / (k * w * w)) ** 2 + (1.0 - lbe / plane.curvature_radius) ** 2))
        assert abs(abs(prof.complex_amplitudes[0]) ** 2 - axis2) <= 1e-10 * axis2


# ------------------------------------------------- off-axis disk power

@pytest.mark.parametrize("lbe_km", [1, 5, 40])
def test_offset_disk_power_against_the_polar_oracle(beam, lbe_km):
    # Eve's 0.1 m disk behind Bob's, 40 km from Alice, at D = r, 0.3 m and
    # the two largest of fig14's offsets (up to r_b + 3 W = 0.77 m), from the
    # profile fig14 builds.  The error is the interpolant's, relative to the
    # power collected, which falls to ~1e-5 of the beam at 0.75 m; measured
    # 5e-10..3.5e-9 (1 km), 2.8e-9..2.5e-8 (5 km), 4.9e-8..5.7e-7 (40 km) at
    # the first two offsets and 2.9e-6..6.0e-6 at the last two.
    src = SourceAnnulus(beam, 40e3, 0.1)
    d_max = 0.1 + 3.0 * plane_params(beam, 40e3).spot_size
    prof = propagate_profile(src, lbe_km * 1e3, DiskSpec(0.1, d_max))
    for offset, bound in ((0.1, 1e-6), (0.3, 1e-6), (0.6, 7e-6), (0.75, 7e-6)):
        disk = DiskSpec(0.1, offset)
        want = offset_disk_power_direct(src, lbe_km * 1e3, disk)
        assert abs(disk_power(prof, disk) - want) <= bound * want


PROFILE_GRID_SHORT_OF_TOLERANCE = pytest.mark.xfail(
    strict=True, reason="the profile grid misses its 1e-6 field tolerance on short "
                        "links; 3 of 135 scanned geometries exceed it")


# (L_AB, W0, Eve's radius, L_BE) behind a 10 cm Bob; centered disk_power
# was measured 5.06e-6 (127 nodes), 1.50e-6 and 1.9e-8 from the oracle,
# which agrees with itself at refine 1 and 2 to 4e-16 at the first
@pytest.mark.parametrize("lab,w0,radius,lbe", [
    pytest.param(5e3, 0.05, 0.3, 10e3, marks=PROFILE_GRID_SHORT_OF_TOLERANCE, id="5km-re30cm"),
    pytest.param(5e3, 0.05, 0.05, 0.5e3, marks=PROFILE_GRID_SHORT_OF_TOLERANCE,
                 id="5km-lbe0.5km"),
    pytest.param(40e3, 0.1, 0.1, 10e3, id="40km"),
])
def test_centered_disk_power_within_field_tolerance_of_the_polar_oracle(lab, w0, radius,
                                                                       lbe):
    src = SourceAnnulus(BeamParams(LAM, w0), lab, 0.1)
    disk = DiskSpec(radius)
    want = offset_disk_power_direct(src, lbe, disk, refine=2)
    got = disk_power(propagate_profile(src, lbe, disk), disk)
    assert abs(got - want) <= diffraction.PROFILE_FIELD_RTOL * want


def test_polar_oracle_converges(beam):
    src = SourceAnnulus(beam, 40e3, 0.1)
    for offset in (0.1, 0.75):
        disk = DiskSpec(0.1, offset)
        coarse = offset_disk_power_direct(src, 5e3, disk)
        assert coarse == pytest.approx(offset_disk_power_direct(src, 5e3, disk, refine=2),
                                       rel=1e-9, abs=0.0)
