import functools
import math
import struct
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import j0

from diffraction_reference import (disk_quadrature_integral, fresnel_valid,
                                   phase_panels, rs_field_direct)
from fsoqkd import diffraction
from fsoqkd.beams import BeamParams, field_amplitude, plane_params, total_power
from fsoqkd.diffraction import (CoverageError, DiskSpec, FieldProfile,
                                QuadratureBudget, QuadratureError, SourceAnnulus,
                                arago_relative_amplitude, deserialize_profile,
                                disk_power, profile_power, propagate_profile,
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
        assert profile_power(prof) <= src.power() * (1 + 1e-3)


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
    assert diffraction.SERIES_EPS < cut.budget.achieved <= cut.budget.rel_tol
    assert np.abs(cut.complex_amplitudes - full.complex_amplitudes).max() \
        <= cut.budget.achieved * np.abs(full.complex_amplitudes[0])


# ------------------------------------------------------------ disk power

def test_disk_power_vanishing_collector(profile_60):
    assert disk_power(profile_60, DiskSpec(1e-9, 0.0)) < 1e-12


def test_disk_power_full_coverage_is_total(profile_60):
    total = disk_power(profile_60, DiskSpec(profile_60.truncation_radius, 0.0))
    assert total == pytest.approx(profile_power(profile_60), rel=1e-12)


def test_disk_power_onaxis_equals_alpha_branch(profile_60):
    # D = 0 dispatch and the angular-overlap branch share panels and weights
    on_axis = disk_power(profile_60, DiskSpec(0.08, 0.0))
    rho = np.linspace(1e-4, 0.08, 7)
    assert np.all(_overlap_halfwidth(rho, DiskSpec(0.08, 0.0)) == math.pi)
    assert disk_power(profile_60, DiskSpec(0.08, center_offset=0.0)) == on_axis


def test_disk_power_offaxis_matches_cartesian_oracle(beam):
    src = SourceAnnulus(beam, 40e3, 0.1)
    prof = propagate_profile(src, 5e3, DiskSpec(0.1, 0.25))
    want = disk_power(prof, DiskSpec(0.1, 0.2))
    spline = prof.interpolator()
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
    hermite = prof.interpolator()
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
                        QuadratureBudget(1e-6, 0.0, 0, count))
    radii = np.concatenate([rng.uniform(-0.01, 0.25, 500), nodes])
    hermite = prof.interpolator()
    assert np.abs(hermite(radii) - cubic(radii)).max() <= 1e-12
    assert np.ndim(hermite(0.05)) == 0 and hermite(0.05) == hermite(np.array([0.05]))[0]


def quad_disk_power(prof, disk):
    """disk_power by adaptive quadrature on each interval between the breaks.

    The breaks are the disk's radial limits, the overlap edge |D - r| and
    the profile nodes, so every square-root edge of the overlap weight sits
    at an interval end.
    """
    spline = prof.interpolator()
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
    # 8-point Gauss per interval is exact on axis.  Off axis the arccos
    # overlap weight has square-root edges, and the panels ending there are
    # integrated in t = sqrt(|rho - edge|); measured at most 1.1e-11 at 5 km
    # and 4.2e-9 (D = 0.1 m) at 40 km, where the nodes are sparse.
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


# ------------------------------------------------------ batched disk power

def reference_disk_power(prof, disk):
    """disk_power of one profile, written out from its interpolator: the
    integration cuts, 8 Gauss points per cut interval (in t = sqrt(|rho -
    edge|) on the intervals ending at a square-root edge of an offset disk),
    |U|^2 of the interpolant and one pairwise np.sum, in the arithmetic the
    batched pass must keep."""
    hermite = prof.interpolator()
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
                        QuadratureBudget(1e-6, 0.0, 0, len(nodes)))


@pytest.fixture(scope="module")
def profile_mix(beam):
    """Behind-Bob profiles from 0.7 to 400 km (64 to ~1,000 nodes), one
    covering an offset disk, one before Bob, and 2-, 3- and 4-node profiles."""
    return [profile_at(40e3, 0.7e3), few_node_profile(beam, [0.0, 0.07, 0.15], 3),
            profile_at(40e3, 5e3), profile_at(40e3, 40e3), profile_at(40e3, 400e3),
            few_node_profile(beam, [0.0, 0.03, 0.1, 0.16], 4),
            profile_at(40e3, 5e3, 0.2), profile_at(35e3, 5e3),
            few_node_profile(beam, [0.0, 0.12], 2)]


@pytest.mark.parametrize("chunk", [diffraction.DISK_POWER_CHUNK_NODES, 100])
@pytest.mark.parametrize("radius,offset", [
    (0.1, 0.0), (0.05, 0.0), (0.03, 0.02), (0.04, 0.05), (0.02, 0.08),
])
def test_disk_power_sequence_equals_per_profile_calls(profile_mix, radius, offset,
                                                      chunk, monkeypatch):
    # chunk 100 splits the sequence into runs of one or several profiles
    monkeypatch.setattr(diffraction, "DISK_POWER_CHUNK_NODES", chunk)
    disk = DiskSpec(radius, offset)
    batched = disk_power(profile_mix, disk)
    assert isinstance(batched, np.ndarray) and batched.shape == (len(profile_mix),)
    singles = [disk_power(p, disk) for p in profile_mix]
    assert all(type(v) is float for v in singles)
    assert np.array_equal(batched, singles)
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
    # onto the node: the interpolator puts them on the next interval, the
    # batched pass on the panel's own.  The panel weighs an ulp, so the sum
    # is the same.
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
