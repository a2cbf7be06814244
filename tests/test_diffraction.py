import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import j0

from fsoqkd.beams import BeamParams, field_amplitude, plane_params, total_power
from fsoqkd.diffraction import (CoverageError, DiskSpec, SourceAnnulus,
                                arago_relative_amplitude, deserialize_profile,
                                disk_power, fresnel_field_bessel, fresnel_valid,
                                profile_power, propagate_profile,
                                rs_field_direct, serialize_profile,
                                _fresnel_prefactor, _gaussian_hankel,
                                _overlap_halfwidth)
from fsoqkd.quadrature import QuadratureError, phase_panels

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
        fast = fresnel_field_bessel(src, dist, l)
        assert abs(abs(direct) - abs(fast)) / abs(direct) < 1e-3


def test_bessel_reduction_at_axis_equals_plain_integral(beam):
    # at l = 0 the Bessel kernel is identically 1
    src = cropped(beam)
    u = fresnel_field_bessel(src, 20e3, 0.0)
    assert abs(u) > 0.0


def test_onaxis_refocused_amplitude_large_link(beam):
    # far-regime limit of the refocused on-axis field: E0 (1 - e^-9)
    lab = 400e3
    src = cropped(beam, lab)
    u = fresnel_field_bessel(src, lab, 0.0)
    assert abs(u) / beam.field_peak == pytest.approx(1.0 - math.exp(-9.0), rel=5e-3)


def test_reconvergence_peak_near_link_distance(beam):
    lab = 60e3
    src = cropped(beam, lab)
    dists = np.geomspace(10e3, 300e3, 36)
    mags = [abs(fresnel_field_bessel(src, float(d), 0.0)) for d in dists]
    peak = float(dists[int(np.argmax(mags))])
    assert abs(peak - lab) / lab < 0.10


def test_refocusing_sequence_qualitative(beam):
    # central magnitude grows toward the link distance then spreads
    lab = 60e3
    src = cropped(beam, lab)
    mags = {d: abs(fresnel_field_bessel(src, d * 1e3, 0.0)) for d in (1, 20, 60, 120)}
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


def test_finite_outer_radius_rejected(beam):
    with pytest.raises(ValueError):
        SourceAnnulus(beam, 40e3, 0.1, outer_radius=0.5)


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
        fresnel_field_bessel(src, -5.0, 0.0)


def test_quadrature_budget_error_carries_estimate(beam, monkeypatch):
    import fsoqkd.diffraction as d

    monkeypatch.setattr(d, "PROFILE_MAX_NODES", 8)
    src = SourceAnnulus(beam, 40e3, 0.1)
    with pytest.raises(QuadratureError):
        propagate_profile(src, 2e3, DiskSpec(0.1, 0.5))


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
    assert back.source.inner_radius == profile_60.source.inner_radius
    assert math.isinf(back.source.outer_radius)
    assert back.propagation_distance == profile_60.propagation_distance
    assert back.budget == profile_60.budget
    assert back.budget.source_nodes > 0 and back.budget.achieved < 1e-6


def test_truncated_record_rejected(profile_60):
    blob = serialize_profile(profile_60)
    with pytest.raises(ValueError):
        deserialize_profile(blob[:-8])
    with pytest.raises(ValueError):
        deserialize_profile(blob[:10])


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
