import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsoqkd.beams import BeamParams
from fsoqkd.channel import (ChannelConsistencyError, Geometry, Scenario,
                            channel_params, default_noise, thermal_occupation)
from fsoqkd.diffraction import propagate_profiles
from fsoqkd.rates import RateInputs, lb_direct, lb_reverse, upper_bound
from gaussian_reference import geometric_kappa

LAM = 1550e-9


@pytest.fixture(scope="module")
def beam():
    return BeamParams(LAM, 0.1)


# ------------------------------------------------------- thermal occupation

def test_occupation_cold_space_at_optical_frequency():
    # hf/kT ~ 3.1e3 at 3 K and 193.4 THz: occupation is numerically zero
    assert thermal_occupation(193.4e12, 3.0) == 0.0


def test_occupation_identity_at_ln2():
    # hf/kT = ln 2  =>  exactly one photon per mode
    from scipy.constants import h, k

    f = math.log(2.0) * k * 300.0 / h
    assert thermal_occupation(f, 300.0) == pytest.approx(1.0, rel=1e-12)


def test_occupation_microwave_room_temperature():
    assert thermal_occupation(1e9, 300.0) == pytest.approx(6.24e3, rel=2e-3)


def test_occupation_rejects_nonpositive():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 3.0)
    with pytest.raises(ValueError):
        thermal_occupation(1e9, -3.0)


def test_default_noise_is_zero_for_space_link(beam):
    assert default_noise(beam, 3.0) == 0.0
    assert default_noise(beam, 300.0) > 0.0


# --------------------------------------------------------------- geometries

def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(Scenario.BEHIND_BOB, -1.0, 1e3)
    with pytest.raises(ValueError):
        Geometry(Scenario.BEHIND_BOB, 1e3, 1e3, eve_offset=-0.1)
    with pytest.raises(ValueError):
        Geometry(Scenario.BEFORE_BOB, 10e3, 20e3)  # L_AE would be negative
    with pytest.raises(ValueError):
        Geometry(Scenario.BEFORE_BOB, 10e3, 5e3, eve_offset=0.3)


def test_before_bob_distances():
    g = Geometry(Scenario.BEFORE_BOB, 40e3, 12e3)
    assert g.alice_eve_distance == pytest.approx(28e3)


# ---------------------------------------------------------- channel params

def test_behind_bob_transmissivity_20km(beam):
    g = Geometry(Scenario.BEHIND_BOB, 20e3, 20e3)
    ch = channel_params(g, beam, 0.0)
    assert ch.eta == pytest.approx(0.637, abs=5e-4)
    assert 0.0 <= ch.kappa <= 1.0
    assert ch.p_bob + ch.p_eve <= 1.0 + 1e-6


def test_tiny_eavesdropper_collects_nothing(beam):
    g = Geometry(Scenario.BEHIND_BOB, 20e3, 20e3, eve_radius=1e-4)
    ch = channel_params(g, beam, 0.0)
    assert ch.kappa < 1e-4


def test_noise_passthrough(beam):
    g = Geometry(Scenario.BEHIND_BOB, 20e3, 20e3)
    ch = channel_params(g, beam, 0.37)
    assert ch.n_e == 0.37


def test_far_field_small_waist_eve_dominates():
    # divergent beam refocused at the matched distance: Eve takes nearly all
    beam = BeamParams(LAM, 0.05)
    g = Geometry(Scenario.BEHIND_BOB, 150e3, 150e3)
    ch = channel_params(g, beam, 0.0)
    assert ch.p_eve > 0.85
    assert ch.p_bob < 0.05
    assert ch.kappa > 0.85


def test_scale_covariance_of_channel_fractions():
    g = Geometry(Scenario.BEHIND_BOB, 30e3, 10e3)
    base = BeamParams(LAM, 0.1)
    scaled = BeamParams(LAM, 0.1, field_peak=3.0 * base.field_peak)
    ch_a = channel_params(g, base, 0.0)
    ch_b = channel_params(g, scaled, 0.0)
    assert ch_b.eta == pytest.approx(ch_a.eta, rel=1e-12)
    assert ch_b.kappa == pytest.approx(ch_a.kappa, rel=1e-9)


def test_before_bob_power_split(beam):
    g = Geometry(Scenario.BEFORE_BOB, 40e3, 12e3)
    ch = channel_params(g, beam, 0.0)
    # Eve collects the encircled fraction of the undisturbed beam at her plane
    from fsoqkd.beams import encircled_power

    assert ch.p_eve == pytest.approx(encircled_power(beam, 28e3, 0.1), rel=1e-12)
    assert 0.0 < ch.eta < 1.0
    assert ch.eta + ch.kappa * (1.0 - ch.eta) <= 1.0 + 1e-6


def test_before_bob_near_alice_blocks_most(beam):
    g = Geometry(Scenario.BEFORE_BOB, 40e3, 39e3)  # L_AE = 1 km
    ch = channel_params(g, beam, 0.0)
    assert ch.p_eve > 0.8
    assert ch.eta < 0.1


def test_eve_power_peaks_near_link_distance(beam):
    # behind-Bob collected power vs distance: non-monotone with a dominant
    # maximum near L_AB.  The peak sits at 1.12 L_AB for a 40 km link and
    # converges onto L_AB as the link grows (1.02 at 60 km, 1.00 at 120 km).
    lab = 40e3
    dists = np.geomspace(4e3, 160e3, 34)
    p_eve = []
    for d in dists:
        g = Geometry(Scenario.BEHIND_BOB, lab, float(d))
        p_eve.append(channel_params(g, beam, 0.0).p_eve)
    best = float(dists[int(np.argmax(p_eve))])
    assert abs(best - lab) / lab < 0.17
    assert p_eve[0] < max(p_eve) and p_eve[-1] < max(p_eve)  # non-monotone


def test_power_conservation_envelope(beam):
    for lab, lbe in [(20e3, 5e3), (20e3, 40e3), (60e3, 60e3)]:
        g = Geometry(Scenario.BEHIND_BOB, lab, lbe)
        ch = channel_params(g, beam, 0.0)
        assert 0.0 <= ch.eta <= 1.0
        assert ch.p_eve <= (1.0 - ch.eta) + 1e-6


def test_subnormal_offset_is_the_axis_without_warnings(beam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ch = channel_params(Geometry(Scenario.BEHIND_BOB, 40e3, 40e3, 1e-310), beam, 0.0)
    assert ch == channel_params(Geometry(Scenario.BEHIND_BOB, 40e3, 40e3), beam, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_collected_power_raises(beam, value):
    # a profile with a non-finite amplitude gives Eve a non-finite power
    def provider(requests, disk_hint):
        [prof] = propagate_profiles(requests, disk_hint)
        amps = prof.complex_amplitudes.copy()
        amps[3] = value
        return [replace(prof, complex_amplitudes=amps)]

    geom = Geometry(Scenario.BEHIND_BOB, 40e3, 5e3)
    with np.errstate(invalid="ignore"), pytest.raises(ChannelConsistencyError,
                                                      match="not finite"):
        channel_params(geom, beam, 0.0, provider)


@pytest.mark.parametrize("geom", [
    Geometry(Scenario.BEHIND_BOB, 40e3, 1e3),
    Geometry(Scenario.BEHIND_BOB, 40e3, 1e3, eve_offset=0.05, eve_radius=0.08),
    Geometry(Scenario.BEFORE_BOB, 40e3, 1e3),
], ids=["behind", "behind-offset", "before"])
def test_distance_sequence_equals_one_call_per_geometry(beam, geom):
    geoms = [replace(geom, bob_eve_distance=lbe) for lbe in (2e3, 7e3, 20e3, 33e3)]
    want = [channel_params(g, beam, 1e-7) for g in geoms]
    assert channel_params(geoms, beam, 1e-7) == want
    assert channel_params(tuple(geoms[::-1]), beam, 1e-7) == want[::-1]


def test_geometry_sequence_varies_the_bob_eve_distance_only(beam):
    geom = Geometry(Scenario.BEHIND_BOB, 40e3, 5e3)
    for other in (replace(geom, alice_bob_distance=50e3),
                  replace(geom, eve_offset=0.01), replace(geom, eve_radius=0.2)):
        with pytest.raises(ValueError, match="bob_eve_distance only"):
            channel_params([geom, other], beam, 0.0)


@pytest.mark.parametrize("lab", [1e3, 5e3, 40e3], ids=["1km", "5km", "40km"])
def test_short_range_kappa_tends_to_the_geometric_limit_like_1_over_n(beam, lab):
    # On axis with r_e = 0.2 m > r_b = 0.1 m, kappa = kappa_geo + c / N +
    # o(1/N), N = r_e^2 / (lambda L_BE), so the Richardson value in 1/N from
    # two distances removes the 1/N term.  The edge waves add a ripple of
    # phase pi (r_e - r_b)^2 / (lambda L_BE).  That ratio is 100 and 200 at
    # the two distances, 64.5 and 32.3 m, so the ripple has the same phase
    # at both and is removed with the 1/N term.  Measured relative
    # differences from kappa_geo: 3.3e-6, 4.3e-6 and 1.14e-5 (1, 5, 40 km),
    # against 6.2e-4-6.8e-4 at 32.3 m alone.
    r_b, r_e = 0.1, 0.2
    distances = [(r_e - r_b) ** 2 / (LAM * n_edge) for n_edge in (100.0, 200.0)]
    geoms = [Geometry(Scenario.BEHIND_BOB, lab, lbe, bob_radius=r_b, eve_radius=r_e)
             for lbe in distances]
    kappas = [ch.kappa for ch in channel_params(geoms, beam, 0.0)]
    n1, n2 = (r_e**2 / (LAM * lbe) for lbe in distances)
    richardson = (n2 * kappas[1] - n1 * kappas[0]) / (n2 - n1)
    limit = geometric_kappa(LAM, beam.waist_radius, lab, r_b, r_e)
    assert abs(richardson / limit - 1.0) < 2e-5
    assert abs(kappas[1] / limit - 1.0) > 5e-4


# ------------------------------------------- invariants over random geometries

KM = 1e3
radii = st.floats(0.05, 0.2)


def _assert_physical(geom, waist, mu):
    # at the default noise, 0 for 1550 nm at 3 K: with any n_e > 0 the
    # thermal upper_bound falls below lb_direct on a nearly lossless link
    # (see CHANGES.md)
    beam = BeamParams(LAM, waist)
    ch = channel_params(geom, beam, default_noise(beam))
    assert ch.p_bob + ch.p_eve <= 1.0 + 1e-12
    assert 0.0 <= ch.kappa <= 1.0
    for power in (math.inf, mu):
        inputs = RateInputs(mu=power)
        ub = upper_bound(ch)
        assert lb_direct(ch, inputs) <= ub
        assert lb_reverse(ch, inputs) <= ub


@settings(max_examples=100, deadline=None)
@given(lab=st.floats(5 * KM, 200 * KM), lbe=st.floats(5 * KM, 400 * KM),
       offset=st.floats(0.0, 0.3), waist=radii, r_b=radii, r_e=radii,
       mu=st.floats(0.01, 1000.0))
def test_behind_bob_invariants(lab, lbe, offset, waist, r_b, r_e, mu):
    geom = Geometry(Scenario.BEHIND_BOB, lab, lbe, eve_offset=offset,
                    bob_radius=r_b, eve_radius=r_e)
    _assert_physical(geom, waist, mu)


@settings(max_examples=100, deadline=None)
@given(lab=st.floats(5 * KM, 200 * KM), share=st.floats(0.0, 1.0, exclude_max=True),
       waist=radii, r_b=radii, r_e=radii, mu=st.floats(0.01, 1000.0))
def test_before_bob_invariants(lab, share, waist, r_b, r_e, mu):
    lbe = 5 * KM + share * (lab - 5 * KM)  # 5 km <= L_BE < L_AB
    assume(lbe < lab)
    geom = Geometry(Scenario.BEFORE_BOB, lab, lbe, bob_radius=r_b, eve_radius=r_e)
    _assert_physical(geom, waist, mu)
