import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsoqkd.beams import (BeamParams, encircled_power, field_amplitude,
                          plane_params, total_power)

LAM = 1550e-9


@pytest.fixture
def beam():
    return BeamParams(wavelength=LAM, waist_radius=0.1)


def test_rayleigh_length(beam):
    # direct evaluation: pi * 0.1^2 / 1550nm
    assert beam.rayleigh_length == pytest.approx(20268.339700579312, rel=1e-12)


def test_spot_size_at_rayleigh_length(beam):
    p = plane_params(beam, beam.rayleigh_length)
    assert p.spot_size == pytest.approx(beam.waist_radius * math.sqrt(2.0), rel=1e-12)


def test_spot_size_at_60km(beam):
    # frozen from the closed form W0 * sqrt(1 + (L/z0)^2)
    assert plane_params(beam, 60e3).spot_size == pytest.approx(0.31246230, rel=1e-6)


def test_waist_plane_sentinel(beam):
    p = plane_params(beam, 0.0)
    assert math.isinf(p.curvature_radius)
    assert p.spot_size == beam.waist_radius
    assert p.gouy_phase == 0.0


def test_curvature_minimum_at_rayleigh_length(beam):
    z0 = beam.rayleigh_length
    r_min = plane_params(beam, z0).curvature_radius
    assert r_min == pytest.approx(2.0 * z0, rel=1e-12)
    for L in (0.2 * z0, 0.7 * z0, 1.9 * z0, 14.0 * z0):
        assert plane_params(beam, L).curvature_radius >= r_min - 1e-9


def test_negative_distance_rejected(beam):
    with pytest.raises(ValueError):
        plane_params(beam, -1.0)
    with pytest.raises(ValueError):
        field_amplitude(beam, 0.0, -1.0)


def test_field_magnitude_at_waist_center(beam):
    assert abs(field_amplitude(beam, 0.0, 0.0)) == pytest.approx(beam.field_peak, rel=1e-14)


def test_field_magnitude_at_spot_radius(beam):
    L = 35e3
    p = plane_params(beam, L)
    got = abs(field_amplitude(beam, p.spot_size, L))
    want = beam.field_peak * beam.waist_radius / p.spot_size / math.e
    assert got == pytest.approx(want, rel=1e-13)


def test_axis_phase_at_rayleigh_length(beam):
    # phase factor is exp(-i (k z0 - pi/4)); compare as complex units so the
    # modulo-2pi branch plays no role
    z0 = beam.rayleigh_length
    u = field_amplitude(beam, 0.0, z0)
    expected = cmath.exp(-1j * (beam.wavenumber * z0 - math.pi / 4.0))
    assert abs(u / abs(u) - expected) < 1e-9


def test_total_power_normalization(beam):
    assert total_power(beam) == pytest.approx(1.0, rel=1e-13)


def test_total_power_unnormalized():
    b = BeamParams(LAM, 0.1, field_peak=1.0)
    assert total_power(b) == pytest.approx(math.pi / 200.0, rel=1e-13)


def test_total_power_quadratic_in_peak(beam):
    doubled = BeamParams(LAM, 0.1, field_peak=2.0 * beam.field_peak)
    assert total_power(doubled) == pytest.approx(4.0 * total_power(beam), rel=1e-13)


def test_encircled_power_limits(beam):
    assert encircled_power(beam, 20e3, 0.0) == 0.0
    assert encircled_power(beam, 20e3, 50.0) == pytest.approx(total_power(beam), rel=1e-12)


def test_encircled_power_20km(beam):
    # eta = 1 - exp(-2 * 0.01 / W(20 km)^2) ~ 0.637
    assert encircled_power(beam, 20e3, 0.1) == pytest.approx(0.63699076, rel=1e-6)


def _encircled_quadrature(beam, L, radius, n=40_000):
    r = np.linspace(0.0, radius, n)
    intensity = np.abs(field_amplitude(beam, r, L)) ** 2
    return float(np.trapezoid(intensity * 2.0 * np.pi * r, r))


@pytest.mark.parametrize("ratio", [0.01, 0.3, 1.0, 2.2, 5.0])
def test_closed_form_matches_quadrature(beam, ratio):
    L = 20e3
    radius = ratio * plane_params(beam, L).spot_size
    closed = encircled_power(beam, L, radius)
    quad = _encircled_quadrature(beam, L, radius)
    scale = max(closed, 1e-6)
    assert abs(closed - quad) / scale < 1e-7  # trapezoid-limited


def test_closed_form_high_accuracy(beam):
    # Gauss panels instead of trapezoid reach the 1e-10 contract
    from diffraction_reference import gauss_nodes

    L, radius = 20e3, 0.15
    edges = np.linspace(0.0, radius, 600)
    nodes, weights = gauss_nodes(edges)
    intensity = np.abs(field_amplitude(beam, nodes, L)) ** 2
    quad = float(np.sum(intensity * 2.0 * np.pi * nodes * weights))
    closed = encircled_power(beam, L, radius)
    assert abs(closed - quad) / closed < 1e-10


def test_power_conservation_disk_plus_annulus(beam):
    L, radius = 45e3, 0.2
    disk = encircled_power(beam, L, radius)
    annulus = total_power(beam) - encircled_power(beam, L, radius)
    assert disk + annulus == pytest.approx(total_power(beam), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(r1=st.floats(0.0, 1.0), r2=st.floats(0.0, 1.0),
       L=st.floats(0.0, 2e5))
def test_encircled_monotone_in_radius(r1, r2, L):
    beam = BeamParams(LAM, 0.1)
    lo, hi = sorted((r1, r2))
    assert encircled_power(beam, L, lo) <= encircled_power(beam, L, hi) + 1e-15


def test_invalid_beam_parameters():
    with pytest.raises(ValueError):
        BeamParams(-LAM, 0.1)
    with pytest.raises(ValueError):
        BeamParams(LAM, 0.0)
    with pytest.raises(ValueError):
        BeamParams(LAM, 0.1, field_peak=-1.0)
