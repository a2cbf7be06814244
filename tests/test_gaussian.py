import numpy as np
import pytest

from gaussian_reference import (GaussianState, PhysicalityError,
                                apply_symplectic, beamsplitter_symplectic,
                                heterodyne_condition, symplectic_form,
                                symplectic_eigenvalues, thermal_covariance,
                                tmsv_covariance, vacuum_state)


def test_vacuum_spectrum():
    nu = symplectic_eigenvalues(vacuum_state(3).covariance)
    assert np.allclose(nu, 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [0.0, 0.5, 3.7, 1e4])
def test_thermal_spectrum(n):
    nu = symplectic_eigenvalues(thermal_covariance(n))
    assert nu[0] == pytest.approx(2.0 * n + 1.0, rel=1e-10)


@pytest.mark.parametrize("mu", [0.0, 0.3, 2.0, 50.0])
def test_tmsv_is_pure(mu):
    nu = symplectic_eigenvalues(tmsv_covariance(mu))
    assert np.allclose(nu, 1.0, atol=1e-8 * (1 + mu))


def test_tmsv_physical():
    GaussianState(tmsv_covariance(5.0)).assert_physical()


def test_unphysical_rejected():
    with pytest.raises(PhysicalityError):
        GaussianState(0.5 * np.eye(2)).assert_physical()


def test_spectrum_matches_eigvals_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        # random physical state: S V S^T with V thermal, S a beamsplitter mix
        base = np.kron(np.diag(rng.uniform(1.0, 6.0, 2)), np.eye(2))
        s = beamsplitter_symplectic(2, 0, 1, rng.uniform(0.05, 0.95))
        cov = s @ base @ s.T
        ours = symplectic_eigenvalues(cov)
        n = cov.shape[0] // 2
        omega = symplectic_form(n)
        oracle = np.sort(np.abs(np.linalg.eigvals(1j * omega @ cov)))[::-1]
        # oracle has each nu twice; take every other entry
        assert np.allclose(ours, oracle[::2], rtol=1e-9)


def test_beamsplitter_mixes_thermal_states():
    cov = np.eye(4)
    cov[:2, :2] = thermal_covariance(4.0)
    state = apply_symplectic(GaussianState(cov), beamsplitter_symplectic(2, 0, 1, 0.3))
    # output occupations:  T*n and (1-T)*n
    nu_a = symplectic_eigenvalues(state.reduced([0]).covariance)[0]
    nu_b = symplectic_eigenvalues(state.reduced([1]).covariance)[0]
    assert (nu_a - 1) / 2 == pytest.approx(0.3 * 4.0, rel=1e-10)
    assert (nu_b - 1) / 2 == pytest.approx(0.7 * 4.0, rel=1e-10)


def test_heterodyne_conditioning_matches_hand_formula():
    mu = 2.5
    state = GaussianState(tmsv_covariance(mu))
    cond = heterodyne_condition(state, keep=[0], measured=[1])
    a = 2 * mu + 1
    c = 2 * np.sqrt(mu * (mu + 1))
    want = a - c ** 2 / (a + 1.0)
    assert np.allclose(cond.covariance, want * np.eye(2), rtol=1e-12)


def test_physicality_tolerance_scales_with_brightness():
    # at mu=1e8 the eigensolver roundoff exceeds 1e-9 absolute; the check
    # scales with the covariance norm instead of rejecting bright states
    GaussianState(tmsv_covariance(1e8)).assert_physical()
