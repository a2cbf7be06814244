"""Small Gaussian-state covariance toolkit (vacuum variance = 1 convention).

The reference that the closed forms of ``fsoqkd.rates`` are tested against:
``five_mode_spectra`` builds the purified wiretap network explicitly and
reads Eve's spectra off its covariance matrix.  ``geometric_kappa`` is the
share kappa of a Gaussian beam's lost light that Eve collects in the
geometric-optics limit, the reference of ``fsoqkd.channel`` at short L_BE.

A thermal state with mean photon number n has covariance (2n+1) * I per mode,
so symplectic eigenvalues map to thermal occupations via (nu - 1) / 2.  Only
the few-mode networks needed by the rate bounds are supported: two-mode
squeezed vacua, beamsplitters, partial trace and heterodyne conditioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PHYSICALITY_TOL = 1e-9


class PhysicalityError(ValueError):
    """Covariance matrix violates V + i*Omega >= 0."""


def symplectic_form(n_modes: int) -> np.ndarray:
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return omega


@dataclass
class GaussianState:
    """Covariance matrix and mean vector of an n-mode Gaussian state."""

    covariance: np.ndarray
    mean: np.ndarray | None = None

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=float)
        n2 = self.covariance.shape[0]
        if self.covariance.shape != (n2, n2) or n2 % 2:
            raise ValueError("covariance must be square with even dimension")
        if self.mean is None:
            self.mean = np.zeros(n2)

    @property
    def n_modes(self) -> int:
        return self.covariance.shape[0] // 2

    def physicality_defect(self) -> float:
        """Most negative eigenvalue of V + i*Omega (0 for physical states)."""
        herm = self.covariance.astype(complex) + 1j * symplectic_form(self.n_modes)
        return float(min(np.linalg.eigvalsh(herm).min(), 0.0))

    def assert_physical(self, tol: float = PHYSICALITY_TOL):
        # scale the tolerance with the matrix norm so highly squeezed / bright
        # states are not rejected on eigensolver roundoff
        scale = max(1.0, float(np.abs(self.covariance).max()))
        defect = self.physicality_defect()
        if defect < -tol * scale:
            raise PhysicalityError(f"V + i*Omega has eigenvalue {defect:.3e}")

    def reduced(self, modes) -> "GaussianState":
        idx = np.concatenate([[2 * m, 2 * m + 1] for m in modes])
        return GaussianState(self.covariance[np.ix_(idx, idx)], self.mean[idx])


def vacuum_state(n_modes: int) -> GaussianState:
    return GaussianState(np.eye(2 * n_modes))


def tmsv_covariance(mean_photons: float) -> np.ndarray:
    """Two-mode squeezed vacuum with ``mean_photons`` per arm."""
    a = 2.0 * mean_photons + 1.0
    c = 2.0 * math.sqrt(mean_photons * (mean_photons + 1.0))
    z = np.diag([1.0, -1.0])
    return np.block([[a * np.eye(2), c * z], [c * z, a * np.eye(2)]])


def thermal_covariance(mean_photons: float) -> np.ndarray:
    return (2.0 * mean_photons + 1.0) * np.eye(2)


def beamsplitter_symplectic(n_modes: int, mode_a: int, mode_b: int,
                            transmissivity: float) -> np.ndarray:
    """Symplectic of a beamsplitter: a' = sqrt(T) a + sqrt(1-T) b."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    t = math.sqrt(transmissivity)
    r = math.sqrt(1.0 - transmissivity)
    s = np.eye(2 * n_modes)
    for off in range(2):
        ia, ib = 2 * mode_a + off, 2 * mode_b + off
        s[ia, ia] = t
        s[ia, ib] = r
        s[ib, ia] = -r
        s[ib, ib] = t
    return s


def apply_symplectic(state: GaussianState, s: np.ndarray) -> GaussianState:
    return GaussianState(s @ state.covariance @ s.T, s @ state.mean)


def heterodyne_condition(state: GaussianState, keep, measured) -> GaussianState:
    """Covariance of ``keep`` after heterodyne detection of ``measured``.

    Schur-complement update V_K - sigma (V_M + I)^-1 sigma^T; the added
    identity is the heterodyne vacuum contribution.
    """
    kept = state.reduced(list(keep) + list(measured))
    nk = 2 * len(keep)
    v = kept.covariance
    vk = v[:nk, :nk]
    vm = v[nk:, nk:]
    sig = v[:nk, nk:]
    update = sig @ np.linalg.solve(vm + np.eye(vm.shape[0]), sig.T)
    return GaussianState(vk - update, kept.mean[:nk])


def symplectic_eigenvalues(covariance: np.ndarray) -> np.ndarray:
    """Symplectic spectrum, descending.

    Uses the invariant nu_j^2 = eig(-(Omega V)^2) evaluated through the
    similarity-transformed symmetric matrix -V^(1/2) Omega V Omega V^(1/2),
    which keeps the eigenproblem real-symmetric and deterministic.
    """
    v = np.asarray(covariance, dtype=float)
    n = v.shape[0] // 2
    omega = symplectic_form(n)
    evals, evecs = np.linalg.eigh(0.5 * (v + v.T))
    evals = np.maximum(evals, 0.0)
    root = (evecs * np.sqrt(evals)) @ evecs.T
    sym = -root @ omega @ v @ omega @ root
    nu2 = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    # each nu appears twice; average the pairs for a stable value
    nu = np.sqrt(np.maximum(nu2, 0.0))
    nu = 0.5 * (nu[0::2] + nu[1::2])
    return np.sort(nu)[::-1]


def five_mode_spectra(eta: float, kappa: float, n_e: float, mu: float):
    """Eve's spectra and Alice's conditional spectrum from the full network.

    Modes: 0 = Alice's kept arm, 1 = signal -> Bob, 2 = environment -> lost
    arm -> Eve, 3 = environment purifier, 4 = vacuum ancilla.

        TMSV(mu)  --eta-->  Bob        (environment arm: TMSV-purified thermal)
        lost arm  --kappa-->  Eve      (vacuum ancilla on the residual)

    Returns ``(nu_E, nu_E|B, nu_A|B)`` as floats; the conditional values
    follow a heterodyne measurement of Bob's mode.
    """
    cov = np.eye(10)
    cov[0:4, 0:4] = tmsv_covariance(mu)
    cov[4:8, 4:8] = tmsv_covariance(n_e)
    state = GaussianState(cov)
    state = apply_symplectic(state, beamsplitter_symplectic(5, 1, 2, eta))
    state = apply_symplectic(state, beamsplitter_symplectic(5, 2, 4, kappa))
    state.assert_physical()
    nu = symplectic_eigenvalues(state.reduced([2]).covariance)
    nu_cond = symplectic_eigenvalues(
        heterodyne_condition(state, keep=[2], measured=[1]).covariance)
    nu_alice = symplectic_eigenvalues(
        heterodyne_condition(state, keep=[0], measured=[1]).covariance)
    return float(nu[0]), float(nu_cond[0]), float(nu_alice[0])


def geometric_kappa(wavelength: float, waist: float, alice_bob: float,
                    bob_radius: float, eve_radius: float) -> float:
    """kappa on axis as L_BE -> 0, for r_e > r_b: Eve's disk then gathers
    the Gaussian intensity of Bob's plane in the annulus r_b < r < r_e, and
    her share of what Bob loses is 1 - exp(-2 (r_e^2 - r_b^2) / W^2), W the
    beam radius at L_AB."""
    if not eve_radius > bob_radius:
        raise ValueError("the closed form needs r_e > r_b")
    rayleigh = math.pi * waist**2 / wavelength
    w2 = waist**2 * (1.0 + (alice_bob / rayleigh) ** 2)
    return -math.expm1(-2.0 * (eve_radius**2 - bob_radius**2) / w2)
