"""Achievable-rate bounds and protocol key rates for the restricted wiretap.

The channel is a thermal-loss wiretap: transmissivity ``eta`` to Bob, a
fraction ``kappa`` of the lost light collected by an eavesdropper holding a
single bosonic mode, background occupation ``n_e``.  Direct and reverse
reconciliation lower bounds are Holevo quantities of that collected mode.
The mode is single-mode and phase-insensitive, alone and conditioned on
Bob's heterodyne outcome, so each of its two symplectic spectra is one
scalar with a closed form (``eve_spectra``).  Each finite-power body of the
bounds and rates (``_lb_direct``, ``_skr_cv``, ...) takes one float ``mu``
and works in ``math``; ``optimize_mu`` calls it once per grid point and per
golden-section point.

``mu = math.inf`` is a supported sentinel: the bounds are then evaluated from
their analytic large-power limits instead of a huge finite value, which would
cancel catastrophically.

Every bound and rate takes the channel first and the protocol settings
(``RateInputs``) second, so one set of settings serves every geometry of a
sweep.  The upper bound and the two protocol rates (heterodyne CV with a
classical-classical-quantum structure, and asymptotic decoy-state BB84) are
documented choices: only the information structure, not a specific
published formula, is fixed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams
from .optimize import grid_then_golden_max

LN2 = math.log(2.0)
LOG2_E = math.log2(math.e)
MU_GRID_LO, MU_GRID_HI = 1e-4, 1e8
# log powers of optimize_mu's coarse grid
_LOG_MU_GRID = np.log(np.geomspace(MU_GRID_LO, MU_GRID_HI, 61)).tolist()

LB_OBJECTIVES = ("lb_direct", "lb_reverse", "lb_max")
OBJECTIVES = LB_OBJECTIVES + ("skr_cv", "skr_bb84")


@dataclass(frozen=True)
class RateInputs:
    """Protocol settings, independent of the channel they are used on.

    ``mu`` is the mean transmitted photon number per mode (``math.inf``
    allowed), ``beta`` the reconciliation efficiency of the continuous
    bounds, ``f_L`` the BB84 reconciliation inefficiency, ``pulse_rate`` the
    source rate in states/s and ``misalignment`` the BB84 optical error.
    """

    mu: float = math.inf
    beta: float = 1.0
    f_L: float = 1.1
    pulse_rate: float = 1e9
    misalignment: float = 0.0

    def __post_init__(self):
        if not (self.mu > 0):
            raise ValueError("mu must be positive (math.inf allowed)")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if self.f_L < 1.0:
            raise ValueError("f_L must be >= 1")
        if self.pulse_rate <= 0:
            raise ValueError("pulse_rate must be positive")
        if not 0.0 <= self.misalignment <= 0.5:
            raise ValueError("misalignment must lie in [0, 0.5]")


@dataclass(frozen=True)
class MuOptimum:
    mu: float
    value: float
    degenerate: bool = False


@dataclass(frozen=True)
class RateReport:
    """Bounds in bits/mode, protocol rates in bits/s."""

    lb_direct: float
    lb_reverse: float
    lb: float
    ub: float
    skr_cv: float
    skr_bb84: float
    optimal_mu: float | None = None
    optimal_mu_cv: float | None = None
    optimal_mu_bb84: float | None = None


def g_entropy(x: float) -> float:
    """Von Neumann entropy of a thermal state with mean photon x, in bits.

    ``(x+1) log2(x+1) - x log2(x)`` in a form that neither cancels nor
    overflows: below 1 as ((1+x) log1p(x) - x ln x) / ln 2, whose terms add
    and which stays finite for subnormal x, where 1/x overflows; from 1 to
    1e12 as (log1p(x) + x log1p(1/x)) / ln 2; beyond 1e12 the asymptote
    log2(x) + log2(e) + 1/(2 x ln 2).
    """
    if x < 0:
        raise ValueError("mean photon number must be nonnegative")
    if x == 0.0:
        return 0.0
    if x > 1e12:
        return math.log2(x) + LOG2_E + LOG2_E / (2.0 * x)
    if x < 1.0:
        return ((1.0 + x) * math.log1p(x) - x * math.log(x)) / LN2
    return (math.log1p(x) + x * math.log1p(1.0 / x)) / LN2


def binary_entropy(p: float) -> float:
    """Binary entropy in bits; 0 outside (0, 1)."""
    if not 0.0 < p < 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def eve_spectra(channel: ChannelParams, mu: float) -> tuple[float, float]:
    """Symplectic eigenvalues of Eve's collected mode at a finite power.

    Returns ``(nu, nu_conditional)``; the conditional value follows a
    heterodyne measurement of Bob's mode.  A two-mode squeezed source of
    ``mu`` photons per arm passes the beamsplitter ``eta`` (thermal
    environment ``n_e``) and Eve's beamsplitter ``kappa`` (vacuum ancilla).
    Both states are single-mode and phase-insensitive, so each spectrum is
    one scalar (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)):

        nu     = 1 + 2 kappa ((1-eta) mu + eta n_e)
        nu|B   = 1 + 2 kappa ((1-eta) mu + eta n_e + mu n_e)
                     / (1 + eta mu + (1-eta) n_e)

    The second is the Schur complement V_E - c^2 / (V_B + 1) with the
    cancelling terms removed; its mu -> inf limit is
    ``_eve_conditional_limit``.  Raises ``ValueError`` unless
    ``0 <= mu < inf``, and when a value falls below the vacuum's 1, which
    only unphysical channel parameters cause.
    """
    if not 0.0 <= mu < math.inf:
        raise ValueError("eve_spectra needs finite mu >= 0")
    eta, kappa, n_e = channel.eta, channel.kappa, channel.n_e
    leaked = (1.0 - eta) * mu + eta * n_e
    nu = 1.0 + 2.0 * kappa * leaked
    nu_cond = 1.0 + 2.0 * kappa * ((leaked + mu * n_e)
                                   / (1.0 + eta * mu + (1.0 - eta) * n_e))
    if not (nu >= 1.0 and nu_cond >= 1.0):
        raise ValueError("unphysical channel: Eve's symplectic eigenvalue is below 1")
    return nu, nu_cond


def _eve_entropy_terms(channel: ChannelParams, mu: float) -> tuple[float, float]:
    """Entropies of Eve's mode, alone and given Bob's outcome, in bits."""
    nu, nu_cond = eve_spectra(channel, mu)
    return g_entropy((nu - 1.0) / 2.0), g_entropy((nu_cond - 1.0) / 2.0)


def _loss_to_eve(channel: ChannelParams) -> float:
    return channel.kappa * (1.0 - channel.eta)


def _eve_conditional_limit(channel: ChannelParams) -> float:
    """Large-power limit of Eve's conditional mean photon number.

    From the Schur complement of the collected mode on Bob's heterodyne
    outcome: kappa * ((1-eta)(1+(1-eta) n_e)/eta + 2(1-eta) n_e + eta n_e).
    """
    eta, kappa, n_e = channel.eta, channel.kappa, channel.n_e
    return kappa * ((1.0 - eta) * (1.0 + (1.0 - eta) * n_e) / eta
                    + 2.0 * (1.0 - eta) * n_e + eta * n_e)


def _lb_direct(ch: ChannelParams, inputs: RateInputs, mu: float,
               terms: tuple[float, float] | None = None) -> float:
    eta, kappa, n_e = ch.eta, ch.kappa, ch.n_e
    beta = inputs.beta
    s_e, _ = terms or _eve_entropy_terms(ch, mu)
    value = (beta * g_entropy(n_e * (1.0 - eta) + eta * mu)
             - s_e
             - beta * g_entropy(n_e * (1.0 - eta))
             + g_entropy(n_e * (1.0 - eta * kappa)))
    return max(value, 0.0)


def lb_direct(ch: ChannelParams, inputs: RateInputs) -> float:
    """Direct-reconciliation lower bound, bits/mode."""
    if not math.isinf(inputs.mu):
        return _lb_direct(ch, inputs, inputs.mu)
    eta, kappa, n_e = ch.eta, ch.kappa, ch.n_e
    if inputs.beta < 1.0:
        return 0.0  # (beta - 1) log2(mu) -> -inf
    lte = _loss_to_eve(ch)
    if lte == 0.0:
        return math.inf
    if eta == 0.0:
        return 0.0
    value = (math.log2(eta / lte)
             - g_entropy(n_e * (1.0 - eta))
             + g_entropy(n_e * (1.0 - eta * kappa)))
    return max(0.0, value)


def _lb_reverse(ch: ChannelParams, inputs: RateInputs, mu: float,
                terms: tuple[float, float] | None = None) -> float:
    eta, n_e = ch.eta, ch.n_e
    beta = inputs.beta
    s_e, s_e_cond = terms or _eve_entropy_terms(ch, mu)
    # Alice's mean photon number given Bob's heterodyne outcome, written so
    # that nothing cancels at large mu
    cond_alice = mu * (1.0 - eta) * (1.0 + n_e) / (1.0 + eta * mu + (1.0 - eta) * n_e)
    value = (beta * g_entropy(mu)
             - s_e
             - beta * g_entropy(cond_alice)
             + s_e_cond)
    return max(value, 0.0)


def lb_reverse(ch: ChannelParams, inputs: RateInputs) -> float:
    """Reverse-reconciliation lower bound, bits/mode."""
    if not math.isinf(inputs.mu):
        return _lb_reverse(ch, inputs, inputs.mu)
    eta, n_e = ch.eta, ch.n_e
    if inputs.beta < 1.0:
        return 0.0
    lte = _loss_to_eve(ch)
    if lte == 0.0:
        return math.inf
    if eta == 0.0:
        return 0.0
    cond_alice = (1.0 - eta) * (1.0 + n_e) / eta
    value = (-math.log2(lte) - g_entropy(cond_alice)
             + g_entropy(_eve_conditional_limit(ch)))
    return max(0.0, value)


def upper_bound(channel: ChannelParams) -> float:
    """Loss-bound on the rate through the channel complementary to Eve.

    Pure-loss style ``-log2(kappa (1-eta))``; with background noise the
    thermal correction ``-log2((1-t) t^n_e) - g(n_e)`` applies, where t is
    the effective transmissivity past Eve.  Returns ``math.inf`` when Eve
    collects nothing.
    """
    lte = _loss_to_eve(channel)
    if lte <= 0.0:
        return math.inf
    t_eff = 1.0 - lte
    value = -math.log2(lte)
    if channel.n_e > 0.0 and t_eff > 0.0:
        value -= channel.n_e * math.log2(t_eff) + g_entropy(channel.n_e)
    return max(0.0, value)


def _skr_cv(ch: ChannelParams, inputs: RateInputs, mu: float) -> float:
    s_e, s_e_cond = _eve_entropy_terms(ch, mu)
    holevo = s_e - s_e_cond
    floor = 1.0 + (1.0 - ch.eta) * ch.n_e
    mutual = inputs.beta * math.log2((floor + ch.eta * mu) / floor)
    return inputs.pulse_rate * max(mutual - holevo, 0.0)


def skr_cv_ccq(ch: ChannelParams, inputs: RateInputs) -> float:
    """Heterodyne CV rate with measured (classical) data on both ends, bits/s.

    ``R * max(0, beta I(A;B) - chi(E;B))`` with the Holevo term taken from
    the collected-mode spectra.
    """
    if not math.isinf(inputs.mu):
        return _skr_cv(ch, inputs, inputs.mu)
    eta, n_e = ch.eta, ch.n_e
    if inputs.beta < 1.0:
        return 0.0
    lte = _loss_to_eve(ch)
    if eta == 0.0:
        return 0.0
    if lte == 0.0:
        return math.inf
    floor = 1.0 + (1.0 - eta) * n_e
    value = (math.log2(eta / lte) - math.log2(floor) - LOG2_E
             + g_entropy(_eve_conditional_limit(ch)))
    return inputs.pulse_rate * max(0.0, value)


def _bb84(ch: ChannelParams, inputs: RateInputs, signal: float, leak: float) -> float:
    y0 = ch.n_e
    gain = y0 + signal
    if not gain > 0.0:
        return 0.0  # nothing detected
    # halved after the division, so a subnormal y0 is not lost to underflow;
    # for normal operands this rounds exactly as (y0/2 + e_d signal) / gain
    err = (y0 + 2.0 * inputs.misalignment * signal) / gain * 0.5
    value = gain * (1.0 - inputs.f_L * binary_entropy(err)) - leak
    return inputs.pulse_rate * max(value, 0.0)


def _skr_bb84(ch: ChannelParams, inputs: RateInputs, mu: float) -> float:
    signal = -math.expm1(-ch.eta * mu)
    leak = -math.expm1(-_loss_to_eve(ch) * mu)
    return _bb84(ch, inputs, signal, leak)


def skr_ds_bb84(ch: ChannelParams, inputs: RateInputs) -> float:
    """Asymptotic decoy-state BB84 rate under beam-splitting leakage, bits/s.

    Infinite-decoy GLLP-style structure: gain and error from the Poissonian
    source plus background yield, Eve's information bounded by the chance her
    collected mode holds at least one photon.
    """
    if not math.isinf(inputs.mu):
        return _skr_bb84(ch, inputs, inputs.mu)
    leak = 1.0 if _loss_to_eve(ch) > 0.0 else 0.0
    return _bb84(ch, inputs, 1.0, leak)


def _lb_max(ch: ChannelParams, inputs: RateInputs, mu: float) -> float:
    terms = _eve_entropy_terms(ch, mu)
    return max(_lb_direct(ch, inputs, mu, terms), _lb_reverse(ch, inputs, mu, terms))


# objective -> (value at inputs.mu, value at a finite power)
_OBJECTIVE_FUNCS = {
    "lb_direct": (lb_direct, _lb_direct),
    "lb_reverse": (lb_reverse, _lb_reverse),
    "lb_max": (lambda ch, inp: max(lb_direct(ch, inp), lb_reverse(ch, inp)), _lb_max),
    "skr_cv": (skr_cv_ccq, _skr_cv),
    "skr_bb84": (skr_ds_bb84, _skr_bb84),
}


def evaluate_objective(ch: ChannelParams, inputs: RateInputs, objective: str) -> float:
    """Objective at ``inputs.mu``."""
    try:
        at_own_mu, _ = _OBJECTIVE_FUNCS[objective]
    except KeyError:
        raise ValueError(f"unknown objective {objective!r}") from None
    return at_own_mu(ch, inputs)


def optimize_mu(ch: ChannelParams, inputs: RateInputs,
                objective: str = "lb_max", rel_tol: float = 1e-4) -> MuOptimum:
    """Input power maximizing an objective.

    With perfect reconciliation the continuous lower bounds increase without
    bound in mu, so the infinite sentinel and its analytic value are returned
    directly.  Otherwise the maximizer is bracketed on a log grid spanning
    [1e-4, 1e8] and refined by golden section to ``rel_tol`` in mu; grid and
    golden points alike are scored at ``math.exp`` of their log power.
    """
    if objective in LB_OBJECTIVES and inputs.beta == 1.0:
        sent = replace(inputs, mu=math.inf)
        return MuOptimum(mu=math.inf, value=evaluate_objective(ch, sent, objective))
    finite = _OBJECTIVE_FUNCS[objective][1]

    def obj_log(t: float) -> float:
        return finite(ch, inputs, math.exp(t))

    values = [obj_log(t) for t in _LOG_MU_GRID]
    if max(values) <= 0.0:
        return MuOptimum(mu=MU_GRID_LO, value=0.0, degenerate=True)
    t_best, v_best = grid_then_golden_max(obj_log, _LOG_MU_GRID,
                                          tol=math.log1p(rel_tol), values=values)
    return MuOptimum(mu=math.exp(t_best), value=v_best)


def rate_report(ch: ChannelParams, inputs: RateInputs, optimize: bool = False,
                objective: str = "lb_max") -> RateReport:
    """Full bound/protocol summary at fixed or optimized input power.

    When optimizing, the bound columns are evaluated at the power maximizing
    ``objective`` while each protocol rate is reported at its own optimum
    (the operational choice a transmitter would make per protocol).
    """
    ub = upper_bound(ch)
    if optimize:
        primary = optimize_mu(ch, inputs, objective)
        at_primary = replace(inputs, mu=primary.mu)
        cv = optimize_mu(ch, inputs, "skr_cv")
        bb = optimize_mu(ch, inputs, "skr_bb84")
        d = lb_direct(ch, at_primary)
        r = lb_reverse(ch, at_primary)
        return RateReport(
            lb_direct=d,
            lb_reverse=r,
            lb=max(d, r),
            ub=ub,
            skr_cv=cv.value,
            skr_bb84=bb.value,
            optimal_mu=primary.mu,
            optimal_mu_cv=cv.mu,
            optimal_mu_bb84=bb.mu,
        )
    d = lb_direct(ch, inputs)
    r = lb_reverse(ch, inputs)
    return RateReport(lb_direct=d, lb_reverse=r, lb=max(d, r), ub=ub,
                      skr_cv=skr_cv_ccq(ch, inputs),
                      skr_bb84=skr_ds_bb84(ch, inputs))
