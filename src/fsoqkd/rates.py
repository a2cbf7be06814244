"""Achievable-rate bounds and protocol key rates for the restricted wiretap.

The channel is a thermal-loss wiretap: transmissivity ``eta`` to Bob, a
fraction ``kappa`` of the lost light collected by an eavesdropper holding a
single bosonic mode, background occupation ``n_e``.  Direct and reverse
reconciliation lower bounds are Holevo quantities of that collected mode.
The mode is single-mode and phase-insensitive, alone and conditioned on
Bob's heterodyne outcome, so each of its two symplectic spectra is one
scalar with a closed form (``eve_spectra``).  Each finite-power body of the
bounds and rates (``_lb_direct``, ``_skr_cv``, ...) takes one float ``mu``
and works in ``math``.  ``optimize_mu`` scores an objective at the 61 powers
of its grid, then at its golden-section points; given several objectives, it
scores the grid once for all of them, so that Eve's entropy pair at a grid
power is computed once and shared.

``mu = math.inf`` is a supported sentinel: the bounds are then evaluated from
their analytic large-power limits instead of a huge finite value, which would
cancel catastrophically.

Noise model: the lower bounds treat the background n_e as trusted noise
that also degrades Eve's collected mode, so the direct bound gains the term
+g(n_e (1 - eta kappa)).  ``upper_bound`` is the pure-loss bound
-log2(kappa (1 - eta)) with a thermal correction; it does not follow from
that model, and with n_e > 0 it can fall below the lower bounds (at
eta 0.9999974, kappa 0.335, mu = inf and n_e = 1e-4 it is 20.1294 against
lb_direct 20.1318).  At n_e = 0 the ordering holds.

Every bound and rate takes the channel first and the protocol settings
(``RateInputs``) second, so one set of settings serves every geometry of a
sweep.  The upper bound and the two protocol rates (heterodyne CV with a
classical-classical-quantum structure, and asymptotic decoy-state BB84) are
documented choices: only the information structure, not a specific
published formula, is fixed here.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams
from .optimize import refine_grid_point

LN2 = math.log(2.0)
LOG2_E = math.log2(math.e)
# module-level names for the rate bodies, which an optimized sweep calls
# about 240 times per row
_INF = math.inf
_FLOAT_MIN = sys.float_info.min
_exp, _expm1, _log, _log1p, _log2 = math.exp, math.expm1, math.log, math.log1p, math.log2
MU_GRID_LO, MU_GRID_HI = 1e-4, 1e8
# log powers of optimize_mu's coarse grid, and the powers it scores there
_LOG_MU_GRID = np.log(np.geomspace(MU_GRID_LO, MU_GRID_HI, 61)).tolist()
_MU_GRID = [math.exp(t) for t in _LOG_MU_GRID]

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
        if not 1.0 <= self.f_L < math.inf:
            raise ValueError("f_L must be finite and >= 1")
        if not 0 < self.pulse_rate < math.inf:
            raise ValueError("pulse_rate must be positive and finite")
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


def g_entropy(x: float) -> float:
    """Von Neumann entropy of a thermal state with mean photon x, in bits.

    ``(x+1) log2(x+1) - x log2(x)`` in a form that neither cancels nor
    overflows: below 1 as ((1+x) log1p(x) - x ln x) / ln 2, whose terms add
    and which stays finite for subnormal x, where 1/x overflows; from 1 to
    1e12 as (log1p(x) + x log1p(1/x)) / ln 2; beyond 1e12 the asymptote
    log2(x) + log2(e) + 1/(2 x ln 2).  The branches are tested in the order
    of how often an optimized sweep takes them.
    """
    if 1.0 <= x <= 1e12:
        return (_log1p(x) + x * _log1p(1.0 / x)) / LN2
    if 0.0 < x < 1.0:
        return ((1.0 + x) * _log1p(x) - x * _log(x)) / LN2
    if x > 1e12:
        return _log2(x) + LOG2_E + LOG2_E / (2.0 * x)
    if x < 0:
        raise ValueError("mean photon number must be nonnegative")
    return 0.0 if x == 0.0 else x  # 0 at either zero, NaN at NaN


def _g_slope(x: float) -> float:
    """g'(x) = log2(1 + 1/x), in a form that neither cancels nor overflows."""
    if x < 1.0:
        return (math.log1p(x) - math.log(x)) / LN2
    return math.log1p(1.0 / x) / LN2


_G_MU_GRID = [g_entropy(mu) for mu in _MU_GRID]


def binary_entropy(p: float) -> float:
    """Binary entropy in bits; 0 outside (0, 1)."""
    if not 0.0 < p < 1.0:
        return 0.0
    return -p * _log2(p) - (1.0 - p) * _log2(1.0 - p)


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
    if not 0.0 <= mu < _INF:
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


def _noise_entropies(channel: ChannelParams) -> tuple[float, float]:
    """The entropies of the direct bound that do not depend on the power:
    g(n_e (1-eta)) and g(n_e (1-eta kappa))."""
    eta, kappa, n_e = channel.eta, channel.kappa, channel.n_e
    return g_entropy(n_e * (1.0 - eta)), g_entropy(n_e * (1.0 - eta * kappa))


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


# Every finite-power body takes (ch, inputs, mu, terms, g_mu, g_noise): the
# last three are Eve's entropy pair at mu, g(mu) and ``_noise_entropies(ch)``,
# which a caller scoring several objectives computes once for all.  A body
# computes what it needs and is given as None.  The bodies are the hot path
# of optimize_mu, so they clamp by comparison rather than by calling max:
# ``0.0 if v < 0.0 else v`` returns what ``max(v, 0.0)`` returns, NaN and
# -0.0 included, and so does ``r if r > d else d`` for ``max(d, r)``.

def _lb_direct(ch: ChannelParams, inputs: RateInputs, mu: float,
               terms=None, g_mu=None, g_noise=None) -> float:
    eta, n_e = ch.eta, ch.n_e
    beta = inputs.beta
    s_e, _ = terms or _eve_entropy_terms(ch, mu)
    g_lost, g_collected = g_noise or _noise_entropies(ch)
    value = (beta * g_entropy(n_e * (1.0 - eta) + eta * mu)
             - s_e
             - beta * g_lost
             + g_collected)
    return 0.0 if value < 0.0 else value


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
                terms=None, g_mu=None, g_noise=None) -> float:
    eta, n_e = ch.eta, ch.n_e
    beta = inputs.beta
    s_e, s_e_cond = terms or _eve_entropy_terms(ch, mu)
    # Alice's mean photon number given Bob's heterodyne outcome, written so
    # that nothing cancels at large mu
    cond_alice = mu * (1.0 - eta) * (1.0 + n_e) / (1.0 + eta * mu + (1.0 - eta) * n_e)
    value = (beta * (g_entropy(mu) if g_mu is None else g_mu)
             - s_e
             - beta * g_entropy(cond_alice)
             + s_e_cond)
    return 0.0 if value < 0.0 else value


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


def _skr_cv(ch: ChannelParams, inputs: RateInputs, mu: float,
            terms=None, g_mu=None, g_noise=None) -> float:
    s_e, s_e_cond = terms or _eve_entropy_terms(ch, mu)
    holevo = s_e - s_e_cond
    # The Holevo term g(x) - g(y), x = (nu - 1)/2 and y = (nu|B - 1)/2 of
    # eve_spectra, cancels where d = x - y is small beside y.  As g' falls,
    # the term is at most (d/y) g(x), so the first test holds wherever
    # d < 1e-4 y.  There it is the integral of g' over [y, x] by 2-point
    # Gauss-Legendre, error O((d/y)^4), with d in a form that does not
    # cancel: kappa eta (1-eta) (mu - n_e)^2 / (1 + eta mu + (1-eta) n_e).
    if holevo < 1e-3 * s_e:
        eta, kappa, n_e = ch.eta, ch.kappa, ch.n_e
        x = kappa * ((1.0 - eta) * mu + eta * n_e)
        d = (kappa * eta * (1.0 - eta) * (mu - n_e) ** 2
             / (1.0 + eta * mu + (1.0 - eta) * n_e))
        if d < 1e-4 * (x - d):
            mid, half = x - 0.5 * d, 0.5 * d / math.sqrt(3.0)
            holevo = 0.5 * d * (_g_slope(mid - half) + _g_slope(mid + half))
    floor = 1.0 + (1.0 - ch.eta) * ch.n_e
    value = inputs.beta * _log1p(ch.eta * mu / floor) / LN2 - holevo
    return inputs.pulse_rate * (0.0 if value < 0.0 else value)


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


def _bb84(ch: ChannelParams, inputs: RateInputs, signal: float, leak: float,
          scale: float = 1.0) -> float:
    # signal and leak come times ``scale``, a power of 2 that lifts subnormal
    # operands to full precision; the rate is rounded once, at the end
    y0 = ch.n_e * scale
    gain = y0 + signal
    if not gain > 0.0:
        return 0.0  # nothing detected
    # halved after the division, so a subnormal y0 is not lost to underflow;
    # for normal operands this rounds exactly as (y0/2 + e_d signal) / gain
    err = (y0 + 2.0 * inputs.misalignment * signal) / gain * 0.5
    value = gain * (1.0 - inputs.f_L * binary_entropy(err)) - leak
    return inputs.pulse_rate * (0.0 if value < 0.0 else value) / scale


def _skr_bb84(ch: ChannelParams, inputs: RateInputs, mu: float,
              terms=None, g_mu=None, g_noise=None) -> float:
    lte_mu = _loss_to_eve(ch) * mu
    if ch.eta * mu >= _FLOAT_MIN:
        return _bb84(ch, inputs, -_expm1(-ch.eta * mu), -_expm1(-lte_mu))
    # a subnormal eta mu, where 1 - e^-x is x to full precision: every
    # operand is scaled up by 2^600, which is exact
    s = 2.0 ** 600
    leak = (-math.expm1(-lte_mu) * s if lte_mu >= _FLOAT_MIN
            else ch.kappa * s * (1.0 - ch.eta) * mu)
    return _bb84(ch, inputs, ch.eta * s * mu, leak, s)


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


def _lb_max(ch: ChannelParams, inputs: RateInputs, mu: float,
            terms=None, g_mu=None, g_noise=None) -> float:
    terms = terms or _eve_entropy_terms(ch, mu)
    d = _lb_direct(ch, inputs, mu, terms, g_mu, g_noise)
    r = _lb_reverse(ch, inputs, mu, terms, g_mu, g_noise)
    return r if r > d else d


# objective -> (value at inputs.mu, value at a finite power)
_OBJECTIVE_FUNCS = {
    "lb_direct": (lb_direct, _lb_direct),
    "lb_reverse": (lb_reverse, _lb_reverse),
    "lb_max": (lambda ch, inp: max(lb_direct(ch, inp), lb_reverse(ch, inp)), _lb_max),
    "skr_cv": (skr_cv_ccq, _skr_cv),
    "skr_bb84": (skr_ds_bb84, _skr_bb84),
}


def _objective_funcs(objective: str):
    try:
        return _OBJECTIVE_FUNCS[objective]
    except KeyError:
        raise ValueError(f"unknown objective {objective!r}") from None


def evaluate_objective(ch: ChannelParams, inputs: RateInputs, objective: str) -> float:
    """Objective at ``inputs.mu``."""
    return _objective_funcs(objective)[0](ch, inputs)


def optimize_mu(ch: ChannelParams, inputs: RateInputs,
                objective: str | Sequence[str] = "lb_max",
                rel_tol: float = 1e-4) -> MuOptimum | list[MuOptimum]:
    """Input power maximizing an objective.

    ``objective`` names one objective, which gives one :class:`MuOptimum`,
    or is a sequence of names, which gives a list in the same order: the grid
    is then scored once for all of them, with Eve's entropy pair computed
    once per grid power, and each optimum is that of one call per objective.

    With perfect reconciliation the continuous lower bounds increase without
    bound in mu, so the infinite sentinel and its analytic value are returned
    directly.  Otherwise the maximizer is bracketed on a log grid spanning
    [1e-4, 1e8] and refined by golden section to ``rel_tol`` in mu; grid and
    golden points alike are scored at ``math.exp`` of their log power.
    """
    single = isinstance(objective, str)
    names = [objective] if single else list(objective)
    bodies = [_objective_funcs(name)[1] for name in names]
    # grid values of each objective that is not at its infinite sentinel
    columns = {i: [] for i, name in enumerate(names)
               if not (name in LB_OBJECTIVES and inputs.beta == 1.0)}
    needs_spectra = any(bodies[i] is not _skr_bb84 for i in columns)
    g_noise = _noise_entropies(ch)
    scorers = [(values.append, bodies[i]) for i, values in columns.items()]
    for mu, g_mu in zip(_MU_GRID, _G_MU_GRID):
        terms = _eve_entropy_terms(ch, mu) if needs_spectra else None
        for append, body in scorers:
            append(body(ch, inputs, mu, terms, g_mu, g_noise))

    def optimum(i: int) -> MuOptimum:
        if i not in columns:
            sent = replace(inputs, mu=math.inf)
            return MuOptimum(mu=math.inf, value=evaluate_objective(ch, sent, names[i]))
        values = columns[i]
        if max(values) <= 0.0:
            return MuOptimum(mu=MU_GRID_LO, value=0.0, degenerate=True)
        best = max(range(len(values)), key=values.__getitem__)
        t_best, v_best = refine_grid_point(
            lambda t: bodies[i](ch, inputs, _exp(t), None, None, g_noise),
            _LOG_MU_GRID, best, values[best], tol=math.log1p(rel_tol))
        return MuOptimum(mu=math.exp(t_best), value=v_best)

    optima = [optimum(i) for i in range(len(names))]
    return optima[0] if single else optima


def rate_report(ch: ChannelParams, inputs: RateInputs, optimize: bool = False,
                objective: str = "lb_max") -> RateReport:
    """Full bound/protocol summary at fixed or optimized input power.

    When optimizing, the bound columns are evaluated at the power maximizing
    ``objective`` while each protocol rate is reported at its own optimum
    (the operational choice a transmitter would make per protocol).
    """
    if optimize:
        primary, cv, bb = optimize_mu(ch, inputs, (objective, "skr_cv", "skr_bb84"))
        at, optimal_mu = replace(inputs, mu=primary.mu), primary.mu
        skr_cv, skr_bb84 = cv.value, bb.value
    else:
        at, optimal_mu = inputs, None
        skr_cv, skr_bb84 = skr_cv_ccq(ch, inputs), skr_ds_bb84(ch, inputs)
    d, r = lb_direct(ch, at), lb_reverse(ch, at)
    return RateReport(lb_direct=d, lb_reverse=r, lb=max(d, r), ub=upper_bound(ch),
                      skr_cv=skr_cv, skr_bb84=skr_bb84, optimal_mu=optimal_mu)
