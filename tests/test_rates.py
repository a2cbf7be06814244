import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsoqkd import rates
from fsoqkd.channel import ChannelParams
from fsoqkd.optimize import refine_grid_point
from fsoqkd.rates import (MU_GRID_HI, MU_GRID_LO, OBJECTIVES, MuOptimum, RateInputs,
                          binary_entropy, evaluate_objective, eve_spectra, g_entropy,
                          lb_direct, lb_reverse, optimize_mu, rate_report,
                          skr_cv_ccq, skr_ds_bb84, upper_bound)
from gaussian_reference import five_mode_spectra


def channel(eta, kappa, n_e=0.0):
    p_bob = eta
    p_eve = kappa * (1 - eta)
    return ChannelParams(eta=eta, kappa=kappa, n_e=n_e, p_bob=p_bob, p_eve=p_eve)


def inputs(eta, kappa, mu, beta=1.0, n_e=0.0, **kw):
    """(channel, protocol settings), the two leading arguments of every rate."""
    return channel(eta, kappa, n_e), RateInputs(mu=mu, beta=beta, **kw)


# ---------------------------------------------------------------- g entropy

def test_g_zero():
    assert g_entropy(0.0) == 0.0


def test_g_one():
    assert g_entropy(1.0) == pytest.approx(2.0, rel=1e-14)


def test_g_asymptote_matches_exact():
    # exact and asymptotic forms agree where they meet
    x = 1e6
    asym = math.log2(x) + math.log2(math.e)
    assert g_entropy(x) == pytest.approx(21.3742643, rel=1e-6)
    assert abs(g_entropy(x) - asym) < 1e-6
    # the two evaluation branches agree across the switch point
    lo, hi = math.nextafter(1e12, 0.0), math.nextafter(1e12, math.inf)
    assert abs(g_entropy(lo) - g_entropy(hi)) < 1e-9


def test_g_rejects_negative():
    with pytest.raises(ValueError):
        g_entropy(-0.1)


def _g_small(x):
    return ((1.0 + x) * math.log1p(x) - x * math.log(x)) / math.log(2.0)


def _g_mid(x):
    return (math.log1p(x) + x * math.log1p(1.0 / x)) / math.log(2.0)


def _g_large(x):
    return math.log2(x) + math.log2(math.e) + math.log2(math.e) / (2.0 * x)


G_EDGES = [(0.0, lambda x: 0.0), (-0.0, lambda x: 0.0),
           (5e-324, _g_small), (math.nextafter(1.0, 0.0), _g_small),
           (1.0, _g_mid), (1e12, _g_mid),
           (math.nextafter(1e12, math.inf), _g_large), (math.inf, _g_large)]


@pytest.mark.parametrize("x, branch", G_EDGES, ids=[repr(x) for x, _ in G_EDGES])
def test_g_edges_equal_their_branch_bit_for_bit(x, branch):
    # the branches are tested in order of use, not of x; each edge value
    # must still land in its own branch
    assert g_entropy(x).hex() == branch(x).hex()


def test_g_nan_is_nan():
    assert math.isnan(g_entropy(math.nan))


@pytest.mark.parametrize("x", [-5e-324, -1.0, -math.inf], ids=repr)
def test_g_rejects_every_negative_value(x):
    with pytest.raises(ValueError):
        g_entropy(x)


def test_g_monotone_small_and_large():
    xs = np.geomspace(1e-12, 1e15, 200)
    vals = [g_entropy(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


SUBNORMALS = [5e-324, 1e-323, 1e-320, 1e-315, 1e-310, 3e-309]


@pytest.mark.parametrize("x", SUBNORMALS + [2.2250738585072014e-308, 1e-300,
                                            1e-20, 1e-5, 0.5, 1.0, 7.0, 1e12, 1e15])
def test_g_matches_mpmath(x):
    # 1/x overflows below ~3e-309; a subnormal result carries an absolute
    # rounding of a few 5e-324 steps
    with mpmath.workdps(40):
        m = mpmath.mpf(x)
        want = float(((1 + m) * mpmath.log1p(m) - m * mpmath.log(m)) / mpmath.log(2))
    got = g_entropy(x)
    assert abs(got - want) <= 1e-14 * want + 1e-322


def test_direct_bound_at_subnormal_noise():
    # g(n_e (1-eta)) appears with opposite signs; an infinite g made it nan,
    # which the clamp at 0 turned into a silent 0
    inp = inputs(0.25, 0.0, mu=1.0, n_e=5e-324)
    assert lb_direct(*inp) == pytest.approx(g_entropy(0.25), rel=1e-14)


# ------------------------------------------------------------- eve spectra

def test_pure_loss_spectrum():
    nu, _ = eve_spectra(channel(0.7, 1.0), mu=3.0)
    assert (nu - 1) / 2 == pytest.approx((1 - 0.7) * 3.0, rel=1e-10)


def test_decoupled_eve():
    nu, nu_y = eve_spectra(channel(0.7, 0.0), mu=3.0)
    assert nu == pytest.approx(1.0, abs=1e-10)
    assert nu_y == pytest.approx(1.0, abs=1e-10)


def test_conditional_limit_large_mu():
    nu, nu_y = eve_spectra(channel(0.75, 1.0), mu=1e6)
    assert (nu_y - 1) / 2 == pytest.approx((1 - 0.75) / 0.75, rel=1e-4)


def test_spectra_shape_and_physicality_check():
    spectra = eve_spectra(channel(0.6, 0.3, 0.1), 2.0)
    assert [type(v) for v in spectra] == [float, float]
    with pytest.raises(ValueError):
        eve_spectra(channel(0.5, 1.0, -0.5), 0.0)  # nu = 0.5 < 1
    with pytest.raises(ValueError):  # the same check behind a rate
        lb_reverse(*inputs(0.5, 1.0, mu=0.1, n_e=-0.5))
    for mu in (math.inf, -1.0, math.nan):
        with pytest.raises(ValueError):
            eve_spectra(channel(0.5, 1.0), mu)


def test_unconditional_mean_photon_thermal():
    eta, kappa, n_e, mu = 0.6, 0.8, 0.4, 2.0
    nu, _ = eve_spectra(channel(eta, kappa, n_e), mu)
    want = kappa * ((1 - eta) * mu + eta * n_e)
    assert (nu - 1) / 2 == pytest.approx(want, rel=1e-10)


def test_conditional_spectrum_matches_mpmath_schur_complement():
    # the five-mode network, x quadrature, in 50 digits: TMSV(mu) on
    # (Alice, signal), TMSV(n_e) on (environment, purifier), vacuum ancilla;
    # then beamsplitters eta on (signal, environment) and kappa on
    # (lost arm, ancilla).  p quadratures give the same B and E entries.
    def bs(t, a, b):
        s = mpmath.eye(5)
        s[a, a] = s[b, b] = mpmath.sqrt(t)
        s[a, b] = mpmath.sqrt(1 - t)
        s[b, a] = -mpmath.sqrt(1 - t)
        return s

    def tmsv(n):
        return 2 * n + 1, 2 * mpmath.sqrt(n * (n + 1))

    for eta, kappa, n_e in [(0.6, 0.3, 0.0), (0.25, 0.9, 1e-7), (0.9, 1.0, 0.4)]:
        ch = channel(eta, kappa, n_e)
        with mpmath.workdps(50):
            e, k = mpmath.mpf(eta), mpmath.mpf(kappa)
            for mu in np.geomspace(1e-4, 1e8, 25).tolist():
                _, nu = eve_spectra(ch, mu)
                v = mpmath.zeros(5)
                for i, n in ((0, mpmath.mpf(mu)), (2, mpmath.mpf(n_e))):
                    a, c = tmsv(n)
                    v[i, i] = v[i + 1, i + 1] = a
                    v[i, i + 1] = v[i + 1, i] = c
                v[4, 4] = 1
                s = bs(k, 2, 4) * bs(e, 1, 2)
                v = s * v * s.T
                want = v[2, 2] - v[2, 1] ** 2 / (v[1, 1] + 1)
                assert abs(nu - want) <= 1e-13 * want


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(0.01, 0.99), kappa=st.floats(0.0, 1.0),
       n_e=st.floats(0.0, 1.0), mu=st.floats(1e-4, 1e8),
       beta=st.floats(0.5, 1.0))
def test_closed_forms_match_five_mode_network(eta, kappa, n_e, mu, beta):
    # rate formulas on the covariance-matrix spectra; the reference itself is
    # off by ~4e-8 absolute in nu at mu ~ 1e8, hence the absolute floor for
    # rates near their clamp at 0
    nu_e, nu_eb, nu_ab = five_mode_spectra(eta, kappa, n_e, mu)
    s_e = g_entropy(max((nu_e - 1) / 2, 0.0))
    s_eb = g_entropy(max((nu_eb - 1) / 2, 0.0))
    alice_cond = max((nu_ab - 1) / 2, 0.0)
    floor = 1 + (1 - eta) * n_e
    want = {
        lb_direct: beta * g_entropy(n_e * (1 - eta) + eta * mu) - s_e
        - beta * g_entropy(n_e * (1 - eta)) + g_entropy(n_e * (1 - eta * kappa)),
        lb_reverse: beta * g_entropy(mu) - s_e - beta * g_entropy(alice_cond) + s_eb,
        skr_cv_ccq: beta * math.log2((floor + eta * mu) / floor) - (s_e - s_eb),
    }
    inp = inputs(eta, kappa, mu=mu, beta=beta, n_e=n_e, pulse_rate=1.0)
    for func, value in want.items():
        assert func(*inp) == pytest.approx(max(0.0, value), rel=1e-6, abs=1e-7)


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("eta,kappa,n_e,beta", [(0.7, 0.9, 0.0, 0.95),
                                                (0.3, 0.2, 1e-7, 0.9),
                                                (0.55, 1.0, 0.3, 0.8)])
def test_objective_grid_equals_scalar_calls(objective, eta, kappa, n_e, beta,
                                            monkeypatch):
    # every point optimize_mu scores, on its grid and in its golden steps,
    # equals evaluate_objective called at that power
    ch, inp = inputs(eta, kappa, mu=1.0, beta=beta, n_e=n_e, misalignment=0.01)
    at_own_mu, finite = rates._OBJECTIVE_FUNCS[objective]
    scored = []

    def recording(ch, inputs, mu, *shared):
        value = finite(ch, inputs, mu, *shared)
        scored.append((mu, value))
        return value

    monkeypatch.setitem(rates._OBJECTIVE_FUNCS, objective, (at_own_mu, recording))
    optimize_mu(ch, inp, objective)
    grid = np.log(np.geomspace(MU_GRID_LO, MU_GRID_HI, 61)).tolist()
    assert [mu for mu, _ in scored[:61]] == [math.exp(t) for t in grid]
    assert [value for _, value in scored] == [
        evaluate_objective(ch, replace(inp, mu=mu), objective) for mu, _ in scored]


# ------------------------------------------------------------ lower bounds

@pytest.mark.parametrize("eta", [0.6, 0.75, 0.9])
def test_pure_loss_limits(eta):
    large = inputs(eta, 1.0, mu=1e8)
    sentinel = inputs(eta, 1.0, mu=math.inf)
    assert abs(lb_direct(*large) - math.log2(eta / (1 - eta))) < 1e-3
    assert abs(lb_reverse(*large) - (-math.log2(1 - eta))) < 1e-3
    assert lb_direct(*sentinel) == pytest.approx(math.log2(eta / (1 - eta)), rel=1e-12)
    assert lb_reverse(*sentinel) == pytest.approx(-math.log2(1 - eta), rel=1e-12)


def test_direct_clamped_at_low_transmissivity():
    assert lb_direct(*inputs(0.5, 1.0, mu=math.inf)) == 0.0
    assert lb_direct(*inputs(0.3, 1.0, mu=1e8)) == 0.0


def test_direct_decoupled_reduces_to_mutual_information():
    inp = inputs(0.8, 0.0, mu=5.0, beta=0.9)
    assert lb_direct(*inp) == pytest.approx(0.9 * g_entropy(0.8 * 5.0), rel=1e-12)


def test_direct_no_noise_reduces_to_two_terms():
    eta, kappa, mu = 0.7, 0.6, 4.0
    inp = inputs(eta, kappa, mu=mu)
    want = g_entropy(eta * mu) - g_entropy(kappa * (1 - eta) * mu)
    assert lb_direct(*inp) == pytest.approx(want, rel=1e-9)


def test_reverse_vanishes_at_zero_modulation():
    assert lb_reverse(*inputs(0.7, 0.5, mu=1e-9)) < 1e-7


def test_reverse_positive_without_eve():
    inp = inputs(0.5, 0.0, mu=1.0)
    third = 1.0 - 0.5 * 1.0 * 2.0 / (1.0 + 0.5)
    want = g_entropy(1.0) - g_entropy(third)
    assert lb_reverse(*inp) == pytest.approx(want, rel=1e-9)
    assert lb_reverse(*inp) > 0.0


def test_sentinel_matches_brute_force_thermal():
    # large-mu analytic limits against mu = 1e8 with injected noise
    eta, kappa, n_e = 0.65, 0.8, 0.2
    brute = inputs(eta, kappa, mu=1e8, n_e=n_e)
    sent = inputs(eta, kappa, mu=math.inf, n_e=n_e)
    assert lb_direct(*sent) == pytest.approx(lb_direct(*brute), abs=2e-3)
    assert lb_reverse(*sent) == pytest.approx(lb_reverse(*brute), abs=2e-3)


@settings(max_examples=40, deadline=None)
@given(eta=st.floats(0.05, 0.95), n_e=st.floats(0.0, 0.5),
       mu=st.floats(0.01, 100.0), beta=st.floats(0.5, 1.0),
       k1=st.floats(0.0, 1.0), k2=st.floats(0.0, 1.0))
def test_lower_bounds_nonincreasing_in_kappa(eta, n_e, mu, beta, k1, k2):
    lo, hi = sorted((k1, k2))
    args = dict(mu=mu, beta=beta, n_e=n_e)
    assert lb_direct(*inputs(eta, hi, **args)) <= lb_direct(*inputs(eta, lo, **args)) + 1e-9
    assert lb_reverse(*inputs(eta, hi, **args)) <= lb_reverse(*inputs(eta, lo, **args)) + 1e-9


@settings(max_examples=40, deadline=None)
@given(eta=st.floats(0.05, 0.95), n_e=st.floats(0.0, 0.5),
       mu=st.floats(0.01, 100.0), beta=st.floats(0.5, 1.0),
       k1=st.floats(0.0, 1.0), k2=st.floats(0.0, 1.0))
def test_protocol_rates_nonincreasing_in_kappa(eta, n_e, mu, beta, k1, k2):
    lo, hi = sorted((k1, k2))
    args = dict(mu=mu, beta=beta, n_e=n_e, pulse_rate=1.0)
    for rate in (skr_cv_ccq, skr_ds_bb84):
        assert rate(*inputs(eta, hi, **args)) <= rate(*inputs(eta, lo, **args)) + 1e-9


@settings(max_examples=100, deadline=None)
@given(eta=st.floats(0.0, 1.0),
       n_e=st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda t: 10.0 ** t)),
       beta=st.sampled_from([1.0, 0.95, 0.8]),
       mu=st.floats(-4.0, 8.0).map(lambda t: 10.0 ** t),
       k1=st.floats(0.0, 1.0), k2=st.floats(0.0, 1.0))
@example(eta=1.380649e-23, n_e=0.0, beta=1.0, mu=1.0, k1=0.0,
         k2=0.8984375)  # skr_cv's Holevo terms cancel to rounding at optimal mu
def test_every_objective_is_nonincreasing_in_kappa(eta, n_e, beta, mu, k1, k2):
    # what lets the geometry searches rank Eve's positions by kappa alone: at
    # fixed eta and n_e no objective rises with kappa, at mu = inf, at a finite
    # mu or at the mu that maximizes it.  Rises of rounding size only, in bits
    # per pulse: the rates' entropy terms reach tens of bits and cancel
    lo, hi = (channel(eta, k, n_e) for k in sorted((k1, k2)))
    at = [RateInputs(mu=power, beta=beta, pulse_rate=1.0) for power in (math.inf, mu)]
    for objective in OBJECTIVES:
        values = [(evaluate_objective(lo, s, objective), evaluate_objective(hi, s, objective))
                  for s in at]
        values.append(tuple(optimize_mu(ch, at[1], objective).value for ch in (lo, hi)))
        for at_lo, at_hi in values:
            assert at_hi <= at_lo + 1e-12 * max(1.0, abs(at_lo)), objective


# ------------------------------------------------------------- upper bound

def test_upper_bound_pure_loss_edge():
    ch = channel(0.75, 1.0)
    assert upper_bound(ch) == pytest.approx(2.0, rel=1e-12)
    assert upper_bound(ch) == pytest.approx(lb_reverse(*inputs(0.75, 1.0, mu=math.inf)), rel=1e-9)


def test_upper_bound_sentinel_without_eve():
    assert math.isinf(upper_bound(channel(0.75, 0.0)))


def test_upper_bound_half_half():
    assert upper_bound(channel(0.5, 0.5)) == pytest.approx(2.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(eta=st.floats(0.05, 0.95), kappa=st.floats(0.05, 1.0),
       mu=st.floats(0.01, 1000.0), beta=st.floats(0.5, 1.0))
def test_bound_ordering(eta, kappa, mu, beta):
    inp = inputs(eta, kappa, mu=mu, beta=beta)
    ub = upper_bound(inp[0])
    assert max(lb_direct(*inp), lb_reverse(*inp)) <= ub + 1e-9


# A nearly lossless link at mu = inf: the direct bound counts n_e as noise
# that also degrades Eve's mode, which the pure-loss upper bound with its
# thermal correction does not, so with noise it falls below (at n_e 1e-4,
# lb_direct 20.131839 against ub 20.129351; at 1e-2, 20.188541 against
# 20.049887; at 0, 20.130820 <= 20.130824).
NOISE_MODEL_GAP = pytest.mark.xfail(strict=True, reason="upper_bound is not a bound "
                                    "under the lower bounds' noise model once n_e > 0")


@pytest.mark.parametrize("n_e", [0.0, pytest.param(1e-4, marks=NOISE_MODEL_GAP),
                                 pytest.param(1e-2, marks=NOISE_MODEL_GAP)])
def test_direct_bound_below_upper_bound_on_a_nearly_lossless_link(n_e):
    inp = inputs(0.9999974, 0.335, mu=math.inf, n_e=n_e)
    assert lb_direct(*inp) <= upper_bound(inp[0])


# ---------------------------------------------------------- protocol rates

def test_ccq_without_eve():
    inp = inputs(0.8, 0.0, mu=3.0, beta=0.9)
    want = inp[1].pulse_rate * 0.9 * math.log2(1 + 0.8 * 3.0)
    assert skr_cv_ccq(*inp) == pytest.approx(want, rel=1e-12)


def test_ccq_below_reverse_bound():
    # measured-data rate discards Alice's quantum side information
    for eta in (0.3, 0.6, 0.9):
        for kappa in (0.2, 0.7, 1.0):
            for mu in (0.5, 5.0, 500.0):
                inp = inputs(eta, kappa, mu=mu)
                assert skr_cv_ccq(*inp) <= inp[1].pulse_rate * lb_reverse(*inp) + 1e-9


def test_bb84_without_eve():
    inp = inputs(0.8, 0.0, mu=2.0)
    want = inp[1].pulse_rate * (1 - math.exp(-0.8 * 2.0))
    assert skr_ds_bb84(*inp) == pytest.approx(want, rel=1e-12)


def test_bb84_clamps_when_eve_dominates():
    assert skr_ds_bb84(*inputs(0.2, 1.0, mu=50.0)) == 0.0


def test_bb84_misalignment_costs_rate():
    clean = skr_ds_bb84(*inputs(0.8, 0.1, mu=1.0))
    noisy = skr_ds_bb84(*inputs(0.8, 0.1, mu=1.0, misalignment=0.03))
    assert noisy < clean


@settings(max_examples=80, deadline=None)
@given(eta=st.floats(0.0, 1.0), kappa=st.floats(0.0, 1.0),
       n_e=st.floats(0.0, 0.1), mu=st.floats(1e-4, 1e8),
       misalignment=st.floats(0.0, 0.5))
@example(eta=0.0, kappa=0.0, n_e=5e-324, mu=1.0, misalignment=0.0)  # subnormal y0
@example(eta=2.225073858507e-311, kappa=0.0, n_e=0.0, mu=1.0,
         misalignment=0.125)  # subnormal gain
@example(eta=5e-324, kappa=0.0, n_e=5e-324, mu=4.5,
         misalignment=0.0)  # subnormal eta mu
@example(eta=2.24989950311201e-309, kappa=2.5e-323, n_e=0.0, mu=0.015625,
         misalignment=0.0)  # subnormal eta mu and leak
def test_bb84_matches_mpmath_at_finite_mu(eta, kappa, n_e, mu, misalignment):
    # the decoy-state formula in 40 digits; the float rate rounds each of
    # gain, f_L h(err) gain and leak, so its error scales with their sum
    with mpmath.workdps(40):
        e, k, y0, m = (mpmath.mpf(v) for v in (eta, kappa, n_e, mu))
        signal = -mpmath.expm1(-e * m)
        leak = -mpmath.expm1(-k * (1 - e) * m)
        gain = y0 + signal
        if gain > 0:
            err = (y0 / 2 + misalignment * signal) / gain
            h = -err * mpmath.log(err, 2) - (1 - err) * mpmath.log(1 - err, 2) \
                if 0 < err < 1 else mpmath.mpf(0)
            want = float(max(0, gain * (1 - mpmath.mpf(1.1) * h) - leak))
            scale = float(gain * (1 + mpmath.mpf(1.1) * h) + leak)
        else:
            want = scale = 0.0
    got = skr_ds_bb84(*inputs(eta, kappa, mu=mu, n_e=n_e, pulse_rate=1.0,
                              misalignment=misalignment))
    assert abs(got - want) <= 1e-14 * scale


@pytest.mark.parametrize("mu", [1.0, 1e4, 1e8])
def test_cv_mutual_term_matches_mpmath_at_a_tiny_eta_mu(mu):
    # beta log2(1 + eta mu / floor): at eta mu = 1.4e-15 a log2 of the sum
    # rounded 1 + eta mu and was 3.5% low at mu 1e8.  The Holevo term is
    # left out (terms = 0, 0).
    eta, n_e = 1.38e-23, 0.0
    ch, rate_inputs = inputs(eta, 0.898, mu=mu, beta=0.95, n_e=n_e)
    with mpmath.workdps(40):
        floor = 1 + (1 - mpmath.mpf(eta)) * n_e
        want = float(rate_inputs.pulse_rate * mpmath.mpf(0.95)
                     * mpmath.log(1 + mpmath.mpf(eta) * mu / floor, 2))
    got = rates._skr_cv(ch, rate_inputs, mu, terms=(0.0, 0.0))
    assert abs(got - want) <= 1e-14 * want


def cv_rate_mpmath(eta, kappa, mu, n_e=0.0, beta=1.0, pulse_rate=1e9):
    """skr_cv at a finite mu in 60 digits, from the spectra of eve_spectra."""
    with mpmath.workdps(60):
        e, k, m, n = (mpmath.mpf(v) for v in (eta, kappa, mu, n_e))
        leaked = (1 - e) * m + e * n
        x = k * leaked
        y = k * (leaked + m * n) / (1 + e * m + (1 - e) * n)

        def g(t):
            return (t + 1) * mpmath.log(t + 1, 2) - t * mpmath.log(t, 2) if t > 0 else 0

        mutual = beta * mpmath.log(1 + e * m / (1 + (1 - e) * n), 2)
        return float(pulse_rate * max(mutual - (g(x) - g(y)), 0))


def test_cv_holevo_term_matches_mpmath_where_it_cancels():
    # g(x) - g(y) cancelled to rounding at x 9.9e6, d = x - y 1.5e-9: the
    # rate read 2.19e-7 bits/s against 1.1085e-14
    ch, rate_inputs = inputs(1.38e-23, 0.898, mu=1.1e7)
    want = cv_rate_mpmath(1.38e-23, 0.898, 1.1e7)
    assert want == pytest.approx(1.1085e-14, rel=1e-4)
    assert rates._skr_cv(ch, rate_inputs, 1.1e7) == pytest.approx(want, rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(log_mu=st.floats(-4.0, 8.0), eta_decades=st.floats(0.0, 24.0),
       kappa=st.floats(0.01, 1.0))
def test_cv_rate_matches_mpmath_at_a_tiny_eta_mu(log_mu, eta_decades, kappa):
    # eta mu <= 1e-6, where d < 1e-4 y and the Holevo term is a Gauss rule;
    # the rate is mutual - Holevo, which cancels to about 1/(2x) of mutual,
    # so the 1e-6 tolerance holds up to x ~ 1e9 (here x <= 1e8)
    mu = 10.0 ** log_mu
    eta = 1e-6 / mu * 10.0 ** -eta_decades
    want = cv_rate_mpmath(eta, kappa, mu)
    got = rates._skr_cv(*inputs(eta, kappa, mu=mu), mu)
    assert got == pytest.approx(want, rel=1e-6)


# ------------------------------------------------------------ optimization

def test_optimize_mu_sentinel_at_perfect_reconciliation():
    opt = optimize_mu(*inputs(0.75, 0.8, mu=1.0, beta=1.0), "lb_reverse")
    assert math.isinf(opt.mu)
    assert opt.value == pytest.approx(
        lb_reverse(*inputs(0.75, 0.8, mu=math.inf)), rel=1e-12)


def test_optimize_mu_finite_at_imperfect_reconciliation():
    opt = optimize_mu(*inputs(0.75, 0.8, mu=1.0, beta=0.95), "lb_reverse")
    assert math.isfinite(opt.mu)
    assert opt.value > 0.0
    assert not opt.degenerate


def test_optimize_mu_matches_dense_grid():
    inp = inputs(0.7, 0.9, mu=1.0, beta=0.95)
    opt = optimize_mu(*inp, "lb_reverse")
    grid = np.geomspace(1e-4, 1e8, 10_000)
    dense = max(lb_reverse(inp[0], RateInputs(mu=float(m), beta=0.95))
                for m in grid)
    assert opt.value >= dense * (1 - 1e-2)


def golden_loop_reference(ch, inp, objective, rel_tol=1e-4):
    """optimize_mu at beta < 1 through the public API: each grid and golden
    point t scored as the objective at ``RateInputs.mu = math.exp(t)``."""
    def score(t):
        return evaluate_objective(ch, replace(inp, mu=math.exp(t)), objective)

    grid = np.log(np.geomspace(MU_GRID_LO, MU_GRID_HI, 61))
    values = [score(t) for t in grid]
    if max(values) <= 0.0:
        return MuOptimum(mu=MU_GRID_LO, value=0.0, degenerate=True)
    best = max(range(len(values)), key=values.__getitem__)
    t, v = refine_grid_point(score, grid, best, values[best], tol=math.log1p(rel_tol))
    return MuOptimum(mu=math.exp(t), value=v)


def test_optimize_mu_equals_golden_loop_over_rate_inputs():
    rng = np.random.default_rng(201213865)
    degenerate = 0
    for i in range(500):
        eta, kappa = rng.uniform(0.01, 0.99), rng.uniform(0.0, 1.0)
        ch, inp = inputs(eta, kappa, mu=1.0, beta=rng.uniform(0.5, 1.0),
                         n_e=rng.uniform(0.0, 1e-2),
                         misalignment=rng.uniform(0.0, 0.1))
        objective = OBJECTIVES[i % len(OBJECTIVES)]
        got = optimize_mu(ch, inp, objective)
        assert got == golden_loop_reference(ch, inp, objective), (i, objective)
        degenerate += got.degenerate
    assert degenerate < 250


@pytest.mark.parametrize("beta", [1.0, 0.9])
def test_unknown_objective_raises_value_error(beta):
    ch, inp = inputs(0.6, 0.5, mu=1.0, beta=beta)
    for call in (evaluate_objective, optimize_mu):
        with pytest.raises(ValueError, match="unknown objective 'banana'"):
            call(ch, inp, "banana")


def test_optimized_rate_report_equals_three_golden_loops():
    # the report's three optima share one grid pass; each equals its own
    # golden loop through the public API
    rng = np.random.default_rng(2012)
    edges = [(0.05, 1.0), (0.0, 0.5), (0.5, 0.0), (0.999, 1.0)]  # degenerate and extreme
    degenerate = 0
    for i in range(520):
        eta, kappa = edges[i] if i < len(edges) else rng.uniform(0.0, 1.0, 2)
        n_e = (0.0, 5e-324, rng.uniform(0.0, 1e-2), rng.uniform(0.0, 1.0))[i % 4]
        ch, inp = inputs(eta, kappa, mu=1.0, beta=rng.uniform(0.5, 1.0), n_e=n_e,
                         misalignment=rng.uniform(0.0, 0.1))
        objective = OBJECTIVES[i % len(OBJECTIVES)]
        rep = rate_report(ch, inp, optimize=True, objective=objective)
        primary, cv, bb = (golden_loop_reference(ch, inp, o)
                           for o in (objective, "skr_cv", "skr_bb84"))
        at_primary = replace(inp, mu=primary.mu)
        assert (rep.optimal_mu, rep.lb_direct, rep.lb_reverse) == (
            primary.mu, lb_direct(ch, at_primary), lb_reverse(ch, at_primary)), i
        assert (rep.skr_cv, rep.skr_bb84) == (cv.value, bb.value), i
        degenerate += primary.degenerate + cv.degenerate + bb.degenerate
    assert degenerate > 0


@pytest.mark.parametrize("beta", [1.0, 0.95])
def test_optimized_rate_report_computes_eve_spectra_once_per_grid_power(
        monkeypatch, beta):
    ch, inp = inputs(0.3, 0.2, mu=1.0, beta=beta, n_e=1e-7)
    spectra = rates.eve_spectra
    powers = []

    def counted(channel, mu):
        powers.append(mu)
        return spectra(channel, mu)

    monkeypatch.setattr(rates, "eve_spectra", counted)
    rate_report(ch, inp, optimize=True)
    grid = [math.exp(t) for t in np.log(np.geomspace(MU_GRID_LO, MU_GRID_HI, 61))]
    assert powers[:61] == grid
    assert not set(powers[61:]) & set(grid)  # the rest are golden steps


def test_optimize_mu_degenerate_channel():
    # eta below kappa(1-eta) everywhere and beta<1: nothing to send
    opt = optimize_mu(*inputs(0.05, 1.0, mu=1.0, beta=0.6), "lb_direct")
    assert opt.degenerate
    assert opt.value == 0.0
    assert opt.mu == pytest.approx(1e-4)


def test_rate_report_with_optimization():
    inp = inputs(0.6, 0.7, mu=1.0, beta=0.95)
    rep = rate_report(*inp, optimize=True)
    assert rep.optimal_mu is not None
    assert rep.lb <= rep.ub + 1e-9
    assert rep.skr_cv >= 0.0 and rep.skr_bb84 >= 0.0


def test_rate_inputs_validation():
    with pytest.raises(ValueError):
        RateInputs(mu=-1.0)
    with pytest.raises(ValueError):
        RateInputs(mu=1.0, beta=0.0)
    with pytest.raises(ValueError):
        RateInputs(mu=1.0, f_L=0.9)
    for misalignment in (-1e-3, math.nextafter(0.5, 1.0), 1.0, math.nan):
        with pytest.raises(ValueError):
            RateInputs(mu=1.0, misalignment=misalignment)
    assert RateInputs(misalignment=0.0).misalignment == 0.0
    assert RateInputs(misalignment=0.5).misalignment == 0.5
