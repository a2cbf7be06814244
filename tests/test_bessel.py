"""``scipy.special.j0``, the J0 kernel of the reference quadrature in
``diffraction_reference``, and ``fsoqkd.bessel.bessel_j0``, the J0 of the
Lommel series' recurrence, validated against a frozen high-precision table.

Reference values were computed with 40-digit arithmetic (mpmath 1.x,
``mp.besselj(0, x)``) and rounded to 22 significant digits; they are exact to
well below the tolerances asserted here.
"""

import mpmath
import numpy as np
import pytest
from scipy.special import j0 as bessel_j0

from fsoqkd import bessel, diffraction

# (argument, J0(argument) to 22 significant digits)
ORACLE_TABLE = [
    (1e-06, 0.99999999999975),
    (1.9392274474868577e-06, 0.9999999999990598492267),
    (3.7606030930863937e-06, 0.9999999999964644660941),
    (7.29266473721711e-06, 0.9999999999867042602577),
    (1.4142135623730951e-05, 0.9999999999500000000006),
    (2.7424817567620734e-05, 0.9999999998119698453545),
    (5.318295896944989e-05, 0.9999999992928932189385),
    (0.0001031338537721246, 0.9999999973408520532953),
    (0.00020000000000000004, 0.999999990000000025),
    (0.0003878454894973716, 0.9999999623939694226894),
    (0.0007521206186172788, 0.9999998585786487626904),
    (0.0014585329474434221, 0.9999994681704810161748),
    (0.0028284271247461905, 0.9999980000009999997772),
    (0.0054849635135241475, 0.999992478807955951015),
    (0.010636591793889979, 0.9999717159287519095521),
    (0.02062677075442492, 0.9998936369104547975795),
    (0.04000000000000001, 0.9996000399982222665106),
    (0.07756909789947433, 0.9984963243536517966792),
    (0.1504241237234558, 0.9943511407239701035328),
    (0.29170658948868444, 0.9788396864317986665901),
    (0.5, 0.9384698072408129042284),
    (0.5656854249492382, 0.9215858486618381290128),
    (1.0, 0.7651976865579665514497),
    (1.0969927027048296, 0.7210368421846918438579),
    (2.0, 0.2238907791412356680518),
    (2.127318358777996, 0.1511223042320186617348),
    (3.0, -0.2600519549019334376242),
    (3.8317, -0.4027593956953751157286),
    (4.125354150884985, -0.3859349546995540472216),
    (5.0, -0.1775967713143383043474),
    (7.0156, 0.3001157524994682234952),
    (8.0, 0.1716508071375539060909),
    (8.5, 0.04193925184293450355176),
    (10.5, -0.2366481944623471262229),
    (12.56106521712293, 0.1566851588466279403154),
    (18.5623952222136, 0.08738774626868850514254),
    (27.430994937910125, 0.00951354891883806364905),
    (40.53676663360684, -0.0576869134496233993846),
    (59.90411404423864, -0.08658654534254010407527),
    (88.52464509219428, 0.08263077277419961340746),
    (100.0, 0.01998585030422312242423),
    (130.8192753324368, -0.02347243953020696691953),
    (193.32111165970593, -0.0357648394082044841903),
    (285.6845989887378, -0.02605243372076406082486),
    (422.17680934413505, 0.03549364429179720627484),
    (623.8812276857124, 0.01560861243476043521194),
    (921.9544457292889, -0.02039525732836861115299),
    (1234.5, -0.01355037961803572190943),
    (1362.4388141202382, -0.004866788487447008704927),
    (2013.3744468828147, -0.006906440759834399813794),
    (2975.3091451510413, -0.01235794798630907647292),
    (4396.829672158178, -0.006939270247695522574373),
    (6497.513442418838, 0.00986220561312089003814),
    (9601.845894041879, 0.007639579270474902950464),
    (14189.342644685159, 0.002889235393738491759097),
    (20968.618629175777, 0.003661905860719552102281),
    (30986.845425183004, -0.003906938686572830331187),
    (45791.504265721356, 0.001571758967808876092965),
    (54321.0, -0.001661718803897324385466),
    (67669.42017316335, 0.0009058698335676594604931),
    (100000.0, -0.001719201116235972192571),
]


@pytest.mark.parametrize("x,expected", ORACLE_TABLE)
def test_matches_oracle_table(x, expected):
    got = bessel_j0(x)
    if abs(expected) > 1e-2:
        assert abs(got - expected) / abs(expected) < 1e-12
    else:
        # near the zeros relative error is ill-posed; absolute suffices
        assert abs(got - expected) < 1e-12


def test_even_function():
    xs = np.array([0.3, 2.7, 9.4, 123.0])
    assert np.array_equal(bessel_j0(xs), bessel_j0(-xs))


def test_branch_continuity_at_split():
    below = bessel_j0(np.nextafter(8.0, 0.0))
    above = bessel_j0(np.nextafter(8.0, 16.0))
    assert abs(below - above) < 1e-12


def test_vectorized_matches_scalar():
    xs = np.geomspace(1e-3, 5e4, 400)
    vec = bessel_j0(xs)
    scal = np.array([bessel_j0(float(x)) for x in xs])
    assert np.array_equal(vec, scal)


def test_scipy_cross_check():
    # spot-check the kernel against mpmath between the table points, and the
    # J0 of the Bessel recurrence that the diffraction integrals use
    xs = np.geomspace(1e-6, 1e5, 60)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.besselj(0, mpmath.mpf(float(x)))) for x in xs])
    assert np.max(np.abs(bessel_j0(xs) - ref)) < 5e-12
    assert bessel.bessel_j0 is diffraction.bessel_j0
    assert np.max(np.abs(bessel.bessel_j0(xs) - ref)) < 5e-12
    assert np.array_equal(bessel.bessel_j0(-xs), bessel.bessel_j0(xs))


def test_recurrence_matches_oracle_table():
    # the whole table in one call, whose orders follow its largest argument,
    # and each point in a call of its own
    xs, want = map(np.array, zip(*ORACLE_TABLE))
    tol = 1e-12 * np.maximum(np.abs(want), 1e-2)
    assert np.all(np.abs(bessel.bessel_j0(xs) - want) <= tol)
    one_by_one = np.array([bessel.bessel_j0(x) for x in xs])
    assert np.all(np.abs(one_by_one - want) <= tol)
    assert bessel.bessel_j0(xs[:60].reshape(3, 20)).shape == (3, 20)
    assert np.ndim(bessel.bessel_j0(1.0)) == 0
