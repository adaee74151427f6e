import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxball.theta import PeriodMatrix, theta, theta_argmin

F = Fraction


def brute_theta(Z, rows, radius=100):
    g = len(rows)
    best = F(0)
    for n in product(range(-radius, radius + 1), repeat=g):
        quad = sum(n[i] * sum(rows[i][j] * n[j] for j in range(g)) for i in range(g))
        best = min(best, F(quad, 2) + sum(a * b for a, b in zip(n, Z)))
    return best


def check_quasi_periodicity(
    Xi: PeriodMatrix, trials: int = 20, rng: random.Random | None = None
) -> bool:
    """Randomized check of Theta(Z + Xi m) = -m.(Xi m/2 + Z) + Theta(Z)."""
    rng = rng or random.Random(0)
    g = Xi.g
    for _ in range(trials):
        Z = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(g))
        m = tuple(rng.randint(-3, 3) for _ in range(g))
        Xim = tuple(sum(map(mul, r, m)) for r in Xi.rows)
        lhs = theta(tuple(z + w for z, w in zip(Z, Xim)), Xi)
        rhs = theta(Z, Xi) - sum(map(mul, m, Xim)) * Fraction(1, 2) - sum(map(mul, m, Z))
        if lhs != rhs:
            return False
    return True


def test_zero_argument():
    Xi = PeriodMatrix([[7, 2], [2, 7]])
    assert theta((0, 0), Xi) == 0
    assert theta_argmin((0, 0), Xi)[1] == (0, 0)


def test_g1_wide_scan_oracle():
    Xi = PeriodMatrix([[16]])
    assert theta((F(9),), Xi) == -1  # n=-1: 8 - 9
    assert theta((F(9),), Xi) == brute_theta((F(9),), [[F(16)]])
    for z in range(-30, 31):
        assert theta((F(z),), Xi) == brute_theta((F(z),), [[F(16)]])


def test_g2_wide_scan_oracle():
    rows = [[F(7), F(2)], [F(2), F(7)]]
    Xi = PeriodMatrix(rows)
    rng = random.Random(5)
    for _ in range(40):
        Z = (F(rng.randint(-25, 25), rng.randint(1, 2)), F(rng.randint(-25, 25), rng.randint(1, 2)))
        assert theta(Z, Xi) == brute_theta(Z, rows, radius=30)


def test_quasi_periodicity_fixture_matrices():
    for rows in ([[7, 2], [2, 7]], [[16, -5], [-5, 10]], [[16]], [[34, -11], [-11, 22]]):
        assert check_quasi_periodicity(PeriodMatrix(rows), trials=25)


def test_g3_against_oracle():
    rows = [[F(6), F(1), F(0)], [F(1), F(5), F(2)], [F(0), F(2), F(7)]]
    Xi = PeriodMatrix(rows)
    rng = random.Random(8)
    for _ in range(15):
        Z = tuple(F(rng.randint(-15, 15)) for _ in range(3))
        assert theta(Z, Xi) == brute_theta(Z, rows, radius=8)
    assert check_quasi_periodicity(Xi, trials=10)


def test_quasi_periodicity_zero_shift():
    Xi = PeriodMatrix([[5, 1], [1, 3]])
    Z = (F(3), F(-2))
    assert theta(Z, Xi) == theta(Z, Xi)  # m=0 degenerates to an identity


def test_minimizer_stability_under_radius_growth():
    # the returned minimum agrees with brute force at generous radius
    rows = [[F(16), F(-5)], [F(-5), F(10)]]
    Xi = PeriodMatrix(rows)
    rng = random.Random(6)
    for _ in range(25):
        Z = (F(rng.randint(-60, 60)), F(rng.randint(-60, 60)))
        assert theta(Z, Xi) == brute_theta(Z, rows, radius=25)


def test_theta_never_positive():
    Xi = PeriodMatrix([[9, 3], [3, 11]])
    rng = random.Random(7)
    for _ in range(50):
        Z = (F(rng.randint(-50, 50), 2), F(rng.randint(-50, 50), 2))
        assert theta(Z, Xi) <= 0


def test_rejects_non_positive_definite():
    with pytest.raises(ValueError):
        PeriodMatrix([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        PeriodMatrix([[0]])
    with pytest.raises(ValueError):
        PeriodMatrix([[1, 0], [1, 1]])


@pytest.mark.parametrize(
    "build",
    [
        lambda: theta((0.1, 0.3), PeriodMatrix([[7, 2], [2, 7]])),
        lambda: theta((True, 0), PeriodMatrix([[7, 2], [2, 7]])),
        lambda: theta_argmin(("1/2", 0), PeriodMatrix([[7, 2], [2, 7]])),
        lambda: PeriodMatrix([[2.5]]),
        lambda: PeriodMatrix([[True]]),
        lambda: PeriodMatrix(((F(2), 0.5), (0.5, F(2)))),
    ],
)
def test_rejects_floats_bools_and_other_non_rationals(build):
    with pytest.raises(ValueError, match="must be ints or Fractions"):
        build()


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 12),
    o=st.integers(-3, 3),
    z1=st.integers(-40, 40),
    z2=st.integers(-40, 40),
)
def test_hypothesis_oracle_g2(d, o, z1, z2):
    # diagonally dominant symmetric PD matrices
    rows = [[F(d + 4), F(o)], [F(o), F(d + 4)]]
    Xi = PeriodMatrix(rows)
    Z = (F(z1), F(z2))
    assert theta(Z, Xi) == brute_theta(Z, rows, radius=25)
