"""Differential tests of the Fincke-Pohst theta_argmin.

Oracles: brute_theta (the wide box scan of tests/test_theta.py) on random
positive definite matrices, with a box radius that provably contains every
minimizer; a test-local copy of the earlier sup-norm shell scan, which fixes
which minimizer is returned among ties; a test-local copy of the earlier
Fincke-Pohst search over Fraction (exact LDL^T, Gauss-Jordan center), which
must return the same value and minimizer as the integer one; the Sylvester
criterion for the positive definiteness check; and, at genus 4, inverse
scattering of the periodic box-ball system.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxball.intmat import gauss_jordan
from boxball.pbbs import ActionVariable, AngleVariable, inverse_scattering, periodic_theta_state
from boxball.theta import PeriodMatrix, theta, theta_argmin
from test_intmat_oracle import old_det_int, old_solve
from test_theta import brute_theta

F = Fraction


def objective(n, rows, Z):
    g = len(n)
    quad = sum(n[i] * rows[i][j] * n[j] for i in range(g) for j in range(g))
    return F(quad, 2) + sum(a * b for a, b in zip(n, Z))


def shell_scan_argmin(Z, rows):
    """The earlier search (genus <= 2): sup-norm shells around the rounded
    real minimizer n0, stopped by an eigenvalue lower bound."""
    g = len(rows)
    n0 = tuple(
        int((x.numerator * 2 + x.denominator) // (2 * x.denominator))
        for x in old_solve(rows, [-z for z in Z])
    )
    Zp = tuple(z + sum(rows[i][j] * n0[j] for j in range(g)) for i, z in enumerate(Z))
    if g == 1:
        lam = F(rows[0][0])
    else:
        gersh = min(rows[i][i] - abs(rows[i][1 - i]) for i in range(2))
        bound = F(rows[0][0] * rows[1][1] - rows[0][1] ** 2) / (rows[0][0] + rows[1][1])
        lam = max(gersh, bound) if gersh > 0 else bound
    z1 = sum(abs(z) for z in Zp)
    best, best_m, r = F(0), (0,) * g, 1
    while not (r * lam >= z1 and lam * r * r / 2 - z1 * r > best):
        for m in product(range(-r, r + 1), repeat=g):
            if max(abs(c) for c in m) == r:
                v = objective(m, rows, Zp)
                if v < best:
                    best, best_m = v, m
        r += 1
    n_star = tuple(a + b for a, b in zip(n0, best_m))
    return objective(n_star, rows, Z), n_star


def pd_matrix(g, entries, d):
    """A^T A + d I: symmetric, positive definite, smallest eigenvalue >= d."""
    A = [entries[i * g:(i + 1) * g] for i in range(g)]
    return [
        [sum(A[k][i] * A[k][j] for k in range(g)) + (d if i == j else 0) for j in range(g)]
        for i in range(g)
    ]


@st.composite
def theta_cases(draw):
    g = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    rows = pd_matrix(g, draw(st.lists(st.integers(-3, 3), min_size=g * g, max_size=g * g)), d)
    den = draw(st.integers(1, 4))
    Z = tuple(F(draw(st.integers(-d * den, d * den)), den) for _ in range(g))
    m = tuple(draw(st.lists(st.integers(-6, 6), min_size=g, max_size=g)))
    return rows, d, Z, m


@settings(max_examples=60, deadline=None)
@given(theta_cases())
def test_hypothesis_oracle_random_matrices(case):
    rows, d, Z, m = case
    Xi = PeriodMatrix(rows)
    # a minimizer has objective <= 0, so d |n|^2 / 2 <= |Z| |n| and |n| <= 2 |Z|_1 / d
    expect = brute_theta(Z, rows, radius=ceil(2 * sum(abs(z) for z in Z) / d))
    value, n = theta_argmin(Z, Xi)
    assert value == expect == theta(Z, Xi)
    assert objective(n, rows, Z) == value
    # quasi-periodicity moves the minimizer far from the origin
    Zm = tuple(z + sum(rows[i][j] * m[j] for j in range(len(m))) for i, z in enumerate(Z))
    value_m, n_m = theta_argmin(Zm, Xi)
    assert value_m == value - objective(m, rows, Z)
    assert objective(n_m, rows, Zm) == value_m


@pytest.mark.parametrize(
    "rows",
    [[[16]], [[2]], [[7, 2], [2, 7]], [[16, -5], [-5, 10]], [[2, 1], [1, 2]], [[4, -2], [-2, 2]]],
)
def test_minimizer_matches_shell_scan_ties_included(rows):
    # half-integer and third arguments put many minimizers at equal value
    Xi = PeriodMatrix(rows)
    g = len(rows)
    for k in range(-12, 13):
        for den in (2, 3):
            Z = tuple(F(k + 5 * i, den) for i in range(g))
            assert theta_argmin(Z, Xi) == shell_scan_argmin(Z, [[F(x) for x in r] for r in rows])


def _interval(w: int, k: int, r: int, rem: int) -> range:
    """The integers x with w (k x + r)^2 <= rem, for w, k > 0 and rem >= 0."""
    m = isqrt(rem // w)  # |k x + r| <= m, exactly
    return range(-((m + r) // k), (m - r) // k + 1)


def test_isqrt_interval_is_exact():
    # d (x - center)^2 <= rem with center = p/q, d = dn/dd, rem = rn/rd is
    # dn rd (q x - p)^2 <= rn dd q^2; the integer interval must hit it exactly
    rng = random.Random(71)
    for _ in range(3000):
        center = F(rng.randint(-60, 60), rng.randint(1, 12))
        d = F(rng.randint(1, 30), rng.randint(1, 6))
        rem = F(rng.randint(0, 400), rng.randint(1, 9))
        expect = [x for x in range(-120, 121) if d * (x - center) ** 2 <= rem]
        p, q = center.numerator, center.denominator
        w = d.numerator * rem.denominator
        bound = rem.numerator * d.denominator * q * q
        assert list(_interval(w, q, -p, bound)) == expect, (center, d, rem)


def fraction_ldl(rows):
    """A = L D L^T over Fraction, as (L, D); ValueError at the first D_i <= 0."""
    g = len(rows)
    L = [[F(int(i == j)) for j in range(g)] for i in range(g)]
    D = []
    for i in range(g):
        for j in range(i):
            L[i][j] = (F(rows[i][j]) - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / D[j]
        d = F(rows[i][i]) - sum(L[i][k] * L[i][k] * D[k] for k in range(i))
        if d <= 0:
            raise ValueError("matrix must be positive definite")
        D.append(d)
    return L, D


def fraction_interval(center, d, rem):
    """The integers x with d (x - center)^2 <= rem, for d > 0 and rem >= 0."""
    t = rem / d
    s = F(isqrt(t.numerator * t.denominator), t.denominator)
    lo, hi = ceil(center - s), floor(center + s)
    if d * (lo - 1 - center) ** 2 <= rem:
        lo -= 1
    if d * (hi + 1 - center) ** 2 <= rem:
        hi += 1
    return range(lo, hi + 1)


def fraction_fincke_pohst(Z, rows):
    """The earlier theta_argmin: the same enumeration and tie-break, with
    the center from a Fraction solve and every node a Fraction."""
    g = len(rows)
    L, D = fraction_ldl(rows)
    c = old_solve(rows, [-z for z in Z])
    n0 = tuple(int((x.numerator * 2 + x.denominator) // (2 * x.denominator)) for x in c)
    n = list(n0)

    def center(i):
        return c[i] - sum(L[j][i] * (n[j] - c[j]) for j in range(i + 1, g))

    bound = sum(D[i] * (n0[i] - center(i)) ** 2 for i in range(g))
    ties = []

    def descend(i, partial):
        nonlocal bound, ties
        if i < 0:
            if partial < bound:
                bound, ties = partial, []
            ties.append(tuple(n))
            return
        ctr = center(i)
        for x in sorted(fraction_interval(ctr, D[i], bound - partial), key=lambda x: abs(x - ctr)):
            v = partial + D[i] * (x - ctr) ** 2
            if v > bound:
                break
            n[i] = x
            descend(i - 1, v)

    def shell_order(m):
        d = tuple(a - b for a, b in zip(m, n0))
        return max(map(abs, d), default=0), d

    descend(g - 1, F(0))
    n_star = min(ties, key=shell_order)
    return objective(n_star, rows, Z), n_star


@st.composite
def rational_theta_cases(draw):
    g = draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        # (A^T A + d I) / e: every entry has a denominator dividing e
        e = draw(st.integers(1, 6))
        ints = pd_matrix(g, draw(st.lists(small, min_size=g * g, max_size=g * g)), draw(st.integers(1, 4)))
        rows = [[F(x, e) for x in r] for r in ints]
    else:
        # strictly diagonally dominant, entries with denominators 1..6
        rows = [[F(0)] * g for _ in range(g)]
        for i in range(g):
            for j in range(i + 1, g):
                rows[i][j] = rows[j][i] = F(draw(small), draw(st.integers(1, 6)))
        for i in range(g):
            rows[i][i] = ceil(sum(abs(x) for x in rows[i])) + F(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    if draw(st.booleans()):
        # Xi m / 2 or Xi m / 3: the minimizers are the lattice points nearest
        # -m / 2 or -m / 3, and several lie at equal distance
        k = draw(st.sampled_from((2, 3)))
        m = draw(st.lists(st.integers(-12, 12), min_size=g, max_size=g))
        Z = tuple(sum(r[j] * m[j] for j in range(g)) / k for r in rows)
    else:
        # denominators 7..11 divide no denominator of Xi
        Z = tuple(F(draw(st.integers(-90, 90)), draw(st.integers(7, 11))) for _ in range(g))
    return rows, Z


@settings(max_examples=150, deadline=None)
@given(rational_theta_cases())
def test_integer_search_matches_fraction_search(case):
    rows, Z = case
    Xi = PeriodMatrix(tuple(tuple(r) for r in rows))
    got = theta_argmin(Z, Xi)
    assert got == fraction_fincke_pohst(Z, rows)
    assert type(got[0]) is F and all(type(x) is int for x in got[1])
    assert theta(Z, Xi) == got[0]


def test_positive_definite_iff_sylvester():
    for g in (1, 2, 3):
        for entries in product((-2, 0, 1, 3), repeat=g * (g + 1) // 2):
            it = iter(entries)
            rows = [[0] * g for _ in range(g)]
            for i in range(g):
                for j in range(i, g):
                    rows[i][j] = rows[j][i] = next(it)
            minors = [old_det_int([r[:k] for r in rows[:k]]) for k in range(g + 1)]
            sylvester = all(m > 0 for m in minors[1:])
            try:
                PeriodMatrix(rows)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == sylvester, rows
            if accepted:
                # the factorization behind the check: minors, A = L D L^T, adj A
                e = gauss_jordan(rows)
                assert e.swaps == 0 and e.pivots == minors
                piv, adj = e.piv, e.adj
                L, D = fraction_ldl(rows)
                for i in range(g):
                    assert D[i] == F(minors[i + 1], minors[i])
                    assert all(L[j][i] == F(piv[i][j], minors[i + 1]) for j in range(i, g))
                    for j in range(g):
                        assert sum(adj[i][k] * rows[k][j] for k in range(g)) == minors[g] * (i == j)


def test_theta_rejects_wrong_argument_length():
    Xi = PeriodMatrix([[7, 2], [2, 7]])
    for Z in ((1,), (1, 2, 3), ()):
        with pytest.raises(ValueError, match="theta argument must have"):
            theta(Z, Xi)


@pytest.mark.parametrize("L, parts", [(22, (4, 3, 2, 1)), (27, (5, 3, 2, 1))])
def test_pbbs_theta_state_genus4_matches_inverse_scattering(L, parts):
    mu = ActionVariable(L, parts)
    assert mu.g == 4 and all(mu.m(i) == 1 for i in mu.I)
    for J in [(0, 0, 0, 0), (1, 2, 3, 1), (5, 1, 0, 2), (7, 11, 4, 9), (-3, 2, 8, -1)]:
        expect = inverse_scattering(AngleVariable(mu, tuple((j,) for j in J)))
        assert periodic_theta_state(J, mu) == expect


def test_checks_survive_optimize():
    # the checks must not be asserts, which python -O strips
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "from boxball import intmat\n"
        "from boxball.theta import PeriodMatrix, theta\n"
        "cases = [lambda: theta((1,), PeriodMatrix([[7, 2], [2, 7]])),\n"
        "         lambda: intmat.det_int([[1, 2]]), lambda: intmat.moebius(0),\n"
        "         lambda: intmat.divisors(0), lambda: intmat.lcm_of_fractions([0]),\n"
        "         lambda: intmat.column_hnf([[1, 2], [2, 4]])]\n"
        "for case in cases:\n"
        "    try:\n"
        "        print('returned', case())\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:-1] == ["ValueError"] * 6
