"""Differential tests of the value-only theta search, _argmin_int with ties off.

The value path cuts the Fincke-Pohst search at equality, so it collects no
tied minimizers, and reads the value off the final bound; theta_argmin runs
the same search with every tie collected.  Both must give the value of the
test-local Fraction search and shell scan of tests/test_theta_oracle.py, on
integral forms, forms with rational entries and Toda period matrices at
genus 1-6, for arguments with denominators 1-4 and for the tie-heavy
arguments Xi m / 2.  The identity the value is read from is checked on its
own, at every lattice point tried.
"""

import random
from fractions import Fraction
from math import floor

import pytest

from boxball.theta import PeriodMatrix, _argmin_int, _scaled, theta, theta_argmin
from boxball.troptoda import TodaState, conserved_all, spectral_data
from test_intmat_oracle import old_solve
from test_theta_oracle import fraction_fincke_pohst, objective, pd_matrix, shell_scan_argmin

F = Fraction
GENERA = range(1, 7)


def integral_form(rng, g):
    return pd_matrix(g, [rng.randint(-3, 3) for _ in range(g * g)], rng.randint(1, 4))


def rational_form(rng, g):
    # strictly diagonally dominant, every entry with a denominator in 1..6
    rows = [[F(0)] * g for _ in range(g)]
    for i in range(g):
        for j in range(i + 1, g):
            rows[i][j] = rows[j][i] = F(rng.randint(-3, 3), rng.randint(1, 6))
    for i in range(g):
        rows[i][i] = sum(abs(x) for x in rows[i]) + F(rng.randint(1, 6), rng.randint(1, 6))
    return rows


def toda_form(rng, g):
    # the period matrix of a random smooth spectral curve with N = g + 1
    while True:
        Q = [rng.randint(0, 9) for _ in range(g + 1)]
        W = [rng.randint(5, 15) for _ in range(g + 1)]
        if sum(Q) < sum(W):
            sd = spectral_data(conserved_all(TodaState.make(Q, W)))
            if sd.smooth:
                return [list(r) for r in sd.Omega.rows]


def arguments(rng, rows):
    g = len(rows)
    for den in (1, 2, 3, 4):
        yield tuple(F(rng.randint(-40, 40), den) for _ in range(g))
    for _ in range(3):
        m = [rng.randint(-6, 6) for _ in range(g)]
        yield tuple(sum(F(r[j]) * m[j] for j in range(g)) / 2 for r in rows)


def cases():
    rng = random.Random(18)
    out = []
    for g in GENERA:
        for make in (integral_form, rational_form, toda_form):
            rows = [[F(x) for x in r] for r in make(rng, g)]
            Xi = PeriodMatrix(rows)
            out += [(rows, Xi, Z) for Z in arguments(rng, rows)]
    return out


CASES = cases()


def test_value_path_matches_argmin_and_oracles():
    for rows, Xi, Z in CASES:
        b, t = _scaled(Z, Xi)
        num = _argmin_int(b, t, Xi)[0]
        expect, n_star = fraction_fincke_pohst(Z, rows)
        assert _argmin_int(b, t, Xi, ties=True)[0] == num
        assert F(num, 2 * Xi.s * t) == expect == theta(Z, Xi)
        assert theta_argmin(Z, Xi) == (expect, n_star)
        if len(rows) <= 2:
            assert shell_scan_argmin(Z, rows) == (expect, n_star)
        # the value path cuts at equality: it returns a minimizer, and n0
        # (the rounded real minimizer it starts from) when n0 is one
        point = _argmin_int(b, t, Xi)[1]
        assert objective(point, rows, Z) == expect
        n0 = tuple(floor(x + F(1, 2)) for x in old_solve(rows, [-z for z in Z]))
        if objective(n0, rows, Z) == expect:
            assert point == n0


@pytest.mark.parametrize("g", GENERA)
def test_value_from_bound_identity(g):
    # the search reads 2 s t Theta off its bound M den^2 q(n*) as
    # (t bound + M den (C.b)) / (M den^2); this holds at every n, not only n*
    rng = random.Random(f"bound/{g}")
    for make in (integral_form, rational_form, toda_form):
        rows = [[F(x) for x in r] for r in make(rng, g)]
        Xi = PeriodMatrix(rows)
        e, f = Xi.elimination, Xi.ldl
        A = [[x.numerator * (Xi.s // x.denominator) for x in r] for r in rows]
        for _ in range(10):
            b, t = tuple(rng.randint(-60, 60) for _ in range(g)), rng.randint(1, 4)
            den = e.det * t
            C = [-sum(x * y for x, y in zip(row, b)) for row in e.adj]
            n = [rng.randint(-5, 5) for _ in range(g)]
            u = [sum(p * (den * x - c) for p, x, c in zip(row, n, C)) for row in e.piv]
            bound = sum(w * x * x for w, x in zip(f.w, u))
            quad = sum(n[i] * A[i][j] * n[j] for i in range(g) for j in range(g))
            value = t * quad + 2 * sum(x * y for x, y in zip(n, b))
            assert t * bound + f.M * den * sum(x * y for x, y in zip(C, b)) == f.M * den * den * value
