"""Differential tests of the one exact elimination, intmat.gauss_jordan.

The functions prefixed old_ below are the three eliminations the library
replaced: the determinant by Bareiss forward elimination, the linear solve by
Gauss-Jordan over Fraction, and the fraction-free Gauss-Jordan pass without
pivoting that gave the theta LDL^T.  They serve as oracles (test_pbbs_oracle
and test_theta_oracle import them too): the library must return the same
determinant, adjugate, solutions, leading minors and pivot columns.
"""

import random
from fractions import Fraction

import pytest

from boxball.intmat import Lattice, column_hnf, det_int, gauss_jordan
from boxball.pbbs import ActionVariable
from boxball.theta import theta


def old_det_int(rows):
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def old_solve(rows, b):
    g = len(b)
    a = [[Fraction(rows[i][j]) for j in range(g)] + [Fraction(b[i])] for i in range(g)]
    for k in range(g):
        piv = next((i for i in range(k, g) if a[i][k] != 0), None)
        if piv is None:
            raise ValueError("matrix must be nonsingular")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(g):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][g] for i in range(g)]


def old_fraction_free_ldl(rows):
    g = len(rows)
    a = [list(rows[i]) + [int(i == j) for j in range(g)] for i in range(g)]
    minors, piv = [1], []
    for k in range(g):
        p = a[k][k]
        if p <= 0:
            raise ValueError("matrix must be positive definite")
        piv.append([a[j][k] if j >= k else 0 for j in range(g)])
        for i in range(g):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // minors[-1] for x, y in zip(a[i], a[k])]
        minors.append(p)
    return minors, piv, [r[g:] for r in a]


def random_matrices(rng, count):
    """Square integer matrices of size 0..6: full random ones, singular ones
    (a row a combination of two others), ones with a zero leading minor (a
    leading block's row repeated in the block's columns), row-swapped copies
    (the determinant changes sign) and symmetric positive definite ones."""
    for n in range(count):
        g = n % 7
        a = [[rng.randint(-4, 4) for _ in range(g)] for _ in range(g)]
        kind = n // 7 % 5
        if kind == 1 and g >= 2:
            i = rng.randrange(g)
            j, k = (rng.choice([x for x in range(g) if x != i]) for _ in range(2))
            a[i] = [rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(a[j], a[k])]
        elif kind == 2 and g >= 2:
            k = rng.randint(1, g - 1)
            a[k][: k + 1] = a[rng.randrange(k)][: k + 1]
        elif kind == 3 and g >= 2:
            i, j = rng.sample(range(g), 2)
            a[i], a[j] = a[j], a[i]
        elif kind == 4:
            d = rng.randint(1, 3)
            a = [
                [sum(a[k][i] * a[k][j] for k in range(g)) + d * (i == j) for j in range(g)]
                for i in range(g)
            ]
        yield a


def leading_minors(a):
    return [old_det_int([r[:k] for r in a[:k]]) for k in range(len(a) + 1)]


def test_matches_bareiss_fraction_solve_and_ldl_on_random_matrices():
    rng = random.Random(2011)
    kinds = {"singular": 0, "zero minor": 0, "negative": 0, "swapped": 0, "positive definite": 0}
    for a in random_matrices(rng, 700):
        g = len(a)
        e = gauss_jordan(a)
        assert e.det == det_int(a) == old_det_int(a), a
        minors = leading_minors(a)
        if e.det == 0:
            kinds["singular"] += 1
            assert e.adj is None and e.pivots[-1] == 0
            if g:
                with pytest.raises(ValueError, match="nonsingular"):
                    old_solve(a, [0] * g)
        else:
            kinds["negative"] += e.det < 0
            for j in range(g):
                x = old_solve(a, [int(i == j) for i in range(g)])
                assert [row[j] for row in e.adj] == [e.det * xi for xi in x], a
        if all(minors[1:]):
            # no zero leading minor: no swap, the pivots are the minors and
            # pivot column k holds the minors of rows 0..k-1, j and columns 0..k
            assert e.swaps == 0 and e.pivots == minors, a
            for k in range(g):
                for j in range(k, g):
                    sub = [r[: k + 1] for r in a[:k] + [a[j]]]
                    assert e.piv[k][j] == old_det_int(sub), (a, k, j)
                assert not any(e.piv[k][:k])
        elif e.det:
            kinds["zero minor"] += 1
            assert e.swaps > 0
        kinds["swapped"] += e.swaps > 0
        if all(m > 0 for m in minors) and all(a[i][j] == a[j][i] for i in range(g) for j in range(g)):
            kinds["positive definite"] += 1
            assert (e.pivots, e.piv, e.adj) == old_fraction_free_ldl(a), a
    # every case the elimination branches on is exercised
    assert min(kinds.values()) >= 20, kinds


def test_period_matrices_of_random_action_variables():
    # F of valid mu: det, adj F, and the x of F x = h_l that the periodic layer reads
    rng = random.Random(2012)
    for _ in range(300):
        L = rng.randint(2, 60)
        parts = []
        while rng.random() < 0.85 and 2 * (sum(parts) + 1) <= L:
            parts.append(rng.randint(1, (L - 2 * sum(parts)) // 2))
        mu = ActionVariable(L, tuple(sorted(parts, reverse=True)))
        F = mu.F()
        e = gauss_jordan(F)
        assert e.det == old_det_int(F) > 0
        # mu's Lattice holds the same elimination, as tuples
        assert mu.lattice.elimination == (e.det, tuple(e.pivots), e.swaps, *map(_tuples, (e.piv, e.adj)))
        for l in (1, 2, None):
            h = mu.h(l)
            x = old_solve(F, h)
            assert [Fraction(sum(a * b for a, b in zip(row, h)), e.det) for row in e.adj] == x
        if F:
            # F 1 = L 1, so row 0 of adj F sums to det F / L (inverse scattering's e)
            assert L * sum(e.adj[0]) == e.det


def test_rejects_non_square():
    for rows in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="square"):
            gauss_jordan(rows)


def _tuples(rows):
    return tuple(map(tuple, rows))


def test_lattice_scales_once():
    F = Fraction
    X = Lattice(([F(1, 2), F(1, 3)], [F(2, 6), 1]))
    # entries read by exact: ints where integral, so the repr prints 1, not Fraction(1, 1)
    assert X.rows == ((F(1, 2), F(1, 3)), (F(1, 3), 1)) and type(X.rows[1][1]) is int
    assert X.s == 6 and X.A == ((3, 2), (2, 6)) and X.g == 2
    assert X.elimination == (14, (1, 3, 14), 0, ((3, 2), (0, 14)), ((6, -2), (-2, 3)))
    assert X.hnf == _tuples(column_hnf([[3, 2], [2, 6]]))
    assert X.ldl.cols == ((), (2,)) and X.ldl.M == 42 and X.ldl.w == (14, 1)
    Y = Lattice([[7, 2], [2, 7]])
    assert Y.s == 1 and Y.A is Y.rows and repr(Y) == "Lattice(rows=((7, 2), (2, 7)))"
    assert Lattice(()).elimination.det == 1 and Lattice(()).ldl.M == 1


def test_lattice_checks():
    for rows in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="matrix must be square"):
            Lattice(rows)
    for x in (1.5, True, "a"):
        with pytest.raises(ValueError, match="matrix entries must be ints or Fractions"):
            Lattice([[x]])
    # the symmetry and positive definiteness checks are ldl's, on first use, so
    # theta refuses a Lattice that has no L D L^T; a singular A has no adjugate
    for rows, error in [
        ([[2, 1], [0, 2]], "symmetric"),
        ([[1, Fraction(1, 2)], [Fraction(1, 3), 1]], "symmetric"),
        ([[0, 1], [1, 0]], "positive definite"),
        ([[1, 2], [2, 1]], "positive definite"),
        ([[1, 1], [1, 1]], "positive definite"),
    ]:
        with pytest.raises(ValueError, match=f"^matrix must be {error}"):
            Lattice(rows).ldl
        with pytest.raises(ValueError, match=f"^matrix must be {error}"):
            theta((0, 0), Lattice(rows))
    assert Lattice([[1, 1], [1, 1]]).elimination.adj is None
