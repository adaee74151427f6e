"""Exact integer/rational matrix helpers: determinants, linear solves, the
LDL^T factorization, lattice reduction, LCMs.

Everything here works over exact integers or fractions.Fraction; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
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


def solve(rows, b) -> list[Fraction]:
    """Exact x with A x = b for a nonsingular square A given by rows
    (Gauss-Jordan elimination over Fraction)."""
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


def ldl(rows) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact A = L D L^T of a symmetric rational matrix, as (L, D).

    L is unit lower triangular (by rows), D the diagonal.  D_i is the ratio of
    the i-th to the (i-1)-th leading minor, so A is positive definite iff every
    D_i > 0; a ValueError is raised at the first D_i <= 0.  O(g^3).
    """
    g = len(rows)
    L = [[Fraction(int(i == j)) for j in range(g)] for i in range(g)]
    D: list[Fraction] = []
    for i in range(g):
        for j in range(i):
            L[i][j] = (
                Fraction(rows[i][j]) - sum(L[i][k] * L[j][k] * D[k] for k in range(j))
            ) / D[j]
        d = Fraction(rows[i][i]) - sum(L[i][k] * L[i][k] * D[k] for k in range(i))
        if d <= 0:
            raise ValueError("matrix must be positive definite")
        D.append(d)
    return L, D


def column_hnf(cols: list[list[int]]) -> list[list[int]]:
    """Lower-triangular column Hermite form of a nonsingular integer column lattice basis.

    Input and output are lists of columns.  Only triangularity with positive
    diagonal is needed (canonical coset reduction below fixes a representative
    relative to this deterministic basis).
    """
    g = len(cols)
    h = [list(c) for c in cols]
    for i in range(g):
        # clear row i across columns i+1..g-1 by the Euclidean algorithm
        for j in range(i + 1, g):
            while h[j][i] != 0:
                if h[i][i] == 0 or (h[j][i] != 0 and abs(h[j][i]) < abs(h[i][i])):
                    h[i], h[j] = h[j], h[i]
                q = h[j][i] // h[i][i]
                for r in range(g):
                    h[j][r] -= q * h[i][r]
        if h[i][i] < 0:
            h[i] = [-x for x in h[i]]
        if h[i][i] == 0:
            raise ValueError("lattice basis must be nonsingular")
    return h


def reduce_mod_lattice(v: list[int], cols: list[list[int]]) -> tuple[int, ...]:
    """Canonical representative of v modulo the integer lattice spanned by cols.

    Two vectors reduce to the same representative iff they differ by a lattice
    element.  Deterministic given the basis.
    """
    h = column_hnf(cols)
    w = list(v)
    for i in range(len(w)):
        q = w[i] // h[i][i]
        if q:
            for r in range(len(w)):
                w[r] -= q * h[i][r]
    return tuple(w)


def lcm_int(values) -> int:
    out = 1
    for v in values:
        v = abs(int(v))
        out = out * v // gcd(out, v)
    return out


def lcm_of_fractions(ratios) -> int:
    """Least common multiple of nonzero rationals: the smallest positive integer
    lying in every cyclic group Z*r.  For r = a/b in lowest terms, Z cap Z*r = aZ,
    so this is the lcm of the reduced numerators.
    """
    nums = []
    for r in ratios:
        r = Fraction(r)
        if r == 0:
            raise ValueError("ratios must be nonzero")
        nums.append(abs(r.numerator))
    return lcm_int(nums)


def moebius(k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    out = 1
    d = 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            out = -out
        d += 1
    if k > 1:
        out = -out
    return out


def divisors(k: int) -> list[int]:
    if k < 1:
        raise ValueError("k must be >= 1")
    small, big = [], []
    d = 1
    while d * d <= k:
        if k % d == 0:
            small.append(d)
            if d != k // d:
                big.append(k // d)
        d += 1
    return small + big[::-1]
