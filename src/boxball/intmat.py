"""Exact integer/rational matrix helpers: determinants, lattice reduction, LCMs.

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
    assert all(len(r) == n for r in a), "matrix must be square"
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


def det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix (Gaussian elimination over Fraction)."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


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
        assert h[i][i] > 0, "lattice basis must be nonsingular"
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
        assert r != 0
        nums.append(abs(r.numerator))
    return lcm_int(nums)


def moebius(k: int) -> int:
    assert k >= 1
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
    assert k >= 1
    small, big = [], []
    d = 1
    while d * d <= k:
        if k % d == 0:
            small.append(d)
            if d != k // d:
                big.append(k // d)
        d += 1
    return small + big[::-1]
