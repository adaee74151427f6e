"""Exact integer matrix helpers: one fraction-free Gauss-Jordan elimination
(determinant, adjugate and the LDL^T pivot data); Lattice (one constructor)
caches it for F, a theta form or a Toda curve's Omega; lattice reduction; LCMs.

Everything here works over exact integers or fractions.Fraction; no floats.
It also owns the library's exact-number input rule, which every other module
calls: is_int and require_int (an int, not a bool, and at least lo when a
bound is given) and exact (int or Fraction).  And it owns the one way past a
class's checks: trusted builds an instance from fields already valid, and
only the module that defines the class calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from numbers import Rational
from typing import NamedTuple


def is_int(x) -> bool:
    """True for an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_int(name: str, x, lo: int | None = None) -> None:
    """ValueError unless x is an int that is not a bool and, given lo, x >= lo."""
    if not is_int(x):
        raise ValueError(f"{name} must be an int, got {x!r}")
    if lo is not None and x < lo:
        raise ValueError(f"{name} must be >= {lo}, got {x!r}")


def exact(x, what: str = "values") -> int | Fraction:
    """x as an int when it is integral, else as a Fraction; floats, bools
    and other non-rationals raise ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, Rational):
        raise ValueError(f"{what} must be ints or Fractions, got {x!r}")
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def trusted(cls, **fields):
    """An instance of cls holding fields already valid, built without its
    checks: for a value the dynamics built from a valid one, and called only
    by the module that defines cls."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class Elimination(NamedTuple):
    """gauss_jordan of a square integer A.  pivots = [1, p_1, ..., p_g], p_k the
    pivot of the k-th step: the k-th leading minor when no row was swapped;
    piv[k][j] (0 for j < k) is the column of pivot p_{k+1}.  adj = det(A) A^{-1},
    None when A is singular: then the last pivot is 0 and ended the elimination."""

    det: int
    pivots: list[int]
    swaps: int
    piv: list[list[int]]
    adj: list[list[int]] | None


def gauss_jordan(rows) -> Elimination:
    """Fraction-free Gauss-Jordan elimination of [A | I], swapping a row in only
    at a zero pivot (and negating the row it displaces, so the determinant
    keeps its sign).  Each step sets every other row to (pivot * row - its
    pivot-column entry * pivot row) / previous pivot, an exact division; the
    left block ends as det A times I, the right block as adj A.  For a
    symmetric A with no swap, A = L D L^T with L[j][i] = piv[i][j] / pivots[i+1]
    and D_i = pivots[i+1] / pivots[i].  O(g^3), all in int."""
    g = len(rows)
    a = [list(r) + [int(i == j) for j in range(g)] for i, r in enumerate(rows)]
    if any(len(r) != 2 * g for r in a):
        raise ValueError("matrix must be square")
    pivots, piv, swaps = [1], [], 0
    for k in range(g):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, g) if a[i][k]), None)
            if i is None:
                return Elimination(0, pivots + [0], swaps, piv, None)
            a[k], a[i] = a[i], [-x for x in a[k]]
            swaps += 1
        p, prev = a[k][k], pivots[-1]
        piv.append([a[j][k] if j >= k else 0 for j in range(g)])
        for i in range(g):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        pivots.append(p)
    return Elimination(pivots[-1], pivots, swaps, piv, [r[g:] for r in a])


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square matrix of ints, not bools (else ValueError)."""
    for x in (x for r in rows for x in r):
        require_int("matrix entries", x)
    return gauss_jordan(rows).det


def column_hnf(cols: list[list[int]]) -> list[list[int]]:
    """Lower-triangular column Hermite form of the full-rank lattice generated by
    integer columns (any number of them, even none), as a list of g columns.

    Only triangularity with positive diagonal is needed (canonical coset
    reduction below fixes a representative relative to this deterministic
    basis); such a basis is returned unchanged.
    """
    g = len(cols[0]) if cols else 0
    if any(len(c) != g for c in cols):
        raise ValueError("columns must have equal length")
    h = [list(c) for c in cols]
    if len(h) < g:
        raise ValueError("lattice must have full rank")
    for i in range(g):
        # clear row i across columns i+1.. by the Euclidean algorithm
        for j in range(i + 1, len(h)):
            while h[j][i] != 0:
                if h[i][i] == 0 or abs(h[j][i]) < abs(h[i][i]):
                    h[i], h[j] = h[j], h[i]
                q = h[j][i] // h[i][i]
                for r in range(g):
                    h[j][r] -= q * h[i][r]
        if h[i][i] < 0:
            h[i] = [-x for x in h[i]]
        if h[i][i] == 0:
            raise ValueError("lattice must have full rank")
    return h[:g]


class LDL(NamedTuple):  # A = L D L^T in integers, for Fincke-Pohst
    cols: tuple[tuple[int, ...], ...]  # cols[j] = (piv[i][j] for i < j)
    w: tuple[int, ...]  # w[i] = M / (Delta_i Delta_{i+1}), Delta_k the leading minors
    M: int  # the lcm of those products


@dataclass(frozen=True)
class Lattice:
    """A square matrix of exact rationals and the lattice its columns span: g, s
    the lcm of its denominators and A = s rows in ints, set once; A's one
    gauss_jordan, column Hermite form and LDL^T, cached as tuples (it is shared)."""

    rows: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        if not {type(x) for r in rows for x in r} <= {int}:  # ints need no exact
            rows = tuple(tuple(exact(x, "matrix entries") for x in r) for r in rows)
        s = lcm(*(x.denominator for r in rows for x in r))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "g", len(rows))
        object.__setattr__(self, "s", s)
        A = rows if s == 1 else tuple(tuple(x.numerator * (s // x.denominator) for x in r) for r in rows)
        object.__setattr__(self, "A", A)

    @cached_property
    def elimination(self) -> Elimination:
        e = gauss_jordan(self.A)
        adj = None if e.adj is None else tuple(map(tuple, e.adj))
        return Elimination(e.det, tuple(e.pivots), e.swaps, tuple(map(tuple, e.piv)), adj)

    @cached_property
    def hnf(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, column_hnf(list(zip(*self.A)))))

    @cached_property
    def ldl(self) -> LDL:
        """ValueError unless A is symmetric and positive definite (Sylvester)."""
        if self.A != tuple(zip(*self.A)):
            raise ValueError("matrix must be symmetric")
        e = self.elimination
        if e.swaps or min(e.pivots) <= 0:
            raise ValueError("matrix must be positive definite")
        products = [a * b for a, b in zip(e.pivots, e.pivots[1:])]
        M = lcm(*products)
        cols = tuple(tuple(e.piv[i][j] for i in range(j)) for j in range(len(e.piv)))
        return LDL(cols, tuple(M // p for p in products), M)


def reduce_mod_lattice(v: list[int], cols: list[list[int]]) -> tuple[int, ...]:
    """Canonical representative of v modulo the integer lattice spanned by cols:
    v reduced column by column against their Hermite form.

    Two vectors reduce to the same representative iff they differ by a lattice
    element.  Deterministic given the basis.
    """
    h, w = column_hnf(cols), list(v)
    for i in range(len(w)):
        q = w[i] // h[i][i]
        if q:
            for r in range(len(w)):
                w[r] -= q * h[i][r]
    return tuple(w)


def lattice_points_in_box(h: list[list[int]], lo: list[int], hi: list[int]):
    """Points u of the lattice with basis h (column_hnf output), lo <= u <= hi, in
    lexicographic order: once the earlier coefficients are fixed, column i alone
    moves u_i, so each coordinate runs over an exact interval (no padding)."""
    g = len(lo)

    def walk(i, u):
        if i == g:
            yield tuple(u)
            return
        d = h[i][i]
        for c in range(-((u[i] - lo[i]) // d), (hi[i] - u[i]) // d + 1):
            yield from walk(i + 1, [x + c * y for x, y in zip(u, h[i])])

    yield from walk(0, [0] * g)


def moebius(k: int) -> int:
    require_int("k", k, 1)
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
    require_int("k", k, 1)
    small, big = [], []
    d = 1
    while d * d <= k:
        if k % d == 0:
            small.append(d)
            if d != k // d:
                big.append(k // d)
        d += 1
    return small + big[::-1]
