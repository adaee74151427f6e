"""Tropical Riemann theta function: exact lattice minimization of a
quadratic-plus-linear form.

Theta(Z; Xi) = min over integer n of n.(Xi n/2 + Z) for a symmetric positive
definite Xi.  The minimum is found by Fincke-Pohst enumeration of the
ellipsoid (n - c).Xi(n - c) <= R around the real minimizer c = -Xi^{-1} Z,
with every node in Python int.  Once per PeriodMatrix, Xi is scaled by the
lcm s of its denominators to an integer matrix A, and the library's one
fraction-free Gauss-Jordan pass (intmat.gauss_jordan) gives the leading
minors of A (the positive definiteness check: no row swap, every pivot
positive), the pivot columns of its LDL^T factorization and its adjugate.
Per call, Z is scaled to integers b = s t Z; coordinates are fixed from the
last down, each visited in Schnorr-Euchner zig-zag order from the rounded
center until its term reaches R, and R shrinks to each better point found.
The value is read off the final R in O(g).  The value path (theta, and the
Toda sites through _argmin_int) cuts at equality, so it enumerates no tied
minimizers; only theta_argmin collects the ties and breaks them.
The work grows with the number of lattice points in the ellipsoid, not with a
box around it; genus 5 takes milliseconds per call.  One Fraction is made per
returned value.  Nothing is memoized here: a caller that reads a value twice
keeps it on its own data (a Toda trajectory keeps its two theta rows, the
box-ball theta formula its 2 (L + 1) thetas).  Arguments and matrix
entries are ints or Fractions; floats and bools raise ValueError.  The wide
brute-force scan and the Fraction LDL^T enumeration are the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

from boxball.intmat import exact, gauss_jordan


class _IntegerForm(NamedTuple):
    """A = s Xi in integers through its intmat.gauss_jordan: det = det A,
    piv the pivot columns (cols[j] their entries piv[i][j] above the
    diagonal, i < j), adj = det(A) A^{-1}.  With Delta_k the leading minors,
    w[i] = M / (Delta_i Delta_{i+1}) for M the lcm of these products."""

    s: int
    piv: list[list[int]]
    cols: tuple[tuple[int, ...], ...]
    w: tuple[int, ...]
    M: int
    adj: list[list[int]]
    det: int


def _integer_form(rows) -> _IntegerForm:
    s = lcm(*(x.denominator for r in rows for x in r))
    A = tuple(tuple(x.numerator * (s // x.denominator) for x in r) for r in rows)
    e = gauss_jordan(A)
    # Sylvester's criterion: with no row swapped the pivots are the leading minors
    if e.swaps or min(e.pivots) <= 0:
        raise ValueError("matrix must be positive definite")
    products = [a * b for a, b in zip(e.pivots, e.pivots[1:])]
    M = lcm(*products)
    cols = tuple(tuple(e.piv[i][j] for i in range(j)) for j in range(len(e.piv)))
    return _IntegerForm(s, e.piv, cols, tuple(M // p for p in products), M, e.adj, e.det)


@dataclass(frozen=True)
class PeriodMatrix:
    """Symmetric positive definite rational matrix defining a tropical torus;
    entries are ints or Fractions, held as Fractions."""

    rows: tuple[tuple[Fraction, ...], ...]
    # built once; building it is the positive definiteness check
    _form: _IntegerForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = len(self.rows)
        if any(len(r) != g for r in self.rows):
            raise ValueError("matrix must be square")
        rows = tuple(tuple(Fraction(exact(x, "matrix entries")) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if any(self.rows[i][j] != self.rows[j][i] for i in range(g) for j in range(g)):
            raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "_form", _integer_form(self.rows))

    @property
    def g(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows) -> "PeriodMatrix":
        return cls(tuple(map(tuple, rows)))

    def mul(self, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        return tuple(sum(r[j] * v[j] for j in range(self.g)) for r in self.rows)


def _argmin_int(
    b: tuple[int, ...], t: int, f: _IntegerForm, ties: bool = False
) -> tuple[int, tuple[int, ...]]:
    """2 s t Theta(Z; Xi) and a minimizer, for Z = b / (s t) and A = s Xi.

    n.(Xi n/2 + Z) = (q(n) - c.A c) / (2 s) with q(n) = (n - c).A(n - c) and
    c = -adj(A) b / (det t) = C / den.  With A = L D L^T, q(n) = sum_i D_i y_i^2
    for y_i = sum_{j >= i} L[j][i] (n_j - c_j), and
    D_i y_i^2 = u_i^2 / (Delta_i Delta_{i+1} den^2) for the integer
    u_i = sum_{j >= i} piv[i][j] (den n_j - C_j); so M den^2 q(n) = sum_i w[i] u_i^2.
    u_i = k_i n_i + r_i where r_i depends only on n_{i+1..g}, so coordinates
    are fixed from the last down, each r_i updated once per level as n_{i+1}
    is fixed; a branch is cut as soon as its partial sum reaches the bound,
    which starts at its value at n0 and falls to each better point found.
    The minimum is read off the final bound: as A c = -b / t,
    2 s t Theta = (t bound + M den (C.b)) / (M den^2), in O(g).

    The value path (ties false) enumerates no ties: it cuts at equality,
    and the minimizer returned is the last point found (n0 if none was).
    With ties true every minimizer is enumerated, and the one returned
    minimizes (max |n - n0|, n - n0 lexicographically): the tie-break of
    theta_argmin.
    """
    g = len(b)
    den = f.det * t
    C = [-sum(map(mul, row, b)) for row in f.adj]
    n0 = [(2 * c + den) // (2 * den) for c in C]
    n = n0[:]
    k = [row[i] * den for i, row in enumerate(f.piv)]
    w, cols = f.w, f.cols
    # r_i = r0[i] + den sum_{j > i} piv[i][j] n_j, and u_i(n0) = piv[i].e
    r0 = [-sum(map(mul, row, C)) for row in f.piv]
    e = [den * x - c for x, c in zip(n0, C)]
    bound = sum(wi * sum(map(mul, row, e)) ** 2 for wi, row in zip(w, f.piv))
    # ties prune only past the bound, the value path at it: limit = bound + slack
    slack = 1 if ties else 0
    limit, found = bound + slack, []

    def descend(i: int, partial: int, r: list[int]) -> None:
        nonlocal bound, limit, found
        ki, wi, ri = k[i], w[i], r[i]
        # Schnorr-Euchner zig-zag from x nearest the center -r/k: |k x + r|
        # never decreases, so the first x reaching the limit ends this level
        x = (ki - 2 * ri) // (2 * ki)
        u = ki * x + ri
        dx = ddx = -1 if u > 0 else 1
        while True:
            v = partial + wi * u * u
            if v >= limit:
                return
            n[i] = x
            if i:
                xd = x * den
                descend(i - 1, v, [a + c * xd for a, c in zip(r, cols[i])])
            else:
                if v < bound:
                    bound, limit, found = v, v + slack, []
                found.append(tuple(n))
            x += dx
            u += ki * dx
            ddx = -ddx
            dx = ddx - dx

    if g:
        descend(g - 1, 0, r0)
    num = (t * bound + f.M * den * sum(map(mul, C, b))) // (f.M * den * den)
    if num > 0:
        raise ValueError("theta minimum exceeds the n = 0 value")
    if not ties:
        return num, found[-1] if found else tuple(n0)

    def shell_order(m):
        d = tuple(a - b for a, b in zip(m, n0))
        return max(map(abs, d), default=0), d

    return num, min(found, key=shell_order)


def _scaled(Z, Xi: PeriodMatrix) -> tuple[tuple[int, ...], int]:
    """(b, t) with Z = b / (s t) in integers, t the lcm of Z's denominators."""
    Z = tuple(exact(z, "theta argument entries") for z in Z)
    if len(Z) != Xi.g:
        raise ValueError(f"theta argument must have g = {Xi.g} entries, got {len(Z)}")
    t = lcm(*(z.denominator for z in Z))
    st = Xi._form.s * t
    return tuple(z.numerator * (st // z.denominator) for z in Z), t


def theta_argmin(Z, Xi: PeriodMatrix) -> tuple[Fraction, tuple[int, ...]]:
    """Tropical theta with a minimizer.

    Among ties the one returned minimizes (max |n - n0|, n - n0
    lexicographically) for n0 the componentwise rounding of the real minimizer
    -Xi^{-1} Z: the first a scan of sup-norm shells around n0 meets.
    """
    b, t = _scaled(Z, Xi)
    num, n_star = _argmin_int(b, t, Xi._form, ties=True)
    return Fraction(num, 2 * Xi._form.s * t), n_star


def theta(Z, Xi: PeriodMatrix) -> Fraction:
    """Tropical Riemann theta Theta(Z; Xi), exactly."""
    b, t = _scaled(Z, Xi)
    return Fraction(_argmin_int(b, t, Xi._form)[0], 2 * Xi._form.s * t)
