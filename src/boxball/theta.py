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
Per call, Z is scaled to integers b = s t Z; coordinate n_i then ranges over
an interval found with math.isqrt and floor division, visited in
Schnorr-Euchner order (nearest the center first), and R shrinks to each
better point found.
The work grows with the number of lattice points in the ellipsoid, not with a
box around it; genus 5 takes milliseconds per call.  One Fraction is made per
returned value.  Values (not minimizers) are memoized in one lru_cache keyed
on integers, so equal period matrices share them.  The wide brute-force scan
and the Fraction LDL^T enumeration are the test oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from boxball.intmat import gauss_jordan, lcm_int


class _IntegerForm(NamedTuple):
    """A = s Xi in integers and its intmat.gauss_jordan: det = det A,
    piv the pivot columns, adj = det(A) A^{-1}.  With Delta_k the leading minors,
    w[i] = M / (Delta_i Delta_{i+1}) for M the lcm of these products.  All
    tuples of ints, so a form is a hashable key of the theta memo."""

    s: int
    A: tuple[tuple[int, ...], ...]
    piv: tuple[tuple[int, ...], ...]
    w: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]
    det: int


def _integer_form(rows) -> _IntegerForm:
    s = lcm_int(x.denominator for r in rows for x in r)
    A = tuple(tuple(x.numerator * (s // x.denominator) for x in r) for r in rows)
    e = gauss_jordan(A)
    # Sylvester's criterion: with no row swapped the pivots are the leading minors
    if e.swaps or min(e.pivots) <= 0:
        raise ValueError("matrix must be positive definite")
    products = [a * b for a, b in zip(e.pivots, e.pivots[1:])]
    M = lcm_int(products)
    piv, adj = (tuple(map(tuple, m)) for m in (e.piv, e.adj))
    return _IntegerForm(s, A, piv, tuple(M // p for p in products), adj, e.det)


@dataclass(frozen=True)
class PeriodMatrix:
    """Symmetric positive definite rational matrix defining a tropical torus."""

    rows: tuple[tuple[Fraction, ...], ...]
    # built once; building it is the positive definiteness check
    _form: _IntegerForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = len(self.rows)
        if any(len(r) != g for r in self.rows):
            raise ValueError("matrix must be square")
        if any(self.rows[i][j] != self.rows[j][i] for i in range(g) for j in range(g)):
            raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "_form", _integer_form(self.rows))

    @property
    def g(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows) -> "PeriodMatrix":
        return cls(tuple(tuple(Fraction(x) for x in r) for r in rows))

    def mul(self, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        return tuple(sum(r[j] * v[j] for j in range(self.g)) for r in self.rows)


def _objective(n, Xi_rows, Z):
    # n.(Xi n / 2 + Z), assembled as (n.Xi n + 2 n.Z)/2
    quad = sum(n[i] * sum(Xi_rows[i][j] * n[j] for j in range(len(n))) for i in range(len(n)))
    lin = sum(ni * zi for ni, zi in zip(n, Z))
    return Fraction(quad, 2) + lin


def _interval(w: int, k: int, r: int, rem: int) -> range:
    """The integers x with w (k x + r)^2 <= rem, for w, k > 0 and rem >= 0."""
    m = isqrt(rem // w)  # |k x + r| <= m, exactly
    return range(-((m + r) // k), (m - r) // k + 1)


def _argmin_int(b: tuple[int, ...], t: int, f: _IntegerForm) -> tuple[int, tuple[int, ...]]:
    """2 s t Theta(Z; Xi) and the minimizer, for Z = b / (s t) and A = s Xi.

    n.(Xi n/2 + Z) = (q(n) - c.A c) / (2 s) with q(n) = (n - c).A(n - c) and
    c = -adj(A) b / (det t) = C / den.  With A = L D L^T, q(n) = sum_i D_i y_i^2
    for y_i = sum_{j >= i} L[j][i] (n_j - c_j), and
    D_i y_i^2 = u_i^2 / (Delta_i Delta_{i+1} den^2) for the integer
    u_i = sum_{j >= i} piv[i][j] (den n_j - C_j); so M den^2 q(n) = sum_i w[i] u_i^2.
    u_i = k_i n_i + r_i where r_i depends only on n_{i+1..g}, so coordinates
    are fixed from the last down; a branch is cut as soon as its partial sum
    exceeds the bound, which starts at its value at n0.  Every minimizer is
    enumerated.
    """
    g = len(b)
    den = f.det * t
    C = [-sum(x * y for x, y in zip(row, b)) for row in f.adj]
    n0 = tuple((2 * c + den) // (2 * den) for c in C)
    n = list(n0)
    k = [f.piv[i][i] * den for i in range(g)]
    # r_i = base[i] + sum_{j > i} step[i][j] n_j
    base = [-sum(f.piv[i][j] * C[j] for j in range(i, g)) for i in range(g)]
    step = [[p * den for p in row] for row in f.piv]

    def r_at(i: int) -> int:
        return base[i] + sum(step[i][j] * n[j] for j in range(i + 1, g))

    bound = sum(f.w[i] * (k[i] * n0[i] + r_at(i)) ** 2 for i in range(g))
    ties: list[tuple[int, ...]] = []

    def descend(i: int, partial: int) -> None:
        nonlocal bound, ties
        if i < 0:
            if partial < bound:
                bound, ties = partial, []
            ties.append(tuple(n))
            return
        ki, wi, r = k[i], f.w[i], r_at(i)
        # Schnorr-Euchner order: |k x + r| = k |x - center| never decreases,
        # so the first x past the (shrinking) bound ends this level
        for x in sorted(_interval(wi, ki, r, bound - partial), key=lambda x: abs(ki * x + r)):
            v = partial + wi * (ki * x + r) ** 2
            if v > bound:
                break
            n[i] = x
            descend(i - 1, v)

    def shell_order(m):
        d = tuple(a - b for a, b in zip(m, n0))
        return max(map(abs, d), default=0), d

    descend(g - 1, 0)
    n_star = min(ties, key=shell_order)
    quad = sum(n_star[i] * sum(a * y for a, y in zip(f.A[i], n_star)) for i in range(g))
    num = t * quad + 2 * sum(x * y for x, y in zip(n_star, b))
    if num > 0:
        raise ValueError("theta minimum exceeds the n = 0 value")
    return num, n_star


def _scaled(Z, Xi: PeriodMatrix) -> tuple[tuple[int, ...], int]:
    """(b, t) with Z = b / (s t) in integers, t the lcm of Z's denominators."""
    Z = tuple(Fraction(z) for z in Z)
    if len(Z) != Xi.g:
        raise ValueError(f"theta argument must have g = {Xi.g} entries, got {len(Z)}")
    t = lcm_int(z.denominator for z in Z)
    st = Xi._form.s * t
    return tuple(z.numerator * (st // z.denominator) for z in Z), t


def theta_argmin(Z, Xi: PeriodMatrix) -> tuple[Fraction, tuple[int, ...]]:
    """Tropical theta with a minimizer.

    Among ties the one returned minimizes (max |n - n0|, n - n0
    lexicographically) for n0 the componentwise rounding of the real minimizer
    -Xi^{-1} Z: the first a scan of sup-norm shells around n0 meets.
    """
    b, t = _scaled(Z, Xi)
    num, n_star = _argmin_int(b, t, Xi._form)
    return Fraction(num, 2 * Xi._form.s * t), n_star


@lru_cache(maxsize=200_000)
def _theta_num(b: tuple[int, ...], t: int, form: _IntegerForm) -> int:
    """2 s t Theta(b / (s t); Xi) for any t > 0 and form = Xi._form."""
    return _argmin_int(b, t, form)[0]


def theta(Z, Xi: PeriodMatrix) -> Fraction:
    """Tropical Riemann theta Theta(Z; Xi), exactly (memoized)."""
    b, t = _scaled(Z, Xi)
    return Fraction(_theta_num(b, t, Xi._form), 2 * Xi._form.s * t)


def check_quasi_periodicity(
    Xi: PeriodMatrix, trials: int = 20, rng: random.Random | None = None
) -> bool:
    """Randomized check of Theta(Z + Xi m) = -m.(Xi m/2 + Z) + Theta(Z)."""
    rng = rng or random.Random(0)
    g = Xi.g
    for _ in range(trials):
        Z = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(g))
        m = tuple(rng.randint(-3, 3) for _ in range(g))
        Xim = Xi.mul(tuple(Fraction(x) for x in m))
        lhs = theta(tuple(z + w for z, w in zip(Z, Xim)), Xi)
        rhs = -_objective(m, Xi.rows, Z) + theta(Z, Xi)
        if lhs != rhs:
            return False
    return True
