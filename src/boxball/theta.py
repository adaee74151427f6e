"""Tropical Riemann theta function: exact lattice minimization of a
quadratic-plus-linear form.

Theta(Z; Xi) = min over integer n of n.(Xi n/2 + Z) for a symmetric positive
definite Xi.  The minimum is found by Fincke-Pohst enumeration of the
ellipsoid (n - c).Xi(n - c) <= R around the real minimizer c = -Xi^{-1} Z,
using the exact LDL^T factorization of Xi (computed once per PeriodMatrix):
coordinate n_i ranges over an interval found with math.isqrt, visited in
Schnorr-Euchner order (nearest the center first), and R shrinks to each better
point found.  The work grows with the number of lattice points in the
ellipsoid, not with a box around it; genus 5 takes milliseconds per call.
All arithmetic is exact.  The wide brute-force scan is the test oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, isqrt

from boxball.intmat import ldl, solve


@dataclass(frozen=True)
class PeriodMatrix:
    """Symmetric positive definite rational matrix defining a tropical torus."""

    rows: tuple[tuple[Fraction, ...], ...]
    # (L, D) with Xi = L D L^T; building it is the positive definiteness check
    _ldl: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = len(self.rows)
        if any(len(r) != g for r in self.rows):
            raise ValueError("matrix must be square")
        if any(self.rows[i][j] != self.rows[j][i] for i in range(g) for j in range(g)):
            raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "_ldl", ldl(self.rows))

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


def _interval(center: Fraction, d: Fraction, rem: Fraction) -> range:
    """The integers x with d (x - center)^2 <= rem, for d > 0 and rem >= 0."""
    t = rem / d
    # s <= sqrt(t) < s + 1/den, so each end is at most one short
    s = Fraction(isqrt(t.numerator * t.denominator), t.denominator)
    lo, hi = ceil(center - s), floor(center + s)
    if d * (lo - 1 - center) ** 2 <= rem:
        lo -= 1
    if d * (hi + 1 - center) ** 2 <= rem:
        hi += 1
    return range(lo, hi + 1)


def theta_argmin(Z, Xi: PeriodMatrix) -> tuple[Fraction, tuple[int, ...]]:
    """Tropical theta with a minimizer.

    n.(Xi n/2 + Z) = q(n)/2 - c.Xi c/2 with q(n) = (n - c).Xi(n - c) and
    c = -Xi^{-1} Z.  With Xi = L D L^T, q(n) = sum_i D_i (n_i - center_i)^2
    where center_i depends only on n_{i+1..g}, so coordinates are fixed from
    the last down; a branch is cut as soon as its partial sum exceeds the
    bound R, which starts at q(n0) for n0 the componentwise rounding of c.
    Every minimizer is enumerated; among ties the one returned minimizes
    (max |n - n0|, n - n0 lexicographically), the first a scan of sup-norm
    shells around n0 meets.
    """
    Z = tuple(Fraction(z) for z in Z)
    g = Xi.g
    if len(Z) != g:
        raise ValueError(f"theta argument must have g = {g} entries, got {len(Z)}")
    L, D = Xi._ldl
    c = solve(Xi.rows, [-z for z in Z])
    n0 = tuple(
        int((x.numerator * 2 + x.denominator) // (2 * x.denominator)) for x in c
    )
    n = list(n0)

    def center(i: int) -> Fraction:
        return c[i] - sum(L[j][i] * (n[j] - c[j]) for j in range(i + 1, g))

    bound = sum(D[i] * (n0[i] - center(i)) ** 2 for i in range(g))
    ties: list[tuple[int, ...]] = []

    def descend(i: int, partial: Fraction) -> None:
        nonlocal bound, ties
        if i < 0:
            if partial < bound:
                bound, ties = partial, []
            ties.append(tuple(n))
            return
        ctr = center(i)
        # Schnorr-Euchner order: |x - ctr| never decreases, so the first x
        # past the (shrinking) bound ends this level
        for x in sorted(_interval(ctr, D[i], bound - partial), key=lambda x: abs(x - ctr)):
            v = partial + D[i] * (x - ctr) ** 2
            if v > bound:
                break
            n[i] = x
            descend(i - 1, v)

    def shell_order(m):
        d = tuple(a - b for a, b in zip(m, n0))
        return max(map(abs, d), default=0), d

    descend(g - 1, Fraction(0))
    n_star = min(ties, key=shell_order)
    value = _objective(n_star, Xi.rows, Z)
    if value > 0:
        raise ValueError("theta minimum exceeds the n = 0 value")
    return value, n_star


_cache: dict = {}


def theta(Z, Xi: PeriodMatrix) -> Fraction:
    """Tropical Riemann theta Theta(Z; Xi), exactly (memoized)."""
    key = (tuple(Fraction(z) for z in Z), Xi.rows)
    hit = _cache.get(key)
    if hit is None:
        if len(_cache) > 200_000:
            _cache.clear()
        hit = _cache[key] = theta_argmin(Z, Xi)[0]
    return hit


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
