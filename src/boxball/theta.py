"""Tropical Riemann theta function: exact lattice minimization of a
quadratic-plus-linear form.

Theta(Z; Xi) = min over integer n of n.(Xi n/2 + Z) for a symmetric positive
definite Xi.  The minimum is found by Fincke-Pohst enumeration of the
ellipsoid (n - c).Xi(n - c) <= R around the real minimizer c = -Xi^{-1} Z,
with every node in Python int.  Xi is an intmat.Lattice, scaled once by the
lcm s of its denominators to an integer A whose one fraction-free elimination
gives its adjugate, its LDL^T pivot columns and its leading minors (with
the symmetry check, the positive definiteness check).  A PeriodMatrix is a
Lattice built with its LDL^T: troptoda's spectral data hold the curve's
Omega as one, and pbbs passes its action variable's F as a plain Lattice.
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

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from boxball.intmat import Lattice, exact


@dataclass(frozen=True)
class PeriodMatrix(Lattice):
    """Symmetric positive definite rational matrix defining a tropical torus: a
    Lattice built with its LDL^T, so checked symmetric and positive definite."""

    def __post_init__(self):
        super().__post_init__()
        self.ldl


def _argmin_int(
    b: tuple[int, ...], t: int, Xi: Lattice, ties: bool = False
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
    (det, _, _, piv, adj), (cols, w, M) = Xi.elimination, Xi.ldl
    den = det * t
    C = [-sum(map(mul, row, b)) for row in adj]
    n0 = [(2 * c + den) // (2 * den) for c in C]
    n = n0[:]
    k = [row[i] * den for i, row in enumerate(piv)]
    # r_i = r0[i] + den sum_{j > i} piv[i][j] n_j, and u_i(n0) = piv[i].e
    r0 = [-sum(map(mul, row, C)) for row in piv]
    e = [den * x - c for x, c in zip(n0, C)]
    bound = sum(wi * sum(map(mul, row, e)) ** 2 for wi, row in zip(w, piv))
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
    num = (t * bound + M * den * sum(map(mul, C, b))) // (M * den * den)
    if num > 0:
        raise ValueError("theta minimum exceeds the n = 0 value")
    if not ties:
        return num, found[-1] if found else tuple(n0)

    def shell_order(m):
        d = tuple(a - b for a, b in zip(m, n0))
        return max(map(abs, d), default=0), d

    return num, min(found, key=shell_order)


def _scaled(Z, Xi: Lattice) -> tuple[tuple[int, ...], int]:
    """(b, t) with Z = b / (s t) in integers, t the lcm of Z's denominators."""
    Z = tuple(exact(z, "theta argument entries") for z in Z)
    if len(Z) != Xi.g:
        raise ValueError(f"theta argument must have g = {Xi.g} entries, got {len(Z)}")
    t = lcm(*(z.denominator for z in Z))
    st = Xi.s * t
    return tuple(z.numerator * (st // z.denominator) for z in Z), t


def theta_argmin(Z, Xi: Lattice) -> tuple[Fraction, tuple[int, ...]]:
    """Tropical theta with a minimizer.

    Among ties the one returned minimizes (max |n - n0|, n - n0
    lexicographically) for n0 the componentwise rounding of the real minimizer
    -Xi^{-1} Z: the first a scan of sup-norm shells around n0 meets.
    """
    b, t = _scaled(Z, Xi)
    num, n_star = _argmin_int(b, t, Xi, ties=True)
    return Fraction(num, 2 * Xi.s * t), n_star


def theta(Z, Xi: Lattice) -> Fraction:
    """Tropical Riemann theta Theta(Z; Xi), exactly."""
    b, t = _scaled(Z, Xi)
    return Fraction(_argmin_int(b, t, Xi)[0], 2 * Xi.s * t)
