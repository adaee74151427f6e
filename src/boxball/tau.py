"""Ultradiscrete tau functions over rigged configurations.

tau_{k,a}(S) = -min over subsets T of S of c_{k,a}(T), where c is the cocharge
shifted by the color-a length sum and k times the color-1 string count.  c
depends on T only through its string count per (color, length) class and its
rigging sum, least on each class's smallest riggings; a dynamic program over
the counts chosen per color (prod(N_b + 1) states, N_b strings of color b; its
cells capped at 2^BOXBALL_SUBSET_CAP) minimizes exactly and builds the
whole table of tau_{k,a} once per StringSet (a cached property), which every
query, path reconstruction and Hirota-Miwa check then reads.  The same pass
gives the T_infinity update taubar too, so a lone tau query pays for both.

Also here: the corner ball-count rho of the carrier's T_infinity profile, the path
reconstruction from second differences of tau, and the ultradiscrete
Hirota-Miwa check relating tau before and after a T_infinity step.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from math import prod

from boxball.bbs import BBSState, encode_word, evolve
from boxball.bbs import evolve_takahashi  # noqa: F401  (perfbench/spans.py traces tau.evolve_takahashi)
from boxball.crystal import require_rank
from boxball.intmat import require_int, trusted
from boxball.kkr import RiggedConfiguration


def _subset_cap() -> int:
    return int(os.environ.get("BOXBALL_SUBSET_CAP", "20"))


@dataclass(frozen=True)
class StringSet:
    """A rigged configuration flattened to a multiset of (color, length, rigging)."""

    rank: int
    L: int
    strings: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        require_rank(self.rank)
        require_int("L", self.L, 0)
        for a, l, r in self.strings:
            require_int("string color", a)
            require_int("string length", l, 1)
            require_int("rigging", r)
            if not 1 <= a <= self.rank:
                raise ValueError("string color out of range")

    @classmethod
    def from_rc(cls, rc: RiggedConfiguration) -> "StringSet":
        flat = tuple(
            (a, j, r) for a in range(1, rc.rank + 1) for j, r in rc.color(a)
        )
        return trusted(cls, rank=rc.rank, L=rc.L, strings=flat)

    def to_rc(self) -> RiggedConfiguration:
        blocks = [[] for _ in range(self.rank)]
        for a, l, r in self.strings:
            blocks[a - 1].append((l, r))
        return RiggedConfiguration.make(self.L, self.rank, blocks)

    @cached_property
    def _table(self) -> "_TauTable":
        return _TauTable(self)


def cartan(a: int, b: int) -> int:
    return 2 if a == b else (-1 if abs(a - b) == 1 else 0)


def cocharge(strings) -> int:
    """c(T) = (1/2) sum_{s,t} C_{cl s, cl t} min(lg s, lg t) + sum rg(s), C_{aa} = 2."""
    strings = list(strings)
    return sum(l + r for _, l, r in strings) + sum(
        cartan(a1, a2) * min(l1, l2) for (a1, l1, _), (a2, l2, _) in combinations(strings, 2)
    )


class _TauTable:
    """For each color a and color-1 count m, the minimum of c(T) + lensum_a(T)
    (best[a][m]), and from it every tau_{k,a} (rows[k][a], k = 0..L, a = 0..n+1)
    and the taubar_{k,a} of the T_infinity update (bar_rows).

    With k_d strings of class d = (b, l), at best its k_d smallest riggings,
    c(T) = sum_d (l k_d^2 + prefix_d[k_d]) + sum_{c<d} k_c k_d C min(l_c, l_d).
    In descending length min(l_c, l_d) = l_d, so class d adds
    k_d l (2 K_b - K_{b-1} - K_{b+1}) in the counts K of each color chosen
    before it, and lensum_a adds l per color-a string.  taubar's objective adds
    lensum_1, as evolve_rc(., None) moves a color-1 rigging r of length j to r + j.
    One DP over (o, K): objective o = 0..2n is color o % (n+1) + 1, bar for o > n;
    taubar's a = n+1 is tau's a = 1, as lensum_{n+1} = 0.
    """

    def __init__(self, s: StringSet):
        n = s.rank
        classes: dict[tuple[int, int], list[int]] = {}
        radix = [2 * n + 1] + [1] * (n + 1)  # digits of a DP index: o, then K_b = 0..N_b
        for a, l, r in s.strings:
            classes.setdefault((a, l), []).append(r)
            radix[a] += 1
        stride = [prod(radix[:b]) for b in range(n + 3)]
        cells, cap = stride[n + 1] // radix[0] * len(classes), _subset_cap()
        if cells > 2**cap:
            raise ValueError(
                f"string set needs {cells} DP cells, over the cap 2^{cap}; "
                "set BOXBALL_SUBSET_CAP to raise it"
            )
        f = [0] * stride[n + 1]  # all objectives o; entries past done never feed reachable ones
        done = [0] * (n + 1)  # so far K_b <= done[b]
        for b, l in sorted(classes, key=lambda c: -c[1]):
            prefix = accumulate(sorted(classes[b, l]), initial=0)
            cost = [l * k * k + p for k, p in enumerate(prefix)]
            top, m, st, blk = done[b], len(cost) - 1, stride[b], stride[b + 1]
            # K_b leads each block of fixed K_{b+1}, ..., K_n; below it
            # w = [a = b] + [bar and b = 1] - K_{b-1}, and for b = 1 the index i is o alone
            below = stride[b - 1] if b > 1 else 0
            w = [
                (i % radix[0] % (n + 1) + 1 == b) + (b == 1 and i > n)
                - (below and i // below % radix[b - 1])
                for i in range(st)
            ]
            for base in range(0, sum(done[c] * stride[c] for c in range(b + 1, n + 1)) + 1, blk):
                up = base // blk % radix[b + 1]  # K_{b+1}
                lin = [l * (2 * j + x - up) for j in range(top + 1) for x in w]
                old = f[base : base + (top + 1) * st]
                new = old[:]
                for k in range(1, m + 1):  # k more strings of class (b, l)
                    step = [o + k * x + cost[k] for o, x in zip(old, lin)]
                    new[k * st :] = [*map(min, new[k * st :], step), *step[top * st :]]
                f[base : base + (top + m + 1) * st] = new
            done[b] += m
        v = [  # [o][m]
            [min(f[o + radix[0] * m :: stride[2]]) for m in range(radix[1])] for o in range(radix[0])
        ]
        self.best = [[None] * radix[1]] + v[: n + 1]  # [a][m]
        cols = [_column(x, s.L) for x in v]
        plain, bar = cols[: n + 1], cols[n + 1 :] + cols[:1]  # columns a = 1..n+1
        self.rows, self.bar_rows = (  # tau_{k,0} = tau_{k,n+1} - k
            [[r[-1] - k] + list(r) for k, r in enumerate(zip(*c))] for c in (plain, bar)
        )


def _column(v: list[int], L: int) -> list[int]:
    """max_m (k m - v[m]) for k = 0..L, read off the lower convex hull of v."""
    hull: list[int] = []
    for m, y in enumerate(v):
        while len(hull) > 1 and (  # drop a last vertex not strictly below the chord to m
            (v[hull[-1]] - v[hull[-2]]) * (m - hull[-1]) >= (y - v[hull[-1]]) * (hull[-1] - hull[-2])
        ):
            hull.pop()
        hull.append(m)
    col: list[int] = []
    for m, nxt in zip(hull, hull[1:] + [None]):  # m is optimal up to the next edge's slope
        hi = L if nxt is None else min(L, (v[nxt] - v[m]) // (nxt - m))
        col += [k * m - v[m] for k in range(len(col), hi + 1)]
    return col


def tau(s: StringSet, k: int, a: int) -> int:
    """tau_{k,a}(S) for 0 <= k <= L and 0 <= a <= n+1 (a=0 via tau_{k,n+1} - k)."""
    require_int("k", k)
    require_int("a", a)
    if not 0 <= k <= s.L:
        raise ValueError("k out of range")
    if not 0 <= a <= s.rank + 1:
        raise ValueError("color out of range")
    return s._table.rows[k][a]


def path_from_tau(s: StringSet) -> str:
    """Reconstruct the path word from second differences of tau.

    x_{k,a} = tau_{k,a} - tau_{k-1,a} - tau_{k,a-1} + tau_{k-1,a-1} must be a
    unit vector in a for every cell k; ValueError otherwise or on a letter above 9.
    """
    t = s._table.rows
    word = []
    for k in range(1, len(t)):
        letter = None
        for a in range(1, s.rank + 2):
            x = t[k][a] - t[k - 1][a] - t[k][a - 1] + t[k - 1][a - 1]
            if x not in (0, 1):
                raise ValueError(f"cell {k} color {a}: x = {x} is not a unit-vector entry")
            if x == 1:
                if letter is not None:
                    raise ValueError(f"cell {k}: two letters lit")
                letter = a
        if letter is None:
            raise ValueError(f"cell {k}: empty letter vector")
        word.append(letter)
    return encode_word(word)


def rho(state: BBSState | str, k: int, a: int, t: int = 0, rank: int | None = None) -> int:
    """Ball count in the SW quadrant with corner (k, t) of the T_infinity profile.

    Row t contributes letters 2..a at cells <= k; every later row contributes
    all its balls at cells <= k.  The sum is finite because supports drift
    right under T_infinity; bbs.evolve(., None) makes the rows on demand.
    """
    require_int("k", k)
    require_int("a", a)
    require_int("t", t, 0)
    if isinstance(state, str):
        state = BBSState.parse(state, rank=rank, origin=1)
    if not 0 <= a <= state.rank + 1:
        raise ValueError("color out of range")
    if a == 0:
        return rho(state, k, state.rank + 1, t) - k
    s, top, total = state, a, 0
    for _ in range(t):
        s = evolve(s, None)[0]
    while True:  # row t counts letters 2..a, every later row all its balls
        total += sum(2 <= c <= top for c in s.cells[: max(0, k + 1 - s.origin)])
        s, top = evolve(s, None)[0], state.rank + 1
        if not s.balls() or s.origin > k:  # evolve trims: origin is the first ball
            return total


def check_hirota(s: StringSet) -> bool:
    """Ultradiscrete Hirota-Miwa for tau and its T_infinity update taubar:

    taubar_{k,a-1} + tau_{k-1,a} = max(taubar_{k,a} + tau_{k-1,a-1},
                                       taubar_{k-1,a-1} + tau_{k,a} - 1)
    for 1 <= k <= L and 2 <= a <= n+1.
    """
    t, tbar = s._table.rows, s._table.bar_rows
    for k in range(1, len(t)):
        for a in range(2, s.rank + 2):
            lhs = tbar[k][a - 1] + t[k - 1][a]
            rhs = max(
                tbar[k][a] + t[k - 1][a - 1],
                tbar[k - 1][a - 1] + t[k][a] - 1,
            )
            if lhs != rhs:
                return False
    return True


def tau_table(s: StringSet) -> list[list[int]]:
    """tau_{k,a} for k = 0..L (rows) and a = 0..n+1 (columns)."""
    return [list(row) for row in s._table.rows]
