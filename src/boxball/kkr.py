"""Rigged configurations and the KKR bijection for sl(n+1), plus the
linearized inverse-scattering solver for the infinite box-ball system.

A rigged configuration stores, per color a in 1..n, a multiset of strings
(length j, rigging J).  Vacancies are always recomputed from the shape, never
stored.  The bijection phi maps highest paths to rigged configurations one
letter at a time; phi^{-1} inverts it.  Extended configurations (riggings
outside the [0, vacancy] window, arising from non-highest paths or long
evolutions) are carried by the same algorithms and flagged by is_valid().
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import inf


@dataclass(frozen=True)
class RiggedConfiguration:
    """(mu, J)_L: per color, a sorted tuple of (length, rigging) strings."""

    L: int
    rank: int
    strings: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if len(self.strings) != self.rank:
            raise ValueError("need one string multiset per color 1..rank")
        for block in self.strings:
            if any(j < 1 for j, _ in block):
                raise ValueError("string lengths must be >= 1")
            if list(block) != sorted(block):
                raise ValueError("strings must be sorted by (length, rigging)")

    @classmethod
    def make(cls, L: int, rank: int, strings) -> "RiggedConfiguration":
        return cls(L, rank, tuple(tuple(sorted(block)) for block in strings))

    def color(self, a: int) -> tuple[tuple[int, int], ...]:
        return self.strings[a - 1]

    def mu(self, a: int) -> tuple[int, ...]:
        """Partition mu^(a), weakly decreasing."""
        return tuple(sorted((j for j, _ in self.color(a)), reverse=True))

    @cached_property
    def _vacancies(self) -> "_Vacancies":
        return _Vacancies(self.L, [Counter(j for j, _ in block) for block in self.strings])

    def q(self, a: int, j: int) -> int:
        """Cells in the left j columns of mu^(a); q^(0) = L, q^(n+1) = 0."""
        return self._vacancies.q(a, j)

    def vacancy(self, a: int, j: int) -> int:
        """p^(a)_j = q^(a-1)_j - 2 q^(a)_j + q^(a+1)_j."""
        if not 1 <= a <= self.rank:
            raise ValueError("color out of range")
        if j < 1:
            raise ValueError("length must be >= 1")
        return self._vacancies[a, j]

    def is_valid(self) -> bool:
        """True iff every rigging sits in [0, vacancy] (a genuine rigged configuration)."""
        for a in range(1, self.rank + 1):
            for j, r in self.color(a):
                if not 0 <= r <= self.vacancy(a, j):
                    return False
        return True

    def weight(self) -> tuple[int, ...]:
        """lambda with |mu^(a)| = lambda_{a+1} + ... + lambda_{n+1}."""
        sizes = [self.L] + [sum(j for j, _ in self.color(a)) for a in range(1, self.rank + 1)] + [0]
        return tuple(sizes[a] - sizes[a + 1] for a in range(self.rank + 1))

    def to_json(self) -> str:
        return json.dumps(
            {
                "L": self.L,
                "n": self.rank,
                "strings": {str(a): [list(s) for s in self.color(a)] for a in range(1, self.rank + 1)},
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RiggedConfiguration":
        """Inverse of to_json; ValueError on any other structure."""
        d = json.loads(text)
        if not isinstance(d, dict) or set(d) != {"L", "n", "strings"}:
            raise ValueError('rigged configuration JSON needs exactly the keys "L", "n", "strings"')
        L, n, strings = d["L"], d["n"], d["strings"]
        if not (_is_int(L) and _is_int(n) and n >= 1 and isinstance(strings, dict)):
            raise ValueError('"L" and "n" must be integers, n >= 1, and "strings" an object')
        if set(strings) - {str(a) for a in range(1, n + 1)}:
            raise ValueError(f'"strings" keys must be colors 1..{n}')
        blocks = [strings.get(str(a), []) for a in range(1, n + 1)]
        if not all(
            isinstance(b, list)
            and all(isinstance(s, list) and len(s) == 2 and all(map(_is_int, s)) for s in b)
            for b in blocks
        ):
            raise ValueError("each color must hold a list of [length, rigging] integer pairs")
        return cls.make(L, n, [[tuple(s) for s in b] for b in blocks])


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class _Vacancies(dict):
    """p^(a)_j = q^(a-1)_j - 2 q^(a)_j + q^(a+1)_j memoised per key (a, j), for one
    L and the shape given by mults[a-1], color a's length -> multiplicity map."""

    def __init__(self, L: int, mults: list[dict[int, int]]):
        self.L, self.mults = L, mults

    def q(self, a: int, j: int) -> int:
        if a == 0:
            return self.L
        if a > len(self.mults):
            return 0
        return sum(min(j, k) * m for k, m in self.mults[a - 1].items())

    def __missing__(self, key: tuple[int, int]) -> int:
        a, j = key
        self[key] = p = self.q(a - 1, j) - 2 * self.q(a, j) + self.q(a + 1, j)
        return p


def _grow(mult: Counter, s: list[int], by: int) -> None:
    """Add by to string s's length and move it in mult (length 0 adds nothing to q)."""
    mult[s[0]] -= 1
    if not mult[s[0]]:
        del mult[s[0]]
    s[0] += by
    mult[s[0]] += 1


def _pick(block, vac: _Vacancies, c: int, lo, hi, best, rng):
    """A singular string of color c with lo <= length <= hi and the best (max or
    min) length among those; rng draws from the ties in block order."""
    cands = [s for s in block if lo <= s[0] <= hi and s[1] == vac[c, s[0]]]
    if not cands:
        return None
    best_len = best(s[0] for s in cands)
    pool = [s for s in cands if s[0] == best_len]
    return rng.choice(pool) if rng else pool[0]


def is_highest(word: str | tuple[int, ...], rank: int | None = None) -> bool:
    """Prefix letter-count dominance #1 >= #2 >= ... >= #(n+1) at every prefix."""
    letters = _letters(word)
    n1 = max(rank + 1 if rank is not None else 0, max(letters, default=1))
    counts = [0] * n1
    for a in letters:
        counts[a - 1] += 1
        if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
            return False
    return True


def _letters(word) -> list[int]:
    if isinstance(word, str):
        return [1 if ch == "." else int(ch) for ch in word]
    return list(word)


def kkr_phi(
    word, rank: int | None = None, check: bool = True, rng: random.Random | None = None
) -> RiggedConfiguration:
    """Direct KKR map phi: highest path -> rigged configuration.

    With check=False the same algorithm runs on arbitrary paths, producing an
    extended configuration (Remark-style; riggings may be negative).
    """
    letters = _letters(word)
    if rank is None:
        rank = max(max(letters, default=2), 2) - 1
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if letters and not 1 <= min(letters) <= max(letters) <= rank + 1:
        raise ValueError(f"letters must lie in 1..{rank + 1} for rank {rank}")
    if check and not is_highest(letters, rank):
        raise ValueError("path is not highest")
    blocks: list[list[list[int]]] = [[] for _ in range(rank)]  # per color: [length, rigging]
    mults = [Counter() for _ in range(rank)]
    L = 0
    for d in letters:
        L += 1
        if d == 1:
            continue
        # select, for colors d-1 down to 1, the longest singular string with
        # length bounded by the previous selection; a new string if none
        vac = _Vacancies(L - 1, mults)
        chosen: list[tuple[int, list[int]]] = []
        bound = inf
        for c in range(d - 1, 0, -1):
            s = _pick(blocks[c - 1], vac, c, 1, bound, max, rng)
            if s is None:
                s = [0, 0]
                blocks[c - 1].append(s)
            chosen.append((c, s))
            bound = s[0]
        for c, s in chosen:
            _grow(mults[c - 1], s, 1)
        # riggings of the touched strings become singular in the new configuration
        vac = _Vacancies(L, mults)
        for c, s in chosen:
            s[1] = vac[c, s[0]]
    return RiggedConfiguration.make(L, rank, [[tuple(s) for s in b] for b in blocks])


def kkr_phi_inv(rc: RiggedConfiguration, rng: random.Random | None = None) -> str:
    """Inverse KKR map phi^{-1}: rigged configuration -> path word."""
    rank = rc.rank
    blocks = [[list(s) for s in rc.color(a)] for a in range(1, rank + 1)]
    mults = [Counter(j for j, _ in block) for block in blocks]
    out = []
    L = rc.L
    while L > 0:
        vac = _Vacancies(L, mults)
        # a letter 1 changes nothing but L, so every color-1 vacancy drops by
        # one per 1: emit 1s until the first color-1 string turns singular
        slack = [vac[1, j] - r for j, r in blocks[0]]
        ones = min([x for x in slack if x >= 0] + [L])
        if ones:
            out.append("1" * ones)
            L -= ones
            continue
        chosen: list[tuple[int, list[int]]] = []
        bound = 1
        d = rank + 1
        for c in range(1, rank + 1):
            s = _pick(blocks[c - 1], vac, c, bound, inf, min, rng)
            if s is None:
                d = c
                break
            chosen.append((c, s))
            bound = s[0]
        out.append(str(d))
        L -= 1
        for c, s in chosen:
            _grow(mults[c - 1], s, -1)
            if s[0] == 0:
                blocks[c - 1].remove(s)
        vac = _Vacancies(L, mults)
        for c, s in chosen:
            if s[0] > 0:
                s[1] = vac[c, s[0]]
    if any(blocks):
        raise ValueError("strings left over; invalid rigged configuration")
    return "".join(reversed(out))


def evolve_rc(rc: RiggedConfiguration, l: int | None, steps: int = 1) -> RiggedConfiguration:
    """Linearized T_l on rigged configurations: color-1 riggings grow by min(l,j).

    The result can leave the valid window (extended configuration) when the
    corresponding path would overrun its window; it is returned flagged via
    is_valid(), not rejected.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    new1 = tuple(
        sorted((j, r + steps * (min(l, j) if l is not None else j)) for j, r in rc.color(1))
    )
    return RiggedConfiguration(rc.L, rc.rank, (new1,) + rc.strings[1:])


def solve_ivp(word: str, l: int | None, t: int) -> str:
    """T_l^t of a highest path via the rigged-configuration linearization.

    The window is padded on the right so the evolution never feels the
    boundary; the padded evolved word is returned (support included).
    """
    letters = _letters(word)
    rank = max(max(letters, default=2), 2) - 1
    balls = sum(1 for a in letters if a > 1)
    l_eff = l if l is not None else balls
    pad = t * l_eff + balls + 2
    padded = letters + [1] * pad
    rc = kkr_phi(padded, rank)
    rc2 = evolve_rc(rc, l, steps=t)
    return kkr_phi_inv(rc2)


def highest_paths(L: int, rank: int):
    """All highest words of length L over letters 1..rank+1 (prefix dominance)."""
    counts = [0] * (rank + 1)
    word: list[int] = []

    def rec(k):
        if k == L:
            yield "".join(str(a) for a in word)
            return
        for a in range(1, rank + 2):
            counts[a - 1] += 1
            ok = all(counts[i] >= counts[i + 1] for i in range(rank))
            if ok:
                word.append(a)
                yield from rec(k + 1)
                word.pop()
            counts[a - 1] -= 1

    yield from rec(0)


def enumerate_rcs(L: int, rank: int, weight: tuple[int, ...]):
    """All rigged configurations of the given weight (exhaustive, small scale)."""
    sizes = [sum(weight[a:]) for a in range(1, rank + 1)]  # |mu^(a)|

    def partitions(total, cap=None):
        cap = cap or total
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    def riggings_for(shape, vac):
        # weakly increasing riggings per block within [0, vacancy]
        blocks = {}
        for j in shape:
            blocks[j] = blocks.get(j, 0) + 1

        def rec(js):
            if not js:
                yield ()
                return
            j, m = js[0]
            p = vac(j)
            if p < 0:
                return

            def combos(m, lo):
                if m == 0:
                    yield ()
                    return
                for r in range(lo, p + 1):
                    for rest in combos(m - 1, r):
                        yield (r,) + rest

            for rig in combos(m, 0):
                for rest in rec(js[1:]):
                    yield tuple((j, r) for r in rig) + rest

        yield from rec(sorted(blocks.items()))

    def rec_shapes(a, shapes):
        if a > rank:
            yield tuple(shapes)
            return
        for mu in partitions(sizes[a - 1]):
            yield from rec_shapes(a + 1, shapes + [mu])

    for shapes in rec_shapes(1, []):
        probe = RiggedConfiguration.make(
            L, rank, [[(j, 0) for j in shape] for shape in shapes]
        )
        ok = True
        for a in range(1, rank + 1):
            for j in set(shapes[a - 1]):
                if probe.vacancy(a, j) < 0:
                    ok = False
        if not ok:
            continue

        def build(a, acc):
            if a > rank:
                yield RiggedConfiguration.make(L, rank, acc)
                return
            for rig in riggings_for(shapes[a - 1], lambda j, a=a: probe.vacancy(a, j)):
                yield from build(a + 1, acc + [rig])

        yield from build(1, [])
