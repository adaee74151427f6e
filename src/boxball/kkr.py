"""Rigged configurations and the KKR bijection for sl(n+1), plus the
linearized inverse-scattering solver for the infinite box-ball system.

A rigged configuration stores, per color a in 1..n, a multiset of strings
(length j, rigging J).  The bijection phi maps highest paths to rigged
configurations one letter at a time; phi^{-1} inverts it.  Both walk one
bucketed shape (_Shape): per color, the riggings of each length kept sorted
and the vacancy of each present length kept current in place.  A string
growing or shrinking by one shifts the stored vacancies above it in three
colors; a length seen for the first time gets its vacancy from the one
q-formula, which RiggedConfiguration.vacancy and through it
pbbs.ActionVariable also use.  A singular string of a given length is one
bisect away, so a letter costs time in the number of distinct lengths, not
of strings; a letter 1 costs O(1) in phi (it only lengthens the path), and a
run of 1s costs one scan in phi^{-1}.  Extended configurations (riggings
outside the [0, vacancy] window, arising from non-highest paths or long
evolutions) are carried by the same algorithms and flagged by is_valid().
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from math import inf

from boxball.bbs import capacity, decode_word, encode_word
from boxball.crystal import rank_of
from boxball.intmat import is_int, require_int


@dataclass(frozen=True)
class RiggedConfiguration:
    """(mu, J)_L: per color, a sorted tuple of (length, rigging) strings."""

    L: int
    rank: int
    strings: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("L must be >= 0")
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
    def _shape(self) -> "_Shape":
        return _Shape(self.L, self.rank, self.strings)

    def vacancy(self, a: int, j: int) -> int:
        """p^(a)_j = q^(a-1)_j - 2 q^(a)_j + q^(a+1)_j."""
        if not 1 <= a <= self.rank:
            raise ValueError("color out of range")
        if j < 1:
            raise ValueError("length must be >= 1")
        return self._shape.vacancy(a, j)

    def is_valid(self) -> bool:
        """True iff every rigging sits in [0, vacancy] (a genuine rigged configuration)."""
        for a in range(1, self.rank + 1):
            for j, r in self.color(a):
                if not 0 <= r <= self.vacancy(a, j):
                    return False
        return True

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
        if not (is_int(L) and is_int(n) and n >= 1 and isinstance(strings, dict)):
            raise ValueError('"L" and "n" must be integers, n >= 1, and "strings" an object')
        if set(strings) - {str(a) for a in range(1, n + 1)}:
            raise ValueError(f'"strings" keys must be colors 1..{n}')
        blocks = [strings.get(str(a), []) for a in range(1, n + 1)]
        if not all(
            isinstance(b, list)
            and all(isinstance(s, list) and len(s) == 2 and all(map(is_int, s)) for s in b)
            for b in blocks
        ):
            raise ValueError("each color must hold a list of [length, rigging] integer pairs")
        return cls.make(L, n, [[tuple(s) for s in b] for b in blocks])


class _Shape:
    """A (possibly extended) rigged configuration bucketed by (color, length),
    with the vacancy of every present length kept current in place.

    For each color a, rigs[a] maps a length to the sorted riggings of that
    length, lens[a] lists the present lengths in increasing order and vacs[a]
    maps each of them to its vacancy.  Colors 0 and rank + 1 are empty
    sentinels.  Color 1's vacancies are stored without their L term, which
    vacancy() adds back, so changing L costs nothing.
    """

    def __init__(self, L: int, rank: int, strings=()):
        self.L, self.rank = L, rank
        self.rigs: list[dict[int, list[int]]] = [{} for _ in range(rank + 2)]
        for a, block in enumerate(strings, 1):
            for j, r in block:  # sorted by (length, rigging)
                self.rigs[a].setdefault(j, []).append(r)
        self.lens = [sorted(rigs) for rigs in self.rigs]
        self.vacs = [{j: self._p(a, j) for j in rigs} for a, rigs in enumerate(self.rigs)]

    def _p(self, a: int, j: int) -> int:
        """p^(a)_j = q^(a-1)_j - 2 q^(a)_j + q^(a+1)_j, without color 1's L term;
        q^(b)_j = sum_k min(j, k) m^(b)_k, the cells in the left j columns of mu^(b)."""
        return sum(
            w * min(j, k) * len(rs)
            for b, w in ((a - 1, 1), (a, -2), (a + 1, 1))
            for k, rs in self.rigs[b].items()
        )

    def vacancy(self, a: int, j: int) -> int:
        p = self.vacs[a].get(j)
        if p is None:
            p = self._p(a, j)
        return p + self.L if a == 1 else p

    def singular(self, a: int, lo, hi, longest: bool) -> tuple[int, int] | None:
        """(length, rigging) of a singular color-a string (rigging equal to its
        vacancy) with lo <= length <= hi, the longest or the shortest such;
        None if there is none."""
        lens, vacs, rigs = self.lens[a], self.vacs[a], self.rigs[a]
        js = lens[bisect_left(lens, lo) : bisect_right(lens, hi)]
        off = self.L if a == 1 else 0
        for j in reversed(js) if longest else js:
            p, rs = vacs[j] + off, rigs[j]
            i = bisect_left(rs, p)
            if i < len(rs) and rs[i] == p:
                return j, p
        return None

    def ones_run(self) -> int:
        """How many letters 1 phi^{-1} emits before a color-1 string turns
        singular: each 1 lowers every color-1 vacancy by one."""
        L, vacs = self.L, self.vacs[1]
        run = L
        for j, rs in self.rigs[1].items():
            p = vacs[j] + L
            i = bisect_right(rs, p)
            if i and p - rs[i - 1] < run:
                run = p - rs[i - 1]
        return run

    def move(self, a: int, j: int, r: int, by: int) -> None:
        """Change the color-a string (j, r)'s length by by = +-1 (length 0 is
        no string).  q^(a)_k moves by by at every k > min(j, j + by), so the
        stored vacancies of colors a - 1, a, a + 1 there shift by by, -2 by, by."""
        rigs, lens, vacs = self.rigs[a], self.lens[a], self.vacs[a]
        if j:
            rs = rigs[j]
            if len(rs) == 1:
                del rigs[j], vacs[j], lens[bisect_left(lens, j)]
            else:
                rs.pop(bisect_left(rs, r))
        lo = j if by > 0 else j + by
        for b, w in ((a - 1, by), (a, -2 * by), (a + 1, by)):
            ks = self.lens[b]
            if ks:
                vb = self.vacs[b]
                for k in ks[bisect_right(ks, lo) :]:
                    vb[k] += w
        j += by
        if j in rigs:
            insort(rigs[j], r)
        elif j:
            rigs[j] = [r]
            insort(lens, j)
            vacs[j] = self._p(a, j)

    def rerig(self, a: int, j: int, r: int) -> None:
        """Make the color-a string (j, r) singular; length j must be present."""
        rs = self.rigs[a][j]
        rs.pop(bisect_left(rs, r))
        insort(rs, self.vacs[a][j] + self.L if a == 1 else self.vacs[a][j])

    def strings(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(
            tuple((j, r) for j in self.lens[a] for r in self.rigs[a][j])
            for a in range(1, self.rank + 1)
        )


def is_highest(word: str | tuple[int, ...], rank: int | None = None) -> bool:
    """Prefix letter-count dominance #1 >= #2 >= ... >= #(n+1) at every prefix.
    A letter a can only break the one inequality #(a-1) >= #a."""
    letters = _letters(word)
    if letters and min(letters) < 1:
        raise ValueError("letters must be >= 1")
    n1 = max(rank + 1 if rank is not None else 0, max(letters, default=1))
    counts = [0] * (n1 + 1)
    for a in letters:
        counts[a] += 1
        if a > 1 and counts[a - 1] < counts[a]:
            return False
    return True


def _letters(word) -> list[int]:
    return list(decode_word(word) if isinstance(word, str) else word)


def kkr_phi(word, rank: int | None = None, check: bool = True) -> RiggedConfiguration:
    """Direct KKR map phi: highest path -> rigged configuration.

    With check=False the same algorithm runs on arbitrary paths, producing an
    extended configuration (Remark-style; riggings may be negative).
    """
    letters = _letters(word)
    if rank is None:
        rank = rank_of(letters)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if letters and not 1 <= min(letters) <= max(letters) <= rank + 1:
        raise ValueError(f"letters must lie in 1..{rank + 1} for rank {rank}")
    if check and not is_highest(letters, rank):
        raise ValueError("path is not highest")
    shape = _Shape(0, rank)
    for d in letters:
        if d == 1:
            shape.L += 1
            continue
        # for colors d-1 down to 1, the longest singular string no longer than
        # the previous pick; once none is found, new strings (length 0 -> 1).
        # Every pick reads the shape before any string moves.
        picks = []
        bound = inf
        for c in range(d - 1, 0, -1):
            bound, r = shape.singular(c, 1, bound, longest=True) or (0, 0)
            picks.append((c, bound, r))
        shape.L += 1
        for c, j, r in picks:
            shape.move(c, j, r, 1)
        # the grown strings become singular in the new configuration
        for c, j, r in picks:
            shape.rerig(c, j + 1, r)
    return RiggedConfiguration(shape.L, rank, shape.strings())


def kkr_phi_inv(rc: RiggedConfiguration) -> str:
    """Inverse KKR map phi^{-1}: rigged configuration -> path word."""
    shape = _Shape(rc.L, rc.rank, rc.strings)
    out = []  # the letters, last first
    while shape.L > 0:
        ones = shape.ones_run()
        if ones:
            out += [1] * ones
            shape.L -= ones
            continue
        # for colors 1, 2, ..., the shortest singular string no shorter than
        # the previous pick; the letter is one more than the number picked
        picks = []
        bound = 1
        for c in range(1, rc.rank + 1):
            s = shape.singular(c, bound, inf, longest=False)
            if s is None:
                break
            picks.append((c, *s))
            bound = s[0]
        out.append(len(picks) + 1)
        shape.L -= 1
        for c, j, r in picks:
            shape.move(c, j, r, -1)
        for c, j, r in picks:
            if j > 1:
                shape.rerig(c, j - 1, r)
    if any(shape.rigs):
        raise ValueError("strings left over; invalid rigged configuration")
    return encode_word(out[::-1])


def evolve_rc(rc: RiggedConfiguration, l: int | None, steps: int = 1) -> RiggedConfiguration:
    """Linearized T_l on rigged configurations: color-1 riggings grow by min(l,j).

    The result can leave the valid window (extended configuration) when the
    corresponding path would overrun its window; it is returned flagged via
    is_valid(), not rejected.
    """
    l = capacity(l, sum(j for j, _ in rc.color(1)))
    require_int("steps", steps)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    new1 = tuple(sorted((j, r + steps * min(l, j)) for j, r in rc.color(1)))
    return RiggedConfiguration(rc.L, rc.rank, (new1,) + rc.strings[1:])


def solve_ivp(word: str, l: int | None, t: int) -> str:
    """T_l^t of a highest path via the rigged-configuration linearization.

    The window is padded on the right so the evolution never feels the
    boundary; the padded evolved word is returned (support included).  phi
    reads a letter 1 as L += 1 alone, so phi of the padded word is phi of the
    word with L raised by the padding.
    """
    letters = _letters(word)
    rank = rank_of(letters)
    balls = len(letters) - letters.count(1)
    rc = evolve_rc(kkr_phi(letters, rank), l, steps=t)
    pad = t * capacity(l, balls) + balls + 2
    return kkr_phi_inv(RiggedConfiguration(rc.L + pad, rank, rc.strings))


def highest_paths(L: int, rank: int):
    """All highest words of length L over letters 1..rank+1 (prefix dominance).
    ValueError when one would hold a letter above 9 (rank >= 9 and L >= 10)."""
    encode_word([min(L, rank + 1)])  # the largest letter a highest word can hold, checked up front
    counts = [0] * (rank + 1)
    word: list[int] = []

    def rec(k):
        if k == L:
            yield encode_word(word)
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
