"""Rigged configurations and the KKR bijection for sl(n+1), plus the
linearized inverse-scattering solver for the infinite box-ball system.

A rigged configuration stores, per color a in 1..n, a multiset of strings
(length j, rigging J).  The bijection phi maps highest paths to rigged
configurations one letter at a time; phi^{-1} inverts it.  Both walk one
shape (_Shape) held as three index-aligned lists per color: lens (the
present lengths, ascending), vacs (the vacancy of each, color 1's without
its L term) and rigs (the riggings of each, sorted).  Every vacancy is read
from one function, q_sum (q_j = sum_k min(j, k) m_k), which
pbbs.ActionVariable, the slide shifts of the angle variables and
troptoda.spectral_data also call.  The shape's vacancies are kept current
in place: a string growing or shrinking by one shifts the stored vacancies
above it in three colors, skipping a neighbour with no length above the
move, and a length seen for the first time gets its vacancy from q_sum.
phi and phi^{-1} look for singular strings (rigging equal to the vacancy)
inline in their letter loops.  phi never leaves a rigging above its
vacancy, so a length holds a singular string exactly when its top rigging
equals the vacancy; phi^{-1} tests the top rigging first and bisects only
when it lies above the vacancy (an extended configuration).  So a letter
costs time in the number of distinct lengths, not of strings; a letter 1
costs O(1) in phi (it only lengthens the path), and a run of 1s costs one
scan in phi^{-1}.  Extended configurations (riggings outside the
[0, vacancy] window, arising from non-highest paths or long evolutions)
are carried by the same algorithms and flagged by is_valid().

kkr_phi and kkr_phi_inv check their input (a path's letters through
bbs.letters, in 1..rank+1 once a rank is given) and wrap the letter loops _phi
(letters -> shape and L) and _phi_inv (shape and L -> word).  solve_ivp
decodes its word once and hands the shape phi builds through T_l straight
into phi^{-1}: T_l only adds t min(l, j) to the color-1 riggings of length
j, in place, and no RiggedConfiguration is built in between.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from math import inf

from boxball.bbs import capacity, encode_word, letters
from boxball.crystal import rank_of, require_rank
from boxball.intmat import is_int, require_int, trusted


@dataclass(frozen=True)
class RiggedConfiguration:
    """(mu, J)_L: per color, a sorted tuple of (length, rigging) strings."""

    L: int
    rank: int
    strings: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        require_int("L", self.L, 0)
        require_rank(self.rank)
        object.__setattr__(self, "strings", tuple(tuple(map(tuple, block)) for block in self.strings))
        if len(self.strings) != self.rank:
            raise ValueError("need one string multiset per color 1..rank")
        for block in self.strings:
            # one pass per block: int entries, lengths >= 1, sorted order
            lj, lr = 1, -inf
            for j, r in block:
                if type(j) is not int or type(r) is not int:  # int subclasses: is_int decides
                    require_int("a string length", j)
                    require_int("a rigging", r)
                if j < lj or j == lj and r < lr:
                    if j < 1:
                        raise ValueError("string lengths must be >= 1")
                    raise ValueError("strings must be sorted by (length, rigging)")
                lj, lr = j, r

    @classmethod
    def make(cls, L: int, rank: int, strings) -> "RiggedConfiguration":
        return cls(L, rank, [sorted(block) for block in strings])

    def _check_color(self, a: int) -> None:
        """ValueError unless a is an int color in 1..rank."""
        require_int("color", a)
        if not 1 <= a <= self.rank:
            raise ValueError("color out of range")

    def color(self, a: int) -> tuple[tuple[int, int], ...]:
        self._check_color(a)
        return self.strings[a - 1]

    def mu(self, a: int) -> tuple[int, ...]:
        """Partition mu^(a), weakly decreasing."""
        return tuple(sorted((j for j, _ in self.color(a)), reverse=True))

    @cached_property
    def _shape(self) -> "_Shape":
        return _Shape(self.rank, self.strings)

    def vacancy(self, a: int, j: int) -> int:
        """p^(a)_j = q^(a-1)_j - 2 q^(a)_j + q^(a+1)_j."""
        self._check_color(a)
        require_int("length", j, 1)
        p = self._shape.vacancy(a, j)
        return p + self.L if a == 1 else p

    def vacancies(self, a: int) -> tuple[int, ...]:
        """The vacancy of each distinct color-a length, lengths ascending."""
        self._check_color(a)
        off = self.L if a == 1 else 0
        return tuple(p + off for p in self._shape.vacs[a])

    def is_valid(self) -> bool:
        """True iff every rigging sits in [0, vacancy] (a genuine rigged configuration)."""
        shape = self._shape
        return all(
            rs[0] >= 0 and rs[-1] <= p + (self.L if a == 1 else 0)
            for a in range(1, self.rank + 1)
            for p, rs in zip(shape.vacs[a], shape.rigs[a])
        )

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
        return cls.make(L, n, blocks)


def q_sum(ks, ms, j):
    """q_j = sum_k min(j, k) m_k over lengths ks (any order) with multiplicities
    ms: the cells in the left j columns of the partition.  Every vacancy is
    read from it: p^(a)_j = q^(a-1)_j - 2 q^(a)_j + q^(a+1)_j (plus L for
    color 1).  Exact for ints and Fractions alike."""
    q = 0
    for k, m in zip(ks, ms):
        q += (k if k < j else j) * m
    return q


class _Shape:
    """A (possibly extended) rigged configuration as three index-aligned lists
    per color, with the vacancy of every present length kept current in place.

    For each color a, lens[a] lists the present lengths in increasing order,
    vacs[a][i] is the vacancy of length lens[a][i] and rigs[a][i] its sorted
    riggings.  Colors 0 and rank + 1 are empty sentinels.  Color 1's
    vacancies are stored without their L term, which the reader adds, so
    changing L costs nothing.
    """

    def __init__(self, rank: int, strings=()):
        self.rank = rank
        self.lens: list[list[int]] = [[] for _ in range(rank + 2)]
        self.rigs: list[list[list[int]]] = [[] for _ in range(rank + 2)]
        for ks, rigs, block in zip(self.lens[1:], self.rigs[1:], strings):
            for j, r in block:  # sorted by (length, rigging)
                if ks and ks[-1] == j:
                    rigs[-1].append(r)
                else:
                    ks.append(j)
                    rigs.append([r])
        # O(n^2) in a color's n <= sqrt(2 L) distinct lengths, so O(L)
        self.vacs = [[self._p(a, j) for j in self.lens[a]] for a in range(rank + 2)]

    def _p(self, a: int, j: int) -> int:
        """p^(a)_j = q^(a-1)_j - 2 q^(a)_j + q^(a+1)_j, without color 1's L term;
        a neighbour color with no strings adds nothing."""
        lens, rigs = self.lens, self.rigs
        p = -2 * q_sum(lens[a], map(len, rigs[a]), j)
        for b in (a - 1, a + 1):
            if lens[b]:
                p += q_sum(lens[b], map(len, rigs[b]), j)
        return p

    def vacancy(self, a: int, j: int) -> int:
        """p^(a)_j, without color 1's L term."""
        ks = self.lens[a]
        i = bisect_left(ks, j)
        return self.vacs[a][i] if i < len(ks) and ks[i] == j else self._p(a, j)

    def move(self, a: int, i: int, r: int, by: int, lift: int) -> None:
        """Change the length of the color-a string with rigging r in bucket i
        (i = -1: a new string of length 0) by by = +-1; a string left at
        length 0 is gone.  q^(a)_k moves by by at every k > min(j, j + by), so
        the stored vacancies of colors a - 1, a, a + 1 there shift by by,
        -2 by, by.  The string enters its new bucket singular: its rigging is
        the bucket's vacancy plus lift, which the caller sets to what the L
        term and the later moves of the same letter add to that vacancy."""
        lens, vacs = self.lens, self.vacs
        ks, vs, rigs = lens[a], vacs[a], self.rigs[a]
        if i < 0:
            j, t = 0, 0
        else:
            j, rs = ks[i], rigs[i]
            t = i + 1
            if len(rs) == 1:
                del ks[i], vs[i], rigs[i]
                t = i
            elif rs[-1] == r:  # a singular string is the top one unless riggings exceed vacancies
                rs.pop()
            else:
                del rs[bisect_left(rs, r)]
        # color a's lengths above lo = min(j, j + by) start at t when growing,
        # at i when shrinking
        w = -2 * by
        for s in range(t if by > 0 else i, len(ks)):
            vs[s] += w
        lo = j if by > 0 else j + by
        for b in (a - 1, a + 1):
            kb = lens[b]
            if kb and kb[-1] > lo:  # a color with no length above lo keeps its vacancies
                vb = vacs[b]
                for s in range(bisect_right(kb, lo), len(kb)):
                    vb[s] += by
        j += by
        if not j:
            return
        if by < 0:
            t = i - 1 if i and ks[i - 1] == j else i
        # length j sits at t, or its bucket is inserted there
        if t < len(ks) and ks[t] == j:
            insort(rigs[t], vs[t] + lift)
        else:
            ks.insert(t, j)
            rigs.insert(t, [0])  # the multiplicity _p reads
            p = self._p(a, j)
            vs.insert(t, p)
            rigs[t][0] = p + lift

    def strings(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(
            tuple((j, r) for j, rs in zip(ks, rigs) for r in rs)
            for ks, rigs in zip(self.lens[1 : self.rank + 1], self.rigs[1 : self.rank + 1])
        )


def is_highest(word: str | tuple[int, ...], rank: int | None = None) -> bool:
    """Prefix letter-count dominance #1 >= #2 >= ... >= #(n+1) at every prefix."""
    return _highest(_path(word, rank, False)[0])


def _highest(path: bytes | tuple[int, ...]) -> bool:
    """is_highest of checked letters.  A letter a can only break the one
    inequality #(a-1) >= #a."""
    counts = [0] * (max(path, default=1) + 1)
    for a in path:
        counts[a] += 1
        if a > 1 and counts[a - 1] < counts[a]:
            return False
    return True


def _path(word, rank: int | None, check: bool) -> tuple[bytes | tuple[int, ...], int]:
    """(letters, rank) of a path for phi (bbs.letters): the rank defaults to
    the word's, and every letter must lie in 1..rank+1; with check, the path
    must be highest."""
    if rank is None:
        path = letters(word, None)
        rank = rank_of(path)
    else:
        require_rank(rank)
        path = letters(word, rank + 1)
    if check and not _highest(path):
        raise ValueError("path is not highest")
    return path, rank


def kkr_phi(word, rank: int | None = None, check: bool = True) -> RiggedConfiguration:
    """Direct KKR map phi: highest path -> rigged configuration.

    With check=False the same algorithm runs on arbitrary paths, producing an
    extended configuration (Remark-style; riggings may be negative).
    """
    path, rank = _path(word, rank, check)
    shape, L = _phi(path, rank)
    # the shape lists its lengths ascending and each length's riggings sorted
    return trusted(RiggedConfiguration, L=L, rank=rank, strings=shape.strings())


def _phi(path: bytes | tuple[int, ...], rank: int) -> tuple[_Shape, int]:
    """phi of checked letters 1..rank+1: the shape it builds and its L."""
    shape = _Shape(rank)
    lens, vacs, rigs = shape.lens, shape.vacs, shape.rigs
    L = 0
    for d in path:
        if d == 1:
            L += 1
            continue
        # for colors d-1 down to 1, the longest singular string no longer than
        # the previous pick; once none is found, new strings (length 0 -> 1).
        # Every pick reads the shape before any string moves.  phi keeps every
        # rigging at or below its vacancy: above a color-c pick j_c the letter
        # takes 2 from the vacancies and gives 1 back through color c - 1's
        # move (or L), and 1 more through color c + 1's above its pick; a
        # string in between was a candidate, so not singular.  So the top
        # rigging of a length decides.
        picks = []
        bound = inf
        for c in range(d - 1, 0, -1):
            ks, vs, rs_c = lens[c], vacs[c], rigs[c]
            off = L if c == 1 else 0
            i = bisect_right(ks, bound)
            while i:
                i -= 1
                p = vs[i] + off
                if rs_c[i][-1] == p:
                    picks.append((c, i, p))
                    bound = ks[i]
                    break
            else:
                picks.append((c, -1, 0))
                bound = 0
        L += 1
        # the grown strings enter singular in the new configuration; the move
        # of color c - 1, which comes next, lifts color c's vacancies above
        # its pick, and so above color c's new length, by one
        for c, i, r in picks:
            shape.move(c, i, r, 1, L if c == 1 else 1)
    return shape, L


def kkr_phi_inv(rc: RiggedConfiguration) -> str:
    """Inverse KKR map phi^{-1}: rigged configuration -> path word."""
    return _phi_inv(_Shape(rc.rank, rc.strings), rc.L)


def _phi_inv(shape: _Shape, L: int) -> str:
    """phi^{-1} of the configuration held by shape with L; it empties shape."""
    lens, vacs, rigs = shape.lens, shape.vacs, shape.rigs
    out = []  # the letters, last first
    while L > 0:
        # how many letters 1 come before a color-1 string turns singular: each
        # 1 lowers every color-1 vacancy by one, so riggings above it never do.
        # The first length with no 1 to come (slack 0) is the shortest singular one.
        ones = L
        for i, (p, rs) in enumerate(zip(vacs[1], rigs[1])):
            p += L
            top = rs[-1]
            if top > p:
                j = bisect_right(rs, p)
                if not j:
                    continue
                top = rs[j - 1]
            if p - top < ones:
                ones = p - top
                if not ones:
                    break
        if ones:
            out += [1] * ones
            L -= ones
            continue
        # that length is color 1's pick; for colors 2, 3, ..., the shortest
        # singular string no shorter than the previous pick; the letter is one
        # more than the number picked
        picks = [(1, i, p)]
        bound = lens[1][i]
        for c in range(2, shape.rank + 1):
            ks, vs, rs_c = lens[c], vacs[c], rigs[c]
            for i in range(bisect_left(ks, bound), len(ks)):
                p, rs = vs[i], rs_c[i]
                if rs[-1] == p or rs[-1] > p and rs[bisect_left(rs, p)] == p:
                    picks.append((c, i, p))
                    bound = ks[i]
                    break
            else:
                break
        out.append(len(picks) + 1)
        L -= 1
        # the shortened strings enter singular in the new configuration; the
        # later moves, of picks no shorter, leave color c's new length alone
        for c, i, r in picks:
            shape.move(c, i, r, -1, L if c == 1 else 0)
    if any(rigs):
        raise ValueError("strings left over; invalid rigged configuration")
    return encode_word(out[::-1])


def _linear_capacity(l: int | None, balls: int, steps: int) -> int:
    """The capacity of T_l on a configuration of `balls` color-1 cells, once
    l and the step count are checked."""
    l = capacity(l, balls)
    require_int("steps", steps, 0)
    return l


def evolve_rc(rc: RiggedConfiguration, l: int | None, steps: int = 1) -> RiggedConfiguration:
    """Linearized T_l on rigged configurations: color-1 riggings grow by min(l,j).

    The result can leave the valid window (extended configuration) when the
    corresponding path would overrun its window; it is returned flagged via
    is_valid(), not rejected.
    """
    l = _linear_capacity(l, sum(j for j, _ in rc.color(1)), steps)
    # riggings of one length move together, so the (length, rigging) order holds
    new1 = tuple((j, r + steps * min(l, j)) for j, r in rc.color(1))
    return trusted(RiggedConfiguration, L=rc.L, rank=rc.rank, strings=(new1,) + rc.strings[1:])


def solve_ivp(word: str, l: int | None, t: int) -> str:
    """T_l^t of a highest path via the rigged-configuration linearization.

    The window is padded on the right so the evolution never feels the
    boundary; the padded evolved word is returned (support included).  phi
    reads a letter 1 as L += 1 alone, so phi of the padded word is phi of the
    word with L raised by the padding.  The shape phi builds goes through T_l
    as it is: each color-1 length's riggings move by t min(l, j) in place
    (their order holds, and color 1's vacancies are stored without L) before
    phi^{-1} runs on it.
    """
    path, rank = _path(word, None, True)
    balls = len(path) - path.count(1)
    l = _linear_capacity(l, balls, t)
    shape, L = _phi(path, rank)
    for j, rs in zip(shape.lens[1], shape.rigs[1]):
        d = t * min(l, j)
        rs[:] = [r + d for r in rs]
    return _phi_inv(shape, L + t * l + balls + 2)


def highest_paths(L: int, rank: int):
    """All highest words of length L over letters 1..rank+1 (prefix dominance),
    in lexicographic order, by a depth-first walk with the prefix as its stack.
    ValueError when one would hold a letter above 9 (rank >= 9 and L >= 10)."""
    require_int("L", L, 0)
    require_rank(rank)
    encode_word([min(L, rank + 1)])  # the largest letter a highest word can hold, checked up front
    counts = [0] * (rank + 2)  # counts[a]: the letters a in the prefix
    word: list[int] = []
    a = 1  # the least letter still to try after the prefix
    while True:
        if len(word) == L:
            yield encode_word(word)
            a = rank + 2
        while 1 < a <= rank + 1 and counts[a - 1] <= counts[a]:  # a new a can only break #(a-1) >= #a
            a += 1
        if a <= rank + 1:
            counts[a] += 1
            word.append(a)
            a = 1
        elif word:
            a = word.pop()
            counts[a] -= 1
            a += 1
        else:
            return
