"""Infinite sl(n+1) box-ball system: states, carrier evolutions, conserved
energies, soliton content, scattering and the conserved P-symbol.

A state is a finite window of letters inside an infinite sea of 1s (empty
boxes).  An evolution runs the carrier across the window only: past it the
carrier meets empty boxes, so it winds, scoring nothing, and unloads its ball
letters largest first; that tail is read off its exit load.  Every layer
reads and writes words, one character per letter ('.' or '1' for 1, the ASCII
digits 2-9), through decode_word and encode_word, and reads a capacity l, an
int >= 0 or None for T_infinity, through capacity.  letters is the one letter
rule of box-ball states, KKR paths and periodic states alike: a word is text
(decode_word) or a sequence of exact ints, its letters in 1..top.  Soliton
labels are words too: scatter_two decodes them with decode_word and writes
them with encode_word.  The rank of a word is crystal.rank_of, and
crystal.require_rank checks a rank given.

The BBSState constructor checks what it is given: a rank, an int origin and
cells that letters reads in 1..rank+1, stored as a tuple (text is refused:
it enters through parse).  The states this module builds from states already
valid skip that check (intmat.trusted): the result of evolve and the
windows trimmed() cuts, and trimmed() returns a state already trimmed as it
is.  parse strips the vacuum off the decoded bytes and builds one checked
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from boxball.crystal import CrystalElement, comb_R, rank_of, require_rank
from boxball.intmat import exact, is_int, require_int, trusted

_WORD_CHARS = b".123456789"
_DECODE = bytes.maketrans(_WORD_CHARS, bytes((1, 1, 2, 3, 4, 5, 6, 7, 8, 9)))
_ENCODE_ONE = bytes.maketrans(bytes(range(1, 10)), b"123456789")
_ENCODE_DOT = bytes.maketrans(bytes(range(1, 10)), b".23456789")


def decode_word(text: str) -> bytes:
    """The letters of a word, one byte each ('.' and '1' are 1), in two C-level
    passes; ValueError unless every character is '.' or an ASCII digit 1-9."""
    raw = text.encode("ascii", "replace")
    if raw.translate(None, _WORD_CHARS):
        raise ValueError(f"letters must lie in 1..9, one character each ('.' or 1-9): {text!r}")
    return raw.translate(_DECODE)


def encode_word(letters, one: str = "1") -> str:
    """The word of letters 1-9, one character each, letter 1 written as one
    ('1' or '.'); the inverse of decode_word.  ValueError on a letter above 9."""
    if max(letters, default=1) > 9:
        raise ValueError("a letter above 9 has no one-character form")
    return bytes(letters).translate(_ENCODE_DOT if one == "." else _ENCODE_ONE).decode()


def letters(word, top: int | None):
    """The letters of a word in 1..top (no upper bound when top is None): text
    through decode_word, as bytes; any other sequence as a tuple of exact ints
    (type int, so no bool, float or int subclass).  ValueError otherwise."""
    cells = decode_word(word) if isinstance(word, str) else tuple(word)
    if cells and not (
        (type(cells) is bytes or {int}.issuperset(map(type, cells)))  # bytes: text, decoded
        and min(cells) >= 1
        and (top is None or max(cells) <= top)
    ):
        bad = next(a for a in cells if type(a) is not int or a < 1 or top is not None and a > top)
        got = repr(bad) if type(bad) is int else f"{bad!r} of type {type(bad).__name__}"
        raise ValueError(f"letters must lie in 1..{'inf' if top is None else top}, each an int, got {got}")
    return cells


def capacity(l: int | None, balls: int) -> int:
    """The capacity of T_l: l, or balls when l is None (T_infinity: a carrier
    that holds every ball); ValueError unless l is a non-bool int >= 0."""
    if l is None:
        return balls
    if not is_int(l) or l < 0:
        raise ValueError(f"capacity l must be >= 0 and an int, got {l!r}")
    return l


@dataclass(frozen=True)
class BBSState:
    """Window of letters 1..n+1 with its left-edge coordinate; 1s outside."""

    rank: int
    cells: tuple[int, ...]
    origin: int = 0

    def __post_init__(self):
        require_rank(self.rank)
        require_int("origin", self.origin)
        # tuple() first, so text is refused cell by cell: it enters through parse
        object.__setattr__(self, "cells", letters(tuple(self.cells), self.rank + 1))

    @classmethod
    def parse(cls, text: str, rank: int | None = None, origin: int = 0) -> "BBSState":
        """The trimmed state of a word whose first letter sits at origin; an
        all-vacuum word keeps origin."""
        raw = decode_word(text)
        cells = raw.lstrip(b"\x01")
        if cells and is_int(origin):  # a bad origin is the constructor's to refuse
            origin += len(raw) - len(cells)
        return cls(rank_of(raw) if rank is None else rank, cells.rstrip(b"\x01"), origin)

    def render(self, left: int | None = None, right: int | None = None) -> str:
        """Dot notation over [left, right); defaults to the support window.
        ValueError on a letter above 9."""
        if left is None:
            left = self.origin
        if right is None:
            right = self.origin + len(self.cells)
        require_int("left", left)
        require_int("right", right)
        return encode_word([self.cell(pos) for pos in range(left, right)], ".")

    def cell(self, pos: int) -> int:
        require_int("position", pos)
        i = pos - self.origin
        if 0 <= i < len(self.cells):
            return self.cells[i]
        return 1

    def trimmed(self) -> "BBSState":
        """Shrink the window to the support (an all-vacuum state keeps its
        origin); a state already trimmed is returned as it is."""
        cells, origin = self.cells, self.origin
        if not cells or cells[0] != 1 and cells[-1] != 1:
            return self
        lo = 0
        while lo < len(cells) and cells[lo] == 1:
            lo += 1
        if lo == len(cells):
            return trusted(BBSState, rank=self.rank, cells=(), origin=origin)
        hi = len(cells)
        while cells[hi - 1] == 1:
            hi -= 1
        return trusted(BBSState, rank=self.rank, cells=cells[lo:hi], origin=origin + lo)

    def balls(self) -> int:
        return len(self.cells) - self.cells.count(1)

    def support(self) -> tuple[int, int]:
        """[leftmost, rightmost] ball positions; (origin, origin) when vacuum."""
        s = self.trimmed()
        if not s.cells:
            return (s.origin, s.origin)
        return (s.origin, s.origin + len(s.cells) - 1)


def carrier_pass(cells, carrier: list[int], rank: int) -> tuple[list[int], int]:
    """Run a carrier across the boxes: the row transfer matrix of R on B_l x B_1.

    carrier[a] counts the carrier's letters a (1..rank+1, l > 0 in all) and is
    mutated into the exit load; carrier[0] = 1 is a constant that ends the
    downward scan.  At box b the carrier emits its largest letter below b
    (unwinding, energy +1), or else its largest letter (winding), then takes b.
    Returns (emitted letters, energy).
    """
    out = []
    emit = out.append
    energy = 0
    top = rank + 1
    for b in cells:
        a = b - 1
        while not carrier[a]:
            a -= 1
        if a:
            energy += 1
        else:
            a = top
            while not carrier[a]:
                a -= 1
        carrier[a] -= 1
        carrier[b] += 1
        emit(a)
    return out, energy


def evolve(state: BBSState, l: int | None = None) -> tuple[BBSState, int]:
    """Apply T_l (T_infinity when l is None, the identity when l = 0); return (state, E_l).

    The carrier crosses the window only.  Fed an empty box, it winds (its
    downward scan stops at carrier[0] = 1) and emits its largest letter, so
    past the window it emits its ball letters in descending order and scores
    nothing: that tail is written from the exit load, in O(rank) steps.
    """
    n = state.rank
    s = state.trimmed()
    balls = s.balls()
    l = capacity(l, balls)
    if balls == 0 or l == 0:
        return s, 0
    carrier = [1, l] + [0] * n
    out, energy = carrier_pass(s.cells, carrier, n)
    for a in range(n + 1, 1, -1):
        out += [a] * carrier[a]
    return trusted(BBSState, rank=n, cells=tuple(out), origin=s.origin).trimmed(), energy


def evolve_takahashi(state: BBSState) -> BBSState:
    """T_infinity by the ball-moving algorithm: K_{n+1}, ..., K_2 in turn.

    K_a moves every letter-a ball, leftmost first, to its nearest empty box
    on the right, each exactly once.
    """
    s = state.trimmed()
    if s.balls() == 0:
        return s
    pad = s.balls() + 2
    cells = list(s.cells) + [1] * pad
    for a in range(s.rank + 1, 1, -1):
        positions = [i for i, c in enumerate(cells) if c == a]
        for i in positions:
            j = i + 1
            while cells[j] != 1:
                j += 1
                if j == len(cells):
                    cells.append(1)
            cells[i] = 1
            cells[j] = a
    return BBSState(s.rank, cells, s.origin).trimmed()


def energies(state: BBSState, l_max: int) -> list[int]:
    """[E_1, ..., E_l_max]; weakly increasing, stabilizing at the ball count."""
    require_int("l_max", l_max, 0)
    return [evolve(state, l)[1] for l in range(1, l_max + 1)]


def soliton_content(state: BBSState) -> dict[int, int]:
    """Multiset of soliton amplitudes: m_l = -E_{l-1} + 2E_l - E_{l+1}."""
    balls = state.balls()
    if balls == 0:
        return {}
    E = [0] + energies(state, balls + 1)
    out = {}
    for l in range(1, balls + 1):
        m = -E[l - 1] + 2 * E[l] - E[l + 1]
        if m < 0:
            raise ValueError(f"negative soliton count m_{l} = {m}")
        if m:
            out[l] = m
    if sum(l * m for l, m in out.items()) != balls:
        raise ValueError("soliton content does not account for every ball")
    return out


def solitons(state: BBSState) -> list[tuple[int, str]]:
    """(position, label) of each soliton, left to right.

    Defined only when every maximal nontrivial run is weakly decreasing and
    the vacuum gap after a run exceeds that run's length (the asymptotic
    regime); raises ValueError otherwise.
    """
    s = state.trimmed()
    # trimmed, so the runs alternate nontrivial, vacuum gap, ..., nontrivial
    runs = [tuple(run) for _, run in groupby(s.cells, key=lambda c: c != 1)]
    out = []
    pos = s.origin
    for k, run in enumerate(runs):
        if k % 2 == 0:
            label = encode_word(run)
            if any(run[t] < run[t + 1] for t in range(len(run) - 1)):
                raise ValueError("run is not weakly decreasing; no canonical solitons")
            if k + 1 < len(runs) and len(runs[k + 1]) <= len(run):
                raise ValueError("solitons too close; no canonical decomposition")
            out.append((pos, label))
        pos += len(run)
    return out


def scatter_two(big: str, small: str) -> tuple[str, str, int]:
    """Two-body scattering (R-matrix rule): returns (small', big', delta).

    Labels are weakly decreasing words (decode_word) over letters >= 2; the
    exchange is the combinatorial R one rank down, letter a + 1 of a label
    being letter a of a crystal element, and the phase shift is
    delta = H + len(small).
    """
    labels = [decode_word(w) for w in (big, small)]
    for w, letters in zip((big, small), labels):
        if not letters or min(letters) < 2:
            raise ValueError(f"invalid soliton label {w!r}")
        if any(a < b for a, b in zip(letters, letters[1:])):
            raise ValueError(f"label must be weakly decreasing: {w!r}")
    if len(big) <= len(small):
        raise ValueError("need len(big) > len(small)")
    rank = rank_of([a - 1 for a in labels[0] + labels[1]])
    x, y = (CrystalElement(rank, tuple(map(w.count, range(2, rank + 3)))) for w in labels)
    out = comb_R(x, y)

    def label(e: CrystalElement) -> str:
        return encode_word([a for a in range(rank + 2, 1, -1) for _ in range(e.counts[a - 2])])

    return label(out.left_out), label(out.right_out), out.energy + len(small)


def scatter_two_simulated(big: str, small: str) -> tuple[str, str, int]:
    """Two-body scattering read off a full lattice simulation under T_infinity.

    The solitons start with a conservative gap and run until separated again;
    delta is the offset of the big soliton from its free trajectory.
    """
    l, lp = len(big), len(small)
    gap = 3 * (l + lp)
    x0 = 0
    y0 = l + gap
    word = big + "." * gap + small
    state = BBSState.parse(word, origin=x0)
    t = 0
    while True:
        t += 1
        state = evolve(state, None)[0]
        try:
            sol = solitons(state)
        except ValueError:
            continue
        if len(sol) == 2 and sol[1][0] - (sol[0][0] + len(sol[0][1])) >= 2 * (l + lp):
            small_out, big_out = sol[0][1], sol[1][1]
            if len(small_out) == lp:  # small soliton has been overtaken
                delta = sol[1][0] - (x0 + l * t)
                delta_small = (y0 + lp * t) - sol[0][0]
                if delta != delta_small:
                    raise ValueError("phase shifts disagree between solitons")
                return small_out, big_out, delta
        if t >= 100 * (l + lp):
            raise ValueError("scattering simulation did not separate")


def toda_coords(state: BBSState) -> tuple[list[int], list[int]]:
    """sl2 soliton coordinates: ball-run lengths Q and the gaps W between them."""
    if state.rank != 1:
        raise ValueError("Toda coordinates are defined for sl2 states only")
    # trimmed, so the empty runs are exactly the gaps between ball runs
    runs = [(c, len(list(run))) for c, run in groupby(state.trimmed().cells)]
    return [n for c, n in runs if c == 2], [n for c, n in runs if c == 1]


def toda_pass(Q, W, x=0):
    """The running minimum shared by the open and the periodic Toda step.

    With X_1 = x and X_{j+1} = min(0, X_j + W_j - Q_j), returns
    ([Q'_1, ..., Q'_n], X_{n+1}) for Q'_j = min(W_j, Q_j - X_j) and
    n = min(len(Q), len(W)).  Exact for int and Fraction entries alike.
    """
    Qn = []
    for q, w in zip(Q, W):
        Qn.append(min(w, q - x))
        x = min(0, x + w - q)
    return Qn, x


def toda_evolve(Q: list[int], W: list[int]) -> tuple[list[int], list[int]]:
    """One T_infinity step in soliton coordinates (W_0 = W_N = infinity).

    Open-chain running minimum (toda_pass from X_1 = 0), with no cap for j = N.
    Entries are read by intmat.exact: ints or Fractions, not floats or bools.
    """
    Q, W = list(map(exact, Q)), list(map(exact, W))
    N = len(Q)
    if len(W) != N - 1:
        raise ValueError("need len(W) == len(Q) - 1")
    Qn, X = toda_pass(Q, W)
    Qn.append(Q[-1] - X)
    Wn = [Q[j + 1] + W[j] - Qn[j] for j in range(N - 1)]
    return Qn, Wn


def _row_insert(rows: list[list[int]], a: int) -> None:
    for row in rows:
        for i, b in enumerate(row):
            if b > a:
                row[i], a = a, b
                break
        else:
            row.append(a)
            return
    rows.append([a])


def p_symbol(state: BBSState) -> list[tuple[int, ...]]:
    """Conserved P-symbol: RSK row insertion of the reversed ball word."""
    word = [c for c in state.cells if c > 1]
    rows: list[list[int]] = []
    for a in reversed(word):
        _row_insert(rows, a)
    return [tuple(r) for r in rows]
