"""Affine sl(n+1) crystals B_l, tensor products, Kashiwara operators and the
combinatorial R.

An element of B_l is a vector of letter counts (x_1,...,x_{n+1}) summing to l;
the one-row tableau word is only an I/O presentation: ASCII digits, one letter
per character or comma-separated with no empty field.  rank_of is the one rule
for the rank a word implies, and require_rank the one check of a rank given,
here and in every box-ball layer.  All letter indices are cyclic mod n+1,
with color 0 acting between letters n+1 and 1.
The crystal 0 is represented by None throughout.  On B_{l_1} (x) ... (x) B_{l_n}
one right-to-left fold of the signature rule gives (eps_i, phi_i) of every
tail, which both tensor_eps_phi and tensor_kashiwara read, in O(n).

The combinatorial R and the birational R (`boxball.birational`) are one
subtraction-free formula, `semifield_R`, read over two semifields: `comb_R`
and `energy_H` read it in max-plus (max, +, -), `birational_R` over exact
rationals (+, *, /).  `comb_R_ny`, the winding/unwinding pairing algorithm,
is kept as the independent oracle that tests and `selftest` compare with;
it also yields the energy as the number of winding pairs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

from boxball.intmat import require_int


class RankMismatch(ValueError):
    pass


def _cyc(i: int, m: int) -> int:
    """Reduce a 1-based letter index cyclically into 1..m."""
    return (i - 1) % m + 1


def rank_of(letters) -> int:
    """The rank a word implies: its largest letter minus one, at least 1."""
    return max(max(letters, default=2), 2) - 1


def require_rank(rank) -> None:
    """ValueError unless rank is an int (not a bool) >= 1: the one rank rule of
    crystals, box-ball states, rigged configurations and tau string sets."""
    require_int("rank", rank)
    if rank < 1:
        raise ValueError("rank must be >= 1")


def _word_letters(word: str) -> list[int]:
    """Letters of a tableau word: ASCII digits, one per character ("13347") or
    comma-separated with no empty field ("1,3,10"); ValueError otherwise."""
    fields = word.split(",") if "," in word else list(word)
    if not all(f.isascii() and f.isdigit() for f in fields):
        raise ValueError(f"crystal word letters must be ASCII digits: {word!r}")
    letters = list(map(int, fields))
    if any(a < 1 for a in letters):
        raise ValueError(f"letters must be >= 1: {word!r}")
    return letters


@dataclass(frozen=True)
class CrystalElement:
    """Element of B_l for affine sl(n+1): letter counts summing to the capacity l."""

    rank: int
    counts: tuple[int, ...]

    def __post_init__(self):
        require_rank(self.rank)
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != self.rank + 1:
            raise ValueError("counts must have length rank+1")
        for c in self.counts:
            require_int("letter count", c, 0)

    @property
    def capacity(self) -> int:
        return sum(self.counts)

    def count(self, i: int) -> int:
        """x_i with cyclic indexing (x_0 = x_{n+1} etc.)."""
        return self.counts[_cyc(i, self.rank + 1) - 1]

    @classmethod
    def from_word(cls, word: str, rank: int | None = None) -> "CrystalElement":
        """Parse a tableau word, e.g. "13347" or "1,3,3,4,7" (any letter order)."""
        letters = _word_letters(word)
        rank = rank_of(letters) if rank is None else rank
        if max(letters, default=1) > rank + 1:
            raise ValueError(f"letter {max(letters)} exceeds rank+1={rank + 1}")
        return cls(rank, tuple(map(letters.count, range(1, rank + 2))))

    def word(self) -> str:
        letters = []
        for a, c in enumerate(self.counts, start=1):
            letters.extend([a] * c)
        if self.rank + 1 <= 9:
            return "".join(str(a) for a in letters)
        return ",".join(str(a) for a in letters)

    def __str__(self):
        return self.word()


def u_vac(rank: int, l: int) -> CrystalElement:
    """The vacant carrier u_l: all l letters equal to 1."""
    return CrystalElement(rank, (l,) + (0,) * rank)


def eps_phi(x: CrystalElement, i: int) -> tuple[int, int]:
    """(eps_i, phi_i) of x: how far the raising/lowering operators act.  The one
    check of a color index, here and in kashiwara: an int in 0..rank, not a bool."""
    require_int("color index", i)
    if not 0 <= i <= x.rank:
        raise ValueError(f"color index {i} out of range 0..{x.rank}")
    return x.count(i + 1), x.count(i)


def kashiwara(x: CrystalElement, i: int, dir: str) -> CrystalElement | None:
    """Apply e~_i (dir='raise') or f~_i (dir='lower'); None is the crystal 0.
    e~_i turns a letter i+1 into i, so it acts iff eps_i > 0; f~_i iff phi_i > 0."""
    eps, phi = eps_phi(x, i)
    if dir not in ("raise", "lower"):
        raise ValueError("dir must be 'raise' or 'lower'")
    if not (eps if dir == "raise" else phi):
        return None
    m, d = x.rank + 1, 1 if dir == "raise" else -1
    counts = list(x.counts)
    counts[_cyc(i, m) - 1] += d
    counts[_cyc(i + 1, m) - 1] -= d
    return CrystalElement(x.rank, counts)


@dataclass(frozen=True)
class TensorElement:
    """Ordered tensor product of crystal elements of a common rank."""

    factors: tuple[CrystalElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("tensor must be nonempty")
        r = self.factors[0].rank
        if any(f.rank != r for f in self.factors):
            raise RankMismatch("tensor factors must share the rank")

    @property
    def rank(self) -> int:
        return self.factors[0].rank

    @classmethod
    def from_word(cls, text: str, rank: int | None = None) -> "TensorElement":
        parts = text.split("*")
        if rank is None:
            rank = rank_of([a for p in parts for a in _word_letters(p)])
        return cls(tuple(CrystalElement.from_word(p, rank) for p in parts))

    def word(self) -> str:
        return "*".join(f.word() for f in self.factors)

    def __str__(self):
        return self.word()


def _tails(factors, i: int) -> list[tuple[int, int]]:
    """(eps_i, phi_i) of every tail factors[j:], j = 0..n, by one right-to-left
    fold from (0, 0) for the empty tail of the signature rule
    eps(b (x) T) = eps_b + max(eps_T - phi_b, 0), phi(b (x) T) = phi_T + max(phi_b - eps_T, 0)."""
    out = [(0, 0)]
    for b in reversed(factors):
        e, f = eps_phi(b, i)
        e_tail, f_tail = out[-1]
        out.append((e + max(e_tail - f, 0), f_tail + max(f - e_tail, 0)))
    return out[::-1]


def tensor_eps_phi(p: TensorElement | CrystalElement, i: int) -> tuple[int, int]:
    """(eps_i, phi_i) on a tensor product: the signature fold of all of it."""
    if isinstance(p, CrystalElement):
        return eps_phi(p, i)
    return _tails(p.factors, i)[0]


def tensor_kashiwara(p: TensorElement, i: int, dir: str) -> TensorElement | None:
    """e~_i / f~_i by the signature rule: act on the first factor whose phi_i
    exceeds eps_i of the tail after it (reaches it, for e~_i), else on the
    last factor; None if that factor's result is the crystal 0."""
    tails, last = _tails(p.factors, i), len(p.factors) - 1
    need = 0 if dir == "raise" else 1  # least phi_i - eps_i(tail after) that takes the head
    j = next((j for j in range(last) if eps_phi(p.factors[j], i)[1] - tails[j + 1][0] >= need), last)
    out = kashiwara(p.factors[j], i, dir)
    return None if out is None else TensorElement(p.factors[:j] + (out,) + p.factors[j + 1 :])


@dataclass(frozen=True)
class RResult:
    """Output of the combinatorial R on B_l (x) B_l': the swapped pair and the energy."""

    left_out: CrystalElement
    right_out: CrystalElement
    energy: int


MAX_PLUS = (max, operator.add, operator.sub)


def semifield_R(x: tuple, y: tuple, add, mul, div) -> tuple[tuple, tuple, list]:
    """The R formula on coordinate vectors x, y over the semifield (add, mul, div).

    P_i = sum_{k=1..m} prod_{j=k..m} x_{i+j} prod_{j=1..k} y_{i+j} (indices
    cyclic mod m = len(x)), x~_i = x_i P_{i-1} / P_i, y~_i = y_i P_i / P_{i-1};
    returns (y~, x~, [P_0, ..., P_{m-1}]).
    """
    m = len(x)
    P = []
    for i in range(m):
        xs, ys = x[i:] + x[:i], y[i:] + y[:i]  # x_{i+1}, ..., x_{i+m}
        P.append(reduce(add, (reduce(mul, xs[k:] + ys[: k + 1]) for k in range(m))))
    xt = tuple(div(mul(x[i], P[i]), P[(i + 1) % m]) for i in range(m))
    yt = tuple(div(mul(y[i], P[(i + 1) % m]), P[i]) for i in range(m))
    return yt, xt, P


def comb_R(x: CrystalElement, y: CrystalElement) -> RResult:
    """Combinatorial R: the R formula read in max-plus on the letter counts."""
    if x.rank != y.rank:
        raise RankMismatch("R needs equal ranks")
    yt, xt, P = semifield_R(x.counts, y.counts, *MAX_PLUS)
    return RResult(
        left_out=CrystalElement(x.rank, yt),
        right_out=CrystalElement(x.rank, xt),
        energy=P[0] - max(x.capacity, y.capacity),
    )


def energy_H(x: CrystalElement, y: CrystalElement) -> int:
    """Energy of x (x) y: P_0(x,y) - max(l,l')."""
    return comb_R(x, y).energy


def _dots(x: CrystalElement) -> list[int]:
    """Box positions (letters) of the dots of x, top to bottom."""
    out = []
    for a, c in enumerate(x.counts, start=1):
        out.extend([a] * c)
    return out


def comb_R_ny(x: CrystalElement, y: CrystalElement, rng=None) -> RResult:
    """Combinatorial R by the winding/unwinding pairing algorithm (test oracle).

    Dots of the larger-capacity pile are matched from the smaller one; the
    energy is the number of winding (wrap-around) pairs.  The pairing is
    choice-independent; pass rng (a random.Random) to shuffle the processing
    order (used by tests to check exactly that).
    """
    if x.rank != y.rank:
        raise RankMismatch("R needs equal ranks")
    n1 = x.rank + 1
    if x.capacity >= y.capacity:
        left, right = _dots(x), _dots(y)
        order = list(range(len(right)))
        if rng is not None:
            rng.shuffle(order)
        free = list(left)
        partners, winding = [], 0
        for k in order:
            b = right[k]
            above = [a for a in free if a < b]
            if above:
                pick = max(above)  # lowest position still above b
            else:
                pick = max(free)  # winding: lowest position overall
                winding += 1
            free.remove(pick)
            partners.append(pick)
        new_left = partners
        new_right = right + free
    else:
        left, right = _dots(x), _dots(y)
        order = list(range(len(left)))
        if rng is not None:
            rng.shuffle(order)
        free = list(right)
        partners, winding = [], 0
        for k in order:
            a = left[k]
            below = [b for b in free if b > a]
            if below:
                pick = min(below)  # highest position still below a
            else:
                pick = min(free)  # winding: highest position overall
                winding += 1
            free.remove(pick)
            partners.append(pick)
        new_left = left + free
        new_right = partners

    def pack(dots: list[int]) -> CrystalElement:
        counts = [0] * n1
        for a in dots:
            counts[a - 1] += 1
        return CrystalElement(x.rank, counts)

    return RResult(left_out=pack(new_left), right_out=pack(new_right), energy=winding)
