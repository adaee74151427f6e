import random
from fractions import Fraction
from itertools import product

import pytest

from boxball.birational import (
    RationalPoint,
    birational_R,
    ultradiscretize_R,
)
from boxball.crystal import CrystalElement, RankMismatch, comb_R, comb_R_ny

F = Fraction


# --- oracle: ultradiscretization by evaluation at a large base --------------
# Independent of the max-plus reading of the R formula: evaluate the exact
# birational R at x_i = b^{X_i}, y_i = b^{Y_i} and round each coordinate's
# base-b logarithm, retrying with a larger base while the rounding is unclear.


class AmbiguousLeadingOrder(ArithmeticError):
    pass


def _leading_exponent(r: Fraction, log2_base: int) -> int:
    """Nearest-integer exponent e with r ~ base^e, base = 2^log2_base.

    The leading coefficient of any R-image entry is bounded well inside
    (base^{-1/2}, base^{1/2}) once the base is large, so rounding is safe;
    an AmbiguousLeadingOrder is raised when the coefficient is too close to
    the rounding boundary and the caller retries with a larger base.
    """
    # floor(log2 r) from bit lengths, exact
    num, den = r.numerator, r.denominator
    lb = num.bit_length() - den.bit_length()
    if (num >> lb if lb >= 0 else num << -lb) < den:
        lb -= 1
    # e = round(lb / log2_base); ambiguity when within 2 bits of a half point
    q, rem = divmod(2 * lb + log2_base, 2 * log2_base)
    if min(rem, 2 * log2_base - rem) <= 4:
        raise AmbiguousLeadingOrder(f"leading order of {r} unclear at base 2^{log2_base}")
    return q


def _ultradiscretize_by_large_base(X, Y):
    rank = len(X) - 1
    for log2_base in (10, 20, 40, 80):
        base = Fraction(2) ** log2_base
        x = RationalPoint(rank, tuple(base ** e for e in X))
        y = RationalPoint(rank, tuple(base ** e for e in Y))
        yt, xt = birational_R(x, y)
        try:
            Yt = tuple(_leading_exponent(c, log2_base) for c in yt.coords)
            Xt = tuple(_leading_exponent(c, log2_base) for c in xt.coords)
            return Yt, Xt
        except AmbiguousLeadingOrder:
            continue
    raise AmbiguousLeadingOrder("leading order still ambiguous at base 2^80")


def check_toda_relations(
    x: RationalPoint, y: RationalPoint, yt: RationalPoint, xt: RationalPoint
) -> bool:
    """Exact check of x_i y_i = y~_i x~_i, 1/x_i + 1/y_{i+1} = 1/y~_i + 1/x~_{i+1},
    and the product constraint prod(x_i/x~_i) = prod(y_i/y~_i) = 1."""
    m = x.rank + 1
    if not (x.rank == y.rank == yt.rank == xt.rank):
        return False
    for i in range(1, m + 1):
        if x.coord(i) * y.coord(i) != yt.coord(i) * xt.coord(i):
            return False
        if 1 / x.coord(i) + 1 / y.coord(i + 1) != 1 / yt.coord(i) + 1 / xt.coord(i + 1):
            return False
    px = Fraction(1)
    py = Fraction(1)
    for i in range(1, m + 1):
        px *= x.coord(i) / xt.coord(i)
        py *= y.coord(i) / yt.coord(i)
    return px == 1 and py == 1


def _rand_point(rng, rank, num_max=12):
    return RationalPoint(
        rank,
        tuple(F(rng.randint(1, num_max), rng.randint(1, num_max)) for _ in range(rank + 1)),
    )


def test_diagonal_is_fixed():
    x = RationalPoint(2, (F(1), F(2), F(3, 2)))
    yt, xt = birational_R(x, x)
    assert yt == x and xt == x


def test_n1_relations_hold():
    x = RationalPoint(1, (F(1), F(1)))
    y = RationalPoint(1, (F(2), F(1)))
    yt, xt = birational_R(x, y)
    assert check_toda_relations(x, y, yt, xt)
    # x_i y_i = y~_i x~_i spelled out
    for i in (1, 2):
        assert x.coord(i) * y.coord(i) == yt.coord(i) * xt.coord(i)


def test_involution():
    rng = random.Random(11)
    for _ in range(100):
        rank = rng.randint(1, 4)
        x, y = _rand_point(rng, rank), _rand_point(rng, rank)
        yt, xt = birational_R(x, y)
        x2, y2 = birational_R(yt, xt)
        assert (x2, y2) == (x, y)


def test_toda_relations_reject_swapped_slots():
    rng = random.Random(12)
    violations = 0
    for _ in range(50):
        rank = rng.randint(1, 3)
        x, y = _rand_point(rng, rank), _rand_point(rng, rank)
        yt, xt = birational_R(x, y)
        assert check_toda_relations(x, y, yt, xt)
        if not check_toda_relations(x, y, xt, yt):
            violations += 1
    assert violations > 40  # generically false in the wrong slots


def test_yang_baxter_exact():
    rng = random.Random(13)

    def r12(t):
        a, b, c = t
        yt, xt = birational_R(a, b)
        return (yt, xt, c)

    def r23(t):
        a, b, c = t
        yt, xt = birational_R(b, c)
        return (a, yt, xt)

    for _ in range(200):
        rank = rng.randint(1, 3)
        triple = tuple(_rand_point(rng, rank) for _ in range(3))
        assert r12(r23(r12(triple))) == r23(r12(r23(triple)))


def test_ultradiscretization_fixture():
    x = CrystalElement.from_word("13347")
    y = CrystalElement.from_word("135", rank=6)
    Yt, Xt = ultradiscretize_R(x.counts, y.counts)
    out = comb_R(x, y)
    assert Yt == out.left_out.counts
    assert Xt == out.right_out.counts


def test_ultradiscretization_zero_exponents():
    Yt, Xt = ultradiscretize_R((0, 0, 0), (0, 0, 0))
    assert Yt == (0, 0, 0) and Xt == (0, 0, 0)


def _compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for c in range(total + 1):
        for rest in _compositions(total - c, slots - 1):
            yield (c,) + rest


def test_ultradiscretization_matches_comb_R_exhaustive():
    for rank in (1, 2, 3):
        for l, lp in product(range(1, 5), repeat=2):
            if rank == 3 and l + lp > 6:
                continue  # runtime guard; acceptance suite covers the full grid
            for xc in _compositions(l, rank + 1):
                for yc in _compositions(lp, rank + 1):
                    x = CrystalElement(rank, xc)
                    y = CrystalElement(rank, yc)
                    want = _ultradiscretize_by_large_base(xc, yc)
                    for out in (comb_R(x, y), comb_R_ny(x, y)):
                        assert (out.left_out.counts, out.right_out.counts) == want
                    assert ultradiscretize_R(xc, yc) == want


def test_ultradiscretization_matches_large_base_on_random_exponents():
    # integer exponents of either sign, not only letter counts
    rng = random.Random(1616)
    for _ in range(1000):
        rank = rng.randint(1, 4)
        X = tuple(rng.randint(-30, 30) for _ in range(rank + 1))
        Y = tuple(rng.randint(-30, 30) for _ in range(rank + 1))
        assert ultradiscretize_R(X, Y) == _ultradiscretize_by_large_base(X, Y)


def test_ultradiscretization_rejects_non_int_exponents():
    for X, Y in (((0.5, 1), (0, 0)), ((True, 1), (0, 0)), ((0, 1), (0, F(1))), ((0, 1), (0, "1"))):
        with pytest.raises(ValueError):
            ultradiscretize_R(X, Y)
    with pytest.raises(RankMismatch):
        ultradiscretize_R((0, 1), (0, 1, 2))


def test_rational_point_rejects_floats_bools_and_non_rationals():
    for bad in ((0.1, 0.2), (True, 2), (1, "2"), (1, None), (1, 1j)):
        with pytest.raises(ValueError):
            RationalPoint(1, bad)


@pytest.mark.parametrize("rank, coords", [(0, (1,)), (-1, ()), (0, ())])
def test_rational_point_rejects_rank_below_one(rank, coords):
    # before, RationalPoint(0, (1,)) and RationalPoint(-1, ()) were accepted
    with pytest.raises(ValueError, match="rank must be >= 1"):
        RationalPoint(rank, coords)


@pytest.mark.parametrize("rank", [True, 1.0, Fraction(1)])
def test_rational_point_rank_must_be_a_non_bool_int(rank):
    # before, RationalPoint(True, (1, 2)) and RationalPoint(1.0, (1, 2)) were accepted
    with pytest.raises(ValueError, match="rank must be an int"):
        RationalPoint(rank, (1, 2))


@pytest.mark.parametrize("X, Y", [((3,), (5,)), ((), ())])
def test_ultradiscretization_rejects_vectors_shorter_than_two(X, Y):
    # before, ultradiscretize_R((3,), (5,)) returned ((5,), (3,))
    with pytest.raises(ValueError, match="length rank \\+ 1 >= 2"):
        ultradiscretize_R(X, Y)


def test_rational_point_stores_fractions_equal_to_int_input():
    p = RationalPoint(1, (1, 2))
    assert all(type(c) is Fraction for c in p.coords)
    q = RationalPoint(1, (F(1), F(2)))
    assert p == q and hash(p) == hash(q) and p.coords == (1, 2)


def test_int_coordinates_give_fraction_outputs():
    yt, xt = birational_R(RationalPoint(1, (1, 2)), RationalPoint(1, (3, 1)))
    assert yt.coords == (F(5, 4), F(12, 5)) and xt.coords == (F(12, 5), F(5, 6))
    for p in (yt, xt):
        assert all(type(c) is Fraction for c in p.coords)
