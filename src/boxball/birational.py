"""Birational R over exact positive rationals and its ultradiscretization.

The birational R is `crystal.semifield_R`, the subtraction-free formula of
the combinatorial R, read over exact rationals (+, *, /) instead of max-plus
(max, +, -).  Because the formula has no subtraction, the leading exponent
of each coordinate at x_i = b^{X_i}, y_i = b^{Y_i}, b -> infinity, is the
max-plus reading of the same formula on the exponents: that reading is the
ultradiscretization, exactly, for any integer exponents.  Tests keep the
large-base evaluation as an independent oracle for it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from boxball.crystal import MAX_PLUS, RankMismatch, require_rank, semifield_R
from boxball.intmat import exact, require_int


@dataclass(frozen=True)
class RationalPoint:
    """Point of the birational-R phase space: strictly positive rational coordinates.

    Coordinates are stored as `Fraction`; ints and Fractions are accepted,
    floats, bools and other non-rationals raise ValueError.
    """

    rank: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        require_rank(self.rank)
        if len(self.coords) != self.rank + 1:
            raise ValueError("coords must have length rank+1")
        coords = tuple(Fraction(exact(c, "coordinates")) for c in self.coords)
        if any(c <= 0 for c in coords):
            raise ValueError("coordinates must be positive")
        object.__setattr__(self, "coords", coords)

    def coord(self, i: int) -> Fraction:
        return self.coords[(i - 1) % (self.rank + 1)]


def birational_R(x: RationalPoint, y: RationalPoint) -> tuple[RationalPoint, RationalPoint]:
    """R(x,y) = (y~, x~) with x~_i = x_i P_{i-1}/P_i, y~_i = y_i P_i/P_{i-1}."""
    if x.rank != y.rank:
        raise RankMismatch("birational R needs equal ranks")
    yt, xt, _ = semifield_R(x.coords, y.coords, operator.add, operator.mul, Fraction)
    return RationalPoint(x.rank, yt), RationalPoint(x.rank, xt)


def ultradiscretize_R(
    X: tuple[int, ...], Y: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Leading exponents (Y~, X~) of the birational R on x_i = b^{X_i}, y_i = b^{Y_i}.

    This is the max-plus reading of the R formula on the integer exponents;
    when X and Y are letter-count vectors it is the combinatorial R.
    """
    if len(X) != len(Y):
        raise RankMismatch("exponent vectors must have equal length")
    if len(X) < 2:
        raise ValueError("exponent vectors need length rank + 1 >= 2")
    for e in (*X, *Y):
        require_int("each exponent", e)
    Yt, Xt, _ = semifield_R(tuple(X), tuple(Y), *MAX_PLUS)
    return Yt, Xt
