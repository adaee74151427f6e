"""Periodic sl2 box-ball system: carrier evolution, action-angle variables,
theta-function states, fundamental periods and the isolevel-set torus
decomposition.

States are length-L words over {1,2} with a distinguished origin (rotations
are genuinely different states; T_1 is the cyclic right shift), their cells
read by bbs.letters with top 2.  The carrier
for T_l is found by the two-pass construction, both passes bbs.carrier_pass:
the vacant carrier's pass yields the periodic fixed point, a second pass from
it produces the evolved state and the energy.

One scattering pass (_scatter: the first highest rotation, which starts at
the first minimum of the prefix sums of (#empty - #balls) by the cycle lemma,
then the KKR map) gives the action variable, the raw angle variable and the
internal symmetries; a PeriodicState makes it once, on first use, and keeps it.
Angle variables live on quasi-periodic extensions of riggings modulo the
slide group (Kuniba-Takagi-Takenouchi, Nucl. Phys. B 747 (2006)); with
I = {i_1 < ... < i_g} and multiplicities m_i, a slide on color k rotates that
window by one and adds 2 min(i,k) everywhere, so the orbit of a window tuple
is parametrized by a rotation vector r and a lattice shift F s (F the
Bethe-type period matrix).  None of the prod m_i rotations is enumerated to
compare or canonicalize: two classes are equal iff a difference vector v lies
in F_gamma Z^g (columns of F divided by the internal symmetries), that is iff
det F divides gamma_j (adj F v)_j for every j (Cramer's rule), and the
canonical form is found color by color against one Hermite form of F.
Inverse scattering walks the box of valid riggings in Lambda = F Z^g + Z 1
(F 1 = L 1 absorbs the uniform shift) one coordinate at a time, for each
window rotation.

F depends on the action variable alone, so each ActionVariable caches it
as one intmat.Lattice, which caches F's one elimination (det F, adj F) and
its column Hermite form; the ActionVariable also caches that of Lambda.
All of it is exact integer work done once per action variable: inverse
scattering reads the shift e off row 0 of adj F and det F, periods are the
int lcm of det F / gcd(det F, gamma_j (adj F h)_j) (Cramer: det F_j =
(adj F h)_j), class equality is the Cramer test above, the canonical form
and the lattice walk read the Hermite forms, and the theta formula hands
the same Lattice to theta.  The internal symmetries gamma count the
rotations that fix a window's cyclic gap list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, groupby, product
from math import comb, gcd, lcm, prod
from operator import itemgetter

from boxball.bbs import capacity, carrier_pass, decode_word, encode_word, letters
from boxball.intmat import (
    Lattice,
    column_hnf,
    det_int,  # noqa: F401  (perfbench/spans.py traces pbbs.det_int)
    divisors,
    exact,
    is_int,
    lattice_points_in_box,
    moebius,
    reduce_mod_lattice,  # noqa: F401  (perfbench/spans.py traces pbbs.reduce_mod_lattice)
    require_int,
    trusted,
)
from boxball.kkr import RiggedConfiguration, kkr_phi, kkr_phi_inv, q_sum
from boxball.theta import theta


@dataclass(frozen=True)
class PeriodicState:
    """Cyclic word over {1,2} with a distinguished origin cell."""

    cells: tuple[int, ...]

    def __post_init__(self):
        # tuple() first, so text is refused cell by cell: it enters through parse
        object.__setattr__(self, "cells", letters(tuple(self.cells), 2))
        if not self.cells:
            raise ValueError("empty state")
        if 2 * self.balls > len(self.cells):
            raise ValueError("more than L/2 balls; not a box-ball phase space point")

    @property
    def L(self) -> int:
        return len(self.cells)

    @property
    def balls(self) -> int:
        return self.cells.count(2)

    @classmethod
    def parse(cls, text: str) -> "PeriodicState":
        return cls(decode_word(text))

    def render(self) -> str:
        return encode_word(self.cells, ".")

    def __str__(self):
        return self.render()

    def shifted(self, d: int) -> "PeriodicState":
        """T_1^d: rotate right by d cells."""
        require_int("d", d)
        d %= self.L
        return trusted(PeriodicState, cells=self.cells[-d:] + self.cells[:-d]) if d else self

    def word(self) -> str:
        return encode_word(self.cells)

    @cached_property
    def _scattered(self) -> "AngleVariable":
        return _scatter(self)


def evolve_periodic(p: PeriodicState, l: int | None = None) -> tuple[PeriodicState, int]:
    """T_l (l = None means l >= max amplitude, realized as l = ball count).

    Two passes of bbs.carrier_pass: the vacant carrier's exit load is the
    periodic fixed point; rerunning with it yields T_l(p) and the energy E_l
    (number of loading events).  The fixed point is guaranteed for M < L/2
    and checked in all cases (ValueError if the second pass does not close up).
    """
    M = p.balls
    l = capacity(l, M)
    if M == 0 or l == 0:
        return p, 0
    carrier = [1, l, 0]
    carrier_pass(p.cells, carrier, 1)
    fixed = list(carrier)
    out, energy = carrier_pass(p.cells, carrier, 1)
    if carrier != fixed:
        raise ValueError("carrier fixed point failed to close up")
    return trusted(PeriodicState, cells=tuple(out)), energy  # the closed carrier kept every ball


@dataclass(frozen=True)
class ActionVariable:
    """Conserved partition of soliton amplitudes with its vacancy data: the part
    sizes I ascending, with mults m_i and vacancies p_i aligned, set once (not
    fields: equality and hashing stay on L and parts)."""

    L: int
    parts: tuple[int, ...]  # weakly decreasing

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not (is_int(self.L) and all(map(is_int, self.parts))):
            raise ValueError("L and the parts must be ints")
        require_int("parts", min(self.parts, default=1), 1)
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be weakly decreasing")
        if 2 * sum(self.parts) > self.L:
            raise ValueError("|mu| must be at most L/2")
        I = tuple(sorted(set(self.parts)))
        object.__setattr__(self, "I", I)
        mults = tuple(self.parts.count(i) for i in I)
        object.__setattr__(self, "mults", mults)
        # the vacancies of the one-color configuration of shape mu, from kkr's q-sum
        object.__setattr__(self, "vacancies", tuple(self.L - 2 * q_sum(I, mults, i) for i in I))

    @property
    def g(self) -> int:
        return len(self.I)

    def m(self, i: int) -> int:
        require_int("part size", i)
        return self.mults[self.I.index(i)] if i in self.I else 0

    def F(self, gamma=None) -> list[list[int]]:
        """Period matrix F_ij = delta_ij p_i + 2 min(i,j) m_j over I x I; given
        gamma (g ints >= 1), F_gamma: column j divided by gamma_j (ValueError
        unless exact)."""
        if gamma is None:
            gamma = (1,) * self.g
        elif len(gamma) != self.g:
            raise ValueError(f"gamma must have g = {self.g} entries, got {len(gamma)}")
        for gam in gamma:
            require_int("gamma", gam, 1)
        if any(m % gam or p % gam for m, p, gam in zip(self.mults, self.vacancies, gamma)):
            raise ValueError("gamma does not divide the columns of F")
        return [
            [
                ((p if i == j else 0) + 2 * min(i, j) * m) // gam
                for j, m, gam in zip(self.I, self.mults, gamma)
            ]
            for i, p in zip(self.I, self.vacancies)
        ]

    def h(self, l: int | None) -> tuple[int, ...]:
        """Velocity vector of T_l: (min(i, l))_i, with l = None meaning infinity."""
        l = capacity(l, sum(self.parts))
        return tuple(min(i, l) for i in self.I)

    @cached_property
    def lattice(self) -> Lattice:
        """F as a Lattice.  F is nonsingular (F diag(m)^-1 = diag(p / m) + 2 M
        with p >= 0 and M = (min(i, j)) positive definite), so adj F exists."""
        return Lattice(self.F())

    @cached_property
    def _hnf_lambda(self) -> tuple[tuple[int, ...], ...]:
        """Column Hermite form of Lambda = F Z^g + Z 1, coordinates reversed (the
        order inverse_scattering walks them in)."""
        cols = [col[::-1] for col in zip(*self.lattice.rows)] + [(1,) * self.g]
        return tuple(map(tuple, column_hnf(cols)))


def action_variable(p: PeriodicState) -> ActionVariable:
    """Conserved soliton-amplitude partition, via any highest cyclic rotation."""
    return p._scattered.mu


def _some_highest_rotation(p: PeriodicState) -> tuple[int, PeriodicState]:
    """(d, p_+) with p = T_1^d(p_+) and p_+ highest; smallest such d >= 0.  Cycle
    lemma: with S the prefix sums of (#empty - #balls), p_+ is highest iff
    S_d <= S_i for i >= d and S_d <= S_i + S_L for i < d.  For S_L >= 0 the
    first minimum of S qualifies, and no d before it does (S_d > min S there)."""
    S = list(accumulate((1 if c == 1 else -1 for c in p.cells), initial=0))
    if S[-1] < 0:
        raise ValueError("no highest rotation exists (more balls than boxes?)")
    d = S.index(min(S))
    return d, p.shifted(-d)


@dataclass(frozen=True)
class AngleVariable:
    """One window of the quasi-periodic extended rigging, per part size.

    windows[i] is the weakly increasing tuple (J_{i,1}, ..., J_{i,m_i}); the
    extension J_{i,a+m_i} = J_{i,a} + p_i is implicit.  Instances compare by
    their stored windows; class (mod slides) equality goes through
    canonicalize().
    """

    mu: ActionVariable
    windows: tuple[tuple[int, ...], ...]  # aligned with mu.I

    def __post_init__(self):
        mu = self.mu
        object.__setattr__(self, "windows", tuple(map(tuple, self.windows)))
        if len(self.windows) != len(mu.I):
            raise ValueError("need one window per distinct part size")
        for i, m, p, w in zip(mu.I, mu.mults, mu.vacancies, self.windows):
            if len(w) != m:
                raise ValueError(f"window for size {i} must have m_{i} entries")
            for x in w:
                require_int("window entries", x)
            if list(w) != sorted(w):
                raise ValueError("windows must be weakly increasing")
            if w[-1] - w[0] > p:
                # within one quasi-period the spread cannot exceed p_i
                raise ValueError("window spread exceeds the quasi-period")

    def window(self, i: int) -> tuple[int, ...]:
        return self.windows[self.mu.I.index(i)]

    def uniform_shift(self, d: int) -> "AngleVariable":
        # an int shift keeps each window sorted and its spread: nothing to re-check
        require_int("d", d)
        windows = tuple(tuple(x + d for x in w) for w in self.windows)
        return trusted(AngleVariable, mu=self.mu, windows=windows)


def _scatter(p: PeriodicState) -> AngleVariable:
    """The one scattering pass: KKR of the first highest rotation p_+ = T_1^{-d}(p)
    (d the first minimum of the prefix sums), whose color-1 riggings, grouped
    by length and shifted by d, form the (uncanonicalized) angle variable of p.  Read through p._scattered, so
    each state scatters once for all of its action, angle, symmetry and periods."""
    d, p_plus = _some_highest_rotation(p)
    rc = kkr_phi(p_plus.cells, rank=1)
    # color 1 is sorted by (length, rigging): one run per part size, ascending
    windows = tuple(tuple(r + d for _, r in run) for _, run in groupby(rc.color(1), itemgetter(0)))
    return AngleVariable(ActionVariable(p.L, rc.mu(1)), windows)


def _rotated_window(w: tuple[int, ...], p: int, r: int) -> tuple[int, ...]:
    """Slide the window start forward by r, 0 <= r < len(w), in the extended sequence."""
    return w[r:] + tuple(x + p for x in w[:r])


def _orbit_candidates(J: AngleVariable):
    """All window-aligned representatives of the slide orbit of J.

    sigma^n acts on color i by rotating its window n_i steps and adding
    2 sum_k min(i, i_k) n_k; splitting n_i = r_i + m_i s_i this is
    rotation by r plus the additive vector 2 M r + F s with M = (min(i,k)).
    """
    mu = J.mu
    for r in product(*map(range, mu.mults)):
        yield [
            tuple(x + d for x in _rotated_window(w, p, ri))
            for w, p, ri, d in zip(J.windows, mu.vacancies, r, _slide_shift(mu.I, r))
        ]


def _slide_shift(I: tuple[int, ...], r) -> list[int]:
    """2 M r, (2 M r)_i = 2 sum_k min(i, i_k) r_k: the additive part of sigma^r,
    twice kkr's q-sum of the rotations r as multiplicities."""
    return [2 * q_sum(I, r, i) for i in I]


def canonicalize(J: AngleVariable) -> AngleVariable:
    """Unique representative of the slide-group class of J (KTT 2006): over the
    window rotations r (0 <= r_k < m_k), the lexicographically smallest tuple of
    rotated windows, shifted so that their first entries b form the canonical
    residue of b modulo F Z^g.  With I ascending, b_k = w_k[r_k] +
    2 (sum_{j<k} i_j r_j + i_k T_k), T_k = sum_{j>=k} r_j, and the column
    Hermite form of F is lower triangular, so window k depends on r_0..r_k and
    T_{k+1} alone.  The windows are fixed color by color, keeping only the
    candidates still tied for the minimum.
    """
    mu = J.mu
    H = mu.lattice.hnf
    # tail[k]: the largest T_k; tied: (T_k, rows >= k of the partially reduced b)
    tail = list(accumulate((m - 1 for m in reversed(mu.mults)), initial=0))[::-1]
    tied = [(T, (0,) * mu.g) for T in range(tail[0] + 1)]
    windows = []
    for k, (i, m, p, w) in enumerate(zip(mu.I, mu.mults, mu.vacancies, J.windows)):
        offsets = [tuple(x - w[r] for x in _rotated_window(w, p, r)) for r in range(m)]
        h = H[k]
        found = [
            (divmod(w[r] + 2 * i * T + c[0], h[k]), r, T, c)
            for T, c in tied
            for r in range(max(0, T - tail[k + 1]), min(m - 1, T) + 1)
        ]
        best = min((res, offsets[r]) for (_, res), r, _, _ in found)
        # rows > k gain 2 i_k r_k from this rotation and lose the reduction q h_k
        tied = [
            (T - r, tuple(x + 2 * i * r - q * y for x, y in zip(c[1:], h[k + 1 :])))
            for (q, res), r, T, c in found
            if (res, offsets[r]) == best
        ]
        windows.append(tuple(best[0] + x for x in best[1]))
    return AngleVariable(mu, windows)


def _rotations(wa: tuple[int, ...], wb: tuple[int, ...], p: int) -> list[int]:
    """Every r in [0, m) such that window wa rotated by r has the cyclic gaps of wb
    (wrap gap w[0] + p - w[-1] last), found by comparing the m rotations of
    wa's gap list with wb's; O(m^2), for windows of a few entries."""
    a, b = ([y - x for x, y in zip(w, w[1:])] + [w[0] + p - w[-1]] for w in (wa, wb))
    return [r for r in range(len(a)) if a[r:] + a[:r] == b]


def angle_equal(A: AngleVariable, B: AngleVariable) -> bool:
    """Equality of slide-group classes by one lattice-membership test (KTT 2006).

    Per color, the rotations taking A's cyclic gaps to B's are r_i + k m_i /
    gamma_i (none: not equal), gamma_i the internal symmetry.  Rotating by
    m_i / gamma_i adds p_i / gamma_i to window i; with the slide's 2 M e_i m_i /
    gamma_i that is column i of F_gamma = F diag(gamma)^-1.  So A ~ B iff
    v = (B_i[0] - A_i[r_i] - 2 (M r)_i)_i lies in F_gamma Z^g, that is iff
    diag(gamma) F^-1 v is integral: det F divides gamma_j (adj F v)_j for all j.
    """
    if A.mu != B.mu:
        return False
    mu = A.mu
    matches = list(map(_rotations, A.windows, B.windows, mu.vacancies))
    if not all(matches):
        return False
    r = [hits[0] for hits in matches]
    v = [
        wb[0] - wa[ri] - d
        for wa, wb, ri, d in zip(A.windows, B.windows, r, _slide_shift(mu.I, r))
    ]
    e = mu.lattice.elimination
    # gamma_j = len(matches[j])
    return not any(
        len(hits) * sum(x * y for x, y in zip(row, v)) % e.det for hits, row in zip(matches, e.adj)
    )


def direct_scattering(p: PeriodicState) -> AngleVariable:
    """Phi: angle variable of p, canonical; independent of the rotation used."""
    return canonicalize(p._scattered)


def evolve_angle(J: AngleVariable, l: int | None, steps: int = 1) -> AngleVariable:
    """T_l^steps on angle variables: add steps*min(i,l) to every window entry."""
    require_int("steps", steps)
    # uniform within each window, so the shift keeps both window checks
    windows = tuple(tuple(x + steps * v for x in w) for v, w in zip(J.mu.h(l), J.windows))
    return trusted(AngleVariable, mu=J.mu, windows=windows)


def inverse_scattering(J: AngleVariable) -> PeriodicState:
    """Phi^{-1}: the unique state with angle variable J.

    A representative (rigged configuration) + e of the slide orbit is a window
    rotation w plus u = F s - e 1, a point of Lambda = F Z^g + Z 1 in the box
    -w_i[0] <= u_i <= p_i - w_i[-1]; as F 1 = L 1, u fixes e mod L.  Any such
    point will do: apply the KKR inverse and shift by e.
    """
    mu = J.mu
    L = mu.L
    I = mu.I
    elim = mu.lattice.elimination
    # coordinates from the largest part size down: its window is the narrowest
    H = mu._hnf_lambda
    for rotated in _orbit_candidates(J):
        lo = [-w[0] for w in reversed(rotated)]
        hi = [p - w[-1] for p, w in zip(reversed(mu.vacancies), reversed(rotated))]
        for u in lattice_points_in_box(H, lo, hi):
            u = u[::-1]
            # F s = u + e 1 with s integral: e = -L (adj F u)_0 / det F mod L
            e = -L * sum(x * y for x, y in zip(elim.adj[0], u)) // elim.det % L if I else 0
            rc = RiggedConfiguration.make(
                L, 1, [[(i, x + ui) for i, w, ui in zip(I, rotated, u) for x in w]]
            )
            return PeriodicState.parse(kkr_phi_inv(rc)).shifted(e)
    raise ValueError("no rigged-configuration representative found; invalid angle data")


def periodic_theta_state(Jvec, mu: ActionVariable) -> PeriodicState:
    """State from the tropical theta formula (multiplicity-free mu only).

    b_k is a difference of four thetas with period matrix F, argument
    J - p/2 - k h_1 (+ h_inf), J of g ints or Fractions; invariant under J -> J + F Z^g.
    """
    if any(m != 1 for m in mu.mults):
        raise ValueError("theta formula requires all multiplicities 1")
    Jvec = tuple(exact(j, "angle entries") for j in Jvec)
    if len(Jvec) != mu.g:
        raise ValueError(f"angle vector must have g = {mu.g} entries, got {len(Jvec)}")
    Xi = mu.lattice  # every m_i is 1, so F is symmetric
    base = [j - Fraction(p, 2) for j, p in zip(Jvec, mu.vacancies)]
    h1 = mu.h(1)
    th, th_inf = (
        [theta([b - k * x + y for b, x, y in zip(base, h1, lift)], Xi) for k in range(mu.L + 1)]
        for lift in ((0,) * mu.g, mu.h(None))
    )
    cells = []
    for k in range(1, mu.L + 1):
        b = 1 - th[k] + th[k - 1] + th_inf[k] - th_inf[k - 1]
        if b not in (1, 2):
            raise ValueError(f"theta formula produced letter {b} at cell {k}")
        cells.append(int(b))
    return PeriodicState(cells)


def internal_symmetry(p: PeriodicState) -> tuple[int, ...]:
    """Per part size i: the largest divisor gamma of gcd(m_i, p_i) with
    J_{i, a + m_i/gamma} = J_{i, a} + p_i/gamma on the extended rigging."""
    return _symmetry(p._scattered)


def _symmetry(J: AngleVariable) -> tuple[int, ...]:
    # gamma_i counts the rotations fixing window i's cyclic gaps; the gaps are
    # invariant under a uniform shift of J, so any representative works
    return tuple(map(len, map(_rotations, J.windows, J.windows, J.mu.vacancies)))


def fundamental_period(p: PeriodicState, l: int | None) -> int:
    """Smallest N with T_l^N(p) = p: the lcm of the rationals det F / (gamma_j
    det F_j) over det F_j != 0 (F_j: column j replaced by h_l, so det F_j =
    (adj F h_l)_j).  Z meets Z a/b in lcm(a / gcd(a, b)) Z, so each term is the
    int det F // gcd(det F, gamma_j det F_j); the lcm of none is 1 (the vacuum, or T_0)."""
    J = p._scattered
    h, e = J.mu.h(l), J.mu.lattice.elimination
    dets = (sum(x * y for x, y in zip(row, h)) for row in e.adj)
    return lcm(*(e.det // gcd(e.det, gam * d) for gam, d in zip(_symmetry(J), dets) if d))


def isolevel_cardinality(mu: ActionVariable) -> int:
    """|P_L(mu)| by the determinant form; ValueError unless the product form agrees."""
    a = Fraction(mu.lattice.elimination.det)
    for m, p in zip(mu.mults, mu.vacancies):
        a *= Fraction(comb(p + m - 1, m - 1), m)
    # second closed form: L/p_{i_g} prod binom(p_i + m_i - 1, m_i), regularized
    # through binom(p+m, m)/(p+m) for the largest size so p_{i_g} = 0 is allowed
    b, last = Fraction(1), len(mu.mults) - 1  # genus 0: the empty product
    for i, (m, p) in enumerate(zip(mu.mults, mu.vacancies)):
        b *= Fraction(mu.L * comb(p + m, m), p + m) if i == last else comb(p + m - 1, m)
    if a != b:
        raise ValueError("the two closed forms disagree")
    if a.denominator != 1:
        raise ValueError("the cardinality is not an integer")
    return int(a)


def _C_gamma(m: int, p: int, gamma: int) -> int:
    """Moebius-counted window classes with exact symmetry gamma."""
    total = 0
    common = [b for b in divisors(gcd(m, p)) if b % gamma == 0]
    for beta in common:
        total += moebius(beta // gamma) * comb((p + m) // beta - 1, m // beta - 1)
    return total


def torus_decomposition(mu: ActionVariable) -> list[tuple[tuple[int, ...], int, list[list[int]]]]:
    """[(gamma, multiplicity, F_gamma)] over all internal symmetries.

    F_gamma divides the columns of F by gamma, so det F_gamma = det F / prod
    gamma_j, read off F's elimination; the multiplicities satisfy
    sum mult(gamma) det F_gamma = |P_L(mu)| (ValueError otherwise).
    """
    out, total = [], 0
    det = mu.lattice.elimination.det
    for gamma in product(*(divisors(gcd(m, p)) for m, p in zip(mu.mults, mu.vacancies))):
        mult = Fraction(1)
        for gam, m, p in zip(gamma, mu.mults, mu.vacancies):
            mult *= Fraction(gam * _C_gamma(m, p, gam), m)
        if mult.denominator != 1:
            raise ValueError("a torus multiplicity is not an integer")
        mult = int(mult)
        if mult == 0:
            continue
        Fg = mu.F(gamma)
        out.append((gamma, mult, Fg))
        total += mult * (det // prod(gamma))
    if total != isolevel_cardinality(mu):
        raise ValueError("multiplicities do not add up")
    return out


def enumerate_isolevel(mu: ActionVariable) -> list[PeriodicState]:
    """All states with the given action variable (brute force, L <= 20)."""
    L = mu.L
    if L > 20:
        raise ValueError("enumeration capped at L = 20")
    M = sum(mu.parts)
    out = []
    for balls in combinations(range(L), M):
        cells = [1] * L
        for b in balls:
            cells[b] = 2
        p = PeriodicState(cells)
        if action_variable(p).parts == mu.parts:
            out.append(p)
    return out
