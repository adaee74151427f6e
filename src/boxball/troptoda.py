"""Tropical periodic Toda lattice: evolution, conserved tropical polynomials,
spectral data, theta-function solution and the periodic box-ball embedding.

States are cyclic vectors (Q_j, W_j) of exact rationals with sum(Q) < sum(W),
each coordinate read by intmat.exact: an int when integral, else a Fraction
(a float or bool raises ValueError), so integral states run on plain int
arithmetic; conserved values, C and Z0 follow the same rule, spectral data of
an integral C are ints, and times t and sites n must be ints.
One time step is O(N); integer states stay integer under evolution (checked
where relied on).  The intermediate conserved quantities H_k interpolate the
displayed H_1, H_2, H_N as minima over k-element subsets avoiding the pairs
{W_j, Q_j} and {W_j, Q_{j+1}} (cyclically), i.e. minimum-weight independent
k-sets on the cycle Q_1 W_1 Q_2 W_2 ... Q_N W_N; conserved_all finds every H_k
in one O(N^2) prefix dynamic program over that cycle's attainable k, with no
sentinel, and the C(2N, k) subset scan survives as the test oracle.
Invariance is enforced in tests.  The theta-function solution builds its
spectral data, which hold Omega as one PeriodMatrix (empty at genus 0), once
per (Z0, C), kept in a one-entry memo so a trajectory builds them once, and
sums its thetas as integers; theta is an exact Fincke-Pohst enumeration in
int (see boxball.theta).  The period matrix maps m = (g, ..., 1) to N L e_1
on every smooth curve, so the theta argument of site n + N is that of site
n translated by -Omega m, and theta quasi-periodicity gives its value
exactly: a state at time t reads only theta rows t and t + 1, N thetas
each, and a trajectory keeps the two rows its last state read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, repeat
from math import lcm
from operator import mul

from boxball.bbs import letters, toda_pass
from boxball.intmat import exact, require_int, trusted
from boxball.kkr import q_sum
# theta is re-exported; the sites below use the integer entry point
from boxball.theta import PeriodMatrix, _argmin_int, theta  # noqa: F401


Exact = int | Fraction  # int when integral, else Fraction


def _require_phase_space(Q, W) -> None:
    if sum(Q) >= sum(W):
        raise ValueError("phase space requires sum(Q) < sum(W)")


@dataclass(frozen=True)
class TodaState:
    Q: tuple[Exact, ...]  # int when integral, else Fraction
    W: tuple[Exact, ...]

    def __post_init__(self):
        object.__setattr__(self, "Q", tuple(map(exact, self.Q)))
        object.__setattr__(self, "W", tuple(map(exact, self.W)))
        if len(self.Q) != len(self.W) or not self.Q:
            raise ValueError("Q and W must have equal positive length")
        _require_phase_space(self.Q, self.W)

    @property
    def N(self) -> int:
        return len(self.Q)

    @classmethod
    def make(cls, Q, W) -> "TodaState":
        return cls(Q, W)

    @classmethod
    def from_flat(cls, flat) -> "TodaState":
        """(Q_1, W_1, Q_2, W_2, ...) -> state."""
        if len(flat) % 2:
            raise ValueError("flat vector must have even length")
        return cls.make(flat[0::2], flat[1::2])

    def flat(self) -> tuple[Exact, ...]:
        out = []
        for q, w in zip(self.Q, self.W):
            out.extend((q, w))
        return tuple(out)


def evolve_toda(s: TodaState) -> TodaState:
    """One time step: Q'_j = min(W_j, Q_j - X_j), W'_j = Q_{j+1} + W_j - Q'_j,
    with X_j the minimum of 0 and the partial sums of W - Q read backwards
    from j, fewer than N terms long.

    As sum(W - Q) > 0, longer reads never go lower, so
    X_j = min(0, X_{j-1} + W_{j-1} - Q_{j-1}): a running minimum started at 0
    is exact from its N-th step: one toda_pass round the cycle from 0 gives
    X_1, and a second from X_1 gives the step.  O(N).

    Q'_j = Q_j - X_j + X_{j+1}, so the step keeps sum(Q) and sum(W) and its
    result is a valid state; exact turns an integral Fraction into an int."""
    N = s.N
    _, x1 = toda_pass(s.Q, s.W)
    Qn, _ = toda_pass(s.Q, s.W, x1)
    Wn = [s.Q[(j + 1) % N] + s.W[j] - Qn[j] for j in range(N)]
    return trusted(TodaState, Q=tuple(map(exact, Qn)), W=tuple(map(exact, Wn)))


def _path_minima(values) -> list:
    """m[k] = least sum of k pairwise non-adjacent entries of the path
    `values`, for each attainable k = 0..ceil(len(values) / 2).  With a and b
    the minima of the path short of its last two entries and of its last,
    appending v gives min(b[k], a[k-1] + v), and a[-1] + v alone for a new k."""
    a, b = [0], [0]
    for v in values:
        c = [0, *map(min, b[1:], [x + v for x in a])]
        if len(a) == len(b):
            c.append(a[-1] + v)
        a, b = b, c
    return b


def conserved(s: TodaState, k: int) -> Exact:
    """Conserved quantity H_k, 1 <= k <= N+1.

    H_k for k <= N is the minimum of sum over k-element subsets of
    {Q_1..Q_N, W_1..W_N} containing no pair {W_j, Q_j} or {W_j, Q_{j+1}};
    H_{N+1} = sum(Q) + sum(W).  Read from conserved_all, O(N^2).
    """
    require_int("k", k)
    if not 1 <= k <= s.N + 1:
        raise ValueError("k out of range")
    return conserved_all(s)[k - 1]


def conserved_all(s: TodaState) -> tuple[Exact, ...]:
    """C = (H_1, ..., H_{N+1}).

    The forbidden pairs are exactly the neighbours on the cycle
    Q_1 W_1 Q_2 W_2 ... Q_N W_N, so H_k (k <= N) is its minimum-weight
    independent k-set.  The cycle is closed by two path problems: Q_1 unused
    leaves the path W_1 Q_2 ... Q_N W_N; Q_1 used excludes both its
    neighbours and leaves Q_2 W_2 ... Q_N, with every k <= N and k <= N - 1
    attainable.  One pass each, O(N^2) in all.
    """
    cycle = s.flat()
    without_q1 = _path_minima(cycle[1:])
    with_q1 = _path_minima(cycle[2:-1])
    H = [min(without_q1[k], with_q1[k - 1] + s.Q[0]) for k in range(1, s.N + 1)]
    return tuple(map(exact, H + [sum(s.Q) + sum(s.W)]))


def shift_s(s: TodaState) -> TodaState:
    """Cyclic pair rotation (Q_1,W_1,...) -> (Q_2,W_2,...,Q_1,W_1); s^N = id.
    It moves exact coordinates and keeps both sums, so nothing is re-checked."""
    return trusted(TodaState, Q=s.Q[1:] + s.Q[:1], W=s.W[1:] + s.W[:1])


def s_equivalent(a: TodaState, b: TodaState) -> bool:
    """True iff b is a power of the pair-rotation applied to a."""
    return any(a.Q[k:] + a.Q[:k] == b.Q and a.W[k:] + a.W[:k] == b.W for k in range(a.N))


@dataclass(frozen=True)
class SpectralData:
    # each value an int when it is integral, else an exact rational
    C: tuple[Exact, ...]
    L: Exact
    lam: tuple[Exact, ...]  # lambda_0 = 0, lambda_1, ..., lambda_{N-1}
    eta: tuple[Exact, ...]  # eta_0 = L, eta_1, ..., eta_{N-1}
    Omega: PeriodMatrix | None  # None iff the curve is not smooth

    @property
    def smooth(self) -> bool:
        return self.Omega is not None


def spectral_data(C) -> SpectralData:
    """Spectral data of the tropical curve for conserved values C = (C_1..C_{N+1}).

    lambda_k = C_{k+1} - C_k; eta_k = L - 2 sum_j min(lambda_k, lambda_j) are the
    curve's vacancies, read like the vacancies p_i = L - 2 q_i of a rigged
    configuration from kkr.q_sum, over lambda_1..lambda_{N-1} each of
    multiplicity 1.  The curve is smooth iff the lambdas are strictly
    increasing and every eta_k is positive, in which case the (N-1)x(N-1)
    period matrix is the tridiagonal Omega below, a PeriodMatrix (empty at N = 1):
    each diagonal entry exceeds its row's other entries in size by at least
    2 (lambda_i - lambda_{i-1}) > 0, so Omega is positive definite.
    """
    C = tuple(map(exact, C))
    N = len(C) - 1
    if N < 1:
        raise ValueError("need at least C_1, C_2")
    L = exact(C[N] - 2 * (N - 1) * C[0])
    lam = [0] + [exact(C[k] - C[k - 1]) for k in range(1, N)]
    lams = lam[1:]
    eta = [L] + [exact(L - 2 * q_sum(lams, repeat(1), x)) for x in lams]
    g = N - 1
    Omega = None
    if all(a < b for a, b in zip(lam, lams)) and all(e > 0 for e in eta[1:]):
        rows = [[0] * g for _ in range(g)]
        for i in range(1, g + 1):
            rows[i - 1][i - 1] = eta[i - 1] + eta[i] + 2 * (lam[i] - lam[i - 1])
            if i + 1 <= g:
                rows[i - 1][i] = -eta[i]
                rows[i][i - 1] = -eta[i]
        Omega = PeriodMatrix(rows)
    return SpectralData(C, L, tuple(lam), tuple(eta), Omega)


@lru_cache(maxsize=1)
def _theta_sites(Z0: tuple, C: tuple):
    """(Q_n^t, W_n^t) for a range of n at time t, with the spectral data and the
    period matrix of C built once.  Every theta argument is b / (s u) for
    integers b, with s the period matrix's denominator lcm and u the lcm of
    the denominators of Z0, the velocity, L and C_1; each site value is an
    integer sum over 2 s u, an int when 2 s u divides it, else one Fraction.

    The scaled thetas T(t, n) = 2 s u Theta(b(t, n) / (s u)) of time t form
    one row of N values, r = n mod N.  On a smooth curve Omega m = N L e_1 for
    m = (g, ..., 1): row 1 is (L + eta_1 + 2 lambda_1)(N - 1) - eta_1 (N - 2)
    = N L as eta_1 = L - 2 (N - 1) lambda_1, and row i > 1 is
    eta_i - eta_{i-1} + 2 (N - i)(lambda_i - lambda_{i-1}) = 0.  So column
    r + k N is column r translated by -k Omega m, and quasi-periodicity,
    Theta(Z + Omega m) = Theta(Z) - m.(Omega m / 2 + Z), gives it exactly:
    T(t, r + k N) = T(t, r) + 2 k m.b(t, r) - k^2 N g s u L.  The sites of
    time t read rows t and t + 1 only, and the two rows the last call read
    are kept, so a run of consecutive times costs one row of N thetas each.
    Memoized on the last exact (Z0, C): a trajectory builds its sites once."""
    sd = spectral_data(C)
    if sd.Omega is None:
        raise ValueError("spectral curve is not smooth")
    Omega, g = sd.Omega, sd.Omega.g
    if len(Z0) != g:
        raise ValueError(f"Z0 must have len(C) - 2 = {g} entries, got {len(Z0)}")
    vel = tuple(sd.lam[i + 1] - sd.lam[i] for i in range(g))
    C1 = sd.C[0]
    u = lcm(*(x.denominator for x in Z0 + vel + (sd.L, C1)))
    su = Omega.s * u

    def scaled(x: Exact) -> int:
        return x.numerator * (su // x.denominator)

    b0, v, shift = [scaled(z) for z in Z0], [scaled(x) for x in vel], scaled(sd.L)
    N, m = g + 1, range(g, 0, -1)
    period = N * g * shift
    rows: dict[int, list[tuple[int, int]]] = {}  # the last call's two rows

    def row(tt: int) -> list[tuple[int, int]]:
        """[(T(tt, r), 2 m.b(tt, r)) for r < N], N thetas unless held."""
        if tt in rows:
            return rows[tt]
        base = [b0[i] + v[i] * tt for i in range(g)]
        bs = [(*[x - shift * r for x in base[:1]], *base[1:]) for r in range(N)]
        return [(_argmin_int(b, u, Omega)[0], 2 * sum(map(mul, m, b))) for b in bs]

    def T(held: list[tuple[int, int]], n: int) -> int:
        k, r = divmod(n, N)
        return held[r][0] + k * (held[r][1] - k * period)

    q_const, w_const = 2 * scaled(C1), 2 * scaled(sd.L + C1)
    den = 2 * su

    def over_den(num: int) -> Exact:
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q

    def sites(t: int, first: int, last: int) -> list[tuple[Exact, Exact]]:
        """(Q_n^t, W_n^t) for first <= n <= last, each T read once."""
        nonlocal rows
        rows = {t: row(t), t + 1: row(t + 1)}
        now = [T(rows[t], n) for n in range(first - 1, last + 2)]
        nxt = [T(rows[t + 1], n) for n in range(first - 1, last + 1)]
        return [
            (
                over_den(now[i] + nxt[i + 1] - nxt[i] - now[i + 1] + q_const),
                over_den(nxt[i] + now[i + 2] - now[i + 1] - nxt[i + 1] + w_const),
            )
            for i in range(last - first + 1)
        ]

    return sites


def theta_solution(Z0, C, t: int, n: int) -> tuple[Exact, Exact]:
    """(Q_n^t, W_n^t) of the theta-function general solution.

    T_n^t = Theta(Z0 + velocity*t - L e_1 n) with velocity
    (lambda_1, lambda_2 - lambda_1, ...); requires integer t and n (not
    bools), a smooth spectral curve and len(Z0) == len(C) - 2 (the genus),
    else ValueError.
    """
    require_int("t", t)
    require_int("n", n)
    # exact before the memo, whose keys compare by value: 1.0 would hit 1's entry
    return _theta_sites(tuple(map(exact, Z0)), tuple(map(exact, C)))(t, n, n)[0]


def theta_state(Z0, C, t: int) -> TodaState:
    """Full state at time t from the theta solution (same conditions as
    theta_solution)."""
    require_int("t", t)
    # site values are already exact: only the phase space is checked
    Q, W = zip(*_theta_sites(tuple(map(exact, Z0)), tuple(map(exact, C)))(t, 1, len(C) - 1))
    _require_phase_space(Q, W)
    return trusted(TodaState, Q=Q, W=W)


def embed_pbbs(word, leftmost: int = 0) -> TodaState:
    """Embed a periodic sl2 box-ball state into Toda coordinates.

    word: a PeriodicState, or a cyclic word over {1, 2} that bbs.letters
    reads (text with '.' = 1, or a sequence of ints); leftmost, taken
    mod L as in PeriodicState.shifted, selects the distinguished box.  Runs
    are read from that box: Q_1 is the leading ball run (0 if the box is
    empty), then alternating empty/ball run lengths; the result always has
    Q_1 = 0 or W_N = 0.
    """
    from boxball.pbbs import PeriodicState

    cells = word.cells if isinstance(word, PeriodicState) else letters(word, 2)
    require_int("leftmost", leftmost)
    leftmost %= len(cells) or 1  # the empty word keeps its error below
    cells = cells[leftmost:] + cells[:leftmost]
    # N = 1 + number of cyclic ball runs (= 1 + soliton count of the isolevel set);
    # a ball run wrapping the distinguished box splits linearly into Q_1 and Q_N
    N = 1 + sum(a == 1 and b == 2 for a, b in zip(cells, cells[1:] + cells[:1]))
    if N == 1 and 2 in cells:
        raise ValueError("state has no empty box; not embeddable")
    runs = [len(list(run)) for _, run in groupby(cells)]
    if cells and cells[0] == 1:
        runs.insert(0, 0)  # Q_1 = 0 when the box is empty
    runs += [0] * (2 * N - len(runs))
    return TodaState(tuple(runs[0::2]), tuple(runs[1::2]))
