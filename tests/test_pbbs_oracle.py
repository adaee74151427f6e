"""Differential tests of the periodic box-ball layer and the run encoders.

The functions prefixed old_ below are the straightforward versions the
library replaced: the scattering step written out separately for the action
variable, the angle variable and the internal symmetries; the fundamental
period from determinant ratios of F with a column replaced by h_l; the
lattice-point bounds from solving F s = corner at all 2^g corners of the box;
the inverse scattering search over every shift e in [0, L) with a box padded
by one around F^-1 of the target; the index-loop run encoders of
toda_coords, solitons and embed_pbbs; and canonicalize_scan, the slide-orbit
canonical form over all prod m_i window rotations, which is the oracle of
both canonicalize and angle_equal.
They serve as oracles: the library must return the same values, in the same
order, and raise on the same inputs.  Their determinants and linear solves
are the test-local Bareiss and Fraction eliminations of test_intmat_oracle.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxball import pbbs
from boxball.bbs import BBSState, solitons, toda_coords
from boxball.intmat import (
    column_hnf,
    det_int,
    divisors,
    lattice_points_in_box,
    lcm_of_fractions,
    reduce_mod_lattice,
)
from boxball.kkr import RiggedConfiguration, kkr_phi, kkr_phi_inv
from boxball.pbbs import (
    ActionVariable,
    AngleVariable,
    PeriodicState,
    _orbit_candidates,
    _scatter,
    _some_highest_rotation,
    _symmetry,
    action_variable,
    angle_equal,
    canonicalize,
    direct_scattering,
    evolve_angle,
    evolve_periodic,
    fundamental_period,
    internal_symmetry,
    inverse_scattering,
)
from boxball.troptoda import TodaState, embed_pbbs
from test_intmat_oracle import old_det_int, old_solve


def canonicalize_scan(J):
    """Every window rotation of the slide orbit, its first entries reduced
    modulo the Hermite form of F; the smallest resulting window tuple."""
    H = column_hnf(list(zip(*J.mu.F())))
    best = None
    for rotated in _orbit_candidates(J):
        base = [w[0] for w in rotated]
        residue = reduce_mod_lattice(base, H)
        adjusted = tuple(
            tuple(x - (b - rr) for x in w) for w, b, rr in zip(rotated, base, residue)
        )
        if best is None or adjusted < best:
            best = adjusted
    return AngleVariable(J.mu, best)


def old_action_variable(p):
    d, p_plus = _some_highest_rotation(p)
    rc = kkr_phi(p_plus.word(), rank=1)
    return ActionVariable(p.L, rc.mu(1))


def old_direct_scattering(p):
    d, p_plus = _some_highest_rotation(p)
    rc = kkr_phi(p_plus.word(), rank=1)
    mu = ActionVariable(p.L, rc.mu(1))
    windows = []
    for i in mu.I:
        riggings = sorted(r for j, r in rc.color(1) if j == i)
        windows.append(tuple(r + d for r in riggings))
    return canonicalize_scan(AngleVariable(mu, tuple(windows)))


def old_internal_symmetry(p):
    d, p_plus = _some_highest_rotation(p)
    rc = kkr_phi(p_plus.word(), rank=1)
    mu = ActionVariable(p.L, rc.mu(1))
    out = []
    for i, pi in zip(mu.I, mu.vacancies):
        w = sorted(r for j, r in rc.color(1) if j == i)
        m = len(w)
        gam = 1
        for cand in sorted(divisors(gcd(m, pi) if pi else m), reverse=True):
            step = m // cand
            inc = pi // cand
            ext = lambda a: w[a % m] + (a // m) * pi
            if all(ext(a + step) == ext(a) + inc for a in range(m)):
                gam = cand
                break
        out.append(gam)
    return tuple(out)


def old_fundamental_period(p, l):
    mu = old_action_variable(p)
    if not mu.I:
        return 1
    gamma = old_internal_symmetry(p)
    F = mu.F()
    g = mu.g
    h = list(mu.h(l))
    detF = old_det_int(F)
    ratios = []
    for j in range(g):
        Fj = [row[:] for row in F]
        for i in range(g):
            Fj[i][j] = h[i]
        dj = old_det_int(Fj)
        if dj == 0:
            continue
        ratios.append(Fraction(detF, gamma[j] * dj))
    if not ratios:
        raise ValueError("velocity vector cannot be trivial")
    return lcm_of_fractions(ratios)


def old_lattice_points_in_box(F_cols, lo, hi):
    g = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return
    F_rows = [[F_cols[j][i] for j in range(g)] for i in range(g)]
    corners = [old_solve(F_rows, corner) for corner in product(*zip(lo, hi))]
    los = [min(c[i] for c in corners) for i in range(g)]
    his = [max(c[i] for c in corners) for i in range(g)]
    ranges = [range(ceil(a) - 1, floor(b) + 2) for a, b in zip(los, his)]
    for s in product(*ranges):
        img = [sum(F_cols[k][i] * s[k] for k in range(g)) for i in range(g)]
        if all(lo[i] <= img[i] <= hi[i] for i in range(g)):
            yield s


def old_inverse_scattering(J):
    mu = J.mu
    L = mu.L
    I = mu.I
    g = len(I)
    vac = list(mu.vacancies)
    F = mu.F()
    F_inv = list(zip(*(old_solve(F, [int(i == j) for i in range(g)]) for j in range(g))))
    for rotated in _orbit_candidates(J):
        spans = [w[-1] - w[0] for w in rotated]
        if any(spans[i] > vac[i] for i in range(g)):
            continue
        bases = [w[0] for w in rotated]
        for e in range(L):
            target_lo = [e - bases[i] for i in range(g)]
            target_hi = [e - bases[i] + vac[i] - spans[i] for i in range(g)]
            for s in old_padded_lattice_points_in_box(F, F_inv, target_lo, target_hi):
                Fs = [sum(F[i][k] * s[k] for k in range(g)) for i in range(g)]
                windows = tuple(tuple(x + Fs[i] - e for x in rotated[i]) for i in range(g))
                rc = RiggedConfiguration.make(L, 1, [
                    [(i, x) for i, w in zip(I, windows) for x in w]
                ])
                if not rc.is_valid():
                    continue
                return PeriodicState.parse(kkr_phi_inv(rc)).shifted(e)
    raise ValueError("no rigged-configuration representative found; invalid angle data")


def old_padded_lattice_points_in_box(F, F_inv, lo, hi):
    g = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return
    ranges = []
    for row in F_inv:
        ends = [(f * l, f * h) for f, l, h in zip(row, lo, hi)]
        ranges.append(range(ceil(sum(map(min, ends))) - 1, floor(sum(map(max, ends))) + 2))
    for s in product(*ranges):
        img = [sum(F[i][k] * s[k] for k in range(g)) for i in range(g)]
        if all(lo[i] <= img[i] <= hi[i] for i in range(g)):
            yield s


def old_toda_coords(state):
    if state.rank != 1:
        raise ValueError("Toda coordinates are defined for sl2 states only")
    s = state.trimmed()
    i = 0
    runs = []
    while i < len(s.cells):
        if s.cells[i] == 1:
            i += 1
            continue
        j = i
        while j < len(s.cells) and s.cells[j] == 2:
            j += 1
        runs.append((i, j))
        i = j
    Q = [j - i for i, j in runs]
    W = [runs[k + 1][0] - runs[k][1] for k in range(len(runs) - 1)]
    return Q, W


def old_solitons(state):
    s = state.trimmed()
    runs = []
    i = 0
    cells = s.cells
    while i < len(cells):
        if cells[i] == 1:
            i += 1
            continue
        j = i
        while j < len(cells) and cells[j] != 1:
            j += 1
        runs.append((i, cells[i:j]))
        i = j
    out = []
    for k, (start, run) in enumerate(runs):
        if any(run[t] < run[t + 1] for t in range(len(run) - 1)):
            raise ValueError("run is not weakly decreasing; no canonical solitons")
        if k + 1 < len(runs):
            gap = runs[k + 1][0] - (start + len(run))
            if gap <= len(run):
                raise ValueError("solitons too close; no canonical decomposition")
        out.append((s.origin + start, "".join(str(c) for c in run)))
    return out


def old_embed_pbbs(cells, leftmost=0):
    L = len(cells)
    cells = cells[leftmost:] + cells[:leftmost]
    runs = []
    i = 0
    while i < L:
        j = i
        while j < L and cells[j] == cells[i]:
            j += 1
        runs.append((cells[i], j - i))
        i = j
    cyclic_runs = sum(1 for i in range(L) if cells[i] == 1 and cells[(i + 1) % L] == 2)
    if cyclic_runs == 0 and any(c == 2 for c in cells):
        raise ValueError("state has no empty box; not embeddable")
    N = cyclic_runs + 1
    Q = [Fraction(0)] * N
    W = [Fraction(0)] * N
    if runs and runs[0][0] == 2:
        qi, wi = 0, 0
        for v, ln in runs:
            if v == 2:
                Q[qi] = Fraction(ln)
                qi += 1
            else:
                W[wi] = Fraction(ln)
                wi += 1
    else:
        qi, wi = 1, 0
        for v, ln in runs:
            if v == 2:
                Q[qi] = Fraction(ln)
                qi += 1
            else:
                W[wi] = Fraction(ln)
                wi += 1
    if qi > N or wi > N:
        raise ValueError("more runs than the embedding dimension allows")
    return TodaState(tuple(Q), tuple(W))


def outcome(fn, *args):
    """The value fn returns, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def all_states(max_L):
    for L in range(1, max_L + 1):
        for M in range(L // 2 + 1):
            for balls in combinations(range(L), M):
                yield PeriodicState(tuple(2 if i in balls else 1 for i in range(L)))


def random_states(n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        L = rng.randint(20, 40)
        M = rng.randint(0, L // 2)
        balls = set(rng.sample(range(L), M))
        yield PeriodicState(tuple(2 if i in balls else 1 for i in range(L)))


def check_state(p):
    assert action_variable(p) == old_action_variable(p), p
    J = direct_scattering(p)
    assert J == old_direct_scattering(p), p
    assert internal_symmetry(p) == old_internal_symmetry(p), p
    for l in (1, 2, 3, None):
        assert fundamental_period(p, l) == old_fundamental_period(p, l), (p, l)
    assert inverse_scattering(J) == p, p
    assert inverse_scattering(evolve_angle(J, 2, 3)) == evolve_periodic(
        evolve_periodic(evolve_periodic(p, 2)[0], 2)[0], 2
    )[0], p
    for l, t in ((1, 1), (3, 2), (None, 4)):
        Jt = evolve_angle(J, l, t)
        assert inverse_scattering(Jt) == old_inverse_scattering(Jt), (p, l, t)


def test_scattering_matches_oracle_exhaustive():
    count = 0
    for p in all_states(10):
        check_state(p)
        count += 1
    assert count == 1198  # sum over L <= 10 of the words with at most L/2 balls


def test_scattering_matches_oracle_random():
    for p in random_states(200, seed=5):
        check_state(p)


def slide(J, n):
    """sigma^n from its definition: window i read n_i steps further along the
    extended rigging J_{i, a + m_i} = J_{i, a} + p_i, plus 2 sum_k min(i, i_k) n_k."""
    mu = J.mu
    windows = []
    for i, m, p, w, step in zip(mu.I, mu.mults, mu.vacancies, J.windows, n):
        add = 2 * sum(min(i, k) * nk for k, nk in zip(mu.I, n))
        windows.append(tuple(w[(a + step) % m] + (a + step) // m * p + add for a in range(m)))
    return AngleVariable(mu, tuple(windows))


def shift_window(J, k, d):
    """J with window k alone moved by d."""
    return AngleVariable(
        J.mu, tuple(tuple(x + d for x in w) if c == k else w for c, w in enumerate(J.windows))
    )


def test_slide_orbit_routines_match_scan_exhaustive():
    # every state with L <= 10 and every T_1-shift of its raw angle variable:
    # canonicalize returns the scan form, and angle_equal holds for two shifts
    # exactly when their scan forms agree
    pairs = equal = 0
    for p in all_states(10):
        shifts = [_scatter(p).uniform_shift(t) for t in range(p.L)]
        scans = [canonicalize_scan(A) for A in shifts]
        for A, scan in zip(shifts, scans):
            assert canonicalize(A) == scan, A
            for B, other in zip(shifts, scans):
                assert angle_equal(A, B) == (scan == other), (A, B)
                equal += scan == other
        pairs += p.L**2
    assert (pairs, equal) == (100241, 11607)


def test_angle_equal_rejects_partial_rotations():
    # gamma_k > 1: rotating window k by m_k / gamma_k moves it by p_k / gamma_k;
    # with the slide's additive part that is the same class, without it in
    # general another class of the same mu
    cases = unequal = 0
    for p in all_states(12):
        J = direct_scattering(p)
        mu = J.mu
        for k, (gam, m, p_k) in enumerate(zip(_symmetry(J), mu.mults, mu.vacancies)):
            if gam == 1:
                continue
            n = [m // gam if c == k else 0 for c in range(mu.g)]
            assert angle_equal(slide(J, n), J) and canonicalize(slide(J, n)) == J
            moved = shift_window(J, k, p_k // gam)
            scan = canonicalize_scan(moved)
            assert canonicalize(moved) == scan
            assert angle_equal(moved, J) == (scan == J), (J, k)
            cases += 1
            unequal += scan != J
    assert (cases, unequal) == (381, 277)


@st.composite
def repeated_part_angles(draw, max_g=14, max_rotations=128):
    """(J, n, k, d): an angle variable of genus <= max_g with repeated parts,
    prod m_i <= max_rotations and windows of drawn internal symmetry; a slide
    vector n; a color k and a shift d for one window."""
    g = draw(st.integers(1, max_g))
    sizes = sorted(draw(st.sets(st.integers(1, 3 * g), min_size=g, max_size=g)))
    mults = [1] * g
    for c in draw(st.lists(st.integers(0, g - 1), max_size=8)):
        if prod(mults) // mults[c] * (mults[c] + 1) <= max_rotations:
            mults[c] += 1
    parts = sorted((s for s, m in zip(sizes, mults) for _ in range(m)), reverse=True)
    mu = ActionVariable(2 * sum(parts) + draw(st.integers(0, 12)), tuple(parts))
    windows = []
    for m, p in zip(mu.mults, mu.vacancies):
        gam = draw(st.sampled_from([d for d in divisors(m) if p % d == 0]))
        step = p // gam
        base = draw(st.lists(st.integers(0, step), min_size=m // gam, max_size=m // gam))
        shift = draw(st.integers(-60, 60))
        windows.append(tuple(sorted(x + j * step + shift for j in range(gam) for x in base)))
    J = AngleVariable(mu, tuple(windows))
    n = draw(st.lists(st.integers(-5, 5), min_size=g, max_size=g))
    k = draw(st.integers(0, g - 1))
    d = draw(st.sampled_from([1, mu.vacancies[k] // _symmetry(J)[k]]))
    return J, n, k, d


@settings(max_examples=100, deadline=None)
@given(repeated_part_angles())
def test_slide_orbit_routines_match_scan_random(case):
    J, n, k, d = case
    scan = canonicalize_scan(J)
    assert canonicalize(J) == scan
    moved = slide(J, n)
    assert canonicalize(moved) == scan and angle_equal(J, moved)
    for other in (shift_window(moved, k, d), moved.uniform_shift(1)):
        other_scan = canonicalize_scan(other)
        assert canonicalize(other) == other_scan
        assert angle_equal(J, other) == (scan == other_scan)


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def test_lattice_points_match_corner_oracle():
    # the exact walk over the Hermite form of F Z^g, and over Lambda = F Z^g + Z 1,
    # against scans of the coefficient box that the corners of each box bound
    rng = random.Random(11)
    cases = points = 0
    for L in range(1, 17):
        for size in range(1, L // 2 + 1):
            for parts in partitions(size):
                mu = ActionVariable(L, parts)
                F = mu.F()
                g = mu.g
                F_cols = [[F[i][j] for i in range(g)] for j in range(g)]
                H = column_hnf(F_cols)
                H_ones = column_hnf(F_cols + [[1] * g])
                # F 1 = L 1 and 1 has order L modulo F Z^g
                assert det_int(H_ones) * L == det_int(F)
                assert all(not any(reduce_mod_lattice(v, H_ones)) for v in F_cols + [[1] * g])
                for _ in range(2):
                    # a box anywhere, and one around a lattice point F s0
                    s0 = [rng.randint(-3, 3) for _ in range(g)]
                    Fs0 = [sum(F[i][k] * s0[k] for k in range(g)) for i in range(g)]
                    for centre in ([rng.randint(-3 * L, 3 * L) for _ in range(g)], Fs0):
                        lo = [x - rng.randint(-1, L) for x in centre]
                        hi = [x + rng.randint(0, L) for x in centre]
                        got = list(lattice_points_in_box(H, lo, hi))
                        image = lambda s, e=0: tuple(
                            sum(F_cols[k][i] * s[k] for k in range(g)) - e for i in range(g)
                        )
                        assert got == sorted(
                            image(s) for s in old_lattice_points_in_box(F_cols, lo, hi)
                        ), (mu, lo, hi)
                        # u = F s - e 1 fixes e modulo L, so e in [0, L) lists each once
                        got = list(lattice_points_in_box(H_ones, lo, hi))
                        assert got == sorted(
                            image(s, e)
                            for e in range(L)
                            for s in old_lattice_points_in_box(
                                F_cols, [x + e for x in lo], [x + e for x in hi]
                            )
                        ), (mu, lo, hi)
                        cases += 1
                        points += len(got)
    assert cases == 1160 and points > cases


def test_column_hnf_of_generating_sets():
    assert column_hnf([]) == []
    assert column_hnf([[]]) == []
    assert column_hnf([[4], [6], [-10]]) == [[2]]
    assert column_hnf([[2, 1], [0, 3]]) == [[2, 1], [0, 3]]  # already triangular
    assert column_hnf([[0, 1], [1, 0], [1, 1]]) == [[1, 0], [0, 1]]
    for singular in ([[1, 2], [2, 4]], [[1, 0]], [[1, 1], [2, 2], [3, 3]]):
        with pytest.raises(ValueError, match="full rank"):
            column_hnf(singular)
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="columns must have equal length"):
            column_hnf(ragged)
    assert list(lattice_points_in_box([], [], [])) == [()]
    assert list(lattice_points_in_box([[2]], [3], [2])) == []


def random_genus8_states(n, seed, L=160):
    """States of genus-8 action variables: kkr_phi_inv of seeded random rigged
    configurations (any riggings in [0, p_i]), then a random shift."""
    rng = random.Random(seed)
    for _ in range(n):
        sizes = sorted(rng.sample(range(1, 12), 8))
        parts = list(sizes)
        while 2 * (sum(parts) + sizes[-1]) <= L:
            parts.append(rng.choice(sizes))
        mu = ActionVariable(L, tuple(sorted(parts, reverse=True)))
        vac = dict(zip(mu.I, mu.vacancies))
        rc = RiggedConfiguration.make(L, 1, [[(i, rng.randint(0, vac[i])) for i in parts]])
        yield PeriodicState.parse(kkr_phi_inv(rc)).shifted(rng.randrange(L))


def test_genus8_round_trip_at_L160():
    states = list(random_genus8_states(8, seed=160))
    assert {action_variable(p).g for p in states} == {8}
    for p in states:
        start = time.process_time()
        J = direct_scattering(p)
        assert inverse_scattering(J) == p
        assert time.process_time() - start < 0.5
        start = time.process_time()
        got = inverse_scattering(evolve_angle(J, 3, 5))
        assert time.process_time() - start < 0.5
        want = p
        for _ in range(5):
            want = evolve_periodic(want, 3)[0]
        assert got == want


def words(letters, max_L):
    for L in range(max_L + 1):
        yield from product(letters, repeat=L)


def test_run_encoders_match_oracle():
    for cells in words((1, 2), 12):
        s = BBSState(1, cells, origin=3)
        assert toda_coords(s) == old_toda_coords(s), cells
        assert outcome(solitons, s) == outcome(old_solitons, s), cells
        for leftmost in {0, len(cells) // 3}:
            assert outcome(embed_pbbs, cells, leftmost) == outcome(
                old_embed_pbbs, cells, leftmost
            ), (cells, leftmost)
    for cells in words((1, 2, 3), 8):
        s = BBSState(2, cells, origin=-2)
        assert outcome(solitons, s) == outcome(old_solitons, s), cells
    with pytest.raises(ValueError, match="sl2 states only"):
        toda_coords(BBSState(2, (3, 1, 2)))


def test_fundamental_period_runs_kkr_once(monkeypatch):
    calls = []

    def counting_phi(*args, **kwargs):
        calls.append(args)
        return kkr_phi(*args, **kwargs)

    monkeypatch.setattr(pbbs, "kkr_phi", counting_phi)
    p = PeriodicState.parse("1212111222")
    assert fundamental_period(p, 2) == 20
    assert len(calls) == 1


def test_period_of_t0_and_vacuum_is_one():
    # T_0 moves nothing, so every state is its own image; the oracle has no ratio
    p = PeriodicState.parse("1221121112")
    assert evolve_periodic(p, 0) == (p, 0)
    assert fundamental_period(p, 0) == 1
    with pytest.raises(ValueError, match="trivial"):
        old_fundamental_period(p, 0)
    assert fundamental_period(PeriodicState.parse("1111"), None) == 1
