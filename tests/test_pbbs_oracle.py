"""Differential tests of the periodic box-ball layer and the run encoders.

The functions prefixed old_ below are the straightforward versions the
library replaced: the scattering step written out separately for the action
variable, the angle variable and the internal symmetries; the fundamental
period from determinant ratios of F with a column replaced by h_l; the
lattice-point bounds from solving F s = corner at all 2^g corners of the box;
and the index-loop run encoders of toda_coords, solitons and embed_pbbs.
They serve as oracles: the library must return the same values, in the same
order, and raise on the same inputs.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd

import pytest

from boxball import pbbs
from boxball.bbs import BBSState, solitons, toda_coords
from boxball.intmat import det_int, divisors, lcm_of_fractions, solve
from boxball.kkr import kkr_phi
from boxball.pbbs import (
    ActionVariable,
    AngleVariable,
    PeriodicState,
    _lattice_points_in_box,
    _some_highest_rotation,
    action_variable,
    canonicalize,
    direct_scattering,
    evolve_angle,
    evolve_periodic,
    fundamental_period,
    internal_symmetry,
    inverse_scattering,
)
from boxball.troptoda import TodaState, embed_pbbs


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
    return canonicalize(AngleVariable(mu, tuple(windows)))


def old_internal_symmetry(p):
    d, p_plus = _some_highest_rotation(p)
    rc = kkr_phi(p_plus.word(), rank=1)
    mu = ActionVariable(p.L, rc.mu(1))
    out = []
    for i in mu.I:
        w = sorted(r for j, r in rc.color(1) if j == i)
        m = len(w)
        pi = mu.vacancy(i)
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
    detF = det_int(F)
    ratios = []
    for j in range(g):
        Fj = [row[:] for row in F]
        for i in range(g):
            Fj[i][j] = h[i]
        dj = det_int(Fj)
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
    corners = [solve(F_rows, corner) for corner in product(*zip(lo, hi))]
    los = [min(c[i] for c in corners) for i in range(g)]
    his = [max(c[i] for c in corners) for i in range(g)]
    ranges = [range(ceil(a) - 1, floor(b) + 2) for a, b in zip(los, his)]
    for s in product(*ranges):
        img = [sum(F_cols[k][i] * s[k] for k in range(g)) for i in range(g)]
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


def test_scattering_matches_oracle_exhaustive():
    count = 0
    for p in all_states(10):
        check_state(p)
        count += 1
    assert count == 1198  # sum over L <= 10 of the words with at most L/2 balls


def test_scattering_matches_oracle_random():
    for p in random_states(200, seed=5):
        check_state(p)


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def test_lattice_points_match_corner_oracle():
    rng = random.Random(11)
    cases = points = 0
    for L in range(1, 17):
        for size in range(1, L // 2 + 1):
            for parts in partitions(size):
                mu = ActionVariable(L, parts)
                F = mu.F()
                g = mu.g
                F_cols = [[F[i][j] for i in range(g)] for j in range(g)]
                F_inv = list(zip(*(solve(F, [int(i == j) for i in range(g)]) for j in range(g))))
                for _ in range(2):
                    # a box anywhere, and one around a lattice point F s0
                    s0 = [rng.randint(-3, 3) for _ in range(g)]
                    Fs0 = [sum(F[i][k] * s0[k] for k in range(g)) for i in range(g)]
                    for centre in ([rng.randint(-3 * L, 3 * L) for _ in range(g)], Fs0):
                        lo = [x - rng.randint(-1, L) for x in centre]
                        hi = [x + rng.randint(0, L) for x in centre]
                        got = list(_lattice_points_in_box(F, F_inv, lo, hi))
                        assert got == list(old_lattice_points_in_box(F_cols, lo, hi)), (mu, lo, hi)
                        cases += 1
                        points += len(got)
    assert cases == 1160 and points > cases


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
