"""Differential tests of the cycle dynamic program behind troptoda.conserved_all,
of the running-minimum evolve_toda, and of the theta-function solution at
genus 4 and 5.

The oracles are the direct definitions: H_k is the minimum over all C(2N, k)
subsets of {Q_1..Q_N, W_1..W_N} containing no pair {W_j, Q_j} or
{W_j, Q_{j+1}} (cyclically), and H_{N+1} = sum(Q) + sum(W); X_j in the time
step is the minimum of 0 and every backward partial sum of W - Q, each
found by its own O(N) scan; a theta-solution site value is the sum of four
Fraction values of the public theta.  The library holds a value as an int
when it is integral; all-Fraction copies of the step, the conserved values,
the spectral data and the theta state check that only the type changes.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from types import SimpleNamespace

import pytest

from boxball import troptoda
from boxball.theta import PeriodMatrix, theta
from boxball.troptoda import (
    TodaState,
    _theta_sites,
    conserved,
    conserved_all,
    evolve_toda,
    shift_s,
    spectral_data,
    theta_solution,
    theta_state,
)

F = Fraction


def _allowed(N, subset):
    chosen_q = {i for kind, i in subset if kind == 0}
    for kind, j in subset:
        if kind == 1 and (j in chosen_q or (j + 1) % N in chosen_q):
            return False
    return True


def oracle_conserved(s, k):
    N = s.N
    if k == N + 1:
        return sum(s.Q) + sum(s.W)
    items = [(0, i) for i in range(N)] + [(1, i) for i in range(N)]
    best = None
    for subset in combinations(items, k):
        if _allowed(N, subset):
            v = sum(s.Q[i] if kind == 0 else s.W[i] for kind, i in subset)
            if best is None or v < best:
                best = v
    return best


def oracle_conserved_all(s):
    return tuple(oracle_conserved(s, k) for k in range(1, s.N + 2))


def test_exhaustive_small_states():
    count = 0
    for N in (1, 2, 3):
        for entries in product(range(4), repeat=2 * N):
            Q, W = entries[:N], entries[N:]
            if sum(Q) >= sum(W):
                continue
            s = TodaState.make(Q, W)
            assert conserved_all(s) == oracle_conserved_all(s), (Q, W)
            count += 1
    assert count > 1500


def test_random_states_every_k():
    rng = random.Random(61)
    for _ in range(300):
        N = rng.randint(1, 8)
        while True:
            Q = [F(rng.randint(-8, 10), rng.choice((1, 2))) for _ in range(N)]
            W = [F(rng.randint(-8, 10), rng.choice((1, 2))) for _ in range(N)]
            if sum(Q) < sum(W):
                break
        s = TodaState(tuple(Q), tuple(W))
        expect = oracle_conserved_all(s)
        assert conserved_all(s) == expect
        for k in range(1, N + 2):
            assert conserved(s, k) == expect[k - 1]
        for k in (0, N + 2):
            with pytest.raises(ValueError, match="k out of range"):
                conserved(s, k)


def test_conserved_all_large_n_is_fast():
    rng = random.Random(62)
    N = 200
    s = TodaState.make(
        [F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(N)],
        [F(rng.randint(5, 15), rng.randint(1, 3)) for _ in range(N)],
    )
    start = time.process_time()
    C = conserved_all(s)
    assert time.process_time() - start < 2
    assert len(C) == N + 1 and C[0] == min(s.Q + s.W)
    assert C[N - 1] == min(sum(s.Q), sum(s.W))  # the two alternating N-sets


def frac_evolve(Q, W):
    """The time step with every value a Fraction, X_j by its own backward scan,
    O(N^2)."""
    Q, W = [F(q) for q in Q], [F(w) for w in W]
    N = len(Q)
    Qn = []
    for j in range(N):
        acc = X = F(0)
        for k in range(1, N):
            acc += W[(j - k) % N] - Q[(j - k) % N]
            X = min(X, acc)
        Qn.append(min(W[j], Q[j] - X))
    return Qn, [Q[(j + 1) % N] + W[j] - Qn[j] for j in range(N)]


def oracle_evolve_toda(s):
    return TodaState(*frac_evolve(s.Q, s.W))


def test_evolve_toda_matches_quadratic_scan():
    rng = random.Random(64)
    for _ in range(400):
        N = rng.randint(1, 12)
        while True:
            Q = [F(rng.randint(-8, 10), rng.choice((1, 2))) for _ in range(N)]
            W = [F(rng.randint(-8, 10), rng.choice((1, 2))) for _ in range(N)]
            if sum(Q) < sum(W):
                break
        s = TodaState(tuple(Q), tuple(W))
        for _ in range(3):
            nxt = evolve_toda(s)
            assert nxt == oracle_evolve_toda(s), s
            s = nxt


def test_evolve_toda_large_n():
    rng = random.Random(65)
    N = 400
    s = TodaState.make(
        [F(rng.randint(-5, 9), rng.randint(1, 2)) for _ in range(N)],
        [F(rng.randint(-2, 15), rng.randint(1, 2)) for _ in range(N)],
    )
    start = time.process_time()
    got = evolve_toda(s)
    assert time.process_time() - start < 0.2
    assert got == oracle_evolve_toda(s)


def _smooth_problem(rng, N):
    """A smooth C with C_1 = 0 (a state translated to min(Q, W) = 0)."""
    while True:
        Q = [rng.randint(0, 12) for _ in range(N)]
        W = [rng.randint(0, 12) for _ in range(N)]
        low = min(Q + W)
        Q, W = [q - low for q in Q], [w - low for w in W]
        if sum(Q) < sum(W):
            C = conserved_all(TodaState.make(Q, W))
            if spectral_data(C).smooth:
                return C


@pytest.mark.parametrize("N", [5, 6])
def test_theta_solution_high_genus(N):
    rng = random.Random(63 + N)
    for _ in range(2):
        C = _smooth_problem(rng, N)
        assert C[0] == 0
        Z0 = tuple(F(rng.randint(-30, 30), rng.choice((1, 2))) for _ in range(N - 1))
        s = theta_state(Z0, C, 0)
        for t in range(1, 4):
            s = evolve_toda(s)
            assert theta_state(Z0, C, t) == s
        assert conserved_all(s) == C


def oracle_theta_solution(Z0, C, t, n):
    """The defining formula, each theta a Fraction from boxball.theta.theta."""
    L, lam, _, Omega = frac_spectral_data(C)
    g = len(C) - 2
    Xi = PeriodMatrix(Omega)
    vel = [lam[i + 1] - lam[i] for i in range(g)]

    def T(tt, nn):
        return theta(tuple(F(Z0[i]) + vel[i] * tt - (L * nn if i == 0 else 0) for i in range(g)), Xi)

    C1 = F(C[0])
    Q = T(t, n - 1) + T(t + 1, n) - T(t + 1, n - 1) - T(t, n) + C1
    W = T(t + 1, n - 1) + T(t, n + 1) - T(t, n) - T(t + 1, n) + L + C1
    return Q, W


def test_theta_sites_match_public_theta():
    # rational C (C_1 != 0 included) and Z0; in the first case only C_1 has
    # denominator 3, so the integer site sums must scale by it too
    rng = random.Random(66)
    cases = [((F(1, 3), F(10, 3), F(26, 3)), (F(5),))]
    while len(cases) < 40:
        N = rng.randint(2, 4)
        Q = [F(rng.randint(-6, 9), rng.randint(1, 3)) for _ in range(N)]
        W = [F(rng.randint(-6, 9), rng.randint(1, 3)) for _ in range(N)]
        if sum(Q) < sum(W):
            C = conserved_all(TodaState(tuple(Q), tuple(W)))
            if spectral_data(C).smooth:
                cases.append((C, tuple(F(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(N - 1))))
    for C, Z0 in cases:
        N = len(C) - 1
        # sites outside 1..N read the theta rows through their N-periodicity
        for t in range(7):
            for n in range(-2 * N, 3 * N + 1):
                assert theta_solution(Z0, C, t, n) == oracle_theta_solution(Z0, C, t, n), (C, Z0)


def _smooth_curves(rng, count):
    """Smooth C from random states: integral with C_1 != 0, or rational."""
    out = []
    while len(out) < count:
        Q, W = _draw_state(rng, rational=len(out) % 2 == 1)
        C = conserved_all(TodaState.make(Q, W))
        if len(C) > 2 and spectral_data(C).smooth:
            out.append(C)
    return out


def test_period_matrix_maps_g_to_1_onto_N_L_e1():
    # Omega (g, ..., 1) = N L e_1 on every smooth curve: the identity behind
    # the theta rows' N-periodicity in n, checked in Fraction
    curves = _smooth_curves(random.Random(70), 60)
    assert any(C[0] != 0 and type(C[0]) is int for C in curves)
    assert any(type(c) is F for C in curves for c in C)
    for C in curves:
        L, _, _, Omega = frac_spectral_data(C)
        N = len(C) - 1
        g = N - 1
        m = range(g, 0, -1)
        assert [sum(map(mul, row, m)) for row in Omega] == [N * L] + [0] * (g - 1), C


@pytest.fixture
def thetas(monkeypatch):
    """The argument of every theta the Toda sites compute (_argmin_int calls),
    from cold sites."""
    calls, argmin_int = [], troptoda._argmin_int

    def counted(*args, **kwargs):
        calls.append(args)
        return argmin_int(*args, **kwargs)

    monkeypatch.setattr(troptoda, "_argmin_int", counted)
    _theta_sites.cache_clear()
    yield calls
    _theta_sites.cache_clear()


def test_cold_trajectory_computes_six_rows_of_n_thetas(thetas):
    # theta_state(t) reads rows t and t + 1, N thetas each, and the sites keep
    # the two rows the last state read; genus 1 is no exception
    rng = random.Random(71)
    for N in (2, 3, 4, 5):
        C = _smooth_problem(rng, N)
        Z0 = tuple(rng.randint(-20, 20) for _ in range(N - 1))
        _theta_sites.cache_clear()
        thetas.clear()
        states = [theta_state(Z0, C, t) for t in range(5)]
        assert len(thetas) == 6 * N
        for a, b in zip(states, states[1:]):
            assert evolve_toda(a) == b


def test_backward_trajectory_equals_forward(thetas):
    # read from t = 4 down to 0 a trajectory computes the same 6 rows; every
    # site of the last time read, n outside 1..N included, costs no theta
    rng = random.Random(72)
    for N in (2, 3, 4):
        C = _smooth_problem(rng, N)
        Z0 = tuple(rng.randint(-20, 20) for _ in range(N - 1))
        _theta_sites.cache_clear()
        forward = [theta_state(Z0, C, t) for t in range(5)]
        _theta_sites.cache_clear()
        thetas.clear()
        backward = [theta_state(Z0, C, t) for t in range(4, -1, -1)]
        assert backward[::-1] == forward
        assert len(thetas) == 6 * N
        sites = [theta_solution(Z0, C, 0, n) for n in range(-2 * N, 3 * N + 1)]
        assert len(thetas) == 6 * N
        assert sites[2 * N + 1 : 3 * N + 1] == list(zip(forward[0].Q, forward[0].W))


@pytest.mark.parametrize(
    "C, Z0", [((0, 1, 4, 9), (1,)), ((0, 1, 4, 9), (1, 2, 3)), ((0, 3, 8), (9, 4)), ((0, 3, 8), ())]
)
def test_theta_solution_rejects_wrong_z0_length(C, Z0):
    with pytest.raises(ValueError, match="Z0 must have"):
        theta_state(Z0, C, 0)
    with pytest.raises(ValueError, match="Z0 must have"):
        theta_solution(Z0, C, 0, 1)


# --- the int-when-integral representation against an all-Fraction oracle ---


def frac_conserved_all(Q, W):
    s = SimpleNamespace(N=len(Q), Q=[F(q) for q in Q], W=[F(w) for w in W])
    return tuple(oracle_conserved(s, k) for k in range(1, s.N + 2))


def frac_spectral_data(C):
    """(L, lambda, eta, Omega) from the defining formulas in Fraction."""
    C = [F(c) for c in C]
    N = len(C) - 1
    L = C[N] - 2 * (N - 1) * C[0]
    lam = [F(0)] + [C[k] - C[k - 1] for k in range(1, N)]
    eta = [L] + [L - 2 * sum(min(lam[k], lam[j]) for j in range(1, N)) for k in range(1, N)]
    g = N - 1
    Omega = [[F(0)] * g for _ in range(g)]
    for i in range(g):
        Omega[i][i] = eta[i] + eta[i + 1] + 2 * (lam[i + 1] - lam[i])
        if i + 1 < g:
            Omega[i][i + 1] = Omega[i + 1][i] = -eta[i + 1]
    return L, lam, eta, Omega


def frac_theta_state(Z0, C, t):
    """The flat theta-solution state from oracle_theta_solution."""
    return tuple(v for n in range(1, len(C)) for v in oracle_theta_solution(Z0, C, t, n))


def assert_exact(values):
    """Every value an int when integral, else a Fraction; never a float."""
    for v in values:
        assert type(v) is (int if F(v).denominator == 1 else F), (v, type(v))


def _draw_state(rng, rational):
    N = rng.randint(1, 6)
    while True:
        if rational:
            Q = [F(rng.randint(-8, 10), rng.randint(1, 3)) for _ in range(N)]
            W = [F(rng.randint(-8, 12), rng.randint(1, 3)) for _ in range(N)]
        else:
            Q = [rng.randint(-8, 10) for _ in range(N)]
            W = [rng.randint(-8, 12) for _ in range(N)]
        if sum(Q) < sum(W):
            return Q, W


@pytest.mark.parametrize("rational", [False, True])
def test_int_path_matches_fraction_oracle(rational):
    rng = random.Random(67 + rational)
    for _ in range(60):
        Q, W = _draw_state(rng, rational)
        s = TodaState.make(Q, W)
        assert_exact(s.flat())
        C = conserved_all(s)
        assert_exact(C)
        assert C == frac_conserved_all(Q, W)
        for _ in range(3):
            Q, W = frac_evolve(Q, W)
            s = evolve_toda(s)
            assert_exact(s.flat())
            assert s.Q == tuple(Q) and s.W == tuple(W)
        sd = spectral_data(C)
        # Omega is the curve's PeriodMatrix on every smooth curve, genus 0 included
        assert sd.smooth == (sd.Omega is not None)
        values = sd.C + (sd.L,) + sd.lam + sd.eta + sum(() if sd.Omega is None else sd.Omega.rows, ())
        # ints for an integral C, exact rationals otherwise
        integral = all(type(c) is int for c in C)
        assert all(type(v) in ((int,) if integral else (int, F)) for v in values)
        L, lam, eta, Omega = frac_spectral_data(C)
        assert (sd.L, sd.lam, sd.eta) == (L, tuple(lam), tuple(eta))
        if sd.smooth:
            assert type(sd.Omega) is PeriodMatrix and sd.Omega.rows == tuple(map(tuple, Omega))


def test_fraction_states_stay_exact_under_step_and_shift():
    # Fraction arithmetic can land on an integral Fraction: the step normalises
    # it to an int, and the pair rotation moves exact coordinates unchanged
    s = TodaState.make([F(1, 2), F(3, 2)], [F(5, 2), F(3, 1)])
    assert_exact(s.flat())
    nxt = evolve_toda(s)
    assert_exact(nxt.flat())
    assert (nxt.Q, nxt.W) == tuple(map(tuple, frac_evolve(s.Q, s.W)))
    assert int in map(type, nxt.flat())
    rng = random.Random(72)
    for _ in range(60):
        Q, W = _draw_state(rng, rational=True)
        s = TodaState.make(Q, W)
        for _ in range(3):
            Q, W = frac_evolve(Q, W)
            s = evolve_toda(s)
            assert_exact(s.flat())
            assert s.Q == tuple(Q) and s.W == tuple(W)
            s, Q, W = shift_s(s), Q[1:] + Q[:1], W[1:] + W[:1]
            assert_exact(s.flat())
            assert s.Q == tuple(Q) and s.W == tuple(W)


def test_theta_state_matches_fraction_oracle_cold_and_warm(thetas):
    # rational Z0 or C, or an integral C with C_1 != 0
    rng = random.Random(69)
    cases = []
    while len(cases) < 24:
        rational = len(cases) % 2 == 0
        Q, W = _draw_state(rng, rational)
        if len(Q) < 2 or len(Q) > 4:
            continue
        C = conserved_all(TodaState.make(Q, W))
        if not spectral_data(C).smooth or not (rational or C[0] != 0):
            continue
        den = rng.choice((1, 2, 3)) if rational else 1
        cases.append((tuple(F(rng.randint(-20, 20), den) for _ in range(len(Q) - 1)), C))
    for Z0, C in cases:
        N = len(C) - 1
        _theta_sites.cache_clear()
        thetas.clear()
        cold = [theta_state(Z0, C, t) for t in range(3)]
        assert len(thetas) == 4 * N  # rows 0..3
        assert theta_state(Z0, C, 2) == cold[2] and len(thetas) == 4 * N  # rows 2, 3 kept
        warm = [theta_state(Z0, C, t) for t in range(3)]
        assert warm == cold and len(thetas) == 8 * N
        # spectral data and period matrix were built once for the trajectory
        assert _theta_sites.cache_info().misses == 1
        for t, s in enumerate(cold):
            assert_exact(s.flat())
            assert s.flat() == frac_theta_state(Z0, C, t), (Z0, C, t)
