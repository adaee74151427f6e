"""Differential tests of the cycle dynamic program behind troptoda.conserved_all
and of the theta-function solution at genus 4 and 5.

The oracle is the direct definition: H_k is the minimum over all C(2N, k)
subsets of {Q_1..Q_N, W_1..W_N} containing no pair {W_j, Q_j} or
{W_j, Q_{j+1}} (cyclically), and H_{N+1} = sum(Q) + sum(W).
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from boxball.troptoda import (
    TodaState,
    conserved,
    conserved_all,
    evolve_toda,
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


@pytest.mark.parametrize(
    "C, Z0", [((0, 1, 4, 9), (1,)), ((0, 1, 4, 9), (1, 2, 3)), ((0, 3, 8), (9, 4)), ((0, 3, 8), ())]
)
def test_theta_solution_rejects_wrong_z0_length(C, Z0):
    with pytest.raises(ValueError, match="Z0 must have"):
        theta_state(Z0, C, 0)
    with pytest.raises(ValueError, match="Z0 must have"):
        theta_solution(Z0, C, 0, 1)
