"""Differential tests of the carrier pass and the sl2 Toda step.

The functions prefixed old_ below are the straightforward versions the
library replaced: the infinite evolution as one function call per box
(old_carrier_step), the periodic evolution as its own sl2 pass over a ball
count, and the Toda step with prefix sums recomputed for every soliton.
They serve as oracles: the library must return the same values and raise on
the same inputs.  The states the carrier and parse build skip the checks of
the BBSState constructor; they are compared here with states built the
checked way.
"""

import random
from itertools import product

import pytest

from boxball.bbs import BBSState, decode_word, evolve, toda_evolve
from boxball.crystal import rank_of
from boxball.pbbs import PeriodicState, evolve_periodic


def old_carrier_step(carrier, b, rank):
    pick = 0
    for a in range(b - 1, 0, -1):
        if carrier[a - 1] > 0:
            pick = a
            break
    if pick:
        h = 0
    else:
        h = 1
        for a in range(rank + 1, 0, -1):
            if carrier[a - 1] > 0:
                pick = a
                break
    carrier[pick - 1] -= 1
    carrier[b - 1] += 1
    return pick, h


def old_evolve(state, l=None):
    if l is not None and l < 0:
        raise ValueError("capacity l must be >= 0")
    n = state.rank
    s = state.trimmed()
    balls = s.balls()
    if balls == 0 or l == 0:
        return s, 0
    l_eff = l if l is not None else max(balls, 1)
    cells = list(s.cells) + [1] * (l_eff + balls + 2)
    carrier = [l_eff] + [0] * n
    out = []
    energy = 0
    for b in cells:
        emitted, h = old_carrier_step(carrier, b, n)
        out.append(emitted)
        energy += 1 - h
    if carrier[0] != l_eff or any(carrier[1:]):
        raise ValueError("carrier failed to empty; padding too small")
    return BBSState(n, tuple(out), s.origin).trimmed(), energy


def old_evolve_periodic(p, l=None):
    if l is not None and l < 0:
        raise ValueError("capacity l must be >= 0")
    M = p.balls
    if M == 0:
        return p, 0
    l_eff = l if l is not None else M

    def carrier_pass(load):
        out = []
        energy = 0
        c = load
        for b in p.cells:
            if b == 2:
                if c < l_eff:
                    c += 1
                    out.append(1)
                    energy += 1
                else:
                    out.append(2)
            else:
                if c > 0:
                    c -= 1
                    out.append(2)
                else:
                    out.append(1)
        return c, out, energy

    v, _, _ = carrier_pass(0)
    v2, out, energy = carrier_pass(v)
    if v2 != v:
        raise ValueError("carrier fixed point failed to close up")
    return PeriodicState(tuple(out)), energy


def old_toda_evolve(Q, W):
    N = len(Q)
    if len(W) != N - 1:
        raise ValueError("need len(W) == len(Q) - 1")
    Qn = []
    for j in range(N):
        acc = sum(Q[: j + 1]) - sum(Qn)
        Qn.append(min(acc, W[j]) if j < N - 1 else acc)
    Wn = [Q[j + 1] + W[j] - Qn[j] for j in range(N - 1)]
    return Qn, Wn


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def test_evolve_periodic_matches_sl2_pass_exhaustive():
    for L in range(1, 13):
        for cells in product((1, 2), repeat=L):
            if 2 * cells.count(2) > L:
                continue
            p = PeriodicState(cells)
            for l in (0, 1, 2, 3, 4, None):
                assert outcome(evolve_periodic, p, l) == outcome(old_evolve_periodic, p, l)


def test_evolve_matches_carrier_step_loop_random():
    rng = random.Random(8)
    for _ in range(1500):
        rank = rng.randint(1, 4)
        cells = tuple(rng.randint(1, rank + 1) for _ in range(rng.randint(0, 16)))
        s = BBSState(rank, cells, rng.randint(-5, 5))
        for l in (0, 1, 2, 4, rng.randint(1, 8), None):
            assert evolve(s, l) == old_evolve(s, l), (s, l)
    with pytest.raises(ValueError):
        evolve(BBSState(1, (2,)), -1)


def test_evolve_matches_carrier_step_loop_at_realistic_size():
    # evolve writes the carrier's tail from its exit load; old_evolve still
    # runs the padded per-box loop.  L = 100-300, three steps per capacity.
    rng = random.Random(14)
    for _ in range(40):
        rank = rng.randint(1, 3)
        density = rng.uniform(0.1, 0.7)
        cells = tuple(
            rng.randint(2, rank + 1) if rng.random() < density else 1
            for _ in range(rng.randint(100, 300))
        )
        s0 = BBSState(rank, cells, rng.randint(-50, 50))
        for l in (1, 3, rng.randint(1, 60), None):
            s = s0
            for _ in range(3):
                got = evolve(s, l)
                assert got == old_evolve(s, l), (s0, l)
                s = got[0]


def test_trusted_states_equal_the_checked_ones_on_every_small_word():
    # parse and evolve build their states unchecked, and trimmed() returns a
    # trimmed state itself; each must equal the state built the checked way
    origins = (0, -3, 4)
    for n in range(7):
        for word in map("".join, product(".123", repeat=n)):
            cells = tuple(decode_word(word))
            for rank in range(rank_of(cells), 3):
                for origin in origins:
                    s = BBSState.parse(word, rank, origin)
                    assert s == BBSState(rank, cells, origin).trimmed(), (word, rank, origin)
                    assert s.trimmed() is s
    for n in range(8):
        for i, letters in enumerate(product((1, 2, 3), repeat=n)):
            for rank in range(rank_of(letters), 3):
                s = BBSState(rank, letters, origins[i % 3])
                for l in (0, 1, 2, 3, None):
                    got = evolve(s, l)
                    assert got == old_evolve(s, l), (s, l)
                    assert got[0].trimmed() is got[0]


def test_toda_evolve_matches_prefix_sums():
    rng = random.Random(9)
    for _ in range(3000):
        N = rng.randint(1, 12)
        Q = [rng.randint(1, 6) for _ in range(N)]
        W = [rng.randint(1, 6) for _ in range(N - 1)]
        assert toda_evolve(Q, W) == old_toda_evolve(Q, W), (Q, W)
    Q = [rng.randint(1, 9) for _ in range(400)]
    W = [rng.randint(1, 9) for _ in range(399)]
    for _ in range(5):
        got = toda_evolve(Q, W)
        assert got == old_toda_evolve(Q, W)
        Q, W = got
