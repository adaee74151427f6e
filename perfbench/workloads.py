"""Seeded problem streams and oracle checks for the four benchmark workloads.

A workload is an endless stream of problems.  Problem i depends only on the
seed and i, so two processes given the same seed see the same problems in the
same order.  Problems come in blocks.  Which size classes (string counts,
carrier capacities, step counts, length slices, genera) block b holds is
fixed by b alone; the seed draws the states inside each class and their
order.  So runs with different seeds see the same mix of sizes, and their
timings can be compared.

Every problem is solved through boxball and checked against an independent
path the library already has.  A wrong answer raises Mismatch; the caller
counts it, and any exception, as a failure.  Library functions are always
reached through their module (kkr.solve_ivp, not a local name) so that the
span wrappers in spans.py see every call.
"""

from __future__ import annotations

import random

from boxball import bbs, kkr, pbbs, tau, troptoda

WORKLOADS = ("ivp", "tau", "periodic", "toda")


class Mismatch(Exception):
    """A solver's answer disagreed with its oracle."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _highest_word(rng: random.Random, L: int, rank: int, balls: int) -> str:
    """Random highest path of length L with exactly `balls` letters above 1,
    each drawn among the letters that keep every prefix dominant."""
    while True:
        ball_at = set(rng.sample(range(L), balls))
        counts = [0] * (rank + 1)
        out = []
        for i in range(L):
            a = 1
            if i in ball_at:
                allowed = [b for b in range(2, rank + 2) if counts[b - 1] < counts[b - 2]]
                if not allowed:
                    break
                a = rng.choice(allowed)
            counts[a - 1] += 1
            out.append(str(a))
        else:
            return "".join(out)


def _in_stratum(rng: random.Random, lo: int, hi: int, k: int, j: int) -> int:
    """An integer from the j-th of k equal slices of [lo, hi)."""
    return lo + ((hi - lo) * j + rng.randrange(hi - lo)) // k


# --- ivp: infinite box-ball initial-value problems -------------------------


def _ivp_block(rng: random.Random, b: int) -> list[dict]:
    # Block b gives combination c the step count and length slice below;
    # the design cycles the same way for every seed.
    combos = [(rank, l) for rank in (1, 2, 3) for l in (1, 2, 3, 4, None)]
    out = []
    for c, (rank, l) in enumerate(combos):
        t = 1 + (c + b) % 6
        L = _in_stratum(rng, 60, 201, 15, (7 * c + 3 * b) % 15)
        word = _highest_word(rng, L, rank, round(0.35 * L))
        out.append({"kind": "ivp", "rank": rank, "l": l, "t": t, "word": word})
    rng.shuffle(out)
    return out


def run_ivp(p: dict) -> None:
    got = kkr.solve_ivp(p["word"], p["l"], p["t"])
    ref = bbs.BBSState.parse(p["word"], rank=p["rank"], origin=0)
    for _ in range(p["t"]):
        ref = bbs.evolve(ref, p["l"])[0]
    if bbs.BBSState.parse(got, rank=p["rank"], origin=0) != ref:
        raise Mismatch("solve_ivp == bbs.evolve^t", f"got {got}, expected {ref.render(0)}")


# --- tau: ultradiscrete tau tables -----------------------------------------


def _string_count(rc) -> int:
    return sum(len(rc.color(a)) for a in range(1, rc.rank + 1))


def _tau_problem(rng: random.Random, strings: int) -> dict:
    while True:
        rank = rng.choice((1, 2))
        L = rng.randint(20, 40)
        word = _highest_word(rng, L, rank, rng.randint(L // 3, L // 2))
        if _string_count(kkr.kkr_phi(word, rank)) == strings:
            return {"kind": "tau", "rank": rank, "strings": strings, "word": word}


def _tau_block(rng: random.Random, b: int) -> list[dict]:
    counts = [n for n in range(12, 17) for _ in range(2)]
    rng.shuffle(counts)
    return [_tau_problem(rng, n) for n in counts]


def word_from_table(table: list[list[int]]) -> str:
    """Decode a tau table (rows k = 0..L, columns a = 0..n+1) by its second
    differences; a cell whose difference vector is not a unit vector gives '?'."""
    word = []
    for k in range(1, len(table)):
        x = [
            table[k][a] - table[k - 1][a] - table[k][a - 1] + table[k - 1][a - 1]
            for a in range(1, len(table[k]))
        ]
        unit = sorted(x) == [0] * (len(x) - 1) + [1]
        word.append(str(x.index(1) + 1) if unit else "?")
    return "".join(word)


def run_tau(p: dict) -> None:
    s = tau.StringSet.from_rc(kkr.kkr_phi(p["word"], p["rank"]))
    decoded = word_from_table(tau.tau_table(s))
    if decoded != p["word"]:
        raise Mismatch("tau_table decodes to the word", f"got {decoded}")
    got = tau.path_from_tau(s)
    if got != p["word"]:
        raise Mismatch("path_from_tau == word", f"got {got}")
    if not tau.check_hirota(s):
        raise Mismatch("check_hirota", "Hirota-Miwa relation fails")


# --- periodic: periodic sl2 initial-value problems and periods -------------


def _periodic_block(rng: random.Random, b: int) -> list[dict]:
    out = []
    for c, l in enumerate([1, 2, 3, None] * 2):
        t = 1 + (c + b) % 6
        L = _in_stratum(rng, 20, 37, 8, (3 * c + b) % 8)
        cells = [2] * (L // 3) + [1] * (L - L // 3)
        rng.shuffle(cells)
        out.append({"kind": "periodic", "l": l, "t": t, "cells": "".join(map(str, cells))})
    rng.shuffle(out)
    return out


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def run_periodic(p: dict) -> None:
    state = pbbs.PeriodicState.parse(p["cells"])
    l, t = p["l"], p["t"]
    J = pbbs.direct_scattering(state)
    got = pbbs.inverse_scattering(pbbs.evolve_angle(J, l, t))
    ref = state
    for _ in range(t):
        ref = pbbs.evolve_periodic(ref, l)[0]
    if got != ref:
        raise Mismatch("inverse_scattering == evolve_periodic^t", f"got {got}, expected {ref}")
    N = pbbs.fundamental_period(state, l)
    if not pbbs.angle_equal(pbbs.evolve_angle(J, l, N), J):
        raise Mismatch("fundamental_period is a period", f"N = {N}")
    for r in _prime_factors(N):
        if pbbs.angle_equal(pbbs.evolve_angle(J, l, N // r), J):
            raise Mismatch("fundamental_period is minimal", f"N = {N}, N/{r} is a period")


# --- toda: theta trajectories and box-ball embeddings ----------------------


def _toda_theta_problem(rng: random.Random, N: int, *, translate: bool = True) -> dict:
    # theta_solution requires a smooth spectral curve.  The drawn state is
    # translated so that min(Q, W) = C_1 = 0: for C_1 != 0 theta_state misses
    # C (a seed defect, see defect_problems), and the timed stream must have
    # no failing problem.
    while True:
        Q = [rng.randint(0, 9) for _ in range(N)]
        W = [rng.randint(0, 9) for _ in range(N)]
        if sum(Q) >= sum(W):
            continue
        low = min(Q + W) if translate else 0
        C = troptoda.conserved_all(
            troptoda.TodaState.make([q - low for q in Q], [w - low for w in W])
        )
        if troptoda.spectral_data(C).smooth:
            break
    Z0 = [rng.randint(-20, 20) for _ in range(N - 1)]
    return {"kind": "toda.theta", "N": N, "C": [int(c) for c in C], "Z0": Z0, "steps": 4}


def _cyclic_ball_runs(cells: list[int]) -> int:
    return sum(1 for i in range(len(cells)) if cells[i - 1] == 1 and cells[i] == 2)


def _toda_embed_problem(rng: random.Random, N: int) -> dict:
    while True:
        L = rng.randint(20, 30)
        M = rng.randint(L // 4, L // 2 - 1)
        cells = [2] * M + [1] * (L - M)
        rng.shuffle(cells)
        if _cyclic_ball_runs(cells) + 1 == N:
            return {"kind": "toda.embed", "N": N, "steps": 3, "cells": "".join(map(str, cells))}


def _toda_block(rng: random.Random, b: int) -> list[dict]:
    # Eight genus-2 theta problems, which cost more than the N <= 7 embeddings
    # and less than the N >= 8 ones, hold the middle of the block's costs, so
    # its median latency falls inside one class, and one well sampled: single
    # problems vary by tens of percent from run to run on a shared machine.
    out = [_toda_theta_problem(rng, N) for N in (2, 2) + (3,) * 8]
    out += [_toda_embed_problem(rng, N) for N in (6, 7, 8, 9)]
    rng.shuffle(out)
    return out


CONSERVED_CHECK = "conserved_all(theta_state) == C"


def run_toda_theta(p: dict) -> None:
    Z0, C = tuple(p["Z0"]), tuple(p["C"])
    s = troptoda.theta_state(Z0, C, 0)
    start = s
    for t in range(1, p["steps"] + 1):
        s = troptoda.evolve_toda(s)
        got = troptoda.theta_state(Z0, C, t)
        if got != s:
            detail = f"t = {t}: {got.flat()} != {s.flat()}"
            raise Mismatch("theta_state(t) == evolve_toda^t", detail)
    got_C = troptoda.conserved_all(start)
    if got_C != C:
        raise Mismatch(CONSERVED_CHECK, f"conserved_all = {tuple(map(str, got_C))}")


def run_toda_embed(p: dict) -> None:
    state = pbbs.PeriodicState.parse(p["cells"])
    s = troptoda.embed_pbbs(state)
    C = troptoda.conserved_all(s)
    for t in range(1, p["steps"] + 1):
        state = pbbs.evolve_periodic(state, None)[0]
        s = troptoda.evolve_toda(s)
        if not troptoda.s_equivalent(s, troptoda.embed_pbbs(state)):
            raise Mismatch("evolve_toda ~ embed_pbbs(evolve_periodic)", f"t = {t}")
    if troptoda.conserved_all(s) != C:
        raise Mismatch("conserved_all invariant under evolve_toda", "values changed")


RUNNERS = {
    "ivp": run_ivp,
    "tau": run_tau,
    "periodic": run_periodic,
    "toda.theta": run_toda_theta,
    "toda.embed": run_toda_embed,
}

BLOCKS = {
    "ivp": _ivp_block,
    "tau": _tau_block,
    "periodic": _periodic_block,
    "toda": _toda_block,
}


def solve_and_check(problem: dict) -> None:
    RUNNERS[problem["kind"]](problem)


# The seed defect, recorded and checked on every toda run, outside the timed
# stream: for C_1 != 0 the states of troptoda.theta_state do not have the
# conserved values C.  The first problem is the defect's documented reproducer.
REPRODUCER = {"kind": "toda.theta", "N": 3, "C": [3, 7, 12, 33], "Z0": [20, -11], "steps": 4}
DEFECT_PROBLEMS = 8


def defect_problems(seed: int) -> list[dict]:
    """The reproducer and DEFECT_PROBLEMS seeded theta problems with C_1 != 0."""
    rng = random.Random(f"{seed}/toda.defect")
    out = [REPRODUCER]
    while len(out) <= DEFECT_PROBLEMS:
        p = _toda_theta_problem(rng, 2 + len(out) % 2, translate=False)
        if p["C"][0] != 0:
            out.append(p)
    return out


class Stream:
    """Problem i of a workload for one seed, generated one block at a time.

    Building a stream generates its first block, so construction is part of
    the benchmark's set-up time."""

    def __init__(self, workload: str, seed: int):
        if workload not in BLOCKS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        self.seed = seed
        self._block_index = 0
        self._block = self._make_block(0)
        self.block_size = len(self._block)

    def _make_block(self, b: int) -> list[dict]:
        return BLOCKS[self.workload](random.Random(f"{self.seed}/{self.workload}/{b}"), b)

    def problem(self, i: int) -> dict:
        b, j = divmod(i, self.block_size)
        if b != self._block_index:
            self._block = self._make_block(b)
            self._block_index = b
        return dict(self._block[j], index=i)
