#!/usr/bin/env python3
"""Size sweeps of the KKR bijection, the carrier evolution, the exact
elimination, the slide-orbit routines and the tropical Toda layer: CPU times,
fitted growth exponents and the line count of the imported boxball package,
printed as JSON.

For each rank in KKR_RANKS (sl2, sl3 and sl4) and each size L it draws one
random highest path with round(0.45 L) letters above 1, times kkr_phi and
kkr_phi_inv (median of 3 runs of time.process_time), checks the round trip,
and fits t ~ L^k per rank by least squares on log t against log L.  On one
random sl3 highest path per L it times, for carrier capacities l = 3 and
infinity, one bbs.evolve step and kkr.solve_ivp over
EVOLVE_STEPS steps, checks solve_ivp against bbs.evolve^EVOLVE_STEPS, and
fits t ~ L^k for both; it times the same two calls at the size of the
perfbench ivp workload (IVP_L letters, IVP_BALL_FRACTION of them balls) on
one random highest path per rank in KKR_RANKS, per call over IVP_CALLS
calls, where the per-call overhead shows, and checks them the same way.
For each genus g in GENERA it times
intmat.gauss_jordan (behind det_int) on the period matrix F of the periodic
action variable with parts g, g-1, ..., 1 on L = g (g + 2) cells, checks
adj F F = det F I, and fits t ~ g^k the same way.  For each (g, m, L) in
PBBS_SIZES it times pbbs.canonicalize and pbbs.angle_equal (the angle
variable J against its canonical form) on the action variable with parts
g, ..., 1, each repeated m times (prod m_i = m^g window rotations), on L
cells and with seeded random windows, and pbbs.fundamental_period
(l = infinity) on the state p with angle variable J.  It times
pbbs.inverse_scattering on the canonical form, where its loop over window
rotations runs longest, up to INVERSE_MAX_GENUS only.  Every timed call gets
a fresh, equal action variable or periodic state, so it pays for
the lattice data it reads (F, its elimination, its Hermite forms) and for
its scattering pass.  It fits t ~ g^k, checks the round trip
angle_equal(direct_scattering(p), J) at every g and that the canonical form
inverts to p, and, at the smallest g, checks canonicalize and angle_equal
against the rotation-scan oracle of tests/test_pbbs_oracle.py.  For each N in
TODA_SIZES it times troptoda.conserved_all and troptoda.evolve_toda on a
seeded random integral state, checks that the step keeps the conserved
values, and fits t ~ N^k; it then times one theta_state trajectory of
TODA_STEPS + 1 states at genus 4 from cold sites and checks it against
evolve_toda and the conserved values, and counts the thetas it computed
(troptoda._argmin_int calls).  For each genus g in THETA_GENERA
it draws a seeded smooth Toda period matrix Omega (N = g + 1) and THETA_ARGS
arguments Omega x with every x_i in [-1, 1] of denominator 12, and times
the value path theta._argmin_int (no tied minimizers) and
theta.theta_argmin on all of them, each the median of 3 runs divided by the
argument count (per-call CPU seconds); it checks that the values are equal
and fits t ~ g^k for both.  For each N in TAU_SIZES it times
tau._TauTable on the string set of the sl2 highest path 1 2 11 22 ... 1^N 2^N
(N strings, of lengths 1..N) and a cold tau.check_hirota on a fresh copy of
that set (hirota_s), fits t ~ N^k to the table times and, at the smallest N, checks the
table against the all-subsets oracle of tests/test_tau_oracle.py.

Example:
    PYTHONPATH=src python scripts/bench.py 800 2000 5000
"""

import argparse
import json
import math
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import boxball
from boxball.bbs import BBSState, evolve
from boxball.intmat import gauss_jordan
from boxball.kkr import kkr_phi, kkr_phi_inv, solve_ivp
from boxball.pbbs import (
    ActionVariable,
    AngleVariable,
    PeriodicState,
    angle_equal,
    canonicalize,
    direct_scattering,
    fundamental_period,
    inverse_scattering,
)
from boxball.tau import StringSet, _TauTable, check_hirota
from boxball import troptoda
from boxball.theta import PeriodMatrix, _argmin_int, _scaled, theta_argmin
from boxball.troptoda import TodaState, _theta_sites, conserved_all, evolve_toda, spectral_data, theta_state

RANK = 2
KKR_RANKS = (1, 2, 3)  # the ranks of the perfbench ivp mix
BALL_FRACTION = 0.45
REPEATS = 3
EVOLVE_CAPACITIES = (3, None)  # None: T_infinity
EVOLVE_STEPS = 3
IVP_L = 130  # the perfbench ivp workload draws L in [60, 200] with 0.35 L balls
IVP_BALL_FRACTION = 0.35
IVP_CALLS = 20
GENERA = (4, 8, 16, 32)
PBBS_SIZES = ((3, 6, 200), (8, 3, 500), (14, 2, 900))  # (g, m_i, L)
# inverse_scattering of the g = 14 canonical form tries 6,149 of the 16,384
# window rotations and takes seconds (ROADMAP item 3), too long for the suite
INVERSE_MAX_GENUS = 8
TODA_SIZES = (100, 200, 400)
TODA_STEPS = 4
THETA_GENERA = (2, 4, 6, 8)
THETA_ARGS = 96
TAU_SIZES = (12, 14, 16, 18, 40)
# the conserved values of Q = (0, 1, 11, 8, 10), W = (6, 11, 8, 4, 8): genus 4
TODA_THETA = ((3, -7, 12, 0), (0, 1, 5, 13, 30, 67))  # (Z0, C)
ROOT = Path(__file__).resolve().parents[1]
# the package timed here, wherever PYTHONPATH put it: its lines are the ones counted
SRC = Path(boxball.__file__).resolve().parent


def highest_word(rng: random.Random, L: int, rank: int, balls: int) -> str:
    """A random highest path of length L with `balls` letters above 1, each
    drawn among the letters that keep every prefix dominant."""
    while True:
        ball_at = set(rng.sample(range(L), balls))
        counts = [0] * (rank + 2)
        word = []
        for i in range(L):
            a = 1
            if i in ball_at:
                allowed = [b for b in range(2, rank + 2) if counts[b] < counts[b - 1]]
                if not allowed:
                    break
                a = rng.choice(allowed)
            counts[a] += 1
            word.append(str(a))
        else:
            return "".join(word)


def median_time(fn, *args):
    """(median CPU seconds over REPEATS calls, the last call's result)."""
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        out = fn(*args)
        times.append(time.process_time() - start)
    return statistics.median(times), out


def median_call_time(calls: int, fn, *args):
    """(median over REPEATS runs of `calls` calls of the CPU seconds per call,
    the last call's result)."""

    def run():
        for _ in range(calls):
            out = fn(*args)
        return out

    t, out = median_time(run)
    return t / calls, out


def count_calls(module, name: str, fn) -> int:
    """How many times one run of fn() calls module.name."""
    real, calls = getattr(module, name), 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    setattr(module, name, counted)
    try:
        fn()
    finally:
        setattr(module, name, real)
    return calls


def growth_exponent(sizes, times) -> float | None:
    """Least-squares slope of log t against log L; None below two sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in zip(sizes, times) if t > 0]
    if len(pts) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else None


def kkr_sweep(sizes) -> dict:
    out = {
        "ranks": list(KKR_RANKS),
        "ball_fraction": BALL_FRACTION,
        "repeats": REPEATS,
        "sizes": list(sizes),
        "by_rank": {},
    }
    for rank in KKR_RANKS:
        phi_s, phi_inv_s, roundtrip = [], [], True
        for L in sizes:
            word = highest_word(random.Random(f"kkr/{rank}/{L}"), L, rank, round(BALL_FRACTION * L))
            t_phi, rc = median_time(kkr_phi, word, rank)
            t_inv, back = median_time(kkr_phi_inv, rc)
            phi_s.append(t_phi)
            phi_inv_s.append(t_inv)
            roundtrip = roundtrip and back == word
        out["by_rank"][str(rank)] = {
            "phi_s": phi_s,
            "phi_inv_s": phi_inv_s,
            "phi_growth_exp": growth_exponent(sizes, phi_s),
            "phi_inv_growth_exp": growth_exponent(sizes, phi_inv_s),
            "roundtrip": roundtrip,
        }
    out["roundtrip"] = all(r["roundtrip"] for r in out["by_rank"].values())
    return out


def evolve_sweep(sizes) -> dict:
    out = {"sizes": list(sizes), "repeats": REPEATS, "steps": EVOLVE_STEPS, "oracle": True}
    for l in EVOLVE_CAPACITIES:
        key = "inf" if l is None else str(l)
        evolve_s, ivp_s = [], []
        for L in sizes:
            word = highest_word(random.Random(f"evolve/{L}"), L, RANK, round(BALL_FRACTION * L))
            state = BBSState.parse(word, rank=RANK)
            t_evolve, _ = median_time(evolve, state, l)
            t_ivp, got = median_time(solve_ivp, word, l, EVOLVE_STEPS)
            evolve_s.append(t_evolve)
            ivp_s.append(t_ivp)
            for _ in range(EVOLVE_STEPS):
                state = evolve(state, l)[0]
            out["oracle"] = out["oracle"] and BBSState.parse(got, rank=RANK) == state
        out[f"evolve_{key}_s"] = evolve_s
        out[f"solve_ivp_{key}_s"] = ivp_s
        out[f"evolve_{key}_growth_exp"] = growth_exponent(sizes, evolve_s)
        out[f"solve_ivp_{key}_growth_exp"] = growth_exponent(sizes, ivp_s)
    out.update(ivp_L=IVP_L, ivp_ball_fraction=IVP_BALL_FRACTION, ivp_ranks=list(KKR_RANKS), ivp_calls=IVP_CALLS)
    for l in EVOLVE_CAPACITIES:
        key = "inf" if l is None else str(l)
        evolve_s, ivp_s = [], []
        for rank in KKR_RANKS:
            rng = random.Random(f"evolve/ivp/{rank}")
            word = highest_word(rng, IVP_L, rank, round(IVP_BALL_FRACTION * IVP_L))
            state = BBSState.parse(word, rank=rank)
            evolve_s.append(median_call_time(IVP_CALLS, evolve, state, l)[0])
            t_ivp, got = median_call_time(IVP_CALLS, solve_ivp, word, l, EVOLVE_STEPS)
            ivp_s.append(t_ivp)
            for _ in range(EVOLVE_STEPS):
                state = evolve(state, l)[0]
            out["oracle"] = out["oracle"] and BBSState.parse(got, rank=rank) == state
        out[f"evolve_{key}_ivp_s"] = evolve_s
        out[f"solve_ivp_{key}_ivp_s"] = ivp_s
    return out


def intmat_sweep() -> dict:
    times, adjugate = [], True
    for g in GENERA:
        F = ActionVariable(g * (g + 2), tuple(range(g, 0, -1))).F()
        t, e = median_time(gauss_jordan, F)
        times.append(t)
        adjugate = adjugate and all(
            sum(e.adj[i][k] * F[k][j] for k in range(g)) == e.det * (i == j)
            for i in range(g)
            for j in range(g)
        )
    return {
        "genera": list(GENERA),
        "repeats": REPEATS,
        "elimination_s": times,
        "growth_exp": growth_exponent(GENERA, times),
        "adjugate": adjugate,
    }


def fresh(J: AngleVariable) -> AngleVariable:
    """J on a new, equal action variable: its lattice data not yet built."""
    return AngleVariable(ActionVariable(J.mu.L, J.mu.parts), J.windows)


def cold_period(p, l):
    """fundamental_period on a fresh state equal to p: it scatters anew."""
    return fundamental_period(PeriodicState(p.cells), l)


def pbbs_sweep() -> dict:
    sys.path.insert(0, str(ROOT / "tests"))
    from test_pbbs_oracle import canonicalize_scan

    canon_s, equal_s, inverse_s, period_s, oracle, roundtrip = [], [], [], [], None, True
    for g, m, L in PBBS_SIZES:
        rng = random.Random(f"pbbs/{g}")
        mu = ActionVariable(L, tuple(i for i in range(g, 0, -1) for _ in range(m)))
        J = AngleVariable(
            mu, tuple(tuple(sorted(rng.randint(0, p) for _ in range(m))) for p in mu.vacancies)
        )
        t_canon, canon = median_time(lambda: canonicalize(fresh(J)))
        t_equal, equal = median_time(lambda: angle_equal(fresh(J), canon))
        p = inverse_scattering(J)
        t_period, _ = median_time(cold_period, p, None)
        canon_s.append(t_canon)
        equal_s.append(t_equal)
        period_s.append(t_period)
        roundtrip = roundtrip and angle_equal(direct_scattering(p), J)
        if g <= INVERSE_MAX_GENUS:
            t_inverse, q = median_time(lambda: inverse_scattering(fresh(canon)))
            inverse_s.append(t_inverse)
            roundtrip = roundtrip and q == p
        if oracle is None:
            oracle = equal and canon == canonicalize_scan(J)
    genera = [g for g, _, _ in PBBS_SIZES]
    inverse_genera = [g for g in genera if g <= INVERSE_MAX_GENUS]
    return {
        "genera": genera,
        "rotations": [m**g for g, m, _ in PBBS_SIZES],
        "L": [L for _, _, L in PBBS_SIZES],
        "repeats": REPEATS,
        "canonicalize_s": canon_s,
        "angle_equal_s": equal_s,
        "inverse_scattering_genera": inverse_genera,
        "inverse_scattering_s": inverse_s,
        "fundamental_period_s": period_s,
        "canonicalize_growth_exp": growth_exponent(genera, canon_s),
        "angle_equal_growth_exp": growth_exponent(genera, equal_s),
        "inverse_scattering_growth_exp": growth_exponent(inverse_genera, inverse_s),
        "fundamental_period_growth_exp": growth_exponent(genera, period_s),
        "oracle": oracle,
        "roundtrip": roundtrip,
    }


def toda_sweep() -> dict:
    conserved_s, evolve_s, invariant = [], [], True
    for N in TODA_SIZES:
        rng = random.Random(f"toda/{N}")
        s = TodaState.make([rng.randint(0, 9) for _ in range(N)], [rng.randint(5, 15) for _ in range(N)])
        t_conserved, C = median_time(conserved_all, s)
        t_evolve, nxt = median_time(evolve_toda, s)
        conserved_s.append(t_conserved)
        evolve_s.append(t_evolve)
        invariant = invariant and conserved_all(nxt) == C

    Z0, C = TODA_THETA

    def trajectory():
        _theta_sites.cache_clear()
        return [theta_state(Z0, C, t) for t in range(TODA_STEPS + 1)]

    t_theta, states = median_time(trajectory)
    thetas = count_calls(troptoda, "_argmin_int", trajectory)
    theta_ok = conserved_all(states[0]) == C and all(
        evolve_toda(a) == b for a, b in zip(states, states[1:])
    )
    return {
        "sizes": list(TODA_SIZES),
        "repeats": REPEATS,
        "conserved_all_s": conserved_s,
        "evolve_toda_s": evolve_s,
        "conserved_all_growth_exp": growth_exponent(TODA_SIZES, conserved_s),
        "evolve_toda_growth_exp": growth_exponent(TODA_SIZES, evolve_s),
        "invariant": invariant,
        "theta_genus": len(C) - 2,
        "theta_steps": TODA_STEPS,
        "theta_trajectory_s": t_theta,
        "theta_trajectory_thetas": thetas,
        "theta_trajectory": theta_ok,
    }


def toda_period_matrix(rng: random.Random, g: int) -> PeriodMatrix:
    """Omega of a random smooth spectral curve of genus g (N = g + 1)."""
    while True:
        Q = [rng.randint(0, 9) for _ in range(g + 1)]
        W = [rng.randint(5, 15) for _ in range(g + 1)]
        if sum(Q) < sum(W):
            sd = spectral_data(conserved_all(TodaState.make(Q, W)))
            if sd.smooth:
                return sd.Omega


def theta_sweep() -> dict:
    value_s, argmin_s, equal = [], [], True
    for g in THETA_GENERA:
        rng = random.Random(f"theta/{g}")
        Xi = toda_period_matrix(rng, g)
        xs = [[Fraction(rng.randint(-12, 12), 12) for _ in range(g)] for _ in range(THETA_ARGS)]
        Zs = [tuple(sum(a * b for a, b in zip(r, x)) for r in Xi.rows) for x in xs]
        keys = [_scaled(Z, Xi) for Z in Zs]

        t_value, values = median_time(lambda: [_argmin_int(b, t, Xi)[0] for b, t in keys])
        t_argmin, pairs = median_time(lambda: [theta_argmin(Z, Xi) for Z in Zs])
        value_s.append(t_value / THETA_ARGS)
        argmin_s.append(t_argmin / THETA_ARGS)
        s = Xi.s
        equal = equal and [Fraction(v, 2 * s * t) for v, (_, t) in zip(values, keys)] == [v for v, _ in pairs]
    return {
        "genera": list(THETA_GENERA),
        "arguments": THETA_ARGS,
        "repeats": REPEATS,
        "value_s": value_s,
        "argmin_s": argmin_s,
        "value_growth_exp": growth_exponent(THETA_GENERA, value_s),
        "argmin_growth_exp": growth_exponent(THETA_GENERA, argmin_s),
        "equal": equal,
    }


def tau_sweep() -> dict:
    sys.path.insert(0, str(ROOT / "tests"))
    from test_tau_oracle import subset_best

    times, hirota_times, oracle = [], [], None
    for N in TAU_SIZES:
        rc = kkr_phi("".join("1" * k + "2" * k for k in range(1, N + 1)), 1)
        s = StringSet.from_rc(rc)
        t, table = median_time(_TauTable, s)
        times.append(t)
        # cold: a fresh string set per call builds its table inside check_hirota
        hirota_times.append(median_time(lambda: check_hirota(StringSet.from_rc(rc)))[0])
        if oracle is None:
            oracle = table.best == subset_best(s)
    return {
        "sizes": list(TAU_SIZES),
        "repeats": REPEATS,
        "table_s": times,
        "hirota_s": hirota_times,
        "growth_exp": growth_exponent(TAU_SIZES, times),
        "oracle": oracle,
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("sizes", nargs="*", type=int, default=[800, 2000, 5000], help="path lengths L")
    args = ap.parse_args(argv)
    if any(L < 1 for L in args.sizes):
        ap.error("sizes must be >= 1")
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    doc = {
        "kkr": kkr_sweep(args.sizes),
        "evolve": evolve_sweep(args.sizes),
        "intmat": intmat_sweep(),
        "pbbs": pbbs_sweep(),
        "troptoda": toda_sweep(),
        "theta": theta_sweep(),
        "tau": tau_sweep(),
        "src_lines": src_lines,
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
