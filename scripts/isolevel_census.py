#!/usr/bin/env python3
"""Census of a periodic isolevel set: enumeration vs closed-form cardinality,
orbit sizes vs the torus decomposition.

Example:
    python scripts/isolevel_census.py --L 10 --mu 3,1,1
"""

import argparse

from boxball.intmat import det_int
from boxball.pbbs import (
    ActionVariable,
    enumerate_isolevel,
    evolve_periodic,
    internal_symmetry,
    isolevel_cardinality,
    torus_decomposition,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=int, required=True)
    ap.add_argument("--mu", required=True, help="partition, e.g. 3,1,1")
    args = ap.parse_args()

    try:
        parts = tuple(sorted((int(t) for t in args.mu.split(",")), reverse=True))
        mu = ActionVariable(args.L, parts)
        states = set(enumerate_isolevel(mu))
    except ValueError as exc:
        ap.error(f"--L {args.L} --mu {args.mu}: {exc}")
    print(f"L = {mu.L}, mu = {parts}, |P_L(mu)| = {isolevel_cardinality(mu)}")
    print("predicted decomposition:")
    for gamma, mult, Fg in torus_decomposition(mu):
        print(f"  gamma={gamma}  multiplicity={mult}  torus size={det_int(Fg)}")

    print(f"enumerated {len(states)} states; grouping into evolution orbits ...")
    lmax = max(parts)
    seen = set()
    tally = {}
    for s in sorted(states, key=lambda x: x.word()):
        if s in seen:
            continue
        orbit = {s}
        frontier = [s]
        while frontier:
            cur = frontier.pop()
            for l in range(1, lmax + 1):
                t = evolve_periodic(cur, l)[0]
                if t not in orbit:
                    orbit.add(t)
                    frontier.append(t)
        seen |= orbit
        gamma = internal_symmetry(next(iter(orbit)))
        tally.setdefault((gamma, len(orbit)), 0)
        tally[(gamma, len(orbit))] += 1
    for (gamma, size), count in sorted(tally.items()):
        print(f"  observed: gamma={gamma}  orbit size={size}  count={count}")


if __name__ == "__main__":
    main()
