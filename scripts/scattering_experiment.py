#!/usr/bin/env python3
"""Random two-soliton scattering: R-matrix rule vs full lattice simulation.

Draws random soliton label pairs, computes the exchanged labels and phase
shift both ways, and reports any disagreement (there should be none).
"""

import argparse
import random

from boxball.bbs import scatter_two, scatter_two_simulated


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-amplitude", type=int, default=5)
    ap.add_argument("--max-letter", type=int, default=5)
    args = ap.parse_args()
    if args.trials < 0:
        ap.error("--trials must be >= 0")
    if args.max_amplitude < 2:
        ap.error("--max-amplitude must be >= 2: the big soliton is longer than the small one")
    if not 2 <= args.max_letter <= 9:
        ap.error("--max-letter must be in 2..9: labels are words over the letters 2..9")

    rng = random.Random(args.seed)
    bad = 0
    for _ in range(args.trials):
        l = rng.randint(2, args.max_amplitude)
        lp = rng.randint(1, l - 1)
        big = "".join(
            sorted((str(rng.randint(2, args.max_letter)) for _ in range(l)), reverse=True)
        )
        small = "".join(
            sorted((str(rng.randint(2, args.max_letter)) for _ in range(lp)), reverse=True)
        )
        rule = scatter_two(big, small)
        sim = scatter_two_simulated(big, small)
        mark = "" if rule == sim else "  <-- MISMATCH"
        bad += rule != sim
        print(f"[{big}] x [{small}]  ->  [{rule[1]}] x [{rule[0]}]  delta={rule[2]}{mark}")
    print(f"\n{args.trials} scatterings, {bad} mismatches")
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
