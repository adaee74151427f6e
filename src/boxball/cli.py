"""Command-line front end: evolution rendering, scattering experiments, KKR
transforms, periodic analysis and Toda solving.

Subcommands: evolve, scatter, kkr, tau, analyze (action|angle|period|
decompose|count), toda (evolve|spectral|solve|embed), selftest.
Exit codes: 0 success, 2 usage error, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from boxball import bbs, kkr, pbbs, tau as tau_mod, troptoda


def _int_at_least(name: str, lo: int, inf: bool = False):
    """argparse type: an int >= lo, or None for inf/infinity/oo when inf is set."""

    def parse(text: str) -> int | None:
        if inf and text in ("inf", "infinity", "oo"):
            return None
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"{name} must be >= {lo}{' or inf' if inf else ''}")
        return value

    parse.__name__ = "int"  # argparse reports "invalid int value: 'x'"
    return parse


def _fields(text: str) -> list[str]:
    """Entries of a comma and/or space separated list; ValueError on an empty
    field between commas (so "3,,1" is not read as "3,1")."""
    fields = text.split(",")
    if len(fields) > 1 and not all(f.strip() for f in fields):
        raise ValueError(f"empty field in list: {text!r}")
    return text.replace(",", " ").split()


def _parse_fracs(text: str) -> list[Fraction]:
    return [Fraction(t) for t in _fields(text)]


def render_evolution(state: bbs.BBSState, l: int | None, steps: int) -> list[str]:
    """Rows t=0..steps over a common window covering all support."""
    states = [state.trimmed()]
    for _ in range(steps):
        states.append(bbs.evolve(states[-1], l)[0])
    nonempty = [s for s in states if s.cells]
    if not nonempty:
        return ["." for _ in states]
    left = min(s.support()[0] for s in nonempty)
    right = max(s.support()[1] for s in nonempty) + 1
    return [s.render(left, right) for s in states]


def cmd_evolve(args) -> int:
    if args.periodic:
        state = pbbs.PeriodicState.parse(args.state)
        rows = [state.render()]
        cur = state
        for _ in range(args.steps):
            cur = pbbs.evolve_periodic(cur, args.l)[0]
            rows.append(cur.render())
    else:
        rows = render_evolution(bbs.BBSState.parse(args.state), args.l, args.steps)
    if args.format == "json":
        print(json.dumps({"rows": rows}))
    else:
        for t, row in enumerate(rows):
            print(f"t={t:<3}{row}" if args.label else row)
    return 0


def cmd_scatter(args) -> int:
    small, big, delta = bbs.scatter_two(args.big, args.small)
    out = {"small_out": small, "big_out": big, "delta": delta}
    print(json.dumps(out))
    return 0


def cmd_kkr(args) -> int:
    if args.inverse:
        rc = kkr.RiggedConfiguration.from_json(args.state)
        print(kkr.kkr_phi_inv(rc))
        return 0
    rc = kkr.kkr_phi(args.state, rank=args.rank)
    print(rc.to_json())
    return 0


def cmd_tau(args) -> int:
    rc = kkr.kkr_phi(args.state, rank=args.rank)
    s = tau_mod.StringSet.from_rc(rc)
    table = tau_mod.tau_table(s)
    header = "k\t" + "\t".join(f"a={a}" for a in range(s.rank + 2))
    print(header)
    for k, row in enumerate(table):
        print(str(k) + "\t" + "\t".join(str(v) for v in row))
    return 0


def _parse_mu(text: str) -> tuple[int, ...]:
    if not text.replace(",", " ").split():
        raise ValueError("empty partition")
    return tuple(sorted(map(int, _fields(text)), reverse=True))


def cmd_analyze(args) -> int:
    what = args.what
    if what in ("action", "angle", "period"):
        p = pbbs.PeriodicState.parse(args.state)
    if what == "action":
        mu = pbbs.action_variable(p)
        out = {
            "L": mu.L,
            "mu": list(mu.parts),
            "vacancies": dict(zip(map(str, mu.I), mu.vacancies)),
            "gamma": list(pbbs.internal_symmetry(p)),
        }
        print(json.dumps(out))
    elif what == "angle":
        J = pbbs.direct_scattering(p)
        out = {
            "L": J.mu.L,
            "mu": list(J.mu.parts),
            "windows": {str(i): list(J.window(i)) for i in J.mu.I},
        }
        print(json.dumps(out))
    elif what == "period":
        out = {
            f"N{l}": pbbs.fundamental_period(p, l) for l in range(1, args.l_max + 1)
        }
        print(json.dumps(out))
    elif what == "decompose":
        mu = pbbs.ActionVariable(args.L, _parse_mu(args.mu))
        rows = pbbs.torus_decomposition(mu)
        if args.format == "json":
            print(
                json.dumps(
                    [
                        {"gamma": list(g), "multiplicity": m, "F_gamma": Fg}
                        for g, m, Fg in rows
                    ]
                )
            )
        else:
            print("gamma\tmultiplicity\tdet F_gamma")
            from boxball.intmat import det_int

            for g, m, Fg in rows:
                print(f"{','.join(map(str, g))}\t{m}\t{det_int(Fg)}")
    elif what == "count":
        mu = pbbs.ActionVariable(args.L, _parse_mu(args.mu))
        print(pbbs.isolevel_cardinality(mu))
    return 0


def cmd_toda(args) -> int:
    what = args.what
    if what == "evolve":
        s = troptoda.TodaState.from_flat(_parse_fracs(args.data))
        rows = [s]
        for _ in range(args.steps):
            rows.append(troptoda.evolve_toda(rows[-1]))
        _print_toda_rows(rows, args.format)
    elif what == "spectral":
        sd = troptoda.spectral_data(_parse_fracs(args.data))
        out = {
            "C": [str(c) for c in sd.C],
            "L": str(sd.L),
            "lambda": [str(x) for x in sd.lam],
            "eta": [str(x) for x in sd.eta],
            "smooth": sd.smooth,
            "Omega": None if sd.Omega is None else [[str(x) for x in row] for row in sd.Omega.rows],
        }
        print(json.dumps(out))
    elif what == "solve":
        C = _parse_fracs(args.C)
        Z0 = _parse_fracs(args.z0)
        rows = [troptoda.theta_state(Z0, C, t) for t in range(args.steps + 1)]
        _print_toda_rows(rows, args.format)
    elif what == "embed":
        s = troptoda.embed_pbbs(args.state, leftmost=args.leftmost)
        print(json.dumps([str(x) for x in s.flat()]))
    return 0


def _print_toda_rows(rows, fmt):
    if fmt == "json":
        print(json.dumps([[str(x) for x in s.flat()] for s in rows]))
    else:
        for t, s in enumerate(rows):
            print(f"{t}\t" + "\t".join(str(x) for x in s.flat()))


def cmd_selftest(args) -> int:
    """Quick end-to-end sanity battery over every module."""
    from boxball.crystal import CrystalElement, comb_R, comb_R_ny

    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append((name, ok))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    def r_fixture():
        x = CrystalElement.from_word("13347")
        y = CrystalElement.from_word("135", rank=6)
        out = comb_R(x, y)
        ny = comb_R_ny(x, y)
        return (
            out.left_out.word() == "147"
            and out.right_out.word() == "13335"
            and out.energy == ny.energy == 1
        )

    check("combinatorial R fixture", r_fixture)
    check(
        "scattering fixture",
        lambda: bbs.scatter_two("554322", "422") == ("553", "442222", 5),
    )
    check(
        "KKR worked example",
        lambda: kkr.kkr_phi_inv(
            kkr.RiggedConfiguration.make(
                14, 3, [[(4, 0), (3, 2), (2, 3)], [(3, 1), (1, 0)], [(1, 0)]]
            )
        )
        == "11112221322433",
    )
    check(
        "periodic period fixture",
        lambda: [
            pbbs.fundamental_period(pbbs.PeriodicState.parse("1212111222"), l)
            for l in (1, 2, 3)
        ]
        == [10, 20, 2],
    )
    check(
        "toda spectral fixture",
        lambda: troptoda.spectral_data((0, 1, 4, 9)).Omega.rows == ((16, -5), (-5, 10)),
    )
    check(
        "toda theta solution",
        lambda: troptoda.evolve_toda(troptoda.theta_state((-1, 8), (0, 2, 6, 19), 0))
        == troptoda.theta_state((-1, 8), (0, 2, 6, 19), 1),
    )
    check(
        "toda conserved fixture",
        # cycle Q1 W1 Q2 W2 Q3 W3 = 2 1 0 9 4 3: H_1 = Q2, H_2 = Q2 + Q1 (W1
        # and W2 neighbour Q2), H_3 = Q1 + Q2 + Q3 < W1 + W2 + W3, H_4 = total
        lambda: troptoda.conserved_all(troptoda.TodaState.from_flat((2, 1, 0, 9, 4, 3)))
        == (0, 2, 6, 19),
    )
    check(
        "isolevel count fixture",
        lambda: pbbs.isolevel_cardinality(pbbs.ActionVariable(6, (2, 1))) == 12,
    )
    return 0 if all(ok for _, ok in checks) else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="boxball", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="render T_l^t rows in dot notation")
    p.add_argument("state")
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--l", type=_int_at_least("l", 1, inf=True), help="capacity, or inf (default)")
    p.add_argument("--steps", type=_int_at_least("steps", 0), default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--label", action="store_true", help="prefix rows with t=")
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("scatter", help="two-soliton scattering")
    p.add_argument("big")
    p.add_argument("small")
    p.set_defaults(fn=cmd_scatter)

    p = sub.add_parser("kkr", help="KKR bijection")
    p.add_argument("state", help="path word, or rigged-configuration JSON with --inverse")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--rank", type=int, default=None)
    p.set_defaults(fn=cmd_kkr)

    p = sub.add_parser("tau", help="ultradiscrete tau table as TSV")
    p.add_argument("state", help="highest path word")
    p.add_argument("--rank", type=int, default=None)
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("analyze", help="periodic box-ball analysis")
    p.set_defaults(fn=cmd_analyze)
    leaf = p.add_subparsers(dest="what", required=True).add_parser
    for what in ("action", "angle"):
        leaf(what).add_argument("state", help="periodic state")
    q = leaf("period")
    q.add_argument("state", help="periodic state")
    q.add_argument("--l-max", type=_int_at_least("l-max", 1), default=3)
    decompose, count = leaf("decompose"), leaf("count")
    for q in (decompose, count):
        q.add_argument("--L", type=int, required=True, help="system size")
        q.add_argument("--mu", required=True, help="partition, e.g. 3,2,1")
    decompose.add_argument("--format", choices=("text", "json"), default="json")

    p = sub.add_parser("toda", help="tropical periodic Toda lattice")
    p.set_defaults(fn=cmd_toda)
    leaf = p.add_subparsers(dest="what", required=True).add_parser
    evolve = leaf("evolve")
    evolve.add_argument("data", help="flat Q,W vector")
    leaf("spectral").add_argument("data", help="conserved values C_1..C_{N+1}")
    solve = leaf("solve")
    solve.add_argument("--C", required=True, help="conserved values C_1..C_{N+1}")
    solve.add_argument("--z0", required=True, help="initial theta argument")
    for q in (evolve, solve):
        q.add_argument("--steps", type=_int_at_least("steps", 0), default=5)
        q.add_argument("--format", choices=("text", "json"), default="text")
    q = leaf("embed")
    q.add_argument("state", help="periodic box-ball state")
    q.add_argument("--leftmost", type=int, default=0, help="distinguished box")

    p = sub.add_parser("selftest", help="run built-in fixture checks")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
