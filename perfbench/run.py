"""boxball benchmark: four workloads, end-to-end metrics, and a traced run
for per-layer self time.

    python3 perfbench/run.py --workload ivp --seed 1 --seconds 24 --trace 0

Run it inside a checkout of the repository; the library is imported from
its src/ directory, and the run fails without it.  Every measurement starts
a fresh worker process (worker.py), so the library's module caches start
empty as in a user's session, and drives one workload as a closed loop with
one client in one process.  Every answer is checked against an oracle
(workloads.py).  The report goes to standard output; its last line is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are CPU seconds of the worker at a reference speed (worker.Speed):
each problem's CPU time is scaled by the ratio of a fixed pure-Python
probe's reference time to its mean time in the probes run just before and
after it, so that the load other tenants put on a shared machine cancels
out.  The report also prints the unscaled figures.

--trace 0 measures the end-to-end metrics, untraced, in one worker:
    throughput_per_s  problems solved and checked per second of solving time
    latency_p50_ms    median time per problem (solve plus check)
    latency_tail_ms   the highest percentile with at least 10 samples beyond
                      it, i.e. the 11th largest time; the report names it
                      (printed, not gated: resting on the 10 slowest
                      problems, it varies with the seed by about 20% on
                      ivp and periodic)
    fail_ratio        failed / attempted (printed, not gated: it is 0 on
                      every workload)
    setup_s           import plus input generation, median of SETUP_PROBES
                      fresh processes
    peak_rss_mib      ru_maxrss of the measuring worker after a fixed number
                      of problems (worker.RSS_BLOCKS blocks)

--trace 1 runs the problems with spans around every layer call (spans.py)
for seconds/2 and reports per-layer self time and work counts, each divided
by the number of problems traced, plus trace.overhead_ratio: the traced CPU
time over the untraced CPU time of the same problems in a fresh process.

"correct" is true when no problem failed in any worker.  The toda stream
holds only theta problems with C_1 = 0, because for C_1 != 0 theta_state
misses C (a seed defect).  Each toda run checks that defect apart, untimed
(workloads.defect_problems), and reports how many of its problems still
show it; another failure there makes the run incorrect too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ivp", "tau", "periodic", "toda")
SETUP_PROBES = 9
TAIL_BEYOND = 10
# Every run, its set-up probes included, must end within this many seconds.
RUN_LIMIT_S = 170

# The layers that should hold most of each workload's self time.
PREDICTED = {
    "ivp": ("kkr.phi", "kkr.phi_inv"),
    "tau": ("tau.tau_table", "tau.check_hirota", "tau.path_from_tau"),
    "periodic": ("pbbs.inverse_scattering",),
    "toda": ("theta.theta", "theta.theta_argmin", "troptoda.conserved"),
}

# Per-layer metrics from the traced run's layer table t (spans.layer_table)
# over n problems.  Self times are scaled to reference speed, like latencies.
SELF = "measured: span self time, reference-speed CPU seconds per problem"
CALLS = "measured: span count per problem"


def _self(layer):
    return lambda t, n: t.get(layer, {}).get("self_s", 0.0) / n


def _calls(layer):
    return lambda t, n: t.get(layer, {}).get("calls", 0) / n


def _size(*layers):
    return lambda t, n: sum(t.get(layer, {}).get("size", 0) for layer in layers) / n


def _us_per_letter(layer):
    def f(t, n):
        row = t.get(layer)
        return row["self_s"] * 1e6 / row["size"] if row and row["size"] else 0.0

    return f


def _growth(layer):
    return lambda t, n: t.get(layer, {}).get("growth_exp") or 0.0


def _cache_hit_ratio(t, n):
    calls = t.get("theta.theta", {}).get("calls", 0)
    return 1 - t.get("theta.theta_argmin", {}).get("calls", 0) / calls if calls else 0.0


def _phi_inv_under_inverse_scattering(t, n):
    return t.get("kkr.phi_inv", {}).get("parents", {}).get("pbbs.inverse_scattering", 0) / n


GROWTH = "measured: slope of log self time on log letters, 0 if not fitted"
LAYER_METRICS = {
    "kkr.phi.self_s": ("s", SELF, _self("kkr.phi")),
    "kkr.phi_inv.self_s": ("s", SELF, _self("kkr.phi_inv")),
    "kkr.phi.us_per_letter": (
        "us", "measured: self time per input letter", _us_per_letter("kkr.phi")
    ),
    "kkr.phi_inv.us_per_letter": (
        "us", "measured: self time per output letter", _us_per_letter("kkr.phi_inv")
    ),
    "kkr.phi.growth_exp": ("exponent", GROWTH, _growth("kkr.phi")),
    "kkr.phi_inv.growth_exp": ("exponent", GROWTH, _growth("kkr.phi_inv")),
    "kkr.phi.calls": ("count", CALLS, _calls("kkr.phi")),
    "kkr.phi_inv.calls": ("count", CALLS, _calls("kkr.phi_inv")),
    "tau.tau_table.self_s": ("s", SELF, _self("tau.tau_table")),
    "tau.check_hirota.self_s": ("s", SELF, _self("tau.check_hirota")),
    "tau.path_from_tau.self_s": ("s", SELF, _self("tau.path_from_tau")),
    "tau.subsets": (
        "count",
        "computed: 2^#strings of the string set and of its T_inf update, per problem",
        _size("tau.tau_table", "tau.check_hirota"),
    ),
    "pbbs.inverse_scattering.self_s": (
        "s", SELF + "; kkr children excluded", _self("pbbs.inverse_scattering")
    ),
    "pbbs.inverse_scattering.orbit_candidates": (
        "count",
        "computed: sum of prod m_i over calls, per problem",
        _size("pbbs.inverse_scattering"),
    ),
    "pbbs.inverse_scattering.phi_inv_calls": (
        "count", CALLS + " (kkr.phi_inv under it)", _phi_inv_under_inverse_scattering
    ),
    "pbbs.direct_scattering.self_s": ("s", SELF, _self("pbbs.direct_scattering")),
    "pbbs.canonicalize.self_s": ("s", SELF, _self("pbbs.canonicalize")),
    "pbbs.fundamental_period.self_s": ("s", SELF, _self("pbbs.fundamental_period")),
    "intmat.det_int.self_s": ("s", SELF, _self("intmat.det_int")),
    "intmat.reduce_mod_lattice.self_s": ("s", SELF, _self("intmat.reduce_mod_lattice")),
    "theta.theta.calls": ("count", CALLS, _calls("theta.theta")),
    "theta.theta_argmin.calls": ("count", CALLS, _calls("theta.theta_argmin")),
    "theta.cache_hit_ratio": (
        "ratio", "measured: 1 - theta_argmin calls / theta calls, 0 without calls", _cache_hit_ratio
    ),
    "theta.theta_argmin.self_s": ("s", SELF, _self("theta.theta_argmin")),
    "troptoda.theta_solution.self_s": ("s", SELF, _self("troptoda.theta_solution")),
    "troptoda.conserved.self_s": ("s", SELF, _self("troptoda.conserved")),
    "troptoda.conserved.calls": ("count", CALLS, _calls("troptoda.conserved")),
    "troptoda.conserved.subsets": (
        "count", "computed: sum of C(2N, k) over calls, per problem", _size("troptoda.conserved")
    ),
    "troptoda.evolve_toda.self_s": ("s", SELF, _self("troptoda.evolve_toda")),
    "bbs.evolve.self_s": ("s", SELF, _self("bbs.evolve")),
    "bbs.evolve.cells": (
        "count", "computed: window cells over calls, per problem", _size("bbs.evolve")
    ),
    "pbbs.evolve_periodic.self_s": ("s", SELF, _self("pbbs.evolve_periodic")),
}


class RunError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {' '.join(args)} did not finish in time") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the 11th largest sample, with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _failed(result: dict) -> int:
    return sum(f["count"] for f in result["failures"].values())


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, dict]:
    common = ["--workload", workload, "--seed", str(seed)]
    _worker(common + ["--setup-only"], deadline)  # compiles bytecode; not counted
    probes = [_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    result = _worker(common + ["--seconds", str(seconds)], deadline)
    lat, raw = result["latencies"], result["raw_latencies"]
    tail, pct = _tail(lat)
    failed = _failed(result)
    metrics = {
        "throughput_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }
    extra = {
        "latency_tail_ms": (tail * 1e3, "ms"),
        "fail_ratio": (failed / len(lat), "ratio"),
    }
    meta = {
        "samples": len(lat),
        "peak_rss_problems": result["peak_rss_problems"],
        "latency_tail_percentile": round(pct, 3),
        "setup_probes_s": [p["setup_s"] for p in probes],
        "unscaled": {
            "throughput_per_s": len(raw) / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": _tail(raw)[0] * 1e3,
            "setup_s": statistics.median(p["raw_setup_s"] for p in probes),
        },
    }
    return metrics, extra, {"result": result, "workers": [result], **meta}


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", str(seed)]
    traced = _worker(common + ["--seconds", str(seconds / 2), "--trace"], deadline)
    n = len(traced["latencies"])
    plain = _worker(common + ["--count", str(n), "--seconds", str(seconds)], deadline)
    m = len(plain["latencies"])
    table = traced["layers"]
    to_reference = sum(traced["latencies"]) / sum(traced["raw_latencies"])
    for row in table.values():
        row["self_s"] *= to_reference
    metrics = {name: (derive(table, n), unit) for name, (unit, _, derive) in LAYER_METRICS.items()}
    overhead = sum(traced["latencies"][:m]) / sum(plain["latencies"])  # both at reference speed
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    ranked = sorted(
        ((row["self_s"], layer) for layer, row in table.items() if layer != "problem"), reverse=True
    )
    total_self = sum(row["self_s"] for row in table.values())
    top = [(layer, s / total_self) for s, layer in ranked[:6]]
    dominant = top[0][0] if top else None
    predicted = PREDICTED[workload]
    predicted_self = sum(table.get(layer, {}).get("self_s", 0.0) for layer in predicted)
    predicted_share = predicted_self / total_self
    meta = {
        "samples": n,
        "top_layers_by_self_share": [[layer, round(share, 4)] for layer, share in top],
        "dominant_layer": dominant,
        "predicted_layers": list(predicted),
        "predicted_self_share": round(predicted_share, 4),
        "prediction_met": dominant in predicted,
        "result": traced,
        "workers": [traced, plain],
    }
    return metrics, meta


def main() -> int:
    ap = argparse.ArgumentParser(description="boxball benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "boxball" / "__init__.py").is_file():
        print(f"error: no boxball sources under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, meta = measure_traced(args.workload, args.seed, args.seconds, deadline)
            extra = {}
        else:
            metrics, extra, meta = measure(args.workload, args.seed, args.seconds, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    probe = None
    if args.workload == "toda":
        common = ["--workload", "toda", "--seed", str(args.seed)]
        try:
            probe = _worker(common + ["--defect-probe"], deadline)
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    result = meta.pop("result")
    attempted = len(result["latencies"])
    failed = _failed(result)
    failed_any_worker = sum(_failed(w) for w in meta.pop("workers"))
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
    )
    for name, (value, unit) in {**metrics, **extra}.items():
        how = LAYER_METRICS[name][1] if name in LAYER_METRICS else ""
        print(f"  {name:42s} {value:14.6g} {unit:9s} {how}")
    print(f"  failures: {failed} of {attempted} problems")
    if probe:
        print(
            f"  seed defect (untimed): conserved_all(theta_state) != C on {probe['reproduced']} "
            f"of {probe['checked']} theta problems with C1 != 0; {probe['passed']} pass; "
            f"other failures: {sorted(probe['other']) or 'none'}"
        )
    if not args.trace:
        print(
            f"  latency_tail_ms is p{meta['latency_tail_percentile']:.3f} "
            f"({TAIL_BEYOND} of {attempted} samples beyond it)"
        )
    else:
        verdict = "met" if meta["prediction_met"] else "NOT met"
        print(
            f"  dominant layer {meta['dominant_layer']}; "
            f"predicted {', '.join(meta['predicted_layers'])} "
            f"({meta['predicted_self_share']:.1%} of self time): prediction {verdict}"
        )
    meta.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "src_lines": _src_lines(),
            "problems_by_kind": result["kinds"],
            "failed": failed,
            "failed_any_worker": failed_any_worker,
            "failures": result["failures"],
            "seed_defect_probe": probe,
        }
    )
    print("metadata " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed_any_worker == 0 and not (probe and probe["other"]),
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
