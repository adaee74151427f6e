"""One benchmark process: import boxball, generate inputs, run one workload as
a closed loop with a single client, and print the raw results as one JSON line.

run.py starts a fresh worker for every measurement so that the library's
module caches (theta._cache, tau._tables) start empty, as in a user's session.

    python3 perfbench/worker.py --workload ivp --seed 1 --seconds 10
    python3 perfbench/worker.py --workload ivp --seed 1 --count 40 --trace
    python3 perfbench/worker.py --workload ivp --seed 1 --setup-only
    python3 perfbench/worker.py --workload toda --seed 1 --defect-probe
"""

import resource
import time


def cpu_clock() -> float:
    """CPU seconds used by this process and its waited-for children, so that
    work a change moves into child processes is still counted."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


_START = cpu_clock()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

# The probe's CPU time at the reference speed: its median on the 2-vCPU
# x86-64 VM, Python 3.11, where the benchmark was defined.
REF_PROBE_S = 0.007
PROBE_EVERY_S = 0.05
# Peak RSS is read after this many blocks, a fixed amount of work, because
# the theta and tau caches grow with every problem a run fits in.
RSS_BLOCKS = 8


def probe() -> float:
    """CPU seconds of a fixed piece of pure-Python work that uses no boxball
    code: rational sums, dict updates and sorting, as the library does."""
    start = cpu_clock()
    table: dict[int, int] = {}
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i % 7, i % 5 + 1)
        table[i % 97] = table.get(i % 97, 0) + i * i
        sorted(range(i % 40, 0, -1))
    return cpu_clock() - start


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def warm_probes(k: int) -> list[float]:
    """k probe times, after one untimed probe that warms the interpreter up."""
    probe()
    return [probe() for _ in range(k)]


class Speed:
    """Scales CPU times to the reference speed by probes that bracket them.

    On a shared machine the same work can take tens of percent longer from
    one tenth of a second to the next while other tenants are busy.  A probe
    runs after every PROBE_EVERY_S of work, and the times added since the one
    before are scaled by REF_PROBE_S over the mean of these two probes.  The
    scaled times are reference-speed CPU seconds, which change when the work
    changes and hardly when the machine's load does."""

    def __init__(self):
        self.before = statistics.median(warm_probes(3))
        self.pending: list[float] = []
        self.scaled: list[float] = []

    def add(self, cpu_s: float) -> None:
        self.pending.append(cpu_s)
        if sum(self.pending) >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        after = probe()
        scale = REF_PROBE_S / ((self.before + after) / 2)
        self.scaled += [t * scale for t in self.pending]
        self.before, self.pending = after, []


def attempt(problem: dict, tracer=None) -> tuple[str | None, str | None]:
    """Solve and check one problem: (None, None), or the failed check's name
    and the error.  A wrong answer or an exception is returned, never raised."""
    import workloads

    try:
        if tracer:
            with tracer.problem(problem["index"]):
                workloads.solve_and_check(problem)
        else:
            workloads.solve_and_check(problem)
    except workloads.Mismatch as exc:
        return exc.check, str(exc)
    except Exception as exc:  # a library failure is a counted outcome
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        error += "\n" + "".join(traceback.format_tb(exc.__traceback__)[-3:])
        return type(exc).__name__, error
    return None, None


def run_loop(
    stream, *, seconds: float | None = None, count: int | None = None, tracer=None
) -> dict:
    """Solve and check problems 0, 1, ... until count problems are done, or
    until seconds of wall time pass and the stream's current block is done, so
    that a timed run holds whole blocks and every seed the same mix of sizes.
    A problem's latency is its CPU time at reference speed.  A wrong answer
    or an exception is counted and never stops the loop.  Input generation is
    not timed.  Peak RSS is read after RSS_BLOCKS blocks, or at the end of a
    shorter run."""
    speed = Speed()
    deadline = time.monotonic() + seconds if seconds is not None else None
    raw: list[float] = []
    failures: dict[str, dict] = {}
    kinds: dict[str, int] = {}
    rss = None
    i = 0
    while count is None or i < count:
        if i == RSS_BLOCKS * stream.block_size:
            rss = {"peak_rss_mib": peak_rss_mib(), "peak_rss_problems": i}
        at_block_end = i and i % stream.block_size == 0
        if at_block_end and deadline is not None and time.monotonic() >= deadline:
            break
        if tracer:
            with tracer.paused():
                problem = stream.problem(i)
        else:
            problem = stream.problem(i)
        start = cpu_clock()
        check, error = attempt(problem, tracer)
        raw.append(cpu_clock() - start)
        speed.add(raw[-1])
        kinds[problem["kind"]] = kinds.get(problem["kind"], 0) + 1
        if error is not None:
            entry = failures.setdefault(
                f"{problem['kind']}: {check}", {"count": 0, "reproducer": problem, "detail": error}
            )
            entry["count"] += 1
        i += 1
    speed.flush()
    return {
        "latencies": speed.scaled,
        "raw_latencies": raw,
        "failures": failures,
        "kinds": kinds,
        **(rss or {"peak_rss_mib": peak_rss_mib(), "peak_rss_problems": i}),
    }


def defect_probe(seed: int) -> dict:
    """Check the seed defect's problems (workloads.defect_problems), untimed:
    how many still show it, how many now pass, and any other failure."""
    import workloads

    out = {"checked": 0, "reproduced": 0, "passed": 0, "other": {}, "example": None}
    for problem in workloads.defect_problems(seed):
        check, error = attempt(problem)
        out["checked"] += 1
        if check == workloads.CONSERVED_CHECK:
            out["reproduced"] += 1
            out["example"] = out["example"] or {"problem": problem, "detail": error}
        elif check is None:
            out["passed"] += 1
        else:
            out["other"].setdefault(check, {"problem": problem, "detail": error})
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--count", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--defect-probe", action="store_true")
    args = ap.parse_args()
    if args.defect_probe:
        print(json.dumps(defect_probe(args.seed)))
        return

    import workloads

    stream = workloads.Stream(args.workload, args.seed)
    raw_setup_s = cpu_clock() - _START
    out = {
        "raw_setup_s": raw_setup_s,
        "setup_s": raw_setup_s * REF_PROBE_S / statistics.median(warm_probes(5)),
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        out.update(run_loop(stream, seconds=args.seconds, count=args.count, tracer=tracer))
        if tracer:
            out["layers"] = spans.layer_table(tracer.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
