"""Tests of the benchmark itself: seeded inputs, the oracle checks and the
run.py output contract.  Run with: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from boxball import kkr, pbbs, troptoda  # noqa: E402
from worker import defect_probe, run_loop  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(name):
    a, b, c = workloads.Stream(name, 1), workloads.Stream(name, 1), workloads.Stream(name, 2)
    idx = range(a.block_size + 2)  # crosses into the second block
    first = [a.problem(i) for i in idx]
    assert first == [b.problem(i) for i in idx]
    assert first != [c.problem(i) for i in idx]
    assert all(p["index"] == i for i, p in zip(idx, first))


def test_clean_run_has_no_failures():
    out = run_loop(workloads.Stream("periodic", 5), count=4)
    assert len(out["latencies"]) == 4 and out["failures"] == {}


def test_flipped_letter_is_a_counted_failure(monkeypatch):
    solve = kkr.solve_ivp

    def flipped(word, l, t):
        out = solve(word, l, t)
        return ("2" if out[0] == "1" else "1") + out[1:]

    monkeypatch.setattr(kkr, "solve_ivp", flipped)
    out = run_loop(workloads.Stream("ivp", 5), count=3)
    assert len(out["latencies"]) == 3
    (failure,) = out["failures"].values()
    assert failure["count"] == 3
    assert failure["reproducer"]["index"] == 0


def test_altered_rigging_is_a_counted_failure(monkeypatch):
    scatter = pbbs.direct_scattering

    def altered(state):
        J = scatter(state)
        windows = ((J.windows[0][0] + 1,) + J.windows[0][1:],) + J.windows[1:]
        return pbbs.AngleVariable(J.mu, windows)

    monkeypatch.setattr(pbbs, "direct_scattering", altered)
    out = run_loop(workloads.Stream("periodic", 5), count=4)
    assert len(out["latencies"]) == 4
    assert sum(f["count"] for f in out["failures"].values()) == 4


def test_seed_defect_is_probed_not_skipped():
    # C_1 != 0: the theta-function state has other conserved values than C
    state = troptoda.theta_state((20, -11), (3, 7, 12, 33), 0)
    assert troptoda.conserved_all(state) == (3, 10, 18, 39)
    problems = workloads.defect_problems(1)
    assert problems[0] == workloads.REPRODUCER
    assert all(p["C"][0] != 0 for p in problems)
    probe = defect_probe(1)
    assert probe["checked"] == len(problems) and probe["other"] == {}
    assert probe["example"]["problem"] == workloads.REPRODUCER
    # with C_1 = 0 the same check passes, and the timed stream holds only such
    workloads.solve_and_check(dict(workloads.REPRODUCER, C=[0, 2, 6, 19], Z0=[-1, 8]))
    stream = workloads.Stream("toda", 1)
    theta = [stream.problem(i) for i in range(3 * stream.block_size)]
    assert all(p["C"][0] == 0 for p in theta if p["kind"] == "toda.theta")


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_line(trace):
    args = ["--workload", "periodic", "--seed", "3", "--seconds", "1", "--trace", trace]
    proc = _run(HERE.parent, *args)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = bench["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in last["metrics"].items()
    }


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "ivp", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
