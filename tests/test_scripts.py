"""The two experiment scripts README.md cites run end to end and reject bad arguments."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_scattering_experiment_finds_no_mismatch():
    run = run_script("scattering_experiment.py", "--trials", "20")
    assert run.returncode == 0, run.stderr
    assert "20 scatterings, 0 mismatches" in run.stdout
    assert run.stdout.count("delta=") == 20


def test_isolevel_census_enumerates_the_closed_form_count():
    run = run_script("isolevel_census.py", "--L", "10", "--mu", "3,1,1")
    assert run.returncode == 0, run.stderr
    predicted = int(re.search(r"\|P_L\(mu\)\| = (\d+)", run.stdout).group(1))
    enumerated = int(re.search(r"enumerated (\d+) states", run.stdout).group(1))
    assert predicted == enumerated == 100
    # the observed orbits cover the enumerated set
    observed = re.findall(r"observed: gamma=\(.*?\)  orbit size=(\d+)  count=(\d+)", run.stdout)
    assert sum(int(size) * int(count) for size, count in observed) == enumerated


@pytest.mark.parametrize(
    "name, args",
    [
        ("scattering_experiment.py", ["--max-amplitude", "1"]),
        ("scattering_experiment.py", ["--max-letter", "10"]),
        ("scattering_experiment.py", ["--trials", "-1"]),
        ("isolevel_census.py", ["--L", "10", "--mu", "3,,1"]),
        ("isolevel_census.py", ["--L", "10", "--mu", "9,1"]),
        ("isolevel_census.py", ["--L", "21", "--mu", "3,1,1"]),
    ],
)
def test_bad_arguments_are_usage_errors(name, args):
    run = run_script(name, *args)
    assert run.returncode == 2
    assert "error:" in run.stderr and "Traceback" not in run.stderr
