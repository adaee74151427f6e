"""The size-sweep script runs end to end at small sizes and prints its JSON."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_kkr_sweep_prints_timings_exponents_and_roundtrip(tmp_path):
    # time a copy of the package one line longer than src/: src_lines counts
    # the package the script imports, not the checkout the script sits in
    shutil.copytree(ROOT / "src" / "boxball", tmp_path / "boxball", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "boxball" / "__init__.py", "a") as f:
        f.write("# one more line\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "60", "120"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    kkr = doc["kkr"]
    assert kkr["sizes"] == [60, 120] and kkr["repeats"] == 3
    assert kkr["ranks"] == [1, 2, 3] and set(kkr["by_rank"]) == {"1", "2", "3"}
    for sweep in kkr["by_rank"].values():
        assert len(sweep["phi_s"]) == len(sweep["phi_inv_s"]) == 2
        assert {"phi_growth_exp", "phi_inv_growth_exp"} <= set(sweep)
        assert sweep["roundtrip"] is True
    assert kkr["roundtrip"] is True
    ev = doc["evolve"]
    assert ev["sizes"] == [60, 120] and ev["repeats"] == 3 and ev["steps"] == 3
    for key in ("3", "inf"):
        assert len(ev[f"evolve_{key}_s"]) == len(ev[f"solve_ivp_{key}_s"]) == 2
        assert {f"evolve_{key}_growth_exp", f"solve_ivp_{key}_growth_exp"} <= set(ev)
    assert ev["ivp_L"] == 130 and ev["ivp_ball_fraction"] == 0.35
    assert ev["ivp_ranks"] == [1, 2, 3] and ev["ivp_calls"] == 20
    for key in ("3", "inf"):
        assert len(ev[f"evolve_{key}_ivp_s"]) == len(ev[f"solve_ivp_{key}_ivp_s"]) == 3
    assert ev["oracle"] is True
    intmat = doc["intmat"]
    assert intmat["genera"] == [4, 8, 16, 32] and intmat["repeats"] == 3
    assert len(intmat["elimination_s"]) == 4 and "growth_exp" in intmat
    assert intmat["adjugate"] is True
    pbbs = doc["pbbs"]
    assert pbbs["genera"] == [3, 8, 14] and pbbs["rotations"] == [216, 6561, 16384]
    assert pbbs["repeats"] == 3 and len(pbbs["L"]) == 3
    assert len(pbbs["canonicalize_s"]) == len(pbbs["angle_equal_s"]) == 3
    assert len(pbbs["fundamental_period_s"]) == 3
    assert pbbs["inverse_scattering_genera"] == [3, 8] and len(pbbs["inverse_scattering_s"]) == 2
    assert {
        "canonicalize_growth_exp",
        "angle_equal_growth_exp",
        "inverse_scattering_growth_exp",
        "fundamental_period_growth_exp",
    } <= set(pbbs)
    assert pbbs["oracle"] is True and pbbs["roundtrip"] is True
    toda = doc["troptoda"]
    assert toda["sizes"] == [100, 200, 400] and toda["repeats"] == 3
    assert len(toda["conserved_all_s"]) == len(toda["evolve_toda_s"]) == 3
    assert {"conserved_all_growth_exp", "evolve_toda_growth_exp", "theta_trajectory_s"} <= set(toda)
    assert toda["theta_genus"] == 4 and toda["theta_steps"] == 4
    assert toda["invariant"] is True and toda["theta_trajectory"] is True
    # a cold trajectory of 5 states computes 6 rows of N = 5 thetas
    assert toda["theta_trajectory_thetas"] == 30
    theta = doc["theta"]
    assert theta["genera"] == [2, 4, 6, 8] and theta["repeats"] == 3 and theta["arguments"] > 0
    assert len(theta["value_s"]) == len(theta["argmin_s"]) == 4
    assert {"value_growth_exp", "argmin_growth_exp"} <= set(theta)
    assert theta["equal"] is True
    tau = doc["tau"]
    assert tau["sizes"] == [12, 14, 16, 18, 40] and tau["repeats"] == 3
    assert len(tau["table_s"]) == len(tau["hirota_s"]) == 5 and "growth_exp" in tau
    assert tau["oracle"] is True
    assert tau["sl3_strings"] == [12, 14, 16] and len(tau["sl3_table_s"]) == 3
    assert all(20 <= L <= 40 for L in tau["sl3_L"]) and len(tau["sl3_L"]) == 3
    assert tau["sl3_oracle"] is True
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "boxball").glob("*.py"))
    assert doc["src_lines"] == src_lines + 1
