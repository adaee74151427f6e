import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from boxball.cli import main
from boxball.kkr import kkr_phi


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


PERIODIC_MIDDLE_COLUMN = [
    "222...2.....",
    "..222..2....",
    "....222.2...",
    "......22.22.",
    "2.......2.22",
    "222......2..",
    "..222.....2.",
]


def test_evolve_periodic_golden(capsys):
    code, out, _ = run(capsys, "evolve", "222111211111", "--periodic", "--l", "2", "--steps", "6")
    assert code == 0
    assert out.splitlines() == PERIODIC_MIDDLE_COLUMN


def test_evolve_periodic_l3_and_l1(capsys):
    code, out, _ = run(capsys, "evolve", "222...2.....", "--periodic", "--l", "inf", "--steps", "6")
    assert code == 0
    assert out.splitlines()[3] == "22.....2...2"
    code, out, _ = run(capsys, "evolve", "222...2.....", "--periodic", "--l", "1", "--steps", "2")
    assert out.splitlines() == ["222...2.....", ".222...2....", "..222...2..."]


def test_evolve_steps_zero_echoes(capsys):
    code, out, _ = run(capsys, "evolve", "..322..", "--steps", "0")
    assert code == 0
    assert out.strip() == "322"


def test_evolve_json_format(capsys):
    code, out, _ = run(
        capsys, "evolve", "22..", "--periodic", "--l", "1", "--steps", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"rows": ["22..", ".22.", "..22"]}


def test_evolve_infinite_block_golden(capsys):
    rows = [
        "........2222.....332..43..................................",
        "............2222....332.43................................",
        "................2222...33243..............................",
        "....................2222..32433...........................",
        "........................222.322433........................",
        "...........................22..3224332....................",
        ".............................22...322.4332................",
        "...............................22....322..4332............",
        ".................................22.....322...4332........",
    ]
    code, out, _ = run(capsys, "evolve", rows[0], "--steps", "8")
    assert code == 0
    got = out.splitlines()
    # normalize away the window offset: strip the golden block's common
    # leading-dot margin and trailing dots of every row
    margin = min(len(r) - len(r.lstrip(".")) for r in rows)
    want = [r[margin:].rstrip(".") for r in rows]
    assert [g.rstrip(".") for g in got] == want


def test_scatter_cli(capsys):
    code, out, _ = run(capsys, "scatter", "554322", "422")
    assert code == 0
    assert json.loads(out) == {"small_out": "553", "big_out": "442222", "delta": 5}


def test_kkr_cli_roundtrip(capsys):
    code, out, _ = run(capsys, "kkr", "11112221322433")
    assert code == 0
    doc = json.loads(out)
    assert doc["L"] == 14 and doc["n"] == 3
    assert sorted(map(tuple, doc["strings"]["1"])) == [(2, 3), (3, 2), (4, 0)]
    code, out2, _ = run(capsys, "kkr", out.strip(), "--inverse")
    assert code == 0
    assert out2.strip() == "11112221322433"


def test_kkr_inverse_invalid_configuration_exit_code(capsys):
    code, out, err = run(capsys, "kkr", '{"L":3,"n":1,"strings":{"1":[[5,0]]}}', "--inverse")
    assert code == 3
    assert out == "" and "strings left over" in err


def test_kkr_inverse_negative_length_exit_code(capsys):
    code, out, err = run(capsys, "kkr", '{"L": -3, "n": 1, "strings": {}}', "--inverse")
    assert code == 3
    assert out == "" and "L must be >= 0" in err


def test_tau_cli_tsv(capsys):
    code, out, _ = run(capsys, "tau", "112212")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("k\t")
    assert len(lines) == 8  # header + k = 0..6


def test_tau_cli_one_large_class(capsys, monkeypatch):
    # 21 strings of one class visit 22 count vectors: well under the default cap
    monkeypatch.delenv("BOXBALL_SUBSET_CAP", raising=False)
    code, out, _ = run(capsys, "tau", "12" * 21)
    assert code == 0
    assert len(out.splitlines()) == 44  # header + k = 0..42


def test_analyze_action(capsys):
    code, out, _ = run(capsys, "analyze", "action", "1212111222")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == [3, 1, 1]
    assert doc["gamma"] == [1, 1]


def test_analyze_angle(capsys):
    code, out, _ = run(capsys, "analyze", "angle", "112212")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == [2, 1]
    assert set(doc["windows"]) == {"1", "2"}


# analyze angle prints the canonical slide-orbit representative; these states
# have repeated parts (m_i >= 2), the last two an internal symmetry gamma > 1
# (gamma = (1, 2) and (2, 1, 1)).  The strings were recorded from the rotation
# scan that canonicalize replaced.
ANALYZE_ANGLE_GOLDEN = [
    (
        "2..22.2..2.....2.2..22.2",
        '{"L": 24, "mu": [3, 2, 1, 1, 1, 1, 1], "windows": {"1": [0, 0, 2, 5, 6], "2": [5], "3": [45]}}',
    ),
    (
        "..2..2...22.......22..",
        '{"L": 22, "mu": [2, 2, 1, 1], "windows": {"1": [0, 13], "2": [64, 69]}}',
    ),
    (
        ".2....2.222.2....2.22.",
        '{"L": 22, "mu": [3, 2, 1, 1, 1, 1], "windows": {"1": [0, 2, 5, 7], "2": [1], "3": [249]}}',
    ),
]


@pytest.mark.parametrize("state,expected", ANALYZE_ANGLE_GOLDEN)
def test_analyze_angle_golden(capsys, state, expected):
    code, out, _ = run(capsys, "analyze", "angle", state)
    assert code == 0
    assert out == expected + "\n"


def test_analyze_period(capsys):
    code, out, _ = run(capsys, "analyze", "period", "1212111222")
    assert code == 0
    assert json.loads(out) == {"N1": 10, "N2": 20, "N3": 2}


def test_analyze_period_vacuum(capsys):
    code, out, _ = run(capsys, "analyze", "period", "1111")
    assert code == 0
    assert json.loads(out) == {"N1": 1, "N2": 1, "N3": 1}


def test_analyze_count_and_decompose(capsys):
    code, out, _ = run(capsys, "analyze", "count", "--L", "6", "--mu", "2,1")
    assert code == 0
    assert out.strip() == "12"
    code, out, _ = run(capsys, "analyze", "decompose", "--L", "24", "--mu", "3,2,2,1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert [row["multiplicity"] for row in doc] == [90, 30, 3, 1]


def test_toda_spectral(capsys):
    code, out, _ = run(capsys, "toda", "spectral", "0,1,4,9")
    assert code == 0
    doc = json.loads(out)
    assert doc["Omega"] == [["16", "-5"], ["-5", "10"]]
    assert doc["smooth"] is True


def test_toda_genus_zero(capsys):
    # N = 1: Omega is the empty matrix (null only off smooth curves), and the
    # theta solution is the fixed point (0, L)
    code, out, _ = run(capsys, "toda", "spectral", "0,5")
    assert code == 0
    assert out.splitlines() == [
        '{"C": ["0", "5"], "L": "5", "lambda": ["0"], "eta": ["5"], "smooth": true, "Omega": []}'
    ]
    code, out, _ = run(capsys, "toda", "spectral", "0,2,4,19")
    assert code == 0 and json.loads(out)["Omega"] is None
    code, out, _ = run(capsys, "toda", "solve", "--C", "0,5", "--z0", "", "--steps", "2")
    assert code == 0
    assert out.splitlines() == ["0\t0\t5", "1\t0\t5", "2\t0\t5"]


def test_toda_evolve_and_solve(capsys):
    code, out, _ = run(capsys, "toda", "evolve", "3,4,0,1", "--steps", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[-1] == ["0", "5", "3", "0"]
    code, out, _ = run(
        capsys, "toda", "solve", "--C", "0,3,8", "--z0", "9", "--steps", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == rows


def test_toda_embed(capsys):
    code, out, _ = run(capsys, "toda", "embed", "122211211")
    assert code == 0
    assert json.loads(out) == ["0", "1", "3", "2", "1", "2"]


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "scatter", "22", "333")
    assert code == 3
    assert "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "count"])  # missing --L/--mu
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, ignored",
    [
        (("toda", "spectral", "0,1,4,9", "--format", "text"), "--format text"),
        (("analyze", "action", "1212111222", "--mu", "3", "--format", "text"), "--mu 3 --format text"),
        (("toda", "solve", "5,5", "--C", "0,3,8", "--z0", "9", "--leftmost", "4"), "5,5 --leftmost 4"),
    ],
)
def test_option_of_another_leaf_usage_error(capsys, argv, ignored):
    # before, each of these exited 0 and silently ignored what did not apply
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {ignored}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("toda", "embed", "12x211211"),
        ("evolve", "1x1111", "--periodic"),
        ("analyze", "action", "1x1111"),
    ],
)
def test_bad_cell_character_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "cells must be 1, . or 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("evolve", "2211", "--steps", "-3"),
        ("evolve", "2211", "--periodic", "--steps", "-1"),
        ("toda", "evolve", "3,4,0,1", "--steps", "-1"),
        ("evolve", "2211", "--steps", "two"),
    ],
)
def test_negative_steps_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "steps" in capsys.readouterr().err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_selftest_under_optimize():
    # python -O strips asserts; every check must still run and pass
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "boxball.cli", "selftest"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines), run.stdout


# Rational C and Z0: the theta arguments have denominators that the period
# matrix's do not share, and (second case) the period matrix is not integer.
# Then rational evolve and spectral input, whose values turn integral in
# places: an integral value prints as an integer whatever its type.
TODA_SOLVE_RATIONAL = [
    (
        ("solve", "--C", "0,1,4,9", "--z0", "1/2,1/3", "--steps", "2"),
        [
            "0\t1/2\t0\t1/2\t4/3\t3\t11/3",
            "1\t0\t1/2\t1\t10/3\t3\t7/6",
            "2\t1/2\t1\t7/3\t4\t7/6\t0",
        ],
    ),
    (
        ("solve", "--C", "0,1/2,4,9", "--z0", "1,2"),
        [
            "0\t0\t1/2\t1/2\t5/2\t7/2\t2",
            "1\t1/2\t1/2\t3/2\t9/2\t2\t0",
            "2\t1/2\t3/2\t7/2\t3\t0\t1/2",
            "3\t1/2\t9/2\t3\t0\t1/2\t1/2",
            "4\t7/2\t4\t0\t1/2\t1/2\t1/2",
            "5\t7/2\t1/2\t0\t1\t1/2\t7/2",
        ],
    ),
    (
        ("evolve", "5/2,1,0,9/2,2,1/3", "--steps", "3"),
        [
            "0\t5/2\t1\t0\t9/2\t2\t1/3",
            "1\t1\t0\t19/6\t10/3\t1/3\t5/2",
            "2\t0\t19/6\t10/3\t1/3\t7/6\t7/3",
            "3\t11/6\t14/3\t1/3\t7/6\t7/3\t0",
        ],
    ),
    (
        ("spectral", "0,1/2,4,9"),
        [
            '{"C": ["0", "1/2", "4", "9"], "L": "9", "lambda": ["0", "1/2", "7/2"], '
            '"eta": ["9", "7", "1"], "smooth": true, "Omega": [["17", "-7"], ["-7", "14"]]}'
        ],
    ),
    (
        ("spectral", "1/3,10/3,26/3"),
        [
            '{"C": ["1/3", "10/3", "26/3"], "L": "8", "lambda": ["0", "3"], '
            '"eta": ["8", "2"], "smooth": true, "Omega": [["16"]]}'
        ],
    ),
]


@pytest.mark.parametrize("argv, expect", TODA_SOLVE_RATIONAL)
def test_toda_solve_rational_golden(capsys, argv, expect):
    code, out, _ = run(capsys, "toda", *argv)
    assert code == 0
    assert out.splitlines() == expect


@pytest.mark.parametrize(
    "C, z0", [("0,1,4,9", "1"), ("0,3,8", "9,4"), ("0,3,8", "9,4,1")]
)
def test_toda_solve_wrong_z0_length_exit_code(capsys, C, z0):
    code, out, err = run(capsys, "toda", "solve", "--C", C, "--z0", z0)
    assert code == 3 and out == ""
    assert "Z0 must have" in err


def test_toda_solve_genus4(capsys):
    C = "0,1,5,13,30,67"  # the conserved values of Q = (0,1,11,8,10), W = (6,11,8,4,8)
    code, out, _ = run(capsys, "toda", "solve", "--C", C, "--z0", "3,-7,12,0", "--steps", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4 and all(len(r) == 10 for r in rows)
    code, out, _ = run(capsys, "toda", "evolve", ",".join(rows[0]), "--steps", "3", "--format", "json")
    assert code == 0 and json.loads(out) == rows


def test_bad_capacity_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "22", "--l", "0"])
    assert exc.value.code == 2
    assert "--l" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        # before, --l 0 printed "invalid _parse_l value: '0'"
        (("evolve", "22..2", "--l", "0"), "argument --l: l must be >= 1 or inf"),
        (("evolve", "22..2", "--l", "two"), "argument --l: invalid int value: 'two'"),
        (("evolve", "22..2", "--steps", "-1"), "argument --steps: steps must be >= 0"),
        (("evolve", "22..2", "--steps", "1.5"), "argument --steps: invalid int value: '1.5'"),
        (("analyze", "period", "22..", "--l-max", "0"), "argument --l-max: l-max must be >= 1"),
    ],
)
def test_integer_options_say_why(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("big, small", [("٣2", "2"), ("32", "２")])
def test_scatter_non_ascii_label_exit_code(capsys, big, small):
    # before, both printed {"small_out": "3", "big_out": "22", "delta": 2}
    code, out, err = run(capsys, "scatter", big, small)
    assert code == 3 and out == "" and "letters must be >= 1 and <= 9" in err


def test_embed_leftmost_is_taken_mod_L(capsys):
    # before, --leftmost 99 gave the leftmost-0 embedding ["0", "2", "2", "2"]
    outs = [run(capsys, "toda", "embed", "1122..", "--leftmost", k)[1] for k in ("99", "3", "-3")]
    assert outs[0] == outs[1] == outs[2] != run(capsys, "toda", "embed", "1122..")[1]


@pytest.mark.parametrize("l_max", ["0", "-2"])
def test_bad_l_max_is_usage_error(capsys, l_max):
    # before, analyze period printed {} and exited 0
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "period", "1212111222", "--l-max", l_max])
    assert exc.value.code == 2
    assert "--l-max" in capsys.readouterr().err


def test_empty_partition_exit_code(capsys):
    code, out, err = run(capsys, "analyze", "count", "--L", "6", "--mu", ",")
    assert code == 3 and out == ""
    assert "empty partition" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("kkr", "1213", "--rank", "1"), "letters must lie in 1..2"),
        (("tau", "1213", "--rank", "1"), "letters must lie in 1..2"),
        (("kkr", "12", "--rank", "0"), "rank must be >= 1"),
        (("analyze", "count", "--L", "6", "--mu", "0"), "parts must be >= 1"),
        (("analyze", "count", "--L", "6", "--mu", "-1"), "parts must be >= 1"),
        (("analyze", "decompose", "--L", "6", "--mu", "2,0"), "parts must be >= 1"),
        (("kkr", '{"L":3}', "--inverse"), "keys"),
        (("kkr", "[1]", "--inverse"), "keys"),
        (("kkr", '{"L":3,"n":"1","strings":{}}', "--inverse"), "must be integers"),
        (("kkr", '{"L":3,"n":1,"strings":{"2":[]}}', "--inverse"), "colors 1..1"),
        (("kkr", '{"L":3,"n":1,"strings":{"1":[[1]]}}', "--inverse"), "integer pairs"),
        (("kkr", "{", "--inverse"), ""),
        # before, an empty field was dropped: mu = (3, 1) and C = (0, 3, 8)
        (("analyze", "count", "--L", "10", "--mu", "3,,1"), "empty field"),
        (("analyze", "decompose", "--L", "10", "--mu", "2,1,"), "empty field"),
        (("toda", "solve", "--C", "0,,3,8", "--z0", "9"), "empty field"),
        (("toda", "solve", "--C", "0,3,8", "--z0", ",9"), "empty field"),
    ],
)
def test_bad_input_exit_code(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # before, evolve read the Arabic-Indic digit as 3 and kkr --inverse printed "12345678910"
        (("evolve", "1٣2"), "letters must be >= 1 and <= 9"),
        (("kkr", "12٣"), "letters must be >= 1 and <= 9"),
        (("tau", "120"), "letters must be >= 1 and <= 9"),
        (("kkr", kkr_phi(tuple(range(1, 11)), rank=9).to_json(), "--inverse"), "above 9"),
    ],
)
def test_word_letters_one_ascii_character_each(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and message in err
