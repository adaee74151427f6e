import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxball.bbs import BBSState, evolve, soliton_content
from boxball.kkr import (
    RiggedConfiguration,
    evolve_rc,
    highest_paths,
    is_highest,
    kkr_phi,
    kkr_phi_inv,
    q_sum,
    solve_ivp,
)

RC = RiggedConfiguration

# the n=3 worked example: L=14, mu^(1)=(4,3,2), mu^(2)=(3,1), mu^(3)=(1)
WORKED_RC = RC.make(
    14,
    3,
    [
        [(4, 0), (3, 2), (2, 3)],
        [(3, 1), (1, 0)],
        [(1, 0)],
    ],
)
WORKED_PATH = "11112221322433"


def test_vacancy_sl2_example():
    rc = RC.make(8, 1, [[(2, 0), (1, 0), (1, 0)]])
    assert rc.vacancy(1, 2) == 0
    assert rc.vacancy(1, 1) == 2


def test_vacancy_rank3_example():
    assert WORKED_RC.vacancy(1, 2) == 5
    assert WORKED_RC.vacancy(1, 3) == 2
    assert WORKED_RC.vacancy(1, 4) == 0
    assert WORKED_RC.vacancy(2, 1) == 0
    assert WORKED_RC.vacancy(2, 3) == 1
    assert WORKED_RC.vacancy(3, 1) == 0
    assert WORKED_RC.is_valid()


def test_vacancy_empty_configuration():
    rc = RC.make(6, 2, [[], []])
    for j in (1, 2, 5):
        assert rc.vacancy(1, j) == 6
        assert rc.vacancy(2, j) == 0


def test_phi_sl2_table():
    # L=6 highest paths and their rigged configurations
    table = {
        "121212": [(1, 0), (1, 0), (1, 0)],
        "111222": [(3, 0)],
        "121122": [(2, 0), (1, 0)],
        "112122": [(2, 0), (1, 1)],
        "112212": [(2, 0), (1, 2)],
    }
    for word, strings in table.items():
        rc = kkr_phi(word, rank=1)
        assert rc == RC.make(6, 1, [strings]), word
        assert kkr_phi_inv(rc) == word


def test_phi_inv_rank3_example():
    assert kkr_phi_inv(WORKED_RC) == WORKED_PATH
    assert kkr_phi(WORKED_PATH, rank=3) == WORKED_RC


def test_phi_inv_all_L8_mu211():
    # the six rigged configurations with mu = (2,1,1) at L = 8
    expected = {
        (0, 0): "12121122",
        (0, 1): "12112122",
        (0, 2): "12112212",
        (1, 1): "11212122",
        (1, 2): "11212212",
        (2, 2): "11221212",
    }
    for (r1, r2), word in expected.items():
        rc = RC.make(8, 1, [[(2, 0), (1, r1), (1, r2)]])
        assert kkr_phi_inv(rc) == word
        assert kkr_phi(word, rank=1) == rc


def test_vacancies_list_each_distinct_length_ascending():
    assert WORKED_RC.vacancies(1) == (5, 2, 0)
    assert WORKED_RC.vacancies(2) == (0, 1)
    assert WORKED_RC.vacancies(3) == (0,)
    assert RC.make(6, 2, [[], []]).vacancies(1) == ()
    with pytest.raises(ValueError, match="color out of range"):
        WORKED_RC.vacancies(4)


@pytest.mark.parametrize("a", [True, 1.0])
def test_vacancies_take_an_int_color(a):
    # before, vacancies(True) answered as color 1 and vacancies(1.0) raised TypeError
    with pytest.raises(ValueError, match="color must be an int"):
        WORKED_RC.vacancies(a)


@pytest.mark.parametrize("a, j", [(1, 2.5), (1, True), (True, 2), (2, 2.0)])
def test_vacancy_takes_int_color_and_length(a, j):
    # before, vacancy(1, 2.5) returned 3.5 and a bool was read as 1
    with pytest.raises(ValueError, match="must be an int"):
        WORKED_RC.vacancy(a, j)


@pytest.mark.parametrize(
    "args",
    [
        (2.5, 1, ((),)),
        (True, 1, ((),)),
        (4, 1.0, ((),)),
        (4, True, ((),)),
        (4, 1, (((1, 0.5),),)),
        (4, 1, (((True, 0),),)),
        (4, 1, (((1, 0), (2.0, 1)),)),
        (4, 1, (((1, False),),)),
    ],
)
def test_rigged_configuration_entries_must_be_non_bool_ints(args):
    with pytest.raises(ValueError, match="must be an int"):
        RC(*args)


def test_bad_entries_never_reach_phi_inv():
    # a float rigging used to end in a TypeError, a bool length read as 1
    for strings in ([[(1, 0.5)]], [[(True, 0)]]):
        with pytest.raises(ValueError, match="must be an int"):
            kkr_phi_inv(RC.make(4, 1, strings))
    with pytest.raises(ValueError, match="must be an int"):
        RC.make(4, 1.0, [[(1, 0)]])


def test_rigged_configuration_rejects_unsorted_and_short_strings():
    with pytest.raises(ValueError, match="sorted"):
        RC(4, 1, (((2, 0), (1, 0)),))
    with pytest.raises(ValueError, match="sorted"):
        RC(4, 1, (((1, 1), (1, 0)),))
    with pytest.raises(ValueError, match="lengths must be >= 1"):
        RC(4, 1, (((0, 0), (1, 0)),))


@pytest.mark.parametrize("word", [(1, 2.0), (1, True, 2), [1, "2"], (1, 2, None)])
def test_tuple_words_must_hold_non_bool_int_letters(word):
    for call in (kkr_phi, is_highest):
        with pytest.raises(ValueError, match=r"^letters must lie in 1\.\.inf, each an int"):
            call(word)


@pytest.mark.parametrize("rank", [1.5, 2.0, True, "1"])
def test_phi_rank_must_be_a_non_bool_int(rank):
    with pytest.raises(ValueError, match="rank must be an int"):
        kkr_phi("12", rank=rank)
    # before, highest_paths(3, True) yielded words and 1.5 raised TypeError
    with pytest.raises(ValueError, match="rank must be an int"):
        next(highest_paths(3, rank))


def test_phi_inv_empty():
    assert kkr_phi_inv(RC.make(4, 1, [[]])) == "1111"
    assert kkr_phi_inv(RC.make(5, 3, [[], [], []])) == "11111"


def test_phi_inv_rejects_leftover_strings():
    with pytest.raises(ValueError, match="strings left over"):
        kkr_phi_inv(RC.make(3, 1, [[(5, 0)]]))


def test_phi_inv_rejects_leftover_strings_under_optimize():
    # the check must not be an assert, which python -O strips
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "from boxball.kkr import RiggedConfiguration, kkr_phi_inv\n"
        "try:\n"
        "    print(kkr_phi_inv(RiggedConfiguration.make(3, 1, [[(5, 0)]])))\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ValueError: strings left over; invalid rigged configuration"


def test_phi_rejects_non_highest():
    with pytest.raises(ValueError):
        kkr_phi("21", rank=1)
    assert not is_highest("1221121", 1)
    assert is_highest("1212112", 1)


def test_is_highest_rejects_letters_below_one():
    # text is decode_word's to refuse, a sequence the letter rule's
    for word in ("10", "0", (1, -1)):
        with pytest.raises(ValueError, match=r"^letters must lie in 1\.\."):
            is_highest(word, 1)


def test_roundtrip_exhaustive():
    for rank, L in [(1, 8), (1, 10), (2, 7)]:
        for word in highest_paths(L, rank):
            rc = kkr_phi(word, rank)
            assert rc.is_valid()
            assert kkr_phi_inv(rc) == word


def test_highest_paths_is_the_is_highest_filter_in_order():
    # product yields words in lexicographic order, as highest_paths does
    for rank in (1, 2, 3):
        for L in range(8):
            words = ("".join(map(str, w)) for w in product(range(1, rank + 2), repeat=L))
            assert list(highest_paths(L, rank)) == [w for w in words if is_highest(w, rank)], (L, rank)


def test_roundtrip_random_long():
    rng = random.Random(31)
    words = []
    for _ in range(40):
        L = rng.randint(11, 20)
        n = rng.randint(1, 3)
        for word in highest_paths(L, n):
            if rng.random() < 0.01:
                words.append((word, n))
                break
    for word, n in words:
        assert kkr_phi_inv(kkr_phi(word, n)) == word


def enumerate_rcs(L: int, rank: int, weight: tuple[int, ...]):
    """All rigged configurations of the given weight (exhaustive, small scale)."""
    sizes = [sum(weight[a:]) for a in range(1, rank + 1)]  # |mu^(a)|

    def partitions(total, cap=None):
        cap = cap or total
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    def riggings_for(shape, vac):
        # weakly increasing riggings per block within [0, vacancy]
        blocks = {}
        for j in shape:
            blocks[j] = blocks.get(j, 0) + 1

        def rec(js):
            if not js:
                yield ()
                return
            j, m = js[0]
            p = vac(j)
            if p < 0:
                return

            def combos(m, lo):
                if m == 0:
                    yield ()
                    return
                for r in range(lo, p + 1):
                    for rest in combos(m - 1, r):
                        yield (r,) + rest

            for rig in combos(m, 0):
                for rest in rec(js[1:]):
                    yield tuple((j, r) for r in rig) + rest

        yield from rec(sorted(blocks.items()))

    def rec_shapes(a, shapes):
        if a > rank:
            yield tuple(shapes)
            return
        for mu in partitions(sizes[a - 1]):
            yield from rec_shapes(a + 1, shapes + [mu])

    for shapes in rec_shapes(1, []):
        probe = RiggedConfiguration.make(
            L, rank, [[(j, 0) for j in shape] for shape in shapes]
        )
        ok = True
        for a in range(1, rank + 1):
            for j in set(shapes[a - 1]):
                if probe.vacancy(a, j) < 0:
                    ok = False
        if not ok:
            continue

        def build(a, acc):
            if a > rank:
                yield RiggedConfiguration.make(L, rank, acc)
                return
            for rig in riggings_for(shapes[a - 1], lambda j, a=a: probe.vacancy(a, j)):
                yield from build(a + 1, acc + [rig])

        yield from build(1, [])


def test_rc_roundtrip_exhaustive_small():
    import itertools

    for rank, L in [(1, 8), (2, 6)]:
        weights = [
            w
            for w in itertools.product(range(L + 1), repeat=rank + 1)
            if sum(w) == L and all(w[i] >= w[i + 1] for i in range(rank))
        ]
        for w in weights:
            for rc in enumerate_rcs(L, rank, w):
                assert rc.is_valid()
                word = kkr_phi_inv(rc)
                assert kkr_phi(word, rank) == rc


def test_cardinality_matches_highest_paths():
    import itertools
    from collections import Counter

    for rank, L in [(1, 8), (2, 6), (2, 8)]:
        by_weight = Counter()
        for word in highest_paths(L, rank):
            counts = [0] * (rank + 1)
            for ch in word:
                counts[int(ch) - 1] += 1
            by_weight[tuple(counts)] += 1
        for w, count in by_weight.items():
            assert sum(1 for _ in enumerate_rcs(L, rank, w)) == count


def test_evolve_rc_linear_rigging_growth():
    # the three-body state at t=0 has riggings (4, 10, 15) on mu^(1) = (4,3,2)
    word = "........2222.....332..43.................................."
    letters = word.replace(".", "1")
    rc = kkr_phi(letters, rank=3)
    assert rc.mu(1) == (4, 3, 2)
    assert rc.mu(2) == (3, 1)
    assert rc.mu(3) == (1,)
    assert rc.color(1) == ((2, 15), (3, 10), (4, 4))
    assert dict(rc.color(2)) == {3: 1, 1: 0}
    assert rc.color(3) == ((1, 0),)
    for t in (1, 2, 3):
        rct = evolve_rc(rc, None, steps=t)
        assert rct.color(1) == ((2, 15 + 2 * t), (3, 10 + 3 * t), (4, 4 + 4 * t))
        assert rct.strings[1:] == rc.strings[1:]


def test_evolve_rc_identity():
    assert evolve_rc(WORKED_RC, 0, steps=5) == WORKED_RC
    assert evolve_rc(WORKED_RC, 3, steps=0) == WORKED_RC


@pytest.mark.parametrize("steps", [0.5, 1.0, True])
def test_step_counts_must_be_non_bool_ints(steps):
    # before, evolve_rc returned float riggings and solve_ivp raised TypeError
    with pytest.raises(ValueError, match="steps must be an int"):
        evolve_rc(kkr_phi("1122"), 1, steps=steps)
    with pytest.raises(ValueError, match="steps must be an int"):
        solve_ivp("1122", 1, steps)


def test_evolve_rc_rejects_negative_capacity():
    # before, the color-1 riggings of 1122 silently became (2, -2)
    with pytest.raises(ValueError, match="capacity l must be >= 0"):
        evolve_rc(kkr_phi("1122"), -2)


def test_evolve_rc_matches_direct_evolution():
    rng = random.Random(34)
    checked = 0
    for word in highest_paths(9, 2):
        if rng.random() > 0.03:
            continue
        for l in (1, 2, 3):
            direct = evolve(BBSState.parse(word, origin=0), l)[0]
            via_rc = BBSState.parse(solve_ivp(word, l, 1), origin=0)
            assert direct == via_rc
            checked += 1
    assert checked > 30


def test_solve_ivp_three_body():
    t0 = "........2222.....332..43.................................."
    t3 = "....................2222..32433"
    out = BBSState.parse(solve_ivp(t0.replace(".", "1"), None, 3), origin=0)
    assert out == BBSState.parse(t3, origin=0)


def test_solve_ivp_t0_identity():
    word = "112233"
    assert solve_ivp(word, 2, 0).startswith(word)


def test_solve_ivp_rejects_negative_capacity():
    # before, the error blamed the rigged configuration
    for t in (0, 3):
        with pytest.raises(ValueError, match="capacity l must be >= 0"):
            solve_ivp("1122", -1, t)


def test_solve_ivp_rejects_negative_steps_after_the_path():
    with pytest.raises(ValueError, match="steps must be >= 0, got -1"):
        solve_ivp("1122", 1, -1)
    with pytest.raises(ValueError, match="path is not highest"):
        solve_ivp("21", -1, -1)


def test_phi_of_trailing_ones_only_lengthens_the_path():
    # solve_ivp pads by raising L: phi(w 1^k) is phi(w) with L + k
    for rank, L in ((1, 8), (2, 7), (3, 6)):
        for word in highest_paths(L, rank):
            rc = kkr_phi(word, rank)
            for k in (0, 1, 5):
                assert kkr_phi(word + "1" * k, rank) == RC(rc.L + k, rank, rc.strings)


def test_solve_ivp_random_states():
    rng = random.Random(35)
    pool = [w for w in highest_paths(8, 2)]
    for _ in range(25):
        word = rng.choice(pool)
        l = rng.randint(1, 5)
        t = rng.randint(1, 5)
        direct = BBSState.parse(word, origin=0)
        for _ in range(t):
            direct = evolve(direct, l)[0]
        assert BBSState.parse(solve_ivp(word, l, t), origin=0) == direct


def test_soliton_string_correspondence():
    rng = random.Random(36)
    pool = [w for w in highest_paths(10, 2)]
    for word in rng.sample(pool, 40):
        state = BBSState.parse(word, origin=0)
        rc = kkr_phi(word, 2)
        content = soliton_content(state)
        mu = rc.mu(1)
        assert sorted(mu, reverse=True) == sorted(
            [l for l, m in content.items() for _ in range(m)], reverse=True
        )
        # E_l = cells in the left l columns of mu^(1)
        for l in (1, 2, 3, 4):
            assert evolve(state, l)[1] == sum(min(l, k) for k in mu)


def test_json_roundtrip():
    text = WORKED_RC.to_json()
    assert RiggedConfiguration.from_json(text) == WORKED_RC


@pytest.mark.parametrize(
    "text",
    [
        '{"L": 3}',
        "[1]",
        "7",
        '{"L": 3, "n": 1, "strings": {}, "extra": 0}',
        '{"L": 3.5, "n": 1, "strings": {}}',
        '{"L": 3, "n": true, "strings": {}}',
        '{"L": 3, "n": 0, "strings": {}}',
        '{"L": 3, "n": 1, "strings": []}',
        '{"L": 3, "n": 1, "strings": {"0": []}}',
        '{"L": 3, "n": 1, "strings": {"1": [1, 0]}}',
        '{"L": 3, "n": 1, "strings": {"1": [[1, 0, 2]]}}',
        '{"L": 3, "n": 1, "strings": {"1": [[1, "0"]]}}',
    ],
)
def test_json_rejects_malformed_structure(text):
    with pytest.raises(ValueError):
        RiggedConfiguration.from_json(text)


def test_rejects_negative_length():
    with pytest.raises(ValueError, match="L must be >= 0"):
        RC.make(-3, 1, [[]])
    with pytest.raises(ValueError, match="L must be >= 0"):
        RiggedConfiguration.from_json('{"L": -3, "n": 1, "strings": {}}')
    assert kkr_phi_inv(RC.make(0, 1, [[]])) == ""


def test_phi_rejects_letters_outside_rank_and_bad_rank():
    with pytest.raises(ValueError, match="letters must lie in 1..2"):
        kkr_phi("1213", rank=1)
    with pytest.raises(ValueError, match="letters must lie in 1..3"):
        kkr_phi((1, 0, 2), rank=2, check=False)
    for rank in (0, -1):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            kkr_phi("12", rank=rank)
        # before, RiggedConfiguration(3, 0, ()) was accepted
        with pytest.raises(ValueError, match="rank must be >= 1"):
            RC(3, rank, ())
        with pytest.raises(ValueError, match="rank must be >= 1"):
            next(highest_paths(3, rank))
    assert kkr_phi("1213", rank=2) == kkr_phi("1213")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_roundtrip_hypothesis(data):
    rank = data.draw(st.integers(1, 3))
    L = data.draw(st.integers(1, 14))
    counts = [0] * (rank + 1)
    word = []
    for _ in range(L):
        choices = [a for a in range(1, rank + 2) if a == 1 or counts[a - 2] > counts[a - 1]]
        a = data.draw(st.sampled_from(choices))
        counts[a - 1] += 1
        word.append(str(a))
    word = "".join(word)
    assert is_highest(word, rank)
    rc = kkr_phi(word, rank)
    assert rc.is_valid()
    assert kkr_phi_inv(rc) == word


def test_extended_configurations_for_non_highest_paths():
    # the same algorithms run on arbitrary paths; riggings may go negative
    # and the result is flagged invalid, but the round trip still holds
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 3)
        word = "".join(str(rng.randint(1, n + 1)) for _ in range(rng.randint(2, 10)))
        rc = kkr_phi(word, n, check=False)
        assert kkr_phi_inv(rc) == word
        if not is_highest(word, n):
            assert not rc.is_valid()


def test_words_accept_only_dot_and_ascii_1_to_9():
    assert kkr_phi("1.2") == kkr_phi("112") == kkr_phi((1, 1, 2))
    for bad in ("12٣", "12３", "120", "12x"):
        for call in (kkr_phi, is_highest, lambda w: solve_ivp(w, None, 1)):
            with pytest.raises(ValueError, match=r"^letters must lie in 1\.\.9, one character each"):
                call(bad)


def test_letters_above_nine_have_no_one_character_form():
    # before, phi^{-1} wrote letter 10 as "10", which reads back as 1, 0
    with pytest.raises(ValueError, match="above 9"):
        kkr_phi_inv(kkr_phi(tuple(range(1, 11)), rank=9))
    assert kkr_phi_inv(kkr_phi(tuple(range(1, 10)), rank=9)) == "123456789"
    with pytest.raises(ValueError, match="above 9"):
        next(highest_paths(10, 9))
    assert len(list(highest_paths(9, 9))) == len(list(highest_paths(9, 8)))


@pytest.mark.parametrize("L", [1.5, 3.0, True, "3"])
def test_highest_paths_length_must_be_a_non_bool_int(L):
    with pytest.raises(ValueError, match="L must be an int"):
        next(highest_paths(L, 1))
    # before, L = -1 raised "bytes must be in range(0, 256)" from the letter check
    with pytest.raises(ValueError, match="L must be >= 0"):
        next(highest_paths(-1, 1))


def test_highest_paths_walks_long_words_without_recursion():
    # before, one recursion level per letter raised RecursionError at 1500
    assert next(highest_paths(2000, 1)) == "1" * 2000
    assert list(highest_paths(0, 2)) == [""]


def test_q_sum_is_the_double_sum():
    # lengths in any order, repeated, int or Fraction; q_j = sum_k min(j, k) m_k
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(0, 8)
        if rng.random() < 0.5:
            ks = [rng.randint(1, 9) for _ in range(n)]
            j = rng.randint(0, 10)
        else:
            ks = [Fraction(rng.randint(-9, 30), rng.randint(1, 6)) for _ in range(n)]
            j = Fraction(rng.randint(-9, 30), rng.randint(1, 6))
        ks += rng.sample(ks, min(2, n))
        ms = [rng.randint(-3, 4) for _ in ks]
        expected = sum(min(j, k) * m for k, m in zip(ks, ms))
        got = q_sum(ks, ms, j)
        assert got == expected and type(got) is type(expected), (ks, ms, j)
        assert q_sum(ks[::-1], ms[::-1], j) == expected
