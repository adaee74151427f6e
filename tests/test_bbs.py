import random
from fractions import Fraction

import pytest

from boxball.bbs import (
    BBSState,
    capacity,
    carrier_pass,
    decode_word,
    encode_word,
    energies,
    evolve,
    evolve_takahashi,
    p_symbol,
    scatter_two,
    scatter_two_simulated,
    soliton_content,
    solitons,
    toda_coords,
    toda_evolve,
)
from boxball.kkr import evolve_rc, highest_paths, kkr_phi, kkr_phi_inv, solve_ivp
from boxball.pbbs import PeriodicState, evolve_periodic, fundamental_period
from boxball.tau import StringSet, path_from_tau

# rows of the three-body scattering block (T_infinity)
THREE_BODY_ROWS = [
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

# three solitons, first ordering of collisions
THREE_SOLITON_ROWS = [
    "554322......433..........6................................",
    "......554322...433........6...............................",
    "............554322433......6..............................",
    "..................322554433.6.............................",
    ".....................322...5564433........................",
    "........................322..5....654433..................",
    "...........................3225.........654433............",
    "..............................3522............654433......",
    "...............................3..522...............654433",
]


def _state(row, origin=1):
    return BBSState.parse(row, origin=origin)


def test_evolve_reproduces_three_body_block():
    s = _state(THREE_BODY_ROWS[0])
    for row in THREE_BODY_ROWS[1:]:
        s = evolve(s, None)[0]
        assert s.render(1, 1 + len(row)) == row


def test_takahashi_reproduces_three_body_block():
    s = _state(THREE_BODY_ROWS[0])
    for row in THREE_BODY_ROWS[1:]:
        s = evolve_takahashi(s)
        assert s.render(1, 1 + len(row)) == row


def test_takahashi_reproduces_three_soliton_block():
    s = _state(THREE_SOLITON_ROWS[0])
    for row in THREE_SOLITON_ROWS[1:]:
        s = evolve_takahashi(s)
        assert s.render(1, 1 + len(row)) == row


def test_takahashi_single_step_between_rows():
    before = ".....................322...5564433........................"
    after = "........................322..5....654433.................."
    s = evolve_takahashi(_state(before))
    assert s.render(1, 1 + len(after)) == after


def test_sl2_intro_example():
    # the original ball-moving rule: 3-soliton and 1-soliton
    s = BBSState.parse("222....2..", origin=1)
    s = evolve_takahashi(s)
    assert s.render(1, 11) == "...222..2."


def test_single_ball_shifts_by_one():
    s = BBSState.parse("...4...", origin=0)
    t = evolve_takahashi(s)
    assert t.support() == (s.support()[0] + 1, s.support()[1] + 1)
    t2 = evolve(s, None)[0]
    assert t2.cells == t.cells and t2.origin == t.origin


def test_energy_table_from_carriers():
    s = _state(THREE_BODY_ROWS[3])  # the t=3 state
    assert energies(s, 5) == [3, 6, 8, 9, 9]
    assert evolve(s, 4)[1] == 9
    assert evolve(s, 3)[1] == 8
    assert evolve(s, 2)[1] == 6


def test_carrier_pass_agrees_with_crystal_R():
    # one box of the carrier pass is exactly the combinatorial R on B_l x B_1
    from boxball.crystal import CrystalElement, comb_R

    def check(rank, counts, b):
        carrier = [1] + list(counts)
        emitted, energy = carrier_pass([b], carrier, rank)
        x = CrystalElement(rank, tuple(counts))
        y = CrystalElement(rank, tuple(1 if a == b else 0 for a in range(1, rank + 2)))
        out = comb_R(x, y)
        assert out.left_out.counts == tuple(
            1 if a == emitted[0] else 0 for a in range(1, rank + 2)
        )
        assert carrier[0] == 1
        assert out.right_out.counts == tuple(carrier[1:])
        assert out.energy == 1 - energy

    for l in range(1, 7):  # rank 1: every load
        for load in range(l + 1):
            for b in (1, 2):
                check(1, (l - load, load), b)
    rng = random.Random(28)
    for _ in range(300):
        rank = rng.randint(2, 4)
        l = rng.randint(1, 6)
        counts = [0] * (rank + 1)
        for _ in range(l):
            counts[rng.randrange(rank + 1)] += 1
        check(rank, counts, rng.randint(1, rank + 1))


def test_energies_monotone_and_stabilizing():
    rng = random.Random(27)
    for _ in range(20):
        n = rng.randint(1, 3)
        cells = tuple(rng.randint(1, n + 1) for _ in range(rng.randint(3, 12)))
        s = BBSState(n, cells).trimmed()
        balls = s.balls()
        E = energies(s, balls + 3)
        assert all(E[i] <= E[i + 1] for i in range(len(E) - 1))
        if balls:
            assert E[balls - 1] == E[-1] == balls


def test_vacuum():
    s = BBSState.parse("....")
    assert evolve(s, 3) == (s.trimmed(), 0)
    assert energies(s, 4) == [0, 0, 0, 0]
    assert soliton_content(s) == {}
    assert p_symbol(s) == []


def test_evolve_capacity_zero_is_identity_and_negative_raises():
    s = BBSState.parse("..2211.3..")
    assert evolve(s, 0) == (s.trimmed(), 0)
    with pytest.raises(ValueError):
        evolve(s, -1)


@pytest.mark.parametrize("l", [1.5, 2.0, Fraction(2), True, False])
def test_capacity_must_be_a_non_bool_int(l):
    # before, a float capacity evolved every layer (evolve_rc returned the
    # rigging 1.5) and a bool one was read as 0 or 1
    word, cells = "..22.2..", "1212111222"
    calls = [
        lambda: evolve(BBSState.parse(word), l),
        lambda: evolve_periodic(PeriodicState.parse(cells), l),
        lambda: evolve_rc(kkr_phi(word), l),
        lambda: solve_ivp(word, l, 1),
        lambda: fundamental_period(PeriodicState.parse(cells), l),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="capacity l must be >= 0"):
            call()


@pytest.mark.parametrize("n", [1.5, 2.0, True])
def test_energy_count_must_be_a_non_bool_int(n):
    # before, energies(s, True) returned [E_1] and 1.5 raised TypeError
    with pytest.raises(ValueError, match="l_max must be an int"):
        energies(BBSState.parse("..22.2.."), n)


def test_energy_count_must_be_non_negative():
    # before, energies(s, -1) returned [] as if it had been asked for none
    s = BBSState.parse("..22.2..")
    assert energies(s, 0) == []
    with pytest.raises(ValueError, match="l_max must be >= 0"):
        energies(s, -1)


@pytest.mark.parametrize("rank", [1.5, 2.0, True, "1"])
def test_state_rank_must_be_a_non_bool_int(rank):
    # before, BBSState.parse("1122", rank=1.5) made a rank-1.5 state
    with pytest.raises(ValueError, match="rank must be an int"):
        BBSState.parse("1122", rank=rank)
    with pytest.raises(ValueError, match="rank must be >= 1"):
        BBSState(0, ())


@pytest.mark.parametrize("cells", [(1, 2.0), (1, True, 2), (2.0,), (False,), ("2",)])
def test_state_cells_must_be_non_bool_ints(cells):
    # before, BBSState(1, (1, 2.0)) and BBSState(1, (1, True, 2)) were built
    with pytest.raises(ValueError, match=r"^letters must lie in 1\.\.2, each an int"):
        BBSState(1, cells)


@pytest.mark.parametrize("origin", [1.5, 2.0, True, "0"])
def test_state_origin_must_be_a_non_bool_int(origin):
    # before, BBSState(1, (1, 2), 1.5) was built and parse shifted the bad origin
    for make in (
        lambda: BBSState(1, (1, 2), origin),
        lambda: BBSState(1, (), origin),
        lambda: BBSState.parse("112", origin=origin),
        lambda: BBSState.parse("111", origin=origin),
    ):
        with pytest.raises(ValueError, match="origin must be an int"):
            make()


def test_capacity_none_is_t_infinity():
    assert capacity(None, 7) == 7 and capacity(0, 7) == 0 and capacity(3, 7) == 3
    word, p = "1122.3..2.3", PeriodicState.parse("1212111222")
    balls = BBSState.parse(word).balls()
    assert evolve(BBSState.parse(word), None) == evolve(BBSState.parse(word), balls)
    assert evolve_periodic(p, None) == evolve_periodic(p, p.balls)
    assert evolve_rc(kkr_phi(word), None) == evolve_rc(kkr_phi(word), balls)
    assert solve_ivp(word, None, 3) == solve_ivp(word, balls, 3)
    assert fundamental_period(p, None) == fundamental_period(p, p.balls)


def test_soliton_content_three_body():
    assert soliton_content(_state(THREE_BODY_ROWS[3])) == {2: 1, 3: 1, 4: 1}


def test_single_soliton_speed_and_energy():
    # an isolated amplitude-a soliton moves min(a,k) per T_k step with E_k = min(a,k)
    for label in ("22", "432", "55522"):
        a = len(label)
        for k in range(1, a + 3):
            s = BBSState.parse(label + "." * (3 * a), origin=0)
            t, e = evolve(s, k)
            assert e == min(a, k)
            assert t.support()[0] == min(a, k)
            assert solitons(t) == [(min(a, k), label)]


def test_t1_is_right_shift():
    rng = random.Random(21)
    for _ in range(30):
        cells = tuple(rng.choice([1, 1, 2, 3]) for _ in range(12))
        s = BBSState(2, cells, 5).trimmed()
        t, e = evolve(s, 1)
        assert t.cells == s.cells and t.origin == s.origin + (1 if s.balls() else 0)


def test_commutativity_and_conservation():
    rng = random.Random(22)
    for _ in range(25):
        n = rng.randint(1, 3)
        cells = tuple(rng.randint(1, n + 1) for _ in range(rng.randint(4, 14)))
        s = BBSState(n, cells).trimmed()
        for l in (1, 2, 3, 6):
            for k in (1, 2, 3, 6):
                a = evolve(evolve(s, l)[0], k)[0]
                b = evolve(evolve(s, k)[0], l)[0]
                assert a == b
        for k in range(1, 7):
            t = evolve(s, k)[0]
            assert energies(t, 6) == energies(s, 6)


def test_tl_equals_tinf_iff_l_geq_max_amplitude():
    s = _state(THREE_BODY_ROWS[3])  # solitons of amplitudes 2, 3, 4
    inf = evolve(s, None)[0]
    for l in (1, 2, 3):
        assert evolve(s, l)[0] != inf
    for l in (4, 5, 7):
        assert evolve(s, l)[0] == inf


def test_takahashi_equals_evolve_inf_random():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        cells = tuple(rng.randint(1, n + 1) for _ in range(rng.randint(3, 16)))
        s = BBSState(n, cells).trimmed()
        assert evolve_takahashi(s) == evolve(s, None)[0]


def test_scatter_two_fixture():
    small_out, big_out, delta = scatter_two("554322", "422")
    assert (small_out, big_out, delta) == ("553", "442222", 5)


def test_scatter_two_simulation_fixture():
    assert scatter_two_simulated("554322", "422") == ("553", "442222", 5)


def test_scatter_sl2_equal_content():
    small_out, big_out, delta = scatter_two("2222", "22")
    assert small_out == "22" and big_out == "2222"
    assert delta == 2 * 2  # sl2: H = len(small), so delta = 2 len(small)


def test_scatter_random_against_simulation():
    rng = random.Random(24)
    for _ in range(12):
        l = rng.randint(2, 5)
        lp = rng.randint(1, l - 1)
        big = "".join(sorted((str(rng.randint(2, 5)) for _ in range(l)), reverse=True))
        small = "".join(sorted((str(rng.randint(2, 5)) for _ in range(lp)), reverse=True))
        out = scatter_two(big, small)
        assert out == scatter_two_simulated(big, small)
        assert lp <= out[2] <= 2 * lp  # phase shift bounds


def test_scatter_rejects_bad_labels():
    with pytest.raises(ValueError):
        scatter_two("223", "22")  # not weakly decreasing
    with pytest.raises(ValueError):
        scatter_two("22", "333")  # big not longer
    with pytest.raises(ValueError):
        scatter_two("21", "2")  # letter 1 forbidden


def test_toda_coords_table():
    s = BBSState.parse("...2222...222...2.....", origin=0)
    Q, W = toda_coords(s)
    assert (Q, W) == ([4, 3, 1], [3, 3])
    seq = [(4, 3, 3, 3, 1), (3, 3, 3, 1, 2), (3, 3, 1, 2, 4)]
    for expect_flat in seq[1:]:
        Q, W = toda_evolve(Q, W)
        flat = []
        for j in range(len(Q)):
            flat.append(Q[j])
            if j < len(W):
                flat.append(W[j])
        assert tuple(flat) == expect_flat


def test_toda_one_soliton():
    assert toda_evolve([5], []) == ([5], [])


def test_toda_matches_simulation():
    rng = random.Random(25)
    for _ in range(25):
        runs = rng.randint(2, 4)
        word = ""
        for k in range(runs):
            word += "2" * rng.randint(1, 4)
            if k < runs - 1:
                word += "." * rng.randint(1, 4)
        s = BBSState.parse(word, origin=0)
        Q, W = toda_coords(s)
        for _ in range(4):
            s = evolve(s, None)[0]
            Q, W = toda_evolve(Q, W)
            assert (Q, W) == toda_coords(s)


def test_p_symbol_three_soliton_conserved():
    expected = [(2, 2, 3, 4, 5, 5), (3, 3, 4), (6,)]
    s0 = _state(THREE_SOLITON_ROWS[0])
    s8 = _state(THREE_SOLITON_ROWS[8])
    assert p_symbol(s0) == expected
    assert p_symbol(s8) == expected


def test_p_symbol_conserved_random():
    rng = random.Random(26)
    for _ in range(25):
        n = rng.randint(1, 4)
        cells = tuple(rng.randint(1, n + 1) for _ in range(rng.randint(3, 14)))
        s = BBSState(n, cells).trimmed()
        expected = p_symbol(s)
        t = s
        for _ in range(3):
            t = evolve(t, None)[0]
            assert p_symbol(t) == expected
        for l in (1, 2, 3):
            assert p_symbol(evolve(s, l)[0]) == expected


def test_parse_accepts_only_dot_and_ascii_1_to_9():
    assert BBSState.parse(".1.322.").cells == (3, 2, 2)
    # '٣' (Arabic-Indic three) and '０' (fullwidth zero) were read by int()
    for bad in ("1٣2", "1０2", "102", "1x2", "1 2", "12²"):
        with pytest.raises(ValueError, match=r"^letters must lie in 1\.\.9, one character each"):
            BBSState.parse(bad)


def test_every_encoder_round_trips_through_decode_word():
    # paths write letter 1 as '1', rendered states as '.'; both decode back
    letters = tuple(range(1, 10))
    assert encode_word(letters) == "123456789"
    assert encode_word(letters, ".") == ".23456789"
    down = letters[::-1]  # an extended configuration phi^{-1} and tau both read back
    state = BBSState(8, (2, 1) + letters + down)
    p = PeriodicState((1, 2, 1, 1, 2, 2))
    words = [
        (state.render(-2, 22), (1, 1) + state.cells + (1, 1)),
        (solitons(BBSState.parse("98765432.........2"))[0][1], down[:-1]),
        (kkr_phi_inv(kkr_phi(letters)), letters),
        (kkr_phi_inv(kkr_phi(down, 8, check=False)), down),
        (path_from_tau(StringSet.from_rc(kkr_phi(down, 8, check=False))), down),
        (list(highest_paths(9, 8))[-1], letters),
        (p.render(), p.cells),
        (p.word(), p.cells),
    ]
    for word, expect in words:
        assert len(word) == len(expect) and tuple(decode_word(word)) == expect, word


def test_letters_above_nine_have_no_one_character_form():
    s = BBSState(9, tuple(range(1, 11)))
    assert evolve(s, None)[0].cells[-1] == 10
    for call in (s.render, lambda: solitons(s)):
        with pytest.raises(ValueError, match="above 9"):
            call()
    assert BBSState(8, tuple(range(1, 10))).render() == ".23456789"


@pytest.mark.parametrize("big, small", [("٣2", "2"), ("32", "２"), ("３2", "2"), ("3 2", "2")])
def test_scatter_labels_are_words(big, small):
    # before, int() read the Arabic-Indic and fullwidth digits: ('3', '22', 2)
    with pytest.raises(ValueError, match=r"^letters must lie in 1\.\.9, one character each"):
        scatter_two(big, small)


def test_scatter_labels_of_dots_and_ones_are_invalid():
    for big, small in (("2.", "2"), ("21", "2"), ("22", "."), ("22", "")):
        with pytest.raises(ValueError, match="invalid soliton label"):
            scatter_two(big, small)
