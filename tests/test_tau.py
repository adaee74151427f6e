import random
import re

import pytest

from boxball.bbs import BBSState, evolve_takahashi
from boxball.cli import main
from boxball.kkr import evolve_rc, highest_paths, is_highest, kkr_phi, kkr_phi_inv
from boxball.tau import (
    StringSet,
    _column,
    _TauTable,
    check_hirota,
    cocharge,
    path_from_tau,
    rho,
    tau,
    tau_table,
)

THREE_BODY_T0 = "........2222.....332..43.................................."


def _S(word, rank=None):
    rank = rank or max(max(int(c) for c in word if c != "."), 2) - 1
    return StringSet.from_rc(kkr_phi(word.replace(".", "1"), rank))


def test_cocharge_empty_and_single():
    assert cocharge([]) == 0
    for a, l, J in [(1, 3, 2), (2, 1, 0), (1, 5, 7)]:
        assert cocharge([(a, l, J)]) == l + J


def test_cocharge_two_strings_same_color():
    # c = xi_1 + xi_2 + A_{1,2} with A = C_{aa} min = 2 min(l1, l2)
    assert cocharge([(1, 2, 1), (1, 3, 0)]) == (2 + 1) + (3 + 0) + 2 * 2
    # adjacent colors interact with C = -1
    assert cocharge([(1, 2, 1), (2, 3, 0)]) == (2 + 1) + (3 + 0) - min(2, 3)


def test_tau_empty_set():
    s = StringSet(2, 5, ())
    for k in range(6):
        for a in range(4):
            expected = -k if a == 0 else 0
            assert tau(s, k, a) == expected


def test_tau_single_string_at_k0():
    s = StringSet(1, 6, ((1, 2, 1),))
    # tau_{0,n+1} = -min(0, l+J) = 0 for nonnegative riggings
    assert tau(s, 0, 2) == 0


def test_tau_nonnegative():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 3)
        L = rng.randint(4, 10)
        strings = tuple(
            (rng.randint(1, n), rng.randint(1, 3), rng.randint(0, 3)) for _ in range(rng.randint(0, 5))
        )
        s = StringSet(n, L, strings)
        for k in range(L + 1):
            for a in range(1, n + 2):
                assert tau(s, k, a) >= 0


def test_subset_cap(monkeypatch):
    monkeypatch.setenv("BOXBALL_SUBSET_CAP", "3")
    # the cap bounds the DP cells, prod(N_b + 1) x #classes: 5 x 4 = 20 > 2^3 for 4 distinct lengths
    s = StringSet(1, 20, tuple((1, l, 0) for l in range(1, 5)))
    with pytest.raises(ValueError):
        tau(s, 0, 1)
    # 4 strings of one class need only 5 x 1 = 5 DP cells, under 2^3
    s = StringSet(1, 8, tuple((1, 1, 0) for _ in range(4)))
    assert tau(s, 0, 1) == 0


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "BOXBALL_SUBSET_CAP must be an int, got 'abc'"),
        ("2.5", "BOXBALL_SUBSET_CAP must be an int, got '2.5'"),
        ("", "BOXBALL_SUBSET_CAP must be an int, got ''"),
        ("-1", "BOXBALL_SUBSET_CAP must be >= 0, got -1"),
    ],
)
def test_subset_cap_is_an_int_at_least_zero(monkeypatch, value, message):
    # before, "abc" raised int()'s "invalid literal ..." and -1 refused every set
    monkeypatch.setenv("BOXBALL_SUBSET_CAP", value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tau(_S("112212"), 0, 1)


def test_subset_cap_zero_allows_one_cell(monkeypatch):
    monkeypatch.setenv("BOXBALL_SUBSET_CAP", "0")
    assert tau_table(StringSet(1, 2, ())) == [[0, 0, 0], [-1, 0, 0], [-2, 0, 0]]
    with pytest.raises(ValueError, match=r"needs 2 DP cells, over the cap 2\^0"):
        tau(StringSet(1, 2, ((1, 1, 0),)), 0, 1)


def test_one_table_per_string_set(monkeypatch):
    # tau, tau_table, path_from_tau and check_hirota all read the table that
    # the string set built on first use; it holds the T_infinity update's rows too
    import boxball.tau as tau_mod

    built = []

    class CountingTable(tau_mod._TauTable):
        def __init__(self, s):
            built.append(s)
            super().__init__(s)

    def refused(*args):
        raise AssertionError("check_hirota rebuilt the evolved string set")

    monkeypatch.setattr(tau_mod, "_TauTable", CountingTable)
    s = _S("11112221322433")
    for name in ("to_rc", "from_rc"):
        monkeypatch.setattr(StringSet, name, refused)
    table = tau_table(s)
    assert [tau(s, k, a) for k in range(s.L + 1) for a in range(s.rank + 2)] == sum(table, [])
    assert path_from_tau(s) == "11112221322433"
    assert check_hirota(s)
    assert built == [s] and built[0] is s
    # an equal, fresh string set builds its own table, with the same rows
    assert tau_table(StringSet(s.rank, s.L, s.strings)) == table and len(built) == 2


def test_tau_equals_rho_worked_example():
    word = "11112221322433"
    s = _S(word)
    for k in range(1, len(word) + 1):
        for a in range(1, s.rank + 2):
            assert tau(s, k, a) == rho(word, k, a, 0)


def test_tau_equals_rho_exhaustive_small():
    for rank, L in [(1, 7), (2, 6)]:
        for word in highest_paths(L, rank):
            s = _S(word, rank)
            for k in range(1, L + 1):
                for a in range(1, rank + 2):
                    assert tau(s, k, a) == rho(word, k, a, 0, rank=rank), (word, k, a)


def test_rho_vacuum():
    assert rho("...", 2, 1, 0) == 0


def takahashi_rows(state, t, k_max):
    """Rows t, t+1, ... of the T_infinity profile from the ball-moving
    algorithm, up to vacuum or a row whose balls all lie right of k_max."""
    rows = [state]
    for _ in range(t):
        rows = [evolve_takahashi(rows[0])]
    while True:
        nxt = evolve_takahashi(rows[-1])
        if nxt.balls() == 0 or nxt.support()[0] > k_max:
            return rows
        rows.append(nxt)


def takahashi_rho(rows, k, a, rank):
    """rho read off takahashi_rows: row t up to letter a, later rows whole,
    each until the first later row whose balls all lie right of k."""
    if a == 0:
        return takahashi_rho(rows, k, rank + 1, rank) - k
    rows = rows[:1] + [row for row in rows[1:] if row.support()[0] <= k]
    return sum(
        2 <= row.cell(pos) <= (a if n == 0 else rank + 1)
        for n, row in enumerate(rows)
        for pos in range(row.origin, min(row.origin + len(row.cells), k + 1))
    )


def test_rho_matches_takahashi_rows_exhaustive():
    # every highest path with L <= 8, rank <= 2, t <= 3 and every corner k,
    # at one color a per (k, t), cycling with k + t
    checked = 0
    for rank in (1, 2):
        for L in range(1, 9):
            for word in highest_paths(L, rank):
                state = BBSState.parse(word, rank=rank, origin=1)
                for t in range(4):
                    rows = takahashi_rows(state, t, L + 1)
                    for k in range(L + 2):
                        a = (k + t) % (rank + 2)
                        assert rho(word, k, a, t, rank=rank) == takahashi_rho(rows, k, a, rank), (word, k, a, t)
                        checked += 1
    assert checked == 4 * sum((L + 2) * len(list(highest_paths(L, r))) for r in (1, 2) for L in range(1, 9))


@pytest.mark.parametrize(
    "args,message",
    [
        (("1122", 3, 2, -3), "t must be >= 0"),
        (("1122", 3, 2, -1), "t must be >= 0"),
        (("1122", 3, 2, 1.5), "t must be an int"),
        (("1122", 3, 2, True), "t must be an int"),
        (("1122", 3.0, 2, 1), "k must be an int"),
        (("1122", 3, True, 1), "a must be an int"),
        (("1122", 3, 4, 1), "color out of range"),
        (("1122", 3, 2, 1, True), "rank must be an int"),
        (("1122", 3, 2, 1, 1.5), "rank must be an int"),
    ],
)
def test_rho_rejects_bad_corner_and_time(args, message):
    with pytest.raises(ValueError, match=message):
        rho(*args)


def test_rho_recursion_identities():
    # rho_{k,n+1}^{t+1} = rho_{k,1}^t and the second difference recovers x
    word = THREE_BODY_T0
    state = BBSState.parse(word, origin=1)
    n = state.rank
    for k in range(3, 30, 5):
        for t in (0, 1):
            assert rho(state, k, n + 1, t + 1) == rho(state, k, 1, t)
    for k in range(9, 26):
        for a in range(1, n + 2):
            x = (
                rho(state, k, a, 0)
                - rho(state, k - 1, a, 0)
                - rho(state, k, a - 1, 0)
                + rho(state, k - 1, a - 1, 0)
            )
            assert x == (1 if state.cell(k) == a else 0)


def test_rho_bilinear_relation():
    state = BBSState.parse(THREE_BODY_T0, origin=1)
    n = state.rank
    for t in (0, 1, 2):
        for k in range(8, 30, 3):
            for a in range(2, n + 2):
                lhs = rho(state, k, a - 1, t + 1) + rho(state, k - 1, a, t)
                rhs = max(
                    rho(state, k, a, t + 1) + rho(state, k - 1, a - 1, t),
                    rho(state, k - 1, a - 1, t + 1) + rho(state, k, a, t) - 1,
                )
                assert lhs == rhs


def test_path_from_tau_fixtures():
    assert path_from_tau(_S("112212", 1)) == "112212"
    assert path_from_tau(StringSet(1, 5, ())) == "11111"
    assert path_from_tau(_S("11112221322433", 3)) == "11112221322433"


def test_path_from_tau_letter_above_nine_raises():
    # before, the path of a letter 10 came back as the two characters "10"; the
    # extended configuration of the word 1 10 keeps the tau table small
    s = StringSet.from_rc(kkr_phi((1, 10), rank=9, check=False))
    with pytest.raises(ValueError, match="above 9"):
        path_from_tau(s)
    assert path_from_tau(StringSet.from_rc(kkr_phi((1, 9), rank=8, check=False))) == "19"


def test_path_from_tau_equals_phi_inv_exhaustive():
    for rank, L in [(1, 8), (2, 6)]:
        for word in highest_paths(L, rank):
            s = _S(word, rank)
            assert path_from_tau(s) == word
            assert kkr_phi_inv(s.to_rc()) == word


def test_tau_first_color_equals_evolved_last():
    # tau_{k,1}(S) = taubar_{k,n+1}: the analogue of rho_{k,n+1}^{t+1} = rho_{k,1}^t
    for word in ("112212", "11112221322433"):
        s = _S(word)
        sbar = StringSet.from_rc(evolve_rc(s.to_rc(), None))
        for k in range(s.L + 1):
            assert tau(s, k, 1) == tau(sbar, k, s.rank + 1)


def _evolved_rows(s):
    # taubar the long way: T_infinity on the rigged configuration, then its own table
    return tau_table(StringSet.from_rc(evolve_rc(s.to_rc(), None)))


def test_bar_rows_equal_the_evolved_table():
    # the fused DP's taubar rows against the evolved set's own table
    for rank in (1, 2):
        for L in range(1, 9):
            for word in highest_paths(L, rank):
                s = _S(word, rank)
                assert s._table.bar_rows == _evolved_rows(s), word
    rng = random.Random(27)
    for _ in range(300):
        rank = rng.randint(1, 3)
        strings = tuple(
            (rng.randint(1, rank), rng.randint(1, 5), rng.randint(-4, 6))
            for _ in range(rng.randint(0, 10))
        )
        s = StringSet(rank, rng.randint(0, 12), strings)
        assert s._table.bar_rows == _evolved_rows(s), s


def test_column_is_the_brute_force_maximum():
    # non-convex v with ties and its minimum anywhere, from k = 0 to past every slope
    rng = random.Random(35)
    cases = [[0], [7], [3, 3, 3], [4, 1, 0, 2], [0, -1, -1, 0, -3], [30, -30, 30, -30]]
    cases += [[rng.randint(-30, 30) for _ in range(rng.randint(1, 20))] for _ in range(500)]
    for v in cases:
        for L in {0, 1, rng.randint(0, 60), 60}:
            assert _column(v, L) == [max(k * m - y for m, y in enumerate(v)) for k in range(L + 1)], (v, L)


def _sl3_words(rng, count):
    # highest sl3 paths of the tau workload's shape: L 20..40, 12..14 strings, a length repeated
    words = []
    while len(words) < count:
        word = "".join(rng.choices("123", weights=(3, 3, 1), k=rng.randint(20, 40)))
        if is_highest(word, 2):
            classes = [(a, l) for a, l, _ in _S(word, 2).strings]
            if 12 <= len(classes) <= 14 and len(set(classes)) < len(classes):
                words.append(word)
    return words


def test_table_matches_the_subset_oracle_at_the_workload_shape():
    from test_tau_oracle import oracle_table, subset_best

    for word in _sl3_words(random.Random(35), 6):
        s = _S(word, 2)
        sbar = StringSet.from_rc(evolve_rc(s.to_rc(), None))
        table = _TauTable(s)
        assert table.best == subset_best(s), word
        assert tau_table(s) == oracle_table(s), word
        assert table.bar_rows == oracle_table(sbar), word


def test_hirota_fixtures():
    assert check_hirota(StringSet(2, 4, ()))
    assert check_hirota(_S(THREE_BODY_T0))


def test_hirota_random_small():
    rng = random.Random(42)
    pool = list(highest_paths(8, 1)) + list(highest_paths(6, 2))
    for word in rng.sample(pool, 30):
        assert check_hirota(_S(word, None if "3" in word else 1))


def test_tau_table_shape():
    s = _S("112212", 1)
    table = tau_table(s)
    assert len(table) == 7 and all(len(r) == 3 for r in table)


def test_tau_rows_are_bounded_and_not_shared():
    # the table stops at k = L, and path and Hirota read exactly those rows
    s = _S("11112221322433", 3)
    table = tau_table(s)
    assert len(table) == s.L + 1
    assert path_from_tau(s) == "11112221322433" and check_hirota(s)
    table[3][2] += 100
    assert tau_table(s)[3][2] == tau(s, 3, 2) == table[3][2] - 100


@pytest.mark.parametrize("rank,L,message", [(0, 5, "rank must be >= 1"), (1, -1, "L must be >= 0")])
def test_string_set_rejects_bad_rank_and_length(rank, L, message):
    with pytest.raises(ValueError, match=message):
        StringSet(rank, L, ())


@pytest.mark.parametrize(
    "rank,L,strings,message",
    [
        (1, True, (), "L must be an int"),
        (1, 5.0, ((1, 1, 0),), "L must be an int"),
        (1.0, 5, (), "rank must be an int"),
        (2, 5, ((True, 1, 0),), "string color must be an int"),
        (1, 5, ((1, 2.0, 0),), "string length must be an int"),
        (1, 5, ((1, 2, 0.5),), "rigging must be an int"),
        (1, 5, ((1, 2, False),), "rigging must be an int"),
    ],
)
def test_string_set_takes_ints_only(rank, L, strings, message):
    with pytest.raises(ValueError, match=message):
        StringSet(rank, L, strings)


@pytest.mark.parametrize("k,a,message", [(True, 1, "k must be an int"), (1, 1.0, "a must be an int"), (0.5, 1, "k must be an int")])
def test_tau_takes_int_k_and_a(k, a, message):
    s = _S("1122")
    with pytest.raises(ValueError, match=message):
        tau(s, k, a)


def test_tau_beyond_the_count_vector_cap(capsys, monkeypatch):
    # strings of lengths 1..24: 2^24 subsets, but only 25 x 24 = 600 DP cells, under 2^20
    monkeypatch.delenv("BOXBALL_SUBSET_CAP", raising=False)
    word = "".join("1" * k + "2" * k for k in range(1, 25))
    s = _S(word, 1)
    assert sorted(l for _, l, _ in s.strings) == list(range(1, 25))
    assert path_from_tau(s) == word
    assert check_hirota(s)
    assert main(["tau", word]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 601  # header + k = 0..600
