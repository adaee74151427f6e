"""Differential tests of the tau tables against the plain subset scan.

subset_best below is the straightforward version of tau._TauTable: it visits
all 2^N subsets of the strings one string at a time, summing the pairwise
cocharge terms of each subset.  It serves as the oracle for the library's
dynamic program over per-color string counts, which must fill the same table
for any riggings, negative ones and the evolved sets of check_hirota included.
"""

import random
from itertools import combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

from boxball.kkr import evolve_rc, highest_paths, kkr_phi
from boxball.tau import (
    StringSet,
    _TauTable,
    cartan,
    check_hirota,
    path_from_tau,
    tau_table,
)


def subset_best(s):
    """best[a][m] = min over subsets T with m color-1 strings of c(T) + lensum_a(T)."""
    strs = s.strings
    n1 = sum(1 for a, _, _ in strs if a == 1)
    best = [[None] * (n1 + 1) for _ in range(s.rank + 2)]
    pair = [[cartan(a1, a2) * min(l1, l2) for a2, l2, _ in strs] for a1, l1, _ in strs]
    chosen = [False] * len(strs)
    lens = [0] * (s.rank + 2)

    def visit(i, c2, m):
        if i == len(strs):
            for a in range(1, s.rank + 2):
                v = c2 // 2 + lens[a]
                if best[a][m] is None or v < best[a][m]:
                    best[a][m] = v
            return
        visit(i + 1, c2, m)
        a, l, r = strs[i]
        inc = pair[i][i] + 2 * sum(pair[i][j] for j in range(i) if chosen[j])
        chosen[i] = True
        lens[a] += l
        visit(i + 1, c2 + inc + 2 * r, m + (a == 1))
        lens[a] -= l
        chosen[i] = False

    visit(0, 0, 0)
    return best


def oracle_tau(best, s, k, a):
    if a == 0:
        return oracle_tau(best, s, k, s.rank + 1) - k
    return -min(v - k * m for m, v in enumerate(best[a]) if v is not None)


def oracle_table(s):
    best = subset_best(s)
    return [[oracle_tau(best, s, k, a) for a in range(s.rank + 2)] for k in range(s.L + 1)]


def oracle_path(table, rank):
    word = []
    for k in range(1, len(table)):
        lit = [
            a
            for a in range(1, rank + 2)
            if table[k][a] - table[k - 1][a] - table[k][a - 1] + table[k - 1][a - 1] == 1
        ]
        word.append(str(lit[0]) if len(lit) == 1 else "?")
    return "".join(word)


def oracle_hirota(t, tbar, rank):
    return all(
        tbar[k][a - 1] + t[k - 1][a]
        == max(tbar[k][a] + t[k - 1][a - 1], tbar[k - 1][a - 1] + t[k][a] - 1)
        for k in range(1, len(t))
        for a in range(2, rank + 2)
    )


def assert_same_best(s):
    assert _TauTable(s).best == subset_best(s), s


def test_agrees_on_every_small_multiset():
    for rank in (1, 2):
        kinds = [
            (a, l, r) for a in range(1, rank + 1) for l in range(1, 4) for r in range(-1, 3)
        ]
        for size in range(6):
            for strings in combinations_with_replacement(kinds, size):
                assert_same_best(StringSet(rank, 6, strings))


def test_agrees_on_random_sets():
    rng = random.Random(2011)
    for _ in range(600):
        rank = rng.randint(1, 3)
        strings = tuple(
            (rng.randint(1, rank), rng.randint(1, 4), rng.randint(-3, 6))
            for _ in range(rng.randint(0, 12))
        )
        assert_same_best(StringSet(rank, 10, strings))


def test_agrees_on_every_small_highest_path_and_its_update():
    for rank in (1, 2):
        for L in range(1, 9):
            for word in highest_paths(L, rank):
                s = StringSet.from_rc(kkr_phi(word, rank))
                sbar = StringSet.from_rc(evolve_rc(s.to_rc(), None))
                assert_same_best(s)
                assert_same_best(sbar)
                table, table_bar = oracle_table(s), oracle_table(sbar)
                assert tau_table(s) == table, word
                assert path_from_tau(s) == oracle_path(table, rank) == word
                assert check_hirota(s) == oracle_hirota(table, table_bar, rank), word


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_agrees_on_drawn_sets_and_their_updates(data):
    # repeated lengths and negative riggings, before and after a T_infinity step
    rank = data.draw(st.integers(1, 3))
    string = st.tuples(st.integers(1, rank), st.integers(1, 6), st.integers(-3, 8))
    s = StringSet(rank, data.draw(st.integers(0, 12)), tuple(data.draw(st.lists(string, max_size=12))))
    for t in (s, StringSet.from_rc(evolve_rc(s.to_rc(), None))):
        best = subset_best(t)
        assert _TauTable(t).best == best, t
        assert tau_table(t) == [
            [oracle_tau(best, t, k, a) for a in range(t.rank + 2)] for k in range(t.L + 1)
        ], t
