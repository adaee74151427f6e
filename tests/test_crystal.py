import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxball.crystal import (
    CrystalElement,
    RankMismatch,
    TensorElement,
    comb_R,
    comb_R_ny,
    energy_H,
    eps_phi,
    kashiwara,
    tensor_eps_phi,
    tensor_kashiwara,
    u_vac,
)

C = CrystalElement


def elements(rank, cap):
    """All of B_cap for the given rank."""
    def rec(slots, total):
        if slots == 1:
            yield (total,)
            return
        for c in range(total + 1):
            for rest in rec(slots - 1, total - c):
                yield (c,) + rest
    return [C(rank, t) for t in rec(rank + 1, cap)]


def brute_eps_phi(p, i):
    """Count how often the raising/lowering operators act before hitting 0."""
    eps = 0
    q = p
    while True:
        q = tensor_kashiwara(q, i, "raise") if isinstance(q, TensorElement) else kashiwara(q, i, "raise")
        if q is None:
            break
        eps += 1
    phi = 0
    q = p
    while True:
        q = tensor_kashiwara(q, i, "lower") if isinstance(q, TensorElement) else kashiwara(q, i, "lower")
        if q is None:
            break
        phi += 1
    return eps, phi


def test_word_roundtrip():
    x = C.from_word("13347")
    assert x.rank == 6 and x.capacity == 5
    assert x.counts == (1, 0, 2, 1, 0, 0, 1)
    assert x.word() == "13347"


def test_tensor_word_roundtrip():
    p = TensorElement.from_word("13347*135")
    assert p.rank == 6 and len(p.factors) == 2
    assert p.word() == "13347*135"


def test_comma_words_for_high_rank():
    x = C.from_word("1,10,10", rank=9)
    assert x.counts[0] == 1 and x.counts[9] == 2
    assert x.word() == "1,10,10"


def test_eps_phi_direct_reads():
    assert eps_phi(C(2, (2, 0, 0)), 0) == (2, 0)
    assert eps_phi(C(2, (1, 1, 0)), 1) == (1, 1)
    # sl2 crystal-graph convention: eps_1(22) = 2, phi_1(22) = 0
    assert eps_phi(C(1, (0, 2)), 1) == (2, 0)
    # and f~_1(11) = 12, e~_1(11) = 0
    assert kashiwara(C(1, (2, 0)), 1, "lower") == C(1, (1, 1))
    assert kashiwara(C(1, (2, 0)), 1, "raise") is None


def test_kashiwara_graph_fixtures():
    # arrows of the B_1, B_2 crystal graphs; color 0 moves letter 2 to letter 1
    assert kashiwara(C(1, (0, 2)), 1, "raise") == C(1, (1, 1))
    assert kashiwara(C(1, (0, 2)), 0, "lower") == C(1, (1, 1))
    assert kashiwara(C(1, (1, 1)), 0, "lower") == C(1, (2, 0))
    assert kashiwara(C(1, (2, 0)), 0, "lower") is None
    assert kashiwara(C(2, (0, 0, 2)), 1, "lower") is None


def test_eps_phi_agrees_with_operator_count():
    for rank, cap in [(1, 2), (1, 3), (2, 2)]:
        for x in elements(rank, cap):
            for i in range(rank + 1):
                assert eps_phi(x, i) == brute_eps_phi(x, i)


def test_tensor_eps_phi_examples():
    # p = 11 (x) 2, i=1: phi_1(2-box) = 0, so phi = 0 + (2-1)_+ = 1  [brute-forced oracle]
    p = TensorElement((C(1, (2, 0)), C(1, (0, 1))))
    assert tensor_eps_phi(p, 1) == brute_eps_phi(p, 1) == (0, 1)
    # p = 12 (x) 1, i=1
    p = TensorElement((C(1, (1, 1)), C(1, (1, 0))))
    assert tensor_eps_phi(p, 1) == brute_eps_phi(p, 1) == (1, 2)


def test_tensor_eps_phi_matches_brute_force_exhaustive():
    xs = elements(1, 2)
    ys = elements(1, 1)
    for x, y in product(xs, ys):
        p = TensorElement((x, y))
        for i in (0, 1):
            assert tensor_eps_phi(p, i) == brute_eps_phi(p, i)


def test_tensor_eps_phi_three_factors():
    for x, y, z in product(elements(1, 2), elements(1, 1), elements(1, 2)):
        p = TensorElement((x, y, z))
        for i in (0, 1):
            assert tensor_eps_phi(p, i) == brute_eps_phi(p, i)


def test_tensor_kashiwara_b11_graph():
    one = C(1, (1, 0))
    two = C(1, (0, 1))
    p = TensorElement((one, one))
    assert tensor_kashiwara(p, 1, "lower") == TensorElement((two, one))
    # 0-arrow of the graph runs 1(x)2 -> 1(x)1, so raising 1(x)1 gives 1(x)2
    assert tensor_kashiwara(p, 0, "raise") == TensorElement((one, two))
    assert tensor_kashiwara(TensorElement((one, two)), 0, "lower") == p
    assert tensor_kashiwara(p, 0, "lower") is None
    assert tensor_kashiwara(p, 1, "raise") is None


def pairwise_eps_phi(p, i):
    """(eps_i, phi_i) by the left-to-right pairwise rule."""
    eps, phi = eps_phi(p.factors[0], i)
    for f in p.factors[1:]:
        e2, p2 = eps_phi(f, i)
        eps, phi = eps + max(e2 - phi, 0), p2 + max(phi - e2, 0)
    return eps, phi


def recursive_kashiwara(p, i, dir):
    """The signature rule by recursion on tails: act on the head iff its phi_i
    exceeds eps_i of the tail (reaches it, for raise), else on the tail."""
    factors = list(p.factors)

    def rec(lo):
        if lo < len(factors) - 1:
            phi_head = eps_phi(factors[lo], i)[1]
            eps_tail = pairwise_eps_phi(TensorElement(tuple(factors[lo + 1 :])), i)[0]
            if not (phi_head >= eps_tail if dir == "raise" else phi_head > eps_tail):
                return rec(lo + 1)
        factors[lo] = kashiwara(factors[lo], i, dir)
        return factors[lo] is not None

    return TensorElement(tuple(factors)) if rec(0) else None


def test_signature_fold_matches_tail_recursion_exhaustive():
    checked = zeros = 0
    for rank in (1, 2):
        crystal = [x for cap in range(3) for x in elements(rank, cap)]
        for n in range(1, 5):
            for factors in product(crystal, repeat=n):
                p = TensorElement(factors)
                for i in range(rank + 1):
                    assert tensor_eps_phi(p, i) == pairwise_eps_phi(p, i), (p, i)
                    for dir in ("raise", "lower"):
                        got = tensor_kashiwara(p, i, dir)
                        assert got == recursive_kashiwara(p, i, dir), (p, i, dir)
                        checked += 1
                        zeros += got is None
    assert checked == 2 * 2 * (6 + 36 + 216 + 1296) + 3 * 2 * (10 + 100 + 1000 + 10000)
    assert 0 < zeros < checked


def test_comb_R_worked_example():
    x = C.from_word("13347")
    y = C.from_word("135", rank=6)
    out = comb_R(x, y)
    assert out.left_out.word() == "147"
    assert out.right_out.word() == "13335"
    assert out.energy == 1
    ny = comb_R_ny(x, y)
    assert (ny.left_out, ny.right_out, ny.energy) == (out.left_out, out.right_out, out.energy)
    assert energy_H(x, y) == 1


def test_comb_R_identity_on_equal_capacity():
    for x in elements(2, 3):
        out = comb_R(x, x)
        assert out.left_out == x and out.right_out == x


def test_comb_R_sl2_b2b1():
    # 12 (x) 1 -> 2 (x) 11
    out = comb_R(C(1, (1, 1)), C(1, (1, 0)))
    assert out.left_out == C(1, (0, 1)) and out.right_out == C(1, (2, 0))
    assert out.energy == 1
    assert comb_R_ny(C(1, (1, 1)), C(1, (1, 0))).energy == 1
    # full q=0 table for B_2 (x) B_1 and B_1 (x) B_2
    table = {
        ("11", "1"): ("1", "11"),
        ("12", "1"): ("2", "11"),
        ("22", "1"): ("2", "12"),
        ("11", "2"): ("1", "12"),
        ("12", "2"): ("1", "22"),
        ("22", "2"): ("2", "22"),
    }
    for (xw, yw), (aw, bw) in table.items():
        out = comb_R(C.from_word(xw, 1), C.from_word(yw, 1))
        assert (out.left_out.word(), out.right_out.word()) == (aw, bw)
        # the inverse direction must invert the table
        back = comb_R(C.from_word(aw, 1), C.from_word(bw, 1))
        assert (back.left_out.word(), back.right_out.word()) == (xw, yw)


def test_energy_all_letter_one():
    for l, lp in [(2, 2), (3, 1), (1, 4)]:
        x, y = u_vac(2, l), u_vac(2, lp)
        out = comb_R(x, y)
        assert out.energy == min(l, lp)
        assert comb_R_ny(x, y).energy == min(l, lp)


def test_energy_examples():
    assert energy_H(C(1, (2, 0)), C(1, (0, 1))) == 0
    # H(u_l (x) single empty box) = 1
    for rank, l in [(1, 3), (2, 5), (3, 2)]:
        assert energy_H(u_vac(rank, l), u_vac(rank, 1)) == 1


def test_scattering_label_R():
    # 554322 (x) 422 reduced by one letter: sl4 elements
    x = C.from_word("443211", rank=3)
    y = C.from_word("311", rank=3)
    out = comb_R(x, y)
    assert out.left_out.word() == "244"  # 355 before reduction
    assert out.right_out.word() == "111133"  # 442222 reversed-sorted
    ny = comb_R_ny(x, y)
    assert ny.energy == 2
    assert out.energy == 2


def test_ny_agrees_with_formula_exhaustive_small():
    for rank in (1, 2, 3):
        for l, lp in product(range(1, 5), repeat=2):
            if (rank, l, lp) == (3, 4, 4):
                continue  # keep runtime modest; covered by random test below
            for x in elements(rank, l):
                for y in elements(rank, lp):
                    a = comb_R(x, y)
                    b = comb_R_ny(x, y)
                    assert (a.left_out, a.right_out, a.energy) == (
                        b.left_out,
                        b.right_out,
                        b.energy,
                    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ny_agrees_with_formula_random_large(data):
    rank = data.draw(st.integers(1, 5))
    l = data.draw(st.integers(1, 9))
    lp = data.draw(st.integers(1, 9))

    def comp(total):
        cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=rank, max_size=rank)))
        parts = []
        prev = 0
        for c in cuts + [total]:
            parts.append(c - prev)
            prev = c
        return tuple(parts)
    x = C(rank, comp(l))
    y = C(rank, comp(lp))
    a = comb_R(x, y)
    b = comb_R_ny(x, y)
    assert (a.left_out, a.right_out, a.energy) == (b.left_out, b.right_out, b.energy)


def test_ny_choice_independence():
    rng = random.Random(7)
    for _ in range(300):
        rank = rng.randint(1, 4)
        l, lp = rng.randint(1, 6), rng.randint(1, 6)
        x = _random_element(rng, rank, l)
        y = _random_element(rng, rank, lp)
        base = comb_R_ny(x, y)
        shuffled = comb_R_ny(x, y, rng=rng)
        assert (base.left_out, base.right_out, base.energy) == (
            shuffled.left_out,
            shuffled.right_out,
            shuffled.energy,
        )


def _random_element(rng, rank, cap):
    counts = [0] * (rank + 1)
    for _ in range(cap):
        counts[rng.randrange(rank + 1)] += 1
    return C(rank, tuple(counts))


def test_inversion():
    rng = random.Random(1)
    for _ in range(300):
        rank = rng.randint(1, 4)
        x = _random_element(rng, rank, rng.randint(1, 6))
        y = _random_element(rng, rank, rng.randint(1, 6))
        out = comb_R(x, y)
        back = comb_R(out.left_out, out.right_out)
        assert back.left_out == x and back.right_out == y
        assert 0 <= out.energy <= min(x.capacity, y.capacity)
        assert out.left_out.capacity == y.capacity
        assert out.right_out.capacity == x.capacity


def test_conservation_relations():
    rng = random.Random(2)
    for _ in range(300):
        rank = rng.randint(1, 4)
        x = _random_element(rng, rank, rng.randint(1, 6))
        y = _random_element(rng, rank, rng.randint(1, 6))
        out = comb_R(x, y)
        yt, xt = out.left_out, out.right_out
        for i in range(1, rank + 2):
            assert x.count(i) + y.count(i) == yt.count(i) + xt.count(i)
            assert max(-x.count(i), -y.count(i + 1)) == max(-yt.count(i), -xt.count(i + 1))


def test_intertwining():
    rng = random.Random(3)
    for _ in range(200):
        rank = rng.randint(1, 3)
        x = _random_element(rng, rank, rng.randint(1, 5))
        y = _random_element(rng, rank, rng.randint(1, 5))
        p = TensorElement((x, y))
        out = comb_R(x, y)
        q = TensorElement((out.left_out, out.right_out))
        for i in range(rank + 1):
            for dir in ("raise", "lower"):
                lhs = tensor_kashiwara(p, i, dir)
                rhs = tensor_kashiwara(q, i, dir)
                if lhs is None or rhs is None:
                    assert lhs is None and rhs is None
                    continue
                swapped = comb_R(lhs.factors[0], lhs.factors[1])
                assert (swapped.left_out, swapped.right_out) == (rhs.factors[0], rhs.factors[1])


def _yb_both_sides(x, y, z):
    def r12(t):
        a, b, c = t
        out = comb_R(a, b)
        return (out.left_out, out.right_out, c)

    def r23(t):
        a, b, c = t
        out = comb_R(b, c)
        return (a, out.left_out, out.right_out)

    return r12(r23(r12((x, y, z)))), r23(r12(r23((x, y, z))))


def test_yang_baxter_worked_instance():
    x = CrystalElement.from_word("223455", rank=5)
    y = CrystalElement.from_word("334", rank=5)
    z = CrystalElement.from_word("6", rank=5)
    lhs, rhs = _yb_both_sides(x, y, z)
    assert lhs == rhs
    assert tuple(e.word() for e in lhs) == ("3", "225", "334456")


def test_yang_baxter_random():
    rng = random.Random(4)
    for _ in range(250):
        rank = rng.randint(1, 4)
        x = _random_element(rng, rank, rng.randint(1, 6))
        y = _random_element(rng, rank, rng.randint(1, 6))
        z = _random_element(rng, rank, rng.randint(1, 6))
        lhs, rhs = _yb_both_sides(x, y, z)
        assert lhs == rhs


def test_rank_mismatch_raises():
    with pytest.raises(RankMismatch):
        comb_R(C(1, (1, 0)), C(2, (1, 0, 0)))


@pytest.mark.parametrize("word", ["１３", "٣", "1,,3", "1,3,", ",1", "13 4", "1, 3", "1;3", "-1"])
def test_from_word_takes_ascii_digits_and_no_empty_field(word):
    # before, "１３" and "1,,3" read as 13 and "13 4" failed inside int()
    with pytest.raises(ValueError, match="ASCII digits"):
        C.from_word(word)
    with pytest.raises(ValueError, match="ASCII digits"):
        TensorElement.from_word(f"12*{word}")


def test_from_word_keeps_unsorted_words_and_letter_bounds():
    assert C.from_word("311") == C.from_word("1,1,3") == C(2, (2, 0, 1))
    assert TensorElement.from_word("2*1,10").rank == 9
    with pytest.raises(ValueError, match="letters must be >= 1"):
        C.from_word("102")
    with pytest.raises(ValueError, match="exceeds rank"):
        TensorElement.from_word("13*2", rank=1)


@pytest.mark.parametrize(
    "rank, counts, what",
    [(1, (1.5, 0.5), "letter count"), (True, (1, 0), "rank"), (1, (True, 0), "letter count"), (1.0, (1, 0), "rank")],
)
def test_element_takes_int_rank_and_counts(rank, counts, what):
    # before, C(1, (1.5, 0.5)) was accepted and comb_R on it returned counts
    # (0.5, 0.5) with energy 1.0
    with pytest.raises(ValueError, match=f"{what} must be an int"):
        C(rank, counts)
