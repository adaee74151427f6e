import random
from fractions import Fraction
from itertools import product

import pytest

from boxball import pbbs, theta
from boxball.kkr import is_highest, kkr_phi
from boxball.pbbs import (
    ActionVariable,
    AngleVariable,
    PeriodicState,
    _some_highest_rotation,
    action_variable,
    angle_equal,
    canonicalize,
    direct_scattering,
    enumerate_isolevel,
    evolve_angle,
    evolve_periodic,
    fundamental_period,
    internal_symmetry,
    inverse_scattering,
    isolevel_cardinality,
    periodic_theta_state,
    torus_decomposition,
)

P = PeriodicState.parse


def highest_rotations(p):
    """(d, p_+) for every highest rotation p_+ = T_1^{-d}(p), ascending in d:
    every rotation tried with is_highest."""
    return [(d, p.shifted(-d)) for d in range(p.L) if is_highest(p.shifted(-d).cells, 1)]


PERIODIC_COLUMNS = {
    None: [  # T_l for l >= 3
        "222...2.....",
        "...222.2....",
        "......2.222.",
        "22.....2...2",
        "..222...2...",
        ".....222.2..",
        "2.......2.22",
    ],
    2: [
        "222...2.....",
        "..222..2....",
        "....222.2...",
        "......22.22.",
        "2.......2.22",
        "222......2..",
        "..222.....2.",
    ],
    1: [
        "222...2.....",
        ".222...2....",
        "..222...2...",
        "...222...2..",
        "....222...2.",
        ".....222...2",
        "2.....222...",
    ],
}


def test_evolution_columns_golden():
    for l, rows in PERIODIC_COLUMNS.items():
        s = P(rows[0])
        for row in rows[1:]:
            s = evolve_periodic(s, l)[0]
            assert s.render() == row


def test_two_step_carrier_fixture():
    # L = 9 state under T_3: the vacant carrier is already the fixed point on
    # the first row; on the second row the fixed point is the full carrier
    p = P("122212111")
    q, e1 = evolve_periodic(p, 3)
    assert q.word() == "111121222"
    r, e2 = evolve_periodic(q, 3)
    assert r.word() == "222112111"
    assert e1 == e2 == 4  # all four balls load each step


def test_isolevel_set_exact_listing():
    got = {s.word() for s in enumerate_isolevel(ActionVariable(6, (2, 1)))}
    assert got == {
        "121122", "212112", "221211", "122121", "112212", "211221",
        "112122", "211212", "221121", "122112", "212211", "121221",
    }


def test_t1_is_cyclic_shift():
    rng = random.Random(61)
    for _ in range(30):
        L = rng.randint(4, 14)
        M = rng.randint(0, (L - 1) // 2)
        cells = [2] * M + [1] * (L - M)
        rng.shuffle(cells)
        s = PeriodicState(tuple(cells))
        assert evolve_periodic(s, 1)[0] == s.shifted(1)


def test_rejects_too_many_balls():
    with pytest.raises(ValueError):
        PeriodicState((2, 2, 2, 1))


@pytest.mark.parametrize("cells", [(1, 2.0, 1, 1), (1, 2, True, 1), (1.0, 2, 1, 1), (1, 3, 1, 1), (1, "2", 1, 1)])
def test_rejects_cells_other_than_int_1_or_2(cells):
    with pytest.raises(ValueError, match=r"^letters must lie in 1\.\.2, each an int"):
        PeriodicState(cells)


def test_commutativity_and_energy_conservation():
    rng = random.Random(62)
    for _ in range(25):
        L = rng.randint(6, 13)
        M = rng.randint(1, (L - 1) // 2)
        cells = [2] * M + [1] * (L - M)
        rng.shuffle(cells)
        s = PeriodicState(tuple(cells))
        for l in (1, 2, 3):
            for k in (1, 2, 3):
                assert (
                    evolve_periodic(evolve_periodic(s, l)[0], k)[0]
                    == evolve_periodic(evolve_periodic(s, k)[0], l)[0]
                )
        energies = [evolve_periodic(s, l)[1] for l in (1, 2, 3, 4)]
        for k in (1, 2, 3):
            t = evolve_periodic(s, k)[0]
            assert [evolve_periodic(t, l)[1] for l in (1, 2, 3, 4)] == energies


def test_energy_equals_mu_columns():
    rng = random.Random(63)
    for _ in range(25):
        L = rng.randint(6, 13)
        M = rng.randint(1, (L - 1) // 2)
        cells = [2] * M + [1] * (L - M)
        rng.shuffle(cells)
        s = PeriodicState(tuple(cells))
        mu = action_variable(s)
        for l in (1, 2, 3, 4):
            assert evolve_periodic(s, l)[1] == sum(min(l, i) for i in mu.parts)


def test_action_variable_fixtures():
    assert action_variable(P("2211221112122111221")).parts == (3, 2, 2, 1, 1)
    assert action_variable(P("222111")).parts == (3,)
    assert action_variable(P("121212".replace("1", ".").replace("2", "2"))).parts == (1, 1, 1)
    assert action_variable(PeriodicState.parse("121212")).parts == (1, 1, 1)


def test_action_variable_rejects_parts_below_one():
    for parts in ((0,), (-1,), (2, 0), (3, 1, -1)):
        with pytest.raises(ValueError, match="parts must be >= 1"):
            ActionVariable(6, parts)
    assert ActionVariable(6, ()).g == 0


def test_action_variable_vacancies_follow_the_q_formula():
    # p_i = L - 2 sum_k min(i, k) m_k over the distinct part sizes i, ascending
    rng = random.Random(23)
    for _ in range(200):
        parts = tuple(sorted((rng.randint(1, 9) for _ in range(rng.randint(0, 12))), reverse=True))
        L = 2 * sum(parts) + rng.randint(0, 10)
        mu = ActionVariable(L, parts)
        assert mu.vacancies == tuple(
            L - 2 * sum(min(i, k) for k in parts) for i in sorted(set(parts))
        ), (L, parts)


def test_action_variable_vacancies_are_the_phi_vacancies():
    # for every mu with |mu| <= L / 2, L <= 16, phi of the highest path
    # 1^{mu_1} 2^{mu_1} 1^{mu_2} 2^{mu_2} ... padded with 1s has shape mu
    def partitions(n, cap):
        if n == 0:
            yield ()
        for first in range(min(n, cap), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    checked = 0
    for L in range(17):
        for size in range(L // 2 + 1):
            for parts in partitions(size, size):
                word = "".join("1" * i + "2" * i for i in parts).ljust(L, "1")
                rc = kkr_phi(word, rank=1)
                assert rc.mu(1) == parts, word
                assert ActionVariable(L, parts).vacancies == rc.vacancies(1), word
                checked += 1
    assert checked == 307  # sum over L of p(0) + ... + p(L // 2)


def test_action_variable_rotation_independent():
    p = P("2211221112122111221")
    for d, p_plus in highest_rotations(p):
        rc = kkr_phi(p_plus.word(), rank=1)
        assert rc.mu(1) == (3, 2, 2, 1, 1)
        assert p_plus.shifted(d) == p


def test_highest_rotations_match_scan_exhaustive():
    # the cycle-lemma search against trying every rotation with is_highest
    for L in range(1, 13):
        for cells in product((1, 2), repeat=L):
            if 2 * cells.count(2) > L:
                continue
            p = PeriodicState(cells)
            assert _some_highest_rotation(p) == highest_rotations(p)[0]


def test_highest_rotation_rejects_more_balls_than_boxes():
    p = object.__new__(PeriodicState)
    object.__setattr__(p, "cells", (2, 1, 2))
    with pytest.raises(ValueError, match="no highest rotation"):
        _some_highest_rotation(p)


def test_phi_canonical_class_example():
    # the three decompositions of the L=19 state give one class
    p = P("2211221112122111221")
    J = direct_scattering(p)
    from boxball.kkr import kkr_phi

    reps = []
    for d, p_plus in highest_rotations(p):
        rc = kkr_phi(p_plus.word(), rank=1)
        mu = J.mu
        windows = tuple(
            tuple(sorted(r + d for j, r in rc.color(1) if j == i)) for i in mu.I
        )
        reps.append(AngleVariable(mu, windows))
    assert len(reps) >= 3
    for rep in reps:
        assert canonicalize(rep) == J


def test_phi_of_highest_state_is_own_rigging_class():
    p = P("112212")
    J = direct_scattering(p)
    assert angle_equal(J, AngleVariable(J.mu, ((0,), (2,))))


def test_phi_t1_shifts_class_by_one():
    rng = random.Random(64)
    for _ in range(15):
        L = rng.randint(6, 12)
        M = rng.randint(1, (L - 1) // 2)
        cells = [2] * M + [1] * (L - M)
        rng.shuffle(cells)
        p = PeriodicState(tuple(cells))
        J = direct_scattering(p)
        J1 = direct_scattering(evolve_periodic(p, 1)[0])
        assert angle_equal(J1, J.uniform_shift(1))


def test_linearization_random():
    rng = random.Random(65)
    for _ in range(20):
        L = rng.randint(6, 13)
        M = rng.randint(1, (L - 1) // 2)
        cells = [2] * M + [1] * (L - M)
        rng.shuffle(cells)
        p = PeriodicState(tuple(cells))
        J = direct_scattering(p)
        for l in (1, 2, 3, 4):
            Jl = direct_scattering(evolve_periodic(p, l)[0])
            assert angle_equal(Jl, evolve_angle(J, l))


def test_inverse_scattering_roundtrip():
    rng = random.Random(66)
    for _ in range(25):
        L = rng.randint(5, 13)
        M = rng.randint(1, (L - 1) // 2)
        cells = [2] * M + [1] * (L - M)
        rng.shuffle(cells)
        p = PeriodicState(tuple(cells))
        assert inverse_scattering(direct_scattering(p)) == p


def test_periodic_ivp_fixture():
    # T_3^5 of the L=19 state, solved through the angle variables
    p = P("2211221112122111221")
    J = direct_scattering(p)
    J5 = evolve_angle(J, 3, steps=5)
    result = inverse_scattering(J5)
    assert result.word() == "1221112211211221122"
    direct = p
    for _ in range(5):
        direct = evolve_periodic(direct, 3)[0]
    assert direct == result


def test_periodic_ivp_intermediate_highest_path():
    # the e = 8 representative corresponds to the highest path p'
    p = P("2211221112122111221")
    J5 = evolve_angle(direct_scattering(p), 3, steps=5)
    result = inverse_scattering(J5)
    pprime = P("1121122112212211122")
    assert result == pprime.shifted(8)


def test_internal_symmetry_fixtures():
    assert internal_symmetry(P("1212111222")) == (1, 1)
    assert internal_symmetry(P("1211121222")) == (2, 1)
    assert internal_symmetry(P("121122111212211222121111")) == (3, 1, 1)


def test_internal_symmetry_trivial_when_multiplicity_free():
    for word in ("122211211", "22211.2111211", "212.."):
        p = P(word.replace(".", "1"))
        mu = action_variable(p)
        if all(mu.m(i) == 1 for i in mu.I):
            assert all(g == 1 for g in internal_symmetry(p))


def test_fundamental_period_fixtures():
    p, ptilde = P("1212111222"), P("1211121222")
    assert [fundamental_period(p, l) for l in (1, 2, 3)] == [10, 20, 2]
    assert [fundamental_period(ptilde, l) for l in (1, 2, 3)] == [10, 10, 2]


def _orbit_length(p, l):
    s = evolve_periodic(p, l)[0]
    n = 1
    while s != p:
        s = evolve_periodic(s, l)[0]
        n += 1
        assert n < 10_000
    return n


def test_fundamental_period_vacuum():
    for L in (1, 4, 7):
        assert [fundamental_period(P("1" * L), l) for l in (1, 2, None)] == [1, 1, 1]


def test_fundamental_period_against_orbit_fixtures():
    for word in ("1212111222", "1211121222"):
        p = P(word)
        for l in (1, 2, 3):
            assert fundamental_period(p, l) == _orbit_length(p, l)


def test_fundamental_period_exhaustive_L_to_9():
    for L in range(3, 10):
        for balls in _states(L):
            p = PeriodicState(balls)
            for l in (1, 2, 3):
                assert fundamental_period(p, l) == _orbit_length(p, l), (p.render(), l)


def _states(L):
    from itertools import combinations

    for M in range(L // 2 + 1):  # the vacuum to half filling
        for pos in combinations(range(L), M):
            cells = [1] * L
            for b in pos:
                cells[b] = 2
            yield tuple(cells)


def test_isolevel_cardinality_fixtures():
    assert isolevel_cardinality(ActionVariable(6, (2, 1))) == 12
    assert isolevel_cardinality(ActionVariable(6, (3,))) == 6
    assert isolevel_cardinality(ActionVariable(6, (1, 1, 1))) == 2
    assert isolevel_cardinality(ActionVariable(5, (2,))) == 5
    for L in range(3, 13):
        assert isolevel_cardinality(ActionVariable(L, (1,))) == L


def test_enumerate_isolevel_fixtures():
    six = enumerate_isolevel(ActionVariable(6, (3,)))
    assert sorted(s.word() for s in six) == sorted(
        ["111222", "211122", "221112", "222111", "122211", "112221"]
    )
    assert sorted(s.word() for s in enumerate_isolevel(ActionVariable(6, (1, 1, 1)))) == [
        "121212",
        "212121",
    ]
    five = enumerate_isolevel(ActionVariable(5, (2,)))
    assert sorted(s.word() for s in five) == sorted(
        ["22111", "12211", "11221", "11122", "21112"]
    )
    assert len(enumerate_isolevel(ActionVariable(6, (2, 1)))) == 12


def test_counts_match_enumeration():
    for L in range(4, 11):
        seen = {}
        for cells in _states(L):
            mu = action_variable(PeriodicState(cells)).parts
            seen[mu] = seen.get(mu, 0) + 1
        for mu_parts, count in seen.items():
            assert isolevel_cardinality(ActionVariable(L, mu_parts)) == count


def test_two_component_isolevel_fixture():
    # P_6((1,1)) splits into a 6-cycle and a 3-cycle
    mu = ActionVariable(6, (1, 1))
    rows = {g: (m, Fg) for g, m, Fg in torus_decomposition(mu)}
    assert rows[(1,)][0] == 1 and rows[(2,)][0] == 1
    assert rows[(1,)][1] == [[6]] and rows[(2,)][1] == [[3]]
    assert internal_symmetry(P("212111")) == (1,)
    assert internal_symmetry(P("211211")) == (2,)
    assert _orbit_length(P("212111"), 1) == 6
    assert _orbit_length(P("211211"), 1) == 3


def test_internal_symmetry_is_conserved():
    for word in ("1211121222", "121122111212211222121111", "1212111222"):
        p = P(word)
        gamma = internal_symmetry(p)
        for l in (1, 2, 3):
            assert internal_symmetry(evolve_periodic(p, l)[0]) == gamma


def test_torus_decomposition_L24_fixture():
    mu = ActionVariable(24, (3, 2, 2, 1, 1, 1))
    F = mu.F()
    assert F == [[18, 4, 2], [6, 14, 4], [6, 8, 10]]
    rows = {g: m for g, m, _ in torus_decomposition(mu)}
    assert rows == {(1, 1, 1): 90, (1, 2, 1): 30, (3, 1, 1): 3, (3, 2, 1): 1}


def test_torus_decomposition_sums():
    for L, parts in [(6, (2, 1)), (10, (3, 1, 1)), (12, (2, 2, 1)), (9, (3, 1))]:
        mu = ActionVariable(L, parts)
        rows = torus_decomposition(mu)  # the sum identity is asserted inside
        assert rows


def test_torus_decomposition_against_orbits():
    from boxball.intmat import det_int

    for L, parts in [(6, (2, 1)), (10, (3, 1, 1)), (12, (2, 2, 1))]:
        mu = ActionVariable(L, parts)
        states = set(enumerate_isolevel(mu))
        orbits = []
        seen = set()
        lmax = max(mu.parts)
        for s in sorted(states, key=lambda x: x.word()):
            if s in seen:
                continue
            orbit = {s}
            frontier = [s]
            while frontier:
                cur = frontier.pop()
                for l in range(1, lmax + 1):
                    t = evolve_periodic(cur, l)[0]
                    if t not in orbit:
                        orbit.add(t)
                        frontier.append(t)
            seen |= orbit
            orbits.append(orbit)
        # orbit sizes group by internal symmetry exactly as the multiplicities say
        decomp = {g: (m, det_int(Fg)) for g, m, Fg in torus_decomposition(mu)}
        tally = {}
        for orbit in orbits:
            g = internal_symmetry(next(iter(orbit)))
            assert len(orbit) == decomp[g][1], (g, len(orbit))
            tally[g] = tally.get(g, 0) + 1
        assert tally == {g: m for g, (m, _) in decomp.items()}


def test_theta_state_matches_inverse_scattering():
    for L, parts in [(9, (3, 1)), (10, (3, 1))]:
        mu = ActionVariable(L, parts)
        F = mu.F()
        g = mu.g
        dets = abs(
            F[0][0] * F[1][1] - F[0][1] * F[1][0]
        )
        count = 0
        for j1 in range(F[0][0]):
            for j2 in range(F[1][1]):
                J = (j1, j2)
                ts = periodic_theta_state(J, mu)
                iv = inverse_scattering(AngleVariable(mu, ((j1,), (j2,))))
                assert ts == iv
                count += 1
        assert count == F[0][0] * F[1][1]


def test_theta_state_lattice_invariance():
    mu = ActionVariable(9, (3, 1))
    F = mu.F()
    base = periodic_theta_state((2, 5), mu)
    for s1, s2 in [(1, 0), (0, 1), (-1, 2)]:
        shifted = (
            2 + F[0][0] * s1 + F[0][1] * s2,
            5 + F[1][0] * s1 + F[1][1] * s2,
        )
        assert periodic_theta_state(shifted, mu) == base


def test_theta_state_time_evolution():
    mu = ActionVariable(9, (3, 1))
    for J in [(0, 0), (3, 1), (5, 2)]:
        p = periodic_theta_state(J, mu)
        for l in (1, 2, 3):
            h = mu.h(l)
            assert periodic_theta_state((J[0] + h[0], J[1] + h[1]), mu) == evolve_periodic(p, l)[0]


def test_theta_state_single_soliton():
    mu = ActionVariable(7, (2,))
    states = {periodic_theta_state((j,), mu).word() for j in range(7)}
    assert states == {s.word() for s in enumerate_isolevel(mu)}


def test_theta_state_rejects_multiplicity():
    with pytest.raises(ValueError):
        periodic_theta_state((0, 0), ActionVariable(10, (2, 2)))


@pytest.mark.parametrize("J", [(0, 1, 99), (0,), (0.0, 1.0), (True, 1), (0, "1")])
def test_theta_state_takes_g_exact_entries(J):
    with pytest.raises(ValueError):
        periodic_theta_state(J, ActionVariable(8, (2, 1)))


def test_theta_state_takes_fraction_entries():
    mu = ActionVariable(9, (3, 1))
    assert periodic_theta_state((Fraction(4, 2), Fraction(5)), mu) == periodic_theta_state((2, 5), mu)


def test_theta_state_computes_each_theta_once(monkeypatch):
    # cells 1..L read the thetas of k = 0..L with and without h_inf
    calls, argmin_int = [], theta._argmin_int

    def counted(*args, **kwargs):
        calls.append(args)
        return argmin_int(*args, **kwargs)

    monkeypatch.setattr(theta, "_argmin_int", counted)
    for L, parts, J in [(9, (3, 1), (2, 5)), (7, (2,), (3,)), (12, (3, 2), (1, 4))]:
        calls.clear()
        periodic_theta_state(J, ActionVariable(L, parts))
        assert len(calls) == 2 * (L + 1)


def _apply_slide(J: AngleVariable, k: int) -> AngleVariable:
    """Elementary slide on part size k, straight from its definition."""
    mu = J.mu
    windows = []
    for i, p, w in zip(mu.I, mu.vacancies, J.windows):
        add = 2 * min(i, k)
        if i == k:
            w = tuple(list(w[1:]) + [w[0] + p])
        windows.append(tuple(x + add for x in w))
    return AngleVariable(mu, tuple(windows))


def test_full_slide_product_is_uniform_L_shift():
    # applying every slide m_i times adds exactly L to all windows
    for word in ("1212111222", "2211221112122111221"):
        J = direct_scattering(P(word))
        moved = J
        for i in J.mu.I:
            for _ in range(J.mu.m(i)):
                moved = _apply_slide(moved, i)
        assert moved == J.uniform_shift(J.mu.L)


def test_canonicalize_is_lattice_reduction_when_multiplicity_free():
    mu = ActionVariable(9, (3, 1))
    Fm = mu.F()
    base = AngleVariable(mu, ((2,), (5,)))
    for s1, s2 in [(1, 0), (0, -1), (2, 1)]:
        shifted = AngleVariable(
            mu,
            (
                (2 + Fm[0][0] * s1 + Fm[0][1] * s2,),
                (5 + Fm[1][0] * s1 + Fm[1][1] * s2,),
            ),
        )
        assert canonicalize(shifted) == canonicalize(base)
        assert angle_equal(shifted, base)


def test_canonical_form_invariant_under_slides():
    rng = random.Random(68)
    for _ in range(30):
        L = rng.randint(6, 14)
        M = rng.randint(1, (L - 1) // 2)
        cells = [2] * M + [1] * (L - M)
        rng.shuffle(cells)
        J = direct_scattering(PeriodicState(tuple(cells)))
        moved = J
        for _ in range(rng.randint(1, 6)):
            moved = _apply_slide(moved, rng.choice(J.mu.I))
        assert canonicalize(moved) == J  # J is already canonical
        assert angle_equal(moved, J)
        # distinct classes stay distinct: a plain +1 shift is never a slide
        assert not angle_equal(J.uniform_shift(1), J) or J.mu.parts == ()


def test_t1_to_the_L_is_identity():
    rng = random.Random(67)
    for _ in range(20):
        L = rng.randint(4, 12)
        M = rng.randint(0, (L - 1) // 2)
        cells = [2] * M + [1] * (L - M)
        rng.shuffle(cells)
        p = PeriodicState(tuple(cells))
        s = p
        for _ in range(L):
            s = evolve_periodic(s, 1)[0]
        assert s == p
        # and the fundamental period under any T_l divides L-step closure of T_1
        if M:
            assert L % fundamental_period(p, 1) == 0


def test_parse_accepts_only_1_dot_and_2():
    assert PeriodicState.parse("1.2.11") == PeriodicState((1, 1, 2, 1, 1, 1))
    for bad in ("1x1111", "113111", "12 111", "1-2111"):
        with pytest.raises(ValueError):
            PeriodicState.parse(bad)


def test_evolve_periodic_capacity_zero_and_negative():
    p = PeriodicState.parse("2211.2....")
    assert evolve_periodic(p, 0) == (p, 0)
    with pytest.raises(ValueError):
        evolve_periodic(p, -1)


def test_step_counts_and_action_variables_must_be_ints():
    # before, evolve_angle gave float windows and ActionVariable(10.5, (2, 1))
    # had the vacancies (6.5, 4.5)
    J = direct_scattering(PeriodicState.parse("1212111222"))
    for steps in (0.5, 1.0, True):
        with pytest.raises(ValueError, match="steps must be an int"):
            evolve_angle(J, 1, steps)
    for L, parts in ((10.5, (2, 1)), (10, (2.0, 1)), (True, ())):
        with pytest.raises(ValueError, match="must be ints"):
            ActionVariable(L, parts)


@pytest.mark.parametrize("d", [1.5, "2", True])
def test_shifted_requires_int_offset(d):
    # before, 1.5 raised TypeError from the slice, "2" a string-formatting
    # TypeError, and True was read as 1
    with pytest.raises(ValueError, match="d must be an int"):
        PeriodicState.parse("1122..").shifted(d)


def test_evolve_angle_rejects_negative_capacity():
    J = direct_scattering(PeriodicState.parse("1212111222"))
    with pytest.raises(ValueError, match="capacity l must be >= 0"):
        evolve_angle(J, -1)


def test_fundamental_period_rejects_negative_capacity():
    # before, l = -1 gave a period of 10 for this state, and 1 for the vacuum
    for cells in ("1212111222", "1111"):
        with pytest.raises(ValueError, match="capacity l must be >= 0"):
            fundamental_period(PeriodicState.parse(cells), -1)


def test_angle_window_spread_beyond_quasi_period_raises():
    # p_1 = 14: every consecutive gap is 14, but the spread is 28; accepted,
    # inverse_scattering mapped it to another class (...............2.2.2)
    mu = ActionVariable(20, (1, 1, 1))
    assert mu.vacancies == (14,)
    with pytest.raises(ValueError, match="window spread exceeds the quasi-period"):
        AngleVariable(mu, ((0, 14, 28),))
    assert AngleVariable(mu, ((0, 7, 14),)).windows == ((0, 7, 14),)


@pytest.mark.parametrize("window", [(1.5,), (Fraction(1, 2),), (True,), (Fraction(2),), ("1",)])
def test_angle_window_entries_must_be_non_bool_ints(window):
    # before, AngleVariable(ActionVariable(8, (2,)), ((1.5,),)) was built
    with pytest.raises(ValueError, match="window entries must be an int"):
        AngleVariable(ActionVariable(8, (2,)), (window,))


def test_direct_scattering_then_period_scatters_once(monkeypatch):
    # each state keeps its own angle variable, so interleaving a second state
    # scatters that one once and the first never again
    calls = []

    def counting_phi(*args, **kwargs):
        calls.append(args)
        return kkr_phi(*args, **kwargs)

    monkeypatch.setattr(pbbs, "kkr_phi", counting_phi)
    p = PeriodicState.parse("1212111222")
    direct_scattering(p)
    assert fundamental_period(p, 2) == 20
    assert len(calls) == 1
    direct_scattering(p.shifted(3))
    assert fundamental_period(p, 2) == 20
    assert len(calls) == 2


def test_one_scattering_pass_per_state(monkeypatch):
    # action, angle, internal symmetry and every period of a state read the
    # angle variable it scattered on first use
    scattered = []
    scatter = pbbs._scatter

    def counting(p):
        scattered.append(p)
        return scatter(p)

    monkeypatch.setattr(pbbs, "_scatter", counting)
    p = P("1212111222")
    assert action_variable(p).parts == (3, 1, 1)
    J = direct_scattering(p)
    assert internal_symmetry(p) == (1, 1)
    assert [fundamental_period(p, l) for l in (1, 2, 3, None)] == [10, 20, 2, 2]
    assert scattered == [p] and scattered[0] is p
    # an equal, fresh state scatters once itself, to the same angle variable
    q = P("1212111222")
    assert direct_scattering(q) == J and fundamental_period(q, 2) == 20
    assert len(scattered) == 2 and scattered[1] is q
