"""The two ways a library value is built, held to one rule.

A value built unchecked (intmat.trusted) from a valid one must be the value
its class's checked constructor builds from the same fields.  And every
bounded int an API reads (intmat.require_int with lo) refuses lo - 1, a
bool and a float with a ValueError that names it.
"""

import random
from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest

from boxball import intmat
from boxball.bbs import BBSState, energies, evolve, toda_evolve
from boxball.crystal import (
    CrystalElement,
    TensorElement,
    eps_phi,
    kashiwara,
    rank_of,
    tensor_eps_phi,
    tensor_kashiwara,
)
from boxball.kkr import RiggedConfiguration, evolve_rc, highest_paths, kkr_phi, solve_ivp
from boxball.pbbs import (
    ActionVariable,
    PeriodicState,
    direct_scattering,
    evolve_angle,
    evolve_periodic,
)
from boxball.tau import StringSet, rho
from boxball.troptoda import (
    TodaState,
    conserved_all,
    evolve_toda,
    shift_s,
    spectral_data,
    theta_state,
)


def assert_checked(value):
    """value equals, hashes and prints as its class's checked build of its fields."""
    again = type(value)(**{f.name: getattr(value, f.name) for f in fields(value)})
    assert again == value and hash(again) == hash(value), value
    assert repr(again) == repr(value), value  # an integral Fraction would print apart


def test_evolve_and_trimmed_build_checked_states():
    for n in range(8):
        for i, letters in enumerate(product((1, 2, 3), repeat=n)):
            for rank in range(rank_of(letters), 3):
                s = BBSState(rank, letters, i % 5 - 2)
                assert_checked(s.trimmed())
                for l in (1, 2, None):
                    assert_checked(evolve(s, l)[0])


def _configurations(rng):
    for L in range(8):
        for word in highest_paths(L, 2):
            yield kkr_phi(word)
    for _ in range(60):  # non-highest paths give extended configurations
        yield kkr_phi([rng.randint(1, 3) for _ in range(rng.randint(1, 10))], 2, check=False)


def test_kkr_phi_evolve_rc_and_from_rc_build_checked_values():
    for rc in _configurations(random.Random(3)):
        assert_checked(rc)
        assert_checked(StringSet.from_rc(rc))
        for l, steps in product((1, 2, None), (0, 1, 4)):
            moved = evolve_rc(rc, l, steps)
            assert_checked(moved)
            assert_checked(StringSet.from_rc(moved))


def test_periodic_and_angle_steps_build_checked_values():
    rng = random.Random(5)
    for _ in range(40):
        L = rng.randint(2, 14)
        M = rng.randint(0, L // 2)
        cells = [2] * M + [1] * (L - M)
        rng.shuffle(cells)
        p = PeriodicState(tuple(cells))
        J = direct_scattering(p)
        for d in (-L - 1, -1, 1, 3, L + 2):
            assert_checked(p.shifted(d))
            assert_checked(J.uniform_shift(d))
        for l, steps in product((1, 2, None), (1, 3)):
            assert_checked(evolve_periodic(p, l)[0])
            assert_checked(evolve_angle(J, l, steps))


def test_toda_steps_and_theta_states_build_checked_values():
    rng = random.Random(7)
    for _ in range(60):
        N = rng.randint(1, 5)
        den = rng.choice((1, 1, 2, 3))
        Q = [Fraction(rng.randint(0, 9), den) for _ in range(N)]
        W = [Fraction(rng.randint(0, 9), den) for _ in range(N)]
        if sum(Q) >= sum(W):
            continue
        s = TodaState(Q, W)
        for _ in range(3):
            s = evolve_toda(s)
            assert_checked(s)
            assert_checked(shift_s(s))
    curves = 0
    while curves < 6:
        N = rng.randint(2, 3)
        Q = [rng.randint(0, 9) for _ in range(N)]
        W = [rng.randint(0, 9) for _ in range(N)]
        low = min(Q + W)
        if sum(Q) >= sum(W):
            continue
        C = conserved_all(TodaState([q - low for q in Q], [w - low for w in W]))
        if not spectral_data(C).smooth:
            continue
        curves += 1
        Z0 = [Fraction(rng.randint(-20, 20), rng.choice((1, 2))) for _ in range(N - 1)]
        for t in range(3):
            assert_checked(theta_state(Z0, C, t))


STATE = BBSState.parse("1122.3")
RC = kkr_phi("1122")
MU = ActionVariable(10, (2, 1))
X = CrystalElement(2, (1, 1, 1))
P = TensorElement((X, X))

# (name, lo or None, call): call(x) reads x as the named bounded int
BOUNDED = [
    ("l_max", 0, lambda x: energies(STATE, x)),
    ("steps", 0, lambda x: evolve_rc(RC, 1, x)),
    ("steps", 0, lambda x: solve_ivp("1122", 1, x)),
    ("L", 0, lambda x: next(highest_paths(x, 1))),
    ("L", 0, lambda x: RiggedConfiguration(x, 1, ((),))),
    ("length", 1, lambda x: RC.vacancy(1, x)),
    ("L", 0, lambda x: StringSet(1, x, ())),
    ("string length", 1, lambda x: StringSet(1, 5, ((1, x, 0),))),
    ("t", 0, lambda x: rho(STATE, 3, 2, x)),
    ("letter count", 0, lambda x: CrystalElement(1, (x, 1))),
    ("parts", 1, lambda x: ActionVariable(10, (x,))),
    ("k", 1, intmat.moebius),
    ("k", 1, intmat.divisors),
    ("color index", 0, lambda x: eps_phi(X, x)),
    ("color index", 0, lambda x: kashiwara(X, x, "raise")),
    ("color index", 0, lambda x: tensor_eps_phi(P, x)),
    ("color index", 0, lambda x: tensor_kashiwara(P, x, "lower")),
    ("gamma", 1, lambda x: MU.F((x, 1))),
    ("values", None, lambda x: toda_evolve([x, 2], [3])),
    ("values", None, lambda x: toda_evolve([1, 2], [x])),
    ("ratios", None, lambda x: intmat.lcm_of_fractions([x])),
    ("left", None, lambda x: STATE.render(x)),
    ("right", None, lambda x: STATE.render(0, x)),
    ("d", None, lambda x: direct_scattering(PeriodicState.parse("1122..")).uniform_shift(x)),
    ("color", 1, RC.color),
    ("color", 1, RC.mu),
    ("color", 1, lambda x: RC.vacancy(x, 1)),
    ("color", 1, RC.vacancies),
    ("position", None, STATE.cell),
    ("part size", None, MU.m),
    ("matrix entries", None, lambda x: intmat.det_int([[x, 0], [0, 2]])),
]


@pytest.mark.parametrize(
    "name,call,x",
    [
        pytest.param(name, call, x, id=f"{i}-{name}-{x!r}")
        for i, (name, lo, call) in enumerate(BOUNDED)
        for x in ([] if lo is None else [lo - 1]) + [True, 1.5]
    ],
)
def test_bounded_ints_refuse_below_bools_and_floats(name, call, x):
    with pytest.raises(ValueError, match=f"^(L and the )?{name}"):
        call(x)


@pytest.mark.parametrize(
    "call",
    [RC.color, RC.mu, RC.vacancies, lambda a: RC.vacancy(a, 1)],
    ids=["color", "mu", "vacancies", "vacancy"],
)
def test_colors_above_the_rank_are_refused(call):
    # before, color(rank + 1) and mu(rank + 1) raised IndexError
    with pytest.raises(ValueError, match="color out of range"):
        call(RC.rank + 1)


def test_gamma_has_one_entry_per_part_size():
    # before, F((1,)) returned a 2 x 1 matrix and F(()) the plain F
    for gamma in ((1,), (), (1, 1, 1)):
        with pytest.raises(ValueError, match="gamma must have g = 2 entries"):
            MU.F(gamma)
    assert MU.F((1, 1)) == MU.F()


def test_det_int_reads_int_entries_only():
    # before, det_int returned 3.0, 2, 'a' and 1 for these: a Fraction matrix's
    # determinant is not that of its scaled integer form (intmat.Lattice.A)
    for rows in ([[1.5, 0], [0, 2]], [[True, 0], [0, 2]], [["a"]], [[Fraction(1, 2), 0], [0, 2]]):
        with pytest.raises(ValueError, match="^matrix entries must be an int"):
            intmat.det_int(rows)
    assert intmat.det_int([[2, 1], [1, 3]]) == 5
