import random
from fractions import Fraction

import pytest

from boxball import intmat, troptoda
from boxball.theta import PeriodMatrix
from boxball.troptoda import (
    SpectralData,
    TodaState,
    conserved,
    conserved_all,
    embed_pbbs,
    evolve_toda,
    s_equivalent,
    shift_s,
    spectral_data,
    theta_solution,
    theta_state,
)

F = Fraction


def test_evolve_n2_table():
    # C = (0,3,8) trajectory
    rows = [(3, 4, 0, 1), (3, 1, 0, 4), (1, 0, 2, 5), (0, 2, 3, 3), (0, 5, 3, 0)]
    s = TodaState.from_flat(rows[0])
    for expect in rows[1:]:
        s = evolve_toda(s)
        assert s.flat() == tuple(map(F, expect))


def test_evolve_n3_table():
    rows = [
        (2, 1, 0, 9, 4, 3),
        (1, 0, 2, 11, 3, 2),
        (0, 2, 4, 10, 2, 1),
        (1, 5, 4, 8, 1, 0),
        (2, 7, 4, 5, 0, 1),
        (2, 9, 4, 1, 0, 3),
    ]
    s = TodaState.from_flat(rows[0])
    for expect in rows[1:]:
        s = evolve_toda(s)
        assert s.flat() == tuple(map(F, expect))


def test_evolve_huge_w():
    s = TodaState.make([2, 3, 1], [50, 60, 70])
    t = evolve_toda(s)
    assert t.Q == s.Q  # X_j = 0 and W_j never binds
    assert t.W == (s.Q[1] + s.W[0] - s.Q[0], s.Q[2] + s.W[1] - s.Q[1], s.Q[0] + s.W[2] - s.Q[2])


def test_conserved_fixtures():
    assert conserved_all(TodaState.from_flat((0, 1, 3, 2, 1, 2))) == (0, 1, 4, 9)
    assert conserved_all(TodaState.from_flat((2, 1, 0, 9, 4, 3))) == (0, 2, 6, 19)


def test_conserved_telescoping():
    s = TodaState.make([1, 2], [3, 4])
    assert conserved(s, s.N + 1) == 10
    t = evolve_toda(s)
    assert conserved(t, s.N + 1) == 10


def test_conserved_invariance_random():
    rng = random.Random(51)
    for _ in range(100):
        N = rng.randint(2, 6)
        while True:
            Q = [F(rng.randint(0, 8)) for _ in range(N)]
            W = [F(rng.randint(0, 8)) for _ in range(N)]
            if sum(Q) < sum(W):
                break
        s = TodaState(tuple(Q), tuple(W))
        C = conserved_all(s)
        for _ in range(50):
            s = evolve_toda(s)
        assert conserved_all(s) == C


def test_integer_states_stay_integer():
    rng = random.Random(52)
    for _ in range(30):
        N = rng.randint(2, 5)
        while True:
            Q = [F(rng.randint(0, 6)) for _ in range(N)]
            W = [F(rng.randint(0, 6)) for _ in range(N)]
            if sum(Q) < sum(W):
                break
        s = TodaState(tuple(Q), tuple(W))
        for _ in range(10):
            s = evolve_toda(s)
            assert all(v.denominator == 1 for v in s.flat())


def test_spectral_data_fixtures():
    sd = spectral_data((0, 1, 4, 9))
    assert sd.lam == (0, 1, 3)
    assert sd.eta == (9, 5, 1)
    assert sd.smooth
    assert sd.Omega.rows == ((16, -5), (-5, 10))

    sd = spectral_data((0, 2, 6, 19))
    assert sd.Omega.rows == ((34, -11), (-11, 22))

    sd = spectral_data((0, 3, 8))
    assert sd.Omega.rows == ((16,),)
    assert sd.smooth


def test_spectral_data_values_are_ints_when_integral():
    # L, lambda_k and eta_k of a rational C turn integral here: each is an int
    sd = spectral_data((F(1, 2), F(5, 2), 9))
    assert (sd.L, sd.lam, sd.eta) == (8, (0, 2), (8, 4))
    assert all(type(x) is int for x in (sd.L,) + sd.lam + sd.eta)
    assert sd.Omega.rows == ((16,),)
    assert repr(sd).endswith("lam=(0, 2), eta=(8, 4), Omega=PeriodMatrix(rows=((16,),)))")


def test_spectral_data_non_smooth_flagged():
    sd = spectral_data((0, 2, 4, 19))  # equal gaps: lambda_1 = lambda_2
    assert not sd.smooth and sd.Omega is None


def test_spectral_eta_is_the_double_sum():
    # eta_k = L - 2 sum_j min(lambda_k, lambda_j), on random rational C,
    # non-smooth curves (repeated or decreasing lambdas, eta <= 0) included
    rng = random.Random(26)
    smooth = 0
    for _ in range(300):
        N = rng.randint(1, 6)
        C = [F(rng.randint(-20, 40), rng.randint(1, 4)) for _ in range(N + 1)]
        if rng.random() < 0.3:
            C = sorted(C)
        sd = spectral_data(C)
        L, lam = sd.L, sd.lam
        expected = (L,) + tuple(L - 2 * sum(min(lam[k], lam[j]) for j in range(1, N)) for k in range(1, N))
        assert sd.eta == expected, C
        assert all(type(x) is int for x in (L,) + lam + sd.eta if x.denominator == 1), C
        smooth += sd.smooth
    assert 0 < smooth < 300


@pytest.mark.parametrize("k", [1.5, F(1), True])
def test_conserved_index_must_be_a_non_bool_int(k):
    # before, conserved(s, True) returned H_1 and 1.5 raised TypeError
    with pytest.raises(ValueError, match="k must be an int"):
        conserved(TodaState.make([1, 2], [3, 4]), k)


def test_theta_solution_n2():
    # trajectory (3,4,0,1) -> ... with angle 9, 12, 15, 18, 21 on R/16Z
    C = (0, 3, 8)
    rows = [(3, 4, 0, 1), (3, 1, 0, 4), (1, 0, 2, 5), (0, 2, 3, 3), (0, 5, 3, 0)]
    for t, expect in enumerate(rows):
        st = theta_state((F(9),), C, t)
        assert st.flat() == tuple(map(F, expect))
    # quasi-periodicity in the angle: Z0 and Z0 + 16 give the same states
    assert theta_state((F(9 + 16),), C, 0) == theta_state((F(9),), C, 0)


def test_theta_solution_n3():
    C = (0, 2, 6, 19)
    rows = [
        (2, 1, 0, 9, 4, 3),
        (1, 0, 2, 11, 3, 2),
        (0, 2, 4, 10, 2, 1),
        (1, 5, 4, 8, 1, 0),
        (2, 7, 4, 5, 0, 1),
        (2, 9, 4, 1, 0, 3),
    ]
    # (-1, 8) is the theta-argument class matching the table at t=0; the
    # published angle column uses a different (curve-integral) normalization
    # but advances by the same velocity (2, 2)
    Z0 = (F(-1), F(8))
    for t, expect in enumerate(rows):
        assert theta_state(Z0, C, t).flat() == tuple(map(F, expect))
    sd = spectral_data(C)
    vel = (sd.lam[1], sd.lam[2] - sd.lam[1])
    assert vel == (2, 2)
    # advancing the argument by the velocity equals one time step
    assert theta_state((Z0[0] + 2, Z0[1] + 2), C, 0) == theta_state(Z0, C, 1)
    angles = [(29, -3), (31, -1), (33, 1), (12, -8), (14, -6), (16, -4)]
    for (a1, a2), (b1, b2) in zip(angles, angles[1:]):
        d = (F(b1 - a1 - 2), F(b2 - a2 - 2))
        # consecutive published angles differ by the velocity modulo Omega Z^2
        g = [[F(x) for x in row] for row in sd.Omega.rows]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        s1 = (g[1][1] * d[0] - g[0][1] * d[1]) / det
        s2 = (-g[1][0] * d[0] + g[0][0] * d[1]) / det
        assert s1.denominator == 1 and s2.denominator == 1


def test_theta_solution_satisfies_evolution():
    rng = random.Random(53)
    cases = [((0, 3, 8), 1), ((0, 1, 4, 9), 2), ((0, 2, 6, 19), 2)]
    for C, g in cases:
        for _ in range(4):
            Z0 = tuple(F(rng.randint(-20, 20)) for _ in range(g))
            s = theta_state(Z0, C, 0)
            for t in range(1, 4):
                s = evolve_toda(s)
                assert theta_state(Z0, C, t) == s
            assert conserved_all(s) == tuple(map(F, C))


def test_theta_solution_periodicity_in_n():
    C = (0, 1, 4, 9)
    Z0 = (F(2), F(5))
    N = 3
    for t in (0, 1):
        for n in (1, 2, 3):
            assert theta_solution(Z0, C, t, n) == theta_solution(Z0, C, t, n + N)


def test_theta_solution_requires_smooth():
    with pytest.raises(ValueError):
        theta_solution((F(0), F(0)), (0, 2, 4, 19), 0, 1)


def test_theta_solution_genus_zero():
    # N = 1: Omega is the empty PeriodMatrix, every theta is 0, and the
    # solution is evolve_toda's fixed point (0, L) at every time and site
    for L in (1, 2, 5, 12, F(7, 2)):
        sd = spectral_data((0, L))
        assert sd.smooth and type(sd.Omega) is PeriodMatrix and sd.Omega.rows == ()
        for t in (-3, 0, 1, 4):
            s = theta_state((), (0, L), t)
            assert s == TodaState((0,), (L,)) == evolve_toda(s)
            assert theta_solution((), (0, L), t, 7) == (0, L)


def test_cold_theta_trajectory_eliminates_omega_once(monkeypatch):
    # spectral_data builds the curve's one PeriodMatrix and the theta sites
    # read it, so a trajectory from a cold memo eliminates Omega once
    eliminations, gauss_jordan = [], intmat.gauss_jordan

    def counting(rows):
        eliminations.append(tuple(map(tuple, rows)))
        return gauss_jordan(rows)

    monkeypatch.setattr(intmat, "gauss_jordan", counting)
    troptoda._theta_sites.cache_clear()
    Z0, C = (-1, 8), (0, 2, 6, 19)
    s = theta_state(Z0, C, 0)
    for t in range(1, 5):
        s = evolve_toda(s)
        assert theta_state(Z0, C, t) == s
    assert eliminations == [((34, -11), (-11, 22))]


@pytest.mark.parametrize(
    "build",
    [
        lambda: TodaState.make([0.1], [1]),
        lambda: TodaState.make([True, 0], [3, 4]),
        lambda: spectral_data([0, 2.0, 6, 19]),
        lambda: theta_state((-1.0, 8), (0, 2, 6, 19), 0),
    ],
)
def test_toda_values_reject_floats_and_bools(build):
    with pytest.raises(ValueError, match="must be ints or Fractions"):
        build()


def test_theta_memo_refuses_a_float_or_bool_equal_to_its_key():
    # the one-entry memo compares keys by value, and -1.0 == -1, True == 1:
    # the entries are read exactly before it, so a warm memo refuses them too
    C = (0, 2, 6, 19)
    for good, bad in [((-1, 8), (-1.0, 8)), ((1, 8), (True, 8))]:
        theta_state(good, C, 0)
        for call in (lambda: theta_state(bad, C, 0), lambda: theta_solution(bad, C, 0, 1)):
            with pytest.raises(ValueError, match="must be ints or Fractions"):
                call()
    theta_state((-1, 8), C, 0)
    with pytest.raises(ValueError, match="must be ints or Fractions"):
        theta_state((-1, 8), (0, 2.0, 6, 19), 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: theta_state((-1, 8), (0, 2, 6, 19), F(1, 2)),
        lambda: theta_state((-1, 8), (0, 2, 6, 19), True),
        lambda: theta_state((-1, 8), (0, 2, 6, 19), 0.5),
        lambda: theta_solution((-1, 8), (0, 2, 6, 19), F(2), 1),
        lambda: theta_solution((-1, 8), (0, 2, 6, 19), 0, 1.0),
        lambda: theta_solution((-1, 8), (0, 2, 6, 19), 0, False),
    ],
)
def test_theta_solution_requires_integer_t_and_n(build):
    with pytest.raises(ValueError, match="must be an int"):
        build()


def test_embed_fixture_rows():
    table = [
        ("122211211", (0, 1, 3, 2, 1, 2)),
        ("111122122", (0, 4, 2, 1, 2, 0)),
        ("222111211", (3, 3, 1, 2, 0, 0)),
        ("111222121", (0, 3, 3, 1, 1, 1)),
    ]
    for word, flat in table:
        assert embed_pbbs(word).flat() == tuple(map(F, flat))


def test_embed_commutes_up_to_shift():
    # the t=3 discrepancy: evolving the embedding gives an s-shift of the
    # embedded evolution
    s = TodaState.from_flat((0, 1, 3, 2, 1, 2))
    for _ in range(3):
        s = evolve_toda(s)
    assert s.flat() == tuple(map(F, (3, 1, 1, 1, 0, 3)))
    embedded = embed_pbbs("111222121")
    assert s != embedded
    assert s_equivalent(s, embedded)
    assert shift_s(shift_s(s)) == embedded


def test_shift_s_basics():
    s = TodaState.from_flat((3, 1, 1, 1, 0, 3))
    assert shift_s(s).flat() == tuple(map(F, (1, 1, 0, 3, 3, 1)))
    cur = s
    for _ in range(s.N):
        cur = shift_s(cur)
    assert cur == s
    assert conserved_all(shift_s(s)) == conserved_all(s)


def test_embed_wrapped_run():
    # a ball run over the seam splits into Q_1 and Q_N
    st = embed_pbbs("21112")
    assert st.Q == (1, 1) and st.W == (3, 0)


def test_embed_commutes_mod_shift_random():
    from boxball.pbbs import PeriodicState, evolve_periodic

    rng = random.Random(54)
    for _ in range(25):
        L = rng.randint(6, 14)
        M = rng.randint(1, (L - 1) // 2)
        cells = [2] * M + [1] * (L - M)
        rng.shuffle(cells)
        p = PeriodicState(tuple(cells))
        toda = embed_pbbs(p)
        for _ in range(4):
            p = evolve_periodic(p, None)[0]
            toda = evolve_toda(toda)
            assert s_equivalent(toda, embed_pbbs(p))


def test_omega_f_omegaprime_triple():
    sd = spectral_data((0, 1, 4, 9))
    Omega = [list(r) for r in sd.Omega.rows]
    A = [[1, 0], [1, 1]]
    B = [[1, 1], [0, 1]]

    def matmul(X, Y):
        return [
            [sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]

    Oprime = matmul(matmul(A, Omega), B)
    assert Oprime == [[16, 11], [11, 16]]


@pytest.mark.parametrize("leftmost", [1.5, "2", True])
def test_embed_requires_int_offset(leftmost):
    # before, 1.5 raised TypeError from the slice, "2" a string-formatting
    # TypeError, and True was read as 1
    with pytest.raises(ValueError, match="leftmost must be an int"):
        embed_pbbs("1122..", leftmost)


def test_embed_rejects_bad_cell_characters():
    assert embed_pbbs("1.2221.211") == embed_pbbs("1122211211")
    for bad in ("12x211211", "123", "2a"):
        with pytest.raises(ValueError):
            embed_pbbs(bad)
    # a cell tuple must hold 1s and 2s too; before, the first of these raised IndexError
    # and they must be ints: before, (1, 2.0, 1, 1) returned a state
    for bad in ((1, 3, 3, 1, 1, 2, 1, 1), (1, 0, 2), (1, 2, 1, 2.5), (1, 2.0, 1, 1), (1, True, 2, 1, 1)):
        with pytest.raises(ValueError, match=r"^letters must lie in 1\.\.2, each an int"):
            embed_pbbs(bad)


def test_embed_reads_leftmost_mod_L():
    # before, a leftmost of L or more read as 0: 1122.. at 99 gave the box-0 embedding
    def outcome(word, k):
        try:
            return embed_pbbs(word, leftmost=k)
        except ValueError as exc:
            return str(exc)

    for L in range(1, 11):
        for bits in range(2**L):
            word = "".join("21"[bits >> i & 1] for i in range(L))
            for k in range(L):
                assert outcome(word, k) == outcome(word, k + L) == outcome(word, k - L), (word, k)
    assert embed_pbbs("1122..", leftmost=99) == embed_pbbs("1122..", leftmost=3)


def test_s_equivalent_agrees_with_the_shift_s_loop():
    def by_shifts(a, b):
        cur = a
        for _ in range(a.N):
            if cur == b:
                return True
            cur = shift_s(cur)
        return False

    rng = random.Random(20)
    seen = set()
    for _ in range(400):
        N = rng.randint(1, 5)
        Q = [rng.randint(0, 3) for _ in range(N)]
        W = [q + rng.randint(1, 3) for q in Q]
        a = TodaState.make(Q, W)
        b = a
        for _ in range(rng.randrange(N + 1)):
            b = shift_s(b)
        if rng.random() < 0.5:  # perturb one coordinate, keeping sum(Q) < sum(W)
            j = rng.randrange(N)
            W2 = list(b.W)
            W2[j] += rng.choice((1, F(1, 2)))
            b = TodaState.make(b.Q, W2)
        if rng.random() < 0.2:
            b = TodaState.make(list(b.Q) + [0], list(b.W) + [1])
        seen.add(by_shifts(a, b))
        assert s_equivalent(a, b) == by_shifts(a, b), (a, b)
    assert seen == {False, True}
