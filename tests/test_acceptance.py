"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s); assertion
failure marks the criterion red without stopping the others.
"""

import random
from fractions import Fraction
from itertools import product

from boxball.bbs import (
    BBSState,
    energies,
    evolve,
    scatter_two,
    scatter_two_simulated,
    soliton_content,
)
from boxball.birational import RationalPoint, birational_R, ultradiscretize_R
from boxball.crystal import CrystalElement, TensorElement, comb_R, comb_R_ny
from boxball.intmat import det_int
from boxball.kkr import (
    RiggedConfiguration,
    evolve_rc,
    highest_paths,
    kkr_phi,
    kkr_phi_inv,
)
from boxball.pbbs import (
    ActionVariable,
    AngleVariable,
    PeriodicState,
    action_variable,
    angle_equal,
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
from boxball.tau import StringSet, check_hirota, path_from_tau, rho, tau
from boxball.troptoda import (
    TodaState,
    conserved_all,
    embed_pbbs,
    evolve_toda,
    s_equivalent,
    shift_s,
    spectral_data,
    theta_state as toda_theta_state,
)

F = Fraction


def _report(num, name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:>2}: {name}")
    assert ok, f"criterion {num}: {name}"


def _rand_element(rng, rank, cap):
    counts = [0] * (rank + 1)
    for _ in range(cap):
        counts[rng.randrange(rank + 1)] += 1
    return CrystalElement(rank, tuple(counts))


def test_criterion_01_combinatorial_R_fixture():
    x = CrystalElement.from_word("13347")
    y = CrystalElement.from_word("135", rank=6)
    a = comb_R(x, y)
    b = comb_R_ny(x, y)
    ok = (
        a.left_out.word() == "147"
        and a.right_out.word() == "13335"
        and a.energy == 1
        and (b.left_out, b.right_out, b.energy) == (a.left_out, a.right_out, 1)
    )
    _report(1, "R(13347 x 135) = 147 x 13335 with H = 1, both algorithms", ok)


def test_criterion_02_yang_baxter():
    def r12(t):
        a, b, c = t
        out = comb_R(a, b)
        return (out.left_out, out.right_out, c)

    def r23(t):
        a, b, c = t
        out = comb_R(b, c)
        return (a, out.left_out, out.right_out)

    x = CrystalElement.from_word("223455", rank=5)
    y = CrystalElement.from_word("334", rank=5)
    z = CrystalElement.from_word("6", rank=5)
    lhs = r12(r23(r12((x, y, z))))
    rhs = r23(r12(r23((x, y, z))))
    ok = lhs == rhs and tuple(e.word() for e in lhs) == ("3", "225", "334456")

    rng = random.Random(1002)
    for _ in range(1000):
        rank = rng.randint(1, 4)
        triple = tuple(_rand_element(rng, rank, rng.randint(1, 6)) for _ in range(3))
        if r12(r23(r12(triple))) != r23(r12(r23(triple))):
            ok = False
            break
    _report(2, "Yang-Baxter: worked B_6xB_3xB_1 instance plus 1000 random triples", ok)


def test_criterion_03_energy_table():
    s = BBSState.parse("....................2222..32433...........................", origin=1)
    ok = energies(s, 5) == [3, 6, 8, 9, 9] and soliton_content(s) == {2: 1, 3: 1, 4: 1}
    _report(3, "energies (3,6,8,9,9) and soliton content m_2 = m_3 = m_4 = 1", ok)


def test_criterion_04_scattering():
    rule = scatter_two("554322", "422")
    sim = scatter_two_simulated("554322", "422")
    ok = rule == ("553", "442222", 5) and sim == rule
    _report(4, "[554322]x[422] -> [553]x[442222], delta = 5, rule and simulation", ok)


def test_criterion_05_kkr():
    rc = RiggedConfiguration.make(
        14, 3, [[(4, 0), (3, 2), (2, 3)], [(3, 1), (1, 0)], [(1, 0)]]
    )
    ok = kkr_phi_inv(rc) == "11112221322433" and kkr_phi("11112221322433", 3) == rc
    for rank in (1, 2):
        for L in range(1, 10):
            for word in highest_paths(L, rank):
                if kkr_phi_inv(kkr_phi(word, rank)) != word:
                    ok = False
                    break
    _report(5, "KKR worked example and exhaustive round trip L <= 9, n <= 2", ok)


def test_criterion_06_linearization():
    word = "........2222.....332..43..................................".replace(".", "1")
    rc = kkr_phi(word, 3)
    ok = rc.color(1) == ((2, 15), (3, 10), (4, 4))
    for t in (1, 2, 5):
        if evolve_rc(rc, None, steps=t).color(1) != (
            (2, 15 + 2 * t),
            (3, 10 + 3 * t),
            (4, 4 + 4 * t),
        ):
            ok = False

    rng = random.Random(1006)
    pool2 = [w for w in highest_paths(8, 1)]
    pool3 = [w for w in highest_paths(7, 2)]
    for k in range(500):
        w = rng.choice(pool2 if k % 2 else pool3)
        rank = 1 if k % 2 else 2
        l = rng.randint(1, 5)
        padded = w + "1" * (l + 10)
        before = kkr_phi(padded, rank)
        evolved_word = evolve(BBSState.parse(padded, origin=0), l)[0]
        after = kkr_phi(evolved_word.render(0, len(padded)).replace(".", "1"), rank)
        expect = evolve_rc(before, l)
        if after != expect:
            ok = False
            break
    _report(6, "phi linearizes T_l (500 random states) and the (4+4t,10+3t,15+2t) fixture", ok)


def test_criterion_07_tau():
    ok = True
    for rank in (1, 2):
        for L in range(1, 9):
            for word in highest_paths(L, rank):
                s = StringSet.from_rc(kkr_phi(word, rank))
                for k in range(1, L + 1):
                    for a in range(1, rank + 2):
                        if tau(s, k, a) != rho(word, k, a, 0, rank=rank):
                            ok = False
                if not check_hirota(s):
                    ok = False
                if path_from_tau(s) != word:
                    ok = False
            if not ok:
                break
    _report(7, "tau = rho, Hirota-Miwa, and path_from_tau = phi^{-1} for L <= 8, n <= 2", ok)


PERIODIC_COLUMNS = {
    None: [
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


def test_criterion_08_periodic_goldens():
    ok = True
    for l, rows in PERIODIC_COLUMNS.items():
        s = PeriodicState.parse(rows[0])
        got = [s.render()]
        for _ in rows[1:]:
            s = evolve_periodic(s, l)[0]
            got.append(s.render())
        if got != rows:
            ok = False
    _report(8, "all three columns of the periodic evolution block, byte-identical", ok)


def test_criterion_09_periodic_ivp():
    p = PeriodicState.parse("2211221112122111221")
    via_angles = inverse_scattering(evolve_angle(direct_scattering(p), 3, steps=5))
    direct = p
    for _ in range(5):
        direct = evolve_periodic(direct, 3)[0]
    ok = via_angles.word() == "1221112211211221122" and direct == via_angles
    _report(9, "T_3^5 of the L=19 state via angle variables and directly", ok)


def test_criterion_10_theta_state_equivalence():
    from boxball.intmat import reduce_mod_lattice

    ok = True
    for L, parts in [(9, (3, 1)), (10, (3, 1)), (12, (4, 2))]:
        mu = ActionVariable(L, parts)
        Fm = mu.F()
        cols = [[Fm[i][j] for i in range(2)] for j in range(2)]
        classes = set()
        for j1 in range(Fm[0][0]):
            for j2 in range(Fm[1][1]):
                classes.add(reduce_mod_lattice([j1, j2], cols))
                ts = periodic_theta_state((j1, j2), mu)
                iv = inverse_scattering(AngleVariable(mu, ((j1,), (j2,))))
                if ts != iv:
                    ok = False
        # the scanned box covers the entire quotient Z^g / F Z^g
        ok = ok and len(classes) == det_int(Fm) == isolevel_cardinality(mu)
        if not ok:
            break
    _report(10, "theta_state = Phi^{-1} on every angle class for three isolevel sets", ok)


def _orbit_length(p, l):
    s = evolve_periodic(p, l)[0]
    n = 1
    while s != p:
        s = evolve_periodic(s, l)[0]
        n += 1
        assert n < 100000
    return n


def test_criterion_11_fundamental_periods():
    p, pt = PeriodicState.parse("1212111222"), PeriodicState.parse("1211121222")
    ok = [fundamental_period(p, l) for l in (1, 2, 3)] == [10, 20, 2]
    ok = ok and [fundamental_period(pt, l) for l in (1, 2, 3)] == [10, 10, 2]
    ok = ok and _orbit_length(p, 2) == 20 and _orbit_length(pt, 2) == 10
    from itertools import combinations

    for L in range(3, 13):
        for M in range(1, (L - 1) // 2 + 1):
            for pos in combinations(range(L), M):
                cells = [1] * L
                for b in pos:
                    cells[b] = 2
                q = PeriodicState(tuple(cells))
                for l in (1, 2, 3):
                    if fundamental_period(q, l) != _orbit_length(q, l):
                        ok = False
    _report(11, "fundamental periods: fixtures and exhaustive formula-vs-orbit, L <= 12", ok)


def test_criterion_12_counting_and_decomposition():
    mu6 = ActionVariable(6, (2, 1))
    ok = isolevel_cardinality(mu6) == 12 and len(enumerate_isolevel(mu6)) == 12

    mu24 = ActionVariable(24, (3, 2, 2, 1, 1, 1))
    rows = torus_decomposition(mu24)  # internal assert: sum mult det F_gamma = |P|
    mults = {g: m for g, m, _ in rows}
    ok = ok and mults == {(1, 1, 1): 90, (1, 2, 1): 30, (3, 1, 1): 3, (3, 2, 1): 1}
    total = sum(m * det_int(Fg) for _, m, Fg in rows)
    ok = ok and total == isolevel_cardinality(mu24)
    _report(12, "|P_6((2,1))| = 12 both ways; L = 24 multiplicities (90, 30, 3, 1)", ok)


def test_criterion_13_toda_fixtures():
    rows2 = [(3, 4, 0, 1), (3, 1, 0, 4), (1, 0, 2, 5), (0, 2, 3, 3), (0, 5, 3, 0)]
    ok = True
    s = TodaState.from_flat(rows2[0])
    for t, expect in enumerate(rows2):
        if toda_theta_state((F(9 + 3 * t),), (0, 3, 8), 0) != TodaState.from_flat(expect):
            ok = False
        if s.flat() != tuple(map(F, expect)):
            ok = False
        s = evolve_toda(s)
    # angle column 9, 12, 15, 18, 21 advances by 3 on R/16Z
    sd = spectral_data((0, 3, 8))
    ok = ok and sd.Omega.rows == ((16,),) and sd.lam[1] == 3

    sd3 = spectral_data((0, 2, 6, 19))
    ok = ok and sd3.Omega.rows == ((34, -11), (-11, 22))
    ok = ok and (sd3.lam[1], sd3.lam[2] - sd3.lam[1]) == (2, 2)

    rng = random.Random(1013)
    for _ in range(100):
        N = rng.randint(2, 6)
        while True:
            Q = [F(rng.randint(0, 9)) for _ in range(N)]
            W = [F(rng.randint(0, 9)) for _ in range(N)]
            if sum(Q) < sum(W):
                break
        st = TodaState(tuple(Q), tuple(W))
        C = conserved_all(st)
        for _ in range(50):
            st = evolve_toda(st)
        if conserved_all(st) != C:
            ok = False
            break
    _report(13, "Toda: N = 2 and N = 3 fixtures; 50-step invariance on 100 random states", ok)


def test_criterion_14_embedding():
    table = [
        ("122211211", (0, 1, 3, 2, 1, 2)),
        ("111122122", (0, 4, 2, 1, 2, 0)),
        ("222111211", (3, 3, 1, 2, 0, 0)),
        ("111222121", (0, 3, 3, 1, 1, 1)),
    ]
    ok = all(embed_pbbs(w).flat() == tuple(map(F, flat)) for w, flat in table)

    # BBS evolution vs Toda evolution: s-shift discrepancy at t = 3
    p = PeriodicState.parse(table[0][0])
    toda = embed_pbbs(p)
    for t in range(1, 4):
        p = evolve_periodic(p, None)[0]
        toda = evolve_toda(toda)
        if t < 3:
            ok = ok and toda == embed_pbbs(p)
    ok = ok and p.word() == "111222121"
    ok = ok and toda.flat() == tuple(map(F, (3, 1, 1, 1, 0, 3)))
    ok = ok and toda != embed_pbbs(p) and s_equivalent(toda, embed_pbbs(p))
    ok = ok and shift_s(shift_s(toda)) == embed_pbbs(p)

    sd = spectral_data((0, 1, 4, 9))
    ok = ok and sd.Omega.rows == ((16, -5), (-5, 10))
    mu = ActionVariable(9, (3, 1))
    ok = ok and mu.F() == [[7, 2], [2, 7]]
    A, B = [[1, 0], [1, 1]], [[1, 1], [0, 1]]

    def mm(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

    ok = ok and mm(mm(A, [list(r) for r in sd.Omega.rows]), B) == [[16, 11], [11, 16]]
    _report(14, "periodic embedding table with the t = 3 s-shift; Omega/F/Omega' triple", ok)


def test_criterion_15_birational():
    rng = random.Random(1015)

    def rand_point(rank):
        return RationalPoint(
            rank,
            tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rank + 1)),
        )

    ok = True
    for _ in range(200):
        rank = rng.randint(1, 3)
        x, y, z = (rand_point(rank) for _ in range(3))
        yt, xt = birational_R(x, y)
        if birational_R(yt, xt) != (x, y):
            ok = False

        def r12(t):
            a, b, c = t
            u, v = birational_R(a, b)
            return (u, v, c)

        def r23(t):
            a, b, c = t
            u, v = birational_R(b, c)
            return (a, u, v)

        if r12(r23(r12((x, y, z)))) != r23(r12(r23((x, y, z)))):
            ok = False

    def comps(total, slots):
        if slots == 1:
            yield (total,)
            return
        for c in range(total + 1):
            for rest in comps(total - c, slots - 1):
                yield (c,) + rest

    for rank in (1, 2, 3):
        for l, lp in product(range(1, 5), repeat=2):
            for xc in comps(l, rank + 1):
                for yc in comps(lp, rank + 1):
                    out = comb_R(CrystalElement(rank, xc), CrystalElement(rank, yc))
                    Yt, Xt = ultradiscretize_R(xc, yc)
                    if Yt != out.left_out.counts or Xt != out.right_out.counts:
                        ok = False
        if not ok:
            break
    _report(15, "birational R: YB/inversion on 200 triples; ultradiscretization = comb_R", ok)
