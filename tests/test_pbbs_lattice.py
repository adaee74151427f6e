"""The lattice data of an action variable: F is one intmat.Lattice built once
per ActionVariable, whose elimination and Hermite form are built once, as is
the Hermite form of Lambda (class equality reads the elimination, so no
Hermite form of an F_gamma is built; the theta formula reads the same
elimination), and reading them from a shared instance gives the same values
as fresh, equal instances."""

import random

from boxball import intmat, pbbs
from boxball.pbbs import (
    ActionVariable,
    AngleVariable,
    PeriodicState,
    angle_equal,
    canonicalize,
    direct_scattering,
    evolve_angle,
    fundamental_period,
    internal_symmetry,
    inverse_scattering,
    isolevel_cardinality,
    periodic_theta_state,
    torus_decomposition,
)


def _prime_factors(n):
    return [r for r in range(2, n + 1) if n % r == 0 and all(r % d for d in range(2, r))]


def _problem(p, l, t):
    """One periodic problem as the benchmark poses it: the IVP by scattering,
    the fundamental period N, and angle_equal at N and at N / r for each prime r."""
    J = direct_scattering(p)
    inverse_scattering(evolve_angle(J, l, t))
    N = fundamental_period(p, l)
    return [angle_equal(evolve_angle(J, l, n), J) for n in [N] + [N // r for r in _prime_factors(N)]]


def _counting(record, fn):
    def wrapped(arg):
        record.append(tuple(map(tuple, arg)))
        return fn(arg)

    return wrapped


def _count_eliminations(monkeypatch) -> list:
    # intmat is the only module that calls gauss_jordan (tests/test_source.py)
    eliminations = []
    monkeypatch.setattr(intmat, "gauss_jordan", _counting(eliminations, intmat.gauss_jordan))
    return eliminations


def test_one_lattice_context_per_problem(monkeypatch):
    F_builds, hnf_inputs = [], []
    build_F = ActionVariable.F

    def counting_F(self, gamma=None):
        if gamma is None or all(gam == 1 for gam in gamma):
            F_builds.append(self)
        return build_F(self, gamma)

    monkeypatch.setattr(ActionVariable, "F", counting_F)
    eliminations = _count_eliminations(monkeypatch)
    hnf = _counting(hnf_inputs, intmat.column_hnf)
    monkeypatch.setattr(pbbs, "column_hnf", hnf)
    monkeypatch.setattr(intmat, "column_hnf", hnf)

    rng = random.Random(15)
    states = [PeriodicState.parse("1211121222"), PeriodicState.parse("121122111212211222121111")]
    for _ in range(12):
        L = rng.randint(20, 36)
        cells = [2] * (L // 3) + [1] * (L - L // 3)
        rng.shuffle(cells)
        states.append(PeriodicState(tuple(cells)))
    symmetric = 0
    for k, p in enumerate(states):
        gamma = internal_symmetry(p)
        symmetric += gamma != (1,) * len(gamma)
        for record in (F_builds, eliminations, hnf_inputs):
            record.clear()
        periods = _problem(p, (1, 2, 3, None)[k % 4], 1 + k % 6)
        assert periods[0] and not any(periods[1:]), p
        assert len(F_builds) == 1 and len(eliminations) == 1, p
        # at most the forms of F and Lambda, each once, whatever gamma is
        assert len(hnf_inputs) == len(set(hnf_inputs)) <= 2, p
        mu = p._scattered.mu
        e = mu.lattice.elimination
        assert type(e.pivots) is tuple
        for matrix in (mu.lattice.rows, mu.lattice.A, e.piv, e.adj, mu.lattice.hnf, mu._hnf_lambda):
            assert type(matrix) is tuple and all(type(row) is tuple for row in matrix)
    assert symmetric >= 2  # the gamma != 1 class test was exercised


def test_theta_formula_reads_the_one_elimination_of_F(monkeypatch):
    # the theta formula hands mu's own Lattice to theta, so the theta states,
    # inverse scattering, class equality and the isolevel count of one mu
    # eliminate F once
    eliminations = _count_eliminations(monkeypatch)
    for L, parts in [(9, (3, 1)), (15, (4, 2, 1)), (22, (4, 3, 2, 1))]:
        eliminations.clear()
        mu = ActionVariable(L, parts)
        for Jvec in [(0,) * mu.g, tuple(range(1, mu.g + 1))]:
            J = AngleVariable(mu, tuple((j,) for j in Jvec))
            assert periodic_theta_state(Jvec, mu) == inverse_scattering(J)
            assert angle_equal(evolve_angle(J, 1, isolevel_cardinality(mu)), evolve_angle(J, 1, 0))
        assert isolevel_cardinality(mu) == mu.lattice.elimination.det
        assert eliminations == [mu.lattice.rows], (L, parts)


def _fresh(J):
    return AngleVariable(ActionVariable(J.mu.L, J.mu.parts), J.windows)


def test_shared_action_variable_matches_fresh_instances(monkeypatch):
    # many states per action variable, so one shared context serves all of them
    rng = random.Random(36)
    shared, seen = {}, {}
    for _ in range(150):
        L = rng.choice((9, 12, 18, 24, 30, 36))
        cells = [2] * (L // 3) + [1] * (L - L // 3)
        rng.shuffle(cells)
        p = PeriodicState(tuple(cells))
        raw = pbbs._scatter(p)
        key = (raw.mu.L, raw.mu.parts)
        mu = shared.setdefault(key, ActionVariable(*key))
        J_shared = canonicalize(AngleVariable(mu, raw.windows))
        J = direct_scattering(p)
        assert J_shared == J and J_shared.mu is mu
        l, t = rng.choice((1, 2, 3, None)), rng.randint(1, 6)
        assert inverse_scattering(evolve_angle(J_shared, l, t)) == inverse_scattering(
            evolve_angle(_fresh(J), l, t)
        )
        for l in (1, 2, 3, None):
            # fresh equal states scatter anew: one on its own, one onto the shared mu
            N = fundamental_period(PeriodicState(p.cells), l)
            with monkeypatch.context() as m:
                m.setattr(pbbs, "_scatter", lambda q: AngleVariable(mu, raw.windows))
                assert fundamental_period(PeriodicState(p.cells), l) == N
            for n in [N] + [N // r for r in _prime_factors(N)]:
                assert angle_equal(evolve_angle(J_shared, l, n), J_shared) == angle_equal(
                    evolve_angle(_fresh(J), l, n), _fresh(J)
                )
        for other in seen.get(key, [])[-3:]:
            assert angle_equal(J_shared, other) == angle_equal(_fresh(J), _fresh(other))
        seen.setdefault(key, []).append(J_shared)
    assert max(map(len, seen.values())) >= 5
    for (L, parts), mu in shared.items():
        assert isolevel_cardinality(mu) == isolevel_cardinality(ActionVariable(L, parts))
        assert torus_decomposition(mu) == torus_decomposition(ActionVariable(L, parts))
