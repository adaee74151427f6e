"""Span tracing for the benchmark's traced run.

install() replaces the public functions of each boxball layer, including the
names other boxball modules imported, with wrappers that record one span per
call: layer name, start and end (CPU seconds), parent span, problem index and
a size computed from the arguments.  Spans stay in memory; layer_table()
reduces them at the end of the run.  A layer's self time is its spans' duration minus the time
covered by their child spans.  No file of the library changes.
"""

from __future__ import annotations

import contextlib
import functools
import math
from time import process_time


def _letters(word, *args, **kwargs) -> int:
    return len(word)


def _rc_length(rc, *args, **kwargs) -> int:
    return rc.L


def _cells(state, *args, **kwargs) -> int:
    return len(state.cells)


def _table_subsets(s, *args, **kwargs) -> int:
    return 2 ** len(s.strings)


def _orbit_candidates(J, *args, **kwargs) -> int:
    return math.prod(J.mu.m(i) for i in J.mu.I)


def _conserved_subsets(s, k, *args, **kwargs) -> int:
    return math.comb(2 * s.N, k) if k <= s.N else 0


# (module, attribute, layer, size).  size computes the work a call covers
# from its arguments; those counts are labelled "computed" in the output.
TARGETS = [
    ("kkr", "kkr_phi", "kkr.phi", _letters),
    ("pbbs", "kkr_phi", "kkr.phi", _letters),
    ("kkr", "kkr_phi_inv", "kkr.phi_inv", _rc_length),
    ("pbbs", "kkr_phi_inv", "kkr.phi_inv", _rc_length),
    ("kkr", "solve_ivp", "kkr.solve_ivp", None),
    ("kkr", "evolve_rc", "kkr.evolve_rc", None),
    ("bbs", "evolve", "bbs.evolve", _cells),
    ("bbs", "evolve_takahashi", "bbs.evolve_takahashi", None),
    ("tau", "evolve_takahashi", "bbs.evolve_takahashi", None),
    ("tau", "tau_table", "tau.tau_table", _table_subsets),
    # check_hirota builds the table of the T_inf-evolved set, as large as s's
    ("tau", "check_hirota", "tau.check_hirota", _table_subsets),
    ("tau", "path_from_tau", "tau.path_from_tau", None),
    ("pbbs", "direct_scattering", "pbbs.direct_scattering", None),
    ("pbbs", "inverse_scattering", "pbbs.inverse_scattering", _orbit_candidates),
    ("pbbs", "canonicalize", "pbbs.canonicalize", _orbit_candidates),
    ("pbbs", "angle_equal", "pbbs.angle_equal", None),
    ("pbbs", "evolve_angle", "pbbs.evolve_angle", None),
    ("pbbs", "action_variable", "pbbs.action_variable", None),
    ("pbbs", "internal_symmetry", "pbbs.internal_symmetry", None),
    ("pbbs", "fundamental_period", "pbbs.fundamental_period", None),
    ("pbbs", "evolve_periodic", "pbbs.evolve_periodic", _cells),
    ("intmat", "det_int", "intmat.det_int", None),
    ("pbbs", "det_int", "intmat.det_int", None),
    ("intmat", "reduce_mod_lattice", "intmat.reduce_mod_lattice", None),
    ("pbbs", "reduce_mod_lattice", "intmat.reduce_mod_lattice", None),
    ("theta", "theta", "theta.theta", None),
    ("pbbs", "theta", "theta.theta", None),
    ("troptoda", "theta", "theta.theta", None),
    ("theta", "theta_argmin", "theta.theta_argmin", None),
    ("troptoda", "theta_solution", "troptoda.theta_solution", None),
    ("troptoda", "theta_state", "troptoda.theta_state", None),
    ("troptoda", "spectral_data", "troptoda.spectral_data", None),
    ("troptoda", "conserved", "troptoda.conserved", _conserved_subsets),
    ("troptoda", "conserved_all", "troptoda.conserved_all", None),
    ("troptoda", "evolve_toda", "troptoda.evolve_toda", None),
    ("troptoda", "embed_pbbs", "troptoda.embed_pbbs", None),
    ("troptoda", "s_equivalent", "troptoda.s_equivalent", None),
]

PROBLEM = "problem"


class Tracer:
    """Records spans in memory; one root span per problem."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent, problem, size]
        self._stack: list[int] = []
        self._paused = False
        self._problem = -1

    def _open(self, layer: str, size: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [layer, 0.0, 0.0, parent, self._problem, size]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = process_time()
        self._stack.pop()

    @contextlib.contextmanager
    def problem(self, index: int):
        """Root span of one problem; every layer span inside shares its index."""
        self._problem = index
        span = self._open(PROBLEM, 0)
        span[1] = process_time()
        try:
            yield
        finally:
            self._close(span)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark generates inputs."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, layer: str, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = self._open(layer, size(*args, **kwargs) if size else 0)
            span[1] = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, layer, size in TARGETS:
            module = importlib.import_module(f"boxball.{module_name}")
            setattr(module, attr, self.wrap(layer, getattr(module, attr), size))


GROWTH_LAYERS = ("kkr.phi", "kkr.phi_inv")


def layer_table(spans: list[list]) -> dict[str, dict]:
    """Per layer: calls, self and total seconds, summed size, calls by parent
    layer, and for GROWTH_LAYERS the fitted growth exponent of self time in size."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict] = {}
    points: dict[str, list] = {layer: [] for layer in GROWTH_LAYERS}
    for i, (layer, start, end, parent, _, size) in enumerate(spans):
        row = table.setdefault(
            layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0, "parents": {}}
        )
        self_s = end - start - covered[i]
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += end - start
        row["size"] += size
        parent_layer = spans[parent][0] if parent >= 0 else ""
        row["parents"][parent_layer] = row["parents"].get(parent_layer, 0) + 1
        if layer in points:
            points[layer].append((size, self_s))
    for layer, pts in points.items():
        if layer in table:
            table[layer]["growth_exp"] = growth_exponent(pts)
    return table


def growth_exponent(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log(self time) on log(size); None without two sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
