"""Source-level checks on the library package and the names the benchmark traces."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import boxball

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def test_library_holds_no_assert():
    # python -O strips assert statements, so library checks must raise instead
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_library_holds_no_module_level_container():
    # a memo lives on the object it describes or in a functools cache, never
    # in a module-level dict, list or set that outlives every caller
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.value
                if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                    container = value.func.id in ("dict", "list", "set")
                else:
                    container = isinstance(value, containers)
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if container and names != ["__all__"]:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_one_functools_memo_the_toda_sites():
    # a value is cached on the data it describes; the one functools memo is
    # _theta_sites' single entry, the last trajectory's sites
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                f = dec.func if isinstance(dec, ast.Call) else dec
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ("lru_cache", "cache"):
                    args = [ast.unparse(a) for a in getattr(dec, "args", [])]
                    args += [ast.unparse(k) for k in getattr(dec, "keywords", [])]
                    found.append(f"{path.stem}.{node.name} {name}({', '.join(args)})")
    assert found == ["troptoda._theta_sites lru_cache(maxsize=1)"], found


def test_only_bbs_raises_the_word_and_capacity_errors():
    # bbs owns the one-character word form, the letter rule and the carrier
    # capacity; every other module calls encode_word, letters and capacity
    # instead of raising its own copy
    phrases = ("above 9", "one-character", "capacity l", "letters must lie in 1..")
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        if path.name == "bbs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                strings = [c.value for c in ast.walk(node) if isinstance(c, ast.Constant)]
                text = " ".join(x for x in strings if isinstance(x, str))
                if any(phrase in text for phrase in phrases):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_only_intmat_reads_exact_numbers():
    # intmat owns the exact-number rule (is_int, require_int, exact); no other
    # module imports numbers.Rational or raises these errors itself
    phrases = ("must be ints or Fractions", "must be an int")
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        if path.name == "intmat.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "numbers":
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Raise):
                strings = [c.value for c in ast.walk(node) if isinstance(c, ast.Constant)]
                text = " ".join(x for x in strings if isinstance(x, str))
                if any(phrase in text for phrase in phrases):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_library_imports_no_random():
    # randomized checks live in the tests; a library routine that takes an rng
    # (crystal.comb_R_ny) is handed one by its caller
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import) and any(a.name == "random" for a in node.names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_only_crystal_raises_the_rank_error():
    # crystal owns the rank rule (require_rank); no other module raises it itself
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        if path.name == "crystal.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                strings = [c.value for c in ast.walk(node) if isinstance(c, ast.Constant)]
                text = " ".join(x for x in strings if isinstance(x, str))
                if "rank must be >= 1" in text:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_only_bbs_calls_the_ball_moving_oracles():
    # evolve_takahashi and scatter_two_simulated are bbs's independent second
    # algorithms, kept for tests; no working path of another module runs them
    oracles = {"evolve_takahashi", "scatter_two_simulated"}
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        if path.name == "bbs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in oracles:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_module_builds_another_modules_trusted_state():
    # intmat.trusted(X, ...) skips the checks of class X, so only the module
    # that defines X, and can vouch for the fields, calls it; and it calls it
    # by that name, so no alias hides a call from this check
    found, calls = [], 0
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        own = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)} | {"cls"}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.name == "trusted" and node.asname:
                found.append(f"{path.name}: trusted imported as {node.asname}")
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) != "trusted":
                    continue
                calls += 1
                owner = node.args[0] if node.args else None
                if not (isinstance(owner, ast.Name) and owner.id in own):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert calls and not found, found


def test_only_intmat_eliminates():
    # intmat.Lattice owns the one gauss_jordan of a period matrix (F, a theta
    # form, Omega); no other module imports or calls it, so no second
    # elimination of the same matrix can be forked off it
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        if path.name == "intmat.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.alias) and node.name == "gauss_jordan":
                found.append(f"{path.name}:{node.lineno} imports gauss_jordan")
            elif isinstance(node, (ast.Name, ast.Attribute)) and "gauss_jordan" in (
                getattr(node, "id", None),
                getattr(node, "attr", None),
            ):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_only_spectral_data_builds_a_period_matrix():
    # the Toda curve's Omega is built once, as SpectralData.Omega: outside
    # troptoda.spectral_data no library code names PeriodMatrix, or an alias
    # of it, but in an annotation, so none builds, subclasses or hands it on
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {"PeriodMatrix"} | {
            node.asname or node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.alias) and node.name == "PeriodMatrix"
        }
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) == ("troptoda", "spectral_data"):
                skip.update(map(id, ast.walk(node)))
            for annotation in (getattr(node, "returns", None), getattr(node, "annotation", None)):
                if annotation is not None:
                    skip.update(map(id, ast.walk(annotation)))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in names and id(node) not in skip:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_no_class_keeps_a_second_name_for_its_constructor():
    # a classmethod whose whole body is return cls(<its own parameters>) is the
    # constructor under another name; a Lattice (F, a theta form, Omega) has
    # only its constructor, and TodaState.make stays for the benchmark's
    # problem builders, which call it
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for f in cls.body:
                if not isinstance(f, ast.FunctionDef) or "classmethod" not in map(ast.unparse, f.decorator_list):
                    continue
                body = [s for s in f.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
                params = ", ".join(a.arg for a in f.args.args[1:])
                if len(body) == 1 and isinstance(body[0], ast.Return) and ast.unparse(body[0].value) == f"cls({params})":
                    found.append(f"{path.stem}.{cls.name}.{f.name}")
    assert found == ["troptoda.TodaState.make"], found


def test_only_intmat_builds_objects_unchecked():
    # object.__new__ with a __dict__ update is the build past a class's checks;
    # intmat.trusted is its one copy, and no class keeps a _trusted of its own
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_trusted":
                found.append(f"{path.name}:{node.lineno} def _trusted")
            elif path.name != "intmat.py" and isinstance(node, ast.Attribute) and (
                node.attr == "__new__" and isinstance(node.value, ast.Name) and node.value.id == "object"
                or node.attr == "update" and getattr(node.value, "attr", None) == "__dict__"
            ):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def test_toda_and_theta_hold_no_true_division_or_float():
    # plain ints flow through these modules, where int / int gives a float;
    # exact division goes through Fraction or divmod
    found = []
    for name in ("troptoda.py", "theta.py"):
        path = Path(boxball.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
                or (isinstance(node, ast.Constant) and isinstance(node.value, float))
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
            ):
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_acceptance_suite_under_optimize():
    # python -O strips assert statements from the library, not the test
    # module's (pytest rewrites those), so every criterion still checks
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", str(ACCEPTANCE)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    criteria = len(re.findall(r"^def test_criterion_", ACCEPTANCE.read_text(), re.M))
    assert criteria and f"{criteria} passed" in run.stdout, run.stdout[-3000:]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_helper_has_a_library_caller():
    # every intmat function and every private function of the library is
    # called or referenced by library code outside its own body, so no helper
    # lives on for the tests alone; a name the benchmark traces may stand apart
    traced = {(module, attr) for module, attr, _, _ in load_spans().TARGETS}
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(Path(boxball.__file__).parent.glob("*.py"))
    }
    helpers = [
        (stem, node)
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and (stem == "intmat" or node.name.startswith("_"))
    ]
    found = []
    for stem, helper in helpers:
        own = set(map(id, ast.walk(helper))) - set(map(id, helper.decorator_list))
        used = any(
            id(node) not in own
            and helper.name in (getattr(node, "id", None), getattr(node, "attr", None))
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        )
        if not used and (stem, helper.name) not in traced:
            found.append(f"{stem}.{helper.name}")
    assert helpers and not found, found


def test_every_traced_name_resolves():
    # the traced benchmark run wraps these module attributes; a rename breaks it
    spans = load_spans()
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"boxball.{module}"), attr, None))
    ]
    assert spans.TARGETS and not missing, missing
