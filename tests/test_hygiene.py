"""Static checks on the source tree: no dead imports, no duplicate
function bodies, no oracle calls in the library outside ``verify`` and
no diagram geometry derived outside ``fillings``, every exported name
is used somewhere, and every property suite is run by some test, each
(suite, bounds) pair by exactly one."""
import ast
import inspect
from collections import defaultdict
from pathlib import Path

from qschur.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "qschur"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "AugmentedFilling"
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_library_has_no_unused_imports():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in LIBRARY.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, unused


# bodies this small (a return of one call, a delegation) may repeat
_MIN_BODY_NODES = 15


def _function_bodies(path: Path):
    """(dump, location) of every function or method body in the file, its
    docstring dropped, for bodies of at least _MIN_BODY_NODES nodes."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if sum(1 for stmt in body for _ in ast.walk(stmt)) < _MIN_BODY_NODES:
            continue
        yield "".join(ast.dump(stmt) for stmt in body), f"{path.name}:{node.lineno} {node.name}"


def test_library_has_no_duplicate_function_bodies():
    places = defaultdict(list)
    for path in sorted(LIBRARY.glob("*.py")):
        for dump, where in _function_bodies(path):
            places[dump].append(where)
    duplicates = [where for where in places.values() if len(where) > 1]
    assert not duplicates, duplicates


def _calls(path: Path) -> list[tuple[str, str]]:
    """(place, name) of every call in the file to a named function."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            calls.append((f"{path.name}:{node.lineno}", name))
    return calls


def test_only_verify_calls_oracles():
    # brute-force oracles referee the library; no library path runs one
    modules = sorted(p for p in LIBRARY.glob("*.py") if p.name != "verify.py")
    assert modules
    calls = [
        f"{place} {name}" for path in modules for place, name in _calls(path)
        if name.endswith("_oracle")
    ]
    assert not calls, calls


def test_only_fillings_derives_the_diagram_geometry():
    # every other module reads legs, arms, attacks and triples from the
    # table fillings.py builds once per shape
    geometry = {"leg", "arm", "attack_pairs", "triples"}
    modules = sorted(p for p in LIBRARY.glob("*.py") if p.name != "fillings.py")
    assert modules
    calls = [f"{place} {name}" for path in modules for place, name in _calls(path) if name in geometry]
    assert not calls, calls


def _names_used_in(path: Path) -> set[str]:
    """Names read in the file, bare or as an attribute (``Q.name``)."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_export_is_used():
    # an export nothing calls is dead code kept alive by __init__.py
    init = ast.parse((LIBRARY / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    users = [p for p in LIBRARY.glob("*.py") if p.name != "__init__.py"]
    users += [*TESTS.glob("*.py"), *PERFBENCH.rglob("*.py")]
    used = set().union(*map(_names_used_in, users))
    assert exported
    assert exported <= used, sorted(exported - used)


def _suite_runs(path: Path):
    """(suite, bounds, place) of every check_suite call in the file's
    test functions, the bounds completed with the suite's defaults.  A
    suite named by a parametrized argument is run once per listed value."""
    for func in ast.parse(path.read_text()).body:
        if not isinstance(func, ast.FunctionDef):
            continue
        parametrized = {
            ast.literal_eval(dec.args[0]): dec.args[1]
            for dec in func.decorator_list
            if isinstance(dec, ast.Call) and getattr(dec.func, "attr", None) == "parametrize"
        }
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_suite"):
                continue
            first = node.args[0]
            if isinstance(first, ast.Name):
                names = ast.literal_eval(parametrized[first.id])
            else:
                names = [ast.literal_eval(first)]
            bounds = {kw.arg: ast.literal_eval(kw.value) for kw in node.keywords}
            for name in names:
                bound = inspect.signature(SUITES[name]).bind(**bounds)
                bound.apply_defaults()
                yield name, tuple(bound.arguments.items()), f"{path.name}:{node.lineno}"


def _all_suite_runs():
    return [run for path in sorted(TESTS.glob("test_*.py")) for run in _suite_runs(path)]


def test_every_suite_is_run_by_a_test():
    named = {name for name, _, _ in _all_suite_runs()}
    assert set(SUITES) <= named, sorted(set(SUITES) - named)


def test_each_suite_run_is_made_once():
    # a second call with the same suite and bounds checks the same cases again
    places = defaultdict(list)
    for name, bounds, where in _all_suite_runs():
        places[name, bounds].append(where)
    repeated = {run: where for run, where in places.items() if len(where) > 1}
    assert not repeated, repeated
