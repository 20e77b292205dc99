"""Static checks on the source tree: no dead imports, no duplicate
function bodies, no oracle calls in the library outside ``verify`` and
no diagram geometry derived outside ``fillings``, every exported name
is used somewhere, and every property suite is run by some test."""
import ast
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


def _suites_named_in(path: Path) -> set[str]:
    # suite names passed to check_suite(...) or listed in a parametrize(...)
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if callee in ("check_suite", "parametrize"):
            for arg in node.args:
                names.update(
                    n.value for n in ast.walk(arg)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                )
    return names


def test_every_suite_is_run_by_a_test():
    named = set().union(*(_suites_named_in(p) for p in TESTS.glob("test_*.py")))
    assert set(SUITES) <= named, sorted(set(SUITES) - named)
