"""Static checks on the source tree: no dead imports, no duplicate
function bodies, no oracle calls in the library outside ``verify``, no
diagram geometry derived and no packed filling weight read outside
``fillings``, every exported name is used somewhere, every private
module-level helper is read by the library, only the listed functions
are cached, only the two string parsers call ``int``, and every
property suite is run by some test, each (suite, bounds) pair by exactly
one, and every name README.md quotes is found in the code."""
import ast
import inspect
import re
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


def test_only_fillings_reads_the_packed_filling_weight():
    # the walk's packed layout is encoded and decoded in fillings.py
    # alone; every other module takes weighed terms from fillings._terms
    layout = {"_walk", "_counts", "_weigh", "_cell_factors", "_one_minus_t_power"}
    modules = sorted(p for p in LIBRARY.glob("*.py") if p.name != "fillings.py")
    assert modules
    calls = [f"{place} {name}" for path in modules for place, name in _calls(path) if name in layout]
    assert not calls, calls


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names_in(path: Path) -> set[str]:
    """Every name the file defines or reads: variables, attributes,
    definitions, arguments, keywords, imports, and the string constants
    that are whole identifiers (suite names, verbs, variables of the
    environment)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."), [node.asname] if node.asname else [])
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
        elif isinstance(node, ast.Constant) and (
                node.value is None or isinstance(node.value, bool)
                or isinstance(node.value, str) and _IDENTIFIER.fullmatch(node.value)):
            names.add(str(node.value))
    return names


def test_readme_names_exist():
    # every backticked identifier or dotted name in README.md is defined
    # or read somewhere in the code, or names one of its files, so a
    # helper that goes takes its mentions with it; a name qualified by a
    # library module or class must be found in that module
    files = [*LIBRARY.glob("*.py"), *TESTS.glob("*.py"), *PERFBENCH.rglob("*.py")]
    names = {path: _names_in(path) for path in files}
    known = set().union(*names.values()) | {path.name for path in files}
    owners = {}
    for path in LIBRARY.glob("*.py"):
        owners[path.stem] = names[path]
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                owners[node.name] = names[path]
    mentioned = {m for m in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
                 if _IDENTIFIER.fullmatch(m)}
    assert mentioned
    stale = []
    for m in sorted(mentioned):
        head, *rest = m.split(".")
        if m not in known and not (head in known and set(rest) <= owners.get(head, known)):
            stale.append(m)
    assert not stale, stale


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


def test_every_private_helper_is_used():
    # a module-level _name function or class that no other library line
    # reads is dead code, or a helper kept alive only by the tests; a
    # reference inside its own body (a recursion) does not count
    defined = {}  # name -> (module, first line, last line)
    read = defaultdict(list)  # name -> (module, line) of each read
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                defined[node.name] = (path.name, node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                read[name].append((path.name, node.lineno))
    assert defined
    dead = sorted(
        f"{module}:{first} {name}" for name, (module, first, last) in defined.items()
        if not any(m != module or not first <= line <= last for m, line in read[name])
    )
    assert not dead, dead


# every cached function of the library, with the reason it is cached; the
# benchmark clears only transition_matrix before each cold op, so a new
# cache would turn cold ops warm unseen
CACHED = {
    "compositions._degree": "each degree's composition table is sorted once per process",
    "compositions._partitions": "enumerate_partitions copies one tuple per degree",
    "fillings._diagram": "a shape's cell geometry is derived once and read by every filling walk",
    "qsym.transition_matrix": "the matrices are read by every peel and product of their degree",
    "pieri._shuffle_positions": "one pair of monomials' M-basis product serves many products",
}


def _is_cache(decorator) -> bool:
    """``lru_cache``/``cache``, bare, called or read off ``functools``."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name in ("lru_cache", "cache")


def test_only_the_listed_functions_are_cached():
    cached = {
        f"{path.stem}.{node.name}"
        for path in sorted(LIBRARY.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(_is_cache, node.decorator_list))
    }
    assert cached == set(CACHED), sorted(cached ^ set(CACHED))


# the builtin int() truncates 2.5 and parses "7"; every other integer
# input of the library goes through operator.index
# (compositions._integers and _count), so 2.5 and "7" raise ValueError
INT_CALLERS = {
    "cli._as_int": "parses a command-line or environment integer",
    "compositions._parse_parts": "parses the parts of a composition string",
}


def _int_calls(path: Path) -> set[str]:
    """module.function of every call of the builtin int in the file, bare
    (``int(x)``) or mapped (``map(int, xs)``), named by the innermost
    enclosing function."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{path.stem}.{child.name}"
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                args = child.args[:1] if child.func.id == "map" else []
                if child.func.id == "int" or any(
                        isinstance(a, ast.Name) and a.id == "int" for a in args):
                    found.add(inner)
            visit(child, inner)

    visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return found


def test_only_the_string_parsers_call_int():
    callers = set().union(*map(_int_calls, sorted(LIBRARY.glob("*.py"))))
    assert callers == set(INT_CALLERS), sorted(callers ^ set(INT_CALLERS))


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
