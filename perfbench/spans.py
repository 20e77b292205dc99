"""Span tracing of qschur from outside the library.

``install`` wraps every public function of the layer modules (the names
the ``qschur`` package exports) and the arithmetic methods of ``XPoly``
and ``QtPoly``, and rebinds each wrapped name in every ``qschur`` module
that holds it, so calls between modules are traced too.  A generator is
timed only inside its ``next()`` calls.  Outside an op the wrappers call
straight through.

Every span is kept in memory, one entry per call or ``next()``: its
parent span, the op it belongs to, its name, and its start and end in
``perf_counter_ns``.  Spans are numbered in the order they open, so a
parent's number is below its children's.  Spans of one thread nest,
so a span's self time is its duration minus its children's, and the
self times of an op's spans add up exactly to the op's root span.
"""
from __future__ import annotations

import gzip
import inspect
from array import array
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "compositions",
    "polynomial",
    "fillings",
    "tableaux",
    "insertion",
    "qsym",
    "pieri",
    "macdonald",
)

_ARITHMETIC = {
    "XPoly": (
        "__init__", "__add__", "__radd__", "__sub__", "__neg__", "__mul__",
        "__rmul__", "__pow__", "div_exact", "div_scalar_exact",
    ),
    "QtPoly": (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__pow__", "div_exact",
    ),
}

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.op = None
        # one entry per span, indexed by span id; -1 marks no parent / no op
        self.parent = array("q")
        self.op_id = array("q")
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        # op id -> (start_ns, end_ns) measured by the caller around run_op
        self.op_wall: dict[int, tuple[int, int]] = {}
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def intern(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def open(self, nid: int) -> int:
        stack = self._stack
        sid = len(self.name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op_id.append(-1 if self.op is None else self.op)
        self.name_id.append(nid)
        self.end.append(0)
        stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int, error: bool = False) -> None:
        self.end[sid] = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        if error:
            layer = self.layers[self.name_id[sid]]
            if not stack or self.layers[self.name_id[stack[-1]]] != layer:
                self.counters[layer + ".errors"] += 1

    def parent_name(self) -> str:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else ""

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as one op under a root span."""
        self.op = op_id
        sid = self.open(self.intern(ROOT, "bench"))
        try:
            return fn(*args)
        finally:
            self.close(sid)
            self.op = None

    def __len__(self) -> int:
        return len(self.name_id)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span_id\tparent_id\top_id\tname\tstart_ns\tend_ns\n")
            names = self.names
            for sid, row in enumerate(zip(self.parent, self.op_id, self.name_id, self.start, self.end)):
                pid, op, nid, s, e = row
                fh.write(f"{sid}\t{pid}\t{op}\t{names[nid]}\t{s}\t{e}\n")


# -- wrappers ------------------------------------------------------------


def _wrap_function(tracer: Tracer, fn, name: str, layer: str, observe=None):
    nid = tracer.intern(name, layer)

    def traced(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        sid = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid, error=True)
            raise
        tracer.close(sid)
        if observe is not None:
            observe(tracer, result)
        return result

    traced.__wrapped__ = fn
    for attr in ("__name__", "__qualname__", "__doc__", "cache_clear", "cache_info"):
        if hasattr(fn, attr):
            setattr(traced, attr, getattr(fn, attr))
    return traced


def _traced_iter(tracer: Tracer, it, nid: int, name: str):
    try:
        while True:
            sid = tracer.open(nid)
            try:
                value = next(it)
            except StopIteration:
                tracer.close(sid)
                return
            except BaseException:
                tracer.close(sid, error=True)
                raise
            tracer.close(sid)
            tracer.counters["yield:" + name] += 1
            tracer.counters["yield:" + name + "<" + tracer.parent_name()] += 1
            yield value
    finally:
        it.close()


def _wrap_generator(tracer: Tracer, fn, name: str, layer: str):
    nid = tracer.intern(name, layer)

    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        if tracer.op is None:
            return it
        return _traced_iter(tracer, it, nid, name)

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    return traced


def _wrap_counter(tracer: Tracer, fn, key: str):
    def counted(*args, **kwargs):
        if tracer.op is not None:
            tracer.counters[key] += 1
        return fn(*args, **kwargs)

    return counted


def _count_xpoly_terms(tracer, result):
    tracer.counters["polynomial.xpoly_terms_out"] += len(result.items())


def _count_rule_terms(tracer, result):
    tracer.counters["pieri.rule_terms"] += len(result.terms)


def _count_path(tracer, result):
    tracer.counters["insertion.path_cells"] += len(result.path)


_OBSERVERS = {
    "XPoly.__mul__": _count_xpoly_terms,
    "XPoly.__rmul__": _count_xpoly_terms,
    "pieri_row": _count_rule_terms,
    "pieri_col": _count_rule_terms,
    "skyline_insert": _count_path,
    "schensted_insert": _count_path,
}


def install(Q, tracer: Tracer):
    """Wrap the library in place; returns a function that undoes it."""
    modules = [m for n, m in sys.modules.items() if n == "qschur" or n.startswith("qschur.")]
    replace: dict[int, object] = {}
    undo = []
    for name, obj in vars(Q).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        layer = getattr(obj, "__module__", "").rpartition(".")[2]
        if layer not in LAYERS:
            continue
        if inspect.isgeneratorfunction(obj):
            replace[id(obj)] = _wrap_generator(tracer, obj, name, layer)
        else:
            replace[id(obj)] = _wrap_function(tracer, obj, name, layer, _OBSERVERS.get(name))
    for module in modules:
        for name, obj in list(vars(module).items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)
                undo.append((module, name, obj))

    for cls_name, methods in _ARITHMETIC.items():
        cls = getattr(Q, cls_name)
        for meth in methods:
            original = cls.__dict__[meth]
            name = f"{cls_name}.{meth}"
            setattr(cls, meth, _wrap_function(tracer, original, name, "polynomial", _OBSERVERS.get(name)))
            undo.append((cls, meth, original))

    for cls, meth, key in (
        (Q.Composition, "__new__", "compositions.composition_new_calls"),
        (Q.CompositionTableau, "__init__", "tableaux.comt_new_calls"),
    ):
        original = cls.__dict__[meth]
        setattr(cls, meth, _wrap_counter(tracer, original, key))
        undo.append((cls, meth, original))

    def uninstall():
        for target, name, original in reversed(undo):
            setattr(target, name, original)

    return uninstall


# -- per-layer metrics ----------------------------------------------------

# Self time is attributed to the nearest span, the span itself included,
# that has the same layer and a name listed here; self time with no such
# span counts only in the layer's ``self_s``.
SELF_TIME = {
    "polynomial.xpoly_mul_s": ("XPoly.__mul__", "XPoly.__rmul__"),
    "polynomial.xpoly_build_s": ("XPoly.__init__", "XPoly.__add__", "XPoly.__radd__"),
    "polynomial.qtpoly_mul_s": ("QtPoly.__mul__", "QtPoly.__rmul__"),
    "polynomial.div_exact_s": ("XPoly.div_exact", "XPoly.div_scalar_exact", "QtPoly.div_exact"),
    "tableaux.enum_comts_s": ("enumerate_comts",),
    "tableaux.enum_std_comts_s": ("enumerate_standard_comts",),
    "tableaux.enum_ssafs_s": ("enumerate_ssafs",),
    "fillings.enum_fillings_s": ("enumerate_fillings",),
    "fillings.coinv_s": ("coinv",),
    "qsym.transition_matrix_s": ("transition_matrix",),
    "qsym.qschur_polynomial_s": ("qschur_polynomial", "demazure_atom"),
    "qsym.xpoly_to_monomial_s": ("xpoly_to_monomial",),
    "qsym.express_in_qschur_s": ("express_in_qschur",),
    "pieri.product_qschur_s": ("product_qschur",),
    "pieri.pieri_s": ("pieri_row", "pieri_col"),
    "macdonald.integral_form_s": ("macdonald_integral_form",),
    "macdonald.hl_p_s": ("hall_littlewood_p", "hall_littlewood_qsym", "ns_hall_littlewood"),
    "macdonald.hl_oracle_s": ("hall_littlewood_p_oracle",),
    "macdonald.j_fundamental_s": ("macdonald_j_fundamental", "j_fundamental_classes"),
    "insertion.skyline_insert_s": ("skyline_insert",),
    "insertion.skyline_uninsert_s": ("skyline_uninsert",),
}

CALLS = {
    "polynomial.xpoly_mul_calls": ("XPoly.__mul__", "XPoly.__rmul__"),
    "polynomial.xpoly_build_calls": ("XPoly.__init__", "XPoly.__add__", "XPoly.__radd__"),
    "polynomial.qtpoly_mul_calls": ("QtPoly.__mul__", "QtPoly.__rmul__"),
    "insertion.insert_calls": ("skyline_insert", "schensted_insert"),
}

COUNTERS = (
    "polynomial.xpoly_terms_out",
    "tableaux.comt_new_calls",
    "compositions.composition_new_calls",
    "insertion.path_cells",
    "qsym.matrix_cache_hits",
    "qsym.matrix_cache_misses",
)

YIELDS = {
    "tableaux.comts_yielded": "enumerate_comts",
    "tableaux.std_comts_yielded": "enumerate_standard_comts",
    "tableaux.ssafs_yielded": "enumerate_ssafs",
    "fillings.fillings_yielded": "enumerate_fillings",
}

RATIOS = (
    "tableaux.std_comts_accept_ratio",
    "tableaux.ssaf_accept_ratio",
    "fillings.coinv_per_filling",
    "pieri.rule_accept_ratio",
    "trace_overhead_ratio",
    "bench.outside_layers_share",
)


def _units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update({m: "s" for m in SELF_TIME})
    units.update({m: "count" for m in (*CALLS, *COUNTERS, *YIELDS)})
    units.update({m: "ratio" for m in RATIOS})
    return dict(sorted(units.items()))


UNITS = _units()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def self_times(tracer: Tracer) -> list[int]:
    """Self time in ns of each span, indexed by span id."""
    start, end = tracer.start, tracer.end
    selfs = [e - s for s, e in zip(start, end)]
    for sid, pid in enumerate(tracer.parent):
        if pid >= 0:
            selfs[pid] -= end[sid] - start[sid]
    return selfs


def check_ops(tracer: Tracer) -> list[str]:
    """Problems with the span tree: an op whose self times do not add up
    to its root span, a span whose children outlast it, or a root span
    that does not lie inside the op's wall interval as the caller timed
    it (``tracer.op_wall``)."""
    selfs = self_times(tracer)
    root = tracer._ids.get(ROOT)
    total: dict[int, int] = defaultdict(int)
    roots: dict[int, int] = {}
    problems = []
    for sid, (op, nid) in enumerate(zip(tracer.op_id, tracer.name_id)):
        total[op] += selfs[sid]
        if selfs[sid] < 0:
            problems.append(f"op {op}: span {tracer.names[nid]} has negative self time")
        if nid == root:
            roots[op] = sid
    for op, sid in roots.items():
        start, end = tracer.start[sid], tracer.end[sid]
        if total[op] != end - start:
            problems.append(f"op {op}: self times add to {total[op]} ns, root span is {end - start} ns")
        wall = tracer.op_wall.get(op)
        if wall and not wall[0] <= start <= end <= wall[1]:
            problems.append(f"op {op}: root span {start}..{end} lies outside its wall time {wall[0]}..{wall[1]}")
    if set(total) != set(roots) or set(tracer.op_wall) != set(roots):
        problems.append("spans outside any op, or an op without spans")
    return problems


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    names, layers = tracer.names, tracer.layers
    metric_of = [None] * len(names)
    for metric, group in SELF_TIME.items():
        for name in group:
            if name in tracer._ids:
                metric_of[tracer._ids[name]] = metric

    values: dict[str, float] = {m: 0.0 for m in UNITS}
    root = tracer._ids.get(ROOT)
    root_ns = outside_ns = 0
    # parents open before their children, so a span's parent is
    # attributed before the span itself
    attributed: list[str | None] = []
    for sid, (pid, nid, self_ns) in enumerate(zip(tracer.parent, tracer.name_id, self_times(tracer))):
        layer = layers[nid]
        metric = metric_of[nid]
        if metric is None and pid >= 0 and layers[tracer.name_id[pid]] == layer:
            metric = attributed[pid]
        attributed.append(metric)
        if layer in LAYERS:
            values[f"{layer}.self_s"] += self_ns / 1e9
            if metric is not None:
                values[metric] += self_ns / 1e9
        elif nid == root:
            root_ns += tracer.end[sid] - tracer.start[sid]
            outside_ns += self_ns

    calls = Counter({names[nid]: n for nid, n in Counter(tracer.name_id).items()})
    counters = tracer.counters
    for metric, group in CALLS.items():
        values[metric] = float(sum(calls[n] for n in group))
    for metric in COUNTERS:
        values[metric] = float(counters[metric])
    for metric, name in YIELDS.items():
        values[metric] = float(counters["yield:" + name])
    for layer in LAYERS:
        values[f"{layer}.errors"] = float(counters[f"{layer}.errors"])
    values["tableaux.std_comts_accept_ratio"] = _ratio(
        counters["yield:enumerate_standard_comts"],
        counters["yield:enumerate_comts<enumerate_standard_comts"],
    )
    values["tableaux.ssaf_accept_ratio"] = _ratio(
        counters["yield:enumerate_ssafs"], counters["yield:enumerate_comts<enumerate_ssafs"]
    )
    values["fillings.coinv_per_filling"] = _ratio(
        calls["coinv"], counters["yield:enumerate_fillings"]
    )
    # time of the ops spent outside every wrapped layer: the benchmark's
    # own glue and library calls that no wrapper sees
    values["bench.outside_layers_share"] = _ratio(outside_ns, root_ns)
    values["pieri.rule_accept_ratio"] = _ratio(
        counters["pieri.rule_terms"], calls["row_op"] + calls["col_op"]
    )
    return values
