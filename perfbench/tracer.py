"""Span tracing of qdq's layers from outside the package.

Installing a Tracer replaces every binding of each layer's public
functions and methods with a wrapper that records a span: name, start,
end, parent and op id, kept in memory in parallel lists.  Functions that
other modules import by name (``from .linalg import kron``) are bound in
several module namespaces, and class aliases such as
``RatFunc.__radd__ = __add__`` are separate class attributes, so every
binding is patched, not only the defining one.

The scalar layer is called millions of times per battery op.  Its calls
are folded into leaf counters on the enclosing span (calls per method,
time, results with a monomial denominator) instead of one span each,
which keeps memory bounded; their time still counts as covered by a
child, so self times remain exact.

Self time of a span is its duration minus the time its child spans, its
scalar leaf calls and the tracer's own bookkeeping cover; per op, self
times plus leaf and bookkeeping times sum to the root span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from operator import attrgetter

_num = attrgetter("num")

LAYERS = ("scalars", "linalg", "quasidet", "rmatrix", "twist", "frt", "io_json", "cli")
LEAF_LAYER = "scalars"

# Index arithmetic and trivial accessors run once per matrix entry; a span
# around each would trace the loop counter rather than the layer.
_SKIP_CLASSES = {"TensorIndexing", "ScalarField"}
_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
}

_SCALAR_KIND = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub",
    "inv": "inv",
    "__truediv__": "div", "__rtruediv__": "div",
    "__eq__": "eq",
}


def _wrappable(obj):
    return inspect.isfunction(obj) or isinstance(obj, (classmethod, staticmethod))


class Tracer:
    """Owns the span lists of one traced run and the patches that feed them."""

    def __init__(self):
        self.names = []  # name id -> span name
        self._name_ids = {}
        # one entry per span, parallel lists
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.span_op = []
        self.span_outer = []  # no open span of the same name at entry
        self.span_leaf_ns = []  # scalar leaf time directly under the span
        self.span_book_ns = []  # tracer bookkeeping (nonzero counts) under it
        self.leaf_calls = {}  # (op id, scalar method name) -> calls
        self.laurent = [0, 0]  # [results with monomial denominator, results]
        self.matmul_nnz = [0, 0]  # [nonzero operand entries, operand entries]
        self._nnz_cache = {}  # id(matrix) -> (matrix, nonzeros), for one op
        self._stack = []
        self._active = []  # name id -> open spans of that name
        self._in_leaf = False
        self._op = -1
        self._patches = []  # (owner, attribute, original raw value)

    # -- span recording ------------------------------------------------------

    def _name_id(self, name):
        k = self._name_ids.get(name)
        if k is None:
            k = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return k

    def _open(self, k):
        idx = len(self.span_name)
        self.span_name.append(k)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_outer.append(self._active[k] == 0)
        self.span_leaf_ns.append(0)
        self.span_book_ns.append(0)
        self.span_end.append(0)
        self._active[k] += 1
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx, k):
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._active[k] -= 1

    def op(self, op_id, fn, *args):
        """Run fn(*args) as the root span of one op."""
        self._op = op_id
        k = self._name_id("op")
        idx = self._open(k)
        try:
            return fn(*args)
        finally:
            self._close(idx, k)
            self._op = -1
            self._nnz_cache.clear()

    def _span_wrapper(self, fn, name):
        k = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(k)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, k)

        return traced

    def _leaf_wrapper(self, fn, name):
        kind = _SCALAR_KIND.get(name.rsplit(".", 1)[-1])
        key_name = kind or name.rsplit(".", 1)[-1]
        tracer = self
        clock = time.perf_counter_ns

        def leaf(*args, **kwargs):
            key = (tracer._op, key_name)
            tracer.leaf_calls[key] = tracer.leaf_calls.get(key, 0) + 1
            if tracer._in_leaf or not tracer._stack:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.span_leaf_ns[tracer._stack[-1]] += clock() - t0
                tracer._in_leaf = False
            if kind is not None and kind != "eq" and hasattr(out, "den"):
                den = out.den
                tracer.laurent[0] += not any(den[:-1])
                tracer.laurent[1] += 1
            return out

        return leaf

    def _nonzeros(self, m):
        hit = self._nnz_cache.get(id(m))
        if hit is None:
            # the cache holds m, so its id cannot be reused within the op
            hit = self._nnz_cache[id(m)] = (
                m, sum(sum(map(bool, map(_num, row))) for row in m.entries)
            )
        return hit[1]

    def _matmul_wrapper(self, fn, name):
        traced = self._span_wrapper(fn, name)
        tracer = self
        clock = time.perf_counter_ns

        def matmul(a, b):
            if hasattr(b, "entries") and tracer._stack:
                t0 = clock()
                nnz = tracer.matmul_nnz
                for m in (a, b):
                    nnz[0] += tracer._nonzeros(m)
                    nnz[1] += m.rows * m.cols
                tracer.span_book_ns[tracer._stack[-1]] += clock() - t0
            return traced(a, b)

        return matmul

    # -- installing the wrappers ---------------------------------------------

    def _make(self, raw, name, layer):
        """Wrapper for a raw function, classmethod or staticmethod object."""
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._make(raw.__func__, name, layer))
        if layer == LEAF_LAYER:
            return self._leaf_wrapper(raw, name)
        if name == "linalg.Matrix.__mul__":
            return self._matmul_wrapper(raw, name)
        return self._span_wrapper(raw, name)

    def install(self):
        """Patch every binding of every layer's public callables."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"qdq.{layer}")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qdq" or name.startswith("qdq."))
        }
        func_wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = modules[f"qdq.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    func_wrappers[id(obj)] = (
                        obj, self._make(obj, f"{layer}.{obj.__qualname__}", layer)
                    )
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and obj.__name__ not in _SKIP_CLASSES
                ):
                    self._wrap_class(obj, layer)
        # every module namespace that binds one of those functions
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = func_wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if not _wrappable(raw) or (attr.startswith("_") and attr not in _DUNDERS):
                continue
            self._patch(cls, attr, self._make(raw, f"{layer}.{cls.__name__}.{attr}", layer))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- per-op analysis -----------------------------------------------------

    def op_spans(self, op_id):
        return [i for i, o in enumerate(self.span_op) if o == op_id]

    def self_ns(self, idxs):
        """Self time of each listed span: its duration minus its child spans,
        its scalar leaf calls and the tracer's own bookkeeping under it."""
        child = {i: 0 for i in idxs}
        for i in idxs:
            p = self.span_parent[i]
            if p in child:
                child[p] += self.span_end[i] - self.span_start[i]
        return {
            i: self.span_end[i] - self.span_start[i] - child[i]
            - self.span_leaf_ns[i] - self.span_book_ns[i]
            for i in idxs
        }


# ---------------------------------------------------------------------------
# Per-layer metrics, per traced op.  Times sum the outermost spans of a
# name, so recursion is not counted twice.  README.md maps each metric to
# the end-to-end metric and workload it should move.
# ---------------------------------------------------------------------------

# outermost-inclusive time of one wrapped callable
_SPAN_TIMES = {
    "rmatrix.wedge_top_s": "rmatrix.wedge_top",
    "frt.frt_check_s": "frt.frt_check",
    "frt.build_T_s": "frt.build_T",
    "frt.factors_commute_s": "frt.factors_commute",
    "linalg.matmul_s": "linalg.Matrix.__mul__",
    "linalg.leg_embed_s": "linalg.leg_embed",
    "linalg.kron_s": "linalg.kron",
    "linalg.rref_s": "linalg.rref_rows",
    "linalg.first_mismatch_s": "linalg.first_mismatch",
    "linalg.gauss_invert_s": "linalg.gauss_invert",
    "quasidet.corner_factors_s": "quasidet.corner_factors",
    "quasidet.det_sigma_s": "quasidet.det_sigma",
    "quasidet.inverse_s": "quasidet.inverse_via_quasiminors",
    "twist.build_twist_s": "twist.build_twist",
    "twist.solve_theta_s": "twist.solve_theta",
    "twist.cocycle_check_s": "twist.cocycle_check",
    "rmatrix.ybe_check_s": "rmatrix.ybe_check",
    "rmatrix.hecke_check_s": "rmatrix.hecke_check",
    "io_json.report_to_json_s": "io_json.report_to_json",
}


def _has_ancestor(tracer, idx, name_id):
    p = tracer.span_parent[idx]
    while p >= 0:
        if tracer.span_name[p] == name_id:
            return True
        p = tracer.span_parent[p]
    return False


def layer_metrics(tracer, plain_s, traced_s, out_bytes):
    """Per-layer metrics of a traced run, as {name: value}."""
    n_ops = len(traced_s)
    names = tracer.names
    ids = {name: k for k, name in enumerate(names)}
    idxs = [i for i, o in enumerate(tracer.span_op) if o >= 0]
    selfs = tracer.self_ns(idxs)
    incl = [0] * len(names)
    self_by = [0] * len(names)
    calls = [0] * len(names)
    root_ns = root_self = leaf_ns = 0
    root = ids["op"]
    for i in idxs:
        k = tracer.span_name[i]
        dur = tracer.span_end[i] - tracer.span_start[i]
        calls[k] += 1
        self_by[k] += selfs[i]
        leaf_ns += tracer.span_leaf_ns[i]
        if tracer.span_outer[i]:
            incl[k] += dur
        p = tracer.span_parent[i]
        if k == root:
            root_ns += dur
            root_self += selfs[i]
        elif p >= 0 and tracer.span_name[p] == root:
            root_self += selfs[i]

    def per_op(ns):
        return ns / 1e9 / n_ops

    def get(lst, name):
        k = ids.get(name)
        return 0 if k is None else lst[k]

    wedge_in_coaction = 0
    if "rmatrix.wedge_top" in ids and "frt.qdet_coaction" in ids:
        for i in idxs:
            if tracer.span_name[i] == ids["rmatrix.wedge_top"] and _has_ancestor(
                tracer, i, ids["frt.qdet_coaction"]
            ):
                wedge_in_coaction += tracer.span_end[i] - tracer.span_start[i]
    leaf_calls = {}
    for (op, kind), c in tracer.leaf_calls.items():
        if op >= 0:
            leaf_calls[kind] = leaf_calls.get(kind, 0) + c
    values = {m: per_op(get(incl, span)) for m, span in _SPAN_TIMES.items()}
    values.update({
        "frt.coaction_products_s": per_op(get(incl, "frt.qdet_coaction") - wedge_in_coaction),
        "frt.verify_self_s": per_op(get(self_by, "frt.verify_factorization")),
        "linalg.matmul_calls": get(calls, "linalg.Matrix.__mul__") / n_ops,
        "linalg.matmul_nnz_share": _ratio(*tracer.matmul_nnz),
        "quasidet.quasideterminant_calls": get(calls, "quasidet.quasideterminant") / n_ops,
        "scalars.op_s": per_op(leaf_ns),
        "scalars.laurent_share": _ratio(*tracer.laurent),
        "io_json.bytes": out_bytes / n_ops,
        "cli.run_self_s": per_op(
            sum(self_by[k] for k, name in enumerate(names) if name.startswith("cli."))
        ),
        "trace.overhead_share": (sum(traced_s) - sum(plain_s)) / sum(plain_s),
        "trace.covered_share": 1.0 - _ratio(root_self, root_ns),
    })
    for kind in ("mul", "add", "sub", "inv", "div", "eq"):
        values[f"scalars.{kind}_calls"] = leaf_calls.get(kind, 0) / n_ops
    return values


def _ratio(part, whole):
    return part / whole if whole else 0.0


def write_spans(tracer, path):
    """All spans as tab-separated lines, one per span, with a header."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\tleaf_ns\tbook_ns\n")
        for i, k in enumerate(tracer.span_name):
            fh.write(
                f"{tracer.span_op[i]}\t{i}\t{tracer.span_parent[i]}\t{tracer.names[k]}\t"
                f"{tracer.span_start[i]}\t{tracer.span_end[i]}\t"
                f"{tracer.span_leaf_ns[i]}\t{tracer.span_book_ns[i]}\n"
            )
