"""Span tracing of pyjama's layers from outside the package.

``Tracer.install`` wraps the public functions and methods of every layer
module and patches each name where it is looked up, including the copies
that ``from .x import y`` left in other modules.  Each call records a span:
name, start, end, parent span and job id, in flat in-memory arrays.
``uninstall`` puts every original object back.

Only methods that carry the layer's work are wrapped: named public methods,
class and static methods, and the arithmetic operators.  Constructors are
left alone, except ``ConvexPolygon.__init__``, which canonicalises its
vertices and is the ``polygon.new`` metric.  Properties, comparisons and
hashing are left alone too, so that the overhead stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("gaussian", "padic", "solenoid", "polygon", "covering", "approx",
          "svg", "cli")

_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__"}
_CONSTRUCTORS = {"polygon.ConvexPolygon.__init__"}
_MARK = "_perfbench_span"

# span names behind each per-layer metric name of BENCHMARK.json
ALIASES = {
    "polygon.clip": ("polygon.ConvexPolygon.clip_halfplane",),
    "polygon.new": ("polygon.ConvexPolygon.__init__",),
    "polygon.contains": ("polygon.ConvexPolygon.contains",),
    "polygon.dist_sq": ("polygon.ConvexPolygon.dist_sq_to_point",),
    "covering.build": ("covering.uncovered_region",),
    "covering.report_lines": ("covering.CoverReport.report_lines",),
    "covering.catalog": ("covering.obstruction_catalog",),
    "covering.distance_sq": ("covering.CoverReport.distance_sq_to_uncovered",),
    "covering.contains": ("covering.CoverReport.contains",),
    "covering.rationality": ("covering.rationality_check",),
    "covering.disk": ("covering.certified_disk_cover",),
    "gaussian.unit_group_order": ("gaussian.unit_group_order",),
    "padic.embed": ("padic.embed",),
    "solenoid.act": ("solenoid.act",),
    "solenoid.orbit_sweep": ("solenoid.orbit_eval_sweep",
                             "solenoid.orbit_eval_rows"),
    "svg.render": ("svg.render_svg",),
}


def _public_callables(module):
    """(owner, attribute, original, span name) for every traced callable
    that ``module`` defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                span = f"{layer}.{name}.{attr}"
                if attr.startswith("_") and attr not in _OPERATORS \
                        and span not in _CONSTRUCTORS:
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or \
                        inspect.isfunction(raw):
                    yield obj, attr, raw, span
        elif callable(obj):
            yield module, name, obj, f"{layer}.{name}"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.job_id = -1
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self._installed = False

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, span: str):
        name_id = len(self.names)
        self.names.append(span)
        hook = _HOOKS.get(span)
        start, end, names, parent, job = (self.start, self.end, self.name,
                                          self.parent, self.job)
        stack, clock, tracer = self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(name_id)
            parent.append(stack[-1])
            job.append(tracer.job_id)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                start[index] = t0
                stack.pop()
            if hook is not None:
                hook(tracer, result)
            return result

        setattr(wrapper, _MARK, span)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every name to patch."""
        modules = [importlib.import_module(f"pyjama.{layer}") for layer in LAYERS]
        plan, wrapped = [], {}
        for module in modules:
            for owner, attr, raw, span in _public_callables(module):
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, span))
                    wrapped[id(raw.__func__)] = new.__func__
                else:
                    new = self._wrap(raw, span)
                    wrapped[id(raw)] = new
                plan.append((owner, attr, raw, new))
        # names bound by ``from .x import y`` in other modules
        for module in modules + [importlib.import_module("pyjama")]:
            for attr, value in vars(module).items():
                if id(value) in wrapped:
                    plan.append((module, attr, value, wrapped[id(value)]))
        return plan

    def install(self) -> None:
        """Patch the wrappers in; they are built on the first call and
        reused after, so spans of one name always share one name id."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False

    # -- results -----------------------------------------------------------

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int64),
            job=np.frombuffer(self.job, np.int32))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time (duration minus the time its
        child spans cover), plus the parent name of every call."""
        import numpy as np

        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        name = np.frombuffer(self.name, np.int32)
        parent = np.frombuffer(self.parent, np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        pairs = np.unique(np.stack([name, parent_name]), axis=1, return_counts=True)
        out = {n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "under": {}}
               for i, n in enumerate(self.names)}
        for (child_id, parent_id), count in zip(pairs[0].T, pairs[1]):
            under = "" if parent_id < 0 else self.names[parent_id]
            out[self.names[child_id]]["under"][under] = int(count)
        return out


def leftover_wrappers() -> list[str]:
    """Names in pyjama's modules and classes that still hold a wrapper."""
    found = []
    for layer in ("pyjama",) + tuple(f"pyjama.{x}" for x in LAYERS):
        module = importlib.import_module(layer)
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{layer}.{attr}")
            if inspect.isclass(value) and value.__module__.startswith("pyjama"):
                for name, raw in vars(value).items():
                    func = getattr(raw, "__func__", raw)
                    if hasattr(func, _MARK):
                        found.append(f"{layer}.{attr}.{name}")
    return found


# counters read off return values, keyed by span name
def _pieces(tracer, report):
    tracer.count("covering.pieces", len(report.uncovered))


def _entries(tracer, catalog):
    tracer.count("covering.catalog.entries", len(catalog))


def _cells(tracer, report):
    tracer.count("covering.disk.cells_checked", report.cells_checked)


def _kept(tracer, piece):
    if piece is not None:
        tracer.count("polygon.clip.kept")


def _certificate(tracer, q):
    tracer.count("approx.certified")
    tracer.count("approx.den_bits", q.den.bit_length())


def _svg_bytes(tracer, text):
    tracer.count("svg.bytes", len(text.encode()))


_HOOKS = {
    "covering.uncovered_region": _pieces,
    "covering.obstruction_catalog": _entries,
    "covering.certified_disk_cover": _cells,
    "polygon.ConvexPolygon.clip_halfplane": _kept,
    "approx.strong_approx": _certificate,
    "approx.strong_approx_3way": _certificate,
    "svg.render_svg": _svg_bytes,
}


def layer_metrics(tracer: Tracer, artifact_bytes: int,
                  overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    spans = tracer.summary()
    c = tracer.counters

    def total(names, key):
        return sum(spans[n][key] for n in names if n in spans)

    def layer(prefix, key):
        return total([n for n in spans if n.startswith(prefix + ".")], key)

    def ratio(num, den):
        return num / den if den else 0.0

    def under(child, parent):
        return spans.get(child, {}).get("under", {}).get(parent, 0)

    m = {}
    for alias, names in ALIASES.items():
        m[f"{alias}.calls"] = total(names, "calls")
        m[f"{alias}.self_s"] = total(names, "self_s")
    m["polygon.clip.kept_ratio"] = ratio(c.get("polygon.clip.kept", 0),
                                         m["polygon.clip.calls"])
    m["covering.pieces"] = c.get("covering.pieces", 0)
    m["covering.catalog.entries"] = c.get("covering.catalog.entries", 0)
    m["covering.disk.cells_checked"] = c.get("covering.disk.cells_checked", 0)
    for alias, poly in (("covering.distance_sq", "polygon.dist_sq"),
                        ("covering.contains", "polygon.contains")):
        tests = under(ALIASES[poly][0], ALIASES[alias][0])
        m[f"{alias}.poly_tests_per_call"] = ratio(tests, m[f"{alias}.calls"])
    for name in ("gaussian", "padic", "solenoid", "approx"):
        m[f"{name}.calls"] = layer(name, "calls")
        m[f"{name}.self_s"] = layer(name, "self_s")
    approx_calls = total(("approx.strong_approx", "approx.strong_approx_3way"),
                         "calls")
    m["approx.den_bits"] = c.get("approx.den_bits", 0)
    m["approx.ok_ratio"] = ratio(c.get("approx.certified", 0), approx_calls)
    m["svg.bytes"] = c.get("svg.bytes", 0)
    m["cli.runs"] = total(("cli.main",), "calls")
    m["cli.self_s"] = layer("cli", "self_s")
    m["cli.artifact_bytes"] = artifact_bytes
    m["trace.overhead_frac"] = overhead_frac
    return m
