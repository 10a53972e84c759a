"""Per-layer spans for the traced run, recorded from outside the program.

The layers are kway's modules.  `Tracer.install` wraps every public
function of every module, and replaces the name wherever a kway module
imported it (for example `single_query.trace_norm`), so a call is timed
whichever module makes it.  Spans are aggregated in memory as they close:

* `<module>.<function>.calls` and `.ms`, the busy time of its outermost call;
* `<module>.self_ms`, span time minus the time covered by child spans;
* sizes: `single_query.build_discrimination_pair.dim`,
  `single_query.induced_behavior.rows`, `polytope.enumerate_vertices.vertices`
  and `polytope.is_k_way.<route>.columns`, the LP columns of one verdict.

`polytope.is_k_way` is recorded under its route, `.exact` or `.float`, and
scipy's `linprog` as `polytope.linprog`, a span of its own layer, so HiGHS
time is not polytope self time.  Spans exist only in this process: work
that the `scan` pool does in its workers counts as `cli` self time.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("behavior", "linalg", "exactlp", "polytope", "single_query", "grover", "cli")


def _is_k_way_route(args, kwargs):
    """is_k_way's documented rule: mode "auto" is exact for N <= 3."""
    behavior = args[0] if args else kwargs["behavior"]
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "auto")
    exact = mode == "exact" or (mode == "auto" and behavior.n_locations <= 3)
    return "polytope.is_k_way." + ("exact" if exact else "float")


class Tracer:
    def __init__(self):
        self.totals = defaultdict(float)
        self._stack = []        # open spans: [name, child seconds]
        self._open = defaultdict(int)
        self._patches = []      # (namespace, attribute, original)

    def _wrap(self, fn, name, layer, size=None):
        totals, stack, open_ = self.totals, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            frame = [span, 0.0]
            stack.append(frame)
            open_[span] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                open_[span] -= 1
                totals[span + ".calls"] += 1
                if not open_[span]:
                    totals[span + ".ms"] += 1e3 * dt
                if layer:
                    totals[layer + ".self_ms"] += 1e3 * (dt - frame[1])
                if stack:
                    stack[-1][1] += dt
            if size:
                size(totals, stack, args, result)
            return result

        return traced

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, value)

    def install(self, kway):
        """Wrap kway's public functions in every kway namespace that holds them."""
        modules = [getattr(kway, layer) for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = _is_k_way_route if obj is kway.polytope.is_k_way else f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(obj, name, layer, SIZES.get(f"{layer}.{attr}"))
        for namespace in [kway] + modules:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(namespace, attr, wrapped[obj])
        self._patch(kway.polytope, "linprog", self._wrap(kway.polytope.linprog, "polytope.linprog", None))
        from_table = kway.behavior.Behavior.__dict__["from_table"].__func__
        self._patch(kway.behavior.Behavior, "from_table",
                    classmethod(self._wrap(from_table, "behavior.from_table", "behavior")))

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)


def _dim(totals, stack, args, result):
    totals["single_query.build_discrimination_pair.dim"] += args[0]


def _rows(totals, stack, args, result):
    totals["single_query.induced_behavior.rows"] += len(result.p1)


def _vertices(totals, stack, args, result):
    totals["polytope.enumerate_vertices.vertices"] += len(result)
    if stack and stack[-1][0].startswith("polytope.is_k_way."):
        totals[stack[-1][0] + ".columns"] += len(result)


SIZES = {
    "single_query.build_discrimination_pair": _dim,
    "single_query.induced_behavior": _rows,
    "polytope.enumerate_vertices": _vertices,
}
