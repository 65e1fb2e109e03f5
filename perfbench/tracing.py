"""Span tracing of latcayley's public functions, installed from outside.

Every traced function is replaced by a wrapper in *every* latcayley module
that binds it: the modules import each other's functions by name
(``polytope.convex_hull``, ``properties.lattice_points``), so wrapping only
the defining module would miss most calls.  A wrapper records one span per
call (name, start, end, parent span, item id) and the per-call counters of
its layer.  Self time is a span's duration minus the durations of its child
spans; children run synchronously inside the parent, so they never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# module -> functions wrapped in it; the layer name of a function is
# "<module>.<function>"
TRACED = {
    "geometry": ("convex_hull",),
    "polytope": (
        "lattice_points",
        "interior_lattice_points",
        "cayley_slice",
        "cayley_sum",
        "minkowski_sum",
        "dilate",
    ),
    "properties": (
        "point_set_sum",
        "is_idp",
        "is_tuple_idp",
        "level_index",
        "level_status",
        "is_gorenstein",
    ),
    "covering": ("covers", "is_2_convex_normal", "has_interior_translate_cover"),
    "campaigns": ("verify_theorem",),
    "generator": ("random_lattice_polytope",),
    "polyfile": ("load_polytope", "save_polytope"),
    "cli": ("main",),
}

LAYERS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# layers whose call counts are reported (every layer reports its self share)
CALLS = (
    "geometry.convex_hull",
    "properties.point_set_sum",
    "covering.covers",
    "polytope.lattice_points",
    "polytope.interior_lattice_points",
)

# functions whose lru_cache statistics are reported as a hit ratio
CACHED = ("polytope.lattice_points", "polytope.interior_lattice_points")


def _count_hull(counters, args, result):
    counters["geometry.convex_hull.points_in"] += len(args[0])


def _count_sum(counters, args, result):
    A, B = args
    counters["properties.point_set_sum.pairs"] += len(A) * len(B)
    counters["properties.point_set_sum.points_out"] += len(result)


def _count_covers(counters, args, result):
    counters["covering.covers.translates"] += len(args[0].translations)


def _count_points(name):
    def count(counters, args, result):
        counters[f"{name}.points_out"] += len(result)
    return count


# counters reported as metrics; point_set_sum's points_out only feeds its yield
COUNT_METRICS = (
    "geometry.convex_hull.points_in",
    "properties.point_set_sum.pairs",
    "covering.covers.translates",
    "polytope.lattice_points.points_out",
    "polytope.interior_lattice_points.points_out",
)

COUNTER_HOOKS = {
    "geometry.convex_hull": _count_hull,
    "properties.point_set_sum": _count_sum,
    "covering.covers": _count_covers,
    "polytope.lattice_points": _count_points("polytope.lattice_points"),
    "polytope.interior_lattice_points": _count_points("polytope.interior_lattice_points"),
}


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent_index, item_id]`` lists, in
    call order; ``parent_index`` is -1 for a root span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.item = None
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, name, fn, *args, **kwargs):
        """Run fn under a root span, e.g. one benchmark item."""
        return self.wrap(name, fn)(*args, **kwargs)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds spent in each span name outside its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, item) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out


class Installed:
    """Context manager that wraps every traced function in every latcayley
    module binding it, and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for mod_name in TRACED:
            importlib.import_module(f"latcayley.{mod_name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "latcayley" or name.startswith("latcayley.")]
        for mod_name, fns in TRACED.items():
            home = importlib.import_module(f"latcayley.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                fn = getattr(home, fn_name)
                wrapper = self.tracer.wrap(name, fn, COUNTER_HOOKS.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, fn))
        return self.tracer

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()
        return False
