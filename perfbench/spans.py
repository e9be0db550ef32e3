"""Span tracing around the calls into each layer of the c4free package.

The package is not edited. While tracing is on, every public function
of a layer is replaced, in each c4free module that holds a reference to
it, by a wrapper that records a span: layer, function name, start, end,
parent span and the benchmark item being run. A call made while a span
of the same layer is open records nothing, so ``<layer>.calls`` counts
entries into a layer from another one. Time is charged to the
innermost open span: the repair scans inside ``random_c4free`` count as
``generators``, and helpers that belong to no layer (``build_graph``,
``is_clique``, ``complement``, ...) count for their caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

# Public functions of graph.py, split by the workloads they serve. The
# other public helpers of graph.py are charged to their caller.
GRAPH_SPLIT = {
    "graph.recognition": (
        "find_induced_c4",
        "has_induced_c4_naive",
        "is_c4_free",
        "require_c4free",
    ),
    "graph.oracle": (
        "max_clique_exact",
        "max_independent_set_exact",
        "find_independent_set_of_size",
    ),
    "graph.bipartition": ("bipartition",),
}

# Layers whose every public function is traced, by module name.
MODULE_LAYERS = ("cli", "suites", "edgelist", "generators", "extraction", "structure")

LAYERS = MODULE_LAYERS + tuple(GRAPH_SPLIT)

EXTRA_METRICS = (
    ("edgelist.bytes", "bytes", "lower"),
    ("generators.accept_ratio", "ratio", "higher"),
    ("generators.twin_vertex_share", "ratio", "higher"),
    ("graph.recognition.calls_per_item", "calls/item", "lower"),
    ("graph.oracle.refused", "count", "lower"),
    ("graph.bipartition.odd_share", "ratio", "lower"),
    ("extraction.structure_route_share", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# (name, unit, better) of every metric a traced run reports.
PER_LAYER_METRICS = tuple(
    (f"{layer}.{kind}", unit, "lower")
    for layer in LAYERS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
) + EXTRA_METRICS

# Span fields, in the order they are stored and written.
SPAN_FIELDS = ("layer", "func", "start", "end", "parent", "item")


def layer_functions() -> dict[str, tuple[str, list[str]]]:
    """Map each layer to its defining module and traced function names."""
    out = {}
    for layer in MODULE_LAYERS:
        module = importlib.import_module(f"c4free.{layer}")
        names = sorted(
            name
            for name, value in vars(module).items()
            if inspect.isfunction(value)
            and value.__module__ == module.__name__
            and not name.startswith("_")
        )
        out[layer] = (module.__name__, names)
    for layer, names in GRAPH_SPLIT.items():
        out[layer] = ("c4free.graph", list(names))
    return out


def twin_vertex_count(adj: tuple[int, ...]) -> int:
    """Vertices that share their closed neighbourhood with another vertex."""
    closed = Counter(row | 1 << v for v, row in enumerate(adj))
    return sum(count for count in closed.values() if count > 1)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval and their summed durations are the covered
    part.
    """
    own = [span[3] - span[2] for span in spans]
    for span in spans:
        parent = span[4]
        if parent >= 0:
            own[parent] -= span[3] - span[2]
    return own


class Tracer:
    """Records spans in memory while installed; restores the package on removal."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item: Optional[str] = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []
        self.counts: Counter = Counter()
        self.generated: list[tuple[int, ...]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace each traced function in every c4free module that refers to it."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "c4free" or name.startswith("c4free."))
        ]
        for layer, (module_name, names) in layer_functions().items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, func: Callable) -> Callable:
        observe = getattr(self, "_observe_" + layer.replace(".", "_"), None)
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return func(*args, **kwargs)
            index = len(spans)
            span = [layer, func.__name__, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span[3] = perf_counter()
                stack.pop()
                self.counts[f"{layer}.raised.{type(exc).__name__}"] += 1
                raise
            span[3] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(func.__name__, args, result)
            return result

        return traced

    def _observe_edgelist(self, name, args, result) -> None:
        text = args[0] if name == "parse_graph" else result
        if isinstance(text, str):
            self.counts["edgelist.bytes"] += len(text.encode())

    def _observe_generators(self, name, args, result) -> None:
        if name == "random_c4free":
            self.counts["generators.random_draws"] += 1
        adj = getattr(result, "adj", None)
        if adj is not None:
            self.generated.append(adj)

    def _observe_extraction(self, name, args, result) -> None:
        witness = getattr(result, "witness", None)
        if isinstance(witness, dict):
            self.counts["extraction.certificates"] += 1
            if witness.get("route") == "structure":
                self.counts["extraction.structure_route"] += 1

    def _observe_graph_bipartition(self, name, args, result) -> None:
        self.counts["graph.bipartition.results"] += 1
        if hasattr(result, "vertices"):  # an OddCycle, not a 2-colouring
            self.counts["graph.bipartition.odd"] += 1

    # -- output ------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self time of every layer over all recorded spans."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = totals.setdefault(span[0], [0, 0.0])
            entry[0] += 1
            entry[1] += own
        return {layer: (calls, own) for layer, (calls, own) in totals.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
