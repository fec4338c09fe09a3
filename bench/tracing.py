"""Per-layer tracing of germkit, installed from outside the package.

Each traced function is replaced, under every name a germkit module looks
it up by, with a wrapper that records a span: its layer, start, end, the
span that caused it and the operation it belongs to.  A layer's busy time
is the self time of its spans, a span's duration minus the time its child
spans cover.  Nothing under src/ is changed; ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

# (module, attribute, layer, counter).  Attributes with a dot are methods,
# patched on their class.  A layer of None only counts calls: the time goes
# to the calling span.
TRACED: Tuple[Tuple[str, str, str | None, str], ...] = (
    ("enclosures", "ContinuedFractionEnclosure.interval", "enclosures", "enclosures.interval"),
    ("enclosures", "NestedIntervalsEnclosure.interval", "enclosures", "enclosures.interval"),
    ("enclosures", "ProductEnclosure.interval", "enclosures", "enclosures.interval"),
    ("enclosures", "PointEnclosure.interval", "enclosures", "enclosures.interval"),
    ("enclosures", "positive_from_level", "enclosures", "enclosures.positive_from_level"),
    ("coefflattice", "compare", "coefflattice.compare", "coefflattice.compare"),
    ("coefflattice", "SpanElement.enclosure", None, "coefflattice.span_enclosure"),
    ("coefflattice", "partition_of_one", "coefflattice.partition", "coefflattice.partition_of_one"),
    ("coefflattice", "verify_partition", "coefflattice.partition", "coefflattice.verify_partition"),
    ("linalg", "solve_exact", "linalg.solve", "linalg.solve_exact"),
    ("linalg", "is_negative_definite", "linalg.definiteness", "linalg.is_negative_definite"),
    ("linalg", "determinant", "linalg.other", "linalg.determinant"),
    ("linalg", "rref", "linalg.other", "linalg.rref"),
    ("dualgraph", "WeightedDualGraph.__post_init__", "dualgraph", "dualgraph.graph_init"),
    ("dualgraph", "WeightedDualGraph.weight", "dualgraph", "dualgraph.weight"),
    ("dualgraph", "WeightedDualGraph.adjacency", "dualgraph", "dualgraph.adjacency"),
    ("dualgraph", "WeightedDualGraph.degree", "dualgraph", "dualgraph.degree"),
    ("dualgraph", "WeightedDualGraph.induced", "dualgraph", "dualgraph.induced"),
    ("dualgraph", "is_negative_definite", "dualgraph", "dualgraph.is_negative_definite"),
    ("dualgraph", "intersection_matrix", "dualgraph", "dualgraph.intersection_matrix"),
    ("dualgraph", "graph_determinant_abs", "dualgraph", "dualgraph.graph_determinant_abs"),
    ("dualgraph", "fork_census", "dualgraph", "dualgraph.fork_census"),
    ("dualgraph", "split_at_edge", "dualgraph", "dualgraph.split_at_edge"),
    ("dualgraph", "find_chain", "dualgraph", "dualgraph.find_chain"),
    ("dualgraph", "hj_graph", "dualgraph", "dualgraph.hj_graph"),
    ("discrepancy", "solve_discrepancies", None, "discrepancy.solve_discrepancies"),
    ("discrepancy", "mld_point", "discrepancy.mld_point", "discrepancy.mld_point"),
    ("discrepancy", "mld_oracle", "discrepancy.oracle", "discrepancy.mld_oracle"),
    ("discrepancy", "check_convexity", "discrepancy.checks", "discrepancy.check_convexity"),
    ("discrepancy", "check_smooth_threshold", "discrepancy.checks", "discrepancy.check_smooth_threshold"),
    ("discrepancy", "check_vertex_window", "discrepancy.checks", "discrepancy.check_vertex_window"),
    ("discrepancy", "check_empty_graph_value", "discrepancy.checks", "discrepancy.check_empty_graph_value"),
    ("discrepancy", "adjunction_form", "discrepancy.checks", "discrepancy.adjunction_form"),
    ("discrepancy", "adjunction_coefficient", "discrepancy.checks", "discrepancy.adjunction_coefficient"),
    ("complements", "check_n_complement_coeffs", "complements", "complements.check_n_complement_coeffs"),
    ("complements", "check_strong_auto", "complements", "complements.check_strong_auto"),
    ("complements", "check_decomposable", "complements", "complements.check_decomposable"),
    ("complements", "epsilon_tag", "complements", "complements.epsilon_tag"),
    ("explorer", "parse_model", "explorer.parse", "explorer.parse_model"),
    ("explorer", "parse_basis", "explorer.parse", "explorer.parse_basis"),
    ("explorer", "parse_complement_datum", "explorer.parse", "explorer.parse_complement_datum"),
    ("explorer", "value_json", "explorer.render", "explorer.value_json"),
)

COMPARE = "coefflattice.compare"
LEVEL = "coefflattice.span_enclosure"
MAX_SPANS = 200_000  # spans kept for the trace file, about 5 MB of memory


class Tracer:
    """Spans and counts of one traced run, kept in memory.

    At most MAX_SPANS spans are stored; later ones still count toward busy
    times and call counts, and ``dropped`` says how many were not kept.
    """

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # one row per span: name id, request id, parent index, start, end
        self.span_name = array("i")
        self.span_request = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.calls: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.refined_compares = 0
        self.refined_levels = 0
        self.request = -1
        # open spans: [layer, span index, child seconds, enclosure levels]
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def span(self, layer: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, layer)

    def _open(self, layer: str) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        idx = -1
        if len(self.span_start) < MAX_SPANS:
            name = self._ids.get(layer)
            if name is None:
                name = self._ids[layer] = len(self.names)
                self.names.append(layer)
            idx = len(self.span_start)
            self.span_name.append(name)
            self.span_request.append(self.request)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            self.dropped += 1
        frame = [layer, idx, 0.0, 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        self.busy[frame[0]] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        if frame[0] == COMPARE and frame[3]:
            self.refined_compares += 1
            self.refined_levels += frame[3]
        if frame[1] >= 0:
            self.span_start[frame[1]] = start
            self.span_end[frame[1]] = end

    # ---------------------------------------------------------- install

    def _wrapper(self, fn, layer, counter):
        tracer = self
        clock = time.perf_counter

        if layer is None:
            if counter == LEVEL:

                @functools.wraps(fn)
                def count_level(*args, **kwargs):
                    tracer.calls[counter] += 1
                    stack = tracer._stack
                    if stack and stack[-1][0] == COMPARE:
                        stack[-1][3] += 1
                    return fn(*args, **kwargs)

                return count_level

            @functools.wraps(fn)
            def count(*args, **kwargs):
                tracer.calls[counter] += 1
                return fn(*args, **kwargs)

            return count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[counter] += 1
            frame = tracer._open(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, clock())

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "germkit" or n.startswith("germkit.")]
        for modname, attr, layer, counter in TRACED:
            owner = sys.modules[f"germkit.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(original, layer, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrapper(original, layer, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ----------------------------------------------------------- output

    def busy_ms(self, layer: str) -> float:
        return self.busy.get(layer, 0.0) * 1000.0

    def to_json(self) -> dict:
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        return {
            "layers": self.names,
            "spans": [
                [
                    self.span_name[i],
                    self.span_request[i],
                    self.span_parent[i],
                    round((self.span_start[i] - t0) * 1e6, 3),
                    round((self.span_end[i] - self.span_start[i]) * 1e6, 3),
                ]
                for i in range(len(self.span_start))
            ],
            "span_fields": ["layer", "request", "parent", "start_us", "duration_us"],
            "dropped_spans": self.dropped,
            "calls": dict(sorted(self.calls.items())),
            "busy_ms": {k: v * 1000.0 for k, v in sorted(self.busy.items())},
        }


class _Span:
    def __init__(self, tracer: Tracer, layer: str):
        self.tracer, self.layer = tracer, layer

    def __enter__(self):
        self.frame = self.tracer._open(self.layer)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame, self.start, time.perf_counter())
        return False
