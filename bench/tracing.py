"""Span tracer for the traced benchmark run.

Wraps the public functions named in LAYERS so that each call records a
span (layer, parent span, start, end) in memory.  A wrapper is installed
on every module attribute bound to the wrapped function object, not only
on the defining module: `bounds` imports `is_planar` by name, `witness`
imports `rank` by name, and so on, and those calls would otherwise go
untimed.  Spans are aggregated into per-layer self time and call counts
after the traced pass ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# "<module>.<function>" under the minrank_atlas package.
LAYERS = (
    "cli.main",
    "graph6.from_graph6",
    "catalog.load_atlas",
    "catalog.load_fixtures",
    "catalog.compute_all",
    "catalog.diff",
    "bounds.read_forbidden_list",
    "bounds.combine",
    "bounds.zero_forcing_number",
    "bounds.clique_cover_number",
    "bounds.is_forbidden_mr2",
    "bounds.tree_minimum_rank",
    "bounds.derive_forbidden_list",
    "minors.is_planar",
    "minors.is_outerplanar",
    "graphs.contains_induced",
    "graphs.is_isomorphic",
    "graphs.diameter",
    "graphs.articulation_points",
    "graphs.maximal_cliques",
    "ratmat.parse_rational",
    "ratmat.rank",
    "ratmat.pattern_graph",
    "witness.parse_witness_file",
    "witness.verify_witness",
)

# Counts taken from a layer's return value: layer -> (counter, extractor).
COUNTERS = {
    "catalog.diff": ("mismatches", lambda report: len(report.mismatches)),
}

PACKAGE = "minrank_atlas"


class Tracer:
    """Collects spans while installed; `install()` restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, parent index or -1, start_ns, end_ns]
        self.counts = {f"{layer}.{name}": 0 for layer, (name, _) in COUNTERS.items()}
        self._stack = [-1]

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(layer)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, stack[-1], clock(), 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if counter is not None:
                self.counts[f"{layer}.{counter[0]}"] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        originals = []
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(layer, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        originals.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """layer -> (self time in ms, calls).  Self time is a span's duration
        minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {layer: [0, 0] for layer in LAYERS}
        for (layer, _, start, end), covered in zip(self.spans, child_ns):
            totals[layer][0] += end - start - covered
            totals[layer][1] += 1
        return {layer: (ns / 1e6, calls) for layer, (ns, calls) in totals.items()}

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, parent, layer, start_ns, end_ns."""
        with open(path, "w", encoding="ascii") as fh:
            for i, (layer, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{layer}\t{start}\t{end}\n")
