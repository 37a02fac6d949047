"""Outside-in spans around the public functions of each zetajoin module.

A ``Tracer`` replaces every listed function in every ``zetajoin`` module
namespace that binds it (``charpoly`` is bound in ``matrices``,
``joinform`` and ``cli``; patching one name would miss the calls made
through the others), records one span per call in memory, and restores
the originals on exit.  Per-layer figures are derived from the spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# layer (module of src/zetajoin) -> public functions timed in that layer
LAYERS = {
    "matrices": ("bareiss_det", "polymat_det", "charpoly"),
    "polynomials": ("interpolate_at_integers", "series_log", "poly_gcd", "squarefree_decomposition"),
    "zeta": (
        "bass_poly",
        "hashimoto",
        "edge_zeta_reciprocal",
        "nb_walk_series",
        "zeta_log_series",
        "zeta_reciprocal",
        "spanning_trees",
        "northshield_check",
    ),
    "joinform": (
        "factor_spectrum",
        "spectrum_closed_form",
        "zeta_closed_form",
        "tau_closed_form",
        "no_symmetric_roots_check",
        "join_params",
        "verify_join",
    ),
    "numeric": ("jacobi_eigenvalues", "real_roots"),
    "graphs": ("join", "detect_semiregular"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)
# functions whose repeated inputs are wasted work: distinct inputs / calls
DISTINCT = ("matrices.charpoly", "zeta.bass_poly", "joinform.factor_spectrum")
# sum of (degree_bound + 1) * size**3 over the PolyMatrix arguments
CUBIC_WORK = "matrices.polymat_det"


class Tracer:
    """Span recorder for one pass; use as a context manager.

    ``spans`` holds (name, start, end, parent index or -1, item id).
    Set ``item`` before each item so its spans carry the item id.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.item: str | None = None
        self.distinct: dict[str, set] = {fn: set() for fn in DISTINCT}
        self.cubic_work = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        seen = self.distinct.get(name)
        cubic = name == CUBIC_WORK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(args[0])
            if cubic:
                pm = args[0]
                self.cubic_work += (pm.degree_bound + 1) * pm.size**3
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)

        return traced

    def __enter__(self) -> "Tracer":
        namespaces = [
            module
            for key, module in list(sys.modules.items())
            if key == "zetajoin" or key.startswith("zetajoin.")
        ]
        for fn in FUNCTIONS:
            layer, name = fn.split(".")
            original = getattr(sys.modules[f"zetajoin.{layer}"], name)
            traced = self._wrap(fn, original)
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, traced)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """function -> (calls, self time in seconds) over this pass.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {fn: (0, 0.0) for fn in FUNCTIONS}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_s = out[name]
            out[name] = (calls + 1, self_s + (end - start) - child_time[index])
        return out


def per_layer_metrics(tracers: list[Tracer], overhead_ratio: float) -> dict[str, float]:
    """Per-pass averages over the traced passes, keyed like BENCHMARK.json's per_layer."""
    passes = len(tracers)
    calls = {fn: 0 for fn in FUNCTIONS}
    self_s = {fn: 0.0 for fn in FUNCTIONS}
    for tracer in tracers:
        for fn, (c, s) in tracer.totals().items():
            calls[fn] += c
            self_s[fn] += s
    values: dict[str, float] = {}
    for fn in FUNCTIONS:
        values[f"{fn}.calls"] = calls[fn] / passes
        values[f"{fn}.self_s"] = self_s[fn] / passes
        if fn in DISTINCT:
            distinct = sum(len(t.distinct[fn]) for t in tracers)
            values[f"{fn}.distinct_ratio"] = distinct / calls[fn] if calls[fn] else 0.0
        if fn == CUBIC_WORK:
            values[f"{fn}.cubic_work"] = sum(t.cubic_work for t in tracers) / passes
    values["tracing.overhead_ratio"] = overhead_ratio
    return values
