"""Spans around the library's public calls, recorded from outside the package.

While a ``Tracer`` is installed it replaces selected functions in the
``spincount`` module namespaces with wrappers that record one span per call:
name, start, end, parent span and the benchmark job that caused it.  Calls the
library makes through its own module globals (``estimate_z_fpras`` calling
``build_triangle_graph``, ``holant_fourier_form`` calling ``to_holant``) go
through the wrappers too, so nesting is recorded without touching ``src/``.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

# (module, attribute, span name).  A function imported into a second module is
# wrapped under both bindings with one span name.
TRACED = (
    ("funcs", "fourier", "funcs.fourier"),
    ("funcs", "inverse_fourier", "funcs.inverse_fourier"),
    ("funcs", "property_report", "funcs.property_report"),
    ("classify", "classify_two_spin", "classify.classify_two_spin"),
    ("gadgets", "pinning_analysis", "gadgets.pinning_analysis"),
    ("instances", "parse", "instances.parse"),
    ("instances", "to_holant", "instances.to_holant"),
    ("instances", "z_exact", "instances.z_exact"),
    ("instances", "z_product_type", "instances.z_product_type"),
    ("matching", "to_holant", "instances.to_holant"),
    ("matching", "estimate_z_fpras", "matching.estimate_z_fpras"),
    ("matching", "lift_instance", "matching.lift_instance"),
    ("matching", "holant_fourier_form", "matching.holant_fourier_form"),
    ("matching", "build_triangle_graph", "matching.build_triangle_graph"),
    ("matching", "integerize", "matching.integerize"),
    ("matching", "estimate_pm", "matching.estimate_pm"),
    ("matching", "count_pm_exact", "matching.count_pm_exact"),
    # Private: one call per telescoping level.  Skipped if the estimator
    # no longer has it.
    ("matching", "_condition_level", "matching.level"),
    ("cli", "main", "cli.main"),
)


def _integerize_counts(args: tuple, result: object) -> dict:
    unit, d = result
    return {"unit_edges": len(unit.edges), "denominator": d}


# Sizes read off a call's arguments or result, kept on its span.
COUNTERS: dict[str, Callable[[tuple, object], dict]] = {
    "matching.integerize": _integerize_counts,
    "matching.count_pm_exact": lambda args, result: {"graph_vertices": len(args[0].vertices)},
    "instances.to_holant": lambda args, result: {
        "holant_variables": len(result.holant.variables)
    },
}


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: str
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``job`` names the benchmark job running."""

    def __init__(self, package: object) -> None:
        self.package = package
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(span_id, name, time.perf_counter(), 0.0, parent, self.job)
            self.spans.append(span)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for module_name, attr, name in TRACED:
                module = getattr(self.package, module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
