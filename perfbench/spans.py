"""In-memory spans around the public functions of ``qprob``, recorded from outside.

A span is (name, start, end, parent, tag).  Spans are opened by wrappers
that replace a public function everywhere a caller resolves it: the module
attribute and every from-imported copy in the ``qprob`` package (for
example ``qprob.linalg.hermitian_eigen`` and ``qprob.events.hermitian_eigen``).
Class constructors are wrapped through ``__init__`` so that every
construction, also inside classmethods and library code, is seen.  The
wrappers are removed when the :func:`instrument` context ends.

Only the calling process is traced: forked pool workers inherit the
wrappers but their spans stay in the child and are lost.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    tag: Any = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Spans:
    """Span recorder with an explicit parent stack (single-threaded use)."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, tag: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0, 0, stack[-1] if stack else -1, None if tag is None else tag(*args, **kwargs))
            spans.append(span)
            stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per name: calls, total and self seconds, and per-tag call times in microseconds."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.duration_ns
        out: dict[str, dict[str, Any]] = {}
        for span, children in zip(self.spans, child_ns):
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "by_tag": {}})
            entry["calls"] += 1
            entry["total_s"] += span.duration_ns * 1e-9
            entry["self_s"] += (span.duration_ns - children) * 1e-9
            if span.tag is not None:
                entry["by_tag"].setdefault(span.tag, []).append(span.duration_ns * 1e-3)
        return out

    def top_level_s(self) -> float:
        """Seconds covered by spans that have no parent."""
        return sum(s.duration_ns for s in self.spans if s.parent < 0) * 1e-9


#: (module, attribute path, span name, tag function).  The attribute path is
#: "function", "Class.__init__" or "Class.classmethod".
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("qprob.cli", "main", "cli.main", None),
    ("qprob.becsim", "ensemble_interference", "becsim.ensemble_interference", None),
    ("qprob.becsim", "integrate_deterministic", "becsim.integrate_deterministic",
     lambda params: params.n_steps),
    ("qprob.svgplot", "line_plot", "svgplot.line_plot", None),
    ("qprob.verify", "run_checks", "verify.run_checks", None),
    ("qprob.sampling", "random_density", "sampling.random_density", None),
    ("qprob.quarterlaw", "BetaPairDistribution.__init__", "quarterlaw.BetaPairDistribution", None),
    ("qprob.quarterlaw", "q_split_numeric", "quarterlaw.q_split_numeric", None),
    ("qprob.quarterlaw", "pdf_normalization", "quarterlaw.pdf_normalization", None),
    ("qprob.prospects", "CompositeState.__init__", "prospects.CompositeState", None),
    ("qprob.prospects", "prospect_probabilities", "prospects.prospect_probabilities",
     lambda state, *a, **k: state.rho.dim),
    ("qprob.prospects", "mode_pfq", "prospects.mode_pfq", None),
    ("qprob.prospects", "partial_trace", "prospects.partial_trace", None),
    ("qprob.prospects", "composite_in_eigenbasis", "prospects.composite_in_eigenbasis", None),
    ("qprob.prospects", "standard_union_probability", "prospects.standard_union_probability", None),
    ("qprob.prospects", "product_state", "prospects.product_state", None),
    ("qprob.prospects", "max_entangled_state", "prospects.max_entangled_state", None),
    ("qprob.events", "DensityOperator.__init__", "events.DensityOperator",
     lambda self, *a, **k: len(a[0] if a else k["matrix"])),
    ("qprob.events", "Observable.from_matrix", "events.Observable.from_matrix", None),
    ("qprob.uncertain", "ModeWeights.normalized", "uncertain.ModeWeights", None),
    ("qprob.uncertain", "UncertainUnion.__init__", "uncertain.UncertainUnion", None),
    ("qprob.uncertain", "uncertain_probability", "uncertain.uncertain_probability", None),
    ("qprob.linalg", "hermitian_eigen", "linalg.hermitian_eigen", None),
    ("qprob.linalg", "kron", "linalg.kron", None),
)


def _package_modules() -> list[Any]:
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "qprob" or n.startswith("qprob."))]


@contextlib.contextmanager
def instrument(recorder: Spans):
    """Rebind every target to a span-recording wrapper; restore on exit."""
    undo: list[tuple[Any, str, Any]] = []
    modules = _package_modules()
    try:
        for module_name, path, name, tag in TARGETS:
            owner: Any = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(recorder.wrap(name, raw.__func__, tag))
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
            elif cls_path:
                undo.append((owner, attr, raw))
                setattr(owner, attr, recorder.wrap(name, raw, tag))
            else:
                wrapper = recorder.wrap(name, raw, tag)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            undo.append((module, key, raw))
                            setattr(module, key, wrapper)
        yield recorder
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
