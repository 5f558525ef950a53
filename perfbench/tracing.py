"""Outside-in layer tracing for the benchmark.

The tracer wraps public callables of the library at the module or class
attribute each caller resolves at call time, records one span per call
(name, start, end, parent) in memory, and restores every original
attribute on exit.  Nothing inside ``src/`` is edited, so the traced
library is the same code the untraced run measures.

Wrap points are looked up by name.  A point that no longer exists (a
later change deleted the scalar LM or a residual class, say) is skipped
and reported instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

#: (layer, "module:attribute.path") pairs.  A layer may own several
#: points; a point that cannot be resolved is skipped and reported.
WRAP_POINTS: tuple[tuple[str, str], ...] = (
    ("egraph.simplify", "repro.jit.compiled:simplify_all"),
    ("jit.codegen", "repro.jit.compiled:compile_writer"),
    ("tensornet.compile", "repro.circuit.circuit:compile_network"),
    ("tensornet.pathfind", "repro.tensornet.compiler:find_contraction_path"),
    ("tnvm.fuse", "repro.tnvm.fused:generate_fused_kernel"),
    ("tnvm.build", "repro.tnvm.vm:TNVM.__init__"),
    ("tnvm.build", "repro.tnvm.vm:BatchedTNVM.__init__"),
    ("tnvm.sweep", "repro.tnvm.vm:TNVM.evaluate_with_grad"),
    ("tnvm.batched_sweep", "repro.tnvm.vm:BatchedTNVM.evaluate_with_grad"),
    (
        "instantiation.residuals",
        "repro.instantiation.cost:HilbertSchmidtResiduals.residuals_and_jacobian",
    ),
    (
        "instantiation.residuals",
        "repro.instantiation.cost:BatchedHilbertSchmidtResiduals"
        ".residuals_and_jacobian",
    ),
    (
        "instantiation.residuals",
        "repro.instantiation.cost:StateResiduals.residuals_and_jacobian",
    ),
    (
        "instantiation.residuals",
        "repro.instantiation.cost:BatchedStateResiduals.residuals_and_jacobian",
    ),
    ("instantiation.lm", "repro.instantiation.instantiater:levenberg_marquardt"),
    (
        "instantiation.lm",
        "repro.instantiation.batched:batched_levenberg_marquardt",
    ),
    ("instantiation.engine", "repro.instantiation.instantiater:Instantiater.__init__"),
    ("synthesis.search", "repro.synthesis.search:SynthesisSearch.synthesize"),
    ("synthesis.search", "repro.synthesis.resynth:Resynthesizer.resynthesize"),
)


def _resolve(point: str):
    """``(owner, attribute, original)`` for ``module:a.b.c``, or None."""
    module_name, _, path = point.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None or not callable(original):
        return None
    return owner, attr, original


class LayerTracer:
    """Context manager that wraps :data:`WRAP_POINTS` while active.

    ``spans`` holds ``[name, start, end, parent_index]`` lists in start
    order; ``parent_index`` is ``-1`` for a root span.  Only :meth:`span`
    opens a root span; wrapped calls are recorded only beneath one.  The
    benchmark is single-threaded, so one stack gives every span its parent.
    """

    def __init__(self, points=WRAP_POINTS):
        self.points = tuple(points)
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    def __enter__(self) -> LayerTracer:
        for layer, point in self.points:
            found = _resolve(point)
            if found is None:
                self.missing.append(point)
                continue
            owner, attr, original = found
            own = isinstance(owner, type) and attr in vars(owner)
            self._restore.append((owner, attr, original, own))
            setattr(owner, attr, self.wrap(layer, original))
        return self

    def __exit__(self, *_exc) -> None:
        for owner, attr, original, own in reversed(self._restore):
            if isinstance(owner, type) and not own:
                # The class inherited the attribute; drop the shadow.
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        spans, stack = self.spans, self._stack
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        """Wrap ``fn`` so calls inside an open span record a child span.

        Calls outside every span (the oracle check between ops, say) run
        unrecorded, so layer totals cover only the timed region.
        """
        # Inlined rather than built on ``span``: this runs once per VM
        # sweep, where a generator-based context manager would add
        # measurable overhead.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``total`` and ``self`` seconds and call ``count``.

        Self time is a span's duration minus the time its direct child
        spans cover; children never overlap in a single-threaded run.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = totals.setdefault(
                name, {"total": 0.0, "self": 0.0, "count": 0}
            )
            entry["total"] += end - start
            entry["self"] += end - start - child[index]
            entry["count"] += 1
        return totals

    def write_perfetto(self, path: str, pid: int) -> None:
        """Write the spans as a Chrome/Perfetto JSON trace."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": 0,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                handle,
                separators=(",", ":"),
            )

