"""CompiledExpression: the JIT'd form of a QGL unitary expression."""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..egraph.runner import RunnerLimits, simplify_all
from ..symbolic import expr as E
from ..symbolic.matrix import ExpressionMatrix
from .codegen import CodegenResult, compile_source, compile_writer

__all__ = ["CompiledExpression", "GateRoots", "element_keys", "element_order"]


def element_keys(matrix: ExpressionMatrix) -> list[tuple[str, str]]:
    """Alpha-renamed ``(re, im)`` s-expressions of each element, row-major.

    Parameters are renamed by position, so gates that differ only in
    parameter names (or object identity) produce the same keys.
    """
    rename = {p: f"_p{k}" for k, p in enumerate(matrix.params)}
    keys = []
    for _, elem in matrix.elements():
        renamed = elem.rename_variables(rename)
        keys.append((E.to_sexpr(renamed.re), E.to_sexpr(renamed.im)))
    return keys


def element_order(keys: list[tuple[str, str]]) -> list[int]:
    """The canonical element order: row-major indices sorted by key length,
    then by key.

    Every layout of one gate (a permutation of its elements) has the
    same key multiset, so it lists the gate's elements in the same
    canonical order.  Shorter elements sort first: the greedy extractor
    zeroes the cost of what it has extracted, so extracting ``e^(iλ)``
    and ``e^(iϕ)`` before ``e^(i(ϕ+λ))`` lets the latter reuse them as
    one product (paper section III-C); a plain lexicographic order puts
    U3's ``(1, 1)`` element first and costs it two extra trig calls.
    """
    return sorted(
        range(len(keys)),
        key=lambda i: (len(keys[i][0]) + len(keys[i][1]), keys[i]),
    )


class GateRoots:
    """A gate's joint e-graph root list, independent of its layout.

    ``roots`` holds ``re, im`` of every element in canonical element
    order, then the same for each parameter's gradient.  The roots are
    built and simplified once per gate; each layout then gathers its
    entries through its own :func:`element_order`, so a permuted layout
    (leaf fusion's ``.perm``) only pays code generation.
    """

    __slots__ = ("params", "roots", "has_grad")

    def __init__(
        self,
        matrix: ExpressionMatrix,
        order: list[int],
        grad: bool = True,
        simplify: bool = True,
        limits: RunnerLimits | None = None,
    ):
        grads = matrix.gradient() if grad else []
        roots = []
        for mat in [matrix, *grads]:
            elems = [elem for _, elem in mat.elements()]
            for i in order:
                roots.append(elems[i].re)
                roots.append(elems[i].im)
        if simplify:
            # One e-graph holds every component of the unitary and its
            # gradient; the greedy extractor's zero-cost CSE works
            # across the whole batch.
            with telemetry.tracer().span(
                "egraph.simplify", category="compile",
                expr=matrix.name, roots=len(roots),
            ):
                roots = simplify_all(roots, limits=limits)
            telemetry.metrics().counter("compile.egraph_runs").add()
        self.params = matrix.params
        self.roots = roots
        self.has_grad = bool(grads)

    def entries(self, matrix: ExpressionMatrix, order: list[int]) -> tuple:
        """The ``(unitary_entries, grad_entries)`` of one layout.

        ``matrix`` is a layout of this gate and ``order`` its canonical
        element order; entries come out in the layout's row-major order.
        """
        roots = self.roots
        if matrix.params != self.params:
            rename = dict(zip(self.params, matrix.params))
            roots = [E.rename_variables(root, rename) for root in roots]
        # offset[f]: where row-major element f's ``re`` sits in a block.
        offset = [0] * len(order)
        for r, f in enumerate(order):
            offset[f] = 2 * r
        positions = [idx for idx, _ in matrix.elements()]
        unitary_entries = [
            (idx, roots[offset[f]], roots[offset[f] + 1])
            for f, idx in enumerate(positions)
        ]
        grad_entries = []
        if self.has_grad:
            for k in range(len(self.params)):
                base = 2 * len(order) * (k + 1)
                grad_entries.extend(
                    ((k, *idx), roots[base + offset[f]], roots[base + offset[f] + 1])
                    for f, idx in enumerate(positions)
                )
        return unitary_entries, grad_entries


class CompiledExpression:
    """A gate expression compiled to fast native-Python writers.

    Construction performs the full expression pipeline from paper
    sections III-C and IV-B:

    1. symbolic differentiation of the unitary (if ``grad=True``),
    2. a joint e-graph simplification pass over every real/imaginary
       component of the unitary and gradient (if ``simplify=True``),
    3. code generation and compilation of the specialized writers.

    Steps 1 and 2 produce a :class:`GateRoots`; pass ``gate`` (built
    from another layout of the same gate, with the same flags) to skip
    them.  ``order`` is ``matrix``'s :func:`element_order`.

    The compiled object is immutable and safe to share: the TNVM of
    every circuit referencing the same gate reuses one instance through
    the :class:`~repro.jit.cache.ExpressionCache`.
    """

    __slots__ = (
        "matrix",
        "shape",
        "radices",
        "num_params",
        "name",
        "_result",
        "simplified",
        "_has_grad",
        "_entries",
        "_batched_result",
    )

    def __init__(
        self,
        matrix: ExpressionMatrix,
        grad: bool = True,
        simplify: bool = True,
        limits: RunnerLimits | None = None,
        *,
        order: list[int] | None = None,
        gate: GateRoots | None = None,
    ):
        self.matrix = matrix
        self.shape = matrix.shape
        self.radices = tuple(matrix.radices)
        self.num_params = matrix.num_params
        self.name = matrix.name

        if order is None:
            order = element_order(element_keys(matrix))
        if gate is None:
            gate = GateRoots(matrix, order, grad, simplify, limits)
        self._has_grad = gate.has_grad
        self.simplified = simplify

        unitary_entries, grad_entries = gate.entries(matrix, order)
        func_name = _sanitize(matrix.name) or "expr"
        self._result: CodegenResult = compile_writer(
            unitary_entries, grad_entries, matrix.params, func_name
        )
        # Retained so the batched writer variant can be generated on
        # demand (the batched TNVM is the only consumer; compiling it
        # eagerly would double JIT latency for every scalar user).
        self._entries = (unitary_entries, grad_entries, func_name)
        self._batched_result: CodegenResult | None = None

    # ------------------------------------------------------------------
    # Serialization (cross-process engine sharing)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle the *products* of the expensive pipeline.

        The generated source (plus its codegen metadata) stands in for
        the unpicklable compiled functions; the simplified entry triples
        are kept so the batched writer variant can still be generated
        on demand after rehydration.  Differentiation and e-graph
        simplification are never re-run on load.
        """
        result = self._result
        batched = self._batched_result
        return {
            "matrix": self.matrix,
            "simplified": self.simplified,
            "has_grad": self._has_grad,
            "entries": self._entries,
            "source": result.source,
            "num_dynamic": result.num_dynamic_entries,
            "num_constant": result.num_constant_entries,
            "total_cost": result.total_cost,
            "batched_source": batched.source if batched is not None else None,
        }

    def __setstate__(self, state):
        matrix = state["matrix"]
        self.matrix = matrix
        self.shape = matrix.shape
        self.radices = tuple(matrix.radices)
        self.num_params = matrix.num_params
        self.name = matrix.name
        self.simplified = state["simplified"]
        self._has_grad = state["has_grad"]
        self._entries = state["entries"]
        func_name = self._entries[2]
        self._result = compile_source(
            state["source"],
            func_name,
            False,
            state["num_dynamic"],
            state["num_constant"],
            state["total_cost"],
        )
        batched_source = state["batched_source"]
        self._batched_result = (
            compile_source(
                batched_source,
                func_name + "_batched",
                True,
                state["num_dynamic"],
                state["num_constant"],
                state["total_cost"],
            )
            if batched_source is not None
            else None
        )

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    @property
    def write(self):
        """``write(params, out, grad=None)`` — the JIT'd hot function."""
        return self._result.write

    @property
    def write_constants(self):
        """One-time writer for parameter-independent entries.

        Constant entries are written as complex scalars, so the same
        function also initializes batched views (the scalar assignment
        broadcasts over the trailing batch axis).
        """
        return self._result.write_constants

    @property
    def write_batched(self):
        """``write(param_rows, out, grad=None)`` vectorized over a batch.

        ``param_rows[k]`` is a length-``S`` vector and ``out``/``grad``
        carry a trailing batch axis of length ``S``.  Compiled lazily on
        first access and cached on the (shared) instance; compilation is
        idempotent, so a benign race at worst compiles twice.
        """
        result = self._batched_result
        if result is None:
            unitary_entries, grad_entries, func_name = self._entries
            result = compile_writer(
                unitary_entries,
                grad_entries,
                self.matrix.params,
                func_name + "_batched",
                batched=True,
            )
            self._batched_result = result
        return result.write

    @property
    def entries(self):
        """The simplified ``(unitary_entries, grad_entries)`` triples.

        These are the exact post-simplification expression trees the
        writers were generated from; the scalar TNVM's megakernel
        re-emits them inline (via
        :func:`~repro.jit.codegen.generate_inline_write`) so it computes
        bit-identical values to the standalone writers.
        """
        return self._entries[0], self._entries[1]

    # ------------------------------------------------------------------
    # Convenience (allocating) entry points
    # ------------------------------------------------------------------
    def unitary(self, params=(), dtype=np.complex128) -> np.ndarray:
        self._check(params)
        out = np.zeros(self.shape, dtype=dtype)
        if self._has_grad:
            # The hot writer was specialized for gradient output; feed
            # it a throwaway stack on this (cold) convenience path.
            grad = np.zeros((self.num_params,) + self.shape, dtype=dtype)
            self._result.write(params, out, grad)
        else:
            self._result.write(params, out)
        self._result.write_constants(out)
        return out

    def unitary_and_grad(
        self, params=(), dtype=np.complex128
    ) -> tuple[np.ndarray, np.ndarray]:
        self._check(params)
        out = np.zeros(self.shape, dtype=dtype)
        grad = np.zeros((self.num_params,) + self.shape, dtype=dtype)
        self._result.write_constants(out, grad)
        self._result.write(params, out, grad)
        return out, grad

    def _check(self, params) -> None:
        if len(params) != self.num_params:
            raise ValueError(
                f"{self.name or 'expression'} expects {self.num_params} "
                f"parameters, got {len(params)}"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def source(self) -> str:
        """The generated Python source (the JIT 'assembly listing')."""
        return self._result.source

    @property
    def total_cost(self) -> float:
        """Table I cost of the compiled dynamic entries."""
        return self._result.total_cost

    @property
    def num_dynamic_entries(self) -> int:
        """Entries rewritten on every call (parameter-dependent)."""
        return self._result.num_dynamic_entries

    @property
    def num_constant_entries(self) -> int:
        """Entries written once at initialization."""
        return self._result.num_constant_entries

    def __repr__(self) -> str:
        return (
            f"<CompiledExpression {self.name or '?'} {self.shape} "
            f"params={self.num_params} cost={self.total_cost:.1f}>"
        )


def _sanitize(name: str | None) -> str:
    if not name:
        return ""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)
