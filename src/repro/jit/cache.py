"""The ExpressionCache (paper section IV-B).

JIT compilation of a single QGL expression costs milliseconds while one
numerical evaluation costs microseconds; the cache amortizes that cost.
Expressions are keyed by their *alpha-renamed canonical form* — two
gates that differ only in parameter names (or object identity) share one
compiled artifact — so each unique QGL expression is compiled exactly
once per process, across all circuits and TNVM instantiations.

Behind that exact, per-layout table sits a gate table keyed by the
*multiset* of alpha-renamed elements.  Leaf fusion hands the cache
element permutations of gates it has already seen (``U3.perm``,
``CX.perm``); those miss the exact table but hit the gate table, and
reuse its differentiated, simplified roots, so the e-graph runs once
per distinct gate and each further layout only pays code generation.
"""

from __future__ import annotations

import threading

from ..egraph.runner import RunnerLimits
from ..symbolic.matrix import ExpressionMatrix
from .compiled import CompiledExpression, GateRoots, element_keys, element_order

__all__ = ["ExpressionCache", "global_cache", "canonical_key"]


def canonical_key(
    matrix: ExpressionMatrix, grad: bool, simplify: bool,
    keys: list[tuple[str, str]] | None = None,
) -> tuple:
    """A hashable alpha-invariant key for a gate expression in one layout.

    ``keys`` are ``matrix``'s :func:`element_keys`, if already computed.
    """
    if keys is None:
        keys = element_keys(matrix)
    return (
        matrix.shape,
        tuple(matrix.radices),
        len(matrix.params),
        grad,
        simplify,
        tuple(keys),
    )


class ExpressionCache:
    """Shared, thread-safe cache of :class:`CompiledExpression` objects.

    ``hits`` and ``misses`` count lookups of the exact, per-layout
    table; a miss that finds its gate in the gate table skips the
    e-graph but still counts as a miss (it compiles a new writer).
    """

    def __init__(self, limits: RunnerLimits | None = None):
        self._entries: dict[tuple, CompiledExpression] = {}
        self._gates: dict[tuple, GateRoots] = {}
        self._lock = threading.Lock()
        self._limits = limits
        self.hits = 0
        self.misses = 0

    def get(
        self,
        matrix: ExpressionMatrix,
        grad: bool = True,
        simplify: bool = True,
    ) -> CompiledExpression:
        """Fetch (or compile and insert) the JIT'd form of ``matrix``."""
        keys = element_keys(matrix)
        key = canonical_key(matrix, grad, simplify, keys)
        order = element_order(keys)
        gate_key = (
            len(matrix.params), grad, simplify, tuple(keys[i] for i in order)
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                return entry
            gate = self._gates.get(gate_key)
        # Compile outside the lock; duplicate compiles are harmless and
        # the second insert wins the race benignly.
        if gate is None:
            gate = GateRoots(matrix, order, grad, simplify, self._limits)
        compiled = CompiledExpression(
            matrix, grad=grad, simplify=simplify, order=order, gate=gate
        )
        with self._lock:
            self._gates.setdefault(gate_key, gate)
            self._entries.setdefault(key, compiled)
            self.misses += 1
            return self._entries[key]

    def put(self, compiled: CompiledExpression) -> None:
        """Seed the cache with an already-compiled expression.

        Used when a serialized engine is rehydrated in another process:
        the shipped :class:`CompiledExpression` objects are inserted
        under the same alpha-invariant key :meth:`get` computes, so the
        TNVM setup that follows hits for every expression instead of
        re-paying differentiation + simplification + codegen.  An
        existing entry wins (it may already be in use by live VMs).
        """
        key = canonical_key(
            compiled.matrix, compiled._has_grad, compiled.simplified
        )
        with self._lock:
            self._entries.setdefault(key, compiled)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._gates.clear()
            self.hits = 0
            self.misses = 0


_GLOBAL = ExpressionCache()


def global_cache() -> ExpressionCache:
    """The process-wide default cache used by circuits and TNVMs."""
    return _GLOBAL
