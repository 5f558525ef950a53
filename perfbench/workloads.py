"""The benchmark's four workloads.

Each workload turns ``--seed`` into its inputs, runs ops through the
library's public API at library defaults (the caller times them), and
checks every output against an independent oracle: the dense evaluator
and gate matrices of ``repro.baseline``, never the TNVM under test.

A pass runs the workload's ``mix``: ``count`` ops of each input,
interleaved round-robin.  Throughput is a geometric mean over inputs, so
each input's share of its run-to-run spread shrinks with that input's op
count; counts grow with how much an input's op cost varies from target
to target and shrink with its cost, which keeps the spread of a
fixed-length run low.  Op
``slot`` of pass ``p`` draws its target from
``default_rng([seed, p, slot])``, so the same seed gives the same op
sequence in every run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

import repro
from repro import (
    ExpressionCache,
    Instantiater,
    OutputContract,
    Resynthesizer,
    SynthesisSearch,
)
from repro.baseline import (
    DenseEvaluator,
    build_qft_circuit_baseline,
    build_qsearch_ansatz_baseline,
    embed,
)
from repro.utils import Statevector

#: Multi-start count for every fit (the library's synthesis default).
STARTS = 8
#: Engine output vs dense oracle, max abs element difference.
MATRIX_TOL = 1e-9
#: Reported vs oracle infidelity: absolute plus relative slack.
INFIDELITY_ABS_TOL = 1e-9
INFIDELITY_REL_TOL = 1e-6


@dataclass
class Spec:
    """One op: which input, and the generated arguments it receives."""

    input: str
    args: tuple


@dataclass
class Outcome:
    """What the oracle concluded about one op's output.

    ``record`` holds the values that must repeat exactly for the same
    seed and code: counts, success, and digests of the returned numbers.
    """

    success: bool
    cx: int
    error: str | None = None
    mismatch: str | None = None
    record: dict = field(default_factory=dict)


def digest(values) -> str:
    data = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def unitary_infidelity(target: np.ndarray, actual: np.ndarray) -> float:
    """Eq. (1): ``1 - |Tr(target^dag actual)| / D``."""
    return float(1.0 - abs(np.vdot(target, actual)) / target.shape[0])


def state_infidelity(state: np.ndarray, actual: np.ndarray) -> float:
    """``1 - |<state| actual |0>|^2``."""
    return float(1.0 - abs(np.vdot(state, actual[:, 0])) ** 2)


def dense_unitary(circuit, params) -> np.ndarray:
    """Multiply each operation's expression matrix, placed by ``embed``."""
    params = np.asarray(params, dtype=np.float64)
    u = np.eye(circuit.dim, dtype=np.complex128)
    for op in circuit:
        values = [
            params[slot.index] if slot.kind == "param" else slot.value
            for slot in op.slots
        ]
        gate = circuit.expression(op.ref).evaluate(values)
        u = embed(gate, op.location, circuit.radices) @ u
    return u


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return a / np.linalg.norm(a)


def check_infidelity(reported: float, oracle: float) -> str | None:
    if abs(reported - oracle) > max(
        INFIDELITY_ABS_TOL, INFIDELITY_REL_TOL * abs(oracle)
    ):
        return f"infidelity {reported!r} but oracle gives {oracle!r}"
    return None


class Workload:
    """Base: seeded inputs, a timed ``run`` and an untimed ``check``."""

    name = ""
    #: (input, ops per pass) pairs.
    mix: tuple[tuple[str, int], ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def inputs(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.mix)

    def setup(self) -> None:
        """Prepare everything the timed ops need; may run repeatedly."""

    def specs(self, pass_index: int) -> list[Spec]:
        """Pass ``pass_index``'s ops, inputs interleaved round-robin."""
        left = dict(self.mix)
        specs = []
        while any(left.values()):
            for name in left:
                if left[name]:
                    left[name] -= 1
                    rng = np.random.default_rng(
                        [self.seed, pass_index, len(specs)]
                    )
                    specs.append(Spec(name, self.make_args(name, rng)))
        return specs

    def make_args(self, name: str, rng: np.random.Generator) -> tuple:
        raise NotImplementedError

    def begin_pass(self) -> None:
        pass

    def end_pass(self) -> None:
        pass

    def run(self, spec: Spec):
        raise NotImplementedError

    def check(self, spec: Spec, output) -> Outcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
# compile-cold
# ----------------------------------------------------------------------
def _fig5_pair(name: str):
    qudits, depth, radix = repro.FIG5_BENCHMARKS[name]
    return (
        lambda: repro.build_qsearch_ansatz(qudits, depth, radix),
        lambda: build_qsearch_ansatz_baseline(qudits, depth, radix),
    )


class CompileCold(Workload):
    """Build a circuit and its engine with a fresh ExpressionCache.

    The fresh cache makes every op pay what a fresh process pays: the
    e-graph, codegen, tensor-network compile and VM build.
    """

    name = "compile-cold"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.builders = {name: _fig5_pair(name) for name in repro.FIG5_BENCHMARKS}
        self.builders["qft-3"] = (
            lambda: repro.build_qft_circuit(3),
            lambda: build_qft_circuit_baseline(3),
        )
        self.builders["qsearch-4q"] = (
            lambda: repro.build_qsearch_ansatz(4, 3),
            lambda: build_qsearch_ansatz_baseline(4, 3),
        )
        self.mix = tuple((name, 1) for name in self.builders)

    def setup(self) -> None:
        self.twins = {
            name: DenseEvaluator(twin())
            for name, (_, twin) in self.builders.items()
        }

    def make_args(self, name: str, rng: np.random.Generator) -> tuple:
        num_params = self.twins[name].circuit.num_params
        return (rng.uniform(-np.pi, np.pi, num_params),)

    def run(self, spec: Spec):
        circuit = self.builders[spec.input][0]()
        cache = ExpressionCache()
        return circuit, cache, Instantiater(circuit, cache=cache)

    def check(self, spec: Spec, output) -> Outcome:
        circuit, cache, engine = output
        (point,) = spec.args
        u, grad = engine.vm.evaluate_with_grad(point)
        ref_u, ref_grad = self.twins[spec.input].get_unitary_and_grad(point)
        err = float(np.max(np.abs(u - ref_u)))
        if ref_grad.size:
            err = max(err, float(np.max(np.abs(grad - ref_grad))))
        mismatch = (
            f"unitary/gradient differ from the dense oracle by {err:.3g}"
            if not err <= MATRIX_TOL
            else None
        )
        return Outcome(
            success=mismatch is None,
            cx=circuit.gate_counts().get("CX", 0),
            mismatch=mismatch,
            record={
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
            },
        )


# ----------------------------------------------------------------------
# fit-fig5
# ----------------------------------------------------------------------
class FitFig5(Workload):
    """8-start full-unitary fits on the Figure 5 suite, scalar TNVM.

    Engines are built and warmed in setup; each op fits a seeded
    reachable target ``U(p_true)`` with the default sequential strategy.
    """

    name = "fit-fig5"
    #: Counts near (per-op cost spread) / sqrt(cost), measured over 10
    #: seeds: a 2-qubit or 3-qubit shallow fit costs 1 to 8 starts (per-op
    #: cost spread ~1.35x its mean) at 15-90 ms, a 3-qubit deep fit ~0.5x
    #: at ~1.4 s.
    mix = (
        ("2-qubit shallow", 50),
        ("3-qubit shallow", 14),
        ("3-qubit deep", 1),
        ("2-qutrit shallow", 6),
        ("3-qutrit shallow", 3),
    )

    def setup(self) -> None:
        repro.global_cache().clear()
        self.engines = {}
        self.twins = {}
        self.cx = {}
        for name in self.inputs:
            build, twin = _fig5_pair(name)
            circuit = build()
            engine = Instantiater(circuit)
            engine.vm.evaluate_with_grad(np.zeros(engine.num_params))
            self.engines[name] = engine
            self.twins[name] = DenseEvaluator(twin())
            self.cx[name] = circuit.gate_counts().get("CX", 0)

    def make_args(self, name: str, rng: np.random.Generator) -> tuple:
        twin = self.twins[name]
        truth = rng.uniform(-np.pi, np.pi, twin.circuit.num_params)
        return twin.get_unitary(truth), int(rng.integers(2**31))

    def run(self, spec: Spec):
        target, fit_seed = spec.args
        return self.engines[spec.input].instantiate(
            target, starts=STARTS, rng=fit_seed
        )

    def check(self, spec: Spec, output) -> Outcome:
        target, _ = spec.args
        engine = self.engines[spec.input]
        actual = self.twins[spec.input].get_unitary(output.params)
        oracle = unitary_infidelity(target, actual)
        error = None if math.isfinite(output.infidelity) else "non-finite fit"
        return Outcome(
            success=oracle <= engine.success_threshold,
            cx=self.cx[spec.input],
            error=error,
            mismatch=None if error else check_infidelity(output.infidelity, oracle),
            record={
                "success": bool(output.success),
                "starts_used": output.starts_used,
                "lm_iters": output.total_iterations,
                "lm_evals": output.total_evaluations,
                "params": digest(output.params),
                "infidelity": float(output.infidelity).hex(),
            },
        )


# ----------------------------------------------------------------------
# synth-unitary / synth-state
# ----------------------------------------------------------------------
def warm_egraph(contract=None) -> None:
    """Compile the gate layouts the searches below reach.

    Pool misses in the timed passes then build engines against a warm
    e-graph, as in a long-running process; the determinism record's
    per-op ``egraph_runs`` shows any layout this misses.
    """
    for qudits in (2, 3):
        Instantiater(repro.build_qsearch_ansatz(qudits, 2), contract=contract)
    base = repro.build_qsearch_ansatz(2, 3)
    for index in range(base.num_operations):
        Instantiater(base.without_operation(index)[0], contract=contract)


class _Synthesis(Workload):
    """Shared search plumbing: one fresh ``SynthesisSearch`` per pass."""

    state_targets = False

    def setup(self) -> None:
        repro.global_cache().clear()
        warm_egraph(OutputContract.column(0) if self.state_targets else None)

    def begin_pass(self) -> None:
        self.search = SynthesisSearch()

    def end_pass(self) -> None:
        self.search.close()

    def run(self, spec: Spec):
        target, seed = spec.args
        return self.search.synthesize(target, rng=seed), self.search

    def check(self, spec: Spec, output) -> Outcome:
        result, owner = output
        target = spec.args[0]
        actual = dense_unitary(result.circuit, result.params)
        if isinstance(target, Statevector):
            oracle = state_infidelity(target.amplitudes, actual)
        else:
            oracle = unitary_infidelity(target, actual)
        error = None
        if not math.isfinite(result.infidelity):
            error = "non-finite result"
        elif result.failed_candidates:
            error = f"{result.failed_candidates} failed candidate(s)"
        metrics = result.metrics
        return Outcome(
            success=oracle <= owner.success_threshold,
            cx=result.count("CX"),
            error=error,
            mismatch=None if error else check_infidelity(result.infidelity, oracle),
            record={
                "success": bool(result.success),
                "cx": result.count("CX"),
                "calls": result.instantiation_calls,
                "nodes": result.nodes_expanded,
                "lm_iters": metrics.get("instantiate.lm_iterations", 0),
                "lm_evals": metrics.get("instantiate.evaluations", 0),
                "pool_hits": result.engine_cache_hits,
                "pool_misses": result.engine_cache_misses,
                "params": digest(result.params),
                "infidelity": float(result.infidelity).hex(),
            },
        )


class SynthUnitary(_Synthesis):
    """QSearch-style synthesis of unitaries plus one compression."""

    name = "synth-unitary"
    mix = (("qft-2", 1), ("haar-2q", 2), ("reach-3q", 1), ("resynth-2q", 1))

    def setup(self) -> None:
        super().setup()
        self.qft2 = DenseEvaluator(build_qft_circuit_baseline(2)).get_unitary()
        self.reach3 = DenseEvaluator(build_qsearch_ansatz_baseline(3, 2))
        self.resynth2 = DenseEvaluator(build_qsearch_ansatz_baseline(2, 3))

    def make_args(self, name: str, rng: np.random.Generator) -> tuple:
        seed = int(rng.integers(2**31))
        if name == "qft-2":
            return self.qft2, seed
        if name == "haar-2q":
            return haar_unitary(4, rng), seed
        twin = self.reach3 if name == "reach-3q" else self.resynth2
        point = rng.uniform(-np.pi, np.pi, twin.circuit.num_params)
        if name == "reach-3q":
            return twin.get_unitary(point), seed
        return twin.get_unitary(point), seed, repro.build_qsearch_ansatz(2, 3), point

    def run(self, spec: Spec):
        if spec.input != "resynth-2q":
            return super().run(spec)
        target, seed, circuit, point = spec.args
        with Resynthesizer() as resynth:
            return resynth.resynthesize(
                circuit, point, target=target, rng=seed
            ), resynth


class SynthState(_Synthesis):
    """The same search on state-preparation targets (COLUMN(0) engines)."""

    name = "synth-state"
    mix = (("ghz-3", 1), ("state-3q", 3))
    state_targets = True

    def make_args(self, name: str, rng: np.random.Generator) -> tuple:
        if name == "ghz-3":
            amplitudes = np.zeros(8, dtype=np.complex128)
            amplitudes[0] = amplitudes[7] = 1 / math.sqrt(2)
        else:
            amplitudes = random_state(8, rng)
        target = Statevector.from_amplitudes(amplitudes, (2, 2, 2))
        return target, int(rng.integers(2**31))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CompileCold, FitFig5, SynthUnitary, SynthState)
}
