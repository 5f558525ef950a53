"""Hypothesis property tests over the whole compilation pipeline.

The central invariant of the reproduction: for *any* circuit, the
AOT-compiled TNVM (tensor networks, fusion, constant hoisting, JIT'd
expressions, forward-mode AD) computes exactly the same unitary and
gradient as the straightforward dense evaluator of the baseline
framework.  :class:`TestEngineMatrixOracle` holds every engine
configuration to that oracle: both VM kinds (the scalar fused
megakernel and the batched grouped closures), full-unitary and
column contracts, both precisions, qubits and qutrits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline import build_qsearch_ansatz_baseline
from repro.baseline.evaluator import DenseEvaluator
from repro.circuit import fig5_circuit
from repro.circuit.builders import FIG5_BENCHMARKS
from repro.tensornet import OutputContract
from repro.tnvm import TNVM, BatchedTNVM, Differentiation

from ..conftest import build_random_circuit_pair


@st.composite
def circuit_specs(draw):
    seed = draw(st.integers(0, 10_000))
    num_qudits = draw(st.integers(2, 3))
    num_ops = draw(st.integers(1, 7))
    return seed, num_qudits, num_ops


class TestPipelineEquivalence:
    @given(circuit_specs())
    @settings(max_examples=15, deadline=None)
    def test_tnvm_matches_dense_evaluator(self, spec):
        seed, num_qudits, num_ops = spec
        circ, base, n = build_random_circuit_pair(
            seed, num_qudits=num_qudits, num_ops=num_ops
        )
        params = np.random.default_rng(seed + 1).uniform(
            -np.pi, np.pi, n
        )
        vm = TNVM(circ.compile(), diff=Differentiation.GRADIENT)
        u, g = vm.evaluate_with_grad(tuple(params))
        du, dg = DenseEvaluator(base).get_unitary_and_grad(params)
        assert np.allclose(u, du, atol=1e-9)
        assert np.allclose(g, dg, atol=1e-8)

    @given(circuit_specs())
    @settings(max_examples=10, deadline=None)
    def test_output_always_unitary(self, spec):
        seed, num_qudits, num_ops = spec
        circ, _, n = build_random_circuit_pair(
            seed, num_qudits=num_qudits, num_ops=num_ops
        )
        params = np.random.default_rng(seed + 2).uniform(
            -np.pi, np.pi, n
        )
        u = circ.get_unitary(params)
        eye = np.eye(circ.dim)
        assert np.allclose(u @ u.conj().T, eye, atol=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_f32_tracks_f64(self, seed):
        circ, _, n = build_random_circuit_pair(seed, num_ops=5)
        params = tuple(
            np.random.default_rng(seed).uniform(-np.pi, np.pi, n)
        )
        prog = circ.compile()
        u64 = TNVM(prog, precision="f64", diff=Differentiation.NONE)
        u32 = TNVM(prog, precision="f32", diff=Differentiation.NONE)
        assert np.allclose(
            u64.evaluate(params), u32.evaluate(params), atol=1e-4
        )


#: oracle tolerance per precision, on values and gradients alike
ORACLE_ATOL = {"f64": 1e-9, "f32": 1e-4}
ENGINE_MATRIX = [
    (kind, contract, precision)
    for kind in ("scalar", "batched")
    for contract in ("full", "column0")
    for precision in ("f64", "f32")
]
MATRIX_IDS = ["-".join(cfg) for cfg in ENGINE_MATRIX]


def _outputs(kind, program, precision, rows):
    """Per-row ``(value, gradient)`` pairs from one VM configuration."""
    if kind == "scalar":
        vm = TNVM(program, precision=precision)
        return [tuple(map(np.copy, vm.evaluate_with_grad(r))) for r in rows]
    vm = BatchedTNVM(program, batch=len(rows), precision=precision)
    values, grads = vm.evaluate_with_grad(rows)
    return list(zip(values, grads))


def _check_against_oracle(circ, base, config, seed):
    kind, contract, precision = config
    program = circ.compile(
        contract=OutputContract.column(0) if contract == "column0" else None
    )
    rows = np.random.default_rng(seed).uniform(
        -np.pi, np.pi, (3, circ.num_params)
    )
    oracle = DenseEvaluator(base)
    atol = ORACLE_ATOL[precision]
    for row, (value, grad) in zip(
        rows, _outputs(kind, program, precision, rows)
    ):
        du, dg = oracle.get_unitary_and_grad(row)
        if contract == "column0":
            du, dg = du[:, 0], dg[:, :, 0]
        np.testing.assert_allclose(value, du, atol=atol, rtol=0)
        np.testing.assert_allclose(grad, dg, atol=atol, rtol=0)


class TestEngineMatrixOracle:
    @pytest.mark.parametrize("config", ENGINE_MATRIX, ids=MATRIX_IDS)
    @given(spec=circuit_specs())
    @settings(max_examples=4, deadline=None)
    def test_random_circuits(self, config, spec):
        seed, num_qudits, num_ops = spec
        circ, base, _ = build_random_circuit_pair(
            seed, num_qudits=num_qudits, num_ops=num_ops
        )
        _check_against_oracle(circ, base, config, seed + 3)

    @pytest.mark.parametrize("config", ENGINE_MATRIX, ids=MATRIX_IDS)
    @pytest.mark.parametrize("name", ["2-qutrit shallow", "3-qutrit shallow"])
    def test_qutrit_fig5_templates(self, config, name):
        num_qudits, depth, radix = FIG5_BENCHMARKS[name]
        base = build_qsearch_ansatz_baseline(num_qudits, depth, radix=radix)
        _check_against_oracle(fig5_circuit(name), base, config, seed=5)
