"""Fused megakernel tests: the scalar TNVM's one execution path.

The contracts under test, across every opcode and every forward-mode
AD specialization path, both precisions, with and without
differentiation:

* both VM kinds compute what the bytecode means — values match a
  dense reference interpreter of the program and gradients match its
  central differences (the batched TNVM runs grouped closures, the
  scalar TNVM one generated kernel, so each is checked on its own);
* a VM rebuilt from shipped artifacts (program bytes, pickled compiled
  expressions, pickled kernel source) is **bit identical** to the
  original — the rehydration contract parallel synthesis relies on;
* a fused kernel survives pickling as source text that rehydrates
  with ``compile()``.
"""

import inspect
import pickle

import numpy as np
import pytest

from repro.circuit import QuditCircuit, build_qft_circuit, build_qsearch_ansatz, gates
from repro.jit.cache import ExpressionCache
from repro.tensornet.bytecode import BufferSpec, Instruction, Program
from repro.tensornet.network import ParamSlot
from repro.tnvm import (
    TNVM,
    BatchedTNVM,
    Differentiation,
    bind_fused_kernel,
)
from repro.tnvm.fused import attach_fused_kernel, fused_kernel_for


# ----------------------------------------------------------------------
# Program zoo: every opcode and every AD specialization path.
# ----------------------------------------------------------------------


def _qsearch_2q():
    # WRITE + MATMUL + TRANSPOSE with disjoint operand parameters.
    return build_qsearch_ansatz(2, 2, 2).compile()


def _qsearch_3q():
    return build_qsearch_ansatz(3, 1, 2).compile()


def _single_gate():
    # Root-leaf fusion: the whole program is one WRITE.
    circ = QuditCircuit.pure([2])
    circ.append_ref(circ.cache_operation(gates.u3()), 0)
    return circ.compile()


def _kron_product_rule():
    # RX(t) on wire 0 and RX(t) on wire 1: KRON with the product rule
    # (same parameter on both operands).
    circ = QuditCircuit.pure([2, 2])
    rx = circ.cache_operation(gates.rx())
    (theta,) = circ.append_ref(rx, 0)
    circ.append_ref_bound(rx, 1, [ParamSlot.param(theta)])
    return circ.compile()


def _matmul_overlap():
    # RZ(t) @ RX(t) on one wire: MATMUL with overlapping parameters.
    circ = QuditCircuit.pure([2])
    rx = circ.cache_operation(gates.rx())
    rz = circ.cache_operation(gates.rz())
    (t,) = circ.append_ref(rx, 0)
    circ.append_ref_bound(rz, 0, [ParamSlot.param(t)])
    return circ.compile()


def _scatter_write():
    # U3(t, t, 0.4): duplicated slots within one WRITE force the
    # scatter/accumulate gradient path.
    circ = QuditCircuit.pure([2])
    rx = circ.cache_operation(gates.rx())
    u3 = circ.cache_operation(gates.u3())
    (t,) = circ.append_ref(rx, 0)
    circ.append_ref_bound(
        u3, 0, [ParamSlot.param(t), ParamSlot.param(t), ParamSlot.const(0.4)]
    )
    return circ.compile()


def _hadamard_disjoint():
    # The compiler never emits HADAMARD today; build the bytecode by
    # hand so the opcode's fused emission is still covered.
    rx = gates.rx().matrix
    program = Program(
        num_params=2,
        radices=(2,),
        expressions=[rx],
        buffers=[
            BufferSpec(0, 4, (0,), False),
            BufferSpec(1, 4, (1,), False),
            BufferSpec(2, 4, (0, 1), False),
        ],
        dynamic_section=[
            Instruction("WRITE", out_buf=0, expr_id=0, slots=(0,), params=(0,)),
            Instruction("WRITE", out_buf=1, expr_id=0, slots=(1,), params=(1,)),
            Instruction(
                "HADAMARD",
                out_buf=2,
                a_buf=0,
                b_buf=1,
                a_shape=(2, 2),
                b_shape=(2, 2),
                params=(0, 1),
            ),
        ],
        output_buffer=2,
        output_shape=(2, 2),
    )
    program.validate()
    return program


def _hadamard_overlap():
    # Both HADAMARD operands depend on the same parameter: product rule.
    rx = gates.rx().matrix
    program = Program(
        num_params=1,
        radices=(2,),
        expressions=[rx],
        buffers=[
            BufferSpec(0, 4, (0,), False),
            BufferSpec(1, 4, (0,), False),
            BufferSpec(2, 4, (0,), False),
        ],
        dynamic_section=[
            Instruction("WRITE", out_buf=0, expr_id=0, slots=(0,), params=(0,)),
            Instruction("WRITE", out_buf=1, expr_id=0, slots=(0,), params=(0,)),
            Instruction(
                "HADAMARD",
                out_buf=2,
                a_buf=0,
                b_buf=1,
                a_shape=(2, 2),
                b_shape=(2, 2),
                params=(0,),
            ),
        ],
        output_buffer=2,
        output_shape=(2, 2),
    )
    program.validate()
    return program


def _constant_circuit():
    # Fully constant: empty dynamic section, megakernel is a no-op.
    return build_qft_circuit(2).compile()


PROGRAMS = {
    "single-gate": _single_gate,
    "qsearch-2q": _qsearch_2q,
    "qsearch-3q": _qsearch_3q,
    "kron-product-rule": _kron_product_rule,
    "matmul-overlap": _matmul_overlap,
    "scatter-write": _scatter_write,
    "hadamard-disjoint": _hadamard_disjoint,
    "hadamard-overlap": _hadamard_overlap,
    "constant": _constant_circuit,
}


@pytest.fixture(scope="module")
def programs():
    return {name: build() for name, build in PROGRAMS.items()}


def _params_for(program, seed=0):
    return np.random.default_rng(seed).uniform(
        -2 * np.pi, 2 * np.pi, program.num_params
    )


# ----------------------------------------------------------------------
# Independent references
# ----------------------------------------------------------------------


#: unsimplified per-gate writers for the reference interpreter
_REFERENCE_CACHE = ExpressionCache()


def _reference(program, params):
    """The program's output by direct dense interpretation of its
    bytecode: fresh arrays, ``np.kron``/``@``/``*``, per-gate
    expressions evaluated standalone and unsimplified — no arena,
    views, e-graph or megakernel."""
    vals = {}
    for instr in program.const_section + program.dynamic_section:
        op = instr.opcode
        if op == "WRITE":
            expr = _REFERENCE_CACHE.get(
                program.expressions[instr.expr_id], grad=False, simplify=False
            )
            out = expr.unitary([params[j] for j in instr.slots])
        elif op == "TRANSPOSE":
            out = vals[instr.a_buf].reshape(instr.shape).transpose(instr.perm)
        else:
            a = vals[instr.a_buf].reshape(instr.a_shape)
            b = vals[instr.b_buf].reshape(instr.b_shape)
            if op == "MATMUL":
                out = a @ b
            elif op == "KRON":
                out = np.kron(a, b)
            else:
                out = a * b
        vals[instr.out_buf] = np.ravel(out)
    return vals[program.output_buffer].reshape(program.output_shape)


def _reference_grad(program, params, h=1e-6):
    params = np.asarray(params, dtype=np.float64)
    rows = []
    for k in range(program.num_params):
        step = np.zeros_like(params)
        step[k] = h
        rows.append(
            (_reference(program, params + step)
             - _reference(program, params - step)) / (2 * h)
        )
    return np.asarray(rows).reshape(
        (program.num_params,) + tuple(program.output_shape)
    )


def _tolerances(precision):
    return (1e-12, 1e-6) if precision == "f64" else (1e-5, 1e-4)


def _check_rows(program, precision, params, values, grads=None):
    atol, gtol = _tolerances(precision)
    for s, p in enumerate(params):
        np.testing.assert_allclose(
            values[s], _reference(program, p), atol=atol, rtol=0
        )
        if grads is not None:
            np.testing.assert_allclose(
                grads[s], _reference_grad(program, p), atol=gtol, rtol=0
            )


# ----------------------------------------------------------------------
# Rehydration: rebuild a VM from shipped artifacts only
# ----------------------------------------------------------------------


def _shipped(program, vm):
    """A fresh program and expression cache carrying only what a
    serialized engine ships: program bytes and pickled compiled
    expressions (with their batched writers)."""
    for compiled in vm.compiled:
        if compiled.num_params > 0:
            _ = compiled.write_batched
    clone = Program.from_bytes(program.to_bytes())
    cache = ExpressionCache()
    for compiled in pickle.loads(pickle.dumps(vm.compiled)):
        cache.put(compiled)
    return clone, cache


def _rehydrated_scalar(program, precision, diff):
    vm = TNVM(program, precision=precision, diff=diff)
    clone, cache = _shipped(program, vm)
    kernel = pickle.loads(pickle.dumps(vm.fused_kernel))
    attach_fused_kernel(clone, kernel)
    twin = TNVM(clone, precision=precision, diff=diff, cache=cache)
    assert twin.fused_kernel is kernel  # bound, never re-fused
    return vm, twin


def _rehydrated_batched(program, batch, precision, diff):
    vm = BatchedTNVM(program, batch, precision=precision, diff=diff)
    clone, cache = _shipped(program, vm)
    twin = BatchedTNVM(clone, batch, precision=precision, diff=diff, cache=cache)
    return vm, twin


class TestOpcodeCoverage:
    def test_zoo_spans_all_five_opcodes(self, programs):
        seen = {
            instr.opcode
            for program in programs.values()
            for instr in program.dynamic_section
        }
        assert seen == {"WRITE", "MATMUL", "KRON", "HADAMARD", "TRANSPOSE"}


class TestScalarEquivalence:
    @pytest.mark.parametrize("name", list(PROGRAMS))
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_grad_bit_identical(self, programs, name, precision):
        program = programs[name]
        vm, twin = _rehydrated_scalar(
            program, precision, Differentiation.GRADIENT
        )
        params = [_params_for(program, seed) for seed in range(3)]
        values, grads = [], []
        for p in params:
            u1, g1 = map(np.copy, vm.evaluate_with_grad(p))
            u2, g2 = twin.evaluate_with_grad(p)
            assert np.array_equal(u1, u2)
            assert np.array_equal(g1, g2)
            values.append(u1)
            grads.append(g1)
        _check_rows(program, precision, params, values, grads)

    @pytest.mark.parametrize("name", list(PROGRAMS))
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_no_grad_bit_identical(self, programs, name, precision):
        program = programs[name]
        vm, twin = _rehydrated_scalar(
            program, precision, Differentiation.NONE
        )
        p = _params_for(program, 7)
        u = np.copy(vm.evaluate(p))
        assert np.array_equal(u, twin.evaluate(p))
        _check_rows(program, precision, [p], [u])


class TestBatchedEquivalence:
    @pytest.mark.parametrize("name", list(PROGRAMS))
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_grad_bit_identical(self, programs, name, precision):
        program = programs[name]
        batch = 5
        rows = np.random.default_rng(11).uniform(
            -2 * np.pi, 2 * np.pi, (batch, program.num_params)
        )
        vm, twin = _rehydrated_batched(
            program, batch, precision, Differentiation.GRADIENT
        )
        u1, g1 = map(np.copy, vm.evaluate_with_grad(rows))
        u2, g2 = twin.evaluate_with_grad(rows)
        assert np.array_equal(u1, u2)
        assert np.array_equal(g1, g2)
        _check_rows(program, precision, rows, u1, g1)

    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_no_grad_bit_identical(self, programs, name):
        program = programs[name]
        rows = np.random.default_rng(13).uniform(
            -2 * np.pi, 2 * np.pi, (3, program.num_params)
        )
        vm, twin = _rehydrated_batched(
            program, 3, "f64", Differentiation.NONE
        )
        u = np.copy(vm.evaluate(rows))
        assert np.array_equal(u, twin.evaluate(rows))
        _check_rows(program, "f64", rows, u)

    def test_batched_matches_scalar_rows(self, programs):
        # Cross-check of the two VM kinds: each batch row equals the
        # scalar VM to rounding.
        program = programs["qsearch-2q"]
        rows = np.random.default_rng(17).uniform(-np.pi, np.pi, (4, 18))
        scalar = TNVM(program)
        batched = BatchedTNVM(program, 4)
        ub, gb = batched.evaluate_with_grad(rows)
        for s in range(4):
            us, gs = scalar.evaluate_with_grad(rows[s])
            assert np.allclose(ub[s], us, atol=1e-12)
            assert np.allclose(gb[s], gs, atol=1e-12)


class TestBackendKnob:
    """Each VM kind has one execution path; no argument selects another."""

    def test_batched_auto_stays_on_closures(self, programs):
        program = programs["qsearch-2q"]
        vm = BatchedTNVM(program, 4)
        assert not hasattr(vm, "fused_kernel")
        # Same-expression WRITEs collapse into one grouped closure each.
        writes = [i for i in program.dynamic_section if i.opcode == "WRITE"]
        assert len(vm._dynamic) < len(program.dynamic_section)
        assert len(writes) > len({i.expr_id for i in writes})

    def test_vm_rejects_unknown_backend(self, programs):
        for vm_type in (TNVM, BatchedTNVM):
            assert "backend" not in inspect.signature(vm_type).parameters
        with pytest.raises(TypeError):
            TNVM(programs["single-gate"], **{"backend": "closures"})

    def test_auto_picks_fused_for_small_dims(self):
        # ...and for every larger one: the scalar VM always fuses.
        for radices in ([2, 2], [3, 3], [2, 2, 2, 2], [3, 3, 3]):
            circuit = build_qsearch_ansatz(len(radices), 1, radices[0])
            vm = TNVM(circuit.compile())
            assert vm.fused_kernel.num_instructions == len(
                vm.program.dynamic_section
            )

    def test_closures_vm_has_no_kernel(self):
        program = PROGRAMS["hadamard-overlap"]()
        vm = BatchedTNVM(program, 2)
        assert not hasattr(vm, "fused_kernel")
        assert "_fused_kernels" not in program.__dict__

    def test_fused_vm_single_dispatch(self, programs):
        vm = TNVM(programs["qsearch-2q"])
        kernel = vm.fused_kernel
        assert kernel.num_instructions == len(
            programs["qsearch-2q"].dynamic_section
        )
        assert kernel.num_write_stores > 0


class TestKernelCachingAndSerialization:
    def test_kernel_cached_per_program(self, programs):
        program = PROGRAMS["qsearch-2q"]()
        vm1 = TNVM(program)
        vm2 = TNVM(program, precision="f32")
        assert vm1.fused_kernel is vm2.fused_kernel  # one generation
        nograd = TNVM(program, diff=Differentiation.NONE)
        assert nograd.fused_kernel is not vm1.fused_kernel
        assert not nograd.fused_kernel.grad

    def test_kernel_pickle_round_trip_rebinds(self, programs):
        program = programs["qsearch-2q"]
        vm = TNVM(program)
        clone_kernel = pickle.loads(pickle.dumps(vm.fused_kernel))
        assert clone_kernel.source == vm.fused_kernel.source
        run = bind_fused_kernel(clone_kernel, vm.plan)
        p = _params_for(program, 3)
        reference_u, reference_g = map(
            np.copy, vm.evaluate_with_grad(p)
        )
        run(tuple(p))  # re-executes the dynamic section on vm's arena
        u, g = vm.evaluate_with_grad(p)
        assert np.array_equal(u, reference_u)
        assert np.array_equal(g, reference_g)

    def test_program_bytes_stay_lean(self):
        # Kernel caches must never leak into Program.to_bytes; they
        # ship explicitly with SerializedEngine instead.
        program = PROGRAMS["qsearch-2q"]()
        bare = len(program.to_bytes())
        vm = TNVM(program)
        fused_kernel_for(program, vm.compiled, grad=False)
        assert len(program.to_bytes()) == bare
        clone = Program.from_bytes(program.to_bytes())
        assert "_fused_kernels" not in clone.__dict__

    def test_constant_section_runs_once_at_bind(self, programs):
        program = programs["constant"]
        assert program.const_section and not program.dynamic_section
        vm = TNVM(program, diff=Differentiation.NONE)
        expected = np.copy(vm.evaluate(()))
        vm.plan.value_arena[:] = 0  # a sweep must not rewrite constants
        assert not np.any(vm.evaluate(()))
        run = bind_fused_kernel(vm.fused_kernel, vm.plan)
        assert np.array_equal(vm.evaluate(()), expected)
        run(())
        assert np.array_equal(vm.evaluate(()), expected)
