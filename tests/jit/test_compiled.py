"""CompiledExpression correctness across the whole gate library."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.circuit import gates
from repro.jit.compiled import CompiledExpression

ALL_GATES = [
    gates.u1(), gates.u2(), gates.u3(), gates.h(), gates.x(),
    gates.y(), gates.z(), gates.s(), gates.t(), gates.sx(),
    gates.rx(), gates.ry(), gates.rz(), gates.p(),
    gates.cx(), gates.cz(), gates.ch(), gates.cp(), gates.crz(),
    gates.swap(), gates.iswap(), gates.rxx(), gates.ryy(), gates.rzz(),
    gates.ccx(), gates.cswap(),
    gates.shift(3), gates.clock(3), gates.qudit_hadamard(3),
    gates.csum(3), gates.qutrit_phase(), gates.embedded_u3(3, 0, 2),
    gates.rdiag(4),
]


@pytest.mark.parametrize(
    "gate", ALL_GATES, ids=[g.name or "?" for g in ALL_GATES]
)
def test_compiled_matches_reference(gate):
    compiled = CompiledExpression(gate.matrix)
    params = np.random.default_rng(3).uniform(
        -np.pi, np.pi, gate.num_params
    )
    u = compiled.unitary(params)
    assert np.allclose(u, gate.unitary(params), atol=1e-12)


@pytest.mark.parametrize(
    "gate",
    [g for g in ALL_GATES if g.num_params],
    ids=[g.name or "?" for g in ALL_GATES if g.num_params],
)
def test_compiled_gradient_matches_finite_difference(gate):
    compiled = CompiledExpression(gate.matrix)
    params = np.random.default_rng(5).uniform(
        -np.pi, np.pi, gate.num_params
    )
    u, grad = compiled.unitary_and_grad(params)
    eps = 1e-7
    for k in range(gate.num_params):
        bumped = params.copy()
        bumped[k] += eps
        fd = (gate.unitary(bumped) - u) / eps
        assert np.allclose(grad[k], fd, atol=1e-5), (
            f"{gate.name} parameter {k}"
        )


class TestSimplificationEffect:
    def test_u3_trig_count_is_minimal(self):
        compiled = CompiledExpression(gates.u3().matrix)
        # sin/cos of theta/2, phi, lambda: six trig calls total for the
        # unitary *and* its full gradient.
        trig_calls = compiled.source.count("sin(") + compiled.source.count(
            "cos("
        )
        assert trig_calls == 6

    def test_unsimplified_is_no_better(self):
        fast = CompiledExpression(gates.u3().matrix, simplify=True)
        slow = CompiledExpression(gates.u3().matrix, simplify=False)
        assert fast.total_cost <= slow.total_cost
        p = (0.3, 0.9, -1.2)
        assert np.allclose(fast.unitary(p), slow.unitary(p))

    def test_no_complex_exponentials_in_source(self):
        compiled = CompiledExpression(gates.rz().matrix)
        assert "exp(" not in compiled.source  # lowered to sin/cos


class TestPrecision:
    def test_f32_write(self):
        compiled = CompiledExpression(gates.u3().matrix)
        u32 = compiled.unitary((0.5, 0.2, 0.1), dtype=np.complex64)
        u64 = compiled.unitary((0.5, 0.2, 0.1))
        assert u32.dtype == np.complex64
        assert np.allclose(u32, u64, atol=1e-6)


class TestErrors:
    def test_wrong_param_count(self):
        compiled = CompiledExpression(gates.u3().matrix)
        with pytest.raises(ValueError):
            compiled.unitary((0.5,))


_COMPILE_U2 = """
import hashlib
import numpy as np
from repro.circuit import gates
from repro.jit.compiled import CompiledExpression
from repro.symbolic import expr as E

compiled = CompiledExpression(gates.u2().matrix)
u_entries, g_entries = compiled.entries
for slot, re, im in u_entries + g_entries:
    print(slot, E.to_sexpr(re), E.to_sexpr(im))
u, grad = compiled.unitary_and_grad((0.3, -1.1))
print(hashlib.sha256(u.tobytes() + grad.tobytes()).hexdigest())
"""


def test_extraction_is_deterministic_across_hash_seeds():
    """String hashes are salted per process (and ``hash(None)`` comes
    from an address), so nothing in simplification may iterate a set of
    e-nodes: U2's extracted forms and values must be bitwise equal in
    processes with different hash seeds."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _COMPILE_U2],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
