"""Tests for the ExpressionCache (paper section IV-B)."""

import threading

import numpy as np

from repro import telemetry
from repro.circuit import build_qsearch_ansatz, gates
from repro.expression import UnitaryExpression
from repro.instantiation import Instantiater
from repro.jit.cache import ExpressionCache, canonical_key


class TestCanonicalKey:
    def test_alpha_equivalence(self):
        a = UnitaryExpression(
            "G(x) { [[cos(x), ~sin(x)], [sin(x), cos(x)]] }"
        )
        b = UnitaryExpression(
            "G(zz) { [[cos(zz), ~sin(zz)], [sin(zz), cos(zz)]] }"
        )
        assert canonical_key(a.matrix, True, True) == canonical_key(
            b.matrix, True, True
        )

    def test_distinct_semantics_distinct_keys(self):
        a = gates.rx().matrix
        b = gates.ry().matrix
        assert canonical_key(a, True, True) != canonical_key(
            b, True, True
        )

    def test_flags_partition_cache(self):
        m = gates.rx().matrix
        assert canonical_key(m, True, True) != canonical_key(
            m, False, True
        )


class TestCache:
    def test_hit_miss_accounting(self):
        cache = ExpressionCache()
        cache.get(gates.rx().matrix)
        cache.get(gates.rx().matrix)
        cache.get(gates.ry().matrix)
        assert cache.misses == 2
        assert cache.hits == 1
        assert len(cache) == 2

    def test_alpha_equivalent_gates_share(self):
        cache = ExpressionCache()
        a = UnitaryExpression("A(u) { [[1, 0], [0, e^(i*u)]] }")
        b = UnitaryExpression("B(v) { [[1, 0], [0, e^(i*v)]] }")
        assert cache.get(a.matrix) is cache.get(b.matrix)

    def test_clear(self):
        cache = ExpressionCache()
        cache.get(gates.rx().matrix)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == cache.misses == 0

    def test_concurrent_access_single_artifact(self):
        cache = ExpressionCache()
        results = []

        def worker():
            results.append(cache.get(gates.u3().matrix))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 1
        assert all(r is results[0] for r in results)


def _egraph_runs() -> int:
    return telemetry.metrics().counter("compile.egraph_runs").value


class TestLayoutSharing:
    """Layouts of one gate share a single e-graph run."""

    def test_qsearch_ansatz_runs_one_egraph_per_gate(self):
        cache = ExpressionCache()
        before = _egraph_runs()
        Instantiater(build_qsearch_ansatz(2, 2), cache=cache)
        # U3 and CX; the leaf-fused U3.perm and CX.perm reuse them.
        assert _egraph_runs() - before == 2
        names = {c.name for c in cache._entries.values()}
        assert {"U3", "U3.perm"} <= names

    def test_permuted_writer_is_the_permuted_gate_bitwise(self):
        cache = ExpressionCache()
        u3 = gates.u3().matrix
        base = cache.get(u3)
        before = _egraph_runs()
        perm = cache.get(u3.reshape_permute((2, 2), (1, 0), (2, 2)))
        assert _egraph_runs() == before
        assert perm is not base and cache.misses == 2
        params = (0.7, -0.4, 2.1)
        u, grad = base.unitary_and_grad(params)
        pu, pgrad = perm.unitary_and_grad(params)
        assert np.array_equal(pu, u.T)
        assert np.array_equal(pgrad, grad.transpose(0, 2, 1))

    def test_two_qubit_layouts_share(self):
        # CP viewed as a (2, 8)-shaped 4-axis permutation and its
        # transpose: different shapes, one gate.
        cache = ExpressionCache()
        cp = gates.cp().matrix
        before = _egraph_runs()
        a = cache.get(cp.reshape_permute((2, 2, 2, 2), (0, 2, 1, 3), (2, 8)))
        b = cache.get(cp.reshape_permute((2, 2, 2, 2), (2, 0, 3, 1), (8, 2)))
        assert _egraph_runs() - before == 1
        (lam,) = np.random.default_rng(4).uniform(-np.pi, np.pi, 1)
        ua, ga = a.unitary_and_grad((lam,))
        ub, gb = b.unitary_and_grad((lam,))
        ref = cp.evaluate((lam,)).reshape(2, 2, 2, 2)
        assert np.allclose(ua, ref.transpose(0, 2, 1, 3).reshape(2, 8))
        assert np.allclose(ub, ref.transpose(2, 0, 3, 1).reshape(8, 2))
        assert ga.shape == (1, 2, 8) and gb.shape == (1, 8, 2)

    def test_renamed_parameters_reuse_the_gate(self):
        cache = ExpressionCache()
        a = UnitaryExpression(
            "A(u) { [[cos(u), ~sin(u)], [sin(u), cos(u)]] }"
        ).matrix
        b = UnitaryExpression(
            "B(v) { [[cos(v), ~sin(v)], [sin(v), cos(v)]] }"
        ).matrix
        cache.get(a)
        before = _egraph_runs()
        flipped = cache.get(b.reshape_permute((2, 2), (1, 0), (2, 2)))
        assert _egraph_runs() == before
        assert flipped.matrix.params == ("v",)
        assert np.array_equal(
            flipped.unitary((0.3,)), cache.get(a).unitary((0.3,)).T
        )
