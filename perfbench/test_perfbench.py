"""Checks on the benchmark itself: trace inertness, wrapper removal,
durable wrap points, the oracle and the determinism record.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import run

run.import_library()
ROOT = Path(run.__file__).resolve().parent.parent

import tracing  # noqa: E402
import workloads  # noqa: E402

import repro  # noqa: E402
from repro.baseline import (  # noqa: E402
    DenseEvaluator,
    build_qsearch_ansatz_baseline,
)


def _one_pass(workload, tracer=None):
    # seconds=0: the first pass always completes, nothing more.
    return run.measure(workload, 0.0, run.Calibration(), tracer)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_is_bit_identical_to_untraced(name):
    workload = workloads.WORKLOADS[name](seed=3)
    workload.setup()
    untraced = _one_pass(workload)
    with tracing.LayerTracer() as tracer:
        traced = _one_pass(workload, tracer)
    assert not tracer.missing
    assert [run.comparable(op.record) for op in traced] == [
        run.comparable(op.record) for op in untraced
    ]
    # Every op ran under an "op" span that the layers nest in.
    totals = tracer.layer_totals()
    assert totals["op"]["count"] == len(traced)
    assert all(op.outcome.mismatch is None for op in traced)
    # Both modes print exactly the metrics BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.end_to_end(untraced, 0.5)) == [
        m["name"] for m in declared["end_to_end"]
    ]
    assert sorted(run.per_layer(tracer, traced, untraced)) == sorted(
        m["name"] for m in declared["per_layer"]
    )
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"]


def test_wrappers_are_removed_afterwards():
    before = {point: tracing._resolve(point) for _, point in tracing.WRAP_POINTS}
    owners = {id(found[0]): dict(vars(found[0])) for found in before.values()}
    with tracing.LayerTracer():
        during = {point: tracing._resolve(point) for point in before}
        assert all(during[p][2] is not before[p][2] for p in before)
    after = {point: tracing._resolve(point) for point in before}
    assert all(after[p][2] is before[p][2] for p in before)
    for found in after.values():
        assert dict(vars(found[0])).keys() == owners[id(found[0])].keys()


def test_missing_wrap_points_are_skipped_and_reported():
    gone = (
        ("tnvm.sweep", "repro.tnvm.vm:RemovedVM.evaluate_with_grad"),
        ("instantiation.lm", "repro.no_such_module:levenberg_marquardt"),
    )
    with tracing.LayerTracer(tracing.WRAP_POINTS + gone) as tracer:
        pass
    assert tracer.missing == [point for _, point in gone]


def test_self_time_subtracts_child_spans():
    tracer = tracing.LayerTracer(points=())
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0]]
    totals = tracer.layer_totals()
    assert totals["outer"]["self"] == pytest.approx(7.0)
    assert totals["inner"]["self"] == pytest.approx(3.0)


def test_calibration_judges_each_op_by_the_units_around_it():
    calibration = run.Calibration()
    unit = run.REFERENCE_UNIT_S
    # The host ran at reference speed until t=10, then twice as slow.
    calibration.samples = [(t / 5, unit) for t in range(50)] + [
        (10 + t / 5, 2 * unit) for t in range(50)
    ]
    fast = run.Op("a", start=3.0, wall=0.5, outcome=None, record={})
    slow = run.Op("a", start=15.0, wall=0.5, outcome=None, record={})
    calibration.scale([fast, slow])
    assert fast.seconds == pytest.approx(0.5)
    assert slow.seconds == pytest.approx(0.25)
    # With no unit within the window, the nearest one judges.
    assert calibration.factor(100.0, 101.0) == pytest.approx(2.0)


def test_oracle_flags_a_wrong_infidelity():
    workload = workloads.FitFig5(seed=0)
    workload.setup()
    spec = workload.specs(0)[0]
    output = workload.run(spec)
    assert workload.check(spec, output).mismatch is None
    output.infidelity += 0.25
    assert workload.check(spec, output).mismatch is not None


def test_dense_oracle_matches_the_baseline_twin():
    circuit = repro.build_qsearch_ansatz(3, 3)
    point = np.random.default_rng(0).uniform(-np.pi, np.pi, circuit.num_params)
    twin = DenseEvaluator(build_qsearch_ansatz_baseline(3, 3))
    assert np.allclose(
        workloads.dense_unitary(circuit, point), twin.get_unitary(point), atol=1e-12
    )


def test_determinism_record_flags_changed_counts(tmp_path):
    path = tmp_path / "ref.json"
    first = [{"input": "a", "lm_iters": 3}, {"input": "b", "lm_iters": 4}]
    assert run.check_determinism(path, first) == []
    assert json.loads(path.read_text()) == first
    longer = first + [{"input": "c", "lm_iters": 5}]
    assert run.check_determinism(path, longer) == []
    assert len(json.loads(path.read_text())) == 3
    changed = [first[0], {"input": "b", "lm_iters": 99}]
    assert run.check_determinism(path, changed) == [1]


def test_reference_is_keyed_by_the_source_code(tmp_path):
    src = tmp_path / "src" / "repro"
    shutil.copytree(ROOT / "src" / "repro", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench").mkdir()
    before = run.source_digest(tmp_path)
    assert run.source_digest(tmp_path) == before
    with (src / "__init__.py").open("a") as handle:
        handle.write("# edited\n")
    after = run.source_digest(tmp_path)
    assert after != before
    # Counts stored by the old code do not judge the new code.
    old_path = tmp_path / run.reference_path("fit-fig5", 0, before).name
    new_path = tmp_path / run.reference_path("fit-fig5", 0, after).name
    assert old_path != new_path
    assert run.check_determinism(old_path, [{"input": "a", "lm_iters": 3}]) == []
    assert run.check_determinism(new_path, [{"input": "a", "lm_iters": 9}]) == []
    assert run.check_determinism(old_path, [{"input": "a", "lm_iters": 9}]) == [0]


def test_oracle_checks_are_not_traced():
    # CompileCold.check sweeps the engine under test against the dense
    # twin; that sweep runs outside the timed op and must not count.
    workload = workloads.CompileCold(seed=0)
    workload.setup()
    with tracing.LayerTracer() as tracer:
        traced = _one_pass(workload, tracer)
    totals = tracer.layer_totals()
    assert "tnvm.sweep" not in totals
    assert {span[0] for span in tracer.spans} >= {"op", "egraph.simplify"}
    assert all(
        parent >= 0 for name, _, _, parent in tracer.spans if name != "op"
    )
    metrics = run.per_layer(tracer, traced, traced)
    assert metrics["tnvm.sweeps"] == 0


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-fig5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
