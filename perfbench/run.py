"""The repository benchmark: one command, four workloads, a dense oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-fig5 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one fresh process each

Seed convention: seed 0 is the development seed; seed 1 is held out and
used only to confirm a claimed gain.

``--trace 0`` prints the end-to-end metrics: setup time (the median
library import in a fresh interpreter, in wall seconds, plus the median
workload set-up); throughput, the geometric mean over the workload's
inputs of per-input ops/s (the reciprocal of the input's mean op
latency); oracle-confirmed success; the share of clean ops; peak RSS;
and CX gates per output circuit.  It also prints each input's op
count, median and tail latency.  Op and set-up times are in reference
seconds: wall time divided by how slow the host ran around it (see
``Calibration``).

``--trace 1`` runs the same op sequence untraced for half the time and
traced for the other half, and prints the per-layer split (self time per
layer, exact counts, and the tracing overhead); the Perfetto trace is
written under ``perfbench/out/``.

The library is measured from outside: only public API at library
defaults, one process, closed loop, one client, BLAS pinned to one
thread.  Every op's output is checked against the dense oracle in
``repro.baseline`` outside the timed region; any mismatch, or exact
counts that differ from an earlier run of the same seed on the same
source code, makes the command exit non-zero.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import os

# Pin BLAS before NumPy loads anywhere in this process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("compile-cold", "fit-fig5", "synth-unitary", "synth-state")
#: Library imports and workload set-ups per run; ``setup_s`` adds the
#: median of each.
SETUP_REPS = 3
#: Wall seconds between calibration samples while measuring (~3% of a run).
CALIBRATE_EVERY = 0.25
#: Units per sample: the first unit after an op runs on a cold cache, so
#: a sample is the median of a short burst (single units spread ~8%).
UNITS_PER_SAMPLE = 3
#: Wall seconds before and after an op whose calibration units judge it.
CALIBRATE_WINDOW = 1.0
#: Median calibration-unit time on the reference host (2-vCPU Xeon VM,
#: CPython 3.11, NumPy 2.4 with OpenBLAS 0.3.31) over ten minutes.
REFERENCE_UNIT_S = 0.0027
#: Record keys that depend on which layouts earlier ops left in the
#: e-graph cache, so a replay in the same process may differ on them.
CACHE_STATE_KEYS = ("egraph_runs", "cache_hits", "cache_misses")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "success_frac": "frac",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "cx_per_target": "count",
}


@dataclass
class Op:
    input: str
    start: float
    wall: float
    outcome: object
    record: dict
    #: Reference seconds, set by :meth:`Calibration.scale`.
    seconds: float = 0.0


def import_library():
    """Import the checkout's own ``src/repro``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library sources at {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}\n")
        raise SystemExit(2)
    return repro


def import_seconds() -> float:
    """Wall seconds a fresh interpreter takes to start and import the library.

    Import is file reads and unmarshalling, which the calibration unit
    does not track (over 10 runs per workload, dividing it by the run's
    factor widened its spread from 0.13-0.33 to 0.16-0.59), so it stays
    wall time; one import varied 0.25-0.45 s, hence the median of several.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    return time.perf_counter() - start


def host_details() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        openblas = config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


class Calibration:
    """Library-free work, interleaved with the ops, that tracks host speed.

    On a shared host the same code runs up to 2x slower or faster, in
    swings that last from a few seconds to minutes, which no run length
    averages out.  The unit is a chain of small complex matrix products,
    the kind of NumPy work the library's sweeps and fits do.  Timed
    back to back with it for ten minutes of such swings, a fixed fit, a
    fixed search and a cold e-graph build tracked it with log-log slope
    ~1 (r 0.77-0.9); an interpreter-only unit tracked them worse.  Each
    op's wall time is divided by the unit's median time sampled within
    ``CALIBRATE_WINDOW`` seconds of the op, relative to the reference
    host.  Over 25 s segments of that record, dividing by the whole
    segment's median left the log-spread of a fit's or search's mean
    time at 0.07-0.10, the same as raw wall time; the local factor left
    0.015-0.03.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._matrix = np.exp(2j * np.pi * np.arange(256).reshape(16, 16) / 257) / 4
        self._next = 0.0
        #: (wall time at the sample's end, unit seconds) pairs.
        self.samples: list[tuple[float, float]] = []

    def unit(self) -> float:
        """Seconds one unit of work took."""
        np = self._np
        start = time.perf_counter()
        a = np.eye(16, dtype=np.complex128)
        for _ in range(200):
            a = a @ self._matrix
            a /= np.abs(a).max()
        return time.perf_counter() - start

    def sample(self) -> None:
        seconds = statistics.median(self.unit() for _ in range(UNITS_PER_SAMPLE))
        now = time.perf_counter()
        self.samples.append((now, seconds))
        self._next = now + CALIBRATE_EVERY

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """How much slower than the reference host it ran around a span.

        Uses the units within ``CALIBRATE_WINDOW`` of ``[start, end]``,
        or the nearest one if none is that close.
        """
        near = [
            seconds
            for at, seconds in self.samples
            if start - CALIBRATE_WINDOW <= at <= end + CALIBRATE_WINDOW
        ]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return statistics.median(near) / REFERENCE_UNIT_S

    def scale(self, ops: list[Op]) -> None:
        """Set each op's reference seconds from the units around it."""
        for op in ops:
            op.seconds = op.wall / self.factor(op.start, op.start + op.wall)


def library_counters() -> tuple[int, int, int]:
    """(e-graph runs, global cache hits, global cache misses) so far."""
    import repro

    runs = repro.telemetry.metrics().snapshot().get("compile.egraph_runs", 0)
    cache = repro.global_cache()
    return int(runs), cache.hits, cache.misses


def measure(workload, seconds: float, calibration, tracer=None) -> list[Op]:
    """Run passes over the workload's inputs for ``seconds``.

    The first pass always completes, so every input has at least one op.
    Only ``workload.run`` is timed; oracle checks and calibration units
    run between ops, and a last unit after them, so that every op has
    units on both sides.
    """
    from workloads import Outcome

    ops: list[Op] = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    pass_index = 0
    while True:
        specs = workload.specs(pass_index)
        workload.begin_pass()
        try:
            for spec in specs:
                if pass_index and time.perf_counter() >= deadline:
                    break
                calibration.maybe_sample()
                before = library_counters()
                span = tracer.span("op") if tracer else contextlib.nullcontext()
                start = time.perf_counter()
                try:
                    with span:
                        output = workload.run(spec)
                except Exception as exc:  # an op that raises is counted
                    elapsed = time.perf_counter() - start
                    outcome = Outcome(
                        success=False, cx=0, error=f"{type(exc).__name__}: {exc}"
                    )
                else:
                    elapsed = time.perf_counter() - start
                    outcome = workload.check(spec, output)
                after = library_counters()
                record = {
                    "input": spec.input,
                    "pass": pass_index,
                    "egraph_runs": after[0] - before[0],
                    "cache_hits": after[1] - before[1],
                    "cache_misses": after[2] - before[2],
                    **outcome.record,
                }
                if outcome.error:
                    record["error"] = outcome.error
                ops.append(Op(spec.input, start, elapsed, outcome, record))
        finally:
            workload.end_pass()
        if time.perf_counter() >= deadline:
            calibration.sample()
            calibration.scale(ops)
            return ops
        pass_index += 1


def by_input(ops: list[Op]) -> dict[str, list[Op]]:
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.input, []).append(op)
    return groups


def per_input(ops: list[Op], statistic, key: str = "seconds") -> float:
    """Geometric mean over inputs of ``statistic`` of each input's latencies.

    Per-input first, so the result does not depend on how many ops of
    each input a pass holds; geometric, so slow inputs do not drown fast
    ones.  ``key`` picks reference (``seconds``) or ``wall`` seconds.
    """
    logs = [
        math.log(statistic([getattr(op, key) for op in group]))
        for group in by_input(ops).values()
    ]
    return math.exp(sum(logs) / len(logs))


def latency_lines(ops: list[Op]) -> list[str]:
    """Per input: sample count, median, and the highest percentile that
    has at least ten samples beyond it (reference seconds).

    Printed, not scored: fit latencies are bimodal in the target (a fit
    that converges on its first start against one that needs several),
    so a per-input median jumps between the modes from seed to seed by
    more than any bound the benchmark could hold it to.
    """
    import numpy as np

    lines = []
    for name, group in by_input(ops).items():
        seconds = [op.seconds for op in group]
        line = f"  {name:20s} n={len(seconds):4d} p50 {np.median(seconds):.4g} s"
        if len(seconds) >= 20:
            q = 100 * (1 - 10 / len(seconds))
            line += f"  p{q:.0f} {np.percentile(seconds, q):.4g} s"
        lines.append(line)
    return lines


def ops_per_s(ops: list[Op], key: str = "seconds") -> float:
    """Geometric mean over inputs of per-input ops per second."""
    return 1.0 / per_input(ops, statistics.mean, key)


def end_to_end(ops: list[Op], setup_s: float, key: str = "seconds") -> dict:
    """The end-to-end metrics; ``key`` picks reference or wall seconds."""
    clean = [op for op in ops if not (op.outcome.error or op.outcome.mismatch)]
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(ops, key),
        "success_frac": sum(op.outcome.success for op in ops) / len(ops),
        "ok_frac": len(clean) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # Per-input means, averaged: independent of where the run's
        # deadline cut the last pass.
        "cx_per_target": statistics.mean(
            statistics.mean(op.outcome.cx for op in group)
            for group in by_input(ops).values()
        ),
    }


def per_layer(tracer, traced: list[Op], untraced: list[Op]) -> dict:
    totals = tracer.layer_totals()

    def layer(name: str, key: str = "self") -> float:
        return totals.get(name, {}).get(key, 0)

    def total(key: str) -> int:
        return sum(op.record.get(key, 0) for op in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    op_s = layer("op", "total")
    hits, misses = total("cache_hits"), total("cache_misses")
    pool_hits, pool_misses = total("pool_hits"), total("pool_misses")
    seconds = {
        "egraph.simplify_s": layer("egraph.simplify"),
        "jit.codegen_s": layer("jit.codegen"),
        "tensornet.compile_s": layer("tensornet.compile"),
        "tensornet.pathfind_s": layer("tensornet.pathfind"),
        "tnvm.fuse_s": layer("tnvm.fuse"),
        "tnvm.build_s": layer("tnvm.build"),
        "tnvm.sweep_s": layer("tnvm.sweep"),
        "tnvm.batched_sweep_s": layer("tnvm.batched_sweep"),
        "instantiation.residuals_s": layer("instantiation.residuals"),
        "instantiation.lm_self_s": layer("instantiation.lm"),
        "synthesis.search_self_s": layer("synthesis.search"),
    }
    sweeps = layer("tnvm.sweep", "count")
    batched = layer("tnvm.batched_sweep", "count")
    metrics = {
        **seconds,
        "egraph.simplify_calls": layer("egraph.simplify", "count"),
        "jit.cache_hit_frac": ratio(hits, hits + misses),
        "tnvm.sweeps": sweeps,
        "tnvm.sweep_us": ratio(seconds["tnvm.sweep_s"], sweeps) * 1e6,
        "tnvm.batched_sweeps": batched,
        "tnvm.batched_sweep_us": ratio(seconds["tnvm.batched_sweep_s"], batched)
        * 1e6,
        "instantiation.lm_iters": total("lm_iters"),
        "instantiation.lm_evals": total("lm_evals"),
        "instantiation.pool_hit_frac": ratio(pool_hits, pool_hits + pool_misses),
        "instantiation.engine_builds": layer("instantiation.engine", "count"),
        "synthesis.instantiation_calls": total("calls"),
        "synthesis.nodes_expanded": total("nodes"),
        "trace_overhead_frac": 1.0 - ops_per_s(traced) / ops_per_s(untraced),
        "traced_op_s": op_s,
        "unattributed_frac": ratio(layer("op"), op_s),
        "trace.missing_points": len(tracer.missing),
    }
    for name, value in seconds.items():
        metrics[name[: -len("_s")] + "_frac"] = ratio(value, op_s)
    return metrics


def comparable(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in CACHE_STATE_KEYS}


def source_digest(root: Path = ROOT) -> str:
    """sha256 over the library and benchmark sources under ``root``."""
    files = sorted(
        [*(root / "src" / "repro").rglob("*.py"), *(root / "perfbench").glob("*.py")]
    )
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def reference_path(workload: str, seed: int, source: str) -> Path:
    """Where runs of ``source`` store their exact counts for one seed.

    Keyed by the source digest, so only runs of identical code are
    compared: a change that legitimately moves a count or the low bits
    of a result starts a fresh reference instead of failing.
    """
    return OUT / "ref" / f"{workload}-seed{seed}-{source}.json"


def check_determinism(path: Path, records: list[dict]) -> list[int]:
    """Indices where ``records`` differ from the stored reference.

    The first run of a seed and source stores its records; later runs
    compare the common prefix (a faster run reaches more ops) and extend
    the store.
    """
    records = json.loads(json.dumps(records, default=int))
    reference = json.loads(path.read_text()) if path.is_file() else []
    differ = [i for i, (a, b) in enumerate(zip(reference, records)) if a != b]
    if not differ and len(records) > len(reference):
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(records))
        os.replace(tmp, path)
    return differ


def run_workload(args) -> int:
    repro = import_library()
    sys.path.insert(0, str(HERE))
    from tracing import LayerTracer
    from workloads import WORKLOADS

    host = host_details()
    calibration = Calibration()
    workload = WORKLOADS[args.workload](args.seed)
    imports = [import_seconds() for _ in range(SETUP_REPS)]
    spans = []
    for _ in range(SETUP_REPS):
        calibration.sample()
        start = time.perf_counter()
        workload.setup()
        spans.append((start, time.perf_counter()))
    calibration.sample()
    setups = [end - start for start, end in spans]
    setup_wall_s = statistics.median(imports) + statistics.median(setups)
    setup_s = statistics.median(imports) + statistics.median(
        (end - start) / calibration.factor(start, end) for start, end in spans
    )

    problems: list[str] = []
    tracer = None
    wall = {}
    if args.trace:
        untraced = measure(workload, args.seconds / 2, calibration)
        with LayerTracer() as tracer:
            traced = measure(workload, args.seconds / 2, calibration, tracer)
        pairs = zip(untraced, traced)
        diverged = [
            i
            for i, (a, b) in enumerate(pairs)
            if comparable(a.record) != comparable(b.record)
        ]
        if diverged:
            problems.append(
                f"traced ops {diverged[:5]} differ from the untraced replay"
            )
        ops = traced
        metrics = per_layer(tracer, traced, untraced)
        reference_ops = untraced
    else:
        ops = measure(workload, args.seconds, calibration)
        metrics = end_to_end(ops, setup_s)
        wall = end_to_end(ops, setup_wall_s, key="wall")
        reference_ops = ops

    source = source_digest()
    ref_path = reference_path(args.workload, args.seed, source)
    differ = check_determinism(ref_path, [op.record for op in reference_ops])
    if differ:
        problems.append(
            f"exact counts of ops {differ[:5]} differ from the reference "
            f"{ref_path.relative_to(ROOT)}: run invalid"
        )
    mismatches = [op for op in ops if op.outcome.mismatch]
    for op in mismatches[:5]:
        problems.append(f"oracle mismatch on {op.input}: {op.outcome.mismatch}")
    failed = [op for op in ops if op.outcome.error or op.outcome.mismatch]
    correct = not problems

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        trace_path = OUT / f"{args.workload}-seed{args.seed}.perfetto.json"
        tracer.write_perfetto(str(trace_path), os.getpid())
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "setup_reps_s": setups,
        "import_reps_s": imports,
        "calibration_factor": calibration.factor(),
        "calibration_samples": len(calibration.samples),
        "metrics": metrics,
        "wall_metrics": wall,
        "problems": problems,
        "missing_wrap_points": tracer.missing if tracer else [],
        "records": [
            op.record | {"seconds": op.seconds, "wall": op.wall} for op in ops
        ],
        "library": repro.__version__,
        "source_digest": source,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1, default=int))

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops "
          f"(the latency sample count), {len(failed)} failed")
    print("host: " + json.dumps(host))
    if tracer is not None and tracer.missing:
        print("trace: skipped missing wrap points: " + ", ".join(tracer.missing))
    print(f"host speed: {calibration.factor():.3f}x the reference unit time "
          f"({len(calibration.samples)} calibration units)")
    if not args.trace:
        print("op latency by input (printed, not scored):")
        print("\n".join(latency_lines(ops)))
    for name, value in metrics.items():
        raw = f"  (wall {wall[name]:.6g})" if wall.get(name, value) != value else ""
        print(f"  {name:32s} {value:14.6g} {unit_of(name)}{raw}")
    for problem in problems:
        print("PROBLEM: " + problem)
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def run_all(args) -> int:
    """Run every workload in its own fresh process and summarize."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=WORKLOAD_NAMES + ("all",), default="all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
