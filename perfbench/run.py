"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload {pipeline,sweep} --seed N
        --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it give quartiles, sample counts and the
environment.  See ``perfbench/README.md`` for what each workload and
metric means.

Load is a closed loop with one caller: one process, one thread, the
default vectorized engine.  Everything the run reads or writes lives
under ``.bench_build/perfbench`` in the repository: the per-seed traces
(made once per seed, by a separate process, before any timing), the
compiled kernel, and a scratch directory removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: one run's setup is timed this many times (the run itself plus probes
#: in fresh processes) and the median reported
SETUP_SAMPLES = 5

#: a run measures at least this many passes, however long they take
MIN_PASSES = 2



def declared_units(kind: str) -> dict:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def isolate(work_dir: Path) -> None:
    """Point every cache the program keeps at benchmark-owned directories,
    and pin the single-threaded, vectorized, auto-kernel configuration."""
    os.environ["REPRO_CACHE_DIR"] = str(work_dir / "cache")
    os.environ["REPRO_CHECKPOINT_DIR"] = str(work_dir / "checkpoints")
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernel")
    for name in ("REPRO_JOBS", "REPRO_BACKEND", "REPRO_HOSTS", "REPRO_KERNEL",
                 "REPRO_SHM", "REPRO_REMOTE_SHM"):
        os.environ.pop(name, None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, os.environ.get("PYTHONPATH")) if part
    )


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict:
    import numpy

    from repro.core.kernel_backends import get_kernel_backend, resolve_kernel_backend

    return {
        "kernel_backend": resolve_kernel_backend().name,
        "native_selfcheck": get_kernel_backend("native").available(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def child(args, *extra) -> str:
    """Run this script in a fresh process; return its standard output."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(extra)} failed with exit code {done.returncode}")
    return done.stdout


def measure(workload, seconds: float, tracer) -> tuple:
    """Closed loop of passes until ``seconds`` of pass time and MIN_PASSES.

    With a tracer, odd passes are traced and even ones are not, so the
    same run gives both the layer breakdown and the tracing overhead.
    """
    from repro.telemetry import Telemetry, set_telemetry

    passes = []
    counters: dict = {}
    first_traced_span = None
    index = 0
    while index < MIN_PASSES or sum(p[0] for p in passes) < seconds:
        traced = tracer is not None and index % 2 == 1
        if traced:
            telemetry = Telemetry()
            set_telemetry(telemetry)
            if first_traced_span is None:
                first_traced_span = len(tracer.spans)
            tracer.active = True
            root = tracer.open("pass")
        started = time.perf_counter()
        units = workload.run_pass(index)
        elapsed = time.perf_counter() - started
        if traced:
            tracer.close(root)
            tracer.active = False
            set_telemetry(None)
            for name, value in telemetry.counters.items():
                counters[name] = counters.get(name, 0) + value
        passes.append((elapsed, units, traced))
        workload.check_pass(index)
        index += 1
    return passes, counters, first_traced_span


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a two-benchmark miniature for the self-test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb one oracle result (self-test of the checks)")
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    BUILD.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        isolate(work_dir)
        sys.path.insert(0, str(HERE))
        import bench

        ctx = bench.Context(args.seed, args.size, BUILD, work_dir, args.inject_fault)
        if args.prepare:
            bench.prepare(ctx)
            return 0
        workload = bench.WORKLOADS[args.workload](ctx)
        if args.setup_probe:
            started = time.perf_counter()
            workload.setup()
            print(json.dumps({"setup_s": time.perf_counter() - started}))
            return 0
        return run(args, ctx, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, ctx, workload) -> int:
    if not ctx.prepared():
        child(args, "--prepare")
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(json.loads(child(args, "--setup-probe"))["setup_s"])

    tracer = None
    before_load = None
    if args.trace:
        import spans

        tracer = spans.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")

        def before_load():
            tracer.install()
            tracer.active = True  # trace loads happen in setup

    started = time.perf_counter()
    setup_parts = workload.setup(before_load)
    setup_samples.append(time.perf_counter() - started)
    setup_spans = 0
    if tracer is not None:
        tracer.active = False
        setup_spans = len(tracer.spans)

    passes, counters, first_traced = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.finish()
    attempted, failed = workload.attempted, workload.failed

    untraced = [p for p in passes if not p[2]]
    walls = [p[0] for p in untraced]
    rates = [p[1] / p[0] for p in untraced]
    env = environment()
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"error_rate={failed / max(attempted, 1):.6f} ({failed}/{attempted})")
    print("environment " + json.dumps(env, sort_keys=True))
    print("pass_s " + " ".join(f"{wall:.4f}" for wall in walls))
    for label, values in (("wall_s", walls), ("events_per_s", rates), ("setup_s", setup_samples)):
        q1, q2, q3 = quartiles(values)
        print(f"{label}: median={q2:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)}")

    if args.trace:
        traced_passes = [p for p in passes if p[2]]
        times = tracer.self_times(first_traced)
        metrics = spans.layer_metrics(
            times, counters, len(traced_passes), workload.schemes_x_traces,
            workload.replay_events,
        )
        metrics["trace.load_s"] = tracer.self_times(0, setup_spans).get("trace.load", (0.0, 0))[0]
        metrics["workloads.accesses"] = tracer.accesses / len(traced_passes)
        metrics["trace.chunks_read"] = tracer.chunks / len(traced_passes)
        metrics.update(workload.simulated_counts())
        metrics.update(setup_parts)
        traced_wall = statistics.median(p[0] for p in traced_passes)
        metrics["tracing_overhead_pct"] = 100.0 * (traced_wall / statistics.median(walls) - 1.0)
        tracer.write(BUILD / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        if tracer.missing:
            print("untraced (missing) targets: " + ", ".join(tracer.missing))
        units = declared_units("per_layer")
        result_metrics = {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        }
        for name, unit in units.items():
            print(f"  {name} = {metrics[name]:.6g} {unit}")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "events_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "prevalence_err_pp": workload.prevalence_err_pp(),
        }
        result_metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared_units("end_to_end").items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
