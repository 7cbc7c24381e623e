"""Benchmark entry point.

    python3 bench/run.py --workload train_full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from the
checkout's own `src/`. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
first repeats the untraced measurement, then measures again with spans
recorded, and states the difference as the tracing overhead. Results,
spans and the environment stamp are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def use_checkout_source() -> None:
    """Import blindtrack from this checkout's src/ and nowhere else."""
    if not (SRC / "blindtrack" / "__init__.py").is_file():
        raise SystemExit(f"error: no blindtrack package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import blindtrack

    if Path(blindtrack.__file__).resolve().parent != SRC / "blindtrack":
        raise SystemExit(f"error: imported blindtrack from {blindtrack.__file__}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout exported without .git reads "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ
        },
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """Measure one workload and return the result object. `workload`
    replaces the named spec (the self-tests pass a tiny one)."""
    import harness
    from tracing import Tracer

    spec = workload or harness.WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{spec.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        bench = harness.Run(spec, seed, workdir)
        untraced = bench.measure(seconds)
        e2e = untraced.end_to_end()
        record = {"workload": spec.name, "env": environment(seed), "end_to_end": e2e, "samples": untraced.samples()}
        if trace:
            nodes = bench.loss_graph_nodes()
            tracer = Tracer(spec.name)
            bench.tracer = tracer
            harness.install_trace_points(tracer)
            try:
                traced = bench.measure(seconds)
            finally:
                tracer.uninstall()
                bench.tracer = None
            layers = harness.layer_metrics(bench, tracer, traced, nodes, untraced)
            traced_e2e = traced.end_to_end()
            record["traced_end_to_end"] = traced_e2e
            record["trace_overhead"] = {k: traced_e2e[k] - v for k, v in e2e.items() if k in traced_e2e}
            record["per_layer"] = layers
            tracer.write(OUT / f"{spec.name}-seed{seed}.spans.jsonl", {"ops": bench.ops, **record})
            metrics = {name: (layers.get(name), unit) for name, unit in harness.PER_LAYER}
        else:
            metrics = {name: (e2e.get(name), unit) for name, unit in harness.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    complete = all(value is not None for value, _ in metrics.values())
    result = {
        "correct": bench.failed == 0 and complete,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items() if value is not None},
    }
    record.update(result=result, problems=bench.problems)
    (OUT / f"{spec.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(harness.WORKLOADS)}")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": record["env"]}))
    for problem in record["problems"]:
        print(f"problem: {problem}")
    for name, value in record["end_to_end"].items():
        print(f"{name} = {value:.6g}")
    for name, value in record.get("trace_overhead", {}).items():
        print(f"trace overhead {name} = {value:+.6g} (traced minus untraced)")
    result = record["result"]
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
