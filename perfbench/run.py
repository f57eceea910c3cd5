#!/usr/bin/env python3
"""Repository benchmark: four user pipelines, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py                  # every workload, untraced then traced
    python3 perfbench/run.py --workload serve-rgg --seed 1 --seconds 18 --trace 0

``--workload`` is one of ``serve-rgg``, ``spanner-gnm``, ``churn-rgg``,
``ctree-ba`` or ``all`` (the default: each workload runs in its own
fresh process, first with ``--trace 0``, then with ``--trace 1``).  A
single-workload run prints its figures as ``name value unit`` lines
and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end ones with ``--trace 0`` and the
per-layer ones with ``--trace 1`` (names and units in
``BENCHMARK.json``).  Any failed check or operation makes the exit
code 1.

The library is called with ``workers=`` equal to the cores this
process may run on less one (at least one), and the BLAS/OpenMP/numba
thread pools are pinned to the same count before numpy is imported.
The spare core is left to the rest of the host: the hop kernel's
threads meet at a barrier every round, so on a shared host a neighbour
holding one core stalls every round of a kernel that uses them all
(a cold row 1.1 s -> 1.8 s with two threads on two cores beside one
busy process, unchanged at 1.3 s with one thread).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")
WORKLOAD_NAMES = ("serve-rgg", "spanner-gnm", "churn-rgg", "ctree-ba")

# figures printed for the reader besides the gated metrics, by workload
EXTRA_FIGURES = {
    "serve-rgg": [("query_p50_ms", "ms"), ("qps", "1/s"), ("hopset_edges_per_m", "ratio")],
    "churn-rgg": [("update_p50_ms", "ms"), ("query_p50_ms", "ms"), ("qps", "1/s"),
                  ("hopset_edges_per_m", "ratio")],
    "spanner-gnm": [("spanner_kept_fraction", "ratio"), ("spanner_max_stretch", "ratio")],
    "ctree-ba": [],
}
# tail figure of each timed operation: (name, scale, unit)
TAILS = {"setup": ("setup_tail_s", 1.0, "s"), "build": ("build_tail_s", 1.0, "s"),
         "request": ("query_tail_ms", 1e3, "ms"), "update": ("update_tail_ms", 1e3, "ms"),
         "query": ("query_tail_ms", 1e3, "ms")}
# top-level spans must account for the traced run's wall time within this
COVERAGE_TOLERANCE = 0.05


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def bench_workers(n_cores: int) -> int:
    """The ``workers=`` value: every core but one, and at least one."""
    return max(1, n_cores - 1)


def versions() -> str:
    import numpy
    import scipy

    try:
        import numba  # type: ignore[import-not-found]

        nb = numba.__version__
    except ImportError:
        nb = "absent"
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} numba={nb}")


def print_run(run, spec: dict, trace: bool) -> Dict[str, dict]:
    """Print the human-readable figures; return the JSON metrics."""
    from workloads import tail

    print(f"workload {run.workload} seed={run.seed} seconds={run.seconds:g} "
          f"trace={int(trace)}")
    for key, samples in run.timings.items():
        label, scale, unit = TAILS[key]
        t = tail(samples)
        if t is None:
            print(f"  {label} n/a ({len(samples)} samples, too few for 10 beyond p50)")
        else:
            print(f"  {label} {scale * t[1]:.6g} {unit} (p{t[0]:g} of {len(samples)} samples)")
    for name, unit in EXTRA_FIGURES[run.workload]:
        print(f"  {name} {run.figures.get(name, 0.0):.6g} {unit}")
    print(f"  error_rate {run.figures['error_rate']:.6g} ratio "
          f"({run.failed} of {run.attempted})")
    for err in run.errors:
        print(f"  FAILED: {err}")
    if trace:
        for name in run.tracer.missing:
            print(f"  missing layer: {name}")
        print(f"  top-level spans / wall {run.layer.get('trace.coverage', 0.0):.4f} "
              f"(tolerance {COVERAGE_TOLERANCE:g})")
    end_to_end = {m["name"]: {"value": float(run.figures.get(m["name"], 0.0)),
                              "unit": m["unit"]} for m in spec["end_to_end"]}
    per_layer = {m["name"]: {"value": float(run.layer.get(m["name"], 0.0)),
                             "unit": m["unit"]} for m in spec["per_layer"]}
    # the end-to-end figures are printed by the traced run too, so that
    # run_all can set its timings against the untraced run's
    printed = {**end_to_end, **per_layer} if trace else end_to_end
    for name, m in printed.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return per_layer if trace else end_to_end


def run_one(args: argparse.Namespace, workers: int) -> int:
    import workloads

    spec = load_spec()
    n_cores = cores()
    print(f"machine: cores={n_cores} workers={workers} {versions()}")
    if workers < 2:
        print(f"WARNING: workers=1 on {n_cores} core(s); multicore changes cannot show "
              "in this result")
    from repro.parallel.pool import effective_workers, set_default_workers

    set_default_workers(workers)
    run = workloads.run_workload(args.workload, args.seed, float(args.seconds), workers,
                                 bool(args.trace), os.path.abspath(__file__))
    run.layer["parallel.workers"] = float(effective_workers(workers))
    run.layer["machine.cores"] = float(n_cores)
    if args.trace and abs(1.0 - run.layer.get("trace.coverage", 0.0)) > COVERAGE_TOLERANCE:
        run.fail("top-level spans do not account for wall time")
        run.figures["error_rate"] = run.failed / max(run.attempted, 1)
    metrics = print_run(run, spec, bool(args.trace))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


def printed_figure(text: str, name: str) -> Optional[float]:
    """The value of a ``  name value unit`` line of a run's output."""
    for ln in text.splitlines():
        parts = ln.split()
        if len(parts) == 3 and parts[0] == name:
            try:
                return float(parts[1])
            except ValueError:
                return None
    return None


def last_json(text: str) -> Optional[dict]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, untraced then traced."""
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names: List[str] = [w["name"] for w in spec["workloads"]]
    status = 0
    for name in names:
        results, outputs = {}, {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stdout.flush()
            results[trace] = last_json(proc.stdout)
            outputs[trace] = proc.stdout
            if proc.returncode != 0:
                status = 1
        if results[0] and results[1]:
            est = results[1]["metrics"].get("trace.overhead_ratio", {}).get("value")
            print(f"  {name}: estimated span overhead {est:.4f}x (spans x no-op wrapper cost)")
            for fig in ("setup_s", "build_s"):
                untraced = results[0]["metrics"].get(fig, {}).get("value")
                traced = printed_figure(outputs[1], fig)
                if untraced and traced:
                    print(f"  {name}: traced/untraced {fig} {traced / untraced:.4f} "
                          f"({traced:.6g} s / {untraced:.6g} s, one run each)")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--generate", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: the library sources (src/repro) are not under {ROOT}",
              file=sys.stderr)
        return 2
    workers = bench_workers(cores())
    for var in THREAD_VARS:
        os.environ[var] = str(workers)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)

    if args.generate:
        import workloads

        workloads.generate_graph(args.generate, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run_one(args, workers)


if __name__ == "__main__":
    sys.exit(main())
