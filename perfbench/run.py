"""msaf benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload long-recordings --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Run from any directory of a checkout; work files go to
``.perfbench_work/`` at the checkout root and are removed at exit.

A run writes the workload's cohort (``setup_s`` is the median of several
set-ups), starts one untimed ``msaf --version`` as warm-up, then repeats
the op at least twice and until ``--seconds`` have passed, and reports
medians. With ``--trace 1`` every
repetition runs the op once untraced and once traced (see tracing.py),
and the metrics are the per-layer ones. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. Any op
whose output fails a check makes the run exit with code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

STARTUP_REPS = 3
MIN_REPS = 2


def benchmark_doc() -> dict:
    """BENCHMARK.json: the metrics a run reports and why each workload exists."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as f:
        return json.load(f)


def metric_units(kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists under `kind`."""
    return {m["name"]: m["unit"] for m in benchmark_doc()[kind]}


def provenance(run, workload) -> dict:
    import numpy
    import scipy
    from workloads import THREAD_ENV

    why = {w["name"]: w["why"] for w in benchmark_doc()["workloads"]}

    return {
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        },
        "workload": {"name": workload.name, "why": why[workload.name], **run.input_info()},
    }


def startup_s(work: Path, reps: int) -> float:
    """Median wall time of a fresh-interpreter `msaf --version`."""
    from workloads import launch, msaf_argv

    walls = []
    for _ in range(reps):
        stats = launch(msaf_argv(["--version"]), work, work / "stderr.log")
        if stats.code != 0:
            raise RuntimeError(f"msaf --version exited {stats.code}")
        walls.append(stats.wall_s)
    return statistics.median(walls)


def print_spans(docs: list[dict]) -> None:
    from tracing import span_times

    total, self_time, calls, _ = span_times(docs)
    print("span self times of the last traced op:")
    for name in sorted(total):
        print(f"  {name:24s} calls {calls[name]:5d}  total {total[name]:9.4f} s"
              f"  self {self_time[name]:9.4f} s")


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from tracing import layer_metrics
    from workloads import WorkloadRun

    run = WorkloadRun(workload, seed, work)
    setup_s, generate_s = run.setup()
    # Warm-up of the process start-up path. Set-up already imported msaf in
    # this process and wrote the inputs, so the files an op reads are cached;
    # an untimed full op would add a third to every run.
    startup_s(work, 1)
    untraced, traced = [], []
    start = time.perf_counter()
    while len(untraced) < MIN_REPS or time.perf_counter() - start < seconds:
        untraced.append(run.op())
        if trace:
            traced.append(run.op(traced=True))
    print("provenance: " + json.dumps(provenance(run, workload), sort_keys=True))
    for p in run.problems:
        print(f"check failed: {p}", file=sys.stderr)

    def med(ops, key):
        return statistics.median(getattr(op, key) for op in ops)

    if trace:
        layers = [layer_metrics(op.span_docs) for op in traced]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["cli.startup_s"] = startup_s(work, STARTUP_REPS)
        values["synth.generate_s"] = generate_s
        values["trace.overhead_s"] = med(traced, "wall_s") - med(untraced, "wall_s")
        print_spans(traced[-1].span_docs)
        units = metric_units("per_layer")
    else:
        values = {
            "wall_s": med(untraced, "wall_s"),
            "cpu_s": med(untraced, "cpu_s"),
            "peak_rss_mb": med(untraced, "peak_rss_mb"),
            "output_mb": med(untraced, "output_mb"),
            "setup_s": setup_s,
            "cv_accuracy": med(untraced, "cv_accuracy"),
            "map_template_r_min": min(op.map_r_min for op in untraced),
        }
        units = metric_units("end_to_end")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # A terminated benchmark still stops the msaf process it waits for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "msaf" / "__init__.py").is_file():
        print(f"perfbench: no msaf sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    results = {}
    for name in names:
        work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
        try:
            results[name] = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work)
        except RuntimeError as e:
            print(f"perfbench: {name}: {e}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                (ROOT / ".perfbench_work").rmdir()
            except OSError:
                pass

    if args.workload == "all":
        for name, res in results.items():
            print(f"{name}: attempted {res['attempted']}, failed {res['failed']}")
            rate = res["failed"] / res["attempted"]
            rows = [*res["metrics"].items(), ("error_rate", {"value": rate, "unit": "fraction"})]
            for metric, m in rows:
                print(f"  {metric:36s} {m['value']:14.6f} {m['unit']}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
