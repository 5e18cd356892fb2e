"""Tests of the benchmark itself, on smoke-sized cohorts (3 subjects per class x 6 s).

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import layer_metrics
from workloads import WORKLOADS, WorkloadRun, check_local_accuracy, check_maps

HERE = Path(__file__).resolve().parent


def _smoke_run(name: str, tmp_path: Path) -> WorkloadRun:
    run = WorkloadRun(WORKLOADS[name].smoke(), seed=3, work=tmp_path / "work")
    run.setup()
    return run


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_workload_passes_every_check(name, tmp_path):
    run = _smoke_run(name, tmp_path)
    first = run.op()
    second = run.op(traced=True)
    assert run.problems == []
    assert run.failed == 0 and run.attempted == (3 if run.w.piecewise else 2)
    assert first.wall_s > 0 and first.cpu_s > 0 and first.peak_rss_mb > 0
    assert first.output_mb > 0 and 0 < first.cv_accuracy <= 1
    assert first.map_r_min >= 0.9
    layers = layer_metrics(second.span_docs)
    assert layers["io.read_s"] > 0 and layers["models.score_s"] > 0
    if run.w.piecewise:
        assert layers["microstates.kmeans_s"] == 0
        assert layers["microstates.seg_decode_s"] > 0
        assert layers["explain.coalitions"] > 0
    else:
        assert layers["microstates.kmeans_peak_maps"] > 0
        assert layers["microstates.kmeans_iterations"] > 0
        assert layers["pipeline.self_s"] > 0
        assert layers["io.write_files"] > 0


def test_traced_counts_repeat_exactly(tmp_path):
    run = _smoke_run("many-subjects", tmp_path)
    a, b = (layer_metrics(run.op(traced=True).span_docs) for _ in range(2))
    for key in ("microstates.kmeans_iterations", "microstates.kmeans_peak_maps",
                "models.rows_scored", "explain.coalitions", "io.write_files", "io.write_mb"):
        assert a[key] == b[key], key


def _prep_outputs(tmp_path: Path) -> Path:
    run = _smoke_run("piecewise", tmp_path)
    return run.work / "prep"


def test_perturbed_phi_fails_local_accuracy(tmp_path):
    out = _prep_outputs(tmp_path)
    args = (out / "model.json", out / "features.csv", out / "shap.json")
    assert check_local_accuracy(*args) == []
    shap = json.loads(args[2].read_text())
    shap["phi"][0][0][0] += 1e-4
    args[2].write_text(json.dumps(shap))
    assert any("local accuracy" in p for p in check_local_accuracy(*args))


def test_relabeled_map_fails_template_check(tmp_path):
    maps_path = _prep_outputs(tmp_path) / "maps.json"
    assert check_maps(maps_path)[0] == []
    maps = json.loads(maps_path.read_text())
    labels = maps["labels"]
    labels[0], labels[1] = labels[1], labels[0]
    maps_path.write_text(json.dumps(maps))
    problems, r = check_maps(maps_path)
    assert problems and r < 0.9


def test_nonzero_exit_fails_the_op(tmp_path):
    run = _smoke_run("long-recordings", tmp_path)
    (run.work / "run.json").write_text(json.dumps({"input_dir": "missing", "k": 4}))
    res = run.op()
    assert run.failed == 1 and any("exited 2" in p for p in res.problems)


def test_changed_artifact_fails_byte_identity(tmp_path):
    run = _smoke_run("many-subjects", tmp_path)
    run.op()
    run.reference["eval.json"] = "0" * 64
    res = run.op()
    assert any("eval.json differs" in p for p in res.problems)


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "piecewise", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
