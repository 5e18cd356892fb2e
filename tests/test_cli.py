"""End-to-end CLI verb chain plus the exit-code contract."""
import csv
import dataclasses
import filecmp
import functools
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import msaf
import msaf.cli
from msaf import (
    MicrostateMaps,
    load_feature_table,
    load_recording,
    load_segmentation,
    model_from_json_dict,
    read_json,
    standard_1020_montage,
)
from msaf.cli import main
from msaf.pipeline import PipelineConfig, config_hash, load_input_recordings
from oracles import with_header


def _write(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Synth a tiny labeled cohort once and chain every stage off it.

    Each test that reads an artifact of the chain finds it here, whatever
    tests run before it.
    """
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = _write(root / "synth.json",
                       {"kind": "cohort", "n_per_class": 2, "seed": 5,
                        "base": {"duration": 6.0}})
    w = functools.partial(os.path.join, root)
    rf = ["--model", "rf", "--params", '{"n_trees": 10}', "--seed", "5"]
    for argv in (
        ["synth", "--config", synth_cfg, "--out", w("data")],
        ["segment", w("data"), "--k", "4", "--out", w("subj"), "--seed", "5"],
        ["group-maps", w("subj"), "--k", "4", "--out", w("maps_raw.json"), "--seed", "5"],
        ["label", w("maps_raw.json"), "--out", w("maps.json")],
        ["backfit", w("data"), w("maps.json"), "--out", w("segs")],
        ["features", w("segs"), "--out", w("features.csv")],
        ["train", w("features.csv"), *rf, "--out", w("model.json")],
        ["evaluate", w("features.csv"), *rf, "--folds", "2", "--out", w("eval.json")],
        ["explain", w("model.json"), w("features.csv"), "--method", "tree",
         "--out", w("shap.json"), "--seed", "5"],
    ):
        assert main(argv) == 0, argv
    return root


def test_synth_wrote_pairs_and_truth(work):
    names = sorted(os.listdir(work / "data"))
    eegb = [n for n in names if n.endswith(".eegb")]
    assert len(eegb) == 6
    assert sorted(os.listdir(work / "data" / "truth")) == [
        n.replace(".eegb", ".seg") for n in eegb
    ]
    rec = load_recording(str(work / "data" / eegb[0]))
    assert rec.label in ("NC", "MCI", "DEM")
    truth = load_segmentation(str(work / "data" / "truth" / eegb[0].replace(".eegb", ".seg")))
    assert (truth.subject_id, truth.label) == (rec.subject_id, rec.label)
    assert truth.n_samples == rec.data.shape[1]


def test_preprocess_verb(work):
    cfg = _write(work / "prep.json", {"band": [1.0, 30.0]})
    rc = main(["preprocess", str(work / "data"), "--config", cfg,
               "--out", str(work / "prep")])
    assert rc == 0
    rec = load_recording(str(work / "prep" / "NC_000.eegb"))
    assert any(p.startswith("fir_bandpass") for p in rec.provenance)


def test_segment_group_label_chain(work):
    assert len(os.listdir(work / "subj")) == 6
    assert read_json(str(work / "maps_raw.json"))["k"] == 4
    doc = read_json(str(work / "maps.json"))
    assert sorted(doc["labels"]) == ["A", "B", "C", "F"]


def test_backfit_and_features(work):
    assert len(os.listdir(work / "segs")) == 6
    table = load_feature_table(str(work / "features.csv"))
    assert table.n_rows == 6
    assert len(table.feature_names) == 21
    assert set(table.class_names) == {"NC", "MCI", "DEM"}


def test_partial_leftovers_are_not_inputs(work, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("NC_000", "MCI_000"):
        shutil.copy(work / "data" / (name + ".eegb"), data)
    # what an interrupted write leaves behind
    shutil.copy(work / "data" / "DEM_000.eegb", data / "DEM_000.partial.eegb")
    assert [load().subject_id for load in load_input_recordings(str(data))] == [
        "MCI_000", "NC_000"
    ]
    for verb, src, ext, out in (("group-maps", "subj", ".json", "g.json"),
                                ("features", "segs", ".seg", "f.csv")):
        leftover_dir = tmp_path / src
        shutil.copytree(work / src, leftover_dir)
        blob = (work / src / ("NC_000" + ext)).read_bytes()
        (leftover_dir / ("NC_009.partial" + ext)).write_bytes(blob[: len(blob) // 2])
        assert main([verb, str(leftover_dir), "--out", str(tmp_path / out)]) == 0


def test_train_evaluate_explain_chain(work):
    doc = read_json(str(work / "model.json"))
    assert doc["kind"] == "rf"
    assert len(doc["feature_names"]) == 21
    ev = read_json(str(work / "eval.json"))
    assert 0.0 <= ev["accuracy"] <= 1.0
    assert len(ev["fold_metrics"]) == 2
    shap = read_json(str(work / "shap.json"))
    assert shap["method"] == "tree"
    assert len(shap["subject_ids"]) == 6
    phi = np.asarray(shap["phi"])
    assert phi.shape == (6, 21, 3)
    # additivity survives the JSON round trip
    recon = np.asarray(shap["phi0"]) + phi.sum(axis=1)
    assert np.all(np.isfinite(recon))


def test_explain_class_slice(work):
    assert main(["explain", str(work / "model.json"),
                 str(work / "features.csv"), "--method", "tree",
                 "--class", "DEM", "--out", str(work / "shap_dem.json"),
                 "--seed", "5"]) == 0
    doc = read_json(str(work / "shap_dem.json"))
    assert doc["class_names"] == ["DEM"]
    assert np.asarray(doc["phi"]).shape == (6, 21, 1)
    full = read_json(str(work / "shap.json"))
    ci = full["class_names"].index("DEM")
    assert doc["phi"][0][0][0] == full["phi"][0][0][ci]


def test_explain_rank_outputs(work):
    assert main(["explain-rank", str(work / "shap.json"),
                 "--out", str(work / "ranking.csv")]) == 0
    lines = open(work / "ranking.csv").read().splitlines()
    assert lines[0] == "scope,rank,feature,mean_abs_shap"
    scopes = {l.split(",")[0] for l in lines[1:]}
    assert scopes == {"all", "NC", "MCI", "DEM"}
    assert (work / "ranking_DEM.svg").exists()
    svg = open(work / "ranking_DEM.svg").read()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_stats_verb(work):
    assert main(["stats", str(work / "features.csv"),
                 "--out", str(work / "stats.json")]) == 0
    doc = read_json(str(work / "stats.json"))
    assert "A_occurrence" in doc["features"]
    entry = doc["features"]["A_occurrence"]
    assert "kruskal" in entry and "dunn" in entry and "shapiro" in entry


def test_topo_verb(work):
    assert main(["topo", str(work / "maps.json"),
                 "--out", str(work / "topos")]) == 0
    files = sorted(os.listdir(work / "topos"))
    assert files == ["A.svg", "B.svg", "C.svg", "F.svg"]
    svg = open(work / "topos" / "A.svg").read()
    assert "<circle" in svg and "</svg>" in svg


# names that are legal file names but markup or CSV syntax
_MARKUP_NAMES = ("A&B", "C<D", "E,1")


def _parse_svgs(directory):
    """Parse every SVG under directory as XML; return their file names."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".svg"))
    for name in names:
        ET.parse(os.path.join(directory, name))
    return names


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_topo_and_explain_rank_svgs_escape_names(tmp_path):
    montage = standard_1020_montage()
    rng = np.random.default_rng(0)
    topographies = rng.standard_normal((3, len(montage.names)))
    topographies -= topographies.mean(axis=1, keepdims=True)
    topographies /= np.linalg.norm(topographies, axis=1, keepdims=True)
    maps = MicrostateMaps(channels=montage.names, maps=topographies, labels=_MARKUP_NAMES)
    maps_json = _write(tmp_path / "maps.json", maps.to_json_dict())
    assert main(["topo", maps_json, "--out", str(tmp_path / "topo")]) == 0
    assert _parse_svgs(tmp_path / "topo") == [f"{n}.svg" for n in sorted(_MARKUP_NAMES)]

    expl = msaf.ShapExplanation(
        method="kernel", classes=(0, 1), phi0=np.zeros(2),
        phi=rng.standard_normal((4, 3, 2)),
        feature_names=tuple(f"{n}_gev" for n in _MARKUP_NAMES),
    )
    (tmp_path / "rank").mkdir()
    shap_json = _write(tmp_path / "rank" / "shap.json",
                       {**expl.to_json_dict(), "class_names": ["N&C", "M<D"]})
    out = str(tmp_path / "rank" / "ranking.csv")
    assert main(["explain-rank", shap_json, "--out", out]) == 0
    assert _parse_svgs(tmp_path / "rank") == ["ranking_M<D.svg", "ranking_N&C.svg"]
    rows = _csv_rows(out)
    assert rows[0] == ["scope", "rank", "feature", "mean_abs_shap"]
    assert all(len(r) == 4 for r in rows)
    assert {r[0] for r in rows[1:]} == {"all", "N&C", "M<D"}
    assert {r[2] for r in rows[1:]} == {f"{n}_gev" for n in _MARKUP_NAMES}


def test_band_sweep_csv_and_svg_hold_any_band_name(tmp_path, monkeypatch):
    accuracy = {(1.0, 4.0): 0.5, (4.0, 8.0): 0.75}
    monkeypatch.setattr(msaf.pipeline, "run_pipeline",
                        lambda cfg, threads: {"cv_accuracy": accuracy[cfg.band]})
    cfg = PipelineConfig(input_dir=str(tmp_path), out_dir=str(tmp_path / "sweep"))
    os.mkdir(tmp_path / "sweep")
    msaf.band_sweep(cfg, [("a,b", (1.0, 4.0)), ("c<d&e", (4.0, 8.0))])
    rows = _csv_rows(tmp_path / "sweep" / "band_sweep.csv")
    assert rows == [["band", "low_hz", "high_hz", "cv_accuracy", "rank"],
                    ["c<d&e", "4.0", "8.0", "0.75", "1"], ["a,b", "1.0", "4.0", "0.5", "2"]]
    assert _parse_svgs(tmp_path / "sweep") == ["band_sweep.svg"]


def test_run_verb_and_rerun_identical(work, tmp_path):
    cfg = {
        "input_dir": str(work / "data"),
        "out_dir": str(tmp_path / "run1"),
        "k": 4,
        "seed": 5,
        "cv_folds": 2,
        "classifier": {"kind": "rf", "params": {"n_trees": 10}},
        "explain": {"method": "tree", "background": 4},
    }
    c1 = _write(tmp_path / "run1.json", cfg)
    assert main(["run", "--config", c1]) == 0
    cfg["out_dir"] = str(tmp_path / "run2")
    c2 = _write(tmp_path / "run2.json", cfg)
    assert main(["run", "--config", c2, "--threads", "3"]) == 0
    for name in ("features.csv", "eval.json", "shap.json", "maps.json",
                 "model.json", "ranking.csv", "stats.json"):
        assert filecmp.cmp(tmp_path / "run1" / name,
                           tmp_path / "run2" / name, shallow=False), name
    manifest = read_json(str(tmp_path / "run1" / "manifest.json"))
    assert manifest["seed"] == 5
    assert "config_hash" in manifest and "versions" in manifest


def test_band_sweep_verb(work, tmp_path):
    cfg = _write(tmp_path / "sweep.json", {
        "input_dir": str(work / "data"),
        "out_dir": str(tmp_path / "sweep"),
        "k": 4,
        "seed": 5,
        "cv_folds": 2,
        "classifier": {"kind": "rf", "params": {"n_trees": 10}},
        "explain": {"method": "tree", "background": 4},
    })
    assert main(["band-sweep", "--config", cfg,
                 "--bands", "theta,alpha"]) == 0
    rows = read_json(str(tmp_path / "sweep" / "band_sweep.json"))["bands"]
    assert [r["rank"] for r in rows] == [1, 2]
    assert {r["band"] for r in rows} == {"theta", "alpha"}
    csv_lines = open(tmp_path / "sweep" / "band_sweep.csv").read().splitlines()
    assert csv_lines[0] == "band,low_hz,high_hz,cv_accuracy,rank"
    assert (tmp_path / "sweep" / "band_sweep.svg").exists()


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    bad = _write(tmp_path / "bad.json", {"input_dir": "/nonexistent",
                                         "out_dir": str(tmp_path / "o")})
    assert main(["run", "--config", bad]) == 2
    err = capsys.readouterr().err.strip()
    doc = json.loads(err.splitlines()[-1])
    assert doc["exit_code"] == 2
    assert doc["category"] == "ConfigError"


def test_exit_code_2_on_unknown_config_key(tmp_path, work):
    bad = _write(tmp_path / "bad2.json", {
        "input_dir": str(work / "data"),
        "out_dir": str(tmp_path / "o"),
        "bogus_key": 1,
    })
    assert main(["run", "--config", bad]) == 2


def _assert_config_error(capsys, out, error="InvalidConfig"):
    """One `error` JSON line on stderr (exit 2) and nothing written at out."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == error and err["exit_code"] == 2
    # nothing was written, preprocessed/ included
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "segment", "group-maps"])
@pytest.mark.parametrize("kmeans", [
    {"n_inits": 0}, {"n_inits": 2.5}, {"max_iter": 0}, {"max_iter": "5"},
    {"tol": -1.0}, {"tol": "1e-8"}, {"restarts": 3},
])
def test_bad_kmeans_config_fails_before_any_output(verb, kmeans, work, tmp_path, capsys):
    out = tmp_path / "o"
    doc = {"kmeans": kmeans}
    if verb == "run":
        doc.update(input_dir=str(work / "data"), out_dir=str(out))
        argv = ["run", "--config", _write(tmp_path / "c.json", doc)]
    else:
        src = work / ("data" if verb == "segment" else "subj")
        argv = [verb, str(src), "--out", str(out),
                "--config", _write(tmp_path / "c.json", doc)]
    assert main(argv) == 2
    _assert_config_error(capsys, out)


def test_group_maps_unknown_config_key(work, tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {"seed": 1, "k": 4})
    out = tmp_path / "g.json"
    assert main(["group-maps", str(work / "subj"), "--config", cfg,
                 "--out", str(out)]) == 2
    _assert_config_error(capsys, out)


def test_group_maps_config_reproduces_run_maps(work, tmp_path):
    kmeans = {"n_inits": 3, "max_iter": 40, "tol": 1e-6}
    run_cfg = _write(tmp_path / "run.json", {
        "input_dir": str(work / "data"), "out_dir": str(tmp_path / "run"),
        "kmeans": kmeans, "seed": 3, "cv_folds": 2,
        "classifier": {"kind": "rf", "params": {"n_trees": 4}},
        "explain": {"method": "tree", "background": 2},
    })
    assert main(["run", "--config", run_cfg]) == 0
    cfg = _write(tmp_path / "gm.json", {"kmeans": kmeans, "seed": 3})
    assert main(["group-maps", str(tmp_path / "run" / "subject_maps"),
                 "--config", cfg, "--out", str(tmp_path / "g.json")]) == 0
    assert main(["label", str(tmp_path / "g.json"),
                 "--out", str(tmp_path / "labeled.json")]) == 0
    assert filecmp.cmp(tmp_path / "labeled.json", tmp_path / "run" / "maps.json",
                       shallow=False)
    # the remaining stage verbs, on the run's artifacts with its seed and settings
    run, seed = tmp_path / "run", ["--seed", "3"]
    rf = ["--model", "rf", "--params", '{"n_trees": 4}']
    assert main(["features", str(run / "segmentations"),
                 "--out", str(tmp_path / "features.csv")]) == 0
    assert main(["train", str(run / "features.csv"), *rf,
                 "--out", str(tmp_path / "model.json"), *seed]) == 0
    assert main(["evaluate", str(run / "features.csv"), *rf, "--folds", "2",
                 "--out", str(tmp_path / "eval.json"), *seed]) == 0
    for name in ("features.csv", "model.json", "eval.json"):
        assert filecmp.cmp(tmp_path / name, run / name, shallow=False), name
    assert main(["explain", str(run / "model.json"), str(run / "features.csv"),
                 "--method", "tree", "--background", "2",
                 "--out", str(tmp_path / "shap.json"), *seed]) == 0
    verb_doc, run_doc = read_json(str(tmp_path / "shap.json")), read_json(str(run / "shap.json"))
    for key in ("phi", "phi0", "classes", "feature_names", "meta", "method", "subject_ids"):
        assert verb_doc[key] == run_doc[key], key


@pytest.mark.parametrize("classifier,grid", [
    ({"kind": "rf", "params": {"foo": 1}}, None),
    ({"kind": "gbt", "params": {"n_trees": 5}}, None),
    ({"kind": "svm"}, {"gamma": [0.1], "depth": [2]}),
])
def test_unknown_classifier_params_fail_before_any_output(
        classifier, grid, work, tmp_path, capsys):
    out = tmp_path / "o"
    doc = {"input_dir": str(work / "data"), "out_dir": str(out),
           "classifier": classifier}
    if grid:
        doc["grid"] = grid
    assert main(["run", "--config", _write(tmp_path / "c.json", doc)]) == 2
    _assert_config_error(capsys, out)


@pytest.mark.parametrize("verb,model,flags", [
    ("train", "rf", ["--params", '{"foo": 1}']),
    ("train", "svm", ["--grid", '{"depth": [1, 2]}']),
    # an empty grid is rejected as a run config's is, not trained without a search
    ("train", "svm", ["--grid", "{}"]),
    ("evaluate", "gbt", ["--params", '{"n_trees": 3}']),
    ("train", "svm", ["--params", '{"gamma": -1.0}']),
    ("evaluate", "svm", ["--params", '{"c": 0}']),
    ("train", "gbt", ["--params", '{"n_rounds": 0}']),
    ("train", "gbt", ["--params", '{"max_depth": 0, "valid_fraction": 0}']),
    ("evaluate", "gbt", ["--params", '{"lam": -1.0}']),
    ("train", "gbt", ["--params", '{"learning_rate": 0}']),
    ("train", "rf", ["--params", '{"n_trees": 0}']),
    ("evaluate", "rf", ["--params", '{"n_features_per_split": 99}']),
])
def test_bad_classifier_params_are_config_errors(verb, model, flags, work, tmp_path, capsys):
    out = tmp_path / "o.json"
    argv = [verb, str(work / "features.csv"), "--model", model, "--folds", "2",
            "--out", str(out), *flags]
    assert main(argv) == 2
    _assert_config_error(capsys, out)


@pytest.mark.parametrize("bad", [
    {"min_peak_distance_ms": "x"},
    {"min_peak_distance_ms": -1.0},
    {"min_peak_distance_ms": float("inf")},
    {"min_segment_ms": "x"},
    {"min_segment_ms": float("nan")},
    {"min_segment_ms": -5},
    {"explain": {"n_samples": 0}},
    {"explain": {"n_samples": 2.5}},
    {"explain": {"n_samples": True}},
    {"explain": {"background": "abc"}},
    {"explain": {"background": 0}},
    {"seed": True},
    {"seed": -1},
    {"classifier": {"kind": "svm", "params": {"gamma": -1}}},
    {"classifier": {"kind": "svm", "params": {"c": "1"}}},
    {"classifier": {"kind": "svm"}, "grid": {"c": [1.0, -1.0]}},
    {"classifier": {"kind": "svm"}, "grid": {"gamma": 0.1}},
    {"classifier": {"kind": "rf", "params": {"n_trees": 0}}},
    {"classifier": {"kind": "rf", "params": {"min_samples_split": 1}}},
    {"classifier": {"kind": "rf", "params": {"bootstrap": 1}}},
    {"classifier": {"kind": "rf"}, "grid": {"n_features_per_split": [2, 0]}},
    {"classifier": {"kind": "gbt", "params": {"learning_rate": "x"}}},
    {"classifier": {"kind": "gbt", "params": {"patience": -1}}},
    {"classifier": {"kind": "gbt"}, "grid": {"max_depth": [3, 1.5]}},
    {"steps": [{"kind": "bandpass", "low": "x", "high": 30}]},
    {"steps": [{"kind": "bandpass", "low": 30, "high": 4}]},
    {"steps": [{"kind": "bandpass", "low": 0, "high": 30}]},
    {"steps": [{"kind": "notch", "freq": "50"}]},
    {"steps": [{"kind": "notch", "freq": 50, "width": -1}]},
    {"steps": [{"kind": "laplacian", "n_neighbors": 2.5}]},
    {"steps": [{"kind": "crop", "t_start": 2, "t_end": 1}]},
    {"steps": [{"kind": "crop", "t_start": 0, "t_end": float("nan")}]},
    {"steps": [{"kind": "resample", "fs": 0}]},
    {"classifier": {"kind": "rf", "params": {"n_features_per_split": 30}}},
    {"classifier": {"kind": "rf"}, "grid": {"n_features_per_split": [4, 22]}},
    {"k": 3, "classifier": {"kind": "rf", "params": {"n_features_per_split": 17}}},
    {"steps": 5},
    {"steps": {}},
    {"steps": [{"kind": []}]},
    {"explain": 5},
    {"explain": []},
    {"classifier": 5},
    {"band": 0},
    {"band": "12"},
    {"band": [1, 2, 3]},
    {"montage": 5},
    {"montage": []},
    {"montage": "Fz"},
    {"labeling": None},
    {"k": 256},
    {"classifier": {"kind": "gbt", "params": {"valid_fraction": 1.0}}},
    {"classifier": {"kind": "gbt"}, "grid": {"valid_fraction": [0.2, 5.0]}},
    # rules across keys: 4 canonical templates, TreeSHAP needs a tree
    # ensemble, exact Shapley values enumerate at most 20 of the 5k + 1 features
    {"k": 5},
    {"explain": {"method": "tree"}},
    {"explain": {"method": "exact"}},
])
def test_bad_run_values_fail_before_any_output(bad, work, tmp_path, capsys):
    out = tmp_path / "o"
    doc = {"input_dir": str(work / "data"), "out_dir": str(out), **bad}
    assert main(["run", "--config", _write(tmp_path / "c.json", doc)]) == 2
    _assert_config_error(capsys, out)


# steps whose values pass the config checks but not a 6-s recording at 250 Hz
_ABOVE_NYQUIST = {"steps": [{"kind": "bandpass", "low": 1.0, "high": 200.0}]}
_CROP_PAST_END = {"steps": [{"kind": "crop", "t_start": 10.0, "t_end": 20.0}]}
_RECORDING_LIMITS = ((_ABOVE_NYQUIST["steps"], "InvalidBand"),
                     (_CROP_PAST_END["steps"], "EmptyCrop"))
# positional inputs of each verb, in the work fixture
_STAGE_INPUTS = {
    "backfit": ("data", "maps.json"), "preprocess": ("data",), "group-maps": ("subj",),
    "segment": ("data",),
    "train": ("features.csv",), "evaluate": ("features.csv",), "topo": ("maps.json",),
    "label": ("maps.json",),
}


@pytest.mark.parametrize("verb,doc,flags", [
    ("preprocess", {"steps": [{"kind": "bandpass", "low": "x", "high": 30}]}, []),
    ("preprocess", {"steps": [{"kind": "resample", "fs": -250}]}, []),
    ("band-sweep", {"steps": [{"kind": "notch", "freq": None}]}, []),
    ("band-sweep", {}, ["--bands", "theta,bad=30-4"]),
    ("synth", {"kind": "cohort", "n_per_class": "abc"}, []),
    ("synth", {"kind": "cohort", "n_per_class": 0}, []),
    ("synth", {"kind": "band_cohort", "snr": "x"}, []),
    ("synth", {"kind": "band_cohort", "n_per_class": 1, "duration": -1}, []),
    ("synth", {"kind": "band_cohort", "n_per_class": 1, "fs": float("nan")}, []),
    ("synth", {"kind": "band_cohort", "n_per_class": 1, "band": ["x", 8]}, []),
    ("backfit", None, ["--min-segment-ms", "-5"]),
    ("backfit", None, ["--min-segment-ms", "nan"]),
    ("run", _ABOVE_NYQUIST, []),
    ("run", _CROP_PAST_END, []),
    ("preprocess", _ABOVE_NYQUIST, []),
    ("preprocess", _CROP_PAST_END, []),
    ("synth", {"kind": "single", "foo": 1}, []),
    ("synth", {"kind": "cohort", "base": {"duration": "x"}}, []),
    ("synth", {"kind": "single", "fs": "x"}, []),
    ("train", None, ["--folds", "1"]),
    ("evaluate", None, ["--folds", "1"]),
    ("group-maps", None, ["--k", "0"]),
    ("topo", None, ["--size", "0"]),
    ("topo", None, ["--size", "-5"]),
    ("preprocess", {"band": "12"}, []),
    ("preprocess", {"band": [1, 2, 3]}, []),
    ("preprocess", {"band": 0}, []),
    ("preprocess", {"montage": []}, []),
    ("preprocess", {"montage": "Fz"}, []),
    ("preprocess", {"montage": 5}, []),
    ("synth", {"profiles": 5}, []),
    ("synth", {"profiles": {"NC": {"weights": "abc"}}}, []),
    ("synth", {"n_per_class": 1, "profiles": {}}, []),
    ("synth", {"kind": "single", "channels": 5}, []),
    ("synth", {"kind": "single", "channels": "Fz"}, []),
    ("segment", None, ["--k", "256"]),
    ("group-maps", None, ["--k", "256"]),
    ("train", None, ["--model", "gbt", "--params", '{"valid_fraction": 1.0}']),
    ("evaluate", None, ["--model", "gbt", "--params", '{"valid_fraction": 5.0, "patience": 3}']),
    # names that would become file names outside, or unlisted under, --out
    ("synth", {"kind": "single", "subject_id": "../escape", "duration": 2.0}, []),
    ("synth", {"kind": "single", "subject_id": "sub/one", "duration": 2.0}, []),
    ("synth", {"kind": "single", "subject_id": "..", "duration": 2.0}, []),
    ("synth", {"kind": "single", "subject_id": "a.partial", "duration": 2.0}, []),
    ("synth", {"kind": "single", "label": "a\\b", "duration": 2.0}, []),
    ("synth", {"n_per_class": 1, "base": {"duration": 2.0},
               "profiles": {"a/b": {"weights": [1, 1, 1, 1]}}}, []),
    ("band-sweep", {}, ["--bands", "../../bx=4-8"]),
    ("label", None, ["--mapping", "0=A,1=B,2=C,3=../F"]),
])
def test_bad_stage_values_fail_before_any_output(verb, doc, flags, work, tmp_path, capsys):
    out = tmp_path / "o"
    argv = [verb, *(str(work / name) for name in _STAGE_INPUTS.get(verb, ()))]
    if verb in ("run", "band-sweep"):
        doc = {"input_dir": str(work / "data"), "cv_folds": 2, **doc}
    if doc is not None:
        argv += ["--config", _write(tmp_path / "c.json", doc)]
    assert main(argv + ["--out", str(out), *flags]) == 2
    # limits set by the recording itself raise the step's own ConfigError
    steps = (doc or {}).get("steps")
    error = next((e for limit, e in _RECORDING_LIMITS if limit == steps), "InvalidConfig")
    _assert_config_error(capsys, out, error)


# filters that would need terabytes of taps: without the tap cap numpy
# refuses the allocation at once, an InternalError (exit 1)
@pytest.mark.parametrize("doc", [
    {"band": [1e-9, 2e-9]},
    {"steps": [{"kind": "notch", "freq": 50.0, "width": 1e-9}]},
])
def test_run_rejects_a_filter_above_the_tap_cap(doc, work, tmp_path, capsys):
    out = tmp_path / "o"
    doc = {"input_dir": str(work / "data"), "out_dir": str(out), "cv_folds": 2, **doc}
    assert main(["run", "--config", _write(tmp_path / "c.json", doc)]) == 2
    _assert_config_error(capsys, out, "InvalidBand")


def test_backfit_rejects_more_maps_than_uint8_states(work, tmp_path, capsys):
    montage = standard_1020_montage()
    maps = np.random.default_rng(0).standard_normal((256, montage.n_channels))
    maps -= maps.mean(axis=1, keepdims=True)
    maps /= np.linalg.norm(maps, axis=1, keepdims=True)
    doc = MicrostateMaps(
        channels=montage.names, maps=maps, labels=[f"m{i}" for i in range(256)]
    ).to_json_dict()
    out = tmp_path / "o"
    assert main(["backfit", str(work / "data"), _write(tmp_path / "maps.json", doc),
                 "--out", str(out)]) == 2
    _assert_config_error(capsys, out)


def _bad_magic(blob):
    return b"XXXXXXXX" + blob[8:]


def _header_past_end(blob):
    return blob[:8] + len(blob).to_bytes(4, "little") + blob[12:]


def _truncated_payload(blob):
    return blob[:-1]


def _nan_gfp(blob):
    """The last GFP value, the last 8 bytes, made NaN."""
    return blob[:-8] + np.float64(np.nan).tobytes()


def _seg_header(**changes):
    """A corruption that changes some keys of a .seg file's header."""
    def corrupt(blob):
        return with_header(blob, lambda h: {**h, **changes})
    corrupt.__name__ = "header_" + ",".join(f"{k}={v!r}" for k, v in changes.items())
    return corrupt


@pytest.mark.parametrize("corrupt,error", [
    (_bad_magic, "BadMagic"),
    (_header_past_end, "ShapeMismatch"),
    (_truncated_payload, "ShapeMismatch"),
    (_nan_gfp, "NonFiniteData"),
    (_seg_header(fs=0), "IoFailure"),
    (_seg_header(fs=-250), "IoFailure"),
    (_seg_header(fs="250"), "IoFailure"),
])
def test_corrupt_segmentation_is_one_data_error(corrupt, error, work, tmp_path, capsys):
    segs = tmp_path / "segs"
    shutil.copytree(work / "segs", segs)
    path = segs / "MCI_001.seg"
    path.write_bytes(corrupt(path.read_bytes()))
    out = tmp_path / "f.csv"
    assert main(["features", str(segs), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert (err["error"], err["category"], err["exit_code"]) == (error, "DataError", 3)
    assert not out.exists()


def test_run_config_without_input_dir(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--config", _write(tmp_path / "c.json", {"out_dir": str(out)})]) == 2
    _assert_config_error(capsys, out)


def test_config_json_form_is_pinned():
    """asdict is the config's JSON form; config_hash pins its bytes."""
    cfg = PipelineConfig.from_json_dict({
        "input_dir": ".", "out_dir": "out", "montage": ["Fz", "Cz", "Pz", "O1"],
        "steps": [{"kind": "notch", "freq": 50}, {"kind": "bandpass", "low": 1, "high": 30}],
        "band": [4, 8], "k": 3, "kmeans": {"n_inits": 5}, "min_peak_distance_ms": 2,
        "min_segment_ms": 10.0, "classifier": {"kind": "rf", "params": {"n_trees": 7}},
        "grid": {"max_depth": [2, None]}, "cv_folds": 3, "explain": {"background": 9},
        "seed": 11,
    })
    assert PipelineConfig.from_json_dict(dataclasses.asdict(cfg)) == cfg
    assert dataclasses.replace(cfg, seed=11) == cfg
    assert config_hash(cfg) == (
        "8c637ca91a91aee88dc578826217bea851cf1b2d1fc2c0575db6dd14b334c880"
    )


def test_segment_bad_peak_distance(work, tmp_path, capsys):
    out = tmp_path / "o"
    cfg = _write(tmp_path / "c.json", {"min_peak_distance_ms": "x"})
    assert main(["segment", str(work / "data"), "--config", cfg, "--out", str(out)]) == 2
    _assert_config_error(capsys, out)


@pytest.mark.parametrize("seed", ["3", True, 1.5, -2])
@pytest.mark.parametrize("verb", ["synth", "segment", "group-maps"])
def test_bad_config_seed_is_config_error(verb, seed, work, tmp_path, capsys):
    out = tmp_path / "o"
    if verb == "synth":
        doc = {"kind": "cohort", "n_per_class": 1, "seed": seed}
        argv = ["synth"]
    else:
        doc = {"seed": seed}
        argv = [verb, str(work / ("data" if verb == "segment" else "subj"))]
    argv += ["--config", _write(tmp_path / "c.json", doc), "--out", str(out)]
    assert main(argv) == 2
    _assert_config_error(capsys, out)


def test_kernel_explain_rejects_zero_samples(work, tmp_path, capsys):
    out = tmp_path / "o.json"
    assert main(["explain", str(work / "model.json"), str(work / "features.csv"),
                 "--method", "kernel", "--n-samples", "0", "--out", str(out)]) == 2
    _assert_config_error(capsys, out)


def test_unexpected_exception_is_one_internal_error_line(work, tmp_path, capsys, monkeypatch):
    def broken(table):
        raise ImportError("No module named 'scipy.special'")

    monkeypatch.setattr(msaf.cli, "compute_stats", broken)
    out = tmp_path / "s.json"
    assert main(["stats", str(work / "features.csv"), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "ImportError",
        "category": "InternalError",
        "message": "No module named 'scipy.special'",
        "exit_code": 1,
    }
    assert not out.exists()


def test_interrupt_is_not_caught(work, tmp_path, monkeypatch):
    def interrupted(table):
        raise KeyboardInterrupt

    monkeypatch.setattr(msaf.cli, "compute_stats", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["stats", str(work / "features.csv"), "--out", str(tmp_path / "s.json")])


@pytest.mark.parametrize("argv", [
    ["no-such-verb"], [], ["run", "--threads", "abc"], ["run", "--no-such-flag"],
    ["features"], ["features", "segs", "--gfp-aggregate", "mode"],
])
def test_usage_errors_are_one_config_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and not captured.out
    err = json.loads(lines[0])
    assert (err["error"], err["category"], err["exit_code"]) == (
        "InvalidConfig", "ConfigError", 2)


@pytest.mark.parametrize("argv", [["-h"], ["--version"], ["run", "-h"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


# Runs msaf verbs in a fresh interpreter in which `import scipy` fails,
# then lists the scipy modules loaded: the runtime needs NumPy only.
_NO_SCIPY_PROBE = """
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"import of {name} blocked", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
import msaf.cli
for argv in json.loads(sys.argv[1]):
    assert msaf.cli.main(argv) == 0, argv
print(json.dumps(sorted(n for n in sys.modules if n.split(".")[0] == "scipy")))
"""


def _child(code, *args, cwd) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter that imports the tested msaf."""
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(msaf.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def _fresh_python(code, *args, cwd) -> str:
    """stdout of code run in a fresh interpreter that imports the tested msaf; it must exit 0."""
    proc = _child(code, *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr[-600:]
    return proc.stdout


def _scipy_loaded_after(verbs, cwd) -> list:
    stdout = _fresh_python(_NO_SCIPY_PROBE, json.dumps(verbs), cwd=cwd)
    return json.loads(stdout.strip().splitlines()[-1])


# Checks msaf's public surface after `import msaf, msaf.cli` in a fresh interpreter.
_SURFACE_PROBE = """
import importlib, inspect, msaf, msaf.cli, msaf.errors

public = msaf.__all__
assert len(public) == len(set(public)), "duplicate names in __all__"
for module, names in msaf._PUBLIC.items():
    submodule = importlib.import_module(f"msaf.{module}")
    for name in names.split():
        assert getattr(msaf, name) is getattr(submodule, name), name
        assert name in public, name
errors = {name for name, obj in vars(msaf.errors).items()
          if inspect.isclass(obj) and issubclass(obj, msaf.errors.MsafError)}
assert errors <= set(public), errors - set(public)
assert msaf.explain is msaf.explain.__globals__["explain"], "msaf.explain is not the function"
print("ok")
"""


def test_public_surface_in_a_fresh_interpreter(tmp_path):
    assert _fresh_python(_SURFACE_PROBE, cwd=tmp_path).strip() == "ok"


def test_readme_python_quick_start_runs_as_written(tmp_path):
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Quick start (Python)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "msaf.explain(" in code
    assert _fresh_python(code, cwd=tmp_path).strip()


def test_cli_import_loads_no_heavy_scipy(tmp_path):
    assert _scipy_loaded_after([], tmp_path) == []


def test_stage_verbs_load_no_heavy_scipy(work, tmp_path):
    feats, model = str(tmp_path / "f.csv"), str(tmp_path / "m.json")
    verbs = [
        ["features", str(work / "segs"), "--out", feats],
        ["train", feats, "--out", model],
        ["evaluate", feats, "--model", "gbt", "--folds", "2",
         "--params", '{"n_rounds": 3, "valid_fraction": 0}',
         "--out", str(tmp_path / "e.json")],
        ["explain", model, feats, "--background", "3", "--n-samples", "64",
         "--out", str(tmp_path / "s.json")],
    ]
    assert _scipy_loaded_after(verbs, tmp_path) == []
    assert read_json(str(tmp_path / "s.json"))["method"] == "kernel"


def test_no_verb_loads_scipy(tmp_path):
    synth = _write(tmp_path / "synth.json",
                   {"kind": "cohort", "n_per_class": 3, "base": {"duration": 6.0}})
    run = _write(tmp_path / "run.json",
                 {"input_dir": "data", "out_dir": "run", "k": 4, "cv_folds": 2,
                  "explain": {"background": 4, "n_samples": 64}})
    verbs = [
        ["synth", "--config", synth, "--out", "data", "--seed", "3"],
        ["run", "--config", run, "--seed", "3"],
        ["stats", "run/features.csv", "--out", "stats.json"],
        ["group-maps", "run/subject_maps", "--out", "raw.json"],
        ["label", "raw.json", "--out", "maps.json"],
        ["features", "run/segmentations", "--out", "features.csv"],
        ["train", "features.csv", "--out", "model.json"],
        ["evaluate", "features.csv", "--model", "gbt", "--folds", "2",
         "--params", '{"n_rounds": 3, "valid_fraction": 0}', "--out", "eval.json"],
        ["explain", "model.json", "features.csv", "--background", "3",
         "--n-samples", "64", "--out", "shap.json"],
    ]
    assert _scipy_loaded_after(verbs, tmp_path) == []
    assert read_json(str(tmp_path / "maps.json"))["labels"]
    assert read_json(str(tmp_path / "shap.json"))["method"] == "kernel"
    assert "kruskal" in read_json(str(tmp_path / "stats.json"))["features"]["A_occurrence"]


def test_exit_code_3_on_unlabeled_stats(tmp_path, capsys):
    path = tmp_path / "one_class.csv"
    with open(path, "w") as f:
        f.write("subject_id,label,f1\na,NC,1.0\nb,NC,2.0\n")
    assert main(["stats", str(path), "--out", str(tmp_path / "s.json")]) == 3
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["category"] == "DataError"


@pytest.mark.parametrize("verb", ["stats", "train"])
def test_repeated_feature_names_are_one_data_error(verb, tmp_path, capsys):
    rows = [f"s{i},{'DEM' if i % 2 else 'NC'},{i % 5}.0,{i % 3}.5" for i in range(20)]
    path = tmp_path / "repeated.csv"
    path.write_text("\n".join(["subject_id,label,x,x", *rows]) + "\n")
    out = tmp_path / "o"
    assert main([verb, str(path), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ShapeMismatch"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["topo", "maps.json"], ["run"], ["synth", "--out", "d"],
    ["topo", "maps.json", "--out", ""], ["run", "--config", ""],
])
def test_missing_or_empty_out_or_config_is_config_error(argv, work, capsys, monkeypatch):
    monkeypatch.chdir(work)
    assert main(argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidConfig"


def test_unknown_band_name(tmp_path, work):
    cfg = _write(tmp_path / "s.json", {
        "input_dir": str(work / "data"),
        "out_dir": str(tmp_path / "x"),
    })
    assert main(["band-sweep", "--config", cfg, "--bands", "sigma"]) == 2


def test_synth_single_kind(tmp_path):
    cfg = _write(tmp_path / "one.json", {
        "kind": "single", "duration": 2.0, "subject_id": "solo",
        "label": "NC", "seed": 3,
    })
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    rec = load_recording(str(tmp_path / "d" / "solo.eegb"))
    assert rec.subject_id == "solo"
    assert rec.data.shape == (19, 500)


def test_failed_synth_leaves_no_output(tmp_path, capsys):
    # the recording overflows float32 only when saved, after its truth is made
    cfg = _write(tmp_path / "big.json", {"kind": "single", "amplitudes": 1e39, "duration": 2})
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NonFiniteData"
    assert not out.exists()


# a verb run under a 2 GiB address-space cap: a bound it misses shows as a
# MemoryError (exit 1), not as a host out of memory
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from msaf.cli import main
sys.exit(main(sys.argv[1:]))
"""


# each asks for far more than 1 GiB of float64 channel-samples
@pytest.mark.parametrize("doc", [
    {"kind": "single", "fs": 1e9, "duration": 1},
    {"kind": "single", "duration": 1e7},
    {"kind": "cohort", "n_per_class": 1, "base": {"duration": 1e6}},
])
def test_oversized_synth_is_a_config_error_before_it_allocates(doc, tmp_path):
    out = tmp_path / "out"
    proc = _child(_CAPPED_MAIN, "synth", "--config", _write(tmp_path / "c.json", doc),
                  "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr[-600:]
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidConfig"
    assert not out.exists()


def test_label_rejects_a_repeated_mapping_index(work, tmp_path, capsys):
    out = tmp_path / "maps.json"
    assert main(["label", str(work / "maps_raw.json"), "--mapping", "0=A,1=B,2=C,3=F,0=X",
                 "--out", str(out)]) == 2
    _assert_config_error(capsys, out, "AmbiguousLabels")


def _not_utf8(path):
    """Copy path's file into a scratch name with a byte no UTF-8 text holds."""
    spoiled = path.parent / ("spoiled_" + path.name)
    spoiled.write_bytes(b"\xff" + path.read_bytes())
    return spoiled


def _one_recording(work, tmp_path, edit=None):
    """A directory holding NC_000 of the work cohort, its header replaced by edit(header)."""
    data = tmp_path / "one"
    data.mkdir()
    path = data / "NC_000.eegb"
    shutil.copy(work / "data" / "NC_000.eegb", path)
    if edit is not None:
        path.write_bytes(with_header(path.read_bytes(), edit))
    return str(data)


def _blocked(tmp_path):
    """An --out path under a regular file, which no directory can be made at."""
    (tmp_path / "file").write_text("x")
    return str(tmp_path / "file" / "o")


def _header_with(work, tmp_path, **fields):
    """A directory holding NC_000 of the work cohort, some header fields changed."""
    return _one_recording(work, tmp_path, lambda h: {**h, **fields})


def _seg_id(work, tmp_path, subject_id):
    """A directory holding NC_000's .seg of the work cohort under another subject id."""
    segs = tmp_path / "segs"
    segs.mkdir()
    blob = (work / "segs" / "NC_000.seg").read_bytes()
    (segs / "NC_000.seg").write_bytes(_seg_header(subject_id=subject_id)(blob))
    return str(segs)


def _changed(path, tmp_path, **changes):
    """A copy of the JSON object at path, with some keys changed."""
    return _write(tmp_path / ("changed_" + path.name), {**read_json(str(path)), **changes})


def _relabeled_table(work, tmp_path, label):
    """A copy of the work feature table whose NC rows carry another label."""
    path = tmp_path / "relabeled.csv"
    path.write_text((work / "features.csv").read_text().replace(",NC,", f",{label},"))
    return str(path)


def _fit_model(work, tmp_path, train, edit):
    """A model.json that train(x, y) fits to the work feature table, changed by edit."""
    table = load_feature_table(str(work / "features.csv"))
    return _write(tmp_path / "model.json", edit(train(table.values, table.y).to_json_dict()))


def _svm_machine(work, tmp_path, edit):
    """An svm model.json fit to the work feature table, its first machine changed by edit."""
    return _fit_model(work, tmp_path, msaf.train_svm_ovr,
                      lambda d: {**d, "machines": [edit(d["machines"][0]), *d["machines"][1:]]})


def _gbt(work, tmp_path, edit):
    """A 2-round gbt model.json fit to the work feature table (3 classes), changed by edit."""
    train = functools.partial(msaf.train_gbt, n_rounds=2, valid_fraction=0)
    return _fit_model(work, tmp_path, train, edit)


def _replaced(values, i, value):
    """A copy of the list values with entry i replaced by value."""
    return [value if j == i else v for j, v in enumerate(values)]


def _first_nan(values):
    """A copy of values, nested lists of numbers, whose first number is NaN."""
    head = _first_nan(values[0]) if isinstance(values[0], list) else float("nan")
    return [head, *values[1:]]


def _tree_with(work, tmp_path, edit):
    """A copy of the work rf model.json whose first tree of two or more splits is updated by
    edit(tree, i), a dict of changed keys; i is the tree's second split, after the root."""
    doc = read_json(str(work / "model.json"))
    tree = next(t for t in doc["trees"] if sum(c >= 0 for c in t["left"]) >= 2)
    tree.update(edit(tree, [i for i, c in enumerate(tree["left"]) if c >= 0][1]))
    return _write(tmp_path / "tree.json", doc)


def _split_with(work, tmp_path, **changes):
    """A copy of the work rf model.json whose root split has some entries changed."""
    return _tree_with(work, tmp_path, lambda tree, i: {
        k: _replaced(tree[k], 0, v) for k, v in changes.items()})


def _leaves(trees, edit):
    """trees, nested lists of model.json trees, with each leaf's value v replaced by edit(v)."""
    if isinstance(trees, list):
        return [_leaves(t, edit) for t in trees]
    return {**trees, "value": [edit(v) if child < 0 else v
                               for child, v in zip(trees["left"], trees["value"])]}


def _rf_leaves(work, tmp_path, edit):
    """A copy of the work rf model.json with each leaf's counts c replaced by edit(c)."""
    doc = read_json(str(work / "model.json"))
    return _write(tmp_path / "leaves.json", {**doc, "trees": _leaves(doc["trees"], edit)})


def _gbt_leaves(work, tmp_path, edit):
    """A 2-round gbt model.json fit to the work feature table, each leaf weight w made edit(w)."""
    return _gbt(work, tmp_path, lambda d: {**d, "trees": _leaves(d["trees"], edit)})


def _nested_rf(work, tmp_path, depth):
    """A copy of the work rf model.json whose one tree is a chain of depth splits, nested
    {"feature", "threshold", "left", "right"} nodes down to {"counts"} leaves.

    The text is built by hand: json.dump takes one Python call per level.
    """
    doc = read_json(str(work / "model.json"))
    leaf = json.dumps({"counts": [1] * len(doc["classes"])})
    tree = ('{"feature": 0, "threshold": 0.5, "left": ' * depth + leaf
            + f', "right": {leaf}}}' * depth)
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({**doc, "trees": ["TREE"]}).replace('"TREE"', tree))
    return str(path)


def _swapped_columns(work, tmp_path, a="A_gev", b="A_meancorr"):
    """A copy of the work feature table with columns a and b swapped, names and values."""
    rows = list(csv.reader((work / "features.csv").read_text().splitlines()))
    i, j = rows[0].index(a), rows[0].index(b)
    for row in rows:
        row[i], row[j] = row[j], row[i]
    path = tmp_path / "swapped.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return str(path)


def _renamed_columns(work, tmp_path):
    """A copy of the work feature table with every feature column renamed."""
    header, rest = (work / "features.csv").read_text().split("\n", 1)
    names = header.split(",")
    path = tmp_path / "renamed.csv"
    path.write_text(",".join(names[:2] + ["x" + n for n in names[2:]]) + "\n" + rest)
    return str(path)


# (argv given the work fixture, a scratch dir and an --out path) -> error, exit code
_IO_FAULTS = {
    "topo-unwritable": (lambda w, t, o: ["topo", str(w / "maps.json"), "--out", _blocked(t)],
                        "IoFailure", 3),
    "segment-unwritable": (lambda w, t, o: ["segment", _one_recording(w, t), "--k", "2",
                                            "--out", _blocked(t)], "IoFailure", 3),
    "synth-unwritable": (lambda w, t, o: ["synth", "--config", _write(
        t / "c.json", {"kind": "single", "duration": 2.0}), "--out", _blocked(t)],
        "IoFailure", 3),
    "explain-rank-unwritable": (lambda w, t, o: ["explain-rank", str(w / "shap.json"),
                                                 "--out", _blocked(t) + ".csv"],
                                "IoFailure", 3),
    "stats-csv-not-utf8": (lambda w, t, o: ["stats", str(_not_utf8(w / "features.csv")),
                                            "--out", o], "IoFailure", 3),
    "topo-json-not-utf8": (lambda w, t, o: ["topo", str(_not_utf8(w / "maps.json")),
                                            "--out", o], "IoFailure", 3),
    "segment-header-not-utf8": (lambda w, t, o: ["segment", _one_recording(
        w, t, lambda h: b"\xff" + json.dumps(h).encode()), "--out", o], "IoFailure", 3),
    # header fields of the wrong type; NC_000 holds 1500 samples
    **{f"preprocess-header-{field}-{value!r}": (
        lambda w, t, o, field=field, value=value: [
            "preprocess", _header_with(w, t, **{field: value}), "--out", o], "IoFailure", 3)
       for field, value in [("n_samples", 1500.9), ("n_samples", "1500"), ("fs", "250"),
                            ("provenance", "abc")]},
    # a header channel outside the built-in 10-20 table is a fault of the file
    "preprocess-header-unknown-channel": (lambda w, t, o: ["preprocess", _one_recording(
        w, t, lambda h: {**h, "channels": ["XX", *h["channels"][1:]]}), "--out", o],
        "IoFailure", 3),
    "explain-rank-bad-shap": (lambda w, t, o: ["explain-rank", _write(
        t / "s.json", {"method": "kernel"}), "--out", o], "IoFailure", 3),
    "explain-rank-class-names-mismatch": (lambda w, t, o: ["explain-rank", _write(
        t / "s.json", {**read_json(str(w / "shap.json")), "class_names": ["NC"]}),
        "--out", o], "IoFailure", 3),
    # shapes that do not fit each other are faults of the file, checked as it decodes
    "explain-rank-phi-2d": (lambda w, t, o: ["explain-rank", _changed(
        w / "shap.json", t, phi=[[1.0, 2.0]]), "--out", o], "IoFailure", 3),
    "explain-rank-too-few-feature-names": (lambda w, t, o: ["explain-rank", _changed(
        w / "shap.json", t, feature_names=read_json(str(w / "shap.json"))["feature_names"][1:]),
        "--out", o], "IoFailure", 3),
    "explain-svm-support-vectors-5-wide": (lambda w, t, o: ["explain", _svm_machine(
        w, t, lambda m: {**m, "support_vectors": [sv[:5] for sv in m["support_vectors"]]}),
        str(w / "features.csv"), "--out", o], "IoFailure", 3),
    "explain-svm-too-few-dual-coefs": (lambda w, t, o: ["explain", _svm_machine(
        w, t, lambda m: {**m, "dual_coef": m["dual_coef"][1:]}),
        str(w / "features.csv"), "--out", o], "IoFailure", 3),
    # the class axis: one svm machine, gbt base score and tree per round for each class
    "explain-svm-2-of-3-machines": (lambda w, t, o: ["explain", _fit_model(
        w, t, msaf.train_svm_ovr, lambda d: {**d, "machines": d["machines"][:2]}),
        str(w / "features.csv"), "--out", o], "IoFailure", 3),
    "explain-gbt-2-base-scores-for-3-classes": (lambda w, t, o: ["explain", _gbt(
        w, t, lambda d: {**d, "base_scores": d["base_scores"][:2]}),
        str(w / "features.csv"), "--out", o], "IoFailure", 3),
    "explain-gbt-rounds-of-2-trees": (lambda w, t, o: ["explain", _gbt(
        w, t, lambda d: {**d, "trees": [row[:2] for row in d["trees"]]}),
        str(w / "features.csv"), "--out", o], "IoFailure", 3),
    **{f"explain-rf-split-on-feature-{f}": (lambda w, t, o, f=f: [
        "explain", _split_with(w, t, feature=f), str(w / "features.csv"), "--out", o],
        "IoFailure", 3)
       for f in (99, -3, 1.5, 2 ** 70, True)},
    # nodes that decoded to a broadcast error (exit 1), or to NaN or a coerced value (exit 0)
    "explain-rf-leaves-of-2-counts-for-3-classes": (lambda w, t, o: ["explain", _rf_leaves(
        w, t, lambda c: c[:2]), str(w / "features.csv"), "--out", o], "IoFailure", 3),
    "explain-rf-null-threshold": (lambda w, t, o: ["explain", _split_with(
        w, t, threshold=None), str(w / "features.csv"), "--out", o], "IoFailure", 3),
    "explain-gbt-nan-leaf-weights": (lambda w, t, o: ["explain", _gbt_leaves(
        w, t, lambda _: float("nan")), str(w / "features.csv"), "--out", o], "IoFailure", 3),
    "explain-gbt-learning-rate-a-string": (lambda w, t, o: ["explain", _gbt(
        w, t, lambda d: {**d, "learning_rate": "0.05"}), str(w / "features.csv"),
        "--out", o], "IoFailure", 3),
    # margins that could pass the bound a boosted fit diverges at (Infinity in shap.json)
    "explain-gbt-leaf-weights-near-the-float-maximum": (lambda w, t, o: ["explain", _gbt_leaves(
        w, t, lambda v: 1.7e308 if v > 0 else -1.7e308), str(w / "features.csv"),
        "--out", o], "IoFailure", 3),
    # a forest without a tree, or with a leaf that counts a class negatively or no row
    # (each exit 0 before), and a file nested deeper than the JSON parser recurses
    "explain-rf-no-trees": (lambda w, t, o: ["explain", _changed(
        w / "model.json", t, trees=[]), str(w / "features.csv"), "--out", o], "IoFailure", 3),
    **{f"explain-rf-leaf-counts-{how}": (lambda w, t, o, edit=edit: ["explain", _rf_leaves(
        w, t, edit), str(w / "features.csv"), "--out", o], "IoFailure", 3)
       for how, edit in [("negative", lambda c: [-1, *(v + 2 for v in c[1:])]),
                         ("all-0", lambda c: [0] * len(c))]},
    "explain-rf-tree-nested-1200-deep": (lambda w, t, o: ["explain", _nested_rf(
        w, t, 1200), str(w / "features.csv"), "--out", o], "IoFailure", 3),
    # trees whose nodes do not link as grown: a cycle (checked before any row descends),
    # a child past the last node or of two nodes, arrays of other lengths, and the
    # nested nodes model.json held before its trees were stored as arrays
    **{f"explain-rf-tree-{how}": (lambda w, t, o, edit=edit: ["explain", _tree_with(
        w, t, edit), str(w / "features.csv"), "--out", o], "IoFailure", 3)
       for how, edit in [
           ("left-back-to-the-root", lambda tree, i: {"left": _replaced(tree["left"], i, 0)}),
           ("right-past-the-last-node", lambda tree, i: {
               "right": _replaced(tree["right"], 0, len(tree["right"]))}),
           ("node-the-child-of-two", lambda tree, i: {
               "right": _replaced(tree["right"], 0, tree["right"][i])}),
           ("threshold-one-short", lambda tree, i: {"threshold": tree["threshold"][:-1]})]},
    "explain-rf-tree-nested": (lambda w, t, o: ["explain", _nested_rf(w, t, 3),
                                                str(w / "features.csv"), "--out", o],
                               "IoFailure", 3),
    # stored numbers that are not finite (NaN phi ranked as nan, exit 0; a NaN svm mean
    # was a SingularSystem, exit 4), and a zero svm scale (exit 4)
    "explain-rank-nan-phi": (lambda w, t, o: ["explain-rank", _changed(
        w / "shap.json", t, phi=_first_nan(read_json(str(w / "shap.json"))["phi"])),
        "--out", o], "IoFailure", 3),
    **{f"explain-svm-{how}": (lambda w, t, o, edit=edit: ["explain", _fit_model(
        w, t, msaf.train_svm_ovr, edit), str(w / "features.csv"), "--out", o], "IoFailure", 3)
       for how, edit in [("nan-mean", lambda d: {**d, "mean": _first_nan(d["mean"])}),
                         ("scale-0", lambda d: {**d, "scale": _replaced(d["scale"], 0, 0.0)})]},
    # a table whose columns are not the ones model.json was trained on, in order
    **{f"explain-columns-{how}": (lambda w, t, o, table=table: [
        "explain", str(w / "model.json"), table(w, t), "--out", o], "DimensionMismatch", 3)
       for how, table in [("swapped", _swapped_columns), ("renamed", _renamed_columns)]},
    "topo-bad-maps": (lambda w, t, o: ["topo", _write(t / "m.json", {"k": 2}), "--out", o],
                      "IoFailure", 3),
    "label-maps-not-object": (lambda w, t, o: ["label", _write(t / "m.json", [1, 2]),
                                               "--out", o], "IoFailure", 3),
    "explain-bad-model": (lambda w, t, o: ["explain", _write(t / "m.json", {"kind": "svm"}),
                                           str(w / "features.csv"), "--out", o],
                          "IoFailure", 3),
    # checked before any input is read: the features file does not exist
    "threads-0": (lambda w, t, o: ["stats", str(t / "none.csv"), "--threads", "0",
                                   "--out", o], "InvalidConfig", 2),
    "threads-negative": (lambda w, t, o: ["stats", str(t / "none.csv"), "--threads", "-1",
                                          "--out", o], "InvalidConfig", 2),
    "duplicate-band-names": (lambda w, t, o: ["band-sweep", "--config", _write(
        t / "c.json", {"input_dir": str(w / "data"), "out_dir": o}),
        "--bands", "a=4-8,a=8-12"], "InvalidConfig", 2),
    # a labeling file that is no maps JSON fails before any stage writes
    "run-labeling-not-maps": (lambda w, t, o: ["run", "--config", _write(
        t / "c.json", {"input_dir": str(w / "data"), "out_dir": o, "cv_folds": 2,
                       "labeling": _write(t / "k3.json", {"k": 3})})], "IoFailure", 3),
    # and so does one with fewer maps than k
    "run-labeling-too-few-maps": (lambda w, t, o: ["run", "--config", _write(
        t / "c.json", {"input_dir": str(w / "data"), "out_dir": o, "cv_folds": 2, "k": 5,
                       "labeling": _write(t / "m.json", msaf.canonical_templates(
                           standard_1020_montage()).to_json_dict())})], "AmbiguousLabels", 2),
    # and one for other channels than the recordings' (19 against 13) fails
    # in the header scan, before any recording is read
    "run-labeling-other-channels": (lambda w, t, o: ["run", "--config", _write(
        t / "c.json", {"input_dir": str(w / "data"), "out_dir": o, "cv_folds": 2,
                       "montage": list(standard_1020_montage().names[:13]),
                       "labeling": _write(t / "m.json", msaf.canonical_templates(
                           standard_1020_montage()).to_json_dict())})],
        "MontageMismatch", 3),
    "band-sweep-labeling-not-maps": (lambda w, t, o: ["band-sweep", "--bands", "theta",
        "--config", _write(t / "c.json", {"input_dir": str(w / "data"), "out_dir": o,
                                          "labeling": _write(t / "k3.json", {"k": 3})})],
        "IoFailure", 3),
    # names read from files that would become file names
    "segment-header-id-with-slash": (lambda w, t, o: ["segment", _header_with(
        w, t, subject_id="a/b"), "--out", o], "IoFailure", 3),
    "features-seg-id-with-slash": (lambda w, t, o: ["features", _seg_id(w, t, "../x"),
                                                    "--out", o], "IoFailure", 3),
    "topo-map-label-with-slash": (lambda w, t, o: ["topo", _changed(
        w / "maps.json", t, labels=["A", "B", "C", "../F"]), "--out", o], "IoFailure", 3),
    "explain-class-name-with-slash": (lambda w, t, o: ["explain", _changed(
        w / "model.json", t, class_names=["DEM", "MCI", "N/C"]), str(w / "features.csv"),
        "--out", o], "IoFailure", 3),
    "explain-rank-class-name-with-slash": (lambda w, t, o: ["explain-rank", _changed(
        w / "shap.json", t, class_names=["DEM", "MCI", ".."]), "--out", o], "IoFailure", 3),
    "train-label-with-slash": (lambda w, t, o: ["train", _relabeled_table(w, t, "N/C"),
                                                "--out", o], "IoFailure", 3),
}


@pytest.mark.parametrize("case", sorted(_IO_FAULTS))
def test_io_and_decode_faults_are_one_error_line(case, work, tmp_path, capsys):
    argv, error, code = _IO_FAULTS[case]
    out = tmp_path / "o"
    assert main(argv(work, tmp_path, str(out))) == code
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert (err["error"], err["exit_code"]) == (error, code)
    assert not out.exists()
    if case == "explain-rank-nan-phi":  # the bad value's echo is cut short
        assert len(lines[0].encode()) <= 400 and "[[[nan, " in lines[0]


_DIVERGING_GBT = {"learning_rate": 1e308, "n_rounds": 5, "valid_fraction": 0.0}


def _diverging_train(w, out):
    return ["train", str(w / "features.csv"), "--model", "gbt",
            "--params", json.dumps(_DIVERGING_GBT), "--out", str(out)]


def _diverging_run(w, out):
    cfg = _write(out.parent / "diverging.json", {
        "input_dir": str(w / "data"), "out_dir": str(out), "cv_folds": 2,
        "classifier": {"kind": "gbt", "params": _DIVERGING_GBT},
    })
    return ["run", "--config", cfg]


@pytest.mark.parametrize("argv", [_diverging_train, _diverging_run])
def test_a_diverging_boosted_fit_is_one_numeric_error_line(argv, work, tmp_path):
    # a fresh interpreter: outside pytest a NumPy overflow warning would
    # print on stderr rather than raise
    out = tmp_path / "o"
    proc = _child("import sys, msaf.cli; sys.exit(msaf.cli.main(sys.argv[1:]))",
                  *argv(work, out), cwd=tmp_path)
    lines = proc.stderr.strip().splitlines()
    assert proc.returncode == 4 and len(lines) == 1, proc.stderr[-600:]
    err = json.loads(lines[0])
    assert (err["error"], err["category"], err["exit_code"]) == ("Diverged", "NumericError", 4)
    assert "round 1" in err["message"]
    assert not (out / "model.json").exists() if argv is _diverging_run else not out.exists()


def test_an_unbounded_forest_tree_grows_until_its_nodes_stop_splitting(tmp_path):
    # one feature equal to the row index and alternating labels: each split
    # peels off one row, so the tree is a chain 599 deep
    table = tmp_path / "chain.csv"
    table.write_text("subject_id,label,x\n" + "".join(
        f"s{i},{'AB'[i % 2]},{i}\n" for i in range(600)))
    model = tmp_path / "model.json"
    assert main(["train", str(table), "--model", "rf", "--out", str(model), "--params",
                 '{"max_depth": null, "bootstrap": false, "n_trees": 1}']) == 0
    (tree,) = model_from_json_dict(read_json(str(model))).trees
    depth = np.zeros(tree.left.size, dtype=int)
    for i in np.flatnonzero(tree.left >= 0):  # parents come before their children
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    assert depth.max() == 599
    assert main(["explain", str(model), str(table), "--method", "tree",
                 "--out", str(tmp_path / "shap.json")]) == 0


def test_explain_rank_replays_run_ranking(work, tmp_path):
    run = tmp_path / "run"
    cfg = _write(tmp_path / "run.json", {
        "input_dir": str(work / "data"), "out_dir": str(run), "seed": 3, "cv_folds": 2,
        "kmeans": {"n_inits": 3, "max_iter": 40},
        "classifier": {"kind": "rf", "params": {"n_trees": 4}},
        "explain": {"method": "tree", "background": 2},
    })
    assert main(["run", "--config", cfg]) == 0
    assert main(["explain-rank", str(run / "shap.json"),
                 "--out", str(tmp_path / "ranking.csv")]) == 0
    assert filecmp.cmp(tmp_path / "ranking.csv", run / "ranking.csv", shallow=False)
    # the explain verb writes the run's shap.json, class names included
    assert main(["explain", str(run / "model.json"), str(run / "features.csv"),
                 "--method", "tree", "--background", "2", "--seed", "3",
                 "--out", str(tmp_path / "shap.json")]) == 0
    assert filecmp.cmp(tmp_path / "shap.json", run / "shap.json", shallow=False)


def test_train_and_evaluate_replay_a_grid_run(work, tmp_path):
    # the grid's best values are in model.json alone; they are evaluate's params
    run = tmp_path / "run"
    grid = {"c": [1.0, 10.0]}
    cfg = _write(tmp_path / "run.json", {
        "input_dir": str(work / "data"), "out_dir": str(run), "seed": 3, "cv_folds": 2,
        "kmeans": {"n_inits": 3, "max_iter": 40}, "classifier": {"kind": "svm"},
        "grid": grid, "explain": {"background": 2, "n_samples": 64},
    })
    assert main(["run", "--config", cfg]) == 0
    best = read_json(str(run / "model.json"))["grid_best_params"]
    assert sorted(best) == ["c"] and "grid_best_params" not in read_json(str(run / "eval.json"))
    svm = [str(run / "features.csv"), "--model", "svm", "--folds", "2", "--seed", "3"]
    assert main(["train", *svm, "--grid", json.dumps(grid),
                 "--out", str(tmp_path / "model.json")]) == 0
    assert main(["evaluate", *svm, "--params", json.dumps(best),
                 "--out", str(tmp_path / "eval.json")]) == 0
    for name in ("model.json", "eval.json"):
        assert (tmp_path / name).read_bytes() == (run / name).read_bytes(), name
