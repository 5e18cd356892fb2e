"""End-to-end analysis pipeline over file-based stage boundaries.

Stages execute sequentially as a DAG over files: load, preprocess,
per-subject clustering, group clustering, labeling, backfitting,
feature extraction, training, evaluation, explanation, statistics.
Every artifact is first written under a ".partial" suffix and renamed
into place on success, so an interrupted or failed stage leaves its
incomplete output clearly marked instead of masquerading as done.

Determinism contract: the config seed fully determines every stochastic
choice (per-subject seeds are derived, never shared), and per-subject
work runs through an order-preserving thread map, so the thread count
can change wall time but never a single output byte.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy

from . import __version__ as _pkg_version
from .errors import (
    DuplicateSubject,
    InvalidConfig,
    MsafError,
    UnlabeledData,
)
from .features import STATE_METRICS, build_feature_table, extract_features
from .io import (
    FeatureTable,
    Recording,
    commit_recording,
    load_feature_table,
    load_recording,
    write_json,
)
from .microstates import (
    MicrostateMaps,
    _check_kmeans_params,
    backfit,
    find_gfp_peaks,
    gfp,
    group_cluster,
    label_maps,
    modified_kmeans,
)
from .models import MODEL_KINDS, check_params, make_trainer
from .models._common import child_seed, require_int, require_real
from .models.evaluate import grid_search, stratified_kfold_cv
from .explain import explain, global_ranking
from .preprocess import (
    apply_fir,
    average_reference,
    crop,
    design_fir_bandpass,
    design_fir_notch,
    resample,
    surface_laplacian,
    zscore_channels,
)
from .stats import dunn_posthoc, kruskal_wallis, shapiro_wilk
from .synth import canonical_templates
from .topo import render_bar_chart

logger = logging.getLogger("msaf.pipeline")

_STEP_REQUIRED = {
    "bandpass": ("low", "high"),
    "notch": ("freq",),
    "zscore": (),
    "average_reference": (),
    "laplacian": (),
    "crop": ("t_start", "t_end"),
    "resample": ("fs",),
}

_STEP_OPTIONAL = {
    "notch": ("width",),
    "laplacian": ("n_neighbors",),
}

_EXPLAIN_METHODS = ("auto", "exact", "kernel", "tree")


def _check_step_values(step: dict) -> None:
    """Raise InvalidConfig unless a step's values suit its kind.

    Limits set by the recording's sampling rate are checked when the step runs.
    """
    kind = step["kind"]
    for key in ("low", "high", "freq", "width", "fs"):
        if key in step:
            require_real(f"{kind} {key}", step[key], strict=True)
    for key in ("t_start", "t_end"):
        if key in step:
            require_real(f"{kind} {key}", step[key], low=-math.inf)
    if "n_neighbors" in step:
        require_int(f"{kind} n_neighbors", step["n_neighbors"], 1)
    for lo, hi in (("low", "high"), ("t_start", "t_end")):
        if lo in step and not step[lo] < step[hi]:
            raise InvalidConfig(f"step {kind!r} needs {lo} < {hi}, got {step!r}")


def kmeans_settings(overrides: Optional[dict]) -> dict:
    """The k-means settings (n_inits, max_iter, tol) with overrides, checked."""
    km = {"n_inits": 20, "max_iter": 200, "tol": 1e-8}
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise InvalidConfig(f"kmeans must be an object, got {overrides!r}")
        extra = set(overrides) - set(km)
        if extra:
            raise InvalidConfig(f"unknown kmeans keys {sorted(extra)}")
        km.update(overrides)
    _check_kmeans_params(km["n_inits"], km["max_iter"], km["tol"])
    return km


@dataclass(frozen=True)
class PipelineConfig:
    """Validated description of one full pipeline run."""

    input_dir: str
    out_dir: str
    montage: Optional[tuple[str, ...]] = None
    steps: tuple[dict, ...] = ()
    band: Optional[tuple[float, float]] = None
    k: int = 4
    kmeans: Optional[dict] = None
    min_peak_distance_ms: float = 0.0
    min_segment_ms: float = 0.0
    labeling: str = "template"
    classifier: Optional[dict] = None
    grid: Optional[dict] = None
    cv_folds: int = 5
    explain: Optional[dict] = None
    seed: int = 0

    _KNOWN = (
        "input_dir", "out_dir", "montage", "steps", "band", "k", "kmeans",
        "min_peak_distance_ms", "min_segment_ms", "labeling", "classifier",
        "grid", "cv_folds", "explain", "seed",
    )

    def __post_init__(self):
        if not isinstance(self.input_dir, str) or not self.input_dir:
            raise InvalidConfig("input_dir must be a non-empty path")
        if not os.path.isdir(self.input_dir):
            raise InvalidConfig(f"input_dir does not exist: {self.input_dir!r}")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise InvalidConfig("out_dir must be a non-empty path")
        if self.montage is not None:
            object.__setattr__(
                self, "montage", tuple(str(c) for c in self.montage)
            )
        steps = []
        for s in self.steps:
            if not isinstance(s, dict) or "kind" not in s:
                raise InvalidConfig(f"each step needs a 'kind', got {s!r}")
            kind = s["kind"]
            if kind not in _STEP_REQUIRED:
                raise InvalidConfig(f"unknown preprocessing step {kind!r}")
            allowed = {"kind", *_STEP_REQUIRED[kind], *_STEP_OPTIONAL.get(kind, ())}
            extra = set(s) - allowed
            if extra:
                raise InvalidConfig(f"step {kind!r} has unknown keys {sorted(extra)}")
            missing = [k for k in _STEP_REQUIRED[kind] if k not in s]
            if missing:
                raise InvalidConfig(f"step {kind!r} is missing {missing}")
            _check_step_values(s)
            steps.append(dict(s))
        object.__setattr__(self, "steps", tuple(steps))
        if self.band is not None:
            try:
                lo, hi = float(self.band[0]), float(self.band[1])
            except (TypeError, ValueError, IndexError):
                raise InvalidConfig(f"band must be [low, high], got {self.band!r}")
            if not 0.0 < lo < hi:
                raise InvalidConfig(f"band must satisfy 0 < low < high, got {self.band!r}")
            object.__setattr__(self, "band", (lo, hi))
        require_int("k", self.k, 1)
        object.__setattr__(self, "kmeans", kmeans_settings(self.kmeans))
        require_real("min_peak_distance_ms", self.min_peak_distance_ms)
        require_real("min_segment_ms", self.min_segment_ms)
        if self.labeling != "template":
            if not os.path.isfile(self.labeling):
                raise InvalidConfig(
                    f"labeling must be 'template' or an existing maps JSON, "
                    f"got {self.labeling!r}"
                )
        clf = {"kind": "svm", "params": {}}
        if self.classifier is not None:
            extra = set(self.classifier) - {"kind", "params"}
            if extra:
                raise InvalidConfig(f"unknown classifier keys {sorted(extra)}")
            clf.update(self.classifier)
        if clf["kind"] not in MODEL_KINDS:
            raise InvalidConfig(
                f"classifier kind must be one of {MODEL_KINDS}, got {clf['kind']!r}"
            )
        if not isinstance(clf.get("params", {}), dict):
            raise InvalidConfig("classifier params must be an object")
        clf.setdefault("params", {})
        if self.grid is not None and (not isinstance(self.grid, dict) or not self.grid):
            raise InvalidConfig("grid must be a non-empty object of lists")
        check_params(clf["kind"], clf["params"], self.grid)
        if clf["kind"] == "rf":
            # split features are drawn from the table's 5k + 1 columns
            width = len(STATE_METRICS) * self.k + 1
            mtry = [clf["params"].get("n_features_per_split")]
            mtry += (self.grid or {}).get("n_features_per_split", [])
            for m in mtry:
                if m is not None and m > width:
                    raise InvalidConfig(
                        f"rf n_features_per_split must be <= {width} for k={self.k}, got {m}"
                    )
        object.__setattr__(self, "classifier", clf)
        require_int("cv_folds", self.cv_folds, 2)
        ex = {"method": "auto", "n_samples": 2048, "background": 64}
        if self.explain is not None:
            extra = set(self.explain) - set(ex)
            if extra:
                raise InvalidConfig(f"unknown explain keys {sorted(extra)}")
            ex.update(self.explain)
        if ex["method"] not in _EXPLAIN_METHODS:
            raise InvalidConfig(
                f"explain method must be one of {_EXPLAIN_METHODS}, got {ex['method']!r}"
            )
        require_int("explain n_samples", ex["n_samples"], 1)
        require_int("explain background", ex["background"], 1)
        object.__setattr__(self, "explain", ex)
        require_int("seed", self.seed, 0)

    @classmethod
    def from_json_dict(cls, d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise InvalidConfig("pipeline config must be a JSON object")
        unknown = set(d) - set(cls._KNOWN)
        if unknown:
            raise InvalidConfig(f"unknown config keys {sorted(unknown)}")
        kw = dict(d)
        if "montage" in kw and kw["montage"] is not None:
            kw["montage"] = tuple(kw["montage"])
        if "steps" in kw:
            kw["steps"] = tuple(kw["steps"])
        if "band" in kw and kw["band"] is not None:
            kw["band"] = tuple(kw["band"])
        return cls(**kw)

    def to_json_dict(self) -> dict:
        return {
            "input_dir": self.input_dir,
            "out_dir": self.out_dir,
            "montage": list(self.montage) if self.montage else None,
            "steps": [dict(s) for s in self.steps],
            "band": list(self.band) if self.band else None,
            "k": self.k,
            "kmeans": dict(self.kmeans),
            "min_peak_distance_ms": self.min_peak_distance_ms,
            "min_segment_ms": self.min_segment_ms,
            "labeling": self.labeling,
            "classifier": {
                "kind": self.classifier["kind"],
                "params": dict(self.classifier["params"]),
            },
            "grid": dict(self.grid) if self.grid else None,
            "cv_folds": self.cv_folds,
            "explain": dict(self.explain),
            "seed": self.seed,
        }

    def replaced(self, **changes) -> "PipelineConfig":
        d = self.to_json_dict()
        d.update(changes)
        return PipelineConfig.from_json_dict(d)


def config_hash(cfg: PipelineConfig) -> str:
    """sha256 over the canonical JSON form of the config."""
    blob = json.dumps(cfg.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _commit_json(path: str, obj) -> None:
    """Write JSON under a .partial name, then rename into place."""
    tmp = path + ".partial"
    write_json(tmp, obj)
    os.replace(tmp, path)


def _commit_text(path: str, text: str) -> None:
    tmp = path + ".partial"
    with open(tmp, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    os.replace(tmp, path)


def _ordered_map(fn: Callable, items: Sequence, threads: int) -> list:
    """Map preserving input order; thread count never changes results."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _artifact_names(directory: str, suffix: str) -> list[str]:
    """Sorted names of the files in a directory ending in suffix.

    Leftovers of an interrupted write (``*.partial.*``) are skipped, so
    they never become inputs.
    """
    return sorted(
        f for f in os.listdir(directory)
        if f.endswith(suffix) and ".partial." not in f
    )


def load_input_recordings(
    input_dir: str, montage: Optional[Sequence[str]] = None
) -> list[Recording]:
    """All .eegb recordings in a directory, sorted by file name."""
    names = _artifact_names(input_dir, ".eegb")
    if not names:
        raise InvalidConfig(f"no .eegb recordings found in {input_dir!r}")
    recs = []
    seen: set[str] = set()
    for name in names:
        rec = load_recording(os.path.join(input_dir, name))
        if montage is not None:
            rec = rec.pick(montage)
        if rec.subject_id in seen:
            raise DuplicateSubject(f"subject id {rec.subject_id!r} appears twice")
        seen.add(rec.subject_id)
        recs.append(rec)
    return recs


def preprocess_recording(rec: Recording, cfg: PipelineConfig) -> Recording:
    """Band selection first, then the configured steps in order."""
    if cfg.band is not None:
        rec = apply_fir(rec, design_fir_bandpass(cfg.band[0], cfg.band[1], rec.fs))
    for step in cfg.steps:
        kind = step["kind"]
        if kind == "bandpass":
            rec = apply_fir(rec, design_fir_bandpass(step["low"], step["high"], rec.fs))
        elif kind == "notch":
            rec = apply_fir(
                rec, design_fir_notch(step["freq"], step.get("width", 2.0), rec.fs)
            )
        elif kind == "zscore":
            rec = zscore_channels(rec)
        elif kind == "average_reference":
            rec = average_reference(rec)
        elif kind == "laplacian":
            rec = surface_laplacian(rec, n_neighbors=step.get("n_neighbors", 4))
        elif kind == "crop":
            rec = crop(rec, step["t_start"], step["t_end"])
        elif kind == "resample":
            rec = resample(rec, step["fs"])
    return rec


def subject_microstates(
    rec: Recording, cfg: PipelineConfig, seed: int
) -> MicrostateMaps:
    """GFP-peak topographies of one subject clustered into k maps."""
    series = gfp(rec)
    peaks = find_gfp_peaks(series, min_distance_ms=cfg.min_peak_distance_ms)
    return modified_kmeans(
        rec.data[:, peaks].T,
        cfg.k,
        n_inits=cfg.kmeans["n_inits"],
        max_iter=cfg.kmeans["max_iter"],
        tol=cfg.kmeans["tol"],
        seed=seed,
        channels=rec.montage.names,
    )


def _labeled_group_maps(
    cfg: PipelineConfig, subj_maps: list[MicrostateMaps], rec0: Recording
) -> MicrostateMaps:
    gmaps = group_cluster(
        subj_maps, cfg.k, **cfg.kmeans, seed=child_seed(cfg.seed, 200)
    )
    if cfg.labeling == "template":
        templates = canonical_templates(rec0.montage)
    else:
        from .io import read_json

        templates = MicrostateMaps.from_json_dict(read_json(cfg.labeling))
    return label_maps(gmaps, templates=templates)


def _segmentation_json(rec: Recording, seg) -> dict:
    d = seg.to_json_dict()
    d["subject_id"] = rec.subject_id
    d["label"] = rec.label
    return d


def compute_stats(table: FeatureTable) -> dict:
    """Per-feature group tests over the class labels.

    Kruskal-Wallis across classes with Dunn-Bonferroni pairs, plus a
    per-class Shapiro-Wilk normality check. Features a test cannot
    handle record the error name instead of numbers.
    """
    if len(table.class_names) < 2:
        raise UnlabeledData("statistics need at least two classes")
    out: dict = {"class_names": list(table.class_names), "features": {}}
    for j, feat in enumerate(table.feature_names):
        col = table.values[:, j]
        groups = [col[table.y == c] for c in range(len(table.class_names))]
        entry: dict = {}
        try:
            kw = kruskal_wallis(groups)
            entry["kruskal"] = kw.to_json_dict()
            entry["dunn"] = [
                {
                    "group_i": table.class_names[p.group_i],
                    "group_j": table.class_names[p.group_j],
                    **p.to_json_dict(),
                }
                for p in dunn_posthoc(groups)
            ]
        except MsafError as e:
            entry["kruskal"] = {"error": type(e).__name__}
        entry["shapiro"] = {}
        for c, cname in enumerate(table.class_names):
            try:
                entry["shapiro"][cname] = shapiro_wilk(groups[c]).to_json_dict()
            except MsafError as e:
                entry["shapiro"][cname] = {"error": type(e).__name__}
        out["features"][feat] = entry
    return out


def _ranking_csv(expl, class_names: Sequence[str]) -> str:
    """ranking.csv: features by mean |attribution|, overall, then per class."""
    lines = ["scope,rank,feature,mean_abs_shap"]
    overall = global_ranking(expl)
    for rank, (feat, score) in enumerate(overall.entries, start=1):
        lines.append(f"all,{rank},{feat},{repr(float(score))}")
    for ci, cname in enumerate(class_names):
        ranked = global_ranking(expl, class_index=ci)
        for rank, (feat, score) in enumerate(ranked.entries, start=1):
            lines.append(f"{cname},{rank},{feat},{repr(float(score))}")
    return "\n".join(lines) + "\n"


def run_pipeline(
    cfg: PipelineConfig, out_dir: Optional[str] = None, threads: int = 1
) -> dict:
    """Execute every stage; returns the manifest dict.

    Artifacts: preprocessed/, subject_maps/, maps.json, segmentations/,
    features.csv, model.json, eval.json, shap.json, ranking.csv,
    stats.json, manifest.json under the output directory.
    """
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    artifacts: list[str] = []

    logger.info("loading recordings from %s", cfg.input_dir)
    recs = load_input_recordings(cfg.input_dir, cfg.montage)

    logger.info("preprocessing %d recordings", len(recs))
    pre_dir = os.path.join(out, "preprocessed")
    os.makedirs(pre_dir, exist_ok=True)

    def _pre(rec: Recording) -> Recording:
        return preprocess_recording(rec, cfg)

    recs = _ordered_map(_pre, recs, threads)
    for rec in recs:
        commit_recording(rec, os.path.join(pre_dir, rec.subject_id))
        artifacts.append(os.path.join("preprocessed", rec.subject_id + ".eegb"))

    logger.info("clustering per-subject microstates (k=%d)", cfg.k)
    maps_dir = os.path.join(out, "subject_maps")
    os.makedirs(maps_dir, exist_ok=True)

    def _subject(item) -> MicrostateMaps:
        idx, rec = item
        return subject_microstates(rec, cfg, seed=child_seed(cfg.seed, 100, idx))

    subj_maps = _ordered_map(_subject, list(enumerate(recs)), threads)
    for rec, m in zip(recs, subj_maps):
        path = os.path.join(maps_dir, rec.subject_id + ".json")
        _commit_json(path, m.to_json_dict())
        artifacts.append(os.path.join("subject_maps", rec.subject_id + ".json"))

    logger.info("group clustering and labeling")
    gmaps = _labeled_group_maps(cfg, subj_maps, recs[0])
    _commit_json(os.path.join(out, "maps.json"), gmaps.to_json_dict())
    artifacts.append("maps.json")

    logger.info("backfitting")
    seg_dir = os.path.join(out, "segmentations")
    os.makedirs(seg_dir, exist_ok=True)

    def _fit(rec: Recording):
        return backfit(rec, gmaps, min_segment_ms=cfg.min_segment_ms)

    segs = _ordered_map(_fit, recs, threads)
    for rec, seg in zip(recs, segs):
        path = os.path.join(seg_dir, rec.subject_id + ".json")
        _commit_json(path, _segmentation_json(rec, seg))
        artifacts.append(os.path.join("segmentations", rec.subject_id + ".json"))

    logger.info("extracting features")
    entries = []
    for rec, seg in zip(recs, segs):
        if rec.label is None:
            raise UnlabeledData(
                f"recording {rec.subject_id!r} has no class label"
            )
        entries.append((rec.subject_id, rec.label, extract_features(seg)))
    table = build_feature_table(entries)
    feat_path = os.path.join(out, "features.csv")
    table.to_csv(feat_path + ".partial")
    os.replace(feat_path + ".partial", feat_path)
    artifacts.append("features.csv")

    kind = cfg.classifier["kind"]
    params = dict(cfg.classifier["params"])
    if cfg.grid:
        logger.info("grid search over %s", sorted(cfg.grid))
        gs = grid_search(
            lambda p: make_trainer(kind, {**params, **p}),
            table.values,
            table.y,
            cfg.grid,
            n_folds=cfg.cv_folds,
            seed=child_seed(cfg.seed, 300),
        )
        params.update(gs.best_params)
        logger.info("grid best %s at %.4f", gs.best_params, gs.best_score)

    logger.info("training final %s model", kind)
    trainer = make_trainer(kind, params)
    model = trainer(table.values, table.y, child_seed(cfg.seed, 301))
    model_doc = model.to_json_dict()
    model_doc["feature_names"] = list(table.feature_names)
    model_doc["class_names"] = list(table.class_names)
    _commit_json(os.path.join(out, "model.json"), model_doc)
    artifacts.append("model.json")

    logger.info("cross-validated evaluation (%d folds)", cfg.cv_folds)
    report = stratified_kfold_cv(
        trainer,
        table.values,
        table.y,
        n_folds=cfg.cv_folds,
        seed=child_seed(cfg.seed, 400),
        class_names=table.class_names,
    )
    eval_doc = report.to_json_dict()
    if cfg.grid:
        eval_doc["grid_best_params"] = {k: params[k] for k in cfg.grid}
    _commit_json(os.path.join(out, "eval.json"), eval_doc)
    artifacts.append("eval.json")

    logger.info("explaining predictions (%s)", cfg.explain["method"])
    n_bg = min(cfg.explain["background"], table.n_rows)
    bg_rng = np.random.default_rng([child_seed(cfg.seed, 500)])
    bg_idx = np.sort(bg_rng.choice(table.n_rows, size=n_bg, replace=False))
    expl = explain(
        model,
        table.values,
        table.values[bg_idx],
        method=cfg.explain["method"],
        n_samples=cfg.explain["n_samples"],
        seed=child_seed(cfg.seed, 501),
        feature_names=table.feature_names,
    )
    shap_doc = expl.to_json_dict()
    shap_doc["subject_ids"] = list(table.subject_ids)
    shap_doc["background_subjects"] = [table.subject_ids[i] for i in bg_idx]
    _commit_json(os.path.join(out, "shap.json"), shap_doc)
    artifacts.append("shap.json")

    _commit_text(
        os.path.join(out, "ranking.csv"),
        _ranking_csv(expl, table.class_names),
    )
    artifacts.append("ranking.csv")

    logger.info("group statistics")
    _commit_json(os.path.join(out, "stats.json"), compute_stats(table))
    artifacts.append("stats.json")

    manifest = {
        "versions": {
            "msaf": _pkg_version,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "seed": cfg.seed,
        "config": cfg.to_json_dict(),
        "config_hash": config_hash(cfg),
        "n_subjects": len(recs),
        "class_names": list(table.class_names),
        "cv_accuracy": report.accuracy,
        "artifacts": artifacts,
    }
    _commit_json(os.path.join(out, "manifest.json"), manifest)
    logger.info("pipeline complete: cv accuracy %.4f", report.accuracy)
    return manifest


def band_sweep(
    cfg: PipelineConfig,
    bands: Sequence[tuple[str, tuple[float, float]]],
    out_dir: Optional[str] = None,
    threads: int = 1,
) -> list[dict]:
    """Run the full pipeline once per band with a shared seed.

    Emits band_sweep.csv, band_sweep.json, and an accuracy bar chart
    (band_sweep.svg) under the output directory; each band's artifacts
    live in a band_<name>/ subdirectory. Returns the result rows sorted
    by descending accuracy.
    """
    if not bands:
        raise InvalidConfig("band sweep needs at least one band")
    out = out_dir or cfg.out_dir
    # every band's config is checked before the first band runs
    sub_cfgs = [
        cfg.replaced(band=[lo, hi], out_dir=os.path.join(out, f"band_{name}"))
        for name, (lo, hi) in bands
    ]
    os.makedirs(out, exist_ok=True)
    rows = []
    for (name, (lo, hi)), sub_cfg in zip(bands, sub_cfgs):
        logger.info("band %s: %.1f-%.1f Hz", name, lo, hi)
        manifest = run_pipeline(sub_cfg, threads=threads)
        rows.append(
            {
                "band": name,
                "low_hz": lo,
                "high_hz": hi,
                "cv_accuracy": manifest["cv_accuracy"],
            }
        )
    order = sorted(
        range(len(rows)), key=lambda i: (-rows[i]["cv_accuracy"], rows[i]["band"])
    )
    ranked = [dict(rows[i], rank=r + 1) for r, i in enumerate(order)]

    csv_lines = ["band,low_hz,high_hz,cv_accuracy,rank"]
    for row in ranked:
        csv_lines.append(
            f"{row['band']},{row['low_hz']},{row['high_hz']},"
            f"{repr(float(row['cv_accuracy']))},{row['rank']}"
        )
    _commit_text(os.path.join(out, "band_sweep.csv"), "\n".join(csv_lines) + "\n")
    _commit_json(os.path.join(out, "band_sweep.json"), {"bands": ranked})

    in_order = [r["band"] for r in rows]
    accs = [r["cv_accuracy"] for r in rows]
    best = int(np.argmax(accs))
    svg = render_bar_chart(
        in_order, accs, title="CV accuracy by frequency band", highlight=best
    )
    _commit_text(os.path.join(out, "band_sweep.svg"), svg)
    return ranked
