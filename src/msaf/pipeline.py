"""End-to-end analysis pipeline over file-based stage boundaries.

Stages execute sequentially as a DAG over files: load, preprocess,
per-subject clustering, group clustering, labeling, backfitting,
feature extraction, training, evaluation, explanation, statistics.
Each stage is one function (``*_stage``) that the CLI's stage verbs
call; `run_pipeline` shares their per-recording functions.
Every artifact is committed by `msaf.io`: written as
``<stem>.partial<ext>`` (parent directories created as needed) and
renamed into place on success, so an interrupted or failed stage leaves
its incomplete output clearly marked instead of masquerading as done,
and listings of stage inputs skip such leftovers. A write fault is an
IoFailure (exit 3).

A run's settings are checked before any stage runs: `PipelineConfig`
checks each block against its `msaf.config` table (types, ranges and
defaults live there, cross-key rules here), and `run_pipeline` decodes a
labeling maps file before the first stage writes anything.

Determinism contract: the config seed fully determines every stochastic
choice (per-subject seeds are derived, never shared), and per-subject
work runs through an order-preserving thread map, so the thread count
can change wall time but never a single output byte.

Recordings stream: `load_input_recordings` reads only the headers and
returns one loader per recording, and each worker of the thread map
loads the recording it processes and does its work while it is in
memory, so a stage holds one recording per worker plus small
per-subject results, never the cohort. Recordings are read as float32
Recordings, which FIR filters, GFP and backfit widen one block at a
time, exactly. `run_pipeline` checks the headers (class sizes, then
labels and channels) before it reads any recording, then calls the
stages in order: `subject_maps_stage` over loaders that preprocess and
stage each recording, so a subject is clustered from its float32
result; `backfit_stage` over the committed preprocessed files; and
`feature_stage` over the committed segmentations. A pass's files are
staged (`msaf.io.staged`) and renamed into place once every recording
has passed, so a faulty recording leaves no output of its pass.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import __version__ as _pkg_version
from .config import (
    CLASSIFIER, EXPLAIN, KMEANS, NAME, OBJECT, RUN, STEP_KIND, STEPS, check, check_value, require,
)
from .errors import (
    AmbiguousLabels, ClassTooSmall, DuplicateSubject, MontageMismatch, MsafError, UnlabeledData,
)
from .features import STATE_METRICS, build_feature_table, extract_features
from .io import (
    FeatureTable,
    Recording,
    Stage,
    _commit,
    _csv_text,
    commit_segmentation,
    load_json,
    load_recording,
    load_segmentation,
    narrow_recording,
    read_recording_header,
    save_recording,
    staged,
    standard_1020_montage,
    write_json,
)
from .microstates import (
    MicrostateMaps,
    Segmentation,
    backfit,
    find_gfp_peaks,
    gfp,
    group_cluster,
    label_maps,
    modified_kmeans,
)
from .models import check_params, make_trainer
from .models._common import child_seed
from .models.evaluate import EvalReport, grid_search, stratified_kfold_cv
from .explain import EXACT_FEATURE_LIMIT, ShapExplanation, explain, global_ranking
from .preprocess import (
    _fir_payload,
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
from .synth import CANONICAL_LABELS, canonical_templates
from .topo import render_bar_chart

logger = logging.getLogger("msaf.pipeline")


def check_steps(steps) -> tuple[dict, ...]:
    """The steps of a preprocessing list, each with a known kind, keys and values.

    Limits set by the recording's sampling rate are checked when the step runs.
    """
    for s in steps:
        kind = check_value("step kind", STEP_KIND, check_value("step", OBJECT, s).get("kind"))
        values = check(f"step {kind!r}", STEPS[kind], {k: v for k, v in s.items() if k != "kind"})
        for lo, hi in (("low", "high"), ("t_start", "t_end")):
            require(lo not in values or values[lo] < values[hi],
                    f"step {kind!r} needs {lo} < {hi}, got {s!r}")
    return tuple(dict(s) for s in steps)


def check_band(band) -> Optional[tuple[float, float]]:
    """The band-selection filter's (low, high) with 0 < low < high, or None for none."""
    band = check_value("band", RUN["band"], band)
    require(band is None or band[0] < band[1], f"band must satisfy low < high, got {band!r}")
    return band


def check_montage(montage) -> Optional[tuple[str, ...]]:
    """Two or more distinct channel names of the built-in 10-20 table to pick, or None for all."""
    montage = check_value("montage", RUN["montage"], montage)
    if montage is not None:
        require(len(set(montage)) == len(montage) > 1,
                f"montage must name two or more distinct channels, got {list(montage)!r}")
        standard_1020_montage(montage)  # an unknown name is UnknownChannel
    return montage


@dataclass(frozen=True)
class PipelineConfig:
    """Validated description of one full pipeline run.

    `dataclasses.asdict` gives its JSON form and `dataclasses.replace`
    a changed copy, checked again.
    """

    input_dir: str
    out_dir: str
    montage: Optional[tuple[str, ...]] = RUN["montage"].default
    steps: tuple[dict, ...] = RUN["steps"].default
    band: Optional[tuple[float, float]] = RUN["band"].default
    k: int = RUN["k"].default
    kmeans: Optional[dict] = RUN["kmeans"].default
    min_peak_distance_ms: float = RUN["min_peak_distance_ms"].default
    min_segment_ms: float = RUN["min_segment_ms"].default
    labeling: str = RUN["labeling"].default
    classifier: Optional[dict] = RUN["classifier"].default
    grid: Optional[dict] = RUN["grid"].default
    cv_folds: int = RUN["cv_folds"].default
    explain: Optional[dict] = RUN["explain"].default
    seed: int = RUN["seed"].default

    def __post_init__(self):
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        cfg = check("run config", RUN, fields)
        require(os.path.isdir(cfg["input_dir"]), f"input_dir does not exist: {cfg['input_dir']!r}")
        cfg["steps"] = check_steps(cfg["steps"])
        check_band(cfg["band"])
        check_montage(cfg["montage"])
        cfg["kmeans"] = check("kmeans", KMEANS, cfg["kmeans"] or {})
        require(
            cfg["labeling"] == "template" or os.path.isfile(cfg["labeling"]),
            f"labeling must be 'template' or an existing maps JSON, got {cfg['labeling']!r}",
        )
        clf = cfg["classifier"] = check("classifier", CLASSIFIER, cfg["classifier"] or {})
        grid = cfg["grid"]
        check_params(clf["kind"], clf["params"], grid)
        # the feature table has 5k + 1 columns
        k, width = cfg["k"], len(STATE_METRICS) * cfg["k"] + 1
        if clf["kind"] == "rf":
            for m in [clf["params"].get("n_features_per_split"),
                      *(grid or {}).get("n_features_per_split", [])]:
                require(m is None or m <= width,
                        f"rf n_features_per_split must be <= {width} for k={k}, got {m}")
        require(cfg["labeling"] != "template" or k <= len(CANONICAL_LABELS),
                f"template labeling names at most {len(CANONICAL_LABELS)} maps, got k={k}")
        cfg["explain"] = check("explain", EXPLAIN, cfg["explain"] or {})
        method = cfg["explain"]["method"]
        require(method != "tree" or clf["kind"] in ("rf", "gbt"),
                f"explain method 'tree' needs an rf or gbt classifier, got {clf['kind']!r}")
        require(method != "exact" or width <= EXACT_FEATURE_LIMIT,
                f"explain method 'exact' enumerates at most {EXACT_FEATURE_LIMIT} features, "
                f"k={k} gives {width}")
        for name, value in cfg.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_json_dict(cls, d: dict) -> "PipelineConfig":
        """A config from a JSON object; unknown and missing required keys fail."""
        return cls(**check("run config", RUN, d))


def config_hash(cfg: PipelineConfig) -> str:
    """sha256 over the canonical JSON form of the config."""
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _commit_text(path: str, text: str) -> None:
    _commit(path, text.encode("utf-8"))


def _ordered_map(fn: Callable, items: Iterable, threads: int) -> list:
    """fn of each item, in order, on `threads` workers; the thread count never changes results.

    The error raised is the earliest item's, as with one thread.
    """
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _artifact_names(directory: str, suffix: str) -> list[str]:
    """Sorted names of the files in a directory ending in suffix.

    Leftovers of an interrupted write (``*.partial.*``) are skipped, so
    they never become inputs. A directory without such files is an error.
    """
    require(os.path.isdir(directory), f"input directory does not exist: {directory!r}")
    names = sorted(
        f for f in os.listdir(directory)
        if f.endswith(suffix) and ".partial." not in f
    )
    require(names, f"no {suffix} files found in {directory!r}")
    return names


def load_input_recordings(
    input_dir: str, montage: Optional[Sequence[str]] = None
) -> list[Callable[[], Recording]]:
    """A loader of each .eegb recording in a directory, sorted by file name.

    Only the headers are read here; one that lacks a channel of montage
    is MontageMismatch. A loader returns its recording as stored, with
    montage's channels picked; one whose subject id an earlier header
    names raises DuplicateSubject.
    """
    loads, headers = _inputs(input_dir, montage)
    for header in filter(None, headers):
        _picked(header, montage)
    return loads


def _inputs(input_dir: str, montage) -> tuple[list, list[Optional[dict]]]:
    """`load_input_recordings`' loaders and each checked header: None where it does not read,
    which its loader reports."""
    loads, headers, seen = [], [], set()
    for name in _artifact_names(input_dir, ".eegb"):
        path = os.path.join(input_dir, name)
        try:
            header = read_recording_header(path)
        except MsafError:
            header = None
        sid = header and header["subject_id"]
        loads.append(functools.partial(_load_input, path, montage, sid in seen))
        headers.append(header)
        seen.add(sid)
    return loads, headers


def _picked(header: dict, montage) -> tuple[str, ...]:
    """A header's channels after the montage pick; MontageMismatch if it lacks one."""
    missing = [c for c in montage or () if c not in header["channels"]]
    if missing:
        raise MontageMismatch(f"recording {header['subject_id']!r} lacks channels {missing}")
    return montage or header["channels"]


def _load_input(path: str, montage, duplicate: bool) -> Recording:
    """One loader's recording; a read or pick fault is reported before a repeated id."""
    rec = load_recording(path)
    if montage is not None:
        rec = rec.pick(montage)
    if duplicate:
        raise DuplicateSubject(f"subject id {rec.subject_id!r} appears twice")
    return rec


# --- stages: each computes from in-memory inputs and explicit settings
# and derives its own seeds from the run seed. A stage over recordings
# takes a loader of each, loads each recording in the worker that
# processes it and keeps only small results; its files are
# staged as they are written and renamed into place when every recording
# has passed. `run_pipeline` and the stage verbs call the same stages.


def preprocess_recording(rec: Recording, steps, band=None) -> Recording:
    """Band selection first, then the configured steps in order, narrowed to float32 as saved.

    A FIR filter that comes last writes the float32 samples itself.
    """
    if band is not None:
        steps = [{"kind": "bandpass", "low": band[0], "high": band[1]}, *steps]
    for i, step in enumerate(steps):
        kind = step["kind"]
        if kind in ("bandpass", "notch"):
            filt = (design_fir_bandpass(step["low"], step["high"], rec.fs) if kind == "bandpass"
                    else design_fir_notch(step["freq"], step.get("width", 2.0), rec.fs))
            rec = (_fir_payload if i == len(steps) - 1 else apply_fir)(rec, filt)
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
    return narrow_recording(rec)


def _preprocessed(load: Callable, steps, band, out_dir: str, stage: Stage) -> Recording:
    """The loaded recording preprocessed and staged as <out_dir>/<id>.eegb.

    Only `preprocess_recording` holds the loaded recording.
    """
    stored = preprocess_recording(load(), steps, band)
    save_recording(stored, os.path.join(out_dir, stored.subject_id), stage)
    return stored


def _subject_maps(
    idx: int, rec: Recording, k: int, kmeans: dict, min_peak_distance_ms: float, seed: int,
) -> MicrostateMaps:
    """Subject idx's GFP-peak topographies clustered into k maps with seed (seed, 100, idx).

    A float32 recording's peak columns are gathered first and widened
    after, exactly, so it gives the same maps as its widened copy.
    """
    peaks = find_gfp_peaks(gfp(rec), rec.fs, min_distance_ms=min_peak_distance_ms)
    return modified_kmeans(
        np.asarray(rec.data[:, peaks], dtype=np.float64).T, k, **kmeans,
        seed=child_seed(seed, 100, idx), channels=rec.montage.names,
    )


def subject_features(
    seg: Segmentation, gfp_aggregate: str = "mean", trim_edge_runs: bool = False
) -> tuple[str, str, dict]:
    """seg's subject's (subject_id, label, feature row) entry of the feature table."""
    if seg.label is None:
        raise UnlabeledData(f"subject {seg.subject_id!r} has no class label")
    return seg.subject_id, seg.label, extract_features(
        seg, gfp_aggregate=gfp_aggregate, trim_edge_runs=trim_edge_runs
    )


def preprocess_stage(
    loads: Sequence[Callable], steps, band, out_dir: str, threads: int = 1
) -> list[str]:
    """Preprocess every recording and commit it as <out_dir>/<id>.eegb; returns the ids.

    Limits that depend on a recording (a band edge above fs/2, a crop
    window past its end, a value that overflows float32) leave no output.
    """
    with staged() as stage:
        return _ordered_map(
            lambda ld: _preprocessed(ld, steps, band, out_dir, stage).subject_id, loads, threads
        )


def subject_maps_stage(
    loads: Sequence[Callable], k: int, kmeans: dict, min_peak_distance_ms: float, seed: int,
    out_dir: str, threads: int = 1,
) -> dict[str, MicrostateMaps]:
    """Each subject's GFP-peak topographies clustered into k maps, by subject id in input order.

    Subject i (in file-name order) uses seed (seed, 100, i). Commits
    <out_dir>/<id>.json.
    """

    def one(item) -> tuple[str, MicrostateMaps]:
        idx, load = item
        rec = load()
        return rec.subject_id, _subject_maps(idx, rec, k, kmeans, min_peak_distance_ms, seed)

    done = dict(_ordered_map(one, enumerate(loads), threads))
    for sid, m in done.items():
        write_json(os.path.join(out_dir, sid + ".json"), m.to_json_dict())
    return done


def group_maps_stage(
    subj_maps, k: int, kmeans: dict, seed: int, out_path: str,
    templates: Optional[MicrostateMaps] = None,
) -> MicrostateMaps:
    """The subjects' maps clustered into k group maps with seed (seed, 200).

    Given templates, the maps are labeled against them before the commit.
    """
    gmaps = group_cluster(subj_maps, k, **kmeans, seed=child_seed(seed, 200))
    if templates is not None:
        gmaps = label_maps(gmaps, templates=templates)
    write_json(out_path, gmaps.to_json_dict())
    return gmaps


def backfit_stage(
    loads: Sequence[Callable], gmaps: MicrostateMaps, min_segment_ms: float, out_dir: str,
    threads: int = 1,
) -> list[str]:
    """Every sample assigned to its best group map; commits <out_dir>/<id>.seg.

    Returns the subject ids in input order.
    """
    check_value("the number of maps", RUN["k"], gmaps.k)

    def one(load: Callable) -> str:
        seg = backfit(load(), gmaps, min_segment_ms=min_segment_ms)
        commit_segmentation(seg, os.path.join(out_dir, seg.subject_id), stage)
        return seg.subject_id

    with staged() as stage:
        return _ordered_map(one, loads, threads)


def feature_stage(
    entries: Iterable[tuple[str, str, dict]], out_path: str
) -> FeatureTable:
    """The feature table of `subject_features` entries, committed as CSV."""
    table = build_feature_table(list(entries))
    table.to_csv(out_path)
    return table


def fit_stage(
    table: FeatureTable, kind: str, params: dict, grid: Optional[dict], n_folds: int,
    seed: int, out_path: str, record_grid: bool = False,
) -> tuple:
    """The final model and its parameters, after a grid search if given.

    The grid search uses seed (seed, 300), the final fit (seed, 301).
    With record_grid, model.json lists the grid's best values under
    grid_best_params (a run lists them in eval.json instead).
    """
    params = dict(params)
    if grid:
        logger.info("grid search over %s", sorted(grid))
        gs = grid_search(
            lambda p: make_trainer(kind, {**params, **p}), table.values, table.y, grid,
            n_folds=n_folds, seed=child_seed(seed, 300),
        )
        params.update(gs.best_params)
        logger.info("grid best %s at %.4f", gs.best_params, gs.best_score)
    logger.info("training final %s model", kind)
    model = make_trainer(kind, params)(table.values, table.y, child_seed(seed, 301))
    doc = model.to_json_dict()
    doc["feature_names"] = list(table.feature_names)
    doc["class_names"] = list(table.class_names)
    if grid and record_grid:
        doc["grid_best_params"] = {k: params[k] for k in grid}
    write_json(out_path, doc)
    return model, params


def cv_stage(
    table: FeatureTable, kind: str, params: dict, n_folds: int, seed: int, out_path: str,
    grid: Optional[dict] = None,
) -> EvalReport:
    """Stratified k-fold cross-validation with seed (seed, 400).

    Given the grid, eval.json lists params' values of its keys under
    grid_best_params.
    """
    logger.info("cross-validated evaluation (%d folds)", n_folds)
    report = stratified_kfold_cv(
        make_trainer(kind, params), table.values, table.y,
        n_folds=n_folds, seed=child_seed(seed, 400), class_names=table.class_names,
    )
    doc = report.to_json_dict()
    if grid:
        doc["grid_best_params"] = {k: params[k] for k in grid}
    write_json(out_path, doc)
    return report


def explain_stage(
    model, table: FeatureTable, settings: dict, seed: int, out_path: str,
    class_names: Sequence[str], only_class: Optional[str] = None,
) -> ShapExplanation:
    """Every row's attributions against background rows drawn from the table.

    The background is drawn with seed (seed, 500), the explainer runs
    with (seed, 501). shap.json lists the class names of the model's
    classes and the background's subjects; only_class keeps one class's
    slice.
    """
    logger.info("explaining predictions (%s)", settings["method"])
    n_bg = min(settings["background"], table.n_rows)
    bg_rng = np.random.default_rng([child_seed(seed, 500)])
    bg_idx = np.sort(bg_rng.choice(table.n_rows, size=n_bg, replace=False))
    expl = explain(
        model, table.values, table.values[bg_idx],
        method=settings["method"], n_samples=settings["n_samples"],
        seed=child_seed(seed, 501), feature_names=table.feature_names,
    )
    doc = expl.to_json_dict()
    doc["subject_ids"] = list(table.subject_ids)
    doc["background_subjects"] = [table.subject_ids[i] for i in bg_idx]
    doc["class_names"] = list(class_names)
    if only_class is not None:
        ci = doc["class_names"].index(only_class)
        doc["phi"] = [[[feat[ci]] for feat in inst] for inst in doc["phi"]]
        doc["phi0"] = [doc["phi0"][ci]]
        doc["classes"] = [doc["classes"][ci]]
        doc["class_names"] = [only_class]
    write_json(out_path, doc)
    return expl


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
    rows = [("scope", "rank", "feature", "mean_abs_shap")]
    for scope, ci in [("all", None), *((c, i) for i, c in enumerate(class_names))]:
        ranked = global_ranking(expl, class_index=ci)
        rows += [(scope, r, f, repr(s)) for r, (f, s) in enumerate(ranked, start=1)]
    return _csv_text(rows)


def _check_cohort(
    headers: Sequence[Optional[dict]], n_folds: int, montage, channels: Optional[tuple]
) -> None:
    """A run's checks of its input headers, made before any recording is read.

    ClassTooSmall if a class has fewer than n_folds recordings (cross-validation
    and a grid search both split into n_folds); a header that does not read (None)
    or holds no label counts for every class. Then UnlabeledData for a header with
    no label, and MontageMismatch for one whose channels after the montage pick
    are not channels (a labeling file's) or else the first header's. A header
    that does not read is left to its loader.
    """
    labels = [header and header["label"] for header in headers]
    known = collections.Counter(label for label in labels if label is not None)
    if known:
        n, label = min((n, label) for label, n in known.items())
        n += labels.count(None)
        if n < n_folds:
            raise ClassTooSmall(f"class {label!r} has at most {n} recordings, "
                                f"fewer than {n_folds} folds")
    for header in filter(None, headers):
        sid = header["subject_id"]
        if header["label"] is None:
            raise UnlabeledData(f"subject {sid!r} has no class label")
        picked = _picked(header, montage)
        channels = channels or picked
        if picked != channels:
            raise MontageMismatch(f"recording {sid!r} has channels {list(picked)}, "
                                  f"not {list(channels)}")


def run_pipeline(
    cfg: PipelineConfig, out_dir: Optional[str] = None, threads: int = 1
) -> dict:
    """Execute every stage; returns the manifest dict.

    Artifacts: preprocessed/, subject_maps/, maps.json, segmentations/,
    features.csv, model.json, eval.json, shap.json, ranking.csv,
    stats.json, manifest.json under the output directory.
    """
    out = out_dir or cfg.out_dir
    path = functools.partial(os.path.join, out)
    # a labeling file that does not decode or has too few maps fails before any output
    templates = None
    if cfg.labeling != "template":
        templates = load_json(cfg.labeling, MicrostateMaps.from_json_dict)
        if templates.k < cfg.k:
            raise AmbiguousLabels(f"{templates.k} templates cannot label {cfg.k} maps uniquely")

    loads, headers = _inputs(cfg.input_dir, cfg.montage)
    _check_cohort(headers, cfg.cv_folds, cfg.montage, templates and templates.channels)
    pre = path("preprocessed")
    logger.info("preprocessing and clustering (k=%d) recordings from %s", cfg.k, cfg.input_dir)
    with staged() as stage:
        # the raw recording lives only until preprocessed: each subject is
        # clustered from its float32 payload
        subjects = subject_maps_stage(
            [functools.partial(_preprocessed, load, cfg.steps, cfg.band, pre, stage)
             for load in loads],
            cfg.k, cfg.kmeans, cfg.min_peak_distance_ms, cfg.seed, path("subject_maps"), threads,
        )
    logger.info("group clustering and labeling")
    subj_maps = list(subjects.values())
    if templates is None:
        templates = canonical_templates(standard_1020_montage(subj_maps[0].channels))
    gmaps = group_maps_stage(subj_maps, cfg.k, cfg.kmeans, cfg.seed, path("maps.json"), templates)

    logger.info("backfitting and extracting features")
    backfit_stage(
        [functools.partial(load_recording, os.path.join(pre, sid + ".eegb")) for sid in subjects],
        gmaps, cfg.min_segment_ms, path("segmentations"), threads,
    )
    table = feature_stage(
        (subject_features(load_segmentation(path("segmentations", sid + ".seg")))
         for sid in subjects),
        path("features.csv"),
    )
    kind, seed = cfg.classifier["kind"], cfg.seed
    model, params = fit_stage(
        table, kind, cfg.classifier["params"], cfg.grid, cfg.cv_folds, seed,
        path("model.json"),
    )
    report = cv_stage(
        table, kind, params, cfg.cv_folds, seed, path("eval.json"), grid=cfg.grid
    )
    expl = explain_stage(
        model, table, cfg.explain, seed, path("shap.json"), table.class_names
    )
    _commit_text(path("ranking.csv"), _ranking_csv(expl, table.class_names))
    logger.info("group statistics")
    write_json(path("stats.json"), compute_stats(table))

    artifacts = [
        *(os.path.join("preprocessed", sid + ".eegb") for sid in subjects),
        *(os.path.join("subject_maps", sid + ".json") for sid in subjects), "maps.json",
        *(os.path.join("segmentations", sid + ".seg") for sid in subjects), "features.csv",
        "model.json", "eval.json", "shap.json", "ranking.csv", "stats.json",
    ]
    manifest = {
        "versions": {
            "msaf": _pkg_version,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg),
        "config_hash": config_hash(cfg),
        "n_subjects": len(subjects),
        "class_names": list(table.class_names),
        "cv_accuracy": report.accuracy,
        "artifacts": artifacts,
    }
    write_json(path("manifest.json"), manifest)
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
    require(bands, "band sweep needs at least one band")
    names = [check_value("band name", NAME, name) for name, _ in bands]
    require(len(set(names)) == len(names), f"band names must be unique, got {names}")
    out = out_dir or cfg.out_dir
    # every band's config is checked before the first band runs
    sub_cfgs = [
        dataclasses.replace(cfg, band=(lo, hi), out_dir=os.path.join(out, f"band_{name}"))
        for name, (lo, hi) in bands
    ]
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

    csv_rows = [("band", "low_hz", "high_hz", "cv_accuracy", "rank")]
    csv_rows += [(r["band"], r["low_hz"], r["high_hz"], repr(float(r["cv_accuracy"])), r["rank"])
                 for r in ranked]
    _commit_text(os.path.join(out, "band_sweep.csv"), _csv_text(csv_rows))
    write_json(os.path.join(out, "band_sweep.json"), {"bands": ranked})

    in_order = [r["band"] for r in rows]
    accs = [r["cv_accuracy"] for r in rows]
    best = int(np.argmax(accs))
    svg = render_bar_chart(
        in_order, accs, title="CV accuracy by frequency band", highlight=best
    )
    _commit_text(os.path.join(out, "band_sweep.svg"), svg)
    return ranked
