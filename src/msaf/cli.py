"""Command-line interface: one executable, one verb per pipeline stage.

Every stochastic verb honors --seed, every stage writes file artifacts,
and failures exit with a machine-readable JSON line on stderr using the
taxonomy's exit codes: 2 config, 3 data, 4 numeric, and 1 for an
internal error (any other exception).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional

from . import __version__
from .errors import (
    AmbiguousLabels,
    ConfigError,
    DataError,
    InvalidConfig,
    MsafError,
)
from .explain import ShapExplanation, global_ranking
from .io import (
    check_montage,
    load_feature_table,
    load_json,
    load_segmentation,
    read_json,
    save_recording,
    standard_1020_montage,
    write_json,
)
from .microstates import MicrostateMaps, label_maps
from .models import DEFAULT_GRIDS, MODEL_KINDS, check_params, model_from_json_dict
from .models._common import require_int, require_object, require_real
from .pipeline import (
    PipelineConfig,
    backfit_stage,
    band_sweep,
    check_band,
    check_k,
    check_steps,
    compute_stats,
    cv_stage,
    explain_settings,
    explain_stage,
    feature_stage,
    fit_stage,
    group_maps_stage,
    kmeans_settings,
    load_input_recordings,
    preprocess_stage,
    run_pipeline,
    subject_maps_stage,
    _artifact_names,
    _commit_segmentations,
    _commit_text,
    _ranking_csv,
)
from .synth import (
    STANDARD_BANDS,
    SynthConfig,
    canonical_templates,
    generate,
    make_band_cohort,
    make_cohort,
    transition_from_weights,
)
from .topo import render_bar_chart, render_topomap

logger = logging.getLogger("msaf.cli")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None,
                        help="seed overriding any config seed (default 0)")
    common.add_argument("--out", help="output file or directory")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads; never changes output bytes")
    common.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"))

    p = argparse.ArgumentParser(
        prog="msaf",
        description="EEG microstate analysis: segmentation, features, "
                    "classification, attribution, statistics.",
    )
    p.add_argument("--version", action="version", version=f"msaf {__version__}")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, help_, **kw):
        return sub.add_parser(name, help=help_, parents=[common], **kw)

    q = verb("preprocess", "filter/reference/resample recordings")
    q.add_argument("input_dir", help="directory of .eegb recordings")
    q.set_defaults(func=_cmd_preprocess)

    q = verb("synth", "generate synthetic recordings with ground truth")
    q.set_defaults(func=_cmd_synth)

    q = verb("segment", "cluster each subject's GFP-peak maps")
    q.add_argument("input_dir")
    q.add_argument("--k", type=int, default=4)
    q.set_defaults(func=_cmd_segment)

    q = verb("group-maps", "cluster per-subject maps into group maps")
    q.add_argument("maps_dir", help="directory of per-subject maps JSON")
    q.add_argument("--k", type=int, default=4)
    q.set_defaults(func=_cmd_group_maps)

    q = verb("label", "assign A/B/C/F labels to maps")
    q.add_argument("maps_json")
    q.add_argument("--templates", default="auto",
                   help="'auto' for built-in templates or a maps JSON path")
    q.add_argument("--mapping", default=None,
                   help="explicit 'index=LABEL,...' assignment")
    q.set_defaults(func=_cmd_label)

    q = verb("backfit", "assign every sample to its best group map")
    q.add_argument("input_dir")
    q.add_argument("maps_json")
    q.add_argument("--min-segment-ms", type=float, default=0.0)
    q.set_defaults(func=_cmd_backfit)

    q = verb("features", "temporal dynamics features per subject")
    q.add_argument("seg_dir", help="directory of .seg segmentation files")
    q.add_argument("--gfp-aggregate", default="mean", choices=("mean", "median"))
    q.add_argument("--trim-edge-runs", action="store_true")
    q.set_defaults(func=_cmd_features)

    q = verb("train", "fit a classifier on a feature table")
    q.add_argument("features_csv")
    q.add_argument("--model", default="svm", choices=MODEL_KINDS)
    q.add_argument("--params", default=None, help="JSON object of parameters")
    q.add_argument("--grid", default=None,
                   help="'default' or a JSON object of parameter lists")
    q.add_argument("--folds", type=int, default=5)
    q.set_defaults(func=_cmd_train)

    q = verb("evaluate", "stratified k-fold cross-validation report")
    q.add_argument("features_csv")
    q.add_argument("--model", default="svm", choices=MODEL_KINDS)
    q.add_argument("--params", default=None)
    q.add_argument("--folds", type=int, default=5)
    q.set_defaults(func=_cmd_evaluate)

    q = verb("explain", "per-feature attribution of model scores")
    q.add_argument("model_json")
    q.add_argument("features_csv")
    q.add_argument("--method", default="auto",
                   choices=("auto", "exact", "kernel", "tree"))
    q.add_argument("--class", dest="class_name", default=None,
                   help="restrict stored attributions to one class")
    q.add_argument("--background", type=int, default=64)
    q.add_argument("--n-samples", type=int, default=2048)
    q.set_defaults(func=_cmd_explain)

    q = verb("explain-rank", "global feature ranking from attributions")
    q.add_argument("shap_json")
    q.set_defaults(func=_cmd_explain_rank)

    q = verb("stats", "nonparametric group tests per feature")
    q.add_argument("features_csv")
    q.set_defaults(func=_cmd_stats)

    q = verb("topo", "render scalp topography SVGs for maps")
    q.add_argument("maps_json")
    q.add_argument("--size", type=int, default=360)
    q.set_defaults(func=_cmd_topo)

    q = verb("band-sweep", "run the pipeline once per frequency band")
    q.add_argument("--bands", default="delta,theta,alpha,beta",
                   help="comma list of standard names or name=low-high")
    q.set_defaults(func=_cmd_band_sweep)

    q = verb("run", "full pipeline: preprocess through statistics")
    q.set_defaults(func=_cmd_run)
    return p


def _need(args, attr: str, flag: str):
    v = getattr(args, attr, None)
    if not v:
        raise InvalidConfig(f"this verb requires {flag}")
    return v


def _seed_of(args, cfg: Optional[dict] = None) -> int:
    """--seed, else the config's seed, else 0; checked as PipelineConfig does."""
    seed = args.seed if args.seed is not None else (cfg or {}).get("seed", 0)
    require_int("seed", seed, 0)
    return seed


def _load_config(args, verb: str, known=None) -> dict:
    """The --config object, with only known keys (any, if known is None)."""
    return require_object(f"{verb} config", read_json(_need(args, "config", "--config")), known)


def _verb_config(args, verb: str, known) -> dict:
    """The optional --config object of a stage verb, with only known keys."""
    return _load_config(args, verb, known) if args.config else {}


def _pipeline_config(args) -> PipelineConfig:
    doc = _load_config(args, "run")
    if args.out:
        doc["out_dir"] = args.out
    if args.seed is not None:
        doc["seed"] = args.seed
    return PipelineConfig.from_json_dict(doc)


# --- verb implementations ---

def _cmd_preprocess(args) -> int:
    out = _need(args, "out", "--out")
    doc = _verb_config(args, "preprocess", {"montage", "steps", "band", "seed"})
    steps = check_steps(doc.get("steps", ()))
    band = check_band(doc.get("band"))
    done = preprocess_stage(
        load_input_recordings(args.input_dir, check_montage(doc.get("montage"))),
        steps, band, out, args.threads,
    )
    print(f"preprocessed {len(done)} recordings -> {out}")
    return 0


_PROFILE_KEYS = ("weights", "transition", "mean_dwell_ms", "amplitudes")
_SYNTH_KEYS = {
    "cohort": ("kind", "n_per_class", "seed", "profiles", "base"),
    "band_cohort": ("kind", "n_per_class", "band", "snr", "duration", "fs", "seed"),
}


def _normalize_profiles(doc) -> dict:
    """Class label -> SynthConfig overrides, with weights made a transition matrix."""
    profiles = {}
    for label, fields in require_object("synth profiles", doc).items():
        p = dict(require_object(f"profile {label!r}", fields, _PROFILE_KEYS))
        if "weights" in p:
            if "transition" in p:
                raise InvalidConfig(f"profile {label!r}: give weights or transition, not both")
            p["transition"] = transition_from_weights(p.pop("weights"))
        profiles[label] = p
    if not profiles:
        raise InvalidConfig("synth profiles must name at least one class")
    return profiles


def _cmd_synth(args) -> int:
    out = _need(args, "out", "--out")
    doc = _load_config(args, "synth")
    kind = doc.get("kind", "cohort")
    if kind not in ("cohort", "band_cohort", "single"):
        raise InvalidConfig(f"synth kind must be cohort|band_cohort|single, got {kind!r}")
    seed = _seed_of(args, doc)
    n_per_class = doc.get("n_per_class", 10)
    if kind != "single":
        require_object("synth config", doc, _SYNTH_KEYS[kind])
        require_int("n_per_class", n_per_class, 1)

    if kind == "cohort":
        profiles = doc.get("profiles")
        base = doc.get("base")
        pairs = make_cohort(
            n_per_class,
            profiles=None if profiles is None else _normalize_profiles(profiles),
            seed=seed,
            base=None if base is None else require_object("synth base", base),
        )
    elif kind == "band_cohort":
        settings = {"snr": 4.0, "duration": 20.0, "fs": 250.0}
        settings.update((k, doc[k]) for k in settings if k in doc)
        for name, value in settings.items():
            if not (name == "snr" and value == float("inf")):  # inf: noiseless
                require_real(name, value, strict=True)
        band = check_band(doc.get("band", STANDARD_BANDS["theta"]))
        if band is None:
            raise InvalidConfig("a band_cohort needs a band [low, high]")
        pairs = make_band_cohort(
            n_per_class,
            band=band,
            seed=seed,
            **{name: float(value) for name, value in settings.items()},
        )
    else:
        fields = dict(doc)
        fields.pop("kind", None)
        fields["seed"] = seed
        rec, seg, _ = generate(SynthConfig.from_json_dict(fields))
        pairs = [(rec, seg)]

    _commit_segmentations(
        os.path.join(out, "truth"), [(rec.subject_id, rec.label, seg) for rec, seg in pairs]
    )
    for rec, _ in pairs:
        save_recording(rec, os.path.join(out, rec.subject_id))
    print(f"wrote {len(pairs)} recordings (+truth) -> {out}")
    return 0


def _cmd_segment(args) -> int:
    out = _need(args, "out", "--out")
    doc = _verb_config(args, "segment", {"kmeans", "min_peak_distance_ms", "seed"})
    check_k("--k", args.k)
    kmeans = kmeans_settings(doc.get("kmeans"))
    min_distance = doc.get("min_peak_distance_ms", 0.0)
    require_real("min_peak_distance_ms", min_distance)
    seed = _seed_of(args, doc)
    maps = subject_maps_stage(
        load_input_recordings(args.input_dir), args.k, kmeans, min_distance, seed, out,
        args.threads,
    )
    print(f"segmented {len(maps)} subjects -> {out}")
    return 0


def _cmd_group_maps(args) -> int:
    out = _need(args, "out", "--out")
    doc = _verb_config(args, "group-maps", {"kmeans", "seed"})
    check_k("--k", args.k)
    kmeans = kmeans_settings(doc.get("kmeans"))
    seed = _seed_of(args, doc)
    subj_maps = [
        load_json(os.path.join(args.maps_dir, f), MicrostateMaps.from_json_dict)
        for f in _artifact_names(args.maps_dir, ".json")
    ]
    gmaps = group_maps_stage(subj_maps, args.k, kmeans, seed, out)
    print(f"group maps (k={args.k}, gev={gmaps.gev_total:.4f}) -> {out}")
    return 0


def _parse_mapping(text: str) -> dict[int, str]:
    mapping = {}
    for part in text.split(","):
        if "=" not in part:
            raise InvalidConfig(f"mapping entries look like index=LABEL, got {part!r}")
        idx, label = part.split("=", 1)
        try:
            mapping[int(idx.strip())] = label.strip()
        except ValueError:
            raise InvalidConfig(f"map index must be an integer, got {idx!r}")
    return mapping


def _cmd_label(args) -> int:
    out = _need(args, "out", "--out")
    maps = load_json(args.maps_json, MicrostateMaps.from_json_dict)
    if args.mapping is not None:
        if args.templates != "auto":
            raise AmbiguousLabels("give --mapping or --templates, not both")
        labeled = label_maps(maps, mapping=_parse_mapping(args.mapping))
    elif args.templates == "auto":
        montage = standard_1020_montage(maps.channels)
        labeled = label_maps(maps, templates=canonical_templates(montage))
    else:
        templates = load_json(args.templates, MicrostateMaps.from_json_dict)
        labeled = label_maps(maps, templates=templates)
    write_json(out, labeled.to_json_dict())
    print(f"labels {list(labeled.labels)} -> {out}")
    return 0


def _cmd_backfit(args) -> int:
    out = _need(args, "out", "--out")
    require_real("--min-segment-ms", args.min_segment_ms)
    gmaps = load_json(args.maps_json, MicrostateMaps.from_json_dict)
    subjects = backfit_stage(
        load_input_recordings(args.input_dir), gmaps, args.min_segment_ms, out, args.threads
    )
    print(f"backfitted {len(subjects)} recordings -> {out}")
    return 0


def _cmd_features(args) -> int:
    out = _need(args, "out", "--out")

    subjects = (
        load_segmentation(os.path.join(args.seg_dir, f))
        for f in _artifact_names(args.seg_dir, ".seg")
    )
    table = feature_stage(
        subjects, out,
        gfp_aggregate=args.gfp_aggregate, trim_edge_runs=args.trim_edge_runs,
    )
    print(f"{table.n_rows} x {len(table.feature_names)} feature table -> {out}")
    return 0


def _parse_params(text: Optional[str]) -> dict:
    if not text:
        return {}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidConfig(f"--params must be a JSON object: {e}")
    return require_object("--params", doc)


def _cmd_train(args) -> int:
    out = _need(args, "out", "--out")
    require_int("--folds", args.folds, 2)
    params = _parse_params(args.params)
    grid = None
    if args.grid:
        grid = DEFAULT_GRIDS[args.model] if args.grid == "default" else _parse_params(args.grid)
    check_params(args.model, params, grid)
    seed = _seed_of(args)
    table = load_feature_table(args.features_csv)
    fit_stage(table, args.model, params, grid, args.folds, seed, out, record_grid=True)
    print(f"trained {args.model} on {table.n_rows} rows -> {out}")
    return 0


def _cmd_evaluate(args) -> int:
    out = _need(args, "out", "--out")
    require_int("--folds", args.folds, 2)
    params = _parse_params(args.params)
    check_params(args.model, params)
    seed = _seed_of(args)
    table = load_feature_table(args.features_csv)
    report = cv_stage(table, args.model, params, args.folds, seed, out)
    print(report.format_table())
    print(f"eval report -> {out}")
    return 0


def _with_class_names(decode):
    """decode, and the object's class_names (else its classes as strings)."""
    def both(doc: dict) -> tuple:
        obj = decode(doc)
        names = [str(c) for c in doc.get("class_names", obj.classes)]
        if len(names) != len(obj.classes):
            raise ValueError(f"{len(names)} class names for {len(obj.classes)} classes")
        return obj, names
    return both


def _cmd_explain(args) -> int:
    out = _need(args, "out", "--out")
    settings = explain_settings(
        {"method": args.method, "n_samples": args.n_samples, "background": args.background}
    )
    seed = _seed_of(args)
    model, class_names = load_json(args.model_json, _with_class_names(model_from_json_dict))
    if args.class_name is not None and args.class_name not in class_names:
        raise InvalidConfig(f"--class {args.class_name!r} not in {class_names}")
    table = load_feature_table(args.features_csv)
    expl = explain_stage(
        model, table, settings, seed, out,
        class_names=class_names, only_class=args.class_name,
    )
    print(f"{expl.method} attributions for {table.n_rows} instances -> {out}")
    return 0


def _cmd_explain_rank(args) -> int:
    out = _need(args, "out", "--out")
    expl, class_names = load_json(
        args.shap_json, _with_class_names(ShapExplanation.from_json_dict)
    )
    base = os.path.splitext(out)[0]
    for ci, cname in enumerate(class_names):
        ranked = global_ranking(expl, class_index=ci)
        svg = render_bar_chart(
            [n for n, _ in ranked.entries],
            [s for _, s in ranked.entries],
            title=f"mean |attribution|: {cname}",
        )
        _commit_text(f"{base}_{cname}.svg", svg)
    _commit_text(out, _ranking_csv(expl, class_names))
    print(f"ranking ({len(class_names)} classes) -> {out}")
    return 0


def _cmd_stats(args) -> int:
    out = _need(args, "out", "--out")
    table = load_feature_table(args.features_csv)
    write_json(out, compute_stats(table))
    print(f"group statistics for {len(table.feature_names)} features -> {out}")
    return 0


def _cmd_topo(args) -> int:
    out = _need(args, "out", "--out")
    require_int("--size", args.size, 1)
    maps = load_json(args.maps_json, MicrostateMaps.from_json_dict)
    montage = standard_1020_montage(maps.channels)
    for i, label in enumerate(maps.labels):
        svg = render_topomap(
            montage, maps.maps[i], title=str(label), size=args.size
        )
        _commit_text(os.path.join(out, f"{label}.svg"), svg)
    print(f"{maps.k} topographies -> {out}")
    return 0


def _parse_bands(text: str) -> list[tuple[str, tuple[float, float]]]:
    bands = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            name, rng = part.split("=", 1)
            try:
                lo, hi = rng.split("-", 1)
                bands.append((name.strip(), (float(lo), float(hi))))
            except ValueError:
                raise InvalidConfig(f"custom band looks like name=low-high, got {part!r}")
        elif part in STANDARD_BANDS:
            bands.append((part, STANDARD_BANDS[part]))
        else:
            raise InvalidConfig(
                f"unknown band {part!r}; standard bands: {sorted(STANDARD_BANDS)}"
            )
    if not bands:
        raise InvalidConfig("--bands selected nothing")
    return bands


def _cmd_band_sweep(args) -> int:
    cfg = _pipeline_config(args)
    rows = band_sweep(
        cfg, _parse_bands(args.bands), threads=args.threads
    )
    for row in rows:
        print(f"{row['rank']}. {row['band']:8s} "
              f"{row['low_hz']:.1f}-{row['high_hz']:.1f} Hz  "
              f"accuracy {row['cv_accuracy']:.4f}")
    return 0


def _cmd_run(args) -> int:
    cfg = _pipeline_config(args)
    manifest = run_pipeline(cfg, threads=args.threads)
    print(f"pipeline complete: {manifest['n_subjects']} subjects, "
          f"cv accuracy {manifest['cv_accuracy']:.4f}, "
          f"{len(manifest['artifacts'])} artifacts -> {cfg.out_dir}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        require_int("--threads", args.threads, 1)
        return int(args.func(args) or 0)
    except MsafError as e:
        if isinstance(e, ConfigError):
            code = 2
        elif isinstance(e, DataError):
            code = 3
        else:
            code = 4
        return _report(e, type(e).__mro__[1].__name__, code)
    except Exception as e:
        # last resort: a fault outside the taxonomy (a bug, a broken install)
        logger.debug("internal error", exc_info=True)
        return _report(e, "InternalError", 1)


def _report(e: Exception, category: str, code: int) -> int:
    """Print the one JSON error line on stderr and return the exit code."""
    print(
        json.dumps(
            {
                "error": type(e).__name__,
                "category": category,
                "message": str(e),
                "exit_code": code,
            },
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
