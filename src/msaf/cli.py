"""Command-line interface: one executable, one verb per pipeline stage.

Every stochastic verb honors --seed, every stage writes file artifacts,
and failures exit with a machine-readable JSON line on stderr using the
taxonomy's exit codes: 2 config (usage errors too), 3 data, 4 numeric,
and 1 for an internal error (any other exception).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional

from . import __version__
from .config import (
    CLASS_NAMES, CLASSIFIER, EXPLAIN, FLAGS, KMEANS, NAME, OBJECT, PROFILE, RUN, SYNTH_KIND,
    SYNTH_KINDS, VERBS, check, check_value, decode, require,
)
from .errors import (AmbiguousLabels, ConfigError, DataError, DimensionMismatch,
                     InvalidConfig, MsafError)
from .explain import ShapExplanation, global_ranking
from .io import (
    commit_segmentation,
    load_feature_table,
    load_json,
    read_json,
    save_recording,
    staged,
    standard_1020_montage,
    write_json,
)
from .microstates import MicrostateMaps, label_maps
from .models import DEFAULT_GRIDS, MODEL_KINDS, check_params, model_from_json_dict
from .pipeline import (
    PipelineConfig,
    backfit_stage,
    band_sweep,
    check_band,
    check_montage,
    check_steps,
    compute_stats,
    cv_stage,
    explain_stage,
    feature_stage,
    fit_stage,
    group_maps_stage,
    load_input_recordings,
    preprocess_stage,
    run_pipeline,
    subject_maps_stage,
    _artifact_names,
    _commit_text,
    _ranking_csv,
)

logger = logging.getLogger("msaf.cli")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are InvalidConfig, not an exit."""

    def error(self, message):
        raise InvalidConfig(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed overriding any config seed (default 0)")
    common.add_argument("--threads", type=int, default=FLAGS["--threads"].default,
                        help="worker threads; never changes output bytes")
    common.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"))

    p = _Parser(
        prog="msaf",
        description="EEG microstate analysis: segmentation, features, "
                    "classification, attribution, statistics.",
    )
    p.add_argument("--version", action="version", version=f"msaf {__version__}")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, help_, config=False, out=True):
        """A verb's parser; config and out say whether --config and --out are required."""
        q = sub.add_parser(name, help=help_, parents=[common])
        q.add_argument("--config", required=config, help="JSON config file")
        q.add_argument("--out", required=out, help="output file or directory")
        return q

    q = verb("preprocess", "filter/reference/resample recordings")
    q.add_argument("input_dir", help="directory of .eegb recordings")
    q.set_defaults(func=_cmd_preprocess)

    q = verb("synth", "generate synthetic recordings with ground truth", config=True)
    q.set_defaults(func=_cmd_synth)

    q = verb("segment", "cluster each subject's GFP-peak maps")
    q.add_argument("input_dir")
    q.add_argument("--k", type=int, default=FLAGS["--k"].default)
    q.set_defaults(func=_cmd_segment)

    q = verb("group-maps", "cluster per-subject maps into group maps")
    q.add_argument("maps_dir", help="directory of per-subject maps JSON")
    q.add_argument("--k", type=int, default=FLAGS["--k"].default)
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
    q.add_argument("--min-segment-ms", type=float, default=FLAGS["--min-segment-ms"].default)
    q.set_defaults(func=_cmd_backfit)

    q = verb("features", "temporal dynamics features per subject")
    q.add_argument("seg_dir", help="directory of .seg segmentation files")
    q.add_argument("--gfp-aggregate", default="mean", choices=("mean", "median"))
    q.add_argument("--trim-edge-runs", action="store_true")
    q.set_defaults(func=_cmd_features)

    q = verb("train", "fit a classifier on a feature table")
    q.add_argument("features_csv")
    q.add_argument("--model", default=CLASSIFIER["kind"].default, choices=MODEL_KINDS)
    q.add_argument("--params", default=None, help="JSON object of parameters")
    q.add_argument("--grid", default=None,
                   help="'default' or a JSON object of parameter lists")
    q.add_argument("--folds", type=int, default=FLAGS["--folds"].default)
    q.set_defaults(func=_cmd_train)

    q = verb("evaluate", "stratified k-fold cross-validation report")
    q.add_argument("features_csv")
    q.add_argument("--model", default=CLASSIFIER["kind"].default, choices=MODEL_KINDS)
    q.add_argument("--params", default=None)
    q.add_argument("--folds", type=int, default=FLAGS["--folds"].default)
    q.set_defaults(func=_cmd_evaluate)

    q = verb("explain", "per-feature attribution of model scores")
    q.add_argument("model_json")
    q.add_argument("features_csv")
    q.add_argument("--method", default=EXPLAIN["method"].default,
                   choices=EXPLAIN["method"].range)
    q.add_argument("--class", dest="class_name", default=None,
                   help="restrict stored attributions to one class")
    q.add_argument("--background", type=int, default=EXPLAIN["background"].default)
    q.add_argument("--n-samples", type=int, default=EXPLAIN["n_samples"].default)
    q.set_defaults(func=_cmd_explain)

    q = verb("explain-rank", "global feature ranking from attributions")
    q.add_argument("shap_json")
    q.set_defaults(func=_cmd_explain_rank)

    q = verb("stats", "nonparametric group tests per feature")
    q.add_argument("features_csv")
    q.set_defaults(func=_cmd_stats)

    q = verb("topo", "render scalp topography SVGs for maps")
    q.add_argument("maps_json")
    q.add_argument("--size", type=int, default=FLAGS["--size"].default)
    q.set_defaults(func=_cmd_topo)

    q = verb("band-sweep", "run the pipeline once per frequency band", config=True, out=False)
    q.add_argument("--bands", default="delta,theta,alpha,beta",
                   help="comma list of standard names or name=low-high")
    q.set_defaults(func=_cmd_band_sweep)

    q = verb("run", "full pipeline: preprocess through statistics", config=True, out=False)
    q.set_defaults(func=_cmd_run)
    return p


def _seed_of(args, cfg: Optional[dict] = None) -> int:
    """--seed, checked as a config seed, else the checked config's seed, else the default."""
    if args.seed is None:
        return (cfg or {}).get("seed", RUN["seed"].default)
    return check_value("--seed", RUN["seed"], args.seed)


def _load_config(args, verb: str) -> dict:
    """The --config object."""
    return check_value(f"{verb} config", OBJECT, read_json(args.config))


def _verb_config(args, verb: str) -> dict:
    """A stage verb's optional --config object, checked, with its defaults filled in."""
    return check(f"{verb} config", VERBS[verb], read_json(args.config) if args.config else {})


def _pipeline_config(args) -> PipelineConfig:
    doc = _load_config(args, "run")
    if args.out:
        doc["out_dir"] = args.out
    if args.seed is not None:
        doc["seed"] = args.seed
    return PipelineConfig.from_json_dict(doc)


# --- verb implementations ---

def _cmd_preprocess(args) -> int:
    doc = _verb_config(args, "preprocess")
    steps, band = check_steps(doc["steps"]), check_band(doc["band"])
    montage = check_montage(doc["montage"])
    done = preprocess_stage(
        load_input_recordings(args.input_dir, montage), steps, band, args.out, args.threads,
    )
    print(f"preprocessed {len(done)} recordings -> {args.out}")
    return 0


def _normalize_profiles(doc) -> dict:
    """Class label -> SynthConfig overrides, with weights made a transition matrix."""
    from .synth import transition_from_weights
    profiles = {}
    for label, fields in check_value("synth profiles", OBJECT, doc).items():
        check_value("synth profile label", NAME, label)
        p = check(f"profile {label!r}", PROFILE, fields)
        require(not ("weights" in p and "transition" in p),
                f"profile {label!r}: give weights or transition, not both")
        if "weights" in p:
            p["transition"] = transition_from_weights(p.pop("weights"))
        profiles[label] = p
    require(profiles, "synth profiles must name at least one class")
    return profiles


def _cmd_synth(args) -> int:
    from .synth import SynthConfig, generate, make_band_cohort, make_cohort
    doc = _load_config(args, "synth")
    kind = check_value("synth kind", SYNTH_KIND, doc.get("kind", SYNTH_KIND.default))
    doc = check(f"synth {kind} config", SYNTH_KINDS[kind], doc)
    seed = _seed_of(args, doc)
    if kind == "cohort":
        profiles = doc.get("profiles")
        pairs = make_cohort(
            doc["n_per_class"],
            profiles=None if profiles is None else _normalize_profiles(profiles),
            seed=seed,
            base=doc.get("base"),
        )
    elif kind == "band_cohort":
        # the given settings; make_band_cohort's signature holds the defaults
        settings = {k: float(doc[k]) for k in ("snr", "duration", "fs") if k in doc}
        if "band" in doc:
            settings["band"] = doc["band"]
        pairs = make_band_cohort(doc["n_per_class"], seed=seed, **settings)
    else:
        del doc["kind"]
        rec, seg, _ = generate(SynthConfig.from_json_dict({**doc, "seed": seed}))
        pairs = [(rec, seg)]

    with staged() as stage:
        for rec, seg in pairs:
            commit_segmentation(seg, os.path.join(args.out, "truth", rec.subject_id), stage)
        for rec, _ in pairs:
            save_recording(rec, os.path.join(args.out, rec.subject_id), stage)
    print(f"wrote {len(pairs)} recordings (+truth) -> {args.out}")
    return 0


def _cmd_segment(args) -> int:
    doc = _verb_config(args, "segment")
    kmeans = check("kmeans", KMEANS, doc["kmeans"] or {})
    seed = _seed_of(args, doc)
    maps = subject_maps_stage(
        load_input_recordings(args.input_dir), args.k, kmeans, doc["min_peak_distance_ms"],
        seed, args.out, args.threads,
    )
    print(f"segmented {len(maps)} subjects -> {args.out}")
    return 0


def _cmd_group_maps(args) -> int:
    doc = _verb_config(args, "group-maps")
    kmeans = check("kmeans", KMEANS, doc["kmeans"] or {})
    seed = _seed_of(args, doc)
    subj_maps = [
        load_json(os.path.join(args.maps_dir, f), MicrostateMaps.from_json_dict)
        for f in _artifact_names(args.maps_dir, ".json")
    ]
    gmaps = group_maps_stage(subj_maps, args.k, kmeans, seed, args.out)
    print(f"group maps (k={args.k}, gev={gmaps.gev_total:.4f}) -> {args.out}")
    return 0


def _parse_mapping(text: str) -> dict[int, str]:
    mapping = {}
    for part in text.split(","):
        if "=" not in part:
            raise InvalidConfig(f"mapping entries look like index=LABEL, got {part!r}")
        idx, label = part.split("=", 1)
        try:
            index = int(idx.strip())
        except ValueError:
            raise InvalidConfig(f"map index must be an integer, got {idx!r}")
        if index in mapping:
            raise AmbiguousLabels(f"map index {index} is assigned twice in --mapping")
        mapping[index] = check_value("--mapping label", NAME, label.strip())
    return mapping


def _cmd_label(args) -> int:
    maps = load_json(args.maps_json, MicrostateMaps.from_json_dict)
    if args.mapping is not None:
        if args.templates != "auto":
            raise AmbiguousLabels("give --mapping or --templates, not both")
        labeled = label_maps(maps, mapping=_parse_mapping(args.mapping))
    elif args.templates == "auto":
        from .synth import canonical_templates
        montage = standard_1020_montage(maps.channels)
        labeled = label_maps(maps, templates=canonical_templates(montage))
    else:
        templates = load_json(args.templates, MicrostateMaps.from_json_dict)
        labeled = label_maps(maps, templates=templates)
    write_json(args.out, labeled.to_json_dict())
    print(f"labels {list(labeled.labels)} -> {args.out}")
    return 0


def _cmd_backfit(args) -> int:
    gmaps = load_json(args.maps_json, MicrostateMaps.from_json_dict)
    subjects = backfit_stage(
        load_input_recordings(args.input_dir), gmaps, args.min_segment_ms, args.out, args.threads
    )
    print(f"backfitted {len(subjects)} recordings -> {args.out}")
    return 0


def _cmd_features(args) -> int:
    table = feature_stage(
        [os.path.join(args.seg_dir, f) for f in _artifact_names(args.seg_dir, ".seg")], args.out,
        gfp_aggregate=args.gfp_aggregate, trim_edge_runs=args.trim_edge_runs,
    )
    print(f"{table.n_rows} x {len(table.feature_names)} feature table -> {args.out}")
    return 0


def _parse_params(text: Optional[str]) -> dict:
    if not text:
        return {}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InvalidConfig(f"--params must be a JSON object: {e}")
    return check_value("--params", OBJECT, doc)


def _cmd_train(args) -> int:
    params = _parse_params(args.params)
    grid = None
    if args.grid:
        grid = DEFAULT_GRIDS[args.model] if args.grid == "default" else _parse_params(args.grid)
    check_params(args.model, params, grid)
    seed = _seed_of(args)
    table = load_feature_table(args.features_csv)
    fit_stage(table, args.model, params, grid, args.folds, seed, args.out)
    print(f"trained {args.model} on {table.n_rows} rows -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    params = _parse_params(args.params)
    check_params(args.model, params)
    seed = _seed_of(args)
    table = load_feature_table(args.features_csv)
    report = cv_stage(table, args.model, params, args.folds, seed, args.out)
    print(report.format_table())
    print(f"eval report -> {args.out}")
    return 0


def _with_names(decode_object):
    """decode_object, then its `CLASS_NAMES`: the class names (else the object's classes as
    strings) and the feature names, or None, that the same JSON object lists."""
    def both(doc: dict) -> tuple:
        obj = decode_object(doc)
        names = decode("names", CLASS_NAMES, doc, {"n_classes": len(obj.classes)})
        return (obj, names["class_names"] or [str(c) for c in obj.classes],
                names["feature_names"])
    return both


def _cmd_explain(args) -> int:
    settings = check(
        "explain", EXPLAIN,
        {"method": args.method, "n_samples": args.n_samples, "background": args.background},
    )
    seed = _seed_of(args)
    model, class_names, feature_names = load_json(
        args.model_json, _with_names(model_from_json_dict)
    )
    require(args.class_name is None or args.class_name in class_names,
            f"--class {args.class_name!r} not in {class_names}")
    table = load_feature_table(args.features_csv)
    if feature_names is not None and feature_names != table.feature_names:
        raise DimensionMismatch(
            f"{args.features_csv!r} has the columns {list(table.feature_names)}, but "
            f"{args.model_json!r} was trained on {list(feature_names)}"
        )
    expl = explain_stage(
        model, table, settings, seed, args.out,
        class_names=class_names, only_class=args.class_name,
    )
    print(f"{expl.method} attributions for {table.n_rows} instances -> {args.out}")
    return 0


def _cmd_explain_rank(args) -> int:
    expl, class_names, _ = load_json(args.shap_json, _with_names(ShapExplanation.from_json_dict))
    from .topo import render_bar_chart
    base = os.path.splitext(args.out)[0]
    for ci, cname in enumerate(class_names):
        ranked = global_ranking(expl, class_index=ci)
        svg = render_bar_chart(
            [n for n, _ in ranked], [s for _, s in ranked], title=f"mean |attribution|: {cname}"
        )
        _commit_text(f"{base}_{cname}.svg", svg)
    _commit_text(args.out, _ranking_csv(expl, class_names))
    print(f"ranking ({len(class_names)} classes) -> {args.out}")
    return 0


def _cmd_stats(args) -> int:
    table = load_feature_table(args.features_csv)
    write_json(args.out, compute_stats(table))
    print(f"group statistics for {len(table.feature_names)} features -> {args.out}")
    return 0


def _cmd_topo(args) -> int:
    from .topo import render_topomap
    maps = load_json(args.maps_json, MicrostateMaps.from_json_dict)
    montage = standard_1020_montage(maps.channels)
    for i, label in enumerate(maps.labels):
        svg = render_topomap(
            montage, maps.maps[i], title=str(label), size=args.size
        )
        _commit_text(os.path.join(args.out, f"{label}.svg"), svg)
    print(f"{maps.k} topographies -> {args.out}")
    return 0


def _parse_bands(text: str) -> list[tuple[str, tuple[float, float]]]:
    from .synth import STANDARD_BANDS
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
    require(bands, "--bands selected nothing")
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
    try:
        args = _build_parser().parse_args(argv)
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            format="%(levelname)s %(name)s: %(message)s",
        )
        for flag, key in FLAGS.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None:  # the verb has the flag
                check_value(flag, key, value)
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
