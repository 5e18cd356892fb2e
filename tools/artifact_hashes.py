"""sha256 of every artifact of a fixed set of msaf commands.

    python3 tools/artifact_hashes.py SRC_DIR OUT_DIR [--n-per-class N] [--duration S]
                                     [--threads N]

SRC_DIR is the directory that holds the ``msaf`` package (a checkout's
``src/``). Every command runs as a fresh ``python -m msaf.cli`` process
with SRC_DIR first on PYTHONPATH, ``--threads N`` (default 1) and OUT_DIR
(created, must not exist) as its working directory, so all paths are
relative and two listings made in different directories compare line
for line:

- ``msaf synth``: a fixed labeled cohort (``data/``, ``data/truth/``) and
  a band cohort (``band_data/``), and ``msaf features`` on the cohort's
  truth segmentations (``truth_features.csv``), which reads each
  subject's id and label back from its ``.seg`` file;
- ``msaf run`` with notch, bandpass and average-reference steps for rf,
  gbt and svm (the svm run with a grid search), an rf run on a channel
  subset with a band filter, an rf run labeled against the rf run's
  ``maps.json``, and an rf run whose only step is the ``long-recordings``
  benchmark's bandpass, so its FIR filter writes the float32 payload;
- ``msaf preprocess`` on the channel subset with the band filter, and
  with the bandpass alone, which must reproduce that run's
  ``preprocessed/`` byte for byte (exit 1 otherwise);
- ``msaf band-sweep`` over theta and alpha on the band cohort;
- the verb chain over the labeled cohort, ``preprocess`` through ``stats``,
  plus ``explain-rank`` and ``topo``;
- ``msaf explain --method kernel`` on the rf run's model, which scores
  composite rows through the generic (non-SVM) coalition path, and
  ``msaf explain`` on the svm run's model with that run's explain
  settings, which must reproduce its ``shap.json`` byte for byte (exit 1
  otherwise): the verb and the run explain through the same KernelSHAP
  path;
- ``msaf train`` on the svm run's ``features.csv`` with that run's grid,
  folds and seed, which must reproduce its ``model.json`` byte for byte,
  ``grid_best_params`` included (exit 1 otherwise);
- ``msaf train --model gbt`` on the gbt run's ``features.csv`` with the
  ``many-subjects`` benchmark's boosting (30 rounds, no early stopping),
  then ``msaf explain --method tree`` on that model
  (``run_gbt_fixed_model.json``, ``run_gbt_fixed_shap.json``), so the
  listing covers boosting that runs every round, not only early stopping;
- ``msaf segment`` (with the rf run's k-means settings and seed) and
  ``msaf backfit`` (against its ``maps.json``) on the rf run's
  ``preprocessed/``, ``msaf features`` on its ``segmentations/`` and
  ``msaf explain-rank`` on its ``shap.json``, which must reproduce that
  run's ``subject_maps/``, ``segmentations/``, ``features.csv`` and
  ``ranking.csv`` byte for byte (exit 1 otherwise): the run computes
  from exactly the float32 recordings it commits, the segmentation
  files lose no bit between ``backfit`` and ``features``, and
  ``shap.json`` names the run's classes. The chain's ``msaf preprocess``
  (the rf run's steps on ``data/``) must likewise reproduce the rf run's
  ``preprocessed/``, which the run writes in the same pass that clusters;
- ``msaf features --gfp-aggregate median --trim-edge-runs`` on the rf
  run's ``segmentations/``, so the listing covers both feature options.

The default ``--duration`` of 30 s gives each 19-channel recording 7 500
samples at 250 Hz, several blocks of the per-recording kernels
(``msaf.config.BLOCK_DOUBLES``, 128 KiB of float64: 9 GFP and backfit
blocks, 10 or 19 FIR row blocks): FIR filtering, GFP and backfitting each
cross block seams, so the listing also shows that the blocks change no
byte. A Tier-1 test keeps these shapes above one block.

Every ``.svg`` it produced must parse as XML and every ``.csv`` must
have rows of one field count (exit 1 otherwise).

It prints one ``<sha256>  <path>`` line per file, sorted by path. A
refactor that must not change behaviour shows the same listing for the
parent's SRC_DIR and the change's; ``manifest.json`` also records the
package version and the Python/NumPy versions. Listings made with
different ``--threads`` must also be identical: the thread count never
changes an output byte.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

SEED = 7
STEPS = [
    {"kind": "notch", "freq": 50.0},
    {"kind": "bandpass", "low": 1.0, "high": 30.0},
    {"kind": "average_reference"},
]
BANDPASS_STEPS = [{"kind": "bandpass", "low": 2.0, "high": 20.0}]
KMEANS = {"n_inits": 5, "max_iter": 100}
MONTAGE = ["Fp1", "Fp2", "F3", "F4", "Fz", "C3", "C4", "Cz", "P3", "P4", "Pz", "O1", "O2"]
BAND = [2.0, 20.0]
RF = {"classifier": {"kind": "rf", "params": {"n_trees": 20}}}
# verb outputs (from run_rf's inputs or artifacts) -> the run_rf artifact each must equal
REPLAYS = {
    "chain/pre": "run_rf/preprocessed",
    "run_rf_subject_maps": "run_rf/subject_maps",
    "run_rf_segmentations": "run_rf/segmentations",
    "run_rf_features.csv": "run_rf/features.csv",
    "run_rf_ranking.csv": "run_rf/ranking.csv",
    "run_svm_shap.json": "run_svm/shap.json",
    "run_svm_model.json": "run_svm/model.json",
    "prep_bandpass": "run_bandpass/preprocessed",
}
# the many-subjects benchmark's boosting: fixed rounds, no early stopping
GBT_FIXED_ROUNDS = {"n_rounds": 30, "valid_fraction": 0.0}
RUNS = {
    "rf": RF,
    "gbt": {"classifier": {"kind": "gbt"}},
    "svm": {"classifier": {"kind": "svm"}, "grid": {"c": [1.0, 10.0]},
            "explain": {"n_samples": 256, "background": 8}},
    "subset": {**RF, "montage": MONTAGE, "band": BAND},
    "labeled": {**RF, "labeling": "run_rf/maps.json"},
    "bandpass": {**RF, "steps": BANDPASS_STEPS},
}


def _commands() -> list[list[str]]:
    """msaf argument lists, in order, relative to the output directory."""
    seed = ["--seed", str(SEED)]
    cmds = [["synth", "--config", "synth.json", "--out", "data", *seed],
            ["synth", "--config", "synth_band.json", "--out", "band_data", *seed],
            ["features", "data/truth", "--out", "truth_features.csv"]]
    cmds += [["run", "--config", f"run_{name}.json", *seed] for name in RUNS]
    cmds += [["explain", "run_rf/model.json", "run_rf/features.csv", "--method", "kernel",
              "--background", "8", "--n-samples", "256", "--out", "run_rf_kernel_shap.json",
              *seed],
             ["explain", "run_svm/model.json", "run_svm/features.csv", "--background", "8",
              "--n-samples", "256", "--out", "run_svm_shap.json", *seed],
             ["train", "run_svm/features.csv", "--model", "svm",
              "--grid", json.dumps(RUNS["svm"]["grid"]), "--folds", "2",
              "--out", "run_svm_model.json", *seed],
             ["train", "run_gbt/features.csv", "--model", "gbt",
              "--params", json.dumps(GBT_FIXED_ROUNDS), "--out", "run_gbt_fixed_model.json",
              *seed],
             ["explain", "run_gbt_fixed_model.json", "run_gbt/features.csv", "--method", "tree",
              "--background", "32", "--out", "run_gbt_fixed_shap.json", *seed]]
    cmds += [["segment", "run_rf/preprocessed", "--config", "kmeans.json",
              "--out", "run_rf_subject_maps", *seed],
             ["backfit", "run_rf/preprocessed", "run_rf/maps.json",
              "--out", "run_rf_segmentations"],
             ["features", "run_rf/segmentations", "--out", "run_rf_features.csv"],
             ["features", "run_rf/segmentations", "--gfp-aggregate", "median",
              "--trim-edge-runs", "--out", "run_rf_features_median_trimmed.csv"],
             ["explain-rank", "run_rf/shap.json", "--out", "run_rf_ranking.csv"]]
    cmds += [["preprocess", "data", "--config", "prep_subset.json", "--out", "prep_subset"],
             ["preprocess", "data", "--config", "prep_bandpass.json", "--out", "prep_bandpass"],
             ["band-sweep", "--config", "sweep.json", "--bands", "theta,alpha", *seed]]
    chain = [
        ["preprocess", "data", "--config", "prep.json", "--out", "chain/pre"],
        ["segment", "chain/pre", "--config", "kmeans.json", "--out", "chain/subj"],
        ["group-maps", "chain/subj", "--config", "kmeans.json", "--out", "chain/raw.json"],
        ["label", "chain/raw.json", "--out", "chain/maps.json"],
        ["backfit", "chain/pre", "chain/maps.json", "--out", "chain/segs"],
        ["features", "chain/segs", "--out", "chain/features.csv"],
        ["train", "chain/features.csv", "--model", "rf", "--params", '{"n_trees": 20}',
         "--grid", '{"max_depth": [2, null]}', "--folds", "2", "--out", "chain/model.json"],
        ["evaluate", "chain/features.csv", "--model", "rf", "--params", '{"n_trees": 20}',
         "--folds", "2", "--out", "chain/eval.json"],
        ["explain", "chain/model.json", "chain/features.csv", "--background", "8",
         "--out", "chain/shap.json"],
        ["explain", "chain/model.json", "chain/features.csv", "--background", "8",
         "--class", "DEM", "--out", "chain/shap_dem.json"],
        ["explain-rank", "chain/shap.json", "--out", "chain/ranking.csv"],
        ["stats", "chain/features.csv", "--out", "chain/stats.json"],
        ["topo", "chain/maps.json", "--out", "chain/topos"],
    ]
    return cmds + [c + seed for c in chain]


def _configs(n_per_class: int, duration: float) -> dict:
    configs = {
        "synth.json": {"kind": "cohort", "n_per_class": n_per_class,
                       "base": {"duration": duration}},
        "synth_band.json": {"kind": "band_cohort", "n_per_class": n_per_class,
                            "duration": duration},
        "prep.json": {"steps": STEPS},
        "prep_subset.json": {"montage": MONTAGE, "band": BAND, "steps": STEPS},
        "prep_bandpass.json": {"steps": BANDPASS_STEPS},
        "kmeans.json": {"kmeans": KMEANS},
        "sweep.json": {"input_dir": "band_data", "out_dir": "sweep", "kmeans": KMEANS,
                       "cv_folds": 2, **RF},
    }
    for name, extra in RUNS.items():
        configs[f"run_{name}.json"] = {
            "input_dir": "data", "out_dir": f"run_{name}", "steps": STEPS,
            "kmeans": KMEANS, "cv_folds": 2, **extra,
        }
    return configs


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _digests(path: str) -> dict:
    """sha256 of a file, or of every file under a directory by relative path."""
    if os.path.isfile(path):
        return {"": _sha256(path)}
    return {
        os.path.relpath(os.path.join(root, name), path): _sha256(os.path.join(root, name))
        for root, _, files in os.walk(path) for name in files
    }


def _malformed(path: str) -> str:
    """Why an .svg or .csv file is malformed, or "" when it is well-formed."""
    if path.endswith(".svg"):
        try:
            ET.parse(path)
        except ET.ParseError as e:
            return f"not well-formed XML ({e})"
    elif path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as f:
            counts = {len(row) for row in csv.reader(f)}
        if len(counts) > 1:
            return f"rows with {sorted(counts)} fields"
    return ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_dir", help="directory holding the msaf package")
    p.add_argument("out_dir", help="new directory for the artifacts")
    p.add_argument("--n-per-class", type=int, default=4)
    p.add_argument("--duration", type=float, default=30.0, help="seconds per recording")
    p.add_argument("--threads", type=int, default=1, help="--threads of every command")
    args = p.parse_args(argv)

    src = os.path.abspath(args.src_dir)
    if not os.path.isfile(os.path.join(src, "msaf", "cli.py")):
        p.error(f"no msaf package in {src!r}")
    os.makedirs(args.out_dir)
    configs = _configs(args.n_per_class, args.duration)
    for name, doc in configs.items():
        with open(os.path.join(args.out_dir, name), "w", encoding="utf-8") as f:
            json.dump(doc, f)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for cmd in _commands():
        proc = subprocess.run(
            [sys.executable, "-m", "msaf.cli", *cmd, "--threads", str(args.threads)],
            cwd=args.out_dir, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"`msaf {' '.join(cmd)}` exited {proc.returncode}: {proc.stderr[-500:]}",
                  file=sys.stderr)
            return 1
    for replay, original in REPLAYS.items():
        if _digests(os.path.join(args.out_dir, replay)) != _digests(
            os.path.join(args.out_dir, original)
        ):
            print(f"{replay} differs from {original}: the verbs do not reproduce the "
                  "run's artifacts", file=sys.stderr)
            return 1

    lines = []
    for root, _, files in os.walk(args.out_dir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, args.out_dir).replace(os.sep, "/")
            if rel not in configs:
                problem = _malformed(path)
                if problem:
                    print(f"{rel}: {problem}", file=sys.stderr)
                    return 1
                lines.append(f"{_sha256(path)}  {rel}")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
