"""Reload every stored artifact under a directory through msaf's own readers.

    python3 tools/reload_artifacts.py SRC_DIR ARTIFACT_DIR

SRC_DIR is the directory that holds the ``msaf`` package (a checkout's
``src/``); ARTIFACT_DIR is, for example, an output directory of
``tools/artifact_hashes.py``. Each ``.eegb`` file is read by
``load_recording`` and each ``.seg`` file by ``load_segmentation``. A JSON
object with ``phi`` is read as ``msaf explain-rank`` reads a ``shap.json``,
one with a model ``kind`` as ``msaf explain`` reads a ``model.json`` (both
with their class and feature names), and one with ``maps`` and ``labels``
as a maps file. Other files (configs, ``eval.json``, ``stats.json``,
``manifest.json``, CSV and SVG files) are skipped.

It prints the number of files of each format and exits 1 if a file does
not reload, or if a format has no file at all: a format table of
``msaf.config`` that is stricter than the writer of its format shows here.
"""
from __future__ import annotations

import argparse
import json
import os
import sys


def _format(path: str):
    """(format, reader of path) of an artifact, or None for any other file."""
    from msaf.cli import _with_names
    from msaf.explain import ShapExplanation
    from msaf.io import load_json, load_recording, load_segmentation
    from msaf.microstates import MicrostateMaps
    from msaf.models import MODEL_KINDS, model_from_json_dict

    ext = os.path.splitext(path)[1]
    binary = {".eegb": load_recording, ".seg": load_segmentation}
    if ext in binary:
        return ext, binary[ext]
    if ext != ".json":
        return None
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        return None
    if "phi" in doc:
        return "shap.json", lambda p: load_json(p, _with_names(ShapExplanation.from_json_dict))
    if doc.get("kind") in MODEL_KINDS:
        return "model.json", lambda p: load_json(p, _with_names(model_from_json_dict))
    if "maps" in doc and "labels" in doc:
        return "maps", lambda p: load_json(p, MicrostateMaps.from_json_dict)
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_dir", help="directory holding the msaf package")
    p.add_argument("artifact_dir", help="directory whose artifacts are reloaded")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src_dir))
    from msaf.errors import MsafError

    counts = dict.fromkeys([".eegb", ".seg", "maps", "model.json", "shap.json"], 0)
    failed = 0
    for root, _, files in os.walk(args.artifact_dir):
        for path in sorted(os.path.join(root, name) for name in files):
            found = _format(path)
            if found is None:
                continue
            counts[found[0]] += 1
            try:
                found[1](path)
            except MsafError as e:
                print(f"{path}: {type(e).__name__}: {e}", file=sys.stderr)
                failed += 1
    print(" ".join(f"{fmt} {n}" for fmt, n in counts.items()), f"failed {failed}")
    return 1 if failed or not all(counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
