"""Reload every stored artifact under a directory through msaf's own readers, and
check that msaf's writers encode what was reloaded back to the same file.

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

Each reloaded recording is saved again with ``save_recording``, and each
segmentation committed again with ``commit_segmentation``, into a
temporary directory, and must equal its file byte for byte. Each key of a
reloaded JSON object's ``to_json_dict()`` must hold the file's value there
(compared as ``json.dumps`` text); a run adds keys of its own, such as
``class_names``, which the object does not hold.

It prints the number of files of each format and exits 1 if a file does
not reload or encode back, or if a format has no file at all: a format
table of ``msaf.config`` that is stricter than the writer of its format,
or a writer that drops or changes what its reader takes in, shows here.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile


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
        return "shap.json", lambda p: load_json(p, _with_names(ShapExplanation.from_json_dict))[0]
    if doc.get("kind") in MODEL_KINDS:
        return "model.json", lambda p: load_json(p, _with_names(model_from_json_dict))[0]
    if "maps" in doc and "labels" in doc:
        return "maps", lambda p: load_json(p, MicrostateMaps.from_json_dict)
    return None


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True)


def _encode_fault(path: str, obj, tmp: str):
    """None if msaf writes obj, reloaded from path, back as the file holds it; else the fault."""
    from msaf.io import commit_segmentation, save_recording

    with open(path, "rb") as f:
        blob = f.read()
    ext = os.path.splitext(path)[1]
    if ext == ".eegb":
        again = save_recording(obj, os.path.join(tmp, "again"))[0]
    elif ext == ".seg":
        again = commit_segmentation(obj, os.path.join(tmp, "again"))
    else:
        doc = json.loads(blob)
        differ = [k for k, v in obj.to_json_dict().items()
                  if k not in doc or _dumps(v) != _dumps(doc[k])]
        return f"keys {differ} do not encode back to the file's values" if differ else None
    with open(again, "rb") as f:
        return None if f.read() == blob else "does not save back to the same bytes"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_dir", help="directory holding the msaf package")
    p.add_argument("artifact_dir", help="directory whose artifacts are reloaded")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src_dir))
    from msaf.errors import MsafError

    counts = dict.fromkeys([".eegb", ".seg", "maps", "model.json", "shap.json"], 0)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for root, _, files in os.walk(args.artifact_dir):
            for path in sorted(os.path.join(root, name) for name in files):
                found = _format(path)
                if found is None:
                    continue
                counts[found[0]] += 1
                try:
                    fault = _encode_fault(path, found[1](path), tmp)
                except MsafError as e:
                    fault = f"{type(e).__name__}: {e}"
                if fault:
                    print(f"{path}: {fault}", file=sys.stderr)
                    failed += 1
    print(" ".join(f"{fmt} {n}" for fmt, n in counts.items()), f"failed {failed}")
    return 1 if failed or not all(counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
