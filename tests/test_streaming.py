"""Recordings stream through the stages: bounded live inputs, thread
identity of the streamed verbs, the error order of a streamed cohort, and
the stage verbs replaying a run from its artifacts."""
import gc
import json
import os
import shutil
import time
import warnings
import weakref

import numpy as np
import pytest

import msaf.pipeline
from msaf import canonical_templates, load_recording, standard_1020_montage
from msaf.cli import main
from msaf.io import save_recording
from msaf.pipeline import PipelineConfig, run_pipeline

# every step yields a new recording, so no output is a loaded input itself
_STEPS = [{"kind": "bandpass", "low": 1.0, "high": 30.0}, {"kind": "average_reference"}]


def _write(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """Six 6-s recordings (sorted last: NC_001) and canonical maps to backfit."""
    root = tmp_path_factory.mktemp("stream")
    cfg = _write(root / "synth.json",
                 {"kind": "cohort", "n_per_class": 2, "seed": 3, "base": {"duration": 6.0}})
    assert main(["synth", "--config", cfg, "--out", str(root / "data")]) == 0
    maps = canonical_templates(standard_1020_montage())
    _write(root / "maps.json", maps.to_json_dict())
    return root


class _LiveRecordings:
    """Counts, at each call of the msaf.pipeline functions `counted`, the
    recordings they returned that are still alive, the one just returned
    included.

    Each per-recording step in `slow` (msaf.pipeline functions) is made to
    take 50 ms, so work still in flight when the next recording arrives
    shows in the count.
    """

    def __init__(self, monkeypatch, counted, slow):
        self.refs = []
        self.counts = []
        for name in slow:
            monkeypatch.setattr(msaf.pipeline, name, self._slowed(getattr(msaf.pipeline, name)))
        for name in counted:
            monkeypatch.setattr(msaf.pipeline, name, self._counted(getattr(msaf.pipeline, name)))

    @staticmethod
    def _slowed(step):
        def slowed(*args, **kwargs):
            time.sleep(0.05)
            return step(*args, **kwargs)
        return slowed

    def _counted(self, fn):
        def counted(*args, **kwargs):
            gc.collect()
            rec = fn(*args, **kwargs)
            self.refs.append(weakref.ref(rec))
            self.counts.append(sum(r() is not None for r in self.refs))
            return rec
        return counted


def _small_run(cohort, out, **overrides):
    return PipelineConfig(
        input_dir=str(cohort / "data"), out_dir=str(out), steps=_STEPS,
        kmeans={"n_inits": 2, "max_iter": 50}, cv_folds=2,
        classifier={"kind": "rf", "params": {"n_trees": 5}}, **overrides,
    )


@pytest.mark.parametrize("threads", [1, 3])
def test_run_holds_at_most_threads_raw_recordings(threads, cohort, tmp_path, monkeypatch):
    live = _LiveRecordings(monkeypatch, ["load_recording"], ["preprocess_recording"])
    run_pipeline(_small_run(cohort, tmp_path / "run"), threads=threads)
    assert len(live.counts) == 6
    assert max(live.counts) <= threads, live.counts


@pytest.mark.parametrize("threads", [1, 3])
def test_run_holds_at_most_threads_float64_preprocessed_recordings(
    threads, cohort, tmp_path, monkeypatch
):
    # the float64 results of preprocessing, then of widening the held
    # float32 payloads for clustering and for backfit
    live = _LiveRecordings(
        monkeypatch, ["preprocess_recording", "widen_recording"],
        ["preprocess_recording", "modified_kmeans", "backfit"],
    )
    run_pipeline(_small_run(cohort, tmp_path / "run"), threads=threads)
    assert len(live.counts) == 3 * 6
    assert max(live.counts) <= threads, live.counts


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("verb", ["segment", "backfit"])
def test_recording_verbs_hold_at_most_threads_recordings(
    verb, threads, cohort, tmp_path, monkeypatch
):
    live = _LiveRecordings(
        monkeypatch, ["load_recording"], ["backfit" if verb == "backfit" else "modified_kmeans"]
    )
    argv = [verb, str(cohort / "data")]
    if verb == "backfit":
        argv.append(str(cohort / "maps.json"))
    else:
        argv += ["--config", _write(tmp_path / "c.json", {"kmeans": {"n_inits": 2}})]
    assert main(argv + ["--out", str(tmp_path / "o"), "--threads", str(threads)]) == 0
    assert len(live.counts) == 6
    assert max(live.counts) <= threads, live.counts


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


@pytest.mark.parametrize("verb", ["preprocess", "segment", "backfit"])
def test_streamed_verbs_are_thread_independent(verb, cohort, tmp_path):
    argv = [verb, str(cohort / "data")]
    if verb == "backfit":
        argv.append(str(cohort / "maps.json"))
    elif verb == "preprocess":
        argv += ["--config", _write(tmp_path / "c.json", {"steps": _STEPS})]
    else:
        argv += ["--config", _write(tmp_path / "c.json", {"kmeans": {"n_inits": 3}}),
                 "--seed", "4"]
    trees = []
    for threads in (1, 3):
        out = tmp_path / f"t{threads}"
        assert main(argv + ["--out", str(out), "--threads", str(threads)]) == 0
        trees.append(_tree_bytes(out))
    assert len(trees[0]) == 6 * (2 if verb == "preprocess" else 1)
    assert trees[0] == trees[1]


def _bad_magic_last(data):
    path = data / "NC_001.eegb"
    path.write_bytes(b"XXXXXXXX" + path.read_bytes()[8:])


def _repeated_id_last(data):
    # sorts after NC_001 and carries DEM_000's subject id
    for ext in (".eegb", ".json"):
        shutil.copy(data / ("DEM_000" + ext), data / ("ZZ_copy" + ext))


def _shorten(data, name):
    """Cut a recording to 2 s, so it ends before the window of _CROP."""
    rec = load_recording(str(data / (name + ".eegb")))
    save_recording(rec.with_data(rec.data[:, :500]), str(data / name))


def _short_last(data):
    _shorten(data, "NC_001")


def _short_then_bad_magic(data):
    # at 3 threads NC_000 is still in flight when NC_001 fails to load
    _shorten(data, "NC_000")
    _bad_magic_last(data)


def _overflow_last(data):
    """Channels of alternating sign near +-3e38: finite in float32, but their
    surface Laplacian (_LAPLACIAN) is not."""
    rec = load_recording(str(data / "NC_001.eegb"))
    sign = np.where(np.arange(rec.n_channels) % 2 == 0, 1.0, -1.0)[:, None]
    save_recording(rec.with_data(sign * (3e38 + 1e36 * np.tanh(rec.data))),
                   str(data / "NC_001"))


_CROP = [{"kind": "crop", "t_start": 3.0, "t_end": 5.0}]
_LAPLACIAN = [{"kind": "laplacian"}]


@pytest.mark.parametrize("spoil,steps,error,code", [
    (_bad_magic_last, _STEPS, "BadMagic", 3),
    (_repeated_id_last, _STEPS, "DuplicateSubject", 3),
    (_short_last, _CROP, "EmptyCrop", 2),
    # the earlier recording's fault is reported at any thread count
    (_short_then_bad_magic, _CROP, "EmptyCrop", 2),
    # narrowed to float32 before anything is committed, without a NumPy warning
    (_overflow_last, _LAPLACIAN, "NonFiniteData", 3),
])
@pytest.mark.parametrize("verb", ["run", "preprocess"])
@pytest.mark.parametrize("threads", [1, 3])
def test_faulty_recording_fails_before_any_output(
    verb, threads, spoil, steps, error, code, cohort, tmp_path, capsys
):
    data = tmp_path / "data"
    shutil.copytree(cohort / "data", data, ignore=shutil.ignore_patterns("truth"))
    spoil(data)
    out = tmp_path / "o"
    if verb == "run":
        doc = {"input_dir": str(data), "out_dir": str(out), "steps": steps, "cv_folds": 2}
        argv = ["run", "--config", _write(tmp_path / "c.json", doc)]
    else:
        argv = ["preprocess", str(data), "--config", _write(tmp_path / "c.json",
                                                            {"steps": steps}),
                "--out", str(out)]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--threads", str(threads)]) == code
    assert not caught, [str(w.message) for w in caught]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert (err["error"], err["exit_code"]) == (error, code)
    # neither preprocessed/ nor any other output was written
    assert not out.exists()


def test_stage_verbs_replay_a_run_byte_for_byte(cohort, tmp_path):
    """On a cohort whose files are named by subject id, the verb chain on a
    run's preprocessed/ reproduces the run's maps, segmentations and features."""
    run = tmp_path / "run"
    run_pipeline(_small_run(cohort, run, seed=5, min_peak_distance_ms=10.0,
                            min_segment_ms=10.0))
    cfg = _write(tmp_path / "c.json", {"kmeans": {"n_inits": 2, "max_iter": 50},
                                       "min_peak_distance_ms": 10.0, "seed": 5})
    cfg_group = _write(tmp_path / "g.json", {"kmeans": {"n_inits": 2, "max_iter": 50}})
    v = tmp_path / "verbs"
    for argv in (
        ["segment", str(run / "preprocessed"), "--config", cfg, "--out", str(v / "subj")],
        ["group-maps", str(v / "subj"), "--config", cfg_group, "--seed", "5",
         "--out", str(v / "raw.json")],
        ["label", str(v / "raw.json"), "--out", str(v / "maps.json")],
        ["backfit", str(run / "preprocessed"), str(v / "maps.json"), "--min-segment-ms", "10",
         "--out", str(v / "segs")],
        ["features", str(v / "segs"), "--out", str(v / "features.csv")],
    ):
        assert main(argv) == 0, argv
    assert _tree_bytes(v / "subj") == _tree_bytes(run / "subject_maps")
    assert _tree_bytes(v / "segs") == _tree_bytes(run / "segmentations")
    for name in ("maps.json", "features.csv"):
        assert (v / name).read_bytes() == (run / name).read_bytes(), name
