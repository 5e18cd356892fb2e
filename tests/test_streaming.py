"""Recordings stream through the stages: bounded live inputs, thread
identity of the streamed verbs, the error order of a streamed cohort, and
the stage verbs replaying a run from its artifacts."""
import dataclasses
import functools
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import msaf
import msaf.pipeline
from msaf import (
    Recording,
    apply_fir,
    backfit,
    canonical_templates,
    design_fir_bandpass,
    design_fir_notch,
    gfp,
    load_recording,
    standard_1020_montage,
)
from msaf.cli import main
from msaf.io import narrow_recording, save_recording
from msaf.errors import DataError, NonFiniteData
from msaf.microstates import _sample_blocks
from msaf.preprocess import _convolve_same, _fir_payload
from msaf.pipeline import (
    PipelineConfig, _subject_maps, load_input_recordings, preprocess_recording, preprocess_stage,
    run_pipeline, subject_maps_stage,
)
from msaf.synth import SynthConfig, generate
from oracles import with_header

# every step yields a new recording, so no output is a loaded input itself
_STEPS = [{"kind": "bandpass", "low": 1.0, "high": 30.0}, {"kind": "average_reference"}]


def _write(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


def widen_recording(rec):
    """The recording with float64 samples; widening is exact."""
    return rec if rec.data.dtype == np.float64 else rec.with_data(rec.data.astype(np.float64))


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
    return PipelineConfig(**{
        "input_dir": str(cohort / "data"), "out_dir": str(out), "steps": _STEPS,
        "kmeans": {"n_inits": 2, "max_iter": 50}, "cv_folds": 2,
        "classifier": {"kind": "rf", "params": {"n_trees": 5}}, **overrides,
    })


@pytest.mark.parametrize("threads", [1, 3])
def test_run_holds_at_most_threads_raw_recordings(threads, cohort, tmp_path, monkeypatch):
    # the raw recordings of the first pass, then the preprocessed ones the
    # second pass reads back from preprocessed/, both as stored
    live = _LiveRecordings(monkeypatch, ["load_recording"], ["preprocess_recording", "backfit"])
    run_pipeline(_small_run(cohort, tmp_path / "run"), threads=threads)
    assert len(live.counts) == 2 * 6
    assert max(live.counts) <= threads, live.counts


@pytest.mark.parametrize("threads", [1, 3])
def test_run_clusters_with_no_float64_recording_of_the_subject_alive(
    threads, cohort, tmp_path, monkeypatch
):
    # every float64 Recording made, by subject; the raw recordings
    # (load_recording's results) and the float64 results of preprocessing
    # (narrow_recording's arguments); and, per worker thread, the subject it
    # preprocessed last, which is the one its next k-means call clusters
    made, inputs, preprocessed_by = [], [], {}
    init = Recording.__post_init__
    load = msaf.pipeline.load_recording
    narrow = msaf.pipeline.narrow_recording
    preprocess = msaf.pipeline.preprocess_recording
    kmeans = msaf.pipeline.modified_kmeans
    seen = []  # (inputs alive, the clustered subject's recordings alive) per k-means call

    def tracked_init(rec):
        init(rec)
        if rec.data.dtype == np.float64:
            made.append((rec.subject_id, weakref.ref(rec)))

    def loaded(path):
        rec = load(path)
        inputs.append(weakref.ref(rec))
        return rec

    def narrowed(rec):
        inputs.append(weakref.ref(rec))
        return narrow(rec)

    def preprocessed(*args, **kwargs):
        stored = preprocess(*args, **kwargs)
        preprocessed_by[threading.get_ident()] = stored.subject_id
        return stored

    def clustered(*args, **kwargs):
        time.sleep(0.05)  # other workers preprocess meanwhile
        gc.collect()
        sid = preprocessed_by[threading.get_ident()]
        seen.append((sum(r() is not None for r in inputs),
                     sum(s == sid and r() is not None for s, r in made)))
        return kmeans(*args, **kwargs)

    monkeypatch.setattr(Recording, "__post_init__", tracked_init)
    monkeypatch.setattr(msaf.pipeline, "load_recording", loaded)
    monkeypatch.setattr(msaf.pipeline, "narrow_recording", narrowed)
    monkeypatch.setattr(msaf.pipeline, "preprocess_recording", preprocessed)
    monkeypatch.setattr(msaf.pipeline, "modified_kmeans", clustered)
    run_pipeline(_small_run(cohort, tmp_path / "run"), threads=threads)
    assert len(seen) == 6
    # the steps end in average_reference: every subject was widened and narrowed
    assert len(made) >= 6 and len(inputs) == 2 * 6 + 6, (len(made), len(inputs))
    assert all(own == 0 for _, own in seen), seen
    assert max(alive for alive, _ in seen) <= threads, seen


@pytest.mark.parametrize("threads", [1, 3])
def test_subject_maps_stage_frees_each_recording_before_clustering(
    threads, cohort, tmp_path, monkeypatch
):
    # no frame holds a recording a loader returned while its worker runs
    # k-means; only the worker's own recordings count, as other workers may
    # still be picking peaks from theirs
    loaded, alive = [], []  # (worker, weak reference) per recording; own ones alive per k-means
    kmeans = msaf.pipeline.modified_kmeans

    def tracked(load):
        rec = load()
        loaded.append((threading.get_ident(), weakref.ref(rec)))
        return rec

    def clustered(*args, **kwargs):
        me = threading.get_ident()
        alive.append(sum(worker == me and ref() is not None for worker, ref in loaded))
        return kmeans(*args, **kwargs)

    monkeypatch.setattr(msaf.pipeline, "modified_kmeans", clustered)
    loads = [functools.partial(tracked, load)
             for load in load_input_recordings(str(cohort / "data"))]
    maps = subject_maps_stage(loads, 4, {"n_inits": 2, "max_iter": 20}, 10.0, 0,
                              str(tmp_path / "maps"), threads)
    assert len(maps) == len(loaded) == 6
    assert alive == [0] * 6, alive


def test_loaders_read_no_recording_until_called(cohort, monkeypatch):
    loaded = []
    load = msaf.pipeline.load_recording
    monkeypatch.setattr(msaf.pipeline, "load_recording",
                        lambda path: loaded.append(path) or load(path))
    loads = load_input_recordings(str(cohort / "data"))
    assert len(loads) == 6 and loaded == []
    assert loads[-1]().subject_id == "NC_001"
    assert loaded == [str(cohort / "data" / "NC_001.eegb")]


def test_run_reads_each_input_header_once_before_its_passes(cohort, tmp_path, monkeypatch):
    # one scan of the headers serves the class-size check and the repeated-id check
    events = []
    read, load = msaf.pipeline.read_recording_header, msaf.pipeline.load_recording
    monkeypatch.setattr(msaf.pipeline, "read_recording_header",
                        lambda path: events.append(("read", path)) or read(path))
    monkeypatch.setattr(msaf.pipeline, "load_recording",
                        lambda path: events.append(("load", path)) or load(path))
    run_pipeline(_small_run(cohort, tmp_path / "run"))
    headers = [("read", str(p)) for p in sorted((cohort / "data").glob("*.eegb"))]
    assert len(headers) == 6 and events[:6] == headers
    assert [e for e in events if e[0] == "read"] == headers
    assert len(events) == 6 + 2 * 6


_BANDPASS = {"kind": "bandpass", "low": 2.0, "high": 20.0}


@pytest.mark.parametrize("steps, per_subject", [
    ([_BANDPASS], 0),  # the long-recordings benchmark's steps
    ([{"kind": "notch", "freq": 50.0}, _BANDPASS], 1),  # the notch's output
])
@pytest.mark.parametrize("threads", [1, 3])
def test_final_fir_run_makes_no_float64_recording_but_between_steps(
    threads, steps, per_subject, cohort, tmp_path, monkeypatch
):
    # the final FIR writes each payload and backfit widens it block by block,
    # so neither pass builds a float64 Recording beyond what a filter before
    # the last one outputs; both passes read every recording
    made, loaded = [], []
    init = Recording.__post_init__
    load = msaf.pipeline.load_recording

    def tracked_init(rec):
        init(rec)
        if rec.data.dtype == np.float64:
            made.append(rec.subject_id)

    def tracked_load(path):
        loaded.append(path)
        return load(path)

    monkeypatch.setattr(Recording, "__post_init__", tracked_init)
    monkeypatch.setattr(msaf.pipeline, "load_recording", tracked_load)
    run_pipeline(_small_run(cohort, tmp_path / "run", steps=steps), threads=threads)
    assert len(loaded) == 2 * 6
    assert len(made) == 6 * per_subject and len(set(made)) == len(made), made


def test_subject_maps_of_a_stored_recording_equal_its_widened_ones():
    rec = generate(SynthConfig(seed=4, duration=6.0))[0]
    stored = narrow_recording(rec)
    widened = widen_recording(stored)
    kmeans = {"n_inits": 3, "max_iter": 50}
    maps = [_subject_maps(2, lambda: r, 4, kmeans, 10.0, 7)[1] for r in (stored, widened)]
    assert maps[0].maps.tobytes() == maps[1].maps.tobytes()
    assert maps[0].to_json_dict() == maps[1].to_json_dict()


_NOTCH = {"kind": "notch", "freq": 50.0}


@pytest.mark.parametrize("steps", [
    [], [_BANDPASS], [_NOTCH, _BANDPASS], _STEPS, [{"kind": "zscore"}, _NOTCH],
])
def test_preprocessed_payload_equals_the_narrowed_float64_chain(steps):
    # the reference: each step on the float64 recording, narrowed once at the end
    stored = narrow_recording(generate(SynthConfig(seed=4, duration=6.0))[0])
    want = widen_recording(stored)
    for step in steps:
        kind = step["kind"]
        if kind == "bandpass":
            want = apply_fir(want, design_fir_bandpass(step["low"], step["high"], want.fs))
        elif kind == "notch":
            want = apply_fir(want, msaf.design_fir_notch(step["freq"], 2.0, want.fs))
        else:
            want = {"zscore": msaf.zscore_channels,
                    "average_reference": msaf.average_reference}[kind](want)
    want = narrow_recording(want)
    for rec in (stored, widen_recording(stored)):
        got = preprocess_recording(rec, steps)
        assert got.data.dtype == np.dtype("<f4")
        assert got.data.tobytes() == want.data.tobytes()
        assert got.provenance == want.provenance


def test_final_fir_overflowing_float32_leaves_no_output(tmp_path):
    data = 1e39 * np.random.default_rng(2).standard_normal((19, 500))
    rec = Recording(montage=standard_1020_montage(), fs=250.0, data=data, subject_id="big")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported, not warned about
        with pytest.raises(NonFiniteData) as caught:
            preprocess_stage([lambda: rec], [_BANDPASS], None, str(out))
    assert isinstance(caught.value, DataError)  # exit 3
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    {}, {"classifier": {"kind": "rf"}, "grid": {"n_trees": [3, 5]}},
])
def test_too_small_class_fails_before_any_output(extra, cohort, tmp_path, capsys):
    # two recordings per class cannot fill three folds, nor can a grid search's
    out = tmp_path / "o"
    cfg = _write(tmp_path / "c.json", {"input_dir": str(cohort / "data"), "out_dir": str(out),
                                       "cv_folds": 3, **extra})
    capsys.readouterr()
    assert main(["run", "--config", cfg]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == ("ClassTooSmall", 3)
    assert "fewer than 3 folds" in err["message"]
    assert not out.exists()


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


# A child's peak resident memory counts the memory of the process it was
# forked from, so `msaf run` is started and waited for (os.wait4) by a fresh
# interpreter, not by this test process, whose size grows as tests run.
_LAUNCH = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
           "_, status, usage = os.wait4(p.pid, 0); "
           "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _child_env():
    """This process's environment with the tested msaf first on PYTHONPATH and
    one BLAS/OpenMP thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(msaf.__file__)))
    return dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# What `import msaf.cli` loads: the seven modules perfbench/tracing.py looks up
# right after it, but neither the periphery nor OpenSSL (through hashlib), the
# thread pool, or statistics and the fractions and decimals it pulls in.
_IMPORT_PROBE = """
import json, sys
import msaf.cli
print(json.dumps({"modules": sorted(sys.modules), "explain": callable(msaf.explain),
                  "public": sorted(msaf.__all__)}))
"""
_TRACED_MODULES = ("msaf.pipeline", "msaf.io", "msaf.preprocess", "msaf.microstates",
                   "msaf.features", "msaf.explain", "msaf.models")
_LOADED_ON_FIRST_USE = ("_hashlib", "concurrent.futures", "fractions", "decimal", "statistics",
                        "msaf.stats", "msaf.synth", "msaf.topo")
# sorted(msaf.__all__): every public name, whether its submodule loads at once or later
_PUBLIC_NAMES = """
AmbiguousLabels BadMagic CANONICAL_LABELS ClassTooSmall ConfigError ConstantSample
DEFAULT_GRIDS DataError DegenerateChannel DegenerateData DegenerateMap DegenerateSample
DimensionMismatch Diverged DuplicateSubject EmptyBackground EmptyCluster EmptyCrop EvalReport
FeatureTable FirFilter GbtModel InconsistentStates InsufficientChannels InvalidBand
InvalidConfig InvalidDomain InvalidRate IoFailure LengthMismatch MODEL_KINDS
MicrostateMaps Montage MontageMismatch MsafError NoPeaks NonFiniteData NumericError
PairwiseResult PipelineConfig RateMismatch Recording RfModel STANDARD_1020_NAMES
STANDARD_BANDS STATE_METRICS SampleSizeOutOfRange Segmentation ShapExplanation
ShapeMismatch SingleClass SingularSystem SvmModel SynthConfig TestResult TooFewGroups
TooFewSamples TooFewSamplesForValidation TooManyFeatures TooShort UnknownChannel
UnlabeledData UnsupportedModel ZeroGfp __version__ apply_fir average_reference backfit
band_sweep build_feature_table canonical_templates chi_square_sf commit_segmentation
config_hash crop default_cohort_profiles design_fir_bandpass design_fir_lowpass
design_fir_notch dunn_posthoc evaluate explain extract_features find_gfp_peaks generate
gev gfp global_ranking grid_search group_cluster kruskal_wallis
label_maps load_feature_table load_recording load_segmentation make_band_cohort
make_cohort make_trainer model_from_json_dict modified_kmeans normal_sf read_json
render_bar_chart render_topomap resample run_pipeline save_recording
shapiro_wilk spatial_correlation standard_1020_montage stratified_fold_indices
stratified_kfold_cv surface_laplacian train_gbt train_rf train_svm_ovr
transition_from_weights write_json zscore_channels
""".split()


def test_cli_import_loads_the_traced_modules_and_not_the_periphery():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=_child_env(),
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    modules = set(got["modules"])
    assert not modules & set(_LOADED_ON_FIRST_USE), sorted(modules & set(_LOADED_ON_FIRST_USE))
    assert modules >= set(_TRACED_MODULES), sorted(set(_TRACED_MODULES) - modules)
    assert got["explain"] is True
    assert len(_PUBLIC_NAMES) == 119 and got["public"] == _PUBLIC_NAMES


def _run_peak_rss_mb(root, n_per_class):
    """Peak resident memory (MB) of `msaf run` as a child process on a cohort
    of two classes, n_per_class recordings of 30 s each."""
    _write(root / f"synth{n_per_class}.json", {
        "kind": "cohort", "n_per_class": n_per_class, "seed": 1,
        "profiles": {"A": {}, "B": {}}, "base": {"duration": 30.0},
    })
    assert main(["synth", "--config", str(root / f"synth{n_per_class}.json"),
                 "--out", str(root / f"data{n_per_class}")]) == 0
    cfg = _write(root / f"run{n_per_class}.json", {
        "input_dir": str(root / f"data{n_per_class}"), "out_dir": str(root / f"o{n_per_class}"),
        "kmeans": {"n_inits": 2, "max_iter": 20}, "cv_folds": 2,
        "classifier": {"kind": "rf", "params": {"n_trees": 5}},
    })
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH, sys.executable, "-m", "msaf.cli", "run", "--config", cfg],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    code, max_rss_kb = proc.stdout.split()[-2:]  # kilobytes on Linux
    assert code == "0", proc.stderr
    return int(max_rss_kb) / 1024.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in kB is Linux's")
def test_run_peak_memory_does_not_grow_with_the_cohort(tmp_path):
    # a run that held the cohort's float32 payloads (4 bytes per channel and
    # sample) and segmentations (24 bytes per sample) would grow by about
    # 9 MB for 12 more recordings; one that holds one recording per worker
    # does not grow
    small, large = (_run_peak_rss_mb(tmp_path, n) for n in (2, 8))
    assert large - small < 4.0, (small, large)


# (kernel, bound in MB). Traced heap peaks above entry on a 19 x 30 000
# recording (4.56 MB of float64), whole-recording temporaries -> 1 MB blocks
# -> 128 KiB blocks: apply_fir 14.0 -> 6.9 -> 5.4, backfit 11.3 -> 3.2 -> 2.0,
# gfp 5.0 -> 1.4 -> 0.5 and a widened load, whose payload was a bytes slice
# first, 9.7 -> 7.4. A final FIR filter that reads a 2.28 MB float32 payload
# and writes another peaks at 5.5 -> 3.3, and load_recording, which returns
# the payload as stored, loads it in 2.9.
# Saving a float32 recording writes its payload as a buffer: 2.29 with a bytes
# copy of it, 0.01 without.
_KERNEL_BOUNDS_MB = [("apply_fir", 6.0), ("backfit", 2.5), ("gfp", 0.75), ("load_recording", 3.5),
                     ("apply_fir_payload", 4.0), ("save_recording", 0.5)]


@pytest.mark.parametrize("kernel, bound_mb", _KERNEL_BOUNDS_MB)
def test_kernel_temporaries_do_not_grow_with_the_recording(kernel, bound_mb, tmp_path):
    montage = standard_1020_montage()
    data = np.random.default_rng(21).standard_normal((19, 30_000))
    rec = Recording(montage=montage, fs=250.0, data=data, subject_id="s")
    filt = design_fir_bandpass(1.0, 30.0, 250.0)
    maps = canonical_templates(montage)
    path = save_recording(rec, str(tmp_path / "s"))[0]
    stored = narrow_recording(rec)
    call = {
        "apply_fir": lambda: apply_fir(rec, filt),
        "apply_fir_payload": lambda: _fir_payload(stored, filt),
        "save_recording": lambda: save_recording(stored, str(tmp_path / "t")),
        "backfit": lambda: backfit(rec, maps),
        "gfp": lambda: gfp(rec),
        "load_recording": lambda: load_recording(path),
    }[kernel]
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / 1e6 < bound_mb, peak - entry


# tools/artifact_hashes.py's CI listing (19 channels x 30 s at 250 Hz, with its
# notch, 1-30 Hz and 2-20 Hz filters) shows that block seams change no byte
# only while its recordings span several blocks at the default budget: at
# 128 KiB, 9 sample blocks and 19, 19 and 10 FIR row blocks.
@pytest.mark.parametrize("filt", [design_fir_notch(50.0, 2.0, 250.0),
                                  design_fir_bandpass(1.0, 30.0, 250.0),
                                  design_fir_bandpass(2.0, 20.0, 250.0)],
                         ids=["notch", "bandpass-1-30", "bandpass-2-20"])
def test_hash_listing_recordings_cross_block_seams(filt, monkeypatch):
    assert len(_sample_blocks(7500, 19)) >= 2
    blocks = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: blocks.append(1) or irfft(*a, **k))
    _convolve_same(np.zeros((19, 7500)), filt.taps)
    assert len(blocks) >= 2, len(blocks)


# Repeated kernel calls on one 8-s, 19-channel float32 recording in a fresh
# interpreter, whose glibc mmap threshold no earlier test has raised. Block
# temporaries under the threshold (128 KiB) are reused from the heap; 1 MB
# ones were mapped afresh and faulted in on every call: about 2 200 faults for
# these 15 calls, 0 with 128 KiB blocks.
_FAULT_PROBE = """
import resource
import numpy as np
from msaf import Recording, backfit, canonical_templates, design_fir_bandpass, gfp
from msaf import standard_1020_montage
from msaf.io import narrow_recording
from msaf.preprocess import _fir_payload
montage = standard_1020_montage()
data = np.random.default_rng(3).standard_normal((19, 2000))
rec = narrow_recording(Recording(montage=montage, fs=250.0, data=data, subject_id="s"))
filt = design_fir_bandpass(1.0, 30.0, 250.0)
maps = canonical_templates(montage)
calls = [lambda: _fir_payload(rec, filt), lambda: gfp(rec), lambda: backfit(rec, maps)]
for call in calls:
    call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for call in calls:
    for _ in range(5):
        call()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the mmap threshold is glibc's")
def test_repeated_kernel_calls_reuse_their_block_temporaries():
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout.split()[-1]) < 100, proc.stdout


# Traced heap peak above entry of `msaf run` on two 120-s and two 6-s
# recordings, 19 channels at 250 Hz (4.56 MB of float64 for a long one), with
# the long-recordings benchmark's bandpass and default k-means: 13.9 MB when
# pass 1 clustered a widened copy beside the raw recording, 11.5 MB when it
# clustered from the float32 payload and the peak moved to the FIR filter,
# 7.8 MB when the FIR filter reads the raw payload and writes the preprocessed
# one (2.28 MB each) with no float64 recording beside them, 7.0 MB when the
# kernels' blocks shrank from 1 MB to 128 KiB, 5.7 MB when pass 1 freed each
# preprocessed recording after peak picking, before k-means.
_RUN_PEAK_BOUND_MB = 6.2


def test_run_traced_heap_peak_is_bounded(tmp_path):
    for i, (label, duration) in enumerate([("A", 120.0), ("B", 120.0), ("A", 6.0), ("B", 6.0)]):
        rec = generate(SynthConfig(duration=duration, seed=i, subject_id=f"{label}{i}",
                                   label=label))[0]
        save_recording(rec, str(tmp_path / "data" / rec.subject_id))
    cfg = PipelineConfig(
        input_dir=str(tmp_path / "data"), out_dir=str(tmp_path / "o"),
        steps=[{"kind": "bandpass", "low": 2.0, "high": 20.0}], cv_folds=2,
        classifier={"kind": "rf", "params": {"n_trees": 5}},
    )
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / 1e6 < _RUN_PEAK_BOUND_MB, peak - entry


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
    assert len(trees[0]) == 6
    assert trees[0] == trees[1]


def _bad_magic_last(data):
    path = data / "NC_001.eegb"
    path.write_bytes(b"XXXXXXXX" + path.read_bytes()[8:])


def _repeated_id_last(data):
    # sorts after NC_001 and carries DEM_000's subject id
    shutil.copy(data / "DEM_000.eegb", data / "ZZ_copy.eegb")


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


def _short_then_repeated_id(data):
    # at 3 threads NC_001 is still in flight when ZZ_copy's repeated id is drawn
    _short_last(data)
    _repeated_id_last(data)


def _overflow_last(data):
    """Channels of alternating sign near +-3e38: finite in float32, but their
    surface Laplacian (_LAPLACIAN) is not."""
    rec = load_recording(str(data / "NC_001.eegb"))
    sign = np.where(np.arange(rec.n_channels) % 2 == 0, 1.0, -1.0)[:, None]
    save_recording(rec.with_data(sign * (3e38 + 1e36 * np.tanh(rec.data))),
                   str(data / "NC_001"))


def _edit_header(data, name, **fields):
    path = data / (name + ".eegb")
    path.write_bytes(with_header(path.read_bytes(), lambda h: {**h, **fields}))


def _no_samples_last(data):
    """NC_001's header declares 0 samples and its file ends with the header,
    so the sizes agree."""
    path = data / "NC_001.eegb"
    blob = path.read_bytes()
    path.write_bytes(blob[:12 + int.from_bytes(blob[8:12], "little")])
    _edit_header(data, "NC_001", n_samples=0)


def _zero_rate_last(data):
    _edit_header(data, "NC_001", fs=0)


def _fails_with_one_error_line(argv, error, code, capsys):
    capsys.readouterr()
    assert main(argv) == code
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert (err["error"], err["exit_code"]) == (error, code)


_CROP = [{"kind": "crop", "t_start": 3.0, "t_end": 5.0}]
_LAPLACIAN = [{"kind": "laplacian"}]


@pytest.mark.parametrize("spoil,steps,error,code", [
    (_bad_magic_last, _STEPS, "BadMagic", 3),
    (_repeated_id_last, _STEPS, "DuplicateSubject", 3),
    (_short_last, _CROP, "EmptyCrop", 2),
    # the earlier recording's fault is reported at any thread count
    (_short_then_bad_magic, _CROP, "EmptyCrop", 2),
    (_short_then_repeated_id, _CROP, "EmptyCrop", 2),
    # narrowed to float32 before anything is committed, without a NumPy warning
    (_overflow_last, _LAPLACIAN, "NonFiniteData", 3),
    # a final FIR writes the payload, yet an empty or rateless input is still rejected
    (_no_samples_last, [_BANDPASS], "ShapeMismatch", 3),
    (_zero_rate_last, [_BANDPASS], "InvalidRate", 2),
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _fails_with_one_error_line(argv + ["--threads", str(threads)], error, code, capsys)
    assert not caught, [str(w.message) for w in caught]
    # neither preprocessed/ nor any other output was written
    assert not out.exists()


@pytest.mark.parametrize("montage,error", [
    (["Cz", "Cz", "Pz"], "InvalidConfig"), (["Cz"], "InvalidConfig"),
    (["Cz", "XX"], "UnknownChannel"),
])
@pytest.mark.parametrize("verb", ["run", "preprocess"])
def test_bad_montage_fails_before_any_recording_is_read(
    verb, montage, error, cohort, tmp_path, capsys
):
    # every recording is spoiled, so only the config check can report first
    data = tmp_path / "data"
    shutil.copytree(cohort / "data", data, ignore=shutil.ignore_patterns("truth"))
    for path in data.glob("*.eegb"):
        path.write_bytes(b"XXXXXXXX" + path.read_bytes()[8:])
    out = tmp_path / "o"
    if verb == "run":
        doc = {"input_dir": str(data), "out_dir": str(out), "montage": montage, "cv_folds": 2}
        argv = ["run", "--config", _write(tmp_path / "c.json", doc)]
    else:
        argv = ["preprocess", str(data), "--config",
                _write(tmp_path / "c.json", {"montage": montage}), "--out", str(out)]
    _fails_with_one_error_line(argv, error, 2, capsys)
    assert not out.exists()


@pytest.mark.parametrize("spoil,error,code", [
    (_no_samples_last, "ShapeMismatch", 3),
    (_zero_rate_last, "InvalidRate", 2),
])
def test_backfit_rejects_an_empty_or_rateless_recording(spoil, error, code, cohort, tmp_path,
                                                        capsys):
    data = tmp_path / "data"
    shutil.copytree(cohort / "data", data, ignore=shutil.ignore_patterns("truth"))
    spoil(data)
    out = tmp_path / "o"
    _fails_with_one_error_line(
        ["backfit", str(data), str(cohort / "maps.json"), "--out", str(out)], error, code, capsys)
    assert not out.exists()


@pytest.mark.parametrize("spoil,steps", [
    (_bad_magic_last, _STEPS), (_repeated_id_last, _STEPS), (_short_last, _CROP),
    (_overflow_last, _LAPLACIAN),
])
def test_too_small_class_is_reported_before_a_faulty_recording(
    spoil, steps, cohort, tmp_path, capsys
):
    # the class sizes are checked from the headers before any recording is read
    data = tmp_path / "data"
    shutil.copytree(cohort / "data", data, ignore=shutil.ignore_patterns("truth"))
    spoil(data)
    out = tmp_path / "o"
    cfg = _write(tmp_path / "c.json", {"input_dir": str(data), "out_dir": str(out),
                                       "steps": steps, "cv_folds": 3})
    _fails_with_one_error_line(["run", "--config", cfg], "ClassTooSmall", 3, capsys)
    assert not out.exists()


def _unlabeled_last(data):
    rec = load_recording(str(data / "NC_001.eegb"))
    save_recording(dataclasses.replace(rec, label=None), str(data / "NC_001"))


def _without_fz_last(data):
    rec = load_recording(str(data / "NC_001.eegb"))
    save_recording(rec.pick([c for c in rec.montage.names if c != "Fz"]), str(data / "NC_001"))


def _fails_before_any_recording_is_read(verb, spoil, doc, error, cohort, tmp_path, capsys,
                                        monkeypatch):
    """verb on a spoiled copy of the cohort fails with error (exit 3) in its header scan: no
    recording is loaded and no output is written."""
    data = tmp_path / "data"
    shutil.copytree(cohort / "data", data, ignore=shutil.ignore_patterns("truth"))
    spoil(data)
    loaded = []
    load = msaf.pipeline.load_recording
    monkeypatch.setattr(msaf.pipeline, "load_recording",
                        lambda path: loaded.append(path) or load(path))
    out = tmp_path / "o"
    if verb == "preprocess":
        argv = [verb, str(data), "--config", _write(tmp_path / "c.json", doc), "--out", str(out)]
    else:
        argv = [verb, "--config", _write(tmp_path / "c.json", {
            "input_dir": str(data), "out_dir": str(out), "steps": _STEPS, "cv_folds": 2, **doc})]
        argv += ["--bands", "alpha"] if verb == "band-sweep" else []
    _fails_with_one_error_line(argv + ["--threads", "3"], error, 3, capsys)
    assert loaded == []
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "band-sweep"])
def test_unlabeled_recording_fails_before_any_output(verb, cohort, tmp_path, capsys,
                                                     monkeypatch):
    _fails_before_any_recording_is_read(verb, _unlabeled_last, {}, "UnlabeledData",
                                        cohort, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("verb", ["run", "band-sweep"])
def test_recording_with_other_channels_fails_before_any_output(verb, cohort, tmp_path, capsys,
                                                               monkeypatch):
    # 18 of the 19 channels: its subject maps could not be clustered with the others'
    _fails_before_any_recording_is_read(verb, _without_fz_last, {}, "MontageMismatch",
                                        cohort, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("verb", ["run", "band-sweep", "preprocess"])
def test_recording_lacking_a_montage_channel_fails_before_any_output(
    verb, cohort, tmp_path, capsys, monkeypatch
):
    # a data fault (exit 3); an unknown name in the montage itself is a config one
    _fails_before_any_recording_is_read(verb, _without_fz_last,
                                        {"montage": ["Cz", "Pz", "Fz", "O1"]},
                                        "MontageMismatch", cohort, tmp_path, capsys, monkeypatch)


def test_too_short_segmentation_leaves_the_stages_before_features(cohort, tmp_path, capsys):
    # features need 1 s of segmentation; the stages before them were committed,
    # as `msaf backfit` then `msaf features` would leave them
    out = tmp_path / "o"
    cfg = _write(tmp_path / "c.json", {
        "input_dir": str(cohort / "data"), "out_dir": str(out), "cv_folds": 2,
        "steps": [{"kind": "crop", "t_start": 0.0, "t_end": 0.8}],
        "kmeans": {"n_inits": 2, "max_iter": 50},
    })
    _fails_with_one_error_line(["run", "--config", cfg], "TooShort", 3, capsys)
    assert sorted(os.listdir(out)) == ["maps.json", "preprocessed", "segmentations",
                                       "subject_maps"]
    assert [len(os.listdir(out / d)) for d in ("preprocessed", "segmentations")] == [6, 6]
    assert not [f for _, _, files in os.walk(out) for f in files if ".partial." in f]


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
