"""GFP, peak picking, polarity-invariant clustering, backfitting."""
import itertools
import math
import time
import warnings

import numpy as np
import pytest

import msaf
import msaf.microstates
import msaf.preprocess
from msaf import (
    AmbiguousLabels,
    DegenerateSample,
    EmptyCluster,
    InvalidConfig,
    MicrostateMaps,
    Montage,
    NonFiniteData,
    NoPeaks,
    Recording,
    Segmentation,
    SynthConfig,
    backfit,
    canonical_templates,
    find_gfp_peaks,
    generate,
    gev,
    gfp,
    group_cluster,
    label_maps,
    modified_kmeans,
    spatial_correlation,
    standard_1020_montage,
)
from msaf.config import BLOCK_DOUBLES
from msaf.io import narrow_recording
from msaf.microstates import _min_cost_assignment, _run_lengths
from oracles import (
    EmptyClusterError,
    absorb_short_runs_loop,
    gfp_peaks_min_distance_loop,
    modified_kmeans_eigen_loop,
    modified_kmeans_loop,
    modified_kmeans_state_batch,
    run_groups,
    run_lengths_loop,
)


def widen_recording(rec):
    """The recording with float64 samples; widening is exact."""
    return rec if rec.data.dtype == np.float64 else rec.with_data(rec.data.astype(np.float64))


def _unit_maps(rng, k, n_ch):
    m = rng.standard_normal((k, n_ch))
    m -= m.mean(axis=1, keepdims=True)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    return m


def test_gfp_is_population_std():
    rng = np.random.default_rng(0)
    m = standard_1020_montage()
    data = rng.standard_normal((19, 40))
    rec = Recording(montage=m, fs=100.0, data=data, subject_id="t")
    values = gfp(rec)
    assert values.shape == (40,) and values.dtype == np.float64
    # hand formula: sqrt(mean((x - xbar)^2)) per sample
    for t in (0, 17, 39):
        col = data[:, t]
        hand = math.sqrt(sum((v - col.mean()) ** 2 for v in col) / 19)
        assert abs(values[t] - hand) < 1e-12


def test_find_peaks_strict_maxima():
    v = np.array([0.0, 1.0, 0.5, 2.0, 2.0, 1.0, 3.0, 0.0])
    idx = find_gfp_peaks(v, 100.0)
    # the plateau at 2.0 produces no peak
    assert list(idx) == [1, 6]


def test_find_peaks_min_distance_keeps_larger():
    v = np.array([0.0, 5.0, 0.1, 4.0, 0.0, 3.0, 0.0])
    assert list(find_gfp_peaks(v, 1000.0)) == [1, 3, 5]
    # 3 ms at 1 kHz = 3 samples: the peak at 3 is within 2 of the
    # larger peak at 1 and gets dropped; 5 is far enough from 1
    assert list(find_gfp_peaks(v, 1000.0, min_distance_ms=3.0)) == [1, 5]


def test_find_peaks_min_distance_is_a_ceiling():
    # at 250 Hz, 10 ms is 2.5 samples: peaks 2 samples (8 ms) apart are too close
    v = np.array([0.0, 5.0, 0.0, 4.0, 0.0, 0.0, 0.0, 3.0, 0.0])
    assert list(find_gfp_peaks(v, 250.0, min_distance_ms=8.0)) == [1, 3, 7]
    assert list(find_gfp_peaks(v, 250.0, min_distance_ms=10.0)) == [1, 7]
    # 10 ms at 200 Hz is exactly 2 samples
    assert list(find_gfp_peaks(v, 200.0, min_distance_ms=10.0)) == [1, 3, 7]


@pytest.mark.parametrize("seed", range(4))
def test_find_peaks_min_distance_matches_greedy_loop(seed):
    rng = np.random.default_rng(seed)
    # few distinct values: many tied peaks and flat plateaus
    v = rng.integers(0, 4 + seed, 600).astype(np.float64)
    v[100:110] = 9.0
    for ms in (0.0, 4.0, 8.0, 10.0, 30.0, 250.0, 5000.0):
        assert list(find_gfp_peaks(v, 250.0, min_distance_ms=ms)) == \
            gfp_peaks_min_distance_loop(v, 250.0, ms)


def test_find_peaks_min_distance_on_a_long_recording_is_fast():
    cfg = SynthConfig(duration=120.0, fs=250.0, seed=3)
    values = gfp(generate(cfg)[0])
    expected = gfp_peaks_min_distance_loop(values, cfg.fs, 10.0)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        idx = find_gfp_peaks(values, cfg.fs, min_distance_ms=10.0)
        best = min(best, time.perf_counter() - start)
    assert list(idx) == expected
    assert best < 0.05


def test_find_peaks_none():
    with pytest.raises(NoPeaks):
        find_gfp_peaks(np.linspace(0, 1, 50), 100.0)


def test_spatial_correlation_polarity_and_scale():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(19)
    assert spatial_correlation(a, a) == pytest.approx(1.0, abs=1e-12)
    assert spatial_correlation(a, -3.0 * a) == pytest.approx(-1.0, abs=1e-12)


def test_modified_kmeans_recovers_planted_maps():
    rng = np.random.default_rng(7)
    k, n_ch = 4, 19
    true = _unit_maps(rng, k, n_ch)
    # polarity-flipped, scaled observations of the k templates
    labels = rng.integers(0, k, size=600)
    signs = rng.choice([-1.0, 1.0], size=600)
    amps = 1.0 + rng.random(600)
    x = (true[labels].T * signs * amps).T
    est = modified_kmeans(x, k, n_inits=8, seed=3)
    assert est.gev_total == pytest.approx(1.0, abs=1e-9)
    # optimal one-to-one matching reaches |corr| ~ 1 for every map
    best = max(
        (
            sum(
                abs(spatial_correlation(est.maps[i], true[p[i]]))
                for i in range(k)
            )
            for p in itertools.permutations(range(k))
        )
    )
    assert best / k > 0.999


def test_modified_kmeans_trace_monotone():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 10))
    for seed in range(5):
        trace: list = []
        modified_kmeans(x, 3, n_inits=4, seed=seed, trace_sink=trace)
        assert trace, "no accepted iterates traced"
        by_restart: dict = {}
        for row in trace:
            by_restart.setdefault(row["restart"], []).append(row["gev"])
        for gevs in by_restart.values():
            diffs = np.diff(np.asarray(gevs))
            assert diffs.min() >= -1e-12


def test_modified_kmeans_deterministic():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200, 8))
    a = modified_kmeans(x, 3, n_inits=5, seed=42)
    b = modified_kmeans(x, 3, n_inits=5, seed=42)
    assert np.array_equal(a.maps, b.maps)
    assert a.gev_total == b.gev_total


def _final_gevs(trace):
    final = {}
    for row in trace:
        final[row["restart"]] = row["gev"]
    return [final[r] for r in sorted(final)]


def _assert_same_maps(a, b, atol):
    # rows agree up to polarity
    for u, v in zip(a, b / np.linalg.norm(b, axis=1, keepdims=True)):
        assert min(np.abs(u - v).max(), np.abs(u + v).max()) <= atol


@pytest.mark.parametrize("n_peaks,seconds", [(2130, 120.0), (146, 8.0)])
def test_modified_kmeans_matches_loop_reference(n_peaks, seconds):
    for seed in range(5):
        rec, _, _ = generate(SynthConfig(seed=seed, duration=seconds))
        x = rec.data[:, find_gfp_peaks(gfp(rec), rec.fs)].T[:n_peaks]
        assert x.shape == (n_peaks, 19)
        trace: list = []
        got = modified_kmeans(x, 4, seed=seed, trace_sink=trace)
        ref = modified_kmeans_loop(x, 4, seed=seed)
        assert [(r["restart"], r["iteration"]) for r in trace] == [
            (r["restart"], r["iteration"]) for r in ref["trace"]
        ]
        gevs = _final_gevs(trace)
        assert np.max(np.abs(np.subtract(gevs, ref["restart_gev"]))) <= 1e-12
        assert got.gev_total == gevs[ref["winner"]]
        _assert_same_maps(got.maps, ref["maps"], 1e-9)


def _matched_abs_r(a, b) -> float:
    """Smallest |r| between paired maps, over the pairing with the largest sum."""
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    r = np.abs(a @ b.T)
    best = max(
        itertools.permutations(range(len(a))),
        key=lambda p: sum(r[i, p[i]] for i in range(len(a))),
    )
    return min(r[i, best[i]] for i in range(len(a)))


@pytest.mark.parametrize("n_peaks,seconds", [(2130, 120.0), (146, 8.0)])
def test_modified_kmeans_close_to_eigen_update(n_peaks, seconds):
    # one power step per iteration ends where the full eigenvector update
    # ends, up to the bounds below
    for seed in range(5):
        rec, _, _ = generate(SynthConfig(seed=seed, duration=seconds))
        x = rec.data[:, find_gfp_peaks(gfp(rec), rec.fs)].T[:n_peaks]
        got = modified_kmeans(x, 4, seed=seed)
        ref = modified_kmeans_eigen_loop(x, 4, seed=seed)
        assert got.gev_total >= max(ref["restart_gev"]) - 1e-4
        assert _matched_abs_r(got.maps, ref["maps"]) >= 0.999


# Exactly representable zero-mean rows (Hadamard signs): every projection,
# scatter matrix and GEV is exact, so ties between duplicated maps are exact
# ties on both implementations.
_HADAMARD = np.array([[1.0, -1.0, 1.0, -1.0],
                      [1.0, 1.0, -1.0, -1.0],
                      [1.0, -1.0, -1.0, 1.0]])


def test_modified_kmeans_reseeds_empty_cluster():
    topo = np.array([0, 0, 0, 0, 0, 0, 1, 2])
    x = _HADAMARD[topo] * np.array([1, -1, 1, 1, -1, 1, 1, -1])[:, None]
    # most restarts draw two copies of topography 0, so one map goes empty
    draws = [topo[np.random.default_rng([0, r]).choice(8, size=3, replace=False)]
             for r in range(20)]
    assert any(len(set(d)) < 3 for d in draws)
    trace: list = []
    got = modified_kmeans(x, 3, seed=0, trace_sink=trace)
    ref = modified_kmeans_loop(x, 3, seed=0)
    assert got.gev_total == 1.0
    assert trace == ref["trace"]
    _assert_same_maps(got.maps, ref["maps"], 0.0)
    # each map is one of the three topographies, each topography one map
    corr = np.abs(got.maps @ _HADAMARD.T) / 2.0
    assert np.array_equal(np.sort(corr.ravel()), [0.0] * 6 + [1.0] * 3)
    assert np.array_equal(corr.sum(axis=0), [1.0, 1.0, 1.0])


def _dyadic_rows():
    """(x, a, u): 16-channel Hadamard rows f_i / 4 and half-sums of four of
    them, unit vectors with dyadic entries. Scaled by powers of two, every
    projection, power step and GEV sum stays exact."""
    h = np.array([[1.0]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    f = h[1:] / 4.0
    u = f[0]
    d1 = (f[0] + f[1] + f[2] + f[3]) / 2.0
    d2 = (f[0] - f[1] - f[2] - f[3]) / 2.0
    a = (f[1] + f[4] + f[5] + f[6]) / 2.0
    x = np.array([a, a, a, a, u, u, d1, d2]) * np.array(
        [1.0, -2.0, 8.0, -0.5, 4.0, -0.25, 2.0, -2.0])[:, None]
    return x, a, u


def test_modified_kmeans_reseed_recomputes_projections():
    x, a, u = _dyadic_rows()
    # restarts 1 and 3 draw two a-rows: map 1 goes empty and moves to the
    # first u-row (explained 0); the d-rows (|r| 1/4 with a, 1/2 with u)
    # follow it. Their new projections make the power step map u to itself;
    # their stale projections on a would turn it to f[1] + f[2] + f[3].
    draws = ["".join("aaaauudd"[i]
                     for i in np.random.default_rng([1, r]).choice(8, 2, replace=False))
             for r in range(6)]
    assert draws == ["au", "aa", "ua", "aa", "au", "au"]
    trace: list = []
    got = modified_kmeans(x, 2, n_inits=6, seed=1, trace_sink=trace)
    ref = modified_kmeans_loop(x, 2, n_inits=6, seed=1)
    assert trace == ref["trace"]
    # a- and u-rows fully explained, d-rows a quarter
    assert [r["gev"] for r in trace] == [87.3125 / 93.3125] * 12
    _assert_same_maps(got.maps, ref["maps"], 0.0)
    assert np.array_equal(np.abs(got.maps @ np.array([a, u]).T), np.eye(2))


def test_modified_kmeans_empty_cluster_after_k_reseeds():
    # two distinct topographies cannot fill three clusters
    x = _HADAMARD[[0, 1, 0, 1, 0, 1]] * np.array([1, 1, -1, 1, 1, -1])[:, None]
    with pytest.raises(EmptyCluster):
        modified_kmeans(x, 3, n_inits=3, seed=0)
    with pytest.raises(EmptyClusterError):
        modified_kmeans_loop(x, 3, n_inits=3, seed=0)


def test_modified_kmeans_warns_at_iteration_cap(caplog):
    x = np.random.default_rng(4).standard_normal((120, 8))
    with caplog.at_level("WARNING", logger="msaf.microstates"):
        modified_kmeans(x, 3, n_inits=5, max_iter=1, seed=0)
    records = [r for r in caplog.records if r.name == "msaf.microstates"]
    assert len(records) == 1
    assert "5 of 5 restarts" in records[0].getMessage()
    caplog.clear()
    with caplog.at_level("WARNING", logger="msaf.microstates"):
        modified_kmeans(x, 3, n_inits=5, seed=0)
    assert not [r for r in caplog.records if r.name == "msaf.microstates"]


def _synth_peaks(n_peaks, seconds, seed):
    rec, _, _ = generate(SynthConfig(seed=seed, duration=seconds))
    return rec.data[:, find_gfp_peaks(gfp(rec), rec.fs)].T[:n_peaks]


# (rows, k, settings): synthetic GFP peaks, exact Hadamard ties, reseeds
_IDENTITY_CASES = {
    **{f"synth2130-seed{s}": (lambda s=s: _synth_peaks(2130, 120.0, s), 4, {"seed": s})
       for s in range(3)},
    **{f"synth146-seed{s}": (lambda s=s: _synth_peaks(146, 8.0, s), 4, {"seed": s})
       for s in range(3)},
    "hadamard-ties": (
        lambda: _HADAMARD[[0, 0, 0, 0, 0, 0, 1, 2]]
        * np.array([1, -1, 1, 1, -1, 1, 1, -1])[:, None], 3, {"seed": 0}),
    "dyadic-reseed": (lambda: _dyadic_rows()[0], 2, {"n_inits": 6, "seed": 1}),
    "k1": (lambda: _synth_peaks(146, 8.0, 0), 1, {"seed": 2}),
    "one-restart": (lambda: _synth_peaks(146, 8.0, 1), 4, {"n_inits": 1, "seed": 3}),
    "iteration-cap": (lambda: _synth_peaks(146, 8.0, 2), 4, {"max_iter": 1, "seed": 4}),
}


@pytest.mark.parametrize("case", sorted(_IDENTITY_CASES))
def test_modified_kmeans_equals_integer_state_batch(case):
    # the hit-mask step computes the same products of the same values as
    # the integer-state loop, so maps, GEV and trace agree bit for bit
    rows, k, settings = _IDENTITY_CASES[case]
    x = rows()
    trace: list = []
    got = modified_kmeans(x, k, trace_sink=trace, **settings)
    ref = modified_kmeans_state_batch(x, k, **settings)
    assert got.maps.tobytes() == ref["maps"].tobytes()
    assert got.gev_total == ref["gev_total"]
    assert trace == ref["trace"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_modified_kmeans_rejects_non_finite_peak_maps(bad):
    x = np.random.default_rng(3).standard_normal((120, 8))
    x[17, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteData):
            modified_kmeans(x, 3, n_inits=20, seed=0)


@pytest.mark.parametrize("kwargs", [
    {"n_inits": 0}, {"n_inits": 2.5}, {"n_inits": True}, {"max_iter": 0},
    {"max_iter": "10"}, {"tol": -1e-9}, {"tol": float("nan")},
    {"tol": float("inf")}, {"tol": "0"},
])
def test_modified_kmeans_rejects_bad_iteration_settings(kwargs):
    x = np.random.default_rng(0).standard_normal((40, 6))
    with pytest.raises(InvalidConfig):
        modified_kmeans(x, 2, **kwargs)


def test_gev_bounds_and_sum():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((150, 12))
    maps = modified_kmeans(x, 3, n_inits=4, seed=0)
    xc = x - x.mean(axis=1, keepdims=True)
    corr = np.abs(
        (xc / np.linalg.norm(xc, axis=1, keepdims=True)) @ maps.maps.T
    )
    states = corr.argmax(axis=1)
    total, per_state = gev(x, states, maps)
    assert 0.0 <= total <= 1.0
    assert per_state.sum() == pytest.approx(total, abs=1e-12)


def test_backfit_label_agreement_and_polarity():
    rec, seg, templates = generate(SynthConfig(seed=5, snr=math.inf, duration=4.0))
    out = backfit(rec, templates)
    agree = np.mean(out.states == seg.states)
    assert agree == 1.0
    assert out.corr.min() > 0.999  # noiseless: every sample is a template


def _runs_of(states):
    runs = []
    prev, start = int(states[0]), 0
    for i, s in enumerate(list(states[1:]) + [-1], start=1):
        if s != prev:
            runs.append((start, i, prev))
            prev, start = int(s), i
    return runs


def test_backfit_min_segment_absorbs_short_runs():
    rec, _, templates = generate(SynthConfig(seed=6, snr=4.0, duration=6.0))
    raw = backfit(rec, templates)
    out = backfit(rec, templates, min_segment_ms=40.0)
    min_len = int(round(40.0 / 1000.0 * rec.fs))
    short_before = [r for r in _runs_of(raw.states) if r[1] - r[0] < min_len]
    assert short_before, "seed produced no short runs to absorb"
    # the pass only reassigns samples of originally short runs
    changed = np.nonzero(out.states != raw.states)[0]
    assert changed.size > 0
    short_samples = {
        t for start, stop, _ in short_before for t in range(start, stop)
    }
    assert set(changed.tolist()) <= short_samples
    # and it never fragments the sequence further
    assert len(_runs_of(out.states)) < len(_runs_of(raw.states))
    n_short_after = sum(
        stop - start
        for start, stop, _ in _runs_of(out.states)
        if stop - start < min_len
    )
    assert n_short_after < len(short_samples)


def test_backfit_min_segment_is_a_ceiling():
    m = standard_1020_montage()
    templates = canonical_templates(m)
    # noiseless runs of map 0, a 2-sample (8 ms) run of map 1 and a
    # 3-sample (12 ms) run of map 2 at 250 Hz
    truth = np.array([0] * 10 + [1] * 2 + [0] * 10 + [2] * 3 + [0] * 10)
    rec = Recording(montage=m, fs=250.0, data=templates.maps[truth].T, subject_id="s")
    assert backfit(rec, templates, min_segment_ms=8.0).states.tolist() == truth.tolist()
    absorbed = np.where(truth == 1, 0, truth)
    assert backfit(rec, templates, min_segment_ms=10.0).states.tolist() == absorbed.tolist()


# 3 samples of 19 channels: gfp and backfit take blocks of 3 samples
_SEAM_DOUBLES = 3 * 19


def _seg_bytes(seg):
    return seg.states.tobytes(), seg.corr.tobytes(), seg.gfp.tobytes()


def test_gfp_blocks_are_seamless(monkeypatch):
    rec, _, _ = generate(SynthConfig(seed=9, snr=4.0, duration=2.0))
    whole = gfp(rec).tobytes()
    monkeypatch.setattr(msaf.microstates, "BLOCK_DOUBLES", _SEAM_DOUBLES)
    assert gfp(rec).tobytes() == whole


def _bits(out):
    """Everything a consumer's output holds, as bytes where it is an array; a
    float32 recording is widened first."""
    if isinstance(out, Recording):
        out = widen_recording(out)
        return (_bits(out.data), out.fs, out.montage.names, _bits(out.montage.positions),
                out.subject_id, out.label, out.provenance)
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.tobytes()
    if isinstance(out, Segmentation):
        return (_bits(out.states), _bits(out.corr), _bits(out.gfp), out.fs, out.subject_id,
                out.label)
    if isinstance(out, tuple):
        return tuple(_bits(o) for o in out)
    return out


_TRUTH = generate(SynthConfig(seed=6, snr=4.0, duration=6.0))
_STORED = narrow_recording(_TRUTH[0])
_CONSUMERS = {
    "apply_fir": lambda r: msaf.apply_fir(r, msaf.design_fir_bandpass(1.0, 30.0, r.fs)),
    "zscore_channels": msaf.zscore_channels,
    "average_reference": msaf.average_reference,
    "surface_laplacian": msaf.surface_laplacian,
    "crop": lambda r: msaf.crop(r, 0.5, 4.5),
    "resample": lambda r: msaf.resample(r, 200.0),
    "gfp": gfp,
    "backfit": lambda r: backfit(r, _TRUTH[2], min_segment_ms=40.0),
    "gev": lambda r: gev(r, _TRUTH[1]),
    "pick": lambda r: r.pick(["F4", "Fp1", "F3"]),
}


@pytest.mark.parametrize("doubles", [BLOCK_DOUBLES, _SEAM_DOUBLES])
@pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
def test_consumers_give_a_float32_recording_the_bits_of_its_widened_copy(
    consumer, doubles, monkeypatch
):
    stored = _STORED
    assert stored.data.dtype == np.dtype("<f4")
    widened = widen_recording(stored)
    assert widened.data.dtype == np.float64
    for module in (msaf.microstates, msaf.preprocess):
        monkeypatch.setattr(module, "BLOCK_DOUBLES", doubles)
    fn = _CONSUMERS[consumer]
    assert _bits(fn(stored)) == _bits(fn(widened))


def test_backfit_degenerate_samples_on_block_seams(monkeypatch):
    rec, _, templates = generate(SynthConfig(seed=9, snr=4.0, duration=2.0))
    # 499 samples: the lone last one joins the block before it
    data = rec.data[:, :499].copy()
    # sample 6 opens a block; 15 and 16 leave 17 the only live sample of its
    # block, whose correlations must still come from a multi-row product
    data[:, [6, 15, 16]] = 1.5
    rec = rec.with_data(data)
    whole = backfit(rec, templates)
    for t in (6, 15, 16):
        assert whole.states[t] == whole.states[t - 1] and whole.corr[t] == 0.0
    assert whole.corr[17] > 0.0
    monkeypatch.setattr(msaf.microstates, "BLOCK_DOUBLES", _SEAM_DOUBLES)
    assert _seg_bytes(backfit(rec, templates)) == _seg_bytes(whole)


def test_backfit_short_runs_across_block_seams(monkeypatch):
    rec, _, templates = generate(SynthConfig(seed=6, snr=4.0, duration=6.0))
    raw = backfit(rec, templates)
    whole = backfit(rec, templates, min_segment_ms=40.0)
    min_len = int(round(40.0 / 1000.0 * rec.fs))
    short = [(a, b) for a, b, _ in _runs_of(raw.states) if b - a < min_len]
    assert any(a // 3 != (b - 1) // 3 for a, b in short), "no short run spans a seam"
    monkeypatch.setattr(msaf.microstates, "BLOCK_DOUBLES", _SEAM_DOUBLES)
    assert _seg_bytes(backfit(rec, templates, min_segment_ms=40.0)) == _seg_bytes(whole)


def test_backfit_degenerate_first_sample_raises_in_blocks(monkeypatch):
    rec, _, templates = generate(SynthConfig(seed=9, snr=4.0, duration=2.0))
    data = rec.data.copy()
    data[:, 0] = 1.5
    monkeypatch.setattr(msaf.microstates, "BLOCK_DOUBLES", _SEAM_DOUBLES)
    with pytest.raises(DegenerateSample):
        backfit(rec.with_data(data), templates)


def test_run_lengths_match_loop():
    rng = np.random.default_rng(8)
    for states in ([2], [0, 0, 0], [1, 0], rng.integers(0, 3, 500), rng.integers(0, 2, 7)):
        starts, stops, run_states = _run_lengths(np.asarray(states))
        got = list(zip(starts.tolist(), stops.tolist(), run_states.tolist()))
        assert got == run_lengths_loop(list(states)) == run_groups(states)


# seed 6 also starts and ends with a short run, each with one neighbour
@pytest.mark.parametrize("seed,min_segment_ms", [(6, 40.0), (7, 24.0), (8, 100.0)])
def test_backfit_min_segment_matches_loop(seed, min_segment_ms):
    rec, _, templates = generate(SynthConfig(seed=seed, snr=2.0, duration=4.0))
    # |spatial correlation| of every sample with every map, by z-scores
    x = rec.data.T
    xz = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    m = templates.maps
    mz = (m - m.mean(axis=1, keepdims=True)) / m.std(axis=1, keepdims=True)
    c = np.abs(xz @ mz.T) / x.shape[1]
    raw = backfit(rec, templates)
    assert np.array_equal(raw.states, np.argmax(c, axis=1))
    min_len = int(round(min_segment_ms / 1000.0 * rec.fs))
    assert any(stop - start < min_len for start, stop, _ in run_lengths_loop(raw.states))
    out = backfit(rec, templates, min_segment_ms=min_segment_ms)
    assert out.states.tolist() == absorb_short_runs_loop(raw.states, c, min_len)


def test_group_cluster_joins_subject_maps():
    rng = np.random.default_rng(3)
    true = _unit_maps(rng, 4, 19)
    subject_maps = []
    names = standard_1020_montage().names
    for s in range(6):
        perturbed = true + 0.05 * rng.standard_normal(true.shape)
        perturbed -= perturbed.mean(axis=1, keepdims=True)
        perturbed /= np.linalg.norm(perturbed, axis=1, keepdims=True)
        subject_maps.append(
            MicrostateMaps(channels=names, maps=perturbed,
                           labels=tuple(f"m{i}" for i in range(4)))
        )
    grp = group_cluster(subject_maps, 4, seed=0)
    assert grp.k == 4
    best = max(
        sum(abs(spatial_correlation(grp.maps[i], true[p[i]])) for i in range(4))
        for p in itertools.permutations(range(4))
    )
    assert best / 4 > 0.98


def test_label_maps_template_matching_is_bijective():
    rec, _, templates = generate(SynthConfig(seed=1, duration=2.0))
    shuffled = MicrostateMaps(
        channels=templates.channels,
        maps=templates.maps[::-1],
        labels=("w", "x", "y", "z"),
    )
    out = label_maps(shuffled, templates=templates)
    assert sorted(out.labels) == sorted(templates.labels)
    assert out.labels == tuple(reversed(templates.labels))
    assert np.array_equal(out.maps, shuffled.maps)


@pytest.mark.parametrize("costs", ["real", "tied"])
def test_assignment_equals_scipy_linear_sum_assignment(costs):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(21 if costs == "real" else 22)
    sizes = [(k, t) for t in range(1, 13) for k in range(1, t + 1)]
    for k, t in sizes * 6:
        if costs == "real":
            cost = rng.standard_normal((k, t))
        else:
            cost = rng.integers(0, 3, (k, t)).astype(np.float64)
        rows, cols = linear_sum_assignment(cost)
        assert list(rows) == list(range(k))
        assert _min_cost_assignment(cost) == list(cols), (k, t, cost)


def test_assignment_total_is_brute_force_minimum():
    rng = np.random.default_rng(23)
    for k, t in [(1, 1), (1, 4), (2, 5), (3, 3), (4, 4), (3, 6), (5, 5)]:
        for _ in range(20):
            cost = rng.integers(0, 4, (k, t)) + rng.random((k, t)) * (rng.random() < 0.5)
            cols = _min_cost_assignment(cost)
            assert sorted(set(cols)) == sorted(cols) and len(cols) == k
            best = min(sum(cost[i, p[i]] for i in range(k))
                       for p in itertools.permutations(range(t), k))
            assert sum(cost[i, cols[i]] for i in range(k)) == pytest.approx(best, abs=1e-12)


def test_label_maps_explicit_mapping_errors():
    rec, _, templates = generate(SynthConfig(seed=1, duration=2.0))
    with pytest.raises(AmbiguousLabels):
        label_maps(templates, mapping={0: "A", 1: "B"})  # not covering
    with pytest.raises(AmbiguousLabels):
        label_maps(templates)  # neither argument
    out = label_maps(templates, mapping={0: "P", 1: "Q", 2: "R", 3: "S"})
    assert out.labels == ("P", "Q", "R", "S")
