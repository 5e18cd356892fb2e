"""Ground-truth generator: determinism, template geometry, cohorts."""
import itertools
import math

import numpy as np
import pytest

from msaf import (
    CANONICAL_LABELS,
    InvalidConfig,
    SynthConfig,
    backfit,
    canonical_templates,
    default_cohort_profiles,
    generate,
    make_band_cohort,
    make_cohort,
    spatial_correlation,
    standard_1020_montage,
    transition_from_weights,
)

from oracles import synth_states_choice_loop


def test_canonical_templates_are_distinct():
    t = canonical_templates(standard_1020_montage())
    assert t.labels == CANONICAL_LABELS == ("A", "B", "C", "F")
    for i, j in itertools.combinations(range(4), 2):
        c = abs(spatial_correlation(t.maps[i], t.maps[j]))
        assert c <= 0.7, (t.labels[i], t.labels[j], c)


def test_generate_is_deterministic():
    a_rec, a_seg, _ = generate(SynthConfig(seed=3, duration=2.0))
    b_rec, b_seg, _ = generate(SynthConfig(seed=3, duration=2.0))
    assert np.array_equal(a_rec.data, b_rec.data)
    assert np.array_equal(a_seg.states, b_seg.states)
    c_rec, _, _ = generate(SynthConfig(seed=4, duration=2.0))
    assert not np.array_equal(a_rec.data, c_rec.data)


def test_generate_shapes_and_truth_consistency():
    cfg = SynthConfig(seed=0, duration=3.0, fs=200.0)
    rec, seg, templates = generate(cfg)
    assert rec.fs == 200.0
    assert rec.data.shape == (19, 600)
    assert seg.n_samples == 600
    assert seg.fs == 200.0
    assert templates.k == 4
    assert seg.maps.labels == templates.labels


def test_noiseless_samples_lie_on_templates():
    rec, seg, templates = generate(
        SynthConfig(seed=1, snr=math.inf, duration=2.0))
    out = backfit(rec, templates)
    assert np.array_equal(out.states, seg.states)
    assert out.corr.min() > 1.0 - 1e-9


def test_transition_from_weights_rows():
    t = transition_from_weights((1.0, 1.0, 2.0, 0.5))
    arr = np.asarray(t)
    assert arr.shape == (4, 4)
    assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.diag(arr) == 0.0)  # dwell handled separately
    with pytest.raises(InvalidConfig):
        transition_from_weights((1.0, -1.0, 0.0, 0.0))


@pytest.mark.parametrize("seed,n_states,transition", [
    (0, 4, None),
    # zero-probability entries off the diagonal, one row certain
    (1, 4, [[0, 0.5, 0.5, 0], [1, 0, 0, 0], [0, 0.25, 0, 0.75], [0.2, 0.3, 0.5, 0]]),
    (2, 3, [[0, 0.1, 0.9], [0.7, 0, 0.3], [0, 1, 0]]),
])
def test_generate_draws_states_as_generator_choice(seed, n_states, transition):
    # 2-sample mean dwells: about 7500 draws in 60 s at 250 Hz
    cfg = SynthConfig(duration=60.0, n_states=n_states, mean_dwell_ms=8.0,
                      transition=transition, seed=seed)
    _, seg, _ = generate(cfg)
    rows = cfg.transition or transition_from_weights(np.ones(n_states))
    expected = synth_states_choice_loop(seed, seg.n_samples, cfg.fs, cfg.mean_dwell_ms, rows)
    assert np.count_nonzero(np.diff(expected)) > 5000
    assert np.array_equal(seg.states, expected)


def test_generate_rejects_a_non_finite_transition():
    with pytest.raises(InvalidConfig, match="finite"):
        SynthConfig(n_states=2, transition=[[0.0, math.nan], [math.nan, 0.0]])


def test_dwell_times_follow_profile():
    cfg = SynthConfig(seed=5, duration=30.0, mean_dwell_ms=150.0,
                      snr=math.inf)
    _, seg, _ = generate(cfg)
    runs = []
    prev, start = int(seg.states[0]), 0
    for i, s in enumerate(list(seg.states[1:]) + [-1], start=1):
        if s != prev:
            runs.append((i - start) / seg.fs * 1000.0)
            prev, start = int(s), i
    mean_dwell = float(np.mean(runs[1:-1]))
    assert 100.0 < mean_dwell < 210.0  # geometric around 150 ms


def test_make_cohort_labels_and_determinism():
    pairs = make_cohort(2, seed=11)
    assert len(pairs) == 6
    labels = sorted({rec.label for rec, _ in pairs})
    assert labels == ["DEM", "MCI", "NC"]
    ids = [rec.subject_id for rec, _ in pairs]
    assert len(set(ids)) == 6
    again = make_cohort(2, seed=11)
    for (r1, s1), (r2, s2) in zip(pairs, again):
        assert r1.subject_id == r2.subject_id
        assert np.array_equal(r1.data, r2.data)
        assert np.array_equal(s1.states, s2.states)


def test_cohort_profiles_shift_state_balance():
    profiles = default_cohort_profiles()
    assert set(profiles) == {"NC", "MCI", "DEM"}
    pairs = make_cohort(4, seed=2, base={"duration": 20.0})
    occ = {"NC": [0, 0], "DEM": [0, 0]}  # [C runs, F runs]
    for rec, seg in pairs:
        if rec.label not in occ:
            continue
        states = list(seg.states)
        for c, slot in ((2, 0), (3, 1)):
            runs = sum(
                1 for i, s in enumerate(states)
                if s == c and (i == 0 or states[i - 1] != c)
            )
            occ[rec.label][slot] += runs
    assert occ["DEM"][0] < occ["NC"][0]  # fewer C visits in DEM
    assert occ["DEM"][1] > occ["NC"][1]  # more F visits in DEM


def test_make_band_cohort_structure():
    pairs = make_band_cohort(2, band=(4.0, 8.0), seed=1, duration=4.0)
    assert len(pairs) == 6
    for rec, seg in pairs:
        assert rec.fs == 250.0
        assert rec.data.shape[0] == 19
        assert seg.n_samples == rec.data.shape[1]
        assert rec.label in ("NC", "MCI", "DEM")
    a = make_band_cohort(2, band=(4.0, 8.0), seed=1, duration=4.0)
    assert np.array_equal(a[0][0].data, pairs[0][0].data)


def test_snr_controls_noise_floor():
    quiet, _, _ = generate(SynthConfig(seed=7, snr=20.0, duration=2.0))
    loud, _, _ = generate(SynthConfig(seed=7, snr=1.0, duration=2.0))
    # same underlying sequence, so the difference is pure noise scale
    assert loud.data.std() > quiet.data.std() * 0.99
    d_quiet = quiet.data - generate(
        SynthConfig(seed=7, snr=math.inf, duration=2.0))[0].data
    d_loud = loud.data - generate(
        SynthConfig(seed=7, snr=math.inf, duration=2.0))[0].data
    assert d_loud.std() == pytest.approx(20.0 * d_quiet.std(), rel=1e-6)
