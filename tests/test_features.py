"""Feature extraction against the brute-force oracle, plus identities."""
import dataclasses
import math

import numpy as np
import pytest

from msaf import (
    MicrostateMaps,
    Segmentation,
    SynthConfig,
    InconsistentStates,
    TooShort,
    build_feature_table,
    extract_features,
    generate,
)

from oracles import features_brute_force


def _random_segmentation(rng, k=None, fs=None, n=None):
    k = k or int(rng.integers(2, 7))
    fs = fs or float(rng.choice([100.0, 128.0, 250.0]))
    n = n or int(rng.integers(int(fs), int(5 * fs)))
    n_ch = int(rng.integers(4, 20))
    maps = rng.standard_normal((k, n_ch))
    maps -= maps.mean(axis=1, keepdims=True)
    maps /= np.linalg.norm(maps, axis=1, keepdims=True)
    mm = MicrostateMaps(
        channels=tuple(f"c{i}" for i in range(n_ch)),
        maps=maps,
        labels=tuple(chr(ord("A") + i) for i in range(k)),
    )
    states = rng.integers(0, k, size=n)
    corr = rng.random(n)
    gfp_vals = rng.random(n) * 5.0
    return Segmentation(
        states=states,
        corr=corr,
        gfp=gfp_vals,
        fs=fs,
        maps=mm,
        subject_id="s",
    )


def _oracle_dict(seg, **kw):
    return features_brute_force(
        seg.states, seg.corr, seg.gfp, seg.fs, seg.maps.k,
        seg.maps.labels, **kw,
    )


def test_matches_oracle_bit_for_bit_100_seeds():
    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        seg = _random_segmentation(rng)
        got = extract_features(seg)
        want = _oracle_dict(seg)
        assert got.keys() == want.keys()
        for key in want:
            if got[key] != want[key]:  # exact float equality intended
                mismatches += 1
    assert mismatches == 0


def test_matches_oracle_median_aggregate():
    rng = np.random.default_rng(1234)
    seg = _random_segmentation(rng)
    got = extract_features(seg, gfp_aggregate="median")
    want = _oracle_dict(seg, gfp_aggregate="median")
    assert got == want


def test_matches_oracle_with_trimmed_edges():
    for seed in (7, 21, 63):
        rng = np.random.default_rng(seed)
        seg = _random_segmentation(rng)
        got = extract_features(seg, trim_edge_runs=True)
        want = _oracle_dict(seg, trim_edge_runs=True)
        assert got == want


def test_coverage_sums_to_one():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        seg = _random_segmentation(rng)
        row = extract_features(seg)
        cov = [row[f"{s}_timecov"] for s in seg.maps.labels]
        assert math.fsum(cov) == pytest.approx(1.0, abs=1e-9)


def test_occurrence_times_duration_equals_coverage():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        seg = _random_segmentation(rng)
        row = extract_features(seg)
        for s in seg.maps.labels:
            occ, dur, cov = (row[f"{s}_{m}"] for m in ("occurrence", "meandur", "timecov"))
            assert occ * dur / 1000.0 == pytest.approx(cov, abs=1e-9)


def test_absent_state_gets_zeros():
    rng = np.random.default_rng(77)
    seg = _random_segmentation(rng, k=5)
    # rebuild with state 4 never used
    states = np.where(seg.states == 4, 0, seg.states)
    seg2 = Segmentation(states=states, corr=seg.corr, gfp=seg.gfp,
                        fs=seg.fs, maps=seg.maps, subject_id=seg.subject_id)
    row = extract_features(seg2)
    s = seg.maps.labels[4]
    assert row[f"{s}_gev"] == row[f"{s}_meancorr"] == row[f"{s}_occurrence"] == 0.0
    assert row[f"{s}_timecov"] == row[f"{s}_meandur"] == 0.0


def _with_states(seg, states):
    return Segmentation(states=np.asarray(states), corr=seg.corr, gfp=seg.gfp,
                        fs=seg.fs, maps=seg.maps, subject_id=seg.subject_id)


@pytest.mark.parametrize("trim", [False, True])
@pytest.mark.parametrize("aggregate", ["mean", "median"])
def test_edge_sequences_match_oracle(trim, aggregate):
    """One run, two runs (nothing left to trim), and a state never used."""
    seg = _random_segmentation(np.random.default_rng(91), k=4, fs=100.0, n=300)
    n = seg.n_samples
    two = np.where(np.arange(n) < 120, 2, 0)
    for states in (np.full(n, 3), two, np.where(seg.states == 1, 0, seg.states)):
        seg2 = _with_states(seg, states)
        kw = {"gfp_aggregate": aggregate, "trim_edge_runs": trim}
        assert extract_features(seg2, **kw) == _oracle_dict(seg2, **kw)


def test_too_short_raises():
    rng = np.random.default_rng(5)
    with pytest.raises(TooShort):
        seg = _random_segmentation(rng, fs=250.0, n=100)
        extract_features(seg)


def test_feature_names_order():
    seg = _random_segmentation(np.random.default_rng(3), k=3)
    seg = dataclasses.replace(seg, maps=seg.maps.relabeled(("C", "A", "B")))
    names = tuple(extract_features(seg))
    assert names[0:5] == (
        "A_gev", "A_meancorr", "A_occurrence", "A_timecov", "A_meandur"
    )
    assert names[5] == "B_gev" and names[10] == "C_gev"
    assert names[-1] == "gfp"
    assert len(names) == 16


def test_feature_table_column_order_matches_names():
    _, seg, _ = generate(SynthConfig(seed=3, duration=3.0))
    row = extract_features(seg)
    table = build_feature_table([("s1", "NC", row), ("s2", "DEM", row)])
    assert table.feature_names == tuple(row)
    for j, name in enumerate(table.feature_names):
        assert table.values[0, j] == row[name]


def test_rows_of_other_state_labels_are_inconsistent_states():
    seg = _random_segmentation(np.random.default_rng(5), k=4)
    other = dataclasses.replace(seg, maps=seg.maps.relabeled(("A", "B", "C", "E")))
    rows = [("s1", "NC", extract_features(seg)), ("s2", "DEM", extract_features(other))]
    with pytest.raises(InconsistentStates):
        build_feature_table(rows)


def test_permuted_maps_land_in_the_same_columns():
    """Maps listing the same labels in another order give the same row."""
    seg = _random_segmentation(np.random.default_rng(6), k=4)
    perm = np.array([2, 0, 3, 1])  # map i of the permuted set is map perm[i] of seg's
    permuted = MicrostateMaps(channels=seg.maps.channels, maps=seg.maps.maps[perm],
                              labels=("1", "2", "3", "4"))
    permuted = permuted.relabeled([seg.maps.labels[p] for p in perm])
    seg2 = dataclasses.replace(seg, maps=permuted, states=np.argsort(perm)[seg.states])
    table = build_feature_table([("s1", "NC", extract_features(seg)),
                                 ("s2", "DEM", extract_features(seg2))])
    assert table.feature_names == tuple(extract_features(seg))
    assert table.values[0].tobytes() == table.values[1].tobytes()


def test_synthetic_segmentation_against_oracle():
    _, seg, _ = generate(SynthConfig(seed=11, duration=4.0))
    got = extract_features(seg)
    want = _oracle_dict(seg)
    assert got == want
