"""Recording container, .eegb and .seg round-trips, montage, feature table CSV."""
import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import msaf.io
from msaf import (
    DuplicateSubject,
    FeatureTable,
    InvalidConfig,
    InvalidRate,
    Montage,
    NonFiniteData,
    Recording,
    ShapeMismatch,
    SynthConfig,
    UnknownChannel,
    commit_segmentation,
    generate,
    load_feature_table,
    load_recording,
    load_segmentation,
    read_json,
    save_recording,
    standard_1020_montage,
    write_json,
)
from msaf.cli import main
from msaf.io import read_recording_header, staged
from msaf.pipeline import load_input_recordings
from oracles import with_header


def _rec(n_ch=4, n_t=50, fs=100.0, **kw):
    rng = np.random.default_rng(3)
    montage = standard_1020_montage()
    montage = Montage(montage.names[:n_ch], montage.positions[:n_ch])
    data = rng.standard_normal((n_ch, n_t))
    return Recording(montage=montage, fs=fs, data=data,
                     subject_id=kw.pop("subject_id", "s01"), **kw)


def test_standard_montage_unit_positions():
    m = standard_1020_montage()
    assert m.n_channels == 19
    assert np.allclose(np.linalg.norm(m.positions, axis=1), 1.0)
    assert "Cz" in m.names and "O1" in m.names


def test_montage_subset_and_unknown():
    m = standard_1020_montage(["Fp1", "Cz", "O2"])
    assert m.names == ("Fp1", "Cz", "O2")
    with pytest.raises(UnknownChannel):
        standard_1020_montage(["Fp1", "XX9"])
    # modern temporal aliases resolve to the classic positions
    modern = standard_1020_montage(["T7", "P8"])
    classic = standard_1020_montage(["T3", "T6"])
    assert np.allclose(modern.positions, classic.positions)


def test_montage_rejects_non_unit_positions():
    with pytest.raises(ShapeMismatch):
        Montage(("a", "b"), np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]]))


def test_recording_shape_validation():
    m = standard_1020_montage(["Fp1", "Cz", "O2"])
    with pytest.raises(ShapeMismatch):
        Recording(montage=m, fs=100.0, data=np.zeros((2, 10)), subject_id="x")


def test_eegb_roundtrip_exact(tmp_path):
    rec = _rec(label="NC", provenance=("synth",))
    (eegb,) = save_recording(rec, str(tmp_path / "s01.eegb"))
    assert os.listdir(tmp_path) == ["s01.eegb"]
    back = load_recording(eegb)
    assert back.subject_id == "s01"
    assert back.label == "NC"
    assert back.fs == rec.fs
    assert back.montage.names == rec.montage.names
    # payload is float32 on disk; the narrowing is the only loss
    assert np.array_equal(back.data, rec.data.astype("<f4").astype(np.float64))
    assert np.max(np.abs(back.data - rec.data)) < 1e-6
    assert back.provenance == ("synth",)


def test_eegb_roundtrip_without_label(tmp_path):
    rec = _rec()
    save_recording(rec, str(tmp_path / "anon"))
    back = load_recording(str(tmp_path / "anon.eegb"))
    assert back.label is None


def test_eegb_is_magic_header_length_header_then_payload(tmp_path):
    rec = _rec(provenance=("synth",))
    save_recording(rec, str(tmp_path / "s01"))
    blob = (tmp_path / "s01.eegb").read_bytes()
    n = int.from_bytes(blob[8:12], "little")
    header = {"channels": list(rec.montage.names), "fs": 100.0, "label": None,
              "n_samples": 50, "provenance": ["synth"], "subject_id": "s01"}
    assert blob[:8] == b"EEGB0002"
    assert blob[12:12 + n] == json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    assert blob[12 + n:] == rec.data.astype("<f4").tobytes()
    assert read_recording_header(str(tmp_path / "s01.eegb")) == {
        **header, "channels": rec.montage.names}


def test_load_recording_returns_a_read_only_aligned_float32_view(tmp_path):
    # subject ids of 1 to 4 characters put the payload at each offset mod 4
    for sid in ("a", "ab", "abc", "abcd"):
        (path,) = save_recording(_rec(subject_id=sid), str(tmp_path / sid))
        data = load_recording(path).data
        assert data.dtype == np.dtype("<f4") and data.shape == (4, 50)
        assert data.flags.aligned and data.flags.c_contiguous
        assert not data.flags.writeable and not data.flags.owndata, sid


def test_a_payload_cut_short_fails_only_when_its_loader_runs(tmp_path):
    # the scan reads headers alone
    for sid in ("a", "b"):
        save_recording(_rec(subject_id=sid), str(tmp_path / sid))
    path = tmp_path / "b.eegb"
    path.write_bytes(path.read_bytes()[:-4])
    loads = load_input_recordings(str(tmp_path))
    assert loads[0]().subject_id == "a"
    with pytest.raises(ShapeMismatch, match="payload is 796 bytes, header declares 800"):
        loads[1]()


def _two_file_recording(path):
    """A recording in the EEGB0001 layout: magic and payload, fields in a JSON sidecar."""
    (path.parent / (path.stem + ".json")).write_text(json.dumps(
        {"subject_id": "s01", "fs": 100.0, "channels": ["Fp1", "Fp2"], "n_samples": 3}))
    path.write_bytes(b"EEGB0001" + np.zeros(6, "<f4").tobytes())


def _header_edit(edit):
    def spoil(path):
        save_recording(_rec(), str(path))
        path.write_bytes(with_header(path.read_bytes(), edit))
    return spoil


@pytest.mark.parametrize("spoil,error", [
    (_two_file_recording, "BadMagic"),
    (_header_edit(lambda h: {k: v for k, v in h.items() if k != "label"}), "IoFailure"),
    (_header_edit(lambda h: {k: v for k, v in h.items() if k != "provenance"}), "IoFailure"),
    (_header_edit(lambda h: {**h, "units": "uV"}), "IoFailure"),
    (_header_edit(lambda h: json.dumps([h]).encode()), "IoFailure"),
], ids=["eegb0001", "no-label", "no-provenance", "extra-key", "not-an-object"])
def test_a_recording_not_in_the_container_layout_is_one_data_error(spoil, error, tmp_path,
                                                                    capsys):
    data = tmp_path / "data"
    data.mkdir()
    spoil(data / "s01.eegb")
    out = tmp_path / "o"
    assert main(["preprocess", str(data), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert (err["error"], err["category"], err["exit_code"]) == (error, "DataError", 3)
    assert not out.exists()


@pytest.mark.parametrize("label", ["NC", None])
def test_segmentation_roundtrip_exact(tmp_path, label):
    _, seg, _ = generate(SynthConfig(seed=9, duration=2.0, snr=3.0, subject_id="s07",
                                     label=label))
    path = commit_segmentation(seg, str(tmp_path / "s07"))
    assert path == str(tmp_path / "s07.seg")
    assert os.listdir(tmp_path) == ["s07.seg"]
    back = load_segmentation(path)
    assert (back.subject_id, back.label) == ("s07", label)
    assert np.array_equal(back.states, seg.states)
    # float64 on disk: bit for bit, not merely close
    assert back.corr.tobytes() == seg.corr.tobytes()
    assert back.gfp.tobytes() == seg.gfp.tobytes()
    assert back.fs == seg.fs
    assert back.maps.maps.tobytes() == seg.maps.maps.tobytes()
    assert (back.maps.labels, back.maps.channels) == (seg.maps.labels, seg.maps.channels)
    assert back.maps.gev_total == seg.maps.gev_total


def test_with_data_appends_provenance():
    rec = _rec()
    out = rec.with_data(rec.data * 2.0, note="gain:2")
    assert out.provenance[-1] == "gain:2"
    assert rec.provenance == ()


def _of(data, fs=100.0):
    montage = standard_1020_montage()
    montage = Montage(montage.names[:data.shape[0]], montage.positions[:data.shape[0]])
    return Recording(montage=montage, fs=fs, data=data, subject_id="s01")


def test_little_endian_float32_data_is_kept_read_only_without_a_copy():
    raw = np.random.default_rng(4).standard_normal((4, 50)).astype("<f4").tobytes()
    source = np.frombuffer(raw, "<f4").reshape(4, 50)
    rec = _of(source)
    assert rec.data.dtype == np.dtype("<f4")
    assert np.shares_memory(rec.data, source)
    assert not rec.data.flags.writeable


@pytest.mark.parametrize("dtype", [np.float64, "<f4"])
def test_a_writable_array_is_handed_over_not_copied(dtype):
    # the recording takes the caller's array as is and freezes it; a caller
    # that keeps writing passes a copy
    data = np.random.default_rng(5).standard_normal((4, 50)).astype(dtype)
    assert data.flags.writeable
    rec = _of(data)
    assert np.shares_memory(rec.data, data)
    assert not data.flags.writeable and not rec.data.flags.writeable
    with pytest.raises(ValueError):
        data[0, 0] = 2.0
    mine = np.ones((4, 50), dtype)
    assert not np.shares_memory(_of(mine.copy()).data, mine) and mine.flags.writeable


@pytest.mark.parametrize("dtype", [np.int32, ">f4"])
def test_other_data_dtypes_become_float64(dtype):
    data = (np.arange(200).reshape(4, 50) - 100).astype(dtype)
    rec = _of(data)
    assert rec.data.dtype == np.float64
    assert np.array_equal(rec.data, data)
    assert not rec.data.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float32_data_is_rejected(bad):
    data = np.zeros((4, 50), "<f4")
    data[2, 7] = bad
    with pytest.raises(NonFiniteData):
        _of(data)


@pytest.mark.parametrize("dtype", ["<f4", np.float64])
def test_zero_rate_and_zero_samples_are_rejected_in_either_dtype(dtype):
    with pytest.raises(InvalidRate):
        _of(np.ones((4, 50), dtype), fs=0)
    with pytest.raises(ShapeMismatch):
        _of(np.ones((4, 0), dtype))


def test_feature_table_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    t = FeatureTable(
        subject_ids=("a", "b", "c"),
        y=np.array([0, 1, 0]),
        class_names=("DEM", "NC"),
        feature_names=("f1", "f2"),
        values=rng.standard_normal((3, 2)),
    )
    path = str(tmp_path / "feat.csv")
    t.to_csv(path)
    back = load_feature_table(path)
    assert back.subject_ids == t.subject_ids
    assert back.class_names == t.class_names
    assert np.array_equal(back.values, t.values)  # repr round-trip is exact
    assert np.array_equal(back.y, t.y)


def test_feature_table_duplicate_ids():
    with pytest.raises(DuplicateSubject):
        FeatureTable(
            subject_ids=("a", "a"),
            y=np.array([0, 0]),
            class_names=("x",),
            feature_names=("f",),
            values=np.zeros((2, 1)),
        )


def test_write_json_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_json(p1, {"b": 1, "a": [1.5, 2]})
    write_json(p2, {"a": [1.5, 2], "b": 1})
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()
    assert read_json(p1) == {"a": [1.5, 2], "b": 1}


def test_write_json_creates_parents_and_leaves_no_partial(tmp_path):
    path = tmp_path / "new" / "dir" / "x.json"
    assert write_json(str(path), {"a": 1}) == str(path)
    assert read_json(str(path)) == {"a": 1}
    assert os.listdir(path.parent) == ["x.json"]


def test_staged_renames_every_file_in_write_order_on_success(tmp_path, monkeypatch):
    real_replace, calls = os.replace, []
    monkeypatch.setattr(msaf.io.os, "replace",
                        lambda src, dst: (calls.append(dst), real_replace(src, dst)))
    out = tmp_path / "out"
    with staged() as stage:
        written = [save_recording(_rec(subject_id=s), str(out / s), stage) for s in "ab"]
        # nothing is in place yet, and listings skip the partial files
        assert sorted(os.listdir(out)) == ["a.partial.eegb", "b.partial.eegb"]
        with pytest.raises(InvalidConfig, match="no .eegb files"):
            list(load_input_recordings(str(out)))
    assert written == [(str(out / "a.partial.eegb"),), (str(out / "b.partial.eegb"),)]
    assert calls == [str(out / "a.eegb"), str(out / "b.eegb")]
    assert [load().subject_id for load in load_input_recordings(str(out))] == ["a", "b"]


def test_staged_failure_removes_its_partials_and_only_the_directories_it_made(tmp_path):
    keep = tmp_path / "keep"
    keep.mkdir()
    write_json(str(keep / "old.json"), {"a": 1})
    with pytest.raises(RuntimeError):
        with staged() as stage:
            write_json(str(keep / "x.json"), {"b": 2}, stage)
            write_json(str(tmp_path / "new" / "sub" / "y.json"), {"c": 3}, stage)
            raise RuntimeError("a later recording failed")
    assert sorted(os.listdir(tmp_path)) == ["keep"]
    assert os.listdir(keep) == ["old.json"]


def test_staged_writes_from_threads(tmp_path):
    paths = [str(tmp_path / "out" / str(i % 3) / f"f{i}.json") for i in range(24)]
    with staged() as stage, ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(lambda p: write_json(p, {"p": p}, stage), paths))
    assert all(read_json(p) == {"p": p} for p in paths)
    assert sorted(os.listdir(tmp_path / "out")) == ["0", "1", "2"]
