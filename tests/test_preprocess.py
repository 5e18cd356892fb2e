"""Filter design against a direct DTFT oracle, plus the deterministic
reference/normalization/resampling transforms."""
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
from scipy.signal import fftconvolve

from msaf import (
    EmptyCrop,
    InvalidBand,
    Montage,
    RateMismatch,
    Recording,
    apply_fir,
    average_reference,
    crop,
    design_fir_bandpass,
    design_fir_lowpass,
    design_fir_notch,
    resample,
    standard_1020_montage,
    surface_laplacian,
    zscore_channels,
)

import msaf.preprocess
from msaf.config import MAX_FIR_TAPS
from msaf.preprocess import _convolve_same, _fast_len
from oracles import db, dtft_magnitude


def _rec(data, fs=100.0):
    m = standard_1020_montage()
    m = Montage(m.names[: data.shape[0]], m.positions[: data.shape[0]])
    return Recording(montage=m, fs=fs, data=np.asarray(data, float),
                     subject_id="t")


def test_bandpass_matches_dtft_oracle():
    filt = design_fir_bandpass(4.0, 8.0, 200.0)
    freqs = [0.5, 2.0, 4.0, 6.0, 8.0, 12.0, 30.0, 60.0]
    lib = np.abs(filt.frequency_response(freqs))
    oracle = [dtft_magnitude(filt.taps, 200.0, f) for f in freqs]
    assert np.max(np.abs(lib - np.asarray(oracle))) < 1e-9


def test_theta_band_shape():
    filt = design_fir_bandpass(4.0, 8.0, 200.0)
    assert abs(db(dtft_magnitude(filt.taps, 200.0, 6.0))) <= 1.0
    assert db(dtft_magnitude(filt.taps, 200.0, 0.5)) <= -30.0
    assert db(dtft_magnitude(filt.taps, 200.0, 30.0)) <= -30.0


def test_bandpass_passes_sine_in_band():
    fs, f0 = 250.0, 6.0
    t = np.arange(int(10 * fs)) / fs
    x = np.sin(2 * np.pi * f0 * t)
    rec = _rec(np.tile(x, (3, 1)), fs=fs)
    out = apply_fir(rec, design_fir_bandpass(4.0, 8.0, fs))
    mid = slice(int(2 * fs), int(8 * fs))  # away from edge transients
    gain = np.max(np.abs(out.data[0, mid])) / np.max(np.abs(x[mid]))
    assert abs(db(gain)) < 1.0


def test_bandpass_kills_sine_out_of_band():
    fs = 250.0
    t = np.arange(int(10 * fs)) / fs
    x = np.sin(2 * np.pi * 40.0 * t)
    rec = _rec(np.tile(x, (3, 1)), fs=fs)
    out = apply_fir(rec, design_fir_bandpass(4.0, 8.0, fs))
    mid = slice(int(2 * fs), int(8 * fs))
    assert db(np.max(np.abs(out.data[0, mid]))) < -30.0


def test_bandpass_validates_band():
    with pytest.raises(InvalidBand):
        design_fir_bandpass(8.0, 4.0, 200.0)
    with pytest.raises(InvalidBand):
        design_fir_bandpass(4.0, 120.0, 200.0)  # above Nyquist
    with pytest.raises(InvalidBand):
        design_fir_bandpass(0.0, 8.0, 200.0)


def test_filter_tap_count_is_capped():
    # the narrowest edge at 250 Hz whose odd tap count stays under the cap
    edge = 3.3 * 250.0 / (MAX_FIR_TAPS - 1)
    assert design_fir_bandpass(edge * (1 + 1e-9), 30.0, 250.0).n_taps == MAX_FIR_TAPS - 1
    with pytest.raises(InvalidBand):
        design_fir_bandpass(edge * (1 - 1e-6), 30.0, 250.0)
    # terabytes of taps: without the cap these fail at once in numpy, not here
    with pytest.raises(InvalidBand):
        design_fir_bandpass(1e-9, 2e-9, 250.0)
    with pytest.raises(InvalidBand):
        design_fir_notch(50.0, 1e-9, 250.0)
    with pytest.raises(InvalidBand):
        design_fir_lowpass(30.0, 250.0, transition=1e-300)


def test_notch_nulls_target_keeps_neighbors():
    filt = design_fir_notch(50.0, 4.0, 250.0)
    assert db(dtft_magnitude(filt.taps, 250.0, 50.0)) < -30.0
    assert abs(db(dtft_magnitude(filt.taps, 250.0, 20.0))) < 1.0
    assert abs(db(dtft_magnitude(filt.taps, 250.0, 90.0))) < 1.0


def test_apply_fir_rate_mismatch():
    rec = _rec(np.zeros((3, 100)), fs=100.0)
    with pytest.raises(RateMismatch):
        apply_fir(rec, design_fir_bandpass(4.0, 8.0, 200.0))


def test_linear_phase_symmetry():
    for filt in (design_fir_bandpass(1.0, 30.0, 250.0),
                 design_fir_notch(50.0, 2.0, 250.0)):
        assert filt.n_taps % 2 == 1
        assert np.max(np.abs(filt.taps - filt.taps[::-1])) <= 1e-12


def test_zscore_postconditions():
    rng = np.random.default_rng(11)
    rec = _rec(rng.standard_normal((5, 400)) * 7.0 + 3.0)
    out = zscore_channels(rec)
    assert np.max(np.abs(out.data.mean(axis=1))) < 1e-9
    assert np.max(np.abs(out.data.std(axis=1) - 1.0)) < 1e-9


def test_average_reference_postcondition():
    rng = np.random.default_rng(12)
    rec = _rec(rng.standard_normal((6, 300)) + 5.0)
    out = average_reference(rec)
    assert np.max(np.abs(out.data.mean(axis=0))) < 1e-9


def test_laplacian_zeroes_common_component():
    # a spatially constant topography has no local curvature
    rec = _rec(np.ones((8, 50)) * 4.2)
    out = surface_laplacian(rec, n_neighbors=3)
    assert np.max(np.abs(out.data)) < 1e-9


def test_laplacian_sharpens_local_peak():
    rng = np.random.default_rng(4)
    m = standard_1020_montage()
    data = rng.standard_normal((19, 100)) * 0.01
    data[m.index("Cz"), :] += 10.0
    rec = Recording(montage=m, fs=100.0, data=data, subject_id="t")
    out = surface_laplacian(rec)
    assert np.mean(out.data[m.index("Cz")]) > 0  # peak survives
    assert abs(np.mean(out.data[m.index("O1")])) < np.mean(out.data[m.index("Cz")])


def test_crop_samples_and_errors():
    rec = _rec(np.arange(5 * 100, dtype=float).reshape(5, 100))
    out = crop(rec, 0.25, 0.75)
    assert out.data.shape == (5, 50)
    assert np.array_equal(out.data, rec.data[:, 25:75])
    with pytest.raises(EmptyCrop):
        crop(rec, 0.9, 0.2)


def test_resample_rational_preserves_sine():
    fs = 250.0
    t = np.arange(int(4 * fs)) / fs
    x = np.sin(2 * np.pi * 5.0 * t)
    rec = _rec(np.tile(x, (3, 1)), fs=fs)
    out = resample(rec, 200.0)
    assert out.fs == 200.0
    assert out.data.shape[1] == int(4 * 200.0)
    t2 = np.arange(out.data.shape[1]) / 200.0
    ref = np.sin(2 * np.pi * 5.0 * t2)
    mid = slice(100, -100)
    assert np.max(np.abs(out.data[0, mid] - ref[mid])) < 1e-2


def test_resample_identity():
    rec = _rec(np.random.default_rng(5).standard_normal((3, 200)))
    out = resample(rec, rec.fs)
    assert np.array_equal(out.data, rec.data)


def test_preprocess_is_pure():
    rng = np.random.default_rng(13)
    rec = _rec(rng.standard_normal((4, 250)))
    before = rec.data.copy()
    zscore_channels(rec)
    average_reference(rec)
    apply_fir(rec, design_fir_bandpass(4.0, 8.0, rec.fs))
    assert np.array_equal(rec.data, before)


def test_fast_len_matches_scipy():
    assert [_fast_len(n) for n in range(1, 20001)] == [
        scipy.fft.next_fast_len(n, real=True) for n in range(1, 20001)
    ]


def _scipy_same(x, taps):
    return fftconvolve(x, taps[np.newaxis, :], mode="same", axes=1)


@pytest.mark.parametrize("fs", [128.0, 250.0, 500.0])
@pytest.mark.parametrize("design", ["bandpass", "lowpass", "notch"])
def test_apply_fir_bit_identical_to_fftconvolve(fs, design):
    filt = {
        "bandpass": lambda: design_fir_bandpass(1.0, 30.0, fs),
        "lowpass": lambda: design_fir_lowpass(20.0, fs),
        "notch": lambda: design_fir_notch(50.0, 2.0, fs),
    }[design]()
    rng = np.random.default_rng(int(fs))
    m = filt.n_taps
    # odd and even lengths, shorter than, equal to and longer than the taps
    for n in (1, 2, 7, 100, m - 1, m, m + 1, 1000, 3001):
        rec = _rec(rng.standard_normal((3, n)), fs=fs)
        out = apply_fir(rec, filt)
        assert np.array_equal(out.data, _scipy_same(rec.data, filt.taps)), n


def test_convolve_same_even_and_short_taps():
    rng = np.random.default_rng(3)
    for m in (1, 2, 4, 9, 64):
        taps = rng.standard_normal(m)
        for n in (1, 2, 5, 63, 64, 65, 500):
            x = rng.standard_normal((2, n))
            assert np.array_equal(_convolve_same(x, taps), _scipy_same(x, taps)), (m, n)


# n = 1000 rows a block: 8 at the default budget, 1 and 2 at 1 and 5000 doubles
@pytest.mark.parametrize("doubles", [None, 1, 5000])
def test_convolve_same_into_float32_rounds_as_astype(doubles, monkeypatch):
    rng = np.random.default_rng(5)
    taps = design_fir_bandpass(1.0, 30.0, 250.0).taps
    if doubles is not None:
        monkeypatch.setattr(msaf.preprocess, "BLOCK_DOUBLES", doubles)
    for n in (1, 7, 1000):
        x64 = 1e3 * rng.standard_normal((19, n))
        x32 = x64.astype("<f4")
        for x in (x64, x32):
            whole = _convolve_same(np.asarray(x, dtype=np.float64), taps)
            out = np.empty(x.shape, "<f4")
            assert _convolve_same(x, taps, out) is out
            assert out.tobytes() == whole.astype("<f4").tobytes(), (n, x.dtype)
            # float32 rows are widened exactly, so a float64 out equals the widened input's
            assert _convolve_same(x, taps).tobytes() == whole.tobytes(), (n, x.dtype)


def _scipy_resample(rec, new_fs):
    """resample() with scipy.signal.fftconvolve as its convolution."""
    ratio = (
        Fraction(new_fs).limit_denominator(10**6)
        / Fraction(rec.fs).limit_denominator(10**6)
    ).limit_denominator(10**6)
    up, down = ratio.numerator, ratio.denominator
    f_min = min(rec.fs, new_fs)
    filt = design_fir_lowpass(0.45 * f_min, rec.fs * up, transition=0.1 * f_min)
    stuffed = np.zeros((rec.n_channels, rec.n_samples * up))
    stuffed[:, ::up] = rec.data
    smooth = _scipy_same(stuffed, up * filt.taps)
    n_out = round(Fraction(rec.n_samples * up, down))
    out = smooth[:, ::down][:, :n_out]
    return np.pad(out, ((0, 0), (0, n_out - out.shape[1])))


@pytest.mark.parametrize("fs,new_fs", [
    (250.0, 200.0), (250.0, 500.0), (500.0, 128.0), (128.0, 250.0), (250.0, 100.0),
])
def test_resample_bit_identical_to_fftconvolve(fs, new_fs):
    rng = np.random.default_rng(7)
    for n in (3, 250, 1001):
        rec = _rec(rng.standard_normal((3, n)), fs=fs)
        out = resample(rec, new_fs)
        assert np.array_equal(out.data, _scipy_resample(rec, new_fs)), n


@pytest.mark.parametrize("step", ["bandpass", "notch", "resample"])
def test_fir_channel_blocks_are_seamless(step, monkeypatch):
    rng = np.random.default_rng(11)
    rec = _rec(rng.standard_normal((19, 1000)), fs=250.0)
    run = {
        "bandpass": lambda: apply_fir(rec, design_fir_bandpass(1.0, 30.0, 250.0)),
        "notch": lambda: apply_fir(rec, design_fir_notch(50.0, 2.0, 250.0)),
        "resample": lambda: resample(rec, 200.0),
    }[step]
    # the default budget filters 8 channels a block, 1 double one at a time
    whole = run().data.tobytes()
    monkeypatch.setattr(msaf.preprocess, "BLOCK_DOUBLES", 1)
    assert run().data.tobytes() == whole
