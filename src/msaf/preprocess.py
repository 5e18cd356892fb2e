"""Deterministic signal conditioning.

All operations are pure functions Recording -> Recording: identical input
bits give identical output bits, and every call appends one provenance
string. Filters are linear-phase FIR (windowed sinc, Hamming), applied
with group-delay compensation and zero-padded edges, so filtered output
has the same length as the input. A float32 recording is widened to
float64 on entry (the filters widen one block at a time); widening is
exact, so it gives the same bits as its widened copy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import BLOCK_DOUBLES, MAX_FIR_TAPS
from .errors import (
    DegenerateChannel,
    EmptyCrop,
    InsufficientChannels,
    InvalidBand,
    InvalidRate,
    NonFiniteData,
    RateMismatch,
    ShapeMismatch,
)
from .io import Recording


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR filter.

    Attributes:
        taps: Odd-length, symmetric float64 impulse response.
        fs: Sampling rate (Hz) the filter was designed for.
        kind: One of "bandpass", "notch", "lowpass".
        band: Frequency parameters in Hz, meaning depends on kind.
    """

    taps: np.ndarray
    fs: float
    kind: str
    band: tuple[float, ...]

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 1 or taps.size % 2 == 0:
            raise ShapeMismatch("FIR taps must be a 1-D odd-length array")
        if not np.all(np.isfinite(taps)):
            raise NonFiniteData("FIR taps contain non-finite values")
        if np.max(np.abs(taps - taps[::-1])) > 1e-12:
            raise ShapeMismatch("FIR taps must be symmetric (linear phase)")
        taps = np.ascontiguousarray(taps)
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "fs", float(self.fs))
        object.__setattr__(self, "band", tuple(float(b) for b in self.band))

    @property
    def n_taps(self) -> int:
        return self.taps.size

    def frequency_response(self, freqs) -> np.ndarray:
        """Complex response H(f) = sum_n h[n] exp(-2 pi i f n / fs)."""
        f = np.atleast_1d(np.asarray(freqs, dtype=np.float64))
        n = np.arange(self.n_taps)
        return np.exp(-2j * np.pi * np.outer(f, n) / self.fs) @ self.taps


def _n_taps(fs: float, transition: float) -> int:
    """The smallest odd tap count >= 3.3*fs/transition, and at least 3.

    Raises:
        InvalidBand: if that count exceeds MAX_FIR_TAPS; nothing is allocated.
    """
    want = 3.3 * fs / transition - 1e-12
    # counts are odd, so at most MAX_FIR_TAPS - 1; the test is false for nan
    if not want <= MAX_FIR_TAPS - 1:
        raise InvalidBand(
            f"a transition of {transition:g} Hz at fs={fs:g} needs {want:.7g} FIR taps, "
            f"more than the {MAX_FIR_TAPS - 1} allowed"
        )
    n = int(math.ceil(want))
    if n % 2 == 0:
        n += 1
    return max(n, 3)


def _hamming(n: int) -> np.ndarray:
    if n == 1:
        return np.ones(1)
    k = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def _sinc_lowpass(cutoff: float, fs: float, n_taps: int) -> np.ndarray:
    """Hamming-windowed sinc low-pass, normalized to exact unity DC gain."""
    m = (n_taps - 1) // 2
    k = np.arange(n_taps) - m
    h = np.empty(n_taps)
    nz = k != 0
    h[nz] = np.sin(2.0 * np.pi * cutoff / fs * k[nz]) / (np.pi * k[nz])
    h[~nz] = 2.0 * cutoff / fs
    h *= _hamming(n_taps)
    return h / h.sum()


def _edge_transition(edge_hz: float) -> float:
    # quarter of the edge frequency, floored at 2 Hz, never wider than the edge
    return min(max(0.25 * edge_hz, 2.0), edge_hz)


def design_fir_bandpass(low: float, high: float, fs: float) -> FirFilter:
    """Design a band-pass filter as a difference of two low-pass kernels.

    The per-edge transition width is min(max(0.25*edge, 2 Hz), edge) and
    the tap count is the smallest odd integer >= 3.3*fs/min(widths).
    DC gain is exactly zero by construction.

    Raises:
        InvalidBand: unless 0 < low < high < fs/2.
    """
    if not (0.0 < low < high < fs / 2.0):
        raise InvalidBand(
            f"band ({low}, {high}) must satisfy 0 < low < high < fs/2 = {fs / 2.0}"
        )
    n_taps = _n_taps(fs, min(_edge_transition(low), _edge_transition(high)))
    taps = _sinc_lowpass(high, fs, n_taps) - _sinc_lowpass(low, fs, n_taps)
    return FirFilter(taps=taps, fs=fs, kind="bandpass", band=(low, high))


def design_fir_lowpass(
    cutoff: float, fs: float, transition: Optional[float] = None
) -> FirFilter:
    """Design a low-pass filter with exact unity DC gain."""
    if not (0.0 < cutoff < fs / 2.0):
        raise InvalidBand(f"cutoff {cutoff} must lie in (0, fs/2) for fs={fs}")
    tw = transition if transition is not None else _edge_transition(cutoff)
    if tw <= 0:
        raise InvalidBand(f"transition width must be positive, got {tw}")
    n_taps = _n_taps(fs, tw)
    return FirFilter(
        taps=_sinc_lowpass(cutoff, fs, n_taps), fs=fs, kind="lowpass", band=(cutoff,)
    )


def design_fir_notch(freq: float, width: float, fs: float) -> FirFilter:
    """Design a band-stop filter by spectral inversion of a band-pass.

    The equivalent band-pass spans freq +- width/2 with per-edge
    transition width width/2, and the notch is a centered unit impulse
    minus those taps, giving exactly unity DC gain.
    """
    if width <= 0:
        raise InvalidBand(f"notch width must be positive, got {width}")
    low, high = freq - width / 2.0, freq + width / 2.0
    if not (0.0 < low < high < fs / 2.0):
        raise InvalidBand(
            f"notch {freq}+-{width / 2.0} must lie inside (0, fs/2) for fs={fs}"
        )
    n_taps = _n_taps(fs, width / 2.0)
    bp = _sinc_lowpass(high, fs, n_taps) - _sinc_lowpass(low, fs, n_taps)
    taps = -bp
    taps[(n_taps - 1) // 2] += 1.0
    return FirFilter(taps=taps, fs=fs, kind="notch", band=(freq, width))


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the length scipy.fft.next_fast_len(n, real=True) picks."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _convolve_same(x: np.ndarray, taps: np.ndarray, out: Optional[np.ndarray] = None):
    """Each row of x convolved with taps, centred to x's length ("same" mode), in out.

    The FFT length is the 5-smooth one SciPy's fftconvolve uses, so the
    output bits equal scipy.signal.fftconvolve(x, taps[None], "same", axes=1).
    Rows are widened and transformed max(1, BLOCK_DOUBLES // (fft length + 2))
    at a time (a row's complex spectrum is fft length + 2 doubles), each by
    the same call as a whole-array transform, and written into out (new
    float64 by default; a float32 out rounds as `astype` and holds inf where
    it overflows), so the temporaries stay near 128 KiB.
    """
    n, m = x.shape[1], taps.size
    full = n + m - 1
    start = (full - n) // 2
    out = np.empty(x.shape) if out is None else out
    with np.errstate(over="ignore"):
        if n == 1 or m == 1:
            # a length-1 factor: SciPy multiplies directly instead of transforming
            out[...] = (np.asarray(x, dtype=np.float64) * taps)[:, start:start + n]
            return out
        size = _fast_len(full)
        h = np.fft.rfft(taps, size)
        rows = max(1, BLOCK_DOUBLES // (size + 2))
        for r in range(0, x.shape[0], rows):
            spec = np.fft.rfft(np.asarray(x[r:r + rows], dtype=np.float64), size, axis=1)
            spec *= h
            out[r:r + rows] = np.fft.irfft(spec, size, axis=1)[:, start:start + n]
    return out


def apply_fir(rec: Recording, filt: FirFilter) -> Recording:
    """Filter every channel, compensating the group delay.

    Output length equals input length (zero-padded edges).
    """
    return _fir(rec, filt, np.float64)


def _fir_payload(rec: Recording, filt: FirFilter) -> Recording:
    """`apply_fir` written as the float32 recording `narrow_recording` would narrow its
    output to (NonFiniteData if it overflows)."""
    return _fir(rec, filt, "<f4")


def _fir(rec: Recording, filt: FirFilter, dtype) -> Recording:
    """`apply_fir` with its samples filtered into a new dtype array."""
    if not math.isclose(rec.fs, filt.fs, rel_tol=1e-9, abs_tol=0.0):
        raise RateMismatch(
            f"filter designed for fs={filt.fs}, recording has fs={rec.fs}"
        )
    out = _convolve_same(rec.data, filt.taps, np.empty(rec.data.shape, dtype))
    return rec.with_data(out, f"fir_{filt.kind}:" + ",".join(format(b, "g") for b in filt.band))


def zscore_channels(rec: Recording) -> Recording:
    """Standardize each channel to mean 0 and population std 1.

    Uses two-pass mean removal so the postcondition holds to tight
    absolute tolerance even for badly offset data.

    Raises:
        DegenerateChannel: if any channel has (near) zero variance.
    """
    x = np.asarray(rec.data, np.float64)
    d = x - x.mean(axis=1, keepdims=True)
    d -= d.mean(axis=1, keepdims=True)
    std = d.std(axis=1)
    scale = np.maximum(1.0, np.abs(x).max(axis=1))
    bad = np.nonzero(std <= 1e-12 * scale)[0]
    if bad.size:
        names = [rec.montage.names[i] for i in bad]
        raise DegenerateChannel(f"zero-variance channels: {names}")
    return rec.with_data(d / std[:, np.newaxis], note="zscore")


def average_reference(rec: Recording) -> Recording:
    """Subtract the instantaneous mean across channels from every sample."""
    x = np.asarray(rec.data, np.float64)
    d = x - x.mean(axis=0, keepdims=True)
    d -= d.mean(axis=0, keepdims=True)
    return rec.with_data(d, note="average_reference")


def surface_laplacian(rec: Recording, n_neighbors: int = 4) -> Recording:
    """Spatial sharpening: subtract a distance-weighted neighbor average.

    For each channel the n_neighbors nearest electrodes by great-circle
    distance are combined with weights proportional to 1/distance
    (normalized to sum 1) and subtracted. A spatially constant map is
    annihilated exactly; an isolated spike keeps its sign at the spike
    and flips it at the neighbors.

    Raises:
        InsufficientChannels: if the montage has <= n_neighbors channels.
    """
    k = rec.n_channels
    if k <= n_neighbors:
        raise InsufficientChannels(
            f"surface laplacian with {n_neighbors} neighbors needs more than "
            f"{n_neighbors} channels, got {k}"
        )
    pos = rec.montage.positions
    cosines = np.clip(pos @ pos.T, -1.0, 1.0)
    dist = np.arccos(cosines)
    w = np.zeros((k, k))
    for i in range(k):
        order = np.argsort(dist[i], kind="stable")
        nbrs = [j for j in order if j != i][:n_neighbors]
        inv = 1.0 / np.maximum(dist[i, nbrs], 1e-9)
        w[i, nbrs] = inv / inv.sum()
    x = np.asarray(rec.data, np.float64)
    return rec.with_data(x - w @ x, note=f"laplacian:{n_neighbors}")


def crop(rec: Recording, t_start: float, t_end: float) -> Recording:
    """Keep samples with t_start <= i/fs < t_end (half-open, seconds)."""
    if not (math.isfinite(t_start) and math.isfinite(t_end)) or t_end <= t_start:
        raise EmptyCrop(f"crop window [{t_start}, {t_end}) is empty or inverted")
    i0 = max(0, int(math.ceil(t_start * rec.fs - 1e-9)))
    i1 = min(rec.n_samples, int(math.ceil(t_end * rec.fs - 1e-9)))
    if i1 <= i0:
        raise EmptyCrop(
            f"crop window [{t_start}, {t_end}) contains no samples at fs={rec.fs}"
        )
    return rec.with_data(
        rec.data[:, i0:i1], note=f"crop:{format(t_start, 'g')}-{format(t_end, 'g')}"
    )


def resample(rec: Recording, new_fs: float) -> Recording:
    """Polyphase-style rational resampling to new_fs.

    The rate ratio is reduced to L/M; the signal is zero-stuffed by L,
    low-pass filtered at 0.45*min(fs, new_fs) with transition width
    0.1*min(fs, new_fs) (gain L), and decimated by M. Output length is
    round(T*new_fs/fs) and output sample j sits at time j/new_fs.
    Equal rates return the data unchanged.
    """
    if not (isinstance(new_fs, (int, float)) and math.isfinite(new_fs) and new_fs > 0):
        raise InvalidRate(f"target rate must be positive and finite, got {new_fs!r}")
    from fractions import Fraction
    ratio = (
        Fraction(new_fs).limit_denominator(10**6)
        / Fraction(rec.fs).limit_denominator(10**6)
    ).limit_denominator(10**6)
    if ratio == 1:
        return rec.with_data(rec.data, note="resample:bypass")
    up, down = ratio.numerator, ratio.denominator
    if up * rec.n_samples > 5 * 10**7:
        raise InvalidRate(
            f"rate ratio {rec.fs}->{new_fs} reduces to {up}/{down}, too complex"
        )
    fs_up = rec.fs * up
    f_min = min(rec.fs, float(new_fs))
    filt = design_fir_lowpass(0.45 * f_min, fs_up, transition=0.1 * f_min)
    stuffed = np.zeros((rec.n_channels, rec.n_samples * up))
    stuffed[:, ::up] = rec.data
    smooth = _convolve_same(stuffed, up * filt.taps)
    n_out = round(Fraction(rec.n_samples * up, down))
    out = smooth[:, ::down][:, :n_out]
    if out.shape[1] < n_out:
        out = np.pad(out, ((0, 0), (0, n_out - out.shape[1])))
    return rec.with_data(
        out,
        note=f"resample:{format(rec.fs, 'g')}->{format(float(new_fs), 'g')}",
        fs=float(new_fs),
    )
