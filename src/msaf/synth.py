"""Synthetic recordings with known microstate ground truth.

A recording is a sequence of dwell segments: dwell lengths are geometric
with a per-state mean, successors are drawn from a row-stochastic
transition matrix with a zero diagonal, each segment flips a random
polarity, and the active template is scaled by a smooth sinusoidal
amplitude envelope (optionally multiplied by a fixed-frequency carrier,
which confines the class signal to the carrier's band). Mean-removed
white noise is added at a configured SNR; an infinite SNR produces a
noiseless recording. The generator returns the exact segmentation it
sampled, so recovered maps and statistics can be scored against truth.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .config import COHORT, MAX_SYNTH_VALUES, SYNTH, check, check_value, require
from .errors import InvalidConfig
from .io import Montage, Recording, STANDARD_1020_NAMES, standard_1020_montage
from .microstates import MicrostateMaps, Segmentation
from .models._common import child_seed

CANONICAL_LABELS = ("A", "B", "C", "F")

# Dipole axes producing the four canonical template fields. A and B are
# left/right mirror images (x sign), oriented occipital-to-frontal with
# opposite laterality; C runs symmetrically occipital to prefrontal;
# F is left-lateralized. Pairwise map |corr| stays at or below 0.7.
_DIPOLE_AXES = {
    "A": (0.6, 0.55, -0.35),
    "B": (-0.6, 0.55, -0.35),
    "C": (0.0, -1.0, 0.2),
    "F": (-0.85, 0.1, 0.4),
}


def canonical_templates(montage: Montage) -> MicrostateMaps:
    """The four reference topographies on the given montage.

    Each is the cosine field of a unit dipole axis sampled at the
    electrode positions, average-referenced and normalized.
    """
    rows = []
    for label in CANONICAL_LABELS:
        axis = np.asarray(_DIPOLE_AXES[label], dtype=np.float64)
        axis = axis / np.linalg.norm(axis)
        v = montage.positions @ axis
        v = v - v.mean()
        rows.append(v / np.linalg.norm(v))
    return MicrostateMaps(
        channels=montage.names,
        maps=np.vstack(rows),
        labels=CANONICAL_LABELS,
        gev_total=None,
    )


def transition_from_weights(weights) -> tuple[tuple[float, ...], ...]:
    """Row-stochastic zero-diagonal matrix with p(i -> j) prop. to w_j."""
    try:
        w = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError):
        w = np.empty(0)
    require(w.ndim == 1 and w.size >= 2 and np.all(np.isfinite(w)) and np.all(w > 0),
            f"weights must be a 1-D vector of positive numbers, length >= 2, got {weights!r}")
    k = w.size
    rows = []
    for i in range(k):
        row = w.copy()
        row[i] = 0.0
        rows.append(tuple(row / row.sum()))
    return tuple(rows)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of one synthetic recording.

    Attributes:
        channels: Montage channel names, a non-empty list (None: the
            19-channel clinical set).
        fs: Sampling rate, Hz.
        duration: Length in seconds.
        n_states: Number of templates used (prefix of A, B, C, F).
        mean_dwell_ms: Geometric mean dwell, scalar or per state.
        transition: Row-stochastic zero-diagonal matrix; defaults to
            uniform over the other states.
        amplitudes: Per-state (or scalar) template scale.
        snr: Signal RMS over noise RMS; math.inf for noiseless.
        envelope_freq: Amplitude modulation frequency, Hz. The default
            is alpha-like so the GFP curve has dense local maxima.
        envelope_depth: Modulation depth in [0, 1).
        carrier_hz: Optional carrier multiplied into the signal.
        subject_id: Identifier stored in the recording.
        label: Optional class label.
        seed: Generator seed.
    """

    channels: tuple[str, ...] = STANDARD_1020_NAMES
    fs: float = 250.0
    duration: float = 20.0
    n_states: int = 4
    mean_dwell_ms: Union[float, tuple[float, ...]] = 80.0
    transition: Optional[tuple[tuple[float, ...], ...]] = None
    amplitudes: Union[float, tuple[float, ...]] = 1.0
    snr: float = 8.0
    envelope_freq: float = 9.0
    envelope_depth: float = 0.55
    carrier_hz: Optional[float] = None
    subject_id: str = "synth"
    label: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        object.__setattr__(self, "channels", check("synth", SYNTH, fields)["channels"])
        # channels x samples as a float: round() of an infinite duration * fs raises
        size = len(self.channels or STANDARD_1020_NAMES) * self.duration * self.fs
        require(size <= MAX_SYNTH_VALUES, f"a synthetic recording holds at most "
                f"{MAX_SYNTH_VALUES} channel-samples, got {size:.4g}")
        k = self.n_states
        object.__setattr__(
            self, "mean_dwell_ms", _per_state("mean_dwell_ms", self.mean_dwell_ms, k)
        )
        object.__setattr__(self, "amplitudes", _per_state("amplitudes", self.amplitudes, k))
        if self.transition is not None:
            try:
                t = np.asarray(self.transition, dtype=np.float64)
            except (TypeError, ValueError):
                raise InvalidConfig(f"transition must be a matrix, got {self.transition!r}")
            require(t.shape == (k, k), f"transition must be {k}x{k}, got {t.shape}")
            require(np.all(t >= 0) and not np.any(np.abs(np.diag(t)) > 0),
                    "transition needs finite non-negative entries, zero diagonal")
            require(k == 1 or np.max(np.abs(t.sum(axis=1) - 1.0)) <= 1e-9,
                    "transition rows must sum to 1")
            object.__setattr__(
                self, "transition", tuple(tuple(float(v) for v in row) for row in t)
            )

    @classmethod
    def from_json_dict(cls, fields: dict) -> "SynthConfig":
        """A config from field names and values; unknown names are rejected."""
        return cls(**check("synth", SYNTH, fields))


def _per_state(name: str, value, k: int) -> tuple[float, ...]:
    """A checked scalar repeated k times, or k checked values."""
    values = tuple(value) if isinstance(value, (list, tuple, np.ndarray)) else (value,) * k
    require(len(values) == k, f"{name} must be {k} positive values, got {value!r}")
    return tuple(float(v) for v in values)


def generate(cfg: SynthConfig) -> tuple[Recording, Segmentation, MicrostateMaps]:
    """Sample one recording plus its ground-truth segmentation and maps."""
    rng = np.random.default_rng([cfg.seed])
    montage = standard_1020_montage(cfg.channels)
    all_templates = canonical_templates(montage)
    k = cfg.n_states
    templates = MicrostateMaps(
        channels=montage.names,
        maps=all_templates.maps[:k],
        labels=all_templates.labels[:k],
    )
    n = int(round(cfg.duration * cfg.fs))
    require(n >= 2, "duration too short for the sampling rate")

    if cfg.transition is not None:
        transition = np.asarray(cfg.transition)
    elif k > 1:
        transition = np.asarray(transition_from_weights(np.ones(k)))
    else:
        transition = np.zeros((1, 1))
    # Each next state is drawn as Generator.choice(k, p=row) draws it, as
    # searchsorted(cumsum(row) / cumsum(row)[-1], random(), side="right"),
    # with every row's normalized cumsum formed once instead of per draw.
    cdf = transition.cumsum(axis=1)
    if k > 1:
        cdf /= cdf[:, -1:]

    states = np.empty(n, dtype=np.int64)
    polarity = np.empty(n)
    state = int(rng.integers(k))
    t = 0
    while t < n:
        mean_samples = max(cfg.mean_dwell_ms[state] / 1000.0 * cfg.fs, 1.0)
        dwell = int(rng.geometric(min(1.0, 1.0 / mean_samples)))
        stop = min(t + dwell, n)
        states[t:stop] = state
        polarity[t:stop] = 1.0 if rng.integers(2) else -1.0
        t = stop
        if k > 1:
            state = int(cdf[state].searchsorted(rng.random(), side="right"))

    times = np.arange(n) / cfg.fs
    envelope = 1.0 + cfg.envelope_depth * np.sin(
        2.0 * np.pi * cfg.envelope_freq * times + rng.uniform(0.0, 2.0 * np.pi)
    )
    coeff = polarity * np.asarray(cfg.amplitudes)[states] * envelope
    if cfg.carrier_hz is not None:
        coeff = coeff * np.sin(
            2.0 * np.pi * cfg.carrier_hz * times + rng.uniform(0.0, 2.0 * np.pi)
        )
    signal = (templates.maps[states] * coeff[:, np.newaxis]).T

    if math.isinf(cfg.snr):
        data = signal
    else:
        sig_rms = float(np.sqrt(np.mean(signal * signal)))
        raw = rng.standard_normal(signal.shape)
        raw -= raw.mean(axis=0, keepdims=True)
        raw_rms = float(np.sqrt(np.mean(raw * raw)))
        data = signal + raw * (sig_rms / cfg.snr / max(raw_rms, 1e-300))

    # truth correlations: the generated sample against its own template
    xc = data.T - data.T.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(xc, axis=1)
    corr = np.zeros(n)
    live = norms > 0
    dots = np.einsum("ij,ij->i", xc[live], templates.maps[states[live]])
    corr[live] = np.abs(dots) / norms[live]
    corr = np.minimum(corr, 1.0)

    rec = Recording(
        montage=montage,
        fs=cfg.fs,
        data=data,
        subject_id=cfg.subject_id,
        label=cfg.label,
        provenance=(f"synth:seed={cfg.seed}",),
    )
    seg = Segmentation(
        states=states, corr=corr, gfp=data.std(axis=0), fs=cfg.fs, maps=templates,
        subject_id=cfg.subject_id, label=cfg.label,
    )
    return rec, seg, templates


def default_cohort_profiles() -> dict[str, dict]:
    """Three diagnostic profiles differing in microstate dynamics.

    Occurrence of state C falls and of state F rises from NC through
    MCI to DEM, with matching dwell and overall amplitude shifts.
    """
    return {
        "NC": {
            "transition": transition_from_weights((1.0, 1.0, 1.8, 0.5)),
            "mean_dwell_ms": (75.0, 75.0, 95.0, 60.0),
            "amplitudes": 1.0,
        },
        "MCI": {
            "transition": transition_from_weights((1.0, 1.0, 1.15, 1.0)),
            "mean_dwell_ms": (75.0, 75.0, 80.0, 75.0),
            "amplitudes": 1.06,
        },
        "DEM": {
            "transition": transition_from_weights((1.0, 1.0, 0.6, 1.9)),
            "mean_dwell_ms": (75.0, 75.0, 62.0, 95.0),
            "amplitudes": 1.12,
        },
    }


def make_cohort(
    n_per_class: int,
    profiles: Optional[dict[str, dict]] = None,
    seed: int = 0,
    base: Optional[dict] = None,
) -> list[tuple[Recording, Segmentation]]:
    """Generate a labeled cohort, n_per_class recordings per profile.

    Subject s of class c uses the child seed derived from
    (seed, class index, s); ids are "<label>_<s>". Profile dicts
    override SynthConfig fields on top of `base`.
    """
    check_value("n_per_class", COHORT["n_per_class"], n_per_class)
    if profiles is None:
        profiles = default_cohort_profiles()
    out = []
    for c_idx, (label, overrides) in enumerate(sorted(profiles.items())):
        for s in range(n_per_class):
            cfg = SynthConfig.from_json_dict(
                {
                    **(base or {}),
                    **overrides,
                    "subject_id": f"{label}_{s:03d}",
                    "label": label,
                    "seed": child_seed(seed, c_idx, s),
                }
            )
            rec, seg, _ = generate(cfg)
            out.append((rec, seg))
    return out


STANDARD_BANDS = {
    "delta": (0.5, 4.0),
    "theta": (4.0, 8.0),
    "alpha": (8.0, 12.0),
    "beta": (12.0, 30.0),
}

_BAND_CARRIERS = {"delta": 2.0, "theta": 6.0, "alpha": 10.0, "beta": 20.0}


def band_cohort_profiles() -> dict[str, dict]:
    """Class profiles for the band-confined cohort.

    Amplitudes are identical across classes so no broadband power cue
    exists; only the C/F switching dynamics separate the classes, and
    dwells are long so the switching sidebands stay narrow.
    """
    return {
        "NC": {"transition": transition_from_weights((1.0, 1.0, 1.8, 0.5)),
               "mean_dwell_ms": (130.0, 130.0, 180.0, 95.0)},
        "MCI": {"transition": transition_from_weights((1.0, 1.0, 1.15, 1.0)),
                "mean_dwell_ms": (130.0, 130.0, 140.0, 130.0)},
        "DEM": {"transition": transition_from_weights((1.0, 1.0, 0.6, 1.9)),
                "mean_dwell_ms": (130.0, 130.0, 95.0, 180.0)},
    }


def make_band_cohort(
    n_per_class: int,
    band: tuple[float, float] = (4.0, 8.0),
    seed: int = 0,
    snr: float = 4.0,
    duration: float = 20.0,
    fs: float = 250.0,
) -> list[tuple[Recording, Segmentation]]:
    """Cohort whose class differences live in a single frequency band.

    The class-dependent microstate process rides on a carrier at the
    center of `band`. Class-invariant background microstate processes
    with identical dynamics for every subject ride on carriers in the
    other standard bands, masking spectral leakage of the class signal,
    and white noise is added last (snr is relative to the class signal).
    Band-resolved features are therefore informative inside `band` and
    near chance elsewhere. Returns the class-process ground truth.
    """
    check_value("n_per_class", COHORT["n_per_class"], n_per_class)
    lo, hi = float(band[0]), float(band[1])
    require(0.0 < lo < hi < fs / 2.0, f"band must satisfy 0 < low < high < fs/2, got {band}")
    center = 0.5 * (lo + hi)
    maskers = [
        c for name, c in sorted(_BAND_CARRIERS.items())
        if not (lo <= c <= hi)
    ]
    masker_dwell = 200.0
    profiles = band_cohort_profiles()
    out = []
    for c_idx, (label, overrides) in enumerate(sorted(profiles.items())):
        for s in range(n_per_class):
            cls_cfg = SynthConfig(
                fs=fs,
                duration=duration,
                snr=math.inf,
                envelope_depth=0.0,
                carrier_hz=center,
                amplitudes=1.0,
                subject_id=f"{label}_{s:03d}",
                label=label,
                seed=child_seed(seed, c_idx, s, 0),
                **overrides,
            )
            rec, seg, _ = generate(cls_cfg)
            mix = np.array(rec.data)
            for m, carrier in enumerate(maskers):
                bg_cfg = SynthConfig(
                    fs=fs,
                    duration=duration,
                    snr=math.inf,
                    envelope_depth=0.0,
                    carrier_hz=carrier,
                    amplitudes=1.0,
                    mean_dwell_ms=masker_dwell,
                    seed=child_seed(seed, c_idx, s, 1 + m),
                )
                bg_rec, _, _ = generate(bg_cfg)
                mix += bg_rec.data
            if not math.isinf(snr):
                cls_rms = float(np.sqrt(np.mean(rec.data * rec.data)))
                noise_rng = np.random.default_rng([child_seed(seed, c_idx, s, 999)])
                raw = noise_rng.standard_normal(mix.shape)
                raw -= raw.mean(axis=0, keepdims=True)
                raw_rms = float(np.sqrt(np.mean(raw * raw)))
                mix += raw * (cls_rms / snr / max(raw_rms, 1e-300))
            out.append((rec.with_data(mix, note="band-cohort mix"), seg))
    return out
