"""Polarity-invariant microstate segmentation.

Topographies are compared through the squared spatial correlation, so a
map and its negation are the same microstate. Clustering follows the
modified k-means scheme: samples are assigned to the map maximizing the
squared normalized projection, and each cluster's map takes one power
step on its members' scatter, map <- normalize(sum_i (map . x_i) x_i).
The scatter is positive semi-definite, so the step cannot lower the
cluster's explained variance, and neither can the reassignment: the
objective trace is non-decreasing up to float rounding.

All restarts of one clustering advance together as a batch, each
stopping on its own objective gain. Restarts whose final objective lies
within a relative 1e-12 of the best tie, and the earliest of them wins,
so the choice among restarts that reached the same partition does not
depend on the order of float summation.

A recording's samples may be float32 (a stored payload): `gfp` and
`backfit` widen them one block at a time and `gev` on entry, exactly, so
a float32 recording and its widened copy give the same bits.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import BLOCK_DOUBLES, KMEANS, MAPS, SEG_HEADER, check, decode
from .errors import (
    AmbiguousLabels,
    DegenerateMap,
    DegenerateSample,
    EmptyCluster,
    MontageMismatch,
    NonFiniteData,
    NoPeaks,
    ShapeMismatch,
    TooFewSamples,
    ZeroGfp,
)
from .io import Recording, _freeze

logger = logging.getLogger("msaf.microstates")


@dataclass(frozen=True)
class MicrostateMaps:
    """A set of unit-norm, average-referenced template topographies.

    Attributes:
        channels: Channel names defining the column order of `maps`.
        maps: (k, K) float64 matrix, one topography per row.
        labels: One display label per map, unique.
        gev_total: Global explained variance achieved on the data the
            maps were fit to, if known.
    """

    channels: tuple[str, ...]
    maps: np.ndarray
    labels: tuple[str, ...]
    gev_total: Optional[float] = None

    def __post_init__(self):
        m = np.asarray(self.maps, dtype=np.float64)
        channels = tuple(str(c) for c in self.channels)
        labels = tuple(str(l) for l in self.labels)
        if m.ndim != 2 or m.shape[0] < 1:
            raise ShapeMismatch("maps must be a non-empty (k, K) matrix")
        if m.shape[1] != len(channels):
            raise ShapeMismatch(
                f"maps have {m.shape[1]} columns but {len(channels)} channel names"
            )
        if len(labels) != m.shape[0]:
            raise ShapeMismatch(f"{m.shape[0]} maps but {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise AmbiguousLabels(f"duplicate map labels: {labels}")
        if not np.all(np.isfinite(m)):
            raise NonFiniteData("maps contain non-finite values")
        if np.max(np.abs(m.mean(axis=1))) > 1e-9:
            raise ShapeMismatch("maps must be average-referenced (zero spatial mean)")
        if np.max(np.abs(np.linalg.norm(m, axis=1) - 1.0)) > 1e-9:
            raise ShapeMismatch("maps must have unit norm")
        object.__setattr__(self, "maps", _freeze(m))
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "labels", labels)
        if self.gev_total is not None:
            object.__setattr__(self, "gev_total", float(self.gev_total))

    @property
    def k(self) -> int:
        return self.maps.shape[0]

    @property
    def n_channels(self) -> int:
        return self.maps.shape[1]

    def relabeled(self, labels: Sequence[str]) -> "MicrostateMaps":
        return MicrostateMaps(
            channels=self.channels,
            maps=self.maps,
            labels=tuple(labels),
            gev_total=self.gev_total,
        )

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "labels": list(self.labels),
            "channels": list(self.channels),
            "maps": [[float(v) for v in row] for row in self.maps],
            "gev_total": (None if self.gev_total is None else float(self.gev_total)),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MicrostateMaps":
        """The maps of a `to_json_dict` form, decoded by `MAPS`."""
        return cls(**decode("maps", MAPS, d))


@dataclass(frozen=True)
class Segmentation:
    """Per-sample state assignment of a subject's recording.

    On disk it is one ``.seg`` file (:func:`msaf.io.commit_segmentation`).

    Attributes:
        states: (T,) int array of map indices.
        corr: (T,) absolute spatial correlation with the assigned map,
            0 for spatially degenerate samples.
        gfp: (T,) read-only float64 global field power of the segmented
            recording, finite and non-negative.
        fs: Sampling rate in Hz, of all three.
        maps: The maps the recording was fit against.
        subject_id: Subject the recording belongs to.
        label: Its class label, or None.
    """

    states: np.ndarray
    corr: np.ndarray
    gfp: np.ndarray
    fs: float
    maps: MicrostateMaps
    subject_id: str
    label: Optional[str] = None

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.int64)
        c = np.asarray(self.corr, dtype=np.float64)
        g = np.asarray(self.gfp, dtype=np.float64)
        if s.ndim != 1 or s.size < 1:
            raise ShapeMismatch("states must be a non-empty 1-D array")
        if c.size != s.size or g.shape != s.shape:
            raise ShapeMismatch(
                f"states ({s.size}), corr ({c.size}) and gfp ({g.size}) lengths disagree"
            )
        if s.min() < 0 or s.max() >= self.maps.k:
            raise ShapeMismatch("state index out of range")
        if not np.all(np.isfinite(c)) or c.min() < 0 or c.max() > 1.0 + 1e-12:
            raise ShapeMismatch("corr values must lie in [0, 1]")
        if not np.all(np.isfinite(g)):
            raise NonFiniteData("GFP contains non-finite values")
        if g.min() < 0:
            raise ShapeMismatch("GFP values cannot be negative")
        object.__setattr__(self, "states", _freeze(s))
        object.__setattr__(self, "corr", _freeze(np.minimum(c, 1.0)))
        object.__setattr__(self, "gfp", _freeze(g))
        object.__setattr__(self, "fs", float(self.fs))

    @property
    def n_samples(self) -> int:
        return self.states.size

    @classmethod
    def from_json_dict(cls, d: dict) -> "Segmentation":
        """A segmentation from a `.seg` header's fields, decoded by `SEG_HEADER`, and its
        ``states``, ``corr`` and ``gfp`` arrays: the form `msaf.io.load_segmentation` reads."""
        h = decode("segmentation", SEG_HEADER, d)
        return cls(states=d["states"], corr=d["corr"], gfp=d["gfp"], fs=h["fs"],
                   maps=MicrostateMaps.from_json_dict(h["maps"]), subject_id=h["subject_id"],
                   label=h.get("label"))


def gfp(rec: Recording) -> np.ndarray:
    """Global field power: (T,) float64 population std across channels per sample.

    Computed by `_column_std`, one block of samples at a time. A float32
    recording is widened one block at a time; widening is exact, so its
    GFP has the same bits as its widened copy's.
    """
    return _column_std(rec.data)


def _sample_blocks(n: int, n_channels: int) -> list[slice]:
    """Consecutive slices of range(n) that hold about BLOCK_DOUBLES values of n_channels each.

    No slice holds one sample unless n is 1: numpy sums a lone sample's
    channels, and multiplies it by a matrix, in another order than it
    does for two or more, so a one-sample block would change the bits.
    A lone last sample joins the slice before it.
    """
    bounds = [*range(0, max(n - 1, 1), max(2, BLOCK_DOUBLES // n_channels)), n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _column_std(data: np.ndarray) -> np.ndarray:
    """The float64 data.std(axis=0) of a (K, T) array, one `_sample_blocks` block at a time.

    Each block is widened to float64 first (no copy if it is already).
    Each column's std is the same reduction as the whole-array call, so
    the bits are too; the temporaries stay near 128 KiB whatever T is.
    """
    out = np.empty(data.shape[1])
    for block in _sample_blocks(data.shape[1], data.shape[0]):
        out[block] = np.asarray(data[:, block], dtype=np.float64).std(axis=0)
    return out


def _samples_of_ms(ms: float, fs: float) -> int:
    """The fewest samples at fs that span at least ms milliseconds.

    A ceiling, so a setting is never rounded down below what it asks for;
    the 1e-9 slack keeps a whole number of samples (10 ms at 200 Hz) whole.
    """
    return int(math.ceil(ms / 1000.0 * fs - 1e-9))


def find_gfp_peaks(values: np.ndarray, fs: float, min_distance_ms: float = 0.0) -> np.ndarray:
    """Indices of strict local maxima of a GFP curve sampled at fs.

    Plateaus produce no peak. With min_distance_ms > 0, peaks are kept
    greedily by descending GFP value (ties to the earlier sample) and
    any candidate closer than the distance to a kept peak is dropped.

    Raises:
        NoPeaks: if the curve has no strict local maximum.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size < 3:
        raise NoPeaks(f"series of {v.size} samples cannot contain a local maximum")
    inner = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    idx = np.nonzero(inner)[0] + 1
    if idx.size == 0:
        raise NoPeaks("GFP series has no strict local maxima")
    d_min = _samples_of_ms(min_distance_ms, fs)
    if d_min > 1:
        # a kept peak blocks every sample closer than d_min to it
        blocked = np.zeros(v.size, dtype=bool)
        kept = np.zeros(v.size, dtype=bool)
        for j in idx[np.lexsort((idx, -v[idx]))].tolist():
            if not blocked[j]:
                kept[j] = True
                blocked[max(j - d_min + 1, 0):j + d_min] = True
        idx = np.nonzero(kept)[0]
    return idx.astype(np.int64)


def _spatial_scale(x: np.ndarray) -> float:
    """max(1, max |x|), without forming |x|."""
    return max(1.0, float(max(x.max(), -x.min())) if x.size else 1.0)


def spatial_correlation(a, b) -> float:
    """Pearson correlation between two topographies (channel vectors).

    Raises:
        DegenerateMap: if either map is spatially constant.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise MontageMismatch(f"maps have {a.size} and {b.size} channels")
    ac = a - a.mean()
    bc = b - b.mean()
    na, nb = np.linalg.norm(ac), np.linalg.norm(bc)
    if na <= 1e-12 * _spatial_scale(a) or nb <= 1e-12 * _spatial_scale(b):
        raise DegenerateMap("spatially constant map has undefined correlation")
    r = float(ac @ bc / (na * nb))
    return min(1.0, max(-1.0, r))


# Restarts whose final GEV lies within this relative distance of the best
# tie, and the earliest of them wins: restarts that reach the same partition
# differ only by the order of float summation.
_GEV_TIE_RTOL = 1e-12


def _prepare_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center each row spatially, return (centered, row norms)."""
    xc = x - x.mean(axis=1, keepdims=True)
    return xc, np.linalg.norm(xc, axis=1)


def _reseed_empty(
    maps: np.ndarray,
    proj: np.ndarray,
    hit: np.ndarray,
    xc: np.ndarray,
    norms: np.ndarray,
    valid: np.ndarray,
) -> None:
    """Refill one restart's empty clusters, updating its (k, n) projections and hits in place.

    hit marks each sample's best map, one per sample. Each round moves the
    first empty cluster's map (in place) to the worst-explained usable
    sample and reassigns.

    Raises:
        EmptyCluster: if a cluster is still empty after k reseeds.
    """
    k, n = proj.shape
    for attempt in range(k + 1):
        empties = np.nonzero(~hit.any(axis=1))[0]
        if empties.size == 0:
            return
        if attempt == k:
            raise EmptyCluster(f"cluster went empty and {k} reseeds did not recover")
        assigned = proj[hit.argmax(axis=0), np.arange(n)]
        explained = np.full(n, np.inf)
        explained[valid] = assigned[valid] ** 2 / (norms[valid] ** 2)
        worst = explained.argmin()
        maps[empties[0]] = xc[worst] / norms[worst]
        all_proj = xc @ maps.T
        proj[...] = all_proj.T
        hit[...] = np.argmax(all_proj * all_proj, axis=1) == np.arange(k)[:, np.newaxis]


def modified_kmeans(
    peak_maps: np.ndarray,
    k: int,
    n_inits: int = 20,
    max_iter: int = 200,
    tol: float = 1e-8,
    seed: int = 0,
    channels: Optional[Sequence[str]] = None,
    trace_sink: Optional[list] = None,
) -> MicrostateMaps:
    """Cluster topographies into k polarity-invariant maps.

    All restarts advance together: one projection of the samples on every
    restart's maps marks each sample's best map (the lower index on an
    exact tie), and one product of those projections, zeroed off the
    marks, with the samples takes one power step,
    map <- normalize(sum_i (map . x_i) x_i), for every map at once. A map
    whose members all project to zero keeps its place. Each restart still
    stops on its own GEV gain, exactly as if it ran alone.

    Args:
        peak_maps: (n, K) matrix of topographies (typically GFP peaks).
        k: Number of microstate maps.
        n_inits: Independent restarts; the best final objective wins.
            Restarts within a relative 1e-12 of the best tie, and the
            earliest of them wins.
        max_iter: Iteration cap per restart. Restarts still improving
            at the cap are reported in one warning.
        tol: Stop a restart when the objective improves by less.
        seed: Master seed; restart r uses the child seed (seed, r).
        channels: Channel names for the result. Defaults to ch00, ch01...
        trace_sink: Optional list; receives one dict per accepted
            iterate with keys restart, iteration, gev, restart-major.

    Returns:
        MicrostateMaps with default labels "1".."k" and the achieved
        objective in gev_total. Each map's polarity is normalized so its
        largest-magnitude channel is positive.

    Raises:
        NonFiniteData: a peak map holds NaN or infinity.
        InvalidConfig: n_inits, max_iter or tol outside its
            `msaf.config.KMEANS` entry.
    """
    x = np.asarray(peak_maps, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch("peak maps must form an (n, K) matrix")
    if not np.all(np.isfinite(x)):
        raise NonFiniteData("peak maps contain non-finite values")
    if k < 1:
        raise ShapeMismatch(f"k must be >= 1, got {k}")
    check("kmeans", KMEANS, {"n_inits": n_inits, "max_iter": max_iter, "tol": tol})
    xc, norms = _prepare_rows(x)
    total_power = float(norms @ norms)
    if total_power <= 0.0:
        raise ZeroGfp("all samples are spatially constant")
    valid = np.nonzero(norms > 1e-12 * _spatial_scale(x))[0]
    if valid.size < k:
        raise TooFewSamples(f"{valid.size} usable samples cannot seed {k} clusters")

    n, n_ch = x.shape
    maps = np.empty((n_inits, k, n_ch))
    for restart in range(n_inits):
        init = np.random.default_rng([seed, restart]).choice(valid, size=k, replace=False)
        maps[restart] = xc[init] / norms[init, np.newaxis]
    xt = np.ascontiguousarray(xc.T)
    map_index = np.arange(k)[:, np.newaxis]

    active = np.arange(n_inits)
    prev = np.full(n_inits, -np.inf)
    gevs: list[list[float]] = [[] for _ in range(n_inits)]
    for iteration in range(max_iter + 1):
        a = active.size
        proj = (maps[active].reshape(a * k, n_ch) @ xt).reshape(a, k, n)
        sq = proj * proj
        best = sq.max(axis=1)
        hit = sq == best[:, np.newaxis]
        if np.count_nonzero(hit) != a * n:  # an exact tie: the lower map index wins
            hit = sq.argmax(axis=1)[:, np.newaxis] == map_index
        del sq  # not held through the compaction below
        if iteration:
            gev_now = best.sum(axis=1) / total_power
            for r, g in zip(active, gev_now):
                gevs[r].append(float(g))
            going = ~(gev_now - prev[active] < tol)
            prev[active] = gev_now
            if not going.all():
                active, proj, hit = active[going], proj[going], hit[going]
                a = active.size
            if a == 0 or iteration == max_iter:
                break
        for j in np.nonzero(~hit.any(axis=2).all(axis=1))[0]:  # a cluster went empty
            _reseed_empty(maps[active[j]], proj[j], hit[j], xc, norms, valid)
        # each map's members weighted by their signed projections, all others by 0
        np.multiply(proj, hit, out=proj)
        step = proj.reshape(a * k, n) @ xc
        step_norm = np.linalg.norm(step, axis=1)
        moved = step_norm > 0.0
        flat = maps[active].reshape(a * k, n_ch)
        flat[moved] = step[moved] / step_norm[moved, np.newaxis]
        maps[active] = flat.reshape(a, k, n_ch)
    if active.size:
        logger.warning(
            "modified k-means: %d of %d restarts still improving at max_iter=%d",
            active.size, n_inits, max_iter,
        )
    if trace_sink is not None:
        for restart, trace in enumerate(gevs):
            for iteration, g in enumerate(trace, start=1):
                trace_sink.append({"restart": restart, "iteration": iteration, "gev": g})

    final = np.array([trace[-1] for trace in gevs])
    top = final.max()
    winner = int(np.nonzero(final >= top - _GEV_TIE_RTOL * abs(top))[0][0])
    best_maps = maps[winner].copy()
    # canonical polarity, then re-enforce invariants exactly
    for row in best_maps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    best_maps -= best_maps.mean(axis=1, keepdims=True)
    best_maps /= np.linalg.norm(best_maps, axis=1, keepdims=True)
    if channels is None:
        channels = tuple(f"ch{i:02d}" for i in range(n_ch))
    return MicrostateMaps(
        channels=tuple(channels),
        maps=best_maps,
        labels=tuple(str(i + 1) for i in range(k)),
        gev_total=float(final[winner]),
    )


def gev(data, assignment, maps: Optional[MicrostateMaps] = None):
    """Global explained variance, total and per state.

    Args:
        data: Recording or (T, K) array of samples.
        assignment: Segmentation, or (T,) array of state indices.
        maps: Required when assignment is a plain index array.

    Returns:
        (total, per_state) where per_state has one entry per map and
        sums to the total. Samples with zero GFP contribute nothing.

    Raises:
        ZeroGfp: if the data has no GFP power at all.
    """
    if isinstance(data, Recording):
        data = data.data.T
    x = np.asarray(data, dtype=np.float64)
    if isinstance(assignment, Segmentation):
        states = assignment.states
        if maps is None:
            maps = assignment.maps
    else:
        states = np.asarray(assignment, dtype=np.int64)
        if maps is None:
            raise ShapeMismatch("maps are required with a plain state array")
    if x.shape[0] != states.size:
        raise ShapeMismatch(f"{x.shape[0]} samples but {states.size} assignments")
    if x.shape[1] != maps.n_channels:
        raise MontageMismatch(
            f"data has {x.shape[1]} channels, maps have {maps.n_channels}"
        )
    xc, norms = _prepare_rows(x)
    gfp_sq = (norms * norms) / x.shape[1]
    denom = float(gfp_sq.sum())
    if denom <= 0.0:
        raise ZeroGfp("zero total GFP power, explained variance undefined")
    mc, mnorms = _prepare_rows(maps.maps)
    live = norms > 0
    r = np.zeros(x.shape[0])
    dots = np.einsum("ij,ij->i", xc[live], mc[states[live]])
    r[live] = dots / (norms[live] * mnorms[states[live]])
    weighted = gfp_sq * r * r
    per_state = np.array(
        [float(weighted[states == c].sum()) / denom for c in range(maps.k)]
    )
    return float(per_state.sum()), per_state


def group_cluster(
    subject_maps: Sequence[MicrostateMaps], k: int, **kmeans_kwargs
) -> MicrostateMaps:
    """Cluster the pooled per-subject maps into k group-level maps.

    Every subject contributes its maps as unit-norm rows, so subjects
    are weighted equally regardless of recording length.
    """
    if not subject_maps:
        raise TooFewSamples("no subject maps to cluster")
    channels = subject_maps[0].channels
    for m in subject_maps[1:]:
        if m.channels != channels:
            raise MontageMismatch("subject maps disagree on channel set or order")
    stacked = np.vstack([m.maps for m in subject_maps])
    if stacked.shape[0] < k:
        raise TooFewSamples(f"{stacked.shape[0]} subject maps cannot form {k} clusters")
    return modified_kmeans(stacked, k, channels=channels, **kmeans_kwargs)


def backfit(
    rec: Recording, maps: MicrostateMaps, min_segment_ms: float = 0.0
) -> Segmentation:
    """Assign every sample to the map with the highest |correlation|.

    Spatially degenerate samples inherit the previous sample's state
    with correlation 0 (a degenerate first sample is an error). With
    min_segment_ms > 0, runs shorter than that duration are absorbed in
    a single left-to-right pass: each sample of a short run moves to
    whichever neighboring run's state correlates better at that sample,
    and correlations are recomputed afterwards.

    Samples are widened, centred and correlated one `_sample_blocks`
    block at a time, so beyond the (T, k) correlations the temporaries
    stay near 128 KiB whatever the recording's length; every sample's value
    is the same computation as in one whole-recording pass.
    """
    if tuple(rec.montage.names) != maps.channels:
        raise MontageMismatch("recording channels do not match the maps' channels")
    x = rec.data
    n = x.shape[1]
    mc, mnorms = _prepare_rows(maps.maps)
    floor = 1e-12 * _spatial_scale(x)
    live = np.empty(n, dtype=bool)
    c = np.empty((n, maps.k))
    for block in _sample_blocks(n, x.shape[0]):
        xb = np.asarray(x[:, block], dtype=np.float64).T
        c[block], live[block] = _abs_correlations(xb, mc, mnorms, floor)
    if not live[0]:
        raise DegenerateSample("first sample is spatially constant, cannot backfit")
    np.minimum(c, 1.0, out=c)
    states = np.argmax(c, axis=1)
    for t in np.nonzero(~live)[0]:
        states[t] = states[t - 1]

    min_len = _samples_of_ms(min_segment_ms, rec.fs)
    if min_len > 1:
        starts, stops, run_states = _run_lengths(states)
        if run_states.size > 1:
            # neighbours of every run, -1 past either edge, taken before any move
            left = np.concatenate(([-1], run_states[:-1]))
            right = np.concatenate((run_states[1:], [-1]))
            run_of = np.repeat(np.arange(run_states.size), stops - starts)
            t = np.flatnonzero((stops - starts)[run_of] < min_len)
            lt, rt = left[run_of[t]], right[run_of[t]]
            to_left = (rt < 0) | ((lt >= 0) & (c[t, lt] >= c[t, rt]))
            states[t] = np.where(to_left, lt, rt)
    corr = c[np.arange(n), states]
    corr[~live] = 0.0
    return Segmentation(
        states=states, corr=corr, gfp=_column_std(x), fs=rec.fs, maps=maps,
        subject_id=rec.subject_id, label=rec.label,
    )


def _abs_correlations(
    x: np.ndarray, mc: np.ndarray, mnorms: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """|correlation| of each sample (row of x) with each centred map, and its liveness.

    A sample whose centred norm is at most floor is spatially degenerate:
    its correlations are 0.
    """
    xc, norms = _prepare_rows(x)
    live = norms > floor
    # a degenerate sample's row is divided by 1, then zeroed
    c = np.abs(xc @ mc.T) / np.outer(np.where(live, norms, 1.0), mnorms)
    c[~live] = 0.0
    return c, live


def _run_lengths(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run-length encode a non-empty sequence: (starts, stops, run states), stops exclusive."""
    starts = np.concatenate(([0], np.flatnonzero(np.diff(states)) + 1))
    stops = np.append(starts[1:], states.size)
    return starts, stops, states[starts]


def label_maps(
    maps: MicrostateMaps,
    templates: Optional[MicrostateMaps] = None,
    mapping: Optional[dict] = None,
) -> MicrostateMaps:
    """Attach meaningful labels to maps.

    Either provide `mapping` (map index -> label, covering every index
    exactly once) or `templates`, in which case each map is matched to a
    distinct template by maximizing total |spatial correlation| over all
    one-to-one assignments. Map values and order are never changed.

    Raises:
        AmbiguousLabels: mapping not a bijection, or fewer templates
            than maps.
    """
    if (templates is None) == (mapping is None):
        raise AmbiguousLabels("provide exactly one of templates or mapping")
    if mapping is not None:
        idx = {int(i): str(l) for i, l in mapping.items()}
        if sorted(idx) != list(range(maps.k)):
            raise AmbiguousLabels(
                f"mapping must cover map indices 0..{maps.k - 1} exactly"
            )
        labels = [idx[i] for i in range(maps.k)]
        if len(set(labels)) != len(labels):
            raise AmbiguousLabels(f"mapping labels are not unique: {labels}")
        return maps.relabeled(labels)
    if templates.channels != maps.channels:
        raise MontageMismatch("templates do not match the maps' channel set")
    if templates.k < maps.k:
        raise AmbiguousLabels(
            f"{templates.k} templates cannot label {maps.k} maps uniquely"
        )
    cost = np.empty((maps.k, templates.k))
    for i in range(maps.k):
        for j in range(templates.k):
            cost[i, j] = -abs(spatial_correlation(maps.maps[i], templates.maps[j]))
    cols = _min_cost_assignment(cost)
    return maps.relabeled([templates.labels[j] for j in cols])


def _min_cost_assignment(cost: np.ndarray) -> list[int]:
    """Column of each row of a (k, T) cost matrix, k <= T, at minimum total cost.

    Crouse's (2016) shortest augmenting path, the algorithm and scan order
    of scipy.optimize.linear_sum_assignment: each search scans a
    swap-remove list of the remaining columns that starts at the last
    column and, on equal path cost, prefers an unassigned column, so tied
    costs resolve to SciPy's assignment.
    """
    n_rows, n_cols = cost.shape
    c = cost.tolist()
    u, v = [0.0] * n_rows, [0.0] * n_cols
    col4row, row4col, path = [-1] * n_rows, [-1] * n_cols, [-1] * n_cols
    for cur in range(n_rows):
        dist = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            rows_seen.append(i)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + c[i][j] - u[i] - v[j]
                if r < dist[j]:
                    path[j], dist[j] = i, r
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] == -1):
                    index, lowest = it, dist[j]
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row
