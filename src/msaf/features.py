"""Per-subject tabular features from a segmentation.

For each state the five metrics are, in canonical column order:

    gev         sum over the state's samples of (gfp*corr)^2, divided
                by the total sum of gfp^2
    meancorr    mean |spatial correlation| over the state's samples
    occurrence  number of runs of the state per second, n_runs/(T/fs)
    timecov     fraction of samples assigned to the state
    meandur     mean run duration in ms, run length computed as
                (samples/fs)*1000

plus one global column, the GFP aggregate (mean by default). Each
state's samples and runs are selected with boolean masks over the
sequence, and every sum is exactly rounded (math.fsum), so results do
not depend on vectorization or summation order. By construction
occurrence * meandur / 1000 equals timecov for every state. States that
never occur get 0 for all five metrics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InconsistentStates, ShapeMismatch, TooShort
from .io import FeatureTable
from .microstates import Segmentation, _run_lengths

STATE_METRICS = ("gev", "meancorr", "occurrence", "timecov", "meandur")


@dataclass(frozen=True)
class FeatureVector:
    """Feature values for one subject, indexed by state label."""

    state_labels: tuple[str, ...]
    gev: tuple[float, ...]
    meancorr: tuple[float, ...]
    occurrence: tuple[float, ...]
    timecov: tuple[float, ...]
    meandur: tuple[float, ...]
    gfp: float

    def __post_init__(self):
        n = len(self.state_labels)
        for metric in STATE_METRICS:
            if len(getattr(self, metric)) != n:
                raise ShapeMismatch(f"{metric} has wrong length")

    def to_dict(self) -> dict:
        out = {}
        for i, s in enumerate(self.state_labels):
            for metric in STATE_METRICS:
                out[f"{s}_{metric}"] = getattr(self, metric)[i]
        out["gfp"] = self.gfp
        return out


def extract_features(
    seg: Segmentation,
    gfp_aggregate: str = "mean",
    trim_edge_runs: bool = False,
) -> FeatureVector:
    """Compute the per-state metrics and the GFP aggregate.

    Args:
        seg: Segmentation to summarize. Must cover at least 1 second.
        gfp_aggregate: "mean" or "median" of the GFP curve.
        trim_edge_runs: Sensitivity option; when True the first and last
            runs are excluded from occurrence and duration statistics
            (they are truncated by the recording edges). This
            intentionally breaks the occurrence*meandur=timecov
            identity, which holds only on the default path.

    Raises:
        TooShort: if the segmentation spans less than 1 second.
    """
    t = seg.n_samples
    if t / seg.fs < 1.0:
        raise TooShort(f"{t} samples at fs={seg.fs} is shorter than 1 s")
    if gfp_aggregate not in ("mean", "median"):
        raise ShapeMismatch(f"unknown gfp aggregate {gfp_aggregate!r}")

    states, corr, gfp_vals = seg.states, seg.corr, seg.gfp
    duration_s = t / seg.fs
    denom = math.fsum((gfp_vals * gfp_vals).tolist())
    gev_terms = gfp_vals * corr
    gev_terms *= gev_terms

    starts, stops, run_states = _run_lengths(states)
    if trim_edge_runs and run_states.size > 2:
        starts, stops, run_states = starts[1:-1], stops[1:-1], run_states[1:-1]
    durations = ((stops - starts) / seg.fs) * 1000.0

    gev_v, meancorr_v, occurrence_v, timecov_v, meandur_v = [], [], [], [], []
    for c in range(seg.maps.k):
        assigned = states == c
        n_assigned = int(np.count_nonzero(assigned))
        my_runs = run_states == c
        n_runs = int(np.count_nonzero(my_runs))
        if denom > 0.0 and n_assigned:
            gev_v.append(math.fsum(gev_terms[assigned].tolist()) / denom)
        else:
            gev_v.append(0.0)
        meancorr_v.append(
            math.fsum(corr[assigned].tolist()) / n_assigned if n_assigned else 0.0
        )
        occurrence_v.append(n_runs / duration_s if n_runs else 0.0)
        timecov_v.append(n_assigned / t if n_assigned else 0.0)
        meandur_v.append(
            math.fsum(durations[my_runs].tolist()) / n_runs if n_runs else 0.0
        )

    if gfp_aggregate == "mean":
        gfp_agg = math.fsum(gfp_vals.tolist()) / t
    else:
        gfp_agg = float(np.median(gfp_vals))

    return FeatureVector(
        state_labels=seg.maps.labels,
        gev=tuple(gev_v),
        meancorr=tuple(meancorr_v),
        occurrence=tuple(occurrence_v),
        timecov=tuple(timecov_v),
        meandur=tuple(meandur_v),
        gfp=gfp_agg,
    )


def feature_names(state_labels: Sequence[str]) -> tuple[str, ...]:
    """Canonical column order: states sorted, five metrics each, then gfp."""
    names = []
    for s in sorted(state_labels):
        names.extend(f"{s}_{m}" for m in STATE_METRICS)
    names.append("gfp")
    return tuple(names)


def build_feature_table(
    entries: Sequence[tuple[str, str, FeatureVector]],
) -> FeatureTable:
    """Stack per-subject feature vectors into a table.

    Args:
        entries: (subject_id, class_label, features) triples. All
            subjects must share the same state label set.

    Returns:
        FeatureTable with class names sorted alphabetically and columns
        in canonical order.

    Raises:
        InconsistentStates: if subjects disagree on state labels.
    """
    if not entries:
        raise ShapeMismatch("cannot build a feature table from zero subjects")
    label_set = frozenset(entries[0][2].state_labels)
    for sid, _, fv in entries:
        if frozenset(fv.state_labels) != label_set:
            raise InconsistentStates(
                f"subject {sid!r} has states {sorted(fv.state_labels)}, "
                f"expected {sorted(label_set)}"
            )
    names = feature_names(sorted(label_set))
    class_names = tuple(sorted({cls for _, cls, _ in entries}))
    lut = {c: i for i, c in enumerate(class_names)}
    rows = []
    for _, _, fv in entries:
        d = fv.to_dict()
        rows.append([d[name] for name in names])
    return FeatureTable(
        subject_ids=tuple(sid for sid, _, _ in entries),
        y=np.array([lut[cls] for _, cls, _ in entries], dtype=np.int64),
        class_names=class_names,
        feature_names=names,
        values=np.array(rows, dtype=np.float64),
    )
