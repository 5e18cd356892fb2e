"""Per-subject feature rows from a segmentation.

For each state the row holds five metrics:

    gev         sum over the state's samples of (gfp*corr)^2, divided
                by the total sum of gfp^2
    meancorr    mean |spatial correlation| over the state's samples
    occurrence  number of runs of the state per second, n_runs/(T/fs)
    timecov     fraction of samples assigned to the state
    meandur     mean run duration in ms, run length computed as
                (samples/fs)*1000

plus one global column, `gfp`, the GFP aggregate (mean by default). Each
state's samples and runs are selected with boolean masks over the
sequence, and every sum is exactly rounded (math.fsum), so results do
not depend on vectorization or summation order. By construction
occurrence * meandur / 1000 equals timecov for every state. States that
never occur get 0 for all five metrics.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InconsistentStates, ShapeMismatch, TooShort
from .io import FeatureTable
from .microstates import Segmentation, _run_lengths

STATE_METRICS = ("gev", "meancorr", "occurrence", "timecov", "meandur")


def extract_features(
    seg: Segmentation,
    gfp_aggregate: str = "mean",
    trim_edge_runs: bool = False,
) -> dict[str, float]:
    """The subject's feature row: the per-state metrics and the GFP aggregate.

    The row is keyed by column, in the feature table's column order:
    `<state>_<metric>` for each state label in sorted order, with the
    metrics in STATE_METRICS order, then `gfp`.

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

    row = {}
    for label, c in sorted(zip(seg.maps.labels, range(seg.maps.k))):
        assigned = states == c
        n_assigned = int(np.count_nonzero(assigned))
        my_runs = run_states == c
        n_runs = int(np.count_nonzero(my_runs))
        gev = math.fsum(gev_terms[assigned].tolist()) / denom if denom > 0 and n_assigned else 0.0
        metrics = (
            gev,
            math.fsum(corr[assigned].tolist()) / n_assigned if n_assigned else 0.0,
            n_runs / duration_s if n_runs else 0.0,
            n_assigned / t if n_assigned else 0.0,
            math.fsum(durations[my_runs].tolist()) / n_runs if n_runs else 0.0,
        )
        row.update(zip((f"{label}_{m}" for m in STATE_METRICS), metrics))

    if gfp_aggregate == "mean":
        row["gfp"] = math.fsum(gfp_vals.tolist()) / t
    else:
        row["gfp"] = float(np.median(gfp_vals))
    return row


def build_feature_table(
    entries: Sequence[tuple[str, str, dict[str, float]]],
) -> FeatureTable:
    """Stack per-subject feature rows into a table.

    Args:
        entries: (subject_id, class_label, row) triples, each row an
            `extract_features` result. All subjects must share the same
            state label set.

    Returns:
        FeatureTable with the first row's columns and sorted class names.

    Raises:
        InconsistentStates: if subjects disagree on state labels.
    """
    if not entries:
        raise ShapeMismatch("cannot build a feature table from zero subjects")
    names = tuple(entries[0][2])
    for sid, _, row in entries:
        if tuple(row) != names:
            raise InconsistentStates(
                f"subject {sid!r} has feature columns {list(row)}, expected {list(names)}"
            )
    class_names = tuple(sorted({cls for _, cls, _ in entries}))
    lut = {c: i for i, c in enumerate(class_names)}
    return FeatureTable(
        subject_ids=tuple(sid for sid, _, _ in entries),
        y=np.array([lut[cls] for _, cls, _ in entries], dtype=np.int64),
        class_names=class_names,
        feature_names=names,
        values=np.array([list(row.values()) for _, _, row in entries], dtype=np.float64),
    )
