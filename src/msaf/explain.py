"""Additive feature attributions for the trained classifiers.

All three methods share the interventional value function: the value of
a coalition S is the model score with features in S taken from the
explained instance and the rest from a background row, averaged over
the background set. Scores are explained on each model's additive
scale: one-vs-rest decision values for the SVM, averaged leaf
histograms for the forest, pre-softmax margins for the boosted trees.
Every method satisfies local accuracy: phi0 + sum(phi) equals the score
of the explained instance.

Methods:

* exact    full subset enumeration, feasible to d = 20.
* kernel   weighted least squares on coalitions; enumerates all
           non-trivial coalitions when the budget allows, otherwise
           bulk paired-complement sampling. One coalition sample and one
           solve serve every explained row. The efficiency constraint is
           eliminated by substituting the last feature's attribution,
           never solved as an extra equation.
* tree     interventional TreeSHAP for the tree ensembles: for each
           (instance, background row) pair, each leaf induces a game
           that is an AND of "feature must come from x" / "must come
           from b" requirements, whose Shapley values have a closed
           form in the two requirement counts.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .config import EXPLAIN, SHAP, check_value, decode, encode
from .errors import (
    DimensionMismatch,
    EmptyBackground,
    ShapeMismatch,
    SingularSystem,
    TooManyFeatures,
    UnsupportedModel,
)
from .models import GbtModel, RfModel, SvmModel, TrainedModel
from .models._common import child_seed, validate_x
from .models.forest import leaf_scores

EXACT_FEATURE_LIMIT = 20
# KernelSHAP's ridge when the plain normal system is singular
_RIDGE = 1e-8


@dataclass(frozen=True)
class ShapExplanation:
    """Attributions for a batch of instances.

    Attributes:
        method: "exact", "kernel", or "tree".
        classes: Model output classes, column order of phi.
        phi0: (n_classes,) expected score over the background.
        phi: (n_instances, n_features, n_classes) attributions.
        feature_names: Optional column names.
        meta: Method details (background size, sampling budget, ridge
            fallback flag, ...).
    """

    method: str
    classes: tuple[int, ...]
    phi0: np.ndarray
    phi: np.ndarray
    feature_names: Optional[tuple[str, ...]] = None
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return encode(SHAP, self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ShapExplanation":
        """The explanation of a `to_json_dict` form, decoded by `SHAP`."""
        return cls(**decode("shap", SHAP, d))


def _score_fn_for(model: TrainedModel) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(model, GbtModel):
        return model.margins
    if isinstance(model, (SvmModel, RfModel)):
        return model.decision_scores
    raise UnsupportedModel(f"cannot explain object of type {type(model).__name__}")


def _validate_inputs(model, x_explain, background):
    """(x, background) as float64 (n, d) and (B, d) matrices; B is at least 1."""
    x = validate_x(x_explain, model.n_features)
    bg = validate_x(background, model.n_features)
    if bg.shape[0] < 1:
        raise EmptyBackground("background must contain at least one row")
    return x, bg


def _coalition_values(
    model: TrainedModel, x: np.ndarray, background: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Mean interventional score per coalition row of z (m, d).

    Returns (n, m, C) for the rows of x (n, d), or (m, C) for one row x
    (d,). An SvmModel's mean comes from SvmModel.coalition_scores without
    building composite rows; any other model scores the composite rows of
    each row of x in chunks.
    """
    rows = np.atleast_2d(x)
    if isinstance(model, SvmModel):
        out = model.coalition_scores(rows, background, z)
        return out if x.ndim > 1 else out[0]
    score_fn = _score_fn_for(model)
    m = z.shape[0]
    b = background.shape[0]
    out = None
    chunk = max(1, 65536 // max(b, 1))
    buf = np.empty((min(chunk, m), b, rows.shape[1]))
    for start in range(0, m, chunk):
        zc = z[start : start + chunk].astype(bool)[:, np.newaxis, :]
        composite = buf[: zc.shape[0]]
        for i, row in enumerate(rows):
            composite[...] = background
            np.copyto(composite, row, where=zc)
            scores = score_fn(composite.reshape(zc.shape[0] * b, -1))
            scores = np.asarray(scores, dtype=np.float64).reshape(zc.shape[0], b, -1)
            if out is None:
                out = np.empty((rows.shape[0], m, scores.shape[2]))
            scores.mean(axis=1, out=out[i, start : start + zc.shape[0]])
    return out if x.ndim > 1 else out[0]


class _SubsetRows:
    """The (2^d, d) 0/1 matrix whose row s holds the bits of s, built one
    row slice at a time.

    _coalition_values and SvmModel.coalition_scores only take row slices
    of their coalition matrix, so exact enumeration holds one chunk of
    coalitions at a time instead of all 2^d.
    """

    def __init__(self, d: int):
        self.shape = (1 << d, d)

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        s = np.arange(start, stop, dtype=np.uint32)[:, np.newaxis]
        return ((s >> np.arange(self.shape[1], dtype=np.uint32)) & 1).astype(np.uint8)


def _exact_row(
    model: TrainedModel, x_row: np.ndarray, background: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact Shapley values (phi (d, C), phi0 (C,)) of one row by full subset enumeration.

    Cost grows as d * 2^d; refused beyond EXACT_FEATURE_LIMIT features.
    Memory is the (2^d, C) value table plus O(2^d) indices; coalitions
    are generated per chunk.
    """
    d = x_row.size
    if d > EXACT_FEATURE_LIMIT:
        raise TooManyFeatures(
            f"exact enumeration supports d <= {EXACT_FEATURE_LIMIT}, got {d}"
        )
    v = _coalition_values(model, x_row, background, _SubsetRows(d))
    popcount = np.zeros(1, dtype=np.uint8)
    for _ in range(d):
        popcount = np.concatenate([popcount, popcount + 1])
    f = math.factorial
    weights = np.array([f(s) * f(d - s - 1) / f(d) for s in range(d)])
    phi = np.zeros((d, v.shape[1]))
    low = np.arange((1 << d) >> 1)
    for i in range(d):
        # the subsets without feature i, ascending: low with a 0 bit inserted at i
        idx = low + ((low >> i) << i)
        w = weights[popcount[idx]]
        phi[i] = (v[idx | (1 << i)] - v[idx]).T @ w
    return phi, v[0].copy()


def _kernel_enumerates(d: int, n_samples: int) -> bool:
    """Whether all 2^d - 2 non-trivial coalitions fit the budget."""
    return (1 << d) - 2 <= n_samples


def _kernel_coalitions(d: int, n_samples: int, seed: int):
    """Coalition matrix and regression weights.

    Enumerates all 2^d - 2 non-trivial coalitions with the Shapley
    kernel weight when they fit the budget. Otherwise draws
    ceil(n_samples / 2) coalition sizes from the kernel's size marginal
    in one call, takes each subset as the first s positions of an
    argsort of uniforms, adds its complement (Covert & Lee 2021), and
    weights each distinct coalition by its count.
    """
    if _kernel_enumerates(d, n_samples):
        masks = np.arange(1, (1 << d) - 1)
        z = ((masks[:, np.newaxis] >> np.arange(d)) & 1).astype(np.float64)
        sizes = z.sum(axis=1).astype(np.int64)
        w = np.array([(d - 1) / (math.comb(d, s) * s * (d - s)) for s in sizes])
        return z, w, True
    rng = np.random.default_rng([seed])
    sizes = np.arange(1, d)
    p = (d - 1) / (sizes * (d - sizes))
    p = p / p.sum()
    n_draws = -(-n_samples // 2)
    drawn = rng.choice(sizes, size=n_draws, p=p)
    order = np.argsort(rng.random((n_draws, d)), axis=1)
    subsets = np.empty((n_draws, d), dtype=bool)
    np.put_along_axis(subsets, order, np.arange(d) < drawn[:, np.newaxis], axis=1)
    # count distinct coalitions on packed bytes: unlike int64 bitmasks
    # they hold any d
    packed = np.packbits(np.vstack([subsets, ~subsets]), axis=1)
    rows, counts = np.unique(packed, axis=0, return_counts=True)
    z = np.unpackbits(rows, axis=1, count=d).astype(np.float64)
    return z, counts.astype(np.float64), False


def _kernel_rows(
    model: TrainedModel, x: np.ndarray, background: np.ndarray, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, dict]:
    """KernelSHAP (phi (n, d, C), phi0 (C,), meta) of every row of x (n, d).

    All rows share one coalition sample, drawn with seed, so one normal
    matrix and one solve over all n * C right-hand sides serve them; each
    row's estimate has the distribution of a one-row call with that seed.
    The efficiency constraint is built in by substituting the last
    feature, so local accuracy holds for any coalition sample. On a
    singular normal system the solve is retried with _RIDGE * I and the
    fallback is recorded in meta.
    """
    check_value("n_samples", EXPLAIN["n_samples"], n_samples)
    n, d = x.shape
    score_fn = _score_fn_for(model)
    v0 = np.asarray(score_fn(background), dtype=np.float64).mean(axis=0)
    delta = np.asarray(score_fn(x), dtype=np.float64) - v0
    meta = {
        "n_background": int(background.shape[0]),
        "n_samples": int(n_samples),
        "enumerated": _kernel_enumerates(d, n_samples),
        "n_coalitions": 0,
        "ridge_fallback": False,
    }
    if d == 1 or n == 0:  # one feature takes all of delta; no rows, no attributions
        return np.repeat(delta[:, np.newaxis, :], d, axis=1), v0, meta
    z, w, _ = _kernel_coalitions(d, n_samples, seed)
    meta["n_coalitions"] = int(z.shape[0])
    v = _coalition_values(model, x, background, z)
    # substitute phi_{d-1} = delta - sum(others) into the weighted LS; the
    # target v - v0 - z_{d-1} delta is projected on aw without forming it
    v -= v0
    a = z[:, :-1] - z[:, -1:]
    aw = a * w[:, np.newaxis]
    lhs = aw.T @ a
    rhs = np.matmul(aw.T, v)
    rhs -= (aw.T @ z[:, -1])[np.newaxis, :, np.newaxis] * delta[:, np.newaxis, :]
    # one solve: the (d-1, n * C) right-hand sides side by side
    rhs = rhs.transpose(1, 0, 2).reshape(d - 1, -1)
    try:
        sol = np.linalg.solve(lhs, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        meta["ridge_fallback"] = True
        meta["ridge"] = _RIDGE
        try:
            sol = np.linalg.solve(lhs + _RIDGE * np.eye(d - 1), rhs)
        except np.linalg.LinAlgError as e:
            raise SingularSystem(
                f"kernel regression singular even with ridge {_RIDGE}"
            ) from e
        if not np.all(np.isfinite(sol)):
            raise SingularSystem(f"kernel regression singular even with ridge {_RIDGE}")
    sol = sol.reshape(d - 1, n, -1).transpose(1, 0, 2)
    phi = np.concatenate([sol, (delta - sol.sum(axis=1))[:, np.newaxis, :]], axis=1)
    return phi, v0, meta


# --- interventional TreeSHAP ---


def _model_leaf_tables(model) -> tuple[list, np.ndarray]:
    """(features, lo, hi, class values) of every reachable leaf, and the score offset."""
    if isinstance(model, RfModel):
        trees = [(t, leaf_scores(t) / len(model.trees)) for t in model.trees]
        offset = np.zeros(len(model.classes))
    elif isinstance(model, GbtModel):
        onehot = np.eye(len(model.classes))
        trees = [
            (t, (model.learning_rate * t.value)[:, np.newaxis] * onehot[c])
            for round_trees in model.trees
            for c, t in enumerate(round_trees)
        ]
        offset = model.base_scores.copy()
    else:
        raise UnsupportedModel(
            f"tree explanations need a tree ensemble, got {type(model).__name__}"
        )
    leaves = [
        (feats, lo, hi, values[leaf])
        for tree, values in trees
        for leaf, feats, lo, hi in tree.leaf_boxes()
    ]
    return leaves, offset


def _factorial_tables(max_n: int) -> tuple[np.ndarray, np.ndarray]:
    """W_in[a, c] = (a-1)! c! / (a+c)!; W_out[a, c] = a! (c-1)! / (a+c)! = W_in[c, a]."""
    f = math.factorial
    n = range(max_n + 1)
    w_in = np.array([[f(a - 1) * f(c) / f(a + c) if a else 0.0 for c in n] for a in n])
    return w_in, w_in.T


# TreeSHAP holds the weights of boxes with leaves still to come up to
# this many floats per cell of the explained (n, d) table
_BOX_FLOATS_PER_CELL = 32


def _box_weights(x, background, feats, lo, hi, w_in, w_out):
    """(n_base, contrib) of one leaf box lo < x[feats] <= hi.

    n_base counts the background rows inside the box; contrib (n, p, 1)
    is each row's Shapley weight per path feature, to be multiplied by
    the leaf's value, or None when no (row, background row) pair reaches
    the box.
    """
    b = background.shape[0]
    bf = background[:, feats].T
    b_ok = (bf > lo[:, np.newaxis]) & (bf <= hi[:, np.newaxis])
    n_base = int(b_ok.all(axis=0).sum())
    xf = x[:, feats]
    x_ok = ((xf > lo) & (xf <= hi))[:, :, np.newaxis]
    alive = ~np.any(~x_ok & ~b_ok, axis=1)
    if not alive.any():
        return n_base, None
    in_mask = x_ok & ~b_ok
    out_mask = ~x_ok & b_ok
    a_count = in_mask.sum(axis=1)
    c_count = out_mask.sum(axis=1)
    win_rows = np.where(alive, w_in[a_count, c_count], 0.0)
    wout_rows = np.where(alive, w_out[a_count, c_count], 0.0)
    # a matrix-vector product per row: each row sums as a one-row call
    in_total = np.matmul(in_mask.astype(np.float64), win_rows[:, :, np.newaxis])
    out_total = np.matmul(out_mask.astype(np.float64), wout_rows[:, :, np.newaxis])
    return n_base, (in_total - out_total) / b


def _tree_shap(model, x, background) -> tuple[np.ndarray, np.ndarray]:
    """phi (n, d, C) of every row of x (n, d) and phi0, in one pass over the leaves.

    Matches exact enumeration on the same background (up to float
    rounding) at a cost linear in distinct leaf boxes and background
    rows. Leaves of one box (the same path features and bounds) share
    its _box_weights: a box is weighed once, held while leaves of it are
    still to come, and dropped after its last one. Held weights stay
    within _BOX_FLOATS_PER_CELL * n * d floats; a box beyond that is
    weighed again at its next leaf. The leaves still add in their own
    order, so phi and phi0 are the same bit for bit as with every leaf
    weighed afresh.
    """
    leaves, offset = _model_leaf_tables(model)
    n = x.shape[0]
    b = background.shape[0]
    max_path = max((len(leaf[0]) for leaf in leaves), default=1)
    w_in, w_out = _factorial_tables(max(max_path, 1))
    phi = np.zeros((n, model.n_features, len(model.classes)))
    phi0 = np.zeros(len(model.classes))
    keys = [(feats.tobytes(), lo.tobytes(), hi.tobytes()) for feats, lo, hi, _ in leaves]
    uses = Counter(keys)
    held: dict = {}
    room = _BOX_FLOATS_PER_CELL * n * model.n_features
    for (feats, lo, hi, value), key in zip(leaves, keys):
        if feats.size == 0:
            phi0 += value
            continue
        uses[key] -= 1
        box = held.get(key) or _box_weights(x, background, feats, lo, hi, w_in, w_out)
        n_base, contrib = box
        size = 0 if contrib is None else contrib.size
        if key in held and not uses[key]:
            del held[key]
            room += size
        elif key not in held and uses[key] and size <= room:
            held[key] = box
            room -= size
        if n_base:
            phi0 += value * (n_base / b)
        if contrib is not None:
            phi[:, feats] += contrib * value
    phi0 += offset
    return phi, phi0


def explain(
    model: TrainedModel,
    x_explain,
    background,
    method: str = "auto",
    n_samples: int = 2048,
    seed: int = 0,
    feature_names: Optional[Sequence[str]] = None,
) -> ShapExplanation:
    """Attribute model scores for a batch of instances.

    Args:
        model: A trained svm/rf/gbt model.
        x_explain: (n, d) instances to explain.
        background: (B, d) reference rows for the interventional
            expectation.
        method: "auto" (tree for ensembles, kernel otherwise),
            "exact", "kernel", or "tree".
        n_samples: Coalition budget for the kernel method.
        seed: Seed for kernel coalition sampling: every instance is
            explained from the one coalition sample drawn with the child
            seed (seed, 0), so row i equals a one-row call with that seed.
        feature_names: Optional names, length d.
    """
    check_value("explain method", EXPLAIN["method"], method)
    x, bg = _validate_inputs(model, x_explain, background)
    if method == "auto":
        method = "tree" if isinstance(model, (RfModel, GbtModel)) else "kernel"
    if feature_names is not None and len(feature_names) != x.shape[1]:
        raise DimensionMismatch(
            f"{len(feature_names)} feature names for {x.shape[1]} features"
        )
    meta: dict = {"n_background": int(bg.shape[0])}
    if method == "tree":
        phi, phi0 = _tree_shap(model, x, bg)
    elif method == "exact":
        phi = np.empty(x.shape + (len(model.classes),))
        for i, row in enumerate(x):
            phi[i], phi0 = _exact_row(model, row, bg)
        if not len(x):  # _exact_row's phi0: the empty coalition's value
            empty = np.zeros((1, x.shape[1]), dtype=np.uint8)
            phi0 = _coalition_values(model, bg[0], bg, empty)[0]
    else:
        phi, phi0, meta = _kernel_rows(model, x, bg, n_samples, child_seed(seed, 0))
    return ShapExplanation(
        method=method,
        classes=tuple(model.classes),
        phi0=np.asarray(phi0, dtype=np.float64),
        phi=phi,
        feature_names=(tuple(feature_names) if feature_names else None),
        meta=meta,
    )


def global_ranking(
    explanation: ShapExplanation, class_index: Optional[int] = None
) -> tuple[tuple[str, float], ...]:
    """(feature, mean |phi|) pairs over instances (and classes), descending.

    Ties keep the original feature order.
    """
    mag = np.abs(explanation.phi)
    if class_index is not None:
        if not 0 <= class_index < mag.shape[2]:
            raise ShapeMismatch(f"class index {class_index} out of range")
        scores = mag[:, :, class_index].mean(axis=0)
    else:
        scores = mag.mean(axis=(0, 2))
    names = explanation.feature_names or tuple(
        f"x{i}" for i in range(scores.size)
    )
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    return tuple((names[i], float(scores[i])) for i in order)
