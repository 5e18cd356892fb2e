"""Random forest with Gini-gain axis-aligned splits.

Each tree trains on a bootstrap resample (optional), each split
considers ceil(sqrt(d)) features drawn without replacement (optional
override), and candidate thresholds are midpoints between consecutive
distinct sorted values. Leaves keep raw class histograms; prediction
averages the normalized leaf histograms over trees, so the returned
class scores sum to one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..config import PARAMS, RF_MODEL, RF_TREE, check, decode, encode, require
from ._common import Tree, child_seed, first_best_split, validate_x, validate_xy


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each non-empty count vector along the last axis.

    The stacked matmul takes the same dot product as `p @ p`, bit for bit.
    """
    p = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - np.matmul(p[..., np.newaxis, :], p[..., :, np.newaxis])[..., 0, 0]


def _best_split(x, y_idx, rows, n_classes, mtry, rng):
    """Best (gain, feature, threshold) over a random feature subset."""
    d = x.shape[1]
    feats = np.sort(rng.choice(d, size=mtry, replace=False))
    parent_counts = np.bincount(y_idx[rows], minlength=n_classes).astype(np.float64)
    n = rows.size
    xr = x[np.ix_(rows, feats)]
    order = np.argsort(xr, axis=0, kind="stable")
    sv = np.take_along_axis(xr, order, axis=0)
    # class counts left of every cut of every column, by prefix sums
    onehot = y_idx[rows][order][..., np.newaxis] == np.arange(n_classes)
    left = np.cumsum(onehot, axis=0, dtype=np.float64)[:-1]
    n_left = np.arange(1, n)[:, np.newaxis]
    gains = _gini(parent_counts) - (
        n_left * _gini(left) + (n - n_left) * _gini(parent_counts - left)
    ) / n
    gain, col, threshold = first_best_split(gains, sv)
    return gain, (int(feats[col]) if col >= 0 else -1), threshold


def leaf_scores(tree: Tree) -> np.ndarray:
    """Each node's class counts normalized to sum to one; zeros where empty."""
    total = tree.value.sum(axis=1, keepdims=True)
    return np.divide(tree.value, total, out=np.zeros_like(tree.value), where=total > 0)


@dataclass(frozen=True)
class RfModel:
    """Trained forest; scores are averaged normalized leaf histograms."""

    classes: tuple[int, ...]
    n_features: int
    trees: tuple[Tree, ...]
    params: dict = field(default_factory=dict)

    def decision_scores(self, x) -> np.ndarray:
        x = validate_x(x, self.n_features)
        out = np.zeros((x.shape[0], len(self.classes)))
        for tree in self.trees:
            out += leaf_scores(tree)[tree.apply(x)]
        return out / len(self.trees)

    def predict(self, x) -> np.ndarray:
        return np.asarray(self.classes)[np.argmax(self.decision_scores(x), axis=1)]

    def to_json_dict(self) -> dict:
        return {"kind": "rf", **encode(RF_MODEL, self)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "RfModel":
        """The model of a `to_json_dict` form, decoded by `RF_MODEL`; a ValueError, too, without
        a tree or with a leaf whose counts of each class are not >= 0 with a positive sum."""
        d = decode("rf model", RF_MODEL, d)
        sizes = {"n_classes": len(d["classes"])}
        trees = tuple(Tree.from_json_dict(t, RF_TREE, d["n_features"], sizes) for t in d["trees"])
        counts = [t.value[t.left < 0] for t in trees]
        if not trees or any((c < 0).any() or (c.sum(axis=1) <= 0).any() for c in counts):
            raise ValueError("an rf model needs a tree, and leaves counting >= 0 rows of "
                             "each class and some row")
        return cls(**{**d, "trees": trees})


def train_rf(
    x,
    y,
    n_trees: int = 100,
    max_depth: Optional[int] = 10,
    min_samples_split: int = 2,
    seed: int = 0,
    bootstrap: bool = True,
    n_features_per_split: Optional[int] = None,
) -> RfModel:
    """Train a random forest.

    Args:
        x: (n, d) feature matrix.
        y: (n,) integer class labels, at least two distinct.
        n_trees: Number of trees.
        max_depth: Depth cap; None grows each node until it stops splitting.
        min_samples_split: Smallest node that may still split.
        seed: Master seed; tree t derives its own child seed.
        bootstrap: Resample n rows with replacement per tree.
        n_features_per_split: Features considered per split; defaults
            to ceil(sqrt(d)).
    """
    x, y, classes = validate_xy(x, y)
    n, d = x.shape
    params = {
        "n_trees": n_trees, "max_depth": max_depth, "min_samples_split": min_samples_split,
        "bootstrap": bootstrap, "n_features_per_split": n_features_per_split,
    }
    check("rf", PARAMS["rf"], params)
    mtry = n_features_per_split if n_features_per_split else math.ceil(math.sqrt(d))
    require(mtry <= d, f"features per split must be in [1, {d}], got {mtry}")
    y_idx = np.searchsorted(classes, y)
    depth_cap = math.inf if max_depth is None else max_depth

    def node(rows, depth):  # rng is the generator of the tree being grown
        counts = np.bincount(y_idx[rows], minlength=len(classes))
        if rows.size < min_samples_split or depth >= depth_cap or np.count_nonzero(counts) <= 1:
            return counts, -1, 0.0
        return (counts, *_best_split(x, y_idx, rows, len(classes), mtry, rng)[1:])

    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(child_seed(seed, t))
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(Tree.grow(x, rows, node))
    return RfModel(
        classes=classes,
        n_features=d,
        trees=tuple(trees),
        params={**params, "seed": seed},
    )
