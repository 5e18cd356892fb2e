"""Shared input validation, seed derivation and the tree of both ensembles."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch, LengthMismatch, NonFiniteData, SingleClass


def validate_xy(x, y) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Check a training pair and return (x, y, sorted distinct classes)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64).ravel()
    if x.ndim != 2 or x.shape[0] < 1:
        raise DimensionMismatch(f"x must be a non-empty (n, d) matrix, got {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise LengthMismatch(f"{x.shape[0]} rows but {y.shape[0]} labels")
    if not np.all(np.isfinite(x)):
        raise NonFiniteData("training features contain non-finite values")
    classes = tuple(int(c) for c in np.unique(y))
    if len(classes) < 2:
        raise SingleClass(f"training labels contain {len(classes)} class(es)")
    return x, y, classes


def validate_x(x, n_features: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[np.newaxis, :]
    if x.ndim != 2 or x.shape[1] != n_features:
        raise DimensionMismatch(
            f"expected (n, {n_features}) features, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise NonFiniteData("features contain non-finite values")
    return x


def child_seed(*parts: int) -> int:
    """Deterministic child seed from a (master seed, branch...) tuple."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def first_best_split(gains: np.ndarray, sv: np.ndarray) -> tuple[float, int, float]:
    """(gain, column, midpoint threshold) of the split a scan would keep.

    gains[pos, f] is the gain of cutting sorted column f of sv (m, f)
    after pos, unless sv repeats there. A feature-major scan keeps the
    first gain beating the best so far (from 0) by more than 1e-15; only
    gains above every earlier one can, so it replays over those alone.
    """
    flat = np.where(sv[1:] != sv[:-1], gains, -np.inf).T.ravel()
    running = np.maximum.accumulate(np.concatenate(([0.0], flat[:-1])))
    best, where = 0.0, -1
    for i in np.flatnonzero(flat > running):
        if flat[i] > best + 1e-15:
            best, where = float(flat[i]), int(i)
    if where < 0:
        return 0.0, -1, 0.0
    col, pos = divmod(where, sv.shape[0] - 1)
    return best, col, float((sv[pos, col] + sv[pos + 1, col]) / 2.0)


@dataclass(frozen=True)
class Tree:
    """Binary tree in flat arrays, in scikit-learn's ``tree_`` layout.

    Node 0 is the root; a row at node i goes to left[i] when
    x[feature[i]] <= threshold[i], else to right[i]. left[i] == -1 marks
    a leaf, whose value[i] holds forest class counts or a boosting weight.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf index of every row of x, all rows descending one level at a time."""
        at = np.zeros(x.shape[0], dtype=np.intp)
        rows = np.arange(x.shape[0])
        while True:
            rows = rows[self.left[at[rows]] >= 0]
            if not rows.size:
                return at
            node = at[rows]
            go_left = x[rows, self.feature[node]] <= self.threshold[node]
            at[rows] = np.where(go_left, self.left[node], self.right[node])

    def leaf_boxes(self):
        """Yield (leaf, features, lo, hi) for each leaf a row can reach.

        A row reaches the leaf when lo < x[features] <= hi; features are
        sorted, and branches whose box is empty are pruned.
        """
        stack = [(0, {})]
        while stack:
            i, bounds = stack.pop()
            if self.left[i] < 0:
                feats = np.array(sorted(bounds), dtype=np.int64)
                lo, hi = np.array([bounds[f] for f in feats]).reshape(-1, 2).T
                yield i, feats, lo, hi
                continue
            f, t = int(self.feature[i]), float(self.threshold[i])
            lo, hi = bounds.get(f, (-np.inf, np.inf))
            if hi > t:
                stack.append((self.right[i], {**bounds, f: (max(lo, t), hi)}))
            if lo < t:
                stack.append((self.left[i], {**bounds, f: (lo, min(hi, t))}))

    @classmethod
    def grow(cls, x: np.ndarray, rows: np.ndarray, node) -> "Tree":
        """The tree grown from rows, numbered as `from_json_dict` numbers its JSON.

        node(rows, depth) gives a node's (leaf value, feature, threshold), feature
        -1 and threshold 0.0 for a leaf; the rows with x[rows, feature] <= threshold
        go left. A stack visits each node before its children and the left subtree
        before the right, as a recursion would; internal nodes keep value 0.
        """
        nodes, left, right = [], [], []  # nodes[i] is node's (value, feature, threshold)
        stack = [(rows, 0, -1)]  # (rows, depth, the node this is the right child of)
        while stack:
            rows, depth, parent = stack.pop()
            if parent >= 0:
                right[parent] = len(nodes)
            nodes.append(node(rows, depth))
            _, f, t = nodes[-1]
            left.append(len(nodes) if f >= 0 else -1)
            right.append(-1)
            if f >= 0:
                go_left = x[rows, f] <= t
                stack += [(rows[~go_left], depth + 1, len(nodes) - 1),
                          (rows[go_left], depth + 1, -1)]
        values, feature, threshold = zip(*nodes)
        left = np.array(left, dtype=np.intp)
        value = np.array(values, dtype=np.float64)
        value[left >= 0] = 0.0
        return cls(np.array(feature, dtype=np.intp), np.array(threshold, dtype=np.float64),
                   left, np.array(right, dtype=np.intp), value)

    def to_json_dict(self, leaf_encoder) -> dict:
        """model.json's nested form; leaf_encoder(value[i]) gives a leaf's dict."""

        def node(i):
            if self.left[i] < 0:
                return leaf_encoder(self.value[i])
            return {
                "feature": int(self.feature[i]),
                "threshold": float(self.threshold[i]),
                "left": node(self.left[i]),
                "right": node(self.right[i]),
            }

        return node(0)

    @classmethod
    def from_json_dict(cls, d: dict, leaf_key: str, n_features: int, leaf_shape=()) -> "Tree":
        """Number model.json's nested nodes depth first, left before right.

        A ValueError unless each split feature is an integer in [0, n_features),
        each threshold and leaf value a finite number and each leaf of leaf_shape,
        checked over the tree's arrays, not node by node."""
        nodes, children = [], []

        def add(node) -> int:
            nodes.append(node)
            children.append([-1, -1])
            i = len(nodes) - 1
            if "feature" in node:
                children[i] = [add(node["left"]), add(node["right"])]
            return i

        add(d)
        left, right = np.array(children, dtype=np.intp).T
        leaves = np.array([n[leaf_key] for n in nodes if leaf_key in n])
        feature = np.array([n.get("feature", -1) for n in nodes])
        threshold = np.array([n.get("threshold", 0.0) for n in nodes])
        split = feature[left >= 0]
        if (feature.dtype.kind != "i" or threshold.dtype.kind not in "if"
                or leaves.dtype.kind not in "if" or leaves.shape[1:] != leaf_shape
                or np.any((split < 0) | (split >= n_features))
                or not (np.isfinite(threshold).all() and np.isfinite(leaves).all())):
            raise ValueError(f"tree nodes need integer split features in [0, {n_features}), "
                             f"finite thresholds and finite leaf {leaf_key} of shape {leaf_shape}")
        value = np.zeros((len(nodes),) + leaf_shape)
        value[left < 0] = leaves
        return cls(
            feature=feature.astype(np.intp, copy=False),
            threshold=threshold.astype(np.float64, copy=False),
            left=left,
            right=right,
            value=value,
        )
