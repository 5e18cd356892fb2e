"""Shared input validation, seed derivation and tree helpers for the classifiers."""
from __future__ import annotations

import math
import numbers

import numpy as np

from ..errors import DimensionMismatch, InvalidConfig, LengthMismatch, NonFinite, SingleClass


def require_int(name: str, value, low: int) -> None:
    """Raise InvalidConfig unless value is an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InvalidConfig(f"{name} must be an integer >= {low}, got {value!r}")


def require_real(name: str, value, low: float = 0.0, strict: bool = False) -> None:
    """Raise InvalidConfig unless value is a finite number >= low (> low if strict)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value < low
        or (strict and value == low)
    ):
        bound = ">" if strict else ">="
        raise InvalidConfig(f"{name} must be a finite number {bound} {low:g}, got {value!r}")


def validate_xy(x, y) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Check a training pair and return (x, y, sorted distinct classes)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64).ravel()
    if x.ndim != 2 or x.shape[0] < 1:
        raise DimensionMismatch(f"x must be a non-empty (n, d) matrix, got {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise LengthMismatch(f"{x.shape[0]} rows but {y.shape[0]} labels")
    if not np.all(np.isfinite(x)):
        raise NonFinite("training features contain non-finite values")
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
        raise NonFinite("features contain non-finite values")
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


def leaf_rows(root, x: np.ndarray):
    """Yield (leaf, row indices) as the rows of x partition down a tree."""
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            yield node, idx
        elif idx.size:
            go_left = x[idx, node.feature] <= node.threshold
            stack += [(node.right, idx[~go_left]), (node.left, idx[go_left])]
