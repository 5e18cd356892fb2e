"""Gradient-boosted trees with second-order (Newton) objectives.

Multiclass boosting with a softmax cross-entropy loss: each round fits
one regression tree per class on that class's gradient g = p - 1[y=c]
and hessian h = p(1-p). Leaf weights are -G/(H+lambda); a split is kept
only when 1/2 [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)]
exceeds the per-leaf penalty gamma. Scores start from the log class
prior, rounds add learning_rate times the leaf weight, and early
stopping watches the cross-entropy of a held-out tail of a seeded
shuffle, truncating the model to its best round.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from ..config import GBT_MODEL, GBT_TREE, PARAMS, check, decode, encode
from ..errors import Diverged, TooFewSamplesForValidation
from ._common import Tree, first_best_split, validate_x, validate_xy


def _softmax(margins: np.ndarray) -> np.ndarray:
    z = margins - margins.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _leaf_weight(g_sum: float, h_sum: float, lam: float) -> float:
    return -g_sum / max(h_sum + lam, 1e-12)


def _score_term(g_sum, h_sum, lam):
    return g_sum * g_sum / np.maximum(h_sum + lam, 1e-12)


# a margin past this magnitude means the fit diverged: softmax saturates
# past about 745 already, and scoring, TreeSHAP and rankings sum
# margin-sized terms, which would overflow near the float maximum
_MARGIN_LIMIT = 1e300
# a fit's node cache stops taking nodes once it holds this many row ids
# per cell of the (n, d) table
_CACHE_IDS_PER_CELL = 32


class _NodeCache(dict):
    """One fit's presorted nodes, keyed by ``rows.tobytes()``.

    An entry is the node's rows sorted by each column, (m, d), and x's
    values in that order: neither depends on g or h, and the trees of one
    fit split the same row sets again and again. A node is added only
    while its row ids fit in ``room``, the ids still free; a node that
    does not fit is sorted afresh each time.
    """

    def __init__(self, room: int):
        super().__init__()
        self.room = room

    def presorted(self, x, rows):
        key = rows.tobytes()
        node = self.get(key)
        if node is None:
            xr = x[rows]
            order = np.argsort(xr, axis=0, kind="stable")
            node = rows[order], np.take_along_axis(xr, order, axis=0)
            if node[0].size <= self.room:
                self[key] = node
                self.room -= node[0].size
        return node


def _node(x, g, h, rows, depth, max_depth, lam, gamma_leaf, cache):
    """The (leaf weight, split feature, threshold) of the regression tree node on rows.

    The node's sort comes from cache (a _NodeCache); only the g/h prefix
    sums, the gains and the split choice are computed per tree, so a
    cached node gives the same split bit for bit.
    """
    g_total = float(g[rows].sum())
    h_total = float(h[rows].sum())
    weight = _leaf_weight(g_total, h_total, lam)
    if depth >= max_depth or rows.size < 2:
        return weight, -1, 0.0
    # prefix sums over every presorted column at once: cumsum adds in
    # sorted order, so each left sum is the running sum of a scan
    sorted_rows, sv = cache.presorted(x, rows)
    gl = np.cumsum(g[sorted_rows], axis=0)[:-1]
    hl = np.cumsum(h[sorted_rows], axis=0)[:-1]
    gains = 0.5 * (
        _score_term(gl, hl, lam)
        + _score_term(g_total - gl, h_total - hl, lam)
        - _score_term(g_total, h_total, lam)
    ) - gamma_leaf
    return (weight, *first_best_split(gains, sv)[1:])


@dataclass(frozen=True)
class GbtModel:
    """Boosted ensemble; trees[r][c] is round r's tree for class c."""

    classes: tuple[int, ...]
    n_features: int
    base_scores: np.ndarray
    learning_rate: float
    trees: tuple[tuple[Tree, ...], ...]
    best_round: int
    train_loss_trace: tuple[float, ...] = ()
    valid_loss_trace: tuple[float, ...] = ()
    params: dict = field(default_factory=dict)

    def margins(self, x) -> np.ndarray:
        """Pre-softmax additive scores, (n, n_classes)."""
        x = validate_x(x, self.n_features)
        out = np.tile(self.base_scores, (x.shape[0], 1))
        for round_trees in self.trees:
            for c, tree in enumerate(round_trees):
                out[:, c] += self.learning_rate * tree.value[tree.apply(x)]
        return out

    def decision_scores(self, x) -> np.ndarray:
        """Softmax class probabilities."""
        return _softmax(self.margins(x))

    def predict(self, x) -> np.ndarray:
        return np.asarray(self.classes)[np.argmax(self.margins(x), axis=1)]

    def to_json_dict(self) -> dict:
        return {"kind": "gbt", **encode(GBT_MODEL, self)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GbtModel":
        """The model of a `to_json_dict` form, decoded by `GBT_MODEL`; a ValueError, too, if a
        class's |base score| plus learning_rate times the sum of each round's largest |leaf
        weight| passes _MARGIN_LIMIT, the margin a fit diverges at."""
        d = decode("gbt model", GBT_MODEL, d)
        trees = tuple(tuple(Tree.from_json_dict(t, GBT_TREE, d["n_features"]) for t in row)
                      for row in d["trees"])
        with np.errstate(over="ignore"):  # an overflow to inf fails the bound
            reach = np.abs(d["base_scores"]) + d["learning_rate"] * np.sum(
                [[np.abs(t.value).max() for t in row] for row in trees], axis=0)
        if not (reach <= _MARGIN_LIMIT).all():
            raise ValueError(f"gbt margins could reach {reach.max():g}, past {_MARGIN_LIMIT:g}")
        traces = {k: tuple(d[k].tolist()) for k in ("train_loss_trace", "valid_loss_trace")}
        return cls(**{**d, **traces, "trees": trees})


def _cross_entropy(probs: np.ndarray, y_idx: np.ndarray) -> float:
    picked = np.clip(probs[np.arange(y_idx.size), y_idx], 1e-300, None)
    return float(-np.mean(np.log(picked)))


def train_gbt(
    x,
    y,
    n_rounds: int = 100,
    learning_rate: float = 0.05,
    max_depth: int = 3,
    lam: float = 1.0,
    gamma_leaf: float = 0.0,
    valid_fraction: float = 0.2,
    patience: int = 10,
    seed: int = 0,
) -> GbtModel:
    """Train a softmax gradient-boosted tree ensemble.

    Early stopping is active when valid_fraction > 0 and patience > 0:
    the last round(n * valid_fraction) rows of a seeded shuffle form the
    validation split, training stops once the validation cross-entropy
    has not improved for `patience` rounds, and the returned model is
    truncated to the best round. Base scores are the log class priors
    of the full input.

    One node cache serves the whole fit: a node whose rows an earlier
    tree already sorted reuses that sort, so the trees are the same bit
    for bit as with every node sorted afresh. The cache takes nodes until
    it holds 32 * n * d row ids (_CACHE_IDS_PER_CELL per cell of x), then
    sorts the rest afresh.

    Raises:
        TooFewSamplesForValidation: early stopping requested with n < 4.
        Diverged: a round left a margin beyond _MARGIN_LIMIT (1e300) or NaN.
    """
    x, y, classes = validate_xy(x, y)
    n, d = x.shape
    params = {
        "n_rounds": n_rounds, "learning_rate": learning_rate, "max_depth": max_depth,
        "lam": lam, "gamma_leaf": gamma_leaf, "valid_fraction": valid_fraction,
        "patience": patience,
    }
    check("gbt", PARAMS["gbt"], params)
    y_idx = np.searchsorted(classes, y)
    n_classes = len(classes)

    early_stopping = valid_fraction > 0.0 and patience > 0
    if early_stopping:
        if n < 4:
            raise TooFewSamplesForValidation(
                f"early stopping needs n >= 4, got {n}; set valid_fraction=0"
            )
        perm = np.random.default_rng([seed]).permutation(n)
        n_valid = min(max(1, round(n * valid_fraction)), n - 2)
        train_rows, valid_rows = perm[:-n_valid], perm[-n_valid:]
    else:
        train_rows, valid_rows = np.arange(n), np.arange(0)

    priors = np.bincount(y_idx, minlength=n_classes) / n
    base = np.log(np.clip(priors, 1e-12, None))
    margins = np.tile(base, (n, 1))
    all_trees: list[tuple[Tree, ...]] = []
    train_trace: list[float] = []
    valid_trace: list[float] = []
    best_loss, best_round, since_best = np.inf, 0, 0

    cache = _NodeCache(_CACHE_IDS_PER_CELL * n * d)
    for r in range(n_rounds):
        probs = _softmax(margins)
        round_trees = []
        for c in range(n_classes):
            g = probs[:, c] - (y_idx == c)
            h = probs[:, c] * (1.0 - probs[:, c])
            tree = Tree.grow(x, train_rows, lambda rows, depth: _node(
                x, g, h, rows, depth, max_depth, lam, gamma_leaf, cache))
            round_trees.append(tree)
            with np.errstate(over="ignore"):
                margins[:, c] += learning_rate * tree.value[tree.apply(x)]
        if not (np.abs(margins) <= _MARGIN_LIMIT).all():  # NaN fails too
            raise Diverged(
                f"gbt margins left [-{_MARGIN_LIMIT:g}, {_MARGIN_LIMIT:g}] in round {r + 1}; "
                "lower learning_rate or raise lam"
            )
        all_trees.append(tuple(round_trees))
        probs = _softmax(margins)
        train_trace.append(_cross_entropy(probs[train_rows], y_idx[train_rows]))
        if early_stopping:
            v_loss = _cross_entropy(probs[valid_rows], y_idx[valid_rows])
            valid_trace.append(v_loss)
            if v_loss < best_loss - 1e-12:
                best_loss, best_round, since_best = v_loss, len(all_trees), 0
            else:
                since_best += 1
                if since_best >= patience:
                    break
        else:
            best_round = len(all_trees)

    return GbtModel(
        classes=classes,
        n_features=d,
        base_scores=base,
        learning_rate=float(learning_rate),
        trees=tuple(all_trees[:best_round]),
        best_round=best_round,
        train_loss_trace=tuple(train_trace),
        valid_loss_trace=tuple(valid_trace),
        params={**params, "seed": seed},
    )
