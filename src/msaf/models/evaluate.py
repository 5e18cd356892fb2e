"""Classification metrics, stratified cross-validation, grid search.

Per-class precision, recall, and F1 treat an undefined ratio (empty
denominator) as 0; macro metrics are unweighted means over all classes.
Cross-validation folds are stratified per class by a seeded shuffle with
largest-remainder allocation, so every fold's class counts are within
one sample of proportional.
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ClassTooSmall, LengthMismatch, ShapeMismatch, SingleClass
from ._common import child_seed


@dataclass(frozen=True)
class EvalReport:
    """Metrics for one prediction set (or pooled over CV folds).

    confusion[i, j] counts samples of true class i predicted as j.
    """

    class_names: tuple[str, ...]
    confusion: np.ndarray
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    fold_metrics: tuple[dict, ...] = ()
    mean_metrics: dict = field(default_factory=dict)
    std_metrics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "class_names": list(self.class_names),
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "accuracy": float(self.accuracy),
            "precision": [float(v) for v in self.precision],
            "recall": [float(v) for v in self.recall],
            "f1": [float(v) for v in self.f1],
            "macro_precision": float(self.macro_precision),
            "macro_recall": float(self.macro_recall),
            "macro_f1": float(self.macro_f1),
        }
        if self.fold_metrics:
            out["fold_metrics"] = [dict(m) for m in self.fold_metrics]
            out["mean_metrics"] = dict(self.mean_metrics)
            out["std_metrics"] = dict(self.std_metrics)
        return out

    def format_table(self) -> str:
        lines = [f"{'class':>12} {'precision':>10} {'recall':>10} {'f1':>10}"]
        for i, name in enumerate(self.class_names):
            lines.append(
                f"{name:>12} {self.precision[i]:>10.4f} "
                f"{self.recall[i]:>10.4f} {self.f1[i]:>10.4f}"
            )
        lines.append(
            f"{'macro':>12} {self.macro_precision:>10.4f} "
            f"{self.macro_recall:>10.4f} {self.macro_f1:>10.4f}"
        )
        lines.append(f"accuracy: {self.accuracy:.4f}")
        return "\n".join(lines)


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    nz = den > 0
    out[nz] = num[nz] / den[nz]
    return out


def evaluate(
    y_true,
    y_pred,
    n_classes: Optional[int] = None,
    class_names: Optional[Sequence[str]] = None,
) -> EvalReport:
    """Confusion matrix and derived metrics.

    Undefined per-class ratios count as 0 and still enter the macro
    means, which average over all n_classes classes unweighted.
    """
    y_true = np.asarray(y_true, dtype=np.int64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.int64).ravel()
    if y_true.size != y_pred.size:
        raise LengthMismatch(f"{y_true.size} true labels but {y_pred.size} predictions")
    if y_true.size == 0:
        raise ShapeMismatch("cannot evaluate zero predictions")
    if n_classes is None:
        n_classes = (
            len(class_names)
            if class_names is not None
            else int(max(y_true.max(), y_pred.max())) + 1
        )
    if y_true.min() < 0 or y_pred.min() < 0 or max(y_true.max(), y_pred.max()) >= n_classes:
        raise ShapeMismatch(f"labels outside [0, {n_classes})")
    if class_names is None:
        class_names = tuple(str(i) for i in range(n_classes))
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)
    diag = np.diag(confusion).astype(np.float64)
    precision = _safe_div(diag, confusion.sum(axis=0).astype(np.float64))
    recall = _safe_div(diag, confusion.sum(axis=1).astype(np.float64))
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    return EvalReport(
        class_names=tuple(class_names),
        confusion=confusion,
        accuracy=float(diag.sum() / y_true.size),
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
    )


def stratified_fold_indices(
    y: np.ndarray, n_folds: int, seed: int = 0
) -> list[np.ndarray]:
    """Per-fold row indices, stratified by class.

    Each class's rows are shuffled with a child seed and dealt into
    n_folds chunks (first `len % n_folds` chunks one larger), and the
    chunk-to-fold mapping rotates with the class position so the
    remainder does not always land in fold 0.

    Raises:
        ClassTooSmall: if any class has fewer members than n_folds.
    """
    y = np.asarray(y, dtype=np.int64).ravel()
    if n_folds < 2:
        raise ShapeMismatch(f"need at least 2 folds, got {n_folds}")
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for pos, cls in enumerate(np.unique(y)):
        rows = np.nonzero(y == cls)[0]
        if rows.size < n_folds:
            raise ClassTooSmall(
                f"class {int(cls)} has {rows.size} samples, fewer than "
                f"{n_folds} folds"
            )
        rng = np.random.default_rng(child_seed(seed, pos))
        shuffled = rng.permutation(rows)
        chunks = np.array_split(shuffled, n_folds)
        for f in range(n_folds):
            folds[f].extend(int(i) for i in chunks[(f + pos) % n_folds])
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def stratified_kfold_cv(
    trainer: Callable[[np.ndarray, np.ndarray, int], object],
    x,
    y,
    n_folds: int = 5,
    seed: int = 0,
    class_names: Optional[Sequence[str]] = None,
) -> EvalReport:
    """Cross-validate a trainer callable (x, y, seed) -> model.

    Returns a report whose confusion matrix pools every fold's held-out
    predictions; fold_metrics carries per-fold accuracy and macro
    scores with their mean and population std.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64).ravel()
    if x.shape[0] != y.size:
        raise LengthMismatch(f"{x.shape[0]} rows but {y.size} labels")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClass("cross-validation needs at least two classes")
    n_classes = int(y.max()) + 1
    folds = stratified_fold_indices(y, n_folds, seed)
    y_true_all: list[np.ndarray] = []
    y_pred_all: list[np.ndarray] = []
    fold_metrics = []
    for f, test_rows in enumerate(folds):
        train_mask = np.ones(y.size, dtype=bool)
        train_mask[test_rows] = False
        model = trainer(x[train_mask], y[train_mask], child_seed(seed, 1000 + f))
        pred = np.asarray(model.predict(x[test_rows]), dtype=np.int64)
        y_true_all.append(y[test_rows])
        y_pred_all.append(pred)
        rep = evaluate(y[test_rows], pred, n_classes=n_classes)
        fold_metrics.append(
            {
                "fold": f,
                "accuracy": rep.accuracy,
                "macro_precision": rep.macro_precision,
                "macro_recall": rep.macro_recall,
                "macro_f1": rep.macro_f1,
            }
        )
    pooled = evaluate(
        np.concatenate(y_true_all),
        np.concatenate(y_pred_all),
        n_classes=n_classes,
        class_names=class_names,
    )
    keys = ("accuracy", "macro_precision", "macro_recall", "macro_f1")
    mean_metrics = {k: float(np.mean([m[k] for m in fold_metrics])) for k in keys}
    std_metrics = {k: float(np.std([m[k] for m in fold_metrics])) for k in keys}
    return dataclasses.replace(
        pooled, fold_metrics=tuple(fold_metrics), mean_metrics=mean_metrics,
        std_metrics=std_metrics,
    )


DEFAULT_GRIDS: dict[str, dict[str, tuple]] = {
    "svm": {"c": (0.1, 1.0, 10.0, 100.0), "gamma": (0.0001, 0.001, 0.05)},
    "rf": {
        "n_trees": (100, 200, 300),
        "max_depth": (5, 10, 15),
        "min_samples_split": (2, 4),
    },
    "gbt": {
        "n_rounds": (100, 200),
        "learning_rate": (0.0001, 0.001, 0.05),
        "max_depth": (3, 6, 10),
    },
}


@dataclass(frozen=True)
class GridSearchResult:
    best_params: dict
    best_score: float
    results: tuple[dict, ...]


def grid_search(
    make_trainer: Callable[[dict], Callable],
    x,
    y,
    grid: dict[str, Sequence],
    n_folds: int = 5,
    seed: int = 0,
) -> GridSearchResult:
    """Exhaustive search over a parameter grid by CV mean accuracy.

    Combinations are visited in the grid's key order (itertools
    product); ties keep the earlier combination. Every combination sees
    the same folds.
    """
    if not grid:
        raise ShapeMismatch("parameter grid is empty")
    keys = list(grid.keys())
    best: Optional[dict] = None
    best_score = -np.inf
    results = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        params = dict(zip(keys, combo))
        report = stratified_kfold_cv(make_trainer(params), x, y, n_folds, seed)
        score = report.mean_metrics["accuracy"]
        results.append(
            {
                "params": params,
                "mean_accuracy": score,
                "std_accuracy": report.std_metrics["accuracy"],
                "macro_f1": report.macro_f1,
            }
        )
        if score > best_score:
            best_score = score
            best = params
    return GridSearchResult(
        best_params=best, best_score=float(best_score), results=tuple(results)
    )
