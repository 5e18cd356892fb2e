"""Classifiers, metrics, and model selection.

Three from-scratch classifiers share a minimal interface: a trainer
function, `predict(x) -> class labels`, and `decision_scores(x) ->
(n, n_classes)` scores. `make_trainer` builds a trainer from the kind
string used throughout configs and the CLI.
"""
from __future__ import annotations

from typing import Callable, Union

from ..config import PARAMS, check, require
from ..errors import UnsupportedModel
from .boosted import GbtModel, train_gbt
from .evaluate import (
    DEFAULT_GRIDS,
    EvalReport,
    GridSearchResult,
    evaluate,
    grid_search,
    stratified_fold_indices,
    stratified_kfold_cv,
)
from .forest import RfModel, train_rf
from .svm import SvmModel, train_svm_ovr

TrainedModel = Union[SvmModel, RfModel, GbtModel]

_TRAINERS: dict[str, Callable] = {
    "svm": train_svm_ovr,
    "rf": train_rf,
    "gbt": train_gbt,
}

MODEL_KINDS = tuple(sorted(_TRAINERS))


def check_params(kind: str, params: dict, grid: dict | None = None) -> None:
    """Raise a ConfigError unless params and every grid value suit kind.

    Each given key, and each value of a grid entry (a non-empty list),
    is checked against the kind's `msaf.config.PARAMS` table; a grid
    names at least one entry.
    """
    if kind not in _TRAINERS:
        raise UnsupportedModel(f"unknown model kind {kind!r}, expected {MODEL_KINDS}")
    check(f"{kind} parameters", PARAMS[kind], params)
    require(grid != {}, "grid must be a non-empty object of lists")
    for name, values in (grid or {}).items():
        require(isinstance(values, (list, tuple)) and values,
                f"grid entry {name!r} must be a non-empty list, got {values!r}")
        for value in values:
            check(f"{kind} grid", PARAMS[kind], {name: value})


def make_trainer(kind: str, params: dict | None = None) -> Callable:
    """Build a (x, y, seed) -> model callable for cross-validation."""
    fixed = dict(params or {})
    check_params(kind, fixed)

    def trainer(x, y, seed):
        return _TRAINERS[kind](x, y, **fixed, seed=seed)

    return trainer


def model_from_json_dict(d: dict) -> TrainedModel:
    kind = d.get("kind")
    if kind == "svm":
        return SvmModel.from_json_dict(d)
    if kind == "rf":
        return RfModel.from_json_dict(d)
    if kind == "gbt":
        return GbtModel.from_json_dict(d)
    raise UnsupportedModel(f"cannot deserialize model kind {kind!r}")

