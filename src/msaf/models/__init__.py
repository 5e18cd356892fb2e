"""Classifiers, metrics, and model selection.

Three from-scratch classifiers share a minimal interface: a trainer
function, `predict(x) -> class labels`, and `decision_scores(x) ->
(n, n_classes)` scores. `make_trainer` builds a trainer from the kind
string used throughout configs and the CLI.
"""
from __future__ import annotations

import inspect
from typing import Callable, Union

from ..errors import InvalidConfig, UnsupportedModel
from . import boosted, forest, svm
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

_RANGE_CHECKS: dict[str, Callable] = {
    "svm": svm.check_hyperparams,
    "rf": forest.check_hyperparams,
    "gbt": boosted.check_hyperparams,
}

MODEL_KINDS = tuple(sorted(_TRAINERS))


def check_params(kind: str, params: dict, grid: dict | None = None) -> None:
    """Raise a ConfigError unless params and every grid value suit kind.

    Names must be hyperparameters of the trainer; values, with the
    trainer's defaults for the rest, must pass its range check, and so
    must each grid value in turn. Grid entries are non-empty lists.
    """
    if kind not in _TRAINERS:
        raise UnsupportedModel(f"unknown model kind {kind!r}, expected {MODEL_KINDS}")
    signature = inspect.signature(_TRAINERS[kind]).parameters
    defaults = {
        name: p.default for name, p in signature.items() if name not in ("x", "y", "seed")
    }
    unknown = sorted((set(params) | set(grid or {})) - set(defaults))
    if unknown:
        raise InvalidConfig(
            f"unknown {kind} parameters {unknown}; accepted: {list(defaults)}"
        )
    settings = {**defaults, **params}
    _RANGE_CHECKS[kind](**settings)
    for name, values in (grid or {}).items():
        if not isinstance(values, (list, tuple)) or not values:
            raise InvalidConfig(f"grid entry {name!r} must be a non-empty list")
        for value in values:
            _RANGE_CHECKS[kind](**{**settings, name: value})


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


__all__ = [
    "DEFAULT_GRIDS",
    "EvalReport",
    "GbtModel",
    "GridSearchResult",
    "MODEL_KINDS",
    "RfModel",
    "SvmModel",
    "TrainedModel",
    "check_params",
    "evaluate",
    "grid_search",
    "make_trainer",
    "model_from_json_dict",
    "stratified_fold_indices",
    "stratified_kfold_cv",
    "train_gbt",
    "train_rf",
    "train_svm_ovr",
]
