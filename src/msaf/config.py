"""Every setting's and stored format's type, range and default: one table per block.

A table maps each key of a block to its `Key`. `check` checks a whole
block against its table and `check_value` one value against one Key;
both raise InvalidConfig (exit 2). A rule that spans several keys
(``low < high``) stays one `require` call in the block that owns it.

The tables from `SVM_MACHINE` on are stored formats: `decode` checks a
file's object against one and raises ValueError, an IoFailure (exit 3)
to the readers.

A table holds the defaults its block fills in. Where a Python signature
takes the key (the trainers, `SynthConfig`, `make_band_cohort`), the
signature holds the default and the table only the type and range;
`PipelineConfig`'s fields take their defaults from RUN.
"""
from __future__ import annotations

import copy
import enum
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

from .errors import InvalidConfig

# A segmentation file stores its states as uint8.
MAX_STATES = 255

# The working-set budget of the numeric kernels, in float64 values (128 KiB):
# FIR filtering, GFP and backfitting walk a recording in blocks of about this
# many values, and SvmModel.coalition_scores sizes its kernel buffers to it,
# so their temporaries do not grow with a recording's length or a coalition
# count.
BLOCK_DOUBLES = 1 << 14

# The most float64 channel-samples a synthetic recording may hold (1 GiB): a
# larger SynthConfig is an InvalidConfig before any sample is drawn.
MAX_SYNTH_VALUES = 1 << 27

# The deepest tree a forest or booster grows (rf max_depth null grows to it):
# model.json nests each level one object deeper, and its writer and reader
# take each level as one Python call, under the interpreter's limit of 1000.
MAX_TREE_DEPTH = 512

# The most taps an FIR filter may have. A filter edge or notch width so narrow
# that it needs more is an InvalidBand, raised before its taps are allocated;
# the cap admits band edges down to about 8e-4 Hz at 250 Hz.
MAX_FIR_TAPS = 1 << 20


class Absent(enum.Enum):
    """The default of a key without one: it must be given, or it stays out."""

    REQUIRED = "required"
    OPTIONAL = "optional"


REQUIRED, OPTIONAL = Absent.REQUIRED, Absent.OPTIONAL
_NUMERIC = ("int", "real", "reals")


def _number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _integer(v) -> bool:
    return _number(v) and isinstance(v, numbers.Integral)


def _sequence(v, item=None) -> bool:
    """A list, tuple or array (no string or object); with item, non-empty, all passing it."""
    if isinstance(v, (str, bytes, dict)) or not hasattr(v, "__len__"):
        return False
    return hasattr(v, "__getitem__") and (item is None or (len(v) > 0 and all(map(item, v))))


def _array(v) -> bool:
    """A list of numbers, or of such lists of equal lengths, or an array of numbers."""
    try:
        return _sequence(v) and np.asarray(v).dtype.kind in "iuf"
    except ValueError:  # lists of unequal lengths
        return False


def _name(v) -> bool:
    """A string that is one file name, and one that `_artifact_names` lists."""
    return (isinstance(v, str) and v not in ("", ".", "..") and ".partial" not in v
            and not any(c in v for c in "/\\\0"))


_TYPES = {  # type -> (test, what a value of it is)
    "int": (_integer, "an integer"),
    "real": (_number, "a number"),
    "reals": (lambda v: _number(v) or _sequence(v, _number), "a number or a list of numbers"),
    "band": (lambda v: _sequence(v, lambda e: _number(e) and 0 < e < math.inf) and len(v) == 2,
             "[low, high], two positive numbers"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "path": (lambda v: isinstance(v, str) and v != "", "a non-empty path"),
    "name": (_name, "a file name (not '', '.' or '..'; no '/', '\\', NUL or '.partial')"),
    "names": (lambda v: _sequence(v, lambda c: isinstance(c, str)), "a non-empty list of names"),
    "filenames": (lambda v: _sequence(v, _name), "a non-empty list of file names"),
    "ints": (lambda v: _sequence(v, _integer), "a non-empty list of integers"),
    "array": (_array, "a list of numbers, or of such lists"),
    "strs": (lambda v: _sequence(v) and all(isinstance(c, str) for c in v), "a list of strings"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "list": (_sequence, "a list"),
}


@dataclass(frozen=True)
class Key:
    """One setting: its type, range and default, and whether null passes.

    type names an entry of `_TYPES`. range is, for "int", "real" and
    each number of "reals", an interval such as "[0, 1)" or "(0, inf]",
    each end closed or open (None: any finite number); for "str", the
    tuple of allowed values; for a list, the names of its axes (`decode`).
    default is a value, REQUIRED or OPTIONAL.
    """

    type: str
    range: Union[str, tuple, None] = None
    default: Any = OPTIONAL
    nullable: bool = False

    @functools.cached_property
    def bounds(self) -> tuple:
        """(low, high, low end open, high end open) of a numeric range."""
        text = self.range or "(-inf, inf)"
        low, high = (float(end) for end in text[1:-1].split(","))
        return low, high, text[0] == "(", text[-1] == ")"

    def holds(self, value) -> bool:
        """Whether value, of the key's type, lies in its range (axes aside)."""
        if isinstance(self.range, tuple):
            return self.type != "str" or value in self.range
        if self.type not in _NUMERIC:
            return True
        low, high, open_low, open_high = self.bounds
        return all(
            (low < v if open_low else low <= v) and (v < high if open_high else v <= high)
            for v in (value if _sequence(value) else (value,))
        )

    def describe(self) -> str:
        """What a value of the key is, as error messages say it."""
        what = _TYPES[self.type][1]
        if isinstance(self.range, tuple) and self.type == "str":
            what += f" in {list(self.range)}"
        elif self.type in _NUMERIC:
            what += f" in {self.range or '(-inf, inf)'}"
        return what + (" or null" if self.nullable else "")


def check_value(name: str, key: Key, value, error: type = InvalidConfig):
    """value if it suits key, else error; "names", "ints" and "band" values become tuples."""
    if value is None and key.nullable:
        return None
    if not (_TYPES[key.type][0](value) and key.holds(value)):
        raise error(f"{name} must be {key.describe()}, got {value!r}")
    if key.type in ("names", "ints"):
        return tuple(value)
    if key.type == "band":
        return (float(value[0]), float(value[1]))
    return value


def check(name: str, table: dict, doc, error: type = InvalidConfig) -> dict:
    """doc, an object of table's keys, checked, with the table's defaults filled in.

    A non-object, an unknown key, a missing required key or a bad value
    raises error. Values come back as `check_value` returns them.
    """
    if not isinstance(doc, dict):
        raise error(f"{name} must be an object, got {doc!r}")
    unknown = [k for k in doc if k not in table]
    if unknown:
        raise error(f"unknown {name} keys {unknown}; accepted: {list(table)}")
    out = {k: check_value(f"{name} {k}", table[k], v, error) for k, v in doc.items()}
    missing = [k for k, key in table.items() if k not in out and key.default is REQUIRED]
    if missing:
        raise error(f"{name} is missing {missing}")
    for k, key in table.items():
        if k not in out and not isinstance(key.default, Absent):
            out[k] = copy.copy(key.default)
    return out


def decode(name: str, table: dict, doc, sizes: Optional[dict] = None) -> dict:
    """The keys of table in doc, a stored object, checked by `check`; a ValueError if not.

    Other keys are dropped; "array" values become float64 arrays. An axis
    that a list key's range names is bound where it first appears (or in
    sizes, for a nested object) and checked wherever it appears again.
    """
    doc = {k: v for k, v in doc.items() if k in table} if isinstance(doc, dict) else doc
    out, sizes = check(name, table, doc, ValueError), dict(sizes or {})
    for k, key in table.items():
        if key.type == "array" and k in out:
            out[k] = np.asarray(out[k], dtype=np.float64)
        if key.type == "str" or not isinstance(key.range, tuple) or out.get(k) is None:
            continue
        shape = np.shape(out[k])  # a list of objects stops at the objects
        if len(shape) != len(key.range):
            raise ValueError(f"{name} {k} must have the axes {key.range}, got {shape}")
        for axis, n in zip(key.range, shape):
            if sizes.setdefault(axis, n) != n:
                raise ValueError(f"{name} {k} holds {n} along {axis}, not {sizes[axis]}")
    return out


def require(ok, message: str) -> None:
    """Raise InvalidConfig(message) unless ok: a rule over several keys."""
    if not ok:
        raise InvalidConfig(message)


OBJECT = Key("object")
NAME = Key("name")
LABEL = Key("name", nullable=True)

KMEANS = {
    "n_inits": Key("int", "[1, inf)", 20),
    "max_iter": Key("int", "[1, inf)", 200),
    "tol": Key("real", "[0, inf)", 1e-8),
}

EXPLAIN = {
    "method": Key("str", ("auto", "exact", "kernel", "tree"), "auto"),
    "n_samples": Key("int", "[1, inf)", 2048),
    "background": Key("int", "[1, inf)", 64),
}

PARAMS = {  # trainer hyperparameters by model kind
    "svm": {
        "c": Key("real", "(0, inf)"),
        "gamma": Key("real", "(0, inf)"),
        "tol": Key("real", "[0, inf)"),
        "max_iter": Key("int", "[1, inf)"),
    },
    "rf": {
        "n_trees": Key("int", "[1, inf)"),
        "max_depth": Key("int", f"[1, {MAX_TREE_DEPTH}]", nullable=True),
        "min_samples_split": Key("int", "[2, inf)"),
        "bootstrap": Key("bool"),
        # at most the table width, checked when training starts
        "n_features_per_split": Key("int", "[1, inf)", nullable=True),
    },
    "gbt": {
        "n_rounds": Key("int", "[1, inf)"),
        "learning_rate": Key("real", "(0, inf)"),
        "max_depth": Key("int", f"[1, {MAX_TREE_DEPTH}]"),
        "lam": Key("real", "[0, inf)"),
        "gamma_leaf": Key("real", "[0, inf)"),
        "valid_fraction": Key("real", "[0, 1)"),
        "patience": Key("int", "[0, inf)"),
    },
}

CLASSIFIER = {
    "kind": Key("str", tuple(sorted(PARAMS)), "svm"),
    "params": Key("object", default={}),
}

# preprocessing steps by kind (besides "kind"); limits set by the
# recording's sampling rate are checked when the step runs
_HZ = Key("real", "(0, inf)", REQUIRED)
_SECONDS = Key("real", default=REQUIRED)
STEPS = {
    "bandpass": {"low": _HZ, "high": _HZ},
    "notch": {"freq": _HZ, "width": Key("real", "(0, inf)")},
    "zscore": {},
    "average_reference": {},
    "laplacian": {"n_neighbors": Key("int", "[1, inf)")},
    "crop": {"t_start": _SECONDS, "t_end": _SECONDS},
    "resample": {"fs": _HZ},
}
STEP_KIND = Key("str", tuple(STEPS))

RUN = {
    "input_dir": Key("path", default=REQUIRED),
    "out_dir": Key("path", default=REQUIRED),
    "montage": Key("names", default=None, nullable=True),
    "steps": Key("list", default=()),
    "band": Key("band", default=None, nullable=True),
    "k": Key("int", f"[1, {MAX_STATES}]", 4),
    "kmeans": Key("object", default=None, nullable=True),
    "min_peak_distance_ms": Key("real", "[0, inf)", 0.0),
    "min_segment_ms": Key("real", "[0, inf)", 0.0),
    # "template" or an existing maps JSON
    "labeling": Key("path", default="template"),
    "classifier": Key("object", default=None, nullable=True),
    "grid": Key("object", default=None, nullable=True),
    "cv_folds": Key("int", "[2, inf)", 5),
    "explain": Key("object", default=None, nullable=True),
    "seed": Key("int", "[0, inf)", 0),
}

VERBS = {  # the --config block of each stage verb
    "preprocess": {key: RUN[key] for key in ("montage", "steps", "band", "seed")},
    "segment": {key: RUN[key] for key in ("kmeans", "min_peak_distance_ms", "seed")},
    "group-maps": {key: RUN[key] for key in ("kmeans", "seed")},
}

FLAGS = {
    "--k": RUN["k"],
    "--folds": RUN["cv_folds"],
    "--min-segment-ms": RUN["min_segment_ms"],
    "--size": Key("int", "[1, inf)", 360),
    "--threads": Key("int", "[1, inf)", 1),
    "--config": Key("path"),
    "--out": Key("path"),
}

SYNTH = {  # SynthConfig's fields
    "channels": Key("names", nullable=True),
    "fs": Key("real", "(0, inf)"),
    "duration": Key("real", "(0, inf)"),
    # one state per canonical template: A, B, C, F
    "n_states": Key("int", "[1, 4]"),
    "mean_dwell_ms": Key("reals", "(0, inf)"),
    "transition": Key("list", nullable=True),
    "amplitudes": Key("reals", "(0, inf)"),
    # inf: noiseless
    "snr": Key("real", "(0, inf]"),
    "envelope_freq": Key("real"),
    "envelope_depth": Key("real", "[0, 1)"),
    "carrier_hz": Key("real", nullable=True),
    "subject_id": NAME,
    "label": LABEL,
    "seed": RUN["seed"],
}

PROFILE = {  # a cohort profile's overrides of SynthConfig fields
    "weights": Key("reals", "(0, inf)"),
    **{key: SYNTH[key] for key in ("transition", "mean_dwell_ms", "amplitudes")},
}

# the synth verb's --config block by kind
SYNTH_KIND = Key("str", ("cohort", "band_cohort", "single"), "cohort")
COHORT = {
    "kind": SYNTH_KIND,
    "n_per_class": Key("int", "[1, inf)", 10),
    "seed": RUN["seed"],
    "profiles": Key("object", nullable=True),
    "base": Key("object", nullable=True),
}
BAND_COHORT = {
    "kind": SYNTH_KIND,
    "n_per_class": COHORT["n_per_class"],
    "band": Key("band"),
    **{key: SYNTH[key] for key in ("snr", "duration", "fs")},
    "seed": RUN["seed"],
}
SYNTH_KINDS = {
    "cohort": COHORT, "band_cohort": BAND_COHORT, "single": {"kind": SYNTH_KIND, **SYNTH},
}

# Stored formats. A list key's range names its axes; a missing key fails
# the constructor that reads it.
_CLASSES, _POSITIVE = Key("ints", ("n_classes",)), Key("real", "(0, inf)")
SVM_MACHINE = {  # one of an svm model.json's one-vs-rest machines
    "support_vectors": Key("array", ("n_sv", "n_features")), "dual_coef": Key("array", ("n_sv",)),
    "bias": Key("real"), "kkt_gap": Key("real"), "n_iter": Key("int", "[0, inf)"),
}
SVM_MODEL = {
    "classes": _CLASSES, "mean": Key("array", ("n_features",)),
    "scale": Key("array", ("n_features",)), "c": _POSITIVE, "gamma": _POSITIVE,
    "machines": Key("list", ("n_classes",)),
}
# trees are nested nodes, which Tree.from_json_dict numbers and checks
RF_MODEL = {"classes": _CLASSES, "n_features": Key("int", "[1, inf)"), "trees": Key("list"),
            "params": Key("object", default={})}
GBT_MODEL = {
    **{k: RF_MODEL[k] for k in ("classes", "n_features", "params")},
    "base_scores": Key("array", ("n_classes",)), "learning_rate": _POSITIVE,
    "best_round": Key("int", "[0, inf)"), "trees": Key("list", ("n_rounds", "n_classes")),
    "train_loss_trace": Key("array", ("n_trained",), ()),
    "valid_loss_trace": Key("array", ("n_validated",), ()),
}
SHAP = {
    "method": Key("str", ("exact", "kernel", "tree")), "classes": _CLASSES,
    "phi0": Key("array", ("n_classes",)),
    "phi": Key("array", ("n_instances", "n_features", "n_classes")),
    "feature_names": Key("names", ("n_features",), None, nullable=True),
    "meta": Key("object", default={}),
}
CLASS_NAMES = {  # the names model.json and shap.json may give their classes and columns
    "class_names": Key("filenames", ("n_classes",), None, nullable=True),
    "feature_names": SHAP["feature_names"],
}
MAPS = {"labels": Key("filenames", ("k",)), "channels": Key("names", ("n_channels",)),
        "maps": Key("array", ("k", "n_channels")),
        "gev_total": Key("real", default=None, nullable=True)}
# A framed file's header holds exactly its table's keys, so these are sorted.
EEGB_HEADER = {  # any number passes as fs: `Recording` checks the rate
    "channels": Key("names"), "fs": Key("real", "[-inf, inf]"), "label": LABEL,
    "n_samples": Key("int", "[0, inf)"), "provenance": Key("strs"), "subject_id": NAME,
}
SEG_HEADER = {"fs": _POSITIVE, "label": LABEL, "maps": OBJECT,
              "n_samples": Key("int", "[1, inf)"), "subject_id": NAME}
