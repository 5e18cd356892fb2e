"""The tables of msaf.config: every key rejects bad values, defaults agree, axes bind once."""
import dataclasses
import inspect
import math

import numpy as np
import pytest

from msaf import config, explain, modified_kmeans, train_gbt, train_rf, train_svm_ovr
from msaf.errors import InvalidConfig
from msaf.pipeline import PipelineConfig
from msaf.synth import CANONICAL_LABELS, SynthConfig

TABLES = {
    "KMEANS": config.KMEANS,
    "EXPLAIN": config.EXPLAIN,
    **{f"PARAMS[{kind}]": table for kind, table in config.PARAMS.items()},
    "CLASSIFIER": config.CLASSIFIER,
    **{f"STEPS[{kind}]": table for kind, table in config.STEPS.items()},
    "RUN": config.RUN,
    **{f"VERBS[{verb}]": table for verb, table in config.VERBS.items()},
    "FLAGS": config.FLAGS,
    "SYNTH": config.SYNTH,
    "PROFILE": config.PROFILE,
    **{f"SYNTH_KINDS[{kind}]": table for kind, table in config.SYNTH_KINDS.items()},
}

# a value of another type than each type takes
WRONG_TYPE = {
    "int": 2.5, "real": "1", "reals": "x", "band": "12", "bool": 1, "str": 5, "path": 5,
    "name": 5, "names": "Fz", "object": [], "list": 5,
}
# a value of the type outside any range, for types whose values all lie in one
OUTSIDE = {"path": "", "name": "a/b", "names": [], "band": [0.0, 8.0]}


def _outside(key):
    """A value of key's type outside its range, or None if every value is inside."""
    if isinstance(key.range, tuple):
        return "no-such-" + key.range[0]
    if key.type not in ("int", "real", "reals"):
        return OUTSIDE.get(key.type)
    low, high, open_low, open_high = key.bounds
    if low > -math.inf:
        return low if open_low else low - 1
    if high < math.inf:
        return high if open_high else high + 1
    return math.inf


CASES = [
    (table_name, name, key, value)
    for table_name, table in TABLES.items()
    for name, key in table.items()
    for value in (WRONG_TYPE[key.type], _outside(key))
    if value is not None
]


@pytest.mark.parametrize("table_name,name,key,value", CASES,
                         ids=[f"{t}-{n}-{v!r}" for t, n, _, v in CASES])
def test_every_key_rejects_a_wrong_type_and_an_out_of_range_value(table_name, name, key, value):
    with pytest.raises(InvalidConfig, match=name):
        config.check(table_name, TABLES[table_name], {name: value})


@pytest.mark.parametrize("table_name", sorted(TABLES))
def test_defaults_suit_their_own_keys(table_name):
    for name, key in TABLES[table_name].items():
        if not isinstance(key.default, config.Absent):
            config.check_value(name, key, key.default)


def test_check_rejects_a_non_object_an_unknown_and_a_missing_key():
    with pytest.raises(InvalidConfig, match="object"):
        config.check("kmeans", config.KMEANS, [])
    with pytest.raises(InvalidConfig, match="unknown"):
        config.check("kmeans", config.KMEANS, {"n_init": 3})
    with pytest.raises(InvalidConfig, match="missing"):
        config.check("crop", config.STEPS["crop"], {"t_start": 0.0})


def test_check_returns_values_as_given():
    assert config.check("kmeans", config.KMEANS, {"n_inits": 3}) == {
        "n_inits": 3, "max_iter": 200, "tol": 1e-8,
    }
    doc = config.check("run", config.RUN, {"input_dir": "i", "out_dir": "o", "band": [4, 8],
                                           "montage": ["Fz", "Cz"], "seed": 2})
    assert doc["band"] == (4.0, 8.0) and doc["montage"] == ("Fz", "Cz") and doc["seed"] == 2
    assert type(doc["seed"]) is int


@pytest.mark.parametrize("value", ["", ".", "..", "a/b", "a\\b", "a\0b", "x.partial", 3, None])
def test_names_that_are_no_file_names_are_rejected(value):
    with pytest.raises(InvalidConfig):
        config.check_value("subject_id", config.NAME, value)


def _signature_defaults(fn) -> dict:
    return {
        name: p.default for name, p in inspect.signature(fn).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def test_signature_defaults_equal_table_defaults():
    kmeans = _signature_defaults(modified_kmeans)
    assert {name: kmeans[name] for name in config.KMEANS} == {
        name: key.default for name, key in config.KMEANS.items()
    }
    explained = _signature_defaults(explain)
    assert {name: explained[name] for name in ("method", "n_samples")} == {
        name: config.EXPLAIN[name].default for name in ("method", "n_samples")
    }
    assert {f.name: f.default for f in dataclasses.fields(PipelineConfig)} == {
        name: (dataclasses.MISSING if key.default is config.REQUIRED else key.default)
        for name, key in config.RUN.items()
    }


@pytest.mark.parametrize("kind,trainer", [
    ("svm", train_svm_ovr), ("rf", train_rf), ("gbt", train_gbt),
])
def test_trainer_tables_name_the_trainer_parameters_and_pass_their_defaults(kind, trainer):
    defaults = _signature_defaults(trainer)
    del defaults["seed"]
    assert sorted(defaults) == sorted(config.PARAMS[kind])
    config.check(kind, config.PARAMS[kind], defaults)


def test_synth_table_names_the_synth_fields():
    assert [f.name for f in dataclasses.fields(SynthConfig)] == list(config.SYNTH)
    assert config.SYNTH["n_states"].bounds[:2] == (1, len(CANONICAL_LABELS))
    defaults = {f.name: f.default for f in dataclasses.fields(SynthConfig)}
    config.check("synth", config.SYNTH, defaults)


_STORED = {"classes": config.Key("ints", ("n",)), "w": config.Key("array", ("n", "d")),
           "rows": config.Key("list", ("r", "n"))}


def test_decode_binds_each_axis_once_and_keeps_only_its_keys():
    doc = {"classes": [0, 1], "w": [[1, 2.5], [3, 4]], "rows": [[{}, {}]], "other": "x"}
    out = config.decode("t", _STORED, doc)
    assert sorted(out) == ["classes", "rows", "w"] and out["classes"] == (0, 1)
    assert out["w"].dtype == np.float64 and out["w"].shape == (2, 2)
    for bad in ({"classes": [0, 1, 2]}, {"w": [[1, 2], [3]]}, {"w": [1, 2]},
                {"rows": [[{}], [{}, {}]]}, {"classes": ["0", "1"]}, {"w": [["1", "2"]] * 2},
                {"classes": [0.0, 1.0]}, []):
        with pytest.raises(ValueError):
            config.decode("t", _STORED, {**doc, **bad} if isinstance(bad, dict) else bad)
    # a nested object's axes bound by its parent
    with pytest.raises(ValueError, match="along d"):
        config.decode("t", {"w": _STORED["w"]}, {"w": [[1, 2]]}, {"d": 3})
