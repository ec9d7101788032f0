"""Run-config schema: strict parsing and the checkpoint round trip."""

import json
import math
from dataclasses import FrozenInstanceError, fields
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgedistill.config import DistillConfig, ModelConfig, RunConfig, TrainConfig
from kgedistill.errors import ConfigError

unit = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
optional_dim = st.none() | st.integers(1, 64)


@st.composite
def run_configs(draw) -> RunConfig:
    kind = draw(st.sampled_from(["distmult", "complex", "tucker", "lowfer"]))
    d_e = 2 * draw(st.integers(1, 32))
    model = {
        "kind": kind,
        "d_e": d_e,
        "k_l": draw(st.integers(1, 8)),
        "dropout1": draw(unit),
        "dropout2": draw(unit),
        "dropout3": draw(unit),
        "batchnorm": draw(st.none() | st.booleans()),
        "d_r": d_e if kind in ("distmult", "complex") else draw(optional_dim),
    }
    train = {
        "batch_size": draw(st.integers(1, 1024)),
        "lr": draw(st.floats(min_value=1e-6, max_value=1.0)),
        "lr_decay": draw(st.floats(min_value=0.01, max_value=1.0)),
        "label_smoothing": draw(unit),
        "epochs": draw(st.integers(1, 2000)),
        "seed": draw(st.integers(0, 2**31)),
        "eval_every": draw(st.integers(0, 10)),
    }
    isd = {
        "enabled": draw(st.booleans()),
        "m_exponent": draw(st.floats(min_value=-3.0, max_value=6.0)),
        "k_b": draw(optional_dim),
        "beta_init": draw(st.floats(min_value=0.0, max_value=1.0)),
        "static_input": draw(st.booleans()),
    }
    doc = {
        "dataset_dir": draw(st.text(max_size=8)),
        "output_dir": draw(st.text(max_size=8)),
        "model": {k: v for k, v in model.items() if v is not None},
        "train": train,
        "isd": {k: v for k, v in isd.items() if v is not None},
    }
    return RunConfig.from_dict(doc)


@settings(max_examples=200, deadline=None)
@given(run_configs())
def test_to_dict_round_trips(config):
    assert RunConfig.from_dict(config.to_dict()) == config


def test_to_dict_omits_unset_optional_keys():
    doc = RunConfig.from_dict({}).to_dict()
    assert "d_r" not in doc["model"] and "batchnorm" not in doc["model"]
    assert "k_b" not in doc["isd"]
    assert doc["train"]["lr"] == 0.001


def test_configs_cannot_change_once_built():
    config = RunConfig.from_dict({})
    for section in (config, config.model, config.train, config.isd):
        for f in fields(section):
            with pytest.raises(FrozenInstanceError):
                setattr(section, f.name, getattr(section, f.name))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"train": {"learning_rate": 0.01}})


# Literal outputs of the previous hand-written to_dict; checkpoints store this
# document, so its keys, order and value types must not drift.
DEFAULT_DOC = {
    "dataset_dir": "",
    "output_dir": "",
    "model": {"kind": "distmult", "d_e": 100, "k_l": 30, "dropout1": 0.3, "dropout2": 0.2, "dropout3": 0.3},
    "train": {"batch_size": 512, "lr": 0.001, "lr_decay": 0.99, "label_smoothing": 0.1,
              "epochs": 1500, "seed": 0, "eval_every": 0},
    "isd": {"enabled": False, "m_exponent": 5.0, "beta_init": 1.0, "static_input": False},
}
FULL_INPUT = {
    "dataset_dir": "data/wn18rr",
    "output_dir": "runs/x",
    "model": {"kind": "tucker", "d_e": 32, "d_r": 16, "k_l": 4, "dropout1": 0.25, "dropout2": 0.5,
              "dropout3": 0, "batchnorm": False},
    "train": {"batch_size": 128, "lr": 0.005, "lr_decay": 1, "label_smoothing": 0.0, "epochs": 20,
              "seed": 7, "eval_every": 5},
    "isd": {"enabled": True, "m_exponent": 2, "k_b": 12, "beta_init": 0.5, "static_input": True},
}
FULL_DOC = {
    "dataset_dir": "data/wn18rr",
    "output_dir": "runs/x",
    "model": {"kind": "tucker", "d_e": 32, "d_r": 16, "k_l": 4, "dropout1": 0.25, "dropout2": 0.5,
              "dropout3": 0.0, "batchnorm": False},
    "train": {"batch_size": 128, "lr": 0.005, "lr_decay": 1.0, "label_smoothing": 0.0, "epochs": 20,
              "seed": 7, "eval_every": 5},
    "isd": {"enabled": True, "m_exponent": 2.0, "k_b": 12, "beta_init": 0.5, "static_input": True},
}


@pytest.mark.parametrize("given, expected", [({}, DEFAULT_DOC), (FULL_INPUT, FULL_DOC)])
def test_to_dict_golden_format(given, expected):
    # json.dumps tells 0 from 0.0 and sees key order, which == on dicts does not.
    assert json.dumps(RunConfig.from_dict(given).to_dict()) == json.dumps(expected)


@pytest.mark.parametrize(
    "doc",
    [
        {"extra": 1},
        {"model": {"d_r": None}},
        {"train": {"epochs": True}},
        {"train": {"lr": "0.1"}},
        {"isd": [True]},
        {"dataset_dir": 3},
        [],
        # Python's json module reads NaN, Infinity and -Infinity as floats.
        json.loads('{"train": {"lr": NaN}}'),
        json.loads('{"isd": {"m_exponent": Infinity}}'),
        json.loads('{"isd": {"beta_init": -Infinity}}'),
    ],
    ids=["unknown-key", "null-optional", "bool-as-int", "string-as-number", "non-object-section",
         "non-string-dataset-dir", "non-object-root", "nan", "infinity", "minus-infinity"],
)
def test_malformed_documents_rejected(doc):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_non_finite_float_fields_rejected_even_when_built_directly(value):
    checked = []
    for section in (ModelConfig, TrainConfig, DistillConfig):
        for name, hint in get_type_hints(section).items():
            if hint is float:
                with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
                    section(**{name: value})
                checked.append(name)
    assert sorted(checked) == ["beta_init", "dropout1", "dropout2", "dropout3", "label_smoothing",
                               "lr", "lr_decay", "m_exponent"]


@pytest.mark.parametrize("m", [308.3, 400.0, -400.0])
def test_temperature_outside_the_positive_finite_floats_rejected(m):
    with pytest.raises(ConfigError, match="temperature must be positive and finite"):
        DistillConfig(m_exponent=m)


def test_largest_finite_temperature_accepted():
    assert DistillConfig(m_exponent=308.0).temperature == 1e308
