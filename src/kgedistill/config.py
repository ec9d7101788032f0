"""Configuration objects and the strict JSON run-config schema.

The four dataclasses below are the schema. A run config is a single JSON
document whose keys are their field names: top-level ``dataset_dir`` and
``output_dir`` plus one object per section (``model``, ``train``, ``isd``).
Each field's annotation is the type its key accepts and its default is the
value an omitted key takes. Unknown keys are rejected (typos in
hyperparameter names must not silently fall back to defaults), and an
optional field is left unset by omitting its key, never by ``null``, and a
float field never holds NaN or an infinity.

A config is checked once, when it is built, and is frozen: an invalid one
cannot exist, so nothing that receives a config checks it again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from .errors import ConfigError

MODEL_KINDS = ("distmult", "complex", "tucker", "lowfer")

# Batchnorm follows each baseline's customary setup unless overridden.
_BATCHNORM_DEFAULT = {"distmult": False, "complex": False, "tucker": True, "lowfer": True}


@dataclass(frozen=True)
class ModelConfig:
    """Scoring-model shape: dimensions, dropout rates, batchnorm."""

    kind: str = "distmult"
    d_e: int = 100
    d_r: int | None = None
    k_l: int = 30
    dropout1: float = 0.3  # input dropout, on the head embedding
    dropout2: float = 0.2  # hidden dropout, on the interaction vector
    dropout3: float = 0.3  # output dropout, before the entity contraction
    batchnorm: bool | None = None

    @property
    def rel_dim(self) -> int:
        return self.d_e if self.d_r is None else self.d_r

    @property
    def use_batchnorm(self) -> bool:
        if self.batchnorm is None:
            return _BATCHNORM_DEFAULT[self.kind]
        return self.batchnorm

    def __post_init__(self):
        _check_finite(self)
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        if self.d_e < 1:
            raise ConfigError(f"entity dimension must be >= 1, got {self.d_e}")
        if self.kind == "complex" and self.d_e % 2 != 0:
            raise ConfigError(f"complex embeddings need an even entity dimension, got {self.d_e}")
        if self.kind in ("distmult", "complex") and self.rel_dim != self.d_e:
            raise ConfigError(
                f"{self.kind} requires matching entity/relation dimensions, "
                f"got d_e={self.d_e}, d_r={self.rel_dim}"
            )
        if self.rel_dim < 1:
            raise ConfigError(f"relation dimension must be >= 1, got {self.rel_dim}")
        if self.kind == "lowfer" and self.k_l < 1:
            raise ConfigError(f"lowfer factorization rank must be >= 1, got {self.k_l}")
        for name in ("dropout1", "dropout2", "dropout3"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {rate}")


@dataclass(frozen=True)
class DistillConfig:
    """Self-distillation settings: temperature 10^m, mixing schedule, ablation."""

    enabled: bool = False
    m_exponent: float = 5.0
    k_b: int | None = None  # projection width, defaults to the embedding dim
    beta_init: float = 1.0
    static_input: bool = False

    @property
    def temperature(self) -> float:
        return 10.0 ** self.m_exponent

    def __post_init__(self):
        _check_finite(self)
        try:
            temperature = self.temperature
        except OverflowError:
            temperature = math.inf
        if not 0.0 < temperature < math.inf:
            raise ConfigError(f"temperature must be positive and finite, got 10^{self.m_exponent}")
        if not 0.0 <= self.beta_init <= 1.0:
            raise ConfigError(f"beta_init must lie in [0, 1], got {self.beta_init}")
        if self.k_b is not None and self.k_b < 1:
            raise ConfigError(f"k_b must be >= 1, got {self.k_b}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization schedule and loop bookkeeping."""

    batch_size: int = 512
    lr: float = 0.001
    lr_decay: float = 0.99
    label_smoothing: float = 0.1
    epochs: int = 1500
    seed: int = 0
    eval_every: int = 0  # 0 disables periodic validation

    def __post_init__(self):
        _check_finite(self)
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(f"label_smoothing must lie in [0, 1), got {self.label_smoothing}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: data location, model, schedule, distillation."""

    dataset_dir: str = ""
    output_dir: str = ""
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    isd: DistillConfig = field(default_factory=DistillConfig)

    def to_dict(self) -> dict:
        """Default-filled echo of the config, as stored in checkpoints.

        Every field is emitted under its own name, sections as nested
        objects; optional fields left unset are omitted, so
        :meth:`from_dict` reads the document back unchanged.
        """
        return _to_dict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Parse and validate a run-config document (see the module docstring)."""
        return _from_dict(cls, doc, "")


def _check_finite(config) -> None:
    """Raise :class:`ConfigError` if a float field of ``config`` is NaN or infinite."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be a finite number, got {value}")


# ---------------------------------------------------------------------------
# Strict JSON parsing, driven by the dataclass fields
# ---------------------------------------------------------------------------

_EXPECTED = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _to_dict(obj) -> dict:
    doc = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = _to_dict(value)
        if value is not None:
            doc[f.name] = value
    return doc


def _from_dict(cls, doc, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(
            f"config section {path!r} must be an object" if path else "config root must be a JSON object"
        )
    hints = get_type_hints(cls)
    values = {}
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigError(f"unknown config key {where}")
        hint = hints[key]
        values[key] = _from_dict(hint, value, where) if is_dataclass(hint) else _value(value, hint, where)
    return cls(**values)


def _value(value, hint, where: str):
    """``value`` checked against a field annotation: bools are never numbers,
    ints are accepted as floats, and ``None`` is never accepted."""
    want = next(t for t in get_args(hint) or (hint,) if t is not type(None))
    accepted = (int, float) if want is float else want
    if isinstance(value, bool) != (want is bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {where} must be {_EXPECTED[want]}")
    return float(value) if want is float else value


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(doc)
