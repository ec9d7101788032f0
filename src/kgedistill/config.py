"""Configuration objects and the strict JSON run-config schema.

A run config is a single JSON document. Unknown keys are rejected (typos in
hyperparameter names must not silently fall back to defaults), and omitted
keys fill in the standard defaults: batch size 512, Adam at learning rate
0.001 with per-epoch decay 0.99, label smoothing 0.1, dropout 0.3/0.2/0.3,
at most 1500 epochs, distillation temperature 10^5, and initial mixing
weight 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

MODEL_KINDS = ("distmult", "complex", "tucker", "lowfer")

# Batchnorm follows each baseline's customary setup unless overridden.
_BATCHNORM_DEFAULT = {"distmult": False, "complex": False, "tucker": True, "lowfer": True}


@dataclass
class ModelConfig:
    """Scoring-model shape: dimensions, dropout rates, batchnorm."""

    kind: str = "distmult"
    d_e: int = 100
    d_r: int | None = None
    k_l: int = 30
    dropout_input: float = 0.3
    dropout_hidden: float = 0.2
    dropout_output: float = 0.3
    batchnorm: bool | None = None

    @property
    def rel_dim(self) -> int:
        return self.d_e if self.d_r is None else self.d_r

    @property
    def use_batchnorm(self) -> bool:
        if self.batchnorm is None:
            return _BATCHNORM_DEFAULT[self.kind]
        return self.batchnorm

    def validate(self) -> "ModelConfig":
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
        for name in ("dropout_input", "dropout_hidden", "dropout_output"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {rate}")
        return self


@dataclass
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

    def validate(self) -> "DistillConfig":
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.beta_init <= 1.0:
            raise ConfigError(f"beta_init must lie in [0, 1], got {self.beta_init}")
        if self.k_b is not None and self.k_b < 1:
            raise ConfigError(f"k_b must be >= 1, got {self.k_b}")
        return self


@dataclass
class TrainConfig:
    """Optimization schedule and loop bookkeeping."""

    batch_size: int = 512
    learning_rate: float = 0.001
    lr_decay: float = 0.99
    label_smoothing: float = 0.1
    epochs: int = 1500
    seed: int = 0
    eval_every: int = 0  # 0 disables periodic validation

    def validate(self) -> "TrainConfig":
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(f"label_smoothing must lie in [0, 1), got {self.label_smoothing}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")
        return self


@dataclass
class RunConfig:
    """Everything a run needs: data location, model, schedule, distillation."""

    dataset_dir: str = ""
    output_dir: str = ""
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    isd: DistillConfig = field(default_factory=DistillConfig)

    def validate(self) -> "RunConfig":
        self.model.validate()
        self.train.validate()
        self.isd.validate()
        return self

    def to_dict(self) -> dict:
        """Default-filled echo of the config, as stored in checkpoints.

        Optional keys left unset (``d_r``, ``batchnorm``, ``k_b``) are
        omitted, so :meth:`from_dict` reads the document back unchanged.
        """
        doc = {
            "dataset_dir": self.dataset_dir,
            "output_dir": self.output_dir,
            "model": {
                "kind": self.model.kind,
                "d_e": self.model.d_e,
                "d_r": self.model.d_r,
                "k_l": self.model.k_l,
                "dropout1": self.model.dropout_input,
                "dropout2": self.model.dropout_hidden,
                "dropout3": self.model.dropout_output,
                "batchnorm": self.model.batchnorm,
            },
            "train": {
                "batch_size": self.train.batch_size,
                "lr": self.train.learning_rate,
                "lr_decay": self.train.lr_decay,
                "label_smoothing": self.train.label_smoothing,
                "epochs": self.train.epochs,
                "seed": self.train.seed,
                "eval_every": self.train.eval_every,
            },
            "isd": {
                "enabled": self.isd.enabled,
                "m_exponent": self.isd.m_exponent,
                "k_b": self.isd.k_b,
                "beta_init": self.isd.beta_init,
                "static_input": self.isd.static_input,
            },
        }
        for section in ("model", "isd"):
            doc[section] = {k: v for k, v in doc[section].items() if v is not None}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return _parse_run_config(doc)


# ---------------------------------------------------------------------------
# Strict JSON parsing
# ---------------------------------------------------------------------------

_MODEL_KEYS = {
    "kind": str,
    "d_e": int,
    "d_r": int,
    "k_l": int,
    "dropout1": float,
    "dropout2": float,
    "dropout3": float,
    "batchnorm": bool,
}
_TRAIN_KEYS = {
    "batch_size": int,
    "lr": float,
    "lr_decay": float,
    "label_smoothing": float,
    "epochs": int,
    "seed": int,
    "eval_every": int,
}
_ISD_KEYS = {
    "enabled": bool,
    "m_exponent": float,
    "k_b": int,
    "beta_init": float,
    "static_input": bool,
}
_TOP_KEYS = {"dataset_dir", "output_dir", "model", "train", "isd"}


def _check_section(doc: dict, allowed: dict, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"config section {path!r} must be an object")
    out = {}
    for key, value in doc.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key {path}.{key}")
        want = allowed[key]
        if want is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"config key {path}.{key} must be a number")
            value = float(value)
        elif want is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"config key {path}.{key} must be an integer")
        elif want is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {path}.{key} must be true or false")
        elif want is str:
            if not isinstance(value, str):
                raise ConfigError(f"config key {path}.{key} must be a string")
        out[key] = value
    return out


def _parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key}")
    for key in ("dataset_dir", "output_dir"):
        if key in doc and not isinstance(doc[key], str):
            raise ConfigError(f"config key {key} must be a string")

    model_doc = _check_section(doc.get("model", {}), _MODEL_KEYS, "model")
    train_doc = _check_section(doc.get("train", {}), _TRAIN_KEYS, "train")
    isd_doc = _check_section(doc.get("isd", {}), _ISD_KEYS, "isd")

    model = ModelConfig(
        kind=model_doc.get("kind", "distmult"),
        d_e=model_doc.get("d_e", 100),
        d_r=model_doc.get("d_r"),
        k_l=model_doc.get("k_l", 30),
        dropout_input=model_doc.get("dropout1", 0.3),
        dropout_hidden=model_doc.get("dropout2", 0.2),
        dropout_output=model_doc.get("dropout3", 0.3),
        batchnorm=model_doc.get("batchnorm"),
    )
    train = TrainConfig(
        batch_size=train_doc.get("batch_size", 512),
        learning_rate=train_doc.get("lr", 0.001),
        lr_decay=train_doc.get("lr_decay", 0.99),
        label_smoothing=train_doc.get("label_smoothing", 0.1),
        epochs=train_doc.get("epochs", 1500),
        seed=train_doc.get("seed", 0),
        eval_every=train_doc.get("eval_every", 0),
    )
    isd = DistillConfig(
        enabled=isd_doc.get("enabled", False),
        m_exponent=isd_doc.get("m_exponent", 5.0),
        k_b=isd_doc.get("k_b"),
        beta_init=isd_doc.get("beta_init", 1.0),
        static_input=isd_doc.get("static_input", False),
    )
    cfg = RunConfig(
        dataset_dir=doc.get("dataset_dir", ""),
        output_dir=doc.get("output_dir", ""),
        model=model,
        train=train,
        isd=isd,
    )
    return cfg.validate()


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _parse_run_config(doc)
