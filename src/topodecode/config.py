"""Training configuration and its key-value text file format.

Config files hold one ``key = value`` pair per line; ``#`` starts a
comment. Keys match the TrainConfig field names; ``split`` is written as
``test,train`` fractions in chronological order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import get_type_hints

__all__ = ["TrainConfig", "read_kv", "read_config", "write_config", "config_from_dict"]


@dataclass
class TrainConfig:
    """Every integer field must be at least 1 unless its metadata sets
    another ``min``."""

    kind: str = "hd"
    arch: str = "scrnn"
    epochs: int = field(default=50, metadata={"min": 0})
    batch_size: int = 32
    learning_rate: float = 0.001
    dropout: float = 0.2
    nn_layers: int = 1
    hidden_size: int = 64
    layer_width: int = 128
    sc_layers: int = 2
    n_filters: int = 2
    degree: int = 1
    k_max: int = 2
    seq_len: int = 5
    n_col: int = 1
    p: float = 0.3
    t_bin: float = 0.1
    seed: int = field(default=0, metadata={"min": 0})
    split: tuple[float, float] = (0.25, 0.75)

    def __post_init__(self):
        if isinstance(self.split, list):
            self.split = tuple(self.split)
        for f in fields(self):
            value, low = getattr(self, f.name), f.metadata.get("min", 1)
            if _TYPES[f.name] is int and value < low:
                raise ValueError(f"{f.name} must be >= {low}, got {value}")
        if self.learning_rate < 0 or self.t_bin <= 0:
            raise ValueError("learning_rate must be >= 0 and t_bin > 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {self.split}")

    def replace(self, **overrides) -> "TrainConfig":
        return dataclasses.replace(self, **overrides)


# Field name -> annotated type (int, float, str or the split tuple).
_TYPES = get_type_hints(TrainConfig)


def config_from_dict(data: dict) -> TrainConfig:
    kwargs = {}
    for key, raw in data.items():
        if key not in _TYPES:
            raise KeyError(f"unknown config key {key!r}")
        try:
            if key == "split":
                if isinstance(raw, str):
                    raw = raw.split(",")
                kwargs[key] = tuple(float(x) for x in raw)
            else:
                kwargs[key] = _TYPES[key](raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return TrainConfig(**kwargs)


def read_kv(path) -> dict:
    """The ``key = value`` pairs of a text file, values as strings."""
    data = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            data[key] = value
    return data


def read_config(path) -> TrainConfig:
    return config_from_dict(read_kv(path))


def write_config(cfg: TrainConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if f.name == "split":
                value = ",".join(repr(v) for v in value)
            fh.write(f"{f.name} = {value}\n")
