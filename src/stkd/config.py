"""Global numeric precision switch, RNG streams, and run configuration."""

from __future__ import annotations

import contextlib
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError

_DTYPE = np.float64


def set_dtype(dtype) -> None:
    """Set the global floating dtype (np.float32 or np.float64)."""
    global _DTYPE
    if dtype not in (np.float32, np.float64):
        raise ConfigError(f"unsupported dtype {dtype!r}; use np.float32 or np.float64")
    _DTYPE = dtype


def dtype():
    return _DTYPE


@contextlib.contextmanager
def precision(dtype_):
    """Temporarily switch the global dtype."""
    global _DTYPE
    old = _DTYPE
    set_dtype(dtype_)
    try:
        yield
    finally:
        _DTYPE = old


# Fixed stream ids so seeded RNGs never collide across subsystems.
STREAM_SYNTH = 1
STREAM_INIT_TEACHER = 2
STREAM_INIT_STUDENT = 3
STREAM_SHUFFLE = 4
STREAM_DROPOUT = 5
STREAM_SUBGRAPH = 6
STREAM_NEGATIVES = 7


def rng_for(*keys: int) -> np.random.Generator:
    """Deterministic generator for a (seed, stream, ...) key tuple."""
    return np.random.default_rng(np.random.SeedSequence([int(k) & 0xFFFFFFFF for k in keys]))


@dataclass
class TrainConfig:
    """Everything a pretrain or distill run needs; serializable to one JSON file."""

    epochs: int = 10
    batch_size: int = 128
    n: int = 128                      # max sequence length
    d: int = 256                      # embedding dimension
    heads: int = 2
    layers: int = 2
    gnn_layers: int = 2
    fanouts: tuple[int, int] = (10, 10)
    temperature: float = 3.0
    alpha: float = 0.2
    seed: int = 0
    patience: int = 5                 # early stopping on validation NDCG@10
    lr: float = 0.001
    dropout: float = 0.1
    max_train_per_user: int = 0       # 0 = unlimited prefix pairs
    events_path: str = ""
    dataset_path: str = ""
    graph_path: str = ""
    out_dir: str = "out"
    k_list: tuple[int, ...] = (5, 10, 20)
    n_negatives: int = 100

    def __post_init__(self):
        for name in ("epochs", "batch_size", "n", "d", "heads", "layers", "gnn_layers",
                     "patience", "n_negatives"):
            low = 0 if name in ("epochs", "patience") else 1
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("lr", "temperature"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        self.fanouts = int_tuple("fanouts", self.fanouts)
        if any(f <= 0 for f in self.fanouts):
            raise ConfigError(f"fanouts must be positive, got {self.fanouts}")
        self.k_list = int_tuple("k_list", self.k_list)
        if not self.k_list or min(self.k_list) < 1:
            raise ConfigError(f"k_list takes one or more cutoffs of at least "
                              f"1, got {list(self.k_list)}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["fanouts"] = list(self.fanouts)
        d["k_list"] = list(self.k_list)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        return config_from_dict(cls, data)


def is_int(value) -> bool:
    """An integer config entry: a bool, a float or a string is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def int_tuple(name: str, values) -> tuple[int, ...]:
    """``values`` as a tuple of ints; raises ConfigError unless it is a list
    or tuple of integers."""
    if (not isinstance(values, (list, tuple))
            or not all(is_int(v) for v in values)):
        raise ConfigError(f"{name} takes a list of integers, got {values!r}")
    return tuple(int(v) for v in values)


# The value types a config field accepts, keyed by the type of its default.
_ACCEPTED_TYPES = {bool: (bool,), int: (int,), float: (int, float),
                   str: (str,), tuple: (list, tuple)}


def config_from_dict(cls, data: dict):
    """Build the config dataclass ``cls`` from ``data``.

    An unknown key, or a value whose type the field's default does not
    accept (a bool is no number), raises ConfigError.
    """
    defaults = vars(cls())
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        kind = type(defaults[key])
        accepted = _ACCEPTED_TYPES[kind]
        if (not isinstance(value, accepted)
                or (isinstance(value, bool) and bool not in accepted)):
            raise ConfigError(
                f"config key {key!r} takes a {kind.__name__}, got {value!r}")
    return cls(**data)
