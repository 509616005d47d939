"""Run configuration: value types, and no field the package never reads."""

import ast
from pathlib import Path

import numpy as np
import pytest

from stkd import config
from stkd.config import TrainConfig, config_from_dict
from stkd.errors import ConfigError
from stkd.synthetic import SyntheticConfig


def test_config_values_must_have_the_field_type():
    cfg = TrainConfig.from_dict({"epochs": 3, "lr": 1, "temperature": 2.5,
                                 "fanouts": [3, 3], "k_list": (5, 10),
                                 "out_dir": "x"})
    assert cfg.lr == 1 and cfg.fanouts == (3, 3) and cfg.k_list == (5, 10)
    assert config_from_dict(SyntheticConfig, {"noise": 0}).noise == 0
    for bad in ({"epochs": "2"}, {"epochs": 2.0}, {"epochs": True},
                {"lr": "0.1"}, {"lr": False}, {"out_dir": 3},
                {"fanouts": "4,4"}, {"k_list": 10}):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict(bad)
    for bad in ({"n_users": 5.0}, {"noise": "0.1"}, {"seed": None}):
        with pytest.raises(ConfigError):
            config_from_dict(SyntheticConfig, bad)


def test_list_entries_must_be_integers():
    # int() used to turn 2.5 into 2 and True into 1 without a word
    assert TrainConfig(fanouts=(np.int64(3), 2)).fanouts == (3, 2)
    for bad in ({"fanouts": (2.5, 4)}, {"fanouts": (True, 4)},
                {"fanouts": ("4", 4)}, {"k_list": (10, None)}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainConfig(**bad)


def test_k_list_needs_cutoffs_of_at_least_one():
    assert TrainConfig(k_list=[1, 10]).k_list == (1, 10)
    for bad in ((), (0, 10), (5, -1)):
        with pytest.raises(ConfigError, match="k_list"):
            TrainConfig(k_list=bad)


def test_every_train_config_field_is_read_by_the_package():
    # a field no module reads is a knob that silently does nothing: read it
    # or delete it
    pkg = Path(config.__file__).parent
    read = set()
    for path in pkg.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
    unread = set(TrainConfig.__dataclass_fields__) - read
    assert not unread, f"TrainConfig fields no package module reads: " \
                       f"{sorted(unread)}"
