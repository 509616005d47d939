"""The code-line counter in tools/code_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("stkd_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''\
"""Module docstring,
over two lines."""

import numpy as np   # a trailing comment does not hide the code


# a comment line
class Box:
    """Class docstring."""

    def size(self, a,
             b):
        """Function docstring."""
        total = (a
                 + b)
        label = """a multi-line
string value"""
        "a bare string statement"
        return total, label
'''
# code lines: import (4); class (8); def over two lines (11, 12); the
# parenthesized sum (14, 15); the assigned string over two lines (16, 17);
# return (19)
CODE_LINES = 9


def test_comments_docstrings_and_blank_lines_do_not_count():
    assert _load_tool().code_lines(SNIPPET) == CODE_LINES


def test_every_line_of_a_statement_counts():
    tool = _load_tool()
    assert tool.code_lines("x = 1\n") == 1
    assert tool.code_lines("x = (1,\n     2,\n     3)\n") == 3
    assert tool.code_lines('"""only a docstring"""\n\n# and a comment\n') == 0


def test_the_package_has_code_lines(capsys):
    assert _load_tool().main([]) == 0
    out = capsys.readouterr().out.splitlines()
    per_file = {line.split()[1]: int(line.split()[0]) for line in out}
    assert per_file["total"] == sum(n for name, n in per_file.items()
                                    if name != "total")
    assert per_file["optim.py"] > 0 and "instrument.py" not in per_file


SETTINGS_SNIPPET = '''\
from dataclasses import dataclass, field


@dataclass
class RunConfig:
    name: str
    epochs: int = 3
    tags: list = field(default_factory=list)
    LIMIT = 5                     # no annotation, so no field


@dataclass(frozen=True)
class Report:                     # a dataclass not named *Config
    score: float = 0.0


class PlainConfig:                # named *Config, but no dataclass
    size: int = 2


def run(a, b=1, *args, c=2, d, **kw):
    def step(x, y=0):
        return x + y
    return step(a)


def _helper(a=1):
    return a


class Model:
    def __init__(self, d=8, _draw=True):
        self.d = d

    def _reset(self, seed=0):
        pass

    def fit(self, lr=0.1, /, epochs=3):
        pass
'''
# config fields: RunConfig's name, epochs and tags; defaulted parameters:
# run's b and c, the nested step's y, __init__'s d (not _draw), fit's lr
# and epochs (not _helper's or _reset's)
SETTINGS = (3, 6)


def test_settings_count_config_fields_and_public_defaults():
    assert _load_tool().settings(SETTINGS_SNIPPET) == SETTINGS
    assert _load_tool().settings("def f(a, *, b):\n    pass\n") == (0, 0)


def test_the_package_settings_add_up(capsys):
    assert _load_tool().main(["--settings"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = {line.split()[-1]: [int(n) for n in line.split()[:-1]]
            for line in out}
    assert all(total == fields + params
               for total, fields, params in rows.values())
    assert rows.pop("total") == [sum(col) for col in zip(*rows.values())]
    assert rows["config.py"][1] > 0 and rows["synthetic.py"][1] > 0
