"""The demos stay on the API: every call a demo makes to a name it imports
from ``stkd`` binds to that name's signature.  Nothing is run; the demos
take seconds to minutes each."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SIZES = {"n_users", "n_takeaways", "n_regions"}


def stkd_calls(path: Path):
    """``(call node, callee)`` for each call in ``path`` to a name that the
    file imports from ``stkd`` or one of its modules."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "stkd":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module,
                                                            alias.name)
    return [(node, names[node.func.id]) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names]


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_calls_bind_to_the_api(path):
    calls = stkd_calls(path)
    assert calls, f"{path.name} calls nothing from stkd"
    for node, callee in calls:
        where = f"{path.name}:{node.lineno} {node.func.id}"
        assert not any(isinstance(a, ast.Starred) for a in node.args) and \
            all(kw.arg is not None for kw in node.keywords), \
            f"{where}: *args / **kwargs cannot be checked"
        try:
            inspect.signature(callee).bind(
                *node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{where}: {exc}")
        # stages size themselves from the graph and the dataset
        if callee.__module__ == "stkd.pipeline":
            sizes = {n.attr for arg in node.args + node.keywords
                     for n in ast.walk(arg) if isinstance(n, ast.Attribute)}
            assert not sizes & SIZES, f"{where} passes {sizes & SIZES}"
