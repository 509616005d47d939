"""The benchmark tracer wraps package functions by name: each name it wraps
must exist, and uninstalling must give every binding back."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import stkd

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("stkd_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every attribute of every stkd module, and of every class defined in
    one, keyed by (owner, name)."""
    modules = [stkd] + [importlib.import_module(f"stkd.{info.name}")
                        for info in pkgutil.iter_modules(stkd.__path__)]
    out = {}
    for mod in modules:
        for name, value in vars(mod).items():
            out[mod.__name__, name] = value
            if inspect.isclass(value) and value.__module__.startswith("stkd"):
                for attr, raw in vars(value).items():
                    out[f"{value.__module__}.{value.__qualname__}",
                        attr] = raw
    return out


def test_tracer_installs_and_restores_every_binding():
    from stkd import metrics, pipeline
    before = _bindings()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer._patches
        # the evaluation path calls through the names the tracer wraps
        for owner, name in [(metrics, "rank_of_target"),
                            (metrics, "sample_negatives"),
                            (pipeline, "rank_of_target"),
                            (pipeline, "sample_negatives"),
                            (pipeline, "_teacher_val_ndcg"),
                            (pipeline, "_student_val_ndcg"),
                            (pipeline, "evaluate")]:
            assert getattr(owner, name) is not before[owner.__name__, name]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert not moved
