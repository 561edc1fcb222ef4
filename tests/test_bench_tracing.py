"""The bench's span tracer patches kbmine functions by name: each name it
lists must stay bound to a function where the tracer looks for it, or a
traced bench run (`bench/run.py --trace 1`) fails."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import kbmine

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in {module_name for module_name, _, _ in module.TRACED}:
        importlib.import_module(f"kbmine.{name}")
    return module


def _binding(module: str, owner: str | None, func: str):
    """What the tracer patches: a class's own attribute, or a module global."""
    ns = getattr(kbmine, module)
    if owner:
        return getattr(ns, owner).__dict__.get(func)
    return getattr(ns, func, None)


def test_every_traced_name_is_a_kbmine_function(tracing):
    assert tracing.TRACED
    for module, owner, func in tracing.TRACED:
        raw = _binding(module, owner, func)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        where = f"{module}.{owner + '.' if owner else ''}{func}"
        assert inspect.isfunction(fn), f"{where} is not bound to a function"
        home = tracing._DEFINED_IN.get((module, func), module)
        assert fn.__module__ == f"kbmine.{home}", f"{where} is defined in {fn.__module__}"


def test_every_metric_sums_traced_spans(tracing):
    spans = {tracing._span_name(*entry) for entry in tracing.TRACED}
    for metric, names in tracing.SELF_TIME_METRICS.items():
        assert set(names) <= spans, metric


def test_install_then_uninstall_restores_every_binding(tracing):
    before = [_binding(*entry) for entry in tracing.TRACED]
    tracer = tracing.Tracer(kbmine)
    try:
        tracer.install("check")
        assert all(_binding(*e) is not b for e, b in zip(tracing.TRACED, before))
    finally:
        tracer.uninstall()
    assert all(_binding(*e) is b for e, b in zip(tracing.TRACED, before))
