"""The bench's worker builds kbmine configs with keyword arguments: each
config field it passes must still exist, or `bench/run.py` fails before it
measures anything. These tests fail first instead."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

from kbmine import nertag, pipeline, topicrank

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def worker():
    return _load("worker")


def test_make_config_builds_every_workload(worker, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports gen from its own directory
    workloads = _load("run").WORKLOADS
    assert {"update_replay", "export_wide"} <= set(workloads)
    for name, sizes in workloads.items():
        assert isinstance(worker.make_config(pipeline, name, sizes), pipeline.PipelineConfig)


@pytest.mark.parametrize("cls", [nertag.TrainConfig, topicrank.GbdtConfig])
def test_prepare_passes_only_existing_fields(worker, cls):
    """Construct cls with the keywords prepare passes it (at their defaults)."""
    keywords = [
        kw.arg
        for node in ast.walk(ast.parse(inspect.getsource(worker.prepare)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == cls.__name__
        for kw in node.keywords
    ]
    assert keywords
    defaults = cls()
    assert cls(**{k: getattr(defaults, k) for k in keywords}) == defaults
