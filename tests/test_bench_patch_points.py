"""The benchmark depends on program names: the traced run wraps program
functions by name (``kaskade_bench/tracer.py``'s ``_WRAPPED``, read
through ``owner.__dict__[attr]``), and ``kaskade_bench/workloads.py``
imports functions from ``repro`` and unpacks the patterns it parses. A
refactor that moves or drops one of them must fail here, not in the
benchmark run."""
import importlib.util
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "kaskade_bench"


def _load(monkeypatch, name: str):
    """Execute ``kaskade_bench/<name>.py`` with ``kaskade_bench`` on
    ``sys.path``, as the benchmark does (its modules import each other
    by bare name)."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture()
def tracer(monkeypatch):
    return _load(monkeypatch, "tracer")


@pytest.fixture()
def workloads(monkeypatch):
    return _load(monkeypatch, "workloads")


def test_every_wrapped_attribute_is_defined_on_its_owner(tracer):
    assert tracer._WRAPPED
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _summarise in tracer._WRAPPED
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_workloads_module_imports(workloads):
    """Every name ``workloads.py`` imports from ``repro`` still exists:
    loading it raised ``ImportError`` otherwise."""
    assert workloads.WORKLOADS


def test_maxts_patterns_have_one_path(workloads):
    """``query_frame`` unpacks a ``maxts`` query's pattern as
    ``(path,) = pattern.paths`` and hands its bounds to
    ``khop_pairs_with_max``, which needs ``lower >= 1``."""
    maxts = [
        q for w in workloads.WORKLOADS.values() for q in w.queries if q.kind == "maxts"
    ]
    assert maxts
    for query in maxts:
        (path,) = query.pattern.paths
        assert path.lower >= 1
