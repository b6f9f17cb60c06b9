"""The traced benchmark wraps program functions by name
(``kaskade_bench/tracer.py``'s ``_WRAPPED``, read through
``owner.__dict__[attr]``). A refactor that moves or drops one of them
must fail here, not in the traced benchmark run."""
import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "kaskade_bench"


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # tracer.py imports arith
    spec = importlib.util.spec_from_file_location("_bench_tracer", BENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_attribute_is_defined_on_its_owner(tracer):
    assert tracer._WRAPPED
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _summarise in tracer._WRAPPED
        if attr not in owner.__dict__
    ]
    assert missing == []
