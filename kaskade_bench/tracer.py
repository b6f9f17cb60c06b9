"""Spans at the layer boundaries, recorded from outside the program.

The benchmark opens spans around its own calls into the program
(:meth:`Tracer.span`), and :meth:`Tracer.instrument` wraps the layer
functions that the program calls internally (Prolog engine builds and
queries, connector enumeration, the cost model, the rewriter), restoring
them on exit. A span that runs Spark actions gets its own job group, so
the Spark counters of exactly that call are attached to it.

:class:`NullTracer` keeps the same interface and records nothing; the
untraced run uses it.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time

from arith import self_times

import repro.core.cost as cost_mod
import repro.core.enumerator as enumerator_mod
import repro.core.rewriter as rewriter_mod
import repro.prolog.engine as prolog_mod

# (owner, attribute, span name, how to summarise the result)
_WRAPPED = (
    (enumerator_mod, "build_engine", "rules.build_engine", None),
    (prolog_mod.Engine, "query", "prolog.query", None),
    (prolog_mod.Engine, "ask", "prolog.query", None),
    (enumerator_mod.ViewEnumerator, "khop_connectors", "enumerator.khop_connectors",
     lambda r: {"candidates": len(r)}),
    (cost_mod.CostModel, "improvement", "cost.improvement", None),
    (cost_mod.CostModel, "creation_cost", "cost.creation_cost", None),
    (cost_mod.CostModel, "view_size", "cost.view_size", None),
    (rewriter_mod, "rewrite_with_connector", "rewriter.rewrite",
     lambda r: {"hit": r is not None}),
    (cost_mod, "rewrite_with_connector", "rewriter.rewrite",
     lambda r: {"hit": r is not None}),
)


class NullTracer:
    enabled = False
    pass_id = None

    @contextlib.contextmanager
    def span(self, name, spark=False):
        yield {}

    @contextlib.contextmanager
    def instrument(self):
        yield


class Tracer:
    """Records spans in memory: name, layer, start, end, parent, pass id
    and, for Spark spans, the counters of the span's job group."""

    enabled = True

    def __init__(self, meter):
        self.meter = meter
        self.spans: list[dict] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str, spark: bool = False):
        rec = {
            "id": next(self._ids),
            "name": name,
            "layer": name.split(".", 1)[0],
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
        }
        group = self.meter.begin(name) if spark else None
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if group is not None:
                rec["spark"] = self.meter.end(group)
            self.spans.append(rec)

    @contextlib.contextmanager
    def instrument(self):
        """Wrap the internal layer functions for the duration of the block."""
        saved = []
        for owner, attr, name, summarise in _WRAPPED:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, summarise))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, name, summarise):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if summarise is not None:
                    rec.update(summarise(out))
                return out

        return wrapper

    def of_pass(self, pass_id: int) -> list[dict]:
        return [sp for sp in self.spans if sp["pass"] == pass_id]

    def write(self, path, extra: dict) -> None:
        """Write all spans plus per-layer self time (whole run) to ``path``."""
        with open(path, "w") as f:
            json.dump(
                {"self_s": self_times(self.spans), **extra, "spans": self.spans},
                f,
            )
