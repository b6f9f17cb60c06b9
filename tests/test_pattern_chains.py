"""Differential test of pattern execution on generated MATCH chains.

Seeded Hypothesis draws chains of 1–3 elements on the Fig. 3 and cyclic
micro graphs. Each element is a fixed edge or a ``*L..U`` path with
0 ≤ L ≤ U ≤ 3, each vertex and element typed or not, and the RETURN
projects both chain ends. ``execute_pattern`` must return exactly what a
DuckDB oracle returns: one recursive-CTE pair table per element (identity
pairs added when L = 0), joined along the chain, with the type of every
typed vertex applied.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parse_match
from repro.engine import execute_pattern
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def graphs(fig3, fig3_pdf, cyclic, cyclic_pdf):
    """name -> (graph, vertices, edges, vertex types, edge types)."""
    out = {}
    for name, g, (vertices, edges) in (
        ("fig3", fig3, fig3_pdf), ("cyclic", cyclic, cyclic_pdf),
    ):
        out[name] = (
            g, vertices, edges,
            sorted(vertices.vtype.unique()), sorted(edges.etype.unique()),
        )
    return out


@st.composite
def chains(draw, vtypes, etypes):
    """``(vertex types, elements)``: n + 1 vertex types (``None`` is
    untyped) and n elements ``(lower, upper, etype, fixed)``."""
    n = draw(st.integers(1, 3))
    vtype = st.one_of(st.none(), st.sampled_from(vtypes))
    elements = []
    for _ in range(n):
        etype = draw(st.one_of(st.none(), st.sampled_from(etypes)))
        if draw(st.booleans()):
            elements.append((1, 1, etype, True))
        else:
            lo = draw(st.integers(0, 3))
            elements.append((lo, draw(st.integers(lo, 3)), etype, False))
    return [draw(vtype) for _ in range(n + 1)], elements


def chain_match(vtypes, elements) -> str:
    """The MATCH text of a chain ``v0 -> … -> vn`` returning both ends."""
    text = f"(v0{'' if vtypes[0] is None else ':' + vtypes[0]})"
    for i, (lo, hi, etype, fixed) in enumerate(elements, start=1):
        label = "" if etype is None else f":{etype}"
        bounds = "" if fixed else f"*{lo}..{hi}"
        node = "" if vtypes[i] is None else f":{vtypes[i]}"
        text += f"-[{label}{bounds}]->(v{i}{node})"
    return f"MATCH {text} RETURN v0 AS a, v{len(elements)} AS b"


def chain_sql(vtypes, elements) -> str:
    """DuckDB oracle for :func:`chain_match`'s pattern."""
    ctes = []
    for i, (lo, hi, etype, _fixed) in enumerate(elements):
        on = "TRUE" if etype is None else f"e.etype = '{etype}'"
        pairs = []
        if hi >= 1:
            ctes.append(f"""w{i}(src, dst, k) AS (
                SELECT src, dst, 1 FROM edges e WHERE {on}
                UNION ALL
                SELECT w.src, e.dst, w.k + 1 FROM w{i} w JOIN edges e ON w.dst = e.src
                WHERE w.k < {hi} AND {on})""")
            pairs.append(f"SELECT src, dst FROM w{i} WHERE k >= {max(lo, 1)}")
        if lo == 0:
            pairs.append("SELECT id, id FROM vertices")
        ctes.append(f"p{i}(src, dst) AS ({' UNION '.join(pairs)})")
    last = len(elements) - 1
    joins = "".join(
        f" JOIN p{i} ON p{i - 1}.dst = p{i}.src" for i in range(1, len(elements))
    )
    ends = ["p0.src", *(f"p{i}.dst" for i in range(len(elements)))]
    typed = "".join(
        f" JOIN vertices x{i} ON x{i}.id = {end} AND x{i}.vtype = '{vtype}'"
        for i, (end, vtype) in enumerate(zip(ends, vtypes))
        if vtype is not None
    )
    return (
        f"WITH RECURSIVE {', '.join(ctes)} "
        f"SELECT DISTINCT p0.src AS a, p{last}.dst AS b FROM p0{joins}{typed}"
    )


class TestGeneratedChains:
    @pytest.mark.parametrize("name", ["fig3", "cyclic"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_execute_pattern_matches_oracle(self, graphs, name, data):
        graph, vertices, edges, vtypes, etypes = graphs[name]
        chain = data.draw(chains(vtypes, etypes))
        match = chain_match(*chain)
        assert_equivalent(
            execute_pattern(graph, parse_match(match)),
            chain_sql(*chain),
            vertices=vertices,
            edges=edges,
        )
