"""Graph-pattern IR and a parser for the Cypher ``MATCH`` fragment
Kaskade's hybrid query language uses (§ III-B).

The workload queries need: typed nodes ``(a:Job)``, typed edges
``-[:WRITES_TO]->``, variable-length paths ``-[r*0..8]->`` (optionally
typed: ``-[r:LINK*0..8]->``), comma-separated pattern chains, and a
``RETURN a AS X, b AS Y`` projection. The relational part of a hybrid
query (filters/aggregates) is plain SQL executed by Spark over the
match result (see ``repro.engine.hybrid``).

The IR has one element kind: a fixed edge ``-[:T]->`` matches exactly
what the one-hop path ``-[:T*1..1]->`` matches, so the parser emits it
as that :class:`VarLengthPath`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class PatternVertex:
    """A named query vertex, optionally constrained to a vertex type."""

    name: str
    vtype: str | None = None


@dataclass(frozen=True)
class VarLengthPath:
    """A pattern element: a path ``src -[etype*lower..upper]-> dst``,
    optionally constrained to an edge type. A fixed edge is the
    ``1..1`` path."""

    src: str
    dst: str
    lower: int
    upper: int
    etype: str | None = None

    def __post_init__(self) -> None:
        if self.lower < 0 or self.upper < self.lower:
            raise ValueError(f"bad bounds [{self.lower}..{self.upper}]")


@dataclass(frozen=True)
class QueryPattern:
    """A parsed MATCH clause: vertices, the paths between them (fixed
    edges included, in textual order), and the projected vertex
    variables (with output aliases)."""

    vertices: tuple[PatternVertex, ...]
    paths: tuple[VarLengthPath, ...] = ()
    returns: tuple[tuple[str, str], ...] = ()  # (var, alias)

    def __post_init__(self) -> None:
        names = {v.name for v in self.vertices}
        for p in self.paths:
            if p.src not in names or p.dst not in names:
                raise ValueError(f"path {p} references unknown vertex")
        for var, _ in self.returns:
            if var not in names:
                raise ValueError(f"RETURN references unknown vertex {var!r}")

    def vertex(self, name: str) -> PatternVertex:
        for v in self.vertices:
            if v.name == name:
                return v
        raise KeyError(name)

    def vtype(self, name: str) -> str | None:
        return self.vertex(name).vtype


_NODE = re.compile(r"\(\s*([A-Za-z_]\w*)\s*(?::\s*([A-Za-z_]\w*))?\s*\)")
_EDGE = re.compile(
    r"-\[\s*(?:[A-Za-z_]\w*)?\s*(?::\s*([A-Za-z_]\w*))?\s*"
    r"(?:\*\s*(\d+)\s*\.\.\s*(\d+))?\s*\]->"
)


class PatternParseError(ValueError):
    """Raised on text the MATCH-fragment grammar does not cover."""


def parse_match(text: str) -> QueryPattern:
    """Parse a ``MATCH … RETURN …`` clause into a :class:`QueryPattern`.

    Grammar (the fragment used by the paper's workload)::

        MATCH chain ("," chain)* RETURN var ("AS" alias)? ("," ...)*
        chain := node (edge node)*
        node  := "(" name (":" Type)? ")"
        edge  := "-[" name? (":" TYPE)? ("*" l ".." u)? "]->"
    """
    m = re.match(r"\s*MATCH\b(.*?)(?:\bRETURN\b(.*))?$", text.strip(),
                 re.IGNORECASE | re.DOTALL)
    if not m:
        raise PatternParseError(f"not a MATCH clause: {text[:60]!r}")
    body, ret = m.group(1), m.group(2)

    vertices: dict[str, str | None] = {}
    paths: list[VarLengthPath] = []

    pos, last_node, expect_node = 0, None, True
    body = body.strip()
    while pos < len(body):
        chunk = body[pos:]
        if chunk.startswith(","):
            pos += 1
            last_node, expect_node = None, True
            continue
        if chunk[0].isspace():
            pos += 1
            continue
        if expect_node:
            nm = _NODE.match(chunk)
            if not nm:
                raise PatternParseError(f"expected node at: {chunk[:40]!r}")
            name, vtype = nm.group(1), nm.group(2)
            if name in vertices:
                if vtype and vertices[name] and vtype != vertices[name]:
                    raise PatternParseError(
                        f"vertex {name!r} declared with conflicting types"
                    )
                vertices[name] = vertices[name] or vtype
            else:
                vertices[name] = vtype
            if last_node is not None:
                src, etype, lo, hi = last_node
                paths.append(VarLengthPath(src, name, lo, hi, etype))
            last_node = (name, None, 1, 1)
            pos += nm.end()
            expect_node = False
            continue
        em = _EDGE.match(chunk)
        if not em:
            raise PatternParseError(f"expected edge at: {chunk[:40]!r}")
        etype, lo, hi = em.group(1), em.group(2), em.group(3)
        last_node = (last_node[0], etype, int(lo or 1), int(hi or 1))
        pos += em.end()
        expect_node = True

    returns: list[tuple[str, str]] = []
    if ret:
        for item in ret.split(","):
            item = item.strip()
            if not item:
                continue
            am = re.match(r"([A-Za-z_]\w*)(?:\s+AS\s+([A-Za-z_]\w*))?$",
                          item, re.IGNORECASE)
            if not am:
                raise PatternParseError(f"bad RETURN item: {item!r}")
            returns.append((am.group(1), am.group(2) or am.group(1)))

    return QueryPattern(
        vertices=tuple(PatternVertex(n, t) for n, t in vertices.items()),
        paths=tuple(paths),
        returns=tuple(returns),
    )


# The running example of the paper (Lst. 1): the MATCH fragment of the
# job blast radius query.
BLAST_RADIUS_MATCH = (
    "MATCH (q_j1:Job) -[:WRITES_TO]-> (q_f1:File), "
    "(q_f1:File) -[r*0..8]-> (q_f2:File), "
    "(q_f2:File) -[:IS_READ_BY]-> (q_j2:Job) "
    "RETURN q_j1 AS A, q_j2 AS B"
)
