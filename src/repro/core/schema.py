"""Property-graph schema (§ III-A).

A schema declares the vertex types and the typed edges between them
(domain/range constraints): e.g. in the provenance graph an edge of type
``WRITES_TO`` only connects ``Job`` → ``File``. Kaskade's constraint
miner turns the schema into Prolog facts (``schemaVertex/1``,
``schemaEdge/3``) that prune view enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SchemaEdge:
    """A typed edge declaration ``src_type -[etype]-> dst_type``."""

    src_type: str
    dst_type: str
    etype: str


@dataclass(frozen=True)
class GraphSchema:
    """Vertex types plus typed-edge (domain, range) constraints."""

    vertex_types: tuple[str, ...]
    edges: tuple[SchemaEdge, ...] = field(default=())

    def __post_init__(self) -> None:
        known = set(self.vertex_types)
        for e in self.edges:
            if e.src_type not in known or e.dst_type not in known:
                raise ValueError(f"edge {e} references undeclared vertex type")

    @staticmethod
    def of(vertex_types: list[str], edges: list[tuple[str, str, str]]) -> "GraphSchema":
        """Build from ``(src_type, dst_type, etype)`` triples."""
        return GraphSchema(
            tuple(vertex_types),
            tuple(SchemaEdge(s, d, t) for s, d, t in edges),
        )

    def edge_types(self) -> set[str]:
        return {e.etype for e in self.edges}

    def out_types(self, vtype: str) -> set[str]:
        """Vertex types reachable from ``vtype`` in one hop."""
        return {e.dst_type for e in self.edges if e.src_type == vtype}

    def khop_type_paths(self, src_type: str, dst_type: str, k: int) -> bool:
        """True iff a k-hop *walk* ``src_type → … → dst_type`` is feasible
        over the schema graph. Python twin of the ``schemaKHopPath``
        mining rule — used as a test oracle for the Prolog version."""
        if k < 1:
            return False
        frontier = {src_type}
        for _ in range(k):
            frontier = {t for f in frontier for t in self.out_types(f)}
            if not frontier:
                return False
        return dst_type in frontier


# The two-type bipartite core of the provenance graph (Fig. 1 / § I-A).
PROVENANCE_CORE = GraphSchema.of(
    ["Job", "File"],
    [("Job", "File", "WRITES_TO"), ("File", "Job", "IS_READ_BY")],
)

# The full provenance schema (§ VII-B: jobs, files, tasks, machines, users).
PROVENANCE_FULL = GraphSchema.of(
    ["Job", "File", "Task", "Machine", "User"],
    [
        ("Job", "File", "WRITES_TO"),
        ("File", "Job", "IS_READ_BY"),
        ("Job", "Task", "HAS_TASK"),
        ("Task", "Task", "TRANSFERS_TO"),
        ("Task", "Machine", "RUNS_ON"),
        ("User", "Job", "SUBMITS"),
    ],
)

# dblp-net (§ VII-B): authors, publications of three types, venues.
DBLP_FULL = GraphSchema.of(
    ["Author", "Article", "Inproc", "Publication", "Venue"],
    [
        ("Author", "Article", "WROTE"),
        ("Article", "Author", "WRITTEN_BY"),
        ("Author", "Inproc", "WROTE"),
        ("Inproc", "Author", "WRITTEN_BY"),
        ("Author", "Publication", "WROTE"),
        ("Publication", "Author", "WRITTEN_BY"),
        ("Article", "Venue", "PUBLISHED_IN"),
        ("Inproc", "Venue", "PUBLISHED_IN"),
        ("Publication", "Venue", "PUBLISHED_IN"),
    ],
)

# Summarized dblp (authors + publications only, § VII-B).
DBLP_CORE = GraphSchema.of(
    ["Author", "Article", "Inproc", "Publication"],
    [
        ("Author", "Article", "WROTE"),
        ("Article", "Author", "WRITTEN_BY"),
        ("Author", "Inproc", "WROTE"),
        ("Inproc", "Author", "WRITTEN_BY"),
        ("Author", "Publication", "WROTE"),
        ("Publication", "Author", "WRITTEN_BY"),
    ],
)

# Homogeneous networks (soc-livejournal, roadnet-usa): one vertex type,
# one edge type.
HOMOGENEOUS = GraphSchema.of(["Vertex"], [("Vertex", "Vertex", "LINK")])
