"""The paper's evaluation workload (Table IV queries Q1–Q8) and the
harnesses reproducing each evaluation artifact (Table III, Figs. 5–7).
"""
from .queries import (
    WorkloadSpec,
    build_connector,
    dblp_spec,
    homogeneous_spec,
    prov_spec,
    q1_blast_radius,
    q1_pattern,
    q2_ancestors,
    q3_descendants,
    q4_path_lengths,
    q5_edge_count,
    q6_vertex_count,
    q7_communities,
    q8_largest_community,
    timed,
)
from .experiments import (
    PROFILES,
    end_to_end_selection_rows,
    fig5_rows,
    fig6_rows,
    fig7_rows,
    format_rows,
    table3_rows,
)

__all__ = [
    "WorkloadSpec",
    "prov_spec",
    "dblp_spec",
    "homogeneous_spec",
    "build_connector",
    "q1_pattern",
    "q1_blast_radius",
    "q2_ancestors",
    "q3_descendants",
    "q4_path_lengths",
    "q5_edge_count",
    "q6_vertex_count",
    "q7_communities",
    "q8_largest_community",
    "timed",
    "PROFILES",
    "table3_rows",
    "fig5_rows",
    "fig6_rows",
    "fig7_rows",
    "end_to_end_selection_rows",
    "format_rows",
]
