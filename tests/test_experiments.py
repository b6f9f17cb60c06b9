"""Integration tests for the § VII experiment harnesses at the "test"
profile: every artifact's harness runs end to end and exhibits the
paper's qualitative shape at reduced scale."""
import math

import pytest

from repro.workload import (
    end_to_end_selection_rows,
    fig5_rows,
    fig6_rows,
    fig7_rows,
    format_rows,
    table3_rows,
)


@pytest.fixture(scope="module")
def t3(spark):
    return table3_rows(spark, "test")


@pytest.fixture(scope="module")
def f5(spark):
    return fig5_rows(spark, "test")


@pytest.fixture(scope="module")
def f6(spark):
    return fig6_rows(spark, "test")


@pytest.fixture(scope="module")
def f7(spark):
    return fig7_rows(spark, "test")


@pytest.fixture(scope="module")
def e2e(spark):
    return end_to_end_selection_rows(spark, "test")


class TestTable3:
    def test_all_datasets_present(self, t3):
        names = {r["dataset"] for r in t3}
        assert names == {
            "prov (raw)",
            "prov (summarized)",
            "dblp (raw)",
            "dblp (summarized)",
            "soc-livejournal",
            "roadnet-usa",
        }

    def test_raw_bigger_than_summarized(self, t3):
        by = {r["dataset"]: r for r in t3}
        for d in ("prov", "dblp"):
            assert by[f"{d} (raw)"]["E"] > by[f"{d} (summarized)"]["E"]
            assert by[f"{d} (raw)"]["V"] > by[f"{d} (summarized)"]["V"]

    def test_type_counts(self, t3):
        by = {r["dataset"]: r for r in t3}
        assert by["prov (raw)"]["vertex_types"] == 5
        assert by["prov (summarized)"]["vertex_types"] == 2
        assert by["soc-livejournal"]["vertex_types"] == 1

    def test_formatting(self, t3):
        text = format_rows(t3)
        assert "prov (raw)" in text and "dataset" in text


class TestFig5:
    def test_rows_for_each_dataset(self, f5):
        assert {r["dataset"] for r in f5} == {
            "prov",
            "dblp",
            "soc-livejournal",
            "roadnet-usa",
        }

    def test_alpha95_dominates_alpha50(self, f5):
        assert all(r["est95"] >= r["est50"] for r in f5)

    def test_actual_positive(self, f5):
        assert all(r["actual"] > 0 for r in f5)

    def test_er_underestimates_on_skewed_graphs(self, f5):
        """§ V-A: the ER estimator underestimates real skewed graphs. The
        effect grows with size (a 300-edge prefix is still ER-like), so
        we assert it at the largest prefix of the power-law network."""
        soc = max(
            (r for r in f5 if r["dataset"] == "soc-livejournal"),
            key=lambda r: r["E"],
        )
        assert soc["est_er"] < soc["actual"]

    def test_est95_within_orders_of_actual(self, f5):
        """'Reasonably well' (§ I-B): est95 within 2 orders of magnitude
        of the actual 2-hop path count on every dataset/prefix."""
        for r in f5:
            ratio = r["est95"] / r["actual"]
            assert 1e-2 <= ratio <= 1e2, (r, ratio)

    def test_estimates_grow_with_prefix(self, f5):
        for d in {r["dataset"] for r in f5}:
            rows = sorted((r for r in f5 if r["dataset"] == d), key=lambda r: r["E"])
            actuals = [r["actual"] for r in rows]
            assert actuals == sorted(actuals)


class TestFig6:
    def test_stage_order_and_monotone_reduction(self, f6):
        for d in ("prov", "dblp"):
            stages = {r["stage"]: r for r in f6 if r["dataset"] == d}
            assert stages["raw"]["E"] > stages["summarizer"]["E"]
            assert stages["summarizer"]["E"] > stages["connector"]["E"]

    def test_connector_reduction_is_large_on_prov(self, f6):
        """§ VII-E: the connector contracts job-file-job bundles — at
        least ~5x beyond the summarizer even at test scale."""
        stages = {r["stage"]: r for r in f6 if r["dataset"] == "prov"}
        assert stages["summarizer"]["E"] / stages["connector"]["E"] >= 5

    def test_reduction_column_consistent(self, f6):
        for r in f6:
            if r["stage"] == "raw":
                assert r["reduction_vs_raw"] == 1.0


class TestFig7:
    def test_full_query_matrix(self, f7):
        per_ds = {}
        for r in f7:
            per_ds.setdefault(r["dataset"], []).append(r["query"])
        assert len(per_ds["prov"]) == 8  # Q1..Q8
        assert len(per_ds["dblp"]) == 8
        assert len(per_ds["soc"]) == 7  # no Q1 on homogeneous
        assert len(per_ds["roadnet"]) == 7

    def test_equivalent_queries_same_cardinality(self, f7):
        """Q1–Q4 rewritten results must have the same row counts as the
        baselines (full equality is covered in test_workload)."""
        for r in f7:
            if r["query"].startswith(("Q1", "Q2", "Q3", "Q4")):
                assert r["baseline_rows"] == r["view_rows"], r

    def test_timings_positive(self, f7):
        assert all(r["baseline_s"] > 0 and r["view_s"] > 0 for r in f7)


class TestEndToEndSelection:
    def test_prov_selects_2hop_job_connector(self, e2e):
        prov = [r for r in e2e if r["dataset"] == "prov"]
        chosen = [r for r in prov if r["chosen"]]
        assert any(r["view"] == "CONN2_Job_Job" for r in chosen)

    def test_dblp_selects_2hop_author_connector(self, e2e):
        chosen = [r for r in e2e if r["dataset"] == "dblp" and r["chosen"]]
        assert any(r["view"] == "CONN2_Author_Author" for r in chosen)

    def test_k4_and_above_never_chosen(self, e2e):
        assert all(r["view"].startswith("CONN2") for r in e2e if r["chosen"])

    def test_chosen_views_have_rewritings(self, e2e):
        for r in e2e:
            if r["chosen"] and r["view"].startswith("CONN2"):
                assert r["rewrite"] == "*1..5"

    def test_infeasible_k_never_rewrites(self, e2e):
        for r in e2e:
            if not r["view"].startswith("CONN2"):
                assert r["rewrite"] == "-"
