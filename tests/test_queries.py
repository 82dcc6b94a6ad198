"""Q1-Q5 query tests: Spark SQL results checked against the DuckDB
oracle with the paper's literal SQL, the single-stage plans over the
registered views, plus share-formatting tests."""
import pandas as pd
import pytest

from repro.core.queries import (
    QUERIES,
    applicable,
    flag_shares,
    group_attr,
    register_relations,
    run_query,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def relation(spark):
    """A small synthetic flagged relation registered as R1."""
    rows = []
    flags = ["P", "P", "S", "N", "S", "S", "P", "S"]
    for i, flag in enumerate(flags):
        rows.append(
            {
                "dataset": "EEG" if i % 2 == 0 else "Sensor",
                "error_type": "outliers",
                "detect": "SD" if i < 4 else "IQR",
                "repair": "delete",
                "model": "m1" if i % 4 < 2 else "m2",
                "scenario": "BD" if i % 2 == 0 else "CD",
                "flag": flag,
            }
        )
    rows.append(
        {
            "dataset": "Titanic",
            "error_type": "missing_values",
            "detect": "empty_entry",
            "repair": "mean_mode",
            "model": "m1",
            "scenario": "BD",
            "flag": "P",
        }
    )
    pdf = pd.DataFrame(rows)
    register_relations(spark, {"R1": pdf})
    return pdf


class TestQueriesAgainstOracle:
    """Each Spark SQL query must equal DuckDB running the same SQL."""

    @pytest.mark.parametrize("q", ["Q1", "Q2", "Q3", "Q4.1", "Q4.2", "Q5"])
    def test_matches_duckdb(self, spark, relation, q):
        sql = QUERIES[q].format(rel="R1", e="outliers")
        got = run_query(spark, q, "R1", "outliers")
        assert_equivalent(got, sql.replace("R1", "t"), t=relation)


class TestQueryPlans:
    """A registered view has one partition, so no query shuffles."""

    @pytest.mark.parametrize("q", ["Q1", "Q2", "Q3", "Q4.1", "Q4.2", "Q5"])
    def test_no_exchange(self, spark, relation, q):
        for e in sorted(set(relation.error_type)):
            if applicable(q, "R1", e):
                plan = run_query(spark, q, "R1", e)._jdf.queryExecution().executedPlan()
                assert "Exchange" not in plan.toString(), (q, e)


class TestQuerySemantics:
    def test_q1_counts(self, spark, relation):
        out = run_query(spark, "Q1", "R1", "outliers").toPandas()
        counts = dict(zip(out.flag, out.n))
        assert counts == {"P": 3, "S": 4, "N": 1}

    def test_q1_filters_error_type(self, spark, relation):
        out = run_query(spark, "Q1", "R1", "missing_values").toPandas()
        assert out.n.sum() == 1

    def test_q2_groups_by_scenario(self, spark, relation):
        out = run_query(spark, "Q2", "R1", "outliers").toPandas()
        assert set(out.scenario) == {"BD", "CD"}
        assert out.n.sum() == 8

    def test_q5_groups_by_dataset(self, spark, relation):
        out = run_query(spark, "Q5", "R1", "outliers").toPandas()
        assert set(out.dataset) == {"EEG", "Sensor"}


class TestApplicability:
    def test_q3_only_r1(self):
        assert applicable("Q3", "R1", "outliers")
        assert not applicable("Q3", "R2", "outliers")
        assert not applicable("Q3", "R3", "outliers")

    def test_q4_rules(self):
        assert applicable("Q4.1", "R1", "outliers")
        assert not applicable("Q4.1", "R3", "outliers")
        assert not applicable("Q4.1", "R1", "duplicates")
        assert not applicable("Q4.1", "R1", "missing_values")
        assert applicable("Q4.2", "R1", "missing_values")

    def test_q2_not_for_missing_values(self):
        assert not applicable("Q2", "R1", "missing_values")
        assert applicable("Q2", "R1", "mislabels")

    def test_q1_always(self):
        for rel in ("R1", "R2", "R3"):
            for e in ("outliers", "missing_values", "duplicates"):
                assert applicable("Q1", rel, e)


class TestFlagShares:
    def test_q1_shape(self):
        counts = pd.DataFrame({"flag": ["P", "S"], "n": [1, 3]})
        out = flag_shares(counts, None)
        assert out.P.iloc[0] == "25.00% (1)"
        assert out.S.iloc[0] == "75.00% (3)"
        assert out.N.iloc[0] == "0.00% (0)"

    def test_grouped_shares_sum_to_100(self):
        counts = pd.DataFrame(
            {
                "scenario": ["BD", "BD", "CD"],
                "flag": ["P", "S", "N"],
                "n": [1, 1, 2],
            }
        )
        out = flag_shares(counts, "scenario")
        assert out[out.group == "BD"].P.iloc[0] == "50.00% (1)"
        assert out[out.group == "CD"].N.iloc[0] == "100.00% (2)"

    def test_group_attr_mapping(self):
        assert group_attr("Q1") is None
        assert group_attr("Q3") == "model"
        assert group_attr("Q5") == "dataset"
