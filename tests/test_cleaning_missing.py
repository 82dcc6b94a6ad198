"""Missing-value cleaning: semantics, and every statistic and repair
against DuckDB SQL."""
import numpy as np
import pandas as pd
import pytest

from repro.cleaning.missing import (
    DUMMY,
    delete_missing_pandas,
    detect_missing_pandas,
    fit_impute_stats,
    impute_pandas,
    split_repair,
)
from repro.cleaning.registry import MISSING_IMPUTATIONS
from repro.oracle import assert_equivalent


@pytest.fixture
def dirty():
    return pd.DataFrame(
        {
            "a": [1.0, 2.0, np.nan, 4.0, 100.0, np.nan],
            "b": [10.0, np.nan, 30.0, 40.0, 50.0, 60.0],
            "c": ["x", "y", None, "x", "x", "y"],
        }
    )


class TestStats:
    def test_mean_median_mode(self, dirty):
        s = fit_impute_stats(dirty, ["a", "b"], ["c"])
        assert s.num_mean["a"] == pytest.approx(np.nanmean(dirty.a))
        assert s.num_median["a"] == pytest.approx(np.nanmedian(dirty.a))
        assert s.num_mode["b"] == 10.0  # all unique -> smallest mode
        assert s.cat_mode["c"] == "x"

    def test_all_missing_column(self):
        pdf = pd.DataFrame({"a": [np.nan, np.nan], "c": [None, None]})
        s = fit_impute_stats(pdf, ["a"], ["c"])
        assert s.num_mean["a"] == 0.0
        assert s.cat_mode["c"] == DUMMY


class TestDetectDelete:
    def test_detect_rows(self, dirty):
        mask = detect_missing_pandas(dirty, ["a", "b", "c"])
        assert mask.tolist() == [False, True, True, False, False, True]

    def test_delete_drops_only_missing(self, dirty):
        out = delete_missing_pandas(dirty, ["a", "b", "c"])
        assert len(out) == 3
        assert not out[["a", "b", "c"]].isna().any().any()

    def test_delete_subset_of_columns(self, dirty):
        out = delete_missing_pandas(dirty, ["a"])
        assert len(out) == 4


@pytest.mark.parametrize("repair", MISSING_IMPUTATIONS)
class TestImputeAllMethods:
    def test_no_missing_left(self, dirty, repair):
        s = fit_impute_stats(dirty, ["a", "b"], ["c"])
        num_m, cat_m = split_repair(repair)
        out = impute_pandas(
            dirty, s, numeric=["a", "b"], categorical=["c"],
            num_method=num_m, cat_method=cat_m,
        )
        assert not out[["a", "b", "c"]].isna().any().any()

    def test_observed_values_unchanged(self, dirty, repair):
        s = fit_impute_stats(dirty, ["a", "b"], ["c"])
        num_m, cat_m = split_repair(repair)
        out = impute_pandas(
            dirty, s, numeric=["a", "b"], categorical=["c"],
            num_method=num_m, cat_method=cat_m,
        )
        obs = dirty.a.notna()
        assert np.allclose(out.a[obs], dirty.a[obs])


class TestImputeSemantics:
    def test_mean_fill_value(self, dirty):
        s = fit_impute_stats(dirty, ["a"], [])
        out = impute_pandas(
            dirty, s, numeric=["a"], categorical=[], num_method="mean", cat_method="mode"
        )
        assert out.a[2] == pytest.approx(np.nanmean(dirty.a))

    def test_dummy_category(self, dirty):
        s = fit_impute_stats(dirty, [], ["c"])
        out = impute_pandas(
            dirty, s, numeric=[], categorical=["c"], num_method="mean", cat_method="dummy"
        )
        assert out.c[2] == DUMMY

    def test_mode_category(self, dirty):
        s = fit_impute_stats(dirty, [], ["c"])
        out = impute_pandas(
            dirty, s, numeric=[], categorical=["c"], num_method="mean", cat_method="mode"
        )
        assert out.c[2] == "x"

    def test_train_stats_used_on_test(self, dirty):
        s = fit_impute_stats(dirty, ["a"], [])
        test = pd.DataFrame({"a": [np.nan]})
        out = impute_pandas(
            test, s, numeric=["a"], categorical=[], num_method="median", cat_method="mode"
        )
        assert out.a[0] == pytest.approx(np.nanmedian(dirty.a))


# DuckDB fill value per numeric statistic / categorical strategy, written
# independently of the pandas code.
NUM_FILL = {
    "mean": "(SELECT AVG({c}) FROM t)",
    "median": "(SELECT MEDIAN({c}) FROM t)",
    "mode": "(SELECT {c} FROM t WHERE {c} IS NOT NULL "
    "GROUP BY {c} ORDER BY COUNT(*) DESC, {c} LIMIT 1)",
}
CAT_FILL = {"dummy": f"'{DUMMY}'", "mode": NUM_FILL["mode"]}


@pytest.fixture
def train():
    """~20 % missing numeric cells and ~17 % missing categories. In
    ``a`` and ``c`` the most frequent value is tied, so the mode's tie
    rule is checked."""
    rng = np.random.default_rng(7)
    n = 80
    a = rng.integers(0, 6, n).astype(float)
    b = rng.normal(size=n).round(1)
    for col in (a, b):
        col[rng.random(n) < 0.2] = None
    c = np.resize(np.array(["y", "x", "z", "x", "y", None], dtype=object), n)
    pdf = pd.DataFrame({"a": a, "b": b, "c": c})
    for col in ("a", "c"):
        counts = pdf[col].value_counts()
        assert (counts == counts.max()).sum() > 1
    return pdf


class TestAgainstOracle:
    """The pandas functions against DuckDB SQL over the same frame."""

    @pytest.mark.parametrize("col", ["a", "b"])
    def test_numeric_stats(self, spark, train, col):
        s = fit_impute_stats(train, ["a", "b"], ["c"])
        got = {
            "mean": s.num_mean[col],
            "median": s.num_median[col],
            "mode": s.num_mode[col],
        }
        assert_equivalent(
            spark.createDataFrame(pd.DataFrame([got])),
            f"SELECT AVG({col}) AS mean, MEDIAN({col}) AS median, "
            f"{NUM_FILL['mode'].format(c=col)} AS mode FROM t",
            t=train,
        )

    def test_categorical_mode(self, spark, train):
        s = fit_impute_stats(train, ["a", "b"], ["c"])
        assert_equivalent(
            spark.createDataFrame(pd.DataFrame({"mode": [s.cat_mode["c"]]})),
            f"SELECT {NUM_FILL['mode'].format(c='c')} AS mode",
            t=train,
        )

    @pytest.mark.parametrize("repair", MISSING_IMPUTATIONS)
    def test_impute(self, spark, train, repair):
        num_m, cat_m = split_repair(repair)
        s = fit_impute_stats(train, ["a", "b"], ["c"])
        out = impute_pandas(
            train, s, numeric=["a", "b"], categorical=["c"],
            num_method=num_m, cat_method=cat_m,
        )
        num = NUM_FILL[num_m]
        assert_equivalent(
            spark.createDataFrame(out),
            f"SELECT COALESCE(a, {num.format(c='a')}) AS a, "
            f"COALESCE(b, {num.format(c='b')}) AS b, "
            f"COALESCE(c, {CAT_FILL[cat_m].format(c='c')}) AS c FROM t",
            t=train,
        )

    def test_delete(self, spark, train):
        out = delete_missing_pandas(train, ["a", "b", "c"])
        assert_equivalent(
            spark.createDataFrame(out),
            "SELECT a, b, c FROM t "
            "WHERE a IS NOT NULL AND b IS NOT NULL AND c IS NOT NULL",
            t=train,
        )
