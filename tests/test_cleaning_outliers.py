"""Outlier cleaning: SD/IQR/IF detection, repairs, and the SD/IQR
statistics and repairs against DuckDB SQL."""
import numpy as np
import pandas as pd
import pytest

from repro.cleaning.isolation_forest import IsolationForest, _c
from repro.cleaning.outliers import (
    detect_cells_pandas,
    detect_rows_pandas,
    fit_outlier_stats,
    repair_pandas,
)
from repro.oracle import assert_equivalent


@pytest.fixture
def frame():
    rng = np.random.default_rng(0)
    a = rng.normal(10, 1, 200)
    a[:5] = [50.0, -40.0, 60.0, 55.0, -45.0]  # gross outliers
    b = rng.normal(0, 2, 200)
    return pd.DataFrame({"a": a, "b": b})


class TestSD:
    def test_bounds_formula(self, frame):
        s = fit_outlier_stats(frame, ["a"], "SD")
        mu, sd = frame.a.mean(), frame.a.std(ddof=0)
        assert s.bounds["a"][0] == pytest.approx(mu - 3 * sd)
        assert s.bounds["a"][1] == pytest.approx(mu + 3 * sd)

    def test_detects_planted(self, frame):
        s = fit_outlier_stats(frame, ["a"], "SD")
        mask = detect_cells_pandas(frame, s)
        assert mask.a[:5].all()

    def test_clean_column_untouched(self, frame):
        s = fit_outlier_stats(frame, ["a", "b"], "SD")
        mask = detect_cells_pandas(frame, s)
        assert mask.b.sum() <= 2  # ~3 sigma on normal data


class TestIQR:
    def test_bounds_formula(self, frame):
        s = fit_outlier_stats(frame, ["a"], "IQR")
        q1, q3 = frame.a.quantile(0.25), frame.a.quantile(0.75)
        iqr = q3 - q1
        assert s.bounds["a"][0] == pytest.approx(q1 - 1.5 * iqr)
        assert s.bounds["a"][1] == pytest.approx(q3 + 1.5 * iqr)

    def test_detects_planted(self, frame):
        s = fit_outlier_stats(frame, ["a"], "IQR")
        assert detect_cells_pandas(frame, s).a[:5].all()

    def test_row_mask_is_union(self, frame):
        s = fit_outlier_stats(frame, ["a", "b"], "IQR")
        cells = detect_cells_pandas(frame, s)
        rows = detect_rows_pandas(frame, s)
        assert rows.equals(cells.any(axis=1))


class TestIsolationForest:
    def test_c_formula(self):
        assert _c(1) == 0.0
        assert _c(2) > 0.0

    def test_anomalies_score_higher(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (300, 2))
        X[0] = [15.0, -15.0]
        f = IsolationForest(seed=0).fit(X)
        scores = f.score(X)
        assert scores[0] > np.median(scores)

    def test_contamination_rate(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (500, 3))
        f = IsolationForest(contamination=0.05, seed=0).fit(X)
        rate = f.predict_outlier(X).mean()
        assert 0.0 < rate <= 0.12

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (200, 2))
        s1 = IsolationForest(seed=9).fit(X).score(X)
        s2 = IsolationForest(seed=9).fit(X).score(X)
        assert np.allclose(s1, s2)

    def test_detects_planted_in_frame(self, frame):
        # contamination=0.01 flags ~2 of 200 rows; those few flagged
        # rows must come from the planted gross outliers.
        s = fit_outlier_stats(frame, ["a", "b"], "IF", seed=0)
        rows = detect_rows_pandas(frame, s)
        assert 1 <= rows.sum() <= 6
        assert rows[:5].sum() >= 1
        assert rows[5:].sum() <= 1


class TestRepairs:
    @pytest.mark.parametrize("detect", ["SD", "IQR"])
    def test_delete_removes_flagged_rows(self, frame, detect):
        s = fit_outlier_stats(frame, ["a"], detect)
        out = repair_pandas(frame, s, "delete")
        assert len(out) == len(frame) - detect_rows_pandas(frame, s).sum()

    @pytest.mark.parametrize(
        "repair", ["impute_mean", "impute_median", "impute_mode"]
    )
    def test_impute_uses_inlier_stats(self, frame, repair):
        s = fit_outlier_stats(frame, ["a"], "SD")
        out = repair_pandas(frame, s, repair)
        fill = s.fill_value("a", repair)
        assert np.allclose(out.a[:5], fill)
        lo, hi = s.bounds["a"]
        assert lo <= fill <= hi  # fitted on inliers only

    def test_impute_keeps_inliers(self, frame):
        s = fit_outlier_stats(frame, ["a"], "IQR")
        out = repair_pandas(frame, s, "impute_mean")
        inl = ~detect_cells_pandas(frame, s).a
        assert np.allclose(out.a[inl], frame.a[inl])

    def test_if_repair_applies_to_whole_row(self, frame):
        s = fit_outlier_stats(frame, ["a", "b"], "IF", seed=0)
        out = repair_pandas(frame, s, "impute_median")
        rows = detect_rows_pandas(frame, s)
        assert np.allclose(out.a[rows], s.fill_median["a"])
        assert np.allclose(out.b[rows], s.fill_median["b"])

    def test_test_set_repaired_with_train_bounds(self, frame):
        s = fit_outlier_stats(frame, ["a"], "SD")
        test = pd.DataFrame({"a": [10.0, 500.0], "b": [0.0, 0.0]})
        out = repair_pandas(test, s, "impute_mean")
        assert out.a[0] == 10.0
        assert out.a[1] == pytest.approx(s.fill_mean["a"])


# DuckDB detection bounds and inlier fill values, written independently
# of the pandas code. ``bnd`` holds one row of bounds ``lo_<c>``/``hi_<c>``
# per column; ``inl_<c>`` the column's training inliers.
BOUNDS = {
    "SD": "AVG({c}) - 3 * STDDEV_POP({c}) AS lo_{c}, "
    "AVG({c}) + 3 * STDDEV_POP({c}) AS hi_{c}",
    "IQR": "QUANTILE_CONT({c}, 0.25) - 1.5 * (QUANTILE_CONT({c}, 0.75) - "
    "QUANTILE_CONT({c}, 0.25)) AS lo_{c}, "
    "QUANTILE_CONT({c}, 0.75) + 1.5 * (QUANTILE_CONT({c}, 0.75) - "
    "QUANTILE_CONT({c}, 0.25)) AS hi_{c}",
}
FILL = {
    "impute_mean": "(SELECT AVG({c}) FROM inl_{c})",
    "impute_median": "(SELECT MEDIAN({c}) FROM inl_{c})",
    "impute_mode": "(SELECT {c} FROM inl_{c} GROUP BY {c} "
    "ORDER BY COUNT(*) DESC, {c} LIMIT 1)",
}
COLS = ("a", "b")


def _with(detect: str) -> str:
    """``WITH`` clause defining ``bnd`` and every ``inl_<c>`` over ``t``."""
    bounds = ", ".join(BOUNDS[detect].format(c=c) for c in COLS)
    inliers = "".join(
        f", inl_{c} AS (SELECT {c} FROM t, bnd WHERE {c} BETWEEN lo_{c} AND hi_{c})"
        for c in COLS
    )
    return f"WITH bnd AS (SELECT {bounds} FROM t){inliers} "


@pytest.mark.parametrize("detect", ["SD", "IQR"])
class TestAgainstOracle:
    """The pandas functions against DuckDB SQL over the same frame."""

    @pytest.fixture
    def train(self):
        """Quarter steps in [-5, 5] plus gross outliers. Each column's
        most frequent value is tied, so the inlier mode's tie rule is
        checked."""
        rng = np.random.default_rng(12)
        X = rng.integers(-20, 21, (200, 2)) / 4
        X[:4, 0] = [40.0, -35.0, 50.0, 45.0]
        X[4:6, 1] = [-30.0, 30.0]
        pdf = pd.DataFrame(X, columns=list(COLS))
        for c in COLS:
            counts = pdf[c].value_counts()
            assert (counts == counts.max()).sum() > 1
        return pdf

    @pytest.fixture
    def holdout(self, train):
        """Shuffled and scaled training rows, repaired with train stats."""
        return train.sample(frac=1.0, random_state=1).reset_index(drop=True) * 1.1

    def test_bounds(self, spark, train, detect):
        s = fit_outlier_stats(train, list(COLS), detect)
        got = {f"lo_{c}": s.bounds[c][0] for c in COLS}
        got.update({f"hi_{c}": s.bounds[c][1] for c in COLS})
        assert_equivalent(
            spark.createDataFrame(pd.DataFrame([got])),
            _with(detect) + "SELECT * FROM bnd",
            t=train,
        )

    def test_inlier_fills(self, spark, train, detect):
        s = fit_outlier_stats(train, list(COLS), detect)
        got = {f"{r}_{c}": s.fill_value(c, r) for r in FILL for c in COLS}
        fills = ", ".join(
            f"{FILL[r].format(c=c)} AS {r}_{c}" for r in FILL for c in COLS
        )
        assert_equivalent(
            spark.createDataFrame(pd.DataFrame([got])),
            _with(detect) + f"SELECT {fills}",
            t=train,
        )

    def test_delete(self, spark, train, holdout, detect):
        s = fit_outlier_stats(train, list(COLS), detect)
        inlier = " AND ".join(f"{c} BETWEEN lo_{c} AND hi_{c}" for c in COLS)
        assert_equivalent(
            spark.createDataFrame(repair_pandas(holdout, s, "delete")),
            _with(detect) + f"SELECT a, b FROM u, bnd WHERE {inlier}",
            t=train,
            u=holdout,
        )

    @pytest.mark.parametrize("repair", list(FILL))
    def test_impute(self, spark, train, holdout, detect, repair):
        s = fit_outlier_stats(train, list(COLS), detect)
        cols = ", ".join(
            f"CASE WHEN {c} BETWEEN lo_{c} AND hi_{c} THEN {c} "
            f"ELSE {FILL[repair].format(c=c)} END AS {c}"
            for c in COLS
        )
        assert_equivalent(
            spark.createDataFrame(repair_pandas(holdout, s, repair)),
            _with(detect) + f"SELECT {cols} FROM u, bnd",
            t=train,
            u=holdout,
        )
