"""Build the CleanML relations R1/R2/R3 from the results DataFrame.

The pipeline is Spark-native up to one small driver-side step:

1. **Metric pairs** per (spec, split) come from one BD and one CD join
   between the "before" and "after" slices of the results DataFrame
   (Table 4/5 semantics, per scenario).
2. **Seed aggregation** (§4.2.1): R1 averages each side over the
   random-search seeds per model; R2/R3 select the best (model, seed)
   by validation metric via window functions.
3. **Cleaning-method selection** for R3 (§4.1) picks the method whose
   selected clean-side model has the best validation metric.
4. **t-tests** (§4.2.2): Spark aggregates each spec's split pairs to
   (count, means, standard deviation of the differences); the driver
   turns those moments into p-values with ``ttest_from_moments``. The
   **BY correction** (§4.3) runs per relation and test type, and flags
   follow the paper's decision rule.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.schema import DELETE_BASELINE, DIRTY, R1_KEY, R2_KEY, R3_KEY
from repro.stats import by_adjust, decide_flag, ttest_from_moments

_METHOD_KEY = ["dataset", "error_type", "detect", "repair", "train_version", "split_seed"]
_TESTS = ("p_two", "p_upper", "p_lower")


def _pairs(results: DataFrame, per_model: bool) -> DataFrame:
    """(before, after) metric pairs per spec and split.

    BD: before = baseline-trained model on the cleaned test variant,
        after = clean-trained model on the same variant.
    CD: before = clean-trained model on the dirty test set,
        after = the same model on its cleaned test variant
        (not for missing values, which are BD-only).

    ``per_model`` (R1) averages each side's ``test_metric`` per model
    over the search seeds; otherwise (R2) each side keeps the best
    (model, search seed) by ``val_metric``, ties to the lowest model
    and then the lowest seed, and the after side also reports that
    ``val_metric`` as ``after_val``.
    """
    model = ["model"] if per_model else []

    def side(rows: DataFrame, keys: list[str], name: str) -> DataFrame:
        if per_model:
            return rows.groupBy(*keys, "model").agg(F.avg("test_metric").alias(f"{name}_metric"))
        w = Window.partitionBy(*keys).orderBy(F.desc("val_metric"), "model", "search_seed")
        return (
            rows.withColumn("__rn", F.row_number().over(w))
            .where(F.col("__rn") == 1)
            .select(*keys, F.col("test_metric").alias(f"{name}_metric"),
                    F.col("val_metric").alias(f"{name}_val"))
        )

    baseline = F.when(F.col("error_type") == "missing_values", DELETE_BASELINE).otherwise(DIRTY)
    is_base, variant = F.col("train_version") == baseline, F.col("test_variant")
    method = results.where(~is_base)
    after = side(method.where(variant == F.col("train_version")), _METHOD_KEY, "after")
    # The baseline model's score on a cleaned test variant is the BD
    # "before" of the method that produced that variant.
    bd_key = ["dataset", "error_type", "split_seed", "train_version"]
    bd_rows = results.where(is_base & (variant != DIRTY)).drop("train_version")
    before_bd = side(bd_rows.withColumnRenamed("test_variant", "train_version"), bd_key, "before")
    cd_rows = method.where((variant == DIRTY) & (F.col("error_type") != "missing_values"))
    before_cd = side(cd_rows, _METHOD_KEY, "before")
    cols = [*_METHOD_KEY[:5], *model, "scenario", "split_seed",
            "before_metric", "after_metric", *([] if per_model else ["after_val"])]
    bd = after.join(before_bd, on=[*bd_key, *model]).withColumn("scenario", F.lit("BD"))
    cd = after.join(before_cd, on=[*_METHOD_KEY, *model]).withColumn("scenario", F.lit("CD"))
    return bd.select(*cols).unionByName(cd.select(*cols))


def build_pairs_r1(results: DataFrame) -> DataFrame:
    """R1 metric pairs: seed-averaged (before, after) per model, spec and split."""
    return _pairs(results, per_model=True)


def build_pairs_r2(results: DataFrame) -> DataFrame:
    """R2 metric pairs: per split, the best (model, seed) on each side by
    validation metric (§4.2.1 / Table 8, 11)."""
    return _pairs(results, per_model=False)


def build_pairs_r3(pairs_r2: DataFrame) -> DataFrame:
    """R3 pairs: per (dataset, error, scenario, split) keep the cleaning
    method whose clean-side validation metric is best (Table 9)."""
    w = Window.partitionBy("dataset", "error_type", "scenario", "split_seed").orderBy(
        F.desc("after_val"), F.asc("detect"), F.asc("repair")
    )
    return (
        pairs_r2.withColumn("__rn", F.row_number().over(w))
        .where(F.col("__rn") == 1)
        .drop("__rn")
    )


def _flagged(pairs: DataFrame, key: list[str], alpha: float) -> pd.DataFrame:
    """Per-spec t-tests over the split pairs, BY-adjusted across the
    relation per test type, then flagged; sorted by ``key``."""
    d = F.col("after_metric") - F.col("before_metric")
    out = (
        pairs.groupBy(*key)
        .agg(
            F.count(F.lit(1)).cast("int").alias("n_pairs"),
            F.avg("before_metric").alias("mean_before"),
            F.avg("after_metric").alias("mean_after"),
            F.avg(d).alias("mean_diff"),
            F.stddev_samp(d).alias("sd_diff"),
        )
        .toPandas()
        .sort_values(key, ignore_index=True)
    )
    sd = out.pop("sd_diff")
    tests = [ttest_from_moments(int(n), m, s) for n, m, s in zip(out.n_pairs, out.mean_diff, sd)]
    for col in _TESTS:
        out[col] = np.array([getattr(t, col) for t in tests], dtype=np.float64)
    for col in _TESTS:
        out[f"{col}_adj"] = by_adjust(out[col].to_numpy())
    out["flag"] = [
        decide_flag(r.p_two_adj, r.p_upper_adj, r.p_lower_adj, alpha).value
        for r in out.itertuples()
    ]
    return out


def build_relations(results: DataFrame, alpha: float = 0.05) -> dict[str, pd.DataFrame]:
    """Full §4 pipeline: results -> flagged R1, R2, R3 (as pandas)."""
    pairs_r1 = build_pairs_r1(results)
    pairs_r2 = build_pairs_r2(results)
    pairs_r3 = build_pairs_r3(pairs_r2)
    return {
        "R1": _flagged(pairs_r1, R1_KEY, alpha),
        "R2": _flagged(pairs_r2, R2_KEY, alpha),
        "R3": _flagged(pairs_r3, R3_KEY, alpha),
    }
