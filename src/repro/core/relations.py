"""Build the CleanML relations R1/R2/R3 from the results DataFrame.

The pipeline is Spark-native up to one small driver-side step, and it
shuffles the results once:

1. **Pair sides, one shuffle by unit.** Only the rows that are one side
   of a pair are kept (Table 4/5 semantics): *after* (a cleaned version
   on its own test variant), *BD before* (the baseline on a cleaned
   variant) and *CD before* (a cleaned version on the dirty test set,
   not for missing values). Each row names its cleaning method, and the
   rows are repartitioned by unit (dataset, error type, split). Every
   later grouping key contains the unit, so Spark adds no further
   Exchange: both sides of a pair meet in one aggregate row.
2. **Seed aggregation** (§4.2.1): one ``groupBy(unit, method, model)``
   computes, per side, a conditional average of ``test_metric`` (R1's
   seed means) and a conditional min over ``struct(-val_metric, model,
   search_seed, ...)``, the model's best seed. R2 takes the min of those
   structs again per (unit, method): the lexicographic order is "best
   validation metric, then lowest model, then lowest seed".
3. **Cleaning-method selection** for R3 (§4.1) is the min over
   ``struct(-after_val, detect, repair, ...)`` per (unit, scenario).
   BD and CD rows come from one ``explode`` of a two-element array and
   are kept where both sides exist.
4. **t-tests** (§4.2.2): one Spark job aggregates the split pairs of all
   three relations to (count, means, standard deviation of the
   differences); the driver turns those moments into p-values with
   ``ttest_from_moments``. The **BY correction** (§4.3) runs per
   relation and test type, and flags follow the paper's decision rule.
"""
from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.schema import DELETE_BASELINE, DIRTY, R1_KEY, R2_KEY, R3_KEY
from repro.stats import by_adjust, decide_flag, ttest_from_moments

_UNIT = ["dataset", "error_type", "split_seed"]
_SIDES = ("after", "BD", "CD")
_TESTS = ("p_two", "p_upper", "p_lower")


def _sides(results: DataFrame) -> DataFrame:
    """Per (unit, method, model): each side's seed mean ``<side>_mean``
    and best seed ``<side>_best`` = (k = -val_metric, model, search_seed,
    metric, val), null where the side has no rows."""
    baseline = F.when(F.col("error_type") == "missing_values", DELETE_BASELINE).otherwise(DIRTY)
    is_base, variant = F.col("train_version") == baseline, F.col("test_variant")
    side = (
        F.when(~is_base & (variant == F.col("train_version")), "after")
        # The baseline model's score on a cleaned test variant is the BD
        # "before" of the method that produced that variant.
        .when(is_base & (variant != DIRTY), "BD")
        .when(~is_base & (variant == DIRTY) & (F.col("error_type") != "missing_values"), "CD")
    )
    rows = (
        results.withColumn("side", side)
        .where(F.col("side").isNotNull())
        .withColumn("method", F.when(is_base, variant).otherwise(F.col("train_version")))
        .repartition(*_UNIT)
    )
    # Ordered best first: highest val_metric, then lowest model and seed.
    best = F.struct((-F.col("val_metric")).alias("k"), "model", "search_seed",
                    F.col("test_metric").alias("metric"), F.col("val_metric").alias("val"))
    is_after = F.col("side") == "after"
    aggs = [F.min(F.when(is_after, F.col(c))).alias(c) for c in ("detect", "repair")]
    for s in _SIDES:
        on = F.col("side") == s
        aggs += [F.avg(F.when(on, F.col("test_metric"))).alias(f"{s}_mean"),
                 F.min(F.when(on, best)).alias(f"{s}_best")]
    return rows.groupBy(*_UNIT, "method", "model").agg(*aggs)


def _bd_cd(sides: DataFrame, model: list[str], metric: Callable[[str], Column],
           after_val: list[Column]) -> DataFrame:
    """One BD and one CD row per row of ``sides``, kept where both sides
    have a best row ``<side>_best``; ``metric(side)`` is that side's
    metric. R1 and R2 both test ``<side>_best``, so their plans read the
    same columns below the shuffle and Spark reuses one Exchange."""
    pair = F.explode(F.array(*(
        F.when(F.col(f"{s}_best").isNotNull(),
               F.struct(F.lit(s).alias("scenario"), metric(s).alias("before_metric")))
        for s in ("BD", "CD")
    ))).alias("pair")
    return (
        sides.select("*", pair)
        .where(F.col("pair").isNotNull() & F.col("after_best").isNotNull())
        .select("dataset", "error_type", "detect", "repair",
                F.col("method").alias("train_version"), *model, "pair.scenario", "split_seed",
                "pair.before_metric", metric("after").alias("after_metric"), *after_val)
    )


def build_pairs_r1(results: DataFrame) -> DataFrame:
    """R1 metric pairs: seed-averaged (before, after) per model, spec and split."""
    return _bd_cd(_sides(results), ["model"], lambda s: F.col(f"{s}_mean"), [])


def build_pairs_r2(results: DataFrame) -> DataFrame:
    """R2 metric pairs: per split, the best (model, seed) on each side by
    validation metric, ties to the lowest model and then the lowest seed
    (§4.2.1 / Table 8, 11); the after side's ``val_metric`` is ``after_val``."""
    per_method = _sides(results).groupBy(*_UNIT, "method").agg(
        *(F.min(c).alias(c) for c in ("detect", "repair", *(f"{s}_best" for s in _SIDES)))
    )
    return _bd_cd(per_method, [], lambda s: F.col(f"{s}_best.metric"),
                  [F.col("after_best.val").alias("after_val")])


def build_pairs_r3(pairs_r2: DataFrame) -> DataFrame:
    """R3 pairs: per (dataset, error, scenario, split) keep the cleaning
    method whose clean-side validation metric is best, ties to the lowest
    detect and then repair (Table 9)."""
    key = [*_UNIT, "scenario"]
    rest = [c for c in pairs_r2.columns if c not in (*key, "detect", "repair")]
    best = F.min(F.struct((-F.col("after_val")).alias("k"), "detect", "repair", *rest))
    picked = pairs_r2.groupBy(*key).agg(best.alias("best"))
    return picked.select(*(c if c in key else f"best.{c}" for c in pairs_r2.columns))


def _moments(pairs: dict[str, tuple[DataFrame, list[str]]]) -> pd.DataFrame:
    """Split-pair moments of every relation's specs in one Spark job:
    each (frame, key) is tagged with its relation name and its key is
    padded with nulls to ``R1_KEY``."""
    tagged = [
        df.select(F.lit(name).alias("relation"),
                  *(k if k in key else F.lit(None).cast("string").alias(k) for k in R1_KEY),
                  "before_metric", "after_metric")
        for name, (df, key) in pairs.items()
    ]
    d = F.col("after_metric") - F.col("before_metric")
    return (
        functools.reduce(DataFrame.unionByName, tagged)
        .groupBy("relation", *R1_KEY)
        .agg(
            F.count(F.lit(1)).cast("int").alias("n_pairs"),
            F.avg("before_metric").alias("mean_before"),
            F.avg("after_metric").alias("mean_after"),
            F.avg(d).alias("mean_diff"),
            F.stddev_samp(d).alias("sd_diff"),
        )
        .toPandas()
    )


def _flagged(moments: pd.DataFrame, key: list[str], alpha: float) -> pd.DataFrame:
    """Per-spec t-tests from one relation's moments, BY-adjusted across
    the relation per test type, then flagged; sorted by ``key``."""
    padding = ["relation", *(k for k in R1_KEY if k not in key)]
    out = moments.drop(columns=padding).sort_values(key, ignore_index=True)
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
    pairs = {"R1": (pairs_r1, R1_KEY), "R2": (pairs_r2, R2_KEY), "R3": (pairs_r3, R3_KEY)}
    moments = _moments(pairs)
    return {name: _flagged(moments[moments.relation == name], key, alpha)
            for name, (_, key) in pairs.items()}
