"""Spark harness: the experiment grid as a distributed dataflow.

The grid has one row per work unit (dataset, error_type, split_seed).
Unit ``i`` runs as partition ``i`` of ``spark.range(n)``: one
``mapInPandas`` task per unit calls :func:`repro.core.runner.run_unit`
(datasets are regenerated inside the task from their seed, so no data
is shipped, and there is no shuffle). Spark launches tasks in partition
order, so the grid order, which lists the expensive missing-value and
outlier units first, is also the start order. The output is the long
results DataFrame the relation builders consume.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.cleaning.registry import ERROR_TYPES
from repro.core.protocol import Protocol
from repro.datasets.registry import datasets_with_error

RESULT_SCHEMA = T.StructType(
    [
        T.StructField("dataset", T.StringType()),
        T.StructField("error_type", T.StringType()),
        T.StructField("detect", T.StringType()),
        T.StructField("repair", T.StringType()),
        T.StructField("split_seed", T.IntegerType()),
        T.StructField("train_version", T.StringType()),
        T.StructField("model", T.StringType()),
        T.StructField("search_seed", T.IntegerType()),
        T.StructField("test_variant", T.StringType()),
        T.StructField("val_metric", T.DoubleType()),
        T.StructField("test_metric", T.DoubleType()),
    ]
)


def build_grid(
    protocol: Protocol,
    error_types: tuple[str, ...] = ERROR_TYPES,
    datasets: tuple[str, ...] | None = None,
) -> pd.DataFrame:
    """One row per (dataset, error_type, split_seed) work unit.

    ``datasets`` optionally restricts each error type to the named
    datasets (used by tests and benchmarks; the full run passes None).
    """
    rows = [
        {"dataset": d, "error_type": e, "split_seed": s}
        for e in error_types
        for d in datasets_with_error(e)
        if datasets is None or d in datasets
        for s in protocol.split_seeds
    ]
    return pd.DataFrame(rows)


def run_grid(
    spark: SparkSession,
    protocol: Protocol,
    error_types: tuple[str, ...] = ERROR_TYPES,
    datasets: tuple[str, ...] | None = None,
) -> DataFrame:
    """Execute the whole grid on Spark, one unit per task; returns the
    cached (and materialized) results DataFrame. A unit that raises
    fails the job with a ``RuntimeError`` naming the unit."""
    from repro.core.runner import run_unit

    grid = build_grid(protocol, error_types, datasets)
    units = [
        (d, e, int(s)) for d, e, s in zip(grid.dataset, grid.error_type, grid.split_seed)
    ]

    def _run(batches):
        for batch in batches:
            for i in batch["id"]:
                dataset, error_type, split_seed = units[i]
                try:
                    rows = run_unit(dataset, error_type, split_seed, protocol)
                except Exception as exc:
                    raise RuntimeError(
                        f"unit {dataset}/{error_type}/{split_seed} failed: {exc!r}"
                    ) from exc
                yield rows

    n_units = len(units)
    out = spark.range(0, n_units, 1, n_units).mapInPandas(_run, schema=RESULT_SCHEMA)
    out = out.cache()
    out.count()
    return out
