"""Pinned-relations gate for ``build_relations``.

``tests/data/relations_R{1,2,3}.csv`` hold R1/R2/R3 built from a small
seeded results frame by the relations builder that used a per-spec
pandas UDF for the t-tests. Any rewrite of pair assembly, seed
reduction, method selection, t-tests or the BY correction must give the
same keys and flags exactly, and the same p-values and means to 1e-12
(Spark's summation order moves the last bits, so rounding is not used).

The frame covers: missing values (``delete`` baseline, BD only even
with a dirty test score present), an error type with two cleaning
methods, ties in ``val_metric`` across (model, search seed) pairs, a
spec with a single split, and specs whose differences are identical
across splits (zero and non-zero mean). The pins are also checked with
the frame coalesced to one partition and hash-partitioned by model,
and the build must stay within a small budget of Spark jobs.

Re-pin only for an intended change of the relations, and say why::

    PYTHONPATH=src python tests/test_relations_fixture.py
"""
import itertools
import os

import numpy as np
import pandas as pd
import pytest

from repro.core.relations import build_relations
from repro.core.schema import R1_KEY, R2_KEY, R3_KEY, RESULT_COLUMNS

DATA = os.path.join(os.path.dirname(__file__), "data")
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")
KEYS = {"R1": R1_KEY, "R2": R2_KEY, "R3": R3_KEY}
FLOATS = ["mean_before", "mean_after", "mean_diff", "p_two", "p_upper", "p_lower",
          "p_two_adj", "p_upper_adj", "p_lower_adj"]
MODELS = ["m1", "m2", "m3"]
SEEDS = [1, 2]
SPLITS = [100, 101, 102, 103, 104]

# (dataset, error_type) -> (splits, {train_version: (detect, repair)},
# test variants, {train_version: effect on its own test variant}).
UNITS = {
    ("Alpha", "missing_values"): (
        SPLITS,
        {"delete": ("empty_entry", "delete"),
         "mean_mode": ("empty_entry", "mean_mode"),
         "median_dummy": ("empty_entry", "median_dummy")},
        # A dirty test score must not make a CD pair (missing values are BD-only).
        ["dirty", "mean_mode", "median_dummy"],
        {"mean_mode": 0.06, "median_dummy": 0.0},
    ),
    ("Alpha", "outliers"): (
        SPLITS,
        {"dirty": ("none", "none"),
         "SD:impute_mean": ("SD", "impute_mean"),
         "IQR:delete": ("IQR", "delete")},
        ["dirty", "SD:impute_mean", "IQR:delete"],
        {"SD:impute_mean": -0.08, "IQR:delete": 0.08},
    ),
    ("Beta", "duplicates"): (
        [100],
        {"dirty": ("none", "none"), "dedup": ("key_collision", "delete")},
        ["dirty", "dedup"],
        {"dedup": 0.03},
    ),
}


def _results_pdf() -> pd.DataFrame:
    rng = np.random.default_rng(2021)
    rows = []
    for (dataset, error), (splits, versions, variants, effect) in UNITS.items():
        for split, version, model, seed in itertools.product(
            splits, versions, MODELS, SEEDS
        ):
            # Three validation levels, shared by all test variants of a
            # fit, so the best-(model, seed) choice often ties.
            val = float(rng.choice([0.70, 0.72, 0.74]))
            for variant in variants:
                gain = effect.get(version, 0.0) if variant == version else 0.0
                rows.append((dataset, error, *versions[version], split, version,
                             model, seed, variant, val,
                             0.7 + gain + float(rng.normal(0.0, 0.02))))
    # Gamma/mislabels: dyadic metrics, so every split has the same
    # difference exactly: BD gains 1/8, CD changes nothing.
    versions = {"dirty": ("none", "none"), "flip": ("ground_truth", "flip")}
    for split, version, model, seed in itertools.product(
        SPLITS, versions, MODELS, SEEDS
    ):
        val = 0.5 + 0.25 * (model == "m2")
        base = 0.5 + (split - 100) / 64 + MODELS.index(model) / 32 + seed / 256
        for variant in versions:
            metric = base + 0.125 * (version != "dirty")
            rows.append(("Gamma", "mislabels", *versions[version], split, version,
                         model, seed, variant, val, metric))
    return pd.DataFrame(rows, columns=RESULT_COLUMNS)


def _canonical(df: pd.DataFrame, name: str) -> pd.DataFrame:
    return df.sort_values(KEYS[name], kind="mergesort").reset_index(drop=True)


def _expected(name: str) -> pd.DataFrame:
    return pd.read_csv(os.path.join(DATA, f"relations_{name}.csv"),
                       float_precision="round_trip")


# Layouts of the results frame besides the one ``createDataFrame`` gives:
# ``build_relations`` repartitions by unit itself and must not depend on
# how its input is partitioned.
LAYOUTS = {
    "coalesce1": lambda df: df.coalesce(1),
    "repartition7_model": lambda df: df.repartition(7, "model"),
}


@pytest.fixture(scope="module")
def results(spark):
    return spark.createDataFrame(_results_pdf())


@pytest.fixture(scope="module")
def relations(results):
    return build_relations(results, alpha=0.05)


@pytest.fixture(scope="module", params=list(LAYOUTS))
def relations_by_layout(request, results):
    return build_relations(LAYOUTS[request.param](results), alpha=0.05)


def _assert_matches_pinned(relations, name):
    got = _canonical(relations[name], name)
    want = _canonical(_expected(name), name)
    assert list(got.columns) == list(want.columns)
    assert got[KEYS[name]].astype(str).equals(want[KEYS[name]].astype(str))
    assert got.flag.tolist() == want.flag.tolist()
    assert got.n_pairs.tolist() == want.n_pairs.tolist()
    for col in FLOATS:
        np.testing.assert_allclose(got[col], want[col], rtol=0, atol=1e-12, err_msg=col)


def _assert_columns_and_dtypes(relations, name):
    header = pd.read_csv(os.path.join(RESULTS_DIR, f"{name}.csv"), nrows=0)
    df = relations[name]
    assert list(df.columns) == list(header.columns)
    dtypes = {c: str(t) for c, t in df.dtypes.items()}
    assert dtypes == {
        **{k: "object" for k in KEYS[name]},
        "n_pairs": "int32",
        **{c: "float64" for c in FLOATS},
        "flag": "object",
    }


@pytest.mark.parametrize("name", ["R1", "R2", "R3"])
def test_relations_match_pinned(relations, name):
    _assert_matches_pinned(relations, name)


@pytest.mark.parametrize("name", ["R1", "R2", "R3"])
def test_other_layouts_match_pinned(relations_by_layout, name):
    _assert_matches_pinned(relations_by_layout, name)
    _assert_columns_and_dtypes(relations_by_layout, name)


def test_fixture_covers_the_edge_cases(relations):
    fit = ["dataset", "error_type", "split_seed", "train_version"]
    fits = _results_pdf().drop_duplicates([*fit, "model", "search_seed"])
    best = fits.val_metric == fits.groupby(fit).val_metric.transform("max")
    assert best.groupby([fits[k] for k in fit]).sum().max() > 1  # tied best fits
    r1 = relations["R1"]
    mv = r1[r1.error_type == "missing_values"]
    assert set(mv.scenario) == {"BD"} and len(mv) == 2 * len(MODELS)
    assert set(r1[r1.dataset == "Beta"].n_pairs) == {1}
    r2 = relations["R2"]
    gamma = r2[r2.dataset == "Gamma"].set_index("scenario")
    assert gamma.loc["BD", "mean_diff"] == 0.125 and gamma.loc["BD", "flag"] == "P"
    assert gamma.loc["CD", "mean_diff"] == 0.0 and gamma.loc["CD", "flag"] == "S"
    assert set(r1.flag) == {"P", "N", "S"}


@pytest.mark.parametrize("name", ["R1", "R2", "R3"])
def test_columns_and_dtypes_match_committed_results(relations, name):
    _assert_columns_and_dtypes(relations, name)


def test_build_relations_job_budget(spark, results):
    """Pairs, seed reduction and method selection share one shuffle of
    the results by unit, and the moments of all three relations are one
    more job: 3 jobs here under adaptive execution. Without the shared
    unit shuffle every grouping level shuffles again (6 jobs)."""
    sc, group = spark.sparkContext, "test_build_relations_job_budget"
    sc.setJobGroup(group, "build_relations job budget")
    try:
        build_relations(results)
    finally:
        sc._jsc.clearJobGroup()
    jobs = sc.statusTracker().getJobIdsForGroup(group)
    assert 0 < len(jobs) <= 4, jobs


if __name__ == "__main__":
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master("local[2]")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    os.makedirs(DATA, exist_ok=True)
    for name, df in build_relations(spark.createDataFrame(_results_pdf())).items():
        path = os.path.join(DATA, f"relations_{name}.csv")
        _canonical(df, name).to_csv(path, index=False)
        print(f"wrote {path} ({len(df)} rows)")
    spark.stop()
