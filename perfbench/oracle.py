"""Independent checks of the pipeline's outputs.

* :func:`relations_oracle` recomputes R1/R2/R3 from a results frame with
  pandas (pair assembly, seed averaging, validation-based selection) and
  the :mod:`repro.stats` primitives, without Spark.
* :func:`query_mismatches` reruns every applicable Q1-Q5 in DuckDB over
  the flagged relations and compares the counts with Spark's.
* :func:`relation_mismatches` compares two sets of relations on the
  flag and the rounded p-values (and the rounded side means, which is
  what still distinguishes specs when a workload has one split).
"""
from __future__ import annotations

import duckdb
import pandas as pd

from repro.core.queries import QUERIES
from repro.core.schema import R1_KEY, R2_KEY, R3_KEY, baseline_for
from repro.stats import by_adjust, decide_flag, paired_ttest

KEYS = {"R1": R1_KEY, "R2": R2_KEY, "R3": R3_KEY}
CHECKED = ["flag", "p_two", "p_upper", "p_lower", "mean_before", "mean_after"]
DIGITS = 9


def _best(df: pd.DataFrame, part: list[str]) -> pd.DataFrame:
    """Highest ``val_metric`` per partition; ties go to the lowest
    (model, search_seed)."""
    df = df.sort_values(
        [*part, "val_metric", "model", "search_seed"],
        ascending=[True] * len(part) + [False, True, True],
        kind="mergesort",
    )
    return df.drop_duplicates(part, keep="first")


def _pairs(results: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    res = results.copy()
    res["baseline"] = res["error_type"].map(baseline_for)
    is_base = res["train_version"] == res["baseline"]
    method, base = res[~is_base], res[is_base & (res["test_variant"] != "dirty")]
    after = method[method["test_variant"] == method["train_version"]]
    dirty = method[method["test_variant"] == "dirty"]
    spec = ["dataset", "error_type", "detect", "repair", "train_version"]
    not_mv = lambda df: df[df["error_type"] != "missing_values"]  # noqa: E731

    # R1: both sides averaged over the search seeds.
    mean = lambda df, by: df.groupby(by, as_index=False)["test_metric"].mean()  # noqa: E731
    a1 = mean(after, [*spec, "model", "split_seed"]).rename(columns={"test_metric": "after_metric"})
    b1 = mean(base, ["dataset", "error_type", "model", "split_seed", "test_variant"])
    b1 = b1.rename(columns={"test_metric": "before_metric", "test_variant": "train_version"})
    bd1 = a1.merge(b1, on=["dataset", "error_type", "model", "split_seed", "train_version"])
    c1 = mean(dirty, [*spec, "model", "split_seed"]).rename(columns={"test_metric": "before_metric"})
    cd1 = not_mv(a1.merge(c1, on=[*spec, "model", "split_seed"]))
    r1 = pd.concat([bd1.assign(scenario="BD"), cd1.assign(scenario="CD")], ignore_index=True)

    # R2: the best (model, seed) by validation on each side.
    a2 = _best(after, [*spec, "split_seed"])
    a2 = a2[[*spec, "split_seed", "test_metric", "val_metric"]].rename(
        columns={"test_metric": "after_metric", "val_metric": "after_val"}
    )
    b2 = _best(base, ["dataset", "error_type", "test_variant", "split_seed"])
    b2 = b2[["dataset", "error_type", "split_seed", "test_variant", "test_metric"]].rename(
        columns={"test_metric": "before_metric", "test_variant": "train_version"}
    )
    bd2 = a2.merge(b2, on=["dataset", "error_type", "split_seed", "train_version"])
    c2 = _best(dirty, [*spec, "split_seed"])
    c2 = c2[[*spec, "split_seed", "test_metric"]].rename(columns={"test_metric": "before_metric"})
    cd2 = not_mv(a2.merge(c2, on=[*spec, "split_seed"]))
    r2 = pd.concat([bd2.assign(scenario="BD"), cd2.assign(scenario="CD")], ignore_index=True)

    # R3: the cleaning method with the best clean-side validation score.
    part = ["dataset", "error_type", "scenario", "split_seed"]
    r3 = r2.sort_values(
        [*part, "after_val", "detect", "repair"],
        ascending=[True] * len(part) + [False, True, True],
        kind="mergesort",
    ).drop_duplicates(part, keep="first")
    return r1, r2, r3


def _tested(pairs: pd.DataFrame, key: list[str], alpha: float) -> pd.DataFrame:
    rows = []
    for keyvals, g in pairs.groupby(key, sort=True):
        t = paired_ttest(g["before_metric"], g["after_metric"])
        rows.append(
            dict(
                zip(key, keyvals),
                n_pairs=t.n,
                mean_before=float(g["before_metric"].mean()),
                mean_after=float(g["after_metric"].mean()),
                p_two=t.p_two,
                p_upper=t.p_upper,
                p_lower=t.p_lower,
            )
        )
    out = pd.DataFrame(rows)
    adj = {c: by_adjust(out[c].to_numpy()) for c in ("p_two", "p_upper", "p_lower")}
    out["flag"] = [
        decide_flag(a, b, c, alpha).value
        for a, b, c in zip(adj["p_two"], adj["p_upper"], adj["p_lower"])
    ]
    return out


def relations_oracle(results: pd.DataFrame, alpha: float) -> dict[str, pd.DataFrame]:
    """R1/R2/R3 (key, n_pairs, side means, p-values, flag) in pandas."""
    pairs = dict(zip(("R1", "R2", "R3"), _pairs(results)))
    return {name: _tested(pairs[name], KEYS[name], alpha) for name in pairs}


def canonical(relations: dict[str, pd.DataFrame]) -> pd.DataFrame:
    """All relations as one frame: relation, key columns, checked values
    (p-values and means rounded to ``DIGITS``), sorted."""
    frames = []
    for name, df in relations.items():
        out = df[KEYS[name] + CHECKED].copy()
        for c in CHECKED[1:]:
            out[c] = out[c].astype(float).round(DIGITS)
        for k in R1_KEY:
            out[k] = out[k].astype(str) if k in out else ""
        out.insert(0, "relation", name)
        frames.append(out[["relation", *R1_KEY, *CHECKED]])
    return pd.concat(frames, ignore_index=True).sort_values(
        ["relation", *R1_KEY], kind="mergesort"
    ).reset_index(drop=True)


def relation_mismatches(got: pd.DataFrame, want: pd.DataFrame) -> int:
    """Rows of either canonical frame with no identical row in the other."""
    merged = got.merge(want, how="outer", indicator=True)
    return int((merged["_merge"] != "both").sum())


def query_mismatches(
    relations: dict[str, pd.DataFrame], spark_counts: dict[tuple, pd.DataFrame]
) -> int:
    """Queries whose Spark counts differ from DuckDB on the same relation."""
    bad = 0
    con = duckdb.connect()
    try:
        for name, df in relations.items():
            con.register(name, df)
        for (query, rel, error_type), got in spark_counts.items():
            sql = QUERIES[query].format(rel=rel, e=error_type)
            want = con.execute(sql).fetchdf()
            if _rows(got) != _rows(want):
                bad += 1
    finally:
        con.close()
    return bad


def _rows(df: pd.DataFrame) -> list[tuple]:
    return sorted(tuple(str(v) for v in r) for r in df[sorted(df.columns)].itertuples(index=False))
