"""The CleanML analysis queries Q1-Q5 (paper §2.2), as Spark SQL.

Each query groups a relation's flags by one attribute for one error
type. The relations produced by :mod:`repro.core.relations` are
registered as temp views; tests check every query against the DuckDB
oracle with the paper's literal SQL.

The relations are small driver-side frames, so each view is registered
with a single partition: a query is then one Spark stage with no
Exchange, and its cost is scheduling rather than rows.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

# Paper query templates, verbatim modulo column-name spelling.
Q1 = """
    SELECT flag, COUNT(*) AS n
    FROM {rel} WHERE error_type = '{e}'
    GROUP BY flag
"""
Q2 = """
    SELECT scenario, flag, COUNT(*) AS n
    FROM {rel} WHERE error_type = '{e}'
    GROUP BY scenario, flag
"""
Q3 = """
    SELECT model, flag, COUNT(*) AS n
    FROM {rel} WHERE error_type = '{e}'
    GROUP BY model, flag
"""
Q4_DETECT = """
    SELECT detect, flag, COUNT(*) AS n
    FROM {rel} WHERE error_type = '{e}'
    GROUP BY detect, flag
"""
Q4_REPAIR = """
    SELECT repair, flag, COUNT(*) AS n
    FROM {rel} WHERE error_type = '{e}'
    GROUP BY repair, flag
"""
Q5 = """
    SELECT dataset, flag, COUNT(*) AS n
    FROM {rel} WHERE error_type = '{e}'
    GROUP BY dataset, flag
"""

QUERIES = {
    "Q1": Q1,
    "Q2": Q2,
    "Q3": Q3,
    "Q4.1": Q4_DETECT,
    "Q4.2": Q4_REPAIR,
    "Q5": Q5,
}

_GROUP_ATTR = {
    "Q1": None,
    "Q2": "scenario",
    "Q3": "model",
    "Q4.1": "detect",
    "Q4.2": "repair",
    "Q5": "dataset",
}


def register_relations(
    spark: SparkSession, relations: dict[str, pd.DataFrame]
) -> dict[str, DataFrame]:
    """Create temp views R1/R2/R3 from the flagged relations.

    Each view has a single partition (at most 1,330 rows), which already
    satisfies a ``GROUP BY``'s required distribution: every query runs as
    one stage with no Exchange instead of a shuffle over the
    ``createDataFrame`` slices. Nothing is cached, so re-registering the
    views leaves no state behind.
    """
    out = {}
    for name, pdf in relations.items():
        sdf = spark.createDataFrame(pdf).coalesce(1)
        sdf.createOrReplaceTempView(name)
        out[name] = sdf
    return out


def run_query(
    spark: SparkSession, query: str, relation: str, error_type: str
) -> DataFrame:
    """Run one of Q1-Q5 ('Q1', 'Q2', 'Q3', 'Q4.1', 'Q4.2', 'Q5')."""
    sql = QUERIES[query].format(rel=relation, e=error_type)
    return spark.sql(sql)


def applicable(query: str, relation: str, error_type: str) -> bool:
    """Paper applicability rules: Q3 only for R1; Q4 not for R3 and not
    for single-method error types; Q2 not for missing values (BD only)."""
    if query == "Q3" and relation != "R1":
        return False
    if query in ("Q4.1", "Q4.2"):
        if relation == "R3":
            return False
        if error_type in ("inconsistencies", "duplicates", "mislabels"):
            return False
        if query == "Q4.1" and error_type == "missing_values":
            return False
    if query == "Q2" and error_type == "missing_values":
        return False
    return True


def flag_shares(counts: pd.DataFrame, group_attr: str | None) -> pd.DataFrame:
    """Turn flag counts into the paper's '% (n)' wide layout.

    Rows = the grouping attribute's values (or a single row for Q1),
    columns = P / S / N shares with counts.
    """
    pdf = counts.copy()
    group_cols = [group_attr] if group_attr else []
    totals = (
        pdf.groupby(group_cols)["n"].transform("sum")
        if group_cols
        else pd.Series(pdf["n"].sum(), index=pdf.index)
    )
    pdf["share"] = pdf["n"] / totals
    idx = group_cols if group_cols else None
    wide_n = pdf.pivot_table(
        index=idx, columns="flag", values="n", aggfunc="sum", fill_value=0
    ) if idx else pdf.set_index("flag")[["n"]].T
    wide_s = pdf.pivot_table(
        index=idx, columns="flag", values="share", aggfunc="sum", fill_value=0.0
    ) if idx else pdf.set_index("flag")[["share"]].T
    rows = []
    index = wide_n.index if idx else ["all"]
    for i, label in enumerate(index):
        row = {"group": label}
        for f in ("P", "S", "N"):
            n = int(wide_n.iloc[i][f]) if f in wide_n.columns else 0
            s = float(wide_s.iloc[i][f]) if f in wide_s.columns else 0.0
            row[f] = f"{100 * s:.2f}% ({n})"
        rows.append(row)
    return pd.DataFrame(rows)


def group_attr(query: str) -> str | None:
    return _GROUP_ATTR[query]
