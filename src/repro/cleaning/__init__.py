"""Cleaning substrate: Table 2 detect/repair methods.

Every method has one implementation: pandas functions that fit their
statistics on the training set only (§4.1 step 2) and apply them to
the training and test frames. They run inside the grid harness's
``mapInPandas`` tasks, where per-unit frames are a few hundred rows, so
nothing here imports Spark. The tests check each fitted statistic and
repair against DuckDB SQL (:mod:`repro.oracle`).
"""
from repro.cleaning.registry import (
    CleaningMethod,
    ERROR_TYPES,
    methods_for,
)

__all__ = ["CleaningMethod", "ERROR_TYPES", "methods_for"]
