"""The benchmark's three workloads and the inputs they are built from.

* ``grid-outliers`` and ``grid-mixed`` run the experiment grid through
  :func:`repro.core.harness.run_grid`; the workload seed is the
  protocol's ``split_seed0``, so the program only sees different splits.
* ``analysis`` feeds :func:`repro.core.relations.build_relations` and the
  Q1-Q5 queries a results frame at full-study cardinality (every unit of
  ``build_grid(FULL)``), generated from the seed, so no model code runs.

The grid protocol is FULL with one random-search seed and one candidate
(``GRID_PROTOCOL``). Every model, cleaning version and test variant of a
unit is kept; only the search repetitions are cut, because a FULL
outlier unit (25-37 s serially on a 4-core x86 host) cannot fit in one
bounded benchmark run.
"""
from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.cleaning.registry import (
    ERROR_TYPES,
    MISSING_IMPUTATIONS,
    OUTLIER_DETECTORS,
    OUTLIER_REPAIRS,
    methods_for,
)
from repro.core.harness import build_grid
from repro.core.protocol import FULL, Protocol
from repro.core.schema import DELETE_BASELINE, DIRTY, RESULT_COLUMNS
from repro.datasets.registry import load_dataset
from repro.ml.models import MODEL_NAMES

DEFAULT_SEED = FULL.split_seed0

GRID_PROTOCOL = dataclasses.replace(
    FULL, search_seeds=FULL.search_seeds[:1], n_candidates=1
)


@dataclass(frozen=True)
class Workload:
    name: str
    error_types: tuple[str, ...]
    datasets: tuple[str, ...] | None  # None: every dataset of each error type
    n_splits: int  # 0 for the generated analysis frame

    @property
    def is_grid(self) -> bool:
        return self.n_splits > 0

    def protocol(self, seed: int) -> Protocol:
        if self.is_grid:
            return dataclasses.replace(
                GRID_PROTOCOL, n_splits=self.n_splits, split_seed0=seed
            )
        return FULL

    def grid(self, seed: int) -> pd.DataFrame:
        """The work units of one pass (analysis: the units of its frame)."""
        return build_grid(self.protocol(seed), self.error_types, self.datasets)


WORKLOADS = {
    # Outlier units, two splits each so the t-tests have two pairs; four
    # units fill the four Spark task slots. EEG is tree-heavy; KDD is
    # class-imbalanced, so it adds majority downsampling and F1 scoring.
    "grid-outliers": Workload("grid-outliers", ("outliers",), ("EEG", "KDD"), 2),
    # One split of every non-outlier (dataset, error type): 23 units of
    # uneven cost (1-9 s serially), text hashing, downsampling + F1, and
    # the impute, dedup, merge and flip cleaners.
    "grid-mixed": Workload(
        "grid-mixed", tuple(e for e in ERROR_TYPES if e != "outliers"), None, 1
    ),
    # Relations + Q1-Q5 over a generated full-study results frame.
    "analysis": Workload("analysis", ERROR_TYPES, None, 0),
}


def versions(error_type: str) -> tuple[list[tuple[str, str, str]], list[str]]:
    """``([(train_version, detect, repair)], test_variants)`` of one unit,
    as :func:`repro.core.runner.build_versions` labels them."""
    if error_type == "missing_values":
        train = [(DELETE_BASELINE, "empty_entry", "delete")]
        train += [(r, "empty_entry", r) for r in MISSING_IMPUTATIONS]
        return train, list(MISSING_IMPUTATIONS)
    train = [(DIRTY, "none", "none")]
    if error_type == "outliers":
        train += [(f"{d}:{r}", d, r) for d in OUTLIER_DETECTORS for r in OUTLIER_REPAIRS]
    else:
        (m,) = methods_for(error_type)
        train += [(f"{m.detect}:{m.repair}", m.detect, m.repair)]
    return train, [v for v, _, _ in train]


def fits_per_unit(error_type: str, protocol: Protocol) -> int:
    """Model fits of one unit: candidates plus the refit, per search."""
    n_train = len(versions(error_type)[0])
    return n_train * len(protocol.models) * len(protocol.search_seeds) * (
        protocol.n_candidates + 1
    )


def _key_seed(seed: int, *parts) -> int:
    return zlib.crc32("|".join(map(str, (seed, *parts))).encode())


def analysis_frame(seed: int) -> pd.DataFrame:
    """A results frame with the FULL study's keys and 326,200 rows.

    Test metrics are multiples of 1/n_test and validation metrics of
    1/n_val, so equal validation scores occur and the R2/R3 window
    tie-breaks run. Each (dataset, error type, cleaning version, model)
    gets a training effect and each test variant a test effect of -1, 0
    or +1 times ``EFFECT``, so P, N and S flags all occur.
    """
    protocol = FULL
    models = np.array(MODEL_NAMES)
    seeds = np.array(protocol.search_seeds)
    grid = build_grid(protocol)
    frames = []
    for (dataset, error_type), units in grid.groupby(["dataset", "error_type"], sort=True):
        rng = np.random.default_rng(_key_seed(seed, dataset, error_type))
        n = len(load_dataset(dataset))
        n_test = int(round(protocol.test_frac * n))
        n_val = int(round(protocol.val_frac * (n - n_test)))
        train, tests = versions(error_type)
        splits = units["split_seed"].to_numpy()
        S, V, M, K, T = len(splits), len(train), len(models), len(seeds), len(tests)
        base = rng.uniform(0.6, 0.85, size=M)
        train_eff = EFFECT * rng.choice([-1, 0, 1], size=(V, M), p=[0.25, 0.35, 0.4])
        train_eff[0] = 0.0  # the baseline version
        test_eff = EFFECT * rng.choice([-1, 0, 1], size=(T, M), p=[0.2, 0.4, 0.4])
        for t, name in enumerate(tests):
            if name == DIRTY:
                test_eff[t] = 0.0
        split_eff = rng.normal(0.0, NOISE, size=(S, 1, M, 1, 1))
        fit_noise = rng.normal(0.0, NOISE, size=(S, V, M, K, 1))
        test_noise = rng.normal(0.0, NOISE / 2, size=(S, V, M, K, T))
        test = (
            base[None, None, :, None, None]
            + train_eff.reshape(1, V, M, 1, 1)
            + test_eff.T.reshape(1, 1, M, 1, T)
            + split_eff + fit_noise + test_noise
        )
        test = np.clip(np.round(test * n_test), 0, n_test) / n_test
        val = base[None, None, :, None] + train_eff.reshape(1, V, M, 1) + fit_noise[..., 0]
        val = val + rng.normal(0.0, NOISE, size=val.shape)
        val = np.clip(np.round(val * n_val / VAL_QUANTUM), 0, n_val / VAL_QUANTUM)
        val = val * VAL_QUANTUM / n_val
        idx = np.indices((S, V, M, K, T)).reshape(5, -1)
        tv = np.array([v for v, _, _ in train])
        frames.append(
            pd.DataFrame(
                {
                    "dataset": dataset,
                    "error_type": error_type,
                    "detect": np.array([d for _, d, _ in train])[idx[1]],
                    "repair": np.array([r for _, _, r in train])[idx[1]],
                    "split_seed": splits[idx[0]].astype(np.int32),
                    "train_version": tv[idx[1]],
                    "model": models[idx[2]],
                    "search_seed": seeds[idx[3]].astype(np.int32),
                    "test_variant": np.array(tests)[idx[4]],
                    "val_metric": val[idx[0], idx[1], idx[2], idx[3]],
                    "test_metric": test.reshape(-1),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)[RESULT_COLUMNS]


# The FULL study's cardinality (results rows and relation sizes), the
# same as the committed results/R*.csv.
EXPECTED_ANALYSIS = {"rows": 326_200, "R1": 1330, "R2": 190, "R3": 50}
EFFECT = 0.04
NOISE = 0.015
# Validation scores are rounded to VAL_QUANTUM / n_val so that several
# (model, search seed) fits of one version tie on validation.
VAL_QUANTUM = 4
