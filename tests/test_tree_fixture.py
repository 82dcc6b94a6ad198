"""Bit-identity gate for the tree models.

``tests/data/tree_predictions.npz`` holds ``predict_proba`` of the four
tree models (and AdaBoost's stage weights) on fixed (X, y, params)
cases, recorded with the per-feature split search that preceded the
vectorized one. Any change to split finding, tie-breaking, growth order
or tree evaluation must reproduce these values exactly, not just
closely. The cases include duplicated columns (exact ties between
features, also inside random-forest feature subsets), a constant
column, coarse discrete columns, and re-weighted AdaBoost stages.

Re-pin only for an intended change of model output, and say why::

    PYTHONPATH=src python tests/test_tree_fixture.py
"""
import os

import numpy as np
import pytest

from repro.ml.models import make_model

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tree_predictions.npz")

MODELS = {
    "decision_tree": [{"max_depth": 8, "min_leaf": 1}, {"max_depth": 4, "min_leaf": 5}],
    "random_forest": [{"n_trees": 8, "max_depth": 7, "seed": 3}],
    "adaboost": [{"n_estimators": 15, "max_depth": 1}, {"n_estimators": 10, "max_depth": 2}],
    "xgboost": [
        {"n_rounds": 10, "eta": 0.3, "lam": 1.0, "max_depth": 4},
        {"n_rounds": 15, "eta": 0.5, "lam": 0.5, "max_depth": 5},
    ],
}


def _cases():
    """(name, X_train, y_train, X_test) triples, fully determined by seeds."""
    out = []
    # Noisy continuous signal; column 2 duplicates column 0, column 4 is
    # constant, column 5 takes three values.
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 6))
    X[:, 2] = X[:, 0]
    X[:, 4] = 1.5
    X[:, 5] = rng.integers(0, 3, size=300)
    y = ((X[:, 0] + 0.7 * X[:, 1] - 0.4 * X[:, 5] + rng.normal(0, 0.6, 300)) > 0)
    out.append(("noisy_dup_const", X[:240], y[:240].astype(np.int64), X[240:]))
    # Imbalanced, mostly discrete features: many equal-score splits.
    rng = np.random.default_rng(23)
    X = rng.integers(0, 4, size=(200, 5)).astype(np.float64)
    X[:, 3] = X[:, 1]
    y = (X[:, 1] + X[:, 0] + rng.integers(0, 3, 200) > 6).astype(np.int64)
    out.append(("discrete_imbalanced", X[:150], y[:150], X[150:]))
    # Wide one-hot-like block plus a few numeric columns; test rows
    # include values outside the training range.
    rng = np.random.default_rng(5)
    onehot = np.eye(8)[rng.integers(0, 8, size=180)]
    num = rng.exponential(size=(180, 3))
    X = np.hstack([num, onehot, onehot[:, :2]])
    y = ((num[:, 0] > 0.8) ^ (onehot[:, 3] > 0)).astype(np.int64)
    X_test = np.vstack([X[140:], X[140:145] * 10 - 5])
    out.append(("onehot_wide", X[:140], y[:140], X_test))
    return out


def _record(only: str | None = None) -> dict[str, np.ndarray]:
    rec = {}
    for case, X, y, X_test in _cases():
        if only is not None and case != only:
            continue
        for name, grid in MODELS.items():
            for i, params in enumerate(grid):
                model = make_model(name, params).fit(X, y)
                key = f"{case}/{name}/{i}"
                rec[key] = np.concatenate(
                    [model.predict_proba(X), model.predict_proba(X_test)]
                )
                if name == "adaboost":
                    rec[key + "/alphas"] = np.array([a for _, a in model.stages_])
    return rec


@pytest.mark.parametrize("case", [c[0] for c in _cases()])
def test_predictions_bit_identical(case):
    expected = np.load(FIXTURE)
    got = _record(case)
    assert sorted(got) == sorted(k for k in expected.files if k.startswith(case + "/"))
    for key in got:
        assert np.array_equal(got[key], expected[key]), key


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    np.savez(FIXTURE, **_record())
    print(f"wrote {FIXTURE}")
