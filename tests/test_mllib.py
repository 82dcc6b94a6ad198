"""MLlib oracle tests: the Spark feature pipeline, the five stock
estimators, and their agreement with the NumPy models."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.datasets import load_dataset, spec_for
from repro.datasets.base import DatasetSpec
from repro.ml.mllib import (
    FEATURES,
    LABEL,
    build_feature_pipeline,
    fit_and_predict,
    make_estimator,
    prepare,
)

pytestmark = pytest.mark.mllib


@pytest.fixture(scope="module")
def toy_spec():
    return DatasetSpec(
        name="toy", label="y", numeric=("a", "b"), categorical=("c",), text=()
    )


@pytest.fixture(scope="module")
def toy(spark, toy_spec):
    rng = np.random.default_rng(0)
    n = 300
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    c = rng.choice(["u", "v"], n)
    y = ((a + 0.5 * b + (c == "u") * 0.8) > 0.4).astype(int)
    pdf = pd.DataFrame({"a": a, "b": b, "c": c, "y": y})
    sdf = spark.createDataFrame(pdf)
    return sdf.randomSplit([0.7, 0.3], seed=1)


def _acc(pred_df) -> float:
    row = pred_df.agg(
        F.avg((F.col("prediction") == F.col(LABEL)).cast("double")).alias("acc")
    ).collect()[0]
    return float(row["acc"])


class TestFeaturePipeline:
    def test_produces_features_vector(self, spark, toy, toy_spec):
        train, _ = toy
        prepared = prepare(train, toy_spec)
        out = build_feature_pipeline(toy_spec).fit(prepared).transform(prepared)
        row = out.select(FEATURES).first()
        # 2 numerics + one-hot over {u, v} (+keep bucket) = 2 + 3.
        assert len(row[FEATURES]) == 5

    def test_handles_null_numeric(self, spark, toy_spec):
        pdf = pd.DataFrame(
            {"a": [1.0, None, 3.0], "b": [1.0, 2.0, 3.0], "c": ["u", "v", "u"], "y": [0, 1, 0]}
        )
        prepared = prepare(spark.createDataFrame(pdf), toy_spec)
        out = build_feature_pipeline(toy_spec).fit(prepared).transform(prepared)
        assert out.count() == 3

    def test_text_pipeline(self, spark):
        spec = DatasetSpec(name="t", label="y", text=("doc",))
        pdf = pd.DataFrame({"doc": ["red fox", "blue dog", "red dog"], "y": [1, 0, 0]})
        prepared = prepare(spark.createDataFrame(pdf), spec)
        out = build_feature_pipeline(spec).fit(prepared).transform(prepared)
        assert len(out.select(FEATURES).first()[FEATURES]) == 32


# The NumPy models that MLlib has a stock estimator for (xgboost -> GBT).
STOCK_MODELS = [
    "logistic_regression",
    "decision_tree",
    "random_forest",
    "xgboost",
    "naive_bayes",
]


@pytest.mark.parametrize("name", STOCK_MODELS)
class TestSevenModels:
    """The five of the seven CleanML models that MLlib ships."""

    def test_learns_toy(self, spark, toy, toy_spec, name):
        train, test = toy
        pred = fit_and_predict(name, toy_spec, train, test, seed=0)
        assert _acc(pred) > 0.75, name


class TestCustomStages:
    def test_unknown_estimator(self):
        with pytest.raises(KeyError):
            make_estimator("svm")


@pytest.fixture(scope="module")
def eeg_iqr_mean(spark):
    """EEG split 11, dirty and IQR + impute_mean cleaned, as pandas
    frames and as Spark frames."""
    from repro.cleaning.outliers import fit_outlier_stats, repair_pandas
    from repro.core.runner import split_frame

    spec = spec_for("EEG")
    train, test = split_frame(load_dataset("EEG"), 11, 0.3)
    stats = fit_outlier_stats(train, list(spec.numeric), "IQR")
    train_c = repair_pandas(train, stats, "impute_mean")
    test_c = repair_pandas(test, stats, "impute_mean")
    frames = {"dirty": train, "clean": train_c, "test": test_c}
    return spec, frames, {k: spark.createDataFrame(v) for k, v in frames.items()}


@pytest.mark.parametrize("name", STOCK_MODELS)
class TestCrossBackend:
    """Both backends, fitted on the same dirty and cleaned EEG training
    sets and scored on the same cleaned test set, see the same picture."""

    def test_numpy_agrees_with_mllib(self, eeg_iqr_mean, name):
        from repro.ml.features import Featurizer
        from repro.ml.metrics import accuracy
        from repro.ml.models import make_model

        spec, frames, sdfs = eeg_iqr_mean
        test = frames["test"]
        yt = test[spec.label].to_numpy()
        np_acc, ml_acc = {}, {}
        for side in ("dirty", "clean"):
            train = frames[side]
            feat = Featurizer(numeric=list(spec.numeric)).fit(train)
            model = make_model(name).fit(
                feat.transform(train), train[spec.label].to_numpy()
            )
            np_acc[side] = accuracy(yt, model.predict(feat.transform(test)))
            ml_acc[side] = _acc(fit_and_predict(name, spec, sdfs[side], sdfs["test"]))
            assert abs(np_acc[side] - ml_acc[side]) < 0.08, (side, np_acc, ml_acc)
        # Cleaning helps on both backends. Only LR and NB are asserted:
        # for the tree models the change is within noise (on this split
        # DT loses on both backends, and MLlib's RF does not move).
        if name in ("logistic_regression", "naive_bayes"):
            assert np_acc["clean"] > np_acc["dirty"]
            assert ml_acc["clean"] > ml_acc["dirty"]
