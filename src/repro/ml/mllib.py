"""Stock Spark MLlib pipelines: an independent oracle for the NumPy models.

The paper's preprocessing expressed in Spark ML: one-hot encoding
(StringIndexer + OneHotEncoder), hashed tf-idf for text, mean
imputation of residual numeric nulls, standardization, then one of the
five classifiers MLlib ships (XGBoost is substituted by MLlib's
gradient-boosted trees, see DESIGN.md). KNN and AdaBoost have no stock
MLlib estimator and are not covered.

The grid runs only the NumPy models (:mod:`repro.ml.models`). This
module is not on that path: ``tests/test_mllib.py`` fits both backends
on the same cleaned frames and checks that their accuracies agree.
"""
from __future__ import annotations

from pyspark.ml import Pipeline
from pyspark.ml.classification import (
    DecisionTreeClassifier,
    GBTClassifier,
    LogisticRegression,
    NaiveBayes,
    RandomForestClassifier,
)
from pyspark.ml.feature import (
    HashingTF,
    IDF,
    Imputer,
    OneHotEncoder,
    StandardScaler,
    StringIndexer,
    Tokenizer,
    VectorAssembler,
)
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.datasets.base import DatasetSpec

FEATURES = "features"
LABEL = "label_idx"
TEXT_DIMS = 32


def build_feature_pipeline(spec: DatasetSpec) -> Pipeline:
    """Spark ML stages reproducing §3.3's preprocessing for ``spec``."""
    stages = []
    assembled = []
    numeric = [f"{c}__num" for c in spec.numeric]
    if spec.numeric:
        stages.append(
            Imputer(
                inputCols=[f"{c}__d" for c in spec.numeric],
                outputCols=numeric,
                strategy="mean",
            )
        )
        assembled += numeric
    for c in spec.categorical:
        stages.append(
            StringIndexer(
                inputCol=c, outputCol=f"{c}__idx", handleInvalid="keep"
            )
        )
        stages.append(
            OneHotEncoder(inputCol=f"{c}__idx", outputCol=f"{c}__oh", dropLast=False)
        )
        assembled.append(f"{c}__oh")
    for c in spec.text:
        stages.append(Tokenizer(inputCol=c, outputCol=f"{c}__tok"))
        stages.append(
            HashingTF(inputCol=f"{c}__tok", outputCol=f"{c}__tf", numFeatures=TEXT_DIMS)
        )
        stages.append(IDF(inputCol=f"{c}__tf", outputCol=f"{c}__tfidf"))
        assembled.append(f"{c}__tfidf")
    stages.append(VectorAssembler(inputCols=assembled, outputCol="raw_features"))
    stages.append(
        StandardScaler(
            inputCol="raw_features", outputCol=FEATURES, withMean=True, withStd=True
        )
    )
    return Pipeline(stages=stages)


def prepare(sdf: DataFrame, spec: DatasetSpec) -> DataFrame:
    """Cast numerics / label and fill text nulls before the pipeline."""
    out = sdf
    for c in spec.numeric:
        out = out.withColumn(f"{c}__d", F.col(c).cast("double"))
    for c in spec.categorical:
        out = out.withColumn(c, F.coalesce(F.col(c).cast("string"), F.lit("__null__")))
    for c in spec.text:
        out = out.withColumn(c, F.coalesce(F.col(c).cast("string"), F.lit("")))
    return out.withColumn(LABEL, F.col(spec.label).cast("double"))


def make_estimator(name: str, params: dict | None = None, seed: int = 0):
    """Stock MLlib estimator for one of the five models MLlib has."""
    p = dict(params or {})
    if name == "logistic_regression":
        return LogisticRegression(
            featuresCol=FEATURES, labelCol=LABEL, regParam=p.get("reg", 0.01)
        )
    if name == "decision_tree":
        return DecisionTreeClassifier(
            featuresCol=FEATURES, labelCol=LABEL, maxDepth=p.get("max_depth", 6), seed=seed
        )
    if name == "random_forest":
        return RandomForestClassifier(
            featuresCol=FEATURES,
            labelCol=LABEL,
            numTrees=p.get("n_trees", 15),
            maxDepth=p.get("max_depth", 8),
            seed=seed,
        )
    if name == "xgboost":
        # GBTClassifier is Spark's gradient-boosted trees, the closest
        # built-in equivalent of XGBoost (DESIGN.md substitution table).
        return GBTClassifier(
            featuresCol=FEATURES,
            labelCol=LABEL,
            maxIter=p.get("n_rounds", 15),
            maxDepth=p.get("max_depth", 4),
            stepSize=p.get("eta", 0.3),
            seed=seed,
        )
    if name == "naive_bayes":
        return NaiveBayes(
            featuresCol=FEATURES, labelCol=LABEL, modelType="gaussian"
        )
    raise KeyError(f"unknown model {name!r}")


def fit_and_predict(
    name: str,
    spec: DatasetSpec,
    train: DataFrame,
    test: DataFrame,
    params: dict | None = None,
    seed: int = 0,
) -> DataFrame:
    """Featurize with the Spark pipeline, fit ``name``, score ``test``.

    Returns the test DataFrame with a ``prediction`` column — the
    backend's equivalent of one (train version, model) cell of the
    grid.
    """
    train_p = prepare(train, spec)
    test_p = prepare(test, spec)
    feat = build_feature_pipeline(spec).fit(train_p)
    train_f = feat.transform(train_p)
    test_f = feat.transform(test_p)
    model = make_estimator(name, params, seed=seed).fit(train_f)
    return model.transform(test_f)
