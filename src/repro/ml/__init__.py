"""ML substrate: preprocessing, the seven CleanML classifiers, search.

* :mod:`repro.ml.models` — the one implementation of the seven models
  (paper §3.3), vectorized NumPy, fitted inside the grid's Spark tasks.
* :mod:`repro.ml.mllib` — stock Spark MLlib estimators for five of the
  models, kept only as an independent test oracle for the NumPy ones.
"""
from repro.ml.features import Featurizer, downsample_majority
from repro.ml.models import MODEL_NAMES, make_model
from repro.ml.metrics import accuracy, f1_binary

__all__ = [
    "Featurizer",
    "downsample_majority",
    "MODEL_NAMES",
    "make_model",
    "accuracy",
    "f1_binary",
]
