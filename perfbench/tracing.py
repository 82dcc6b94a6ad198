"""In-memory spans around the public functions the pipeline calls.

Wrappers are installed from outside, on the module attributes that
:mod:`repro.core.runner` and :mod:`repro.core.relations` look up at call
time, and removed again when the ``traced`` block ends. A layer's self
time is its spans' duration minus the time their child spans cover.
Spark's Python workers never see these wrappers, so unit-level layers
are traced in a serial in-process pass.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import repro.core.relations as relations
import repro.core.runner as runner
from repro.ml.features import Featurizer


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._cached: list = []  # pair frames cached by the traced run

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, **attrs):
        def traced(*args, **kwargs):
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name (and per ``name.<model>``)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            own = s["end"] - s["start"] - child[s["id"]]
            out[s["name"]] += own
            if "model" in s:
                out[f"{s['name']}.{s['model']}"] += own
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    @contextlib.contextmanager
    def traced(self):
        """Install the layer wrappers for the duration of the block."""
        patches = [
            (runner, "load_dataset", self.wrap(runner.load_dataset, "datasets.load")),
            (runner, "split_frame", self.wrap(runner.split_frame, "runner.split")),
            (runner, "build_versions", self._build_versions(runner.build_versions)),
            (runner, "downsample_majority",
             self.wrap(runner.downsample_majority, "features.downsample")),
            (runner, "random_search", self._search(runner.random_search)),
            (runner, "metric_fn", self._metric_fn(runner.metric_fn)),
            (Featurizer, "fit", self.wrap(Featurizer.fit, "features.fit")),
            (Featurizer, "transform", self.wrap(Featurizer.transform, "features.transform")),
            (relations, "build_pairs_r1", self._pairs(relations.build_pairs_r1, "r1")),
            (relations, "build_pairs_r2", self._pairs(relations.build_pairs_r2, "r2")),
            (relations, "build_pairs_r3", self._pairs(relations.build_pairs_r3, "r3")),
            (relations, "by_adjust", self.wrap(relations.by_adjust, "stats.by_adjust")),
            (relations, "decide_flag", self.wrap(relations.decide_flag, "stats.decide_flag")),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, fn in patches:
                setattr(obj, attr, fn)
            yield self
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)
            for df in self._cached:
                df.unpersist()
            self._cached.clear()

    def _build_versions(self, fn):
        def traced(*args, **kwargs):
            with self.span("cleaning.build_versions"):
                train, test = fn(*args, **kwargs)
            self.counts["cleaning.train_versions"] += len(train)
            self.counts["cleaning.test_variants"] += len(test)
            return train, test

        return traced

    def _search(self, fn):
        def traced(model, *args, **kwargs):
            with self.span("search.fit", model=model):
                result = fn(model, *args, **kwargs)
            # The test-variant predicts run_unit makes on the chosen model;
            # validation predicts inside the search stay in search.fit.
            result.model.predict = self.wrap(result.model.predict, "models.predict", model=model)
            return result

        return traced

    def _metric_fn(self, fn):
        def traced(name):
            return self.wrap(fn(name), "metrics.score")

        return traced

    def _pairs(self, fn, which: str):
        """Materialize the pair frame inside the span, so the span holds
        the pair assembly rather than only the plan construction."""

        def traced(*args, **kwargs):
            with self.span(f"relations.pairs_{which}"):
                df = fn(*args, **kwargs).cache()
                self.counts["relations.pairs_rows"] += df.count()
            self._cached.append(df)
            return df

        return traced
