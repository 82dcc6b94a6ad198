"""CleanML benchmark: one command, three workloads, one closed loop.

    python3 perfbench/run.py --workload grid-outliers|grid-mixed|analysis \
        [--seed N] [--seconds S] [--trace 0|1] [--write-reference]

Run from the repository root; the program is imported from ``src/``.
One driver process runs Spark ``local[N]`` (N = min(4, nproc)) and
starts each phase only after the previous one returned. A pass is:

* grid workloads: ``run_grid`` -> ``build_relations`` ->
  ``register_relations`` + every applicable Q1-Q5 via ``run_query``;
* ``analysis``: the same minus ``run_grid``, over a generated results
  frame at full-study cardinality.

Set-up (Spark session start, worker warm-up, input generation) runs
``SETUP_REPS`` times and its median is ``setup_s``. Passes repeat while
the next one is expected to end within ``--seconds`` (at least one);
timings are medians over passes, taken with tracing off. Outputs are
checked against a pandas/DuckDB recomputation and, at the default seed,
against the pinned relations in ``reference/``.

``--trace 1`` prints the per-layer metrics instead: spans around the
Spark phases, plus a serial in-process pass over the same grid units
with wrappers around the layers ``run_unit`` calls (see ``tracing.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A run record with the environment (and the
spans, when traced) is written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
CORES = min(4, os.cpu_count() or 1)
# The driver JVM's heap is allocated and touched in full at start, so its
# resident size does not wander with GC sizing decisions between runs.
DRIVER_MEMORY = "1g"
SETUP_REPS = 3
# BLAS/OpenMP run single-threaded in the driver and every Spark worker,
# so N workers use N cores whatever the library's default.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set to "<dataset>/<error_type>" to make that grid unit raise inside the
# Spark workers (see faultd.py); used by the failure-accounting test.
FAIL_UNIT_VAR = "PERFBENCH_FAIL_UNIT"


def _prepare_process() -> None:
    """Environment for this process and every process Spark starts;
    must run before numpy or pyspark is imported."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}; run from a checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for sub in ("tmp", "spark", "warehouse"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    # The short-lived JVM spark-submit uses to build the driver command.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={WORK / 'tmp'}"
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src), str(BENCH)])
    os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    sys.path[:0] = [str(src), str(BENCH)]
    import repro

    if Path(repro.__file__).resolve().parents[1] != src:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def start_spark():
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.master(f"local[{CORES}]")
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.sql.shuffle.partitions", str(CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(WORK / "spark"))
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .config(
            "spark.driver.extraJavaOptions",
            f"-Djava.io.tmpdir={WORK / 'tmp'} -XX:-UsePerfData "
            f"-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch",
        )
    )
    if os.environ.get(FAIL_UNIT_VAR):
        b = b.config("spark.python.daemon.module", "faultd")
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _warm(batches):
    import repro.core.runner  # noqa: F401  (import cost paid once per worker)

    yield from batches


class Bench:
    """One workload at one seed: its Spark session, inputs and passes."""

    def __init__(self, workload, seed: int):
        from workloads import fits_per_unit

        self.wl, self.seed = workload, seed
        self.protocol = workload.protocol(seed)
        self.units = workload.grid(seed)
        self.spark = None
        self.fits = sum(fits_per_unit(e, self.protocol) for e in self.units["error_type"])

    def setup(self) -> float:
        from workloads import analysis_frame

        t0 = time.perf_counter()
        if self.spark is not None:
            self.spark.stop()
        self.spark = start_spark()
        self.spark.range(CORES, numPartitions=CORES).mapInPandas(_warm, "id long").collect()
        if not self.wl.is_grid:
            # Read back as a parquet file, the way a re-analysis of a
            # finished grid loads results.parquet.
            self.frame = analysis_frame(self.seed)
            path = WORK / f"analysis-seed{self.seed}.parquet"
            self.frame.to_parquet(path, index=False)
            self.input = self.spark.read.parquet(str(path)).cache()
            self.input.count()
        return time.perf_counter() - t0

    def close(self) -> None:
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None

    def operations(self) -> int:
        """What one pass attempts: grid units, or one build plus its queries."""
        return len(self.units) if self.wl.is_grid else 1 + len(self.queries())

    def queries(self) -> list[tuple[str, str, str]]:
        from repro.core.queries import QUERIES, applicable

        errs = sorted(set(self.units["error_type"]))
        return [
            (q, r, e)
            for r in ("R1", "R2", "R3")
            for e in errs
            for q in QUERIES
            if applicable(q, r, e)
        ]

    def one_pass(self, tracer) -> dict:
        """The timed work; returns what the checks need."""
        from repro.core.harness import run_grid
        from repro.core.queries import register_relations, run_query
        from repro.core.relations import build_relations

        out = {}
        if self.wl.is_grid:
            with tracer.span("harness.run_grid"):
                results = run_grid(
                    self.spark, self.protocol, self.wl.error_types, self.wl.datasets
                )
            out["results"] = results
        else:
            results = self.input
        with tracer.span("relations.build"):
            rel = build_relations(results, alpha=self.protocol.alpha)
        counts = {}
        with tracer.span("queries"):
            with tracer.span("queries.register"):
                register_relations(self.spark, rel)
            for key in self.queries():
                with tracer.span("queries.run"):
                    counts[key] = run_query(self.spark, *key).toPandas()
        out.update(relations=rel, counts=counts)
        return out

    def collect(self, out: dict) -> None:
        """After the timed window: fetch the grid rows, drop the cache."""
        if "results" in out:
            out["results_pdf"] = out.pop("results").toPandas()
        if self.wl.is_grid:
            self.spark.catalog.clearCache()  # run_grid caches its results


class PhaseClock:
    """Stands in for a Tracer when tracing is off: wall and process-tree
    CPU of the outermost spans only (a few per pass)."""

    def __init__(self) -> None:
        self.phases: dict[str, list[float]] = {}
        self._depth = 0

    @contextlib.contextmanager
    def span(self, name, **attrs):
        import proctree

        self._depth += 1
        outer = self._depth == 1
        if outer:
            cpu0, t0 = proctree.cpu_s(), time.perf_counter()
        try:
            yield None
        finally:
            self._depth -= 1
            if outer:
                acc = self.phases.setdefault(name, [0.0, 0.0])
                acc[0] += time.perf_counter() - t0
                acc[1] += proctree.cpu_s() - cpu0


def error_text(exc: BaseException) -> str:
    """The innermost Python error line, e.g. from a Spark task traceback."""
    lines = [l.strip() for l in str(exc).splitlines()]
    named = [l for l in lines if re.match(r"^[\w.]+(Error|Exception|Exit): ", l)]
    return (named[-1] if named else f"{type(exc).__name__}: {lines[0] if lines else ''}")[:300]


def timed_passes(bench: Bench, seconds: float) -> list[dict]:
    """Closed loop: repeat passes while the next should end in time."""
    import proctree

    passes, t_start = [], time.perf_counter()
    while True:
        clock = PhaseClock()
        cpu0, t0 = proctree.cpu_s(), time.perf_counter()
        try:
            out, err = bench.one_pass(clock), None
        except Exception as exc:  # a failed pass is reported, not raised
            out, err = {}, error_text(exc)
        out.update(wall=time.perf_counter() - t0, cpu=proctree.cpu_s() - cpu0, error=err)
        out["phases"] = clock.phases
        bench.collect(out)
        passes.append(out)
        elapsed = time.perf_counter() - t_start
        if err or elapsed + out["wall"] > seconds:
            return passes


def check(bench: Bench, passes: list[dict], write_reference: bool) -> dict:
    """Mismatches of every successful pass against the references."""
    import pandas as pd

    import oracle
    from workloads import DEFAULT_SEED, EXPECTED_ANALYSIS

    ok = [p for p in passes if not p["error"]]
    if not ok:
        return {"result_mismatch": 0, "query_mismatch": 0, "rows_mismatch": 0}
    first = ok[0]
    results = first["results_pdf"] if bench.wl.is_grid else bench.frame
    want = oracle.canonical(oracle.relations_oracle(results, bench.protocol.alpha))
    ref_path = BENCH / "reference" / f"{bench.wl.name}.csv"
    if write_reference:
        if bench.seed != DEFAULT_SEED:
            raise SystemExit(f"perfbench: the reference is pinned at seed {DEFAULT_SEED}")
        ref_path.parent.mkdir(exist_ok=True)
        oracle.canonical(first["relations"]).to_csv(ref_path, index=False)
    pinned = None
    if bench.seed == DEFAULT_SEED:
        pinned = pd.read_csv(ref_path, dtype=str, keep_default_na=False)
        for c in oracle.CHECKED[1:]:
            pinned[c] = pinned[c].astype(float)
    rel_bad = query_bad = rows_bad = 0
    for p in ok:
        got = oracle.canonical(p["relations"])
        rel_bad += oracle.relation_mismatches(got, want)
        if pinned is not None:
            rel_bad += oracle.relation_mismatches(got, pinned)
        query_bad += oracle.query_mismatches(p["relations"], p["counts"])
        if bench.wl.is_grid:
            rows_bad += _row_mismatches(p["results_pdf"], results)
    if bench.wl.is_grid:
        rows_bad += abs(len(results) - _expected_rows(bench))
    else:
        sizes = {"rows": len(results), **{k: len(v) for k, v in first["relations"].items()}}
        rows_bad += sum(abs(sizes[k] - v) for k, v in EXPECTED_ANALYSIS.items())
    return {"result_mismatch": rel_bad, "query_mismatch": query_bad, "rows_mismatch": rows_bad}


def _expected_rows(bench: Bench) -> int:
    from workloads import versions

    n = 0
    for e in bench.units["error_type"]:
        train, tests = versions(e)
        n += len(train) * len(tests) * len(bench.protocol.models) * len(
            bench.protocol.search_seeds
        )
    return n


def _canon_rows(df):
    from repro.core.schema import RESULT_COLUMNS

    df = df[RESULT_COLUMNS].astype({"split_seed": "int64", "search_seed": "int64"})
    return df.sort_values(RESULT_COLUMNS[:9], kind="mergesort").reset_index(drop=True)


def _row_mismatches(got, want) -> int:
    """Rows of ``got`` differing from ``want`` (exact floats)."""
    a, b = _canon_rows(got), _canon_rows(want)
    if a.shape != b.shape:
        return max(len(a), len(b))
    return int((a != b).any(axis=1).sum())


def environment(bench: Bench) -> dict:
    import numpy as np
    import pyspark

    def git(*args):
        try:
            r = subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    in_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    sc = bench.spark.sparkContext
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if in_repo else None,
        "nproc": os.cpu_count(),
        "spark_master": sc.master,
        "spark_default_parallelism": sc.defaultParallelism,
        "spark_shuffle_partitions": bench.spark.conf.get("spark.sql.shuffle.partitions"),
        "spark_driver_memory": sc.getConf().get("spark.driver.memory"),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "java": sc._jvm.System.getProperty("java.version"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration"),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": bench.wl.name,
        "seed": bench.seed,
        "split_seeds": list(bench.protocol.split_seeds) if bench.wl.is_grid else None,
        "protocol": repr(bench.protocol),
    }


def run_untraced(bench: Bench, seconds: float, write_reference: bool):
    """End-to-end metrics, the extra printed figures, and the run record."""
    import proctree

    setups = [bench.setup() for _ in range(SETUP_REPS)]
    passes = timed_passes(bench, seconds)
    rss = proctree.peak_rss_mb()
    env = environment(bench)
    found = check(bench, passes, write_reference)
    ok = [p for p in passes if not p["error"]]
    wall = statistics.median(p["wall"] for p in passes)
    specs = [sum(len(r) for r in p["relations"].values()) / p["wall"] for p in ok]
    ops = bench.operations()
    failed = ops * (len(passes) - len(ok))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "specs_per_s": (statistics.median(specs) if specs else 0.0, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {"fits_per_s": (bench.fits / wall, "1/s")} if bench.wl.is_grid else {}
    extra["unit_fail_rate"] = (failed / (ops * len(passes)), "1")
    extra["result_mismatch"] = (found["result_mismatch"] + found["query_mismatch"], "count")
    record = {
        "env": env,
        "passes": len(passes),
        "attempted": ops * len(passes),
        "failed": failed,
        "errors": [p["error"] for p in passes if p["error"]],
        "checks": found,
        "setup_samples_s": setups,
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_cpu_s": [p["cpu"] for p in passes],
        "pass_phases": [p["phases"] for p in passes],
    }
    return metrics, extra, record


def run_traced(bench: Bench):
    """Per-layer metrics and the run record (with every span)."""
    from repro.core.runner import run_unit
    from repro.datasets.registry import load_dataset
    from repro.ml.models import MODEL_NAMES
    from tracing import Tracer

    bench.setup()
    tracer = Tracer()
    if not bench.wl.is_grid:
        bench.one_pass(PhaseClock())  # warm-up, so both compared passes are warm
    err = None
    with tracer.traced():
        with tracer.span("pass") as root:
            try:
                out = bench.one_pass(tracer)
            except Exception as exc:  # reported like an untraced failure
                out, err = {}, error_text(exc)
    out["error"] = err
    bench.collect(out)
    env = environment(bench)
    found = check(bench, [out], write_reference=False)
    busy, fidelity, overhead, untraced = 0.0, 0, 0.0, None
    if bench.wl.is_grid and not err:
        units = [
            (u.dataset, u.error_type, int(u.split_seed)) for u in bench.units.itertuples()
        ]
        spark_rows = out["results_pdf"]
        with tracer.traced():
            for d, e, s in units:
                load_dataset.cache_clear()  # each Spark task generates its data
                with tracer.span("unit", unit=f"{d}/{e}/{s}") as span:
                    rows = run_unit(d, e, s, bench.protocol)
                span["rows"] = len(rows)
                mine = spark_rows[
                    (spark_rows["dataset"] == d)
                    & (spark_rows["error_type"] == e)
                    & (spark_rows["split_seed"] == s)
                ]
                fidelity += _row_mismatches(rows, mine)
        unit_spans = [x for x in tracer.spans if x["name"] == "unit"]
        busy = sum(x["end"] - x["start"] for x in unit_spans)
        # Overhead: the longest unit again, untraced, both runs warm.
        longest = max(range(len(units)), key=lambda i: unit_spans[i]["end"] - unit_spans[i]["start"])
        load_dataset.cache_clear()
        t0 = time.perf_counter()
        run_unit(*units[longest], bench.protocol)
        untraced = time.perf_counter() - t0
        traced = unit_spans[longest]["end"] - unit_spans[longest]["start"]
        overhead = (traced - untraced) / untraced
    elif not err:
        t0 = time.perf_counter()
        bench.one_pass(PhaseClock())
        untraced = time.perf_counter() - t0
        overhead = (root["end"] - root["start"] - untraced) / untraced
    st = tracer.self_times()
    cnt = tracer.counts
    grid_s = st["harness.run_grid"]
    m = {
        "datasets.load_s": (st["datasets.load"], "s"),
        "runner.split_s": (st["runner.split"], "s"),
        "cleaning.build_versions_s": (st["cleaning.build_versions"], "s"),
        "cleaning.train_versions": (cnt["cleaning.train_versions"], "count"),
        "cleaning.test_variants": (cnt["cleaning.test_variants"], "count"),
        "features.fit_s": (st["features.fit"], "s"),
        "features.transform_s": (st["features.transform"], "s"),
        "features.transform_calls": (tracer.calls("features.transform"), "count"),
        "features.downsample_s": (st["features.downsample"], "s"),
        "search.fit_s": (st["search.fit"], "s"),
        "search.calls": (tracer.calls("search.fit"), "count"),
        **{f"search.fit_s.{n}": (st[f"search.fit.{n}"], "s") for n in MODEL_NAMES},
        "models.predict_s": (st["models.predict"], "s"),
        "models.predict_calls": (tracer.calls("models.predict"), "count"),
        **{f"models.predict_s.{n}": (st[f"models.predict.{n}"], "s") for n in MODEL_NAMES},
        "metrics.score_s": (st["metrics.score"], "s"),
        "harness.grid_s": (grid_s, "s"),
        "harness.units": (len(bench.units) if bench.wl.is_grid else 0, "count"),
        "harness.unit_busy_s": (busy, "s"),
        "harness.efficiency": (busy / (grid_s * CORES) if grid_s else 0.0, "ratio"),
        "relations.pairs_r1_s": (st["relations.pairs_r1"], "s"),
        "relations.pairs_r2_s": (st["relations.pairs_r2"], "s"),
        "relations.pairs_r3_s": (st["relations.pairs_r3"], "s"),
        "relations.build_s": (st["relations.build"], "s"),
        "relations.pairs_rows": (cnt["relations.pairs_rows"], "count"),
        "relations.specs": (sum(len(r) for r in out.get("relations", {}).values()), "count"),
        "stats.by_adjust_s": (st["stats.by_adjust"], "s"),
        "stats.decide_flag_s": (st["stats.decide_flag"], "s"),
        "queries.register_s": (st["queries.register"], "s"),
        "queries.run_s": (st["queries.run"], "s"),
        "queries.count": (tracer.calls("queries.run"), "count"),
        "trace.overhead": (overhead, "ratio"),
        "trace.uncovered_s": (st["pass"] + st["unit"] + st["queries"], "s"),
        "trace.fidelity_mismatch": (fidelity, "count"),
    }
    found["fidelity_mismatch"] = fidelity
    record = {
        "env": env,
        "passes": 1,
        "attempted": bench.operations(),
        "failed": bench.operations() if err else 0,
        "errors": [err] if err else [],
        "checks": found,
        "untraced_s": untraced,
        "spans": tracer.spans,
    }
    return m, record


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["grid-outliers", "grid-mixed", "analysis"])
    ap.add_argument("--seed", type=_seed, default=100)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="pin this run's relations as the workload's reference")
    args = ap.parse_args(argv)
    _prepare_process()
    from workloads import WORKLOADS

    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            metrics, record = run_traced(bench)
            extra = {}
        else:
            metrics, extra, record = run_untraced(bench, args.seconds, args.write_reference)
    finally:
        bench.close()
    correct = not record["failed"] and not any(record["checks"].values())
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    for err in record["errors"]:
        print(f"error {err}")
    print(f"checks {json.dumps(record['checks'], sort_keys=True)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record["metrics"] = {k: v[0] for k, v in {**metrics, **extra}.items()}
    (OUT / f"{tag}.json").write_text(json.dumps(record, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
