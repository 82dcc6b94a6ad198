"""Spark Python daemon that makes one grid unit raise.

``run.py`` starts Spark with ``spark.python.daemon.module=faultd`` when
``PERFBENCH_FAIL_UNIT`` names a ``<dataset>/<error_type>``; the workers
this daemon forks then fail that unit, so the failure-accounting path
can be exercised without touching the program.
"""
import os

from pyspark import daemon

import repro.core.runner as runner


def _install(unit: str) -> None:
    run_unit = runner.run_unit

    def failing(dataset, error_type, split_seed, protocol):
        if f"{dataset}/{error_type}" == unit:
            raise RuntimeError(f"injected fault in unit {dataset}/{error_type}/{split_seed}")
        return run_unit(dataset, error_type, split_seed, protocol)

    runner.run_unit = failing


if __name__ == "__main__":
    _install(os.environ["PERFBENCH_FAIL_UNIT"])
    daemon.manager()
