import sys

import pytest
from pyspark.sql import SparkSession

from repro.spark import get_spark


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One SparkSession for the whole test session, from ``repro.spark``."""
    s = get_spark("repro-tests")
    sc = s.sparkContext
    # One line in the test output that names the session actually started.
    print(
        f"[conftest] master={sc.master} "
        f"driver_memory={sc.getConf().get('spark.driver.memory', 'default')} "
        f"defaultParallelism={sc.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
