"""The one SparkSession factory, shared by the jobs and the test suite.

Everything is sized from the machine it runs on:

- master: ``SPARK_MASTER``, default ``local[*]``;
- driver heap: ``SPARK_DRIVER_MEM``, else half of ``MemTotal`` clamped
  to 2..8 GiB.

Master and driver memory are fixed when the JVM launches, so they travel
in ``PYSPARK_SUBMIT_ARGS``; a value the caller already put there (or a
running ``spark-submit``) wins. Arrow is on, the UI is off and the log
level is ERROR.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

SHUFFLE_PARTITIONS = 64


def driver_memory(meminfo: str = "/proc/meminfo") -> str:
    """``SPARK_DRIVER_MEM``, else MemTotal/2 in GiB clamped to 2..8."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open(meminfo) as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return f"{min(8, max(2, int(line.split()[1]) // 2097152))}g"
    except OSError:
        pass
    return "2g"


def get_spark(app: str) -> SparkSession:
    """Get or start the local session for ``app``."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
