"""Process environment and the benchmark's own Spark session.

The benchmark does not use ``jobs/_common.get_spark``: that factory
defaults to a 32g driver, which does not fit the machines the benchmark
runs on. Everything here is sized from the machine: ``local[min(nproc,
4)]`` and a driver heap of MemTotal/2 clamped to 2..8 GiB (the rule the
tier-1 test line uses).

Spark, the JVM and Python's ``tempfile`` write only below the run's work
directory inside the checkout, which is removed when the run ends.
"""
from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads, so the
# benchmark fixes it instead of inheriting it from the caller's shell.
# One thread: the loop is ~40 % slower than with the build's default of
# two, but the same session repeated within ±6 % instead of ±15 % (the
# second thread spin-waits and competes with everything else).
BLAS_THREADS = "1"
SHUFFLE_PARTITIONS = 8


def driver_memory_gib() -> int:
    """MemTotal/2 in GiB, clamped to 2..8."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return min(8, max(2, int(line.split()[1]) // 2097152))
    except OSError:
        pass
    return 2


def local_cores() -> int:
    return min(os.cpu_count() or 1, 4)


def prepare_process(root: Path, work: Path) -> None:
    """Set the environment that must be fixed before numpy or the JVM load."""
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    # Python workers are launched by the JVM and import repro from here.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    )
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{local_cores()}] "
        f"--driver-memory {driver_memory_gib()}g "
        f"--driver-java-options -Djava.io.tmpdir={tmp} "
        "--conf spark.driver.host=127.0.0.1 pyspark-shell"
    )


def start_spark(work: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("darwinbench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it to end."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is None:
        return
    if proc.stdin:
        proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)


def describe(spark) -> dict:
    """Versions and settings every report carries."""
    import numpy as np
    import pyspark

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        b = cfg["Build Dependencies"]["blas"]
        blas = {"name": b.get("name"), "version": b.get("version"),
                "config": b.get("openblas configuration")}
    except (TypeError, KeyError):
        pass
    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": f"{driver_memory_gib()}g",
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "arrow": True,
        "python": platform.python_version(),
        "spark": pyspark.__version__,
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }
