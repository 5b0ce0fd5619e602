"""The one SparkSession factory for jobs, tests and benchmarks."""
from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """A session with 64 shuffle partitions, Arrow on, broadcast joins off.

    Master and driver memory are read at JVM launch (``spark-submit`` or
    ``PYSPARK_SUBMIT_ARGS``); the settings here apply after it.  The
    package runs no join; broadcast joins are off for the join oracles in
    ``tests/reference.py``, so they exercise the shuffle path.

    The Python workers start from :mod:`repro.spark_daemon`, so ``repro``
    must be importable on the worker path (``src`` on ``PYTHONPATH``, or
    ``pip install -e .``), as the UDF closures already require.  It runs
    the installed pyspark instead of Spark's ``pyspark.zip``: under
    CPython 3.11 each task's ``importlib.invalidate_caches()`` re-read the
    central directories of the 16 zipimporters over Spark's archives,
    ≈26.7k entries or 0.1–0.2 s per task on 4 shared vCPUs, and the zip
    holds no ``.pyc``.
    """
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.python.daemon.module", "repro.spark_daemon")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("WARN")
    return spark
