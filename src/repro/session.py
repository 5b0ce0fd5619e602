"""The one SparkSession factory for jobs, tests and benchmarks."""
from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """A session with 64 shuffle partitions, Arrow on, broadcast joins off.

    Master and driver memory are read at JVM launch (``spark-submit`` or
    ``PYSPARK_SUBMIT_ARGS``); the settings here apply after it.  With
    broadcast joins off, joins exercise the shuffle path.
    """
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("WARN")
    return spark
