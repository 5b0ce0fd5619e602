"""Spark's Python daemon, started from the installed pyspark.

Spark puts its own archives (``pyspark.zip``, py4j's zip, the spark-core
jar) first on each Python worker's ``sys.path``.  Every task then calls
``importlib.invalidate_caches()``, and CPython 3.11's zipimporter answers
by re-reading each archive's central directory: 0.1–0.2 s per task on 4
shared vCPUs.  This module, set as ``spark.python.daemon.module`` by
:func:`repro.session.get_spark`, drops those archives before the daemon
imports pyspark, so the workers use the installed package and its
compiled files.  Archives from ``--py-files`` stay on the path.
"""
import os
import sys


def spark_archives(path: list[str], spark_home: str | None) -> list[str]:
    """The ``.zip``/``.jar`` entries of ``path`` under ``spark_home``."""
    if not spark_home:
        return []
    home = os.path.join(os.path.realpath(spark_home), "")
    return [p for p in path if p.endswith((".zip", ".jar"))
            and os.path.realpath(p).startswith(home)]


if __name__ == "__main__":
    for archive in spark_archives(sys.path, os.environ.get("SPARK_HOME")):
        sys.path.remove(archive)
        sys.path_importer_cache.pop(archive, None)
    from pyspark.daemon import manager

    manager()
