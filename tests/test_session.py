"""The session's Python workers import the installed pyspark, not Spark's
zips, and only the Spark layers import pyspark at all."""
import ast
import os
import pathlib
import runpy
import sys
import zipimport

import pyspark

import repro
from repro import spark_daemon


def _worker_imports(_):
    import pyspark

    yield {
        "zipimporters": sum(isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values()),
        "pyspark_file": pyspark.__file__,
        "version": pyspark.__version__,
    }


def test_workers_import_installed_pyspark(spark):
    (got,) = spark.sparkContext.parallelize([0], 1).mapPartitions(_worker_imports).collect()
    assert got["zipimporters"] == 0
    # A module loaded from inside an archive has no file of its own.
    assert os.path.isfile(got["pyspark_file"]), got["pyspark_file"]
    assert got["version"] == pyspark.__version__ == spark.version


def test_spark_archives_keeps_other_entries(tmp_path):
    home = tmp_path / "spark-4.1.2"
    (home / "python" / "lib").mkdir(parents=True)
    link = tmp_path / "spark"
    link.symlink_to(home)
    path = [
        str(link / "python" / "lib" / "pyspark.zip"),
        str(home / "jars" / "spark-core.jar"),
        str(home / "python"),
        str(tmp_path / "deps.zip"),
        str(tmp_path / "spark-4.1.2-extra" / "dep.zip"),
        "/usr/lib/python311.zip",
    ]
    assert spark_daemon.spark_archives(path, str(link)) == path[:2]
    assert spark_daemon.spark_archives(path, str(home)) == path[:2]
    assert spark_daemon.spark_archives(path, None) == []


def test_import_changes_nothing():
    path, cache = list(sys.path), dict(sys.path_importer_cache)
    runpy.run_path(spark_daemon.__file__)
    assert sys.path == path
    assert sys.path_importer_cache == cache


def test_only_the_spark_layers_import_pyspark():
    """Spark serves Fig. 4 (and the session and its worker daemon); every
    other module runs in pandas and NumPy on the driver."""
    root = pathlib.Path(repro.__file__).parent
    importers = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "pyspark" for name in names):
                importers.add(".".join(path.relative_to(root).with_suffix("").parts))
    assert importers == {"session", "spark_daemon", "culinarydb.corpus", "core.randomize", "core.zscore"}
