"""Record the seed-11 values that the benchmark's checks compare against.

Usage (from the repository root):

    python3 perfbench/record_reference.py

Runs one pass of every workload in ``plan.json`` at the jobs' default
seed, checks it against the independent references, and writes the
results to ``perfbench/reference_seed11.json``.  Record again only for a
change that is meant to alter results.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    root = os.getcwd()
    plan = run.load_plan()
    scratch = os.path.join(root, ".bench_out", f"record-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    run.configure(root, scratch, trace=False)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "jobs")]
    import common
    import workloads

    seed = workloads.REFERENCE_SEED
    spark = common.get_spark("perfbench-reference")
    recorded = {}
    try:
        for name, w in plan["workloads"].items():
            wl = workloads.WORKLOADS[name]
            out = wl.run_pass(spark, w["inputs"], seed)
            problems = wl.check(out, wl.reference(spark, w["inputs"], seed), w["inputs"])
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            recorded[name] = {"inputs": w["inputs"], "values": wl.to_reference(out)}
            spark.catalog.clearCache()
            print(f"{name}: recorded, {wl.paper_checks(out)}")
    finally:
        run.stop_spark(spark)
        shutil.rmtree(scratch, ignore_errors=True)
    with open(workloads.REFERENCE_FILE, "w") as f:
        json.dump(recorded, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
