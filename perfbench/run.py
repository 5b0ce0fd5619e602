"""The repository benchmark: the paper's job entry points, end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig4_zscore --seed 11 --seconds 10 --trace 0

Each run is one fresh process.  It builds the session through
``jobs/common.get_spark`` (``setup_s``), makes one cold pass
(``cold_s``), then makes warm passes in a closed loop with one client
until ``--seconds`` have passed (``wall_s``, their median).  A pass is one
call of the workload's ``run()`` entry point(s) with results collected to
pandas; ``spark.catalog.clearCache()`` follows every pass.  Outputs are
checked after the timed passes; a pass that raises or fails its check
counts in ``failed`` and the run goes on.

``--trace 1`` adds one traced pass after the warm ones: the functions of
each layer in ``plan.json`` are wrapped from outside (see ``tracer.py``),
the event log is switched on, and the per-layer metrics are reported
instead of the end-to-end ones.

Every metric is printed by name and unit, then the run record, then one
JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result also goes to ``.bench_out/``.  The run reads and writes
only inside the repository root it is started from.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time
import traceback

from harness import (
    JOB_GROUP,
    PassLog,
    descendants,
    layer_times,
    process_age_s,
    read_vm_hwm_mb,
    summarize,
    summarize_event_log,
)

HERE = os.path.dirname(os.path.abspath(__file__))
COLD_GROUP = "cold"
DRIVER_MEMORY = "4g"
MAX_CORES = 2
END_TO_END_UNITS = {
    "setup_s": "s", "cold_s": "s", "wall_s": "s",
    "driver_rss_peak_mb": "MiB", "worker_rss_peak_mb": "MiB",
}


def load_plan() -> dict:
    with open(os.path.join(HERE, "plan.json")) as f:
        return json.load(f)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if "bytes" in metric:
        return "B"
    if metric == "keys_per_member":
        return "ratio"
    return "count"


def per_layer_names(plan: dict) -> list[str]:
    """Every per-layer metric, ``<span>.<metric>``, in plan order."""
    names = []
    for layer in plan["layers"]:
        if layer["target"] is not None:
            names.append(f"{layer['span']}.calls")
        names += [f"{layer['span']}.{m}" for m in layer["keep"]]
    return names


def configure(root: str, scratch: str, trace: bool) -> str:
    """Environment read at JVM launch; must run before pyspark starts one."""
    cores = min(MAX_CORES, os.cpu_count() or 1)
    master = f"local[{cores}]"
    tmp, local = os.path.join(scratch, "tmp"), os.path.join(scratch, "local")
    for d in (tmp, local):
        os.makedirs(d, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = local
    # The package is not installed: Python workers find it through here.
    src = os.path.join(root, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.eventLog.enabled": "false",
    }
    if trace:
        log_dir = os.path.join(scratch, "eventlog")
        os.makedirs(log_dir, exist_ok=True)
        conf.update({
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": log_dir,
            "spark.eventLog.rolling.enabled": "false",
            "spark.eventLog.compress": "false",
        })
    args = ["--master", master, "--driver-memory", DRIVER_MEMORY,
            "--driver-java-options", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"]
    for k, v in conf.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])
    return master


def source_digest(root: str) -> str:
    """sha256 over the Python files under ``src/`` and ``jobs/``."""
    h = hashlib.sha256()
    for top in ("src", "jobs"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    """HEAD of the repository at ``root``; None when ``root`` is no git checkout."""
    # The ceiling keeps git from finding a repository above the root.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def call_pass(fn):
    """One pass's output, or None if it raised (the run goes on)."""
    try:
        return fn()
    except Exception:  # counted as a failed pass by the caller
        traceback.print_exc()
        return None


def timed_pass(fn, log: PassLog, outputs: list, spark) -> float:
    t0 = time.perf_counter()
    out = call_pass(fn)
    elapsed = time.perf_counter() - t0
    log_output(log, outputs, elapsed, out)
    spark.catalog.clearCache()
    return elapsed


def log_output(log: PassLog, outputs: list, elapsed: float, out) -> int:
    index = log.add(elapsed)
    if out is None:
        log.fail(index)
    outputs.append((index, out))
    return index


def worker_rss_mb(jvm_pid: int) -> float:
    """Largest VmHWM among the Python processes the JVM started."""
    peaks = []
    for pid in descendants(jvm_pid):
        try:
            with open(f"/proc/{pid}/comm") as f:
                comm = f.read().strip()
        except OSError:
            continue
        if comm.startswith("python"):
            peaks.append(read_vm_hwm_mb(pid) or 0.0)
    return max(peaks, default=0.0)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_spark(spark) -> None:
    """Stop the session, the JVM and every process it started, and wait."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = gateway.proc
    kids = descendants(proc.pid)
    spark.stop()
    gateway.shutdown()
    proc.stdin.close()  # the gateway JVM exits at EOF on its stdin
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)
    deadline = time.monotonic() + 30
    while any(_alive(p) for p in kids) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in kids:
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "jobs", "common.py"))
            and os.path.isdir(os.path.join(root, "src", "repro"))):
        print("run from the repository root: jobs/common.py and src/repro are missing",
              file=sys.stderr)
        return 2
    plan = load_plan()
    if args.workload not in plan["workloads"]:
        print(f"unknown workload {args.workload!r}; one of {sorted(plan['workloads'])}",
              file=sys.stderr)
        return 2
    inputs = plan["workloads"][args.workload]["inputs"]
    trace = bool(args.trace)

    out_dir = os.path.join(root, ".bench_out")
    scratch = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        return run(args, root, plan, inputs, trace, out_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, root, plan, inputs, trace, out_dir, scratch) -> int:
    master = configure(root, scratch, trace)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "jobs")]

    import common  # jobs/common.py

    t0 = time.perf_counter()
    spark = common.get_spark(f"perfbench-{args.workload}")
    session_s = time.perf_counter() - t0
    spark.range(1).count()
    setup_s = process_age_s()

    try:
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        log, outputs = PassLog(), []

        def one_pass():
            return wl.run_pass(spark, inputs, args.seed)

        # A traced run tags the cold pass's jobs so the event log yields
        # its Python-worker start-up time (spark.py_boot_s).
        sc = spark.sparkContext
        sc.setLocalProperty(JOB_GROUP, COLD_GROUP if trace else None)
        cold_s = timed_pass(one_pass, log, outputs, spark)
        sc.setLocalProperty(JOB_GROUP, None)
        warm, start = [], time.perf_counter()
        while not warm or time.perf_counter() - start < args.seconds:
            warm.append(timed_pass(one_pass, log, outputs, spark))
        jvm_pid = spark.sparkContext._gateway.proc.pid
        end_to_end = {
            "setup_s": setup_s,
            "cold_s": cold_s,
            "wall_s": summarize(warm)["median"],
            "driver_rss_peak_mb": read_vm_hwm_mb(),
            "worker_rss_peak_mb": worker_rss_mb(jvm_pid),
        }

        traced = None
        if trace:
            traced = traced_pass(spark, plan, one_pass, log, outputs)

        t_check = time.perf_counter()
        problems, paper = check_outputs(wl, args.workload, spark, inputs, args.seed, log, outputs)
        problems += traced["problems"] if traced else []
        check_s = time.perf_counter() - t_check
        jvm_rss = read_vm_hwm_mb(jvm_pid) or 0.0
        versions_seen = versions(spark)
    finally:
        t_stop = time.perf_counter()
        stop_spark(spark)
        stop_s = time.perf_counter() - t_stop

    record = {
        "workload": args.workload, "inputs": inputs, "seed": args.seed,
        "seconds": args.seconds, "trace": int(trace),
        "commit": git_commit(root), "source_sha256": source_digest(root),
        "nproc": os.cpu_count(), "master": master, "driver_memory": DRIVER_MEMORY,
        "versions": versions_seen,
        "session_s": session_s, "cold_s": cold_s, "check_s": check_s, "stop_s": stop_s,
        "warm_s": summarize(warm), "warm_samples": warm,
        "passes": log.attempted, "failed": log.failed, "failed_frac": log.failed_frac,
        "problems": problems, "paper_checks": paper,
    }
    if trace:
        metrics = per_layer_metrics(plan, traced, scratch, session_s, jvm_rss,
                                    end_to_end["wall_s"])
        record["spans"] = traced["spans"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    record["metrics"] = metrics

    report(record)
    name = f"{args.workload}-seed{args.seed}-trace{int(trace)}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1, default=str)
    print(json.dumps({"correct": log.failed == 0, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0


def versions(spark) -> dict:
    import numpy
    import pandas
    import pyarrow

    return {"spark": spark.version, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "pyarrow": pyarrow.__version__,
            "pandas": pandas.__version__}


def traced_pass(spark, plan, one_pass, log, outputs) -> dict:
    """One pass with every layer wrapped; spans and computed counts."""
    from tracer import Tracer

    targets = {l["span"]: l["target"] for l in plan["layers"] if l["target"]}
    tracer = Tracer(spark.sparkContext, targets)
    tracer.install()
    try:
        with tracer.span("pass") as whole:
            out = call_pass(one_pass)
    finally:
        tracer.uninstall()
    pass_s = whole.end - whole.start
    index = log_output(log, outputs, pass_s, out)
    counts, short = {}, []
    if out is not None:
        try:
            counts, short = tracer.computed_counts(), tracer.random_recipes_short()
        except KeyError as e:  # a traced function's parameters were renamed
            print(f"computed counts skipped: no argument {e}", file=sys.stderr)
        if short:
            log.fail(index)
    spark.catalog.clearCache()
    return {"pass_s": pass_s, "spans": [vars(s) for s in tracer.spans],
            "times": layer_times(tracer.spans), "counts": counts,
            "problems": [f"random_recipes {m}: not n_rand recipes per region" for m in short]}


def check_outputs(wl, name, spark, inputs, seed, log, outputs):
    """Check every pass's output; failures count, they do not abort."""
    import workloads

    problems: list[str] = []
    paper: dict = {}
    try:
        ref = wl.reference(spark, inputs, seed)
    except Exception:
        traceback.print_exc()
        for index, _ in outputs:
            log.fail(index)
        return ["reference failed"], paper
    recorded = workloads.recorded_reference(name, inputs) if seed == workloads.REFERENCE_SEED else None
    for index, out in outputs:
        if out is None:
            continue
        try:
            found = wl.check(out, ref, inputs)
            if recorded is not None:
                found += workloads.check_recorded(name, out, recorded)
            paper = wl.paper_checks(out)
        except Exception as e:  # a broken output fails its pass
            found = [f"check raised {e!r}"]
        if found:
            log.fail(index)
            problems += [f"pass {index}: {msg}" for msg in found]
    return problems, paper


def per_layer_metrics(plan, traced, scratch, session_s, jvm_rss, wall_s) -> dict:
    log_dir = os.path.join(scratch, "eventlog")
    by_group: dict = {}
    for name in sorted(os.listdir(log_dir)):
        with open(os.path.join(log_dir, name)) as f:
            by_group.update(summarize_event_log(f))
    times = traced["times"]
    spans = [l["span"] for l in plan["layers"] if l["target"]]
    values: dict[str, float] = {"session.busy_s": session_s}
    for span in spans:
        t = times.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        values.update({f"{span}.{k}": v for k, v in t.items()})
        values[f"{span}.rows_out"] = sum(
            s["rows_out"] or 0 for s in traced["spans"] if s["name"] == span
        )
        for k, v in by_group.get(span, {}).items():
            values[f"{span}.{k}"] = v
        for k, v in traced["counts"].get(span, {}).items():
            values[f"{span}.{k}"] = v
    pass_groups = [g for g in by_group if g in spans or g == "pass"]
    for k in ("tasks", "gc_s"):
        values[f"spark.{k}"] = sum(by_group[g][k] for g in pass_groups)
    values["spark.py_boot_s"] = by_group.get(COLD_GROUP, {}).get("py_boot_s", 0.0)
    values["spark.jvm_rss_peak_mb"] = jvm_rss
    values["trace.pass_s"] = traced["pass_s"]
    values["trace.unattributed_s"] = times["pass"]["self_s"]
    values["trace.overhead_s"] = traced["pass_s"] - wall_s
    return {name: {"value": values.get(name, 0), "unit": unit_of(name.rsplit(".", 1)[1])}
            for name in per_layer_names(plan)}


def report(record: dict) -> None:
    """Human-readable lines: every metric by name and unit, then the record."""
    for name, m in record["metrics"].items():
        print(f"{name:<58} {m['value']:>16.6g} {m['unit']}")
    w = record["warm_s"]
    print(f"warm passes: median {w['median']:.3f} s, q1 {w['q1']:.3f} s, "
          f"q3 {w['q3']:.3f} s, n = {w['n']}")
    print(f"failed_frac {record['failed_frac']:.3f} ratio "
          f"({record['failed']}/{record['passes']} passes)")
    for k, v in record["paper_checks"].items():
        print(f"{k} {v}/22")
    for msg in record["problems"]:
        print(f"check failed: {msg}")
    if record["trace"]:
        t = record["metrics"]
        share = 1 - t["trace.unattributed_s"]["value"] / t["trace.pass_s"]["value"]
        print(f"named spans cover {100 * share:.1f}% of the traced pass")
    keys = ("workload", "inputs", "seed", "commit", "source_sha256", "nproc", "master",
            "driver_memory", "versions")
    print("record " + json.dumps({k: record[k] for k in keys}))


if __name__ == "__main__":
    sys.exit(main())
