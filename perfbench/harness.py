"""Pure helpers of the benchmark: sample summaries, pass bookkeeping,
span self-time, event-log summaries and /proc memory readings.

Nothing here imports pyspark or starts a process, so the self-tests in
``test_harness.py`` run without Spark.
"""
from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

#: Spark's local property naming a job's group; the event log records it.
JOB_GROUP = "spark.jobGroup.id"


def summarize(samples: list[float]) -> dict:
    """Median, first and third quartile and count of ``samples``.

    Quartiles are ``statistics.quantiles(samples, n=4)`` (the exclusive
    method); with one sample they equal the sample.
    """
    if not samples:
        raise ValueError("no samples to summarize")
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


@dataclass
class PassLog:
    """Outcome of every pass of a run: its time and whether it failed.

    A pass fails when its entry point raises or its output check does;
    either way it counts once in ``failed`` and the run goes on.
    """

    seconds: list[float] = field(default_factory=list)
    failed_passes: set[int] = field(default_factory=set)

    def add(self, seconds: float) -> int:
        self.seconds.append(seconds)
        return len(self.seconds) - 1

    def fail(self, index: int) -> None:
        self.failed_passes.add(index)

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return len(self.failed_passes)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


@dataclass
class Span:
    """One call of a traced function: ``[start, end]`` on the perf clock."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    rows_out: int | None = None


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, ``busy_s`` and ``self_s``.

    ``busy_s`` sums the spans' wall time; ``self_s`` subtracts the part
    of each span that its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for i, s in enumerate(spans):
        busy = s.end - s.start
        agg = out[s.name]
        agg["calls"] += 1
        agg["busy_s"] += busy
        agg["self_s"] += busy - covered(children[i], s.start, s.end)
    return dict(out)


#: Task metrics summed per job group: name -> (paths into "Task Metrics",
#: factor that turns Spark's unit into seconds or bytes).
_TASK_METRICS = {
    "run_s": ([("Executor Run Time",)], 1e-3),
    "cpu_s": ([("Executor CPU Time",)], 1e-9),
    "gc_s": ([("JVM GC Time",)], 1e-3),
    "shuffle_read_bytes": (
        [("Shuffle Read Metrics", "Remote Bytes Read"),
         ("Shuffle Read Metrics", "Local Bytes Read")],
        1,
    ),
    "shuffle_write_bytes": ([("Shuffle Write Metrics", "Shuffle Bytes Written")], 1),
    "spill_bytes": ([("Disk Bytes Spilled",)], 1),
    "peak_exec_mem_bytes": ([("Peak Execution Memory",)], 1),
}

#: Spark's Python SQL metrics (task accumulables); times are in ms.
_PY_METRICS = {
    "time to start Python workers": ("py_boot_s", 1e-3),
    "time to initialize Python workers": ("py_init_s", 1e-3),
    "time to run Python workers": ("py_run_s", 1e-3),
    "data sent to Python workers": ("py_bytes_in", 1),
    "data returned from Python workers": ("py_bytes_out", 1),
}

SPARK_METRICS = ("tasks", *_TASK_METRICS, *(m for m, _ in _PY_METRICS.values()))


def _task_metric(metrics: dict, paths: list[tuple[str, ...]]) -> float:
    total = 0.0
    for path in paths:
        v = metrics
        for key in path:
            v = v.get(key, 0) if isinstance(v, dict) else 0
        total += float(v)
    return total


def summarize_event_log(lines) -> dict[str, dict[str, float]]:
    """Spark task metrics summed per job group from event-log lines.

    A stage belongs to the group of the first job that lists it (a later
    job that reuses its shuffle output skips it and runs no tasks).
    Jobs without ``spark.jobGroup.id`` are ignored.
    """
    stage_group: dict[int, str] = {}
    out: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(SPARK_METRICS, 0.0))
    for line in lines:
        if not line.strip():
            continue
        ev = json.loads(line)
        kind = ev.get("Event")
        if kind == "SparkListenerJobStart":
            group = (ev.get("Properties") or {}).get(JOB_GROUP)
            if group is not None:
                for sid in ev["Stage IDs"]:
                    stage_group.setdefault(sid, group)
        elif kind == "SparkListenerTaskEnd":
            group = stage_group.get(ev["Stage ID"])
            if group is None:
                continue
            agg = out[group]
            agg["tasks"] += 1
            metrics = ev.get("Task Metrics") or {}
            for name, (paths, factor) in _TASK_METRICS.items():
                agg[name] += _task_metric(metrics, paths) * factor
            for acc in (ev.get("Task Info") or {}).get("Accumulables", []):
                hit = _PY_METRICS.get(acc.get("Name"))
                if hit is not None:
                    name, factor = hit
                    agg[name] += float(acc.get("Update", 0)) * factor
    return dict(out)


def read_vm_hwm_mb(pid: int | str = "self") -> float | None:
    """Peak resident set (``VmHWM``) of a process in MiB, or None if gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        return None
    return None


def descendants(root: int) -> list[int]:
    """Pids of every live descendant of ``root`` (from ``/proc``)."""
    parent: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # comm may hold spaces; ppid is the second field after its ')'.
        parent[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [root]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        found += kids
        frontier += kids
    return found


def process_age_s() -> float:
    """Seconds since this process started.

    Both readings count from boot in clock ticks (``/proc/self/stat``)
    and hundredths (``/proc/uptime``), so the age is good to 10 ms.
    """
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")
