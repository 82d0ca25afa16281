"""The Spark side of the benchmark: session, input loading, event log.

Settings the benchmark changes from Spark's defaults (all others, AQE
and ``spark.sql.shuffle.partitions`` included, stay as users get them):

* ``--master local[nproc]`` from one driver process, and a fixed
  ``--driver-memory`` (:data:`DRIVER_MEMORY`);
* ``spark.driver.host=127.0.0.1``, ``spark.ui.enabled=false`` and
  ``spark.ui.showConsoleProgress=false``: no web UI, no progress bars;
* ``spark.local.dir`` and the JVM's ``java.io.tmpdir`` inside the
  run's scratch directory, and ``-XX:-UsePerfData`` so the JVM writes
  no file outside it; log level ERROR;
* traced runs only: an event-logging listener, uncompressed and not
  rolled, attached to the live context around the traced operations.
"""
from __future__ import annotations

import json
import os
import shlex
import subprocess
import time
from collections import defaultdict
from functools import reduce
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

DRIVER_MEMORY = "2g"
#: Arrow to Spark SQL types for the input columns.
_DDL = {"int64": "bigint", "int32": "int", "double": "double",
        "string": "string", "date32[day]": "date"}


def submit_args(nproc: int, scratch: Path) -> str:
    local = shlex.quote(str(scratch / "spark-local"))
    tmp = shlex.quote(f"-Djava.io.tmpdir={scratch / 'tmp'} -XX:-UsePerfData")
    return (
        f"--master local[{nproc}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={local} --driver-java-options {tmp} "
        "pyspark-shell"
    )


def changed_settings(nproc: int) -> dict[str, str]:
    """The settings :func:`submit_args` changes, for the run metadata."""
    return {
        "master": f"local[{nproc}]",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": "<run scratch>/spark-local",
        "java.io.tmpdir": "<run scratch>/tmp",
        "jvm": "-XX:-UsePerfData (no hsperfdata file outside the checkout)",
        "log level": "ERROR",
    }


def _proc_children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids[ppid].append(int(entry))
    return kids


def descendants(pid: int) -> list[int]:
    """Process ids below ``pid``, read from /proc (empty where there is none)."""
    if not os.path.isdir("/proc"):
        return []
    kids = _proc_children()
    out, todo = [], list(kids.get(pid, []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class SparkEnv:
    """One local-mode session; :meth:`close` stops the JVM and every
    process below it and waits until each has ended."""

    def __init__(self, nproc: int, scratch: Path):
        os.environ["PYSPARK_SUBMIT_ARGS"] = submit_args(nproc, scratch)
        os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
        from pyspark.sql import SparkSession

        self.scratch = scratch
        self.spark = SparkSession.builder.appName("perfbench").getOrCreate()
        self.spark.sparkContext.setLogLevel("ERROR")
        self._n_logs = 0

    @property
    def java_version(self) -> str:
        return str(self.spark.sparkContext._jvm.java.lang.System.getProperty(
            "java.version"))

    def set_group(self, name: str | None) -> None:
        """Tag the next jobs with ``name`` (the enclosing span's id)."""
        sc = self.spark.sparkContext
        if name is None:
            sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            sc.setJobGroup(name, name)

    def load(self, cols: dict[str, np.ndarray | pa.Array], parts: int, tag: str):
        """Write ``cols`` as ``parts`` Parquet files of contiguous rows and
        load them as one persisted, counted DataFrame of ``parts``
        partitions."""
        d = self.scratch / "inputs" / tag
        d.mkdir(parents=True, exist_ok=True)
        n = len(next(iter(cols.values())))
        paths = []
        for p in range(parts):
            lo, hi = p * n // parts, (p + 1) * n // parts
            path = d / f"part-{p:03d}.parquet"
            table = pa.table({k: v[lo:hi] for k, v in cols.items()})
            pq.write_table(table, path)
            paths.append(str(path))
        # one read per file keeps one file per partition; the explicit
        # schema spares each read a footer-reading job
        schema = ", ".join(f"`{f.name}` {_DDL[str(f.type)]}" for f in table.schema)
        read = [self.spark.read.schema(schema).parquet(p) for p in paths]
        df = reduce(lambda a, b: a.union(b), read).coalesce(parts).persist()
        rows = df.count()
        if rows != n or df.rdd.getNumPartitions() != parts:
            raise RuntimeError(f"loaded {rows} rows in "
                               f"{df.rdd.getNumPartitions()} partitions, "
                               f"wanted {n} in {parts}")
        return df

    def event_log(self) -> "EventLog":
        self._n_logs += 1
        return EventLog(self.spark, self.scratch / "eventlog",
                        f"perfbench-{os.getpid()}-{self._n_logs}")

    def close(self) -> None:
        from pyspark import SparkContext

        below = descendants(os.getpid())
        gateway = SparkContext._gateway
        self.spark.stop()
        if gateway is not None:
            proc = getattr(gateway, "proc", None)
            gateway.shutdown()
            if proc is not None:
                proc.stdin.close()
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=30)
            SparkContext._gateway = None
            SparkContext._jvm = None
        deadline = time.monotonic() + 60
        while any(_alive(p) for p in below) and time.monotonic() < deadline:
            time.sleep(0.1)
        for p in below:
            if _alive(p):
                try:
                    os.kill(p, 9)
                except ProcessLookupError:
                    pass


class EventLog:
    """Spark's own event log, attached to the live context.

    Attaching the listener at run time, rather than through
    ``spark.eventLog.enabled`` at start-up, lets one session time the
    same operations with and without it.
    """

    def __init__(self, spark, directory: Path, app: str):
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / app
        sc = spark.sparkContext
        jvm = sc._jvm
        self._sc = sc._jsc.sc()
        uri = directory.resolve().as_uri()
        conf = (self._sc.conf().clone()
                .set("spark.eventLog.compress", "false")
                .set("spark.eventLog.rolling.enabled", "false")
                .set("spark.eventLog.dir", uri))
        self._lis = jvm.org.apache.spark.scheduler.EventLoggingListener(
            app, jvm.scala.Option.empty(), jvm.java.net.URI(uri), conf,
            self._sc.hadoopConfiguration())
        self._lis.start()
        self._sc.addSparkListener(self._lis)

    def close(self) -> list[dict]:
        """Detach, flush and return the logged events."""
        self._sc.listenerBus().waitUntilEmpty()
        self._sc.removeSparkListener(self._lis)
        self._lis.stop()
        with open(self.path) as f:
            return [json.loads(line) for line in f if line.strip()]


def _scope_names(stage_info: dict) -> set[str]:
    names = set()
    for rdd in stage_info.get("RDD Info", []):
        if "Scope" in rdd:
            names.add(json.loads(rdd["Scope"])["name"])
    return names


def stage_spans(events: list[dict]) -> list[dict]:
    """Completed stages as spans, each tagged with its job group and role.

    Role ``partial`` marks a stage that runs ``mapInPandas``; ``merge``
    marks a stage reading the shuffle a partial stage wrote (AQE re-plans
    the partial stage under a new id in the next job, so every id that
    ever carried ``MapInPandas`` counts as a partial parent).
    """
    group, partial_ids = {}, set()
    for e in events:
        if e["Event"] == "SparkListenerJobStart":
            g = (e.get("Properties") or {}).get("spark.jobGroup.id")
            for si in e.get("Stage Infos", []):
                group[si["Stage ID"]] = g
                if "MapInPandas" in _scope_names(si):
                    partial_ids.add(si["Stage ID"])
    busy = defaultdict(float)
    wrote = defaultdict(lambda: [0, 0])
    for e in events:
        if e["Event"] == "SparkListenerTaskEnd" and e.get("Task Metrics"):
            m = e["Task Metrics"]
            busy[e["Stage ID"]] += m["Executor Run Time"] / 1000.0
            sw = m.get("Shuffle Write Metrics", {})
            wrote[e["Stage ID"]][0] += sw.get("Shuffle Records Written", 0)
            wrote[e["Stage ID"]][1] += sw.get("Shuffle Bytes Written", 0)
    spans = []
    for e in events:
        if e["Event"] != "SparkListenerStageCompleted":
            continue
        si = e["Stage Info"]
        sid = si["Stage ID"]
        if sid in partial_ids:
            role = "partial"
        elif partial_ids & set(si.get("Parent IDs", [])):
            role = "merge"
        else:
            role = "other"
        spans.append({
            "name": f"stage {sid}", "role": role, "group": group.get(sid),
            "start": si["Submission Time"] / 1000.0,
            "end": si["Completion Time"] / 1000.0,
            "stage_s": (si["Completion Time"] - si["Submission Time"]) / 1000.0,
            "busy_s": busy[sid], "tasks": si["Number of Tasks"],
            "shuffle_records": wrote[sid][0], "shuffle_bytes": wrote[sid][1],
        })
    return spans
