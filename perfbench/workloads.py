"""The three workloads: ``q1``, ``highcard`` and ``kernel``.

A run sets up its inputs, makes one untimed warm-up call of every timed
operation, then repeats whole rounds of the same operations until
``--seconds`` have passed, so ``failed / attempted`` is the same in
every run. Outputs are checked outside every timed region.
"""
from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np

from . import checks, inputs, layers
from .spans import Tracer

RSUM_L = {"q1": 4, "highcard": 2, "kernel": 2}


class Run:
    """What one benchmark run accumulates."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool, scratch: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.quick, self.scratch = trace, quick, scratch
        self.size = inputs.SIZES["quick" if quick else "full"]
        self.nproc = os.cpu_count() or 1
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fault_messages: dict[str, str] = {}
        self.metrics: dict[str, tuple[float, str]] = {}
        self.meta: dict = {}

    def op(self, name: str, fn, times: list | None = None):
        """One counted operation; its duration goes to ``times``."""
        self.attempted += 1
        with self.tracer.span(name) as sp:
            out = fn()
        if times is not None:
            times.append(sp["dur"])
        return out

    def fault(self, name: str, fn, errors: tuple = (ValueError, ArithmeticError)):
        """A known-fault operation: fails when ``fn`` returns a message
        or raises one of ``errors``."""
        self.attempted += 1
        with self.tracer.span(name):
            try:
                msg = fn()
            except errors as exc:
                first = (str(exc).strip().splitlines() or [""])[0]
                msg = f"raised {type(exc).__name__}: {first[:160]}"
        if msg:
            self.failed += 1
            self.fault_messages[name] = msg

    def rounds(self, body) -> int:
        """Call ``body(i)`` for whole rounds until ``seconds`` have passed."""
        end = time.perf_counter() + self.seconds
        i = 0
        while True:
            body(i)
            i += 1
            if time.perf_counter() >= end:
                return i

    def check(self, problems: list[str]) -> None:
        self.problems.extend(problems)


def _median(xs) -> float:
    return statistics.median(xs)


# ---------------------------------------------------------------- kernel
def _kernel_repro(k, v, G, **kw):
    from repro.aggregate import partition_and_aggregate

    return partition_and_aggregate(k, v, G, kind="repro_buffered", L=2, **kw).finalize()


def _kernel_builtin(k, v, G):
    from repro.aggregate import partition_and_aggregate

    return partition_and_aggregate(k, v, G, kind="builtin").finalize()


def _deposit_headroom():
    from repro.core.binned import GroupedBinnedAcc

    acc = GroupedBinnedAcc(L=2, dense_n_groups=1)
    acc.update(np.zeros(inputs.DEPOSIT_N, np.int64),
               np.full(inputs.DEPOSIT_N, inputs.DEPOSIT_X))
    got = float(acc.finalize()[0, 0])
    if got != inputs.DEPOSIT_SUM:
        return f"got {got!r}, exact {inputs.DEPOSIT_SUM!r}"
    return None


def _merge_headroom():
    from repro.core.binned import GroupedBinnedAcc

    acc = GroupedBinnedAcc(L=inputs.MERGE_L, dense_n_groups=1)
    acc.merge_state_rows(*inputs.merge_headroom_rows())
    got, want = float(acc.finalize()[0, 0]), inputs.merge_headroom_sum()
    if got != want:
        return f"got {got!r}, exact {want!r}"
    return None


def _timed_setup(make, reps: int):
    """Call ``make`` ``reps`` times; return the last result and the
    median time."""
    times, out = [], None
    for _ in range(reps):
        out = None  # free the previous inputs before making new ones
        t0 = time.perf_counter()
        out = make()
        times.append(time.perf_counter() - t0)
    return out, _median(times)


def kernel(run: Run) -> None:
    """Single-node ``partition_and_aggregate`` over dense keys, no JVM.

    The warm-up calls run on the rows in reverse order, with another
    partitioning depth and batch size; every timed call is checked bit
    for bit against them.
    """
    from repro.aggregate import choose_depth

    n = run.size["kernel_rows"]
    with run.tracer.span("setup"):
        data, setup_s = _timed_setup(lambda: inputs.kernel(n, run.seed), 3)
    run.metrics["setup_s"] = (setup_s, "s")
    cases = layers.kernel_cases(data)
    first: dict[str, np.ndarray] = {}
    with run.tracer.span("warm-up"):
        for tag, k, v, G in cases:
            first[f"repro:{tag}"] = _kernel_repro(
                k[::-1], v[::-1], G, d=1 - min(choose_depth(G), 1), batch=12345)
            first[f"builtin:{tag}"] = _kernel_builtin(k[::-1], v[::-1], G)

    times: dict[str, list[float]] = {}
    rsum_round, double_round = [], []

    def body(i):
        for tag, k, v, G in cases:
            for kind, fn in (("repro", _kernel_repro), ("builtin", _kernel_builtin)):
                key = f"{kind}:{tag}"
                res = run.op(key, lambda: fn(k, v, G), times.setdefault(key, []))
                if kind == "repro":
                    run.check(checks.check_bits(first[key], res, f"kernel {key} round {i}"))
        rsum_round.append(sum(times[f"repro:{t}"][-1] for t, *_ in cases))
        double_round.append(sum(times[f"builtin:{t}"][-1] for t, *_ in cases))
        run.fault("deposit_headroom", _deposit_headroom)
        run.fault("merge_headroom", _merge_headroom)

    run.rounds(body)
    run.metrics["rsum_s"] = (_median(rsum_round), "s")
    run.metrics["double_s"] = (_median(double_round), "s")

    with run.tracer.span("check"):
        orders = {}
        for tag, k, v, G in cases:
            if G not in orders:
                orders[G] = checks.group_order(k, G)
            oracle = checks.GroupOracle(k, v, G, orders[G])
            run.check(oracle.check(first[f"repro:{tag}"], L=2, what=f"kernel repro {tag}"))
            run.check(oracle.check(first[f"builtin:{tag}"], L=None,
                                   what=f"kernel builtin {tag}"))
    if run.trace:
        run.metrics.update(layers.l0_l1(run.seed, run.quick))
        run.metrics.update(layers.l2(data, times))
        k, v = data["k16"], data["uniform"]
        m = run.size["kernel_spark_rows"]
        del data, cases, first
        spark_layers(run, PairsCase(k[:m].copy(), v[:m].copy(), 16, "kernel"))


def l2_probe(run: Run) -> None:
    """The kernel operator calls, timed here for the L2 metrics of the
    Spark workloads' traced runs."""
    data = inputs.kernel(run.size["kernel_rows"], run.seed)
    times: dict[str, list[float]] = {}
    for tag, k, v, G in layers.kernel_cases(data):
        for kind, fn in (("repro", _kernel_repro), ("builtin", _kernel_builtin)):
            fn(k, v, G)
            t0 = time.perf_counter()
            fn(k, v, G)
            times[f"{kind}:{tag}"] = [time.perf_counter() - t0]
    run.metrics.update(layers.l2(data, times))


# ------------------------------------------------------------ Spark cases
class PairsCase:
    """``rsum_groupby`` against ``pandas_sum_groupby`` on (k, v) rows."""

    def __init__(self, k: np.ndarray, v: np.ndarray, n_groups: int, name: str):
        self.k, self.v, self.n_groups, self.name = k, v, n_groups, name
        self.L = RSUM_L[name]

    def columns(self, order=None) -> dict:
        if order is None:
            return {"k": self.k, "v": self.v}
        return {"k": self.k[order], "v": self.v[order]}

    def _collect(self, out_df):
        got = np.full(self.n_groups, np.nan)
        seen = np.zeros(self.n_groups, np.int64)
        for k, s in out_df.collect():
            got[k] = s
            seen[k] += 1
        return got, seen

    def rsum(self, df):
        from repro.spark.repro_sum import rsum_groupby

        return self._collect(rsum_groupby(df, "k", "v", L=self.L))

    def double(self, df):
        from repro.spark.repro_sum import pandas_sum_groupby

        return self._collect(pandas_sum_groupby(df, "k", "v"))

    def identity(self, df):
        from pyspark.sql import types as T

        return df.mapInPandas(_consume, T.StructType(
            [T.StructField("x", T.LongType())])).collect()

    def native(self, df):
        from pyspark.sql import functions as F

        return df.groupBy("k").agg(F.sum("v")).collect()

    def oracle(self):
        return [checks.GroupOracle(self.k, self.v, self.n_groups)]

    def check(self, oracles, res, L) -> list[str]:
        got, seen = res
        present = (oracles[0].count > 0).astype(np.int64)
        what = f"{self.name} {'rsum' if L else 'double'}"
        return (checks.check_counts(seen, present, what + " groups")
                + oracles[0].check(got, L=L, what=what))

    def bits(self, res) -> np.ndarray:
        return res[0]

    @property
    def n_rows(self) -> int:
        return self.k.size

    @staticmethod
    def live_groups(res) -> int:
        return int(np.count_nonzero(res[1]))


def _consume(batches):
    """Identity ``mapInPandas``: read every Arrow batch, emit nothing."""
    for _ in batches:
        pass
    return
    yield  # pragma: no cover - makes this a generator


class Q1Case:
    """TPC-H Q1: ``q1_repro(L=4)`` against ``q1_pandas_double``."""

    name = "q1"
    L = RSUM_L["q1"]

    def __init__(self, cols: dict):
        self.cols = cols
        self.n_groups = len(inputs.Q1_GROUPS)

    def columns(self, order=None) -> dict:
        cols = self.cols if order is None else {c: a[order] for c, a in self.cols.items()}
        return inputs.lineitem_arrow(cols)

    def _collect(self, out_df):
        from repro.spark.tpch import Q1_SUMS

        got = np.full((self.n_groups, len(Q1_SUMS)), np.nan)
        count = np.zeros(self.n_groups, np.int64)
        for row in out_df.collect():
            g = inputs.Q1_GROUPS.index((row["l_returnflag"], row["l_linestatus"]))
            got[g] = [row[c + "_rsum"] for c in Q1_SUMS]
            count[g] = row["count_order"]
        return got, count

    def rsum(self, df):
        from repro.spark import tpch

        return self._collect(tpch.q1_repro(df, L=self.L))

    def double(self, df):
        from repro.spark import tpch

        return self._collect(tpch.q1_pandas_double(df))

    def identity(self, df):
        from repro.spark import tpch

        return tpch.q1_pipeline_other(df).collect()

    def native(self, df):
        from repro.spark import tpch

        return tpch.q1_native(df).collect()

    def oracle(self):
        from repro.spark.tpch import Q1_SUMS

        codes, proj = inputs.q1_projection(self.cols)
        return [checks.GroupOracle(codes, proj[c], self.n_groups) for c in Q1_SUMS]

    def check(self, oracles, res, L) -> list[str]:
        from repro.spark.tpch import Q1_SUMS

        got, count = res
        what = f"q1 {'rsum' if L else 'double'}"
        out = checks.check_counts(count, oracles[0].count, what + " count_order")
        live = oracles[0].count > 0
        for j, (c, o) in enumerate(zip(Q1_SUMS, oracles)):
            col = np.where(live, got[:, j], o.exact)  # absent groups: counts decide
            out += o.check(col, L=L, what=f"{what} {c}")
        return out

    def bits(self, res) -> np.ndarray:
        return res[0].ravel()

    @property
    def n_rows(self) -> int:
        return self.cols["l_quantity"].size

    @staticmethod
    def live_groups(res) -> int:
        return int(np.count_nonzero(res[1]))


# ------------------------------------------------------------ Spark flow
def _spark_errors() -> tuple:
    from py4j.protocol import Py4JJavaError
    from pyspark.errors import PySparkException

    return (Py4JJavaError, PySparkException)


def _special_frames(env):
    from pyspark.sql import types as T

    schema = T.StructType([T.StructField("k", T.LongType()),
                           T.StructField("v", T.DoubleType())])
    return {name: env.spark.createDataFrame(rows, schema).coalesce(1).persist()
            for name, rows in inputs.SPECIAL_ROWS.items()}


def _special_op(frame, native: dict):
    """Compare key 0 / key 1 of ``rsum_groupby`` with Spark's ``SUM``."""
    from repro.spark.repro_sum import rsum_groupby

    def op():
        got = dict(rsum_groupby(frame, "k", "v", L=2).collect())
        for k, want in native.items():
            have = got.get(k, "missing")
            same = (have is None and want is None) or (
                isinstance(have, float) and want is not None
                and (have == want or (np.isnan(have) and np.isnan(want))))
            if not same:
                return f"key {k}: got {have!r}, Spark SUM gives {want!r}"
        return None

    return op


def _start(run: Run, case):
    """Session start plus the median of two generate-and-load passes.

    The first pass loads the rows permuted, in one partition more; the
    warm-up calls run on it, and every timed call on the second copy is
    checked bit for bit against them. Returns (env, warm df, df, setup s).
    """
    from .sparkenv import SparkEnv

    with run.tracer.span("setup"):
        with run.tracer.span("session") as sp:
            env = SparkEnv(run.nproc, run.scratch)
        session_s = sp["dur"]
        run.meta["java"] = env.java_version
        parts = 2 * run.nproc
        order = inputs.rng(run.seed, "layers").permutation(case.n_rows)
        loads = []
        try:
            for tag, cols, p in (("permuted", case.columns(order), parts + 1),
                                 ("canonical", case.columns(), parts)):
                with run.tracer.span(f"load {tag}") as sp:
                    df = env.load(cols, p, f"{case.name}-{tag}")
                loads.append((df, sp["dur"]))
        except BaseException:
            env.close()
            raise
    (warm_df, t_a), (df, t_b) = loads
    return env, warm_df, df, session_s + _median([t_a, t_b])


def spark_workload(run: Run, case) -> None:
    env, warm_df, df, setup_s = _start(run, case)
    try:
        run.metrics["setup_s"] = (setup_s, "s")
        _spark_rounds(run, env, case, warm_df, df)
    finally:
        with run.tracer.span("close"):
            env.close()


def _spark_rounds(run: Run, env, case, warm_df, df) -> None:
    errors = _spark_errors()
    specials = _special_frames(env) if case.name == "highcard" else {}
    with run.tracer.span("warm-up"):
        first = {"rsum": case.rsum(warm_df), "double": case.double(warm_df)}
    warm_df.unpersist()
    native = {}
    for name, frame in specials.items():
        sums = dict(frame.groupBy("k").sum("v").collect())
        native[name] = {k: sums[k] for k in sums if k != 2}

    times = {"rsum": [], "double": [], "rsum_traced": [], "double_traced": []}

    def body(i, suffix=""):
        for kind in ("rsum", "double"):
            name = f"{kind}{suffix}#{i}"
            if suffix:
                env.set_group(name)
            res = run.op(name, lambda: getattr(case, kind)(df), times[kind + suffix])
            if kind == "rsum":
                run.check(checks.check_bits(case.bits(first[kind]), case.bits(res),
                                            f"{case.name} {name}"))
        env.set_group(None)
        for name, frame in specials.items():
            run.fault(name, _special_op(frame, native[name]), errors)

    if not run.trace:
        run.rounds(body)
    else:
        run.seconds /= 2
        run.rounds(body)
        log = env.event_log()
        run.rounds(lambda i: body(i, "_traced"))
        for kind in ("identity", "native"):
            for i in range(2):
                env.set_group(f"{kind}#{i}")
                with run.tracer.span(f"{kind}#{i}"):
                    getattr(case, kind)(df)
        env.set_group(None)
        _layer_metrics(run, case, log.close(), times, case.live_groups(first["rsum"]))

    run.metrics["rsum_s"] = (_median(times["rsum"] or times["rsum_traced"]), "s")
    run.metrics["double_s"] = (_median(times["double"] or times["double_traced"]), "s")

    with run.tracer.span("check"):
        oracles = case.oracle()
        run.check(case.check(oracles, first["rsum"], case.L))
        run.check(case.check(oracles, first["double"], None))


def _layer_metrics(run: Run, case, events: list[dict], times: dict,
                   n_groups: int) -> None:
    """L3/L4 metrics from the event log and the spans of the traced rounds."""
    from .sparkenv import stage_spans

    by_name = {s["name"]: s["id"] for s in run.tracer.spans}
    stages = stage_spans(events)
    for st in stages:
        run.tracer.adopt(st, by_name.get(st["group"]))
    spans = {s["name"]: s for s in run.tracer.spans}

    def med_of(prefix):
        return _median([s["dur"] for n, s in spans.items() if n.startswith(prefix)])

    run.metrics["L3.identity_s"] = (med_of("identity#"), "s")
    run.metrics["L4.native_s"] = (med_of("native#"), "s")
    for kind, pre in (("rsum", "L3."), ("double", "L3.double.")):
        groups = [n for n in spans if n.startswith(f"{kind}_traced#")]
        per = {role: {"stage_s": [], "busy_s": [], "tasks": []} for role in ("partial", "merge")}
        shuffle = {"records": [], "bytes": []}
        for g in groups:
            mine = [st for st in stages if st["group"] == g]
            for role in ("partial", "merge"):
                sel = [st for st in mine if st["role"] == role]
                for key in ("stage_s", "busy_s", "tasks"):
                    per[role][key].append(sum(st[key] for st in sel))
            part = [st for st in mine if st["role"] == "partial"]
            shuffle["records"].append(sum(st["shuffle_records"] for st in part))
            shuffle["bytes"].append(sum(st["shuffle_bytes"] for st in part))
        for role, vals in per.items():
            for key, unit in (("stage_s", "s"), ("busy_s", "s"), ("tasks", "count")):
                run.metrics[f"{pre}{role}.{key}"] = (_median(vals[key]), unit)
        recs = _median(shuffle["records"])
        run.metrics[f"{pre}shuffle.records"] = (recs, "count")
        run.metrics[f"{pre}shuffle.bytes"] = (_median(shuffle["bytes"]), "B")
        run.metrics[f"{pre}rows_per_group"] = (recs / n_groups, "rows")
        run.metrics[f"trace.overhead_s.{kind}"] = (
            _median(times[kind + "_traced"]) - _median(times[kind]), "s")


def spark_layers(run: Run, case) -> None:
    """The Spark layers (L3, L4) of the kernel's traced run, on ``case``.

    These calls probe layers the kernel workload does not use, so they
    are left out of its attempted and failed counts. (The end-to-end
    metrics they overwrite are not printed by a traced run.)
    """
    attempted, failed = run.attempted, run.failed
    spark_workload(run, case)
    run.attempted, run.failed = attempted, failed


def _layer_probes(run: Run) -> None:
    """L0-L2 for the traced runs of the Spark workloads."""
    run.metrics.update(layers.l0_l1(run.seed, run.quick))
    l2_probe(run)


def q1(run: Run) -> None:
    case = Q1Case(inputs.lineitem(int(run.size["q1_rows"]), run.seed))
    if run.trace:
        _layer_probes(run)
    spark_workload(run, case)


def highcard(run: Run) -> None:
    k, v = inputs.pairs(run.size["hc_rows"], run.size["hc_groups"], run.seed, "highcard")
    case = PairsCase(k, v, run.size["hc_groups"], "highcard")
    if run.trace:
        _layer_probes(run)
    spark_workload(run, case)


WORKLOADS = {"q1": q1, "highcard": highcard, "kernel": kernel}
