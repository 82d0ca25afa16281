"""Per-layer probes L0-L2, timed from outside the program.

Each probe calls one public function of ``repro.core.binned`` or
``repro.aggregate`` on the benchmark's own inputs and reports a median
over repetitions, after one untimed call.
"""
from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from . import inputs

REPS = 5
#: Rows per ``update_slots`` batch (the Spark partial's Arrow batches
#: are 10,000 rows; 2^16 is the operators' own batch).
BATCH = 1 << 16
#: The merge probe's state shape: 8 partial rows per group over 2^14
#: groups, as a Spark merge sees them after 8 input partitions.
MERGE_GROUPS, MERGE_PARTS = 1 << 14, 8


def _median_time(fn, reps: int = REPS) -> float:
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_cases(data: dict):
    """The kernel workload's operator calls: (tag, keys, values, G)."""
    return [
        ("u16", data["k16"], data["uniform"], 16),
        ("u4096", data["k4096"], data["uniform"], 4096),
        ("u262144", data["k262144"], data["uniform"], 1 << 18),
        ("m262144", data["k262144"], data["mixed"], 1 << 18),
    ]


def l0_l1(seed: int, quick: bool) -> dict[str, tuple[float, str]]:
    from repro.core.binned import GroupedBinnedAcc, deposit_units
    from repro.core.params import fmt_for

    L = 2
    n = 1 << (16 if quick else 20)
    g = inputs.rng(seed, "layers")
    u = g.random(n) + 1.0
    mixed = (g.random(n) + 1.0) * 10.0 ** g.integers(-8, 9, n)
    fmt = fmt_for(np.float64)
    e_top = np.full(n, int(fmt.top_exponent(np.max(u))), np.int64)
    out = {
        "L0.extract_ns": (
            _median_time(lambda: deposit_units(fmt, L, u, e_top)) / (n * L) * 1e9,
            "ns"),
        "L0.np_sum_ns": (_median_time(lambda: np.sum(u)) / n * 1e9, "ns"),
    }

    for tag, G, vals in (("u16", 16, u), ("u4096", 4096, u),
                         ("u262144", 1 << 18, u), ("m262144", 1 << 18, mixed)):
        slots = g.integers(0, G, n)

        def deposit(G=G, slots=slots, vals=vals):
            acc = GroupedBinnedAcc(L=L, dense_n_groups=G)
            for i in range(0, n, BATCH):
                acc.update_slots(slots[i:i + BATCH], vals[i:i + BATCH], fast=True)

        out[f"L1.update_ns.{tag}"] = (_median_time(deposit, 3) / n * 1e9, "ns")

    G = MERGE_GROUPS >> (4 if quick else 0)
    parts = []
    for _ in range(MERGE_PARTS):
        acc = GroupedBinnedAcc(L=L, dense_n_groups=G)
        acc.update_slots(g.integers(0, G, 16 * G), g.random(16 * G) + 1.0)
        parts.append(acc.export_states())
    keys, e, dev, C = (np.concatenate(x) for x in zip(*parts))

    def merge():
        acc = GroupedBinnedAcc(L=L, dense_n_groups=G)
        acc.merge_state_rows(keys, e, dev, C)
        return acc

    merged = merge()
    out["L1.merge_ns"] = (_median_time(merge) / keys.size * 1e9, "ns")
    out["L1.finalize_ns"] = (_median_time(merged.finalize) / G * 1e9, "ns")
    return out


def l2(data: dict, times: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    """L2 metrics from the kernel operator times in ``times`` (per case
    tag, ``repro:<tag>`` and ``builtin:<tag>``), plus the partitioning
    pass and peak allocation measured here."""
    from repro.aggregate import FANOUT, parallel_partition, partition_and_aggregate

    med = {k: statistics.median(v) for k, v in times.items()}
    uni = [c[0] for c in kernel_cases(data) if c[0].startswith("u")]
    rep_u = sum(med[f"repro:{t}"] for t in uni)
    blt_u = sum(med[f"builtin:{t}"] for t in uni)
    rep_m, blt_m = med["repro:m262144"], med["builtin:m262144"]
    # one partitioning level (F = 256): the pass Algorithm 4 adds at
    # depth 1, whether or not the operator's depth choice takes it here
    part = _median_time(
        lambda: parallel_partition(data["k262144"], data["mixed"], FANOUT), 3)

    peak = 0.0
    tracemalloc.start()
    try:
        for _, k, v, G in kernel_cases(data):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            partition_and_aggregate(k, v, G, kind="repro_buffered", L=2)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return {
        "L2.operator_uniform_s": (rep_u, "s"),
        "L2.operator_mixed_s": (rep_m, "s"),
        "L2.builtin_s": (blt_u + blt_m, "s"),
        "L2.builtin_uniform_s": (blt_u, "s"),
        "L2.builtin_mixed_s": (blt_m, "s"),
        "L2.slowdown.uniform": (rep_u / blt_u, "x"),
        "L2.slowdown.mixed": (rep_m / blt_m, "x"),
        "L2.partition_s": (part, "s"),
        "L2.peak_alloc_mb": (peak / 2 ** 20, "MB"),
    }
