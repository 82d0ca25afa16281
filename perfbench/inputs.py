"""The benchmark's inputs, made with NumPy from the run's seed.

Nothing here calls ``repro.synth_data``, so a change to the program's
own generators cannot change what is measured. Each input draws from
its own stream ``default_rng([seed, stream])``; the fault inputs are
fixed and do not depend on the seed.
"""
from __future__ import annotations

import datetime

import numpy as np
import pyarrow as pa

#: Input sizes. ``quick`` is the reduced mode of the benchmark's own test.
SIZES = {
    "full": {"q1_rows": 600_000, "hc_rows": 1 << 20, "hc_groups": 1 << 9,
             "kernel_rows": 1 << 24, "kernel_spark_rows": 1 << 21},
    "quick": {"q1_rows": 30_000, "hc_rows": 1 << 16, "hc_groups": 1 << 6,
              "kernel_rows": 1 << 18, "kernel_spark_rows": 1 << 16},
}

#: Random streams, one per input, recorded in the run metadata.
STREAMS = {"q1": 1, "highcard": 2, "kernel": 3, "layers": 4}

_EPOCH = datetime.date(1970, 1, 1)


def _days(y: int, m: int, d: int) -> int:
    return (datetime.date(y, m, d) - _EPOCH).days


#: Q1's ship-date cutoff (``l_shipdate <= '1998-09-02'``) and TPC-H's
#: "current date" that decides line status and return flag.
Q1_CUTOFF = _days(1998, 9, 2)
STATUS_DATE = _days(1995, 6, 17)
#: The (l_returnflag, l_linestatus) pairs, in group-code order.
Q1_GROUPS = [(r, s) for r in "ANR" for s in "FO"]


def rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, STREAMS[stream]])


def lineitem(n: int, seed: int) -> dict:
    """The Q1 columns of a TPC-H-like lineitem with ``n`` rows.

    As in TPC-H, a line is 'F' (finished) when it shipped by the status
    date, and returned ('R' or 'A') only when it was received by then,
    so Q1 sees four groups, one of them ('N', 'F') small.
    """
    g = rng(seed, "q1")
    ship = g.integers(_days(1992, 1, 2), _days(1998, 12, 1) + 1, n)
    receipt = ship + g.integers(1, 31, n)
    flag = np.where(receipt <= STATUS_DATE,
                    np.where(g.random(n) < 0.5, "R", "A"), "N")
    return {
        "l_returnflag": flag,
        "l_linestatus": np.where(ship <= STATUS_DATE, "F", "O"),
        "l_quantity": g.integers(1, 51, n).astype(np.float64),
        "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
        "l_discount": (g.random(n) * 0.1).round(2),
        "l_tax": (g.random(n) * 0.08).round(2),
        "l_shipdate": ship.astype(np.int32),
    }


def lineitem_arrow(cols: dict) -> dict:
    """``lineitem`` columns with the ship date typed as an Arrow date."""
    out = dict(cols)
    out["l_shipdate"] = pa.array(cols["l_shipdate"], pa.date32())
    return out


def q1_projection(cols: dict):
    """Q1's filter and projection in NumPy, in Spark's operation order.

    Returns ``(codes, {sum column: values})`` over the rows that pass
    the filter; ``codes`` index :data:`Q1_GROUPS`.
    """
    keep = cols["l_shipdate"] <= Q1_CUTOFF
    price = cols["l_extendedprice"][keep]
    disc_price = price * (1 - cols["l_discount"][keep])
    flag = cols["l_returnflag"][keep]
    status = cols["l_linestatus"][keep]
    codes = np.zeros(flag.size, np.int64)
    for i, (r, s) in enumerate(Q1_GROUPS):
        codes[(flag == r) & (status == s)] = i
    return codes, {
        "sum_qty": cols["l_quantity"][keep],
        "sum_base_price": price,
        "sum_disc_price": disc_price,
        "sum_charge": disc_price * (1 + cols["l_tax"][keep]),
    }


def pairs(n: int, n_groups: int, seed: int, stream: str):
    """``(k, v)``: uniform keys in ``[0, n_groups)``, values U[1,2)."""
    g = rng(seed, stream)
    return g.integers(0, n_groups, n), g.random(n) + 1.0


def kernel(n: int, seed: int) -> dict:
    """Dense keys for G = 2^4, 2^12 and 2^18 (low bits of one draw),
    U[1,2) values, and ``mixed`` values U[1,2) * 10**U{-8..8}."""
    g = rng(seed, "kernel")
    raw = g.integers(0, 1 << 18, n)
    return {
        "k16": raw & 15,
        "k4096": raw & 4095,
        "k262144": raw,
        "uniform": g.random(n) + 1.0,
        "mixed": (g.random(n) + 1.0) * 10.0 ** g.integers(-8, 9, n),
    }


#: ``deposit_headroom``: 2^24 copies of nextafter(2**27, 0) into one
#: group; the exact sum is 2**51 - 0.25.
DEPOSIT_N = 1 << 24
DEPOSIT_X = float(np.nextafter(2.0 ** 27, 0))
DEPOSIT_SUM = 2.0 ** 51 - 0.25

#: ``merge_headroom``: 16384 canonical state rows for one slot, each
#: level one unit below the 2^50-unit cap, window top exponent 80.
MERGE_ROWS = 16384
MERGE_E = 80
MERGE_L = 2


def merge_headroom_rows():
    """``(keys, e_tops, devs, Cs)`` for ``merge_state_rows``."""
    dev = np.full((MERGE_ROWS, MERGE_L), (1 << 50) - 1, np.int64)
    return (np.zeros(MERGE_ROWS, np.int64),
            np.full(MERGE_ROWS, MERGE_E, np.int64), dev, np.zeros_like(dev))


def merge_headroom_sum() -> float:
    """The exact merged value, correctly rounded by integer division.

    Level l of a row is worth ``dev * 2**(e - l*W - 52)``; in units of
    ``2**(e - (L-1)*W - 52)`` each row is ``sum_l dev * 2**((L-1-l)*W)``.
    """
    W, m = 40, 52
    units = sum(((1 << 50) - 1) << ((MERGE_L - 1 - lev) * W)
                for lev in range(MERGE_L))
    scale = MERGE_E - (MERGE_L - 1) * W - m
    total = MERGE_ROWS * units
    return total * 2 ** scale if scale >= 0 else total / 2 ** -scale


#: Small (k, v) inputs for Spark's SUM semantics: key 0 holds a NaN or a
#: +Inf among ordinary values, key 1 only NULLs; key 2 is ordinary.
SPECIAL_ROWS = {
    "nan_sum": [(0, 1.0), (0, float("nan")), (0, 2.0), (2, 1.5)],
    "inf_sum": [(0, 1.0), (0, float("inf")), (2, 1.5)],
    "null_sum": [(1, None), (1, None), (2, 1.5)],
}
