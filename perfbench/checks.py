"""Correctness checks made apart from the program under test.

Exact per-group sums come from ``math.fsum`` over the benchmark's own
input; the error bounds are written out here rather than imported from
``repro.core.errors`` so that a change to the program cannot move the
yardstick it is measured with.
"""
from __future__ import annotations

import math

import numpy as np

#: Extractor spacing for doubles (paper Section III, W = 40).
W = 40
#: Unit roundoff of IEEE double.
EPS = 2.0 ** -53


def eq5_bound(n, sum_abs):
    """Eq. 5, conventional summation: ``(n-1) * eps * sum|x|``."""
    return np.maximum(np.asarray(n, np.float64) - 1, 0) * EPS * sum_abs


def eq6_bound(n, max_abs, L: int):
    """Eq. 6, RSUM with L levels: ``n * 2**((1-L)*W - 1) * max|x|``."""
    return np.asarray(n, np.float64) * 2.0 ** ((1 - L) * W - 1) * max_abs


class GroupOracle:
    """Per-group exact sums, counts, ``max|x|`` and ``sum|x|``.

    ``codes`` are dense group ids in ``[0, n_groups)``; ``order``, if
    given, is :func:`group_order` of them. ``exact`` holds ``math.fsum``
    of each group, the correctly rounded sum.
    """

    def __init__(self, codes: np.ndarray, values: np.ndarray, n_groups: int,
                 order: np.ndarray | None = None):
        if order is None:
            order = group_order(codes, n_groups)
        sv = values[order]
        self.count = np.bincount(codes, minlength=n_groups)
        bounds = np.concatenate([[0], np.cumsum(self.count)])
        self.exact = np.array(
            [math.fsum(sv[a:b].tolist()) for a, b in zip(bounds[:-1], bounds[1:])]
        )
        self.max_abs = np.zeros(n_groups)
        self.sum_abs = np.zeros(n_groups)
        live = np.flatnonzero(self.count)
        if live.size:
            absv = np.abs(sv)
            self.max_abs[live] = np.maximum.reduceat(absv, bounds[live])
            self.sum_abs[live] = np.add.reduceat(absv, bounds[live])

    def check(self, got: np.ndarray, *, L: int | None, what: str) -> list[str]:
        """Compare per-group results with the exact sums.

        ``L`` given: the Eq. 6 bound plus one ulp (reproducible sums);
        ``L=None``: the Eq. 5 bound plus one ulp (the double baseline).
        Returns one message per violating group, at most five.
        """
        got = np.asarray(got, np.float64)
        if L is None:
            bound = eq5_bound(self.count, self.sum_abs)
        else:
            bound = eq6_bound(self.count, self.max_abs, L)
        bound = bound + np.spacing(np.abs(self.exact))
        err = np.abs(got - self.exact)
        bad = np.flatnonzero(~(err <= bound))  # NaN results fail too
        return [
            f"{what}: group {g} got {got[g]!r}, exact {self.exact[g]!r}, "
            f"bound {bound[g]!r}"
            for g in bad[:5]
        ]


def group_order(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Stable order by group code: a radix sort on 16-bit digits."""
    order = np.arange(codes.size)
    shift = 0
    while shift == 0 or (n_groups - 1) >> shift:
        digit = ((codes[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def check_counts(got, want, what: str) -> list[str]:
    """Exact equality of integer counts (group counts, ``count_order``)."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape == want.shape and np.array_equal(got, want):
        return []
    return [f"{what}: counts {got.tolist()[:8]} != exact {want.tolist()[:8]}"]


def check_bits(ref: np.ndarray, got: np.ndarray, what: str) -> list[str]:
    """Bit-identity of two float64 result vectors."""
    a = np.ascontiguousarray(ref, np.float64)
    b = np.ascontiguousarray(got, np.float64)
    if a.shape == b.shape and a.tobytes() == b.tobytes():
        return []
    return [f"{what}: result bits differ"]
