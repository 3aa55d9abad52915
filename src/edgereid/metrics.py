"""Retrieval quality metrics for benchmark reports and centralized rankings.

Three arrival-based metrics summarise a RunReport: the mean transmission
number over all same-identity cross-camera pairs, the precise-rank rate at K
(how often the target-time item is among the first K merged arrivals), and
the mean precise rank (average 1-based arrival position of that item).
cmc_map scores centralized ranked lists with the usual cumulative match
characteristic and mean average precision, skipping same-camera matches.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .errors import DataError, InputError
from .simulate import RankedQuery, RunReport


def mtn(report: RunReport) -> float:
    """Mean transmission number over all recorded (query, target) pairs."""
    tn = report.pair_columns.tn
    if tn.size == 0:
        raise DataError("report has no pair records")
    return float(np.mean(tn))


def _positions(report: RunReport) -> np.ndarray:
    """Each query's 1-based merged arrival position of its target-time item."""
    positions = report.query_columns.position
    if positions.size == 0:
        raise DataError("report has no query records")
    if np.any(positions < 1):
        raise DataError("a target-time item was never delivered")
    return positions


def precise_rank_k(report: RunReport, k: int) -> float:
    """Fraction of queries whose target-time item arrived within the first k."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return float(np.mean(_positions(report) <= k))


def mean_precise_rank(report: RunReport) -> float:
    """Average 1-based merged arrival position of the target-time item."""
    return float(_positions(report).mean())


def cmc_map(ranked: Sequence[RankedQuery], ks: Sequence[int] = (1, 5, 10, 20)):
    """Cumulative match characteristic and mean average precision.

    Per query, matches on the query's camera are treated as distractors and
    removed before ranking statistics, which moves every later item up one
    place; queries with no cross-camera match left are skipped. Returns
    (cmc, mean_ap, evaluated, skipped) where cmc maps each k to the rank-k
    rate.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise InputError("ranks must be positive")
    hits = np.zeros(len(ks))
    ap_sum = 0.0
    evaluated = 0
    skipped = 0
    for query in ranked:
        keep = ~query.on_query_camera
        total = int(keep.sum())
        if total == 0:
            skipped += 1
            continue
        evaluated += 1
        positions = query.positions[keep] - np.flatnonzero(keep) + np.arange(total)
        first = positions[0]
        for i, k in enumerate(ks):
            if first <= k:
                hits[i] += 1.0
        precision = np.arange(1, total + 1) / positions
        ap_sum += float(precision.mean())
    if evaluated == 0:
        raise DataError("no query had a valid cross-camera match")
    cmc = {k: float(hits[i] / evaluated) for i, k in enumerate(ks)}
    return cmc, ap_sum / evaluated, evaluated, skipped


@dataclasses.dataclass(frozen=True)
class MetricSummary:
    """Headline numbers for one strategy's benchmark run."""

    strategy: str
    mtn: float
    precise_rank: dict[int, float]
    mean_precise_rank: float
    num_queries: int
    num_pairs: int
    num_skipped: int

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "mtn": self.mtn,
            "precise_rank": {str(k): v for k, v in sorted(self.precise_rank.items())},
            "mean_precise_rank": self.mean_precise_rank,
            "num_queries": self.num_queries,
            "num_pairs": self.num_pairs,
            "num_skipped": self.num_skipped,
        }


def summarize(report: RunReport, ks: Sequence[int] = (1, 5, 10, 20)) -> MetricSummary:
    """Compute the standard metric set for one report."""
    return MetricSummary(
        strategy=report.strategy,
        mtn=mtn(report),
        precise_rank={int(k): precise_rank_k(report, int(k)) for k in ks},
        mean_precise_rank=mean_precise_rank(report),
        num_queries=report.num_queries,
        num_pairs=report.pair_columns.tn.size,
        num_skipped=report.num_skipped,
    )
