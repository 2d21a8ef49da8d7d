"""Confusion-matrix metrics and per-k curve aggregation.

Classification metrics follow the standard confusion-matrix forms;
accuracy is (tp+tn)/total. Zero denominators yield metric 0 with an
explicit flag rather than an error, so heavily skewed dev/test runs
never crash. Curve aggregation treats every (query, database-item)
decision as binary at cutoff k (retained implies positive) and emits
both the micro (pooled confusion) and macro (per-query mean) views,
since either aggregation is defensible for ranked retrieval.

Every row comes from one count table. Two running sums over a partition's
rankings (``Outcomes``) laid end to end, one of kept candidates and one of
kept relevant ones, are read at one ``(cutoffs × queries)`` index array;
each cutoff's pooled tp/fp/fn/tn is one integer sum over the queries, and
``metric_rows`` turns the ``(cutoffs × 4)`` table into rows, as it does
the classifier's threshold sweep. Each macro mean is the last column of
one ``np.cumsum`` over the queries: an accumulate adds left to right from
the first value, so it has the bits of a plain loop in query order, which
neither ``np.sum`` (pairwise) nor the built-in ``sum`` (compensated from
Python 3.12) keeps.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @classmethod
    def from_decisions(cls, decisions: Iterable[tuple[bool, bool]] | np.ndarray) -> "ConfusionMatrix":
        """Build from (predicted, actual) pairs, iterated or an ``(n, 2)`` array."""
        if not isinstance(decisions, np.ndarray):
            decisions = list(decisions)
        pairs = np.asarray(decisions, dtype=bool).reshape(len(decisions), 2)
        tn, fn, fp, tp = np.bincount(2 * pairs[:, 0] + pairs[:, 1], minlength=4).tolist()
        return cls(tp, fp, fn, tn)


@dataclass(frozen=True)
class MetricRow:
    """One evaluation row; micro values are primary, macro ride along.

    ``zero_denominator`` names the metrics that defaulted to 0 because
    their denominator was empty.
    """

    precision: float
    recall: float
    f1: float
    accuracy: float
    k: int | None = None
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    zero_denominator: tuple[str, ...] = ()
    macro_precision: float | None = None
    macro_recall: float | None = None

    def to_json(self) -> dict:
        return asdict(self)


def report_row(row: MetricRow, method: str, wall_clock_ms: float, ledger_snapshot: dict) -> dict:
    """A metric row as reports write it: with the method that produced it,
    the run's wall-clock time and its paper counters."""
    return {
        **row.to_json(),
        "method": method,
        "wall_clock_ms": wall_clock_ms,
        "embed_calls": ledger_snapshot["embed_calls"],
        "pair_classifications": ledger_snapshot["pair_classifications"],
    }


def classification_metrics(cm: ConfusionMatrix, k: int | None = None) -> MetricRow:
    """Precision, recall, F1, accuracy from one confusion matrix."""
    if cm.total == 0:
        raise ValueError("metrics are undefined for an all-zero confusion matrix")
    flags = []
    if cm.tp + cm.fp:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision, flags = 0.0, flags + ["precision"]
    if cm.tp + cm.fn:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall, flags = 0.0, flags + ["recall"]
    if precision + recall:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, flags = 0.0, flags + ["f1"]
    accuracy = (cm.tp + cm.tn) / cm.total
    return MetricRow(
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        k=k,
        tp=cm.tp,
        fp=cm.fp,
        fn=cm.fn,
        tn=cm.tn,
        zero_denominator=tuple(flags),
    )


@dataclass(frozen=True)
class QueryOutcome:
    """One query of a scenario run as Python values, built from its
    ``Outcomes`` arrays for the callers that read a query at a time.

    ``candidates`` holds ``(bug_id, score, kept)`` in rank order; ``kept`` is
    the classifier verdict (always True when no classifier ran).
    ``relevant`` holds the query's cluster peers in the database, in id
    order.
    """

    query: str
    candidates: tuple[tuple[str, float, bool], ...]
    relevant: tuple[str, ...]
    db_size: int


@dataclass(frozen=True, eq=False)
class Outcomes:
    """A partition's rankings as arrays, query-major: what the curves read.

    Query i's candidates are ``ptr[i]:ptr[i + 1]``, in rank order. Each is
    a database row (``rows``), ``kept`` by the classifier (always True when
    no classifier ran) and ``relevant`` or not to its query. A ranking's
    rows are distinct. ``n_relevant[i]`` counts query i's relevant database
    items, ranked or not, and ``db_size[i]`` the database items it was
    compared with. Truncating a ranking at a cutoff k reproduces the run
    the cascade would have made at that smaller k, which is what lets one
    run at k_max yield the whole curve.
    """

    ptr: np.ndarray
    rows: np.ndarray
    kept: np.ndarray
    relevant: np.ndarray
    n_relevant: np.ndarray
    db_size: np.ndarray

    def __len__(self) -> int:
        return len(self.ptr) - 1


def aggregate_curves(outcomes: Outcomes, k_list: Sequence[int]) -> list[MetricRow]:
    """One MetricRow per k: pooled-confusion metrics plus macro means.

    Macro recall averages tp/|relevant| over queries that have relevant
    items (queries without peers cannot score recall); macro precision
    averages hits/k over all queries. The pooled counts do not depend on
    the order of ``outcomes``, but each macro mean is a float sum taken in
    that order, so reordering the queries can change its last bits. A k
    below 1 raises ``ValueError``.
    """
    if not len(outcomes):
        raise ValueError("cannot aggregate an empty result set")
    below = [k for k in k_list if k < 1]
    if below:
        raise ValueError(f"every k must be at least 1, got {below[0]}")
    ks = sorted(set(k_list))
    cutoffs = np.array(ks, dtype=np.int64).reshape(-1, 1)
    tp, positives = _prefix_counts(outcomes, np.minimum(cutoffs, np.diff(outcomes.ptr)))
    return _macro_rows(outcomes, ks, tp, positives, tp / cutoffs)


def exhaustive_row(outcomes: Outcomes, k: int) -> MetricRow:
    """Exhaustive classification ignores k: one row, every decision counted.
    Its macro precision averages tp/positives over all queries, 0.0 for a
    query that kept nothing."""
    tp, positives = _prefix_counts(outcomes, np.diff(outcomes.ptr)[None])
    precisions = np.divide(tp, positives, out=np.zeros(tp.shape), where=positives > 0)
    return _macro_rows(outcomes, [k], tp, positives, precisions)[0]


def metric_rows(counts: np.ndarray, ks: Sequence[int | None] | None = None) -> list[MetricRow]:
    """``classification_metrics`` of each row of ``counts``, an integer
    ``(rows × 4)`` table of tp, fp, fn and tn; row i at cutoff ``ks[i]``,
    or at none when ``ks`` is None."""
    ks = [None] * len(counts) if ks is None else ks
    return [classification_metrics(ConfusionMatrix(*row), k) for row, k in zip(counts.tolist(), ks)]


def _prefix_counts(outcomes: Outcomes, cutoffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each query's true positives and positives among its first
    ``cutoffs[c, i]`` candidates, as two ``(cutoffs × queries)`` arrays.

    A ranking's rows are distinct, so each kept candidate is a positive and
    each kept relevant one a true positive: running sums of the two flags
    over all the rankings laid end to end give the counts of any prefix.
    """
    who = np.repeat(np.arange(len(outcomes)), np.diff(outcomes.ptr))
    width = int(outcomes.rows.max(initial=0)) + 1
    cells = np.sort(who * width + outcomes.rows)
    repeated = cells[1:][cells[1:] == cells[:-1]]
    if len(repeated):
        query, row = divmod(int(repeated[0]), width)
        raise ValueError(f"the ranking of query {query} repeats row {row}")
    running = np.zeros((2, len(outcomes.kept) + 1), dtype=np.int64)
    np.cumsum([outcomes.kept, outcomes.kept & outcomes.relevant], axis=1, out=running[:, 1:])
    starts = outcomes.ptr[:-1]
    positives, tp = np.take(running, starts + cutoffs, axis=1) - running[:, None, starts]
    return tp, positives


def _macro_rows(
    outcomes: Outcomes, ks: Sequence[int], tp: np.ndarray, positives: np.ndarray, precisions: np.ndarray
) -> list[MetricRow]:
    """One row per cutoff: the metrics of the queries' pooled confusion
    counts, with the means of ``precisions`` and of tp/|relevant| over the
    queries that have relevant items as macro values."""
    fn = outcomes.n_relevant - tp
    tn = outcomes.db_size - positives - fn
    # tp, fp and fn cannot be negative; tn can, if db_size is too small.
    if (tn < 0).any():
        raise ValueError("confusion counts must be nonnegative")
    rows = metric_rows(np.stack((tp, positives - tp, fn, tn), axis=1).sum(axis=2), ks)
    peers = outcomes.n_relevant > 0
    recalls = _means(tp[:, peers] / outcomes.n_relevant[peers]) if peers.any() else [None] * len(ks)
    means = zip(_means(precisions), recalls)
    return [replace(row, macro_precision=p, macro_recall=r) for row, (p, r) in zip(rows, means)]


def _means(values: np.ndarray) -> list[float]:
    """Each row's mean, summed left to right (see the module docstring)."""
    return (np.cumsum(values, axis=1)[:, -1] / values.shape[1]).tolist()


CSV_COLUMNS = (
    "method",
    "k",
    "precision",
    "recall",
    "f1",
    "accuracy",
    "wall_clock_ms",
    "embed_calls",
    "pair_classifications",
    "macro_precision",
    "macro_recall",
)


def write_metrics_csv(path: str | Path, rows: Sequence[dict]) -> None:
    """Write evaluation rows in the fixed report schema, one per (method, k)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({col: row.get(col, "") for col in CSV_COLUMNS})
