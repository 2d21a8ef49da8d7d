"""Confusion-matrix metrics and per-k curve aggregation.

Classification metrics follow the standard confusion-matrix forms;
accuracy is (tp+tn)/total. Zero denominators yield metric 0 with an
explicit flag rather than an error, so heavily skewed dev/test runs
never crash. Curve aggregation treats every (query, database-item)
decision as binary at cutoff k (retained implies positive) and emits
both the micro (pooled confusion) and macro (per-query mean) views,
since either aggregation is defensible for ranked retrieval.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence


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

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )

    @classmethod
    def from_decisions(cls, decisions: Iterable[tuple[bool, bool]]) -> "ConfusionMatrix":
        """Build from (predicted, actual) pairs."""
        tp = fp = fn = tn = 0
        for predicted, actual in decisions:
            if predicted and actual:
                tp += 1
            elif predicted:
                fp += 1
            elif actual:
                fn += 1
            else:
                tn += 1
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
    """The scenario runner's record of one query: what it ranked and what was true.

    ``candidates`` holds ``(bug_id, score, kept)`` in rank order; ``kept`` is
    the classifier verdict (always True when no classifier ran). Truncating
    them at a cutoff k reproduces the run the cascade would have made at
    that smaller k, which is what lets one run at k_max yield the whole
    curve. ``relevant`` holds the query's cluster peers in the database, in
    id order; metrics only test membership in it and take its length.
    """

    query: str
    candidates: tuple[tuple[str, float, bool], ...]
    relevant: tuple[str, ...]
    db_size: int

    def confusion_at(self, k: int) -> ConfusionMatrix:
        positives = {c for c, _, keep in self.candidates[:k] if keep}
        tp = len(positives.intersection(self.relevant))
        fp = len(positives) - tp
        fn = len(self.relevant) - tp
        tn = self.db_size - len(positives) - fn
        return ConfusionMatrix(tp, fp, fn, tn)


def aggregate_curves(outcomes: Sequence[QueryOutcome], k_list: Sequence[int]) -> list[MetricRow]:
    """One MetricRow per k: pooled-confusion metrics plus macro means.

    Macro recall averages tp/|relevant| over queries that have relevant
    items (queries without peers cannot score recall); macro precision
    averages hits/k over all queries. The pooled counts do not depend on
    the order of ``outcomes``, but each macro mean is a float sum taken in
    that order, so reordering the queries can change its last bits.

    Each outcome's candidates are walked once, recording how many
    distinct kept ids (positives) and relevant ones among them (true
    positives) each prefix holds; every k then reads those counts, which
    equal ``confusion_at(k)``'s.
    """
    if not outcomes:
        raise ValueError("cannot aggregate an empty result set")
    prefixes = []
    for outcome in outcomes:
        positives: set[str] = set()
        tp = 0
        counts = [(0, 0)]
        for candidate, _, keep in outcome.candidates:
            if keep and candidate not in positives:
                positives.add(candidate)
                tp += candidate in outcome.relevant
            counts.append((len(positives), tp))
        prefixes.append(counts)
    rows = []
    for k in sorted(set(k_list)):
        total_tp = total_pos = total_fn = total_tn = 0
        recalls: list[float] = []
        precisions: list[float] = []
        for outcome, counts in zip(outcomes, prefixes):
            n_pos, tp = counts[min(k, len(counts) - 1)]
            fn = len(outcome.relevant) - tp
            tn = outcome.db_size - n_pos - fn
            # tp, fp and fn cannot be negative; tn can, if db_size is too small.
            if tn < 0:
                raise ValueError("confusion counts must be nonnegative")
            total_tp += tp
            total_pos += n_pos
            total_fn += fn
            total_tn += tn
            if outcome.relevant:
                recalls.append(tp / len(outcome.relevant))
            precisions.append(tp / k)
        total = ConfusionMatrix(total_tp, total_pos - total_tp, total_fn, total_tn)
        rows.append(_macro_row(total, k, precisions, recalls))
    return rows


def exhaustive_row(outcomes: Sequence[QueryOutcome], k: int) -> MetricRow:
    """Exhaustive classification ignores k: one row, every decision counted."""
    total = ConfusionMatrix()
    recalls: list[float] = []
    precisions: list[float] = []
    for o in outcomes:
        cm = o.confusion_at(len(o.candidates))
        total = total + cm
        if o.relevant:
            recalls.append(cm.tp / len(o.relevant))
        denom = cm.tp + cm.fp
        precisions.append(cm.tp / denom if denom else 0.0)
    return _macro_row(total, k, precisions, recalls)


def _macro_row(
    total: ConfusionMatrix, k: int, precisions: list[float], recalls: list[float]
) -> MetricRow:
    """Pooled-confusion metrics at k, with the per-query means as macro values."""
    return replace(
        classification_metrics(total, k=k),
        macro_precision=sum(precisions) / len(precisions) if precisions else 0.0,
        macro_recall=sum(recalls) / len(recalls) if recalls else None,
    )


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
