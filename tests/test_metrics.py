"""Confusion-matrix metrics and per-k aggregation."""

from __future__ import annotations

import csv
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugdedup.metrics import (
    CSV_COLUMNS,
    ConfusionMatrix,
    MetricRow,
    Outcomes,
    aggregate_curves,
    classification_metrics,
    exhaustive_row,
    report_row,
    write_metrics_csv,
)

from helpers import columnar, outcome, reference_curves, reference_exhaustive_row


def test_confusion_rejects_negative_counts():
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1)


def test_confusion_total():
    assert ConfusionMatrix(11, 22, 33, 44).total == 110


def test_confusion_from_decisions():
    decisions = [(True, True), (True, False), (False, True), (False, False), (True, True)]
    for given in (decisions, iter(decisions), np.array(decisions), np.array(decisions, dtype=float)):
        cm = ConfusionMatrix.from_decisions(given)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 1)
    assert ConfusionMatrix.from_decisions(np.empty((0, 2), dtype=bool)) == ConfusionMatrix()
    assert ConfusionMatrix.from_decisions([]) == ConfusionMatrix()
    with pytest.raises(ValueError):
        ConfusionMatrix.from_decisions(np.array([True, False, True, True]))


def test_metrics_hand_example():
    row = classification_metrics(ConfusionMatrix(tp=3, fp=1, fn=1, tn=5))
    assert row.precision == 0.75
    assert row.recall == 0.75
    assert row.f1 == 0.75
    assert row.accuracy == 0.8
    assert row.zero_denominator == ()


def test_metrics_perfect_classifier():
    row = classification_metrics(ConfusionMatrix(tp=7, fp=0, fn=0, tn=3))
    assert (row.precision, row.recall, row.f1, row.accuracy) == (1.0, 1.0, 1.0, 1.0)


def test_metrics_zero_denominators_flag_not_crash():
    row = classification_metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=5))
    assert row.precision == 0.0
    assert row.recall == 0.0
    assert row.f1 == 0.0
    assert set(row.zero_denominator) == {"precision", "recall", "f1"}
    assert row.accuracy == 1.0


def test_metrics_all_zero_matrix_errors():
    with pytest.raises(ValueError, match="all-zero"):
        classification_metrics(ConfusionMatrix())


@settings(max_examples=200, deadline=None)
@given(
    tp=st.integers(0, 50),
    fp=st.integers(0, 50),
    fn=st.integers(0, 50),
    tn=st.integers(0, 50),
)
def test_metric_identities(tp, fp, fn, tn):
    if tp + fp + fn + tn == 0:
        return
    row = classification_metrics(ConfusionMatrix(tp, fp, fn, tn))
    assert 0.0 <= row.precision <= 1.0
    assert 0.0 <= row.recall <= 1.0
    assert 0.0 <= row.accuracy <= 1.0
    if row.precision + row.recall == 0:
        assert row.f1 == 0.0
    else:
        assert row.f1 == pytest.approx(
            2 * row.precision * row.recall / (row.precision + row.recall)
        )
    if row.precision == row.recall:
        assert row.f1 == pytest.approx(row.precision)
    assert row.f1 <= max(row.precision, row.recall) + 1e-12
    assert row.accuracy == pytest.approx((tp + tn) / (tp + fp + fn + tn))


def test_query_outcome_truncation():
    # the runner's records hold relevant ids as a sorted tuple, eval-retrieval's as a set
    for relevant in (frozenset({"a", "c", "x"}), ("a", "c", "x")):
        query = outcome("q", ("a", "b", "c", "d"), (True, False, True, True), relevant, 10)
        at_1, at_3, at_4, at_big = aggregate_curves(columnar([query]), [1, 3, 4, 100])
        assert (at_1.tp, at_1.fp, at_1.fn, at_1.tn) == (1, 0, 2, 7)
        assert (at_3.tp, at_3.fp, at_3.fn, at_3.tn) == (2, 0, 1, 7)  # b dropped by the classifier
        assert (at_4.tp, at_4.fp, at_4.fn, at_4.tn) == (2, 1, 1, 6)
        assert (at_big.tp, at_big.fp, at_big.fn, at_big.tn) == (2, 1, 1, 6)


def _outcome(query, candidates, relevant, db_size=20):
    return outcome(query, candidates, [True] * len(candidates), frozenset(relevant), db_size)


def test_aggregate_single_perfect_query():
    outcome = _outcome("q", ["a", "b"], ["a", "b"], db_size=5)
    rows = aggregate_curves(columnar([outcome]), [1, 2])
    assert rows[0].k == 1 and rows[1].k == 2
    assert rows[1].recall == 1.0
    assert rows[1].precision == 1.0
    # recall curve is non-decreasing
    assert rows[0].recall <= rows[1].recall


def test_aggregate_micro_equals_macro_for_equal_relevant_sizes():
    outcomes = [
        _outcome("q1", ["a", "x"], ["a", "b"]),
        _outcome("q2", ["c", "d"], ["c", "d"]),
    ]
    rows = aggregate_curves(columnar(outcomes), [2])
    row = rows[0]
    # every query has |relevant| = 2, so pooled and averaged recall agree
    assert row.macro_recall == pytest.approx(row.recall)


def test_aggregate_permutation_invariant():
    outcomes = [
        _outcome("q1", ["a", "x", "y"], ["a"]),
        _outcome("q2", ["c", "d", "z"], ["c", "d"]),
        _outcome("q3", ["m", "n", "o"], ["zz"]),
    ]
    forward = aggregate_curves(columnar(outcomes), [1, 2, 3])
    backward = aggregate_curves(columnar(list(reversed(outcomes))), [1, 2, 3])
    assert forward == backward


def test_aggregate_handles_queries_without_relevant():
    outcomes = [
        _outcome("q1", ["a"], []),
        _outcome("q2", ["c"], ["c"]),
    ]
    rows = aggregate_curves(columnar(outcomes), [1])
    # macro recall averages only over queries that can score recall
    assert rows[0].macro_recall == 1.0
    assert rows[0].macro_precision == pytest.approx(0.5)


def test_aggregate_macro_recall_none_when_no_query_has_peers():
    rows = aggregate_curves(columnar([_outcome("q1", ["a"], [])]), [1])
    assert rows[0].macro_recall is None


def test_aggregate_requires_outcomes():
    with pytest.raises(ValueError, match="empty result"):
        aggregate_curves(columnar([]), [1])


def test_aggregate_sorts_and_dedupes_k():
    outcome = _outcome("q", ["a", "b", "c"], ["a"])
    rows = aggregate_curves(columnar([outcome]), [3, 1, 3, 2])
    assert [r.k for r in rows] == [1, 2, 3]


@st.composite
def _outcomes(draw):
    """Columnar outcomes and the same queries as ``QueryOutcome``s for the
    references: rankings of distinct rows of an 8-row database, mixed kept
    flags, short lists and empty relevant sets; db_size leaves room for
    every row named."""
    rows, kept, relevant, n_relevant, db_size, records = [], [], [], [], [], []
    for i in range(draw(st.integers(1, 6))):
        ranking = draw(st.lists(st.integers(0, 7), max_size=8, unique=True))
        flags = draw(st.lists(st.booleans(), min_size=len(ranking), max_size=len(ranking)))
        peers = draw(st.frozensets(st.integers(0, 7), max_size=4))
        size = len(set(ranking) | peers) + draw(st.integers(0, 5))
        rows += ranking
        kept += flags
        relevant += [r in peers for r in ranking]
        n_relevant.append(len(peers))
        db_size.append(size)
        records.append(outcome(f"q{i}", tuple(ranking), tuple(flags), peers, size))
    lengths = [len(r.candidates) for r in records]
    arrays = Outcomes(
        ptr=np.cumsum([0] + lengths),
        rows=np.array(rows, dtype=np.intp),
        kept=np.array(kept, dtype=bool),
        relevant=np.array(relevant, dtype=bool),
        n_relevant=np.array(n_relevant, dtype=np.int64),
        db_size=np.array(db_size, dtype=np.int64),
    )
    return arrays, records


@settings(max_examples=300, deadline=None)
@given(outcomes=_outcomes(), k_list=st.lists(st.integers(1, 14), min_size=1, max_size=6))
def test_aggregate_equals_the_per_k_confusion_loop(outcomes, k_list):
    arrays, records = outcomes
    try:
        expected = reference_curves(records, k_list)
    except ValueError as exc:  # an all-zero pooled matrix
        with pytest.raises(ValueError, match=str(exc)):
            aggregate_curves(arrays, k_list)
        return
    assert aggregate_curves(arrays, k_list) == expected


@settings(max_examples=300, deadline=None)
@given(outcomes=_outcomes(), k=st.integers(1, 14))
def test_exhaustive_row_equals_the_per_query_confusion_loop(outcomes, k):
    arrays, records = outcomes
    try:
        expected = reference_exhaustive_row(records, k)
    except ValueError as exc:  # an all-zero pooled matrix
        with pytest.raises(ValueError, match=str(exc)):
            exhaustive_row(arrays, k)
        return
    assert exhaustive_row(arrays, k) == expected


def test_a_ranking_that_repeats_a_row_is_refused():
    # Each kept candidate counts as a positive, which holds only while a
    # ranking's rows are distinct; a row may recur across rankings.
    ok = outcome("q0", ("a", "b"), (True, True), frozenset({"a"}), 5)
    assert aggregate_curves(columnar([ok, ok]), [2])[0].tp == 2
    repeated = outcome("q1", ("b", "a", "b"), (True, False, True), frozenset({"b"}), 5)
    for run in (lambda o: aggregate_curves(o, [1]), lambda o: exhaustive_row(o, 1)):
        with pytest.raises(ValueError, match="query 1 repeats row 1"):
            run(columnar([ok, repeated]))


def test_macro_means_sum_left_to_right_from_zero():
    # Per-query precisions 1/3, 1 and 1 at k = 3: summed left to right they
    # give 2.333333333333333, where math.fsum and the built-in sum from
    # Python 3.12 give 2.3333333333333335.
    outcomes = columnar([
        _outcome("q1", ["a", "x", "y"], ["a"]),
        _outcome("q2", ["b", "c", "d"], ["b", "c", "d"]),
        _outcome("q3", ["e", "f", "g"], ["e", "f", "g"]),
    ])
    assert aggregate_curves(outcomes, [3])[0].macro_precision == 2.333333333333333 / 3
    assert exhaustive_row(outcomes, 3).macro_precision == 2.333333333333333 / 3


def test_aggregate_refuses_a_k_below_one():
    # Unchecked, k = 0 would divide hits by zero and k = -1 would read the
    # previous query's running sums.
    outcomes = columnar([_outcome("q1", ["a", "b"], ["a"]), _outcome("q2", ["c"], ["c"])])
    for k_list, first in (([0], 0), ([-1], -1), ([2, 0, -1], 0)):
        with pytest.raises(ValueError, match=f"at least 1, got {first}$"):
            aggregate_curves(outcomes, k_list)
    assert aggregate_curves(outcomes, []) == []


def test_aggregate_rejects_a_db_size_too_small_for_its_counts():
    # at k=3 the first query has tn = 3 - 3 - 1 < 0, which the second's
    # tn would hide in the pooled matrix
    small = outcome("q1", ("a", "b", "c"), (True, True, True), frozenset({"z"}), 3)
    large = _outcome("q2", ["a"], ["a"], db_size=50)
    assert aggregate_curves(columnar([small, large]), [2])[0].tn == 49
    with pytest.raises(ValueError, match="nonnegative"):
        aggregate_curves(columnar([small, large]), [1, 3])


def test_report_row_adds_method_time_and_counters():
    row = MetricRow(precision=1, recall=1, f1=1, accuracy=1, k=2, zero_denominator=("f1",))
    ledger = {"embed_calls": 7, "pair_classifications": 3, "similarity_ops": 9}
    payload = report_row(row, "m", 12.5, ledger)
    assert payload == {
        **{f.name: getattr(row, f.name) for f in fields(MetricRow)},
        "method": "m",
        "wall_clock_ms": 12.5,
        "embed_calls": 7,
        "pair_classifications": 3,
    }


def test_write_metrics_csv(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [
        {
            "method": "cascade",
            "k": 5,
            "precision": 0.5,
            "recall": 1.0,
            "f1": 2 / 3,
            "accuracy": 0.9,
            "wall_clock_ms": 12.5,
            "embed_calls": 30,
            "pair_classifications": 10,
            "macro_precision": 0.4,
            "macro_recall": 1.0,
            "not_a_column": "dropped",
        },
        {"method": "classification_only", "k": ""},
    ]
    write_metrics_csv(path, rows)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert list(parsed[0]) == list(CSV_COLUMNS)
    assert parsed[0]["method"] == "cascade"
    assert parsed[0]["precision"] == "0.5"
    assert "not_a_column" not in parsed[0]
    assert parsed[1]["k"] == ""
    assert parsed[1]["precision"] == ""
