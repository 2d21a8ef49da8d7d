"""Pair features, CE training, threshold sweep, classifier backends."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bugdedup.classifier import (
    FEATURE_COUNT,
    ClassifierTrainConfig,
    FeatureError,
    LogisticClassifier,
    LogisticPairModel,
    OracleClassifier,
    PairFeaturizer,
    SimilarityClassifier,
    classifier_from_json,
    classifier_to_json,
    train_classifier,
    tune_threshold,
)
from bugdedup import classifier
from bugdedup.artifacts import ArtifactError, load, save
from bugdedup.cascade import ScenarioError, classify_pairs
from bugdedup.corpus import BugReport
from bugdedup.dup_graph import build_clusters
from bugdedup.embedder import TfidfHashEmbedder
from bugdedup.ledger import CostLedger

from helpers import (
    CountingEmbedder,
    reference_pair_features,
    reference_sigmoid,
    reference_sparse_pair_features,
    reference_train_classifier,
    reference_tune_threshold,
)


def _report(bug_id, title, description, dup_of=None):
    return BugReport(bug_id=bug_id, title=title, description=description, dup_of=dup_of)


def _embedder(*reports, dim=64):
    return TfidfHashEmbedder.fit([r.clean_text for r in reports], dim=dim)


class _NanEmbedder:
    """Every token is id 0, and every row is one NaN weight in bucket 0."""

    def token_ids(self, texts):
        indptr = np.cumsum([0] + [len(text.split()) for text in texts])
        return indptr, np.zeros(indptr[-1], dtype=np.intp)

    def sparse_rows(self, indptr, ids):
        n = len(indptr) - 1
        return np.arange(n + 1), np.zeros(n, dtype=np.intp), np.full(n, np.nan)


class _StrayFieldEmbedder(_NanEmbedder):
    """Each row of a rows pass is one weight 1.0 in the bucket that counts
    the pass's rows, so no title or description row (2n of them) shares
    the bucket of its report's whole-text row (n of them)."""

    def sparse_rows(self, indptr, ids):
        n = len(indptr) - 1
        return np.arange(n + 1), np.full(n, n, dtype=np.intp), np.ones(n)


class _Proxy:
    """Forwards every attribute, as a tracing or logging wrapper might."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_featurizer_refuses_an_embedder_without_embed_sparse():
    a, b = _report("b1", "crash heap", "overflow"), _report("b2", "render", "shader")
    embedder = _embedder(a, b)

    class DenseOnly:
        dim = embedder.dim

        def embed_texts(self, texts):
            return embedder.embed_texts(texts)

    class SparseOnly(DenseOnly):
        def embed_sparse(self, texts):
            return embedder.sparse_rows(*embedder.token_ids(texts))

    for dense in (DenseOnly(), _Proxy(DenseOnly()), SparseOnly()):
        with pytest.raises(TypeError, match="token_ids and sparse_rows"):
            PairFeaturizer(dense)
    # A proxy that forwards the token and rows passes is an embedder with them.
    proxied = PairFeaturizer(_Proxy(embedder)).feature_matrix([(a, b)])
    assert proxied.tobytes() == PairFeaturizer(embedder).feature_matrix([(a, b)]).tobytes()


def test_pair_features_validation(monkeypatch):
    a, b = _report("b1", "crash heap", "overflow"), _report("b2", "render", "shader")
    with pytest.raises(FeatureError, match="non-finite"):
        PairFeaturizer(_NanEmbedder()).feature_matrix([(a, b)])
    monkeypatch.setattr(classifier, "_jaccards", lambda sets, left, right: np.full(len(left), 1.5))
    with pytest.raises(FeatureError, match="jaccard"):
        PairFeaturizer(_embedder(a, b)).feature_matrix([(a, b)])


def test_warm_refuses_a_field_bucket_outside_its_whole_text():
    with pytest.raises(FeatureError, match="not among its report's whole-text buckets"):
        PairFeaturizer(_StrayFieldEmbedder()).warm([_report("b1", "crash", "heap")])


def test_pair_features_array_order():
    # same title, half the tokens shared, nothing shared in the descriptions
    a = _report("b1", "crash heap", "overflow stack")
    b = _report("b2", "crash heap", "render shader")
    f = PairFeaturizer(_embedder(a, b, dim=512)).feature_matrix([(a, b)])
    assert f.shape == (1, FEATURE_COUNT) and FEATURE_COUNT == 5
    cos_all, cos_title, cos_description, euclidean, jaccard = f[0].tolist()
    assert cos_title == pytest.approx(1.0)
    assert cos_description == pytest.approx(0.0)
    assert 0.0 < cos_all < 1.0
    assert euclidean == pytest.approx(math.sqrt(2.0 - 2.0 * cos_all))
    assert jaccard == pytest.approx(2 / 6)


def test_identical_reports_max_out_features():
    a = _report("b1", "crash heap", "overflow stack")
    b = _report("b2", "crash heap", "overflow stack")
    featurizer = PairFeaturizer(_embedder(a, b))
    cos_all, cos_title, cos_description, euclidean, jaccard = featurizer.feature_matrix(
        [(a, b)]
    )[0].tolist()
    assert cos_all == pytest.approx(1.0)
    assert cos_title == pytest.approx(1.0)
    assert cos_description == pytest.approx(1.0)
    assert euclidean == pytest.approx(0.0, abs=1e-9)
    assert jaccard == 1.0


def test_disjoint_reports_zero_out_features():
    a = _report("b1", "crash heap", "overflow stack")
    b = _report("b2", "render glitch", "shader artifact")
    featurizer = PairFeaturizer(_embedder(a, b, dim=512))
    f = featurizer.feature_matrix([(a, b)])[0]
    assert f[0] == pytest.approx(0.0)  # whole-text cosine
    assert f[4] == 0.0  # token Jaccard


def test_features_symmetric():
    a = _report("b1", "crash heap alpha", "overflow")
    b = _report("b2", "crash heap", "underflow beta")
    featurizer = PairFeaturizer(_embedder(a, b))
    assert (
        featurizer.feature_matrix([(a, b)]).tolist() == featurizer.feature_matrix([(b, a)]).tolist()
    )


def test_both_empty_reports_rejected():
    a = _report("b1", "", "")
    b = _report("b2", "", "")
    featurizer = PairFeaturizer(_embedder(a, b))
    with pytest.raises(FeatureError, match="empty after cleaning"):
        featurizer.feature_matrix([(a, b)])


def test_one_empty_report_is_fine():
    a = _report("b1", "", "")
    b = _report("b2", "crash", "heap")
    featurizer = PairFeaturizer(_embedder(a, b))
    f = featurizer.feature_matrix([(a, b)])[0]
    assert f[0] == 0.0  # whole-text cosine
    assert f[4] == 0.0  # token Jaccard


def test_cosine_all_batch_matches_loop():
    reports = [
        _report(f"b{i}", f"word{i} crash shared", f"body{i} shared text") for i in range(6)
    ]
    featurizer = PairFeaturizer(_embedder(*reports))
    pairs = [(reports[i], reports[(i + 2) % 6]) for i in range(6)]
    batch = featurizer.cosine_all_batch(pairs)
    single = [featurizer.feature_matrix([(a, b)])[0, 0] for a, b in pairs]
    assert batch.tolist() == single


def _fields(reports) -> list[str]:
    """The texts of the featurizer's token pass over ``reports``."""
    return [text for r in reports for text in (r.clean_title, r.clean_description)]


def test_warm_embeds_each_report_once_per_field():
    reports = [_report(f"b{i}", f"title{i} crash", f"body{i} heap") for i in range(4)]
    counting = CountingEmbedder(_embedder(*reports))
    featurizer = PairFeaturizer(counting)
    featurizer.warm([reports[0], reports[1], reports[0], reports[2], reports[1]])
    # One token pass over each report's title and description, as adjacent
    # texts; the whole-text rows span both, so no text is read twice.
    assert counting.token_calls == [_fields(reports[:3])]
    # A query paired with every candidate, as the cascade batches it.
    featurizer.feature_matrix([(reports[3], r) for r in reports] + [(reports[2], reports[3])])
    assert counting.token_calls[1:] == [_fields(reports[3:])]
    featurizer.warm(reports)
    featurizer.feature_matrix([(reports[1], reports[3])])
    assert len(counting.token_calls) == 2
    assert counting.rows_calls == 4  # whole texts and their parts, per token pass
    assert counting.calls == []  # no dense row is ever built


def test_a_warmed_featurizer_looks_its_reports_up_without_warming(monkeypatch):
    reports = [_report(f"b{i}", f"title{i} crash", f"body{i} heap") for i in range(5)]
    featurizer = PairFeaturizer(_embedder(*reports))
    featurizer.warm(reports[:4])
    warms, warm = [], featurizer.warm
    monkeypatch.setattr(featurizer, "warm", lambda *args: (warms.append(args), warm(*args)))
    pairs = [(a, b) for a in reports[:4] for b in reports[:4]]
    featurizer.feature_matrix(pairs)
    featurizer.cosine_all_batch(pairs)
    assert warms == []
    # A batch with a report not seen before warms it, once.
    featurizer.cosine_all_batch([(reports[4], reports[0])])
    assert warms == [([reports[4], reports[0]],)]
    featurizer.feature_matrix([(reports[0], reports[4])])
    assert len(warms) == 1


@pytest.mark.parametrize(
    "fields",
    [[("", ""), ("the", ""), ("", "")], [("crash crash", "crash"), ("", ""), ("heap", "heap heap crash")]],
    ids=["every-report-empty", "every-token-repeated"],
)
def test_warm_keeps_each_reports_distinct_token_ids(fields):
    # With every report empty there is no (report, token) key at all.
    reports = [_report(f"b{i}", title, description) for i, (title, description) in enumerate(fields)]
    embedder = TfidfHashEmbedder.fit(["crash heap"], dim=64)
    featurizer = PairFeaturizer(embedder)
    featurizer.warm(reports)
    tokens = featurizer._tokens
    for r, report in enumerate(reports):
        _, ids = embedder.token_ids([report.clean_title, report.clean_description])
        got = tokens.columns[tokens.indptr[r] : tokens.indptr[r + 1]]
        assert got.tolist() == sorted(set(ids.tolist())), report


def _store_arrays(featurizer) -> list:
    """Everything the featurizer's two stores and its row map hold."""
    out = [featurizer._row]
    for store in (featurizer._texts, featurizer._tokens):
        arrays = [store.indptr, store.columns, *store.weights, *store.norms]
        out += [store.count, store.stride, *((a.dtype, a.tobytes()) for a in arrays)]
    return out


def test_a_featurizer_warmed_in_two_appends_equals_one_warmed_once(corpus):
    # Training features the train pairs, then tunes on the dev pairs, which
    # share some reports with them; each batch warms the reports it lacks.
    reports = list(corpus.reports[:60])
    embedder = TfidfHashEmbedder.fit([r.clean_text for r in reports], dim=128)
    train = [(reports[i], reports[i + 1]) for i in range(0, 40, 2)]
    dev = [(reports[i], reports[i + 3]) for i in range(30, 56)]
    twice = PairFeaturizer(embedder)
    twice.feature_matrix(train)
    assert twice._texts.count == 40
    twice.feature_matrix(dev)
    assert twice._texts.count == 59
    once = PairFeaturizer(embedder)
    once.warm([r for pair in train + dev for r in pair])
    assert _store_arrays(twice) == _store_arrays(once)


_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    """Higham's bound on the relative rounding error of n operations."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _assert_near_reference(x, embedder, pairs):
    """Each row of ``x`` against the dense per-pair formulas: the cosines and
    the distance within 10·γ(d + 3) at dimension d, the Jaccard exactly.

    Either way of computing a feature of two unit rows takes each weight to
    within γ(d + 2) of exact, the dot or the squared distance to within
    γ(d) more, and the norms to within γ(d + 3), so each is within
    5·γ(d + 3) of the exact feature and the two are within 10·γ(d + 3) of
    each other. The sparse featurizer sums in bucket order, and the dense
    reference pairwise over all d buckets.
    """
    bound = 10 * _gamma(embedder.dim + 3)
    for row, (a, b) in zip(x.tolist(), pairs):
        want = reference_pair_features(embedder, a, b)
        assert all(abs(g - w) <= bound for g, w in zip(row[:4], want[:4])), (row, want)
        assert row[4] == want[4]


def test_feature_matrix_rows_equal_per_pair_formulas(corpus):
    planted = list(corpus.reports[:40])
    edge = [
        _report("e1", "", "overflow stack trace"),
        _report("e2", "crash heap", ""),
        _report("e3", "the is", "crash heap overflow"),  # stopword-only title
        _report("e4", "crash heap", "the"),  # stopword-only description
        _report("e5", "", ""),
    ]
    reports = planted + edge
    embedder = TfidfHashEmbedder.fit([r.clean_text for r in planted], dim=128)
    pairs = [(a, b) for a in reports for b in reports[::3] if a.clean_text or b.clean_text]
    x = PairFeaturizer(embedder).feature_matrix(pairs)
    assert x.shape == (len(pairs), FEATURE_COUNT)
    _assert_near_reference(x, embedder, pairs)


# Repeated tokens, stopwords ("the", "is", "a") and a token that cleaning
# splits ("heap." gives "heap" and "."); at dim 4 most tokens share buckets.
_FIELD_WORDS = ["crash", "heap", "heap.", "overflow", "render", "shader", "null", "the", "is", "a"]
_field = st.lists(st.sampled_from(_FIELD_WORDS), max_size=8).map(" ".join)
_FEATURE_EMBEDDERS = {
    dim: TfidfHashEmbedder.fit(["crash heap overflow", "render shader", "crash null"], dim=dim)
    for dim in (4, 1024)
}


def _reports_and_pairs(draw_fields):
    reports = [_report(f"b{i}", t, d) for i, (t, d) in enumerate(draw_fields)]
    pairs = [(a, b) for a in reports for b in reports if a.clean_text or b.clean_text]
    return reports, pairs


@settings(max_examples=150, deadline=None)
@given(
    dim=st.sampled_from(sorted(_FEATURE_EMBEDDERS)),
    fields=st.lists(st.tuples(_field, _field), min_size=1, max_size=5),
)
def test_sparse_features_stay_near_the_dense_reference(dim, fields):
    embedder = _FEATURE_EMBEDDERS[dim]
    reports, pairs = _reports_and_pairs(fields)
    if pairs:
        _assert_near_reference(PairFeaturizer(embedder).feature_matrix(pairs), embedder, pairs)


@settings(max_examples=150, deadline=None)
@given(
    dim=st.sampled_from(sorted(_FEATURE_EMBEDDERS)),
    fields=st.lists(st.tuples(_field, _field), min_size=1, max_size=5),
)
# At dim 4 "crash" and "shader" fall in bucket 0 and "render" in bucket 1,
# so each report's title bucket is one that only the other's description has.
@example(dim=4, fields=[("crash", "render"), ("render", "shader")])
def test_sparse_features_equal_the_per_pair_reference_bit_for_bit(dim, fields):
    embedder = _FEATURE_EMBEDDERS[dim]
    reports, pairs = _reports_and_pairs(fields)
    if pairs:
        want = np.array([reference_sparse_pair_features(embedder, a, b) for a, b in pairs])
        assert PairFeaturizer(embedder).feature_matrix(pairs).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    dim=st.sampled_from(sorted(_FEATURE_EMBEDDERS)),
    fields=st.lists(st.tuples(_field, _field), min_size=1, max_size=5),
    chunk=st.sampled_from([1, 3, classifier._CHUNK_PAIRS]),
    data=st.data(),
)
def test_feature_rows_do_not_depend_on_their_batch(dim, fields, chunk, data):
    embedder = _FEATURE_EMBEDDERS[dim]
    reports, pairs = _reports_and_pairs(fields)
    if not pairs:
        return
    alone = [PairFeaturizer(embedder).feature_matrix([pair])[0].tobytes() for pair in pairs]
    order = data.draw(st.lists(st.sampled_from(range(len(pairs))), min_size=1, max_size=40))
    featurizer = PairFeaturizer(embedder)
    featurizer.warm(reports[::-1])  # rows stored in another order than alone
    default, classifier._CHUNK_PAIRS = classifier._CHUNK_PAIRS, chunk
    try:
        x = featurizer.feature_matrix([pairs[i] for i in order])
        cosines = featurizer.cosine_all_batch([pairs[i] for i in order])
    finally:
        classifier._CHUNK_PAIRS = default
    assert [row.tobytes() for row in x] == [alone[i] for i in order]
    assert cosines.tobytes() == x[:, 0].copy().tobytes()


@settings(max_examples=200, deadline=None)
@given(
    fields=st.lists(st.tuples(_field, _field), min_size=1, max_size=6),
    cut=st.integers(min_value=0, max_value=6),
)
def test_jaccard_equals_the_frozenset_formula_bit_for_bit(fields, cut):
    # The pairs hold empty, one-sided empty and identical texts (each report
    # with itself). The reports are warmed in two calls on a fresh embedder,
    # so the second call's new tokens take ids the first never saw.
    reports, pairs = _reports_and_pairs(fields)
    featurizer = PairFeaturizer(TfidfHashEmbedder.fit(["crash"], dim=4))
    featurizer.warm(reports[:cut])
    featurizer.warm(reports[cut:])
    want = []
    for a, b in pairs:
        left, right = frozenset(a.clean_text.split()), frozenset(b.clean_text.split())
        want.append(len(left & right) / len(left | right))
    assert featurizer.feature_matrix(pairs)[:, 4].tobytes() == np.array(want).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    dim=st.sampled_from(sorted(_FEATURE_EMBEDDERS)),
    fields=st.lists(st.tuples(_field, _field), min_size=1, max_size=5),
)
def test_rows_cut_from_the_token_pass_equal_embed_sparse_of_each_field(dim, fields):
    embedder = _FEATURE_EMBEDDERS[dim]
    reports, _ = _reports_and_pairs(fields)
    featurizer = PairFeaturizer(embedder)
    featurizer.warm(reports)
    texts = featurizer._texts
    for r, report in enumerate(reports):
        start, end = texts.indptr[r], texts.indptr[r + 1]
        columns = texts.columns[start:end]
        for f, text in enumerate((report.clean_text, report.clean_title, report.clean_description)):
            _, buckets, weights = embedder.sparse_rows(*embedder.token_ids([text]))
            if f == 0:
                assert columns.tobytes() == buckets.tobytes()
            # The field's row, spread over its report's whole-text buckets
            # with 0.0 where it lacks one, and its norm.
            assert np.isin(buckets, columns).all()
            spread = np.zeros(len(columns))
            spread[np.searchsorted(columns, buckets)] = weights
            assert texts.weights[f][start:end].tobytes() == spread.tobytes()
            squares = 0.0
            for w in weights.tolist():
                squares += w * w
            assert texts.norms[f][r] == math.sqrt(squares)


def _handed_tokens(embedder, reports):
    """What the cascade runner hands ``warm``: one token pass over the
    reports' titles and descriptions, and the rows of their whole texts."""
    parts, ids = embedder.token_ids(_fields(reports))
    return parts, ids, embedder.sparse_rows(parts[0::2], ids)


@settings(max_examples=100, deadline=None)
@given(
    dim=st.sampled_from(sorted(_FEATURE_EMBEDDERS)),
    fields=st.lists(st.tuples(_field, _field), min_size=1, max_size=5),
    data=st.data(),
)
def test_warm_from_handed_tokens_equals_its_own_token_pass(dim, fields, data):
    # Some reports are seen before the hand-over, and the handed list
    # repeats some, so warm keeps only the first sight of each new one.
    embedder = _FEATURE_EMBEDDERS[dim]
    reports, pairs = _reports_and_pairs(fields)
    if not pairs:
        return
    seen = data.draw(st.lists(st.sampled_from(reports), max_size=3))
    handed = data.draw(st.permutations(reports)) + data.draw(st.lists(st.sampled_from(reports)))
    counting = CountingEmbedder(embedder)
    featurizer = PairFeaturizer(counting)
    featurizer.warm(seen)
    before = len(counting.token_calls)
    featurizer.warm(handed, _handed_tokens(embedder, handed))
    assert len(counting.token_calls) == before  # no token pass of its own
    new = {r.bug_id for r in reports} - {r.bug_id for r in seen}
    assert counting.rows_calls == 2 * before + bool(new)  # only the parts' rows pass
    assert set(featurizer._row) == {r.bug_id for r in reports}
    fresh = PairFeaturizer(embedder)
    assert featurizer.feature_matrix(pairs).tobytes() == fresh.feature_matrix(pairs).tobytes()
    assert featurizer.cosine_all_batch(pairs).tobytes() == fresh.cosine_all_batch(pairs).tobytes()
    assert len(counting.token_calls) == before


def test_both_empty_pair_inside_a_batch_is_rejected():
    a, b = _report("b1", "crash heap", "overflow"), _report("b2", "render", "shader")
    empty1, empty2 = _report("e1", "", "the"), _report("e2", "", "")
    featurizer = PairFeaturizer(_embedder(a, b))
    # The error names the first both-empty pair of the batch.
    pairs = [(a, b), (empty1, empty2), (a, empty1), (empty2, empty1)]
    with pytest.raises(FeatureError, match="e1, e2"):
        featurizer.feature_matrix(pairs)
    model = LogisticPairModel(weights=np.zeros(FEATURE_COUNT + 1))
    with pytest.raises(FeatureError, match="empty after cleaning"):
        LogisticClassifier(model, featurizer).classify_batch(pairs)


def _ce(y: int, z: float) -> float:
    """The trainer's mean CE loss of one example whose logit is z."""
    weights = np.zeros(FEATURE_COUNT + 1)
    weights[0] = z
    x = np.zeros((1, FEATURE_COUNT))
    x[0, 0] = 1.0
    return classifier._mean_ce(weights, x, np.array([float(y)]))


def test_ce_loss_values():
    # logits 0, 1000 and -1000 give the probabilities 0.5, 1.0 and 0.0
    assert _ce(1, 0.0) == pytest.approx(math.log(2))
    assert _ce(0, 0.0) == pytest.approx(math.log(2))
    assert _ce(1, 1000.0) == pytest.approx(-math.log(1 - 1e-12), abs=1e-15)
    assert _ce(1, -1000.0) == pytest.approx(-math.log(1e-12))
    assert _ce(0, 1000.0) == pytest.approx(-math.log(1e-12))


@settings(max_examples=100, deadline=None)
@given(y=st.integers(0, 1), z=st.floats(min_value=-1e3, max_value=1e3))
def test_ce_loss_nonnegative_and_finite(y, z):
    loss = _ce(y, z)
    assert loss >= 0.0
    assert math.isfinite(loss)


def test_tune_threshold_prefers_lowest_argmax():
    probs = np.array([0.105, 0.695])
    labels = np.array([0.0, 1.0])
    # every threshold in (0.105, 0.695] scores f1=1; the grid's first is 0.11
    assert tune_threshold(probs, labels, step=0.01) == pytest.approx(0.11)


def test_tune_threshold_all_negative_labels():
    probs = np.array([0.2, 0.4])
    labels = np.array([0.0, 0.0])
    # f1 is 0 everywhere, so the whole grid ties and the lowest point wins
    assert tune_threshold(probs, labels) == pytest.approx(0.01)


def test_tune_threshold_rejects_empty_input():
    with pytest.raises(ValueError, match="all-zero"):
        tune_threshold(np.array([]), np.array([]))


# Probabilities on and near the grid points, where F1 ties are likeliest.
_PROBABILITY = st.one_of(
    st.floats(0.0, 1.0), st.integers(0, 100).map(lambda i: i / 100), st.just(0.1 + 0.2)
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(st.tuples(_PROBABILITY, st.sampled_from([0.0, 1.0])), min_size=1, max_size=40),
    step=st.sampled_from([0.01, 0.03, 0.05, 0.1, 0.25, 0.3]),
)
def test_tune_threshold_equals_its_own_f1_loop(data, step):
    probs = np.array([p for p, _ in data])
    labels = np.array([y for _, y in data])
    assert tune_threshold(probs, labels, step) == reference_tune_threshold(probs, labels, step)


def _separable_pairs(n_each=12):
    dups, negs = [], []
    for i in range(n_each):
        a = _report(f"d{i}a", f"crash sig{i} heap", f"overflow sig{i} trace")
        b = _report(f"d{i}b", f"crash sig{i} heap", f"overflow sig{i} trace")
        dups.append((a, b, True))
    for i in range(n_each):
        a = _report(f"n{i}a", f"render t{i} glitch", f"shader t{i} artifact")
        b = _report(f"n{i}b", f"audio u{i} stutter", f"buffer u{i} underrun")
        negs.append((a, b, False))
    reports = [r for group in (dups, negs) for a, b, _ in group for r in (a, b)]
    return dups + negs, _embedder(*reports, dim=512)


def test_training_reaches_perfect_accuracy_on_separable_pairs():
    pairs, embedder = _separable_pairs()
    cfg = ClassifierTrainConfig(epochs=60, seed=0)
    model = train_classifier(pairs, embedder, cfg)
    featurizer = PairFeaturizer(embedder)
    x = featurizer.feature_matrix([(a, b) for a, b, _ in pairs])
    y = np.array([dup for _, _, dup in pairs])
    pred = model.predict_proba(x) >= model.threshold
    assert np.array_equal(pred, y)


def test_training_loss_decreases():
    pairs, embedder = _separable_pairs()
    model = train_classifier(pairs, embedder, ClassifierTrainConfig(epochs=30))
    assert model.loss_curve[0] == pytest.approx(math.log(2))  # zero weights
    assert model.loss_curve[-1] < model.loss_curve[0]
    assert len(model.loss_curve) == 31


def test_training_zero_epochs_keeps_zero_weights():
    pairs, embedder = _separable_pairs(n_each=3)
    model = train_classifier(pairs, embedder, ClassifierTrainConfig(epochs=0))
    np.testing.assert_array_equal(model.weights, np.zeros(FEATURE_COUNT + 1))
    assert model.predict_proba(np.zeros((1, FEATURE_COUNT)))[0] == 0.5


def test_training_requires_pairs():
    _, embedder = _separable_pairs(n_each=2)
    with pytest.raises(ValueError, match="at least one labeled pair"):
        train_classifier([], embedder)


def test_training_deterministic():
    pairs, embedder = _separable_pairs(n_each=5)
    cfg = ClassifierTrainConfig(epochs=10, seed=4)
    m1 = train_classifier(pairs, embedder, cfg)
    m2 = train_classifier(pairs, embedder, cfg)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    assert m1.loss_curve == m2.loss_curve


def test_dev_pairs_tune_the_threshold():
    pairs, embedder = _separable_pairs()
    dev = pairs[:6] + pairs[-6:]
    tuned = train_classifier(pairs, embedder, ClassifierTrainConfig(epochs=40), dev_pairs=dev)
    untuned = train_classifier(pairs, embedder, ClassifierTrainConfig(epochs=40))
    assert untuned.threshold == 0.5
    assert 0.0 < tuned.threshold < 1.0
    np.testing.assert_array_equal(tuned.weights, untuned.weights)


def test_model_validation():
    with pytest.raises(ValueError, match="weights"):
        LogisticPairModel(weights=np.zeros(3))
    with pytest.raises(ValueError, match="threshold"):
        LogisticPairModel(weights=np.zeros(FEATURE_COUNT + 1), threshold=1.0)
    with pytest.raises(ValueError, match="non-finite"):
        LogisticPairModel(weights=np.full(FEATURE_COUNT + 1, np.inf))


def test_logistic_classifier_batch_matches_single():
    pairs, embedder = _separable_pairs(n_each=4)
    model = train_classifier(pairs, embedder, ClassifierTrainConfig(epochs=20))
    clf = LogisticClassifier(model, PairFeaturizer(embedder))
    report_pairs = [(a, b) for a, b, _ in pairs]
    batch = clf.classify_batch(report_pairs)
    singles = [clf.classify_batch([pair])[0] for pair in report_pairs]
    assert batch.tolist() == singles
    assert clf.threshold == model.threshold


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=600), st.integers(min_value=0, max_value=2**32 - 1))
def test_logistic_probability_does_not_depend_on_its_batch(n, seed):
    rng = np.random.default_rng(seed)
    model = LogisticPairModel(weights=rng.normal(size=FEATURE_COUNT + 1))
    x = rng.normal(size=(n, FEATURE_COUNT)) * rng.uniform(0.1, 10.0)
    batch = model.predict_proba(x)
    # alone, in batches of two, and at the mirrored position of a strided view
    assert [model.predict_proba(x[i : i + 1])[0] for i in range(n)] == batch.tolist()
    pairs = np.concatenate([model.predict_proba(x[i : i + 2]) for i in range(0, n, 2)])
    assert pairs.tobytes() == batch.tobytes()
    assert model.predict_proba(x[::-1])[::-1].tobytes() == batch.tobytes()


def test_classifiers_count_ledger():
    pairs, embedder = _separable_pairs(n_each=3)
    model = train_classifier(pairs, embedder, ClassifierTrainConfig(epochs=5))
    clf = LogisticClassifier(model, PairFeaturizer(embedder))
    ledger = CostLedger()
    classify_pairs(clf, [pairs[0][:2]], ledger)
    classify_pairs(clf, [(a, b) for a, b, _ in pairs], ledger)
    assert ledger.pair_classifications == 1 + len(pairs)
    assert ledger.embed_calls == 0


def test_similarity_classifier_threshold_rule():
    a = _report("b1", "crash heap", "overflow stack")
    b = _report("b2", "crash heap", "overflow stack")
    c = _report("b3", "render glitch", "shader artifact")
    featurizer = PairFeaturizer(_embedder(a, b, c, dim=512))
    clf = SimilarityClassifier(featurizer, similarity_threshold=0.5)
    (prob_dup, label_dup), (prob_neg, label_neg) = classify_pairs(
        clf, [(a, b), (a, c)], CostLedger()
    )
    assert label_dup and not label_neg
    assert prob_dup == pytest.approx(1.0)
    assert prob_neg == pytest.approx(0.5)  # cosine 0 maps to probability 0.5
    assert clf.threshold == pytest.approx(0.75)


def test_backends_refuse_a_pair_whose_score_is_not_finite():
    # Both backends refuse the NaN rows of one embedder before the runner
    # counts a pair: the logistic features raise, and the runner refuses
    # the similarity score.
    a, b = _report("b1", "crash heap", "overflow"), _report("b2", "render", "shader")
    model, ledger = LogisticPairModel(weights=np.zeros(FEATURE_COUNT + 1)), CostLedger()
    with pytest.raises(FeatureError, match="non-finite"):
        classify_pairs(LogisticClassifier(model, PairFeaturizer(_NanEmbedder())), [(a, b)], ledger)
    with pytest.raises(ScenarioError, match="nan for b1, b2"):
        classify_pairs(SimilarityClassifier(PairFeaturizer(_NanEmbedder())), [(a, b)], ledger)
    assert ledger.pair_classifications == 0


def test_similarity_threshold_must_lie_in_the_cosine_range():
    for t in (-1.0, -0.2, 1.0):
        assert SimilarityClassifier(_FixedCosines([]), t).threshold == (t + 1.0) / 2.0
    for t in (math.nan, math.inf, 2.0, -1.5, float(np.nextafter(1.0, 2.0))):
        with pytest.raises(ValueError, match="similarity threshold"):
            SimilarityClassifier(_FixedCosines([]), t)


class _FixedCosines:
    """Stands in for the featurizer: pair i has whole-text cosine ``cosines[i]``."""

    def __init__(self, cosines):
        self.cosines = np.array(cosines)

    def cosine_all_batch(self, pairs):
        return self.cosines[: len(pairs)]


def test_similarity_verdict_just_below_the_cosine_threshold():
    # The runner compares the probability (s + 1) / 2 with (t + 1) / 2, so
    # the cosine one float below t = 0.5 rounds up to the threshold and is
    # a duplicate; one float below 0.5 at the scale of s + 1 is not.
    below = float(np.nextafter(0.5, -1.0))
    assert below == 0.49999999999999994
    cosines = [0.5, below, 0.5 - 2.0**-52, 0.3]
    clf = SimilarityClassifier(_FixedCosines(cosines), similarity_threshold=0.5)
    pairs = [(_report(f"a{i}", "x", ""), _report(f"b{i}", "y", "")) for i in range(4)]
    verdicts = classify_pairs(clf, pairs, CostLedger())
    assert [dup for _, dup in verdicts] == [True, True, False, False]
    # at t = 0.3 the float just below stays below
    low = SimilarityClassifier(_FixedCosines([0.3, float(np.nextafter(0.3, -1.0))]), 0.3)
    assert [dup for _, dup in classify_pairs(low, pairs[:2], CostLedger())] == [True, False]


def test_similarity_batch_matches_single():
    reports = [_report(f"b{i}", f"t{i} crash", f"d{i} shared") for i in range(5)]
    featurizer = PairFeaturizer(_embedder(*reports))
    clf = SimilarityClassifier(featurizer, similarity_threshold=0.3)
    pairs = [(reports[i], reports[(i + 1) % 5]) for i in range(5)]
    batch = clf.classify_batch(pairs)
    singles = [clf.classify_batch([pair])[0] for pair in pairs]
    assert batch.tolist() == singles


def test_oracle_classifier_uses_ground_truth():
    reports = [
        _report("b1", "x", "y"),
        _report("b2", "x", "y", dup_of="b1"),
        _report("b3", "z", "w"),
    ]
    from bugdedup.corpus import build_corpus

    clusters = build_clusters(build_corpus(reports))
    clf = OracleClassifier(clusters)
    pairs = [(reports[0], reports[1]), (reports[1], reports[2])]
    assert clf.classify_batch(pairs).tolist() == [1.0, 0.0]
    ledger = CostLedger()
    assert classify_pairs(clf, pairs, ledger) == [(1.0, True), (0.0, False)]
    assert ledger.pair_classifications == 2


def test_classify_symmetry():
    pairs, embedder = _separable_pairs(n_each=4)
    model = train_classifier(pairs, embedder, ClassifierTrainConfig(epochs=10))
    clf = LogisticClassifier(model, PairFeaturizer(embedder))
    sim = SimilarityClassifier(PairFeaturizer(embedder))
    forward = [(a, b) for a, b, _ in pairs]
    backward = [(b, a) for a, b, _ in pairs]
    assert clf.classify_batch(forward).tolist() == clf.classify_batch(backward).tolist()
    assert sim.classify_batch(forward).tolist() == sim.classify_batch(backward).tolist()


def test_classifier_save_load_roundtrip(tmp_path):
    pairs, embedder = _separable_pairs(n_each=4)
    model = train_classifier(
        pairs, embedder, ClassifierTrainConfig(epochs=15), dev_pairs=pairs
    )
    path = tmp_path / "classifier.json"
    save(path, classifier_to_json(model) | {"note": "x"})
    again = load(path, classifier_from_json, "classifier file")
    np.testing.assert_array_equal(again.weights, model.weights)
    assert again.threshold == model.threshold
    assert again.loss_curve == model.loss_curve
    assert again.train_config == model.train_config


def test_classifier_config_json_roundtrip(tmp_path):
    cfg = ClassifierTrainConfig(learning_rate=0.1, epochs=9, batch_size=8, seed=2, threshold_step=0.05)
    path = tmp_path / "classifier.json"
    save(path, classifier_to_json(LogisticPairModel(weights=np.arange(FEATURE_COUNT + 1.0), train_config=cfg)))
    payload = json.loads(path.read_text())
    assert set(payload["train_config"]) == {f.name for f in fields(ClassifierTrainConfig)}
    assert load(path, classifier_from_json, "classifier file").train_config == cfg


@pytest.mark.parametrize(
    "train_config, says",
    [
        ({"epochs": 3, "bogus": 1}, "unexpected keyword argument 'bogus'"),
        ([3], "must be a mapping"),
        ({"epochs": -1}, "epochs must be an int >= 0"),
        # A count or a seed is a JSON integer: neither 2.5 nor true passes.
        ({"epochs": 2.5, "batch_size": True, "seed": True}, "epochs must be an int >= 0, got 2.5"),
        ({"batch_size": True}, "batch_size must be an int >= 1, got True"),
        ({"seed": True}, "seed must be an int, got True"),
        ({"seed": 1.0}, "seed must be an int, got 1.0"),
    ],
)
def test_load_classifier_names_a_malformed_train_config(tmp_path, train_config, says):
    path = tmp_path / "classifier.json"
    payload = classifier_to_json(LogisticPairModel(weights=np.zeros(FEATURE_COUNT + 1)))
    path.write_text(json.dumps({**payload, "train_config": train_config}))
    with pytest.raises(ArtifactError, match=says) as caught:
        load(path, classifier_from_json, "classifier file")
    assert str(path) in str(caught.value)


@pytest.mark.parametrize("epochs", [0, 1, 3])
@pytest.mark.parametrize("batch_size", [1, 7, 22])
def test_train_classifier_equals_the_reference_loop_bit_for_bit(batch_size, epochs):
    # 22 training pairs, so batches of 7 leave a tail of 1.
    pairs, embedder = _separable_pairs(n_each=11)
    dev = pairs[:4] + pairs[-5:]
    for seed, dev_pairs in itertools.product((0, 9), (None, dev)):
        cfg = ClassifierTrainConfig(
            learning_rate=0.7, epochs=epochs, batch_size=batch_size, seed=seed
        )
        model = train_classifier(pairs, embedder, cfg, dev_pairs=dev_pairs)
        weights, curve, threshold = reference_train_classifier(pairs, embedder, cfg, dev_pairs)
        assert model.weights.tobytes() == weights.tobytes(), cfg
        assert list(model.loss_curve) == curve, cfg
        assert model.threshold == threshold, cfg


_SIGMOID_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.7, -36.7, 709.8, -709.8,
    745.2, -745.2, math.inf, -math.inf, math.nan, -math.nan,
]


def test_sigmoid_equals_the_two_branch_form_bit_for_bit():
    z = np.array(_SIGMOID_EDGES)
    assert classifier._sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()
    rng = np.random.default_rng(3)
    z = np.concatenate([z, rng.normal(scale=40.0, size=257), z[::-1]])
    assert classifier._sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()
