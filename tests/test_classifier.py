"""Pair features, CE training, threshold sweep, classifier backends."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugdedup.classifier import (
    FEATURE_COUNT,
    ClassifierTrainConfig,
    FeatureError,
    LogisticClassifier,
    LogisticPairModel,
    OracleClassifier,
    PairFeaturizer,
    PairFeatures,
    SimilarityClassifier,
    ce_loss,
    load_classifier,
    save_classifier,
    train_classifier,
    tune_threshold,
)
from bugdedup.corpus import BugReport
from bugdedup.dup_graph import build_clusters
from bugdedup.embedder import TfidfHashEmbedder
from bugdedup.ledger import CostLedger

from helpers import reference_pair_features


def _report(bug_id, title, description, dup_of=None):
    return BugReport(bug_id=bug_id, title=title, description=description, dup_of=dup_of)


def _embedder(*reports, dim=64):
    return TfidfHashEmbedder.fit([r.clean_text for r in reports], dim=dim)


def test_pair_features_validation():
    with pytest.raises(FeatureError, match="non-finite"):
        PairFeatures(float("nan"), 0, 0, 0, 0)
    with pytest.raises(FeatureError, match="jaccard"):
        PairFeatures(0, 0, 0, 0, 1.5)


def test_pair_features_array_order():
    f = PairFeatures(0.1, 0.2, 0.3, 0.4, 0.5)
    np.testing.assert_array_equal(f.as_array(), [0.1, 0.2, 0.3, 0.4, 0.5])
    assert FEATURE_COUNT == 5


def test_identical_reports_max_out_features():
    a = _report("b1", "crash heap", "overflow stack")
    b = _report("b2", "crash heap", "overflow stack")
    featurizer = PairFeaturizer(_embedder(a, b))
    f = featurizer.features(a, b)
    assert f.cosine_all == pytest.approx(1.0)
    assert f.cosine_title == pytest.approx(1.0)
    assert f.cosine_description == pytest.approx(1.0)
    assert f.euclidean == pytest.approx(0.0, abs=1e-9)
    assert f.token_jaccard == 1.0


def test_disjoint_reports_zero_out_features():
    a = _report("b1", "crash heap", "overflow stack")
    b = _report("b2", "render glitch", "shader artifact")
    featurizer = PairFeaturizer(_embedder(a, b, dim=512))
    f = featurizer.features(a, b)
    assert f.cosine_all == pytest.approx(0.0)
    assert f.token_jaccard == 0.0


def test_features_symmetric():
    a = _report("b1", "crash heap alpha", "overflow")
    b = _report("b2", "crash heap", "underflow beta")
    featurizer = PairFeaturizer(_embedder(a, b))
    assert featurizer.features(a, b) == featurizer.features(b, a)


def test_both_empty_reports_rejected():
    a = _report("b1", "", "")
    b = _report("b2", "", "")
    featurizer = PairFeaturizer(_embedder(a, b))
    with pytest.raises(FeatureError, match="empty after cleaning"):
        featurizer.features(a, b)


def test_one_empty_report_is_fine():
    a = _report("b1", "", "")
    b = _report("b2", "crash", "heap")
    featurizer = PairFeaturizer(_embedder(a, b))
    f = featurizer.features(a, b)
    assert f.cosine_all == 0.0
    assert f.token_jaccard == 0.0


def test_cosine_all_batch_matches_loop():
    reports = [
        _report(f"b{i}", f"word{i} crash shared", f"body{i} shared text") for i in range(6)
    ]
    featurizer = PairFeaturizer(_embedder(*reports))
    pairs = [(reports[i], reports[(i + 2) % 6]) for i in range(6)]
    batch = featurizer.cosine_all_batch(pairs)
    single = [featurizer.features(a, b).cosine_all for a, b in pairs]
    assert batch.tolist() == single


class _CountingEmbedder:
    """Records every text each ``embed_texts`` call receives."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[list[str]] = []

    def embed_texts(self, texts):
        self.calls.append(list(texts))
        return self.inner.embed_texts(texts)


def test_warm_embeds_each_report_once_per_field():
    reports = [_report(f"b{i}", f"title{i} crash", f"body{i} heap") for i in range(4)]
    counting = _CountingEmbedder(_embedder(*reports))
    featurizer = PairFeaturizer(counting)
    featurizer.warm([reports[0], reports[1], reports[0], reports[2], reports[1]])
    assert counting.calls == [
        [r.clean_text for r in reports[:3]],
        [r.clean_title for r in reports[:3]],
        [r.clean_description for r in reports[:3]],
    ]
    # A query paired with every candidate, as the cascade batches it.
    featurizer.feature_matrix([(reports[3], r) for r in reports] + [(reports[2], reports[3])])
    assert counting.calls[3:] == [
        [reports[3].clean_text],
        [reports[3].clean_title],
        [reports[3].clean_description],
    ]
    featurizer.warm(reports)
    featurizer.features(reports[1], reports[3])
    assert len(counting.calls) == 6


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
    assert x.tolist() == [reference_pair_features(embedder, a, b) for a, b in pairs]


def test_both_empty_pair_inside_a_batch_is_rejected():
    a, b = _report("b1", "crash heap", "overflow"), _report("b2", "render", "shader")
    empty1, empty2 = _report("e1", "", "the"), _report("e2", "", "")
    featurizer = PairFeaturizer(_embedder(a, b))
    pairs = [(a, b), (empty1, empty2), (a, empty1)]
    with pytest.raises(FeatureError, match="e1, e2"):
        featurizer.feature_matrix(pairs)
    model = LogisticPairModel(weights=np.zeros(FEATURE_COUNT + 1))
    with pytest.raises(FeatureError, match="empty after cleaning"):
        LogisticClassifier(model, featurizer).classify_batch(pairs)


def test_ce_loss_values():
    assert ce_loss(1, 0.5) == pytest.approx(math.log(2))
    assert ce_loss(0, 0.5) == pytest.approx(math.log(2))
    assert ce_loss(1, 1.0) == pytest.approx(-math.log(1 - 1e-12), abs=1e-15)
    assert ce_loss(1, 0.0) == pytest.approx(-math.log(1e-12))
    assert ce_loss(0, 1.0) == pytest.approx(-math.log(1e-12))


@settings(max_examples=100, deadline=None)
@given(y=st.integers(0, 1), p=st.floats(min_value=0.0, max_value=1.0))
def test_ce_loss_nonnegative_and_finite(y, p):
    loss = ce_loss(y, p)
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
    x = np.stack([featurizer.features(a, b).as_array() for a, b, _ in pairs])
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
    singles = [clf.classify(a, b) for a, b in report_pairs]
    assert batch == singles


def test_classifiers_count_ledger():
    pairs, embedder = _separable_pairs(n_each=3)
    model = train_classifier(pairs, embedder, ClassifierTrainConfig(epochs=5))
    clf = LogisticClassifier(model, PairFeaturizer(embedder))
    ledger = CostLedger()
    clf.classify(pairs[0][0], pairs[0][1], ledger)
    clf.classify_batch([(a, b) for a, b, _ in pairs], ledger)
    assert ledger.pair_classifications == 1 + len(pairs)
    assert ledger.embed_calls == 0


def test_similarity_classifier_threshold_rule():
    a = _report("b1", "crash heap", "overflow stack")
    b = _report("b2", "crash heap", "overflow stack")
    c = _report("b3", "render glitch", "shader artifact")
    featurizer = PairFeaturizer(_embedder(a, b, c, dim=512))
    clf = SimilarityClassifier(featurizer, similarity_threshold=0.5)
    prob_dup, label_dup = clf.classify(a, b)
    prob_neg, label_neg = clf.classify(a, c)
    assert label_dup and not label_neg
    assert prob_dup == pytest.approx(1.0)
    assert prob_neg == pytest.approx(0.5)  # cosine 0 maps to probability 0.5
    assert clf.threshold == pytest.approx(0.75)


def test_similarity_batch_matches_single():
    reports = [_report(f"b{i}", f"t{i} crash", f"d{i} shared") for i in range(5)]
    featurizer = PairFeaturizer(_embedder(*reports))
    clf = SimilarityClassifier(featurizer, similarity_threshold=0.3)
    pairs = [(reports[i], reports[(i + 1) % 5]) for i in range(5)]
    batch = clf.classify_batch(pairs)
    singles = [clf.classify(a, b) for a, b in pairs]
    for (pb, lb), (ps, ls) in zip(batch, singles):
        assert pb == pytest.approx(ps, abs=1e-12)
        assert lb == ls


def test_oracle_classifier_uses_ground_truth():
    reports = [
        _report("b1", "x", "y"),
        _report("b2", "x", "y", dup_of="b1"),
        _report("b3", "z", "w"),
    ]
    from bugdedup.corpus import build_corpus

    clusters = build_clusters(build_corpus(reports))
    clf = OracleClassifier(clusters)
    assert clf.classify(reports[0], reports[1]) == (1.0, True)
    assert clf.classify(reports[0], reports[2]) == (0.0, False)
    ledger = CostLedger()
    batch = clf.classify_batch([(reports[0], reports[1]), (reports[1], reports[2])], ledger)
    assert batch == [(1.0, True), (0.0, False)]
    assert ledger.pair_classifications == 2


def test_classify_symmetry():
    pairs, embedder = _separable_pairs(n_each=4)
    model = train_classifier(pairs, embedder, ClassifierTrainConfig(epochs=10))
    clf = LogisticClassifier(model, PairFeaturizer(embedder))
    sim = SimilarityClassifier(PairFeaturizer(embedder))
    for a, b, _ in pairs:
        assert clf.classify(a, b) == clf.classify(b, a)
        assert sim.classify(a, b) == sim.classify(b, a)


def test_classifier_save_load_roundtrip(tmp_path):
    pairs, embedder = _separable_pairs(n_each=4)
    model = train_classifier(
        pairs, embedder, ClassifierTrainConfig(epochs=15), dev_pairs=pairs
    )
    path = tmp_path / "classifier.json"
    save_classifier(model, path, extra={"note": "x"})
    again = load_classifier(path)
    np.testing.assert_array_equal(again.weights, model.weights)
    assert again.threshold == model.threshold
    assert again.loss_curve == model.loss_curve
    assert again.train_config == model.train_config


def test_classifier_config_json_roundtrip():
    cfg = ClassifierTrainConfig(learning_rate=0.1, epochs=9, batch_size=8, seed=2, threshold_step=0.05)
    assert ClassifierTrainConfig.from_json(cfg.to_json()) == cfg
