"""Scenario runner: cost closed forms, partition mechanics, determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugdedup import cascade as cascade_module
from bugdedup.cascade import (
    METHODS,
    ScenarioConfig,
    ScenarioError,
    _scrub_timings,
    canonical_scenario_bytes,
    classify_pairs,
    predict_cost,
    predict_cost_all_vs_all,
    run_all_vs_all,
    run_one_vs_all,
    run_partition,
    scenario_to_json,
)
from bugdedup.classifier import (
    LogisticClassifier,
    LogisticPairModel,
    OracleClassifier,
    PairFeaturizer,
    SimilarityClassifier,
)
from bugdedup.embedder import (
    ProjectedEmbedder,
    ProjectionModel,
    TfidfHashEmbedder,
    TrainConfig,
    initial_weights,
)
from bugdedup.ledger import CostLedger
from bugdedup.remote import RemoteClassifier, RemoteConfig
from bugdedup.retrieval import search
from bugdedup.synth import SynthConfig, synth_corpus

from helpers import (
    CountingEmbedder,
    classify_reply,
    fit_train_embedder,
    planted_pipeline,
    rankings,
    reference_cascade,
    reference_predict_cost_all_vs_all,
    reference_records,
    reference_scrub_timings,
    reports_of,
)


def _partition_setup(corpus, clusters, manifest, n, m):
    bugs = manifest.bugs_in(clusters, "test") + manifest.bugs_in(clusters, "dev")
    assert len(bugs) >= n + m, "fixture corpus too small for requested partition"
    queries = reports_of(corpus, bugs[:n])
    database = reports_of(corpus, bugs[n : n + m])
    return queries, database


@pytest.fixture(scope="module")
def setup(pipeline):
    corpus, clusters, manifest = pipeline
    embedder = fit_train_embedder(corpus, clusters, manifest, dim=128)
    similarity = SimilarityClassifier(PairFeaturizer(embedder), similarity_threshold=0.3)
    oracle = OracleClassifier(clusters)
    return corpus, clusters, manifest, embedder, similarity, oracle


def test_scenario_config_validation():
    ScenarioConfig(mode="one_vs_all", method="cascade", k=10)
    with pytest.raises(ScenarioError, match="mode"):
        ScenarioConfig(mode="sideways", method="cascade")
    with pytest.raises(ScenarioError, match="method"):
        ScenarioConfig(mode="one_vs_all", method="psychic")
    with pytest.raises(ScenarioError, match="k must be"):
        ScenarioConfig(mode="one_vs_all", method="cascade", k=0)
    # A count is an int: neither a fraction nor a bool, which would pass as 1.
    for field in ("k", "max_k"):
        for value in (2.5, True):
            with pytest.raises(ScenarioError, match=rf"^{field} must be an int >= 1, got {value!r}$"):
                ScenarioConfig(mode="one_vs_all", method="cascade", **{field: value})
    with pytest.raises(ScenarioError, match="exceeds the cap"):
        ScenarioConfig(mode="one_vs_all", method="cascade", k=500)
    with pytest.raises(ScenarioError, match="query_fraction"):
        ScenarioConfig(mode="one_vs_all", method="cascade", query_fraction=1.0)


def test_predict_cost_worked_example():
    # 2 queries, 10 database bugs, top-3 kept
    assert predict_cost("cascade", n=2, m=10, k=3) == {
        "embed_calls": 12,
        "pair_classifications": 6,
        "similarity_ops": 20,
    }
    assert predict_cost("classification_only", n=2, m=10) == {
        "embed_calls": 0,
        "pair_classifications": 20,
        "similarity_ops": 0,
    }
    assert predict_cost("retrieval_only", n=2, m=10) == {
        "embed_calls": 12,
        "pair_classifications": 0,
        "similarity_ops": 20,
    }


def test_predict_cost_clamps_k_to_database():
    assert predict_cost("cascade", n=4, m=10, k=100)["pair_classifications"] == 40


def test_predict_cost_validation():
    with pytest.raises(ValueError, match="unknown method"):
        predict_cost("nope", 1, 1)
    with pytest.raises(ValueError, match="must be >= 1"):
        predict_cost("retrieval_only", 0, 5)
    with pytest.raises(ValueError, match="cascade requires k"):
        predict_cost("cascade", 1, 5)


def test_predict_cost_all_vs_all():
    assert predict_cost_all_vs_all("cascade", m=10, k=3) == {
        "embed_calls": 10,
        "pair_classifications": 30,
        "similarity_ops": 90,
    }
    assert predict_cost_all_vs_all("classification_only", m=10) == {
        "embed_calls": 0,
        "pair_classifications": 90,
        "similarity_ops": 0,
    }
    assert predict_cost_all_vs_all("classification_only", m=10, dedup_pairs=True)[
        "pair_classifications"
    ] == 45
    assert predict_cost_all_vs_all("retrieval_only", m=10)["embed_calls"] == 10
    # k larger than the peer count saturates
    assert predict_cost_all_vs_all("cascade", m=5, k=100)["pair_classifications"] == 20


def test_predict_cost_all_vs_all_refuses_cascade_dedup():
    with pytest.raises(ValueError, match="no closed form"):
        predict_cost_all_vs_all("cascade", m=10, k=3, dedup_pairs=True)


def test_predict_cost_all_vs_all_equals_the_reference():
    for method in (*METHODS, "nope"):
        for m in range(13):
            for k in (None, *range(1, 16)):
                for dedup_pairs in (False, True):
                    got = want = ValueError
                    with contextlib.suppress(ValueError):
                        want = reference_predict_cost_all_vs_all(method, m, k, dedup_pairs)
                    with contextlib.suppress(ValueError):
                        got = predict_cost_all_vs_all(method, m, k, dedup_pairs)
                    assert got == want, (method, m, k, dedup_pairs)


@pytest.mark.parametrize("method", METHODS)
def test_partition_records_follow_the_given_query_order(setup, method):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    queries, database = _partition_setup(corpus, clusters, manifest, n=6, m=15)
    shuffled = [queries[i] for i in (3, 0, 5, 1, 4, 2)]
    assert [q.bug_id for q in queries] == sorted(q.bug_id for q in shuffled)
    got, got_ledger = run_partition(shuffled, database, clusters, embedder, similarity, method, k=4)
    want, want_ledger = run_partition(queries, database, clusters, embedder, similarity, method, k=4)
    got, want = got.records, want.records
    assert [r.query for r in got] == [q.bug_id for q in shuffled]
    assert sorted(got, key=lambda r: r.query) == want
    counters = ("embed_calls", "pair_classifications", "similarity_ops")
    assert [getattr(got_ledger, c) for c in counters] == [getattr(want_ledger, c) for c in counters]


@pytest.mark.parametrize("method", METHODS)
def test_partition_counters_match_closed_forms(setup, method):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    queries, database = _partition_setup(corpus, clusters, manifest, n=5, m=17)
    _, ledger = run_partition(
        queries, database, clusters, embedder, similarity, method, k=4
    )
    predicted = predict_cost(method, n=5, m=17, k=4)
    assert ledger.snapshot()["embed_calls"] == predicted["embed_calls"]
    assert ledger.snapshot()["pair_classifications"] == predicted["pair_classifications"]
    assert ledger.snapshot()["similarity_ops"] == predicted["similarity_ops"]


def test_partition_cascade_k_beyond_database(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    queries, database = _partition_setup(corpus, clusters, manifest, n=3, m=6)
    _, ledger = run_partition(
        queries, database, clusters, embedder, similarity, "cascade", k=50
    )
    assert ledger.pair_classifications == predict_cost("cascade", 3, 6, 50)["pair_classifications"]
    assert ledger.pair_classifications == 18


def test_partition_validates_inputs(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    queries, database = _partition_setup(corpus, clusters, manifest, n=2, m=4)
    with pytest.raises(ScenarioError, match="unknown method"):
        run_partition(queries, database, clusters, embedder, similarity, "nope", k=1)
    with pytest.raises(ScenarioError, match="nonempty"):
        run_partition([], database, clusters, embedder, similarity, "cascade", k=1)


def test_retrieval_records_keep_everything(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    queries, database = _partition_setup(corpus, clusters, manifest, n=4, m=12)
    outcome, _ = run_partition(
        queries, database, clusters, embedder, similarity, "retrieval_only", k=5
    )
    records = outcome.records
    assert len(records) == 4
    db_ids = {r.bug_id for r in database}
    for record in records:
        assert record.db_size == 12
        assert len(record.candidates) == 5
        assert all(kept for _, _, kept in record.candidates)
        scores = [s for _, s, _ in record.candidates]
        assert scores == sorted(scores, reverse=True)
        assert {c for c, _, _ in record.candidates} <= db_ids
        for peer in record.relevant:
            assert peer in db_ids
            assert clusters.same_cluster(record.query, peer)


def test_classification_only_scores_every_database_bug(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    queries, database = _partition_setup(corpus, clusters, manifest, n=3, m=9)
    outcome, ledger = run_partition(
        queries, database, clusters, embedder, similarity, "classification_only", k=2
    )
    assert ledger.embed_calls == 0
    assert ledger.similarity_ops == 0
    for record in outcome.records:
        assert len(record.candidates) == 9
        # ordered by descending probability, ties by id
        probs = [p for _, p, _ in record.candidates]
        assert probs == sorted(probs, reverse=True)


def test_cascade_with_oracle_keeps_only_true_peers(setup):
    corpus, clusters, manifest, embedder, _, oracle = setup
    queries, database = _partition_setup(corpus, clusters, manifest, n=8, m=30)
    outcome, _ = run_partition(
        queries, database, clusters, embedder, oracle, "cascade", k=10
    )
    for record in outcome.records:
        for candidate, _, kept in record.candidates:
            assert kept == clusters.same_cluster(record.query, candidate)


BACKENDS = ("logistic", "similarity", "oracle", "remote")


def _backend(name, setup, stub_service):
    _, clusters, _, embedder, _, _ = setup
    if name == "logistic":
        model = LogisticPairModel(np.array([2.0, 1.0, 0.5, -1.0, 3.0, -1.5]))
        return LogisticClassifier(model, PairFeaturizer(embedder))
    if name == "similarity":
        return SimilarityClassifier(PairFeaturizer(embedder), similarity_threshold=0.3)
    if name == "oracle":
        return OracleClassifier(clusters)
    stub_service.default = classify_reply()
    return RemoteClassifier(RemoteConfig(endpoint=stub_service.url))


def _set_threshold(backend, threshold):
    if isinstance(backend, LogisticClassifier):
        backend.model = dataclasses.replace(backend.model, threshold=threshold)
    elif isinstance(backend, SimilarityClassifier):
        # exact for thresholds in [0.5, 1]: 2t - 1 and back lose no bits
        backend.similarity_threshold = 2.0 * threshold - 1.0
    else:
        backend.threshold = threshold
    assert backend.threshold == threshold


def _peer_pairs(setup, n_others=6):
    """A query paired with one cluster peer and ``n_others`` other reports."""
    corpus, clusters, manifest, _, _, _ = setup
    cluster = next(c for c in manifest.clusters_in(clusters, "test") if c.size >= 2)
    query, peer = reports_of(corpus, cluster.members[:2])
    others = [
        r for r in reports_of(corpus, manifest.bugs_in(clusters, "dev"))
        if not clusters.same_cluster(query.bug_id, r.bug_id)
    ]
    return [(query, peer)] + [(query, r) for r in others[:n_others]]


@pytest.mark.parametrize("name", BACKENDS)
def test_runner_keeps_a_probability_at_the_threshold(setup, stub_service, name):
    backend = _backend(name, setup, stub_service)
    pairs = _peer_pairs(setup)
    probs = backend.classify_batch(pairs)
    assert probs.dtype == np.float64 and probs.shape == (len(pairs),)
    top = float(probs.max())
    assert 0.5 <= top <= 1.0
    ledger = CostLedger()
    _set_threshold(backend, top)
    verdicts = classify_pairs(backend, pairs, ledger)
    assert [p for p, _ in verdicts] == probs.tolist()
    assert [dup for _, dup in verdicts] == [p >= top for p in probs.tolist()]
    assert any(dup for _, dup in verdicts)
    # the same probabilities one float below the threshold are not kept
    _set_threshold(backend, float(np.nextafter(top, 2.0)))
    assert classify_pairs(backend, pairs, ledger) == [(p, False) for p in probs.tolist()]
    assert ledger.pair_classifications == 2 * len(pairs)


@pytest.mark.parametrize("name", BACKENDS)
def test_runner_counts_every_pair_sent(setup, stub_service, name):
    backend = _backend(name, setup, stub_service)
    ledger = CostLedger()
    pairs = _peer_pairs(setup, n_others=3)
    classify_pairs(backend, pairs, ledger)
    classify_pairs(backend, pairs[:2], ledger)
    assert ledger.pair_classifications == len(pairs) + 2
    # empty in, empty out, nothing counted
    empty = backend.classify_batch([])
    assert empty.dtype == np.float64 and empty.shape == (0,)
    assert classify_pairs(backend, [], ledger) == []
    assert classify_pairs(backend, [], ledger, {}) == []
    assert ledger.pair_classifications == len(pairs) + 2
    assert ledger.embed_calls == 0 and ledger.similarity_ops == 0


class _WrongShape:
    threshold = 0.5

    def classify_batch(self, pairs):
        return np.zeros(len(pairs) + 1)


def test_runner_rejects_scores_of_the_wrong_shape(setup):
    with pytest.raises(ScenarioError, match="shape"):
        classify_pairs(_WrongShape(), _peer_pairs(setup, n_others=2), CostLedger())


class _FixedScores:
    threshold = 0.5

    def __init__(self, scores):
        self.scores = np.array(scores)

    def classify_batch(self, pairs):
        return self.scores[: len(pairs)]


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), 1.5, -0.5, np.nextafter(1.0, 2.0), -5e-324]
)
def test_runner_rejects_a_score_that_is_not_finite(setup, bad):
    # Not finite, or outside [0, 1]: the error names the first such pair,
    # and nothing is counted or cached.
    pairs = _peer_pairs(setup, n_others=3)
    backend = _FixedScores([0.9, bad, 0.2, bad])
    ledger, cache = CostLedger(), {}
    a, b = pairs[1]
    for pair_cache in (None, cache):
        with pytest.raises(ScenarioError, match=f"{a.bug_id}, {b.bug_id}"):
            classify_pairs(backend, pairs, ledger, pair_cache)
    assert ledger.pair_classifications == 0 and cache == {}


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_similarity_self_pairs_at_dim_1024_stay_within_the_unit_interval(seed):
    # A report's cosine with itself can read 1 ulp above 1, which
    # (s + 1) / 2 rounds to exactly 1.0, so the runner's range check passes.
    corpus = synth_corpus(SynthConfig(n_clusters=120, seed=seed))
    embedder = TfidfHashEmbedder.fit([r.clean_text for r in corpus.reports], dim=1024)
    similarity = SimilarityClassifier(PairFeaturizer(embedder))
    ledger = CostLedger()
    verdicts = classify_pairs(similarity, [(r, r) for r in corpus.reports], ledger)
    assert ledger.pair_classifications == len(corpus.reports)
    assert max(p for p, _ in verdicts) == 1.0


@pytest.mark.parametrize("name", BACKENDS)
def test_runner_dedup_counts_each_unordered_pair_once(setup, stub_service, name):
    backend = _backend(name, setup, stub_service)
    pairs = _peer_pairs(setup, n_others=4)
    swapped = [(b, a) for a, b in pairs]
    ledger, cache = CostLedger(), {}
    first = classify_pairs(backend, pairs[:3], ledger, cache)
    # a batch of pairs seen before in either order, one new pair twice over
    again = classify_pairs(backend, swapped + [pairs[-1]], ledger, cache)
    assert ledger.pair_classifications == len(pairs)
    assert again[:3] == first
    assert again[-1] == again[len(pairs) - 1]
    assert again[: len(pairs)] == classify_pairs(backend, pairs, CostLedger())


def test_all_vs_all_dedup_halves_classifications(setup):
    corpus, clusters, manifest, _, similarity, _ = setup
    pool = reports_of(corpus, manifest.bugs_in(clusters, "dev"))[:12]
    _, ledger = run_partition(
        pool, pool, clusters, None, similarity, "classification_only",
        k=1, dedup_pairs=True,
    )
    assert ledger.pair_classifications == 12 * 11 // 2
    _, full = run_partition(
        pool, pool, clusters, None, similarity, "classification_only",
        k=1, dedup_pairs=False,
    )
    assert full.pair_classifications == 12 * 11


_WEIGHTS = np.array([2.0, 1.0, 0.5, -1.0, 3.0, -1.5])


class _Recording:
    """A pair scorer that records its batches and each pair's probability;
    every other attribute (``threshold``, ``featurizer``) is the inner one's."""

    def __init__(self, inner):
        self.inner = inner
        self.batches: list[int] = []
        self.scores: dict[tuple[str, str], float] = {}

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def classify_batch(self, pairs):
        probs = self.inner.classify_batch(pairs)
        self.batches.append(len(pairs))
        self.scores.update(((a.bug_id, b.bug_id), p) for (a, b), p in zip(pairs, probs.tolist()))
        return probs


def _mode_partition(setup, mode):
    corpus, clusters, manifest, _, _, _ = setup
    if mode == "one_vs_all":
        return _partition_setup(corpus, clusters, manifest, n=10, m=40)
    pool = reports_of(corpus, manifest.bugs_in(clusters, "test"))[:30]
    return pool, pool


def _fresh_scorer(name, setup, stub_service, embedder):
    """A new backend with a threshold inside its range of probabilities."""
    if name == "logistic":
        model = LogisticPairModel(_WEIGHTS, threshold=0.3)
        return _Recording(LogisticClassifier(model, PairFeaturizer(embedder)))
    backend = _backend(name, setup, stub_service)
    _set_threshold(backend, 0.75)
    return _Recording(backend)


@pytest.mark.parametrize("name", ["logistic", "remote"])
@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("mode", ["one_vs_all", "all_vs_all"])
@pytest.mark.parametrize("k", [1, 7])
def test_cascade_equals_one_batch_per_query(setup, stub_service, name, dedup, mode, k):
    _, clusters, _, embedder, _, _ = setup
    queries, database = _mode_partition(setup, mode)
    want_scorer = _fresh_scorer(name, setup, stub_service, embedder)
    want, want_ledger = reference_cascade(
        queries, database, clusters, embedder, want_scorer, k, dedup
    )
    got_scorer = _fresh_scorer(name, setup, stub_service, embedder)
    got, got_ledger = run_partition(
        queries, database, clusters, embedder, got_scorer, "cascade", k, dedup_pairs=dedup
    )
    got = got.records
    assert got == want
    counters = ("embed_calls", "pair_classifications", "similarity_ops")
    assert [getattr(got_ledger, c) for c in counters] == [getattr(want_ledger, c) for c in counters]
    assert got_scorer.scores == want_scorer.scores
    assert len(got_scorer.batches) == 1
    kept = [kept for r in got for _, _, kept in r.candidates]
    assert any(kept) and not all(kept)


@pytest.mark.parametrize("method", ["cascade", "classification_only"])
def test_cascade_scores_a_partition_in_one_batch(setup, method):
    corpus, clusters, manifest, embedder, _, oracle = setup
    one = ScenarioConfig(mode="one_vs_all", method=method, k=5, seed=3)
    every = ScenarioConfig(mode="all_vs_all", method=method, k=5, seed=3)
    for config, runner in ((one, run_one_vs_all), (every, run_all_vs_all)):
        scorer = _Recording(oracle)
        result = runner(config, manifest, clusters, corpus, embedder, scorer)
        if method == "cascade":
            assert scorer.batches == [result.ledger["pair_classifications"]]
        else:  # classification alone keeps one batch per query
            assert len(scorer.batches) == result.n_queries
            assert sum(scorer.batches) == result.ledger["pair_classifications"]


def _embedded_by_featurizer(records, reports):
    """The reports of a run's pairs, in the order the featurizer first sees them."""
    by_id = {r.bug_id: r for r in reports}
    ids = (
        bug_id
        for record in records
        for candidate, _, _ in record.candidates
        for bug_id in (record.query, candidate)
    )
    return [by_id[bug_id] for bug_id in dict.fromkeys(ids)]


@pytest.mark.parametrize("shared", [True, False])
def test_runner_hands_its_text_vectors_to_the_same_embedder(setup, shared):
    """With a TF-IDF embedder the runner reads each report's title and
    description once, in one token pass, takes its whole-text rows in one
    rows pass, and never embeds densely. When the featurizer's embedder is
    the same object, the runner hands it that token pass and those rows, so
    the featurizer makes only its parts' rows pass; otherwise the featurizer
    makes its own token pass and both of its rows passes."""
    _, clusters, _, embedder, _, _ = setup
    queries, database = _mode_partition(setup, "one_vs_all")
    runner_side = CountingEmbedder(embedder)
    featurizer_side = runner_side if shared else CountingEmbedder(embedder)
    model = LogisticPairModel(_WEIGHTS, threshold=0.3)
    scorer = LogisticClassifier(model, PairFeaturizer(featurizer_side))
    outcome, _ = run_partition(queries, database, clusters, runner_side, scorer, "cascade", k=6)
    records = outcome.records
    in_db = {r.bug_id for r in database}
    extra = [q for q in queries if q.bug_id not in in_db]
    embed_order = sorted(database, key=lambda r: r.bug_id) + sorted(extra, key=lambda r: r.bug_id)
    paired = _embedded_by_featurizer(records, embed_order)
    # The runner's token pass: the database in id order, then the other
    # queries in id order. The featurizer's own: each paired report, in the
    # order it first sees the report. Both read a title, then its description.
    embedded = [text for r in embed_order for text in (r.clean_title, r.clean_description)]
    fields = [text for r in paired for text in (r.clean_title, r.clean_description)]
    assert extra and runner_side.calls == featurizer_side.calls == []
    if shared:
        assert runner_side.token_calls == [embedded] and runner_side.rows_calls == 2
    else:
        assert runner_side.token_calls == [embedded] and runner_side.rows_calls == 1
        assert featurizer_side.token_calls == [fields] and featurizer_side.rows_calls == 2
    want, _ = reference_cascade(
        queries, database, clusters, embedder,
        LogisticClassifier(model, PairFeaturizer(embedder)), k=6,
    )
    assert records == want


def _scorer(name, featurizer):
    if name == "logistic":
        return LogisticClassifier(LogisticPairModel(_WEIGHTS, threshold=0.3), featurizer)
    return SimilarityClassifier(featurizer, similarity_threshold=0.3)


def _assert_equals_a_fresh_featurizer(featurizer, embedder, reports):
    """``featurizer``'s features and cosines of every pair of ``reports``
    equal, byte for byte, those of a featurizer that reads them itself."""
    pairs = [(a, b) for i, a in enumerate(reports) for b in reports[i + 1 :]]
    fresh = PairFeaturizer(embedder)
    assert featurizer.feature_matrix(pairs).tobytes() == fresh.feature_matrix(pairs).tobytes()
    assert featurizer.cosine_all_batch(pairs).tobytes() == fresh.cosine_all_batch(pairs).tobytes()


@pytest.mark.parametrize("name", ["logistic", "similarity"])
@pytest.mark.parametrize("mode", ["one_vs_all", "all_vs_all"])
def test_a_handed_over_featurizer_equals_a_fresh_one_bit_for_bit(setup, mode, name):
    """The featurizer holds every embedded report after the runner's one
    token pass, and its features are a fresh featurizer's."""
    _, clusters, _, embedder, _, _ = setup
    queries, database = _mode_partition(setup, mode)
    counting = CountingEmbedder(embedder)
    featurizer = PairFeaturizer(counting)
    run_partition(queries, database, clusters, counting, _scorer(name, featurizer), "cascade", 6)
    embedded = list({r.bug_id: r for r in [*database, *queries]}.values())
    assert len(counting.token_calls) == 1 and counting.rows_calls == 2
    assert set(featurizer._row) == {r.bug_id for r in embedded}
    _assert_equals_a_fresh_featurizer(featurizer, embedder, embedded)
    assert len(counting.token_calls) == 1


class _Unwarmed:
    """A pair scorer with no ``featurizer`` for the runner to warm, so its
    featurizer reads the new reports of each batch itself."""

    def __init__(self, inner):
        self.inner = inner
        self.threshold = inner.threshold

    def classify_batch(self, pairs):
        return self.inner.classify_batch(pairs)


@pytest.mark.parametrize("name", ["logistic", "similarity"])
@pytest.mark.parametrize("mode", ["one_vs_all", "all_vs_all"])
def test_classification_alone_warms_its_featurizer_once_per_partition(setup, mode, name):
    """Classification alone warms the scorer's featurizer with the whole
    partition before its per-query batches: one token pass, and the
    outcome of a featurizer warmed batch by batch, bit for bit."""
    _, clusters, _, embedder, _, _ = setup
    queries, database = _mode_partition(setup, mode)
    counting = CountingEmbedder(embedder)
    scorer = _scorer(name, PairFeaturizer(counting))
    got, ledger = run_partition(
        queries, database, clusters, embedder, scorer, "classification_only", 6
    )
    assert len(counting.token_calls) == 1 and counting.rows_calls == 2
    batched = CountingEmbedder(embedder)
    want, want_ledger = run_partition(
        queries, database, clusters, embedder,
        _Unwarmed(_scorer(name, PairFeaturizer(batched))), "classification_only", 6,
    )
    # One-vs-all meets a new query in every batch; all-vs-all meets every
    # report in its first.
    assert len(batched.token_calls) == (len(queries) if mode == "one_vs_all" else 1)
    for column in ("ptr", "rows", "scores", "kept"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
    assert ledger.pair_classifications == want_ledger.pair_classifications


def test_a_featurizer_reused_across_overlapping_partitions_reads_only_new_reports(setup):
    corpus, clusters, manifest, embedder, _, _ = setup
    bugs = reports_of(corpus, manifest.bugs_in(clusters, "test") + manifest.bugs_in(clusters, "dev"))
    assert len(bugs) >= 60
    counting = CountingEmbedder(embedder)
    featurizer = PairFeaturizer(counting)
    scorer = _scorer("logistic", featurizer)
    for queries, database in ((bugs[:10], bugs[10:40]), (bugs[30:40], bugs[20:60])):
        outcome, _ = run_partition(queries, database, clusters, counting, scorer, "cascade", 6)
    # The second partition's database and queries share 20 reports with the
    # first's, and the featurizer stores each report once.
    assert len(counting.token_calls) == 2 and counting.rows_calls == 4
    assert set(featurizer._row) == {r.bug_id for r in bugs[:60]}
    assert featurizer._texts.count == featurizer._tokens.count == 60
    fresh = _scorer("logistic", PairFeaturizer(embedder))
    want, _ = run_partition(queries, database, clusters, embedder, fresh, "cascade", 6)
    assert outcome.records == want.records
    _assert_equals_a_fresh_featurizer(featurizer, embedder, bugs[:60])


def test_an_equal_but_distinct_embedder_gets_no_hand_over(setup):
    _, clusters, _, embedder, _, _ = setup
    twin = TfidfHashEmbedder(dim=embedder.dim, doc_count=embedder.doc_count, df=embedder.df)
    assert twin == embedder and twin is not embedder
    queries, database = _mode_partition(setup, "one_vs_all")
    featurizer = PairFeaturizer(twin)
    outcome, _ = run_partition(
        queries, database, clusters, embedder, _scorer("logistic", featurizer), "cascade", 6
    )
    # The featurizer read only the reports of the pairs it scored.
    paired = {b for r in outcome.records for c, _, _ in r.candidates for b in (r.query, c)}
    assert set(featurizer._row) == paired < {r.bug_id for r in [*queries, *database]}
    _assert_equals_a_fresh_featurizer(featurizer, embedder, [*queries, *database])


@pytest.mark.parametrize("mode", ["one_vs_all", "all_vs_all"])
def test_a_handed_over_featurizer_leaves_the_ledger_at_its_closed_form(setup, mode):
    """The featurizer's rows are its own business: the ledger counts n + m
    embeddings however many reports the featurizer keeps."""
    _, clusters, _, embedder, _, _ = setup
    queries, database = _mode_partition(setup, mode)
    scorer = _scorer("logistic", PairFeaturizer(embedder))
    _, ledger = run_partition(queries, database, clusters, embedder, scorer, "cascade", 6)
    if mode == "one_vs_all":
        want = predict_cost("cascade", len(queries), len(database), 6)
    else:
        want = predict_cost_all_vs_all("cascade", len(database), 6)
    assert {key: getattr(ledger, key) for key in want} == want


@pytest.mark.parametrize("mode", ["one_vs_all", "all_vs_all"])
def test_an_embedder_without_a_token_pass_reaches_dense_search(setup, monkeypatch, mode):
    """A ``ProjectedEmbedder`` has no ``token_ids``, so the runner embeds
    densely and ranks with ``search``: one call, whose rankings are the
    records'."""
    _, clusters, _, embedder, _, _ = setup
    weights = initial_weights(embedder.dim, 16, seed=4)
    projected = ProjectedEmbedder(embedder, ProjectionModel(weights, 0.2, TrainConfig(dim_out=16)))
    queries, database = _mode_partition(setup, mode)
    found = []

    def recording(*args):
        found.append(search(*args))
        return found[-1]

    monkeypatch.setattr(cascade_module, "search", recording)
    monkeypatch.setattr(cascade_module, "search_rows", None)  # the sparse path would fail
    outcome, ledger = run_partition(queries, database, clusters, projected, None, "retrieval_only", 5)
    assert len(found) == 1
    want = rankings(sorted(r.bug_id for r in database), found[0])
    assert [tuple((b, s) for b, s, _ in r.candidates) for r in outcome.records] == want
    assert ledger.embed_calls == len({r.bug_id for r in [*queries, *database]})


@pytest.mark.parametrize("name", ["logistic", "similarity"])
@pytest.mark.parametrize("mode", ["one_vs_all", "all_vs_all"])
def test_cascade_keeps_what_classification_alone_keeps_in_the_top_k(setup, name, mode):
    """For every query and k, the cascade keeps exactly the top-k candidates
    that classification alone keeps, and at k >= m both keep the same set.
    The cascade scores one batch of n*k pairs and classification alone one
    batch per query, so this rests on no pair's score depending on its batch."""
    _, clusters, _, embedder, _, _ = setup
    queries, database = _mode_partition(setup, mode)
    m = len(database) - (mode == "all_vs_all")

    def scorer():
        if name == "logistic":
            return LogisticClassifier(LogisticPairModel(_WEIGHTS, threshold=0.3), PairFeaturizer(embedder))
        return SimilarityClassifier(PairFeaturizer(embedder), similarity_threshold=0.3)

    alone, _ = run_partition(
        queries, database, clusters, embedder, scorer(), "classification_only", 1
    )
    kept_alone = {r.query: {b for b, _, kept in r.candidates if kept} for r in alone.records}
    kept_count = sum(map(len, kept_alone.values()))
    assert 0 < kept_count < len(queries) * m  # the threshold splits the pairs
    for k in range(1, m + 2):
        cascade, _ = run_partition(
            queries, database, clusters, embedder, scorer(), "cascade", k
        )
        for record in cascade.records:
            top_k = {b for b, _, _ in record.candidates}
            assert len(top_k) == min(k, m)
            kept = {b for b, _, dup in record.candidates if dup}
            assert kept == kept_alone[record.query] & top_k, (record.query, k)
            if k >= m:
                assert kept == kept_alone[record.query]


def test_one_vs_all_partition_shape(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    config = ScenarioConfig(mode="one_vs_all", method="retrieval_only", k=5, seed=9)
    result = run_one_vs_all(config, manifest, clusters, corpus, embedder, similarity)
    pool = manifest.bugs_in(clusters, "test")
    assert result.n_queries == round(0.2 * len(pool))
    assert result.db_size == len(pool) - result.n_queries
    query_ids = {r.query for r in result.records}
    assert len(query_ids) == result.n_queries
    assert result.ledger["embed_calls"] == result.n_queries + result.db_size
    assert len(result.metric_rows) == 5
    assert [row.k for row in result.metric_rows] == [1, 2, 3, 4, 5]


def test_one_vs_all_exclude_independents_shrinks_pool(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    base = ScenarioConfig(mode="one_vs_all", method="retrieval_only", k=3, seed=9)
    no_ind = ScenarioConfig(
        mode="one_vs_all", method="retrieval_only", k=3, seed=9, include_independents=False
    )
    with_ind = run_one_vs_all(base, manifest, clusters, corpus, embedder, similarity)
    without = run_one_vs_all(no_ind, manifest, clusters, corpus, embedder, similarity)
    independents_in_test = sum(
        1 for _, s in manifest.independent_assignment.items() if s == "test"
    )
    assert independents_in_test > 0
    total_with = with_ind.n_queries + with_ind.db_size
    total_without = without.n_queries + without.db_size
    assert total_with - total_without == independents_in_test


def test_one_vs_all_rejects_wrong_mode(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    config = ScenarioConfig(mode="all_vs_all", method="cascade", k=2)
    with pytest.raises(ScenarioError, match="config.mode"):
        run_one_vs_all(config, manifest, clusters, corpus, embedder, similarity)


def test_one_vs_all_rejects_degenerate_fraction(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    config = ScenarioConfig(
        mode="one_vs_all", method="retrieval_only", k=2, query_fraction=0.001
    )
    with pytest.raises(ScenarioError, match="empty side"):
        run_one_vs_all(config, manifest, clusters, corpus, embedder, similarity)


def test_all_vs_all_excludes_self(setup):
    corpus, clusters, manifest, embedder, similarity, oracle = setup
    config = ScenarioConfig(mode="all_vs_all", method="cascade", k=4, seed=2)
    result = run_all_vs_all(config, manifest, clusters, corpus, embedder, oracle)
    pool_size = result.n_queries
    assert result.db_size == pool_size
    prediction = predict_cost_all_vs_all("cascade", m=pool_size, k=4)
    assert result.ledger["embed_calls"] == prediction["embed_calls"]
    assert result.ledger["pair_classifications"] == prediction["pair_classifications"]
    assert result.ledger["similarity_ops"] == prediction["similarity_ops"]
    for record in result.records:
        assert record.query not in {c for c, _, _ in record.candidates}
        assert record.db_size == pool_size - 1


def test_classification_only_rows_ignore_k(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    config = ScenarioConfig(mode="one_vs_all", method="classification_only", k=7, seed=4)
    result = run_one_vs_all(config, manifest, clusters, corpus, embedder, similarity)
    assert len(result.metric_rows) == 1
    assert result.metric_rows[0].k == 7
    assert result.ledger["pair_classifications"] == result.n_queries * result.db_size


def test_queries_without_peers_counted(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    config = ScenarioConfig(mode="one_vs_all", method="retrieval_only", k=3, seed=9)
    result = run_one_vs_all(config, manifest, clusters, corpus, embedder, similarity)
    manual = sum(1 for r in result.records if not r.relevant)
    assert result.queries_without_peers == manual


@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("mode", ["one_vs_all", "all_vs_all"])
def test_records_and_per_query_json_equal_the_tuple_path(setup, mode, method, dedup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    config = ScenarioConfig(mode=mode, method=method, k=6, seed=7, dedup_pairs=dedup)
    runner = run_one_vs_all if mode == "one_vs_all" else run_all_vs_all
    result = runner(config, manifest, clusters, corpus, embedder, similarity)
    pool = manifest.bugs_in(clusters, "test")
    queries = [corpus.by_id[r.query] for r in result.records]
    if mode == "one_vs_all":
        database = reports_of(corpus, sorted(set(pool) - {q.bug_id for q in queries}))
    else:
        assert [q.bug_id for q in queries] == pool
        database = reports_of(corpus, pool)
    want = reference_records(queries, database, clusters, embedder, similarity, method, 6, dedup)
    assert result.records == want
    kept = [kept for r in want for _, _, kept in r.candidates]
    assert any(kept) and (method == "retrieval_only") != (not all(kept))
    assert any(r.relevant for r in want) and not all(r.relevant for r in want)
    assert scenario_to_json(result)["per_query"] == [
        {
            "query": r.query,
            "relevant": list(r.relevant),
            "db_size": r.db_size,
            "candidates": [[b, s, kept] for b, s, kept in r.candidates],
        }
        for r in want
    ]


def test_scenario_json_structure(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    config = ScenarioConfig(mode="one_vs_all", method="cascade", k=3, seed=1)
    result = run_one_vs_all(config, manifest, clusters, corpus, embedder, similarity)
    payload = scenario_to_json(result)
    assert payload["config"] == config.to_json()
    assert payload["n_queries"] == result.n_queries
    assert len(payload["per_query"]) == result.n_queries
    for row in payload["metrics"]:
        assert row["method"] == "cascade"
        assert row["embed_calls"] == result.ledger["embed_calls"]
        assert row["pair_classifications"] == result.ledger["pair_classifications"]
    assert "total" in payload["timing_ms"]


def test_canonical_bytes_ignore_timings_only(setup):
    corpus, clusters, manifest, embedder, similarity, _ = setup
    config = ScenarioConfig(mode="one_vs_all", method="cascade", k=3, seed=1)
    a = scenario_to_json(run_one_vs_all(config, manifest, clusters, corpus, embedder, similarity))
    b = scenario_to_json(run_one_vs_all(config, manifest, clusters, corpus, embedder, similarity))
    assert a["timing_ms"] != b["timing_ms"] or a == b  # timings are physical
    assert canonical_scenario_bytes(a) == canonical_scenario_bytes(b)
    mutated = json.loads(json.dumps(a))
    mutated["metrics"][0]["recall"] = -1.0
    assert canonical_scenario_bytes(mutated) != canonical_scenario_bytes(a)


_KEYS = st.sampled_from(
    ["wall_clock_ms", "timing_ms", "avg_query_ms", "total", "total_ms", "k", "ledger", "metrics"]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(payload=st.dictionaries(_KEYS, _PAYLOADS, max_size=5))
def test_scrub_timings_equals_the_two_walkers_it_replaced(payload):
    before = json.dumps(payload, sort_keys=True)
    got = json.dumps(_scrub_timings(payload), sort_keys=True)
    assert got == json.dumps(reference_scrub_timings(payload), sort_keys=True)
    assert json.dumps(payload, sort_keys=True) == before


def test_pipeline_reruns_are_byte_identical():
    # independent rebuilds of corpus, manifest, and scenario must agree
    results = []
    for _ in range(2):
        corpus, clusters, manifest = planted_pipeline(n_clusters=40, target_dup_ratio=0.4)
        embedder = fit_train_embedder(corpus, clusters, manifest, dim=64)
        similarity = SimilarityClassifier(PairFeaturizer(embedder), similarity_threshold=0.3)
        config = ScenarioConfig(mode="one_vs_all", method="cascade", k=4, seed=6)
        result = run_one_vs_all(config, manifest, clusters, corpus, embedder, similarity)
        results.append(scenario_to_json(result))
    assert canonical_scenario_bytes(results[0]) == canonical_scenario_bytes(results[1])
