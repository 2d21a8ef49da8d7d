"""Acceptance gate: one test per shipped guarantee, tightest stated tolerance.

Each test prints a short measured summary so a -rA run shows the numbers
behind the pass/fail line. Corpora, seeds, and training budgets are fixed;
every check below is deterministic end to end.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from bugdedup.cascade import (
    ScenarioConfig,
    canonical_scenario_bytes,
    classify_pairs,
    predict_cost,
    predict_cost_all_vs_all,
    run_all_vs_all,
    run_one_vs_all,
    run_partition,
)
from bugdedup.classifier import (
    FEATURE_COUNT,
    ClassifierTrainConfig,
    LogisticClassifier,
    OracleClassifier,
    PairFeaturizer,
    SimilarityClassifier,
    _mean_ce,
    _sigmoid,
    train_classifier,
)
from bugdedup.corpus import BugReport
from bugdedup.dup_graph import build_clusters
from bugdedup.embedder import (
    ProjectedEmbedder,
    TfidfHashEmbedder,
    TrainConfig,
    _batch_gradient,
    _pass_losses,
    initial_weights,
    train_projection,
)
from bugdedup.metrics import ConfusionMatrix, aggregate_curves, classification_metrics
from bugdedup.ledger import CostLedger
from bugdedup.retrieval import search
from bugdedup.splitter import SPLITS, build_manifest, split_clusters
from bugdedup.synth import SynthConfig, synth_corpus
from bugdedup import cli

from helpers import (
    columnar,
    fit_train_embedder,
    outcome,
    planted_pipeline,
    rankings,
    resolve_pairs,
)


@pytest.fixture(scope="module")
def big_pool():
    """2400+ bug corpus backing the cost-grid and wall-clock checks."""
    corpus = synth_corpus(SynthConfig(n_clusters=700, seed=42, description_words=12))
    clusters = build_clusters(corpus)
    reports = sorted(corpus.by_id.values(), key=lambda r: r.bug_id)
    embedder = TfidfHashEmbedder.fit([r.clean_text for r in reports[:500]], dim=64)
    similarity = SimilarityClassifier(PairFeaturizer(embedder), similarity_threshold=0.3)
    return corpus, clusters, reports, embedder, similarity


def test_1_no_split_leakage_across_500_corpora():
    """500 seeded corpora, 50-500 clusters: splits disjoint, clusters pure."""
    start = time.monotonic()
    rng = np.random.default_rng(987)
    for _ in range(500):
        n_clusters = int(rng.integers(50, 501))
        corpus = synth_corpus(
            SynthConfig(
                n_clusters=n_clusters,
                mean_size=2.5,
                description_words=3,
                n_independents=10,
                seed=int(rng.integers(1 << 30)),
            )
        )
        clusters = build_clusters(corpus)
        manifest = split_clusters(clusters, seed=int(rng.integers(1 << 30)))
        members = {s: set(manifest.bugs_in(clusters, s)) for s in SPLITS}
        assert not members["train"] & members["dev"]
        assert not members["train"] & members["test"]
        assert not members["dev"] & members["test"]
        assert members["train"] | members["dev"] | members["test"] == set(corpus.by_id)
        for cluster in clusters.clusters:
            touched = {s for s in SPLITS if any(m in members[s] for m in cluster.members)}
            assert len(touched) == 1, f"cluster {cluster.cluster_id} straddles {touched}"
    elapsed = time.monotonic() - start
    print(f"[1] 500 corpora leak-free in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_2_pair_counts_balance_and_ratio_are_exact():
    """Duplicate pair counts, negative validity, balance, and dup-ratio bound."""
    target = 0.1564
    for i in range(8):
        corpus, clusters, manifest = planted_pipeline(
            n_clusters=90, corpus_seed=50 + i, split_seed=i,
            description_words=8, target_dup_ratio=target,
        )
        for split in SPLITS:
            pairs = manifest.pairs[split]
            dup = [p for p in pairs if p.duplicate]
            neg = [p for p in pairs if not p.duplicate]
            expected = sum(
                c.size * (c.size - 1) // 2 for c in manifest.clusters_in(clusters, split)
            )
            assert len(dup) == expected
            for p in dup:
                assert clusters.same_cluster(p.bug_a, p.bug_b)
            for p in neg:
                assert not clusters.same_cluster(p.bug_a, p.bug_b)
            if split == "train":
                assert len(neg) == len(dup)
            else:
                total = len(pairs)
                assert abs(len(dup) / total - target) <= 1.0 / total
    print("[2] pair counts exact on 8 pipelines (3 splits each)")


def test_3_cost_ledger_matches_closed_forms_exactly(big_pool, pipeline, train_embedder):
    """Every (n, m, k) grid point and both scenario modes, zero tolerance."""
    corpus, clusters, reports, embedder, similarity = big_pool
    checked = 0
    for n in (1, 2, 10, 100):
        for m in (10, 100, 2000):
            queries, database = reports[:n], reports[n : n + m]
            for method in ("retrieval_only", "classification_only", "cascade"):
                for k in (1, 3, 20, 100):
                    _, ledger = run_partition(
                        queries, database, clusters, embedder, similarity, method, k=k
                    )
                    snap = ledger.snapshot()
                    want = predict_cost(method, n, m, k)
                    got = {key: snap[key] for key in want}
                    assert got == want, f"(n={n}, m={m}, k={k}, {method}): {got} != {want}"
                    checked += 1

    corpus_s, clusters_s, manifest_s = pipeline
    for mode, runner, predictor in (
        ("one_vs_all", run_one_vs_all, None),
        ("all_vs_all", run_all_vs_all, None),
    ):
        for method in ("retrieval_only", "classification_only", "cascade"):
            config = ScenarioConfig(mode=mode, method=method, k=7, seed=3)
            result = runner(config, manifest_s, clusters_s, corpus_s, train_embedder, similarity)
            if mode == "one_vs_all":
                want = predict_cost(method, result.n_queries, result.db_size, 7)
            else:
                want = predict_cost_all_vs_all(method, result.n_queries, 7)
            got = {key: result.ledger[key] for key in want}
            assert got == want, f"{mode}/{method}: {got} != {want}"
            checked += 1
    print(f"[3] {checked} runs matched closed-form counters exactly")


def test_4_cascade_halves_exhaustive_wall_clock(big_pool):
    """m=2000, n=100, k=20, trained classifier: cascade <= 0.5x exhaustive."""
    start = time.monotonic()
    corpus, clusters, reports, _, _ = big_pool
    manifest = build_manifest(clusters, seed=1)
    base = TfidfHashEmbedder.fit(
        [corpus.by_id[b].clean_text for b in manifest.bugs_in(clusters, "train")], dim=256
    )
    model = train_classifier(
        resolve_pairs(corpus, manifest.pairs["train"]),
        base,
        ClassifierTrainConfig(epochs=30, batch_size=64, seed=5),
    )
    logistic = LogisticClassifier(model, PairFeaturizer(base))
    queries, database = reports[:100], reports[100:2100]

    t0 = time.monotonic()
    _, cascade_ledger = run_partition(
        queries, database, clusters, base, logistic, "cascade", k=20
    )
    cascade_s = time.monotonic() - t0
    t0 = time.monotonic()
    _, exhaustive_ledger = run_partition(
        queries, database, clusters, base, logistic, "classification_only", k=20
    )
    exhaustive_s = time.monotonic() - t0
    total = time.monotonic() - start

    assert cascade_ledger.pair_classifications == 100 * 20
    assert exhaustive_ledger.pair_classifications == 100 * 2000
    print(
        f"[4] cascade {cascade_s:.2f}s vs exhaustive {exhaustive_s:.2f}s "
        f"(ratio {cascade_s / exhaustive_s:.3f}), setup+run {total:.1f}s"
    )
    assert cascade_s <= 0.5 * exhaustive_s
    assert total < 300.0


def _brute_decision_metrics(decisions):
    tp = sum(1 for pred, truth in decisions if pred and truth)
    fp = sum(1 for pred, truth in decisions if pred and not truth)
    fn = sum(1 for pred, truth in decisions if not pred and truth)
    tn = sum(1 for pred, truth in decisions if not pred and not truth)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    p0 = precision or 0.0
    r0 = recall or 0.0
    f1 = 2 * p0 * r0 / (p0 + r0) if p0 + r0 else None
    accuracy = (tp + tn) / len(decisions)
    return (tp, fp, fn, tn), precision, recall, f1, accuracy


def _assert_agrees(value, brute, flag_name, flags):
    if brute is None:
        assert flag_name in flags
        assert value == 0.0
    else:
        assert abs(value - brute) <= 1e-12


def test_5_metrics_match_brute_force_on_1000_instances():
    """Raw decision/ranking lists recomputed from scratch; |delta| <= 1e-12."""
    rng = np.random.default_rng(505)
    instances = 0

    for _ in range(500):
        n = int(rng.integers(1, 40))
        decisions = [(bool(rng.integers(2)), bool(rng.integers(2))) for _ in range(n)]
        counts, precision, recall, f1, accuracy = _brute_decision_metrics(decisions)
        cm = ConfusionMatrix.from_decisions(decisions)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == counts
        row = classification_metrics(cm)
        _assert_agrees(row.precision, precision, "precision", row.zero_denominator)
        _assert_agrees(row.recall, recall, "recall", row.zero_denominator)
        _assert_agrees(row.f1, f1, "f1", row.zero_denominator)
        assert abs(row.accuracy - accuracy) <= 1e-12
        instances += 1

    while instances < 1000:
        group = []
        raw = []
        for _ in range(int(rng.integers(1, 6))):
            db = int(rng.integers(2, 30))
            ids = [f"x{j}" for j in rng.permutation(db)]
            n_cand = int(rng.integers(1, db + 1))
            candidates = ids[:n_cand]
            kept = [bool(rng.integers(2)) for _ in range(n_cand)]
            n_rel = int(rng.integers(0, db + 1))
            relevant = frozenset(str(x) for x in rng.choice(ids, size=n_rel, replace=False))
            group.append(outcome("q", tuple(candidates), tuple(kept), relevant, db))
            raw.append((ids, candidates, kept, relevant))
            instances += 1
        ks = sorted({int(rng.integers(1, 35)) for _ in range(3)})
        rows = aggregate_curves(columnar(group), ks)
        for k, row in zip(ks, rows):
            pooled = (0, 0, 0, 0)
            recalls, precisions = [], []
            for ids, candidates, kept, relevant in raw:
                predicted = {c for c, keep in zip(candidates[:k], kept[:k]) if keep}
                tp = len(predicted & relevant)
                fp = len(predicted - relevant)
                fn = len(relevant - predicted)
                tn = len([i for i in ids if i not in predicted and i not in relevant])
                pooled = tuple(a + b for a, b in zip(pooled, (tp, fp, fn, tn)))
                if relevant:
                    recalls.append(tp / len(relevant))
                precisions.append(tp / k)
            assert (row.tp, row.fp, row.fn, row.tn) == pooled
            brute = classification_metrics(ConfusionMatrix(*pooled), k=k)
            for name in ("precision", "recall", "f1", "accuracy"):
                assert abs(getattr(row, name) - getattr(brute, name)) <= 1e-12
            assert abs(row.macro_precision - sum(precisions) / len(precisions)) <= 1e-12
            if recalls:
                assert abs(row.macro_recall - sum(recalls) / len(recalls)) <= 1e-12
            else:
                assert row.macro_recall is None

        ids, candidates, kept, relevant = raw[0]
        if relevant:
            # the same list ranked and kept in full: recall@k and precision@k
            query = outcome("q", tuple(candidates), (True,) * len(candidates), relevant, len(ids))
            for k, row in zip(ks, aggregate_curves(columnar([query]), ks)):
                hits = len(set(candidates[:k]) & relevant)
                assert row.tp == hits
                assert abs(row.macro_recall - hits / len(relevant)) <= 1e-12
                assert abs(row.macro_precision - hits / k) <= 1e-12
    print(f"[5] {instances} instances agreed with brute force within 1e-12")


def test_6_retrieval_recall_properties_and_full_sort_oracle(pipeline, train_embedder):
    """Monotone recall curves, terminal recall 1.0, top-k == full sort."""
    rng = np.random.default_rng(606)
    for trial in range(200):
        n = int(rng.integers(2, 40))
        dim = int(rng.integers(2, 10))
        matrix = rng.normal(size=(n, dim))
        for i in range(n):
            if rng.random() < 0.08:
                matrix[i] = 0.0
        ids = sorted(f"v{j}" for j in rng.permutation(n))
        query = np.zeros(dim) if rng.random() < 0.05 else rng.normal(size=dim)
        exclude = ids[int(rng.integers(n))] if rng.random() < 0.3 else None

        vectors = np.vstack([matrix, query])
        ranked = rankings(ids, search(vectors, ids, [n], n, [exclude or "q"]))[0]
        qn = float(np.linalg.norm(query))
        norms = np.linalg.norm(matrix, axis=1)
        raw = matrix @ query
        scores = {
            bug_id: (
                float(raw[i] / (norms[i] * qn)) if qn > 0.0 and norms[i] > 0.0 else -np.inf
            )
            for i, bug_id in enumerate(ids)
        }
        oracle = sorted(
            ((b, s) for b, s in scores.items() if b != exclude),
            key=lambda t: (-t[1], t[0]),
        )
        assert [b for b, _ in ranked] == [b for b, _ in oracle]

        population = [b for b in ids if b != exclude]
        n_rel = int(rng.integers(1, len(population) + 1))
        relevant = set(
            str(x) for x in rng.choice(population, size=n_rel, replace=False)
        )
        ranked_query = outcome(
            "q",
            [b for b, _ in ranked],
            (True,) * len(ranked),
            frozenset(relevant),
            len(population),
        )
        rows = aggregate_curves(columnar([ranked_query]), range(1, len(population) + 1))
        curve = [row.macro_recall for row in rows]
        assert curve == [row.recall for row in rows]
        assert curve == sorted(curve)
        assert curve[-1] == 1.0

    config = ScenarioConfig(mode="one_vs_all", method="retrieval_only", k=100, seed=9)
    corpus, clusters, manifest = pipeline
    similarity = SimilarityClassifier(PairFeaturizer(train_embedder))
    result = run_one_vs_all(config, manifest, clusters, corpus, train_embedder, similarity)
    recalls = [row.recall for row in result.metric_rows]
    assert recalls == sorted(recalls)
    print("[6] 200 random indexes matched the full-sort oracle; curves monotone")


def test_7_cascade_bounds_recall_and_lifts_precision_over_5_seeds():
    """Cascade recall <= retrieval recall at every k; precision >= on 4/5 seeds;
    oracle-filtered cascade has zero false positives."""
    precision_wins = 0
    for i in range(5):
        corpus, clusters, manifest = planted_pipeline(
            n_clusters=120, corpus_seed=200 + i, split_seed=13 + i, ratios=(0.4, 0.2, 0.4)
        )
        base = fit_train_embedder(corpus, clusters, manifest, dim=256)
        model = train_classifier(
            resolve_pairs(corpus, manifest.pairs["train"]),
            base,
            ClassifierTrainConfig(learning_rate=0.5, epochs=60, batch_size=32, seed=5),
            dev_pairs=resolve_pairs(corpus, manifest.pairs["dev"]),
        )
        logistic = LogisticClassifier(model, PairFeaturizer(base))
        oracle = OracleClassifier(clusters)

        def scenario(method, classifier):
            config = ScenarioConfig(mode="one_vs_all", method=method, k=100, seed=31)
            return run_one_vs_all(config, manifest, clusters, corpus, base, classifier)

        retrieval = scenario("retrieval_only", logistic)
        cascade = scenario("cascade", logistic)
        oracled = scenario("cascade", oracle)

        for c_row, r_row in zip(cascade.metric_rows, retrieval.metric_rows):
            assert c_row.k == r_row.k
            assert c_row.recall <= r_row.recall + 1e-15
        if all(
            c_row.precision >= r_row.precision - 1e-15
            for c_row, r_row in zip(cascade.metric_rows, retrieval.metric_rows)
        ):
            precision_wins += 1
        assert sum(row.fp for row in oracled.metric_rows) == 0
    print(f"[7] recall bounded on 5/5 seeds; precision lifted on {precision_wins}/5")
    assert precision_wins >= 4


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / scale).max())


def test_8_gradients_projection_gain_and_separable_convergence():
    """Gradcheck both losses; projection beats raw features on 4/5 seeds;
    perfect accuracy on a separable planted set within 200 epochs."""
    rng = np.random.default_rng(77)
    h = 1e-6
    margin = 0.2
    worst_triplet = 0.0
    accepted = 0
    while accepted < 100:
        din, dout = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        batch = int(rng.integers(1, 4))
        xa, xp, xn = (rng.normal(size=(batch, din)) for _ in range(3))
        weights = initial_weights(din, dout, int(rng.integers(1 << 16)))
        weights = weights + rng.normal(scale=0.05, size=(din, dout))
        za, zp, zn = xa @ weights, xp @ weights, xn @ weights
        ea, ep, en = (z / np.linalg.norm(z, axis=1, keepdims=True) for z in (za, zp, zn))
        d_ap = np.linalg.norm(ea - ep, axis=1)
        d_an = np.linalg.norm(ea - en, axis=1)
        min_norm = min(np.linalg.norm(z, axis=1).min() for z in (za, zp, zn))
        # central differences are meaningless at the hinge kink or a zero norm
        if np.any(np.abs(d_ap - d_an + margin) < 1e-3) or min_norm < 1e-3:
            continue
        if min(d_ap.min(), d_an.min()) < 1e-3:
            continue
        accepted += 1
        analytic = _batch_gradient(weights, xa, xp, xn, margin)
        numeric = np.zeros_like(weights)
        for i in range(din):
            for j in range(dout):
                step = np.zeros_like(weights)
                step[i, j] = h
                up = float(np.mean(_pass_losses(weights + step, xa, xp, xn, margin)))
                down = float(np.mean(_pass_losses(weights - step, xa, xp, xn, margin)))
                numeric[i, j] = (up - down) / (2 * h)
        worst_triplet = max(worst_triplet, _relative_error(analytic, numeric))
    assert worst_triplet < 1e-4

    worst_ce = 0.0
    for _ in range(100):
        batch = int(rng.integers(2, 12))
        x = rng.normal(size=(batch, FEATURE_COUNT))
        y = rng.integers(0, 2, size=batch).astype(float)
        weights = rng.normal(scale=0.5, size=FEATURE_COUNT + 1)
        p = _sigmoid(x @ weights[:-1] + weights[-1])
        analytic = np.concatenate([x.T @ (p - y), [(p - y).sum()]]) / batch
        numeric = np.zeros_like(weights)
        for i in range(len(weights)):
            step = np.zeros_like(weights)
            step[i] = h
            numeric[i] = (_mean_ce(weights + step, x, y) - _mean_ce(weights - step, x, y)) / (2 * h)
        worst_ce = max(worst_ce, _relative_error(analytic, numeric))
    assert worst_ce < 1e-4

    wins = 0
    for i in range(5):
        corpus, clusters, manifest = planted_pipeline(
            n_clusters=80, corpus_seed=100 + i, split_seed=3 + i,
            n_topics=2, topic_words=4, signature_words=2,
            signature_repeat=1, topic_repeat=3, description_words=30,
        )
        base = fit_train_embedder(corpus, clusters, manifest, dim=512)
        triplet_texts = [
            (
                corpus.by_id[t.anchor].clean_text,
                corpus.by_id[t.positive].clean_text,
                corpus.by_id[t.negative].clean_text,
            )
            for t in manifest.triplets
        ]
        model = train_projection(
            triplet_texts,
            base,
            TrainConfig(learning_rate=0.3, epochs=30, batch_size=32, seed=5, dim_out=64),
        )
        projected = ProjectedEmbedder(base=base, model=model)

        def mean_recall_10(embedder):
            reports = sorted(
                (corpus.by_id[b] for b in manifest.bugs_in(clusters, "test")), key=lambda r: r.bug_id
            )
            ids = [r.bug_id for r in reports]
            vectors = embedder.embed_texts([r.clean_text for r in reports])
            row_of = {bug_id: j for j, bug_id in enumerate(ids)}
            peers = {
                m: c.members for c in manifest.clusters_in(clusters, "test") for m in c.members
            }
            queries = list(peers)
            found = search(vectors, ids, [row_of[q] for q in queries], 10, queries)
            outcomes = [
                outcome(
                    q,
                    [b for b, _ in ranked],
                    (True,) * len(ranked),
                    frozenset(peers[q]) - {q},
                    len(ids) - 1,
                )
                for q, ranked in zip(queries, rankings(ids, found))
            ]
            assert all(o.relevant for o in outcomes)
            return aggregate_curves(columnar(outcomes), [10])[0].macro_recall

        wins += mean_recall_10(projected) > mean_recall_10(base)
    assert wins >= 4

    dups, negs = [], []
    for i in range(40):
        text = f"fault code {i} in module alpha{i} with trace beta{i}"
        dups.append(
            (
                BugReport(bug_id=f"d{i}a", title=text, description=text),
                BugReport(bug_id=f"d{i}b", title=text, description=text),
                True,
            )
        )
        negs.append(
            (
                BugReport(bug_id=f"n{i}a", title=f"gamma{i} glyph", description=f"delta{i} vex{i}"),
                BugReport(bug_id=f"n{i}b", title=f"zeta{i} quark", description=f"eta{i} mu{i}"),
                False,
            )
        )
    pairs = dups + negs
    texts = [r.clean_text for a, b, _ in pairs for r in (a, b)]
    separable_base = TfidfHashEmbedder.fit(texts, dim=512)
    separable = train_classifier(
        pairs, separable_base, ClassifierTrainConfig(epochs=200, batch_size=16, seed=5)
    )
    backend = LogisticClassifier(separable, PairFeaturizer(separable_base))
    verdicts = classify_pairs(backend, [(a, b) for a, b, _ in pairs], CostLedger())
    accuracy = sum(
        verdict == label for (_, verdict), (_, _, label) in zip(verdicts, pairs)
    ) / len(pairs)
    print(
        f"[8] gradcheck worst rel err {max(worst_triplet, worst_ce):.2e}; "
        f"projection wins {wins}/5; separable accuracy {accuracy}"
    )
    assert accuracy == 1.0


def test_9_identical_pipeline_runs_are_byte_identical(tmp_path, monkeypatch):
    """Same seeds, same config, two directories: artifacts match byte for byte."""
    steps = [
        ["synth", "--clusters", "60", "--seed", "11", "--out", "corpus.jsonl"],
        ["cluster", "--corpus", "corpus.jsonl", "--out", "clusters.json"],
        ["split", "--clusters", "clusters.json", "--seed", "3", "--out", "manifest.json"],
        [
            "train-projection", "--corpus", "corpus.jsonl", "--clusters", "clusters.json",
            "--manifest", "manifest.json", "--seed", "5", "--dim", "128", "--dim-out", "32",
            "--epochs", "3", "--out", "projection.json",
        ],
        [
            "train-classifier", "--corpus", "corpus.jsonl", "--clusters", "clusters.json",
            "--manifest", "manifest.json", "--seed", "5", "--dim", "128", "--epochs", "15",
            "--out", "classifier.json",
        ],
        [
            "run-cascade", "--corpus", "corpus.jsonl", "--clusters", "clusters.json",
            "--manifest", "manifest.json", "--mode", "one-vs-all", "--method", "cascade",
            "--k", "10", "--seed", "1", "--dim", "128",
            "--classifier-backend", "logistic", "--model", "classifier.json",
            "--out", "scenario.json",
        ],
    ]
    for name in ("a", "b"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        for argv in steps:
            assert cli.main(list(argv)) == 0, f"step {argv[0]} failed in {name}"

    for artifact in ("corpus.jsonl", "clusters.json", "manifest.json", "projection.json", "classifier.json"):
        a = (tmp_path / "a" / artifact).read_bytes()
        b = (tmp_path / "b" / artifact).read_bytes()
        assert a == b, f"{artifact} differs between identical runs"
    scenario_a = json.loads((tmp_path / "a" / "scenario.json").read_text())
    scenario_b = json.loads((tmp_path / "b" / "scenario.json").read_text())
    assert canonical_scenario_bytes(scenario_a) == canonical_scenario_bytes(scenario_b)
    print("[9] both pipeline runs produced identical artifacts")


def test_10_similarity_cascade_probability_is_the_retrieval_score_mapped():
    """With ``SimilarityClassifier``, every cascade candidate's probability
    is ``(score + 1) / 2`` of its retrieval score, bit for bit: TF-IDF
    retrieval and the pair featurizer define a whole-text cosine alike."""
    pairs = 0
    for seed in (1, 2, 3):
        corpus, clusters, manifest = planted_pipeline(
            n_clusters=80, corpus_seed=40 + seed, split_seed=seed, ratios=(0.5, 0.1, 0.4)
        )
        base = fit_train_embedder(corpus, clusters, manifest, dim=1024)
        scorer = SimilarityClassifier(PairFeaturizer(base), similarity_threshold=0.3)
        probabilities = []

        class Recording:
            threshold = scorer.threshold

            def classify_batch(self, batch):
                probs = scorer.classify_batch(batch)
                probabilities.extend(probs.tolist())
                return probs

        for mode, runner in (("one_vs_all", run_one_vs_all), ("all_vs_all", run_all_vs_all)):
            probabilities.clear()
            config = ScenarioConfig(mode=mode, method="cascade", k=15, seed=seed)
            result = runner(config, manifest, clusters, corpus, base, Recording())
            scores = [s for r in result.records for _, s, _ in r.candidates]
            assert len(scores) == len(probabilities) > 0 and np.isfinite(scores).all()
            assert [((s + 1.0) / 2.0).hex() for s in scores] == [p.hex() for p in probabilities]
            pairs += len(scores)
    print(f"[10] {pairs} cascade pairs scored (score + 1) / 2 of their retrieval score")
