"""Shared test utilities: planted pipelines and a scriptable HTTP stub."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import re
import threading
import time
from bisect import bisect_left
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import combinations

import numpy as np

from bugdedup.cascade import METHODS, classify_pairs, run_partition
from bugdedup.corpus import BugReport, Corpus, build_corpus, clean
from bugdedup.dup_graph import ClusterSet, build_clusters
from bugdedup import retrieval
from bugdedup.classifier import FEATURE_COUNT, PairFeaturizer
from bugdedup.embedder import (
    ZERO_NORM,
    TfidfHashEmbedder,
    fnv1a64,
    initial_weights,
)
from bugdedup.ledger import CostLedger
from bugdedup.metrics import (
    ConfusionMatrix,
    MetricRow,
    Outcomes,
    QueryOutcome,
    aggregate_curves,
    classification_metrics,
)
from bugdedup.retrieval import search
from bugdedup.seeding import substream_rng
from bugdedup.splitter import SplitError, SplitManifest, TripletExample, build_manifest
from bugdedup.stopwords import STOP_WORDS
from bugdedup.synth import SynthConfig, synth_corpus


def planted_pipeline(
    n_clusters: int = 100,
    corpus_seed: int = 11,
    split_seed: int = 3,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    target_dup_ratio: float = 0.1564,
    **synth_kwargs,
) -> tuple[Corpus, ClusterSet, SplitManifest]:
    """Corpus, clusters, and a fully built manifest in one call."""
    corpus = synth_corpus(SynthConfig(n_clusters=n_clusters, seed=corpus_seed, **synth_kwargs))
    clusters = build_clusters(corpus)
    manifest = build_manifest(
        clusters, ratios=ratios, seed=split_seed, target_dup_ratio=target_dup_ratio
    )
    return corpus, clusters, manifest


def fit_train_embedder(corpus, clusters, manifest, dim: int = 256) -> TfidfHashEmbedder:
    texts = [corpus.by_id[b].clean_text for b in manifest.bugs_in(clusters, "train")]
    return TfidfHashEmbedder.fit(texts, dim=dim)


def reports_of(corpus, bug_ids):
    return [corpus.by_id[b] for b in bug_ids]


def resolve_pairs(corpus, labeled_pairs):
    return [(corpus.by_id[p.bug_a], corpus.by_id[p.bug_b], p.duplicate) for p in labeled_pairs]


class CountingEmbedder:
    """Records the texts of every ``embed_texts`` call in ``calls`` and of
    every token pass (``token_ids``) in ``token_calls``, and counts the
    rows passes (``sparse_rows``) in ``rows_calls``."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls: list[list[str]] = []
        self.token_calls: list[list[str]] = []
        self.rows_calls = 0

    def embed_texts(self, texts):
        self.calls.append(list(texts))
        return self.inner.embed_texts(texts)

    def token_ids(self, texts):
        self.token_calls.append(list(texts))
        return self.inner.token_ids(texts)

    def sparse_rows(self, indptr, ids):
        self.rows_calls += 1
        return self.inner.sparse_rows(indptr, ids)


def reference_clean(text: str) -> str:
    """``corpus.clean`` as a loop over characters: lowercase, split off '.'
    and ',', turn every other character that is not alphanumeric into a
    space, then keep punctuation and the ASCII word tokens that are not
    stopwords. The regex version must equal this for every string."""
    buf: list[str] = []
    for ch in text.lower():
        if ch in ".,":
            buf.append(f" {ch} ")
        elif ch.isalnum():
            buf.append(ch)
        else:
            buf.append(" ")
    kept = []
    for tok in "".join(buf).split():
        if tok in ".,":
            kept.append(tok)
        elif re.fullmatch(r"[a-z0-9]+", tok) and tok not in STOP_WORDS:
            kept.append(tok)
    return " ".join(kept)


def _reference_tfidf_rows(embedder, texts) -> list[dict[int, float]]:
    """Each text's buckets and their sums, in the order they first occur."""
    rows = []
    for text in texts:
        tf: dict[str, int] = {}
        for token in text.split():
            tf[token] = tf.get(token, 0) + 1
        # Buckets accumulate in first-occurrence order, as float64 sums
        # starting from 0.0.
        row: dict[int, float] = {}
        for token, count in tf.items():
            bucket, idf = fnv1a64(token) % embedder.dim, embedder.idf(token)
            row[bucket] = row.get(bucket, 0.0) + count * idf
        rows.append(row)
    return rows


def reference_tfidf_sparse(embedder, texts) -> list[tuple[list[int], list[float]]]:
    """``sparse_rows(*token_ids(texts))`` of a ``TfidfHashEmbedder`` as the
    loop over texts and tokens it replaced, with each token's bucket and IDF
    computed where it is used: each text's buckets in ascending order, each
    with its sum over the row's norm. The norm's squares are added from 0.0
    in that order in a plain loop, as the built-in ``sum`` compensates from
    Python 3.12. The rows pass must equal this bit for bit."""
    out = []
    for row in _reference_tfidf_rows(embedder, texts):
        buckets = sorted(row)
        squares = 0.0
        for b in buckets:
            squares += row[b] * row[b]
        norm = math.sqrt(squares)
        scale = norm if norm >= ZERO_NORM else 1.0
        out.append((buckets, [row[b] / scale for b in buckets]))
    return out


def reference_tfidf_embed(embedder, texts) -> np.ndarray:
    """``TfidfHashEmbedder.embed_texts`` as a loop: each row of
    ``reference_tfidf_sparse`` scattered into ``dim`` zeros. The vectorised
    embed must equal this bit for bit."""
    out = np.zeros((len(texts), embedder.dim))
    for i, (buckets, weights) in enumerate(reference_tfidf_sparse(embedder, texts)):
        out[i, buckets] = weights
    return out


def reference_pair_features(embedder, a, b) -> list[float]:
    """The five pair features of one pair by the per-pair formulas: each
    field cleaned from the raw text, embedded as a dense row, and compared
    with 1-D ``np.linalg.norm`` and ``@``. The sparse featurizer sums in
    another order, so it equals this within a rounding bound, and the
    token Jaccard exactly."""

    def vectors(report):
        texts = [clean(f"{report.title} {report.description}"), clean(report.title),
                 clean(report.description)]
        return [embedder.embed_texts([t])[0] for t in texts]

    def cosine(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu < 1e-12 or nv < 1e-12:
            return 0.0
        return float(u @ v / (nu * nv))

    va, vb = vectors(a), vectors(b)
    ta, tb = set(a.clean_text.split()), set(b.clean_text.split())
    union = len(ta | tb)
    return [
        cosine(va[0], vb[0]),
        cosine(va[1], vb[1]),
        cosine(va[2], vb[2]),
        float(np.linalg.norm(va[0] - vb[0])),
        len(ta & tb) / union if union else 0.0,
    ]


def reference_sparse_pair_features(embedder, a, b) -> list[float]:
    """The five pair features of one pair with the sparse featurizer's bits:
    each whole-text, title and description row embedded alone
    (``sparse_rows`` of its own ``token_ids``), its norm and each dot
    summed from 0.0 in ascending bucket order (the dot over the buckets the
    two rows share), and a cosine 0.0 where either norm is below
    ``ZERO_NORM``. The distance runs over the union of the two whole-text
    rows: the squares of the shared differences in ascending order, plus
    each row's own squares of its other buckets in ascending order, left
    then right. The Jaccard is that of the two reports' token frozensets."""

    def rows(report):
        out = []
        for text in (report.clean_text, report.clean_title, report.clean_description):
            _, buckets, weights = embedder.sparse_rows(*embedder.token_ids([text]))
            out.append(dict(zip(buckets.tolist(), weights.tolist())))
        return out

    def total(terms):
        out = 0.0
        for term in terms:
            out += term
        return out

    def norm(row):
        return math.sqrt(total(w * w for _, w in sorted(row.items())))

    def cosine(u, v):
        nu, nv = norm(u), norm(v)
        if nu < ZERO_NORM or nv < ZERO_NORM:
            return 0.0
        return total(u[b] * v[b] for b in sorted(u.keys() & v.keys())) / (nu * nv)

    ra, rb = rows(a), rows(b)
    u, v = ra[0], rb[0]
    shared = sorted(u.keys() & v.keys())
    both = total((u[c] - v[c]) * (u[c] - v[c]) for c in shared)
    own_u = total(u[c] * u[c] for c in sorted(u.keys() - v.keys()))
    own_v = total(v[c] * v[c] for c in sorted(v.keys() - u.keys()))
    ta, tb = frozenset(a.clean_text.split()), frozenset(b.clean_text.split())
    return [
        cosine(ra[0], rb[0]),
        cosine(ra[1], rb[1]),
        cosine(ra[2], rb[2]),
        math.sqrt(both + (own_u + own_v)),
        len(ta & tb) / len(ta | tb),
    ]


def reference_cascade(
    queries, database, cluster_set, embedder, pair_classifier, k, dedup_pairs=False
):
    """The cascade with one ``classify_pairs`` batch per query, in query
    order, and one pair cache shared by the queries. Retrieval is the
    library's. ``run_partition``
    scores the whole partition in one batch and must equal this exactly,
    records and ledger."""
    outcome, ledger = run_partition(queries, database, cluster_set, embedder, None, "retrieval_only", k)
    records = outcome.records
    by_id = {r.bug_id: r for r in [*queries, *database]}
    cache = {} if dedup_pairs else None
    out = []
    for record in records:
        pairs = [(by_id[record.query], by_id[b]) for b, _, _ in record.candidates]
        verdicts = classify_pairs(pair_classifier, pairs, ledger, cache)
        candidates = tuple(
            (b, s, dup) for (b, s, _), (_, dup) in zip(record.candidates, verdicts)
        )
        out.append(dataclasses.replace(record, candidates=candidates))
    return out, ledger


def reference_records(
    queries, database, cluster_set, embedder, pair_classifier, method, k, dedup_pairs=False
) -> list[QueryOutcome]:
    """The runner's ``QueryOutcome``s built as tuples, one query at a time:
    each retrieval ranking as ``(bug_id, score)`` pairs from the library's
    sparse search, the cascade's verdicts from one ``classify_pairs`` batch
    in query and rank order, classification alone's pairs sorted by
    (-probability, id), and the relevant ids from the cluster members in
    the database. ``result.records`` and the ``per_query`` JSON must equal
    these."""
    database = sorted(database, key=lambda r: r.bug_id)
    by_id = {r.bug_id: r for r in database}
    db_ids = list(by_id)
    cache = {} if dedup_pairs else None
    ledger = CostLedger()
    if method == "classification_only":
        ranked = []
        for q in queries:
            others = [d for d in database if d.bug_id != q.bug_id]
            verdicts = classify_pairs(pair_classifier, [(q, d) for d in others], ledger, cache)
            scored = ((d.bug_id, p, dup) for d, (p, dup) in zip(others, verdicts))
            ranked.append(tuple(sorted(scored, key=lambda t: (-t[1], t[0]))))
    else:
        extra = sorted({q.bug_id: q for q in queries if q.bug_id not in by_id}.items())
        ordered = database + [q for _, q in extra]
        rows = embedder.sparse_rows(*embedder.token_ids([r.clean_text for r in ordered]))
        row_of = {r.bug_id: i for i, r in enumerate(ordered)}
        query_ids = [q.bug_id for q in queries]
        at = [row_of[b] for b in query_ids]
        found = rankings(db_ids, retrieval.search_rows(rows, db_ids, at, k, query_ids))
        if method == "retrieval_only":
            ranked = [tuple((b, s, True) for b, s in ranking) for ranking in found]
        else:
            pairs = [(q, by_id[b]) for q, ranking in zip(queries, found) for b, _ in ranking]
            verdicts = iter(classify_pairs(pair_classifier, pairs, ledger, cache))
            ranked = [tuple((b, s, next(verdicts)[1]) for b, s in ranking) for ranking in found]
    members_of = {m: c.members for c in cluster_set.clusters for m in c.members}
    return [
        QueryOutcome(
            query=q.bug_id,
            candidates=candidates,
            relevant=tuple(
                sorted(p for p in members_of.get(q.bug_id, ()) if p != q.bug_id and p in by_id)
            ),
            db_size=len(database) - (q.bug_id in by_id),
        )
        for q, candidates in zip(queries, ranked)
    ]


def reference_predict_cost_all_vs_all(
    method: str, m: int, k: int | None = None, dedup_pairs: bool = False
) -> dict[str, int]:
    """The all-vs-all closed forms written out per method.
    ``cascade.predict_cost_all_vs_all`` derives them from ``predict_cost``
    and must equal these, or raise ``ValueError`` where these do."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if m < 2:
        raise ValueError("all_vs_all requires at least 2 bugs")
    scans = m * (m - 1)
    if method == "classification_only":
        pairs = scans // 2 if dedup_pairs else scans
        return {"embed_calls": 0, "pair_classifications": pairs, "similarity_ops": 0}
    if method == "retrieval_only":
        return {"embed_calls": m, "pair_classifications": 0, "similarity_ops": scans}
    if k is None or k < 1:
        raise ValueError("cascade requires k >= 1")
    if dedup_pairs:
        raise ValueError("no closed form for cascade with dedup_pairs; audit the ledger instead")
    return {
        "embed_calls": m,
        "pair_classifications": m * min(k, m - 1),
        "similarity_ops": scans,
    }


def outcome(query, ids, kept, relevant, db_size) -> QueryOutcome:
    """A ``QueryOutcome`` whose candidates are ``ids`` with their ``kept``
    verdicts, every score 0.0."""
    return QueryOutcome(query, tuple((b, 0.0, k) for b, k in zip(ids, kept, strict=True)),
                        relevant, db_size)


def columnar(records) -> Outcomes:
    """``QueryOutcome``s as the ``Outcomes`` arrays the curves read: each
    candidate's row is its id's place among all the ids named, and it is
    relevant when its id is in its query's ``relevant``."""
    names = sorted({b for r in records for b, _, _ in r.candidates}
                   | {b for r in records for b in r.relevant})
    row = {b: i for i, b in enumerate(names)}
    candidates = [c for r in records for c in r.candidates]
    return Outcomes(
        ptr=np.cumsum([0] + [len(r.candidates) for r in records]),
        rows=np.array([row[b] for b, _, _ in candidates], dtype=np.intp),
        kept=np.array([kept for _, _, kept in candidates], dtype=bool),
        relevant=np.array(
            [b in r.relevant for r in records for b, _, _ in r.candidates], dtype=bool
        ),
        n_relevant=np.array([len(r.relevant) for r in records], dtype=np.int64),
        db_size=np.array([r.db_size for r in records], dtype=np.int64),
    )


def rankings(ids, found) -> list[tuple[tuple[str, float], ...]]:
    """A CSR ranking ``(ptr, rows, scores)`` of rows of ``ids`` as one tuple
    of ``(bug_id, score)`` pairs per query."""
    ptr, rows, scores = (a.tolist() for a in found)
    return [
        tuple(zip([ids[j] for j in rows[a:b]], scores[a:b])) for a, b in zip(ptr, ptr[1:])
    ]


def reference_search(vectors, ids, query_rows, k, queries) -> list[tuple[tuple[str, float], ...]]:
    """``retrieval.search`` as a one-query block scan, the definition of its
    bits: each score is the matrix-vector product of the aligned row block
    holding the row with one query, over the product of the norms, or -inf
    where either norm is below ``ZERO_NORM``. The first ``len(ids)`` rows of
    ``vectors`` are the database, its ids ascending, and query i is row
    ``query_rows[i]``. A query named by a database id leaves that row out."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = len(ids)
    if m == 0:
        raise ValueError("cannot query an empty index")
    matrix = np.array(vectors[:m], dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    vectors = np.array(np.asarray(vectors)[list(query_rows)], dtype=np.float64)
    n, dim = len(vectors), matrix.shape[1]
    if len(queries) != n:
        raise ValueError(f"{n} query rows but {len(queries)} names")
    skips: list[int | None] = []
    for query in queries:
        pos = bisect_left(ids, query)
        skips.append(pos if pos < m and ids[pos] == query else None)

    block = max(
        retrieval._BLOCK_ALIGN,
        retrieval._BLOCK_ELEMENTS // max(1, dim) // retrieval._BLOCK_ALIGN * retrieval._BLOCK_ALIGN,
    )
    chunk = max(1, retrieval._CHUNK // m)
    results: list[tuple[tuple[str, float], ...]] = []
    for first in range(0, n, chunk):
        part = vectors[first : first + chunk]
        scores = np.empty((len(part), m))
        for start in range(0, m, block):
            rows = matrix[start : start + block]
            for i, q in enumerate(part):
                np.matmul(rows, q, out=scores[i, start : start + block])
        q_norms = np.array([np.linalg.norm(q) for q in part])
        denom = norms[None, :] * q_norms[:, None]
        # A zero vector is one whose own norm is below ZERO_NORM.
        invalid = (norms[None, :] < ZERO_NORM) | (q_norms[:, None] < ZERO_NORM)
        denom[invalid] = 1.0
        np.divide(scores, denom, out=scores)
        scores[invalid] = -np.inf
        # An excluded row scores -inf. A query's ``rows`` keeps every row
        # scoring at least its k-th best, so if that includes the excluded
        # row, the k-th best is -inf and ``rows`` is the whole database:
        # dropping it below still leaves the k best of the rest.
        chunk_skips = skips[first : first + len(part)]
        for i, skip in enumerate(chunk_skips):
            if skip is not None:
                scores[i, skip] = -np.inf
        kth = np.partition(scores, m - k, axis=1)[:, m - k] if k < m else None
        for i, (row_scores, skip) in enumerate(zip(scores, chunk_skips)):
            rows = np.arange(m) if kth is None else np.flatnonzero(row_scores >= kth[i])
            # Database rows are sorted by id, so ascending row is ascending id.
            order = rows[np.lexsort((rows, -row_scores[rows]))]
            if skip is not None:
                order = order[order != skip]
            order = order[:k]
            results.append(
                tuple(zip((ids[j] for j in order.tolist()), row_scores[order].tolist()))
            )
    return results


def reference_tune_threshold(probabilities, labels, step=0.01) -> float:
    """``classifier.tune_threshold`` with its own precision, recall and F1
    formulas; the version built on ``metrics`` must equal this bit for bit
    on every nonempty input."""
    best_t, best_f1 = 0.5, -1.0
    grid = np.arange(step, 1.0, step)
    for t in grid:
        pred = probabilities >= t
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        fn = int(np.sum(~pred & (labels == 1)))
        denom_p, denom_r = tp + fp, tp + fn
        precision = tp / denom_p if denom_p else 0.0
        recall = tp / denom_r if denom_r else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        if f1 > best_f1 + 1e-15:
            best_t, best_f1 = float(t), f1
    return best_t


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """The two-branch logistic function that ``classifier._sigmoid`` must
    equal bit for bit."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_l2_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    safe = np.where(norms < ZERO_NORM, 1.0, norms)
    return matrix / safe


def _reference_through_normalization(g: np.ndarray, z: np.ndarray, e: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    safe = np.where(norms < ZERO_NORM, 1.0, norms)
    out = (g - np.sum(g * e, axis=1, keepdims=True) * e) / safe
    return np.where(norms < ZERO_NORM, 0.0, out)


def _reference_batch_gradient(weights, xa, xp, xn, margin) -> np.ndarray:
    za, zp, zn = xa @ weights, xp @ weights, xn @ weights
    ea, ep, en = (_reference_l2_normalize_rows(z) for z in (za, zp, zn))

    diff_ap = ea - ep
    diff_an = ea - en
    d_ap = np.linalg.norm(diff_ap, axis=1, keepdims=True)
    d_an = np.linalg.norm(diff_an, axis=1, keepdims=True)
    active = ((d_ap - d_an + margin) > 0).astype(np.float64)

    u_ap = np.where(d_ap < ZERO_NORM, 0.0, diff_ap / np.where(d_ap < ZERO_NORM, 1.0, d_ap))
    u_an = np.where(d_an < ZERO_NORM, 0.0, diff_an / np.where(d_an < ZERO_NORM, 1.0, d_an))

    g_ea = active * (u_ap - u_an)
    g_ep = active * (-u_ap)
    g_en = active * u_an

    grad = (
        xa.T @ _reference_through_normalization(g_ea, za, ea)
        + xp.T @ _reference_through_normalization(g_ep, zp, ep)
        + xn.T @ _reference_through_normalization(g_en, zn, en)
    )
    return grad / xa.shape[0]


def _reference_pass_losses(weights, xa, xp, xn, margin) -> np.ndarray:
    ea = _reference_l2_normalize_rows(xa @ weights)
    ep = _reference_l2_normalize_rows(xp @ weights)
    en = _reference_l2_normalize_rows(xn @ weights)
    d_ap = np.linalg.norm(ea - ep, axis=1)
    d_an = np.linalg.norm(ea - en, axis=1)
    return np.maximum(d_ap - d_an + margin, 0.0)


def reference_train_projection(triplets, base_embedder, cfg) -> tuple[np.ndarray, list[float]]:
    """``embedder.train_projection``'s weights and loss curve, by the loop
    that gathers every pass's and every batch's rows from the base vectors
    and updates out of place; the trainer must equal it bit for bit."""
    texts = sorted({t for tri in triplets for t in tri})
    index = {t: i for i, t in enumerate(texts)}
    base = base_embedder.embed_texts(texts)
    ia = np.array([index[a] for a, _, _ in triplets])
    ip = np.array([index[p] for _, p, _ in triplets])
    in_ = np.array([index[n] for _, _, n in triplets])

    def loss(w) -> float:
        return float(np.mean(_reference_pass_losses(w, base[ia], base[ip], base[in_], cfg.margin)))

    weights = initial_weights(base_embedder.dim, cfg.dim_out, cfg.seed)
    curve = [loss(weights)]
    order_rng = substream_rng(cfg.seed, "projection.order")
    for _ in range(cfg.epochs):
        order = order_rng.permutation(len(triplets))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad = _reference_batch_gradient(
                weights, base[ia[batch]], base[ip[batch]], base[in_[batch]], cfg.margin
            )
            weights = weights - cfg.learning_rate * grad
        curve.append(loss(weights))
    return weights, curve


def _reference_mean_ce(weights, x, y) -> float:
    p = np.clip(reference_sigmoid(x @ weights[:-1] + weights[-1]), 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def reference_train_classifier(
    train_pairs, embedder, cfg, dev_pairs=None
) -> tuple[np.ndarray, list[float], float]:
    """``classifier.train_classifier``'s weights, loss curve and threshold,
    by the loop that gathers each batch with ``x[batch]`` and updates out of
    place, and the two-branch sigmoid; the trainer must equal it bit for bit."""
    featurizer = PairFeaturizer(embedder)
    x = featurizer.feature_matrix([(a, b) for a, b, _ in train_pairs])
    y = np.array([1.0 if dup else 0.0 for _, _, dup in train_pairs])

    weights = np.zeros(FEATURE_COUNT + 1)
    curve = [_reference_mean_ce(weights, x, y)]
    order_rng = substream_rng(cfg.seed, "classifier.order")
    for _ in range(cfg.epochs):
        order = order_rng.permutation(len(y))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            xb, yb = x[batch], y[batch]
            p = reference_sigmoid(xb @ weights[:-1] + weights[-1])
            err = p - yb
            grad = np.concatenate([xb.T @ err, [err.sum()]]) / len(batch)
            weights = weights - cfg.learning_rate * grad
        curve.append(_reference_mean_ce(weights, x, y))

    threshold = 0.5
    if dev_pairs:
        dev_x = np.ascontiguousarray(featurizer.feature_matrix([(a, b) for a, b, _ in dev_pairs]))
        dev_y = np.array([1.0 if dup else 0.0 for _, _, dup in dev_pairs])
        rows = np.repeat(dev_x, 2, axis=0) if len(dev_x) == 1 else dev_x
        z = (rows @ weights[:-1])[: len(dev_x)] + weights[-1]
        threshold = reference_tune_threshold(reference_sigmoid(z), dev_y, cfg.threshold_step)
    return weights, curve, threshold


def reference_confusion(outcome, k) -> ConfusionMatrix:
    """One query's confusion matrix at cutoff k, as a set walk: its
    positives are the distinct kept ids among its first k candidates."""
    positives = {c for c, _, keep in outcome.candidates[:k] if keep}
    tp = len(positives.intersection(outcome.relevant))
    fn = len(outcome.relevant) - tp
    return ConfusionMatrix(tp, len(positives) - tp, fn, outcome.db_size - len(positives) - fn)


def reference_curves(outcomes, k_list) -> list[MetricRow]:
    """``aggregate_curves`` as one ``reference_confusion`` per (query, k):
    the one-pass version must equal this exactly."""
    return [_reference_row(outcomes, k, k) for k in sorted(set(k_list))]


def reference_exhaustive_row(outcomes, k) -> MetricRow:
    """``exhaustive_row`` as one ``reference_confusion`` per query over its
    whole ranking, macro precision tp/positives (0.0 with no positives)."""
    return _reference_row(outcomes, None, k)


def _reference_row(outcomes, cutoff, k) -> MetricRow:
    """The pooled row of every query's confusion at ``cutoff`` (the whole
    ranking when None), each macro mean summed left to right from 0.0."""
    tp = fp = fn = tn = 0
    precision_sum = recall_sum = 0.0
    with_peers = 0
    for outcome in outcomes:
        cm = reference_confusion(outcome, cutoff or len(outcome.candidates))
        tp, fp, fn, tn = tp + cm.tp, fp + cm.fp, fn + cm.fn, tn + cm.tn
        if outcome.relevant:
            recall_sum += cm.tp / len(outcome.relevant)
            with_peers += 1
        if cutoff:
            precision_sum += cm.tp / cutoff
        elif cm.tp + cm.fp:
            precision_sum += cm.tp / (cm.tp + cm.fp)
    row = classification_metrics(ConfusionMatrix(tp, fp, fn, tn), k=k)
    return MetricRow(
        precision=row.precision,
        recall=row.recall,
        f1=row.f1,
        accuracy=row.accuracy,
        k=k,
        tp=row.tp,
        fp=row.fp,
        fn=row.fn,
        tn=row.tn,
        zero_denominator=row.zero_denominator,
        macro_precision=precision_sum / len(outcomes),
        macro_recall=recall_sum / with_peers if with_peers else None,
    )


def reference_eval_retrieval(corpus, clusters, manifest, split, embedder, k_list) -> list[dict]:
    """``eval-retrieval``'s rows computed on their own: embed the split's
    reports in id order, search them with each clustered bug of the split
    (itself left out), its cluster peers relevant, and aggregate in the manifest's
    cluster order. Each row holds the metric fields and the two counters;
    the command adds its method and wall-clock time."""
    reports = sorted(map(corpus.by_id.__getitem__, manifest.bugs_in(clusters, split)),
                     key=lambda r: r.bug_id)
    ids = [r.bug_id for r in reports]
    vectors = embedder.embed_texts([r.clean_text for r in reports])
    row_of = {bug_id: i for i, bug_id in enumerate(ids)}
    peers = {m: c.members for c in manifest.clusters_in(clusters, split) for m in c.members}
    queries = list(peers)
    found = search(vectors, ids, [row_of[q] for q in queries], max(k_list), queries)
    outcomes = [
        outcome(q, [b for b, _ in ranking], (True,) * len(ranking),
                frozenset(peers[q]) - {q}, len(ids) - 1)
        for q, ranking in zip(queries, rankings(ids, found))
    ]
    counters = {"embed_calls": len(reports), "pair_classifications": 0}
    rows = aggregate_curves(columnar(outcomes), k_list)
    return [{**dataclasses.asdict(row), **counters} for row in rows]


_TIMING_KEYS = {"wall_clock_ms", "timing_ms", "avg_query_ms", "total", "total_ms"}


def reference_scrub_timings(payload):
    """The timing scrub as two walkers over a deep copy: under a timing key,
    ``zeroed`` sets every number of nested dicts to 0.0 and leaves lists
    alone. ``cascade._scrub_timings`` must give the same result."""

    def scrub(node):
        if isinstance(node, dict):
            return {
                key: (zeroed(value) if key in _TIMING_KEYS else scrub(value))
                for key, value in node.items()
            }
        if isinstance(node, list):
            return [scrub(item) for item in node]
        return node

    def zeroed(value):
        if isinstance(value, dict):
            return {k: zeroed(v) for k, v in value.items()}
        if isinstance(value, (int, float)):
            return 0.0
        return value

    return scrub(copy.deepcopy(payload))


def reference_synth_corpus(config: SynthConfig) -> Corpus:
    """The synthetic corpus with one ``integers`` call per word.
    ``synth.synth_corpus`` draws in blocks and must give the same corpus."""
    rng = substream_rng(config.seed, "synth")
    topic_pools = [
        [f"t{t}w{i}" for i in range(config.topic_words)] for t in range(config.n_topics)
    ]
    noise_pool = [f"noise{i}" for i in range(config.noise_vocab)]

    reports: list[BugReport] = []
    serial = 0

    def next_id() -> str:
        nonlocal serial
        serial += 1
        return f"b{serial:06d}"

    for c in range(config.n_clusters):
        topic = topic_pools[c % config.n_topics]
        signature = [f"c{c}s{j}" for j in range(config.signature_words)]
        size = 2 + int(rng.poisson(max(config.mean_size - 2.0, 0.0)))
        anchor_id: str | None = None
        for _ in range(size):
            bug_id = next_id()
            title = f"{signature[0]} {topic[int(rng.integers(len(topic)))]}"
            reports.append(
                BugReport(
                    bug_id=bug_id,
                    title=title,
                    description=_reference_description(rng, config, topic, signature, noise_pool),
                    dup_of=anchor_id,
                )
            )
            if anchor_id is None:
                anchor_id = bug_id

    for i in range(config.independents):
        topic = topic_pools[int(rng.integers(config.n_topics))]
        own = [f"i{i}u{j}" for j in range(config.signature_words)]
        reports.append(
            BugReport(
                bug_id=next_id(),
                title=f"{own[0]} {topic[int(rng.integers(len(topic)))]}",
                description=_reference_description(rng, config, topic, own, noise_pool),
                dup_of=None,
            )
        )

    return build_corpus(reports)


def _reference_description(rng, config: SynthConfig, topic, signature, noise_pool) -> str:
    words: list[str] = []
    for _ in range(config.description_words):
        words.extend([topic[int(rng.integers(len(topic)))]] * config.topic_repeat)
    for sig in signature:
        words.extend([sig] * config.signature_repeat)
    for _ in range(3):
        words.append(noise_pool[int(rng.integers(len(noise_pool)))])
    return " ".join(words)


def reference_sample_negatives(bugs, cluster_set, count, rng, split) -> list[tuple[str, str]]:
    """Negative sampling with one ``integers(0, n, size=2)`` call per sparse
    candidate. ``splitter._sample_negatives`` draws its candidates in blocks
    and must give the same pairs."""
    n = len(bugs)
    by_cluster: dict[int, int] = {}
    for b in bugs:
        cid = cluster_set.cluster_of(b)
        if cid is not None:
            by_cluster[cid] = by_cluster.get(cid, 0) + 1
    pool = n * (n - 1) // 2 - sum(k * (k - 1) // 2 for k in by_cluster.values())
    if count > pool:
        raise SplitError(
            f"split {split!r} needs {count} non-duplicate pairs but only {pool} exist"
        )
    if count == 0:
        return []

    if count * 3 >= pool:
        # Dense request: enumerate the pool and sample exactly.
        eligible = [
            (a, b) for a, b in combinations(bugs, 2) if not cluster_set.same_cluster(a, b)
        ]
        chosen = rng.choice(len(eligible), size=count, replace=False)
        return [eligible[i] for i in sorted(int(i) for i in chosen)]

    # Sparse request: rejection-sample distinct cross-cluster pairs.
    seen: set[tuple[str, str]] = set()
    out: list[tuple[str, str]] = []
    while len(out) < count:
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        a, b = bugs[int(i)], bugs[int(j)]
        if a > b:
            a, b = b, a
        if (a, b) in seen or cluster_set.same_cluster(a, b):
            continue
        seen.add((a, b))
        out.append((a, b))
    return sorted(out)


def reference_generate_triplets(manifest, cluster_set) -> list[TripletExample]:
    """Triplets drawn from a list, per train cluster, of every train bug
    outside it. ``splitter.generate_triplets`` keeps no such lists and must
    give the same triplets; this one leaves ``manifest`` as it was."""
    rng = substream_rng(manifest.seed, "triplets")

    train_bugs = manifest.bugs_in(cluster_set, "train")
    eligible_by_cluster: dict[int, list[str]] = {}
    for c in manifest.clusters_in(cluster_set, "train"):
        members = set(c.members)
        eligible_by_cluster[c.cluster_id] = [b for b in train_bugs if b not in members]

    triplets: list[TripletExample] = []
    for pair in manifest.pairs["train"]:
        if not pair.duplicate:
            continue
        for anchor, positive in ((pair.bug_a, pair.bug_b), (pair.bug_b, pair.bug_a)):
            eligible = eligible_by_cluster[cluster_set.cluster_of(anchor)]
            if not eligible:
                raise SplitError(f"no eligible triplet negatives for anchor {anchor!r}")
            negative = eligible[int(rng.integers(len(eligible)))]
            triplets.append(TripletExample(anchor, positive, negative))
    return triplets


# ------------------------------------------------------------- HTTP stub


def json_reply(payload: dict):
    """Script entry: answer 200 with this JSON body."""

    def handler(path, body):
        return 200, json.dumps(payload).encode("utf-8"), "application/json"

    return handler


def status_reply(code: int, text: str = "boom"):
    def handler(path, body):
        return code, text.encode("utf-8"), "text/plain"

    return handler


def raw_reply(raw: bytes, content_type: str = "application/json"):
    def handler(path, body):
        return 200, raw, content_type

    return handler


def sleep_reply(seconds: float, then=None):
    """Stall before answering; pair with a short client timeout."""

    def handler(path, body):
        time.sleep(seconds)
        inner = then or embed_reply(4)
        return inner(path, body)

    return handler


def embed_reply(dim: int):
    """Valid embedding response; vectors derive from text content so
    order preservation across batches is checkable."""

    def handler(path, body):
        vectors = [_text_vector(t, dim) for t in body.get("texts", [])]
        return 200, json.dumps({"dim": dim, "vectors": vectors}).encode("utf-8"), "application/json"

    return handler


def classify_reply(probability: float | None = None):
    """Valid classification response; default probability derives from
    the pair texts so results are distinguishable."""

    def handler(path, body):
        pairs = body.get("pairs", [])
        if probability is None:
            probs = [round((len(a) + len(b)) % 10 / 10.0, 6) for a, b in pairs]
        else:
            probs = [probability] * len(pairs)
        return 200, json.dumps({"probabilities": probs}).encode("utf-8"), "application/json"

    return handler


def _text_vector(text: str, dim: int) -> list[float]:
    seedval = sum(text.encode("utf-8")) or 1
    return [float((seedval * (i + 3)) % 17) + 1.0 for i in range(dim)]


class StubService:
    """In-process HTTP/1.1 endpoint whose responses are scripted per request.

    ``script`` entries are handler callables consumed in order; once the
    script is exhausted the ``default`` handler answers. Every request
    body is recorded for assertions, and so are its headers and the
    client port it came from: requests sent over one keep-alive
    connection share a port. A ``CONNECT`` (a proxy tunnel) is recorded
    in ``tunnels`` as its target and headers, and refused with 403.
    With ``close_after`` set, the server closes each connection after its
    reply without announcing it in a ``Connection: close`` header.
    """

    def __init__(self, default=None):
        self.requests: list[tuple[str, dict]] = []
        self.headers: list[dict[str, str]] = []
        self.ports: list[int] = []
        self.tunnels: list[tuple[str, dict[str, str]]] = []
        self.close_after = False
        self.script: list = []
        self.default = default or embed_reply(4)
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # The headers and the body go out in two writes; without this
            # the body waits for the client's delayed ACK, about 40 ms a reply.
            disable_nagle_algorithm = True

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b""
                try:
                    body = json.loads(raw) if raw else {}
                except json.JSONDecodeError:
                    body = {}
                stub.requests.append((self.path, body))
                stub.headers.append(dict(self.headers))
                stub.ports.append(self.client_address[1])
                fn = stub.script.pop(0) if stub.script else stub.default
                status, payload, ctype = fn(self.path, body)
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", ctype)
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                    if stub.close_after:
                        self.close_connection = True
                except (BrokenPipeError, ConnectionResetError):
                    # The client gave up waiting (a timeout test) and hung up.
                    self.close_connection = True

            def do_CONNECT(self):
                stub.tunnels.append((self.path, dict(self.headers)))
                self.send_response(403)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/"
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.02), daemon=True
        )
        self._thread.start()

    def close(self):
        self._server.shutdown()
        self._server.server_close()
