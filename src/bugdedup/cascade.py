"""Scenario runner: the retrieve-then-classify cascade and its baselines.

Three methods answer "which database bugs duplicate this query":

* retrieval_only       - the top-k most similar are the predictions.
* classification_only  - every (query, database) pair is classified.
* cascade              - top-k retrieval, then the classifier filters.

Two scenarios drive them. One-vs-all partitions the test bugs into
incoming queries and a fixed database; all-vs-all queries every bug
against all the others. The point of the cascade is the cost shape:
classification alone needs n*m pair inferences, the cascade needs n+m
embeddings plus n*k classifications, and the ledger proves it run by
run against the closed forms in ``predict_cost``. That holds because a
query is never its own candidate: a query that is also in the database
is left out of its own ranking and its own pairs. The cascade sends its
n*k pairs to the classifier as one batch per partition.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import BugReport, Corpus
from .dup_graph import ClusterSet
from .embedder import has_sparse_rows
from .ledger import CostLedger
from .metrics import MetricRow, QueryOutcome, aggregate_curves, exhaustive_row, report_row
from .retrieval import VectorIndex, search, search_rows
from .seeding import substream_rng
from .splitter import SplitManifest

MODES = ("one_vs_all", "all_vs_all")
METHODS = ("retrieval_only", "classification_only", "cascade")

DEFAULT_K_CAP = 100


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str
    method: str
    k: int = 20
    query_fraction: float = 0.2
    seed: int = 0
    include_independents: bool = True
    dedup_pairs: bool = False
    max_k: int = DEFAULT_K_CAP

    def __post_init__(self):
        if self.mode not in MODES:
            raise ScenarioError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.method not in METHODS:
            raise ScenarioError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.k < 1:
            raise ScenarioError("k must be >= 1")
        if self.k > self.max_k:
            raise ScenarioError(f"k {self.k} exceeds the cap of {self.max_k}")
        if self.mode == "one_vs_all" and not 0.0 < self.query_fraction < 1.0:
            raise ScenarioError("query_fraction must lie in (0,1) for one_vs_all")

    def to_json(self) -> dict:
        return asdict(self)


def predict_cost(method: str, n: int, m: int, k: int | None = None) -> dict[str, int]:
    """Closed-form counter predictions for a one-vs-all run.

    n queries against an m-bug database. For the cascade, k is clamped
    to m: a query cannot retrieve more candidates than the database
    holds, so that is also all it can classify.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if method == "classification_only":
        return {"embed_calls": 0, "pair_classifications": n * m, "similarity_ops": 0}
    if method == "retrieval_only":
        return {"embed_calls": n + m, "pair_classifications": 0, "similarity_ops": n * m}
    if k is None or k < 1:
        raise ValueError("cascade requires k >= 1")
    return {
        "embed_calls": n + m,
        "pair_classifications": n * min(k, m),
        "similarity_ops": n * m,
    }


def predict_cost_all_vs_all(
    method: str, m: int, k: int | None = None, dedup_pairs: bool = False
) -> dict[str, int]:
    """Closed forms when every one of m bugs queries the other m-1.

    These are ``predict_cost`` for m queries against m-1 bugs each, with
    two changes: each bug is embedded once, so retrieval-bearing methods
    embed exactly m texts, and pair dedup scores each unordered pair once,
    half the pairs. Cascade with pair dedup has no closed form (the
    classified set depends on the rankings), so that combination is refused.
    """
    if m < 2:
        raise ValueError("all_vs_all requires at least 2 bugs")
    if method == "cascade" and dedup_pairs:
        raise ValueError("no closed form for cascade with dedup_pairs; audit the ledger instead")
    cost = predict_cost(method, m, m - 1, k)
    if cost["embed_calls"]:
        cost["embed_calls"] = m
    if dedup_pairs:
        cost["pair_classifications"] //= 2
    return cost


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    records: list[QueryOutcome]
    metric_rows: list[MetricRow]
    ledger: dict
    timing_ms: dict[str, float]
    n_queries: int
    db_size: int
    queries_without_peers: int
    avg_query_ms: float = 0.0


def run_partition(
    queries: Sequence[BugReport],
    database: Sequence[BugReport],
    cluster_set: ClusterSet,
    embedder,
    pair_classifier,
    method: str,
    k: int,
    dedup_pairs: bool = False,
) -> tuple[list[QueryOutcome], CostLedger]:
    """Run one method over an explicit query/database partition.

    This is the engine under both scenarios and the one place that counts
    embeddings and similarity ops; the ledger it returns holds the exact
    counter values for the run. Texts are embedded at most once each,
    which is what makes the n+m accounting true: the database in id
    order, then the queries that are not in it, in id order, in one pass.
    An embedder with a token pass and a rows pass (``token_ids`` and
    ``sparse_rows``, as ``TfidfHashEmbedder`` has) takes the sparse path:
    one call of each over those whole texts, ranked by
    ``retrieval.search_rows``. Any other (``ProjectedEmbedder``,
    ``RemoteEmbedder``) takes the dense path: one ``embed_texts`` call, a
    ``VectorIndex`` and ``retrieval.search``. The records, the search and
    the cascade's batch follow the order of ``queries`` as given. A query
    that is in the database ranks and pairs with the rest of it, so its
    ``db_size`` is one less, for every method; one-vs-all partitions are
    disjoint, and all-vs-all is the case where every query is.

    A record's candidates are its query's ranking with the verdicts
    attached: from ``search``, or, for classification alone, its pairs
    sorted by falling probability and then id. The cascade scores all n*k
    candidate pairs of the partition in one ``classify_pairs`` batch, in
    query order and then rank order, and splits the verdicts back per
    query. No built-in scorer's score for a
    pair depends on its batch, so this equals one batch per query. A pair
    scorer's featurizer reads its own tokens and builds its own sparse
    rows; the rows or vectors of the embed phase serve search only.
    Classification alone keeps one batch per query: its partition holds
    n*m pairs.
    """
    if method not in METHODS:
        raise ScenarioError(f"unknown method {method!r}")
    if not queries or not database:
        raise ScenarioError("query set and database must both be nonempty")
    database = sorted(database, key=lambda r: r.bug_id)
    db_ids = [r.bug_id for r in database]
    if len(set(db_ids)) != len(db_ids):
        raise ScenarioError("duplicate bug ids in database")
    db_by_id = {r.bug_id: r for r in database}
    ledger = CostLedger()
    pair_cache = {} if dedup_pairs else None

    if method == "classification_only":
        rankings = []
        with ledger.phase("classify"):
            for q in queries:
                others = [d for d in database if d.bug_id != q.bug_id]
                verdicts = classify_pairs(
                    pair_classifier, [(q, d) for d in others], ledger, pair_cache
                )
                scored = ((d.bug_id, p, kept) for d, (p, kept) in zip(others, verdicts))
                rankings.append(tuple(sorted(scored, key=lambda t: (-t[1], t[0]))))
    else:
        sparse = has_sparse_rows(embedder)
        with ledger.phase("embed"):
            # The database is already in id order, so its rows are the
            # index's rows as they come.
            extra = sorted({q.bug_id: q for q in queries if q.bug_id not in db_by_id}.items())
            ordered = database + [q for _, q in extra]
            texts = [r.clean_text for r in ordered]
            if sparse:
                rows = embedder.sparse_rows(*embedder.token_ids(texts))
            else:
                vectors = embedder.embed_texts(texts)
                index = VectorIndex.from_vectors(db_ids, vectors[: len(database)])
            ledger.count_embeds(len(ordered))

        with ledger.phase("search"):
            query_ids = [q.bug_id for q in queries]
            row_of = {r.bug_id: i for i, r in enumerate(ordered)}
            at = [row_of[b] for b in query_ids]
            if sparse:
                found = search_rows(rows, db_ids, at, k, query_ids)
            else:
                found = search(index, vectors[at], k, query_ids)
            # A query ranks the whole database, less itself.
            ledger.count_similarity(sum(len(database) - (b in db_by_id) for b in query_ids))

        if method == "retrieval_only":
            verdicts = itertools.repeat((None, True))
        else:
            with ledger.phase("classify"):
                pairs = [(q, db_by_id[b]) for q, ranked in zip(queries, found) for b, _ in ranked]
                verdicts = iter(classify_pairs(pair_classifier, pairs, ledger, pair_cache))
        rankings = [tuple((b, s, next(verdicts)[1]) for b, s in ranked) for ranked in found]

    members_of = {m: c.members for c in cluster_set.clusters for m in c.members}
    records = [
        QueryOutcome(
            query=q.bug_id,
            candidates=candidates,
            relevant=tuple(
                sorted(p for p in members_of.get(q.bug_id, ()) if p != q.bug_id and p in db_by_id)
            ),
            db_size=len(database) - (q.bug_id in db_by_id),
        )
        for q, candidates in zip(queries, rankings)
    ]
    return records, ledger


def classify_pairs(
    pair_classifier,
    pairs: Sequence[tuple[BugReport, BugReport]],
    ledger: CostLedger,
    pair_cache: dict[tuple[str, str], tuple[float, bool]] | None = None,
) -> list[tuple[float, bool]]:
    """(probability, duplicate) for each pair, from one ``classify_batch`` call.

    A pair is a duplicate iff its probability is at least the backend's
    ``threshold``. This is the one place where pair classifications are
    decided and counted, so the ledger holds exactly the pairs the
    backend scored. A probability outside [0, 1] (NaN included) raises
    ``ScenarioError`` before any pair is counted. With a ``pair_cache``, an
    unordered pair already in it is neither scored nor counted again.
    """
    if pair_cache is None:
        fresh = pairs
    else:
        keys = [tuple(sorted((a.bug_id, b.bug_id))) for a, b in pairs]
        missing: dict[tuple[str, str], tuple[BugReport, BugReport]] = {}
        for key, pair in zip(keys, pairs):
            if key not in pair_cache:
                missing.setdefault(key, pair)
        fresh = list(missing.values())
    probs = pair_classifier.classify_batch(fresh)
    if probs.shape != (len(fresh),):
        raise ScenarioError(f"pair classifier returned shape {probs.shape} for {len(fresh)} pairs")
    bad = np.flatnonzero(~((probs >= 0) & (probs <= 1)))
    if len(bad):
        a, b = fresh[bad[0]]
        raise ScenarioError(f"pair classifier returned {probs[bad[0]]} for {a.bug_id}, {b.bug_id}")
    ledger.count_classifications(len(fresh))
    verdicts = list(zip(probs.tolist(), (probs >= pair_classifier.threshold).tolist()))
    if pair_cache is None:
        return verdicts
    pair_cache.update(zip(missing, verdicts))
    return [pair_cache[key] for key in keys]


def _scenario_pool(
    config: ScenarioConfig,
    mode: str,
    manifest: SplitManifest,
    cluster_set: ClusterSet,
    corpus: Corpus,
) -> list[BugReport]:
    """The test bugs a ``mode`` scenario runs on; at least 2 of them."""
    if config.mode != mode:
        raise ScenarioError(f"config.mode is {config.mode!r}")
    if config.include_independents:
        pool = manifest.bugs_in(cluster_set, "test")
    else:
        pool = sorted(m for c in manifest.clusters_in(cluster_set, "test") for m in c.members)
    if len(pool) < 2:
        raise ScenarioError(f"test split holds {len(pool)} bugs; need at least 2")
    return [corpus.by_id[b] for b in pool]


def run_one_vs_all(
    config: ScenarioConfig,
    manifest: SplitManifest,
    cluster_set: ClusterSet,
    corpus: Corpus,
    embedder,
    pair_classifier,
) -> ScenarioResult:
    """Partition test bugs into queries and database by seed, then run.

    Ground truth for each query is cluster co-membership with database
    bugs. Queries without any in-database peer stay in the run (they can
    only contribute false positives) and are counted separately.
    """
    pool = _scenario_pool(config, "one_vs_all", manifest, cluster_set, corpus)
    rng = substream_rng(config.seed, "scenario.partition")
    order = rng.permutation(len(pool))
    n_queries = round(config.query_fraction * len(pool))
    if n_queries < 1 or n_queries >= len(pool):
        raise ScenarioError(
            f"query_fraction {config.query_fraction} leaves an empty side "
            f"({n_queries} of {len(pool)} as queries)"
        )
    # The pool is in id order, so sorted positions put the queries in id order.
    queries = [pool[int(i)] for i in np.sort(order[:n_queries])]
    database = [pool[int(i)] for i in order[n_queries:]]
    return _run_scenario(config, queries, database, cluster_set, embedder, pair_classifier)


def run_all_vs_all(
    config: ScenarioConfig,
    manifest: SplitManifest,
    cluster_set: ClusterSet,
    corpus: Corpus,
    embedder,
    pair_classifier,
) -> ScenarioResult:
    """Every test bug queries all the others (self excluded)."""
    pool = _scenario_pool(config, "all_vs_all", manifest, cluster_set, corpus)
    return _run_scenario(config, pool, pool, cluster_set, embedder, pair_classifier)


def _run_scenario(
    config: ScenarioConfig,
    queries: list[BugReport],
    database: list[BugReport],
    cluster_set: ClusterSet,
    embedder,
    pair_classifier,
) -> ScenarioResult:
    records, ledger = run_partition(
        queries,
        database,
        cluster_set,
        embedder,
        pair_classifier,
        config.method,
        config.k,
        dedup_pairs=config.dedup_pairs,
    )
    if config.method == "classification_only":
        rows = [exhaustive_row(records, config.k)]
    else:
        rows = aggregate_curves(records, list(range(1, config.k + 1)))
    snapshot = ledger.snapshot()
    total_ms = sum(snapshot["wall_clock_ms"].values())
    return ScenarioResult(
        config=config,
        records=records,
        metric_rows=rows,
        ledger=snapshot,
        timing_ms={**snapshot["wall_clock_ms"], "total": total_ms},
        n_queries=len(queries),
        db_size=len(database),
        queries_without_peers=sum(1 for r in records if not r.relevant),
        avg_query_ms=total_ms / len(queries),
    )


def scenario_to_json(result: ScenarioResult) -> dict:
    """Full scenario artifact: config echo, ledger, metric rows, timings."""
    rows = [
        report_row(row, result.config.method, result.timing_ms.get("total", 0.0), result.ledger)
        for row in result.metric_rows
    ]
    return {
        "config": result.config.to_json(),
        "n_queries": result.n_queries,
        "db_size": result.db_size,
        "queries_without_peers": result.queries_without_peers,
        "ledger": result.ledger,
        "timing_ms": result.timing_ms,
        "avg_query_ms": result.avg_query_ms,
        "metrics": rows,
        "per_query": [
            {
                "query": r.query,
                "relevant": list(r.relevant),
                "db_size": r.db_size,
                "candidates": [[b, s, bool(kept)] for b, s, kept in r.candidates],
            }
            for r in result.records
        ],
    }


_TIMING_KEYS = {"wall_clock_ms", "timing_ms", "avg_query_ms", "total", "total_ms"}


def _scrub_timings(node, zero: bool = False):
    """``node`` in new containers, with every number under a timing key (at
    any depth of dicts) set to 0.0. Lists are walked outside timing keys only."""
    if isinstance(node, dict):
        return {
            key: _scrub_timings(value, zero or key in _TIMING_KEYS) for key, value in node.items()
        }
    if isinstance(node, list) and not zero:
        return [_scrub_timings(item) for item in node]
    if zero and isinstance(node, (int, float)):
        return 0.0
    return node


def canonical_scenario_bytes(payload: dict) -> bytes:
    """Deterministic byte form of a scenario artifact.

    Wall-clock fields are physical measurements and legitimately differ
    between runs, so they are zeroed before comparison; everything else
    must match bit for bit for runs with equal seeds and configs.
    """
    scrubbed = _scrub_timings(payload)
    return (json.dumps(scrubbed, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def save_scenario(result: ScenarioResult, path: str | Path, extra: dict | None = None) -> None:
    payload = scenario_to_json(result)
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
