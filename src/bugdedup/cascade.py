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

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .artifacts import counts
from .corpus import BugReport, Corpus
from .dup_graph import ClusterSet
from .embedder import has_sparse_rows, report_tokens
from .ledger import CostLedger
from .metrics import MetricRow, Outcomes, QueryOutcome, aggregate_curves, exhaustive_row, report_row
from .retrieval import search, search_rows
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
        try:
            counts(self, {"k": 1, "max_k": 1, "seed": None})
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        if self.mode not in MODES:
            raise ScenarioError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.method not in METHODS:
            raise ScenarioError(f"method must be one of {METHODS}, got {self.method!r}")
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


@dataclass(frozen=True, eq=False)
class PartitionOutcome(Outcomes):
    """A partition's run as arrays: ``metrics.Outcomes`` with what a record
    of a query also holds.

    Candidate j of query i (``ptr[i] <= j < ptr[i + 1]``) is database row
    ``rows[j]``, the bug ``db_ids[rows[j]]``, with its ``scores[j]``: the
    retrieval score, or, for classification alone, the probability.
    ``labels`` holds each database row's cluster id and ``query_labels``
    each query's, -1 for a bug in no cluster. ``records`` builds the
    ``QueryOutcome``s on each access; the arrays are all that is kept.
    """

    scores: np.ndarray
    queries: tuple[str, ...]
    db_ids: tuple[str, ...]
    labels: np.ndarray
    query_labels: np.ndarray

    @property
    def records(self) -> list[QueryOutcome]:
        """One ``QueryOutcome`` per query, in query order, built on each access."""
        return [
            QueryOutcome(query, tuple(candidates), relevant, db_size)
            for query, candidates, relevant, db_size in self._per_query()
        ]

    def _per_query(self):
        """Each query's id, its ``(bug_id, score, kept)`` candidates as an
        iterator, its relevant ids and its db_size, from the arrays."""
        ids = self.db_ids
        bugs = [ids[r] for r in self.rows.tolist()]
        scores, kept, ptr = self.scores.tolist(), self.kept.tolist(), self.ptr.tolist()
        # Database rows grouped by cluster, ascending row (so id) within one.
        grouped = np.argsort(self.labels, kind="stable")
        bounds = self.labels[grouped].searchsorted([self.query_labels, self.query_labels + 1])
        grouped = grouped.tolist()
        for i, (query, label, lo, hi, db_size) in enumerate(
            zip(self.queries, self.query_labels.tolist(), *bounds.tolist(), self.db_size.tolist())
        ):
            a, b = ptr[i], ptr[i + 1]
            peers = [ids[r] for r in grouped[lo:hi]] if label >= 0 else []
            relevant = tuple(p for p in peers if p != query)
            yield query, zip(bugs[a:b], scores[a:b], kept[a:b]), relevant, db_size


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    outcome: PartitionOutcome
    metric_rows: list[MetricRow]
    ledger: dict
    timing_ms: dict[str, float]
    n_queries: int
    db_size: int
    queries_without_peers: int
    avg_query_ms: float = 0.0

    @property
    def records(self) -> list[QueryOutcome]:
        """The run's ``QueryOutcome``s, built on each access."""
        return self.outcome.records


def run_partition(
    queries: Sequence[BugReport],
    database: Sequence[BugReport],
    cluster_set: ClusterSet,
    embedder,
    pair_classifier,
    method: str,
    k: int,
    dedup_pairs: bool = False,
) -> tuple[PartitionOutcome, CostLedger]:
    """Run one method over an explicit query/database partition.

    This is the engine under both scenarios and the one place that counts
    embeddings and similarity ops; the ledger it returns holds the exact
    counter values for the run. Texts are embedded at most once each,
    which is what makes the n+m accounting true: the database in id
    order, then the queries that are not in it, in id order, in one pass.
    An embedder with a token pass and a rows pass (``token_ids`` and
    ``sparse_rows``, as ``TfidfHashEmbedder`` has) takes the sparse path:
    ``embedder.report_tokens`` makes one token pass over each report's
    title and description as adjacent spans and one rows pass over the
    whole texts, the rows of ``clean_text`` bit for bit, ranked by
    ``retrieval.search_rows``. Any other (``ProjectedEmbedder``,
    ``RemoteEmbedder``) takes the dense path: one ``embed_texts`` call,
    ranked by ``retrieval.search``. Either search takes the embedded rows
    whole, the database first. The outcome, the search and the cascade's
    batch follow the order of ``queries`` as given. A query that is in the
    database ranks and pairs with the rest of it, so its ``db_size`` is one
    less, for every method; one-vs-all partitions are disjoint, and
    all-vs-all is the case where every query is.

    The outcome holds every query's ranking as arrays, from search to the
    metric rows: its database rows and scores, the verdicts as ``kept``
    (all True for retrieval alone), and a relevance flag per candidate,
    taken once from the cluster ids. For classification alone a ranking is
    the query's pairs ordered by falling probability and then row (id).
    The cascade scores all n*k candidate pairs of the partition in one
    ``classify_pairs`` batch, in query order and then rank order. No
    built-in scorer's score for a pair depends on its batch, so this
    equals one batch per query. When the cascade's pair scorer has a
    ``featurizer`` whose ``embedder`` is this embedder object, the embed
    phase hands it that ``report_tokens`` output (``PairFeaturizer.warm``),
    so each report is tokenised once; the featurizer's rows are not
    ledgered. Otherwise the rows or vectors of the embed phase serve search
    only. Classification alone keeps one batch per query, as its partition
    holds n*m pairs, but when its pair scorer has a ``featurizer`` it first
    warms it once with the database and the queries, so the featurizer
    makes one token pass for the partition rather than one per query.
    """
    if method not in METHODS:
        raise ScenarioError(f"unknown method {method!r}")
    if not queries or not database:
        raise ScenarioError("query set and database must both be nonempty")
    database = sorted(database, key=lambda r: r.bug_id)
    db_ids = tuple(r.bug_id for r in database)
    db_row = {b: i for i, b in enumerate(db_ids)}
    if len(db_row) != len(db_ids):
        raise ScenarioError("duplicate bug ids in database")
    query_ids = tuple(q.bug_id for q in queries)
    # Each query's own database row, or -1.
    own = np.array([db_row.get(b, -1) for b in query_ids])
    m = len(database)
    ledger = CostLedger()
    pair_cache = {} if dedup_pairs else None
    featurizer = getattr(pair_classifier, "featurizer", None)

    if method == "classification_only":
        parts = []
        with ledger.phase("classify"):
            if featurizer is not None:
                featurizer.warm([*database, *queries])
            for q, skip in zip(queries, own.tolist()):
                others = np.flatnonzero(np.arange(m) != skip)
                pairs = [(q, database[r]) for r in others.tolist()]
                probs, dup = _classify(pair_classifier, pairs, ledger, pair_cache)
                order = np.argsort(-probs, kind="stable")
                parts.append((others[order], probs[order], dup[order]))
        rows, scores, kept = (np.concatenate(column) for column in zip(*parts))
        ptr = np.cumsum([0] + [len(r) for r, _, _ in parts])
    else:
        with ledger.phase("embed"):
            # The database is already in id order, so its rows are the
            # search's database rows as they come.
            extra = sorted({q.bug_id: q for q in queries if q.bug_id not in db_row}.items())
            ordered = database + [q for _, q in extra]
            if has_sparse_rows(embedder):
                tokens = report_tokens(embedder, ordered)
                embedded, rank = tokens[2], search_rows
                if method == "cascade" and getattr(featurizer, "embedder", None) is embedder:
                    featurizer.warm(ordered, tokens)
            else:
                embedded, rank = embedder.embed_texts([r.clean_text for r in ordered]), search
            ledger.count_embeds(len(ordered))

        with ledger.phase("search"):
            row_of = {r.bug_id: i for i, r in enumerate(ordered)}
            at = [row_of[b] for b in query_ids]
            ptr, rows, scores = rank(embedded, db_ids, at, k, query_ids)
            # A query ranks the whole database, less itself.
            ledger.count_similarity(int(m * len(queries) - (own >= 0).sum()))

        if method == "retrieval_only":
            kept = np.ones(len(rows), dtype=bool)
        else:
            with ledger.phase("classify"):
                who = np.repeat(np.arange(len(queries)), np.diff(ptr)).tolist()
                pairs = [(queries[i], database[r]) for i, r in zip(who, rows.tolist())]
                _, kept = _classify(pair_classifier, pairs, ledger, pair_cache)

    # A candidate is relevant when it is in its query's cluster. A query's
    # relevant count is its cluster's database members (``sizes``, shifted
    # one place for -1), less itself when it is one.
    labels = _labels(cluster_set, db_ids)
    query_labels = _labels(cluster_set, query_ids)
    ranked_labels = np.repeat(query_labels, np.diff(ptr))
    sizes = np.bincount(labels + 1, minlength=max(labels.max(initial=-1), query_labels.max()) + 2)
    outcome = PartitionOutcome(
        ptr=ptr,
        rows=rows,
        kept=kept,
        relevant=(labels[rows] == ranked_labels) & (ranked_labels >= 0),
        n_relevant=np.where(query_labels >= 0, sizes[query_labels + 1] - (own >= 0), 0),
        db_size=m - (own >= 0),
        scores=scores,
        queries=query_ids,
        db_ids=db_ids,
        labels=labels,
        query_labels=query_labels,
    )
    return outcome, ledger


def _labels(cluster_set: ClusterSet, bug_ids: Sequence[str]) -> np.ndarray:
    """The cluster id of each bug, -1 for one in no cluster."""
    return np.array(
        [-1 if c is None else c for c in map(cluster_set.cluster_of, bug_ids)], dtype=np.int64
    )


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
    probs, dup = _classify(pair_classifier, pairs, ledger, pair_cache)
    return list(zip(probs.tolist(), dup.tolist()))


def _classify(pair_classifier, pairs, ledger, pair_cache) -> tuple[np.ndarray, np.ndarray]:
    """``classify_pairs`` as two arrays: the probabilities and the verdicts."""
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
    dup = probs >= pair_classifier.threshold
    if pair_cache is None:
        return probs, dup
    pair_cache.update(zip(missing, zip(probs.tolist(), dup.tolist())))
    cached = np.array([pair_cache[key] for key in keys], dtype=np.float64).reshape(-1, 2)
    return cached[:, 0], cached[:, 1] == 1.0


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
    outcome, ledger = run_partition(
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
        rows = [exhaustive_row(outcome, config.k)]
    else:
        rows = aggregate_curves(outcome, list(range(1, config.k + 1)))
    snapshot = ledger.snapshot()
    total_ms = sum(snapshot["wall_clock_ms"].values())
    return ScenarioResult(
        config=config,
        outcome=outcome,
        metric_rows=rows,
        ledger=snapshot,
        timing_ms={**snapshot["wall_clock_ms"], "total": total_ms},
        n_queries=len(queries),
        db_size=len(database),
        queries_without_peers=int((outcome.n_relevant == 0).sum()),
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
                "query": query,
                "relevant": list(relevant),
                "db_size": db_size,
                "candidates": list(map(list, candidates)),
            }
            for query, candidates, relevant, db_size in result.outcome._per_query()
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

