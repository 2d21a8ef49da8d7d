"""The benchmark's workloads: inputs from a seed, one timed call, output checks.

Every workload drives the library through its public entry points only
(``run_one_vs_all``, ``run_all_vs_all``, ``cli.main`` and the backend
constructors). The seed picks the synthetic corpus, the split and the
query/database partition; the program sees only what they produce.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bugdedup import cascade, classifier, cli, dup_graph, embedder, remote, splitter, synth

from stub import LoopbackStub, embed_vectors
from tracing import TracedClassifier, TracedEmbedder, Tracer

K = 20
# Most clusters train the classifier, so its precision varies little
# from seed to seed; the test split alone sets the size of a call.
RATIOS = (0.6, 0.05, 0.35)
RATIOS_ARG = "0.6,0.05,0.35"
# No dev pairs, so the classifier keeps its 0.5 threshold. On these
# corpora dev F1 is flat over a wide band of thresholds and the tuned
# threshold lands anywhere from 0.04 to 0.91 with the seed, which made
# precision swing from 0.38 to 0.92 between seeds.
CAPS = {"train": None, "dev": 0, "test": None}
CAPS_ARG = "dev=0"
# One-vs-all workloads cycle through this many query/database partitions
# of the same test pool, one per call; recall and precision pool the
# decisions of all of them, so a few queries per call still give steady
# figures.
PARTITIONS = 16
# Every planted cluster has exactly two reports (Poisson extra members
# with mean 0), so corpus, split and partition sizes are the same for
# every seed and only the text varies; with the default mean of 3, call
# times moved by up to 15% from seed to seed with the sizes alone.
MEAN_SIZE = 2.0


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    clusters: int
    mode: str = "one_vs_all"
    method: str = "cascade"
    epochs: int = 30
    query_fraction: float = 0.2  # share of the test pool that queries, one-vs-all
    remote: bool = False
    cli: bool = False


SPECS = {
    s.name: s
    for s in (
        Spec(
            "triage-cascade",
            "the paper's method: embed, search, featurize and score all carry weight",
            clusters=450,
        ),
        Spec(
            "backlog-retrieval",
            "all-vs-all retrieval only: search and metric aggregation do the work, classifier idle",
            clusters=730,
            mode="all_vs_all",
            method="retrieval_only",
        ),
        Spec(
            "exhaustive-classify",
            "the n*m baseline: few queries, large database, all featurize and score",
            clusters=300,
            method="classification_only",
            query_fraction=0.03,
        ),
        Spec(
            "pipeline-cli",
            "the in-process CLI chain from synth to report: ingest, cluster, split, both "
            "trainers, artifacts",
            clusters=280,
            epochs=60,
            cli=True,
        ),
        Spec(
            "remote-cascade",
            "triage-cascade's partition through the HTTP backends against a loopback stub",
            clusters=450,
            remote=True,
        ),
    )
}


@dataclass
class CallOutput:
    """What one workload call produced, in the terms the metrics need."""

    n_queries: int
    db_size: int
    ledger: dict
    phases_ms: dict
    tp: int
    fp: int
    fn: int
    digest: str
    top_k: dict | None = None  # query id -> candidate ids, for the oracle
    ops: int = 0  # operations inside the call: CLI commands, remote requests
    failed_ops: int = 0


@dataclass
class State:
    spec: Spec
    seed: int
    corpus: object
    clusters: object
    manifest: object
    configs: list[cascade.ScenarioConfig]
    pool: list[str]
    emb: object = None
    model: object = None
    stub: LoopbackStub | None = None
    workdir: Path | None = None
    references: dict = field(default_factory=dict)  # partition -> library run, CLI only
    digests: dict = field(default_factory=dict)  # partition -> digest of its first call
    oracles: dict = field(default_factory=dict)  # partition -> query -> rankings


# ---------------------------------------------------------------- set-up


def setup(spec: Spec, seed: int, workdir: Path) -> State:
    """Everything the program needs before the first timed call."""
    corpus = synth.synth_corpus(
        synth.SynthConfig(n_clusters=spec.clusters, mean_size=MEAN_SIZE, seed=seed)
    )
    clusters = dup_graph.build_clusters(corpus)
    manifest = splitter.build_manifest(clusters, ratios=RATIOS, seed=seed, caps=CAPS)
    pool = manifest.bugs_in(clusters, "test")
    partitions = PARTITIONS if spec.mode == "one_vs_all" else 1
    configs = [
        cascade.ScenarioConfig(
            mode=spec.mode, method=spec.method, k=K, seed=scenario_seed(seed, p),
            query_fraction=spec.query_fraction,
        )
        for p in range(partitions)
    ]
    state = State(spec, seed, corpus, clusters, manifest, configs, pool)
    if spec.remote:
        state.stub = LoopbackStub()
        return state
    train = [corpus.by_id[b].clean_text for b in manifest.bugs_in(clusters, "train")]
    state.emb = embedder.TfidfHashEmbedder.fit(train, dim=embedder.DEFAULT_DIM)
    if spec.method != "retrieval_only":
        state.model = classifier.train_classifier(
            _pairs(corpus, manifest, "train"),
            state.emb,
            classifier.ClassifierTrainConfig(epochs=spec.epochs, seed=seed),
            dev_pairs=_pairs(corpus, manifest, "dev"),
        )
    if spec.cli:
        state.workdir = workdir
    return state


def scenario_seed(seed: int, partition: int) -> int:
    return seed * 1000 + partition


def _pairs(corpus, manifest, split):
    by_id = corpus.by_id
    return [(by_id[p.bug_a], by_id[p.bug_b], p.duplicate) for p in manifest.pairs[split]]


def teardown(state: State) -> None:
    if state.stub is not None:
        state.stub.close()


# ---------------------------------------------------------------- calls


def call(state: State, partition: int, tracer: Tracer | None = None):
    """One timed workload call; ``summarize`` turns its result into a CallOutput."""
    if state.spec.cli:
        return _call_cli(state, partition, tracer)
    return _call_scenario(state, state.configs[partition], tracer)


def summarize(state: State, raw) -> CallOutput:
    """The untimed part: payloads, digests and top-k lists for the checks."""
    if state.spec.cli:
        return _summarize_cli(state, raw)
    result, delta = raw
    row = next(r for r in result.metric_rows if r.k == K)
    payload = cascade.scenario_to_json(result)
    out = CallOutput(
        n_queries=result.n_queries,
        db_size=result.db_size,
        ledger={k: v for k, v in result.ledger.items() if k != "wall_clock_ms"},
        phases_ms=dict(result.ledger["wall_clock_ms"]),
        tp=row.tp,
        fp=row.fp,
        fn=row.fn,
        digest=hashlib.sha256(cascade.canonical_scenario_bytes(payload)).hexdigest(),
    )
    if state.spec.method != "classification_only":
        out.top_k = {r.query: tuple(c for c, _, _ in r.candidates) for r in result.records}
    if delta is not None:
        out.ops, out.failed_ops = delta["requests"], delta["non_200"]
    return out


def _backends(state: State, tracer: Tracer | None):
    if state.stub is not None:
        emb = remote.RemoteEmbedder(remote.RemoteConfig(endpoint=state.stub.embed_url))
        clf = remote.RemoteClassifier(remote.RemoteConfig(endpoint=state.stub.classify_url))
        layer = "remote"
    else:
        emb = state.emb
        clf = None
        layer = "embedder"
    if tracer is not None:
        emb = TracedEmbedder(emb, tracer, layer)
    if clf is None and state.model is not None:
        clf = classifier.LogisticClassifier(state.model, classifier.PairFeaturizer(emb))
        layer = "classifier"
    if tracer is not None and clf is not None:
        clf = TracedClassifier(clf, tracer, layer)
    return emb, clf


def _call_scenario(state: State, config, tracer: Tracer | None):
    before = state.stub.snapshot() if state.stub else None
    emb, clf = _backends(state, tracer)
    runner = cascade.run_one_vs_all if config.mode == "one_vs_all" else cascade.run_all_vs_all
    result = runner(config, state.manifest, state.clusters, state.corpus, emb, clf)
    delta = state.stub.snapshot().minus(before) if before is not None else None
    if tracer is not None:
        for name, value in (delta or {}).items():
            tracer.count(f"stub.{name}", value)
        if isinstance(clf, TracedClassifier):
            tracer.count("classifier.distinct_reports", len(clf.reports))
    return result, delta


def _chain(spec: Spec, seed: int, partition: int) -> list[list[str]]:
    data = ["--corpus", "corpus.jsonl", "--clusters", "clusters.json",
            "--manifest", "manifest.json"]
    dim = ["--dim", str(embedder.DEFAULT_DIM)]
    return [
        ["synth", "--clusters", str(spec.clusters), "--mean-size", str(MEAN_SIZE), "--seed",
         str(seed), "--out", "corpus.jsonl"],
        ["cluster", "--corpus", "corpus.jsonl", "--out", "clusters.json"],
        ["split", "--clusters", "clusters.json", "--seed", str(seed), "--ratios", RATIOS_ARG,
         "--caps", CAPS_ARG, "--out", "manifest.json"],
        ["train-projection", *data, "--seed", str(seed), *dim, "--dim-out", "32", "--epochs", "2",
         "--out", "projection.json"],
        ["train-classifier", *data, "--seed", str(seed), *dim, "--epochs", str(spec.epochs),
         "--out", "classifier.json"],
        ["run-cascade", *data, "--mode", "one-vs-all", "--method", "cascade", "--k", str(K),
         "--seed", str(scenario_seed(seed, partition)),
         "--query-fraction", str(spec.query_fraction),
         *dim, "--classifier-backend", "logistic", "--model", "classifier.json",
         "--out", "scenario.json"],
        ["report", "--in", "scenario.json", "--out", "report.csv"],
    ]


def _call_cli(state: State, partition: int, tracer: Tracer | None) -> dict:
    """Run the chain in a fresh work directory; raises on a nonzero exit."""
    work = state.workdir
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    echoed: dict = {}
    here = Path.cwd()
    os.chdir(work)
    try:
        for argv in _chain(state.spec, state.seed, partition):
            stdout = io.StringIO()
            span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited {code}: {stdout.getvalue().strip()[:300]}")
            if argv[0] == "run-cascade":
                echoed = json.loads(stdout.getvalue().strip().splitlines()[-1])
    finally:
        os.chdir(here)
    if tracer is not None:
        tracer.count("cli.artifact_bytes", sum(p.stat().st_size for p in work.iterdir()))
    return echoed


def _summarize_cli(state: State, echoed: dict) -> CallOutput:
    work = state.workdir
    scenario = json.loads((work / "scenario.json").read_text(encoding="utf-8"))
    row = next(r for r in scenario["metrics"] if r["k"] == K)
    return CallOutput(
        n_queries=scenario["n_queries"],
        db_size=scenario["db_size"],
        ledger=echoed["ledger"],
        phases_ms=dict(scenario["ledger"]["wall_clock_ms"]),
        tp=row["tp"],
        fp=row["fp"],
        fn=row["fn"],
        digest=_artifact_digest(sorted(p for p in work.iterdir() if p.is_file())),
        top_k={q["query"]: tuple(c[0] for c in q["candidates"]) for q in scenario["per_query"]},
        ops=7,  # the commands of the chain
    )


def _artifact_digest(files: list[Path]) -> str:
    """sha256 over every artifact, with wall-clock fields taken out."""
    h = hashlib.sha256()
    for path in files:
        if path.name == "scenario.json":
            data = cascade.canonical_scenario_bytes(json.loads(path.read_text(encoding="utf-8")))
        elif path.name == "report.csv":
            with path.open(encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            data = json.dumps([{k: v for k, v in r.items() if k != "wall_clock_ms"} for r in rows],
                              sort_keys=True).encode("utf-8")
        else:
            data = path.read_bytes()
        h.update(path.name.encode("utf-8") + b"\0" + data + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------- checks


def check(state: State, partition: int, out: CallOutput) -> tuple[int, list[str]]:
    """Output checks on one call; returns (checks made, failures)."""
    failures = []
    cfg = state.configs[partition]
    if cfg.mode == "one_vs_all":
        expected = cascade.predict_cost(cfg.method, out.n_queries, out.db_size, cfg.k)
    else:
        expected = cascade.predict_cost_all_vs_all(cfg.method, out.db_size, cfg.k)
    if out.ledger != expected:
        failures.append(f"ledger {out.ledger} != closed form {expected}")
    made = 2
    if out.top_k is not None:
        made += 1
        if partition not in state.oracles:
            state.oracles[partition] = _oracle(state, cfg, sorted(out.top_k))
        wrong = _check_top_k(state.oracles[partition], out.top_k, cfg.k)
        if wrong:
            failures.append(
                f"{len(wrong)} top-k lists differ from the full-sort oracle: {wrong[:3]}"
            )
    first = state.digests.setdefault(partition, out.digest)
    if out.digest != first:
        failures.append(f"output digest {out.digest} differs from the first call's {first}")
    if state.spec.cli:
        made += 1
        failures.extend(_check_against_library(state, partition))
    return made, failures


def _vectors(state: State, ids) -> np.ndarray:
    texts = [state.corpus.by_id[b].clean_text for b in ids]
    if state.stub is not None:
        return embed_vectors(texts)
    return state.emb.embed_texts(texts)


def _check_top_k(oracle: dict, got: dict, k: int) -> list[str]:
    """Queries whose top-k ids differ from a full sort of cosine scores,
    ties broken by ascending id."""
    wrong = []
    for query, ids in got.items():
        want = oracle.get(query)
        if (
            want is None
            or len(ids) != min(k, len(want[0]))
            or ids != want[0][: len(ids)] and ids != want[1][: len(ids)]
        ):
            wrong.append(query)
    return wrong


def _oracle(state: State, config, queries: list[str]) -> dict:
    """Per query, the full ranking under exact and under 1e-12-rounded
    scores; the rounded one accepts ties broken by last-digit noise."""
    if config.mode == "one_vs_all":
        asked = set(queries)
        database = [b for b in state.pool if b not in asked]
    else:
        database = list(state.pool)
    db = _vectors(state, database)
    qv = _vectors(state, queries)
    db_norm = np.linalg.norm(db, axis=1)
    order_key = np.arange(len(database))
    out = {}
    for i, query in enumerate(queries):
        q = qv[i]
        denom = db_norm * np.linalg.norm(q)
        valid = denom > 1e-12
        scores = np.where(valid, (db @ q) / np.where(valid, denom, 1.0), -np.inf)
        keep = np.array([b != query for b in database])
        rankings = []
        for s in (scores, np.round(scores, 12)):
            order = np.lexsort((order_key, -s))
            rankings.append(tuple(database[j] for j in order if keep[j]))
        out[query] = tuple(rankings)
    return out


def _check_against_library(state: State, partition: int) -> list[str]:
    """The CLI's scenario must equal the library run on the same inputs."""
    if partition not in state.references:
        clf = classifier.LogisticClassifier(state.model, classifier.PairFeaturizer(state.emb))
        result = cascade.run_one_vs_all(
            state.configs[partition], state.manifest, state.clusters, state.corpus, state.emb, clf
        )
        state.references[partition] = _comparable(cascade.scenario_to_json(result))
    scenario = json.loads((state.workdir / "scenario.json").read_text(encoding="utf-8"))
    if _comparable(scenario) != state.references[partition]:
        return ["CLI scenario differs from the library run on the same inputs"]
    return []


def _comparable(payload: dict) -> bytes:
    keys = ("n_queries", "db_size", "per_query", "metrics")
    return cascade.canonical_scenario_bytes({k: payload[k] for k in keys})
