"""Per-layer metrics from the spans and counters of a traced run.

Each metric is computed per traced workload call and reported as the
median over those calls; latency percentiles pool the spans of all of
them. Layers that only set-up exercises in most workloads (synthesis,
clustering, splitting, training, fitting) fall back to the traced
set-ups when no call touched them, so the pipeline-cli chain reports
them per call and the other workloads per set-up.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracing import Tracer


class Unit:
    """Span totals, span counts, self times and counters of one unit."""

    def __init__(self, out=None) -> None:
        self.out = out
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.own: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    def phase_s(self, name: str) -> float:
        return self.out.phases_ms.get(name, 0.0) / 1000.0 if self.out else 0.0

    def ledger(self, name: str) -> float:
        return self.out.ledger.get(name, 0) if self.out else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cli(command: str):
    return (f"cli.{command}_s", "s", lambda u: u.seconds[f"cli.{command}"])


# name, unit, value of one unit
PER_CALL = (
    ("retrieval.top_k_calls", "count", lambda u: u.calls["retrieval.top_k"]),
    ("retrieval.top_k_s", "s", lambda u: u.seconds["retrieval.top_k"]),
    ("retrieval.similarity_ops_per_s", "1/s",
     lambda u: _ratio(u.ledger("similarity_ops"), u.seconds["retrieval.top_k"])),
    ("cascade.search_phase_s", "s", lambda u: u.phase_s("search")),
    ("classifier.classify_batch_calls", "count", lambda u: u.calls["classifier.classify_batch"]),
    ("classifier.classify_batch_s", "s", lambda u: u.seconds["classifier.classify_batch"]),
    ("classifier.pairs_per_s", "1/s",
     lambda u: _ratio(u.counters["classifier.pairs"], u.seconds["classifier.classify_batch"])),
    ("classifier.featurizer_texts_embedded", "count",
     lambda u: u.counters["classifier.featurizer_texts_embedded"]),
    ("classifier.featurizer_useful_ratio", "ratio",
     lambda u: _ratio(3 * u.counters["classifier.distinct_reports"],
                      u.counters["classifier.featurizer_texts_embedded"])),
    ("cascade.classify_phase_s", "s", lambda u: u.phase_s("classify")),
    ("embedder.embed_texts_calls", "count", lambda u: u.calls["embedder.embed_texts"]),
    ("embedder.texts_embedded", "count", lambda u: u.counters["embedder.texts_embedded"]),
    ("embedder.embed_texts_s", "s", lambda u: u.seconds["embedder.embed_texts"]),
    ("cascade.embed_phase_s", "s", lambda u: u.phase_s("embed")),
    ("corpus.clean_calls", "count", lambda u: u.calls["corpus.clean"]),
    ("corpus.clean_s", "s", lambda u: u.seconds["corpus.clean"]),
    ("corpus.ingest_calls", "count", lambda u: u.calls["corpus.ingest"]),
    ("corpus.ingest_s", "s", lambda u: u.seconds["corpus.ingest"]),
    ("metrics.aggregate_curves_s", "s", lambda u: u.seconds["metrics.aggregate_curves"]),
    ("cascade.self_s", "s",
     lambda u: u.own["cascade.run_one_vs_all"] + u.own["cascade.run_all_vs_all"]),
    ("ledger.embed_calls", "count", lambda u: u.ledger("embed_calls")),
    ("ledger.pair_classifications", "count", lambda u: u.ledger("pair_classifications")),
    ("ledger.similarity_ops", "count", lambda u: u.ledger("similarity_ops")),
    ("remote.requests", "count", lambda u: u.counters["stub.requests"]),
    ("remote.connections", "count", lambda u: u.counters["stub.connections"]),
    ("remote.bytes_sent", "bytes", lambda u: u.counters["stub.bytes_in"]),
    ("remote.bytes_received", "bytes", lambda u: u.counters["stub.bytes_out"]),
    ("remote.failed_requests", "count", lambda u: u.counters["stub.non_200"]),
    ("remote.embed_texts_s", "s", lambda u: u.seconds["remote.embed_texts"]),
    ("remote.classify_batch_s", "s", lambda u: u.seconds["remote.classify_batch"]),
    ("remote.server_busy_s", "s", lambda u: u.counters["stub.busy_s"]),
    *(_cli(c) for c in ("synth", "cluster", "split", "train-projection", "train-classifier",
                        "run-cascade", "report")),
    ("cli.artifact_bytes", "bytes", lambda u: u.counters["cli.artifact_bytes"]),
)

# Reported per call where the calls run them, else per set-up.
SETUP_LAYERS = (
    ("synth.synth_corpus_s", "s", lambda u: u.seconds["synth.synth_corpus"]),
    ("dup_graph.build_clusters_s", "s", lambda u: u.seconds["dup_graph.build_clusters"]),
    ("splitter.build_manifest_s", "s", lambda u: u.seconds["splitter.build_manifest"]),
    ("splitter.pairs", "count", lambda u: u.counters["splitter.pairs"]),
    ("classifier.train_classifier_s", "s", lambda u: u.seconds["classifier.train_classifier"]),
    ("embedder.fit_calls", "count", lambda u: u.calls["embedder.fit"]),
    ("embedder.train_projection_s", "s", lambda u: u.seconds["embedder.train_projection"]),
)

# Span name -> metric prefix for pooled latency percentiles, in ms.
PERCENTILES = (("retrieval.top_k", "retrieval.top_k_ms"), ("remote.request", "remote.request_ms"))


def per_layer(tracer: Tracer, outs: dict, traced: list[float], untraced: list[float]) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    units: dict[int, Unit] = {u: Unit(outs.get(u)) for u in tracer.units("call")}
    units.update({u: Unit() for u in tracer.units("setup")})
    own = tracer.self_seconds()
    pooled: dict[str, list[float]] = defaultdict(list)
    for i, span in enumerate(tracer.spans):
        unit = units[span.unit]
        unit.seconds[span.name] += span.seconds
        unit.calls[span.name] += 1
        unit.own[span.name] += own[i]
        if unit.out is not None:
            pooled[span.name].append(span.seconds * 1000.0)
    for (u, name), value in tracer.counters.items():
        units[u].counters[name] += value

    calls = [units[u] for u in outs]
    setups = [units[u] for u in tracer.units("setup")]
    metrics = {}
    for name, unit, fn in PER_CALL:
        metrics[name] = (statistics.median([fn(u) for u in calls]), unit)
    for name, unit, fn in SETUP_LAYERS:
        values = [fn(u) for u in calls]
        if not any(values):
            values = [fn(u) for u in setups]
        metrics[name] = (statistics.median(values), unit)
    for span_name, prefix in PERCENTILES:
        samples = pooled.get(span_name) or [0.0]
        metrics[f"{prefix}_p50"] = (float(np.percentile(samples, 50)), "ms")
        metrics[f"{prefix}_p99"] = (float(np.percentile(samples, 99)), "ms")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["trace.missing_wrappers"] = (len(tracer.missing), "count")
    return metrics
