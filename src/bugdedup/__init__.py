"""Duplicate bug report detection: retrieve-then-classify at n+m+n*k cost.

The package turns a bug tracker dump into duplicate clusters, splits
them without leakage, trains lightweight embedding/classification
baselines, and measures the retrieval/classification/cascade trade-off
with exact inference accounting.
"""

from .cascade import (
    ScenarioConfig,
    ScenarioResult,
    predict_cost,
    predict_cost_all_vs_all,
    run_all_vs_all,
    run_one_vs_all,
    run_partition,
)
from .classifier import (
    LogisticPairModel,
    OracleClassifier,
    PairFeaturizer,
    SimilarityClassifier,
    train_classifier,
)
from .corpus import BugReport, Corpus, build_corpus, clean, corpus_stats, ingest
from .dup_graph import Cluster, ClusterSet, build_clusters
from .embedder import (
    ProjectedEmbedder,
    ProjectionModel,
    TfidfHashEmbedder,
    TrainConfig,
    train_projection,
)
from .ledger import CostLedger
from .metrics import ConfusionMatrix, MetricRow, aggregate_curves, classification_metrics
from .retrieval import search, search_rows
from .splitter import SplitManifest, build_manifest, split_clusters
from .synth import SynthConfig, synth_corpus

__version__ = "0.1.0"

__all__ = [
    "BugReport",
    "Cluster",
    "ClusterSet",
    "ConfusionMatrix",
    "Corpus",
    "CostLedger",
    "LogisticPairModel",
    "MetricRow",
    "OracleClassifier",
    "PairFeaturizer",
    "ProjectedEmbedder",
    "ProjectionModel",
    "ScenarioConfig",
    "ScenarioResult",
    "SimilarityClassifier",
    "SplitManifest",
    "SynthConfig",
    "TfidfHashEmbedder",
    "TrainConfig",
    "aggregate_curves",
    "build_clusters",
    "build_corpus",
    "build_manifest",
    "classification_metrics",
    "clean",
    "corpus_stats",
    "ingest",
    "predict_cost",
    "predict_cost_all_vs_all",
    "run_all_vs_all",
    "run_one_vs_all",
    "run_partition",
    "search",
    "search_rows",
    "split_clusters",
    "synth_corpus",
    "train_classifier",
    "train_projection",
]
