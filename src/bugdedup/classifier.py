"""Pair classification: score how likely two reports are duplicates.

Every backend is a pair scorer with one method and one attribute:
``classify_batch(pairs)`` returns one probability per pair (float64,
shape ``(len(pairs),)``), and ``threshold`` is the probability at or
above which a pair is a duplicate. The cascade runner
(``cascade.classify_pairs``) applies the threshold and counts the
classifications, so no backend decides or counts on its own.

* ``LogisticClassifier`` - logistic regression over hand-built pair
  features, trained with binary cross-entropy; the shipped default.
* ``SimilarityClassifier`` - fixed threshold on whole-text cosine.
* ``OracleClassifier`` - ground-truth cluster lookup, used only to
  verify pipeline plumbing, never for reported metrics.

The remote service backend lives in ``remote``. The pair featurizer
embeds each report's whole text, title and description once and keeps
the vectors for every later pair; those embeddings are its own business
and are deliberately not ledgered as embedding calls. When the cascade
runner embedded the whole texts with the featurizer's own embedder (the
same object), it hands those vectors over (``PairFeaturizer.reusing``),
and the featurizer embeds only titles and descriptions.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .corpus import BugReport
from .dup_graph import ClusterSet
from .embedder import ZERO_NORM, TrainingError
from .metrics import ConfusionMatrix, classification_metrics
from .seeding import substream_rng

_CLAMP = 1e-12


class FeatureError(ValueError):
    pass


FEATURE_COUNT = 5

# ``feature_matrix`` and ``cosine_all_batch`` gather the vectors of at most
# this many pairs at a time, which bounds their memory for any batch size.
_CHUNK_PAIRS = 256


def _chunks(n: int) -> Iterator[slice]:
    return (slice(i, i + _CHUNK_PAIRS) for i in range(0, n, _CHUNK_PAIRS))


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u[i] @ v[i]`` for every row i, each summed as that 1-D product is."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _cosines(u: np.ndarray, v: np.ndarray, nu: np.ndarray, nv: np.ndarray) -> np.ndarray:
    """Row-wise cosine given row norms; 0 where either norm is below 1e-12."""
    valid = ~((nu < ZERO_NORM) | (nv < ZERO_NORM))
    return np.where(valid, _row_dots(u, v) / np.where(valid, nu * nv, 1.0), 0.0)


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    shared = len(a & b)
    union = len(a) + len(b) - shared
    return shared / union if union else 0.0


# Report fields the featurizer embeds, in the order of its vector store's first axis.
_FIELDS = ("clean_text", "clean_title", "clean_description")


class PairFeaturizer:
    """Builds pair features from per-report vectors, each embedded once.

    ``warm`` embeds the whole text, title and description of every report
    not seen before, in one batched call per field, and stores them as
    rows of one array with their norms and token sets. ``feature_matrix``
    gathers the rows of a batch of pairs by index, one field and
    ``_CHUNK_PAIRS`` pairs at a time. Norms and dot products are summed
    exactly as ``np.linalg.norm`` and ``u @ v`` sum a single pair, so a
    feature does not depend on the batch it was computed in.
    """

    def __init__(self, embedder):
        self.embedder = embedder
        self._row: dict[str, int] = {}
        self._tokens: list[frozenset[str]] = []
        self._vectors = np.zeros((len(_FIELDS), 0, 0))  # field, row, dim
        self._norms = np.zeros((len(_FIELDS), 0))
        self._given: Mapping[str, np.ndarray] = {}

    @contextmanager
    def reusing(self, text_vectors: Mapping[str, np.ndarray]) -> Iterator[None]:
        """Inside the block, ``warm`` takes a report's whole-text vector from
        ``text_vectors`` (by bug id) instead of embedding the text again.

        The vectors must come from ``self.embedder``. A ``TfidfHashEmbedder``
        builds and normalises each row on its own, so a reused row equals
        the one ``warm`` would embed, bit for bit.
        """
        self._given = text_vectors
        try:
            yield
        finally:
            self._given = {}

    def warm(self, reports: Sequence[BugReport]) -> None:
        """Embed the reports not seen before, each once, one batched call per field."""
        missing = list({r.bug_id: r for r in reports if r.bug_id not in self._row}.values())
        if not missing:
            return
        used, end = len(self._tokens), len(self._tokens) + len(missing)
        for f, name in enumerate(_FIELDS):
            if f == 0:
                vectors = self._text_vectors(missing)
                self._reserve(end, vectors.shape[1])
            else:
                texts = [getattr(r, name) for r in missing]
                vectors = np.asarray(self.embedder.embed_texts(texts), dtype=np.float64)
            self._vectors[f, used:end] = vectors
            self._norms[f, used:end] = np.sqrt(_row_dots(vectors, vectors))
        for i, r in enumerate(missing):
            self._row[r.bug_id] = used + i
            self._tokens.append(frozenset(r.clean_text.split()))

    def _text_vectors(self, reports: Sequence[BugReport]) -> np.ndarray:
        """Whole-text vectors: those handed over by ``reusing``, the rest embedded."""
        vectors = [self._given.get(r.bug_id) for r in reports]
        todo = [r.clean_text for r, v in zip(reports, vectors) if v is None]
        if todo:
            fresh = iter(self.embedder.embed_texts(todo))
            vectors = [next(fresh) if v is None else v for v in vectors]
        return np.asarray(vectors, dtype=np.float64)

    def _reserve(self, rows: int, dim: int) -> None:
        """Room for ``rows`` rows in the vector store, kept rows copied over."""
        used = len(self._tokens)
        if rows <= self._vectors.shape[1]:
            return
        size = max(rows, 2 * used)  # doubling keeps appends amortised O(1)
        grown = np.zeros((len(_FIELDS), size, dim))
        norms = np.zeros((len(_FIELDS), size))
        if used:
            grown[:, :used] = self._vectors[:, :used]
            norms[:, :used] = self._norms[:, :used]
        self._vectors, self._norms = grown, norms

    def _rows(self, pairs: Sequence[tuple[BugReport, BugReport]]) -> tuple[np.ndarray, np.ndarray]:
        self.warm([r for pair in pairs for r in pair])
        left = np.array([self._row[a.bug_id] for a, _ in pairs], dtype=np.intp)
        right = np.array([self._row[b.bug_id] for _, b in pairs], dtype=np.intp)
        return left, right

    def feature_matrix(self, pairs: Sequence[tuple[BugReport, BugReport]]) -> np.ndarray:
        """Features of each pair, shape (len(pairs), 5): whole-text, title and
        description cosine, whole-text Euclidean distance, token Jaccard."""
        for a, b in pairs:
            if not a.clean_text and not b.clean_text:
                raise FeatureError(f"both reports empty after cleaning: {a.bug_id}, {b.bug_id}")
        left, right = self._rows(pairs)
        x = np.empty((len(pairs), FEATURE_COUNT))
        for chunk in _chunks(len(pairs)):
            l, r = left[chunk], right[chunk]
            for f in range(len(_FIELDS)):
                u, v = self._vectors[f, l], self._vectors[f, r]
                x[chunk, f] = _cosines(u, v, self._norms[f, l], self._norms[f, r])
                if f == 0:
                    diff = u - v
                    x[chunk, 3] = np.sqrt(_row_dots(diff, diff))
        tokens = self._tokens
        x[:, 4] = [_jaccard(tokens[i], tokens[j]) for i, j in zip(left.tolist(), right.tolist())]
        if not np.isfinite(x).all():
            bad = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
            raise FeatureError(f"non-finite pair features: {tuple(x[bad].tolist())}")
        if not ((x[:, 4] >= 0.0) & (x[:, 4] <= 1.0)).all():
            raise FeatureError(f"jaccard out of range: {x[:, 4].min()}, {x[:, 4].max()}")
        return x

    def cosine_all_batch(self, pairs: Sequence[tuple[BugReport, BugReport]]) -> np.ndarray:
        """Whole-text cosine for many pairs at once, as ``feature_matrix`` computes it."""
        left, right = self._rows(pairs)
        vectors, norms = self._vectors[0], self._norms[0]
        out = np.empty(len(pairs))
        for chunk in _chunks(len(pairs)):
            l, r = left[chunk], right[chunk]
            out[chunk] = _cosines(vectors[l], vectors[r], norms[l], norms[r])
        return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class ClassifierTrainConfig:
    learning_rate: float = 0.5
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    threshold_step: float = 0.01


@dataclass(frozen=True, eq=False)
class LogisticPairModel:
    """Logistic regression over the pair features; weights[-1] is the bias."""

    weights: np.ndarray
    threshold: float = 0.5
    train_config: ClassifierTrainConfig = ClassifierTrainConfig()
    loss_curve: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.weights.shape != (FEATURE_COUNT + 1,):
            raise ValueError(f"expected {FEATURE_COUNT + 1} weights, got {self.weights.shape}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite model weights")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0,1), got {self.threshold}")

    def predict_proba(self, feature_matrix: np.ndarray) -> np.ndarray:
        """One probability per row; a row's bits do not depend on its batch.

        numpy computes ``x @ w`` for two or more contiguous rows with a
        matrix-vector product, whose rows do not depend on each other, but
        for one row with a dot product, and for strided rows with its own
        loop, both of which sum in another order. Rows are therefore made
        contiguous, and a lone row is scored as a two-row product.
        """
        x = np.ascontiguousarray(np.atleast_2d(feature_matrix), dtype=np.float64)
        rows = np.repeat(x, 2, axis=0) if len(x) == 1 else x
        z = (rows @ self.weights[:-1])[: len(x)] + self.weights[-1]
        return _sigmoid(z)


def _feature_matrix(featurizer: PairFeaturizer, pairs) -> tuple[np.ndarray, np.ndarray]:
    x = featurizer.feature_matrix([(a, b) for a, b, _ in pairs])
    y = np.array([1.0 if dup else 0.0 for _, _, dup in pairs])
    return x, y


def train_classifier(
    train_pairs: Sequence[tuple[BugReport, BugReport, bool]],
    embedder,
    train_config: ClassifierTrainConfig = ClassifierTrainConfig(),
    dev_pairs: Sequence[tuple[BugReport, BugReport, bool]] | None = None,
) -> LogisticPairModel:
    """Fit by mini-batch gradient descent on mean CE loss.

    Weights start at zero (the problem is convex); the seed only drives
    epoch shuffling. When dev pairs are given the decision threshold is
    swept on them to maximize F1, otherwise it stays at 0.5.
    """
    if not train_pairs:
        raise ValueError("training requires at least one labeled pair")
    cfg = train_config
    featurizer = PairFeaturizer(embedder)
    x, y = _feature_matrix(featurizer, train_pairs)

    weights = np.zeros(FEATURE_COUNT + 1)
    curve = [_mean_ce(weights, x, y)]
    order_rng = substream_rng(cfg.seed, "classifier.order")
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(len(y))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            xb, yb = x[batch], y[batch]
            p = _sigmoid(xb @ weights[:-1] + weights[-1])
            err = p - yb
            grad = np.concatenate([xb.T @ err, [err.sum()]]) / len(batch)
            weights = weights - cfg.learning_rate * grad
        loss = _mean_ce(weights, x, y)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite CE loss after epoch {epoch + 1}")
        curve.append(loss)

    model = LogisticPairModel(weights=weights, train_config=cfg, loss_curve=tuple(curve))
    if dev_pairs:
        dev_x, dev_y = _feature_matrix(featurizer, dev_pairs)
        threshold = tune_threshold(model.predict_proba(dev_x), dev_y, cfg.threshold_step)
        model = LogisticPairModel(
            weights=weights, threshold=threshold, train_config=cfg, loss_curve=tuple(curve)
        )
    return model


def _mean_ce(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(_sigmoid(x @ weights[:-1] + weights[-1]), _CLAMP, 1.0 - _CLAMP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def tune_threshold(probabilities: np.ndarray, labels: np.ndarray, step: float = 0.01) -> float:
    """Grid-sweep the threshold maximizing F1; lowest argmax wins ties.
    Empty input raises ValueError: its confusion matrix is all zero."""
    best_t, best_f1 = 0.5, -1.0
    positive, negative = labels == 1, labels == 0
    for t in np.arange(step, 1.0, step):
        pred = probabilities >= t
        cm = ConfusionMatrix(
            tp=int(np.sum(pred & positive)),
            fp=int(np.sum(pred & negative)),
            fn=int(np.sum(~pred & positive)),
            tn=int(np.sum(~pred & negative)),
        )
        f1 = classification_metrics(cm).f1
        if f1 > best_f1 + 1e-15:
            best_t, best_f1 = float(t), f1
    return best_t


class LogisticClassifier:
    """Trained-model backend: the model's probability and threshold."""

    def __init__(self, model: LogisticPairModel, featurizer: PairFeaturizer):
        self.model = model
        self.featurizer = featurizer

    @property
    def threshold(self) -> float:
        return self.model.threshold

    def classify_batch(self, pairs: Sequence[tuple[BugReport, BugReport]]) -> np.ndarray:
        return self.model.predict_proba(self.featurizer.feature_matrix(pairs))


class SimilarityClassifier:
    """Fixed-threshold rule on whole-text cosine; no training.

    A cosine s in [-1, 1] scores (s + 1) / 2, and the cosine threshold t
    becomes the probability threshold (t + 1) / 2.
    """

    def __init__(self, featurizer: PairFeaturizer, similarity_threshold: float = 0.5):
        self.featurizer = featurizer
        self.similarity_threshold = similarity_threshold

    @property
    def threshold(self) -> float:
        return (self.similarity_threshold + 1.0) / 2.0

    def classify_batch(self, pairs: Sequence[tuple[BugReport, BugReport]]) -> np.ndarray:
        return (self.featurizer.cosine_all_batch(pairs) + 1.0) / 2.0


class OracleClassifier:
    """Cluster-membership lookup. Pipeline verification only."""

    def __init__(self, cluster_set: ClusterSet):
        self.cluster_set = cluster_set
        self.threshold = 0.5

    def classify_batch(self, pairs: Sequence[tuple[BugReport, BugReport]]) -> np.ndarray:
        same = self.cluster_set.same_cluster
        return np.array([1.0 if same(a.bug_id, b.bug_id) else 0.0 for a, b in pairs])


def save_classifier(model: LogisticPairModel, path: str | Path, extra: dict | None = None) -> None:
    payload = {
        "weights": list(map(float, model.weights)),
        "threshold": model.threshold,
        "train_config": asdict(model.train_config),
        "loss_curve": list(model.loss_curve),
    }
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, sort_keys=True, default=str) + "\n", encoding="utf-8")


def load_classifier(path: str | Path) -> LogisticPairModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return LogisticPairModel(
        weights=np.array(payload["weights"]),
        threshold=payload["threshold"],
        train_config=ClassifierTrainConfig(**payload["train_config"]),
        loss_curve=tuple(payload["loss_curve"]),
    )
