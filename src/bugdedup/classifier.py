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
reads each report's title and description tokens once (the embedder's
``token_ids``), builds its whole-text, title and description rows from
them as sparse rows (``sparse_rows``), and keeps them for every later
pair; those embeddings are its own business and are deliberately not
ledgered as embedding calls. It keeps two stores: the whole-text rows,
each entry with the report's title and description weight at that
bucket beside it, and each report's distinct token ids. One match of a
pair's whole-text rows serves four features (the three cosines and the
distance), and the token Jaccard makes its own. When the cascade
runner's embedder is the featurizer's own, the runner hands over the
tokens and whole-text rows it made for search, and the featurizer builds
only the title and description rows. A pair's features cost in
proportion to the tokens of its two reports, not to the embedding's
dimension.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import artifacts
from .corpus import BugReport
from .dup_graph import ClusterSet
from .embedder import ZERO_NORM, TrainingError, _csr_row_norms, has_sparse_rows, report_tokens
from .metrics import metric_rows
from .seeding import substream_rng

_CLAMP = 1e-12


class FeatureError(ValueError):
    pass


FEATURE_COUNT = 5

# ``feature_matrix`` and ``cosine_all_batch`` gather the rows of at most
# this many pairs at a time, which bounds their memory by the nonzeros of
# that many pairs whatever the batch size.
_CHUNK_PAIRS = 2048


def _chunks(n: int) -> Iterator[slice]:
    return (slice(i, i + _CHUNK_PAIRS) for i in range(0, n, _CHUNK_PAIRS))


def _entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lengths of the CSR rows ``rows`` and the positions of their
    entries, row after row."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    return lengths, np.arange(lengths.sum()) + np.repeat(starts - ends + lengths, lengths)


def _take(indptr: np.ndarray, rows: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The CSR rows ``rows`` of ``(indptr, *columns)``, in that order, as a
    new CSR ``(indptr, *columns)``."""
    lengths, at = _entries(indptr, rows)
    return (np.concatenate(([0], np.cumsum(lengths))), *(column[at] for column in columns))


class _SparseRows:
    """Rows in CSR form, grown by ``append``, with ``fields`` weight columns
    and the row norms of each. ``stride`` is one more than the largest
    column index stored, so ``i * stride + column`` keys an entry of the
    i-th row of a gather uniquely. A warm appends once, by concatenation."""

    def __init__(self, fields: int) -> None:
        self.count = 0
        self.stride = 1
        self.indptr = np.zeros(1, dtype=np.intp)
        self.columns = np.empty(0, dtype=np.intp)
        self.weights = [np.empty(0) for _ in range(fields)]
        self.norms = [np.empty(0) for _ in range(fields)]

    def append(self, indptr: np.ndarray, columns: np.ndarray, *weights: np.ndarray) -> None:
        self.stride = max(self.stride, int(columns.max(initial=0)) + 1)
        self.indptr = np.concatenate((self.indptr, indptr[1:] + self.indptr[-1]))
        self.columns = np.concatenate((self.columns, columns))
        for f, field_weights in enumerate(weights):
            field_weights = np.asarray(field_weights, dtype=np.float64)
            self.weights[f] = np.concatenate((self.weights[f], field_weights))
            self.norms[f] = np.concatenate((self.norms[f], _csr_row_norms(indptr, field_weights)))
        self.count += len(indptr) - 1

    def lengths(self, rows: np.ndarray) -> np.ndarray:
        return self.indptr[rows + 1] - self.indptr[rows]

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keys ``i * stride + column`` of the entries of each ``rows[i]``, and
        the positions of those entries in the store."""
        lengths, at = _entries(self.indptr, rows)
        return np.repeat(np.arange(len(rows)), lengths) * self.stride + self.columns[at], at


def _field_weights(
    texts: tuple[np.ndarray, np.ndarray, np.ndarray],
    fields: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The title and the description weight at each entry of the whole-text
    rows ``texts``, 0.0 where the field lacks that bucket. Report r's
    whole text is row r of ``texts``, its title row 2r of ``fields`` and
    its description row 2r + 1; every row holds each bucket once, in
    ascending order. A field bucket that is not among its report's
    whole-text buckets raises ``FeatureError``."""
    indptr, buckets, _ = texts
    field_indptr, field_buckets, weights = fields
    stride = int(max(buckets.max(initial=0), field_buckets.max(initial=0))) + 1
    keys = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)) * stride + buckets
    field_rows = np.repeat(np.arange(len(field_indptr) - 1), np.diff(field_indptr))
    field_keys = field_rows // 2 * stride + field_buckets
    at = np.searchsorted(keys, field_keys)
    # A key past the last one reads -1, which matches no key.
    if not np.array_equal(np.append(keys, -1)[at], field_keys):
        raise FeatureError(
            "a title or description bucket is not among its report's whole-text buckets"
        )
    out = np.zeros((2, len(keys)))
    out[field_rows % 2, at] = weights
    return out[0], out[1]


def _compare(
    texts: _SparseRows, left: np.ndarray, right: np.ndarray, fields: bool = False
) -> list[np.ndarray]:
    """Whole-text cosine of rows ``left[i]`` and ``right[i]`` for every i,
    and if asked for, their title cosine, description cosine and
    whole-text Euclidean distance, in that order. A cosine is 0 where
    either norm is below 1e-12.

    One match of the two whole-text rows serves all four: a title or
    description bucket is always one of its report's whole-text buckets,
    and where a field lacks a shared bucket its weight there is 0.0, whose
    product adds only ±0.0 to a dot that starts at +0.0. Each sum of a pair
    runs from 0.0 over that pair's own entries, a dot in ascending bucket
    order and each one-sided part of the distance in its row's order, so a
    pair's bits depend neither on its batch nor on which side of it a
    report is. A row must hold each bucket once.
    """
    n, stride = len(left), texts.stride
    lk, la = texts.gather(left)
    rk, ra = texts.gather(right)
    shared, il, ir = np.intersect1d(lk, rk, assume_unique=True, return_indices=True)
    pair = shared // stride
    la_shared, ra_shared = la[il], ra[ir]
    out = []
    for f in range(3 if fields else 1):
        weights, norms = texts.weights[f], texts.norms[f]
        dots = np.bincount(pair, weights[la_shared] * weights[ra_shared], n)
        nl, nr = norms[left], norms[right]
        valid = ~((nl < ZERO_NORM) | (nr < ZERO_NORM))
        out.append(np.where(valid, dots / np.where(valid, nl * nr, 1.0), 0.0))
    if not fields:
        return out
    # Over the union of the two rows: a shared bucket adds (wl - wr)², any
    # other its w². Unlike 2 - 2u.v, this does not cancel for near-equal
    # rows. Zeroed shared entries leave the one-sided sums as they are.
    lw, rw = texts.weights[0][la], texts.weights[0][ra]
    both = np.bincount(pair, (lw[il] - rw[ir]) ** 2, n)
    lw[il] = rw[ir] = 0.0
    one_sided = np.bincount(lk // stride, lw * lw, n) + np.bincount(rk // stride, rw * rw, n)
    out.append(np.sqrt(both + one_sided))
    return out


def _jaccards(sets: _SparseRows, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Token Jaccard of reports ``left[i]`` and ``right[i]``, whose rows in
    ``sets`` hold their distinct token ids once each, 0 where both are
    empty. The counts are exact integers, so the float64 quotient has the
    bits of Python's ``shared / union``."""
    shared = np.intersect1d(sets.gather(left)[0], sets.gather(right)[0], assume_unique=True)
    shared = np.bincount(shared // sets.stride, minlength=len(left))
    union = sets.lengths(left) + sets.lengths(right) - shared
    return shared / np.maximum(union, 1)


class PairFeaturizer:
    """Builds pair features from per-report sparse rows, each embedded once.

    ``warm`` reads the cleaned title and description of every report not
    seen before in one token pass, as adjacent spans, with the rows of their
    whole texts (``embedder.report_tokens``), and one more rows pass
    (``embedder.sparse_rows``) turns the parts, titles and descriptions,
    into sparse rows. Two CSR stores keep what the features need. The first
    holds each report's whole-text row, and at each of its entries also its
    title and description weight at that bucket, 0.0 where the field lacks
    it, with the norms of all three. A title or description bucket is always
    one of its report's whole-text buckets, so no field entry is lost. The
    second keeps each report's distinct token ids in ascending order for the
    Jaccard feature. Handed the runner's ``report_tokens``, ``warm`` makes
    only the parts' rows pass: a row depends on its own tokens alone, so the
    stores hold the same bits either way.

    ``feature_matrix`` gathers the whole-text entries of a batch of pairs
    by row, ``_CHUNK_PAIRS`` pairs at a time, and matches them by (pair,
    bucket) key once; that one match gives the whole-text, title and
    description cosines and the distance (``_compare``), and the token
    Jaccard makes its own. A pair costs the nonzeros of its two rows.
    Every sum of a pair runs over its own entries only, so a feature does
    not depend on the batch it was computed in.
    """

    def __init__(self, embedder):
        if not has_sparse_rows(embedder):
            raise TypeError(
                f"PairFeaturizer needs an embedder with token_ids and sparse_rows methods; "
                f"{type(embedder).__name__} lacks them"
            )
        self.embedder = embedder
        self._row: dict[str, int] = {}
        self._texts, self._tokens = _SparseRows(3), _SparseRows(0)

    def warm(
        self,
        reports: Sequence[BugReport],
        tokens: tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]] | None = None,
    ) -> None:
        """Read the reports not seen before, each once, in one token pass
        (``embedder.report_tokens``).

        ``tokens``, if given, is ``report_tokens(self.embedder, reports)``,
        as the cascade runner hands it over. Then the reports not seen
        before are cut out of it, and no token pass is made.
        """
        # Each new report's id and the index of its first sight in ``reports``.
        new: dict[str, int] = {}
        for i, r in enumerate(reports):
            if r.bug_id not in self._row:
                new.setdefault(r.bug_id, i)
        if not new:
            return
        n = len(new)
        if tokens is None:
            parts, ids, texts = report_tokens(self.embedder, [reports[i] for i in new.values()])
        else:
            parts, ids, texts = tokens
            if n < len(reports):
                keep = np.fromiter(new.values(), np.intp, n)
                texts = _take(texts[0], keep, *texts[1:])
                parts, ids = _take(parts, np.stack((2 * keep, 2 * keep + 1), axis=1).ravel(), ids)
        indptr = parts[0::2]
        self._texts.append(*texts, *_field_weights(texts, self.embedder.sparse_rows(parts, ids)))
        # Each report's distinct ids, ascending, from one sort of
        # (report, id) keys and the keys that differ from the one before.
        # Not ``np.unique``: from numpy 2.3 it builds a hash table before it
        # sorts, over ten times the time of the sort alone.
        stride = int(ids.max(initial=0)) + 1
        keys = np.sort(np.repeat(np.arange(n), np.diff(indptr)) * stride + ids)
        distinct = keys[np.diff(keys, prepend=-1) != 0]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(distinct // stride, minlength=n))))
        self._tokens.append(bounds, distinct % stride)
        self._row.update(zip(new, range(len(self._row), len(self._row) + n)))

    def _rows(self, pairs: Sequence[tuple[BugReport, BugReport]]) -> tuple[np.ndarray, np.ndarray]:
        """Each pair's two store rows; the pairs are warmed only on a miss."""
        row = self._row
        try:
            left = np.fromiter((row[a.bug_id] for a, _ in pairs), np.intp, len(pairs))
            right = np.fromiter((row[b.bug_id] for _, b in pairs), np.intp, len(pairs))
        except KeyError:
            self.warm([r for pair in pairs for r in pair])
            return self._rows(pairs)
        return left, right

    def feature_matrix(self, pairs: Sequence[tuple[BugReport, BugReport]]) -> np.ndarray:
        """Features of each pair, shape (len(pairs), 5): whole-text, title and
        description cosine, whole-text Euclidean distance, token Jaccard."""
        left, right = self._rows(pairs)
        tokens = self._tokens
        empty = np.flatnonzero((tokens.lengths(left) == 0) & (tokens.lengths(right) == 0))
        if len(empty):
            a, b = pairs[empty[0]]
            raise FeatureError(f"both reports empty after cleaning: {a.bug_id}, {b.bug_id}")
        x = np.empty((len(pairs), FEATURE_COUNT))
        for chunk in _chunks(len(pairs)):
            i, j = left[chunk], right[chunk]
            for column, values in enumerate(_compare(self._texts, i, j, fields=True)):
                x[chunk, column] = values
            x[chunk, 4] = _jaccards(tokens, i, j)
        if not np.isfinite(x).all():
            bad = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
            raise FeatureError(f"non-finite pair features: {tuple(x[bad].tolist())}")
        if not ((x[:, 4] >= 0.0) & (x[:, 4] <= 1.0)).all():
            raise FeatureError(f"jaccard out of range: {x[:, 4].min()}, {x[:, 4].max()}")
        return x

    def cosine_all_batch(self, pairs: Sequence[tuple[BugReport, BugReport]]) -> np.ndarray:
        """Whole-text cosine for many pairs at once, as ``feature_matrix`` computes it."""
        left, right = self._rows(pairs)
        out = np.empty(len(pairs))
        for chunk in _chunks(len(pairs)):
            out[chunk] = _compare(self._texts, left[chunk], right[chunk])[0]
        return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere,
    from one ``exp`` of -|z|, which never overflows. ``np.minimum(z, -z)``
    is -|z| that keeps a NaN's sign, as the two-branch form does."""
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class ClassifierTrainConfig:
    learning_rate: float = 0.5
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    threshold_step: float = 0.01

    def __post_init__(self):
        artifacts.counts(self, {"epochs": 0, "batch_size": 1, "seed": None})
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 < self.threshold_step < 1.0:
            raise ValueError(f"threshold_step must lie in (0,1), got {self.threshold_step}")


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
    grad = np.empty(FEATURE_COUNT + 1)
    curve = [_mean_ce(weights, x, y)]
    order_rng = substream_rng(cfg.seed, "classifier.order")
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(len(y))
        # A batch is a run of contiguous rows of one permuted copy, as
        # ``x[batch]`` is: numpy picks its product's kernel by contiguity.
        xs, ys = x[order], y[order]
        for start in range(0, len(ys), cfg.batch_size):
            xb, yb = xs[start : start + cfg.batch_size], ys[start : start + cfg.batch_size]
            err = _sigmoid(xb @ weights[:-1] + weights[-1])
            err -= yb
            np.matmul(xb.T, err, out=grad[:-1])
            grad[-1] = err.sum()
            # ``weights - lr * (grad / n)``, bit for bit, in place.
            grad /= len(yb)
            grad *= cfg.learning_rate
            weights -= grad
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
    """Grid-sweep the threshold maximizing F1 over 0/1 ``labels``; lowest
    argmax wins ties. Every grid step is counted in one pass over a
    ``(steps × pairs)`` decision array and scored by ``metrics.metric_rows``.
    Empty input raises ValueError: all-zero confusion."""
    grid = np.arange(step, 1.0, step)
    predicted, positive = probabilities >= grid[:, None], labels == 1
    tp = np.count_nonzero(predicted & positive, axis=1)
    fp, fn = np.count_nonzero(predicted, axis=1) - tp, np.count_nonzero(positive) - tp
    rows = metric_rows(np.stack((tp, fp, fn, len(labels) - tp - fp - fn), axis=1))
    best_t, best_f1 = 0.5, -1.0
    for t, row in zip(grid.tolist(), rows):
        if row.f1 > best_f1 + 1e-15:
            best_t, best_f1 = t, row.f1
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


def check_similarity_threshold(value: float) -> float:
    """The cosine threshold ``value``; outside [-1, 1], NaN too, ``ValueError``."""
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"similarity threshold must lie in [-1,1], got {value}")
    return value


class SimilarityClassifier:
    """Fixed-threshold rule on whole-text cosine; no training.

    A cosine s in [-1, 1] scores (s + 1) / 2, and the cosine threshold t
    (``check_similarity_threshold``) the probability threshold (t + 1) / 2.
    """

    def __init__(self, featurizer: PairFeaturizer, similarity_threshold: float = 0.5):
        self.featurizer = featurizer
        self.similarity_threshold = check_similarity_threshold(similarity_threshold)

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


def classifier_to_json(model: LogisticPairModel) -> dict:
    """The model's JSON form: weights, threshold, config and loss curve."""
    return {
        "weights": list(map(float, model.weights)),
        "threshold": model.threshold,
        "train_config": asdict(model.train_config),
        "loss_curve": list(model.loss_curve),
    }


def classifier_from_json(payload: dict) -> LogisticPairModel:
    """The model that ``classifier_to_json`` wrote, each key read through
    ``artifacts.field`` and its ``train_config`` field by field through
    ``artifacts.config``."""
    return LogisticPairModel(
        weights=np.array(artifacts.field(payload, "weights", artifacts.numbers), dtype=np.float64),
        threshold=artifacts.field(payload, "threshold", artifacts.number),
        train_config=artifacts.field(
            payload, "train_config", lambda config: artifacts.config(ClassifierTrainConfig, config)
        ),
        loss_curve=tuple(artifacts.field(payload, "loss_curve", artifacts.numbers)),
    )
