"""Text embedding backends and the triplet-loss projection trainer.

Two built-in backends share one interface (``embed_texts``): a hashed
TF-IDF bag-of-tokens baseline, and that baseline composed with a linear
projection fine-tuned by triplet loss. Both are deterministic; the
remote HTTP backend lives in ``remote``. The TF-IDF baseline sums each
row's buckets in one rows pass after a token pass (``token_ids``):
``embed_texts`` scatters the sums into dense rows, and ``sparse_rows``
divides them by their row's norm, so the pair featurizer can read each
report's tokens once and cut them into its title's and description's rows.
"""

from __future__ import annotations

import base64
import hashlib
import math
import threading
from dataclasses import asdict, dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import artifacts
from .seeding import substream_rng

DEFAULT_DIM = 1024
DEFAULT_PROJECTION_DIM = 256
DEFAULT_MARGIN = 0.2

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# Vectors with a norm below this count as zero: retrieval and the pair
# features treat their cosine as undefined, and normalisation leaves them
# as they are.
ZERO_NORM = 1e-12
# ``row_norms`` takes this many rows at a time.
_NORM_BLOCK_ROWS = 64


class TrainingError(RuntimeError):
    """Raised when projection training produces a non-finite loss."""


def fnv1a64(token: str) -> int:
    """FNV-1a 64-bit hash; the bucket function is fixed for reproducibility."""
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(matrix, axis=1)`` with its bits, a block of rows at a
    time, so the norm's two temporaries (the conjugate and the squares) are
    a block's size, not the matrix's. Each row is still one ``add.reduce``
    of its own squares."""
    out = np.empty(len(matrix))
    for start in range(0, len(matrix), _NORM_BLOCK_ROWS):
        out[start : start + _NORM_BLOCK_ROWS] = np.linalg.norm(
            matrix[start : start + _NORM_BLOCK_ROWS], axis=1
        )
    return out


def _csr_row_norms(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each CSR row's L2 norm, its squared weights summed from 0.0 in order."""
    n = len(indptr) - 1
    return np.sqrt(np.bincount(np.repeat(np.arange(n), np.diff(indptr)), weights * weights, n))


def has_sparse_rows(embedder) -> bool:
    """Whether ``embedder`` has a token pass (``token_ids``) and a rows pass
    (``sparse_rows``), as ``TfidfHashEmbedder`` has."""
    return all(callable(getattr(embedder, name, None)) for name in ("token_ids", "sparse_rows"))


def report_tokens(embedder, reports) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """``(parts, ids, rows)``: one token pass over each report's cleaned
    title and description, spans 2r and 2r + 1, and the rows pass over its
    whole text, ``parts[0::2]``, which are the rows of ``clean_text``."""
    fields = [text for r in reports for text in (r.clean_title, r.clean_description)]
    parts, ids = embedder.token_ids(fields)
    return parts, ids, embedder.sparse_rows(parts[0::2], ids)


def l2_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalize; all-zero rows are left as zeros."""
    return _unit_rows(matrix)[0]


def _unit_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``l2_normalize_rows(matrix)`` and the row norms it divided by."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms < ZERO_NORM, 1.0, norms), norms


class _TokenTable:
    """A vocabulary id per token, and per id its bucket and IDF.

    ``ids`` only grows. ``arrays`` holds the ``(bucket, idf)`` arrays as one
    tuple, replaced whole when it grows and never resized in place; new ids
    enter ``ids`` only after the arrays that cover them are published, so a
    reader that maps its tokens first and takes ``arrays`` second always
    holds rows for every id it has.
    """

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.arrays: tuple[np.ndarray, np.ndarray] = (np.empty(0, dtype=np.intp), np.empty(0))
        self.lock = threading.Lock()


@dataclass(frozen=True)
class TfidfHashEmbedder:
    """Hashed TF-IDF embedder, fitted on train-split texts only.

    Tokens (whitespace-split, already cleaned) are bucketed by FNV-1a
    64-bit hash mod ``dim``; each contributes tf * idf to its bucket and
    the vector is L2-normalized. IDF uses the smoothed form
    ln((1+N)/(1+df)) + 1 so unseen tokens still carry weight.

    A batch is embedded in two passes. The token pass splits each text
    once and maps its tokens to vocabulary ids, given on first sight; per
    id a bucket and an IDF sit in two arrays. The rows pass takes the
    distinct (row, token) pairs from one ``np.unique`` with their counts,
    sorted by first occurrence, and one ``np.bincount`` adds each ``count *
    idf`` to its (row, bucket) in that order. So every bucket holds the
    float64 sum, from 0.0, of its tokens in the order they first appear in
    the text: a row's bits depend neither on its batch nor on which tokens
    were seen before. The dense and the sparse rows hold the same sums.

    Fitted instances are immutable and safe to share across threads. The
    token tables are a pure function of the fitted fields, so they take no
    part in equality or ``to_json``; they grow under a lock, by replacing
    the arrays, so a reader always sees a consistent snapshot.
    """

    dim: int
    doc_count: int
    df: Mapping[str, int]
    _tokens: _TokenTable = field(
        default_factory=_TokenTable, init=False, repr=False, compare=False
    )

    @classmethod
    def fit(cls, train_texts: Sequence[str], dim: int = DEFAULT_DIM) -> "TfidfHashEmbedder":
        if dim < 1:
            raise ValueError("dim must be positive")
        df: dict[str, int] = {}
        for text in train_texts:
            for token in set(text.split()):
                df[token] = df.get(token, 0) + 1
        return cls(dim=dim, doc_count=len(train_texts), df=MappingProxyType(df))

    def idf(self, token: str) -> float:
        return math.log((1 + self.doc_count) / (1 + self.df.get(token, 0))) + 1.0

    def _learn(self, tokens: Sequence[str]) -> None:
        """Give each token not yet in the vocabulary an id, a bucket and an IDF."""
        table = self._tokens
        with table.lock:
            new = [t for t in dict.fromkeys(tokens) if t not in table.ids]
            if not new:
                return
            buckets, idf = table.arrays
            new_buckets = np.array([fnv1a64(t) % self.dim for t in new], dtype=np.intp)
            table.arrays = (
                np.concatenate((buckets, new_buckets)),
                np.concatenate((idf, [self.idf(t) for t in new])),
            )
            # Only now that the arrays cover them do the new ids become visible.
            table.ids.update(zip(new, range(len(idf), len(idf) + len(new))))

    def _ids(self, tokens: list[str]) -> np.ndarray:
        """Each token's vocabulary id, learning the tokens not seen before."""
        try:
            return np.fromiter(map(self._tokens.ids.__getitem__, tokens), np.intp, len(tokens))
        except KeyError:
            self._learn(tokens)
            return self._ids(tokens)

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        indptr, buckets, sums = self._sums(*self.token_ids(texts))
        out = np.zeros((len(texts), self.dim))
        out[np.repeat(np.arange(len(texts)), np.diff(indptr)), buckets] = sums
        # ``l2_normalize_rows`` in place, with its bits: the rows are this
        # call's own, and a normalised copy would add a dense array to the
        # peak memory of every call.
        norms = row_norms(out)[:, None]
        out /= np.where(norms < ZERO_NORM, 1.0, norms)
        return out

    def token_ids(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The token pass: each text's tokens as vocabulary ids, in CSR form
        ``(indptr, ids)``. Text i's ids are ``ids[indptr[i]:indptr[i + 1]]``,
        in the order its tokens come. Each text is split once, and tokens
        not seen before are given ids."""
        split = [text.split() for text in texts]
        return np.cumsum([0, *map(len, split)]), self._ids(list(chain.from_iterable(split)))

    def sparse_rows(
        self, indptr: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows pass: row i of the ids of ``token_ids`` is the span
        ``ids[indptr[i]:indptr[i + 1]]`` (spans may cut a text into parts),
        returned in CSR form ``(indptr, buckets, weights)``. A row holds each
        bucket once, in ascending order. A weight is its bucket's sum, the
        one ``embed_texts`` scatters into its dense row, over the norm of
        its own row's sums; a row whose norm is below ``ZERO_NORM`` is left
        as it is."""
        indptr, buckets, sums = self._sums(indptr, ids)
        norms = _csr_row_norms(indptr, sums)
        return indptr, buckets, sums / np.where(norms < ZERO_NORM, 1.0, norms).repeat(np.diff(indptr))

    def _sums(
        self, indptr: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of ``sparse_rows`` before normalisation: each bucket once,
        ascending, with the float64 sum from 0.0 of ``count * idf`` over the
        row's distinct tokens, in the order they first occur in the row."""
        # Taken after the ids, so the arrays cover every one of them.
        bucket_of, idf = self._tokens.arrays
        n = len(indptr) - 1
        row_of = np.repeat(np.arange(n), np.diff(indptr))
        # One key per (row, token) pair; its first index orders it as the
        # token first occurs in the row.
        _, first, counts = np.unique(
            row_of * len(idf) + ids, return_index=True, return_counts=True
        )
        order = np.argsort(first, kind="stable")
        first, counts = first[order], counts[order]
        token = ids[first]
        # bincount sums each (row, bucket) from 0.0 in the order its terms come.
        keys, entry = np.unique(row_of[first] * self.dim + bucket_of[token], return_inverse=True)
        sums = np.bincount(entry, counts * idf[token], len(keys))
        return np.searchsorted(keys, np.arange(n + 1) * self.dim), keys % self.dim, sums

    def to_json(self) -> dict:
        return {"dim": self.dim, "doc_count": self.doc_count, "df": dict(self.df)}

    @classmethod
    def from_json(cls, payload: dict) -> "TfidfHashEmbedder":
        """The embedder that ``to_json`` wrote, each key read through
        ``artifacts.field``: ``dim`` an int >= 1, ``doc_count`` an int >= 0,
        and ``df`` an object whose counts are ints in [1, ``doc_count``]."""
        dim = artifacts.field(payload, "dim", lambda value: _at_least(value, 1))
        doc_count = artifacts.field(payload, "doc_count", lambda value: _at_least(value, 0))
        return cls(dim=dim, doc_count=doc_count, df=artifacts.field(payload, "df", lambda df: _df(df, doc_count)))


def _at_least(value, low: int) -> int:
    if artifacts.integer(value) < low:
        raise ValueError(f"{value} is below {low}")
    return value


def _df(df, doc_count: int) -> MappingProxyType:
    """A copy of ``df`` if it maps strings to document counts, ints in
    [1, ``doc_count``]; the whole map is tested at C speed first, and only a
    map that fails is searched for the entry to name."""
    if type(df) is not dict:
        raise TypeError(f"{type(df).__name__} is not an object")
    counts = df.values()
    if not (
        {*map(type, df)} <= {str} and {*map(type, counts)} <= {int}
        and 1 <= min(counts, default=1) and max(counts, default=1) <= doc_count
    ):
        token, n = next(
            (t, n) for t, n in df.items() if type(t) is not str or type(n) is not int or not 1 <= n <= doc_count
        )
        raise ValueError(f"the count of {token!r}, {n!r}, is not an int in [1, {doc_count}]")
    return MappingProxyType(dict(df))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    dim_out: int = DEFAULT_PROJECTION_DIM
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        artifacts.counts(self, {"epochs": 0, "batch_size": 1, "dim_out": 1, "seed": None})
        for name in ("learning_rate", "margin"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass(frozen=True, eq=False)
class ProjectionModel:
    """Linear projection on top of a base embedder.

    Projected embeddings are base vectors times ``weights``, then
    re-normalized. ``loss_curve[0]`` is the mean triplet loss before any
    update; entry i is the full-pass mean after epoch i.
    """

    weights: np.ndarray
    margin: float
    train_config: TrainConfig
    loss_curve: tuple[float, ...] = field(default=())

    @property
    def dim_in(self) -> int:
        return int(self.weights.shape[0])

    @property
    def dim_out(self) -> int:
        return int(self.weights.shape[1])

    def project(self, base_vectors: np.ndarray) -> np.ndarray:
        return l2_normalize_rows(np.asarray(base_vectors) @ self.weights)


@dataclass(frozen=True)
class ProjectedEmbedder:
    base: TfidfHashEmbedder
    model: ProjectionModel

    @property
    def dim(self) -> int:
        return self.model.dim_out

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        return self.model.project(self.base.embed_texts(texts))


def initial_weights(dim_in: int, dim_out: int, seed: int) -> np.ndarray:
    """Seeded uniform init in [-a, a], a = sqrt(6 / (dim_in + dim_out))."""
    a = math.sqrt(6.0 / (dim_in + dim_out))
    rng = substream_rng(seed, "projection.init")
    return rng.uniform(-a, a, size=(dim_in, dim_out))


def _pass_losses(
    weights: np.ndarray, xa: np.ndarray, xp: np.ndarray, xn: np.ndarray, margin: float
) -> np.ndarray:
    ea = l2_normalize_rows(xa @ weights)
    ep = l2_normalize_rows(xp @ weights)
    en = l2_normalize_rows(xn @ weights)
    d_ap = np.linalg.norm(ea - ep, axis=1)
    d_an = np.linalg.norm(ea - en, axis=1)
    return np.maximum(d_ap - d_an + margin, 0.0)


def train_projection(
    triplets: Sequence[tuple[str, str, str]],
    base_embedder: TfidfHashEmbedder,
    train_config: TrainConfig = TrainConfig(),
) -> ProjectionModel:
    """Fit the projection by mini-batch gradient descent on triplet loss.

    ``triplets`` holds (anchor, positive, negative) texts. Base vectors
    are fixed during training, so each distinct text is embedded once up
    front, and the anchor, positive and negative rows of the triplets are
    gathered once, before the first pass; a batch takes its rows from
    those. Deterministic per seed: init and epoch shuffles draw from
    named substreams of the config seed.
    """
    if not triplets:
        raise ValueError("training requires at least one triplet")
    cfg = train_config

    texts = sorted({t for tri in triplets for t in tri})
    index = {t: i for i, t in enumerate(texts)}
    base = base_embedder.embed_texts(texts)
    xa, xp, xn = (base[[index[text] for text in column]] for column in zip(*triplets))

    weights = initial_weights(base_embedder.dim, cfg.dim_out, cfg.seed)
    curve = [float(np.mean(_pass_losses(weights, xa, xp, xn, cfg.margin)))]

    order_rng = substream_rng(cfg.seed, "projection.order")
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(len(triplets))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad = _batch_gradient(weights, xa[batch], xp[batch], xn[batch], cfg.margin)
            # ``weights - lr * grad``, bit for bit, without two temporaries.
            grad *= cfg.learning_rate
            weights -= grad
        epoch_loss = float(np.mean(_pass_losses(weights, xa, xp, xn, cfg.margin)))
        if not math.isfinite(epoch_loss):
            raise TrainingError(
                f"non-finite loss {epoch_loss} after epoch {epoch + 1} "
                f"(lr={cfg.learning_rate}, batch_size={cfg.batch_size})"
            )
        curve.append(epoch_loss)

    return ProjectionModel(
        weights=weights, margin=cfg.margin, train_config=cfg, loss_curve=tuple(curve)
    )


def _batch_gradient(
    weights: np.ndarray, xa: np.ndarray, xp: np.ndarray, xn: np.ndarray, margin: float
) -> np.ndarray:
    """Mean gradient of the triplet loss w.r.t. the projection weights.

    The chain runs through the row re-normalization: for z = xW and
    e = z/|z|, dL/dz = (g - (g.e)e)/|z| where g = dL/de.
    """
    (ea, norm_a), (ep, norm_p), (en, norm_n) = (_unit_rows(x @ weights) for x in (xa, xp, xn))

    diff_ap = ea - ep
    diff_an = ea - en
    d_ap = np.linalg.norm(diff_ap, axis=1, keepdims=True)
    d_an = np.linalg.norm(diff_an, axis=1, keepdims=True)
    active = ((d_ap - d_an + margin) > 0).astype(np.float64)

    # Unit direction of each distance term; zero-distance pairs contribute nothing.
    u_ap = np.where(d_ap < ZERO_NORM, 0.0, diff_ap / np.where(d_ap < ZERO_NORM, 1.0, d_ap))
    u_an = np.where(d_an < ZERO_NORM, 0.0, diff_an / np.where(d_an < ZERO_NORM, 1.0, d_an))

    g_ea = active * (u_ap - u_an)
    g_ep = active * (-u_ap)
    g_en = active * u_an

    # Summed left to right and divided in place: the bits of (a + b + c) / n.
    grad = xa.T @ _through_normalization(g_ea, ea, norm_a)
    grad += xp.T @ _through_normalization(g_ep, ep, norm_p)
    grad += xn.T @ _through_normalization(g_en, en, norm_n)
    grad /= xa.shape[0]
    return grad


def _through_normalization(g: np.ndarray, e: np.ndarray, norms: np.ndarray) -> np.ndarray:
    zero = norms < ZERO_NORM
    out = (g - np.sum(g * e, axis=1, keepdims=True) * e) / np.where(zero, 1.0, norms)
    return np.where(zero, 0.0, out)


def projection_to_json(model: ProjectionModel) -> dict:
    """The projection's JSON form: dims, margin, config, loss curve, and its
    weights in base64 with their sha256."""
    raw = np.ascontiguousarray(model.weights, dtype=np.float64).tobytes()
    return {
        "dim_in": model.dim_in,
        "dim_out": model.dim_out,
        "margin": model.margin,
        "train_config": asdict(model.train_config),
        "loss_curve": list(model.loss_curve),
        "weights_b64": base64.b64encode(raw).decode("ascii"),
        "weights_sha256": hashlib.sha256(raw).hexdigest(),
    }


def projection_from_json(payload: dict) -> ProjectionModel:
    """The projection that ``projection_to_json`` wrote, each key read
    through ``artifacts.field``. Weights that fail their checksum, or that
    do not fill ``dim_in`` by ``dim_out``, raise ``ArtifactError``."""
    shape = tuple(artifacts.field(payload, k, artifacts.integer) for k in ("dim_in", "dim_out"))
    margin = artifacts.field(payload, "margin", artifacts.number)
    train_config = artifacts.field(payload, "train_config", lambda config: TrainConfig(**config))
    loss_curve = tuple(artifacts.field(payload, "loss_curve", artifacts.numbers))
    raw = artifacts.field(payload, "weights_b64", base64.b64decode)
    if hashlib.sha256(raw).hexdigest() != artifacts.field(payload, "weights_sha256"):
        raise artifacts.ArtifactError("corrupt: checksum mismatch")
    if min(shape) < 1 or len(raw) != 8 * shape[0] * shape[1]:
        message = f"{len(raw) // 8} weights do not fill 'dim_in' by 'dim_out' {shape}"
        raise artifacts.ArtifactError(message)
    weights = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
    return ProjectionModel(
        weights=weights, margin=margin, train_config=train_config, loss_curve=loss_curve
    )
