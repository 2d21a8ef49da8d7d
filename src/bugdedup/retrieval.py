"""Exact top-k cosine search over embedded reports, plus recall@k and
precision@k.

The search is a brute-force scan, one matrix-vector product per query,
followed by a k-selection (``np.partition``) and a sort of only the rows
that can make the top k: databases stay small enough (tens of thousands)
that exactness is cheap, and exact results keep every retrieval metric
oracle-checkable. Ranking is fully deterministic: ties break by
ascending bug id, and candidates whose embedding is the zero vector
(cosine undefined) sort below everything.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import BugReport
from .ledger import CostLedger

_ZERO_NORM = 1e-12
# The scan's row blocks hold at most this many matrix elements, in a
# multiple of _BLOCK_ALIGN rows. OpenBLAS computes a matrix-vector product
# this small on the calling thread. A larger one it splits across threads
# at a row that need not be aligned, which changes the last bits of the
# rows around the split with the thread count, and in a tight per-query
# loop on a small machine each call can wait milliseconds for a worker
# that shares the caller's CPU. Aligned blocks keep every row in the same
# kernel group as one single-threaded product, so the scores are its bits.
_BLOCK_ELEMENTS = 1 << 16
_BLOCK_ALIGN = 64


@dataclass(frozen=True, eq=False)
class VectorIndex:
    """Immutable id -> vector store; queries are read-only."""

    ids: tuple[str, ...]
    matrix: np.ndarray
    norms: np.ndarray

    @classmethod
    def from_vectors(cls, ids: Sequence[str], matrix: np.ndarray) -> "VectorIndex":
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate bug ids in index")
        if matrix.shape[0] != len(ids):
            raise ValueError(f"{len(ids)} ids but {matrix.shape[0]} vectors")
        order = sorted(range(len(ids)), key=lambda i: ids[i])
        ordered = np.ascontiguousarray(matrix[order], dtype=np.float64)
        return cls(
            ids=tuple(ids[i] for i in order),
            matrix=ordered,
            norms=np.linalg.norm(ordered, axis=1),
        )

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.ids)


def build_index(embedder, reports: Iterable[BugReport], ledger: CostLedger | None = None) -> VectorIndex:
    """Embed each report once and index it; embeds are ledgered."""
    reports = list(reports)
    texts = [r.clean_text for r in reports]
    vectors = embedder.embed_texts(texts) if reports else np.zeros((0, 1))
    if ledger is not None:
        ledger.count_embeds(len(reports))
    return VectorIndex.from_vectors([r.bug_id for r in reports], vectors)


@dataclass(frozen=True)
class RankedCandidates:
    """Top candidates for one query, scores non-increasing.

    ``fewer_than_k`` flags the legal case where the index holds fewer
    candidates than requested and the full ranking is returned.
    """

    query: str
    ranked: tuple[tuple[str, float], ...]
    k: int
    fewer_than_k: bool = False

    def ids(self) -> tuple[str, ...]:
        return tuple(bug_id for bug_id, _ in self.ranked)


def _matvec(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``matrix @ q``, computed in aligned row blocks (see _BLOCK_ELEMENTS)."""
    per_row = max(1, matrix.shape[1])
    rows = max(_BLOCK_ALIGN, _BLOCK_ELEMENTS // per_row // _BLOCK_ALIGN * _BLOCK_ALIGN)
    out = np.empty(len(matrix))
    for start in range(0, len(matrix), rows):
        np.matmul(matrix[start : start + rows], q, out=out[start : start + rows])
    return out


def top_k(
    index: VectorIndex,
    query_vector: np.ndarray,
    k: int,
    exclude: str | None = None,
    ledger: CostLedger | None = None,
    query: str = "",
) -> RankedCandidates:
    """The k most cosine-similar entries, excluding self-matches.

    One similarity op per scanned candidate is ledgered. Zero-vector
    candidates (or a zero query) score -inf instead of erroring, so they
    rank last but deterministically.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(index) == 0:
        raise ValueError("cannot query an empty index")
    q = np.asarray(getattr(query_vector, "values", query_vector), dtype=np.float64)
    if q.shape != (index.dim,):
        raise ValueError(f"query dim {q.shape} does not match index dim {index.dim}")

    qn = float(np.linalg.norm(q))
    dots = _matvec(index.matrix, q)
    denom = index.norms * qn
    valid = denom > _ZERO_NORM
    scores = np.where(valid, dots / np.where(valid, denom, 1.0), -np.inf)

    m = len(index)
    pos = bisect_left(index.ids, exclude) if exclude is not None else m
    excluded = pos < m and index.ids[pos] == exclude
    candidates = m - excluded
    if ledger is not None:
        ledger.count_similarity(candidates)

    # The excluded row scores -inf. ``rows`` keeps every row scoring at
    # least the k-th best, so if that includes the excluded row, the k-th
    # best is -inf and ``rows`` is the whole index: dropping it below
    # still leaves the k best of the rest.
    if excluded:
        scores[pos] = -np.inf
    rows = np.arange(m)
    if k < m:
        kth = np.partition(scores, m - k)[m - k]
        rows = np.flatnonzero(scores >= kth)
    # Index rows are sorted by id, so ascending row is ascending id.
    order = rows[np.lexsort((rows, -scores[rows]))]
    if excluded:
        order = order[order != pos]
    order = order[:k]
    ranked = tuple(zip((index.ids[i] for i in order.tolist()), scores[order].tolist()))
    return RankedCandidates(query=query, ranked=ranked, k=k, fewer_than_k=k > candidates)


def _ranked_ids(ranked) -> list[str]:
    if isinstance(ranked, RankedCandidates):
        return list(ranked.ids())
    return [item[0] if isinstance(item, tuple) else item for item in ranked]


def recall_at_k(ranked, relevant: set[str], k: int | None = None) -> float:
    """Fraction of the relevant set appearing in the top k of the ranking."""
    if not relevant:
        raise ValueError("recall is undefined for an empty relevant set")
    ids = _ranked_ids(ranked)
    cut = len(ids) if k is None else min(k, len(ids))
    return len(set(ids[:cut]) & relevant) / len(relevant)


def precision_at_k(ranked, relevant: set[str], k: int) -> float:
    """Relevant hits in the top k, divided by k (not by list length)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = _ranked_ids(ranked)
    return len(set(ids[:k]) & relevant) / k
