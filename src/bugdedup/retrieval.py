"""Exact top-k cosine search over embedded reports.

``search`` scores a batch of queries against the whole index by brute
force, then selects each query's top k with ``np.partition`` and sorts
only the rows that can make it: databases stay small enough (tens of
thousands) that exactness is cheap, and exact results keep every
retrieval metric oracle-checkable. Ranking is fully deterministic: ties
break by ascending bug id, and candidates whose embedding is the zero
vector (cosine undefined) sort below everything. ``top_k`` is the
one-query case. Search counts nothing: the scenario runner charges the
similarity ops, and ``metrics`` computes recall and precision at k from
the rankings.

The loops run over query chunks, then over aligned row blocks of the
index, then over the queries of the chunk, and each step is one
matrix-vector product of a row block with one query. A block (at most
``_BLOCK_ELEMENTS`` values) stays in cache while every query of the
chunk reads it, instead of each query streaming the whole index. Every
score is still the result of the same product on the same block as a
one-query scan, so its bits do not depend on which other queries share
the call; the block's size and alignment also keep the product on the
calling thread (see ``_BLOCK_ELEMENTS``), so they do not depend on the
BLAS thread count either. A matrix-matrix product would be about four times faster
here, but it sums in an order that depends on the query block: its
scores differ in the last bits from a one-query scan, and between
block sizes and orders of the same queries. Query norms are taken one
vector at a time with ``np.linalg.norm`` for the same reason;
``norm(axis=1)`` sums in a different order. A chunk holds at most
``_CHUNK_SCORES`` scores, which bounds the memory of a search.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedder import ZERO_NORM

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
# A search scores at most this many (query, row) pairs at a time.
_CHUNK_SCORES = 1 << 20
# The index matrix starts on a boundary of this many bytes. Where an array
# starts is otherwise up to the allocator's history: with the matrix 16
# bytes off a 32-byte boundary, a 638-row scan took about 113 ms against
# 95 ms aligned (OpenBLAS 0.3.31, AVX-512, one thread). The product's bits
# do not depend on the alignment.
_MATRIX_ALIGN_BYTES = 64


def _aligned_rows(matrix: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """``matrix[order]`` as a C-contiguous float64 array whose data starts
    on a ``_MATRIX_ALIGN_BYTES`` boundary."""
    shape = (len(order), *matrix.shape[1:])
    size = math.prod(shape)
    flat = np.empty(size + _MATRIX_ALIGN_BYTES // 8)
    skip = (-flat.ctypes.data % _MATRIX_ALIGN_BYTES) // 8
    out = flat[skip : skip + size].reshape(shape)
    return np.take(np.asarray(matrix, dtype=np.float64), order, axis=0, out=out)


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
        ordered = _aligned_rows(matrix, order)
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


@dataclass(frozen=True)
class RankedCandidates:
    """Top candidates for one query, scores non-increasing. When the index
    holds fewer candidates than requested, ``ranked`` is the full ranking."""

    query: str
    ranked: tuple[tuple[str, float], ...]

    def ids(self) -> tuple[str, ...]:
        return tuple(bug_id for bug_id, _ in self.ranked)


def top_k(
    index: VectorIndex,
    query_vector: np.ndarray,
    k: int,
    exclude: str | None = None,
    query: str = "",
) -> RankedCandidates:
    """The k most cosine-similar entries, excluding self-matches.

    A one-query ``search``: zero-vector candidates (or a zero query)
    score -inf instead of erroring, so they rank last but deterministically.
    """
    q = np.asarray(query_vector, dtype=np.float64)
    if q.shape != (index.dim,):
        raise ValueError(f"query dim {q.shape} does not match index dim {index.dim}")
    return search(index, q[None, :], k, [exclude], [query])[0]


def search(
    index: VectorIndex,
    query_vectors: np.ndarray,
    k: int,
    excludes: Sequence[str | None] | None = None,
    queries: Sequence[str] | None = None,
) -> list[RankedCandidates]:
    """``top_k`` for each row of ``query_vectors``, in one pass over the index.

    ``excludes[i]`` (an id or None) is left out of query i's ranking and
    ``queries[i]`` names it; both default to None/"" for every query.
    Each result equals the one-query ``top_k`` bit for bit. Nothing is
    counted here: ``cascade.run_partition`` charges the similarity ops.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(index) == 0:
        raise ValueError("cannot query an empty index")
    vectors = np.ascontiguousarray(query_vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != index.dim:
        raise ValueError(f"query dim {vectors.shape} does not match index dim {index.dim}")
    n, m = len(vectors), len(index)
    excludes = [None] * n if excludes is None else list(excludes)
    queries = [""] * n if queries is None else list(queries)
    if len(excludes) != n or len(queries) != n:
        raise ValueError(f"{n} query vectors but {len(excludes)} excludes and {len(queries)} names")
    skips: list[int | None] = []
    for exclude in excludes:
        pos = bisect_left(index.ids, exclude) if exclude is not None else m
        skips.append(pos if pos < m and index.ids[pos] == exclude else None)

    block = max(_BLOCK_ALIGN, _BLOCK_ELEMENTS // max(1, index.dim) // _BLOCK_ALIGN * _BLOCK_ALIGN)
    chunk = max(1, _CHUNK_SCORES // m)
    results: list[RankedCandidates] = []
    for first in range(0, n, chunk):
        part = vectors[first : first + chunk]
        scores = np.empty((len(part), m))
        for start in range(0, m, block):
            rows = index.matrix[start : start + block]
            for i, q in enumerate(part):
                np.matmul(rows, q, out=scores[i, start : start + block])
        denom = index.norms[None, :] * np.array([np.linalg.norm(q) for q in part])[:, None]
        invalid = ~(denom > ZERO_NORM)
        denom[invalid] = 1.0
        np.divide(scores, denom, out=scores)
        scores[invalid] = -np.inf
        # An excluded row scores -inf. A query's ``rows`` keeps every row
        # scoring at least its k-th best, so if that includes the excluded
        # row, the k-th best is -inf and ``rows`` is the whole index:
        # dropping it below still leaves the k best of the rest.
        chunk_skips = skips[first : first + len(part)]
        for i, skip in enumerate(chunk_skips):
            if skip is not None:
                scores[i, skip] = -np.inf
        kth = np.partition(scores, m - k, axis=1)[:, m - k] if k < m else None
        for i, (row_scores, skip) in enumerate(zip(scores, chunk_skips)):
            rows = np.arange(m) if kth is None else np.flatnonzero(row_scores >= kth[i])
            # Index rows are sorted by id, so ascending row is ascending id.
            order = rows[np.lexsort((rows, -row_scores[rows]))]
            if skip is not None:
                order = order[order != skip]
            order = order[:k]
            ranked = tuple(zip((index.ids[j] for j in order.tolist()), row_scores[order].tolist()))
            results.append(RankedCandidates(query=queries[first + i], ranked=ranked))
    return results
