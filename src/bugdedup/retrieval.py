"""Exact top-k cosine search over embedded reports.

``search`` scores a batch of dense query vectors against the whole index
by brute force, and ``search_rows`` a batch of sparse rows (see the last
section): databases stay small enough (tens of thousands) that exactness
is cheap, and exact results keep every retrieval metric oracle-checkable.
Both return the rankings of the batch as arrays, one query-major CSR
``(ptr, rows, scores)`` whose rows index the database in ascending-id
order; no per-candidate Python object is built. Ranking is fully
deterministic: ties break by ascending bug id, and candidates whose
embedding is the zero vector (cosine undefined) sort below everything.
A query is never its own candidate: a query whose name is an id of the
index leaves that row out of its ranking. Search counts nothing: the
scenario runner charges the similarity ops, and ``metrics`` computes
recall and precision at k from the rankings.

A dense score's bits are defined by a one-query block scan: the
matrix-vector product (GEMV) of the aligned row block holding the row with
the query, ``index.matrix[s:s + block] @ q``, over the product of the two
norms. So they do not depend on which other queries share the call, and
the scan itself is kept in the tests as their oracle. A matrix-matrix product
(GEMM) sums in an order that depends on the query block, and its scores
differ from the scan's in the last bits, so ``search`` uses it only to
choose candidates, as FAISS's exact search does before its refine step
(Johnson, Douze and Jegou, arXiv:1702.08734):

1. One GEMM per query chunk scores every (query, row) pair, over the
   same denominators as the scan, with the same zero-norm and exclusion
   rules.
2. ``_shortlist`` keeps each row whose GEMM score is at least the
   query's k-th GEMM score minus ``4 * gamma(d + 2)``, where
   ``gamma(n) = n*u / (1 - n*u)`` and ``u = 2**-53`` (every row when
   ``k >= m``). Any order of summing a d-term dot product errs by at most
   ``gamma(d) * |x| * |q|`` (Higham, *Accuracy and Stability of
   Numerical Algorithms*, section 3.1), so the GEMM's and the scan's dot
   products of a pair differ by at most twice that. Both are divided by
   the same denominator bits, the product of two computed norms that are
   each within about ``gamma(d) / 2`` of the true norm. With the two
   divisions' roundings, the two cosines of a pair then differ by at most
   ``E = 2 * gamma(d + 2)`` (for any d below about 10**8). A row of the
   exact top k scores at least the exact k-th score, which is at least
   the GEMM k-th score minus E, and the row's GEMM score is at most E
   below its exact one: a margin of ``2 * E`` keeps it, ties included.
   The bound needs finite norms, so a vector whose norm is not finite is
   refused.
3. The shortlist is rescored to the scan's bits, and each chunk is
   ranked with one stable sort per query (``_ranked``). A -inf score
   (zero norm, or excluded) is the same in both and is not rescored.

The rescoring rests on how OpenBLAS computes a GEMV: rows in groups of
four, then the last ``r mod 4`` rows of an r-row call on another path,
and a row's bits depend only on which of the two computed it. Rows below
``head = m - m mod 4`` are on the group path of their scan block, and a
gather ``index.matrix[rows] @ q`` padded with row 0 to a multiple of four
rows puts every row there too. A gather holds at most ``block`` rows,
like a scan block, which keeps the product on the calling thread (see
``_BLOCK_ELEMENTS``): a larger one is split between threads at a row
that need not start a group. Rows at or after ``head`` are read from the
scan's own last-block call ``index.matrix[last:m] @ q``, with ``last =
(m - 1) // block * block``: they take its remainder path, or, when that
block has one row, numpy's dot product, which no gather reproduces.
Query norms are taken one vector at a time with ``np.linalg.norm``, as
the scan takes them; ``norm(axis=1)`` sums in a different order.

A chunk holds at most ``_CHUNK_SCORES`` scores. A shortlisted pair takes
about ten array elements until its chunk is ranked, so a chunk also holds
at most a tenth as many pairs of shortlists of ``min(k, m)`` rows a query.
That bounds the memory of a search when the shortlist is the whole index
(``k >= m``) too. A query whose k-th score is -inf (a zero query, say)
would shortlist every row; it keeps only the first ``k + 1`` -inf rows.

Sparse rows
-----------
``search_rows`` ranks sparse rows in CSR form ``(indptr, buckets,
weights)``, each bucket once per row and in ascending order, as an
embedder's ``sparse_rows`` gives them. It scores term at a time over the
database's inverted lists (Manning, Raghavan and Schuetze, *Introduction
to Information Retrieval*, ch. 6-7): the postings, sorted by bucket and
then row, are multiplied with the query entries that share their bucket,
and one ``np.bincount`` sums the products of a query chunk, fed
query-major with each query's entries in ascending bucket order. A pair's
dot is thus summed from 0.0 over its shared buckets in ascending order,
and divided by the product of the query's and the row's norms
(``embedder._csr_row_norms``). These are the bits of the pair featurizer's
whole-text cosine (``classifier._compare``), and they depend on no BLAS,
thread count, batch or chunk. The score is -inf where either norm is
below ``ZERO_NORM`` and for the query's own row. Scores are exact, so
top-k needs no margin: each query keeps the rows at or above its k-th
score (``np.partition``), and ``_ranked`` orders them by (-score, row).
A chunk's score block and its products each hold at most
``_SPARSE_CHUNK`` elements, unless one query alone needs more.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedder import ZERO_NORM, _csr_row_norms, row_norms

# The scan's row blocks, and the rescoring's gathers, hold at most this
# many matrix elements, in a multiple of _BLOCK_ALIGN rows. OpenBLAS
# computes a matrix-vector product this small on the calling thread. A
# larger one it splits across threads at a row that need not be aligned,
# which changes the last bits of the rows around the split with the thread
# count, and in a tight per-query loop on a small machine each call can
# wait milliseconds for a worker that shares the caller's CPU. Aligned
# blocks keep every row in the same kernel group as one single-threaded
# product, so the scores are its bits.
_BLOCK_ELEMENTS = 1 << 16
_BLOCK_ALIGN = 64
# A search scores at most this many (query, row) pairs at a time.
_CHUNK_SCORES = 1 << 20
# A sparse search's chunk holds at most this many scores, and as many
# products. Its arrays (1 MiB at 8 bytes an element) then stay in a core's
# cache: on a 638-report all-vs-all search, chunks of 2**20 took about 30 ms
# against 22 ms (one thread).
_SPARSE_CHUNK = 1 << 17
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
    # Under mode="raise" np.take fills a buffer and copies it into ``out``;
    # "clip" writes ``out`` directly. The caller's orders are permutations,
    # so no index is clipped.
    return np.take(np.asarray(matrix, dtype=np.float64), order, axis=0, out=out, mode="clip")


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
        norms = row_norms(ordered)
        bad = np.flatnonzero(~np.isfinite(norms))
        if len(bad):
            raise ValueError(f"the vector of {ids[order[bad[0]]]!r} has a norm that is not finite")
        return cls(ids=tuple(ids[i] for i in order), matrix=ordered, norms=norms)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.ids)


def search(
    index: VectorIndex, query_vectors: np.ndarray, k: int, queries: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k most cosine-similar entries for each row of ``query_vectors``,
    one GEMM per query chunk.

    Returns one query-major CSR ranking ``(ptr, rows, scores)``: query i's
    ranking is ``rows[ptr[i]:ptr[i + 1]]``, rows of ``index`` (ascending
    id), with their ``scores``, non-increasing. It is the whole index when
    that holds fewer than k candidates. ``queries[i]`` names query i; when
    it is an id of the index, that row is left out of query i's ranking.
    Each score's bits are those of the one-query block scan. A query whose
    norm is not finite raises ``ValueError``. Nothing is counted here:
    ``cascade.run_partition`` charges the similarity ops.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(index) == 0:
        raise ValueError("cannot query an empty index")
    vectors = np.ascontiguousarray(query_vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != index.dim:
        raise ValueError(f"query dim {vectors.shape} does not match index dim {index.dim}")
    n, m = len(vectors), len(index)
    if len(queries) != n:
        raise ValueError(f"{n} query vectors but {len(queries)} names")
    # The row of each query's own id, or -1.
    skips = np.full(n, -1)
    for i, query in enumerate(queries):
        pos = bisect_left(index.ids, query)
        if pos < m and index.ids[pos] == query:
            skips[i] = pos

    norms = np.array([np.linalg.norm(q) for q in vectors])
    bad = np.flatnonzero(~np.isfinite(norms))
    if len(bad):
        raise ValueError(f"query {bad[0]} ({queries[bad[0]]!r}) has a norm that is not finite")

    block = max(_BLOCK_ALIGN, _BLOCK_ELEMENTS // max(1, index.dim) // _BLOCK_ALIGN * _BLOCK_ALIGN)
    chunk = max(1, _CHUNK_SCORES // max(m, 10 * min(k, m)))
    parts = []
    for first in range(0, n, chunk):
        part = vectors[first : first + chunk]
        scores = part @ index.matrix.T
        denom = index.norms[None, :] * norms[first : first + len(part), None]
        invalid = ~(denom > ZERO_NORM)
        denom[invalid] = 1.0
        np.divide(scores, denom, out=scores)
        scores[invalid] = -np.inf
        # An excluded row scores -inf, so the k-th score is that of the
        # rest; the row then leaves the shortlist.
        skipping = np.flatnonzero(skips[first : first + len(part)] >= 0)
        skipped = skips[first + skipping]
        scores[skipping, skipped] = -np.inf
        keep = _shortlist(scores, k, index.dim)
        if k < m:
            # A -inf k-th score shortlists every row, but -inf scores tie and
            # rank by row: only the first k + 1 of them can place, the one
            # more in case the excluded row is among them.
            whole = np.flatnonzero(keep.all(axis=1))
            tail = scores[whole] == -np.inf
            keep[whole] = ~tail | (np.cumsum(tail, axis=1) <= k + 1)
        keep[skipping, skipped] = False
        # Shortlist pairs in query-major, ascending-row order. A -inf score
        # is exact; every other one is replaced by the scan's bits.
        who, rows = np.nonzero(keep)
        picked = scores[who, rows]
        finite = np.flatnonzero(picked > -np.inf)
        finite_rows = rows[finite]
        spans = np.searchsorted(who[finite], np.arange(len(part) + 1)).tolist()
        dots = np.empty(len(finite))
        for i, (a, b) in enumerate(zip(spans, spans[1:])):
            if a < b:
                dots[a:b] = _scan_dots(index.matrix, part[i], finite_rows[a:b], block)
        picked[finite] = dots / denom[who[finite], finite_rows]
        parts.append(_ranked(who, rows, picked, len(part), k))
    return _csr(parts)


def _ranked(
    who: np.ndarray, rows: np.ndarray, scores: np.ndarray, n: int, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ranking of each of ``n`` queries from its pairs ``(who, rows,
    scores)``, in query-major, ascending-row order: its first k by (-score,
    row), as ``(counts, rows, scores)`` with ``counts[i]`` the length of
    query i's ranking.

    Each query's pairs fill one row of a block, in ascending-row order,
    padded after its last pair, and one stable sort of each block row by
    falling score keeps ascending row within a tie. A -inf score and the
    padding tie, and the padding comes last. The block holds no more
    elements than the chunk that produced the pairs.
    """
    counts = np.bincount(who, minlength=n)
    starts = np.cumsum(counts) - counts
    block = np.full((n, int(counts.max(initial=0))), np.inf)
    block[who, np.arange(len(who)) - starts[who]] = -scores
    order = np.argsort(block, axis=1, kind="stable")[:, :k]
    counts = np.minimum(counts, k)
    top = (order + starts[:, None])[np.arange(order.shape[1]) < counts[:, None]]
    return counts, rows[top], scores[top]


def _csr(parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]):
    """The chunks' ``_ranked`` outputs, in query order, as one CSR ranking."""
    ptr = np.cumsum(np.concatenate([np.zeros(1, dtype=np.int64), *(c for c, _, _ in parts)]))
    rows = np.concatenate([np.zeros(0, dtype=np.intp), *(r for _, r, _ in parts)])
    return ptr, rows, np.concatenate([np.zeros(0), *(s for _, _, s in parts)])


def search_rows(
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    ids: Sequence[str],
    query_rows: Sequence[int],
    k: int,
    queries: Sequence[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``search`` over sparse rows, scored term at a time.

    ``rows`` is a CSR ``(indptr, buckets, weights)`` whose first
    ``len(ids)`` rows are the database, its ``ids`` distinct and ascending.
    Query i is row ``query_rows[i]``, named ``queries[i]``. Returns what
    ``search`` returns, a CSR ranking whose rows index the database, with
    the scores of the module docstring's sparse section.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = len(ids)
    if m == 0:
        raise ValueError("cannot query an empty index")
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError("database ids must be distinct and ascending")
    indptr, buckets, weights = rows
    query_rows = np.asarray(query_rows, dtype=np.intp)
    n = len(query_rows)
    if len(queries) != n:
        raise ValueError(f"{n} query rows but {len(queries)} names")
    if len(indptr) <= max(m, int(query_rows.max(initial=-1)) + 1):
        raise ValueError(f"{len(indptr) - 1} rows are too few for the database and the queries")
    skips = np.array([bisect_left(ids, query) for query in queries], dtype=np.intp)
    skips[[s >= m or ids[s] != query for s, query in zip(skips.tolist(), queries)]] = -1
    # A zero row's norm is taken as 1.0, and its scores are set to -inf.
    norms = _csr_row_norms(indptr, weights)
    zero = norms < ZERO_NORM
    norms[zero] = 1.0
    q_norms, q_zero, db_norms, db_zero = norms[query_rows], zero[query_rows], norms[:m], zero[:m]

    # The inverted lists: the database's entries sorted by bucket, then row.
    postings = np.argsort(buckets[: indptr[m]], kind="stable")
    post_buckets = buckets[postings]
    post_rows = np.repeat(np.arange(m), np.diff(indptr[: m + 1]))[postings]
    post_weights = weights[postings]
    # The queries' entries, query-major, each with the start and length of
    # its bucket's list; ``products[i]`` counts the products of queries < i.
    lengths = indptr[query_rows + 1] - indptr[query_rows]
    entry_ptr = np.concatenate(([0], np.cumsum(lengths)))
    entries = np.arange(entry_ptr[-1]) + np.repeat(indptr[query_rows] - entry_ptr[:-1], lengths)
    q_buckets, q_weights = buckets[entries], weights[entries]
    lo = np.searchsorted(post_buckets, q_buckets, "left")
    spans = np.searchsorted(post_buckets, q_buckets, "right") - lo
    products = np.concatenate(([0], np.cumsum(spans)))[entry_ptr]
    del postings, post_buckets, entries, q_buckets

    parts = []
    first = 0
    while first < n:
        fits = int(np.searchsorted(products, products[first] + _SPARSE_CHUNK, "right")) - 1
        last = max(first + 1, min(n, first + _SPARSE_CHUNK // m, fits))
        c = last - first
        e0, e1 = entry_ptr[first], entry_ptr[last]
        span = spans[e0:e1]
        # Product j of an entry reads posting lo + j; each product's key is
        # its (query, row) cell of the chunk's score block.
        post = np.repeat(lo[e0:e1] - (np.cumsum(span) - span), span)
        post += np.arange(len(post))
        key = np.repeat(np.repeat(np.arange(c) * m, lengths[first:last]), span)
        key += post_rows[post]
        product = np.repeat(q_weights[e0:e1], span)
        product *= post_weights[post]
        del post
        # One bincount sums each cell from 0.0 in the order its products
        # come, ascending bucket. With no product at all it counts integers.
        scores = np.bincount(key, product, c * m).astype(np.float64, copy=False).reshape(c, m)
        del key, product
        scores /= np.multiply.outer(q_norms[first:last], db_norms)
        scores[:, db_zero] = -np.inf
        scores[q_zero[first:last]] = -np.inf
        skipping = np.flatnonzero(skips[first:last] >= 0)
        skipped = skips[first + skipping]
        scores[skipping, skipped] = -np.inf
        # The excluded row scores -inf, so the k-th score is that of the
        # rest, or -inf with at least k other rows kept.
        if k < m:
            keep = scores >= np.partition(scores, m - k, axis=1)[:, m - k, None]
        else:
            keep = np.ones(scores.shape, dtype=bool)
        keep[skipping, skipped] = False
        who, cols = np.nonzero(keep)
        del keep
        parts.append(_ranked(who, cols, scores[who, cols], c, k))
        first = last
    return _csr(parts)


def _shortlist(scores: np.ndarray, k: int, dim: int) -> np.ndarray:
    """Which rows of each query's GEMM ``scores`` can be in its exact top k.

    A GEMM cosine is within ``2 * gamma(dim + 2)`` of the scan's, so a row
    of the exact top k scores at most ``4 * gamma(dim + 2)`` below the
    query's k-th GEMM score (see the module docstring). The margin is
    rounded up, and a rounded ``kth - margin`` is then never above a score
    that the exact difference is not above.
    """
    m = scores.shape[1]
    if k >= m:
        return np.ones(scores.shape, dtype=bool)
    u = 2.0**-53
    gamma = (dim + 2) * u / (1 - (dim + 2) * u)
    margin = math.nextafter(4 * gamma, math.inf)
    kth = np.partition(scores, m - k, axis=1)[:, m - k]
    return scores >= (kth - margin)[:, None]


def _scan_dots(matrix: np.ndarray, q: np.ndarray, rows: np.ndarray, block: int) -> np.ndarray:
    """``matrix[rows] @ q`` for ascending ``rows``, with the bits of the scan
    ``matrix[s:s + block] @ q`` (see the module docstring)."""
    m = len(matrix)
    body = rows.searchsorted(m - m % 4)
    out = np.empty(len(rows))
    for s in range(0, body, block):
        n = min(block, body - s)
        take = rows[s : s + n]
        if n % 4:
            take = np.concatenate((take, np.zeros(-n % 4, dtype=take.dtype)))
        out[s : s + n] = (matrix[take] @ q)[:n]
    if body < len(rows):
        last = (m - 1) // block * block
        out[body:] = (matrix[last:] @ q)[rows[body:] - last]
    return out
