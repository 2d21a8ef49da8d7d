"""Exact top-k cosine search over embedded reports.

``search`` scores a batch of queries against the whole database by brute
force over dense vectors, and ``search_rows`` over sparse rows (see the
last section): databases stay small enough (tens of thousands) that
exactness is cheap, and exact results keep every retrieval metric
oracle-checkable. Both take the runner's embedded rows, as
``(embedded, ids, query_rows, k, queries)``: the first ``len(ids)`` rows
are the database, its ``ids`` distinct and ascending, and query i is row
``query_rows[i]``, named ``queries[i]``. Both return the rankings of the
batch as arrays, one query-major CSR ``(ptr, rows, scores)`` whose rows
index the database in ascending-id order; no per-candidate Python object
is built. Ranking is fully deterministic: ties break by ascending bug id,
and candidates whose embedding is the zero vector (cosine undefined) sort
below everything. A query is never its own candidate: a query whose name
is a database id leaves that row out of its ranking. Search counts
nothing: the scenario runner charges the similarity ops, and ``metrics``
computes recall and precision at k from the rankings.

A dense score's bits are defined by a one-query block scan: the
matrix-vector product (GEMV) of the aligned row block holding the row with
the query, ``database[s:s + block] @ q``, over the product of the two
norms. So they do not depend on which other queries share the call, nor
on where the matrix starts in memory: a C-contiguous float64 database is
scanned in place, and any other is copied to one. ``search`` is that
scan: for each chunk of queries it fills the chunk's score block one row
block at a time, and each row block serves every query of the chunk while
it is in cache.

Both searches end alike (``_top_k``): a score is -inf where either norm is
below ``ZERO_NORM`` and for the query's own row; each query keeps the rows
at or above its k-th score (``np.partition``), and ``_ranked`` orders them
by (-score, row). A chunk's score block holds at most ``_CHUNK`` scores,
unless one query alone needs more; so do the two chunks in flight of a
sparse search on two threads (see below).

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
thread count, batch or chunk. A chunk's products, like its scores, number
at most ``_CHUNK``, unless one query alone needs more.

A search of more than one such chunk runs on two threads. The calling
thread ranks the queries that hold about the first half of the call's
products and scores, and one worker, started for the call and stopped
before it returns, ranks the rest; each thread's chunks hold at most
``_CHUNK // 2`` products and scores, so the two in flight stay within the
bound. numpy releases the GIL for part of a chunk's work (the partition
and the sorts, not ``np.repeat`` or the weighted ``np.bincount``), so on
two CPUs the halves partly overlap. The two lists of parts join in query
order, and since no score depends on its chunk, the bits do not depend on
the split either. A one-chunk search starts no thread.

The lists are built by one sort and one count (*ibid.*, ch. 4). The sort
orders the database's entries by the key ``bucket * m + row``; no key
repeats, so any sort algorithm gives the same permutation. The count is
one ``np.bincount`` of the database's buckets: each query entry reads
its list's length there, and its list's start from the counts' running
sum, by index and with no search. The counts, summed in place, take 8
bytes per bucket up to the largest bucket of the database or the
queries: 8 KiB at an embedder's default dim of 1024, 8 MiB at 2**20.
"""

from __future__ import annotations

from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from .embedder import ZERO_NORM, _csr_row_norms, row_norms

# The scan's row blocks hold at most this many matrix elements, in a
# multiple of _BLOCK_ALIGN rows. OpenBLAS computes a matrix-vector product
# this small on the calling thread. A larger one it splits across threads
# at a row that need not be aligned, which changes the last bits of the
# rows around the split with the thread count, and in a tight per-query
# loop on a small machine each call can wait milliseconds for a worker that
# shares the caller's CPU. Aligned blocks keep every row in the same kernel
# group as one single-threaded product, so the scores are its bits.
_BLOCK_ELEMENTS = 1 << 16
_BLOCK_ALIGN = 64
# A search's chunk holds at most this many scores, and a sparse search's as
# many products; on two threads, each thread's chunks hold half as many.
# A chunk's arrays (1 MiB at 8 bytes an element, 512 KiB on two threads)
# then stay in a core's cache: on a 638-report all-vs-all sparse search on
# two threads, per-thread chunks of 2**16 took 8.2-8.7 ms, against
# 10.7-10.8 ms at 2**15, 9.9-10.2 ms at 2**17 and 11.2-11.3 ms at 2**18
# (the median of eight rounds' best of 15 calls, in each of two processes,
# one BLAS thread, a 2-vCPU Xeon VM with 2 MiB of L2 a core).
_CHUNK = 1 << 17


def _checked(
    ids: Sequence[str], n_rows: int, query_rows: Sequence[int], k: int, queries: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """The query rows as an array and each query's own row (``_own_rows``),
    once the arguments of a search over ``n_rows`` embedded rows hold: k is
    at least 1, the database is not empty and its ids are distinct and
    ascending, each query row has one name, and every row is in range.
    Anything else raises ``ValueError``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = len(ids)
    if m == 0:
        raise ValueError("cannot query an empty index")
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise ValueError("database ids must be distinct and ascending")
    query_rows = np.asarray(query_rows, dtype=np.intp)
    n = len(query_rows)
    if len(queries) != n:
        raise ValueError(f"{n} query rows but {len(queries)} names")
    if n_rows < m:
        raise ValueError(f"{n_rows} rows are too few for a database of {m}")
    bad = np.flatnonzero((query_rows < 0) | (query_rows >= n_rows))
    if len(bad):
        i = bad[0]
        raise ValueError(f"query {i} ({queries[i]!r}) reads row {query_rows[i]}, outside the {n_rows} rows")
    return query_rows, _own_rows(ids, queries)


def search(
    vectors: np.ndarray, ids: Sequence[str], query_rows: Sequence[int], k: int, queries: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k most cosine-similar database rows for each query, by the
    one-query block scan.

    ``vectors`` is a matrix whose first ``len(ids)`` rows are the database,
    its ``ids`` distinct and ascending; query i is row ``query_rows[i]``,
    named ``queries[i]``. Returns one query-major CSR ranking ``(ptr, rows,
    scores)``: query i's ranking is ``rows[ptr[i]:ptr[i + 1]]``, database
    rows, with their ``scores``, non-increasing. It is the whole database
    when that holds fewer than k candidates; when ``queries[i]`` is a
    database id, that row is left out of query i's ranking. A database row
    or a query whose norm is not finite raises ``ValueError``. Nothing is
    counted here: ``cascade.run_partition`` charges the similarity ops.
    """
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError(f"vectors of shape {vectors.shape} are not a matrix")
    query_rows, skips = _checked(ids, len(vectors), query_rows, k, queries)
    n, m = len(query_rows), len(ids)
    database = np.ascontiguousarray(vectors[:m], dtype=np.float64)
    db_norms = row_norms(database)
    bad = np.flatnonzero(~np.isfinite(db_norms))
    if len(bad):
        raise ValueError(f"the vector of {ids[bad[0]]!r} has a norm that is not finite")
    query_vectors = np.ascontiguousarray(vectors[query_rows], dtype=np.float64)
    # Each query's norm alone, a dot product: norm(axis=1) sums in another
    # order.
    norms = np.array([np.linalg.norm(q) for q in query_vectors])
    bad = np.flatnonzero(~np.isfinite(norms))
    if len(bad):
        raise ValueError(f"query {bad[0]} ({queries[bad[0]]!r}) has a norm that is not finite")

    dim = vectors.shape[1]
    block = max(_BLOCK_ALIGN, _BLOCK_ELEMENTS // max(1, dim) // _BLOCK_ALIGN * _BLOCK_ALIGN)
    chunk = max(1, _CHUNK // m)
    parts = []
    for first in range(0, n, chunk):
        part = query_vectors[first : first + chunk]
        scores = np.empty((len(part), m))
        for s in range(0, m, block):
            rows = database[s : s + block]
            for i, q in enumerate(part):
                np.matmul(rows, q, out=scores[i, s : s + block])
        last = first + len(part)
        parts.append(_top_k(scores, norms[first:last], db_norms, skips[first:last], k))
    return _csr(parts)


def _own_rows(ids: Sequence[str], queries: Sequence[str]) -> np.ndarray:
    """Each query's own row of the ascending ``ids``, or -1."""
    rows = [bisect_left(ids, query) for query in queries]
    own = [r < len(ids) and ids[r] == query for r, query in zip(rows, queries)]
    return np.where(own, rows, -1).astype(np.intp)


def _top_k(
    dots: np.ndarray, q_norms: np.ndarray, db_norms: np.ndarray, skips: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_ranked`` of a chunk's queries from their ``(c, m)`` block of dot
    products, overwritten with the cosines: each over the product of its
    query's and its row's norm, -inf where either norm is below
    ``ZERO_NORM`` and at the query's own row (``skips``, or -1), and only
    the rows at or above the query's k-th cosine ranked."""
    c, m = dots.shape
    q_zero, db_zero = q_norms < ZERO_NORM, db_norms < ZERO_NORM
    dots /= np.multiply.outer(np.where(q_zero, 1.0, q_norms), np.where(db_zero, 1.0, db_norms))
    dots[:, db_zero] = -np.inf
    dots[q_zero] = -np.inf
    skipping = np.flatnonzero(skips >= 0)
    skipped = skips[skipping]
    dots[skipping, skipped] = -np.inf
    # The excluded row scores -inf, so the k-th score is that of the rest,
    # or -inf with at least k other rows kept.
    if k < m:
        keep = dots >= np.partition(dots, m - k, axis=1)[:, m - k, None]
    else:
        keep = np.ones(dots.shape, dtype=bool)
    keep[skipping, skipped] = False
    who, cols = np.divmod(np.flatnonzero(keep), m)
    del keep
    return _ranked(who, cols, dots[who, cols], c, k)


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

    ``rows`` is a CSR ``(indptr, buckets, weights)``; its rows, the ids
    and the queries are as in ``search``, and so is what it returns, with
    the scores of the module docstring's sparse section.
    """
    indptr, buckets, weights = rows
    query_rows, skips = _checked(ids, len(indptr) - 1, query_rows, k, queries)
    n, m = len(query_rows), len(ids)
    norms = _csr_row_norms(indptr, weights)
    q_norms, db_norms = norms[query_rows], norms[:m]

    # The inverted lists: the database's entries sorted by the distinct keys
    # bucket * m + row.
    db_rows = np.repeat(np.arange(m), np.diff(indptr[: m + 1]))
    postings = np.argsort(buckets[: indptr[m]] * np.int64(m) + db_rows)
    post_rows, post_weights = db_rows[postings], weights[postings]
    # The queries' entries, query-major, each with the start and length of
    # its bucket's list, read from the lists' running count; ``products[i]``
    # counts the products of queries < i.
    lengths = indptr[query_rows + 1] - indptr[query_rows]
    entry_ptr = np.concatenate(([0], np.cumsum(lengths)))
    entries = np.arange(entry_ptr[-1]) + np.repeat(indptr[query_rows] - entry_ptr[:-1], lengths)
    q_buckets, q_weights = buckets[entries], weights[entries]
    counts = np.bincount(buckets[: indptr[m]], minlength=int(q_buckets.max(initial=-1)) + 1)
    spans = counts[q_buckets]
    lo = np.cumsum(counts, out=counts)[q_buckets] - spans
    products = np.concatenate(([0], np.cumsum(spans)))[entry_ptr]
    del db_rows, postings, entries, q_buckets, counts

    def rank(first: int, last: int, bound: int) -> list:
        """The ``_top_k`` parts of queries ``first`` to ``last``, a chunk of
        at most ``bound`` products and scores at a time."""
        parts = []
        while first < last:
            fits = int(np.searchsorted(products, products[first] + bound, "right")) - 1
            end = max(first + 1, min(last, first + bound // m, fits))
            c = end - first
            e0, e1 = entry_ptr[first], entry_ptr[end]
            span = spans[e0:e1]
            # Product j of an entry reads posting lo + j; each product's key
            # is its (query, row) cell of the chunk's score block.
            post = np.repeat(lo[e0:e1] - (np.cumsum(span) - span), span)
            post += np.arange(len(post))
            key = np.repeat(np.repeat(np.arange(c) * m, lengths[first:end]), span)
            key += post_rows[post]
            product = np.repeat(q_weights[e0:e1], span)
            product *= post_weights[post]
            del post
            # One bincount sums each cell from 0.0 in the order its products
            # come, ascending bucket. With no product at all it counts
            # integers.
            scores = np.bincount(key, product, c * m).astype(np.float64, copy=False).reshape(c, m)
            del key, product
            parts.append(_top_k(scores, q_norms[first:end], db_norms, skips[first:end], k))
            first = end
        return parts

    # A search that fits one chunk ranks it here, with no thread.
    if n < 2 or n * m <= _CHUNK and products[-1] <= _CHUNK:
        return _csr(rank(0, n, _CHUNK))
    # Otherwise the calling thread ranks the queries up to about half the
    # products and scores, and one worker the rest, each in chunks of half
    # the bound. Leaving the ``with`` joins the worker, also when the
    # calling thread's half raises.
    work = products + np.arange(n + 1) * m
    half = min(max(1, int(np.searchsorted(work, work[-1] // 2))), n - 1)
    with ThreadPoolExecutor(1) as worker:
        rest = worker.submit(rank, half, n, _CHUNK // 2)
        parts = rank(0, half, _CHUNK // 2)
    return _csr(parts + rest.result())

