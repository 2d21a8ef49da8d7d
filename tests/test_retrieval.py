"""Exact top-k search, tie handling, recall@k / precision@k."""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugdedup import retrieval
from bugdedup.cascade import run_partition
from bugdedup.corpus import BugReport
from bugdedup.dup_graph import ClusterSet
from bugdedup.embedder import TfidfHashEmbedder
from bugdedup.metrics import aggregate_curves
from bugdedup.retrieval import search

from helpers import (
    columnar,
    fit_train_embedder,
    outcome,
    planted_pipeline,
    rankings,
    reference_search,
)

_ZERO_NORM = 1e-12


def _database(vectors: dict[str, list[float]]):
    """The database ``(matrix, ids)`` of ``vectors``, in ascending-id order."""
    ids = sorted(vectors)
    return np.array([vectors[i] for i in ids], dtype=np.float64), ids


def _search(db, query_vectors, k: int, names):
    """``search``'s CSR ranking of ``query_vectors``, as rows after the
    database ``db``, as one tuple of ``(bug_id, score)`` pairs per query."""
    matrix, ids = db
    vectors = np.concatenate([matrix, query_vectors])
    return rankings(ids, search(vectors, ids, range(len(ids), len(vectors)), k, names))


def _search_rows(rows, ids, query_rows, k, queries):
    """``search_rows``'s CSR ranking in the form of ``_search``."""
    return rankings(ids, retrieval.search_rows(rows, ids, query_rows, k, queries))


def _one(db, q, k: int, name: str = "query"):
    """The ranking of one query vector named ``name``."""
    return _search(db, np.asarray(q, dtype=np.float64)[None, :], k, [name])[0]


def _ids(ranked) -> tuple[str, ...]:
    return tuple(bug_id for bug_id, _ in ranked)


def _at_offset(matrix: np.ndarray, offset: int) -> np.ndarray:
    """A C-contiguous copy of ``matrix`` whose data starts ``offset`` bytes
    past a 64-byte boundary."""
    size = matrix.itemsize
    flat = np.empty(matrix.size + 64 // size, dtype=matrix.dtype)
    start = (offset - flat.ctypes.data % 64) % 64 // size
    moved = flat[start : start + matrix.size].reshape(matrix.shape)
    moved[...] = matrix
    assert moved.ctypes.data % 64 == offset
    return moved


def test_search_scores_do_not_depend_on_the_matrix_address(monkeypatch):
    # A C-contiguous float64 matrix is scanned in place, so where it starts
    # reaches the matrix-vector products; a float32 one is copied first. A
    # small chunk bound splits the queries into several chunks.
    monkeypatch.setattr(retrieval, "_CHUNK", 1000)
    m, n = 250, 30
    ids = [f"b{i:03d}" for i in range(m)]
    names = [f"q{i}" for i in range(n)]
    for dtype in (np.float32, np.float64):
        for dim in (1, 7, 48, 100, 300):
            vectors = np.random.default_rng(dim).normal(size=(m + n, dim)).astype(dtype)
            for k in (5, m):
                want = [a.tobytes() for a in search(vectors, ids, range(m, m + n), k, names)]
                for offset in range(0, 64, vectors.itemsize):
                    got = search(_at_offset(vectors, offset), ids, range(m, m + n), k, names)
                    assert [a.tobytes() for a in got] == want, (dtype, dim, k, offset)


def test_index_rejects_duplicate_ids():
    vectors = np.eye(3)
    for ids in (["a", "a"], ["b", "a"]):
        with pytest.raises(ValueError, match="distinct and ascending"):
            search(vectors, ids, [2], 1, ["q"])


def test_index_rejects_count_mismatch():
    with pytest.raises(ValueError, match="2 rows are too few for a database of 3"):
        search(np.zeros((2, 2)), ["a", "b", "c"], [], 1, [])


def test_top_k_orders_by_similarity():
    idx = _database({"far": [-1, 0], "near": [1, 0.01], "mid": [0, 1]})
    ranked = _one(idx, [1.0, 0.0], k=3)
    assert _ids(ranked) == ("near", "mid", "far")
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)


def test_top_k_breaks_ties_by_id():
    idx = _database({"bb": [1, 0], "aa": [1, 0], "cc": [1, 0]})
    ranked = _one(idx, [2.0, 0.0], k=3)
    assert _ids(ranked) == ("aa", "bb", "cc")


def test_top_k_zero_candidates_rank_last():
    idx = _database({"zero": [0, 0], "hit": [1, 0]})
    ranked = _one(idx, [1.0, 0.0], k=2)
    assert _ids(ranked) == ("hit", "zero")
    assert ranked[1][1] == -np.inf


def test_top_k_zero_query_orders_by_id():
    idx = _database({"b": [1, 0], "a": [0, 1]})
    ranked = _one(idx, [0.0, 0.0], k=2)
    assert _ids(ranked) == ("a", "b")
    assert all(s == -np.inf for _, s in ranked)


def test_top_k_excludes_self():
    idx = _database({"q": [1, 0], "other": [1, 0]})
    ranked = _one(idx, [1.0, 0.0], k=2, name="q")
    assert _ids(ranked) == ("other",)
    assert len(ranked) < 2


def test_top_k_flags_small_index():
    idx = _database({"a": [1, 0]})
    ranked = _one(idx, [1.0, 0.0], k=5)
    assert len(ranked) < 5
    assert len(ranked) == 1


def test_top_k_validates_inputs():
    idx = _database({"a": [1, 0]})
    with pytest.raises(ValueError, match="k must be"):
        _one(idx, [1.0, 0.0], k=0)
    with pytest.raises(ValueError, match="not a matrix"):
        search(np.zeros(2), ["a"], [0], 1, ["query"])
    with pytest.raises(ValueError, match="empty index"):
        _one((np.zeros((0, 2)), []), [1.0, 0.0], k=1)


class _FixedEmbedder:
    def embed_texts(self, texts):
        return np.array([[1.0, float(len(t))] for t in texts])


def test_top_k_counts_similarity_ops():
    # Search counts nothing; the runner charges each query one op per
    # database bug it ranks. In an all-vs-all partition whose query "z" is
    # not in the database, "z" scans all 3 bugs and "a" the 2 others.
    database = [BugReport(b, f"title {b}", "text" * (i + 1)) for i, b in enumerate("abc")]
    queries = [database[0], BugReport("z", "title z", "text")]
    outcome, ledger = run_partition(
        queries, database, ClusterSet((), ()), _FixedEmbedder(), None, "retrieval_only", 2
    )
    assert [(r.query, r.db_size) for r in outcome.records] == [("a", 2), ("z", 3)]
    assert ledger.similarity_ops == 5


def _oracle_rank(db, q: np.ndarray, k: int, exclude=None):
    matrix, ids = db
    qn = float(np.linalg.norm(q))
    norms = np.linalg.norm(matrix, axis=1)
    dots = matrix @ q
    denom = norms * qn
    valid = (norms >= _ZERO_NORM) & (qn >= _ZERO_NORM)
    scores = np.where(valid, dots / np.where(valid, denom, 1.0), -np.inf)
    pool = [(bug_id, float(scores[i])) for i, bug_id in enumerate(ids) if bug_id != exclude]
    pool.sort(key=lambda c: (-c[1], c[0]))
    return tuple(pool[:k])


def test_top_k_matches_full_sort_on_random_indexes():
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(1, 40))
        dim = int(rng.integers(2, 16))
        matrix = rng.normal(size=(n, dim))
        # plant zero rows and exact ties
        for row in range(n):
            if rng.random() < 0.15:
                matrix[row] = 0.0
            elif row > 0 and rng.random() < 0.2:
                matrix[row] = matrix[int(rng.integers(row))]
        ids = sorted(f"r{int(x):04d}" for x in rng.permutation(10 * n)[:n])
        index = matrix, ids
        q = np.zeros(dim) if rng.random() < 0.1 else rng.normal(size=dim)
        k = int(rng.integers(1, n + 3))
        exclude = ids[int(rng.integers(n))] if rng.random() < 0.5 else None
        got = _one(index, q, k, name=exclude or "query")
        assert got == _oracle_rank(index, q, k, exclude), f"trial {trial}"

    zero_run = np.vstack([rng.normal(size=(3, 4)), np.zeros((4, 4)), rng.normal(size=(2, 4))])
    edge_cases = [
        # excluded id inside a run of zero-vector (-inf) rows, k inside and past the run
        (zero_run, "r0004", 4),
        (zero_run, "r0005", 6),
        # k >= m with exclusion
        (zero_run, "r0000", 9),
        (zero_run, "r0008", 40),
        # an index of all zero vectors, with and without exclusion
        (np.zeros((5, 3)), "r0002", 2),
        (np.zeros((5, 3)), None, 7),
        # an index with one row, excluded or not
        (rng.normal(size=(1, 3)), "r0000", 1),
        (rng.normal(size=(1, 3)), None, 3),
        # an index scanned in several row blocks, every score compared
        (rng.normal(size=(300, 700)), "r0150", 300),
    ]
    for case, (matrix, exclude, k) in enumerate(edge_cases):
        index = matrix, [f"r{i:04d}" for i in range(len(matrix))]
        q = rng.normal(size=matrix.shape[1])
        got = _one(index, q, k, name=exclude or "query")
        assert got == _oracle_rank(index, q, k, exclude), f"edge case {case}"


def _search_case(rng, m, dim, n, integer=False):
    """A database ``(matrix, ids)`` with zero rows and exact ties, and n
    queries (some zero) with mixed names: database ids, which leave their
    row out, and names that are not. ``integer`` vectors have exact dot products, so more of their
    scores tie."""
    def draw(shape):
        return rng.integers(-2, 3, size=shape).astype(float) if integer else rng.normal(size=shape)

    matrix = draw((m, dim))
    matrix[rng.random(m) < 0.1] = 0.0
    for row in range(1, m, 5):
        matrix[row] = matrix[row - 1]
    ids = [f"r{i:04d}" for i in range(m)]
    queries = draw((n, dim))
    queries[rng.random(n) < 0.1] = 0.0
    # copies of database rows tie with them, and with each other
    queries[::3] = matrix[rng.integers(m, size=len(queries[::3]))]
    names = [ids[int(rng.integers(m))] if rng.random() < 0.6 else f"q{i}" for i in range(n)]
    names[::7] = ["absent"] * len(names[::7])
    return (matrix, ids), queries, names


@pytest.mark.parametrize(
    "m,dim,n,k,chunk_scores",
    [
        (40, 8, 30, 5, None),  # one chunk, one row block
        (40, 8, 30, 40, None),  # k = m
        (40, 8, 30, 45, None),  # k > m
        (300, 700, 25, 20, None),  # several row blocks
        (300, 700, 25, 300, None),  # several row blocks, every score compared
        (50, 6, 23, 7, 200),  # several query chunks of 2, the last one short
        (50, 6, 23, 7, 1),  # a chunk smaller than one query
    ],
)
def test_search_equals_the_full_sort_oracle_for_every_query(monkeypatch, m, dim, n, k, chunk_scores):
    if chunk_scores is not None:
        monkeypatch.setattr(retrieval, "_CHUNK", chunk_scores)
    rng = np.random.default_rng(m * 1000 + n)
    index, queries, names = _search_case(rng, m, dim, n)
    assert any(name in index[1] for name in names) and not all(name in index[1] for name in names)
    got = _search(index, queries, k, names)
    assert len(got) == n
    for i, ranked in enumerate(got):
        assert ranked == _oracle_rank(index, queries[i], k, names[i]), f"query {i}"
        assert ranked == _search(index, queries[i : i + 1], k, names[i : i + 1])[0]


def _bits(results):
    return [[(bug_id, score.hex()) for bug_id, score in ranked] for ranked in results]


@pytest.mark.parametrize(
    "m,dim,integer,ks,chunk_scores",
    [
        # At dim 1024 a scan block is 64 rows.
        (1, 1024, False, None, None),  # one row: no 4-row group at all
        (2, 1024, False, None, None),
        (3, 1024, False, None, None),
        (64, 1024, False, None, None),  # m mod 4 = 0, one full block
        (65, 1024, False, None, None),  # a last block of 1 row, a dot product
        (66, 1024, False, None, None),  # a last block of 2 rows
        (67, 1024, False, None, None),  # a last block of 3 rows
        (93, 1024, False, None, None),  # m mod 4 = 1, 2 and 3 in a longer last block
        (94, 1024, False, None, None),
        (95, 1024, True, None, None),
        (257, 256, False, None, None),  # a last block of 1 row after 256-row blocks
        (131, 1024, True, None, None),  # integer vectors, exact ties, a 3-row last block
        (50, 6, True, None, 200),  # several query chunks
        (300, 700, False, None, 900),  # several query chunks and row blocks
        # Rankings of 500 rows and of the whole database over ten row blocks, a
        # matrix that OpenBLAS would split between threads in one product.
        (604, 1024, False, (1, 500, 603, 604, 607), None),
    ],
)
def test_search_equals_the_block_scan_bit_for_bit(monkeypatch, m, dim, integer, ks, chunk_scores):
    if chunk_scores is not None:
        monkeypatch.setattr(retrieval, "_CHUNK", chunk_scores)
    rng = np.random.default_rng(m * 1000 + dim)
    (matrix, ids), queries, names = _search_case(rng, m, dim, 12, integer)
    # The rows after the last 4-row group score, and one query is zero.
    matrix[m - m % 4 :] = rng.normal(size=(m % 4, dim))
    queries[1] = 0.0
    vectors = np.concatenate([matrix, queries])
    at = range(m, len(vectors))
    for k in ks or sorted({1, 5, max(1, m - 1), m, m + 3}):
        want = reference_search(vectors, ids, at, k, names)
        assert _bits(rankings(ids, search(vectors, ids, at, k, names))) == _bits(want), f"k={k}"
    assert rankings(ids, search(vectors, ids, [], 1, [])) == reference_search(vectors, ids, [], 1, []) == []


def _transient_bytes(run) -> int:
    """Peak bytes traced while ``run()`` ran, less those it left allocated."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    # Under a profile function CPython 3.11 gives each code object it runs a
    # line-number array, so tracemalloc finds each allocation's line without
    # scanning the line table: this test then runs about 7 times faster.
    profile = sys.getprofile()
    sys.setprofile(profile or (lambda *args: None))
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kept = run()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        sys.setprofile(profile)
        if started:
            tracemalloc.stop()
    assert retained > before and kept
    return peak - retained


def test_search_memory_stays_near_its_chunk_bound_when_k_covers_the_index(monkeypatch):
    # With k >= m every score of a chunk is ranked. A chunk holds at most
    # _CHUNK scores, each taking a few 8-byte array elements until its
    # chunk is ranked, so the transient peak is a small multiple of the
    # bound, for one chunk or for one and a half. A zero query's k-th score
    # is -inf, which keeps every row too. The copy of the database and the
    # query vectors, and the output, which outlives the call, stay small
    # beside the bound.
    bound = 1 << 16
    monkeypatch.setattr(retrieval, "_CHUNK", bound)
    rng = np.random.default_rng(7)
    m, d = 200, 64
    ids = [f"b{i:04d}" for i in range(m)]
    database = rng.normal(size=(m, d))
    for n, zero in ((bound // m, False), (491, False), (491, True)):
        queries = np.zeros((n, d)) if zero else rng.normal(size=(n, d))
        vectors = np.concatenate([database, queries])
        names = [f"q{i}" for i in range(n)]
        peak = _transient_bytes(lambda: search(vectors, ids, range(m, m + n), m + 5, names))
        assert peak <= 8 * 8 * bound, (n, zero, peak / (8 * bound))


def test_non_finite_vectors_are_refused():
    vectors = np.array([[1.0, 1.0], [0.0, 1.0], [np.inf, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="'c' has a norm that is not finite"):
        search(vectors, list("abcd"), [0], 1, ["a"])
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match=r"query 1 \('nan'\) has a norm that is not finite"):
        search(vectors, ["a", "b"], [2, 3], 1, queries=["ok", "nan"])
    # finite entries whose norm overflows
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1e200, 1e200]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="query 0 .* not finite"):
        search(vectors, ["a", "b"], [2], 1, ["big"])


def test_search_edge_inputs():
    index = _database({"a": [1, 0], "b": [0, 1]})
    assert _search(index, np.zeros((0, 2)), 3, []) == []
    got = _search(index, np.array([[1.0, 0.0], [0.0, 1.0]]), 1, ["x", "y"])
    # One ranking per query, in query order.
    assert got == [(("a", 1.0),), (("b", 1.0),)]
    # A query named by a database id never ranks itself, even as its best match.
    got = _search(index, np.array([[1.0, 0.0], [0.0, 1.0]]), 1, ["a", "b"])
    assert [_ids(r) for r in got] == [("b",), ("a",)]
    # A query may be a database row.
    assert rankings(["a", "b"], search(np.eye(2), ["a", "b"], [0, 1], 1, ["a", "b"])) == got
    vectors, ids = np.eye(3), ["a", "b"]
    with pytest.raises(ValueError, match="empty index"):
        search(vectors, [], [2], 1, ["x"])
    with pytest.raises(ValueError, match="k must be"):
        search(vectors, ids, [2], 0, ["x"])
    with pytest.raises(ValueError, match="not a matrix"):
        search(np.zeros(3), ids, [2], 1, ["x"])
    with pytest.raises(ValueError, match="2 query rows but 1 names"):
        search(vectors, ids, [2, 2], 1, ["a"])
    for row in (3, -1, -2):
        with pytest.raises(ValueError, match=rf"query 0 \('x'\) reads row {row}, outside the 3 rows"):
            search(vectors, ids, [row], 1, ["x"])


# ------------------------------------------------------------ sparse rows


_WORDS = [f"w{i}" for i in range(12)]


def _sparse_case(db_texts, outside_texts, dim):
    """Database and outside texts embedded as one CSR, as the runner embeds
    them: database ids ascending, then the outside rows."""
    embedder = TfidfHashEmbedder.fit(db_texts + outside_texts + ["w0 w1", "w2"], dim=dim)
    rows = embedder.sparse_rows(*embedder.token_ids(db_texts + outside_texts))
    return rows, [f"b{i:03d}" for i in range(len(db_texts))]


def _reference_search_rows(rows, ids, query_rows, k, queries):
    """Each pair's dot summed from 0.0 over its shared buckets in ascending
    order, over the product of the two norms (each a sum from 0.0 of its
    squared weights in row order); -inf for a norm below 1e-12 and for the
    query's own row; ranked by (-score, id)."""
    indptr, buckets, weights = (a.tolist() for a in rows)

    def row(i):
        return dict(zip(buckets[indptr[i] : indptr[i + 1]], weights[indptr[i] : indptr[i + 1]]))

    def norm(r):
        total = 0.0
        for w in r.values():
            total += w * w
        return math.sqrt(total)

    out = []
    for q, name in zip(query_rows, queries):
        qr = row(q)
        pool = []
        for j, bug_id in enumerate(ids):
            if bug_id == name:
                continue
            dr = row(j)
            dot = 0.0
            for b in sorted(qr.keys() & dr.keys()):
                dot += qr[b] * dr[b]
            qn, dn = norm(qr), norm(dr)
            pool.append((bug_id, -math.inf if qn < _ZERO_NORM or dn < _ZERO_NORM else dot / (qn * dn)))
        pool.sort(key=lambda c: (-c[1], c[0]))
        out.append(tuple(pool[:k]))
    return out


_texts = st.lists(st.sampled_from(_WORDS + [""]), max_size=6).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(
    db_texts=st.lists(_texts, min_size=1, max_size=12),
    outside=st.lists(_texts, max_size=4),
    dim=st.sampled_from([4, 16, 1024, 1 << 20]),
    data=st.data(),
)
def test_search_rows_equals_the_per_pair_reference_bit_for_bit(db_texts, outside, dim, data):
    # Empty texts are zero rows, copied texts tie exactly, and a small dim
    # makes tokens share buckets.
    if len(db_texts) > 1:
        db_texts[-1] = db_texts[0]
    rows, ids = _sparse_case(db_texts, outside, dim)
    m = len(ids)
    inside = data.draw(st.lists(st.integers(0, m - 1), max_size=6), label="database queries")
    query_rows = inside + list(range(m, m + len(outside)))
    queries = [ids[i] for i in inside] + [f"q{i}" for i in range(len(outside))]
    k = data.draw(st.integers(1, m + 2), label="k")
    want = _reference_search_rows(rows, ids, query_rows, k, queries)
    got = _search_rows(rows, ids, query_rows, k, queries)
    assert _bits(got) == _bits(want)
    # Neither the chunk bound nor the other queries of the call move a bit.
    bound = data.draw(st.sampled_from([1, 5, 40]), label="chunk bound")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(retrieval, "_CHUNK", bound)
        assert _bits(_search_rows(rows, ids, query_rows, k, queries)) == _bits(want)
    for i in range(len(query_rows)):
        alone = _search_rows(rows, ids, query_rows[i : i + 1], k, queries[i : i + 1])
        assert _bits(alone) == _bits(want[i : i + 1])


@pytest.mark.parametrize(
    "db, outside",
    [
        ([{}, {}, {}], [{2: 1.0}, {}]),
        ([{1: 1.0, 5: 2.0}, {5: 0.5, 9: 1.5}, {9: 1.0}], [{0: 1.0, 3: 2.0, 5: 1.0}, {7: 1.0}]),
        ([{1: 1.0, 2: 3.0}, {2: 1.0}], [{2: 1.0, 3: 1.0, 1 << 20: 4.0}, {(1 << 20) - 1: 1.0}]),
    ],
    ids=["all-database-rows-empty", "buckets-absent-from-the-database", "buckets-above-the-largest"],
)
def test_search_rows_inverted_lists_at_their_edges(db, outside):
    # The lists' counts run to the largest bucket of the database or the
    # queries: a database with no entry has none but empty lists, and a
    # query bucket that no database row holds, below or above the largest
    # that one does, reads an empty list. Every row is a query, together
    # and alone, so a call's query entries may also be none at all.
    texts = db + outside
    rows = (
        np.cumsum([0] + [len(r) for r in texts]),
        np.array([b for r in texts for b in sorted(r)], dtype=np.int64),
        np.array([r[b] for r in texts for b in sorted(r)], dtype=np.float64),
    )
    ids = [f"b{i}" for i in range(len(db))]
    names = ids + [f"q{i}" for i in range(len(outside))]
    for query_rows in [list(range(len(texts)))] + [[i] for i in range(len(texts))]:
        queries = [names[i] for i in query_rows]
        for k in (1, len(db) + 1):
            want = _reference_search_rows(rows, ids, query_rows, k, queries)
            for bound in (1, 1 << 17):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(retrieval, "_CHUNK", bound)
                    got = _search_rows(rows, ids, query_rows, k, queries)
                assert _bits(got) == _bits(want), (query_rows, k, bound)


# Texts with equal bags of words embed to equal rows, and "" to a zero row.
_TIED_TEXTS = ["w0 w1", "w1 w0", "w0 w1 w1", "w2", "w2 w3", ""]


@settings(max_examples=200, deadline=None)
@given(
    db_texts=st.lists(st.sampled_from(_TIED_TEXTS), min_size=1, max_size=14),
    outside=st.lists(st.sampled_from(_TIED_TEXTS), max_size=4),
    data=st.data(),
)
def test_search_orders_tied_scores_as_the_oracles_do(db_texts, outside, data):
    # Copied texts tie at every cutoff, the k-th score included; a zero row
    # scores -inf, and a zero query ranks every row at -inf. Queries come
    # from inside the database, leaving their own row out, and from outside
    # it; k runs past m; and a small chunk bound splits the call's queries.
    rows, ids = _sparse_case(db_texts, outside, dim=16)
    m = len(ids)
    inside = data.draw(st.lists(st.integers(0, m - 1), max_size=6), label="database queries")
    query_rows = inside + list(range(m, m + len(outside)))
    queries = [ids[i] for i in inside] + [f"q{i}" for i in range(len(outside))]
    k = data.draw(st.integers(1, m + 2), label="k")
    bound = data.draw(st.sampled_from([1, 7, 1 << 17]), label="chunk bound")
    indptr, buckets, weights = rows
    dense = np.zeros((len(indptr) - 1, 16))
    dense[np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), buckets] = weights
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(retrieval, "_CHUNK", bound)
        sparse = _search_rows(rows, ids, query_rows, k, queries)
        found = rankings(ids, search(dense, ids, query_rows, k, queries))
    assert _bits(sparse) == _bits(_reference_search_rows(rows, ids, query_rows, k, queries))
    assert found == [
        _oracle_rank((dense[:m], ids), dense[q], k, name) for q, name in zip(query_rows, queries)
    ]


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 8),
    dim=st.integers(1, 4),
    e=st.sampled_from([0, 25]),
    data=st.data(),
)
def test_search_and_search_rows_agree_bit_for_bit(m, dim, e, data):
    # Small integers scaled by 2**-e: every dot product and every norm is
    # exact in any summation order, so the dense scan and the sparse search
    # score each pair alike. At e = 25 a nonzero norm is about 1e-7: each
    # vector's own norm is above ZERO_NORM, and the product of two is below.
    vector = st.just([0] * dim) | st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    db = data.draw(st.lists(vector, min_size=m, max_size=m), label="database")
    outside = data.draw(st.lists(vector, max_size=3), label="outside queries")
    vectors = np.array(db + outside, dtype=np.float64).reshape(-1, dim) * 2.0**-e
    ids = [f"b{i}" for i in range(m)]
    inside = data.draw(st.lists(st.integers(0, m - 1), max_size=4), label="database queries")
    query_rows = inside + list(range(m, len(vectors)))
    queries = [ids[i] for i in inside] + [f"q{i}" for i in range(len(outside))]
    k = data.draw(st.integers(1, m + 2), label="k")
    # The CSR rows drop exact zeros and keep ascending columns.
    who, cols = np.nonzero(vectors)
    rows = (np.searchsorted(who, np.arange(len(vectors) + 1)), cols, vectors[who, cols])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(retrieval, "_CHUNK", data.draw(st.sampled_from([1, 7, 1 << 17]), label="chunk bound"))
        dense = search(vectors, ids, query_rows, k, queries)
        sparse = retrieval.search_rows(rows, ids, query_rows, k, queries)
    for got, want in zip(dense, sparse):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_search_rows_zero_rows_rank_last_by_id():
    rows, ids = _sparse_case(["w1 w2", "", "w1", "", "w3"], ["w1", ""], dim=64)
    got = _search_rows(rows, ids, [5, 6, 0], 5, ["q", "z", "b000"])
    assert _ids(got[0])[:2] == ("b002", "b000") and _ids(got[0])[2:] == ("b004", "b001", "b003")
    assert [s for _, s in got[0][3:]] == [-math.inf, -math.inf]
    # A zero query ranks every row at -inf, by id; its own row never places.
    assert got[1] == tuple((b, -math.inf) for b in ids)
    assert _ids(got[2]) == ("b002", "b004", "b001", "b003")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("k", [1, 20, 500])
def test_search_rows_equals_the_dense_full_sort_oracle(seed, k):
    # The benchmark's oracle: a full sort of dense cosines, exact or rounded
    # to 1e-12, ties by id.
    corpus, clusters, manifest = planted_pipeline(n_clusters=80, corpus_seed=seed)
    reports = sorted(corpus.reports, key=lambda r: r.bug_id)
    database, outside = reports[:150], reports[150:180]
    embedder = fit_train_embedder(corpus, clusters, manifest, dim=1024)
    texts = [r.clean_text for r in database + outside]
    rows = embedder.sparse_rows(*embedder.token_ids(texts))
    ids = [r.bug_id for r in database]
    query_rows = list(range(0, len(texts), 3))
    queries = [(ids + [r.bug_id for r in outside])[i] for i in query_rows]
    got = _search_rows(rows, ids, query_rows, k, queries)
    vectors = embedder.embed_texts(texts)
    db_norms = np.linalg.norm(vectors[: len(ids)], axis=1)
    for q, name, ranked in zip(query_rows, queries, got):
        denom = db_norms * np.linalg.norm(vectors[q])
        scores = np.where(denom > _ZERO_NORM, (vectors[: len(ids)] @ vectors[q]) / denom, -np.inf)
        oracles = [
            tuple(ids[j] for j in np.lexsort((np.arange(len(ids)), -s)) if ids[j] != name)
            for s in (scores, np.round(scores, 12))
        ]
        assert len(ranked) == min(k, len(oracles[0]))
        assert _ids(ranked) in [o[: len(ranked)] for o in oracles], name


def test_search_rows_memory_stays_near_its_chunk_bound_when_k_covers_the_database(monkeypatch):
    # With k >= m every score of a chunk is ranked. A chunk holds at most
    # _CHUNK scores and as many products, each taking a few 8-byte
    # array elements until its chunk is ranked; the arrays of one entry per
    # query token are small beside them. So the transient peak is a small
    # multiple of the bound, for one chunk or for several.
    bound = 1 << 16
    monkeypatch.setattr(retrieval, "_CHUNK", bound)
    corpus, clusters, manifest = planted_pipeline(n_clusters=240, corpus_seed=5)
    embedder = fit_train_embedder(corpus, clusters, manifest, dim=1024)
    reports = sorted(corpus.reports, key=lambda r: r.bug_id)
    rows = embedder.sparse_rows(*embedder.token_ids([r.clean_text for r in reports]))
    m = 200
    ids = [r.bug_id for r in reports[:m]]
    for n in (bound // m, len(reports)):
        names = [r.bug_id for r in reports[:n]]
        peak = _transient_bytes(lambda: retrieval.search_rows(rows, ids, range(n), m + 5, names))
        assert peak <= 8 * 8 * bound, (n, peak / (8 * bound))


def _started_threads(monkeypatch) -> list:
    """The threads started from now on, recorded as they start."""
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


def _two_thread_case():
    """A database of 24 rows, two empty (rows 10 and 23) and two equal
    (rows 0 and 5), and its queries: every database row, each leaving itself
    out, then 8 outside rows."""
    rng = np.random.default_rng(3)
    texts = [" ".join(rng.choice(_WORDS, size=rng.integers(0, 6))) for _ in range(32)]
    texts[5] = texts[0]
    rows, ids = _sparse_case(texts[:24], texts[24:], dim=16)
    return rows, ids, list(range(32)), ids + [f"q{i}" for i in range(8)]


@pytest.mark.parametrize("k", [1, 3, 23, 24, 40])
def test_search_rows_on_two_threads_equals_one_chunk_and_the_reference_bit_for_bit(monkeypatch, k):
    # A bound of 60 products and scores gives each thread chunks of at most
    # 30, so one query of 24 rows a chunk: each thread ranks about 16, and
    # the parts join in query order. k runs from below m to past it, and
    # every database row also queries, the two empty ones as zero queries.
    rows, ids, query_rows, queries = _two_thread_case()
    one_chunk = retrieval.search_rows(rows, ids, query_rows, k, queries)
    started = _started_threads(monkeypatch)
    monkeypatch.setattr(retrieval, "_CHUNK", 60)
    split = retrieval.search_rows(rows, ids, query_rows, k, queries)
    assert len(started) == 1
    for got, want in zip(split, one_chunk):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    want = _reference_search_rows(rows, ids, query_rows, k, queries)
    assert _bits(rankings(ids, split)) == _bits(want)
    # No query at all: an empty ranking, and no thread.
    ptr, found, scores = retrieval.search_rows(rows, ids, [], k, [])
    assert ptr.tolist() == [0] and len(found) == len(scores) == 0
    assert len(started) == 1


def test_a_one_chunk_search_starts_no_thread(monkeypatch):
    rows, ids, query_rows, queries = _two_thread_case()
    started = _started_threads(monkeypatch)
    retrieval.search_rows(rows, ids, query_rows, 5, queries)
    # One query is one chunk, whatever it needs.
    monkeypatch.setattr(retrieval, "_CHUNK", 1)
    retrieval.search_rows(rows, ids, query_rows[:1], 5, queries[:1])
    assert started == []


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_no_thread_outlives_a_search(monkeypatch, failing):
    # A search returns, or raises what either half raised, only once its
    # worker has stopped.
    rows, ids, query_rows, queries = _two_thread_case()
    monkeypatch.setattr(retrieval, "_CHUNK", 60)
    before = threading.enumerate()
    retrieval.search_rows(rows, ids, query_rows, 5, queries)
    assert threading.enumerate() == before
    caller = threading.current_thread()
    top_k = retrieval._top_k

    def injected(*args):
        if (threading.current_thread() is caller) == (failing == "caller"):
            raise RuntimeError(f"injected into the {failing}'s half")
        return top_k(*args)

    monkeypatch.setattr(retrieval, "_top_k", injected)
    with pytest.raises(RuntimeError, match=f"the {failing}'s half"):
        retrieval.search_rows(rows, ids, query_rows, 5, queries)
    assert threading.enumerate() == before


def test_search_rows_edge_inputs():
    rows, ids = _sparse_case(["w1", "w2"], ["w1"], dim=16)
    assert _search_rows(rows, ids, [], 3, []) == []
    with pytest.raises(ValueError, match="k must be"):
        retrieval.search_rows(rows, ids, [2], 0, ["q"])
    with pytest.raises(ValueError, match="empty index"):
        retrieval.search_rows(rows, [], [2], 1, ["q"])
    with pytest.raises(ValueError, match="distinct and ascending"):
        retrieval.search_rows(rows, ["b", "a"], [2], 1, ["q"])
    with pytest.raises(ValueError, match="1 query rows but 2 names"):
        retrieval.search_rows(rows, ids, [2], 1, ["q", "r"])
    with pytest.raises(ValueError, match="too few"):
        retrieval.search_rows(rows, ids + ["c", "d"], [2], 1, ["q"])
    for row in (3, -1, -2):
        with pytest.raises(ValueError, match=rf"query 0 \('q'\) reads row {row}, outside the 3 rows"):
            retrieval.search_rows(rows, ids, [row], 1, ["q"])


def _at_k(ranked, relevant, k_list, db_size=50):
    """Metric rows at each k for one query that retrieved ``ranked``."""
    return aggregate_curves(
        columnar([outcome("q", ranked, (True,) * len(ranked), frozenset(relevant), db_size)]),
        k_list,
    )


def test_recall_at_k_hand_values():
    ranked = ["a", "b", "c", "d"]
    assert [r.macro_recall for r in _at_k(ranked, {"a", "c"}, [1, 3, 4])] == [0.5, 1.0, 1.0]
    assert _at_k(ranked, {"zz"}, [4])[0].macro_recall == 0.0
    assert _at_k(ranked, {"a", "c"}, [100])[0].macro_recall == 1.0  # k past the list end


def test_recall_requires_relevant():
    # a query without relevant items has no recall and is left out of the mean
    assert _at_k(["a"], set(), [1])[0].macro_recall is None
    with_peers = outcome("p", ("a",), (True,), frozenset({"a", "b"}), 50)
    without = outcome("q", ("a",), (True,), frozenset(), 50)
    assert aggregate_curves(columnar([with_peers, without]), [1])[0].macro_recall == 0.5


def test_precision_at_k_divides_by_k():
    ranked = ["a", "b"]
    assert [r.macro_precision for r in _at_k(ranked, {"a"}, [1, 2])] == [1.0, 0.5]
    # list shorter than k still divides by k
    assert _at_k(ranked, {"a", "b"}, [4])[0].macro_precision == 0.5


@settings(max_examples=100, deadline=None)
@given(
    ranked=st.lists(st.integers(0, 30), min_size=1, max_size=25, unique=True),
    relevant=st.sets(st.integers(0, 30), min_size=1, max_size=10),
    k=st.integers(min_value=1, max_value=20),
)
def test_recall_monotone_in_k(ranked, relevant, k):
    ids = [str(x) for x in ranked]
    rel = {str(x) for x in relevant}
    smaller, larger = _at_k(ids, rel, [k, k + 1])
    assert larger.macro_recall >= smaller.macro_recall


def test_works_with_a_search_ranking():
    idx = _database({"a": [1, 0], "b": [0, 1]})
    ranked = _one(idx, [1.0, 0.0], k=2)
    at_1, at_2 = _at_k(_ids(ranked), {"a"}, [1, 2], db_size=len(idx))
    assert at_1.macro_recall == 1.0
    assert at_2.macro_precision == 0.5
