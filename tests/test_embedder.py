"""Hashed TF-IDF embedding, cosine between embeddings, triplet loss, projection training."""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bugdedup.embedder import (
    DEFAULT_MARGIN,
    ProjectedEmbedder,
    ProjectionModel,
    TfidfHashEmbedder,
    TrainConfig,
    fnv1a64,
    initial_weights,
    l2_normalize_rows,
    projection_from_json,
    projection_to_json,
    row_norms,
    train_projection,
    _pass_losses,
)
from bugdedup.artifacts import ArtifactError, load, save
from bugdedup.retrieval import search
from bugdedup.synth import SynthConfig, synth_corpus

from helpers import reference_tfidf_embed, reference_tfidf_sparse, reference_train_projection

_FINITE = {"allow_nan": False, "allow_infinity": False, "min_value": -1e6, "max_value": 1e6}


def test_fnv1a64_reference_vectors():
    # published FNV-1a 64-bit values
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_fnv1a64_stays_in_64_bits():
    for token in ("x" * 100, "longtoken123", "éé"):
        assert 0 <= fnv1a64(token) < 2**64


def _oracle_embed(embedder: TfidfHashEmbedder, text: str) -> np.ndarray:
    vec = np.zeros(embedder.dim)
    tokens = text.split()
    for token in set(tokens):
        tf = tokens.count(token)
        idf = math.log((1 + embedder.doc_count) / (1 + embedder.df.get(token, 0))) + 1.0
        vec[fnv1a64(token) % embedder.dim] += tf * idf
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def test_tfidf_matches_direct_recomputation():
    train = ["alpha beta beta", "alpha gamma", "delta delta epsilon"]
    embedder = TfidfHashEmbedder.fit(train, dim=64)
    queries = train + ["beta zeta zeta unseen", ""]
    got = embedder.embed_texts(queries)
    for i, text in enumerate(queries):
        np.testing.assert_allclose(got[i], _oracle_embed(embedder, text), atol=1e-12)


def test_tfidf_df_counts_documents_not_occurrences():
    embedder = TfidfHashEmbedder.fit(["a a a", "a b"], dim=8)
    assert embedder.df["a"] == 2
    assert embedder.df["b"] == 1
    assert embedder.doc_count == 2


def test_idf_smoothing_keeps_unseen_tokens_positive():
    embedder = TfidfHashEmbedder.fit(["a", "a", "a"], dim=8)
    assert embedder.idf("never_seen") > 1.0
    assert embedder.idf("a") == pytest.approx(math.log(4 / 4) + 1.0)


def test_embed_rows_unit_norm_or_zero():
    embedder = TfidfHashEmbedder.fit(["a b", "c"], dim=16)
    rows = embedder.embed_texts(["a b c", "", "zzz"])
    norms = np.linalg.norm(rows, axis=1)
    assert norms[0] == pytest.approx(1.0)
    assert norms[1] == 0.0
    assert norms[2] == pytest.approx(1.0)


def test_tfidf_fit_rejects_bad_dim():
    with pytest.raises(ValueError):
        TfidfHashEmbedder.fit(["a"], dim=0)


def test_tfidf_json_roundtrip():
    embedder = TfidfHashEmbedder.fit(["a b", "b c"], dim=32)
    embedder.embed_texts(["a b c unseen"])  # fills the token memo
    payload = embedder.to_json()
    assert set(payload) == {"dim", "doc_count", "df"}
    again = TfidfHashEmbedder.from_json(payload)
    assert again == embedder
    assert again.dim == embedder.dim
    assert dict(again.df) == dict(embedder.df)
    np.testing.assert_array_equal(
        again.embed_texts(["a b c"]), embedder.embed_texts(["a b c"])
    )


_VOCABULARY = {"dim": 8, "doc_count": 2, "df": {"a": 1, "b": 2}}


@pytest.mark.parametrize(
    "change, says",
    [
        ({"dim": 0}, "malformed 'dim' (ValueError: 0 is below 1)"),
        ({"dim": "8"}, "malformed 'dim' (TypeError: '8' is not an integer)"),
        ({"dim": True}, "malformed 'dim' (TypeError: True is not an integer)"),
        ({"doc_count": -1}, "malformed 'doc_count' (ValueError: -1 is below 0)"),
        ({"doc_count": 2.0}, "malformed 'doc_count' (TypeError: 2.0 is not an integer)"),
        ({"df": {"a": -5}}, "malformed 'df' (ValueError: the count of 'a', -5, is not an int in [1, 2])"),
        ({"df": {"a": 0}}, "the count of 'a', 0, is not an int in [1, 2]"),
        ({"df": {"a": 3}}, "the count of 'a', 3, is not an int in [1, 2]"),
        ({"df": {"a": True}}, "the count of 'a', True, is not an int in [1, 2]"),
        ({"df": {1: 1}}, "the count of 1, 1, is not an int in [1, 2]"),
        ({"df": [["a", 1]]}, "malformed 'df' (TypeError: list is not an object)"),
        ({"df": None}, "malformed 'df' (TypeError: NoneType is not an object)"),
        ({"dim": None}, "malformed 'dim'"),
    ],
)
def test_tfidf_from_json_names_a_malformed_key(change, says):
    # Each of these loaded once and failed only later, if at all: a dim of 0
    # at the first embed, a string dim or a negative count in the IDF.
    with pytest.raises(ArtifactError) as caught:
        TfidfHashEmbedder.from_json({**_VOCABULARY, **change})
    assert says in str(caught.value)


@pytest.mark.parametrize("key", ["dim", "doc_count", "df"])
def test_tfidf_from_json_names_a_missing_key(key):
    payload = dict(_VOCABULARY)
    del payload[key]
    with pytest.raises(ArtifactError, match=f"lacks '{key}'"):
        TfidfHashEmbedder.from_json(payload)


def test_tfidf_from_json_copies_its_df():
    payload = json.loads(json.dumps(_VOCABULARY))
    embedder = TfidfHashEmbedder.from_json(payload)
    payload["df"]["c"] = 1
    assert dict(embedder.df) == _VOCABULARY["df"]
    assert TfidfHashEmbedder.from_json({**_VOCABULARY, "df": {}}).df == {}


def _unmemoised_embed(embedder: TfidfHashEmbedder, texts: list[str]) -> np.ndarray:
    """The hashing loop without a memo: hash and IDF per token and text."""
    out = np.zeros((len(texts), embedder.dim))
    for i, text in enumerate(texts):
        tf: dict[str, int] = {}
        for token in text.split():
            tf[token] = tf.get(token, 0) + 1
        for token, count in tf.items():
            out[i, fnv1a64(token) % embedder.dim] += count * embedder.idf(token)
    return l2_normalize_rows(out)


def test_tfidf_memo_does_not_change_bits():
    words = [f"w{i}" for i in range(40)]
    # Document frequencies 0-3 and term counts 1-4, so tokens that share
    # a bucket carry different weights and their sum depends on its order.
    train = [" ".join(words[:n]) for n in (10, 20, 30)]
    texts = [
        "beta alpha beta unseen",
        "",
        " ".join(w for i, w in enumerate(words) for _ in range(1 + i % 4)),
        " ".join(reversed(words[5:])) + " unseen other",
    ]

    def fit():
        return TfidfHashEmbedder.fit(train, dim=4)  # several tokens share each bucket

    def warmed():
        embedder = fit()
        embedder.embed_texts(list(reversed(texts)) + ["more unseen tokens alpha"])
        return embedder

    want = _unmemoised_embed(fit(), texts).tobytes()
    for fresh_first in (True, False):
        fresh, warm = fit(), warmed()
        first, second = (fresh, warm) if fresh_first else (warm, fresh)
        assert first.embed_texts(texts).tobytes() == want
        assert second.embed_texts(texts).tobytes() == want
        assert fresh == warm


_BATCH_WORDS = [f"w{i}" for i in range(12)] + ["unseen", "other"]
# At dim 4 tokens with different weights share buckets; 1024 is the default.
_BATCH_EMBEDDERS = {
    dim: TfidfHashEmbedder.fit([" ".join(_BATCH_WORDS[:n]) for n in (3, 6, 9)], dim=dim)
    for dim in (4, 1024)
}


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(_BATCH_EMBEDDERS)),
    st.lists(
        st.lists(st.sampled_from(_BATCH_WORDS), max_size=15).map(" ".join),
        min_size=1,
        max_size=8,
    ),
)
def test_tfidf_row_does_not_depend_on_its_batch(dim, texts):
    embedder = _BATCH_EMBEDDERS[dim]
    batch = embedder.embed_texts(texts)
    for i, text in enumerate(texts):
        assert embedder.embed_texts([text])[0].tobytes() == batch[i].tobytes()


_FIT_WORDS = [f"w{i}" for i in range(12)]
# Document frequencies 0-3 of 4, so no IDF is a whole number and a sum's
# rounding depends on its order; the last three tokens are never seen.
_FIT_TEXTS = [" ".join(_FIT_WORDS[:n]) for n in (0, 3, 6, 9)]
_token_text = st.lists(
    st.tuples(
        st.sampled_from(_FIT_WORDS + ["unseen", "other", "new"]),
        st.sampled_from([" ", "  ", "\t", "\n "]),
    ),
    max_size=20,
).map(lambda parts: "".join(token + gap for token, gap in parts))
_text = st.one_of(st.sampled_from(["", " ", "\t \n"]), _token_text)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.sampled_from([4, 1024]),
    others=st.lists(_text, max_size=4),
    texts=st.lists(_text, max_size=8),
    repeats=st.integers(min_value=0, max_value=3),
)
def test_tfidf_embed_equals_the_reference_loop_bit_for_bit(dim, others, texts, repeats):
    # At dim 4 tokens with different weights share buckets, so a bucket's
    # bits depend on the order of its sum. The warmed embedder first sees
    # other texts, and the batch's tokens backwards, so it numbers tokens in
    # another order than they occur in the batch, which repeats texts.
    batch = texts + texts[:repeats]
    want = reference_tfidf_embed(TfidfHashEmbedder.fit(_FIT_TEXTS, dim=dim), batch).tobytes()
    backwards = [" ".join(reversed(text.split())) for text in texts]
    for warm in ([], others + backwards):
        embedder = TfidfHashEmbedder.fit(_FIT_TEXTS, dim=dim)
        embedder.embed_texts(warm)
        got = embedder.embed_texts(batch)
        assert got.shape == (len(batch), dim)
        assert got.tobytes() == want


@settings(max_examples=200, deadline=None)
@given(
    dim=st.sampled_from([4, 1024]),
    others=st.lists(_text, max_size=4),
    texts=st.lists(_text, max_size=8),
)
def test_tfidf_sparse_rows_equal_the_reference_loop_bit_for_bit(dim, others, texts):
    # At dim 4 most rows merge tokens into shared buckets; ``others`` and
    # the single-text calls show that a row does not depend on its batch.
    want = reference_tfidf_sparse(TfidfHashEmbedder.fit(_FIT_TEXTS, dim=dim), texts)
    embedder = TfidfHashEmbedder.fit(_FIT_TEXTS, dim=dim)
    embedder.sparse_rows(*embedder.token_ids(others))
    indptr, buckets, weights = embedder.sparse_rows(*embedder.token_ids(texts))
    assert indptr.shape == (len(texts) + 1,) and indptr[0] == 0
    got = [
        (buckets[s:e].tolist(), weights[s:e].tolist()) for s, e in zip(indptr[:-1], indptr[1:])
    ]
    assert got == want
    for text, row in zip(texts, want):
        _, b, w = embedder.sparse_rows(*embedder.token_ids([text]))
        assert (b.tolist(), w.tolist()) == row


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
def test_tfidf_embed_normalises_in_blocks_with_the_bits_of_the_whole_array(n):
    # Batch sizes around the normalisation's block of rows; every fifth text
    # holds no token, so its row is all zero.
    rng = np.random.default_rng(n)
    words = _FIT_WORDS + ["unseen", "other"]
    texts = [" ".join(rng.choice(words, size=rng.integers(1, 9))) for _ in range(n)]
    for i in range(0, n, 5):
        texts[i] = " \t" if i % 10 else ""
    embedder = TfidfHashEmbedder.fit(_FIT_TEXTS, dim=8)
    got = embedder.embed_texts(texts)
    assert got.shape == (n, 8) and not got[::5].any()
    assert got.tobytes() == reference_tfidf_embed(embedder, texts).tobytes()
    matrix = rng.normal(size=(n, 300))
    assert row_norms(matrix).tobytes() == np.linalg.norm(matrix, axis=1).tobytes()


def test_tfidf_embed_equals_the_reference_loop_on_a_synth_corpus():
    reports = synth_corpus(SynthConfig(n_clusters=120, seed=5)).reports
    for dim in (4, 1024):
        embedder = TfidfHashEmbedder.fit([r.clean_text for r in reports[::2]], dim=dim)
        for field in ("clean_text", "clean_title", "clean_description"):
            texts = [getattr(r, field) for r in reports]
            want = reference_tfidf_embed(embedder, texts).tobytes()
            assert embedder.embed_texts(texts).tobytes() == want, (dim, field)


def test_tfidf_embedder_shared_by_two_threads_keeps_its_bits():
    words = [f"w{i}" for i in range(40)]
    train = [" ".join(words[:n]) for n in (10, 20, 30)]
    # Every round of each thread brings tokens unseen by the fit and by the
    # other thread, so both grow the vocabulary at the same time.
    rounds = [
        [
            [f"{words[i % 40]} t{t}r{r}x{i} {words[3 * i % 40]} t{t}r{r}x{i} t{t}y{i % 7}"
             for i in range(30)]
            for r in range(20)
        ]
        for t in range(2)
    ]
    reference = TfidfHashEmbedder.fit(train, dim=8)
    want = [[reference_tfidf_embed(reference, texts) for texts in thread] for thread in rounds]
    shared = TfidfHashEmbedder.fit(train, dim=8)
    start = threading.Barrier(2, timeout=30)
    mismatches: list[tuple[int, int, int]] = []
    finished: list[int] = []

    def worker(t):
        start.wait()
        for r, texts in enumerate(rounds[t]):
            if shared.embed_texts(texts).tobytes() != want[t][r].tobytes():
                mismatches.append((t, r, -1))
            for i, text in enumerate(texts):
                if shared.embed_texts([text])[0].tobytes() != want[t][r][i].tobytes():
                    mismatches.append((t, r, i))
        finished.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == [0, 1]
    assert mismatches == []
    fresh = TfidfHashEmbedder.fit(train, dim=8)
    assert shared == fresh
    assert shared.to_json() == fresh.to_json()


def _retrieval_cosine(u, v) -> float:
    """Cosine of two vectors as retrieval scores it: ``u`` queries ``v`` as a one-row database."""
    vectors = np.concatenate([np.array([v], dtype=np.float64), np.array([u], dtype=np.float64)])
    _, _, scores = search(vectors, ["v"], [1], 1, ["u"])
    return float(scores[0])


def test_cosine_known_values():
    assert _retrieval_cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert _retrieval_cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert _retrieval_cosine([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0)


def test_cosine_rejects_dim_mismatch():
    # Vectors of two lengths do not make one matrix of embedded rows.
    with pytest.raises(ValueError, match="must match exactly"):
        _retrieval_cosine([1.0, 0.0], [1.0, 0.0, 0.0])


_vec = arrays(np.float64, 4, elements=st.floats(**_FINITE))


@settings(max_examples=100, deadline=None)
@given(u=_vec, v=_vec)
def test_cosine_bounds_and_symmetry(u, v):
    if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
        return
    c = _retrieval_cosine(u, v)
    assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9
    assert _retrieval_cosine(v, u) == pytest.approx(c, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(u=_vec, v=_vec, scale=st.floats(min_value=0.01, max_value=100))
def test_cosine_scale_invariance(u, v, scale):
    if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
        return
    assert _retrieval_cosine(u, scale * v) == pytest.approx(_retrieval_cosine(u, v), abs=1e-9)


def _triplet_loss(a, p, n, margin):
    """The trainer's triplet loss of one triplet under the identity projection."""
    rows = [np.atleast_2d(np.asarray(v, dtype=np.float64)) for v in (a, p, n)]
    return float(_pass_losses(np.eye(rows[0].shape[1]), *rows, margin)[0])


def test_triplet_loss_hand_value():
    a = [1.0, 0.0]
    p = [0.0, 1.0]  # d_ap = sqrt(2)
    n = [1.0, 0.0]  # d_an = 0
    assert _triplet_loss(a, p, n, margin=0.2) == pytest.approx(math.sqrt(2) + 0.2)


def test_triplet_loss_zero_when_margin_satisfied():
    a = [1.0, 0.0]
    p = [1.0, 0.0]
    n = [-1.0, 0.0]
    assert _triplet_loss(a, p, n, margin=0.2) == 0.0


@settings(max_examples=100, deadline=None)
@given(a=_vec, p=_vec, n=_vec, margin=st.floats(min_value=0.0, max_value=2.0))
def test_triplet_loss_nonnegative(a, p, n, margin):
    assert _triplet_loss(a, p, n, margin) >= 0.0


def test_l2_normalize_rows_leaves_zero_rows():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = l2_normalize_rows(m)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_array_equal(out[1], [0.0, 0.0])


def test_initial_weights_bounds_and_determinism():
    w1 = initial_weights(20, 10, seed=5)
    w2 = initial_weights(20, 10, seed=5)
    w3 = initial_weights(20, 10, seed=6)
    bound = math.sqrt(6.0 / 30)
    assert np.abs(w1).max() <= bound
    np.testing.assert_array_equal(w1, w2)
    assert not np.array_equal(w1, w3)


def _tiny_training_setup():
    texts = [
        "alpha beta crash",
        "alpha beta failure",
        "gamma delta timeout",
        "gamma delta hang",
        "epsilon zeta leak",
        "epsilon zeta overflow",
    ]
    embedder = TfidfHashEmbedder.fit(texts, dim=32)
    triplets = [
        (texts[0], texts[1], texts[2]),
        (texts[2], texts[3], texts[4]),
        (texts[4], texts[5], texts[0]),
        (texts[1], texts[0], texts[3]),
    ]
    return embedder, triplets


def test_train_projection_curve_shape():
    embedder, triplets = _tiny_training_setup()
    cfg = TrainConfig(epochs=5, dim_out=8, seed=1, batch_size=2)
    model = train_projection(triplets, embedder, cfg)
    assert len(model.loss_curve) == 6
    assert model.weights.shape == (32, 8)
    assert model.dim_in == 32 and model.dim_out == 8


def test_train_projection_zero_epochs_returns_init():
    embedder, triplets = _tiny_training_setup()
    cfg = TrainConfig(epochs=0, dim_out=8, seed=1)
    model = train_projection(triplets, embedder, cfg)
    np.testing.assert_array_equal(model.weights, initial_weights(32, 8, seed=1))
    assert len(model.loss_curve) == 1


def test_train_projection_deterministic():
    embedder, triplets = _tiny_training_setup()
    cfg = TrainConfig(epochs=3, dim_out=8, seed=2)
    m1 = train_projection(triplets, embedder, cfg)
    m2 = train_projection(triplets, embedder, cfg)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    assert m1.loss_curve == m2.loss_curve


def test_train_projection_requires_triplets():
    embedder, _ = _tiny_training_setup()
    with pytest.raises(ValueError, match="at least one triplet"):
        train_projection([], embedder)


def test_projected_embedder_composes():
    embedder, triplets = _tiny_training_setup()
    model = train_projection(triplets, embedder, TrainConfig(epochs=1, dim_out=8))
    proj = ProjectedEmbedder(base=embedder, model=model)
    texts = ["alpha beta crash", "gamma delta"]
    direct = model.project(embedder.embed_texts(texts))
    np.testing.assert_array_equal(proj.embed_texts(texts), direct)
    assert proj.dim == 8
    norms = np.linalg.norm(proj.embed_texts(texts), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_projection_save_load_roundtrip(tmp_path):
    embedder, triplets = _tiny_training_setup()
    model = train_projection(triplets, embedder, TrainConfig(epochs=2, dim_out=8, seed=3))
    path = tmp_path / "projection.json"
    save(path, projection_to_json(model) | {"note": "test"})
    again = load(path, projection_from_json, "projection file")
    np.testing.assert_array_equal(again.weights, model.weights)
    assert again.loss_curve == model.loss_curve
    assert again.train_config == model.train_config
    assert again.margin == model.margin


def test_projection_load_rejects_corruption(tmp_path):
    embedder, triplets = _tiny_training_setup()
    model = train_projection(triplets, embedder, TrainConfig(epochs=1, dim_out=8))
    path = tmp_path / "projection.json"
    payload = projection_to_json(model)
    payload["weights_sha256"] = "0" * 64
    path.write_text(json.dumps(payload))
    with pytest.raises(ArtifactError, match="checksum") as caught:
        load(path, projection_from_json, "projection file")
    assert str(path) in str(caught.value)


def test_train_config_json_roundtrip(tmp_path):
    cfg = TrainConfig(learning_rate=0.5, epochs=7, batch_size=4, seed=9, dim_out=16, margin=0.3)
    path = tmp_path / "projection.json"
    save(path, projection_to_json(ProjectionModel(weights=np.ones((3, 16)), margin=0.3, train_config=cfg)))
    payload = json.loads(path.read_text())
    assert set(payload["train_config"]) == {f.name for f in fields(TrainConfig)}
    assert load(path, projection_from_json, "projection file").train_config == cfg


@pytest.mark.parametrize(
    "train_config, says",
    [
        ({"epochs": 3, "bogus": 1}, "unexpected keyword argument 'bogus'"),
        ("epochs=3", "must be a mapping"),
        ({"dim_out": 0}, "dim_out must be an int >= 1"),
        # A count or a seed is a JSON integer: neither 2.5 nor true passes.
        ({"epochs": 2.5}, "epochs must be an int >= 0, got 2.5"),
        ({"batch_size": True}, "batch_size must be an int >= 1, got True"),
        ({"seed": False}, "seed must be an int, got False"),
        ({"seed": "3"}, "seed must be an int, got '3'"),
    ],
)
def test_load_projection_names_a_malformed_train_config(tmp_path, train_config, says):
    path = tmp_path / "projection.json"
    payload = projection_to_json(ProjectionModel(weights=np.ones((3, 4)), margin=0.2, train_config=TrainConfig()))
    path.write_text(json.dumps({**payload, "train_config": train_config}))
    with pytest.raises(ArtifactError, match=says) as caught:
        load(path, projection_from_json, "projection file")
    assert str(path) in str(caught.value)


def test_loss_curve_not_worse_on_planted_triplets():
    # margins start violated when positives and negatives share topic words
    texts = [
        "shared topic words crash alpha",
        "shared topic words crash beta",
        "shared topic words hang gamma",
        "shared topic words hang delta",
    ]
    embedder = TfidfHashEmbedder.fit(texts, dim=32)
    triplets = [
        (texts[0], texts[1], texts[2]),
        (texts[1], texts[0], texts[3]),
        (texts[2], texts[3], texts[0]),
        (texts[3], texts[2], texts[1]),
    ]
    model = train_projection(triplets, embedder, TrainConfig(epochs=20, dim_out=8, seed=0))
    assert model.loss_curve[0] > 0.0
    assert model.loss_curve[-1] < model.loss_curve[0]


def _triplets_with_a_tail_of_one():
    """22 triplets, so batches of 7 leave a tail of 1. One negative is the
    empty text, whose base row is zero, and one triplet's anchor and
    positive are the same text."""
    texts = [f"alpha{i % 5} beta{i % 3} crash{i} heap{i % 4}" for i in range(12)]
    embedder = TfidfHashEmbedder.fit(texts, dim=48)
    triplets = [(texts[i % 12], texts[(i + 5) % 12], texts[(i + 3) % 12]) for i in range(20)]
    triplets += [(texts[0], texts[1], ""), (texts[2], texts[2], texts[7])]
    return embedder, triplets


@pytest.mark.parametrize("epochs", [0, 1, 3])
@pytest.mark.parametrize("batch_size", [1, 7, 22])
def test_train_projection_equals_the_reference_loop_bit_for_bit(batch_size, epochs):
    embedder, triplets = _triplets_with_a_tail_of_one()
    for margin, dim_out, seed in itertools.product((0.2, 1.5), (4, 16), (0, 9)):
        cfg = TrainConfig(
            learning_rate=0.3, epochs=epochs, batch_size=batch_size, seed=seed,
            dim_out=dim_out, margin=margin,
        )
        model = train_projection(triplets, embedder, cfg)
        weights, curve = reference_train_projection(triplets, embedder, cfg)
        assert model.weights.tobytes() == weights.tobytes(), cfg
        assert list(model.loss_curve) == curve, cfg
