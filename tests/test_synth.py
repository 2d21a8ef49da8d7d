"""Synthetic corpora: block draws against the one-call-per-word reference,
the numpy property they rest on, the recorded bytes of the benchmark's and
the README's corpora, and the config checks."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from bugdedup import synth
from bugdedup.corpus import write_jsonl
from bugdedup.synth import SynthConfig, synth_corpus

from helpers import reference_synth_corpus


@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"n_clusters": 40, "mean_size": 4.5, "seed": 3},  # Poisson sizes
        {"n_clusters": 12, "mean_size": 2, "n_independents": 0, "seed": 1},
        # A one-word bound reads no word from the stream.
        {"n_clusters": 12, "topic_words": 1, "noise_vocab": 1, "seed": 5},
        {"n_clusters": 9, "n_topics": 2, "description_words": 0, "topic_repeat": 0,
         "signature_repeat": 0, "seed": 9},
        {"n_clusters": 15, "mean_size": 6.0, "n_independents": 20, "topic_repeat": 3,
         "description_words": 7, "noise_vocab": 3, "seed": 13},
        # One cluster (b000252-b000257) straddles two blocks of ``_BLOCK`` reports.
        {"n_clusters": 120, "mean_size": 3.5, "seed": 2},
        # The benchmark's corpora.
        *({"n_clusters": n, "mean_size": 2.0, "seed": seed} for n in (280, 300, 450, 730) for seed in (1, 7)),
    ],
    ids=str,
)
def test_synth_corpus_equals_the_one_call_per_word_reference(fields):
    config = SynthConfig(**fields)
    assert synth_corpus(config) == reference_synth_corpus(config)


@pytest.mark.parametrize("room", [1, 5, 40])
@pytest.mark.parametrize(
    "fields", [{"n_clusters": 40, "mean_size": 4.5, "seed": 3}, {"n_clusters": 12, "mean_size": 2, "seed": 1}],
    ids=str,
)
def test_the_draws_do_not_depend_on_the_id_matrixs_starting_rows(monkeypatch, fields, room):
    # Too few rows to start with makes the matrix double, once or many times.
    config = SynthConfig(**fields)
    want = synth._draws(config)
    monkeypatch.setattr(synth, "_room", lambda _: room)
    got = synth._draws(config)
    assert got[1] == want[1] and np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
    assert synth_corpus(config) == reference_synth_corpus(config)


@pytest.mark.parametrize("size", [1, 2, 63])
@pytest.mark.parametrize("bound", [1, 8, 200, 2**31, "mixed"])
def test_a_block_of_bounded_draws_reads_the_stream_of_single_draws(bound, size):
    # synth and the splitter's sparse negatives draw in blocks and rely on
    # this to reproduce corpora and manifests made one draw at a time.
    blocked, single = np.random.default_rng(17), np.random.default_rng(17)
    if bound == "mixed":  # synth's shape: one row of bounds per report
        row = [8, 1, 2**31, 2, 200, 1, 3]
        block = blocked.integers(row, size=(size, len(row))).ravel().tolist()
        singles = [int(single.integers(b)) for b in row * size]
    else:
        block = blocked.integers(bound, size=size).tolist()
        singles = [int(single.integers(bound)) for _ in range(size)]
    assert block == singles
    assert blocked.bit_generator.state == single.bit_generator.state


# sha256 of ``write_jsonl``'s bytes, recorded on CPython 3.11 with numpy
# 2.4.6 from synth's earlier form, which drew one report at a time. Keyed
# by (clusters, mean size, seed): the benchmark's corpora and the README
# walkthrough's.
_JSONL_SHA256 = {
    (280, 2.0, 1): "2bc42dd35692dd69842d3bcdea8da8b47ac4e78a9d85df592cbbc767deb49467",
    (280, 2.0, 7): "21554c6c297236e87a38035f65fd0ac257705565611a523cf1f9baadae96e046",
    (300, 2.0, 1): "e6ed8a12dc733cd52c964109715dd2620220f8b51eb9cc0dc8949a2a673867a6",
    (300, 2.0, 7): "c301006597fa5d6871c3dc31948920a6897251457b62387770719ec817f614d8",
    (450, 2.0, 1): "52ee9eb0caf7649079fc84126699d14ee3a05a446491070a79e309a1e338bb3a",
    (450, 2.0, 7): "7531fe85dc316f0f1647699d87584726cc05419aa3cb93fd20ac2e56fb700f64",
    (730, 2.0, 1): "1eedef4ad705b96088671fe6dc4f839db321733a560a94a13dff7879534d6ac0",
    (730, 2.0, 7): "2b447009f67c4165023510e61be46f196cbba209d988dd5c35ae8b7391549115",
    (100, 3.0, 11): "c52479cae333352404c8324883ae85188866c3b0a214e0746dfc5fb5bfc10b9b",
}


@pytest.mark.parametrize("clusters, mean_size, seed", list(_JSONL_SHA256))
def test_synth_writes_the_recorded_bytes(tmp_path, clusters, mean_size, seed):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(synth_corpus(SynthConfig(n_clusters=clusters, mean_size=mean_size, seed=seed)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _JSONL_SHA256[clusters, mean_size, seed]


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_clusters", 0),
        ("n_independents", -2),
        ("n_topics", 0),
        ("topic_words", 0),
        ("signature_words", 0),
        ("noise_vocab", 0),
        ("description_words", -1),
        ("topic_repeat", -1),
        ("signature_repeat", -1),
        # A count must be an int: a float is no count, nor is a bool, which
        # would otherwise pass as 0 or 1.
        ("n_clusters", 2.5),
        ("n_clusters", 4.0),
        ("n_independents", 1.5),
        ("n_topics", True),
        ("noise_vocab", "200"),
        ("description_words", np.int64(3)),
        ("signature_repeat", False),
        ("mean_size", 1.5),
        ("mean_size", float("nan")),
        ("mean_size", float("inf")),
    ],
)
def test_synth_config_names_a_count_its_draws_cannot_honour(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SynthConfig(**{field: value})
