"""Synthetic corpora: block draws against the one-call-per-word reference,
the numpy property they rest on, and the config checks."""

from __future__ import annotations

import numpy as np
import pytest

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
    ],
    ids=str,
)
def test_synth_corpus_equals_the_one_call_per_word_reference(fields):
    config = SynthConfig(**fields)
    assert synth_corpus(config) == reference_synth_corpus(config)


@pytest.mark.parametrize("size", [1, 2, 63])
@pytest.mark.parametrize("bound", [1, 8, 200, 2**31])
def test_a_block_of_bounded_draws_reads_the_stream_of_single_draws(bound, size):
    # synth and the splitter's sparse negatives draw in blocks and rely on
    # this to reproduce corpora and manifests made one draw at a time.
    blocked, single = np.random.default_rng(17), np.random.default_rng(17)
    block = blocked.integers(bound, size=size).tolist()
    assert block == [int(single.integers(bound)) for _ in range(size)]
    assert blocked.bit_generator.state == single.bit_generator.state


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
        ("mean_size", 1.5),
        ("mean_size", float("nan")),
        ("mean_size", float("inf")),
    ],
)
def test_synth_config_names_a_count_its_draws_cannot_honour(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SynthConfig(**{field: value})
