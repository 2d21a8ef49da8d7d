"""Seeded synthetic corpora with planted duplicate clusters.

Every cluster gets a topic (vocabulary shared across many clusters) and
a few signature tokens of its own; members paraphrase each other by
sampling different topic/noise words around the shared signature. That
mix is what makes the corpora useful for evaluation: topic overlap
confuses a pure bag-of-words ranker, while cluster signatures keep the
ground truth learnable. Token shapes are plain lowercase alphanumerics
so text cleaning passes them through untouched.

A cluster draws all its members' words in one ``integers`` call over an
array of bounds, one row per member: the title's topic word, the
description's topic words, then three noise words. The independents draw
theirs in one more call, each row led by the report's topic. numpy draws
every bounded integer below 2**32 from one 32-bit word (Lemire's method)
whatever the call's shape or bounds, so a block reads the same stream as
single draws in the same order, and a corpus does not depend on the
blocking. The blocks stay per cluster because ``poisson`` reads the
stream between them; each is copied into one id matrix as it is drawn.
The texts are then joined from one vocabulary array indexed by the drawn
ids, a few hundred reports at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import counts
from .corpus import BugReport, Corpus, build_corpus
from .seeding import substream_rng

# Reports whose texts are joined from one word matrix: enough that numpy's
# cost per call stays small, few enough that the matrix does too.
_BLOCK = 256


@dataclass(frozen=True)
class SynthConfig:
    n_clusters: int = 50
    mean_size: float = 3.0
    n_independents: int | None = None  # default: half the cluster count
    n_topics: int = 5
    topic_words: int = 8
    signature_words: int = 4
    noise_vocab: int = 200
    description_words: int = 20
    topic_repeat: int = 1
    signature_repeat: int = 2
    seed: int = 7

    def __post_init__(self):
        minimums = {"n_clusters": 1, "n_topics": 1, "topic_words": 1, "signature_words": 1,
                    "noise_vocab": 1, "description_words": 0, "topic_repeat": 0, "signature_repeat": 0,
                    "seed": None}
        if self.n_independents is not None:
            minimums["n_independents"] = 0
        counts(self, minimums)
        if not 2 <= self.mean_size < math.inf:  # clusters need 2+ members
            raise ValueError(f"mean_size must be finite and >= 2, got {self.mean_size}")

    @property
    def independents(self) -> int:
        return self.n_clusters // 2 if self.n_independents is None else self.n_independents


def synth_corpus(config: SynthConfig = SynthConfig()) -> Corpus:
    """Deterministic planted corpus; same config, same bytes."""
    return build_corpus(_reports(config, *_draws(config)))


def _draws(config: SynthConfig) -> tuple[np.ndarray, list[int]]:
    """Every report's words as vocabulary ids, one row per report (see
    ``_reports``), and each cluster's size."""
    rng = substream_rng(config.seed, "synth")
    topics, words, picks = config.n_topics, config.topic_words, 1 + config.description_words
    # One report's draws: its title's topic word, its description's topic
    # words, then its three noise words.
    row = np.array([words] * picks + [config.noise_vocab] * 3)
    # Each block is copied into one id matrix as soon as it is drawn, so only
    # one is alive at a time. The matrix doubles its rows when a cluster
    # does not fit, which its starting size makes rare.
    drawn = np.empty((_room(config), len(row)), dtype=np.int64)
    sizes: list[int] = []
    filled = 0
    for _ in range(config.n_clusters):
        size = 2 + int(rng.poisson(max(config.mean_size - 2.0, 0.0)))
        if filled + size + config.independents > len(drawn):
            grown = np.empty((2 * (filled + size + config.independents), len(row)), dtype=np.int64)
            grown[:filled] = drawn[:filled]
            drawn = grown
        drawn[filled : filled + size] = rng.integers(row, size=(size, len(row)))
        filled += size
        sizes.append(size)
    independents = rng.integers(np.append(topics, row), size=(config.independents, len(row) + 1))
    drawn = drawn[: filled + config.independents]
    drawn[filled:] = independents[:, 1:]

    # Draws are offsets into a report's topic or into the noise words;
    # shift them to vocabulary ids.
    topic_of = np.concatenate([np.repeat(np.arange(config.n_clusters) % topics, sizes), independents[:, 0]])
    drawn[:, :picks] += topic_of[:, None] * words
    drawn[:, picks:] += topics * words
    return drawn, sizes


def _room(config: SynthConfig) -> int:
    """Rows for the expected number of reports, plus four standard
    deviations of the sum of the clusters' Poisson draws."""
    extra = max(config.mean_size - 2.0, 0.0) * config.n_clusters
    return 2 * config.n_clusters + math.ceil(extra + 4.0 * math.sqrt(extra)) + config.independents


def _reports(config: SynthConfig, drawn: np.ndarray, sizes: list[int]) -> list[BugReport]:
    """The reports whose words ``drawn`` holds. Their texts are joined from
    one word matrix per ``_BLOCK`` reports, so the matrices stay small at
    any corpus size."""
    topics, words, picks = config.n_topics, config.topic_words, 1 + config.description_words
    vocabulary = np.array(
        [f"t{t}w{i}" for t in range(topics) for i in range(words)]
        + [f"noise{i}" for i in range(config.noise_vocab)],
        dtype=object,
    )
    # A report's signature words are its owner's prefix and a number: c<c>s
    # for cluster c, i<i>u for independent i. A block makes the words of
    # the owners it holds, once each.
    owners = [f"c{c}s" for c in range(config.n_clusters)] + [f"i{i}u" for i in range(config.independents)]
    owner_of = np.arange(len(owners)).repeat(sizes + [1] * config.independents)
    topic_columns = np.arange(1, picks).repeat(config.topic_repeat)
    titles: list[str] = []
    descriptions: list[str] = []
    for start in range(0, len(drawn), _BLOCK):
        chosen = vocabulary[drawn[start : start + _BLOCK]]
        block_owners = owner_of[start : start + _BLOCK]
        first = int(block_owners[0])
        signatures = np.array(
            [[f"{owners[o]}{j}" for j in range(config.signature_words)]
             for o in range(first, int(block_owners[-1]) + 1)],
            dtype=object,
        )[block_owners - first]
        descriptions += map(" ".join, np.hstack([
            chosen[:, topic_columns],
            signatures.repeat(config.signature_repeat, axis=1),
            chosen[:, picks:],
        ]).tolist())
        titles += map(" ".join, np.column_stack([signatures[:, 0], chosen[:, 0]]).tolist())

    bug_ids = [f"b{serial:06d}" for serial in range(1, len(drawn) + 1)]
    dup_of: list[str | None] = []
    for size in sizes:
        dup_of += [None] + [bug_ids[len(dup_of)]] * (size - 1)
    dup_of += [None] * config.independents
    return list(map(BugReport, bug_ids, titles, descriptions, dup_of))
