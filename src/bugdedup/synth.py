"""Seeded synthetic corpora with planted duplicate clusters.

Every cluster gets a topic (vocabulary shared across many clusters) and
a few signature tokens of its own; members paraphrase each other by
sampling different topic/noise words around the shared signature. That
mix is what makes the corpora useful for evaluation: topic overlap
confuses a pure bag-of-words ranker, while cluster signatures keep the
ground truth learnable. Token shapes are plain lowercase alphanumerics
so text cleaning passes them through untouched.

Each report draws its title topic word and its description's topic words
in one ``integers`` call, then its noise words in one more. numpy draws
every bounded integer below 2**32 from one 32-bit word (Lemire's method)
whatever the call's ``size``, so a block reads the same stream as single
draws in the same order, and a corpus does not depend on the blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import BugReport, Corpus, build_corpus
from .seeding import substream_rng


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
        minimums = {"n_clusters": 1, "n_independents": 0, "n_topics": 1, "topic_words": 1,
                    "signature_words": 1, "noise_vocab": 1, "description_words": 0,
                    "topic_repeat": 0, "signature_repeat": 0}
        for name, low in minimums.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not 2 <= self.mean_size < math.inf:  # clusters need 2+ members
            raise ValueError(f"mean_size must be finite and >= 2, got {self.mean_size}")

    @property
    def independents(self) -> int:
        return self.n_clusters // 2 if self.n_independents is None else self.n_independents


def synth_corpus(config: SynthConfig = SynthConfig()) -> Corpus:
    """Deterministic planted corpus; same config, same bytes."""
    rng = substream_rng(config.seed, "synth")
    topic_pools = [
        [f"t{t}w{i}" for i in range(config.topic_words)] for t in range(config.n_topics)
    ]
    noise_pool = [f"noise{i}" for i in range(config.noise_vocab)]

    reports: list[BugReport] = []
    serial = 0

    def next_id() -> str:
        nonlocal serial
        serial += 1
        return f"b{serial:06d}"

    for c in range(config.n_clusters):
        topic = topic_pools[c % config.n_topics]
        signature = [f"c{c}s{j}" for j in range(config.signature_words)]
        size = 2 + int(rng.poisson(max(config.mean_size - 2.0, 0.0)))
        anchor_id: str | None = None
        for _ in range(size):
            bug_id = next_id()
            title, description = _texts(rng, config, topic, signature, noise_pool)
            reports.append(BugReport(bug_id, title, description, dup_of=anchor_id))
            if anchor_id is None:
                anchor_id = bug_id

    for i in range(config.independents):
        topic = topic_pools[int(rng.integers(config.n_topics))]
        own = [f"i{i}u{j}" for j in range(config.signature_words)]
        title, description = _texts(rng, config, topic, own, noise_pool)
        reports.append(BugReport(next_id(), title, description, dup_of=None))

    return build_corpus(reports)


def _texts(rng, config: SynthConfig, topic, signature, noise_pool) -> tuple[str, str]:
    """A report's title and description: the title's topic word is the first
    of one block of topic draws, the description's noise words a second block."""
    picks = rng.integers(len(topic), size=1 + config.description_words).tolist()
    words = [topic[t] for t in picks[1:] for _ in range(config.topic_repeat)]
    for sig in signature:
        words.extend([sig] * config.signature_repeat)
    words.extend(noise_pool[w] for w in rng.integers(len(noise_pool), size=3).tolist())
    return f"{signature[0]} {topic[picks[0]]}", " ".join(words)
