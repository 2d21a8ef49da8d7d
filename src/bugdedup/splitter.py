"""Leakage-free train/dev/test splitting and pair/triplet generation.

Whole clusters (never individual bugs) are assigned to splits, so no bug
can appear on both sides of a train/test boundary, directly or through a
pair. Pair labels come from cluster co-membership: within a cluster every
unordered member pair is a duplicate pair; negatives are sampled across
distinct clusters (independents included) of the same split.

Train pairs are balanced 1:1. Dev and test are deliberately skewed: the
negative count is chosen so duplicates make up ``target_dup_ratio`` of
the split's pairs, mirroring how rare duplicates are in live triage.

Sparse negative sampling draws its candidate pairs in blocks, and triplet
negatives are drawn in one call over an array of bounds. numpy draws every
bounded integer below 2**32 from one 32-bit word whatever the call's
``size`` or bounds, so a block reads the same stream as one call per
candidate; the block's unread tail is never used, because each split's
negatives have a substream of their own.

A manifest file stores the split only: ``manifest_from_json`` derives the
pairs and triplets again, so none read from disk can cross a split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from . import artifacts
from .dup_graph import Cluster, ClusterSet
from .seeding import substream_rng

SPLITS = ("train", "dev", "test")

DEFAULT_RATIOS = (0.8, 0.1, 0.1)
DEFAULT_TARGET_DUP_RATIO = 0.1564  # skew of the dev/test pair mix

_MASS_EPS_FACTOR = 1e-9


class SplitError(ValueError):
    """Raised when a split cannot be constructed as requested."""


@dataclass(frozen=True)
class LabeledPair:
    bug_a: str
    bug_b: str
    duplicate: bool


@dataclass(frozen=True)
class TripletExample:
    anchor: str
    positive: str
    negative: str


@dataclass
class SplitManifest:
    """One split: its assignment, and the pairs and triplets drawn from it.

    Built in stages: ``split_clusters`` fills the assignment, then
    ``generate_pairs`` / ``generate_triplets`` fill the rest. All stages are
    deterministic in (inputs, seed), so a manifest file stores the
    assignment and its reader derives the pairs and triplets again.
    """

    seed: int
    ratios: tuple[float, float, float]
    target_dup_ratio: float
    caps: dict[str, int | None]
    cluster_assignment: dict[int, str]
    independent_assignment: dict[str, str]
    pairs: dict[str, list[LabeledPair]] = field(default_factory=dict)
    triplets: list[TripletExample] = field(default_factory=list)

    def clusters_in(self, cluster_set: ClusterSet, split: str) -> list[Cluster]:
        return [c for c in cluster_set.clusters if self.cluster_assignment[c.cluster_id] == split]

    def bugs_in(self, cluster_set: ClusterSet, split: str) -> list[str]:
        """All bug ids of a split (cluster members plus independents), sorted."""
        bugs = [m for c in self.clusters_in(cluster_set, split) for m in c.members]
        bugs.extend(b for b, s in self.independent_assignment.items() if s == split)
        return sorted(bugs)


def _validate_ratios(ratios: tuple[float, float, float]) -> tuple[float, float, float]:
    if len(ratios) != 3 or not all(r > 0 for r in ratios):  # NaN is no fraction
        raise SplitError(f"ratios must be three positive fractions, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SplitError(f"ratios must sum to 1, got {sum(ratios)}")
    return ratios


def _validate_caps(caps: dict[str, int | None]) -> dict[str, int | None]:
    for split, cap in caps.items():
        if split not in SPLITS:
            raise SplitError(f"caps: split must be one of {SPLITS}, got {split!r}")
        if cap is not None and cap < 0:
            raise SplitError(f"caps: {split} must be >= 0, got {cap}")
    return caps


def _validate_dup_ratio(target_dup_ratio: float) -> float:
    if not 0 < target_dup_ratio <= 1:
        raise SplitError(f"target_dup_ratio must lie in (0, 1], got {target_dup_ratio}")
    return target_dup_ratio


def split_clusters(
    cluster_set: ClusterSet,
    ratios: tuple[float, float, float] = DEFAULT_RATIOS,
    seed: int = 0,
    target_dup_ratio: float = DEFAULT_TARGET_DUP_RATIO,
    caps: dict[str, int | None] | None = None,
) -> SplitManifest:
    """Assign whole clusters (and independents) to train/dev/test.

    Clusters are shuffled by the seeded RNG, then assigned greedily so
    each split's share of duplicate-bug mass (sum of its cluster sizes)
    approximates the requested ratios. Large clusters therefore cannot
    silently concentrate in one split. Independents are shuffled and cut
    by the same ratios. If the greedy pass leaves a split without any
    cluster, the emptiest split is topped up from the fullest one, so
    with at least 3 clusters every split holds at least one.
    """
    _validate_ratios(ratios)
    _validate_caps(caps or {})
    _validate_dup_ratio(target_dup_ratio)
    if type(seed) is not int:  # a bool or a float would name another substream
        raise SplitError(f"seed must be an int, got {seed!r}")
    clusters = cluster_set.clusters
    if len(clusters) < 3:
        raise SplitError(f"need at least 3 clusters to populate all splits, got {len(clusters)}")

    rng = substream_rng(seed, "split")
    order = rng.permutation(len(clusters))

    total_mass = sum(c.size for c in clusters)
    quotas = [r * total_mass for r in ratios]
    eps = _MASS_EPS_FACTOR * total_mass
    filled = [0.0, 0.0, 0.0]
    per_split: dict[str, list[int]] = {s: [] for s in SPLITS}
    idx = 0
    for pos in order:
        while idx < 2 and filled[idx] + eps >= quotas[idx]:
            idx += 1
        cluster = clusters[int(pos)]
        per_split[SPLITS[idx]].append(cluster.cluster_id)
        filled[idx] += cluster.size

    _rebalance_empty_splits(per_split)

    assignment = {cid: split for split, cids in per_split.items() for cid in cids}

    ind_rng = substream_rng(seed, "independents")
    independents = list(cluster_set.independents)
    ind_order = ind_rng.permutation(len(independents))
    n = len(independents)
    cut1 = round(ratios[0] * n)
    cut2 = round((ratios[0] + ratios[1]) * n)
    independent_assignment: dict[str, str] = {}
    for i, pos in enumerate(ind_order):
        split = "train" if i < cut1 else ("dev" if i < cut2 else "test")
        independent_assignment[independents[int(pos)]] = split

    return SplitManifest(
        seed=seed,
        ratios=tuple(ratios),
        target_dup_ratio=target_dup_ratio,
        caps=dict(caps) if caps else {s: None for s in SPLITS},
        cluster_assignment=assignment,
        independent_assignment=independent_assignment,
    )


def _rebalance_empty_splits(per_split: dict[str, list[int]]) -> None:
    # Move the most recently assigned cluster out of the fullest split;
    # deterministic because insertion order is the shuffled order.
    for split in SPLITS:
        while not per_split[split]:
            donor = max(SPLITS, key=lambda s: len(per_split[s]))
            if len(per_split[donor]) < 2:
                raise SplitError("cannot populate all splits with a nonempty cluster")
            per_split[split].append(per_split[donor].pop())


def generate_pairs(manifest: SplitManifest, cluster_set: ClusterSet) -> dict[str, list[LabeledPair]]:
    """Enumerate duplicate pairs and sample non-duplicate pairs per split.

    Duplicate pairs are every unordered member pair of each cluster of
    the split, subsampled reproducibly when a cap is set. Negatives are
    sampled uniformly without replacement across distinct clusters and
    independents of the same split, count chosen by the balance rule
    (train 1:1, dev/test from target_dup_ratio). No pair ever crosses a
    split boundary. Caps and seed come from the manifest.
    """
    pairs: dict[str, list[LabeledPair]] = {}
    for split in SPLITS:
        split_clusters_ = manifest.clusters_in(cluster_set, split)
        if not split_clusters_:
            raise SplitError(f"split {split!r} has no clusters of size >= 2; cannot generate pairs")

        dup = [
            (a, b)
            for c in split_clusters_
            for a, b in combinations(c.members, 2)
        ]
        cap = manifest.caps.get(split)
        if cap is not None and cap < len(dup):
            rng = substream_rng(manifest.seed, f"pairs.dup:{split}")
            chosen = rng.choice(len(dup), size=cap, replace=False)
            dup = [dup[i] for i in sorted(int(i) for i in chosen)]

        if split == "train":
            n_neg = len(dup)
        else:
            r = manifest.target_dup_ratio
            n_neg = len(dup) * (1.0 - r) / r
            if n_neg == math.inf:
                raise SplitError(f"split {split!r} needs more non-duplicate pairs than a float counts")
            n_neg = round(n_neg)

        bugs = manifest.bugs_in(cluster_set, split)
        neg_rng = substream_rng(manifest.seed, f"pairs.neg:{split}")
        negatives = _sample_negatives(bugs, cluster_set, n_neg, neg_rng, split)

        pairs[split] = [LabeledPair(a, b, True) for a, b in dup] + [
            LabeledPair(a, b, False) for a, b in negatives
        ]

    manifest.pairs = pairs
    return pairs


def _sample_negatives(
    bugs: list[str],
    cluster_set: ClusterSet,
    count: int,
    rng,
    split: str,
) -> list[tuple[str, str]]:
    """Uniform sample (without replacement) of cross-cluster pairs."""
    n = len(bugs)
    by_cluster: dict[int, int] = {}
    for b in bugs:
        cid = cluster_set.cluster_of(b)
        if cid is not None:
            by_cluster[cid] = by_cluster.get(cid, 0) + 1
    pool = n * (n - 1) // 2 - sum(k * (k - 1) // 2 for k in by_cluster.values())
    if count > pool:
        raise SplitError(
            f"split {split!r} needs {count} non-duplicate pairs but only {pool} exist"
        )
    if count == 0:
        return []

    if count * 3 >= pool:
        # Dense request: enumerate the pool and sample exactly.
        eligible = [
            (a, b) for a, b in combinations(bugs, 2) if not cluster_set.same_cluster(a, b)
        ]
        chosen = rng.choice(len(eligible), size=count, replace=False)
        return [eligible[i] for i in sorted(int(i) for i in chosen)]

    # Sparse request: rejection-sample distinct cross-cluster pairs, one
    # block of candidates at a time; no block holds more than are missing.
    seen: set[tuple[str, str]] = set()
    out: list[tuple[str, str]] = []
    while len(out) < count:
        for i, j in rng.integers(0, n, size=(count - len(out), 2)).tolist():
            if i == j:
                continue
            a, b = bugs[i], bugs[j]
            if a > b:
                a, b = b, a
            if (a, b) in seen or cluster_set.same_cluster(a, b):
                continue
            seen.add((a, b))
            out.append((a, b))
    return sorted(out)


def generate_triplets(manifest: SplitManifest, cluster_set: ClusterSet) -> list[TripletExample]:
    """Build train triplets: one per ordered train duplicate pair.

    Each unordered duplicate pair (a, b) yields the two ordered examples
    (anchor=a, positive=b) and (anchor=b, positive=a); the negative is
    drawn uniformly from train bugs outside the anchor's cluster
    (independents included): one draw below their count, stepped past the
    cluster's own positions in the sorted train bugs. All the draws are
    one call over an array of bounds, which reads the same stream as one
    call per draw (see the module docstring).
    """
    if "train" not in manifest.pairs:
        raise SplitError("generate_pairs must run before generate_triplets")
    train_bugs = manifest.bugs_in(cluster_set, "train")
    position = {b: i for i, b in enumerate(train_bugs)}
    taken = {
        c.cluster_id: sorted(position[m] for m in c.members)
        for c in manifest.clusters_in(cluster_set, "train")
    }

    examples = [
        (anchor, positive)
        for pair in manifest.pairs["train"] if pair.duplicate
        for anchor, positive in ((pair.bug_a, pair.bug_b), (pair.bug_b, pair.bug_a))
    ]
    skips = [taken[cluster_set.cluster_of(anchor)] for anchor, _ in examples]
    bounds = [len(train_bugs) - len(skip) for skip in skips]
    if 0 in bounds:
        raise SplitError(f"no eligible triplet negatives for anchor {examples[bounds.index(0)][0]!r}")
    draws = substream_rng(manifest.seed, "triplets").integers(bounds).tolist()

    triplets: list[TripletExample] = []
    for (anchor, positive), skip, i in zip(examples, skips, draws):
        for p in skip:
            if p > i:
                break
            i += 1
        triplets.append(TripletExample(anchor, positive, train_bugs[i]))

    manifest.triplets = triplets
    return triplets


def build_manifest(
    cluster_set: ClusterSet,
    ratios: tuple[float, float, float] = DEFAULT_RATIOS,
    seed: int = 0,
    target_dup_ratio: float = DEFAULT_TARGET_DUP_RATIO,
    caps: dict[str, int | None] | None = None,
) -> SplitManifest:
    """Run every split stage: assignment, pairs, triplets."""
    manifest = split_clusters(cluster_set, ratios, seed, target_dup_ratio, caps)
    generate_pairs(manifest, cluster_set)
    generate_triplets(manifest, cluster_set)
    return manifest


def split_stats(manifest: SplitManifest) -> dict[str, dict]:
    """Per-split pair counts and achieved duplicate ratio."""
    stats = {}
    for split, pairs in manifest.pairs.items():
        dup = sum(1 for p in pairs if p.duplicate)
        nondup = len(pairs) - dup
        total = dup + nondup
        stats[split] = {
            "dup_pairs": dup,
            "nondup_pairs": nondup,
            "dup_ratio": dup / total if total else 0.0,
        }
    return stats


def manifest_to_json(manifest: SplitManifest) -> dict:
    """The manifest's split, without its pairs and triplets, which
    ``manifest_from_json`` derives, and with their ``split_stats``."""
    return {
        "seed": manifest.seed,
        "ratios": list(manifest.ratios),
        "target_dup_ratio": manifest.target_dup_ratio,
        "caps": dict(manifest.caps),
        "cluster_assignment": {str(k): v for k, v in manifest.cluster_assignment.items()},
        "independent_assignment": dict(manifest.independent_assignment),
        "stats": split_stats(manifest),
    }


def _caps(given: dict) -> dict[str, int | None]:
    caps = {split: cap if cap is None else artifacts.integer(cap) for split, cap in given.items()}
    return _validate_caps(caps)


def _cluster_id(key: str) -> int:
    """The cluster id that ``key`` spells as ``manifest_to_json`` writes ids.
    A key that ``int`` reads in another spelling (``"01"``, ``"+2"``,
    ``" 3"``, ``"1_0"``, ``"٣"``) is not one and raises ``ValueError``."""
    cluster_id = int(key)
    if str(cluster_id) != key:
        raise ValueError(f"key {key!r} is not cluster id {cluster_id} as written")
    return cluster_id


_MANIFEST_FIELDS = {
    "seed": artifacts.integer,
    "ratios": lambda ratios: _validate_ratios(tuple(artifacts.numbers(ratios))),
    "target_dup_ratio": lambda ratio: _validate_dup_ratio(artifacts.number(ratio)),
    "caps": _caps,
    "cluster_assignment": lambda given: {_cluster_id(k): artifacts.one_of(v, SPLITS) for k, v in given.items()},
    "independent_assignment": lambda given: {k: artifacts.one_of(v, SPLITS) for k, v in given.items()},
}


def manifest_from_json(payload: dict, cluster_set: ClusterSet) -> SplitManifest:
    """The manifest that ``manifest_to_json`` wrote for ``cluster_set``, each
    key read through ``artifacts.field``, with its pairs and triplets
    derived by ``generate_pairs`` and ``generate_triplets``.

    The file's cluster ids must be those of ``cluster_set``, and the bugs it
    assigns a split to its independents; the smallest id or bug that one
    side lacks is named. A file's own ``pairs`` or ``triplets``, which
    older manifests carried, are ignored like any other unknown key, so no
    pair or triplet can name a bug that its split does not hold.
    """
    manifest = SplitManifest(
        **{key: artifacts.field(payload, key, read) for key, read in _MANIFEST_FIELDS.items()}
    )
    for kind, known, assigned, outside in (
        ("cluster", {c.cluster_id for c in cluster_set.clusters}, manifest.cluster_assignment,
         "not in its cluster set"),
        ("bug", set(cluster_set.independents), manifest.independent_assignment, "not an independent"),
    ):
        stray = min(known ^ assigned.keys(), default=None)
        if stray in known:
            raise SplitError(f"assigns no split to {kind} {stray!r}")
        if stray is not None:
            raise SplitError(f"assigns a split to {kind} {stray!r}, which is {outside}")
    generate_pairs(manifest, cluster_set)
    generate_triplets(manifest, cluster_set)
    return manifest
