"""Grouped splitting: leakage freedom, pair balance, triplet soundness."""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugdedup import splitter as splitter_mod
from bugdedup.artifacts import load, save
from bugdedup.dup_graph import Cluster, ClusterSet, build_clusters
from bugdedup.seeding import substream_rng
from bugdedup.splitter import (
    SPLITS,
    LabeledPair,
    SplitError,
    _sample_negatives,
    build_manifest,
    generate_pairs,
    generate_triplets,
    manifest_from_json,
    manifest_to_json,
    split_clusters,
    split_stats,
)

from bugdedup.synth import SynthConfig, synth_corpus

from helpers import reference_generate_triplets, reference_sample_negatives


def _uniform_clusters(n_clusters: int, size: int) -> ClusterSet:
    clusters = tuple(
        Cluster(cluster_id=i, members=tuple(f"c{i:03d}m{j}" for j in range(size)))
        for i in range(n_clusters)
    )
    return ClusterSet(clusters=clusters, independents=())


def _all_bug_ids(clusters: ClusterSet) -> set[str]:
    """Every bug the cluster set knows: cluster members and independents."""
    return {m for c in clusters.clusters for m in c.members} | set(clusters.independents)


def test_splits_are_disjoint_and_complete(clusters, manifest):
    split_bugs = {s: set(manifest.bugs_in(clusters, s)) for s in SPLITS}
    assert not split_bugs["train"] & split_bugs["dev"]
    assert not split_bugs["train"] & split_bugs["test"]
    assert not split_bugs["dev"] & split_bugs["test"]
    assert split_bugs["train"] | split_bugs["dev"] | split_bugs["test"] == _all_bug_ids(clusters)


def test_clusters_are_split_pure(clusters, manifest):
    for cluster in clusters.clusters:
        splits = {manifest.cluster_assignment[cluster.cluster_id]}
        assert len(splits) == 1
        split = splits.pop()
        bugs = set(manifest.bugs_in(clusters, split))
        assert set(cluster.members) <= bugs


def test_equal_clusters_split_exactly_by_ratio():
    cs = _uniform_clusters(100, 3)
    manifest = split_clusters(cs, ratios=(0.8, 0.1, 0.1), seed=0)
    counts = {s: 0 for s in SPLITS}
    for split in manifest.cluster_assignment.values():
        counts[split] += 1
    assert counts == {"train": 80, "dev": 10, "test": 10}


def test_mass_quota_tracks_unequal_clusters():
    sizes = [2, 3, 4, 5, 8, 2, 2, 3, 6, 2] * 10
    clusters = tuple(
        Cluster(cluster_id=i, members=tuple(f"c{i:03d}m{j}" for j in range(s)))
        for i, s in enumerate(sizes)
    )
    cs = ClusterSet(clusters=clusters, independents=())
    manifest = split_clusters(cs, ratios=(0.8, 0.1, 0.1), seed=5)
    total = sum(sizes)
    mass = {s: 0 for s in SPLITS}
    for cid, split in manifest.cluster_assignment.items():
        mass[split] += clusters[cid].size
    # each split's duplicate-bug mass within one max cluster of its quota
    for split, ratio in zip(SPLITS, (0.8, 0.1, 0.1)):
        assert abs(mass[split] - ratio * total) <= max(sizes)


def test_every_split_gets_a_cluster_even_with_skewed_ratios():
    cs = _uniform_clusters(3, 2)
    manifest = split_clusters(cs, ratios=(0.98, 0.01, 0.01), seed=1)
    assigned = set(manifest.cluster_assignment.values())
    assert assigned == set(SPLITS)


def test_split_requires_three_clusters():
    cs = _uniform_clusters(2, 2)
    with pytest.raises(SplitError, match="at least 3 clusters"):
        split_clusters(cs)


def test_split_rejects_bad_ratios():
    cs = _uniform_clusters(5, 2)
    with pytest.raises(SplitError, match="sum to 1"):
        split_clusters(cs, ratios=(0.5, 0.2, 0.2))
    with pytest.raises(SplitError, match="positive"):
        split_clusters(cs, ratios=(1.0, 0.0, 0.0))


@pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5, float("nan")])
def test_split_rejects_a_dup_ratio_outside_the_unit_interval(ratio):
    cs = _uniform_clusters(5, 2)
    with pytest.raises(SplitError, match=r"target_dup_ratio must lie in \(0, 1\]"):
        split_clusters(cs, target_dup_ratio=ratio)


@pytest.mark.parametrize("seed", [True, 1.0, "1"])
def test_split_rejects_a_seed_that_is_not_an_int(seed):
    with pytest.raises(SplitError, match=f"^seed must be an int, got {seed!r}$"):
        build_manifest(_uniform_clusters(5, 2), seed=seed)


def test_split_rejects_bad_caps():
    cs = _uniform_clusters(5, 2)
    with pytest.raises(SplitError, match="train must be >= 0, got -1"):
        split_clusters(cs, caps={"train": -1, "dev": None, "test": None})
    with pytest.raises(SplitError, match="got 'tran'"):
        build_manifest(cs, caps={"tran": 5})
    with pytest.raises(SplitError, match="dev must be >= 0"):
        split_clusters(cs, caps={"dev": -2})


def test_independents_follow_ratios(clusters, manifest):
    counts = {s: 0 for s in SPLITS}
    for split in manifest.independent_assignment.values():
        counts[split] += 1
    n = len(clusters.independents)
    assert counts["train"] == round(0.8 * n)
    assert sum(counts.values()) == n


def test_dup_pairs_enumerate_whole_clusters(clusters, manifest):
    for split in SPLITS:
        expected = sum(
            c.size * (c.size - 1) // 2 for c in manifest.clusters_in(clusters, split)
        )
        dup = [p for p in manifest.pairs[split] if p.duplicate]
        assert len(dup) == expected


def test_train_pairs_balanced(manifest):
    train = manifest.pairs["train"]
    dup = sum(1 for p in train if p.duplicate)
    assert dup * 2 == len(train)


def test_dev_test_negative_counts_hit_target(manifest):
    r = manifest.target_dup_ratio
    for split in ("dev", "test"):
        pairs = manifest.pairs[split]
        dup = sum(1 for p in pairs if p.duplicate)
        nondup = len(pairs) - dup
        assert nondup == round(dup * (1.0 - r) / r)
        assert abs(dup / len(pairs) - r) <= 1.0 / len(pairs)


def test_pair_labels_match_cluster_membership(clusters, manifest):
    for split in SPLITS:
        for pair in manifest.pairs[split]:
            assert pair.duplicate == clusters.same_cluster(pair.bug_a, pair.bug_b)


def test_pairs_are_canonical_and_within_split(clusters, manifest):
    for split in SPLITS:
        bugs = set(manifest.bugs_in(clusters, split))
        seen = set()
        for pair in manifest.pairs[split]:
            assert pair.bug_a < pair.bug_b
            assert pair.bug_a in bugs and pair.bug_b in bugs
            key = (pair.bug_a, pair.bug_b)
            assert key not in seen
            seen.add(key)


def test_caps_subsample_duplicates(clusters):
    manifest = split_clusters(clusters, seed=3, caps={"train": 10, "dev": None, "test": None})
    pairs = generate_pairs(manifest, clusters)
    dup = [p for p in pairs["train"] if p.duplicate]
    nondup = [p for p in pairs["train"] if not p.duplicate]
    assert len(dup) == 10
    assert len(nondup) == 10


def test_infeasible_negative_pool_raises():
    # 3 tiny clusters, no independents: dev holds one 2-bug cluster, so
    # zero cross-cluster pairs exist there but the skew demands several
    cs = _uniform_clusters(3, 2)
    manifest = split_clusters(cs, seed=0, target_dup_ratio=0.1564)
    with pytest.raises(SplitError, match="non-duplicate pairs but only"):
        generate_pairs(manifest, cs)


def test_triplets_one_per_ordered_dup_pair(clusters, manifest):
    train_dup = sum(1 for p in manifest.pairs["train"] if p.duplicate)
    assert len(manifest.triplets) == 2 * train_dup


def test_triplet_membership_soundness(clusters, manifest):
    train_bugs = set(manifest.bugs_in(clusters, "train"))
    for t in manifest.triplets:
        assert clusters.same_cluster(t.anchor, t.positive)
        assert not clusters.same_cluster(t.anchor, t.negative)
        assert {t.anchor, t.positive, t.negative} <= train_bugs


def test_triplets_need_a_train_bug_outside_the_anchor_cluster():
    # Train holds one 2-bug cluster and no independents; pairs set by hand,
    # since generate_pairs already refuses a split without negatives.
    cs = _uniform_clusters(3, 2)
    manifest = split_clusters(cs, seed=0)
    (train,) = manifest.clusters_in(cs, "train")
    manifest.pairs = {"train": [LabeledPair(*train.members, True)]}
    with pytest.raises(SplitError, match="no eligible triplet negatives"):
        generate_triplets(manifest, cs)


class _CountingRng:
    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


def test_pairs_and_triplets_equal_the_one_call_per_draw_references():
    # Poisson cluster sizes, caps, independents or none, and dup ratios that
    # send negative requests down the dense path, the sparse path within one
    # block of candidates, and the sparse path past its first block.
    cases = [
        ({"n_clusters": 60, "seed": 2}, {"seed": 1}),
        ({"n_clusters": 40, "mean_size": 4.0, "seed": 6},
         {"seed": 5, "ratios": (0.6, 0.2, 0.2), "target_dup_ratio": 0.5}),
        ({"n_clusters": 50, "seed": 8}, {"seed": 2, "caps": {"train": 1, "dev": 3, "test": None}}),
        ({"n_clusters": 16, "n_independents": 0, "seed": 1},
         {"seed": 4, "ratios": (0.5, 0.25, 0.25), "target_dup_ratio": 0.5}),
        ({"n_clusters": 30, "mean_size": 3.5, "n_independents": 60, "seed": 3},
         {"seed": 9, "target_dup_ratio": 1.0}),
    ]
    paths = set()
    for synth_fields, split_kwargs in cases:
        clusters = build_clusters(synth_corpus(SynthConfig(**synth_fields)))
        manifest = build_manifest(clusters, **split_kwargs)
        for split in SPLITS:
            negatives = [(p.bug_a, p.bug_b) for p in manifest.pairs[split] if not p.duplicate]
            bugs = manifest.bugs_in(clusters, split)
            rng = _CountingRng(substream_rng(manifest.seed, f"pairs.neg:{split}"))
            assert _sample_negatives(bugs, clusters, len(negatives), rng, split) == negatives
            reference_rng = substream_rng(manifest.seed, f"pairs.neg:{split}")
            assert reference_sample_negatives(
                bugs, clusters, len(negatives), reference_rng, split
            ) == negatives
            blocks = rng.calls["integers"]
            paths.add("dense" if rng.calls["choice"] else f"sparse, {min(blocks, 2)} blocks")
        assert manifest.triplets == reference_generate_triplets(manifest, clusters)
    assert {"dense", "sparse, 1 blocks", "sparse, 2 blocks"} <= paths


def test_triplet_negatives_are_drawn_in_one_call(clusters, manifest, monkeypatch):
    rngs = []

    def counting(seed, label):
        rngs.append((label, _CountingRng(substream_rng(seed, label))))
        return rngs[-1][1]

    monkeypatch.setattr(splitter_mod, "substream_rng", counting)
    assert generate_triplets(dataclasses.replace(manifest), clusters) == manifest.triplets
    assert [(label, rng.calls) for label, rng in rngs] == [("triplets", Counter(integers=1))]


def test_triplets_require_pairs_first(clusters):
    manifest = split_clusters(clusters, seed=3)
    with pytest.raises(SplitError, match="generate_pairs must run"):
        generate_triplets(manifest, clusters)


def test_manifest_json_roundtrip(clusters, manifest):
    # The file holds the split only; the reader derives the same lists.
    payload = manifest_to_json(manifest)
    assert not {"pairs", "triplets"} & payload.keys()
    again = manifest_from_json(payload, clusters)
    assert (again.pairs, again.triplets) == (manifest.pairs, manifest.triplets)
    assert again == manifest


def test_manifest_save_load(tmp_path, clusters, manifest):
    path = tmp_path / "manifest.json"
    save(path, manifest_to_json(manifest) | {"note": "x"}, 1)
    again = load(path, lambda payload: manifest_from_json(payload, clusters), "manifest file")
    assert (again.pairs, again.triplets) == (manifest.pairs, manifest.triplets)
    assert again == manifest


def test_manifest_payload_is_a_copy(clusters):
    # Editing what manifest_to_json returns leaves the manifest as built.
    caps = {"train": None, "dev": 5, "test": None}
    manifest = build_manifest(clusters, seed=21, caps=caps)
    payload = manifest_to_json(manifest)
    payload["caps"]["dev"] = 0
    payload["independent_assignment"]["extra"] = "test"
    payload["cluster_assignment"].clear()
    assert manifest == build_manifest(clusters, seed=21, caps=caps)


def test_manifest_load_ignores_the_groups_of_older_files(tmp_path, clusters, manifest):
    # Manifests once carried one retrieval group per clustered bug.
    payload = manifest_to_json(manifest)
    assert "groups" not in payload
    payload["groups"] = {"test": [["b1", ["b2"]]]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load(path, lambda payload: manifest_from_json(payload, clusters), "manifest file") == manifest


def test_same_seed_reproduces_manifest(clusters):
    a = build_manifest(clusters, seed=21)
    b = build_manifest(clusters, seed=21)
    assert manifest_to_json(a) == manifest_to_json(b)


def test_different_seed_changes_assignment(clusters):
    a = build_manifest(clusters, seed=21)
    b = build_manifest(clusters, seed=22)
    assert manifest_to_json(a) != manifest_to_json(b)


def test_split_stats_shape(manifest):
    stats = split_stats(manifest)
    for split in SPLITS:
        assert stats[split]["dup_pairs"] > 0
        total = stats[split]["dup_pairs"] + stats[split]["nondup_pairs"]
        assert stats[split]["dup_ratio"] == pytest.approx(
            stats[split]["dup_pairs"] / total
        )


_SMALL_CLUSTERS = build_clusters(
    synth_corpus(SynthConfig(n_clusters=30, seed=4, description_words=5))
)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_leakage_free_across_seeds(seed):
    clusters = _SMALL_CLUSTERS
    manifest = split_clusters(clusters, seed=seed)
    sets = [set(manifest.bugs_in(clusters, s)) for s in SPLITS]
    assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])
    assert sets[0] | sets[1] | sets[2] == _all_bug_ids(clusters)
