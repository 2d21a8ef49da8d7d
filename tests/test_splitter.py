"""Grouped splitting: leakage freedom, pair balance, triplet soundness."""

from __future__ import annotations

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugdedup.dup_graph import Cluster, ClusterSet, build_clusters
from bugdedup.splitter import (
    SPLITS,
    SplitError,
    build_manifest,
    count_dup_pairs,
    generate_pairs,
    generate_triplets,
    load_manifest,
    manifest_from_json,
    manifest_to_json,
    save_manifest,
    split_clusters,
    split_stats,
)

from bugdedup.synth import SynthConfig, synth_corpus


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


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=60))
def test_count_dup_pairs_matches_enumeration(n):
    members = list(range(n))
    assert count_dup_pairs(n) == len(list(combinations(members, 2)))


def test_count_dup_pairs_rejects_zero():
    with pytest.raises(ValueError):
        count_dup_pairs(0)


def test_dup_pairs_enumerate_whole_clusters(clusters, manifest):
    for split in SPLITS:
        expected = sum(
            count_dup_pairs(c.size) for c in manifest.clusters_in(clusters, split)
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


def test_triplets_require_pairs_first(clusters):
    manifest = split_clusters(clusters, seed=3)
    with pytest.raises(SplitError, match="generate_pairs must run"):
        generate_triplets(manifest, clusters)


def test_manifest_json_roundtrip(manifest):
    again = manifest_from_json(manifest_to_json(manifest))
    assert again == manifest


def test_manifest_save_load(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path, extra={"note": "x"})
    assert load_manifest(path) == manifest


def test_manifest_load_ignores_the_groups_of_older_files(tmp_path, manifest):
    # Manifests once carried one retrieval group per clustered bug.
    payload = manifest_to_json(manifest)
    assert "groups" not in payload
    payload["groups"] = {"test": [["b1", ["b2"]]]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load_manifest(path) == manifest


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
