"""Union-find clustering: transitive closure, canonical ordering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugdedup.corpus import BugReport, build_corpus
from bugdedup.dup_graph import (
    Cluster,
    ClusterSet,
    UnionFind,
    build_clusters,
    cluster_stats,
    clusters_from_json,
    clusters_to_json,
)


def _corpus(n, links):
    reports = [
        BugReport(bug_id=f"b{i}", title="t", description="d", dup_of=links.get(f"b{i}"))
        for i in range(n)
    ]
    return build_corpus(reports)


def test_transitive_closure_merges_chains():
    # b1 -> b0, b2 -> b1: all three bugs end up in one cluster
    corpus = _corpus(4, {"b1": "b0", "b2": "b1"})
    cs = build_clusters(corpus)
    assert len(cs.clusters) == 1
    assert cs.clusters[0].members == ("b0", "b1", "b2")
    assert cs.independents == ("b3",)


def test_clusters_ordered_by_smallest_member():
    corpus = _corpus(6, {"b5": "b4", "b1": "b0"})
    cs = build_clusters(corpus)
    assert [c.members for c in cs.clusters] == [("b0", "b1"), ("b4", "b5")]
    assert [c.cluster_id for c in cs.clusters] == [0, 1]


def test_cluster_of_and_same_cluster():
    cs = build_clusters(_corpus(5, {"b1": "b0", "b3": "b2"}))
    assert cs.cluster_of("b0") == cs.cluster_of("b1") == 0
    assert cs.cluster_of("b4") is None
    assert cs.cluster_of("unknown") is None
    assert cs.same_cluster("b2", "b3")
    assert not cs.same_cluster("b0", "b3")
    assert not cs.same_cluster("b4", "b4")  # independents are never duplicates


def test_cluster_set_rejects_singleton_cluster():
    with pytest.raises(ValueError, match="fewer than 2"):
        ClusterSet(clusters=(Cluster(0, ("a",)),), independents=())


def test_cluster_set_rejects_overlap():
    with pytest.raises(ValueError, match="more than one cluster"):
        ClusterSet(
            clusters=(Cluster(0, ("a", "b")), Cluster(1, ("b", "c"))), independents=()
        )


def test_cluster_set_rejects_clustered_independent():
    with pytest.raises(ValueError, match="both clustered and independent"):
        ClusterSet(clusters=(Cluster(0, ("a", "b")),), independents=("a",))


def test_union_find_basic():
    uf = UnionFind()
    uf.union("a", "b")
    uf.union("c", "d")
    assert uf.find("a") == uf.find("b")
    assert uf.find("a") != uf.find("c")
    uf.union("b", "c")
    assert uf.find("a") == uf.find("d")


def _brute_components(n, edges):
    adjacency = {i: set() for i in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen, components = set(), []
    for start in range(n):
        if start in seen or not adjacency[start]:
            continue
        stack, comp = [start], set()
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(adjacency[node] - comp)
        seen |= comp
        components.append(frozenset(f"b{i}" for i in sorted(comp)))
    return set(components)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    edges=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20
    ),
)
def test_components_match_graph_search(n, edges):
    edges = [(a % n, b % n) for a, b in edges if a % n != b % n]
    # dup_of carries one link per bug, so inject arbitrary edge sets directly
    corpus_reports = [BugReport(bug_id=f"b{i}", title="t", description="d") for i in range(n)]
    corpus = build_corpus(corpus_reports)
    relations = frozenset(tuple(sorted((f"b{a}", f"b{b}"))) for a, b in edges)
    corpus = type(corpus)(
        reports=corpus.reports, duplicate_relations=relations, dropped_relations=0
    )
    cs = build_clusters(corpus)
    got = {frozenset(c.members) for c in cs.clusters}
    assert got == _brute_components(n, edges)


def test_cluster_stats():
    cs = build_clusters(_corpus(5, {"b1": "b0", "b2": "b0"}))
    stats = cluster_stats(cs)
    assert stats.cluster_count == 1
    assert stats.mean_cluster_size == 3.0
    assert not stats.empty


def test_cluster_stats_empty():
    cs = build_clusters(_corpus(2, {}))
    stats = cluster_stats(cs)
    assert stats.cluster_count == 0
    assert stats.empty


def test_json_roundtrip():
    cs = build_clusters(_corpus(6, {"b1": "b0", "b4": "b3"}))
    again = clusters_from_json(clusters_to_json(cs))
    assert again == cs
