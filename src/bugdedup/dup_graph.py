"""Transitive-closure duplicate clusters via union-find.

Duplicate relations are treated as transitive: if A duplicates B and B
duplicates C, then {A, B, C} form one cluster and every pair of members
counts as a duplicate pair. Bugs touching no relation are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import artifacts
from .corpus import Corpus


class UnionFind:
    """Disjoint sets over string keys, path compression + union by size."""

    def __init__(self) -> None:
        self.parent: dict[str, str] = {}
        self.size: dict[str, int] = {}

    def add(self, x: str) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1

    def find(self, x: str) -> str:
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: str, y: str) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]


@dataclass(frozen=True)
class Cluster:
    """One duplicate cluster: at least two mutually-duplicate bugs."""

    cluster_id: int
    members: tuple[str, ...]  # sorted

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClusterSet:
    """Partition of a corpus into duplicate clusters and independent bugs.

    Canonical form: each cluster's members are sorted, clusters are
    ordered (and numbered) by their smallest member, independents are
    sorted. Identical corpora therefore always produce byte-identical
    cluster sets.
    """

    clusters: tuple[Cluster, ...]
    independents: tuple[str, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for c in self.clusters:
            if c.size < 2:
                raise ValueError(f"cluster {c.cluster_id} has fewer than 2 members")
            for m in c.members:
                if m in seen:
                    raise ValueError(f"bug {m!r} appears in more than one cluster")
                seen.add(m)
        overlap = seen.intersection(self.independents)
        if overlap:
            raise ValueError(f"bugs both clustered and independent: {sorted(overlap)[:5]}")

    def cluster_of(self, bug_id: str) -> int | None:
        """Cluster id for a bug, or None for independents/unknown ids."""
        return self._membership.get(bug_id)

    @cached_property
    def _membership(self) -> dict[str, int]:
        return {m: c.cluster_id for c in self.clusters for m in c.members}

    def same_cluster(self, a: str, b: str) -> bool:
        ca = self.cluster_of(a)
        return ca is not None and ca == self.cluster_of(b)


def build_clusters(corpus: Corpus) -> ClusterSet:
    """Group the corpus into duplicate clusters and independent bugs.

    Clusters are the connected components of the relation graph; bugs of
    degree zero are independent. cluster_ids are assigned 0..C-1 in order
    of smallest member, which makes downstream seeded splitting
    reproducible.
    """
    uf = UnionFind()
    related: set[str] = set()
    for a, b in sorted(corpus.duplicate_relations):
        uf.union(a, b)
        related.add(a)
        related.add(b)

    groups: dict[str, list[str]] = {}
    for bug_id in related:
        groups.setdefault(uf.find(bug_id), []).append(bug_id)

    members_sorted = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
    clusters = tuple(
        Cluster(cluster_id=i, members=tuple(g)) for i, g in enumerate(members_sorted)
    )
    independents = tuple(sorted(r.bug_id for r in corpus.reports if r.bug_id not in related))
    return ClusterSet(clusters=clusters, independents=independents)


@dataclass(frozen=True)
class ClusterStats:
    cluster_count: int
    mean_cluster_size: float
    empty: bool  # True when there are no clusters and the mean is a placeholder


def cluster_stats(cluster_set: ClusterSet) -> ClusterStats:
    """Cluster count and mean size; independents are not counted."""
    count = len(cluster_set.clusters)
    if count == 0:
        return ClusterStats(cluster_count=0, mean_cluster_size=0.0, empty=True)
    mean = sum(c.size for c in cluster_set.clusters) / count
    return ClusterStats(cluster_count=count, mean_cluster_size=mean, empty=False)


def clusters_to_json(cluster_set: ClusterSet) -> dict:
    """JSON-friendly form: {"clusters": [[ids...], ...], "independents": [...]}."""
    return {
        "clusters": [list(c.members) for c in cluster_set.clusters],
        "independents": list(cluster_set.independents),
    }


def bug_ids(values) -> tuple[str, ...]:
    """``values``, a list of string ids, as a tuple; anything else, a string
    of ids too, raises ``TypeError``. Cluster members and independents are
    read through here."""
    if type(values) is not list:
        raise TypeError(f"{values!r} is not a list of bug ids")
    for bug_id in values:
        if not isinstance(bug_id, str):
            raise TypeError(f"bug id {bug_id!r} is not a string")
    return tuple(values)


def clusters_from_json(payload: dict) -> ClusterSet:
    """The cluster set that ``clusters_to_json`` wrote, each key read through
    ``artifacts.field``. A cluster or the independents that are not a list
    of string ids are malformed."""
    clusters = artifacts.field(payload, "clusters", lambda value: tuple(
        Cluster(cluster_id=i, members=bug_ids(members)) for i, members in enumerate(value)
    ))
    independents = artifacts.field(payload, "independents", bug_ids)
    return ClusterSet(clusters=clusters, independents=independents)
