"""Differential tests for the numpy ranking kernel of scoring placements.

:func:`repro.cdn.placement.base.top_by_score` draws one permutation and
stable-argsorts it by descending score. It must pick exactly what the
list-sort rule it replaced picked — permute the nodes, then a stable
``list.sort(key=-score)`` — with the same RNG draws: on ties, on ``-0.0``
vs ``0.0`` and on nodes missing from ``scores`` (which score 0.0). The
node-degree, clustering and community-degree placements built on it must
pick what their list-sort versions picked, on plain graphs and on views.
"""

from __future__ import annotations

from typing import List, Set

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cdn.placement.base import ranked_by_score
from repro.cdn.placement.clustering import ClusteringCoefficientPlacement
from repro.cdn.placement.community_degree import CommunityNodeDegreePlacement
from repro.cdn.placement.degree import NodeDegreePlacement
from repro.social.graph import CoauthorshipGraph


def reference_ranked(graph, scores, n, rng) -> list:
    """The list-sort rule: permute, then stable sort by ``-score``."""
    nodes = list(graph.nx.nodes())
    order = rng.permutation(len(nodes))
    shuffled = [nodes[i] for i in order]
    shuffled.sort(key=lambda a: -scores.get(a, 0.0))
    return shuffled[: min(n, len(shuffled))]


def reference_community(graph, n_replicas, rng, radius=1) -> list:
    """Community-degree selection with the list-sort ranking."""
    degrees = dict(graph.nx.degree())
    nodes = list(degrees)
    order = rng.permutation(len(nodes))
    ranked = [nodes[i] for i in order]
    ranked.sort(key=lambda a: -degrees[a])
    chosen: List = []
    excluded: Set = set()
    for node in ranked:
        if len(chosen) >= n_replicas:
            break
        if node in excluded:
            continue
        chosen.append(node)
        zone, frontier = {node}, {node}
        for _ in range(radius):
            nxt = set()
            for v in frontier:
                nxt.update(graph.nx.neighbors(v))
            nxt -= zone
            zone |= nxt
            frontier = nxt
        excluded |= zone
    if len(chosen) < n_replicas:
        taken = set(chosen)
        for node in ranked:
            if len(chosen) >= n_replicas:
                break
            if node not in taken:
                chosen.append(node)
                taken.add(node)
    return chosen[: min(n_replicas, graph.n_nodes)]


SCORE_POOL = [0.0, -0.0, 1.0, 1.0 + 1e-12, 0.5, -2.0, 3.0, float("inf"), float("-inf")]


@st.composite
def scored_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    g = nx.Graph()
    g.add_nodes_from(names)
    values = st.one_of(st.sampled_from(SCORE_POOL), st.floats(allow_nan=False))
    scored = draw(st.lists(st.sampled_from(names), unique=True)) if n else []
    scores = {a: draw(values) for a in scored}  # the rest are missing: 0.0
    return CoauthorshipGraph(g), scores


@settings(max_examples=300, deadline=None)
@given(scored_graphs(), st.integers(min_value=0, max_value=35), st.integers(0, 2**32 - 1))
def test_ranked_by_score_matches_list_sort(case, n, seed):
    graph, scores = case
    ours = ranked_by_score(graph, scores, n, np.random.default_rng(seed))
    theirs = reference_ranked(graph, scores, n, np.random.default_rng(seed))
    assert ours == theirs


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    names = draw(st.permutations([f"a{i}" for i in range(n)]))
    g = nx.Graph()
    g.add_nodes_from(names)
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    g.add_edges_from(draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=60)))
    keep = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    graph = CoauthorshipGraph(g)
    return draw(st.sampled_from([graph, graph.subgraph_view(keep)]))


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(min_value=1, max_value=12), st.integers(0, 2**32 - 1))
def test_scoring_placements_match_list_sort(graph, n, seed):
    def rng():
        return np.random.default_rng(seed)

    degrees = {a: float(d) for a, d in graph.nx.degree()}
    assert NodeDegreePlacement().select(graph, n, rng=rng()) == reference_ranked(
        graph, degrees, n, rng()
    )
    assert ClusteringCoefficientPlacement().select(graph, n, rng=rng()) == reference_ranked(
        graph, nx.clustering(graph.nx), n, rng()
    )
    for radius in (1, 2):
        assert CommunityNodeDegreePlacement(radius).select(
            graph, n, rng=rng()
        ) == reference_community(graph, n, rng(), radius)
