"""Differential tests for the array paths of ``degree_vector``.

On a plain graph, :func:`~repro.social.metrics.degree_vector` reads the
graph's cached :class:`~repro.social.metrics.GraphArrays` bundle; on an
:func:`~repro.social.graph.ordered_induced_view` of a plain graph it
counts degrees from the base graph's bundle instead of walking the
filtered adjacency. Every result must equal networkx's
``dict(graph.degree())`` — values and key order, a self-loop counting
twice — and anything else (a view of a view) takes the networkx fallback.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.cdn.placement.community_degree import CommunityNodeDegreePlacement
from repro.social.graph import CoauthorshipGraph, ordered_induced_view
from repro.social.metrics import _ARRAYS_CACHE, GraphArrays, degree_vector


def reference(graph: CoauthorshipGraph) -> list:
    """networkx's degrees, as ordered ``(node, degree)`` pairs."""
    return [(a, int(d)) for a, d in graph.nx.degree()]


def ordered(result: dict) -> list:
    return list(result.items())


@st.composite
def graphs_and_subsets(draw):
    """A plain graph (random insertion order and edges) and a node subset."""
    n = draw(st.integers(min_value=0, max_value=24))
    names = draw(st.permutations([f"a{i}" for i in range(n)]))
    g = nx.Graph()
    g.add_nodes_from(names)
    if n >= 2:
        pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
        edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=60))
        g.add_edges_from(edges)
    keep = draw(st.lists(st.sampled_from(names), unique=True)) if n else []
    return g, keep


class TestInducedViewFastPath:
    @settings(max_examples=150, deadline=None)
    @given(graphs_and_subsets())
    def test_matches_networkx(self, case):
        g, keep = case
        view = CoauthorshipGraph(g).subgraph_view(keep)
        assert ordered(degree_vector(view)) == reference(view)
        assert isinstance(_ARRAYS_CACHE.get(g), GraphArrays)  # the fast path ran

    def test_empty_view(self):
        g = nx.path_graph(["a", "b", "c"])
        view = CoauthorshipGraph(ordered_induced_view(g, []))
        assert degree_vector(view) == {}

    def test_single_node(self):
        g = nx.path_graph(["a", "b", "c"])
        view = CoauthorshipGraph(ordered_induced_view(g, ["b"]))
        assert ordered(degree_vector(view)) == [("b", 0)]

    def test_isolated_nodes_kept_in_order(self):
        g = nx.Graph()
        g.add_nodes_from(["z", "y", "x", "w"])
        g.add_edge("z", "w")
        view = CoauthorshipGraph(ordered_induced_view(g, ["w", "x", "y", "z"]))
        assert ordered(degree_vector(view)) == [("z", 1), ("y", 0), ("x", 0), ("w", 1)]

    def test_view_of_view_falls_back(self):
        g = nx.cycle_graph(["a", "b", "c", "d", "e"])
        inner = ordered_induced_view(g, ["a", "b", "c", "d"])
        outer = CoauthorshipGraph(ordered_induced_view(inner, ["b", "c", "d"]))
        assert ordered(degree_vector(outer)) == reference(outer)
        assert inner not in _ARRAYS_CACHE

    def test_self_loop_base_counts_loop_twice(self):
        g = nx.path_graph(["a", "b", "c"])
        g.add_edge("b", "b")
        view = CoauthorshipGraph(ordered_induced_view(g, ["a", "b"]))
        assert ordered(degree_vector(view)) == reference(view) == [("a", 1), ("b", 3)]
        assert g in _ARRAYS_CACHE
        assert ordered(degree_vector(CoauthorshipGraph(g))) == [("a", 1), ("b", 4), ("c", 1)]

    @settings(max_examples=100, deadline=None)
    @given(graphs_and_subsets(), st.booleans())
    def test_plain_graph_reads_bundle(self, case, loop):
        g, _ = case
        if loop and len(g):
            first = next(iter(g))
            g.add_edge(first, first)
        graph = CoauthorshipGraph(g)
        assert ordered(degree_vector(graph)) == reference(graph)
        assert g in _ARRAYS_CACHE

    def test_base_growing_nodes_is_reindexed(self):
        g = nx.path_graph(["a", "b", "c"])
        degree_vector(CoauthorshipGraph(ordered_induced_view(g, ["a", "b"])))
        g.add_edge("c", "d")
        view = CoauthorshipGraph(ordered_induced_view(g, ["c", "d"]))
        assert ordered(degree_vector(view)) == [("c", 1), ("d", 1)]


class TestPlacementOnViews:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n_replicas", [1, 3, 6])
    def test_community_degree_picks_match_copy(self, synthetic, seed, n_replicas):
        from repro.social.ego import ego_corpus
        from repro.social.graph import build_coauthorship_graph

        corpus, seed_author = synthetic
        graph = build_coauthorship_graph(ego_corpus(corpus, seed_author, hops=2))
        nodes = graph.nodes()
        keep = nodes[::2] + nodes[1::5]
        algo = CommunityNodeDegreePlacement()
        on_view = algo.select(graph.subgraph_view(keep), n_replicas, rng=seed)
        on_copy = algo.select(graph.subgraph(keep), n_replicas, rng=seed)
        assert on_view == on_copy
