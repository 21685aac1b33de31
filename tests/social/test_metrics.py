"""Unit tests for repro.social.metrics."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.ids import AuthorId
from repro.social.graph import CoauthorshipGraph, build_coauthorship_graph
from repro.social.metrics import (
    betweenness,
    closeness,
    clustering_coefficients,
    degree_vector,
    graph_summary,
    pagerank_scores,
)

from ..conftest import pub
from repro.social.records import Corpus


@pytest.fixture
def triangle_plus_tail():
    """Triangle a-b-c plus tail c-d: known clustering coefficients."""
    return build_coauthorship_graph(
        Corpus(
            [
                pub("p1", 2009, "a", "b"),
                pub("p2", 2009, "b", "c"),
                pub("p3", 2009, "a", "c"),
                pub("p4", 2009, "c", "d"),
            ]
        )
    )


class TestDegree:
    def test_degree_vector(self, triangle_plus_tail):
        assert degree_vector(triangle_plus_tail) == {"a": 2, "b": 2, "c": 3, "d": 1}


class TestClustering:
    def test_known_values(self, triangle_plus_tail):
        c = clustering_coefficients(triangle_plus_tail)
        assert c["a"] == pytest.approx(1.0)
        assert c["b"] == pytest.approx(1.0)
        assert c["c"] == pytest.approx(1 / 3)
        assert c["d"] == pytest.approx(0.0)

    def test_matches_networkx(self, synthetic):
        from repro.social.ego import ego_corpus

        corpus, seed = synthetic
        g = build_coauthorship_graph(ego_corpus(corpus, seed, hops=2))
        ours = clustering_coefficients(g)
        theirs = nx.clustering(g.nx)
        for node in g.nodes():
            assert ours[node] == pytest.approx(theirs[node], abs=1e-9)

    def test_empty_graph(self):
        g = CoauthorshipGraph(nx.Graph())
        assert clustering_coefficients(g) == {}

    def test_self_loops_ignored(self):
        """A self-loop is neither a triangle nor a coauthor: with the loop
        counted, ``a`` and ``b`` scored above 1."""
        g = nx.Graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("a", "a")])
        assert clustering_coefficients(CoauthorshipGraph(g)) == {
            "a": 1.0,
            "b": 1.0,
            "c": 1 / 3,
            "d": 0.0,
        }

    def test_synthetic_ego_equals_networkx_exactly(self, synthetic):
        from repro.social.ego import ego_corpus

        corpus, seed = synthetic
        g = build_coauthorship_graph(ego_corpus(corpus, seed, hops=2))
        ours = clustering_coefficients(g)
        assert list(ours) == g.nodes()
        assert ours == nx.clustering(g.nx)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=30),
        st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=150),
    )
    def test_random_graphs_equal_networkx_exactly(self, n, pairs):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from((u, v) for u, v in pairs if u < n and v < n)
        ours = clustering_coefficients(CoauthorshipGraph(g))
        theirs = nx.clustering(g) if n else {}
        assert list(ours) == list(theirs)
        for node, value in ours.items():
            assert value == theirs[node] and isinstance(value, float)


class TestCentralities:
    def test_betweenness_center_of_star_highest(self):
        g = build_coauthorship_graph(
            Corpus([pub(f"p{i}", 2009, "hub", f"leaf{i}") for i in range(5)])
        )
        b = betweenness(g)
        assert b["hub"] == max(b.values())
        assert b["leaf0"] == pytest.approx(0.0)

    def test_betweenness_approximation_path(self, triangle_plus_tail):
        b = betweenness(triangle_plus_tail, approximate_above=1, n_pivots=4, seed=0)
        assert set(b) == {"a", "b", "c", "d"}

    def test_closeness_tail_lowest(self, triangle_plus_tail):
        c = closeness(triangle_plus_tail)
        assert c["d"] == min(c.values())

    def test_pagerank_sums_to_one(self, triangle_plus_tail):
        pr = pagerank_scores(triangle_plus_tail)
        assert sum(pr.values()) == pytest.approx(1.0)

    def test_pagerank_weighted_favors_repeat_collaborators(self):
        # b repeats with a (weight 3); c has single links to both
        corpus = Corpus(
            [
                pub("p1", 2009, "a", "b"),
                pub("p2", 2009, "a", "b"),
                pub("p3", 2010, "a", "b"),
                pub("p4", 2010, "a", "c"),
                pub("p5", 2010, "b", "c"),
            ]
        )
        g = build_coauthorship_graph(corpus)
        pr = pagerank_scores(g, weighted=True)
        assert pr["a"] > pr["c"] and pr["b"] > pr["c"]

    def test_empty_graph_scores(self):
        g = CoauthorshipGraph(nx.Graph())
        assert pagerank_scores(g) == {}
        assert betweenness(g) == {}


class TestGraphSummary:
    def test_fields(self, triangle_plus_tail):
        s = graph_summary(triangle_plus_tail)
        assert s.n_nodes == 4
        assert s.n_edges == 4
        assert s.n_components == 1
        assert s.n_islands == 0
        assert s.max_span == 2
        assert s.max_degree == 3
        assert s.mean_degree == pytest.approx(2.0)

    def test_islands_counted(self, tiny_corpus):
        g = build_coauthorship_graph(tiny_corpus)
        s = graph_summary(g)
        assert s.n_components == 2
        assert s.n_islands == 1

    def test_seed_degree(self, tiny_corpus):
        g = build_coauthorship_graph(tiny_corpus, seed=AuthorId("carol"))
        assert graph_summary(g).seed_degree == 3

    def test_empty_graph_raises(self):
        with pytest.raises(GraphError):
            graph_summary(CoauthorshipGraph(nx.Graph()))

    def test_as_row_round_trips(self, triangle_plus_tail):
        row = graph_summary(triangle_plus_tail).as_row()
        assert row[0] == 4 and row[1] == 4


class TestCaching:
    def test_clustering_cached_per_graph(self, triangle_plus_tail, monkeypatch):
        import networkx as _nx

        a = clustering_coefficients(triangle_plus_tail)
        # a second call must not recompute: poison the underlying kernels
        monkeypatch.setattr(
            _nx, "clustering", lambda *args, **kw: pytest.fail("cache missed")
        )
        monkeypatch.setattr(
            type(triangle_plus_tail),
            "adjacency_matrix",
            lambda self: pytest.fail("cache missed"),
        )
        b = clustering_coefficients(triangle_plus_tail)
        assert a == b

    def test_pagerank_cache_keyed_by_params(self, triangle_plus_tail, monkeypatch):
        import networkx as _nx

        a = pagerank_scores(triangle_plus_tail, alpha=0.85)
        monkeypatch.setattr(
            _nx, "pagerank", lambda *args, **kw: pytest.fail("cache missed")
        )
        b = pagerank_scores(triangle_plus_tail, alpha=0.85)
        assert a == b
        monkeypatch.undo()
        c = pagerank_scores(triangle_plus_tail, alpha=0.5)
        assert c != a

    def test_betweenness_cached_ignoring_seed(self, triangle_plus_tail, monkeypatch):
        import networkx as _nx

        a = betweenness(triangle_plus_tail, seed=1)
        monkeypatch.setattr(
            _nx,
            "betweenness_centrality",
            lambda *args, **kw: pytest.fail("cache missed"),
        )
        b = betweenness(triangle_plus_tail, seed=999)
        assert a == b

    def test_new_graph_object_not_cached(self, tiny_corpus):
        g1 = build_coauthorship_graph(tiny_corpus)
        g2 = build_coauthorship_graph(tiny_corpus)
        a = clustering_coefficients(g1)
        b = clustering_coefficients(g2)
        assert a is not b
        assert a == b

    def test_subgraph_misses_cache(self, triangle_plus_tail):
        """A subgraph is a new nx.Graph object: its scores are computed
        fresh, never served from the parent's cache entry."""
        full = clustering_coefficients(triangle_plus_tail)
        sub = triangle_plus_tail.subgraph(list(triangle_plus_tail.nodes())[:3])
        sub_scores = clustering_coefficients(sub)
        assert set(sub_scores) == set(sub.nodes())
        assert set(sub_scores) != set(full)

    def test_cached_dicts_are_defensive_copies(self, triangle_plus_tail):
        """Mutating a returned dict must not poison the cache."""
        a = clustering_coefficients(triangle_plus_tail)
        victim = next(iter(a))
        a[victim] = 123.0
        assert clustering_coefficients(triangle_plus_tail)[victim] != 123.0

        p = pagerank_scores(triangle_plus_tail)
        p.clear()
        assert pagerank_scores(triangle_plus_tail)  # still populated

        bt = betweenness(triangle_plus_tail)
        bt[next(iter(bt))] = -1.0
        assert betweenness(triangle_plus_tail) != bt
