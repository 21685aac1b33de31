"""Differential tests: CSR hit-rate evaluator vs the dense reference.

:class:`repro.casestudy.hitrate.HitRateEvaluator` runs its coverage mask
and mean-hop BFS over the graph's CSR adjacency and memoizes results by
replica set. Both ``coverage_mask`` and ``evaluate`` must equal the dense
evaluator in ``hitrate_reference`` exactly — at ``max_hops`` 0, 1 and 2,
on disconnected graphs, with duplicate replicas and on memo hits.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudy.hitrate import HitRateEvaluator
from repro.errors import PlacementError
from repro.social.ego import ego_corpus
from repro.social.graph import CoauthorshipGraph, build_coauthorship_graph
from repro.social.records import Corpus

from ..conftest import pub
from .hitrate_reference import DenseHitRateEvaluator

NAMES = [f"a{i}" for i in range(16)]


def assert_same(ev, ref, replicas) -> None:
    assert np.array_equal(ev.coverage_mask(replicas), ref.coverage_mask(replicas))
    ours, theirs = ev.evaluate(replicas), ref.evaluate(replicas)
    assert ours == theirs
    assert ev.evaluate(replicas) is ours  # memo hit, same result
    assert ev.evaluate(list(reversed(replicas))) == theirs


@st.composite
def cases(draw):
    """A graph (possibly disconnected, isolated nodes included), a test
    corpus touching in- and out-of-graph authors, and replica lists."""
    n = draw(st.integers(min_value=1, max_value=len(NAMES)))
    names = draw(st.permutations(NAMES[:n]))
    g = nx.Graph()
    g.add_nodes_from(names)
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    g.add_edges_from(draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=40)))
    authors = st.sampled_from(names + ["out1", "out2"])
    test = Corpus(
        pub(f"t{i}", 2011, *draw(st.lists(authors, min_size=1, max_size=4, unique=True)))
        for i in range(draw(st.integers(0, 8)))
    )
    placements = draw(
        st.lists(st.lists(st.sampled_from(names), min_size=1, max_size=5), min_size=1, max_size=6)
    )
    return CoauthorshipGraph(g), test, placements


@settings(max_examples=200, deadline=None)
@given(cases(), st.integers(min_value=0, max_value=2))
def test_random_graphs_match_dense(case, max_hops):
    graph, test, placements = case
    ev = HitRateEvaluator(graph, test, max_hops=max_hops)
    ref = DenseHitRateEvaluator(graph, test, max_hops=max_hops)
    assert ev.total_units == int(ref._unit_counts.sum()) + ref._out_units
    for replicas in placements:
        assert_same(ev, ref, replicas)


@pytest.mark.parametrize("max_hops", [0, 1, 2])
def test_synthetic_ego_matches_dense(synthetic, max_hops):
    corpus, seed = synthetic
    ego = ego_corpus(corpus, seed, hops=2)
    graph = build_coauthorship_graph(ego.filter_years(2009, 2010))
    test = ego.filter_years(2011, 2011)
    ev = HitRateEvaluator(graph, test, max_hops=max_hops)
    ref = DenseHitRateEvaluator(graph, test, max_hops=max_hops)
    rng = np.random.default_rng(max_hops)
    nodes = graph.nodes()
    for size in (1, 2, 5, 10):
        for _ in range(4):
            replicas = [nodes[i] for i in rng.choice(len(nodes), size)]  # duplicates allowed
            assert_same(ev, ref, replicas)


def test_duplicate_replicas_share_a_memo_entry():
    graph = build_coauthorship_graph(Corpus([pub("p", 2009, "a", "b"), pub("q", 2009, "b", "c")]))
    ev = HitRateEvaluator(graph, Corpus([pub("t", 2011, "a", "c")]))
    first = ev.evaluate(["a", "a", "c"])
    assert ev.evaluate(["c", "a"]) is first
    assert first == DenseHitRateEvaluator(graph, Corpus([pub("t", 2011, "a", "c")])).evaluate(["a", "c"])


def test_errors_are_not_memoized():
    graph = build_coauthorship_graph(Corpus([pub("p", 2009, "a", "b")]))
    ev = HitRateEvaluator(graph, Corpus([pub("t", 2011, "a")]))
    for _ in range(2):
        with pytest.raises(PlacementError, match="outside the subgraph"):
            ev.evaluate(["a", "ghost"])
        with pytest.raises(PlacementError, match="empty placement"):
            ev.evaluate([])
