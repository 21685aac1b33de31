"""Differential tests: one-pass pruning vs the copy-based reference.

:func:`repro.social.trust._finalize` builds each pruned graph in one pass
over the shared base graph. It must equal what copying the base, removing
the pruned edges and copying the ordered induced view gave
(``trust_reference``): the same node order, the same adjacency order per
node, equal (but not shared) edge-data dicts, the same seed and the same
surviving publications in corpus order — and the base stays untouched.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.social.ego import ego_corpus
from repro.social.graph import shared_coauthorship_graph
from repro.social.records import Corpus
from repro.social.trust import (
    BaselineTrust,
    CompositeTrust,
    MaxAuthorsTrust,
    MinCoauthorshipTrust,
    _finalize,
    paper_trust_heuristics,
)

from ..conftest import pub
from . import trust_reference
from .trust_reference import reference_prune


def heuristics():
    return paper_trust_heuristics() + [
        MinCoauthorshipTrust(1),
        MinCoauthorshipTrust(3),
        MaxAuthorsTrust(2),
        CompositeTrust([MaxAuthorsTrust(5), MinCoauthorshipTrust(2)]),
        CompositeTrust([MinCoauthorshipTrust(2), BaselineTrust()]),
    ]


def snapshot(g) -> tuple:
    """Everything order- or data-sensitive about a networkx graph."""
    return (
        dict(g.graph),
        [(n, dict(d)) for n, d in g.nodes(data=True)],
        [(u, [(v, list(d.items())) for v, d in nbrs.items()]) for u, nbrs in g.adjacency()],
    )


def assert_same(ours, ref) -> None:
    assert ours.name == ref.name
    assert ours.graph.seed == ref.graph.seed
    assert snapshot(ours.graph.nx) == snapshot(ref.graph.nx)
    assert [p.pub_id for p in ours.corpus] == [p.pub_id for p in ref.corpus]
    for u, v, data in ours.graph.nx.edges(data=True):
        assert ours.graph.nx.adj[v][u] is data  # one dict per edge, as networkx keeps


def check(heuristic, corpus, seed) -> None:
    base = shared_coauthorship_graph(corpus).nx
    before = snapshot(base)
    ours = heuristic.prune(corpus, seed=seed)
    assert snapshot(base) == before  # the shared base is never mutated
    for u, v, data in ours.graph.nx.edges(data=True):
        assert base.adj[u][v] is not data
    assert_same(ours, reference_prune(heuristic, corpus, seed))


@pytest.mark.parametrize("heuristic", heuristics(), ids=lambda h: h.name)
def test_synthetic_ego_matches_reference(synthetic, heuristic):
    corpus, seed = synthetic
    check(heuristic, ego_corpus(corpus, seed, hops=2), seed)


@pytest.mark.parametrize("heuristic", heuristics(), ids=lambda h: h.name)
@pytest.mark.parametrize("seed", [None, "alice", "eve", "dave"])
def test_tiny_corpus_matches_reference(tiny_corpus, heuristic, seed):
    check(heuristic, tiny_corpus, seed)


AUTHORS = [f"a{i}" for i in range(10)]


@st.composite
def corpora(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    pubs = [
        pub(
            f"p{i}",
            draw(st.integers(2009, 2011)),
            *draw(st.lists(st.sampled_from(AUTHORS), min_size=1, max_size=7, unique=True)),
        )
        for i in range(n)
    ]
    return Corpus(pubs), draw(st.sampled_from([None] + AUTHORS))


@settings(max_examples=120, deadline=None)
@given(corpora())
def test_random_corpora_match_reference(case):
    corpus, seed = case
    if seed is not None and seed not in corpus.author_ids:
        seed = None
    for heuristic in heuristics():
        check(heuristic, corpus, seed)


@st.composite
def weighted_graphs(draw):
    """A graph in arbitrary node and edge insertion order (self-loops
    included), so neither node nor adjacency order is canonical."""
    names = draw(st.permutations(AUTHORS))
    g = nx.Graph(tag="base")
    g.add_nodes_from(names)
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names), st.integers(1, 4))
    for u, v, w in draw(st.lists(pairs, max_size=40)):
        g.add_edge(u, v, weight=w, pubs=tuple(f"p{u}{v}{i}" for i in range(w)))
    return g, draw(st.sampled_from([None] + names))


@settings(max_examples=200, deadline=None)
@given(weighted_graphs(), st.integers(min_value=0, max_value=4))
def test_finalize_matches_copy_and_remove(case, min_count):
    g, seed = case
    corpus = Corpus(
        pub(f"p{u}{v}{i}", 2009, u, v) for u, v, w in g.edges(data="weight") for i in range(w)
    )
    copied = g.copy()
    copied.remove_edges_from([(a, b) for a, b, w in g.edges(data="weight") if w < min_count])
    ref = trust_reference._finalize("t", copied, corpus, seed)
    before = snapshot(g)
    ours = _finalize("t", g, corpus, seed, lambda d: d["weight"] >= min_count)
    assert snapshot(g) == before
    assert_same(ours, ref)
