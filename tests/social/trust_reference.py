"""Reference trust pruning: the copy-based implementation.

This is how the heuristics built their pruned graphs before the one-pass
build: copy the shared base graph, remove the pruned edges from the copy,
then copy the ordered induced view of the nodes that kept an edge (plus
the seed). Kept only as the differential witness for
:func:`repro.social.trust._finalize`; never used by the library.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from repro.ids import AuthorId
from repro.social.graph import CoauthorshipGraph, ordered_induced_view, shared_coauthorship_graph
from repro.social.records import Corpus
from repro.social.trust import (
    BaselineTrust,
    CompositeTrust,
    MaxAuthorsTrust,
    MinCoauthorshipTrust,
    TrustedSubgraph,
    TrustHeuristic,
)


def _finalize(name: str, graph: nx.Graph, corpus: Corpus, seed: Optional[AuthorId]) -> TrustedSubgraph:
    keep = {n for n, d in graph.degree() if d > 0}
    if seed is not None and seed in graph:
        keep.add(seed)
    pruned = ordered_induced_view(graph, keep).copy()
    cg = CoauthorshipGraph(pruned, seed=seed if seed in pruned else None)
    surviving_pub_ids = cg.publications_on_edges()
    surviving = Corpus(p for p in corpus if str(p.pub_id) in surviving_pub_ids)
    return TrustedSubgraph(name=name, graph=cg, corpus=surviving)


def reference_prune(heuristic: TrustHeuristic, corpus: Corpus, seed: Optional[AuthorId] = None) -> TrustedSubgraph:
    """``heuristic.prune(corpus, seed=seed)`` the copy-based way."""
    if isinstance(heuristic, CompositeTrust):
        current, result = corpus, None
        for stage in heuristic.stages:
            result = reference_prune(stage, current, seed)
            current = result.corpus
        return TrustedSubgraph(name=heuristic.name, graph=result.graph, corpus=result.corpus)
    if isinstance(heuristic, BaselineTrust):
        g = shared_coauthorship_graph(corpus).nx.copy()
        return _finalize(heuristic.name, g, corpus, seed)
    if isinstance(heuristic, MinCoauthorshipTrust):
        g = shared_coauthorship_graph(corpus).nx.copy()
        weak = [(a, b) for a, b, w in g.edges(data="weight", default=1) if w < heuristic.min_count]
        g.remove_edges_from(weak)
        return _finalize(heuristic.name, g, corpus, seed)
    if isinstance(heuristic, MaxAuthorsTrust):
        filtered = corpus.filter_max_authors(heuristic.max_authors)
        g = shared_coauthorship_graph(filtered).nx.copy()
        return _finalize(heuristic.name, g, filtered, seed)
    raise TypeError(f"no reference for {heuristic!r}")
