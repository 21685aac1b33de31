"""Graph metrics used by placement algorithms and topology reporting.

The paper's Section V-D names centrality, clustering coefficient and node
betweenness as candidate replica-placement signals; Section VI uses node
degree and clustering coefficient. This module computes them with numpy
vectorization where it pays (triangle counting via the dense adjacency
matrix for case-study-sized graphs) and falls back to networkx elsewhere —
per the optimization guide, the simple correct path first, the fast path
where profiling shows it matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional
from weakref import WeakKeyDictionary

import networkx as nx
import numpy as np

from ..errors import GraphError
from ..ids import AuthorId
from ..rng import SeedLike, make_rng
from .graph import CoauthorshipGraph, _OrderedNodeFilter

#: Above this node count, dense-matrix tricks stop being worth the memory.
_DENSE_LIMIT = 4000

# Caches keyed (weakly) by the underlying nx.Graph object. Graphs are
# treated as immutable once built (every transformation in this library
# returns a new graph), so cached scores stay valid; the 100-run sweeps of
# the case study then pay for each metric once per subgraph instead of
# once per run.
_CLUSTERING_CACHE: "WeakKeyDictionary[nx.Graph, Dict[AuthorId, float]]" = WeakKeyDictionary()
_PAGERANK_CACHE: "WeakKeyDictionary[nx.Graph, Dict[tuple, Dict[AuthorId, float]]]" = WeakKeyDictionary()
_BETWEENNESS_CACHE: "WeakKeyDictionary[nx.Graph, Dict[tuple, Dict[AuthorId, float]]]" = WeakKeyDictionary()
# Edge arrays of a base graph for induced-view degrees: ``(index, rows,
# cols)`` with both directions of every edge, or None when the graph has
# self-loops (their degree convention is left to networkx).
_CSR_CACHE: "WeakKeyDictionary[nx.Graph, Optional[tuple]]" = WeakKeyDictionary()


def _base_edges(base: nx.Graph) -> Optional[tuple]:
    """Cached ``(node -> index, rows, cols)`` edge arrays of ``base``.

    Graphs are immutable once built here (as for the other caches in this
    module); a base whose node count moved anyway is re-indexed.
    """
    entry = _CSR_CACHE.get(base, False)
    if entry is not False and (entry is None or len(entry[0]) == len(base)):
        return entry
    entry = None
    if nx.number_of_selfloops(base) == 0:
        graph = CoauthorshipGraph(base)
        indptr, cols = graph.csr_adjacency()
        rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        entry = (graph.node_index(), rows, cols)
    _CSR_CACHE[base] = entry
    return entry


def _view_degrees(g: nx.Graph) -> Optional[Dict[AuthorId, int]]:
    """Degrees of an ordered induced view of a plain, loop-free graph, from
    the base graph's edge arrays; None for any other graph."""
    base = getattr(g, "_graph", None)
    if (
        type(base) is not nx.Graph
        or hasattr(base, "_NODE_OK")  # a view of a view
        or not isinstance(getattr(g, "_NODE_OK", None), _OrderedNodeFilter)
        or getattr(g, "_EDGE_OK", None) is not nx.filters.no_filter
    ):
        return None
    edges = _base_edges(base)
    if edges is None:
        return None
    index, rows, cols = edges
    # the filter holds the view's nodes in base order: the view's own order
    nodes = list(g._NODE_OK.nodes)
    try:
        ids = np.fromiter(map(index.__getitem__, nodes), dtype=np.int64, count=len(nodes))
    except KeyError:  # a filtered node left the base graph
        return None
    member = np.zeros(len(index), dtype=bool)
    member[ids] = True
    inside = member[rows] & member[cols]
    degrees = np.bincount(rows[inside], minlength=len(index))
    return dict(zip(nodes, degrees[ids].tolist()))


def degree_vector(graph: CoauthorshipGraph) -> Dict[AuthorId, int]:
    """Degree (number of distinct coauthors) of every node, in node order.

    On an induced view of a plain graph (the throwaway host subgraphs that
    placement and repair rank over, see
    :func:`~repro.social.graph.ordered_induced_view`), degrees come from
    the base graph's edge arrays — cached per base graph — with a numpy
    membership mask and ``bincount``, instead of a filtered-adjacency walk
    per node. Any other graph — a plain graph, a view of a view, or a
    base with self-loops — uses networkx; both give identical results.
    """
    degrees = _view_degrees(graph.nx)
    if degrees is None:
        degrees = {a: int(d) for a, d in graph.nx.degree()}
    return degrees


def clustering_coefficients(graph: CoauthorshipGraph) -> Dict[AuthorId, float]:
    """Local clustering coefficient of every node.

    For graphs up to ``_DENSE_LIMIT`` nodes this uses the vectorized
    triangle count ``((A @ A) * A).sum(axis=1) / 2`` over a dense adjacency
    matrix (one BLAS matmul); larger graphs fall back to
    :func:`networkx.clustering`. Results are cached per graph (graphs are
    immutable by construction in this library); callers get a fresh dict
    copy each call, so mutating a result never poisons the cache.
    Isolated and degree-1 nodes have coefficient 0.0.
    """
    n = graph.n_nodes
    if n == 0:
        return {}
    cached = _CLUSTERING_CACHE.get(graph.nx)
    if cached is not None:
        return dict(cached)
    if n > _DENSE_LIMIT:
        result = {a: float(c) for a, c in nx.clustering(graph.nx).items()}
        _CLUSTERING_CACHE[graph.nx] = result
        return dict(result)
    a_mat = graph.adjacency_matrix().astype(np.float64)
    deg = a_mat.sum(axis=1)
    # paths of length 2 between i's neighbors that close a triangle
    triangles = ((a_mat @ a_mat) * a_mat).sum(axis=1) / 2.0
    possible = deg * (deg - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = np.where(possible > 0, triangles / possible, 0.0)
    nodes = list(graph.nx.nodes())
    result = {a: float(coeff[i]) for i, a in enumerate(nodes)}
    _CLUSTERING_CACHE[graph.nx] = result
    return dict(result)


def betweenness(
    graph: CoauthorshipGraph,
    *,
    approximate_above: int = 1500,
    n_pivots: int = 256,
    seed: SeedLike = None,
) -> Dict[AuthorId, float]:
    """Betweenness centrality, exact for small graphs, pivot-sampled above
    ``approximate_above`` nodes (Brandes' approximation via networkx ``k``).

    Scores are cached per (graph, approximate_above, n_pivots): the first
    call's pivot sample is reused by later calls regardless of ``seed``,
    so repeated-placement sweeps pay for betweenness once per graph
    (callers needing an independent pivot sample should use a fresh graph
    object). Callers get a fresh dict copy each call — mutating a result
    never poisons the cache.
    """
    n = graph.n_nodes
    if n == 0:
        return {}
    key = (approximate_above, n_pivots)
    per_graph = _BETWEENNESS_CACHE.setdefault(graph.nx, {})
    if key in per_graph:
        return dict(per_graph[key])
    k: Optional[int] = None
    if n > approximate_above:
        k = min(n_pivots, n)
    rng = make_rng(seed)
    result = nx.betweenness_centrality(
        graph.nx, k=k, normalized=True, seed=int(rng.integers(0, 2**31))
    )
    out = {a: float(v) for a, v in result.items()}
    per_graph[key] = out
    return dict(out)


def closeness(graph: CoauthorshipGraph) -> Dict[AuthorId, float]:
    """Closeness centrality (component-normalized, Wasserman-Faust)."""
    return {
        a: float(v)
        for a, v in nx.closeness_centrality(graph.nx, wf_improved=True).items()
    }


def pagerank_scores(
    graph: CoauthorshipGraph, *, alpha: float = 0.85, weighted: bool = True
) -> Dict[AuthorId, float]:
    """PageRank over the coauthorship graph.

    With ``weighted=True`` the walk follows publication-count edge weights,
    biasing toward repeat collaborators (the "proven trust" signal).
    Results are cached per (graph, alpha, weighted); callers get a fresh
    dict copy each call, so mutating a result never poisons the cache.
    """
    if graph.n_nodes == 0:
        return {}
    key = (alpha, weighted)
    per_graph = _PAGERANK_CACHE.setdefault(graph.nx, {})
    if key in per_graph:
        return dict(per_graph[key])
    weight = "weight" if weighted else None
    result = nx.pagerank(graph.nx, alpha=alpha, weight=weight)
    out = {a: float(v) for a, v in result.items()}
    per_graph[key] = out
    return dict(out)


@dataclass(frozen=True)
class GraphSummary:
    """Topology summary used to reproduce the paper's Fig. 2 as numbers.

    The paper's Fig. 2 is a drawing of three subgraph topologies; the
    comparable quantitative artifact is this record per subgraph.
    """

    n_nodes: int
    n_edges: int
    n_components: int
    n_islands: int
    max_span: int
    density: float
    mean_degree: float
    max_degree: int
    mean_clustering: float
    seed_degree: Optional[int]

    def as_row(self) -> tuple:
        """Flatten to a printable row."""
        return (
            self.n_nodes,
            self.n_edges,
            self.n_components,
            self.n_islands,
            self.max_span,
            round(self.density, 5),
            round(self.mean_degree, 2),
            self.max_degree,
            round(self.mean_clustering, 4),
            self.seed_degree,
        )


def graph_summary(graph: CoauthorshipGraph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``.

    "Islands" are connected components other than the largest one —
    the paper highlights these appearing in the double-coauthorship graph.
    """
    n = graph.n_nodes
    if n == 0:
        raise GraphError("cannot summarize an empty graph")
    comps = graph.connected_components()
    degs = np.fromiter((d for _, d in graph.nx.degree()), dtype=np.int64, count=n)
    clus = clustering_coefficients(graph)
    mean_clus = float(np.mean(list(clus.values()))) if clus else 0.0
    density = 2.0 * graph.n_edges / (n * (n - 1)) if n > 1 else 0.0
    seed_degree = graph.degree(graph.seed) if graph.seed is not None else None
    return GraphSummary(
        n_nodes=n,
        n_edges=graph.n_edges,
        n_components=len(comps),
        n_islands=max(0, len(comps) - 1),
        max_span=graph.max_span(),
        density=density,
        mean_degree=float(degs.mean()),
        max_degree=int(degs.max()),
        mean_clustering=mean_clus,
        seed_degree=seed_degree,
    )
