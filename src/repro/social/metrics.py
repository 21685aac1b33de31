"""Graph metrics used by placement algorithms and topology reporting.

The paper's Section V-D names centrality, clustering coefficient and node
betweenness as candidate replica-placement signals; Section VI uses node
degree and clustering coefficient. Degree and clustering are computed from
one per-graph bundle of numpy arrays (:class:`GraphArrays`: node order,
index, CSR adjacency, degrees and, lazily, clustering coefficients), built
once per graph object and shared by placement and hit-rate evaluation.
Triangles are counted with a sparse integer product ``(A @ A) * A``, so
memory stays O(V + E + wedges) instead of the O(V^2) of a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import networkx as nx
import numpy as np

from ..errors import GraphError
from ..ids import AuthorId
from ..rng import SeedLike, make_rng
from .graph import CoauthorshipGraph, _OrderedNodeFilter

# Caches keyed (weakly) by the underlying nx.Graph object. Graphs are
# treated as immutable once built (every transformation in this library
# returns a new graph), so cached scores stay valid; the 100-run sweeps of
# the case study then pay for each metric once per subgraph instead of
# once per run.
_PAGERANK_CACHE: "WeakKeyDictionary[nx.Graph, Dict[tuple, Dict[AuthorId, float]]]" = WeakKeyDictionary()
_BETWEENNESS_CACHE: "WeakKeyDictionary[nx.Graph, Dict[tuple, Dict[AuthorId, float]]]" = WeakKeyDictionary()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(eq=False)
class GraphArrays:
    """Immutable numpy view of one graph, built once per graph object.

    ``nodes`` is the graph's node order and ``index`` its inverse; row
    ``i`` of the CSR adjacency, ``indices[indptr[i]:indptr[i + 1]]``,
    lists node ``i``'s neighbors ascending (a self-loop appears twice,
    as :meth:`~repro.social.graph.CoauthorshipGraph.csr_adjacency`
    emits it). ``rows`` is the row of every CSR entry and ``degrees``
    networkx's degree (a self-loop counts twice). Every array is
    read-only, and ``index`` must be treated so: the bundle is shared by
    every caller of the same graph.
    """

    nodes: Tuple[AuthorId, ...]
    index: Dict[AuthorId, int]
    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    degrees: np.ndarray
    _clustering: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @classmethod
    def build(cls, graph: CoauthorshipGraph) -> "GraphArrays":
        """A fresh bundle of ``graph`` (:func:`graph_arrays` caches one)."""
        indptr, indices = graph.csr_adjacency()
        degrees = np.diff(indptr)
        rows = np.repeat(np.arange(len(degrees)), degrees)
        return cls(
            nodes=tuple(graph.nodes()),
            index=graph.node_index(),
            indptr=_frozen(indptr),
            indices=_frozen(indices),
            rows=_frozen(rows),
            degrees=_frozen(degrees),
        )

    def clustering(self) -> np.ndarray:
        """Local clustering coefficient of every node, computed once.

        Triangles through node ``i`` are ``((A @ A) * A)[i].sum() / 2``
        over the loop-free adjacency ``A`` in integers; the coefficient
        divides twice that count by ``d * (d - 1)``, where ``d`` excludes
        self-loops — networkx's convention, and the same IEEE double
        ``networkx.clustering`` returns. Nodes in no triangle score 0.0.
        """
        if self._clustering is None:
            # imported on first use: campaigns never count triangles, and
            # importing scipy.sparse costs them ~7 MB of peak RSS
            from scipy import sparse

            n = len(self.nodes)
            off = self.rows != self.indices  # drop self-loops
            cols = self.indices[off]
            deg = np.bincount(self.rows[off], minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(deg, out=indptr[1:])
            a = sparse.csr_array(
                (np.ones(cols.size, dtype=np.int64), cols, indptr), shape=(n, n)
            )
            twice_triangles = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel()
            coeff = np.zeros(n, dtype=np.float64)
            closed = twice_triangles > 0
            coeff[closed] = twice_triangles[closed] / (deg * (deg - 1))[closed]
            self._clustering = _frozen(coeff)
        return self._clustering


# One bundle per graph object (weak key: a discarded graph releases it).
_ARRAYS_CACHE: "WeakKeyDictionary[nx.Graph, GraphArrays]" = WeakKeyDictionary()


def graph_arrays(graph: CoauthorshipGraph) -> GraphArrays:
    """The cached :class:`GraphArrays` of ``graph``.

    Graphs are immutable once built here (as for the other caches in this
    module); a graph whose node count moved anyway is re-indexed.
    """
    g = graph.nx
    entry = _ARRAYS_CACHE.get(g)
    if entry is None or len(entry.nodes) != len(g):
        entry = GraphArrays.build(graph)
        _ARRAYS_CACHE[g] = entry
    return entry


def _view_degrees(g: nx.Graph) -> Optional[Tuple[List[AuthorId], np.ndarray]]:
    """Degrees of an ordered induced view of a plain graph, from the base
    graph's edge arrays; None for any other graph."""
    base = getattr(g, "_graph", None)
    if (
        type(base) is not nx.Graph
        or hasattr(base, "_NODE_OK")  # a view of a view
        or not isinstance(getattr(g, "_NODE_OK", None), _OrderedNodeFilter)
        or getattr(g, "_EDGE_OK", None) is not nx.filters.no_filter
    ):
        return None
    arrays = graph_arrays(CoauthorshipGraph(base))
    # the filter holds the view's nodes in base order: the view's own order
    nodes = list(g._NODE_OK.nodes)
    try:
        ids = np.fromiter(map(arrays.index.__getitem__, nodes), dtype=np.int64, count=len(nodes))
    except KeyError:  # a filtered node left the base graph
        return None
    member = np.zeros(len(arrays.nodes), dtype=bool)
    member[ids] = True
    rows, cols = arrays.rows, arrays.indices
    inside = member[rows] & member[cols]
    degrees = np.bincount(rows[inside], minlength=len(member))
    return nodes, degrees[ids]


def degree_array(graph: CoauthorshipGraph) -> Tuple[Sequence[AuthorId], np.ndarray]:
    """Node order and the int64 degree of every node, in that order.

    A plain graph reads its :class:`GraphArrays` bundle (treat the array
    as read-only). An induced view of a plain graph (the throwaway host
    subgraphs that placement and repair rank over, see
    :func:`~repro.social.graph.ordered_induced_view`) counts degrees from
    the base graph's bundle with a numpy membership mask and
    ``bincount``, instead of a filtered-adjacency walk per node. Any other
    graph — a view of a view, say — uses networkx; all give identical
    results, a self-loop counting twice.
    """
    g = graph.nx
    if type(g) is nx.Graph and not hasattr(g, "_graph"):  # not a view
        arrays = graph_arrays(graph)
        return arrays.nodes, arrays.degrees
    view = _view_degrees(g)
    if view is not None:
        return view
    pairs = list(g.degree())
    return [a for a, _ in pairs], np.fromiter((d for _, d in pairs), dtype=np.int64, count=len(pairs))


def degree_vector(graph: CoauthorshipGraph) -> Dict[AuthorId, int]:
    """Degree (number of distinct coauthors) of every node, in node order
    (see :func:`degree_array`)."""
    nodes, degrees = degree_array(graph)
    return dict(zip(nodes, degrees.tolist()))


def clustering_coefficients(graph: CoauthorshipGraph) -> Dict[AuthorId, float]:
    """Local clustering coefficient of every node.

    Computed once per graph by :meth:`GraphArrays.clustering` (sparse
    integer triangle counts, equal to :func:`networkx.clustering`; a
    self-loop is ignored). Callers get a fresh dict each call, so mutating
    a result never poisons the cache. Isolated and degree-1 nodes have
    coefficient 0.0.
    """
    if graph.n_nodes == 0:
        return {}
    arrays = graph_arrays(graph)
    return dict(zip(arrays.nodes, arrays.clustering().tolist()))


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
