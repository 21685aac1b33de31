"""Placement algorithm interface and registry.

A placement algorithm selects, given a (trusted) coauthorship graph and a
replica budget, the set of authors whose storage repositories should host
replicas. Algorithms are deterministic given an RNG; the case study's
100-run averaging (paper Fig. 3) feeds each run a fresh child RNG.

Scoring algorithms (degree, clustering, ...) share the tie-breaking rule
the paper's methodology implies: nodes with equal scores are ordered
randomly per run, so repeated runs explore the tie set.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Mapping

import numpy as np

from ...errors import ConfigurationError, PlacementError
from ...ids import AuthorId
from ...rng import SeedLike
from ...social.graph import CoauthorshipGraph


class PlacementAlgorithm(ABC):
    """Base class for replica placement algorithms."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def select(
        self,
        graph: CoauthorshipGraph,
        n_replicas: int,
        *,
        rng: SeedLike = None,
    ) -> List[AuthorId]:
        """Choose up to ``n_replicas`` distinct replica-hosting authors.

        Implementations return fewer than ``n_replicas`` nodes only when
        the graph itself has fewer nodes (or, for constrained algorithms
        like community election, fewer *eligible* nodes).

        Raises
        ------
        PlacementError
            If the graph is empty or ``n_replicas < 1``.
        """

    def _validate(self, graph: CoauthorshipGraph, n_replicas: int) -> None:
        if n_replicas < 1:
            raise PlacementError(f"n_replicas must be >= 1, got {n_replicas}")
        if graph.n_nodes == 0:
            raise PlacementError(f"{self.name}: cannot place replicas on an empty graph")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


def top_by_score(scores: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of the ``n`` highest ``scores``, equal scores in random order.

    The shared selection rule of all scoring placements, as one kernel:
    draw a permutation of the nodes, then stable-sort it by descending
    score, so equal scores keep their permuted order and repeated runs
    explore the tie set. ``-0.0`` and ``0.0`` tie, as in a Python sort.
    """
    order = rng.permutation(len(scores))
    return order[np.argsort(-scores[order], kind="stable")[:n]]


def ranked_by_score(
    graph: CoauthorshipGraph,
    scores: Mapping[AuthorId, float],
    n: int,
    rng: np.random.Generator,
) -> List[AuthorId]:
    """Top-``n`` nodes by score with random tie-breaking (see
    :func:`top_by_score`); nodes missing from ``scores`` score 0.0."""
    nodes = list(graph.nx.nodes())
    values = np.fromiter(
        (scores.get(a, 0.0) for a in nodes), dtype=np.float64, count=len(nodes)
    )
    return [nodes[i] for i in top_by_score(values, n, rng).tolist()]


_REGISTRY: Dict[str, Callable[[], PlacementAlgorithm]] = {}


def register_placement(name: str, factory: Callable[[], PlacementAlgorithm]) -> None:
    """Register a placement factory under ``name`` (used by ``get_placement``)."""
    if name in _REGISTRY:
        raise ConfigurationError(f"placement {name!r} already registered")
    _REGISTRY[name] = factory


def get_placement(name: str) -> PlacementAlgorithm:
    """Instantiate a registered placement algorithm by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown placement {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory()


def placement_names() -> List[str]:
    """Names of all registered placement algorithms."""
    return sorted(_REGISTRY)


def paper_placements() -> List[PlacementAlgorithm]:
    """The four algorithms of the paper's Section VI, in figure-legend order."""
    return [
        get_placement("random"),
        get_placement("node-degree"),
        get_placement("community-node-degree"),
        get_placement("clustering-coefficient"),
    ]


def all_placements() -> List[PlacementAlgorithm]:
    """Every registered algorithm (paper four + extensions), paper ones first."""
    papers = ["random", "node-degree", "community-node-degree", "clustering-coefficient"]
    rest = [n for n in placement_names() if n not in papers]
    return [get_placement(n) for n in papers + rest]
