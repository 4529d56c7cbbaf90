"""Seeded random graph and edge samplers and other verification helpers.

All sampling flows from a caller-supplied random.Random so that a single
integer seed reproduces every suite exactly.
"""

from __future__ import annotations

from random import Random

from .graphs import Graph, from_edge_list, is_connected, is_two_connected

__all__ = [
    "random_connected_graph",
    "random_two_connected_graph",
    "sample_subdivision_pair",
    "sample_triangle_pair",
]

_MAX_TRIES = 500


def _random_graph(n: int, p: float, rng: Random) -> Graph:
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return from_edge_list(n, edges)


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def _sample_graph(n: int, p_min: float, rng: Random, accept, what: str) -> Graph:
    """The first random graph on n vertices, density drawn from [p_min, 0.8],
    that passes accept."""
    for _ in range(_MAX_TRIES):
        g = _random_graph(n, rng.uniform(p_min, 0.8), rng)
        if accept(g):
            return g
    raise RuntimeError(f"failed to sample a {what} graph on {n} vertices")


def random_connected_graph(n: int, rng: Random) -> Graph:
    """A connected graph on n vertices with a random edge density."""
    return _sample_graph(n, 0.3, rng, is_connected, "connected")


def random_two_connected_graph(n: int, rng: Random) -> Graph:
    return _sample_graph(n, 0.35, rng, is_two_connected, "2-connected")


def _sample_pair(rng: Random, n_min: int, n_max: int, sample, what: str):
    """A graph from sample on n_min..n_max vertices and one of its edges with a
    degree-2 endpoint; sample already ensures the connectivity the step needs."""
    for _ in range(_MAX_TRIES):
        g = sample(rng.randint(n_min, n_max), rng)
        eligible = [(a, b) for a, b in g.sorted_edges if g.degree(a) == 2 or g.degree(b) == 2]
        if eligible:
            return g, rng.choice(eligible)
    raise RuntimeError(f"failed to sample an eligible {what} pair")


def sample_subdivision_pair(rng: Random, n_max: int) -> tuple[Graph, tuple[int, int]]:
    """A 2-connected graph and an edge with a degree-2 endpoint."""
    return _sample_pair(rng, 4, n_max, random_two_connected_graph, "subdivision")


def sample_triangle_pair(rng: Random, n_max: int) -> tuple[Graph, tuple[int, int]]:
    """A connected graph and an edge with a degree-2 endpoint."""
    return _sample_pair(rng, 3, n_max, random_connected_graph, "triangle")
