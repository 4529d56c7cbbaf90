"""Seeded random graph and edge samplers and other verification helpers.

All sampling flows from a caller-supplied random.Random so that a single
integer seed reproduces every suite exactly.
"""

from __future__ import annotations

from random import Random

from .graphs import Graph, from_edge_list, is_connected, is_two_connected
from .recurrence import _has_degree_two_endpoint

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


def random_connected_graph(n: int, rng: Random) -> Graph:
    """A connected graph on n vertices with a random edge density."""
    for _ in range(_MAX_TRIES):
        g = _random_graph(n, rng.uniform(0.3, 0.8), rng)
        if is_connected(g):
            return g
    raise RuntimeError(f"failed to sample a connected graph on {n} vertices")


def random_two_connected_graph(n: int, rng: Random) -> Graph:
    for _ in range(_MAX_TRIES):
        g = _random_graph(n, rng.uniform(0.35, 0.8), rng)
        if is_two_connected(g):
            return g
    raise RuntimeError(f"failed to sample a 2-connected graph on {n} vertices")


def sample_subdivision_pair(rng: Random, n_max: int) -> tuple[Graph, tuple[int, int]]:
    """A 2-connected graph and an edge with a degree-2 endpoint."""
    for _ in range(_MAX_TRIES):
        n = rng.randint(4, n_max)
        g = random_two_connected_graph(n, rng)
        # g is 2-connected: subdivision_eligible without testing that again
        eligible = [e for e in g.sorted_edges if _has_degree_two_endpoint(g, e)]
        if eligible:
            return g, rng.choice(eligible)
    raise RuntimeError("failed to sample an eligible subdivision pair")


def sample_triangle_pair(rng: Random, n_max: int) -> tuple[Graph, tuple[int, int]]:
    """A connected graph and an edge with a degree-2 endpoint."""
    for _ in range(_MAX_TRIES):
        n = rng.randint(3, n_max)
        g = random_connected_graph(n, rng)
        # g is connected: triangle_eligible without testing that again
        eligible = [e for e in g.sorted_edges if _has_degree_two_endpoint(g, e)]
        if eligible:
            return g, rng.choice(eligible)
    raise RuntimeError("failed to sample an eligible triangle pair")
