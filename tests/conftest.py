from __future__ import annotations

import random

import networkx as nx
import pytest

from pqvol import draconian
from pqvol.graphs import Graph, from_edge_list
from pqvol.sampling import compositions  # noqa: F401  (imported by the test modules)


def nx_to_graph(nxg: nx.Graph) -> Graph:
    nodes = sorted(nxg.nodes())
    relabel = {v: i + 1 for i, v in enumerate(nodes)}
    return from_edge_list(
        len(nodes), [(relabel[u], relabel[v]) for u, v in nxg.edges()]
    )


def graph_to_nx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(1, g.n + 1))
    nxg.add_edges_from(g.sorted_edges)
    return nxg


def catalog(n_max: int) -> list[Graph]:
    """One representative per isomorphism class of graphs, 1 <= n <= n_max <= 7,
    disconnected ones and isolated vertices included."""
    return [nx_to_graph(nxg) for nxg in nx.graph_atlas_g() if 0 < nxg.number_of_nodes() <= n_max]


def connected_catalog(n_max: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs, n <= n_max <= 7."""
    out = []
    for nxg in nx.graph_atlas_g():
        n = nxg.number_of_nodes()
        if n == 0 or n > n_max:
            continue
        if not nx.is_connected(nxg):
            continue
        out.append(nx_to_graph(nxg))
    return out


# a triangle with an ear on each edge: its central face has no outer edge
THREE_SUN = from_edge_list(
    6, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (2, 5), (3, 5), (1, 6), (3, 6)]
)


def assert_shards_split(d, serial: list, workers: int) -> None:
    """Each shard run lists exactly the serial entries whose values at the
    first len(p) search positions are its prefix p, and the sorted union of
    the shards is the serial listing."""
    order = draconian._search_order(d)
    union = []
    for p in draconian._shard_prefixes(d, workers):
        part = draconian._dfs_run(d, p, True)
        assert part == [s for s in serial if tuple(s[v - 1] for v in order[: len(p)]) == p]
        assert draconian._dfs_run(d, p, False) == len(part)
        union += part
    assert sorted(union) == serial


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260814)


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """The size of every process pool draconian opens, in order; the pools still open."""
    sizes = []
    real = draconian._executor

    def spy(max_workers):
        sizes.append(max_workers)
        return real(max_workers)

    monkeypatch.setattr(draconian, "_executor", spy)
    return sizes
