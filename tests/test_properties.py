from __future__ import annotations

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from pqvol.draconian import check_flow, check_subset, count, enumerate_draconian
from pqvol.graphs import (
    build_double,
    delete_edge,
    from_edge_list,
    permute_vertices,
    subdivide,
    triangle_join,
)
from pqvol.sampling import sample_subdivision_pair, sample_triangle_pair

from conftest import assert_shards_split, compositions


@st.composite
def connected_graphs(draw, n_max: int = 8):
    n = draw(st.integers(2, n_max))
    # spanning tree first, then arbitrary extra edges
    tree = [(i, draw(st.integers(1, i - 1))) for i in range(2, n + 1)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return from_edge_list(n, tree + extra)


@st.composite
def graph_and_sequence(draw):
    g = draw(connected_graphs())
    placements = draw(
        st.lists(st.integers(0, g.n - 1), min_size=g.n - 1, max_size=g.n - 1)
    )
    seq = [0] * g.n
    for i in placements:
        seq[i] += 1
    return g, seq


@given(graph_and_sequence())
@settings(max_examples=300, deadline=None)
def test_checkers_agree(case):
    g, seq = case
    d = build_double(g)
    assert check_subset(d, seq) == check_flow(d, seq)


@given(connected_graphs(n_max=5))
@settings(max_examples=100, deadline=None)
def test_enumeration_equals_filtered_compositions(g):
    d = build_double(g)
    want = [c for c in compositions(g.n - 1, g.n) if check_flow(d, c)]
    assert list(enumerate_draconian(g).entry_tuples()) == want


@st.composite
def graph_and_permutation(draw):
    g = draw(connected_graphs(n_max=6))
    image = draw(st.permutations(list(range(1, g.n + 1))))
    return g, {i + 1: image[i] for i in range(g.n)}


@given(graph_and_permutation())
@settings(max_examples=60, deadline=None)
def test_count_is_relabeling_invariant(case):
    g, perm = case
    assert count(permute_vertices(g, perm)) == count(g)


@given(graph_and_permutation())
@settings(max_examples=60, deadline=None)
def test_listings_follow_relabellings(case):
    # the search walks an order chosen from the graph's structure, yet lists
    # in label order; each shard is a root subtree of that search, and the
    # shards' merged listings are the serial one
    g, perm = case
    h = permute_vertices(g, perm)
    want = []
    for s in enumerate_draconian(g):
        moved = [0] * g.n
        for i, x in enumerate(s, 1):
            moved[perm[i] - 1] = x
        want.append(tuple(moved))
    want.sort()
    assert list(enumerate_draconian(h).entry_tuples()) == want
    d = build_double(h)
    for workers in (2, 64):
        assert_shards_split(d, want, workers)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_subdivision_identity(seed):
    rng = Random(seed)
    g, e = sample_subdivision_pair(rng, 7)
    assert count(subdivide(g, e)) == 2 * count(g) + count(delete_edge(g, e))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_triangle_identity(seed):
    rng = Random(seed)
    g, e = sample_triangle_pair(rng, 7)
    assert count(triangle_join(g, e)) == 3 * count(g)
