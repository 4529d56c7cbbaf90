from __future__ import annotations

import random

import networkx as nx
import pytest

from pqvol.draconian import check_subset
from pqvol.graphs import (
    BipartiteDouble,
    Graph,
    _hopcroft_tarjan,
    add_edge,
    block_subgraphs,
    blocks_and_cut_vertices,
    build_double,
    delete_edge,
    disjoint_union,
    format_edge_list,
    from_edge_list,
    generate,
    graph_fingerprint,
    induced_subgraph,
    is_connected,
    is_two_connected,
    join,
    parse_edge_list,
    permute_vertices,
    read_edge_list,
    subdivide,
    triangle_join,
    write_edge_list,
)

from conftest import catalog, graph_to_nx


def test_edge_normalization():
    g = from_edge_list(3, [(2, 1), (1, 2), (2, 3)])
    assert g.m == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert g.neighbors(2) == (1, 3)
    assert g.degree(2) == 2


@pytest.mark.parametrize("bad", [[(1, 1)], [(0, 2)], [(1, 4)]])
def test_rejects_loops_and_out_of_range(bad):
    with pytest.raises(ValueError):
        from_edge_list(3, bad)


def test_fingerprint_is_stable_and_label_sensitive():
    g = generate("cycle", 4)
    assert graph_fingerprint(g) == graph_fingerprint(generate("cycle", 4))
    h = permute_vertices(g, {1: 2, 2: 1, 3: 3, 4: 4})
    assert graph_fingerprint(h) != graph_fingerprint(g)
    assert graph_fingerprint(g).startswith("g4m4:")


def test_parse_format_roundtrip():
    g = generate("wheel", 5)
    assert parse_edge_list(format_edge_list(g)) == g


def test_parse_accepts_comments_and_blank_lines():
    g = parse_edge_list("# a triangle\n3 3\n\n1 2  # first\n2 3\n1 3\n")
    assert g == generate("cycle", 3)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 2\n1 2\n",
        "3 1\n1 2 3\n",
        "3 1\none two\n",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_read_write_roundtrip(tmp_path):
    g = generate("complete_bipartite", 2, 3)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


@pytest.mark.parametrize(
    "family,params,n,m",
    [
        ("path", (4,), 4, 3),
        ("cycle", (5,), 5, 5),
        ("complete", (5,), 5, 10),
        ("complete_bipartite", (2, 3), 5, 6),
        ("star", (6,), 6, 5),
        ("wheel", (4,), 5, 8),
        ("complete_minus_matching", (6, 2), 6, 13),
    ],
)
def test_generator_shapes(family, params, n, m):
    g = generate(family, *params)
    assert (g.n, g.m) == (n, m)


def test_generate_rejects_unknown_family_and_bad_arity():
    with pytest.raises(ValueError):
        generate("moebius", 4)
    with pytest.raises(ValueError):
        generate("cycle", 4, 5)
    with pytest.raises(ValueError):
        generate("cycle", 2)


def test_random_families_are_seeded():
    t1 = generate("random_tree", 9, seed=5)
    t2 = generate("random_tree", 9, seed=5)
    t3 = generate("random_tree", 9, seed=6)
    assert t1 == t2
    assert t1 != t3
    assert t1.m == 8 and is_connected(t1)
    with pytest.raises(ValueError):
        generate("random_tree", 9)


def test_random_outerplanar_is_two_connected():
    for seed in range(10):
        g = generate("random_outerplanar", 8, seed=seed)
        assert g.n == 8
        assert is_two_connected(g)


def test_connected_components():
    g = disjoint_union(generate("path", 3), generate("cycle", 3))
    assert _hopcroft_tarjan(g)[0] == [(1, 2, 3), (4, 5, 6)]
    assert not is_connected(g)
    assert _hopcroft_tarjan(from_edge_list(1, []))[0] == [(1,)]
    assert is_connected(from_edge_list(1, []))


def test_blocks_and_cut_vertices_bowtie():
    bowtie = from_edge_list(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    blocks, cuts = blocks_and_cut_vertices(bowtie)
    block_sets = {frozenset(v for e in b for v in e) for b in blocks}
    assert block_sets == {frozenset({1, 2, 3}), frozenset({3, 4, 5})}
    assert cuts == {3}


def test_blocks_on_path_are_single_edges():
    blocks, cuts = blocks_and_cut_vertices(generate("path", 4))
    assert sorted(sorted(b) for b in blocks) == [[(1, 2)], [(2, 3)], [(3, 4)]]
    assert cuts == {2, 3}


def _labels_without(g, x):
    """Component label of each vertex of g - x (x = 0 removes nothing), by a
    plain union-find over the edges."""
    parent = list(range(g.n + 1))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, w in g.edges:
        if x not in (u, w):
            parent[find(u)] = find(w)
    return [find(v) for v in range(g.n + 1)]


def _brute_force_blocks(g):
    """Blocks and cut vertices of g by brute force.

    x is a cut vertex when g - x has more components than g. Two edges share a
    block when, for every vertex x, their ends other than x lie in one
    component of g - x: a cut vertex between two blocks separates them.
    """
    labels = [_labels_without(g, x) for x in range(g.n + 1)]

    def count(x):
        return len({labels[x][v] for v in range(1, g.n + 1) if v != x})

    cuts = {x for x in range(1, g.n + 1) if count(x) > count(0)}
    edges = sorted(g.edges)
    blocks = []
    for e in edges:
        for blk in blocks:
            f = min(blk)
            if all(len({labels[x][v] for v in (*e, *f) if v != x}) == 1 for x in range(g.n + 1)):
                blk.add(e)
                break
        else:
            blocks.append({e})
    return sorted(map(frozenset, blocks), key=min), cuts


def _walk_inputs():
    rng = random.Random(2027)
    graphs = list(catalog(6))
    for _ in range(200):
        n = rng.randint(1, 14)
        p = rng.uniform(0.05, 0.5)
        graphs.append(from_edge_list(n, [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p
        ]))
    return graphs


def test_walk_matches_components_and_brute_force_blocks():
    inputs = _walk_inputs()
    assert len(inputs) == 208 + 200
    assert any(g.n == 1 for g in inputs)
    kinds = set()
    for g in inputs:
        comps, blocks, cuts = _hopcroft_tarjan(g)
        nxg = graph_to_nx(g)
        nx_comps = sorted((tuple(sorted(c)) for c in nx.connected_components(nxg)), key=min)
        assert comps == nx_comps, g.sorted_edges
        assert is_connected(g) == nx.is_connected(nxg), g.sorted_edges
        assert (blocks, cuts) == _brute_force_blocks(g), g.sorted_edges
        assert (blocks, cuts) == blocks_and_cut_vertices(g)
        assert is_two_connected(g) == (g.n >= 2 and len(comps) == 1 and len(blocks) == 1)
        kinds.add((len(comps) > 1, bool(cuts), any(len(c) == 1 for c in comps)))
    # disconnected, separable and isolated-vertex graphs are all covered
    assert {(True, True, True), (False, True, False), (False, False, False)} <= kinds


def test_is_two_connected():
    assert is_two_connected(generate("path", 2))
    assert is_two_connected(generate("cycle", 4))
    assert not is_two_connected(generate("path", 3))
    assert not is_two_connected(from_edge_list(2, []))


def test_block_subgraphs_relabel():
    bowtie = from_edge_list(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    parts = block_subgraphs(bowtie)
    assert [p.n for p in parts] == [3, 3]
    assert all(p == generate("cycle", 3) for p in parts)


def test_edge_edits():
    c4 = generate("cycle", 4)
    assert delete_edge(c4, (1, 2)).m == 3
    assert add_edge(c4, (1, 3)).m == 5
    with pytest.raises(ValueError):
        delete_edge(c4, (1, 3))
    with pytest.raises(ValueError):
        add_edge(c4, (1, 2))


def test_delete_vertex_relabels():
    p4 = generate("path", 4)
    g = induced_subgraph(p4, [1, 3, 4])
    assert g.n == 3
    assert g.sorted_edges == ((2, 3),)


def test_induced_subgraph():
    w4 = generate("wheel", 4)
    rim = induced_subgraph(w4, [2, 3, 4, 5])
    assert rim == generate("cycle", 4)


def test_subdivide_and_triangle_join_add_one_vertex():
    c3 = generate("cycle", 3)
    sub = subdivide(c3, (1, 3))
    assert (sub.n, sub.m) == (4, 4)
    assert sub.has_edge(1, 4) and sub.has_edge(3, 4) and not sub.has_edge(1, 3)
    tri = triangle_join(c3, (1, 3))
    assert (tri.n, tri.m) == (4, 5)
    assert tri.has_edge(1, 4) and tri.has_edge(3, 4) and tri.has_edge(1, 3)


def test_join_builds_wheel():
    assert join(generate("complete", 1), generate("cycle", 5)) == generate("wheel", 5)


def test_build_double_neighborhoods():
    c3 = generate("cycle", 3)
    d = build_double(c3)
    assert isinstance(d, BipartiteDouble)
    # the mirror of i plus the mirrors of its neighbors
    assert d.neighborhoods == (0b111, 0b111, 0b111)


def test_equality_and_hash_ignore_cached_data():
    fresh = generate("wheel", 4)
    used = generate("wheel", 4)
    assert used.sorted_edges and used.neighbors(1)  # both now cached
    assert used == fresh and hash(used) == hash(fresh)
    assert from_edge_list(3, [(2, 1)]) == Graph(3, frozenset({(1, 2)}))
    assert {used, fresh, generate("cycle", 4)} == {fresh, generate("cycle", 4)}

    d = build_double(fresh)
    check_subset(d, (1, 1, 1, 1, 0))
    assert d._cache
    assert d == build_double(fresh) and hash(d) == hash(build_double(fresh))
    assert fresh != d and d != fresh
