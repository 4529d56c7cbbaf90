from __future__ import annotations

import random

import networkx as nx
import pytest

from pqvol.draconian import count
from pqvol.graphs import (
    add_edge,
    from_edge_list,
    generate,
    is_two_connected,
    permute_vertices,
    subdivide,
)
from pqvol.outerplanar import (
    NotOuterplanarError,
    NotTwoConnectedError,
    ewd_degrees,
    is_outerplanar,
    nvol_outerplanar,
    outer_structure,
)
from pqvol.recurrence import nvol, nvol_cycle

from conftest import connected_catalog, graph_to_nx

FAN_6 = add_edge(add_edge(add_edge(generate("cycle", 6), (1, 3)), (1, 4)), (1, 5))
INNER_TRIANGLE = add_edge(add_edge(add_edge(generate("cycle", 6), (1, 3)), (3, 5)), (1, 5))


def nx_is_outerplanar(g) -> bool:
    """Planarity of the apex extension characterizes outerplanarity."""
    nxg = graph_to_nx(g)
    apex = 0
    nxg.add_edges_from((apex, v) for v in range(1, g.n + 1))
    ok, _ = nx.check_planarity(nxg)
    return ok


@pytest.mark.parametrize(
    "g,expected",
    [
        (generate("cycle", 7), True),
        (generate("path", 6), True),
        (generate("star", 7), True),
        (FAN_6, True),
        (INNER_TRIANGLE, True),
        (generate("complete", 4), False),
        (generate("complete_bipartite", 2, 3), False),
        (generate("wheel", 4), False),
        (generate("complete", 5), False),
        (generate("complete_bipartite", 3, 3), False),
    ],
)
def test_is_outerplanar_named_cases(g, expected):
    assert is_outerplanar(g) is expected


def test_subdivided_obstructions_are_still_rejected():
    k4 = generate("complete", 4)
    assert not is_outerplanar(subdivide(subdivide(k4, (1, 2)), (3, 4)))
    k23 = generate("complete_bipartite", 2, 3)
    assert not is_outerplanar(subdivide(k23, (1, 3)))


def test_is_outerplanar_agrees_with_planarity_oracle():
    for g in connected_catalog(7):
        assert is_outerplanar(g) == nx_is_outerplanar(g), g.sorted_edges


def test_is_outerplanar_agrees_with_oracle_on_relabelled_samples():
    # Larger than the catalog, so the peel runs deep. Extra edges, some of
    # them subdivided, reach the edge bound, a peel that gets stuck, and a
    # candidate cycle that fails the certificate.
    rng = random.Random(4051)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(3, 40)
        g = generate("random_outerplanar", n, seed=rng.getrandbits(63))
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(range(1, g.n + 1), 2)
            if not g.has_edge(a, b):
                g = add_edge(g, (a, b))
                if rng.random() < 0.5:
                    g = subdivide(g, (a, b))
        perm = rng.sample(range(1, g.n + 1), g.n)
        g = permute_vertices(g, dict(zip(range(1, g.n + 1), perm)))
        verdict = is_outerplanar(g)
        assert verdict == nx_is_outerplanar(g), g.sorted_edges
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_recognition_has_no_size_cap():
    assert is_outerplanar(generate("cycle", 33))

    n = 1500
    fan = from_edge_list(n, [*generate("cycle", n).edges, *((1, k) for k in range(3, n))])
    s = outer_structure(fan)
    assert s.outer_cycle == tuple(range(1, n + 1))
    assert len(s.chords) == n - 3
    assert ewd_degrees(s) == [3] * (n - 2)

    g = generate("random_outerplanar", 600, seed=3)
    result = nvol(g)
    assert result.trace.rule == "outerplanar-formula"
    assert result.trace.children == ()
    assert (result.value, False) == nvol_outerplanar(g)


def test_outer_structure_requires_two_connected():
    with pytest.raises(NotTwoConnectedError):
        outer_structure(generate("path", 4))
    with pytest.raises(NotTwoConnectedError):
        outer_structure(generate("path", 2))


def test_outer_structure_rejects_non_outerplanar():
    with pytest.raises(NotOuterplanarError):
        outer_structure(generate("complete", 4))


def test_outer_structure_golden_serialization():
    s = outer_structure(add_edge(generate("cycle", 5), (1, 3)))
    assert s.serialize() == (
        "outer-cycle: 1 2 3 4 5\n"
        "chords: 1-3\n"
        "face: vertices=1 2 3 length=3 outer=2\n"
        "face: vertices=1 3 4 5 length=4 outer=3\n"
    )
    assert ewd_degrees(s) == [3, 4]


def test_outer_structure_on_plain_cycle():
    s = outer_structure(generate("cycle", 6))
    assert s.outer_cycle == (1, 2, 3, 4, 5, 6)
    assert s.chords == ()
    assert ewd_degrees(s) == [6]


def test_outer_structure_invariants_on_random_samples(rng):
    for _ in range(25):
        n = rng.randint(3, 10)
        g = generate("random_outerplanar", n, seed=rng.getrandbits(63))
        s = outer_structure(g)
        s.validate()
        assert len(s.faces) == len(s.chords) + 1
        assert sum(f.outer_edges for f in s.faces) == n
        assert sum(f.boundary_length for f in s.faces) == n + 2 * len(s.chords)
        # structure edges reproduce the input graph exactly
        cyc = s.outer_cycle
        edges = {tuple(sorted((cyc[i], cyc[(i + 1) % n]))) for i in range(n)}
        edges.update(tuple(sorted(c)) for c in s.chords)
        assert edges == set(g.sorted_edges)


def test_formula_on_cycles_matches_closed_form():
    for n in range(3, 11):
        value, conjectural = nvol_outerplanar(generate("cycle", n))
        assert value == nvol_cycle(n)
        assert conjectural is False


def test_formula_on_chorded_cycle():
    value, conjectural = nvol_outerplanar(add_edge(generate("cycle", 5), (1, 3)))
    assert (value, conjectural) == (48, False)
    assert count(add_edge(generate("cycle", 5), (1, 3))) == 48


def test_formula_multiplies_over_blocks():
    two_triangles_bridge = from_edge_list(
        6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)]
    )
    value, conjectural = nvol_outerplanar(two_triangles_bridge)
    assert (value, conjectural) == (72, False)
    assert count(two_triangles_bridge) == 72


def test_formula_flags_fully_interior_face_as_conjectural():
    assert is_two_connected(INNER_TRIANGLE)
    value, conjectural = nvol_outerplanar(INNER_TRIANGLE)
    assert conjectural is True
    assert value == count(INNER_TRIANGLE) == 162


def test_face_product_equals_oracle_on_interior_faces(rng):
    # the cases docs/edge-identity.md proves and the flag still marks
    # conjectural: blocks with a face that has no outer edge
    catalog = [
        g for g in connected_catalog(7)
        if is_two_connected(g) and is_outerplanar(g) and nvol_outerplanar(g)[1]
    ]
    assert len(catalog) == 3
    samples = []
    while len(samples) < 24:
        n = rng.randint(6, 12)
        g = generate("random_outerplanar", n, seed=rng.getrandbits(63))
        if nvol_outerplanar(g)[1]:
            samples.append(g)
    assert max(g.n for g in samples) == 12
    for g in catalog + samples:
        assert nvol_outerplanar(g) == (count(g), True), g.sorted_edges


def test_formula_matches_oracle_on_random_samples(rng):
    for _ in range(30):
        n = rng.randint(3, 9)
        g = generate("random_outerplanar", n, seed=rng.getrandbits(63))
        value, conjectural = nvol_outerplanar(g)
        if not conjectural:
            assert value == count(g)


def test_nvol_outerplanar_rejects_non_outerplanar_input():
    with pytest.raises(NotOuterplanarError):
        nvol_outerplanar(generate("wheel", 5))
