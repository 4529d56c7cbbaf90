from __future__ import annotations

import itertools
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
    _block_value,
    _structure,
    is_outerplanar,
    nvol_outerplanar,
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
    # n - 2 triangles: 2^(n - (n - 2) - 1) * 3^(n - 2)
    assert _block_value(fan) == (2 * 3 ** (n - 2), False)

    g = generate("random_outerplanar", 600, seed=3)
    result = nvol(g)
    assert result.trace.rule == "outerplanar-formula"
    assert result.trace.children == ()
    assert (result.value, False) == nvol_outerplanar(g)


def _structure_edges(found):
    """The edges that _structure's outer cycle and faces describe, and the
    number of chords, after checking pairwise that no two chords cross.

    Test-side oracle, apart from the sweep's stack of open chords: each
    face's boundary steps between consecutive positions, wrapping round; a
    step to a neighbouring position on the cycle is a cycle edge, any other
    step a chord, and O(chords^2) comparisons look for a crossing pair.
    """
    cycle, faces = found
    n = len(cycle)
    steps = set()
    for positions, _ in faces:
        for i in range(len(positions)):
            steps.add(tuple(sorted((positions[i - 1], positions[i]))))
    chords = [(p, q) for p, q in steps if q - p not in (1, n - 1)]
    for (a, b), (c, d) in itertools.combinations(chords, 2):
        assert not (a < c < b < d or c < a < d < b), ((a, b), (c, d))
    return {tuple(sorted((cycle[p], cycle[q]))) for p, q in steps}, len(chords)


def test_outer_structure_rejects_non_outerplanar():
    assert _structure(generate("complete", 4)) is None
    assert _block_value(generate("complete", 4)) is None


def test_outer_structure_golden_positions():
    assert _structure(add_edge(generate("cycle", 5), (1, 3))) == (
        [1, 2, 3, 4, 5],
        [([0, 1, 2], 2), ([0, 2, 3, 4], 3)],
    )


def test_outer_structure_on_plain_cycle():
    assert _structure(generate("cycle", 6)) == ([1, 2, 3, 4, 5, 6], [([0, 1, 2, 3, 4, 5], 6)])


def test_outer_structure_invariants_on_random_samples(rng):
    for _ in range(25):
        n = rng.randint(3, 10)
        g = generate("random_outerplanar", n, seed=rng.getrandbits(63))
        cycle, faces = found = _structure(g)
        assert sorted(cycle) == list(range(1, n + 1))
        edges, chords = _structure_edges(found)
        assert len(faces) == chords + 1
        assert sum(outer for _, outer in faces) == n
        assert sum(len(positions) for positions, _ in faces) == n + 2 * chords
        # structure edges reproduce the input graph exactly
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


def _value_from_structure(g):
    """_block_value recomputed from _structure's raw positions, or None.

    Each face's outer edges are also recounted from its positions: the
    consecutive pairs, wrapping round, that are neighbours on the cycle.
    """
    found = _structure(g)
    if found is None:
        return None
    faces = found[1]
    n = g.n
    value = 2 ** (n - len(faces) - 1)
    for positions, outer in faces:
        k = len(positions)
        assert outer == sum((positions[i] - positions[i - 1]) % n in (1, n - 1) for i in range(k))
        value *= k
    return value, any(outer == 0 for _, outer in faces)


def test_block_value_matches_outer_structure():
    blocks = [g for g in connected_catalog(7) if g.n >= 3 and is_two_connected(g)]
    rng = random.Random(6060)
    blocks += [
        generate("random_outerplanar", n, seed=rng.getrandbits(63))
        for n in range(6, 61) for _ in range(4)
    ]
    named = [
        generate("complete", 4),
        generate("complete_bipartite", 2, 3),
        generate("wheel", 5),
        generate("wheel", 8),
        # the triangular and pentagonal prisms
        from_edge_list(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]),
        from_edge_list(10, [*generate("cycle", 5).edges,
                            *((u + 5, v + 5) for u, v in generate("cycle", 5).edges),
                            *((i, i + 5) for i in range(1, 6))]),
    ]
    outcomes = {"rejected": 0, "interior": 0, "all outer": 0}
    for g in blocks + named:
        expected = _value_from_structure(g)
        assert _block_value(g) == expected, g.sorted_edges
        if expected is None:
            outcomes["rejected"] += 1
        else:
            outcomes["interior" if expected[1] else "all outer"] += 1
    assert all(_block_value(g) is None for g in named)
    assert min(outcomes.values()) >= 6, outcomes
    assert _block_value(generate("path", 2)) == (2, False)
