from __future__ import annotations

import json
import math
import re
import sys
import time
from dataclasses import replace

import pytest
from click.testing import CliRunner

from pqvol import cli, draconian
from pqvol.draconian import EnumerationConfig, ResourceCapExceeded, count, enumerate_draconian
from pqvol.graphs import (
    delete_edge,
    disjoint_union,
    from_edge_list,
    generate,
    is_two_connected,
    subdivide,
    triangle_join,
    write_edge_list,
)
from pqvol.recurrence import (
    clear_memo,
    nvol,
    nvol_complete_minus_matching,
    nvol_cycle,
    nvol_forest,
    nvol_k2m,
    replay_trace,
    serialize_trace,
    stirling2,
    stirling_identity_check,
    subdivision_eligible,
    subdivision_step,
    triangle_eligible,
    triangle_step,
    wheel_conjecture_value,
)

from conftest import connected_catalog

# the 4-vertex diamond-plus-edge on which both naive recurrence guesses fail
QUARTET_BASE = from_edge_list(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
QUARTET_EDGE = (1, 3)


def test_closed_form_values():
    assert nvol_forest(4, 1) == 8
    assert nvol_forest(6, 3) == 8
    assert nvol_cycle(3) == 6
    assert nvol_cycle(4) == 16
    assert nvol_complete_minus_matching(4, 0) == 20
    assert nvol_complete_minus_matching(6, 2) == 248
    assert nvol_k2m(5) == 50
    assert wheel_conjecture_value(6) == 666


def test_k2m_n3_equals_path_value():
    # K_{2,1} is a path on three vertices, so the forest value applies
    assert nvol_k2m(3) == 4 == nvol_forest(3, 1)


@pytest.mark.parametrize(
    "fn,args",
    [
        (nvol_forest, (0, 1)),
        (nvol_forest, (4, 0)),
        (nvol_forest, (4, 5)),
        (nvol_cycle, (2,)),
        (nvol_complete_minus_matching, (2, 0)),
        (nvol_complete_minus_matching, (4, 3)),
        (nvol_complete_minus_matching, (4, -1)),
        (nvol_k2m, (2,)),
    ],
)
def test_closed_forms_reject_bad_arguments(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_stirling_numbers():
    assert stirling2(4, 2) == 7
    assert stirling2(4, 3) == 6
    assert stirling2(5, 1) == 1
    assert stirling2(5, 5) == 1
    assert stirling2(3, 0) == 0


def test_wheel_value_matches_stirling_identity():
    assert all(stirling_identity_check(n) for n in range(3, 30))
    n = 7
    assert (
        wheel_conjecture_value(n)
        == 2 * stirling2(n + 1, 3) + stirling2(n + 1, 2) + stirling2(n + 1, 1)
    )


def test_eligibility_predicates():
    c3 = generate("cycle", 3)
    assert subdivision_eligible(c3, (1, 3))
    assert triangle_eligible(c3, (1, 3))
    p3 = generate("path", 3)
    assert not subdivision_eligible(p3, (1, 2))  # not 2-connected
    assert triangle_eligible(p3, (1, 2))
    k4 = generate("complete", 4)
    assert not subdivision_eligible(k4, (1, 2))  # no degree-2 endpoint
    assert not triangle_eligible(k4, (1, 2))


def test_subdivision_step_witness_sets():
    ident, wit = subdivision_step(generate("cycle", 3), (1, 3))
    assert ident.holds
    assert (ident.transformed_count, ident.base_count, ident.deleted_count) == (16, 6, 4)
    assert wit.images_a() == {
        (2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1),
        (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1),
    }
    assert wit.images_b() == {(1, 2, 0, 0), (2, 1, 0, 0), (2, 0, 1, 0), (1, 1, 1, 0)}
    assert wit.images_c() == {
        (1, 0, 0, 2), (1, 0, 2, 0), (0, 1, 0, 2),
        (0, 0, 1, 2), (0, 1, 2, 0), (0, 2, 1, 0),
    }
    target = enumerate_draconian(subdivide(generate("cycle", 3), (1, 3))).entry_set()
    assert wit.is_exact_cover_of(target)


def test_triangle_step_witness_sets():
    ident, wit = triangle_step(generate("cycle", 3), (1, 3))
    assert ident.holds
    assert (ident.transformed_count, ident.base_count) == (18, 6)
    assert wit.images_b() == {
        (3, 0, 0, 0), (1, 2, 0, 0), (1, 0, 2, 0),
        (2, 1, 0, 0), (2, 0, 1, 0), (1, 1, 1, 0),
    }
    assert wit.images_c() == {
        (1, 0, 0, 2), (0, 2, 1, 0), (0, 0, 3, 0),
        (0, 1, 0, 2), (0, 0, 1, 2), (0, 1, 2, 0),
    }
    assert len(wit.images_a()) + len(wit.images_b()) + len(wit.images_c()) == 18
    target = enumerate_draconian(triangle_join(generate("cycle", 3), (1, 3))).entry_set()
    assert wit.is_exact_cover_of(target)


def test_step_hypothesis_violations_raise():
    with pytest.raises(ValueError):
        subdivision_step(generate("path", 3), (1, 2))
    with pytest.raises(ValueError):
        subdivision_step(generate("complete", 4), (1, 2))
    with pytest.raises(ValueError):
        subdivision_step(generate("cycle", 4), (1, 3))  # edge missing
    with pytest.raises(ValueError):
        triangle_step(generate("complete", 4), (1, 2))
    with pytest.raises(ValueError):
        # explicit u must be an endpoint of degree 2
        subdivision_step(QUARTET_BASE, (2, 3), u=3)


def test_degree_two_endpoint_tie_break():
    ident, _ = subdivision_step(generate("cycle", 4), (1, 2))
    assert ident.holds


def test_witnesses_cover_every_degree_two_endpoint_up_to_6():
    # every edge of every connected graph with n <= 6, at each endpoint of
    # degree 2: the triangle join always, the subdivision on 2-connected graphs
    cases = 0
    for g in connected_catalog(6):
        steps = [(triangle_step, triangle_join)]
        if is_two_connected(g):
            steps.append((subdivision_step, subdivide))
        for e in g.sorted_edges:
            for u in e:
                if g.degree(u) != 2:
                    continue
                for step, transform in steps:
                    ident, wit = step(g, e, u)
                    target = enumerate_draconian(transform(g, e)).entry_set()
                    assert ident.holds and ident.transformed_count == len(target)
                    assert wit.is_exact_cover_of(target), (g.sorted_edges, e, u)
                    cases += 1
    assert cases == 692


def test_subdivision_step_lists_two_graphs_and_counts_one(monkeypatch):
    calls = {"enumerate_draconian": [], "count": []}
    for name in calls:
        real = getattr(draconian, name)

        def wrapped(g, *args, _real=real, _name=name, **kwargs):
            calls[_name].append(g.n)
            return _real(g, *args, **kwargs)

        monkeypatch.setattr(draconian, name, wrapped)
    ident, _ = subdivision_step(generate("cycle", 5), (1, 2))
    assert ident.holds
    assert calls == {"enumerate_draconian": [5, 5], "count": [6]}


def test_counterexample_family_values():
    e = QUARTET_EDGE
    assert nvol(QUARTET_BASE).value == 18
    assert nvol(delete_edge(QUARTET_BASE, e)).value == 16
    assert nvol(subdivide(QUARTET_BASE, e)).value == 50
    assert nvol(triangle_join(QUARTET_BASE, e)).value == 52
    # the naive two-term and three-term guesses both miss
    assert 2 * 18 + 16 != 50
    assert 3 * 18 != 52


def test_recurrence_identities_on_random_pairs(rng):
    from pqvol.sampling import sample_subdivision_pair, sample_triangle_pair

    for _ in range(15):
        g, e = sample_subdivision_pair(rng, 7)
        assert count(subdivide(g, e)) == 2 * count(g) + count(delete_edge(g, e))
    for _ in range(15):
        g, e = sample_triangle_pair(rng, 7)
        assert count(triangle_join(g, e)) == 3 * count(g)


def test_nvol_on_disconnected_graph_multiplies_components():
    two_triangles = disjoint_union(generate("cycle", 3), generate("cycle", 3))
    res = nvol(two_triangles)
    assert res.value == 36
    assert res.trace.rule == "component-product"
    # the draconian set itself is empty for disconnected graphs
    assert count(two_triangles) == 0


def test_nvol_on_cut_vertex_graph_multiplies_blocks():
    bowtie = from_edge_list(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    res = nvol(bowtie)
    assert res.value == 36
    assert res.trace.rule == "block-product"
    assert count(bowtie) == 36


@pytest.mark.parametrize(
    "g,rule,value",
    [
        (generate("complete", 1), "closed-form:vertex", 1),
        (generate("path", 2), "closed-form:edge", 2),
        (generate("cycle", 6), "closed-form:cycle", 96),
        (generate("complete", 5), "closed-form:complete-minus-matching", 70),
        (generate("complete_minus_matching", 6, 2), "closed-form:complete-minus-matching", 248),
        (generate("complete_bipartite", 2, 4), "closed-form:k2m", 142),
    ],
)
def test_planner_routes_to_closed_forms(g, rule, value):
    res = nvol(g)
    assert (res.trace.rule, res.value) == (rule, value)


def test_planner_uses_outerplanar_formula():
    from pqvol.graphs import add_edge

    g = add_edge(add_edge(generate("cycle", 6), (1, 3)), (1, 4))
    res = nvol(g)
    assert res.trace.rule == "outerplanar-formula"
    assert res.value == count(g)


def test_planner_reverse_moves():
    # pentagon with one chord reduces by a reverse subdivision
    from pqvol.graphs import add_edge

    g = add_edge(generate("cycle", 5), (2, 5))
    res = nvol(g)
    assert res.value == count(g) == 48


def test_enumerate_strategy_matches_auto_and_bypasses_rules():
    g = generate("wheel", 5)
    auto = nvol(g, strategy="auto")
    oracle = nvol(g, strategy="enumerate")
    assert auto.value == oracle.value == 212
    assert oracle.trace.rule == "enumeration"
    with pytest.raises(ValueError):
        nvol(g, strategy="guess")


_TRACE_ROW = re.compile(
    r"n(\d+) (\S+) (g\d+m\d+:[0-9a-f]{12}) value=(\d+)(?: \[[^\]]*\])?((?: <-(?: n\d+)+)?)"
)


def _replay_text(text):
    """Root value of a serialized trace, recombined from the text alone."""
    header, *lines = text.splitlines()
    assert header == "# trace v2"
    values, referenced = [], set()
    for i, line in enumerate(lines):
        row = _TRACE_ROW.fullmatch(line)
        assert row and int(row[1]) == i, line
        rule, stored = row[2], int(row[4])
        kids = [int(c[1:]) for c in row[5].split()[1:]]
        assert all(c < i for c in kids), line
        referenced.update(kids)
        got = [values[c] for c in kids]
        if not kids:
            value = stored
        elif rule in ("component-product", "block-product"):
            value = math.prod(got)
        elif rule == "reverse-subdivision":
            value = 2 * got[0] + got[1]
        else:
            assert rule == "reverse-triangle", line
            value = 3 * got[0]
        assert value == stored, line
        values.append(value)
    # every row but the last is some later row's child: the last is the root
    assert referenced == set(range(len(lines) - 1))
    return values[-1]


def test_trace_serialization_and_replay():
    bowtie = from_edge_list(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    for g in (bowtie, generate("wheel", 4), generate("path", 5), _subdivided_k4(40)):
        res = nvol(g)
        assert replay_trace(res.trace) == res.value
        assert _replay_text(serialize_trace(res.trace)) == res.value
    # identical input, identical serialized trace
    assert serialize_trace(nvol(bowtie).trace) == serialize_trace(nvol(bowtie).trace)


def test_trace_table_bytes_do_not_depend_on_the_memo():
    shared = generate("random_outerplanar", 25, seed=3)
    g = disjoint_union(generate("path", 3), shared)
    clear_memo()
    cold = serialize_trace(nvol(g).trace)
    clear_memo()
    warm = nvol(shared).trace
    trace = nvol(g).trace
    assert any(c is warm for c in trace.children)
    assert serialize_trace(trace) == cold


def test_memo_is_reused_and_clearable():
    clear_memo()
    g = generate("wheel", 4)
    first = nvol(g)
    assert nvol(g).trace is first.trace
    clear_memo()
    assert nvol(g).trace is not first.trace
    assert nvol(g).value == first.value


def test_memo_respects_the_enumeration_cap():
    # wheel:6 has no degree-2 vertex, so the planner enumerates it
    clear_memo()
    g = generate("wheel", 6)
    for strategy in ("auto", "enumerate"):
        assert nvol(g, strategy=strategy).value == 666
        with pytest.raises(ResourceCapExceeded):
            nvol(g, strategy=strategy, config=EnumerationConfig(max_n=4))


def _subdivided_k4(times):
    # K4 whose edge 1-2 becomes a path: each step subdivides the edge between
    # vertex 1 and the newest vertex, so reverse moves nest `times` deep
    g, newest = generate("complete", 4), 2
    for _ in range(times):
        g = subdivide(g, (1, newest))
        newest = g.n
    return g


def test_deep_reverse_move_chain_needs_no_recursion():
    g = _subdivided_k4(200)
    clear_memo()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        res = nvol(g)
        replayed = replay_trace(res.trace)
    finally:
        sys.setrecursionlimit(limit)
    want = 2924627240551362301486371008060915936590409448684682960248504320
    assert res.value == replayed == want


def test_deep_trace_writers_need_no_recursion(tmp_path):
    g = _subdivided_k4(200)
    path = tmp_path / "chain.txt"
    write_edge_list(g, path)
    clear_memo()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        trace = nvol(g).trace
        text = serialize_trace(trace)
        result = CliRunner().invoke(cli.main, ["nvol", str(path), "--json", "--trace"])
    finally:
        sys.setrecursionlimit(limit)
    # each distinct node, told apart by identity, is written once
    distinct, stack = set(), [trace]
    while stack:
        node = stack.pop()
        if id(node) not in distinct:
            distinct.add(id(node))
            stack.extend(node.children)
    header, *rows = text.splitlines()
    assert header == "# trace v2"
    assert len(rows) == len(distinct)
    root = f"n{len(rows) - 1} {trace.rule} {trace.fingerprint} value={trace.value} "
    assert rows[-1].startswith(root)
    assert result.exit_code == 0, result.output[-500:]
    payload = json.loads(result.output)
    nodes = payload["trace"]["nodes"]
    assert payload["trace"]["version"] == 2
    assert len(nodes) == len(distinct)
    assert payload["value"] == nodes[-1]["value"] == trace.value
    assert result.output.count('"rule": ') == len(distinct)


def test_replay_checks_each_shared_node_once():
    trace = nvol(generate("random_outerplanar", 120, seed=7)).trace
    start = time.perf_counter()
    assert replay_trace(trace) == trace.value
    assert time.perf_counter() - start < 0.5


def test_replay_rejects_a_corrupted_deep_node():
    def corrupt(node, depth):
        if depth == 0:
            return replace(node, value=node.value + 1)
        first, *rest = node.children
        return replace(node, children=(corrupt(first, depth - 1), *rest))

    trace = nvol(_subdivided_k4(40)).trace
    with pytest.raises(ValueError, match="trace mismatch"):
        replay_trace(corrupt(trace, 30))
    with pytest.raises(ValueError, match="unknown combination rule"):
        replay_trace(replace(trace, rule="guess"))


def test_oracle_mode_splits_components_only():
    with pytest.raises(ValueError):
        nvol(generate("cycle", 3), strategy="enumerate-only")
    g = disjoint_union(generate("wheel", 4), generate("path", 3))
    res = nvol(g, strategy="enumerate")
    assert res.trace.rule == "component-product"
    assert [(c.rule, c.value) for c in res.trace.children] == [
        ("enumeration", 66),
        ("enumeration", 4),
    ]
    assert res.value == nvol(g).value == 264
