from __future__ import annotations

import json
import math
import re
import sys
import time
from dataclasses import replace

import pytest
from click.testing import CliRunner

from pqvol import cli, draconian, recurrence
from pqvol.draconian import ResourceCapExceeded, count, enumerate_draconian
from pqvol.graphs import (
    add_edge,
    delete_edge,
    disjoint_union,
    from_edge_list,
    generate,
    graph_fingerprint,
    is_connected,
    is_two_connected,
    permute_vertices,
    subdivide,
    triangle_join,
    write_edge_list,
)
from pqvol.recurrence import (
    clear_memo,
    edge_step,
    nvol,
    nvol_complete_minus_matching,
    nvol_cycle,
    nvol_forest,
    nvol_k2m,
    replay_trace,
    serialize_trace,
    stirling2,
    stirling_identity_check,
    subdivision_step,
    trace_rows,
    triangle_step,
    wheel_conjecture_value,
)

from conftest import THREE_SUN, connected_catalog

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
    # a subdivision needs connectivity only too: here e is a bridge, so
    # g minus e is disconnected and 8 = 2 * 4 + 0
    ident, _ = subdivision_step(generate("path", 3), (1, 2))
    assert ident.holds
    assert (ident.transformed_count, ident.base_count, ident.deleted_count) == (8, 4, 0)
    with pytest.raises(ValueError):
        subdivision_step(generate("complete", 4), (1, 2))
    with pytest.raises(ValueError):
        subdivision_step(generate("cycle", 4), (1, 3))  # edge missing
    with pytest.raises(ValueError):
        triangle_step(generate("complete", 4), (1, 2))
    # a triangle join needs connectivity only, not 2-connectivity
    ident, _ = triangle_step(generate("path", 3), (1, 2))
    assert ident.holds


def test_degree_two_endpoint_tie_break():
    ident, _ = subdivision_step(generate("cycle", 4), (1, 2))
    assert ident.holds


def test_witnesses_cover_every_degree_two_endpoint_up_to_6():
    # every edge of every connected graph with n <= 6, at each endpoint of
    # degree 2, by both steps. The steps take the smaller-labelled degree-2
    # endpoint, so the larger one is reached by swapping the edge's two labels.
    steps = [(triangle_step, triangle_join), (subdivision_step, subdivide)]
    cases = 0
    for g in connected_catalog(6):
        for e in g.sorted_edges:
            a, b = e
            swap = {v: v for v in range(1, g.n + 1)} | {a: b, b: a}
            for u in e:
                if g.degree(u) != 2:
                    continue
                h = g if u == a else permute_vertices(g, swap)
                for step, transform in steps:
                    ident, wit = step(h, e)
                    target = enumerate_draconian(transform(h, e)).entry_set()
                    assert ident.holds and ident.transformed_count == len(target)
                    assert wit.is_exact_cover_of(target), (g.sorted_edges, e, u)
                    cases += 1
    assert cases == 944


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


def test_samplers_draw_eligible_pairs_and_check_2_connectivity_once(monkeypatch, rng):
    from pqvol import graphs, sampling

    calls = {}
    seen = []  # keeps every checked graph alive, so no id() is reused

    def counted(g):
        calls[id(g)] = calls.get(id(g), 0) + 1
        seen.append(g)
        return graphs.is_two_connected(g)

    monkeypatch.setattr(sampling, "is_two_connected", counted)
    subdivision_pairs = [sampling.sample_subdivision_pair(rng, 8) for _ in range(20)]
    triangle_pairs = [sampling.sample_triangle_pair(rng, 8) for _ in range(20)]
    assert max(calls.values()) == 1
    monkeypatch.undo()
    assert all(is_two_connected(g) for g, _ in subdivision_pairs)
    assert all(is_connected(g) for g, _ in triangle_pairs)
    for g, (a, b) in subdivision_pairs + triangle_pairs:
        assert g.has_edge(a, b) and a < b and 2 in (g.degree(a), g.degree(b))


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
    assert header == "# trace v3"
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
            k = int(re.fullmatch(r".* \[x=\d+ k=(\d+)\](?: <-.*)?", line)[1])
            value = 2 ** (k - 1) * (got[0] + (k - 1) * got[1])
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
    # wheel:18 has no degree-2 vertex, so both strategies reach an
    # enumeration leaf on all 19 vertices; a refused step is never memoized
    clear_memo()
    g = generate("wheel", 18)
    for strategy in ("auto", "enumerate", "auto"):
        with pytest.raises(ResourceCapExceeded, match="19 vertices exceeds the cap of 18"):
            nvol(g, strategy=strategy)


def _subdivided_k4(times):
    # K4 whose edge 1-2 becomes a path: each step subdivides the edge between
    # vertex 1 and the newest vertex, so 5..4+times form one degree-2 thread
    g, newest = generate("complete", 4), 2
    for _ in range(times):
        g = subdivide(g, (1, newest))
        newest = g.n
    return g


def _stacked_triangles(times):
    # K4 with edge 1-2 subdivided by vertex 5, then `times` triangles, each
    # joined on vertex 1 and the newest vertex, so reverse triangle steps
    # nest `times` deep above the subdivided K4
    g, newest = _subdivided_k4(1), 5
    for _ in range(times):
        g = triangle_join(g, (1, newest))
        newest = g.n
    return g


def _first_child_rules(node):
    rules = []
    while node.children:
        rules.append(node.rule)
        node = node.children[0]
    return rules


def test_deep_reverse_move_chain_needs_no_recursion():
    g = _stacked_triangles(200)
    clear_memo()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        res = nvol(g)
        replayed = replay_trace(res.trace)
        chain = nvol(_subdivided_k4(200))
        chain_replayed = replay_trace(chain.trace)
    finally:
        sys.setrecursionlimit(limit)
    assert _first_child_rules(res.trace) == ["reverse-triangle"] * 200
    # the subdivided K4 is 2 * 20 + 18: K4 and K4 minus an edge
    assert res.value == replayed == 3**200 * 58
    want = 2924627240551362301486371008060915936590409448684682960248504320
    assert chain.value == chain_replayed == want


def test_deep_trace_writers_need_no_recursion(tmp_path):
    g = _stacked_triangles(200)
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
    assert header == "# trace v3"
    assert len(rows) == len(distinct)
    assert sum(" reverse-triangle " in row for row in rows) == 200
    root = f"n{len(rows) - 1} {trace.rule} {trace.fingerprint} value={trace.value} "
    assert rows[-1].startswith(root)
    assert result.exit_code == 0, result.output[-500:]
    payload = json.loads(result.output)
    nodes = payload["trace"]["nodes"]
    assert payload["trace"]["version"] == 3
    assert len(nodes) == len(distinct)
    assert payload["value"] == nodes[-1]["value"] == trace.value
    assert result.output.count('"rule": ') == len(distinct)
    # only reverse-subdivision rows carry a thread length, and there are none
    assert not any("k" in n for n in nodes)


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

    trace = nvol(_stacked_triangles(40)).trace
    with pytest.raises(ValueError, match="trace mismatch"):
        replay_trace(corrupt(trace, 30))
    with pytest.raises(ValueError, match="unknown combination rule"):
        replay_trace(replace(trace, rule="guess"))


def test_replay_reads_the_thread_length_from_its_field():
    trace = nvol(_subdivided_k4(40)).trace
    assert (trace.rule, trace.detail, trace.k) == ("reverse-subdivision", "x=5 k=40", 40)
    assert trace_rows(trace)[-1]["k"] == 40
    # the detail is free text: replay neither parses nor needs it
    assert replay_trace(replace(trace, detail="")) == trace.value
    for k in (39, 41):
        with pytest.raises(ValueError, match="trace mismatch"):
            replay_trace(replace(trace, k=k))
    with pytest.raises(ValueError, match="thread length"):
        replay_trace(replace(trace, k=None))


def test_thread_chain_plans_in_a_few_steps(monkeypatch):
    # one reverse-subdivision step for the whole 600-vertex thread, then the
    # subdivided K4 and K4 minus an edge
    steps = []
    real_step = recurrence._step

    def counted(g, *args):
        steps.append(g.n)
        return real_step(g, *args)

    monkeypatch.setattr(recurrence, "_step", counted)
    g = _subdivided_k4(600)
    clear_memo()
    start = time.perf_counter()
    res = nvol(g)
    elapsed = time.perf_counter() - start
    assert len(steps) <= 5
    assert elapsed < 0.5
    assert (res.trace.rule, res.trace.k) == ("reverse-subdivision", 600)
    assert res.value == replay_trace(res.trace) == (58 + 599 * 18) << 599


def test_plan_walks_each_step_once(monkeypatch):
    # one Hopcroft-Tarjan walk per planner step gives both the component and
    # the block split
    steps, walks = [], []
    real_step, real_walk = recurrence._step, recurrence._hopcroft_tarjan

    def counted_step(g, *args):
        steps.append(g.n)
        return real_step(g, *args)

    def counted_walk(g):
        walks.append(g.n)
        return real_walk(g)

    monkeypatch.setattr(recurrence, "_step", counted_step)
    monkeypatch.setattr(recurrence, "_hopcroft_tarjan", counted_walk)
    glued = from_edge_list(7, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6), (6, 7)])
    inputs = [
        disjoint_union(glued, THREE_SUN),
        generate("random_outerplanar", 40, seed=7),
        generate("complete_bipartite", 2, 5),
        generate("complete", 1),
    ]
    rules = set()
    clear_memo()
    for g in inputs:
        res = nvol(g)
        rules |= {row["rule"] for row in trace_rows(res.trace)}
    assert walks == steps and len(steps) > 20
    assert {"component-product", "block-product", "reverse-ear", "reverse-subdivision",
            "outerplanar-formula", "closed-form:vertex"} <= rules
    assert "enumeration" not in rules  # draconian.count checks connectivity itself


def test_reverse_move_walk_stops_on_a_cycle():
    # closed-form:cycle fires first in the planner; the walk must end anyway
    assert recurrence._reverse_move(generate("cycle", 7)) is None


def _thread_length(g, x):
    """Size of the component of x among the degree-2 vertices of g."""
    seen, stack = {x}, [x]
    while stack:
        for y in g.neighbors(stack.pop()):
            if g.degree(y) == 2 and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen)


def _check_thread_rows(trace):
    rows = trace_rows(trace)
    for row in rows:
        if row["rule"] == "reverse-subdivision":
            g1, h = (rows[c] for c in row["children"])
            # G_1 keeps one of the k thread vertices, H none of them
            assert row["n"] - g1["n"] + 1 == row["n"] - h["n"] == row["k"]
            assert row["detail"].endswith(f" k={row['k']}")
        else:
            assert "k" not in row


def test_thread_rule_matches_enumeration_on_the_catalog():
    checked = 0
    for g in connected_catalog(7):
        degrees = [g.degree(v) for v in range(1, g.n + 1)]
        if not is_two_connected(g) or g.n < 3 or set(degrees) == {2}:
            continue
        if not any(
            g.degree(x) == 2 and any(g.degree(y) == 2 for y in g.neighbors(x))
            for x in range(1, g.n + 1)
        ):
            continue
        res = nvol(g)
        assert res.value == count(g), g.sorted_edges
        _check_thread_rows(res.trace)
        rule, detail, k, kids = recurrence._reverse_move(g)
        if rule != "reverse-subdivision":
            continue
        g1, h = kids
        assert count(g) == 2 ** (k - 1) * (count(g1) + (k - 1) * count(h)), g.sorted_edges
        assert k == _thread_length(g, int(detail.split()[0][2:]))
        checked += 1
    assert checked == 47


def test_thread_rule_on_random_subdivided_graphs(rng):
    from pqvol.sampling import random_two_connected_graph

    for k in (2, 3, 4, 5, 6) * 2:
        # minimum degree 3 leaves the k new vertices as the only thread
        while True:
            base = random_two_connected_graph(rng.randint(4, 11 - k), rng)
            if min(base.degree(v) for v in range(1, base.n + 1)) >= 3:
                break
        (u, end) = rng.choice(base.sorted_edges)
        g = base
        for _ in range(k):
            g = subdivide(g, (u, end))
            end = g.n
        res = nvol(g)
        assert res.value == count(g), g.sorted_edges
        assert (res.trace.rule, res.trace.detail) == ("reverse-subdivision", f"x={base.n + 1} k={k}")
        assert res.trace.k == trace_rows(res.trace)[-1]["k"] == _thread_length(g, base.n + 1) == k
        _check_thread_rows(res.trace)


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


# ---------------------------------------------------------------------------
# the edge identity and the ear rule

def _edge_witness_holds(g, e):
    ident, wit = edge_step(g, e)
    joined = enumerate_draconian(triangle_join(g, e)).entry_set()
    subdivided = enumerate_draconian(subdivide(g, e)).entry_set()
    return ident.holds and wit.is_exact_cover_of(joined - subdivided)


def test_edge_step_on_the_triangle():
    ident, wit = edge_step(generate("cycle", 3), (3, 1))
    assert (ident.kind, ident.transformed_count, ident.subdivided_count) == ("edge", 18, 16)
    assert (ident.base_count, ident.deleted_count, ident.holds) == (6, 4, True)
    # D(C3) minus D(P3) is {(2,0,0), (0,0,2)}; each gains a unit on its side
    assert sorted(wit.set_a) == [((0, 0, 3, 0), (0, 0, 2)), ((3, 0, 0, 0), (2, 0, 0))]
    assert wit.set_b == wit.set_c == ()
    with pytest.raises(ValueError, match="not in graph"):
        edge_step(generate("path", 3), (1, 3))


def test_edge_step_witness_is_an_exact_cover(rng):
    pairs = 0
    for g in connected_catalog(5):
        for e in g.sorted_edges:
            assert _edge_witness_holds(g, e), (g.sorted_edges, e)
            pairs += 1
    assert pairs == 161
    larger = [g for g in connected_catalog(7) if g.n >= 6]
    for _ in range(40):
        g = rng.choice(larger)
        e = rng.choice(g.sorted_edges)
        assert _edge_witness_holds(g, e), (g.sorted_edges, e)


def test_ear_rule_on_the_three_sun():
    res = nvol(THREE_SUN)
    assert (res.trace.rule, res.trace.detail) == ("reverse-ear", "x=4")
    assert [c.value for c in res.trace.children] == [144, 54, 36]
    assert res.value == count(THREE_SUN) == 162
    assert replay_trace(res.trace) == 162


def test_ear_rule_matches_enumeration_on_the_catalog():
    fired = 0
    for g in connected_catalog(7):
        res = nvol(g)
        rows = trace_rows(res.trace)
        if not any(row["rule"] == "reverse-ear" for row in rows):
            continue
        assert res.value == count(g), g.sorted_edges
        assert replay_trace(res.trace) == res.value
        for row in rows:
            if row["rule"] == "reverse-ear":
                cut, rest, both = (rows[c] for c in row["children"])
                assert (cut["n"], cut["m"]) == (row["n"], row["m"] - 1)
                assert (rest["n"], rest["m"]) == (row["n"] - 1, row["m"] - 2)
                assert (both["n"], both["m"]) == (row["n"] - 1, row["m"] - 3)
        fired += 1
    assert fired == 281


def test_ear_rule_plans_triangular_books():
    # K_{1,1,n}: the ear rule chains down to K_{2,n}, a closed form
    for n in range(2, 41):
        g = add_edge(generate("complete_bipartite", 2, n), (1, 2))
        value = nvol(g).value
        assert value == 2 ** (n - 2) * (n * n + 3 * n + 8), n
        if n <= 8:
            assert value == count(g), n


def test_replay_rejects_corrupted_ear_rows():
    trace = nvol(THREE_SUN).trace
    # the report names the corrupted row by its graph's fingerprint
    fingerprint = graph_fingerprint(THREE_SUN)
    with pytest.raises(ValueError, match=f"mismatch at reverse-ear {fingerprint}: stored 163,"):
        replay_trace(replace(trace, value=trace.value + 1))
    for kids in (trace.children[:2], (*trace.children, trace.children[0])):
        with pytest.raises(ValueError, match="reverse-ear needs 3 children"):
            replay_trace(replace(trace, children=kids))
