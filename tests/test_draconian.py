from __future__ import annotations

import gc
import itertools

import pytest

from pqvol import draconian
from pqvol.draconian import (
    EnumerationConfig,
    ResourceCapExceeded,
    check_flow,
    check_subset,
    count,
    enumerate_draconian,
    sequences_to_text,
)
from pqvol.graphs import (
    build_double,
    connected_components,
    disjoint_union,
    from_edge_list,
    generate,
    permute_vertices,
)

from conftest import compositions, connected_catalog


def test_star_listing_is_byte_exact():
    star = from_edge_list(4, [(1, 2), (2, 3), (2, 4)])
    got = enumerate_draconian(star)
    expected = [
        (0, 1, 1, 1),
        (0, 2, 0, 1),
        (0, 2, 1, 0),
        (0, 3, 0, 0),
        (1, 0, 1, 1),
        (1, 1, 0, 1),
        (1, 1, 1, 0),
        (1, 2, 0, 0),
    ]
    assert got.entry_tuples() == tuple(expected)
    assert got.to_text() == sequences_to_text(expected)
    assert got.count == 8


def test_triangle_sequences():
    got = enumerate_draconian(generate("cycle", 3)).entry_set()
    assert got == {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)}


@pytest.mark.parametrize(
    "g,expected",
    [
        (generate("complete", 1), 1),
        (generate("path", 2), 2),
        (generate("cycle", 4), 16),
        (generate("complete", 4), 20),
    ],
)
def test_small_counts(g, expected):
    assert count(g) == expected


def test_disconnected_graph_has_no_sequences():
    two_edges = disjoint_union(generate("path", 2), generate("path", 2))
    assert enumerate_draconian(two_edges).count == 0
    assert count(two_edges) == 0


def test_all_enumerated_sequences_satisfy_both_checkers():
    g = generate("wheel", 4)
    d = build_double(g)
    ds = enumerate_draconian(g)
    assert ds.count == 66
    for s in ds:
        assert sum(s) == g.n - 1
        assert check_subset(d, s)
        assert check_flow(d, s)


def test_count_is_invariant_under_relabeling(rng):
    g = generate("wheel", 4)
    base = count(g)
    labels = list(range(1, g.n + 1))
    for _ in range(5):
        rng.shuffle(labels)
        perm = {i + 1: labels[i] for i in range(g.n)}
        assert count(permute_vertices(g, perm)) == base


@pytest.mark.parametrize("checker", [check_subset, check_flow])
def test_checkers_validate_input(checker):
    d = build_double(generate("cycle", 3))
    with pytest.raises(ValueError):
        checker(d, (1, 1))
    with pytest.raises(ValueError):
        checker(d, (1, 1, -1))


def test_checkers_accept_graph_argument():
    g = generate("cycle", 3)
    assert check_subset(g, (1, 1, 0)) == check_flow(g, (1, 1, 0)) is True
    assert check_subset(g, (2, 0, 0)) == check_flow(g, (2, 0, 0)) is True
    assert check_subset(g, (0, 0, 0)) == check_flow(g, (0, 0, 0)) is False


def test_checker_equivalence_on_small_catalog():
    for g in connected_catalog(5):
        d = build_double(g)
        for comp in compositions(g.n - 1, g.n):
            assert check_subset(d, comp) == check_flow(d, comp)


def test_cluster_fallback_matches_vectorized_path(monkeypatch, rng):
    for _ in range(30):
        n = rng.randint(2, 7)
        from pqvol.sampling import random_connected_graph

        g = random_connected_graph(n, rng)
        d = build_double(g)
        seq = [0] * n
        for _ in range(n - 1):
            seq[rng.randrange(n)] += 1
        fast = check_subset(d, seq)
        monkeypatch.setattr(draconian, "_VECTOR_LIMIT", 0)
        d_fresh = build_double(g)
        assert check_subset(d_fresh, seq) == fast
        monkeypatch.undo()


def test_config_validation_and_cap():
    with pytest.raises(ValueError):
        EnumerationConfig(max_n=0)
    with pytest.raises(ResourceCapExceeded):
        count(generate("complete", 19))
    cfg = EnumerationConfig(max_n=19)
    small = EnumerationConfig(max_n=4)
    assert count(generate("cycle", 4), config=small) == 16
    with pytest.raises(ResourceCapExceeded):
        count(generate("cycle", 5), config=small)
    assert cfg.max_n == 19


def test_subset_leaf_checker_agrees_with_flow():
    # the enumerator accepts each value by a look-ahead augmentation; the
    # subset oracle must pick out the same sequences from all compositions,
    # in the same order
    g = generate("wheel", 5)
    d = build_double(g)
    want = tuple(c for c in compositions(g.n - 1, g.n) if check_subset(d, c))
    assert enumerate_draconian(g).entry_tuples() == want


def test_listings_equal_the_subset_filter_on_every_labelled_graph_up_to_5():
    graphs = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = from_edge_list(n, [p for k, p in enumerate(pairs) if bits >> k & 1])
            if len(connected_components(g)) == 1:
                graphs.append(g)
    assert len(graphs) == 772
    for g in graphs:
        d = build_double(g)
        want = tuple(c for c in compositions(g.n - 1, g.n) if check_subset(d, c))
        assert enumerate_draconian(g).entry_tuples() == want


@pytest.mark.parametrize(
    "g", [generate("cycle", 9), generate("wheel", 6), generate("complete_bipartite", 2, 5)]
)
def test_search_checks_no_leaf_after_the_fact(monkeypatch, g):
    d = build_double(g)
    want = tuple(c for c in compositions(g.n - 1, g.n) if check_subset(d, c))

    def no_leaf_check(*_args):
        raise AssertionError("the search must not test a leaf after reaching it")

    monkeypatch.setattr(draconian, "_all_reach_free", no_leaf_check)
    assert enumerate_draconian(g).entry_tuples() == want
    assert count(g) == len(want)
    for workers in (2, 64):
        prefixes = draconian._shard_prefixes(d, workers)
        parts = [draconian._dfs_run(d, p, True) for p in prefixes]
        assert tuple(s for part in parts for s in part) == want
        assert sum(draconian._dfs_run(d, p, False) for p in prefixes) == len(want)


@pytest.mark.parametrize("g", [generate("wheel", 5), generate("complete", 5), generate("star", 6)])
def test_worker_counts_agree_byte_for_byte(g):
    texts = {w: enumerate_draconian(g, workers=w).to_text() for w in (1, 2, 8)}
    assert texts[1] == texts[2] == texts[8]
    assert count(g, workers=8) == enumerate_draconian(g).count


def test_pool_size_is_clamped_to_cpu_count(monkeypatch):
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(draconian, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(draconian.os, "cpu_count", lambda: 2)
    g = generate("wheel", 6)
    assert count(g, workers=64) == count(g)
    assert requested == [2]


@pytest.mark.parametrize(
    "g",
    [
        generate("cycle", 7),
        generate("wheel", 5),
        generate("star", 6),
        generate("complete_bipartite", 2, 4),
    ],
)
@pytest.mark.parametrize("workers", [2, 64])
def test_forced_prefix_runs_match_the_serial_listing(g, workers):
    # one- and two-coordinate prefixes, some with no completion, each forced
    # through the search loop in-process, so no pool starts
    d = build_double(g)
    serial = draconian._dfs_run(d, (), True)
    prefixes = draconian._shard_prefixes(d, workers)
    parts = [draconian._dfs_run(d, p, True) for p in prefixes]
    for p, part in zip(prefixes, parts):
        assert part == [s for s in serial if s[: len(p)] == p]
        assert draconian._dfs_run(d, p, False) == len(part)
    assert [s for part in parts for s in part] == serial


def test_listings_are_freed_without_the_cyclic_collector():
    g = generate("wheel", 8)
    gc.collect()
    gc.disable()
    try:
        ds = enumerate_draconian(g)
        assert ds.count == 6306
        del ds
        assert count(g) == 6306
        assert gc.collect() == 0
    finally:
        gc.enable()
