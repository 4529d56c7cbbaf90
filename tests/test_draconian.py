from __future__ import annotations

import gc
import itertools
import multiprocessing
import random
import sys

import pytest

from pqvol import draconian
from pqvol.draconian import (
    MAX_N,
    SUBSET_MAX_N,
    ResourceCapExceeded,
    check_flow,
    check_subset,
    count,
    enumerate_draconian,
)
from pqvol.graphs import (
    build_double,
    connected_components,
    disjoint_union,
    from_edge_list,
    generate,
    permute_vertices,
)
from pqvol.sampling import random_connected_graph

from conftest import THREE_SUN, assert_shards_split, compositions, connected_catalog


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
    assert got.to_text() == (
        "0 1 1 1\n0 2 0 1\n0 2 1 0\n0 3 0 0\n1 0 1 1\n1 1 0 1\n1 1 1 0\n1 2 0 0\n"
    )
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
    # entries must be integers: a float or a string is not rounded or parsed
    for seq in ((2.5, 0, 0), (1.9, 1.2, 0), ("1", "1", "0")):
        with pytest.raises(TypeError):
            checker(d, seq)


def test_checkers_reject_graph_argument():
    # a checker takes the double, built once by the caller, never a graph
    g = generate("cycle", 3)
    for checker in (check_subset, check_flow):
        for arg in (g, g.n, None):
            with pytest.raises(TypeError, match="build_double"):
                checker(arg, (1, 1, 0))
        assert checker(build_double(g), (1, 1, 0)) is True


def test_checker_equivalence_on_small_catalog():
    for g in connected_catalog(5):
        d = build_double(g)
        for comp in compositions(g.n - 1, g.n):
            assert check_subset(d, comp) == check_flow(d, comp)


def test_enumeration_and_subset_caps():
    # the caps are module constants: one vertex past each one raises
    assert (MAX_N, SUBSET_MAX_N) == (18, 22)
    k19 = generate("complete", 19)
    for run in (count, enumerate_draconian):
        with pytest.raises(ResourceCapExceeded, match="19 vertices exceeds the cap of 18"):
            run(k19)
    # disconnected graphs have no sequences whatever their size
    assert count(disjoint_union(generate("cycle", 10), generate("cycle", 10))) == 0
    with pytest.raises(ResourceCapExceeded, match="23 vertices exceeds the cap of 22"):
        check_subset(build_double(generate("cycle", 23)), (1,) * 22 + (0,))


def test_subset_lanes_hold_at_the_cap():
    # a(S) and |N(S)| reach 21 and 22 here, the most a 6-bit lane must hold
    # below its guard bit without borrowing from the next lane
    for n in (SUBSET_MAX_N - 1, SUBSET_MAX_N):
        seq = (n - 1,) + (0,) * (n - 1)
        for family, want in (("complete", True), ("path", False)):
            d = build_double(generate(family, n))
            assert check_subset(d, seq) == check_flow(d, seq) == want
    rng = random.Random(22)
    d = build_double(random_connected_graph(SUBSET_MAX_N, rng))
    for _ in range(10):
        seq = [0] * SUBSET_MAX_N
        for _ in range(SUBSET_MAX_N - 1):
            seq[rng.randrange(SUBSET_MAX_N)] += 1
        assert check_subset(d, seq) == check_flow(d, seq)


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


def test_listings_equal_the_subset_filter_on_every_connected_graph_up_to_6():
    # complete graphs and stars close many prefixes with a zero remainder,
    # some of them forced by a shard prefix that uses up all n - 1 units
    for g in connected_catalog(6):
        d = build_double(g)
        want = [c for c in compositions(g.n - 1, g.n) if check_subset(d, c)]
        assert draconian._dfs_run(d, (), True) == want
        assert count(g) == len(want)
        for workers in (2, 64):
            # a prefix summing past n - 1 has no completion: no shard gets it
            assert all(sum(p) <= g.n - 1 for p in draconian._shard_prefixes(d, workers))
            assert_shards_split(d, want, workers)


def test_shard_prefixes_drop_values_summing_past_n_minus_1():
    # path:3 walks an end vertex (cap 1) and then the middle one (cap 2);
    # (1, 2) sums to 3 and is dropped
    d = build_double(generate("path", 3))
    assert draconian._shard_prefixes(d, 64) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    # forced, such a prefix lists nothing, though its first value leaves
    # no units and would close a zero remainder
    assert draconian._dfs_run(build_double(generate("complete", 3)), (2, 1), True) == []


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
        assert_shards_split(d, list(want), workers)


def test_the_enumerator_shares_no_matching_code_with_the_flow_oracle(monkeypatch):
    # check_flow's Kuhn search is its own; the enumerator runs a bitset kernel
    g = generate("wheel", 6)
    want = enumerate_draconian(g).entry_tuples()

    def oracle_only(*_args):
        raise AssertionError("only check_flow may run _kuhn_augment")

    monkeypatch.setattr(draconian, "_kuhn_augment", oracle_only)
    assert enumerate_draconian(g).entry_tuples() == want
    assert count(g) == len(want)
    d = build_double(g)
    prefixes = draconian._shard_prefixes(d, 64)
    assert sum(draconian._dfs_run(d, p, False) for p in prefixes) == len(want)
    with pytest.raises(AssertionError, match="only check_flow"):
        check_flow(d, want[0])


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

        def shutdown(self):
            pass

    monkeypatch.setattr(draconian, "_executor", SerialPool)
    monkeypatch.setattr(draconian.os, "cpu_count", lambda: 2)
    g = generate("wheel", 6)
    assert count(g, workers=64) == count(g)
    assert requested == [2]


def test_a_one_cpu_host_opens_no_pool(monkeypatch, pool_sizes):
    # workers is clamped to the cpu count before the shards are chosen
    monkeypatch.setattr(draconian.os, "cpu_count", lambda: 1)
    g = generate("wheel", 6)
    assert count(g, workers=2) == 666
    assert enumerate_draconian(g, workers=2).to_text() == enumerate_draconian(g).to_text()
    assert pool_sizes == []


def test_library_calls_outside_a_scope_open_and_close_their_own_pool(pool_sizes):
    g = generate("wheel", 6)
    for _ in range(2):
        assert count(g, workers=2) == 666
        assert multiprocessing.active_children() == []
    assert pool_sizes == [2, 2]
    with draconian.pool_scope(2):
        assert count(g, workers=2) == 666
        assert len(multiprocessing.active_children()) == 2
        with draconian.pool_scope(2):
            assert enumerate_draconian(g, workers=2).count == 666
        assert count(g) == 666
        assert count(g, workers=2) == 666
    assert pool_sizes == [2, 2, 2]
    assert multiprocessing.active_children() == []
    # a scope closes its pool on an exception too
    with pytest.raises(ResourceCapExceeded), draconian.pool_scope(2):
        count(g, workers=2)
        count(generate("cycle", MAX_N + 1), workers=2)
    assert pool_sizes == [2, 2, 2, 2]
    assert multiprocessing.active_children() == []


def test_a_single_shard_prefix_opens_no_pool(pool_sizes):
    # path:1 has one prefix, (0,), so there is nothing to share out
    g = generate("path", 1)
    assert count(g, workers=2) == 1
    assert enumerate_draconian(g, workers=2).to_text() == "0\n"
    assert pool_sizes == []


@pytest.mark.parametrize(
    "g",
    [
        generate("cycle", 7),
        generate("wheel", 5),
        generate("star", 6),
        generate("complete_bipartite", 2, 4),
        # relabelled so that the search walks the cycle as 1, 3, 5, ...: a
        # two-position shard fixes labels 1 and 3, so its entries are no
        # contiguous block of the serial listing
        permute_vertices(generate("cycle", 9), {i: 2 * i % 9 + 1 for i in range(1, 10)}),
        # n = 2: the serial root is position n - 1, settled with n in one
        # loop, and every prefix forces it
        generate("path", 2),
        # n = 3 at 64 workers: the two-position prefix forces position
        # n - 1, so n is searched on its own
        generate("path", 3),
        generate("complete", 3),
    ],
)
@pytest.mark.parametrize("workers", [2, 64])
def test_forced_prefix_runs_match_the_serial_listing(g, workers):
    # one- and two-position prefixes, some with no completion, each forced
    # through the search loop in-process, so no pool starts
    d = build_double(g)
    assert_shards_split(d, draconian._dfs_run(d, (), True), workers)


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


def test_catalog_count_total_up_to_7():
    # every connected graph with n <= 7, one per isomorphism class
    assert sum(count(g) for g in connected_catalog(7)) == 421_461


def _relabelled(g, seed):
    image = list(range(1, g.n + 1))
    random.Random(seed).shuffle(image)
    return permute_vertices(g, dict(zip(range(1, g.n + 1), image)))


# name, graph, sequence count, the serial augment and path calls, and the
# relabelling seeds that must cost exactly as much
_EFFORT_PINS = [
    ("cycle:13", generate("cycle", 13), 26_624, 85_797, 125_014, (None, 1, 2, 3)),
    # the hub ties the neighbour-of-last key; the newest-neighbour key, not
    # the label, decides where the walk continues
    ("wheel:10", generate("wheel", 10), 58_026, 119_871, 175_485, (None, 1, 2, 3)),
    # its width ties are settled by neighbourhood size, not by label
    ("3-sun", THREE_SUN, 162, 309, 125, range(6)),
    # the smallest graphs whose last-two loop both moves a unit of n - 1 to
    # n and releases one, so skipping or limiting the move moves these pins
    ("cycle:4", generate("cycle", 4), 16, 30, 23, (None, 1, 2, 3)),
    ("star:5", generate("star", 5), 16, 46, 20, (None, 1, 2, 3)),
]


def _search_effort(run):
    """run()'s result and its calls of the enumerator's augment and path.

    augment runs once per top-level augmentation: the look-aheads and the
    units routed per position. A move in the last-two loop, a unit of
    position n - 1 handed straight to n, is an augmentation that does not
    call augment. path runs once per depth-first step of Kuhn's search.
    """
    calls = {"augment": 0, "path": 0}

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name in calls
                and code.co_filename == draconian.__file__):
            calls[code.co_name] += 1

    sys.setprofile(profile)
    try:
        got = run()
    finally:
        sys.setprofile(None)
    return got, calls


@pytest.mark.parametrize(
    "g,sequences,augmentations,paths,seed",
    [
        pytest.param(g, sequences, augmentations, paths, seed,
                     id=name + (f"-relabelled-{seed}" if seed is not None else ""))
        for name, g, sequences, augmentations, paths, seeds in _EFFORT_PINS
        for seed in seeds
    ],
)
def test_search_effort_is_pinned(g, sequences, augmentations, paths, seed):
    # The search order follows the graph's structure, not its labels, so a
    # relabelled graph costs exactly as much.
    got, calls = _search_effort(lambda: count(g if seed is None else _relabelled(g, seed)))
    assert got == sequences
    assert calls == {"augment": augmentations, "path": paths}


@pytest.mark.parametrize(
    "g,paths", [pytest.param(g, paths, id=name) for name, g, _, _, paths, _ in _EFFORT_PINS]
)
def test_shards_split_the_serial_search(g, paths):
    # The shards are root subtrees of the one serial search, so at 2 workers
    # their path calls sum to the serial pin, and neither the shards nor
    # their summed effort depend on the labels.
    for workers in (2, 64):
        efforts = set()
        for seed in (None, 1, 2, 3):
            d = build_double(g if seed is None else _relabelled(g, seed))
            prefixes = draconian._shard_prefixes(d, workers)
            _, calls = _search_effort(
                lambda: [draconian._dfs_run(d, p, False) for p in prefixes])
            efforts.add((len(prefixes), calls["augment"], calls["path"]))
        assert len(efforts) == 1, (workers, efforts)
        if workers == 2:
            assert efforts.pop()[2] == paths
