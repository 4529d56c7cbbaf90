"""Deciding, enumerating, and counting draconian sequences.

A sequence (a_1, ..., a_n) of nonnegative integers is draconian for the
bipartite double D of a graph on n vertices when the entries sum to n - 1
and every nonempty subset S of [n] satisfies

    sum(a_i for i in S)  <  |union of the D-neighborhoods of S|.

Two independent deciders are provided: :func:`check_subset` evaluates the
subset inequalities directly, and :func:`check_flow` reformulates them as a
bipartite transportation feasibility question. They must agree everywhere;
the test suite enforces this. Both are oracles for the enumerator, which
shares no acceptance test with either: it tests strictness while it builds
each sequence, by look-ahead augmentations, and never checks a finished one.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graphs import BipartiteDouble, Graph, build_double, connected_components, from_edge_list

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DraconianSet",
    "EnumerationConfig",
    "ResourceCapExceeded",
    "check_flow",
    "check_subset",
    "count",
    "enumerate_draconian",
    "sequences_to_text",
]

# Above this size the dense all-subsets tables become too large and
# check_subset falls back to enumerating cluster-connected subsets only.
_VECTOR_LIMIT = 22


class ResourceCapExceeded(RuntimeError):
    """A requested computation exceeds the configured size cap."""


@dataclass(frozen=True)
class EnumerationConfig:
    """Resource cap for the enumerator.

    max_n caps the vertex count accepted by enumerate_draconian and count.
    """

    max_n: int = 18

    def __post_init__(self) -> None:
        if self.max_n < 1:
            raise ValueError(f"max_n must be positive, got {self.max_n}")


@dataclass(frozen=True)
class DraconianSet:
    """All draconian sequences of a graph as int tuples, lexicographically sorted."""

    sequences: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.sequences)

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    def entry_tuples(self) -> tuple[tuple[int, ...], ...]:
        return self.sequences

    def entry_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.sequences)

    def to_text(self) -> str:
        return sequences_to_text(self.sequences)


def sequences_to_text(seqs) -> str:
    """One sequence per line, space-separated integers, newline-terminated."""
    return "".join(" ".join(str(x) for x in s) + "\n" for s in seqs)


def _coerce_double(obj: BipartiteDouble | Graph) -> BipartiteDouble:
    if isinstance(obj, BipartiteDouble):
        return obj
    if isinstance(obj, Graph):
        return build_double(obj)
    raise TypeError(f"expected BipartiteDouble or Graph, got {type(obj).__name__}")


def _validate_sequence(d: BipartiteDouble, a) -> tuple[int, ...]:
    seq = tuple(int(x) for x in a)
    if len(seq) != d.n:
        raise ValueError(f"sequence length {len(seq)} != n = {d.n}")
    if any(x < 0 for x in seq):
        raise ValueError("sequence entries must be nonnegative")
    return seq


# ---------------------------------------------------------------------------
# Subset decider


def _popcount_table(d: BipartiteDouble) -> np.ndarray:
    """|union of neighborhoods| for every subset bitmask, cached per double."""
    table = d._cache.get("popcount_table")
    if table is None:
        import numpy as np

        n = d.n
        union = np.zeros(1 << n, dtype=np.uint32)
        for b in range(n):
            half = 1 << b
            union[half : 2 * half] = union[:half] | np.uint32(d.neighborhoods[b])
        table = np.bitwise_count(union).astype(np.uint8)
        d._cache["popcount_table"] = table
    return table


def _grow_clusters(sub: int, ext: int, adj: list[int], excluded: int):
    """Connected subsets of the overlap graph containing sub, each once."""
    yield sub
    m = ext
    while m:
        b = m & -m
        m ^= b
        child_ext = (m | adj[b.bit_length() - 1]) & ~(sub | b) & ~excluded
        yield from _grow_clusters(sub | b, child_ext, adj, excluded)
        excluded |= b


def _cluster_connected_subsets(adj: list[int], n: int):
    for v in range(n):
        excluded = (1 << v) - 1
        start = 1 << v
        yield from _grow_clusters(start, adj[v] & ~excluded & ~start, adj, excluded)


def _subset_condition(d: BipartiteDouble, seq: tuple[int, ...]) -> bool:
    """All nonempty subsets satisfy the strict inequality; sum already checked."""
    n = d.n
    if n <= _VECTOR_LIMIT:
        # numpy loads on this dense path only, so the CLI starts without it
        import numpy as np

        bounds = _popcount_table(d)
        sums = np.zeros(1 << n, dtype=np.int16)
        for b in range(n):
            half = 1 << b
            sums[half : 2 * half] = sums[:half] + np.int16(seq[b])
        return bool(np.all(sums[1:] < bounds[1:]))
    # Large n: a subset that splits into parts with disjoint neighborhood
    # unions inherits the inequality from its parts, so only subsets forming
    # one connected cluster in the neighborhood-overlap graph need checking.
    masks = list(d.neighborhoods)
    overlap = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if masks[i] & masks[j]:
                overlap[i] |= 1 << j
                overlap[j] |= 1 << i
    for sub in _cluster_connected_subsets(overlap, n):
        total = 0
        union = 0
        m = sub
        while m:
            b = m & -m
            total += seq[b.bit_length() - 1]
            union |= masks[b.bit_length() - 1]
            m ^= b
        if total >= union.bit_count():
            return False
    return True


def check_subset(double: BipartiteDouble | Graph, a) -> bool:
    """Decide draconian-hood by checking the subset inequalities."""
    d = _coerce_double(double)
    seq = _validate_sequence(d, a)
    if sum(seq) != d.n - 1:
        return False
    return _subset_condition(d, seq)


# ---------------------------------------------------------------------------
# Flow decider


def _neighbor_lists(d: BipartiteDouble) -> list[tuple[int, ...]]:
    """Right-neighbor labels per left vertex, ascending; index 0 unused.

    The double is symmetric (i ~ jbar iff j ~ ibar), so the same lists serve
    as left-neighbor lists of the right vertices.
    """
    lists = d._cache.get("neighbor_lists")
    if lists is None:
        lists = [()]
        for mask in d.neighborhoods:
            row = []
            m = mask
            while m:
                b = m & -m
                row.append(b.bit_length())
                m ^= b
            lists.append(tuple(row))
        d._cache["neighbor_lists"] = lists
    return lists


def _kuhn_augment(i, nbrs, match_right, trail, visited=None) -> bool:
    """Route one more unit from left vertex i; record flips on the trail.

    A directly free right neighbour is taken before any alternating path is
    searched. That changes which routing is found, never whether one exists,
    and both callers depend only on existence (see _dfs_run).
    """
    row = nbrs[i]
    for r in row:
        if match_right[r] == 0:
            trail.append((r, 0))
            match_right[r] = i
            return True
    if visited is None:
        visited = bytearray(len(match_right))
    for r in row:
        if not visited[r]:
            visited[r] = 1
            j = match_right[r]
            if _kuhn_augment(j, nbrs, match_right, trail, visited):
                trail.append((r, j))
                match_right[r] = i
                return True
    return False


def _all_reach_free(nbrs, match_right, n) -> bool:
    """Strictness test of the independent flow oracle, check_flow.

    With n-1 units placed, one right vertex z is free; the strict subset
    inequalities hold iff every left vertex has an alternating path to z.
    The enumerator does not call it.
    """
    z = 0
    for r in range(1, n + 1):
        if match_right[r] == 0:
            z = r
            break
    matched_to: list[list[int]] = [[] for _ in range(n + 1)]
    for r in range(1, n + 1):
        j = match_right[r]
        if j:
            matched_to[j].append(r)
    reached_left = bytearray(n + 1)
    reached_right = bytearray(n + 1)
    reached_right[z] = 1
    stack = [z]
    left_count = 0
    while stack:
        r = stack.pop()
        owner = match_right[r]
        for i in nbrs[r]:
            if i != owner and not reached_left[i]:
                reached_left[i] = 1
                left_count += 1
                for r2 in matched_to[i]:
                    if not reached_right[r2]:
                        reached_right[r2] = 1
                        stack.append(r2)
    return left_count == n


def check_flow(double: BipartiteDouble | Graph, a) -> bool:
    """Decide draconian-hood via transportation feasibility; independent flow oracle.

    Routing a_i units from each left vertex into unit-capacity right
    vertices leaves exactly one right vertex free; the sequence is draconian
    iff the routing exists and every left vertex can reach the free vertex
    along an alternating path (equivalently, the routing stays feasible with
    any single right vertex removed).
    """
    d = _coerce_double(double)
    seq = _validate_sequence(d, a)
    n = d.n
    if sum(seq) != n - 1:
        return False
    nbrs = _neighbor_lists(d)
    match_right = [0] * (n + 1)
    scratch: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        for _ in range(seq[i - 1]):
            if not _kuhn_augment(i, nbrs, match_right, scratch):
                return False
    return _all_reach_free(nbrs, match_right, n)


# ---------------------------------------------------------------------------
# Enumeration


def _dfs_run(d: BipartiteDouble, prefix, collect: bool):
    """Depth-first enumeration of draconian sequences extending prefix.

    Returns the lexicographic list of full sequences (collect=True) or their
    number (collect=False). An incrementally maintained unit routing holds
    a_1..a_{t-1} when position t is reached, and position t accepts val only
    if, with val units routed from t, one more augmentation from t succeeds.
    That look-ahead is exact: a routing of a + e_t on [t] exists iff Hall's
    condition a(S) + [t in S] <= |N(S)| holds for every S in [t], and an
    augmenting path exists iff a larger routing does. The sets without t
    were certified at their own largest position, so the look-ahead decides
    precisely the strict inequalities a(S) < |N(S)| whose largest vertex
    is t. The look-ahead path is undone before descending and reapplied from
    its saved flips afterwards, where it becomes the routing for val + 1.
    a(S) grows with val, so the first failed look-ahead ends the loop. With
    the per-vertex caps and the remaining-sum feasibility test, every leaf
    the search reaches is a draconian sequence; none is checked after the
    fact. The same loop forces the prefix: at t <= len(prefix) it walks the
    values up to prefix[t - 1] and descends only at that value.
    """
    n = d.n
    total = n - 1
    nbrs = _neighbor_lists(d)

    caps = [0] * (n + 2)
    for i in range(1, n + 1):
        caps[i] = min(len(nbrs[i]) - 1, total)
    suffix = [0] * (n + 2)
    for i in range(n, 0, -1):
        suffix[i] = suffix[i + 1] + caps[i]

    match_right = [0] * (n + 1)
    current = [0] * (n + 1)
    out: list[tuple[int, ...]] = []
    counter = 0
    k = len(prefix)

    def dfs(t: int, acc: int) -> None:
        nonlocal counter
        if t > n:
            if collect:
                out.append(tuple(current[1:]))
            else:
                counter += 1
            return
        rem_total = total - acc
        hi = caps[t] if caps[t] < rem_total else rem_total
        lo = 0
        if t <= k:
            lo = prefix[t - 1]
            if lo < hi:
                hi = lo
        sfx = suffix[t + 1]
        trails: list[list[tuple[int, int]]] = []
        val = 0
        while val <= hi:
            trail: list[tuple[int, int]] = []
            if not _kuhn_augment(t, nbrs, match_right, trail):
                break
            if val >= lo and rem_total - val <= sfx:
                # one path flips each right vertex once, so order is free here
                redo = [(r, match_right[r]) for r, _ in trail]
                for r, j in trail:
                    match_right[r] = j
                current[t] = val
                dfs(t + 1, acc + val)
                for r, i in redo:
                    match_right[r] = i
            trails.append(trail)
            val += 1
        current[t] = 0
        for trail in reversed(trails):
            for r, j in trail:
                match_right[r] = j

    dfs(1, 0)
    # dfs reaches itself through its closure cell; emptying the cell breaks
    # that cycle, so out and the search state are freed by reference
    # counting instead of waiting for the cyclic collector.
    del dfs
    return out if collect else counter


def _shard_prefixes(d: BipartiteDouble, workers: int) -> list[tuple[int, ...]]:
    """Fixed first-coordinate prefixes whose completions partition the search.

    Sharding fixes a_1 (and a_2 when more shards help); concatenating shard
    results in prefix order reproduces the unsharded lexicographic output.
    """
    total = d.n - 1
    cap1 = min(d.neighborhoods[0].bit_count() - 1, total)
    if d.n < 2 or cap1 + 1 >= workers:
        return [(v,) for v in range(cap1 + 1)]
    cap2 = min(d.neighborhoods[1].bit_count() - 1, total)
    return [(v1, v2) for v1 in range(cap1 + 1) for v2 in range(cap2 + 1)]


def _shard_task(args):
    n, edges, prefix, collect = args
    return _dfs_run(build_double(from_edge_list(n, edges)), prefix, collect)


def _run(g: Graph, workers: int, config: EnumerationConfig | None, collect: bool):
    """Draconian sequences of g in lexicographic order (collect=True) or their
    number (collect=False), enumerated serially or over a process pool."""
    cfg = config or EnumerationConfig()
    if len(connected_components(g)) != 1:
        return [] if collect else 0
    if g.n > cfg.max_n:
        raise ResourceCapExceeded(
            f"enumeration on {g.n} vertices exceeds the cap of {cfg.max_n}; "
            "raise EnumerationConfig.max_n to proceed"
        )
    d = build_double(g)
    if workers <= 1:
        return _dfs_run(d, (), collect)
    jobs = [(g.n, g.sorted_edges, p, collect) for p in _shard_prefixes(d, workers)]
    # map yields results in job order whatever the pool size
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs), os.cpu_count() or 1)) as pool:
        parts = list(pool.map(_shard_task, jobs))
    return [s for part in parts for s in part] if collect else sum(parts)


def enumerate_draconian(
    g: Graph, workers: int = 1, config: EnumerationConfig | None = None
) -> DraconianSet:
    """All draconian sequences of g in lexicographic order.

    Disconnected graphs have none: each component's vertex set forces its
    partial sum below the component size, so the totals cannot reach n - 1.
    """
    return DraconianSet(tuple(_run(g, workers, config, collect=True)))


def count(g: Graph, workers: int = 1, config: EnumerationConfig | None = None) -> int:
    """|enumerate_draconian(g)| without materializing the sequences."""
    return _run(g, workers, config, collect=False)
