"""Deciding, enumerating, and counting draconian sequences.

A sequence (a_1, ..., a_n) of nonnegative integers is draconian for the
bipartite double D of a graph on n vertices when the entries sum to n - 1
and every nonempty subset S of [n] satisfies

    sum(a_i for i in S)  <  |union of the D-neighborhoods of S|.

Two independent deciders are provided: :func:`check_subset` evaluates the
subset inequalities directly, all 2^n at once on packed integer lanes, and
:func:`check_flow` reformulates them as a bipartite transportation
feasibility question. They must agree everywhere; the test suite enforces
this. Both are oracles for the enumerator, which shares no acceptance test
with either: it tests strictness while it builds each sequence, by
look-ahead augmentations, and never checks a finished one. Those
augmentations run on a kernel of its own, Kuhn's search on int bitmasks
(one mask of right neighbours per position, one of free right vertices);
check_flow keeps its list-based Kuhn search, so the oracle shares no
matching code with the enumerator. The enumerator visits the
vertices in a low-width order taken from the graph's structure, so its cost
does not depend on the labels. It walks each position's values downward and
stops at the first value whose subtree holds no sequence, since the values
that extend a prefix form an interval, or sooner, at the first value that
leaves more units than the later positions' joint neighbourhood can take.
A prefix with no units left closes as one leaf of zeros, and the last two
positions are settled in one loop. There a unit that position n - 1 gives up
moves straight to n whenever n reaches its right vertex, with no search: by
Berge's augmenting-path theorem a routing exists or not by the demands
alone, whichever units meet them. The listing is sorted once into
lexicographic label order.

The size caps live here and nowhere else: the enumerator (so count and
enumerate_draconian) accepts at most MAX_N vertices, and check_subset, whose
packed subset lanes grow as 2^n, at most SUBSET_MAX_N. Above a cap
check_cap raises ResourceCapExceeded; the CLI calls it too, so a command
that would cross a cap refuses before it does any work.

With workers > 1, count and enumerate_draconian shard the search over the
process pool of pool_scope, built by _executor, the only place that imports
concurrent.futures: serial runs, and graphs with one shard prefix (n = 1),
never load it. A shard fixes the values of the first one or two positions of
the one search order, so the shards are the root subtrees of the serial
search; their listings are merged and sorted once. Every sharded call enters
pool_scope. Inside an open block it uses the block's pool, started at the
first such call and shut down, its workers joined, when the block exits; the
CLI opens one block per command. A call outside every block opens a block of
its own, so it starts one pool and joins its workers before it returns.
"""

from __future__ import annotations

import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass

from .graphs import BipartiteDouble, Graph, build_double, is_connected

__all__ = [
    "DraconianSet",
    "MAX_N",
    "ResourceCapExceeded",
    "SUBSET_MAX_N",
    "check_cap",
    "check_flow",
    "check_subset",
    "count",
    "enumerate_draconian",
    "pool_scope",
]

MAX_N = 18  # largest vertex count the enumerator accepts
SUBSET_MAX_N = 22  # largest vertex count check_subset's packed lanes accept


class ResourceCapExceeded(RuntimeError):
    """A requested computation exceeds a size cap."""


def check_cap(n: int, cap: int, what: str) -> None:
    """Raise ResourceCapExceeded when what, run on n vertices, exceeds cap."""
    if n > cap:
        raise ResourceCapExceeded(f"{what} on {n} vertices exceeds the cap of {cap}")


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
        """One sequence per line, space-separated integers, newline-terminated."""
        return "".join(" ".join(map(str, s)) + "\n" for s in self.sequences)


def _validate_sequence(d: BipartiteDouble, a) -> tuple[int, ...]:
    if not isinstance(d, BipartiteDouble):
        raise TypeError(
            f"expected a BipartiteDouble, got {type(d).__name__}; pass build_double(g)"
        )
    seq = tuple(map(operator.index, a))
    if len(seq) != d.n:
        raise ValueError(f"sequence length {len(seq)} != n = {d.n}")
    if any(x < 0 for x in seq):
        raise ValueError("sequence entries must be nonnegative")
    return seq


# ---------------------------------------------------------------------------
# Subset decider


# Every table is one int with a 6-bit lane per subset: subset S, a bitmask of
# left vertices, owns bits 6*S .. 6*S+5. Bound lanes hold 32 + |N(S)| (lane
# 0, the empty set, holds 33 so that it passes) and sum lanes hold a(S). For
# n <= SUBSET_MAX_N both values stay <= 22 < 32, so bounds - sums - ones
# borrows from no other lane and keeps a lane's guard bit (value 32) exactly
# when a(S) < |N(S)|.
_LANE = 6
_GUARD = 1 << (_LANE - 1)


def _subset_bounds(d: BipartiteDouble) -> int:
    """Bound lanes 32 + |N(S)| for every subset S, cached per double: each
    right vertex r takes one from the lanes of the subsets with no neighbour of r."""
    bounds = d._cache.get("subset_bounds")
    if bounds is None:
        n = d.n
        ones = 1
        for b in range(n):
            ones |= ones << (_LANE << b)
        bounds = (_GUARD + n) * ones + 1
        for r in range(n):
            avoid = 1
            for b, mask in enumerate(d.neighborhoods):
                if not mask >> r & 1:
                    avoid |= avoid << (_LANE << b)
            bounds -= avoid
        d._cache["subset_bounds"] = bounds
    return bounds


def check_subset(d: BipartiteDouble, a) -> bool:
    """Decide draconian-hood by the subset inequalities; independent subset oracle.

    All subsets are checked at once on packed integer lanes, which grow as
    2^n, so above SUBSET_MAX_N vertices it raises ResourceCapExceeded.
    """
    seq = _validate_sequence(d, a)
    n = d.n
    check_cap(n, SUBSET_MAX_N, "subset check")
    if sum(seq) != n - 1:
        return False
    sums, ones = 0, 1
    for b, x in enumerate(seq):
        shift = _LANE << b
        sums |= (sums + x * ones) << shift
        ones |= ones << shift
    guards = _GUARD * ones
    return (_subset_bounds(d) - sums - ones) & guards == guards


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


def _kuhn_augment(i, nbrs, match_right, visited=None) -> bool:
    """Route one more unit from left vertex i.

    The flow oracle's own augmentation: only check_flow calls it, and the
    enumerator runs its own bitset kernel (_dfs_run). A directly free right
    neighbour is taken before any alternating path is searched. That changes
    which routing is found, never whether one exists, and check_flow depends
    only on existence.
    """
    row = nbrs[i]
    for r in row:
        if match_right[r] == 0:
            match_right[r] = i
            return True
    if visited is None:
        visited = bytearray(len(match_right))
    for r in row:
        if not visited[r]:
            visited[r] = 1
            j = match_right[r]
            if _kuhn_augment(j, nbrs, match_right, visited):
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


def check_flow(d: BipartiteDouble, a) -> bool:
    """Decide draconian-hood via transportation feasibility; independent flow oracle.

    Routing a_i units from each left vertex into unit-capacity right
    vertices leaves exactly one right vertex free; the sequence is draconian
    iff the routing exists and every left vertex can reach the free vertex
    along an alternating path (equivalently, the routing stays feasible with
    any single right vertex removed).
    """
    seq = _validate_sequence(d, a)
    n = d.n
    if sum(seq) != n - 1:
        return False
    nbrs = _neighbor_lists(d)
    match_right = [0] * (n + 1)
    for i in range(1, n + 1):
        for _ in range(seq[i - 1]):
            if not _kuhn_augment(i, nbrs, match_right):
                return False
    return _all_reach_free(nbrs, match_right, n)


# ---------------------------------------------------------------------------
# Enumeration


def _search_order(d: BipartiteDouble) -> tuple[int, ...]:
    """Vertex labels in the order _dfs_run walks its positions; cached per double.

    Each step places the vertex that leaves the fewest right vertices adjacent
    both to the placed vertices and to the rest (the width). Ties go to the
    vertex whose placed neighbours were placed most recently: their placement
    steps, newest first, are compared in turn, and when one list is a prefix
    of the other the shorter wins. Then the smaller closed neighbourhood wins,
    and only then the smaller label. Both keys settle ties that the label
    would decide otherwise. On a wheel, once the hub is placed, the rim
    vertices at both ends of the placed path neighbour the last placed vertex,
    the hub; the label then chose the end the walk continued from, and the
    recursive Kuhn work on wheel:10 depended on it. Without the neighbourhood
    key the 3-sun's cost did. Counts of unplaced neighbours per right vertex
    make a step O(n * degree).
    """
    order = d._cache.get("search_order")
    if order is not None:
        return order
    nbrs = _neighbor_lists(d)
    rest = [len(row) for row in nbrs]  # unplaced left neighbours (the double is symmetric)
    held = bytearray(d.n + 1)  # right vertices with a placed left neighbour
    # minus the placement steps of each vertex's placed neighbours, newest
    # first, so that min prefers recent neighbours and then the shorter list
    newest = [[] for _ in range(d.n + 1)]
    order = []
    unplaced = set(range(1, d.n + 1))
    for step in range(1, d.n + 1):
        # placing u changes the width by the sum over r in N(u) of
        # [r keeps an unplaced neighbour] - [r was already held]
        v = min(unplaced, key=lambda u: (
            sum((rest[r] > 1) - held[r] for r in nbrs[u]),
            newest[u], len(nbrs[u]), u))
        unplaced.remove(v)
        order.append(v)
        for r in nbrs[v]:
            rest[r] -= 1
            held[r] = 1
            newest[r].insert(0, -step)
    order = d._cache["search_order"] = tuple(order)
    return order


def _dfs_run(d: BipartiteDouble, prefix, collect: bool):
    """Depth-first enumeration of draconian sequences extending prefix.

    Returns the lexicographic list of full sequences (collect=True) or their
    number (collect=False). Position t works on vertex order[t - 1] of
    _search_order, with the right vertices renumbered by the same order, so
    neither the walk nor Kuhn's search sees a label; leaves write each value
    into its label slot, and prefix fixes the values of positions 1..k.

    The matching kernel works on int masks: rows[t] has bit r set for each
    right neighbour r of position t (under 2^19 at MAX_N = 18), free has a
    bit per unmatched right vertex, and match_right[r] is the position a
    matched r is routed from. augment(t, trail) routes one more unit from
    t: it takes the lowest set bit of rows[t] & free, and when there is
    none it clears the int seen and calls path(t), Kuhn's depth-first
    search. path(i) takes a free neighbour of i the same way, or else walks
    the bits of rows[i] & ~seen upward, marking each in seen before it
    recurses into the position holding it. The lowest set bit is the
    smallest right vertex, the one an ascending scan of i's neighbour list
    takes first, and seen is read again after each failed recursion, as a
    visited array would be, so the routings, listings and counts equal those
    of a list-based search. A trail logs only flips of matched vertices, as
    (r, previous position); the vertex a path takes from free is not logged,
    because free is saved before each path and restored from that snapshot
    when the path is undone. match_right of a free vertex is therefore
    stale, and nothing reads it: path walks rows[i] only when i has no free
    neighbour, and the move and the release below look only at matched
    vertices.

    An incrementally maintained unit routing holds the values of positions
    1..t-1 when position t is reached, and position t accepts val only if,
    with val units routed from t, one more augmentation from t succeeds.
    That look-ahead is exact: a routing of a + e_t on [t] exists iff Hall's
    condition a(S) + [t in S] <= |N(S)| holds for every S in [t], and an
    augmenting path exists iff a larger routing does. The sets without t
    were certified at their own largest position, so the look-ahead decides
    precisely the strict inequalities a(S) < |N(S)| whose largest position
    is t. a(S) grows with val, so position t routes units from t until an
    augmentation fails or hi + 1 units are placed; the accepted values are
    0 up to one less than the units placed, and each saved path is one
    look-ahead.

    The values are then walked downward. Each step undoes one saved path,
    so the routing holds exactly val units, and descends. The draconian
    sequences are the bases of an integral polymatroid, so with the earlier
    positions fixed, rem units left, and val at t, the later positions can
    carry min(M, rem - val) units, where M is what they carry with val = 0.
    Hence val extends the prefix iff val >= rem - M, and the values that do
    form the interval [max(0, rem - M), top accepted value]. The first child
    whose subtree reaches no leaf therefore ends the walk; an empty subtree
    costs one path down to position n - 1. Two bounds that cost nothing per
    node end it sooner:

    - Tail bound: the walk stops before a val with rem - val > suffix[t + 1],
      where suffix[u] = min(suffix[u + 1] + caps[u], |N(L_u)| - 1) and L_u is
      the set of positions u..n. Proof: a draconian sequence has
      a(L_u) < |N(L_u)|, and each position carries at most its cap.
    - Zero remainder: at t > k with no units left, the only completion is
      all zeros, and dfs takes it as one leaf with no look-ahead. Proof: if
      S holds placed positions P, then a(S) = a(P) < |N(P)| <= |N(S)|, the
      strict inequality certified at the largest position of P; a set of
      unplaced positions has a(S) = 0 < |N(S)|.

    dfs returns whether its subtree reached a leaf. Every leaf the search
    reaches is a draconian sequence; none is checked after the fact. The
    same loop forces the prefix: at t <= k it routes at most
    prefix[t - 1] + 1 units and descends only at that value. Each dfs call
    sets its slots back to 0 before it returns, so the slots of the unplaced
    positions read 0 when a zero remainder closes a leaf.

    Positions n - 1 and n (unless the prefix forces n - 1) share one loop:
    n takes rem - val, so each val needs only the look-ahead of n. For
    val = top, n - 1 gives up one unit and n takes rem - val + 1; for each
    smaller val n - 1 gives up one more and n takes one more, so the last
    look-ahead unit of n becomes a real one and one more unit is the next
    look-ahead. Whether an augmenting path exists depends on the demands,
    not on the routing that meets them (Berge): by the symmetric difference
    with a larger routing, there is one from n iff the demands with one
    more unit at n have a routing. So the unit n - 1 gives up can go
    straight to n. When n - 1 holds a matched right vertex that n also
    reaches, the loop moves the lowest such vertex to n; the result routes
    exactly the next demands, so the move counts as one of n's units, needs
    no search and leaves free as it is. Otherwise it releases the lowest
    matched vertex held by n - 1 and augments from n. By the interval
    argument it stops at the first failed look-ahead or when rem - val
    exceeds the cap of n. Its moves, flips and releases go on one log,
    undone last-in first-out, and free returns to its value on entry.
    The listing is sorted once at the end, a prefix run's too; _run merges
    the shards' sorted listings.

    dfs and path call themselves through their closure cells, so each sits
    in a reference cycle that holds every cell of the search, out included.
    The del at the end empties both cells; a cell left full would keep the
    listing and the search state until the cyclic collector ran, and
    test_listings_are_freed_without_the_cyclic_collector finds that.
    """
    n = d.n
    total = n - 1
    k = len(prefix)
    order = _search_order(d)
    pos = {v: t for t, v in enumerate(order, 1)}
    labelled = _neighbor_lists(d)
    rows = [0] + [sum(1 << pos[r] for r in labelled[v]) for v in order]
    slot = [0] + [v - 1 for v in order]

    caps = [0] * (n + 2)
    for i in range(1, n + 1):
        caps[i] = min(rows[i].bit_count() - 1, total)
    # suffix[t] bounds what positions t..n carry together: their caps, and
    # one less than the right vertices of their joint neighbourhood
    suffix = [0] * (n + 2)
    joint = 0
    for i in range(n, 0, -1):
        joint |= rows[i]
        suffix[i] = min(suffix[i + 1] + caps[i], joint.bit_count() - 1)

    match_right = [0] * (n + 1)
    free = (1 << (n + 1)) - 2  # right vertices 1..n
    seen = 0
    current = [0] * n
    out: list[tuple[int, ...]] = []
    counter = 0
    last, cap_n, slot_last, slot_n = n - 1, caps[n], slot[n - 1], slot[n]
    rows_n = rows[n]

    def augment(t: int, trail: list) -> bool:
        nonlocal free, seen
        m = rows[t] & free
        if m:
            m &= -m
            free ^= m
            match_right[m.bit_length() - 1] = t
            return True
        seen = 0
        return path(t, trail)

    def path(i: int, trail: list) -> bool:
        nonlocal free, seen
        m = rows[i] & free
        if m:
            m &= -m
            free ^= m
            match_right[m.bit_length() - 1] = i
            return True
        m = rows[i] & ~seen
        while m:
            b = m & -m
            seen |= b
            r = b.bit_length() - 1
            j = match_right[r]
            if path(j, trail):
                trail.append((r, j))
                match_right[r] = i
                return True
            m = rows[i] & ~seen
        return False

    def dfs(t: int, acc: int) -> bool:
        nonlocal counter, free
        if acc == total and t > k:
            # positions t..n take 0, and their slots already read 0
            if collect:
                out.append(tuple(current))
            else:
                counter += 1
            return True
        rem_total = total - acc
        hi = caps[t] if caps[t] < rem_total else rem_total
        lo = 0
        entry = free
        if t <= k:
            lo = prefix[t - 1]
            if lo < hi:
                hi = lo
        elif t == last:
            log: list[tuple[int, int]] = []
            val = -1
            while val < hi and augment(t, log):
                val += 1
            need = rem_total - val + 1
            leaves = 0
            while val >= 0 and rem_total - val <= cap_n:
                held = rows[t] & ~free
                # a unit of n - 1 on a right vertex that n reaches moves to
                # n; only when there is none is a unit released
                m = held & rows_n
                while m:
                    b = m & -m
                    r = b.bit_length() - 1
                    if match_right[r] == t:
                        break
                    m ^= b
                if m:
                    match_right[r] = n
                    need -= 1
                else:
                    while True:
                        b = held & -held
                        r = b.bit_length() - 1
                        if match_right[r] == t:
                            break
                        held ^= b
                    free |= b
                log.append((r, t))
                while need and augment(n, log):
                    need -= 1
                if need:
                    break
                if collect:
                    current[slot_last] = val
                    current[slot_n] = rem_total - val
                    out.append(tuple(current))
                leaves += 1
                val -= 1
                need = 1
            for r, j in reversed(log):
                match_right[r] = j
            free = entry
            current[slot_last] = current[slot_n] = 0
            counter += leaves
            return leaves > 0
        trails: list[tuple[int, list[tuple[int, int]]]] = []
        while len(trails) <= hi:
            snap = free
            trail: list[tuple[int, int]] = []
            if not augment(t, trail):
                break
            trails.append((snap, trail))
        sfx = suffix[t + 1]
        reached = False
        val = len(trails) - 1
        while val >= lo and rem_total - val <= sfx:
            # one path flips each right vertex once, so order is free here
            free, trail = trails.pop()
            for r, j in trail:
                match_right[r] = j
            current[slot[t]] = val
            if not dfs(t + 1, acc + val):
                break
            reached = True
            val -= 1
        for _, trail in reversed(trails):
            for r, j in trail:
                match_right[r] = j
        free = entry
        current[slot[t]] = 0
        return reached

    dfs(1, 0)
    # dfs and path reach themselves through their closure cells; emptying
    # the cells breaks those cycles, so out and the search state are freed
    # by reference counting instead of waiting for the cyclic collector.
    del dfs, path
    if collect:
        out.sort()
    return out if collect else counter


def _shard_prefixes(d: BipartiteDouble, workers: int) -> list[tuple[int, ...]]:
    """Prefixes whose runs are the root subtrees of the serial search.

    A prefix fixes the value of the first search position (and of the second
    when more shards help), so the runs partition the serial search tree and
    together do its work. Two values summing past n - 1 have no completion,
    so they make no prefix. Each run sorts its own listing; _run merges them.
    """
    total = d.n - 1
    order = _search_order(d)
    cap1 = min(d.neighborhoods[order[0] - 1].bit_count() - 1, total)
    if d.n < 2 or cap1 + 1 >= workers:
        return [(v,) for v in range(cap1 + 1)]
    cap2 = min(d.neighborhoods[order[1] - 1].bit_count() - 1, total)
    return [(v1, v2) for v1 in range(cap1 + 1) for v2 in range(min(cap2, total - v1) + 1)]


def _shard_task(args):
    n, masks, prefix, collect = args
    return _dfs_run(BipartiteDouble(n, masks), prefix, collect)


def _executor(max_workers: int):
    """A process pool of max_workers; concurrent.futures loads on the first call."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


# Pool size of the open pool_scope (0 outside every scope), and its pool
# once a sharded call has started it.
_scope_workers = 0
_scope_pool = None


@contextmanager
def pool_scope(workers: int):
    """Share one pool of min(workers, cpu count) processes among the sharded
    calls made inside the block.

    The pool starts at the first call that shards, so a block that shards
    nothing starts no process, and it is shut down with its workers joined
    when the block exits, by an exception too. With workers <= 1 the block
    does nothing, and a nested block uses the outer block's pool.
    """
    global _scope_workers, _scope_pool
    if _scope_workers or workers <= 1:
        yield
        return
    _scope_workers = min(workers, os.cpu_count() or 1)
    try:
        yield
    finally:
        pool, _scope_workers, _scope_pool = _scope_pool, 0, None
        if pool is not None:
            pool.shutdown()


def _run(g: Graph, workers: int, collect: bool):
    """Draconian sequences of g in lexicographic order (collect=True) or their
    number (collect=False), enumerated serially or over the pool of pool_scope.

    workers is first clamped to the cpu count, so a one-cpu host runs
    serially. With workers > 1 the search shards by prefix inside
    pool_scope(workers), which reuses an open scope's pool or opens one for
    this call alone. A single prefix (n = 1) runs serially.
    """
    global _scope_pool
    if not is_connected(g):
        return [] if collect else 0
    check_cap(g.n, MAX_N, "enumeration")
    workers = min(workers, os.cpu_count() or 1)
    d = build_double(g)
    prefixes = _shard_prefixes(d, workers) if workers > 1 else ()
    if len(prefixes) < 2:
        return _dfs_run(d, (), collect)
    jobs = [(d.n, d.neighborhoods, p, collect) for p in prefixes]
    with pool_scope(workers):
        if _scope_pool is None:
            _scope_pool = _executor(_scope_workers)
        # map yields results in job order whatever the pool size
        parts = list(_scope_pool.map(_shard_task, jobs))
    return sorted(s for part in parts for s in part) if collect else sum(parts)


def enumerate_draconian(g: Graph, workers: int = 1) -> DraconianSet:
    """All draconian sequences of g in lexicographic order.

    Disconnected graphs have none: each component's vertex set forces its
    partial sum below the component size, so the totals cannot reach n - 1.
    A connected g above MAX_N vertices raises ResourceCapExceeded.
    """
    return DraconianSet(tuple(_run(g, workers, collect=True)))


def count(g: Graph, workers: int = 1) -> int:
    """|enumerate_draconian(g)| without materializing the sequences.

    0 on a disconnected g; a connected g above MAX_N vertices raises
    ResourceCapExceeded.
    """
    return _run(g, workers, collect=False)
