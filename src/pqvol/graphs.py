"""Simple graphs, their bipartite doubles, generators, and block structure.

Vertices are labeled 1..n throughout. Edges are unordered pairs stored as
sorted tuples. Graph.__post_init__ is the one normaliser: every builder's
edges are sorted, deduplicated and range-checked there and nowhere else.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

Edge = tuple[int, int]


def _normalize_edge(e: Iterable[int]) -> Edge:
    u, v = e
    if u == v:
        raise ValueError(f"self-loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 1..n; edges may be any iterable of pairs.

    Equality and hashing see (n, edges) only; cached properties are not fields.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        # normalise first, so a self-loop is reported before a bad n
        normalized = frozenset(_normalize_edge(e) for e in self.edges)
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        for u, v in normalized:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        object.__setattr__(self, "edges", normalized)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        # index 0 unused; neighbor tuples are sorted ascending
        lists: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return tuple(tuple(sorted(l)) for l in lists)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and (min(u, v), max(u, v)) in self.edges

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")


def from_edge_list(n: int, edges: Iterable[Iterable[int]]) -> Graph:
    """Build a graph on vertices 1..n from an iterable of endpoint pairs.

    Rejects self-loops and out-of-range labels; duplicate edges collapse.
    """
    return Graph(n, edges)


def graph_fingerprint(g: Graph) -> str:
    """Short stable identifier: vertex/edge counts plus an edge-set digest."""
    return _fingerprint(g.n, g.sorted_edges)


def _fingerprint(n: int, sorted_edges: tuple[Edge, ...]) -> str:
    """graph_fingerprint of the graph on 1..n with these sorted edges.

    Trace nodes keep only (n, sorted edges), so they share this helper.
    """
    import hashlib  # loaded on the first call, not with the package

    canon = f"n={n};" + ",".join(f"{u}-{v}" for u, v in sorted_edges)
    digest = hashlib.sha256(canon.encode()).hexdigest()[:12]
    return f"g{n}m{len(sorted_edges)}:{digest}"


# ---------------------------------------------------------------------------
# edge-list file format: header "n m", then m lines "u v"; '#' starts a comment


def parse_edge_list(text: str) -> Graph:
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected integers, got {raw!r}") from exc
    if not rows:
        raise ValueError("empty edge-list input")
    header = rows[0]
    if len(header) != 2:
        raise ValueError(f"header must be 'n m', got {header}")
    n, m = header
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"header declares {m} edges but {len(body)} lines follow")
    for row in body:
        if len(row) != 2:
            raise ValueError(f"edge line must be 'u v', got {row}")
    return from_edge_list(n, body)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(lines) + "\n"


def read_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def write_edge_list(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_edge_list(g), encoding="utf-8")


# ---------------------------------------------------------------------------
# generators


def _gen_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return from_edge_list(n, [(i, i + 1) for i in range(1, n)])


def _gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return from_edge_list(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _gen_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return from_edge_list(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def _gen_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs both sides nonempty")
    return from_edge_list(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


def _gen_star(n: int) -> Graph:
    # K_{1,n-1} with center 1
    if n < 1:
        raise ValueError("star needs n >= 1")
    return from_edge_list(n, [(1, i) for i in range(2, n + 1)])


def _gen_wheel(n: int) -> Graph:
    # hub 1 joined to the cycle 2..n+1
    if n < 3:
        raise ValueError("wheel needs rim length n >= 3")
    return join(_gen_complete(1), _gen_cycle(n))


def _gen_complete_minus_matching(n: int, k: int) -> Graph:
    if n < 1 or k < 0 or 2 * k > n:
        raise ValueError(f"need 0 <= k <= n/2, got n={n}, k={k}")
    removed = {(2 * i - 1, 2 * i) for i in range(1, k + 1)}
    return Graph(n, _gen_complete(n).edges - removed)


def _gen_random_tree(n: int, rng: random.Random) -> Graph:
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n <= 2:
        return _gen_path(n)
    # Pruefer decoding gives the uniform distribution on labeled trees
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(1, n + 1) if degree[v] == 1)
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return from_edge_list(n, edges)


def _gen_random_outerplanar(n: int, rng: random.Random) -> Graph:
    """2-connected outerplane graph: outer cycle 1..n plus non-crossing chords.

    Chords come from recursive polygon splitting, so the sample always embeds
    with every vertex on the outer face and may contain faces whose boundary
    is made of chords only.
    """
    if n < 3:
        raise ValueError("outerplanar sample needs n >= 3")
    edges = [(i, i % n + 1) for i in range(1, n + 1)]

    def split(region: tuple[int, ...]) -> None:
        k = len(region)
        if k < 4 or rng.random() >= 0.6:
            return
        # region positions are cyclic; a valid chord skips at least one vertex
        # on both sides of the region boundary
        i = rng.randrange(0, k - 2)
        j = rng.randrange(i + 2, k if i > 0 else k - 1)
        edges.append((region[i], region[j]))
        split(region[i : j + 1])
        split(region[j:] + region[: i + 1])

    split(tuple(range(1, n + 1)))
    return from_edge_list(n, edges)


# name -> (builder, number of parameters); random_* builders also take an rng
_FAMILIES = {
    "path": (_gen_path, 1),
    "cycle": (_gen_cycle, 1),
    "complete": (_gen_complete, 1),
    "complete_bipartite": (_gen_complete_bipartite, 2),
    "star": (_gen_star, 1),
    "wheel": (_gen_wheel, 1),
    "complete_minus_matching": (_gen_complete_minus_matching, 2),
    "random_tree": (_gen_random_tree, 1),
    "random_outerplanar": (_gen_random_outerplanar, 1),
}


def generate(family: str, *params: int, seed: int | None = None) -> Graph:
    """Build a named graph family member.

    Families: path, cycle, complete, complete_bipartite (a, b), star, wheel
    (rim length), complete_minus_matching (n, k), random_tree, random_outerplanar.
    The random families require a seed and are reproducible given one.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    builder, arity = _FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"family {family} takes {arity} parameter(s), got {params}")
    if not family.startswith("random_"):
        return builder(*params)
    if seed is None:
        raise ValueError(f"family {family} requires a seed")
    return builder(*params, random.Random(seed))


# ---------------------------------------------------------------------------
# connectivity and block structure


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each ascending, ordered by minimum."""
    adj = g._adj
    seen = [False] * (g.n + 1)
    comps: list[tuple[int, ...]] = []
    for start in range(1, g.n + 1):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def blocks_and_cut_vertices(g: Graph) -> tuple[list[frozenset[Edge]], set[int]]:
    """Biconnected components (as edge sets) and cut vertices, Hopcroft-Tarjan.

    Isolated vertices belong to no block. Bridges form single-edge blocks.
    Blocks are returned sorted by their smallest edge for determinism.
    """
    adj = g._adj
    disc = [0] * (g.n + 1)  # 0 means unvisited; discovery times start at 1
    low = [0] * (g.n + 1)
    blocks: list[frozenset[Edge]] = []
    cuts: set[int] = set()
    edge_stack: list[Edge] = []
    timer = 1

    # iterative DFS so deep paths cannot hit the recursion limit
    for root in range(1, g.n + 1):
        if disc[root] or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        work: list[tuple[int, int, int]] = [(root, 0, 0)]  # vertex, parent, next nbr index
        while work:
            u, parent, i = work.pop()
            if i < len(adj[u]):
                work.append((u, parent, i + 1))
                w = adj[u][i]
                if w == parent:
                    continue
                if not disc[w]:
                    e = (u, w) if u < w else (w, u)
                    edge_stack.append(e)
                    disc[w] = low[w] = timer
                    timer += 1
                    if u == root:
                        root_children += 1
                    work.append((w, u, 0))
                elif disc[w] < disc[u]:
                    edge_stack.append((u, w) if u < w else (w, u))
                    if disc[w] < low[u]:
                        low[u] = disc[w]
            else:
                if parent:
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] >= disc[parent]:
                        if parent != root:
                            cuts.add(parent)
                        e = (u, parent) if u < parent else (parent, u)
                        blk = set()
                        while True:
                            f = edge_stack.pop()
                            blk.add(f)
                            if f == e:
                                break
                        blocks.append(frozenset(blk))
        if root_children > 1:
            cuts.add(root)
    blocks.sort(key=min)
    return blocks, cuts


def is_two_connected(g: Graph) -> bool:
    """True when g is connected with no cut vertex and n >= 2 (K_2 counts)."""
    if g.n < 2 or not is_connected(g):
        return False
    return not blocks_and_cut_vertices(g)[1]


# ---------------------------------------------------------------------------
# edit operations


def delete_edge(g: Graph, e: Iterable[int]) -> Graph:
    edge = _normalize_edge(e)
    if edge not in g.edges:
        raise ValueError(f"edge {edge} not in graph")
    return Graph(g.n, g.edges - {edge})


def add_edge(g: Graph, e: Iterable[int]) -> Graph:
    edge = _normalize_edge(e)
    g._check_vertex(edge[0])
    g._check_vertex(edge[1])
    if edge in g.edges:
        raise ValueError(f"edge {edge} already in graph")
    return Graph(g.n, g.edges | {edge})


def _relabelled(edges: Iterable[Edge], keep: list[int]) -> Graph:
    """The edges with both ends in keep (ascending), keep[i] relabelled i + 1."""
    remap = {v: i + 1 for i, v in enumerate(keep)}
    return Graph(len(keep), [(remap[u], remap[w]) for u, w in edges if u in remap and w in remap])


def block_subgraphs(g: Graph, blocks: list[frozenset[Edge]] | None = None) -> list[Graph]:
    """Each block as its own graph, vertices relabeled 1..k order-preserving.

    Ordering follows blocks_and_cut_vertices, which sorts blocks by edge set,
    so the result is deterministic. A caller that already holds g's blocks
    from blocks_and_cut_vertices passes them, and the pass is not repeated.
    """
    if blocks is None:
        blocks, _ = blocks_and_cut_vertices(g)
    return [_relabelled(edge_set, sorted({v for e in edge_set for v in e})) for edge_set in blocks]


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph relabeled 1..k by ascending original label."""
    keep = sorted(set(vertices))
    if not keep:
        raise ValueError("induced subgraph needs at least one vertex")
    for v in keep:
        g._check_vertex(v)
    return _relabelled(g.edges, keep)


def subdivide(g: Graph, e: Iterable[int]) -> Graph:
    """Replace edge uv with the path u, n+1, v. The new vertex gets label n+1."""
    u, v = _normalize_edge(e)
    if (u, v) not in g.edges:
        raise ValueError(f"edge ({u},{v}) not in graph")
    x = g.n + 1
    return Graph(g.n + 1, (g.edges - {(u, v)}) | {(u, x), (v, x)})


def triangle_join(g: Graph, e: Iterable[int]) -> Graph:
    """Glue a new triangle onto edge uv: add vertex n+1 adjacent to u and v."""
    u, v = _normalize_edge(e)
    if (u, v) not in g.edges:
        raise ValueError(f"edge ({u},{v}) not in graph")
    x = g.n + 1
    return Graph(g.n + 1, g.edges | {(u, x), (v, x)})


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g + h with h's vertices shifted to n_g+1 .. n_g+n_h."""
    off = g.n
    edges = set(g.edges)
    edges.update((u + off, v + off) for u, v in h.edges)
    return Graph(g.n + h.n, frozenset(edges))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    off = g.n
    base = disjoint_union(g, h)
    cross = {(i, off + j) for i in range(1, off + 1) for j in range(1, h.n + 1)}
    return Graph(base.n, base.edges | cross)


def permute_vertices(g: Graph, perm: dict[int, int]) -> Graph:
    """Relabel by a permutation of 1..n (used to state invariance laws)."""
    if sorted(perm) != list(range(1, g.n + 1)) or sorted(perm.values()) != list(range(1, g.n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# ---------------------------------------------------------------------------
# bipartite double cover D(G)


@dataclass(frozen=True)
class BipartiteDouble:
    """Bipartite double of a graph, neighborhoods as right-side bitmasks.

    Left vertex i (1-based) has neighborhood mask ``neighborhoods[i-1]``; bit
    j-1 set means the barred right vertex j is adjacent. Every left vertex is
    adjacent to its own bar, so masks are never zero. Masks are arbitrary
    precision, so any practical n fits.
    """

    n: int
    neighborhoods: tuple[int, ...]
    # filled by pqvol.draconian (neighbour lists, subset bound lanes); not compared
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)


def build_double(g: Graph) -> BipartiteDouble:
    """D(G): left i is adjacent to jbar exactly when i = j or ij is an edge."""
    masks = [1 << (i - 1) for i in range(1, g.n + 1)]
    for u, v in g.edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return BipartiteDouble(g.n, tuple(masks))
