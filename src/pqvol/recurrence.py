"""Closed-form volumes, recurrences with bijection witnesses, and a planner.

The planner computes the normalized volume of the adjacency polytope of a
graph by decomposing into connected components and blocks, matching blocks
against closed-form families, applying the outer-face formula, undoing
triangle joins and whole degree-2 threads (one step per thread, however
long), then ears, and finally falling back to direct enumeration. Every
result carries a derivation trace that can be replayed. A trace node keeps
its graph as n and the sorted edge tuple the planner memoises it under; its
fingerprint is hashed on first read, which only the trace writers and a
failed replay do, so planning never loads hashlib.

The subdivision and triangle-join recurrences share one bijection
construction (_witness): each step lists D(g), the subdivision step also
D(g minus e), and the transformed graph is only counted.

The edge identity holds for every graph g and edge e = uv:

    #D(g▵e) - #D(g:e) = #D(g) - #D(g - e),

where g▵e adds a vertex x adjacent to u and v, and g:e subdivides e by x.
Its proof (docs/edge-identity.md) is a bijection: D(g:e) lies in D(g▵e)
and D(g - e) in D(g), and c -> (c, 0) + e_side(c) maps D(g) minus D(g - e)
onto D(g▵e) minus D(g:e), where side(c) is the endpoint of e held by every
set that violates c in g - e. edge_step lists that map. Read at a degree-2
vertex x with adjacent neighbours u and v, the identity is the planner's
ear rule V(G) = V(G - uv) + V(G - x) - V(G - x - uv) (rule reverse-ear).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, prod

from . import draconian, outerplanar
from .graphs import (
    BipartiteDouble,
    Edge,
    Graph,
    _fingerprint,
    block_subgraphs,
    blocks_and_cut_vertices,
    build_double,
    connected_components,
    delete_edge,
    from_edge_list,
    induced_subgraph,
    is_connected,
    subdivide,
    triangle_join,
)

__all__ = [
    "BijectionWitness",
    "IdentityCheck",
    "TRACE_VERSION",
    "TraceNode",
    "VolumeResult",
    "clear_memo",
    "edge_step",
    "nvol",
    "nvol_complete_minus_matching",
    "nvol_cycle",
    "nvol_forest",
    "nvol_k2m",
    "replay_trace",
    "serialize_trace",
    "stirling2",
    "stirling_identity_check",
    "subdivision_step",
    "trace_rows",
    "triangle_step",
    "wheel_conjecture_value",
]

TRACE_VERSION = 3  # of the --trace node table, text and JSON alike


# ---------------------------------------------------------------------------
# Closed forms


def nvol_forest(n: int, k: int) -> int:
    """Volume of a forest on n vertices with k components: 2^(n-k)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return 1 << (n - k)


def nvol_cycle(n: int) -> int:
    """Volume of the n-cycle: n * 2^(n-2)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return n << (n - 2)


def nvol_complete_minus_matching(n: int, k: int) -> int:
    """Volume of K_n minus a k-edge matching: C(2(n-1), n-1) - 2k."""
    if n <= 2:
        raise ValueError(f"need n > 2, got {n}")
    if not 0 <= k <= n // 2:
        raise ValueError(f"need 0 <= k <= n//2, got k={k} for n={n}")
    return comb(2 * (n - 1), n - 1) - 2 * k


def nvol_k2m(n: int) -> int:
    """Volume of K_{2,n-2}: 2^(n-4) * (n^2 - n + 6) - 2, exact for n >= 3.

    At n = 3 the leading factor is 2^(-1) but the product stays integral:
    12 / 2 - 2 = 4, which matches the forest value of K_{2,1} = P_3.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n == 3:
        return 4
    return (1 << (n - 4)) * (n * n - n + 6) - 2


def wheel_conjecture_value(n: int) -> int:
    """Conjectured volume of the wheel over C_n: 3^n - 2^n + 1."""
    if n < 3:
        raise ValueError(f"wheel needs n >= 3, got {n}")
    return 3**n - 2**n + 1


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    if k < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    if k > n:
        return 0
    row = [1] + [0] * k
    for _ in range(n):
        new = [0] * (k + 1)
        for j in range(1, k + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def stirling_identity_check(n: int) -> bool:
    """3^n - 2^n + 1 == 2 S(n+1,3) + S(n+1,2) + S(n+1,1)."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    rhs = 2 * stirling2(n + 1, 3) + stirling2(n + 1, 2) + stirling2(n + 1, 1)
    return wheel_conjecture_value(n) == rhs


# ---------------------------------------------------------------------------
# Recurrence steps with constructive bijections


@dataclass(frozen=True)
class IdentityCheck:
    """Counted sides of a recurrence identity.

    For kind "edge", transformed_count counts the triangle-joined graph and
    subdivided_count the subdivided one; the other kinds leave it None.
    """

    kind: str  # "subdivision" | "triangle" | "edge"
    transformed_count: int
    base_count: int
    deleted_count: int | None
    holds: bool
    subdivided_count: int | None = None


@dataclass(frozen=True)
class BijectionWitness:
    """Images of a recurrence's constructions, each paired with its preimage.

    The subdivision and triangle steps have three constructions; the edge
    identity has one, in set_a, and leaves set_b and set_c empty.
    """

    kind: str
    set_a: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    set_b: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    set_c: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def images_a(self) -> frozenset[tuple[int, ...]]:
        return frozenset(img for img, _ in self.set_a)

    def images_b(self) -> frozenset[tuple[int, ...]]:
        return frozenset(img for img, _ in self.set_b)

    def images_c(self) -> frozenset[tuple[int, ...]]:
        return frozenset(img for img, _ in self.set_c)

    def is_exact_cover_of(self, target: frozenset[tuple[int, ...]]) -> bool:
        a, b, c = self.images_a(), self.images_b(), self.images_c()
        disjoint = not (a & b or a & c or b & c)
        sizes_ok = (
            len(a) == len(self.set_a)
            and len(b) == len(self.set_b)
            and len(c) == len(self.set_c)
        )
        return disjoint and sizes_ok and (a | b | c) == target


def _pick_degree_two_endpoint(g: Graph, e: tuple[int, int]) -> tuple[int, int]:
    a, b = e
    if g.degree(a) == 2:
        return a, b
    if g.degree(b) == 2:
        return b, a
    raise ValueError(f"edge {e} has no degree-2 endpoint")


def _witness(kind: str, base, other, ui: int, vi: int) -> BijectionWitness:
    """The three images of a recurrence at e = uv, deg u = 2 (0-based ui, vi).

    base is D(g); other is D(g minus e) for a subdivision and D(g) again for
    a triangle join (one entry set then serves both), the only place where
    the two constructions differ. A
    maps c in D(g) to (c, 1); B maps c in other to (c, 0) + e_u; C maps c in
    D(g) to (c, 2) - e_u when c_u >= 1 and c - e_u + e_v is in D(g), and
    otherwise to (c, 0) + e_v when c is in other and to (c, 0) + e_u when not.

    For a triangle join this is the paper's test. For a subdivision the paper
    asks whether (c, 2) - e_u is in D(g:e); with deg u = 2 and c_u >= 1 that
    holds iff c - e_u + e_v is in D(g), so D(g:e) need not be listed. The
    equivalence was checked against listings of D(g:e) for every connected
    graph with n <= 7 (530,196 sequences) and 300 random 2-connected graphs
    with n = 8-9 (2,409,704), at every edge and degree-2 endpoint; without
    deg u = 2 it fails, e.g. on 3,952 of 138,447 sequences with n <= 6.
    Callers verify a witness against an independent listing of the
    transformed graph (BijectionWitness.is_exact_cover_of).
    """
    in_base = base.entry_set()
    in_other = in_base if other is base else other.entry_set()
    set_a = tuple(((*c, 1), c) for c in base.entry_tuples())

    set_b = []
    for c in other.entry_tuples():
        img = [*c, 0]
        img[ui] += 1
        set_b.append((tuple(img), c))

    set_c = []
    for c in base.entry_tuples():
        collides = False
        if c[ui] >= 1:
            shifted = list(c)
            shifted[ui] -= 1
            shifted[vi] += 1
            collides = tuple(shifted) in in_base
        if collides:
            img = [*c, 2]
            img[ui] -= 1
        else:
            img = [*c, 0]
            img[vi if c in in_other else ui] += 1
        set_c.append((tuple(img), c))

    return BijectionWitness(kind=kind, set_a=set_a, set_b=tuple(set_b), set_c=tuple(set_c))


def subdivision_step(g: Graph, e) -> tuple[IdentityCheck, BijectionWitness]:
    """Subdivide e = uv (deg u = 2) in a connected g and certify the count.

    The edge identity (docs/edge-identity.md) and t = 3b give s = 2b + d on
    any connected g; d = 0 when e is a bridge.
    u is the degree-2 endpoint of e, the smaller label when both are. D(g)
    and D(g minus e) are listed once each and give the witness (see
    _witness); the subdivided graph is counted, not listed.
    """
    edge = tuple(sorted(e))
    if edge not in g.edges:
        raise ValueError(f"edge {edge} not in graph")
    if not is_connected(g):
        raise ValueError("subdivision step requires a connected graph")
    u_, v_ = _pick_degree_two_endpoint(g, edge)

    d_base = draconian.enumerate_draconian(g)
    d_del = draconian.enumerate_draconian(delete_edge(g, edge))
    n_sub = draconian.count(subdivide(g, edge))
    identity = IdentityCheck(
        kind="subdivision",
        transformed_count=n_sub,
        base_count=d_base.count,
        deleted_count=d_del.count,
        holds=n_sub == 2 * d_base.count + d_del.count,
    )
    return identity, _witness("subdivision", d_base, d_del, u_ - 1, v_ - 1)


def triangle_step(g: Graph, e) -> tuple[IdentityCheck, BijectionWitness]:
    """Triangle-join e = uv (deg u = 2) in a connected g and certify the count.

    u is chosen as in subdivision_step. D(g) is listed once and gives the
    witness (see _witness, with D(g) in both roles); the triangle-joined
    graph is counted, not listed.
    """
    edge = tuple(sorted(e))
    if edge not in g.edges:
        raise ValueError(f"edge {edge} not in graph")
    if not is_connected(g):
        raise ValueError("triangle step requires a connected graph")
    u_, v_ = _pick_degree_two_endpoint(g, edge)

    d_base = draconian.enumerate_draconian(g)
    n_tri = draconian.count(triangle_join(g, edge))
    identity = IdentityCheck(
        kind="triangle",
        transformed_count=n_tri,
        base_count=d_base.count,
        deleted_count=None,
        holds=n_tri == 3 * d_base.count,
    )
    return identity, _witness("triangle", d_base, d_base, u_ - 1, v_ - 1)


def edge_step(g: Graph, e) -> tuple[IdentityCheck, BijectionWitness]:
    """Certify the edge identity at e = uv and list its bijection.

    D(g) and D(g - e) are listed; the witness pairs each c in D(g) minus
    D(g - e) with its image (c, 0) + e_side(c), the new vertex x last.
    side(c) is u exactly when c passes the subset test on D(g) with the bar
    of u taken out of v's neighbourhood (docs/edge-identity.md, "Deciding
    the side"). The triangle-joined and subdivided graphs are counted, not
    listed; callers verify the witness against independent listings of both
    (BijectionWitness.is_exact_cover_of on their difference).
    """
    edge = tuple(sorted(e))
    if edge not in g.edges:
        raise ValueError(f"edge {edge} not in graph")
    u, v = edge

    d_base = draconian.enumerate_draconian(g)
    d_del = draconian.enumerate_draconian(delete_edge(g, edge))
    n_tri = draconian.count(triangle_join(g, edge))
    n_sub = draconian.count(subdivide(g, edge))
    identity = IdentityCheck(
        kind="edge",
        transformed_count=n_tri,
        base_count=d_base.count,
        deleted_count=d_del.count,
        holds=n_tri - n_sub == d_base.count - d_del.count,
        subdivided_count=n_sub,
    )

    masks = list(build_double(g).neighborhoods)
    masks[v - 1] &= ~(1 << (u - 1))
    one_way = BipartiteDouble(g.n, tuple(masks))
    in_del = d_del.entry_set()
    images = []
    for c in d_base.entry_tuples():
        if c in in_del:
            continue
        img = [*c, 0]
        img[(u if draconian.check_subset(one_way, c) else v) - 1] += 1
        images.append((tuple(img), c))
    return identity, BijectionWitness(kind="edge", set_a=tuple(images), set_b=(), set_c=())


# ---------------------------------------------------------------------------
# Planner


@dataclass(frozen=True)
class TraceNode:
    """One derivation step: the rule applied, the graph, and the value.

    The graph is n and edges, its sorted edge tuple, the planner's memo key;
    fingerprint is graphs.graph_fingerprint of that graph, hashed once on
    first read. k is the thread length of a reverse-subdivision step, which
    its value needs besides its children's values; it is None on every
    other rule.
    """

    rule: str
    edges: tuple[Edge, ...]
    n: int
    value: int
    detail: str = ""
    children: tuple[TraceNode, ...] = ()
    k: int | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def fingerprint(self) -> str:
        return _fingerprint(self.n, self.edges)


@dataclass(frozen=True)
class VolumeResult:
    value: int
    trace: TraceNode


def _distinct_nodes(root: TraceNode) -> dict[int, TraceNode]:
    """Each distinct node of the trace once, children first, keyed by id().

    Memo sharing makes a trace a DAG. Nodes are told apart by identity, so
    no comparison recurses through a shared subtree, and an explicit stack
    walks them left to right; the root comes last.
    """
    seen: dict[int, TraceNode] = {}
    stack = [root]
    while stack:
        top = stack[-1]
        if id(top) in seen:
            stack.pop()
            continue
        pending = [c for c in top.children if id(c) not in seen]
        if pending:
            stack.extend(reversed(pending))
            continue
        seen[id(stack.pop())] = top
    return seen


def trace_rows(root: TraceNode) -> list[dict]:
    """The trace as a node table: one row per distinct node, children first.

    A row's id is its index in _distinct_nodes' order, each child id is
    smaller than its parent's, and the root is the last row. Only
    reverse-subdivision rows have a "k" key, the thread length. Writing the
    rows reads every node's fingerprint.
    """
    ids: dict[int, int] = {}
    rows: list[dict] = []
    for key, node in _distinct_nodes(root).items():
        ids[key] = len(rows)
        row = {
            "id": len(rows),
            "rule": node.rule,
            "fingerprint": node.fingerprint,
            "n": node.n,
            "m": node.m,
            "value": node.value,
            "detail": node.detail,
            "children": [ids[id(c)] for c in node.children],
        }
        if node.k is not None:
            row["k"] = node.k
        rows.append(row)
    return rows


def serialize_trace(node: TraceNode) -> str:
    """The node table as text: a `# trace v<TRACE_VERSION>` line, then one line per row,

        n<id> <rule> <fingerprint> value=<v>[ [detail]][ <- n<c1> n<c2> ...]

    children before parents and the root last, so each shared node is
    written once however often it is used. A reverse-subdivision row's
    detail is `x=<x> k=<k>`, a reverse-triangle or reverse-ear row's `x=<x>`.
    """
    lines = [f"# trace v{TRACE_VERSION}\n"]
    for row in trace_rows(node):
        line = f"n{row['id']} {row['rule']} {row['fingerprint']} value={row['value']}"
        if row["detail"]:
            line += f" [{row['detail']}]"
        if row["children"]:
            line += " <-" + "".join(f" n{c}" for c in row["children"])
        lines.append(line + "\n")
    return "".join(lines)


def _combine(rule: str, values: list[int], k: int | None) -> int:
    """Value of a node from its children's values, by the node's rule.

    A reverse-subdivision node also needs its thread length k (see
    _reverse_move); its children are (G_1, H). A reverse-ear node's children
    are (G - uv, G - x, G - x - uv).
    """
    if rule in ("component-product", "block-product"):
        return prod(values)
    if rule == "reverse-subdivision":
        if not isinstance(k, int) or k < 2:
            raise ValueError(f"reverse-subdivision needs a thread length k >= 2, got {k!r}")
        g1, h = values
        return (g1 + (k - 1) * h) << (k - 1)
    if rule == "reverse-triangle":
        return 3 * values[0]
    if rule == "reverse-ear":
        if len(values) != 3:
            raise ValueError(f"reverse-ear needs 3 children, got {len(values)}")
        cut, rest, both = values
        return cut + rest - both
    raise ValueError(f"unknown combination rule {rule!r}")


def replay_trace(root: TraceNode) -> int:
    """Recompute the value from the leaves; raises on arithmetic mismatch.

    Values are recombined over the distinct nodes in the row order of
    trace_rows, so each is checked once, as the trace writers print it. A
    reverse-subdivision node's thread length is its k. Only the mismatch
    reported reads a fingerprint.
    """
    replayed: dict[int, int] = {}
    for key, node in _distinct_nodes(root).items():
        value = node.value
        if node.children:
            kids = [replayed[id(c)] for c in node.children]
            value = _combine(node.rule, kids, node.k)
            if value != node.value:
                raise ValueError(
                    f"trace mismatch at {node.rule} {node.fingerprint}: "
                    f"stored {node.value}, replayed {value}"
                )
        replayed[key] = value
    return replayed[id(root)]


# Keyed by (oracle mode, n, sorted edges), so the two strategies never share
# entries. A step that hits the enumeration cap raises before it is stored.
_MEMO: dict[tuple[bool, int, tuple[tuple[int, int], ...]], TraceNode] = {}


def clear_memo() -> None:
    _MEMO.clear()


def _match_cycle(g: Graph) -> bool:
    return g.n >= 3 and g.m == g.n and all(g.degree(v) == 2 for v in range(1, g.n + 1))


def _match_complete_minus_matching(g: Graph) -> int | None:
    """Number of removed matching edges, or None if the pattern fails.

    The missing edges form a matching exactly when no vertex misses two of
    its possible neighbors, that is when every degree is at least n - 2.
    """
    if g.n <= 2 or any(g.degree(v) < g.n - 2 for v in range(1, g.n + 1)):
        return None
    return comb(g.n, 2) - g.m


def _match_k2m(g: Graph) -> bool:
    if g.n < 4 or g.m != 2 * (g.n - 2):
        return False
    hubs = [v for v in range(1, g.n + 1) if g.degree(v) == g.n - 2]
    if len(hubs) != 2 or g.has_edge(*hubs):
        return False
    hub_set = set(hubs)
    for v in range(1, g.n + 1):
        if v in hub_set:
            continue
        if g.degree(v) != 2 or set(g.neighbors(v)) != hub_set:
            return False
    return True


def _thread_walk(g: Graph, x: int, nxt: int) -> tuple[list[int], int]:
    """Degree-2 vertices met walking from x through nxt, and the vertex that
    ends the walk: the first one of another degree, or x itself on a cycle."""
    inner, prev = [], x
    while nxt != x and g.degree(nxt) == 2:
        inner.append(nxt)
        p, q = g.neighbors(nxt)
        prev, nxt = nxt, q if p == prev else p
    return inner, nxt


def _reverse_move(g: Graph):
    """First reverse step on a 2-connected block: (rule, detail, k, children).

    Degree-2 vertices x are scanned in label order. If the neighbors of x
    are adjacent and one of them has degree 3, x undoes a triangle join. If
    they are non-adjacent and one has degree 2, x lies on a maximal thread
    a - x_1 - ... - x_k - b (k >= 2) of degree-2 vertices, and x is its
    smallest label. The whole thread is undone in one step with children
    G_1, which is g with x_1..x_k replaced by x alone (adjacent to a and b),
    and H, which is g without x_1..x_k:

        V(g) = 2^(k-1) * (V(G_1) + (k-1) * V(H)).

    Derivation: let G_j be g with the thread cut to j vertices, so g = G_k.
    For j >= 1 every thread edge of G_j has a degree-2 endpoint and G_j is
    2-connected, so the paper's subdivision recurrence gives V(G_{j+1}) =
    2 V(G_j) + V(G_j minus a thread edge). G_j minus a thread edge is H with
    j pendant vertices on paths hanging at a and b; each adds a bridge,
    which doubles the value, so V(G_{j+1}) = 2 V(G_j) + 2^j V(H). Unrolling
    from j = 1 to k - 1 gives the formula. For k = 2 it is 2 V(G_1) +
    V(g - x), the single subdivision step, since g - x is H plus a pendant
    vertex.

    Only when the scan finds neither move, the smallest degree-2 x whose
    neighbors u and v are adjacent is an ear, undone by the edge identity
    (module docstring) with children G - uv, G - x and G - x - uv:

        V(g) = V(g - uv) + V(g - x) - V(g - x - uv).

    With n >= 4 all three are connected: g - x is 2-connected, since u and
    v are adjacent, so deleting uv from it or from g disconnects neither.

    None when no vertex qualifies. On a cycle block the walk returns to x
    and the result is None too; closed-form:cycle fires before this anyway.
    """
    ear = None
    for x in range(1, g.n + 1):
        if g.degree(x) != 2:
            continue
        v, w = g.neighbors(x)
        if g.has_edge(v, w):
            if g.degree(v) == 3 or g.degree(w) == 3:
                rest = [u for u in range(1, g.n + 1) if u != x]
                return "reverse-triangle", f"x={x}", None, (induced_subgraph(g, rest),)
            if ear is None:
                ear = x, v, w
        elif g.degree(v) == 2 or g.degree(w) == 2:
            left, a = _thread_walk(g, x, v)
            if a == x:
                return None
            right, b = _thread_walk(g, x, w)
            inner = {x, *left, *right}
            k = len(inner)
            rest = [u for u in range(1, g.n + 1) if u not in inner]
            bridged = from_edge_list(g.n, [*g.edges, (a, x), (x, b)])
            g1 = induced_subgraph(bridged, sorted([*rest, x]))
            return "reverse-subdivision", f"x={x} k={k}", k, (g1, induced_subgraph(g, rest))
    if ear is None or g.n < 4:
        return None
    x, v, w = ear
    cut = delete_edge(g, (v, w))
    rest = [u for u in range(1, g.n + 1) if u != x]
    return "reverse-ear", f"x={x}", None, (cut, induced_subgraph(g, rest), induced_subgraph(cut, rest))


def _step(g: Graph, oracle: bool, workers: int):
    """One planner step on g: (rule, detail, k, child graphs, leaf value).

    A leaf has no children and carries its value; any other node gets its
    value from _combine over its children's values and k, the thread length
    of a reverse-subdivision step (None for every other rule). In oracle
    mode the step stops after the component split and enumerates.
    """
    comps = connected_components(g)
    if len(comps) > 1:
        return "component-product", "", None, [induced_subgraph(g, c) for c in comps], None
    if oracle:
        return "enumeration", "", None, (), draconian.count(g, workers=workers)
    if g.n == 1:
        return "closed-form:vertex", "", None, (), 1

    # one block pass; a single block is g itself, so no copy of it is built
    blocks, _ = blocks_and_cut_vertices(g)
    if len(blocks) > 1:
        return "block-product", "", None, block_subgraphs(g, blocks), None

    # g is a single 2-connected block from here on.
    if g.n == 2:
        return "closed-form:edge", "", None, (), 2
    if _match_cycle(g):
        return "closed-form:cycle", f"n={g.n}", None, (), nvol_cycle(g.n)
    k = _match_complete_minus_matching(g)
    if k is not None:
        return (
            "closed-form:complete-minus-matching",
            f"n={g.n} k={k}",
            None,
            (),
            nvol_complete_minus_matching(g.n, k),
        )
    if _match_k2m(g):
        return "closed-form:k2m", f"n={g.n}", None, (), nvol_k2m(g.n)

    formula = outerplanar._block_value(g)  # (value, conjectural), or None
    if formula is not None and not formula[1]:
        return "outerplanar-formula", "", None, (), formula[0]

    move = _reverse_move(g)
    if move is not None:
        return (*move, None)

    return "enumeration", "", None, (), draconian.count(g, workers=workers)


def _plan(g: Graph, oracle: bool, workers: int) -> TraceNode:
    """Trace of g, planned depth-first over an explicit stack of open steps.

    Children are planned left to right, each looked up in _MEMO when its turn
    comes. The stack, not the interpreter's recursion limit, bounds the
    depth; a step leaves it once its last child is done.
    """
    stack = []  # (memo key, rule, detail, k, child graphs, child nodes)
    todo = g
    while True:
        key = (oracle, todo.n, todo.sorted_edges)
        node = _MEMO.get(key)
        if node is None:
            rule, detail, k, kids, value = _step(todo, oracle, workers)
            if kids:
                stack.append((key, rule, detail, k, kids, []))
                todo = kids[0]
                continue
            node = _MEMO[key] = TraceNode(rule, todo.sorted_edges, todo.n, value, detail)
        while stack:
            key, rule, detail, k, kids, done = stack[-1]
            done.append(node)
            if len(done) < len(kids):
                break
            stack.pop()
            _, n, edges = key
            value = _combine(rule, [c.value for c in done], k)
            node = _MEMO[key] = TraceNode(rule, edges, n, value, detail, tuple(done), k)
        else:
            return node
        todo = kids[len(done)]


def nvol(g: Graph, strategy: str = "auto", workers: int = 1) -> VolumeResult:
    """Exact normalized volume of the adjacency polytope of g, with trace.

    strategy "auto" runs the full planner; "enumerate" is the oracle mode: it
    splits g into connected components and enumerates each one, bypassing
    every other rule. A leaf that must enumerate a block above
    draconian.MAX_N vertices raises ResourceCapExceeded.
    """
    if strategy not in ("auto", "enumerate"):
        raise ValueError(f"unknown strategy {strategy!r}")
    node = _plan(g, strategy == "enumerate", workers)
    return VolumeResult(value=node.value, trace=node)
