"""Closed-form volumes, recurrences with bijection witnesses, and a planner.

The planner computes the normalized volume of the adjacency polytope of a
graph by decomposing into connected components and blocks, matching blocks
against closed-form families, applying the outer-face formula, undoing
subdivision and triangle moves, and finally falling back to direct
enumeration. Every result carries a derivation trace that can be replayed.

The subdivision and triangle-join recurrences share one bijection
construction (_witness): each step lists D(g), the subdivision step also
D(g minus e), and the transformed graph is only counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

from . import draconian, outerplanar
from .graphs import (
    Graph,
    add_edge,
    block_subgraphs,
    connected_components,
    delete_edge,
    delete_vertex,
    graph_fingerprint,
    induced_subgraph,
    is_two_connected,
    relabel_map_after_delete,
    subdivide,
    triangle_join,
)

__all__ = [
    "BijectionWitness",
    "IdentityCheck",
    "TraceNode",
    "VolumeResult",
    "clear_memo",
    "nvol",
    "nvol_complete_minus_matching",
    "nvol_cycle",
    "nvol_forest",
    "nvol_k2m",
    "replay_trace",
    "serialize_trace",
    "stirling2",
    "stirling_identity_check",
    "subdivision_eligible",
    "subdivision_step",
    "trace_rows",
    "triangle_eligible",
    "triangle_step",
    "wheel_conjecture_value",
]


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
    """Counted sides of a recurrence identity."""

    kind: str  # "subdivision" | "triangle"
    transformed_count: int
    base_count: int
    deleted_count: int | None
    holds: bool


@dataclass(frozen=True)
class BijectionWitness:
    """Images of the three constructions, each paired with its preimage."""

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


def _pick_degree_two_endpoint(g: Graph, e: tuple[int, int], u: int | None) -> tuple[int, int]:
    a, b = e
    if u is not None:
        if u not in e:
            raise ValueError(f"u={u} is not an endpoint of {e}")
        if g.degree(u) != 2:
            raise ValueError(f"endpoint u={u} must have degree 2, has {g.degree(u)}")
        return u, b if u == a else a
    if g.degree(a) == 2:
        return a, b
    if g.degree(b) == 2:
        return b, a
    raise ValueError(f"edge {e} has no degree-2 endpoint")


def subdivision_eligible(g: Graph, e) -> bool:
    a, b = sorted(e)
    return (
        (a, b) in g.edges
        and (g.degree(a) == 2 or g.degree(b) == 2)
        and is_two_connected(g)
    )


def triangle_eligible(g: Graph, e) -> bool:
    a, b = sorted(e)
    return (
        (a, b) in g.edges
        and (g.degree(a) == 2 or g.degree(b) == 2)
        and len(connected_components(g)) == 1
    )


def _witness(kind: str, base, other, ui: int, vi: int) -> BijectionWitness:
    """The three images of a recurrence at e = uv, deg u = 2 (0-based ui, vi).

    base is D(g); other is D(g minus e) for a subdivision and D(g) again for
    a triangle join, the only place where the two constructions differ. A
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
    in_base, in_other = base.entry_set(), other.entry_set()
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


def subdivision_step(
    g: Graph, e, u: int | None = None
) -> tuple[IdentityCheck, BijectionWitness]:
    """Subdivide e = uv (deg u = 2) in a 2-connected g and certify the count.

    D(g) and D(g minus e) are listed once each and give the witness (see
    _witness); the subdivided graph is counted, not listed.
    """
    edge = tuple(sorted(e))
    if edge not in g.edges:
        raise ValueError(f"edge {edge} not in graph")
    if not is_two_connected(g):
        raise ValueError("subdivision step requires a 2-connected graph")
    u_, v_ = _pick_degree_two_endpoint(g, edge, u)

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


def triangle_step(
    g: Graph, e, u: int | None = None
) -> tuple[IdentityCheck, BijectionWitness]:
    """Triangle-join e = uv (deg u = 2) in a connected g and certify the count.

    D(g) is listed once and gives the witness (see _witness, with D(g) in
    both roles); the triangle-joined graph is counted, not listed.
    """
    edge = tuple(sorted(e))
    if edge not in g.edges:
        raise ValueError(f"edge {edge} not in graph")
    if len(connected_components(g)) != 1:
        raise ValueError("triangle step requires a connected graph")
    u_, v_ = _pick_degree_two_endpoint(g, edge, u)

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


# ---------------------------------------------------------------------------
# Planner


@dataclass(frozen=True)
class TraceNode:
    """One derivation step: the rule applied, the graph, and the value."""

    rule: str
    fingerprint: str
    n: int
    m: int
    value: int
    detail: str = ""
    children: tuple[TraceNode, ...] = ()


@dataclass(frozen=True)
class VolumeResult:
    value: int
    trace: TraceNode


def trace_rows(root: TraceNode) -> list[dict]:
    """The trace as a node table: one row per distinct node, children first.

    Memo sharing makes a trace a DAG. Nodes are told apart by identity, so
    no comparison recurses through a shared subtree, and an explicit stack
    walks them left to right. A row's id is its index, each child id is
    smaller than its parent's, and the root is the last row.
    """
    ids: dict[int, int] = {}
    rows: list[dict] = []
    stack = [root]
    while stack:
        top = stack[-1]
        if id(top) in ids:
            stack.pop()
            continue
        pending = [c for c in top.children if id(c) not in ids]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        ids[id(top)] = len(rows)
        rows.append(
            {
                "id": len(rows),
                "rule": top.rule,
                "fingerprint": top.fingerprint,
                "n": top.n,
                "m": top.m,
                "value": top.value,
                "detail": top.detail,
                "children": [ids[id(c)] for c in top.children],
            }
        )
    return rows


def serialize_trace(node: TraceNode) -> str:
    """The node table as text: a `# trace v2` line, then one line per row,

        n<id> <rule> <fingerprint> value=<v>[ [detail]][ <- n<c1> n<c2> ...]

    children before parents and the root last, so each shared node is
    written once however often it is used.
    """
    lines = ["# trace v2\n"]
    for row in trace_rows(node):
        line = f"n{row['id']} {row['rule']} {row['fingerprint']} value={row['value']}"
        if row["detail"]:
            line += f" [{row['detail']}]"
        if row["children"]:
            line += " <-" + "".join(f" n{c}" for c in row["children"])
        lines.append(line + "\n")
    return "".join(lines)


def _combine(rule: str, values: list[int]) -> int:
    """Value of a node from its children's values, by the node's rule."""
    if rule in ("component-product", "block-product"):
        return prod(values)
    if rule == "reverse-subdivision":
        return 2 * values[0] + values[1]
    if rule == "reverse-triangle":
        return 3 * values[0]
    raise ValueError(f"unknown combination rule {rule!r}")


def replay_trace(node: TraceNode) -> int:
    """Recompute the value from the leaves; raises on arithmetic mismatch.

    Values are recombined over the rows of trace_rows in row order, so each
    distinct node is checked once, as the trace writers print it.
    """
    replayed: list[int] = []
    for row in trace_rows(node):
        value = row["value"]
        if row["children"]:
            value = _combine(row["rule"], [replayed[c] for c in row["children"]])
            if value != row["value"]:
                raise ValueError(
                    f"trace mismatch at {row['rule']} {row['fingerprint']}: "
                    f"stored {row['value']}, replayed {value}"
                )
        replayed.append(value)
    return replayed[-1]


# Keyed by (oracle mode, enumeration cap, n, sorted edges), so the two
# strategies never share entries and a smaller cap is never answered from a
# run under a larger one.
_MEMO: dict[tuple[bool, int, int, tuple[tuple[int, int], ...]], TraceNode] = {}


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


def _reverse_move(g: Graph):
    """First applicable reverse step on a 2-connected block, or None.

    Scanning degree-2 vertices in label order: a vertex whose neighbors are
    adjacent undoes a triangle join when one neighbor drops to degree 2; one
    whose neighbors are non-adjacent undoes a subdivision when one neighbor
    has degree 2.
    """
    for x in range(1, g.n + 1):
        if g.degree(x) != 2:
            continue
        v, w = g.neighbors(x)
        if g.has_edge(v, w):
            if g.degree(v) == 3 or g.degree(w) == 3:
                return "triangle", x, None
        elif g.degree(v) == 2 or g.degree(w) == 2:
            smaller = delete_vertex(g, x)
            remap = relabel_map_after_delete(g.n, x)
            bridged = add_edge(smaller, (remap[v], remap[w]))
            # g is bridged with vw subdivided: no cut vertex appears or vanishes
            return "subdivision", x, (bridged, smaller)
    return None


def _step(g: Graph, oracle: bool, workers: int, config):
    """One planner step on g: (rule, detail, child graphs, leaf value).

    A leaf has no children and carries its value; any other node gets its
    value from _combine over its children's values. In oracle mode the step
    stops after the component split and enumerates.
    """
    comps = connected_components(g)
    if len(comps) > 1:
        return "component-product", "", [induced_subgraph(g, c) for c in comps], None
    if oracle:
        return "enumeration", "", (), draconian.count(g, workers=workers, config=config)
    if g.n == 1:
        return "closed-form:vertex", "", (), 1

    blocks = block_subgraphs(g)
    if len(blocks) > 1:
        return "block-product", "", blocks, None

    # g is a single 2-connected block from here on.
    if g.n == 2:
        return "closed-form:edge", "", (), 2
    if _match_cycle(g):
        return "closed-form:cycle", f"n={g.n}", (), nvol_cycle(g.n)
    k = _match_complete_minus_matching(g)
    if k is not None:
        return (
            "closed-form:complete-minus-matching",
            f"n={g.n} k={k}",
            (),
            nvol_complete_minus_matching(g.n, k),
        )
    if _match_k2m(g):
        return "closed-form:k2m", f"n={g.n}", (), nvol_k2m(g.n)

    formula = outerplanar._block_value(g)  # (value, conjectural), or None
    if formula is not None and not formula[1]:
        return "outerplanar-formula", "", (), formula[0]

    move = _reverse_move(g)
    if move is not None:
        kind, x, payload = move
        if kind == "triangle":
            return "reverse-triangle", f"x={x}", (delete_vertex(g, x),), None
        return "reverse-subdivision", f"x={x}", payload, None

    return "enumeration", "", (), draconian.count(g, workers=workers, config=config)


def _plan(g: Graph, oracle: bool, workers: int, config) -> TraceNode:
    """Trace of g, planned depth-first over an explicit stack of open steps.

    Children are planned left to right, each looked up in _MEMO when its turn
    comes. The stack, not the interpreter's recursion limit, bounds the
    depth; a step leaves it once its last child is done.
    """
    max_n = (config or draconian.EnumerationConfig()).max_n
    stack = []  # (memo key, graph, rule, detail, child graphs, child nodes)
    todo = g
    while True:
        key = (oracle, max_n, todo.n, todo.sorted_edges)
        node = _MEMO.get(key)
        if node is None:
            rule, detail, kids, value = _step(todo, oracle, workers, config)
            if kids:
                stack.append((key, todo, rule, detail, kids, []))
                todo = kids[0]
                continue
            node = _MEMO[key] = TraceNode(
                rule, graph_fingerprint(todo), todo.n, todo.m, value, detail
            )
        while stack:
            key, h, rule, detail, kids, done = stack[-1]
            done.append(node)
            if len(done) < len(kids):
                break
            stack.pop()
            value = _combine(rule, [c.value for c in done])
            node = _MEMO[key] = TraceNode(
                rule, graph_fingerprint(h), h.n, h.m, value, detail, tuple(done)
            )
        else:
            return node
        todo = kids[len(done)]


def nvol(
    g: Graph,
    strategy: str = "auto",
    workers: int = 1,
    config: draconian.EnumerationConfig | None = None,
) -> VolumeResult:
    """Exact normalized volume of the adjacency polytope of g, with trace.

    strategy "auto" runs the full planner; "enumerate" is the oracle mode: it
    splits g into connected components and enumerates each one, bypassing
    every other rule.
    """
    if strategy not in ("auto", "enumerate"):
        raise ValueError(f"unknown strategy {strategy!r}")
    node = _plan(g, strategy == "enumerate", workers, config)
    return VolumeResult(value=node.value, trace=node)
