"""Outerplanarity recognition and the outer-face volume formula.

A 2-connected graph on n >= 3 vertices is outerplanar exactly when it has a
Hamiltonian cycle whose remaining edges, the chords, pairwise do not cross.
That cycle is then unique, and the chords cut the polygon into bounded faces.
Recognition, _structure, builds this certificate in one O(n log n) pass per
block (Mitchell 1979); there is no other recogniser:
- peel degree-2 vertices, bridging their two neighbors, down to a triangle,
  and reinsert them in reverse to obtain the candidate cycle;
- accept it only if every cycle edge is an edge of the block;
- sweep the cycle with a stack of open chords, which rejects crossing
  chords and yields each bounded face's boundary and outer-edge count.

Each bounded face F contributes its boundary length as the degree of the
corresponding extended-weak-dual vertex, and the volume of the block is

    2^(n - |faces| - 1) * product of face boundary lengths.

_block_value multiplies the sweep's numbers directly, for the planner,
is_outerplanar and nvol_outerplanar alike; in the package _structure has
no other caller.

The value is conjectural when some bounded face has no edge on the outer
cycle; callers receive that flag and must not treat the number as proven.
"""

from __future__ import annotations

from .graphs import Graph, block_subgraphs

__all__ = [
    "NotOuterplanarError",
    "is_outerplanar",
    "nvol_outerplanar",
]


class NotOuterplanarError(ValueError):
    """The operation requires an outerplanar input."""


def _peel_cycle(block: Graph) -> list[int] | None:
    """Candidate outer cycle of a block on >= 3 vertices, or None.

    Peels degree-2 vertices, bridging their two neighbors, down to a triangle,
    then reinserts each peeled vertex next to its first neighbor, on the side
    of the second one. In a 2-connected outerplanar graph the neighbors of a
    peeled vertex are consecutive on the smaller graph's outer cycle, so the
    peel always reaches a triangle and the result is the outer cycle; None
    therefore means the block is not outerplanar. For other blocks a returned
    cycle may use non-edges or leave crossing chords, so the caller checks it.
    The cycle starts at vertex 1.
    """
    n = block.n
    adj = [set(nbrs) for nbrs in block._adj]  # index 0 is empty
    ready = [v for v in range(1, n + 1) if len(adj[v]) == 2]
    peeled: list[tuple[int, int, int]] = []
    while n - len(peeled) > 3 and ready:
        x = ready.pop()
        if len(adj[x]) != 2:  # degree fell since it was queued, or peeled
            continue
        v, w = adj[x]
        adj[x] = set()
        adj[v].discard(x)
        adj[w].discard(x)
        if w in adj[v]:
            ready.extend(y for y in (v, w) if len(adj[y]) == 2)
        else:
            adj[v].add(w)
            adj[w].add(v)
        peeled.append((x, v, w))
    rest = [v for v in range(1, n + 1) if adj[v]]
    if n - len(peeled) != 3 or len(rest) != 3 or any(len(adj[v]) != 2 for v in rest):
        return None
    a, b, c = rest
    nxt = [0] * (n + 1)
    nxt[a], nxt[b], nxt[c] = b, c, a
    for x, v, w in reversed(peeled):
        if nxt[w] == v:
            v, w = w, v
        nxt[v], nxt[x] = x, nxt[v]
    cycle = [1]
    while len(cycle) < n:
        cycle.append(nxt[cycle[-1]])
    return cycle


def _structure(block: Graph) -> tuple[list[int], list[tuple[list[int], int]]] | None:
    """The recognition pass: (outer cycle, bounded faces) of a 2-connected
    block, or None when the block is not outerplanar.

    The block must have n >= 3 vertices. The peeled cycle is accepted only as
    a certificate: every cycle edge must be an edge of the block and no two
    chords may cross. The faces are traced in one sweep along the cycle with a
    stack of open chords, which is also the crossing test: a chord may open
    only inside the innermost open one. Each face is (positions, outer
    edges): its boundary as ascending positions on the cycle, and how many
    of its boundary edges lie on the cycle. Its length is len(positions).
    """
    n = block.n
    if block.m > 2 * n - 3:
        return None
    cycle = _peel_cycle(block)
    if cycle is None:
        return None
    pos = [0] * (n + 1)
    for i, v in enumerate(cycle):
        pos[v] = i
    # an edge one step apart on the cycle is a cycle edge; the n cycle edges
    # are all present exactly when n edges are
    on_cycle = 0
    spans = []
    for a, b in block.edges:
        i, j = pos[a], pos[b]
        if i > j:
            i, j = j, i
        if j - i == 1 or j - i == n - 1:
            on_cycle += 1
        else:
            spans.append((i, -j))
    if on_cycle != n:
        return None
    # chords open outermost first, so each closes as the innermost open one
    spans.sort()
    spans.append((n, 0))  # sentinel: opens nothing
    faces: list[tuple[list[int], int]] = []
    # innermost open region: closing position, chords on its boundary, positions
    top = [n, 0, []]
    stack = [top]
    k = 0
    for p in range(n):
        top[2].append(p)
        while top[0] == p:
            stack.pop()
            faces.append((top[2], len(top[2]) - top[1]))
            top = stack[-1]
            top[1] += 1
            top[2].append(p)
        while spans[k][0] == p:
            j = -spans[k][1]
            if j > top[0]:
                return None  # the chord crosses the innermost open one
            top = [j, 1, [p]]  # its own chord closes the region
            stack.append(top)
            k += 1
    faces.append((top[2], len(top[2]) - top[1]))
    return cycle, faces


def is_outerplanar(g: Graph) -> bool:
    """True iff every block has an outer cycle with non-crossing chords.

    A block on n >= 3 vertices is outerplanar exactly when it has a
    Hamiltonian cycle whose remaining edges pairwise do not cross; the
    recognition pass builds that certificate in O(n log n) time or reports that
    none exists. Single-edge blocks are always outerplanar.
    """
    return all(_block_value(block) is not None for block in block_subgraphs(g))


def _block_value(block: Graph) -> tuple[int, bool] | None:
    """Value by the face product and conjectural flag of a block, or None if
    the block is not outerplanar.

    The value is 2^(n - |faces| - 1) times the faces' boundary lengths, read
    straight off the recognition sweep; it is conjectural when some face
    has no outer edge. The planner, nvol_outerplanar and is_outerplanar
    all come here.
    """
    if block.n == 2:
        return 2, False
    found = _structure(block)
    if found is None:
        return None
    faces = found[1]
    value = 1 << (block.n - len(faces) - 1)
    conjectural = False
    for positions, outer in faces:
        value *= len(positions)
        if not outer:
            conjectural = True
    return value, conjectural


def nvol_outerplanar(g: Graph) -> tuple[int, bool]:
    """Volume of an outerplanar graph by the face-product formula.

    Multiplies over components and blocks; a single-edge block contributes 2
    (the formula's exponent n - |faces| - 1 covers it uniformly). The result
    is flagged conjectural when any bounded face misses the outer cycle.
    """
    value = 1
    conjectural = False
    for block in block_subgraphs(g):
        result = _block_value(block)
        if result is None:
            raise NotOuterplanarError("graph contains a K_4 or K_{2,3} subdivision")
        value *= result[0]
        conjectural = conjectural or result[1]
    return value, conjectural
