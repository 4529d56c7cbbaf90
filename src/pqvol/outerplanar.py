"""Outerplanarity recognition and the outer-face volume formula.

A 2-connected graph on n >= 3 vertices is outerplanar exactly when it has a
Hamiltonian cycle whose remaining edges, the chords, pairwise do not cross.
That cycle is then unique, and the chords cut the polygon into bounded faces.
Recognition builds this certificate in one O(n log n) pass per block (Mitchell
1979): peel degree-2 vertices, bridging their two neighbors, down to a
triangle; reinsert them in reverse to obtain the candidate cycle; accept only
if every cycle edge is an edge of the block and no two chords cross. Each
bounded face F contributes its boundary length as the degree of the
corresponding extended-weak-dual vertex, and the volume of the block is

    2^(n - |faces| - 1) * product of face boundary lengths.

The value is conjectural when some bounded face has no edge on the outer
cycle; callers receive that flag and must not treat the number as proven.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, block_subgraphs, is_two_connected

__all__ = [
    "Face",
    "NotOuterplanarError",
    "NotTwoConnectedError",
    "OuterStructure",
    "ewd_degrees",
    "is_outerplanar",
    "nvol_outerplanar",
    "outer_structure",
]

class NotTwoConnectedError(ValueError):
    """The operation requires a 2-connected input."""


class NotOuterplanarError(ValueError):
    """The operation requires an outerplanar input."""


@dataclass(frozen=True)
class Face:
    """A bounded face: its boundary cycle, length, and outer-edge count."""

    vertices: tuple[int, ...]
    boundary_length: int
    outer_edges: int


@dataclass(frozen=True)
class OuterStructure:
    """Outer cycle, chords, and bounded faces of a 2-connected block."""

    outer_cycle: tuple[int, ...]
    chords: tuple[tuple[int, int], ...]
    faces: tuple[Face, ...]

    def validate(self) -> None:
        n = len(self.outer_cycle)
        if len(self.faces) != len(self.chords) + 1:
            raise RuntimeError("face count must be chord count + 1")
        if sum(f.outer_edges for f in self.faces) != n:
            raise RuntimeError("outer edges must partition across faces")
        if sum(f.boundary_length for f in self.faces) != n + 2 * len(self.chords):
            raise RuntimeError("boundary lengths must cover cycle and chords twice")
        pos = {v: i for i, v in enumerate(self.outer_cycle)}
        for (a, b), (c, d) in combinations(self.chords, 2):
            pa, pb = sorted((pos[a], pos[b]))
            pc, pd = sorted((pos[c], pos[d]))
            if (pa < pc < pb < pd) or (pc < pa < pd < pb):
                raise RuntimeError(f"chords {(a, b)} and {(c, d)} cross")

    def serialize(self) -> str:
        lines = ["outer-cycle: " + " ".join(str(v) for v in self.outer_cycle)]
        lines.append(
            "chords: " + (" ".join(f"{a}-{b}" for a, b in self.chords) or "(none)")
        )
        for f in self.faces:
            verts = " ".join(str(v) for v in f.vertices)
            lines.append(
                f"face: vertices={verts} length={f.boundary_length} outer={f.outer_edges}"
            )
        return "\n".join(lines) + "\n"


def _peel_cycle(block: Graph) -> list[int] | None:
    """Candidate outer cycle of a block on >= 3 vertices, or None.

    Peels degree-2 vertices, bridging their two neighbors, down to a triangle,
    then reinserts each peeled vertex next to its first neighbor, on the side
    of the second one. In a 2-connected outerplanar graph the neighbors of a
    peeled vertex are consecutive on the smaller graph's outer cycle, so the
    peel always reaches a triangle and the result is the outer cycle; None
    therefore means the block is not outerplanar. For other blocks a returned
    cycle may use non-edges or leave crossing chords, so the caller checks it.
    """
    n = block.n
    adj = [set()] + [set(block.neighbors(v)) for v in range(1, n + 1)]
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


def _canonical_rotation(cycle: list[int]) -> tuple[int, ...]:
    """Start at vertex 1 and walk toward its smaller cycle neighbor."""
    if cycle[1] > cycle[-1]:
        cycle = cycle[:1] + cycle[:0:-1]
    return tuple(cycle)


def _face_canonical(face: tuple[int, ...]) -> tuple[int, ...]:
    i = face.index(min(face))
    return face[i:] + face[:i]


def _structure(block: Graph) -> OuterStructure | None:
    """The recognition pass: outer structure of a 2-connected block, or None.

    The block must have n >= 3 vertices. The peeled cycle is accepted only as
    a certificate: every cycle edge must be an edge of the block and no two
    chords may cross. Faces are traced in one sweep along the cycle with a
    stack of open chords, which is also the crossing test: every chord that
    closes at position p must be the innermost open one.
    """
    n = block.n
    if block.m > 2 * n - 3:
        return None
    peeled = _peel_cycle(block)
    if peeled is None:
        return None
    cycle = _canonical_rotation(peeled)
    pos = [0] * (n + 1)
    for i, v in enumerate(cycle):
        pos[v] = i
    cycle_edges = set()
    for i in range(n):
        a, b = cycle[i], cycle[(i + 1) % n]
        cycle_edges.add((a, b) if a < b else (b, a))
    if not cycle_edges <= block.edges:
        return None
    chords = tuple(sorted(block.edges - cycle_edges))

    # chords as position intervals: count where they close, and open them
    # outermost first so that each closes as the innermost open one
    opens: list[list[int]] = [[] for _ in range(n)]
    closes = [0] * n
    for a, b in chords:
        i, j = sorted((pos[a], pos[b]))
        opens[i].append(j)
        closes[j] += 1
    regions: list[list[int]] = []
    stack: list[tuple[int, list[int]]] = [(n, [])]  # (closing position, region)
    for p in range(n):
        stack[-1][1].append(p)
        for _ in range(closes[p]):
            end, region = stack.pop()
            if end != p:
                return None
            regions.append(region)
            stack[-1][1].append(p)
        for j in sorted(opens[p], reverse=True):
            stack.append((j, [p]))
    regions.append(stack.pop()[1])

    faces = []
    for region in regions:
        k = len(region)
        outer = sum(region[t + 1] - region[t] == 1 for t in range(k - 1))
        outer += region[-1] - region[0] == n - 1
        verts = _face_canonical(tuple(cycle[q] for q in region))
        faces.append(Face(vertices=verts, boundary_length=k, outer_edges=outer))
    faces.sort(key=lambda f: f.vertices)
    return OuterStructure(outer_cycle=cycle, chords=chords, faces=tuple(faces))


def is_outerplanar(g: Graph) -> bool:
    """True iff every block has an outer cycle with non-crossing chords.

    A block on n >= 3 vertices is outerplanar exactly when it has a
    Hamiltonian cycle whose remaining edges pairwise do not cross; the
    recognition pass builds that certificate in O(n log n) time or reports that
    none exists. Single-edge blocks are always outerplanar.
    """
    return all(block.n < 3 or _structure(block) is not None for block in block_subgraphs(g))


def outer_structure(g: Graph) -> OuterStructure:
    """Outer cycle, chords, and bounded faces of a 2-connected outerplanar graph."""
    if g.n < 3 or not is_two_connected(g):
        raise NotTwoConnectedError(
            f"outer structure needs a 2-connected graph on >= 3 vertices, got "
            f"n={g.n}, m={g.m}"
        )
    structure = _structure(g)
    if structure is None:
        raise NotOuterplanarError("graph contains a K_4 or K_{2,3} subdivision")
    return structure


def ewd_degrees(s: OuterStructure) -> list[int]:
    """Extended-weak-dual degree of each bounded face's vertex.

    Every boundary edge of a face contributes one ewd neighbor: the bounded
    face across a chord, or the pendant leaf attached across an outer edge.
    The degree therefore equals the boundary length.
    """
    return [f.boundary_length for f in s.faces]


def _block_value(block: Graph) -> tuple[int, bool] | None:
    """Face-product value and conjectural flag of a block, or None if the
    block is not outerplanar."""
    if block.n == 2:
        return 2, False
    s = _structure(block)
    if s is None:
        return None
    value = 1 << (block.n - len(s.faces) - 1)
    for d in ewd_degrees(s):
        value *= d
    conjectural = any(f.outer_edges == 0 for f in s.faces)
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
