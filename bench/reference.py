"""Reference values computed apart from pqvol, for checking its outputs.

Nothing here imports pqvol. Graphs are given as a vertex count n and an
iterable of edges (u, v) on the vertices 1..n.
"""

from __future__ import annotations

from math import comb


def cycle_count(n: int) -> int:
    """Draconian sequences of the n-cycle: n * 2^(n-2)."""
    return n * 2 ** (n - 2)


def complete_minus_matching_count(n: int, k: int) -> int:
    """K_n minus a k-edge matching: C(2n-2, n-1) - 2k."""
    return comb(2 * n - 2, n - 1) - 2 * k


def k2m_count(n: int) -> int:
    """K_{2,n-2} on n >= 4 vertices: 2^(n-4) (n^2 - n + 6) - 2."""
    return 2 ** (n - 4) * (n * n - n + 6) - 2


def wheel_count(rim: int) -> int:
    """Wheel over the rim cycle C_rim: 3^rim - 2^rim + 1.

    Conjectured in general; the repository's acceptance suite confirms it
    against enumeration for rim <= 10, so only that range may be used.
    """
    if not 3 <= rim <= 10:
        raise ValueError(f"wheel value is confirmed only for rim 3..10, got {rim}")
    return 3**rim - 2**rim + 1


def neighborhood_masks(n: int, edges) -> list[int]:
    """Closed neighborhood of each vertex of 1..n as a bitmask, index 0 first."""
    masks = [1 << i for i in range(n)]
    for u, v in edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return masks


def is_draconian(masks: list[int], seq) -> bool:
    """Brute force over every nonempty subset S of the vertices.

    The sequence must sum to n - 1 and every S must satisfy
    sum(seq[i] for i in S) < |union of the closed neighborhoods of S|.
    """
    n = len(masks)
    if len(seq) != n or sum(seq) != n - 1 or min(seq) < 0:
        return False
    sums = [0] * (1 << n)
    unions = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        i = low.bit_length() - 1
        rest = s ^ low
        sums[s] = sums[rest] + seq[i]
        unions[s] = unions[rest] | masks[i]
        if sums[s] >= unions[s].bit_count():
            return False
    return True


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def outer_faces(n: int, chords) -> list[tuple[int, bool]]:
    """Bounded faces of the cycle 1..n with non-crossing chords.

    Returns (boundary length, touches the outer cycle) per face. Cutting the
    cycle at the edge (n, 1) turns non-crossing chords into nested or
    disjoint intervals, so each chord (a, b), a < b, closes the face made of
    the vertices of a..b that no shorter chord has hidden yet; the vertices
    left at the end bound the face that holds the edge (n, 1).
    """
    visible = [True] * (n + 1)
    faces = []
    for a, b in sorted(((min(c), max(c)) for c in chords), key=lambda c: c[1] - c[0]):
        verts = [v for v in range(a, b + 1) if visible[v]]
        outer = any(w == u + 1 for u, w in zip(verts, verts[1:]))
        faces.append((len(verts), outer))
        for v in verts[1:-1]:
            visible[v] = False
    faces.append((sum(visible[1:]), True))
    return faces


def face_product(n: int, chords) -> tuple[int, bool]:
    """2^(n - f - 1) times the product of the face lengths, f = #bounded faces.

    The second component is True when every bounded face has an edge on the
    outer cycle; only then is the formula a theorem rather than a conjecture.
    """
    faces = outer_faces(n, chords)
    value = 2 ** (n - len(faces) - 1)
    for length, _ in faces:
        value *= length
    return value, all(outer for _, outer in faces)
