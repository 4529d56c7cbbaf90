"""Tests of the benchmark's own reference code; pqvol is not imported.

Run from the root of a checkout: python3 -m pytest bench/tests
"""

import sys
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402
from tracing import Recorder  # noqa: E402


def brute_count(n, edges):
    masks = reference.neighborhood_masks(n, edges)
    return sum(reference.is_draconian(masks, s) for s in reference.compositions(n - 1, n))


def cycle(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


def wheel(rim):
    return [(1, i) for i in range(2, rim + 2)] + [(i, i + 1) for i in range(2, rim + 1)] + [(rim + 1, 2)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cycle_count_matches_brute_force(n):
    assert reference.cycle_count(n) == brute_count(n, cycle(n))


@pytest.mark.parametrize("n,k", [(3, 0), (4, 0), (4, 1), (4, 2), (5, 2), (6, 3)])
def test_complete_minus_matching_matches_brute_force(n, k):
    removed = {(2 * i - 1, 2 * i) for i in range(1, k + 1)}
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in removed]
    assert reference.complete_minus_matching_count(n, k) == brute_count(n, edges)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_k2m_count_matches_brute_force(m):
    edges = [(i, 2 + j) for i in (1, 2) for j in range(1, m + 1)]
    assert reference.k2m_count(m + 2) == brute_count(m + 2, edges)


@pytest.mark.parametrize("rim", [3, 4, 5])
def test_wheel_count_matches_brute_force(rim):
    assert reference.wheel_count(rim) == brute_count(rim + 1, wheel(rim))


def test_wheel_count_refuses_unconfirmed_rims():
    with pytest.raises(ValueError):
        reference.wheel_count(11)


def test_is_draconian_rejects_bad_sums_and_tight_subsets():
    masks = reference.neighborhood_masks(3, [(1, 2), (2, 3)])  # path 1-2-3
    assert reference.is_draconian(masks, (0, 2, 0))
    assert not reference.is_draconian(masks, (2, 0, 0))  # {1} has only 2 neighbours
    assert not reference.is_draconian(masks, (0, 1, 0))  # sums to 1, not n - 1


def test_compositions_are_all_and_ordered():
    comps = list(reference.compositions(4, 3))
    assert len(comps) == comb(6, 2)
    assert comps == sorted(set(comps))
    assert all(sum(c) == 4 for c in comps)


def test_outer_faces_of_nested_chords():
    faces = reference.outer_faces(8, [(1, 5), (2, 4), (5, 8)])
    assert sorted(faces) == [(3, True), (3, True), (4, True), (4, True)]


def test_interior_face_is_flagged():
    # Triangle of chords 1-3-5 inside the hexagon: its face has no outer edge.
    faces = reference.outer_faces(6, [(1, 3), (3, 5), (1, 5)])
    assert sorted(faces) == [(3, False), (3, True), (3, True), (3, True)]
    assert reference.face_product(6, [(1, 3), (3, 5), (1, 5)]) == (2 * 3**4, False)


@pytest.mark.parametrize(
    "n,chords",
    [(5, []), (5, [(1, 3)]), (6, [(1, 3), (1, 4)]), (6, [(2, 5)]), (7, [(1, 4), (4, 7)])],
)
def test_face_product_matches_brute_force(n, chords):
    value, proven = reference.face_product(n, chords)
    assert proven
    assert value == brute_count(n, cycle(n) + chords)


def test_recorder_self_time_excludes_children():
    rec = Recorder()
    outer = rec.open("recurrence.nvol")
    inner = rec.open("outerplanar.is_outerplanar")
    rec.close(inner)
    rec.close(outer)
    rec.starts[:] = [0.0, 1.0]
    rec.ends[:] = [4.0, 3.0]
    calls, total, selfs = rec.totals()
    assert calls == {"recurrence.nvol": 1, "outerplanar.is_outerplanar": 1}
    assert total["recurrence.nvol"] == 4.0
    assert selfs == {"recurrence.nvol": 2.0, "outerplanar.is_outerplanar": 2.0}
    assert rec.layer_self() == {"recurrence": 2.0, "outerplanar": 2.0}
