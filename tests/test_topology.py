"""Connectivity structure: subset enumeration, rank queries, regularity."""

from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cachenet import InvalidConnectivity, OutOfRange, build_topology, index
from cachenet.topology import adjacency_lines


def test_five_choose_two_geometry():
    t = build_topology(5, 2)
    assert (t.h, t.r, t.k, t.l) == (5, 2, 10, 4)
    assert t.ues_of_en(1) == (1, 2, 3, 4)
    assert t.ues_of_en(3) == (2, 5, 8, 9)
    assert t.ues_of_en(5) == (4, 7, 9, 10)
    assert t.ens_of_ue(4) == (1, 5)
    assert t.ens_of_ue(7) == (2, 5)


def test_smallest_legal_network():
    t = build_topology(2, 1)
    assert (t.k, t.l) == (2, 1)
    assert t.ens_of_ue(1) == (1,)
    assert t.ens_of_ue(2) == (2,)


def test_seven_en_variants_share_receiver_count():
    wide = build_topology(7, 5)
    narrow = build_topology(7, 2)
    assert wide.k == narrow.k == 21
    assert wide.l == 15
    assert narrow.l == 6


def test_ue_order_is_lexicographic():
    t = build_topology(5, 3)
    expected = list(combinations(range(1, 6), 3))
    assert [t.ens_of_ue(k) for k in range(1, t.k + 1)] == expected


def test_rank_query_examples():
    t = build_topology(5, 2)
    assert index(t, 1, 2) == 2
    assert index(t, 1, 3) == 3
    assert index(t, 1, 5) is None
    assert index(t, 3, 2) == 1
    assert index(t, 3, 5) == 2
    assert index(t, 3, 1) is None
    for i in range(1, t.h + 1):
        assert index(t, i, min(t.ues_of_en(i))) == 1


def test_rank_query_bounds():
    t = build_topology(4, 2)
    with pytest.raises(OutOfRange):
        index(t, 5, 1)
    with pytest.raises(OutOfRange):
        index(t, 1, 7)
    with pytest.raises(OutOfRange):
        index(t, 0, 1)


def test_subset_to_ue_lookup():
    t = build_topology(5, 2)
    assert t.ue_of_en_subset((1, 2)) == 1
    assert t.ue_of_en_subset((5, 4)) == 10  # order-insensitive
    assert t.ue_of_en_subset((1, 2, 3)) is None
    for ue in range(1, t.k + 1):
        assert t.ue_of_en_subset(t.ens_of_ue(ue)) == ue


def test_subset_lookup_survives_object_churn():
    # dropping a topology and building a different one often recycles the
    # first object's address; the lookup table must follow values, not ids
    for h, r in [(4, 2), (5, 2), (6, 2), (4, 3), (5, 2), (6, 3), (4, 2)]:
        t = build_topology(h, r)
        for ue in range(1, t.k + 1):
            assert t.ue_of_en_subset(t.ens_of_ue(ue)) == ue


def test_subset_lookup_rejects_what_is_not_an_r_subset():
    # every r-tuple over -1..H+1: repeats, out-of-range ENs and any order
    for h, r in [(4, 2), (5, 2), (6, 3), (12, 2)]:
        t = build_topology(h, r)
        ue_of = {ens: k for k, ens in enumerate(t.ue_to_ens, start=1)}
        for ens in product(range(-1, h + 2), repeat=r):
            assert t.ue_of_en_subset(ens) == ue_of.get(tuple(sorted(ens))), ens
        assert t.ue_of_en_subset(()) is None and t.ue_of_en_subset(tuple(range(1, r + 2))) is None


def test_invalid_connectivity():
    with pytest.raises(InvalidConnectivity):
        build_topology(4, 4)
    with pytest.raises(InvalidConnectivity):
        build_topology(4, 0)
    with pytest.raises(InvalidConnectivity):
        build_topology(1, 1)


def test_size_cap():
    with pytest.raises(InvalidConnectivity):
        build_topology(40, 20)  # C(40,20) ~ 1.4e11 receivers


@given(st.integers(min_value=2, max_value=8), st.data())
def test_regular_and_mutually_consistent(h, data):
    r = data.draw(st.integers(min_value=1, max_value=h - 1))
    t = build_topology(h, r)
    assert t.k == comb(h, r)
    assert t.l == comb(h - 1, r - 1)
    seen = set()
    for k in range(1, t.k + 1):
        ens = t.ens_of_ue(k)
        assert len(ens) == r
        seen.add(ens)
        for i in ens:
            assert k in t.ues_of_en(i)
    assert len(seen) == t.k
    assert sum(len(t.ues_of_en(i)) for i in range(1, t.h + 1)) == t.r * t.k == t.h * t.l


@given(st.integers(min_value=2, max_value=8), st.data())
def test_rank_round_trip(h, data):
    r = data.draw(st.integers(min_value=1, max_value=h - 1))
    t = build_topology(h, r)
    for i in range(1, t.h + 1):
        ues = t.ues_of_en(i)
        for k in range(1, t.k + 1):
            rank = index(t, i, k)
            if k in ues:
                assert ues[rank - 1] == k
            else:
                assert rank is None


def test_adjacency_listing_mentions_every_node():
    t = build_topology(4, 2)
    text = "\n".join(adjacency_lines(t))
    for k in range(1, t.k + 1):
        assert f"UE {k}:" in text
    for i in range(1, t.h + 1):
        assert f"EN {i}:" in text
