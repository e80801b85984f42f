"""Tests for the cloud-assisted zero-forcing scheme with subset placement."""

import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields, replace
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cachenet as cn
from cachenet import soft_transfer
from cachenet.errors import (
    DegenerateChannel,
    IndivisibleFileSize,
    InterferenceLeak,
    NonDistinctDemand,
    NonIntegralCacheParameter,
    OutOfRange,
    ReconstructionMismatch,
)
from cachenet.schemes import SCHEMES
from cachenet.soft_transfer import (
    CASE_CHUNKED,
    CASE_ONE_SHOT,
    _locate,
    collect_deliveries,
    delivery_geometry,
    subfile_unit,
)

from oracles import FROZEN, assemble_by_labels, delivery_by_enumeration, eager_schedule


def make_soft(h, r, mu_r, mu_t, seed=5):
    t = cn.build_topology(h, r)
    f_bits = cn.minimal_soft_file_bits(h, r, mu_r, mu_t)
    lib = cn.random_library(t.k, f_bits, seed=seed)
    pl = cn.soft_place(lib, t, mu_r, mu_t)
    demand = list(range(1, t.k + 1))
    schedule = cn.soft_schedule(demand, pl, t)
    return t, lib, pl, demand, schedule


def step_tuples(g):
    """The geometry's steps as ``(pi_prime, ues, subsets, pis)`` tuples, rebuilt from its step arrays."""
    arrays = (g.step_pp, g.step_ue, g.step_subset, g.step_pi)
    return tuple(
        (g.pi_primes[pp], tuple(ues), tuple(g.subsets[r] for r in srs), tuple(g.pis[p] for p in prs))
        for pp, ues, srs, prs in zip(*(a.tolist() for a in arrays))
    )


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


def test_minimal_soft_file_bits():
    assert cn.minimal_soft_file_bits(4, 2, Fraction(1, 3), 0) == 120
    assert cn.minimal_soft_file_bits(4, 2, Fraction(1, 3), Fraction(1, 2)) == 240
    # chunked regime folds the chunk count into the divisibility unit
    assert cn.minimal_soft_file_bits(4, 2, Fraction(1, 6), 0) == 8 * 6 * comb(4, 3)


def test_place_six_ue_network():
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 3), 0)
    assert (pl.t_u, pl.case, pl.chunk_count) == (2, CASE_ONE_SHOT, 1)
    assert pl.parts == ("cloud",)
    assert pl.n_subfiles == comb(6, 2)
    assert pl.subfile_bits == {"cloud": 8}


@pytest.mark.parametrize("mu_t", [0, Fraction(1, 2), 1])
def test_cache_budgets_are_exact(mu_t):
    t, lib, pl, *_ = make_soft(4, 2, Fraction(1, 3), mu_t)
    f = lib.file_size_bits
    assert pl.ue_cache_bits() == Fraction(1, 3) * lib.n_files * f
    assert pl.en_cache_bits() == Fraction(mu_t) * lib.n_files * f


def test_subfile_payloads_tile_the_file():
    t, lib, pl, *_ = make_soft(4, 2, Fraction(1, 3), Fraction(1, 2))
    for n in (1, 4):
        whole = b"".join(
            pl.subfile_payload(cn.SoftSubfileLabel(n, s, part))
            for part in pl.parts
            for s in __import__("itertools").combinations(range(1, 7), 2)
        )
        assert whole == lib.file(n)


def test_payload_accessors_raise_named_errors():
    t, lib, pl, *_ = make_soft(4, 2, Fraction(1, 6), 0)
    assert (pl.t_u, pl.parts) == (1, ("cloud",))
    no_subfile = [
        cn.SoftSubfileLabel(1, (1, 2), "cloud"),  # a subset of the wrong size
        cn.SoftSubfileLabel(1, (7,), "cloud"),  # a UE outside the network
        cn.SoftSubfileLabel(1, (1,), "local"),  # a part the placement lacks
        cn.SoftSubfileLabel(7, (1,), "cloud"),  # a file past the library
        cn.SoftSubfileLabel(0, (1,), "cloud"),
    ]
    for label in no_subfile:
        with pytest.raises(OutOfRange):
            pl.subfile_payload(label)
    with pytest.raises(ReconstructionMismatch, match="null sets"):
        pl.chunk_payload(cn.SoftSubfileLabel(1, (1,), "cloud"))  # a placement-level label
    with pytest.raises(ReconstructionMismatch, match="null sets"):
        pl.chunk_destination(cn.SoftSubfileLabel(1, (1,), "cloud", pi=(2, 3, 4)))


def test_place_rejects_bad_parameters():
    t = cn.build_topology(4, 2)
    lib = cn.random_library(t.k, 120, seed=0)
    with pytest.raises(OutOfRange):
        cn.soft_place(lib, t, Fraction(7, 6), 0)
    with pytest.raises(NonIntegralCacheParameter):
        cn.soft_place(lib, t, Fraction(1, 4), 0)
    odd = cn.random_library(t.k, 88, seed=0)  # 88 not divisible by 15 subfiles
    with pytest.raises(IndivisibleFileSize):
        cn.soft_place(odd, t, Fraction(1, 3), 0)


# ---------------------------------------------------------------------------
# missing sets
# ---------------------------------------------------------------------------


def test_missing_counts():
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 3), 0)
    missing = cn.soft_missing(demand, pl)
    assert all(len(v) == comb(5, 2) for v in missing.values())
    assert all(lab.file == demand[ue - 1] for ue, v in missing.items() for lab in v)
    # a (4,3) network with half caching: each UE misses 3 subfiles
    t2, lib2, pl2, demand2, _ = make_soft(4, 3, Fraction(1, 2), 0)
    missing2 = cn.soft_missing(demand2, pl2)
    assert all(len(v) == FROZEN["missing_per_ue_k4_t2"] for v in missing2.values())


def test_missing_warns_on_repeated_demand():
    t, lib, pl, *_ = make_soft(4, 2, Fraction(1, 3), 0)
    with pytest.warns(NonDistinctDemand):
        cn.soft_missing([1] * 6, pl)


# ---------------------------------------------------------------------------
# scheduling: fully provisioned (one-shot) regime
# ---------------------------------------------------------------------------


def test_one_shot_schedule_shape():
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 3), 0)
    assert len(schedule) == comb(5, 2) == 10
    for step in schedule:
        assert step.case == CASE_ONE_SHOT
        assert len(step.entries) == t.k  # every UE served every step
        assert step.pi_prime == ()
        for ue, lab in step.entries:
            assert ue not in lab.subset
            assert set(lab.pi) == set(range(1, 7)) - {ue} - set(lab.subset)
    # first step pairs UE 1 with its lexicographically first missing subset,
    # last step closes with UE 6 and its last one
    first = dict(schedule[0].entries)
    last = dict(schedule[-1].entries)
    assert first[1] == cn.SoftSubfileLabel(1, (2, 3), "cloud", pi=(4, 5, 6), pi_prime=())
    assert last[6] == cn.SoftSubfileLabel(6, (4, 5), "cloud", pi=(1, 2, 3), pi_prime=())


def test_one_shot_delivers_each_missing_subfile_once():
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 3), 0)
    missing = cn.soft_missing(demand, pl)
    seen = {ue: [] for ue in range(1, 7)}
    for step in schedule:
        for ue, lab in step.entries:
            seen[ue].append(lab.base())
    for ue in range(1, 7):
        assert sorted(seen[ue], key=repr) == sorted(missing[ue], key=repr)


def test_one_shot_boundary_uses_full_spatial_room():
    # t_U = K - H exactly: still one-shot, steps of K entries
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 3), 0)
    assert pl.t_u == t.k - t.h
    assert all(len(s.entries) == t.k for s in schedule)


# ---------------------------------------------------------------------------
# scheduling: under-provisioned (chunked) regime
# ---------------------------------------------------------------------------


def test_chunked_step_count_closed_forms():
    assert cn.chunked_step_count(3, 6, 1) == FROZEN["chunked_steps_3_6_1"]
    assert cn.chunked_step_count(4, 6, 0) == FROZEN["chunked_steps_4_6_0"]


def test_chunked_geometry_3_6_1():
    steps = step_tuples(delivery_geometry(3, 6, 1))
    assert len(steps) == 45
    per_subfile = {}
    for pi_prime, *row in steps:
        triples = list(zip(*row))
        assert len(pi_prime) == 6 - 1 - 3
        assert len(triples) == 3 + 1  # H + t_U chunks per step
        for ue, t_set, pi in triples:
            assert len(pi) == 2  # H - 1 forced nulls
            parts = (ue,) + t_set + pi + pi_prime
            assert sorted(parts) == [1, 2, 3, 4, 5, 6]  # disjoint, exhaustive
            per_subfile[(ue, t_set)] = per_subfile.get((ue, t_set), 0) + 1
    # every (destination, subset) splits into C(K-t_U-1, H-1) = C(4,2) chunks
    assert set(per_subfile.values()) == {comb(4, 2)}


@given(
    st.sampled_from([(3, 6, 1), (4, 6, 0), (4, 6, 1), (3, 6, 2), (5, 10, 1)]),
    st.data(),
)
@settings(max_examples=20, deadline=None)
def test_chunked_geometry_invariants(cfg, data):
    h, k, t_u = cfg
    pi_prime, *row = data.draw(st.sampled_from(step_tuples(delivery_geometry(h, k, t_u))))
    triples = list(zip(*row))
    assert len(triples) == h + t_u
    served = [ue for ue, _, _ in triples]
    assert sorted(served) == sorted(set(range(1, k + 1)) - set(pi_prime))
    for ue, t_set, pi in triples:
        assert len(t_set) == t_u and len(pi) == h - 1
        assert sorted((ue,) + t_set + pi + pi_prime) == list(range(1, k + 1))


def test_chunked_schedule_end_to_end():
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 6), 0)
    assert pl.case == CASE_CHUNKED
    assert pl.chunk_count == comb(4, 3)
    assert len(schedule) == cn.chunked_step_count(4, 6, 1) == 24
    for step in schedule:
        assert len(step.entries) == t.h + pl.t_u
        assert set(ue for ue, _ in step.entries).isdisjoint(step.pi_prime)
    verdicts = cn.soft_simulate(schedule, None, pl, demand)
    assert all(v.ok for v in verdicts)


def test_chunk_payloads_tile_each_subfile():
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 6), 0)
    base = cn.SoftSubfileLabel(3, (5,), "cloud")
    chunks = sorted(
        {lab for step in schedule for ue, lab in step.entries if lab.base() == base},
        key=lambda l: l.pi,
    )
    assert len(chunks) == pl.chunk_count
    joined = b"".join(pl.chunk_payload(c) for c in chunks)
    assert joined == pl.subfile_payload(base)


# ---------------------------------------------------------------------------
# tiny networks where the regimes degenerate
# ---------------------------------------------------------------------------


def test_two_en_network_full_cache_cancelation():
    # t_U = 1 = K - 1: the single step needs no nulling at all
    t, lib, pl, demand, schedule = make_soft(2, 1, Fraction(1, 2), 0)
    assert len(schedule) == 1
    assert all(lab.pi == () for _, lab in schedule[0].entries)
    ch = cn.draw_channel(t, 0)
    assert all(v.ok for v in cn.soft_simulate(schedule, ch, pl, demand))


def test_two_en_network_pure_zero_forcing():
    # t_U = 0: each UE's subfile is nulled at the other UE
    t, lib, pl, demand, schedule = make_soft(2, 1, 0, 0)
    assert len(schedule) == 1
    assert dict(schedule[0].entries)[1].pi == (2,)
    assert dict(schedule[0].entries)[2].pi == (1,)
    ch = cn.draw_channel(t, 0)
    assert all(v.ok for v in cn.soft_simulate(schedule, ch, pl, demand))


# ---------------------------------------------------------------------------
# numeric delivery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_one_shot_simulation_with_channel(seed):
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 3), 0, seed=seed)
    ch = cn.draw_channel(t, seed)
    verdicts = cn.soft_simulate(schedule, ch, pl, demand)
    assert [v.ue for v in verdicts] == list(range(1, 7))
    assert all(v.ok for v in verdicts)


def test_split_parts_simulation():
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 3), Fraction(1, 2))
    assert pl.parts == ("local", "cloud")
    assert len(schedule) == 2 * 10  # each part swept separately
    assert all(v.ok for v in cn.soft_simulate(schedule, cn.draw_channel(t, 1), pl, demand))


def test_full_en_cache_skips_fronthaul():
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 3), 1)
    assert pl.parts == ("local",)
    assert cn.soft_fronthaul_bits_per_en(pl) == 0
    assert all(v.ok for v in cn.soft_simulate(schedule, None, pl, demand))


# ---------------------------------------------------------------------------
# delivery-time values
# ---------------------------------------------------------------------------


def test_ndt_closed_form_values():
    v = cn.soft_ndt(4, 2, Fraction(1, 3), 0, 1)
    assert (v.total, v.edge, v.fronthaul) == (Fraction(5, 3), Fraction(2, 3), 1)
    assert cn.soft_ndt(4, 2, Fraction(1, 3), 0, 4).edge == Fraction(2, 3)
    assert cn.soft_ndt(5, 2, Fraction(1, 2), 0, 1).total == FROZEN["soft_total_5_2_half"]
    assert cn.soft_ndt(4, 2, 1, 0).total == 0  # everything cached
    assert cn.soft_ndt(4, 2, Fraction(1, 3), 1).fronthaul == 0  # mu_t = 1


def test_ndt_branch_tags():
    assert cn.soft_ndt(4, 2, Fraction(1, 3), 0, 1).branch == CASE_ONE_SHOT
    assert cn.soft_ndt(4, 2, Fraction(1, 6), 0, 1).branch == CASE_CHUNKED
    assert cn.soft_ndt(4, 2, 1, 0).branch == "empty"


def test_ndt_errors():
    with pytest.raises(NonIntegralCacheParameter):
        cn.soft_ndt(4, 2, Fraction(1, 4), 0, 1)
    with pytest.raises(OutOfRange):
        cn.soft_ndt(4, 2, Fraction(1, 3), 0)  # rho required
    with pytest.raises(OutOfRange):
        cn.soft_ndt(4, 2, Fraction(1, 3), 0, -1)


def test_fronthaul_bits_per_en():
    t, lib, pl, *_ = make_soft(4, 2, Fraction(1, 3), 0)
    f = lib.file_size_bits
    assert cn.soft_fronthaul_bits_per_en(pl) == Fraction((6 - 2) * f, 4)
    t2, lib2, pl2, *_ = make_soft(4, 2, Fraction(1, 3), Fraction(1, 2))
    assert cn.soft_fronthaul_bits_per_en(pl2) == Fraction(1, 2) * Fraction((6 - 2) * lib2.file_size_bits, 4)


@pytest.mark.parametrize("mu_r,mu_t", [
    (Fraction(1, 3), Fraction(0)),
    (Fraction(1, 3), Fraction(1, 2)),
    (Fraction(1, 6), Fraction(0)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(0), Fraction(0)),
])
def test_structural_ndt_matches_closed_form(mu_r, mu_t):
    t, lib, pl, demand, schedule = make_soft(4, 2, mu_r, mu_t)
    rho = Fraction(7, 3)
    structural = cn.soft_structural_ndt(schedule, pl, rho=rho)
    closed = cn.soft_ndt(4, 2, mu_r, mu_t, rho)
    assert structural.total == closed.total
    assert structural.fronthaul == closed.fronthaul
    assert structural.edge == closed.edge
    for bad in (0, -1):  # the closed form's rho check
        with pytest.raises(OutOfRange, match="^scheme soft uses the fronthaul"):
            cn.soft_structural_ndt(schedule, pl, rho=bad)


def test_chunked_simulation_with_channel():
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 6), 0)
    ch = cn.draw_channel(t, 3)
    verdicts = cn.soft_simulate(schedule, ch, pl, demand)
    assert all(v.ok for v in verdicts)


# ---------------------------------------------------------------------------
# the schedule given is the schedule verified
# ---------------------------------------------------------------------------

TAMPERS = ("repeat-step", "drop-entry", "other-file", "short-pi")


def tamper(schedule, how, k):
    """A copy of ``schedule`` with one defect; also the UE and subset it touches."""
    if how == "repeat-step":
        ue, lab = schedule[0].entries[0]
        return schedule + [schedule[0]], ue, lab.subset
    step = schedule[2]
    ue, lab = step.entries[1]
    if how == "drop-entry":
        entries = step.entries[:1] + step.entries[2:]
    else:
        other = replace(lab, file=ue % k + 1) if how == "other-file" else replace(lab, pi=lab.pi[:-1])
        entries = step.entries[:1] + ((ue, other),) + step.entries[2:]
    return schedule[:2] + [replace(step, entries=entries)] + schedule[3:], ue, lab.subset


@pytest.mark.parametrize("channel_seed", [None, 3])
@pytest.mark.parametrize("how", TAMPERS)
@pytest.mark.parametrize("mu_r", [Fraction(3, 6), Fraction(1, 6)], ids=["one-shot", "chunked"])
def test_simulate_rejects_a_tampered_schedule(mu_r, how, channel_seed):
    t, lib, pl, demand, schedule = make_soft(4, 2, mu_r, 0)
    bad, ue, subset = tamper(schedule, how, t.k)
    ch = None if channel_seed is None else cn.draw_channel(t, channel_seed)
    assert all(v.ok for v in cn.soft_simulate(schedule, ch, pl, demand))
    with pytest.raises((ReconstructionMismatch, InterferenceLeak)) as err:
        cn.soft_simulate(bad, ch, pl, demand)
    message = str(err.value)
    assert f"UE {ue}" in message and "step" in message and f"subset={subset}" in message


def test_simulate_rejects_a_file_id_outside_the_library():
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 6), 0)
    with pytest.raises(OutOfRange):
        cn.soft_simulate(schedule, None, pl, demand[:-1] + [0])


def test_simulate_rejects_a_schedule_of_another_cache_level():
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 3), 0)
    _, _, other, _, other_schedule = make_soft(4, 2, Fraction(1, 6), 0)
    assert (pl.t_u, other.t_u) == (2, 1)
    for ch in (None, cn.draw_channel(t, 3)):
        with pytest.raises(ReconstructionMismatch):
            cn.soft_simulate(schedule, ch, other, demand)
        with pytest.raises(ReconstructionMismatch):
            cn.soft_simulate(other_schedule, ch, pl, demand)


def assert_rejected_alike(schedule, placement, demand):
    """A ``Schedule`` and the list of its steps are rejected with one class and one message."""
    for call in (lambda s: cn.soft_simulate(s, None, placement, demand), lambda s: collect_deliveries(s, None, placement)):
        errors = []
        for steps in (schedule, list(schedule)):
            with pytest.raises(ReconstructionMismatch) as err:
                call(steps)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("mu_r", [Fraction(3, 6), Fraction(1, 6)], ids=["one-shot", "chunked"])
def test_a_rejected_schedule_fails_as_the_list_of_its_steps(mu_r):
    t, lib, pl, demand, schedule = make_soft(4, 2, mu_r, 0)
    _, _, split, _, split_schedule = make_soft(4, 2, mu_r, Fraction(1, 2))
    mu_r_zf, mu_t_zf = Fraction(pl.t_u + t.k, 2 * t.k), Fraction(1, 2)
    zf = cn.zf_place(cn.random_library(t.k, cn.minimal_zf_file_bits(4, 2, mu_r_zf, mu_t_zf), seed=5), t, mu_r_zf, mu_t_zf)
    zf_schedule = cn.soft_schedule(demand, zf, t)
    for sched, placement in [(schedule, split), (split_schedule, pl), (zf_schedule, pl), (schedule, zf)]:
        assert sched.geometry is placement.geometry
        assert_rejected_alike(sched, placement, demand)
    # a library one file short of the demand, over the same (H, K, t)
    small = cn.soft_place(cn.random_library(t.k - 1, lib.file_size_bits, seed=5), t, mu_r, 0)
    assert small.geometry is pl.geometry and max(demand) > small.library.n_files
    assert_rejected_alike(schedule, small, demand)


@pytest.mark.parametrize("mu_r", [Fraction(3, 6), Fraction(1, 6)], ids=["one-shot", "chunked"])
def test_simulate_rejects_a_schedule_of_other_parts(mu_r):
    t, lib, pl, demand, schedule = make_soft(4, 2, mu_r, 0)
    _, _, split, _, split_schedule = make_soft(4, 2, mu_r, Fraction(1, 2))
    mu_r_zf, mu_t_zf = Fraction(pl.t_u + t.k, 2 * t.k), Fraction(1, 2)
    zf_lib = cn.random_library(t.k, cn.minimal_zf_file_bits(4, 2, mu_r_zf, mu_t_zf), seed=5)
    zf = cn.zf_place(zf_lib, t, mu_r_zf, mu_t_zf)
    assert pl.parts == ("cloud",) and split.parts == ("local", "cloud") and zf.parts == ("local",)
    assert split.t_u == zf.t_u == pl.t_u
    zf_schedule = cn.soft_schedule(demand, zf, t)
    for sched, placement in [(schedule, split), (split_schedule, pl), (zf_schedule, pl), (schedule, zf)]:
        with pytest.raises(ReconstructionMismatch):
            cn.soft_simulate(sched, None, placement, demand)


def test_numerics_name_the_first_step_with_a_leak():
    # UE 3's entries of steps 1 and 5 trade places: both stay pieces UE 3
    # misses, so coverage holds, but each now reaches a bystander in its
    # excluded set, which can neither null nor cancel it
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 6), 0)
    a, b = schedule[0], schedule[4]
    assert a.pi_prime != b.pi_prime
    lab_a, lab_b = dict(a.entries)[3], dict(b.entries)[3]
    swapped = list(schedule)
    swapped[0] = replace(a, entries=tuple((u, lab_b if u == 3 else lab) for u, lab in a.entries))
    swapped[4] = replace(b, entries=tuple((u, lab_a if u == 3 else lab) for u, lab in b.entries))
    assert all(v.ok for v in cn.soft_simulate(swapped, None, pl, demand))  # bytes still arrive
    with pytest.raises(InterferenceLeak, match=r"^step 1: UE 2 can neither null nor cancel"):
        cn.soft_simulate(swapped, cn.draw_channel(t, 3), pl, demand)


def patch_first_beam(monkeypatch, schedule, change):
    """Beamform as usual, then apply ``change`` to the beam of step 1's first entry."""
    first = schedule[0].entries[0][1]
    real = soft_transfer.beamformers_for

    def patched(*args, **kwargs):
        beams, ch, attempts = real(*args, **kwargs)
        beams[first.pi] = replace(beams[first.pi], vector=change(beams[first.pi].vector))
        return beams, ch, attempts

    monkeypatch.setattr(soft_transfer, "beamformers_for", patched)
    return first


@pytest.mark.parametrize("mu_r", [Fraction(1, 3), Fraction(1, 6)], ids=["one-shot", "chunked"])
def test_numerics_name_the_ue_below_the_desired_floor(monkeypatch, mu_r):
    t, lib, pl, demand, schedule = make_soft(4, 2, mu_r, 0)
    patch_first_beam(monkeypatch, schedule, lambda v: v * 1e-9)
    ue = schedule[0].entries[0][0]
    with pytest.raises(InterferenceLeak, match=rf"^step 1: UE {ue} desired coefficient \S+$"):
        cn.soft_simulate(schedule, cn.draw_channel(t, 3), pl, demand)


@pytest.mark.parametrize("mu_r", [Fraction(1, 3), Fraction(1, 6)], ids=["one-shot", "chunked"])
def test_numerics_name_the_ue_a_residual_reaches(monkeypatch, mu_r):
    # the first UE of the perturbed null set is the first bystander in scan
    # order that must null step 1's first stream; every earlier one caches it
    t, lib, pl, demand, schedule = make_soft(4, 2, mu_r, 0)
    first = patch_first_beam(monkeypatch, schedule, lambda v: v + 1e-3)
    message = rf"^step 1: residual \S+ at UE {min(first.pi)} for {re.escape(repr(first))}$"
    with pytest.raises(InterferenceLeak, match=message):
        cn.soft_simulate(schedule, cn.draw_channel(t, 3), pl, demand)


def swap_entries(schedule, a, b, ue):
    """A copy of ``schedule`` in which UE ``ue``'s entries of steps a and b trade places."""
    lab_a, lab_b = dict(schedule[a].entries)[ue], dict(schedule[b].entries)[ue]
    out = list(schedule)
    for i, lab in ((a, lab_b), (b, lab_a)):
        out[i] = replace(out[i], entries=tuple((u, lab if u == ue else x) for u, x in out[i].entries))
    return out


EXCLUDED = r"^step {}: a served UE lies in the excluded set \({},\)$"
NEITHER = r"^step {}: UE 2 can neither null nor cancel SoftSubfileLabel\(file={}, "


@pytest.mark.parametrize(
    "swap,excluded,message",
    [
        (None, (1, 2), EXCLUDED.format(2, 2)),
        # within one step the pair checks come before the excluded set
        ((0, 4, 3), (0, 3), NEITHER.format(1, 3)),
        # across steps the earlier step wins, whichever the kind
        ((2, 5, 3), (1, 2), EXCLUDED.format(2, 2)),
        ((1, 5, 4), (2, 3), NEITHER.format(2, 4)),
    ],
    ids=["excluded-only", "pair-before-excluded", "excluded-step-first", "pair-step-first"],
)
def test_numerics_report_the_first_failure_in_scan_order(swap, excluded, message):
    # a step's excluded set is checked against its served UEs only; the
    # label annotations, and so coverage and the bytes, stay as scheduled
    t, lib, pl, demand, schedule = make_soft(4, 2, Fraction(1, 6), 0)
    bad = swap_entries(schedule, *swap) if swap else list(schedule)
    step, ue = excluded
    assert ue in dict(bad[step].entries) and bad[step].pi_prime != (ue,)
    bad[step] = replace(bad[step], pi_prime=(ue,))
    assert all(v.ok for v in cn.soft_simulate(bad, None, pl, demand))
    with pytest.raises(InterferenceLeak, match=message):
        cn.soft_simulate(bad, cn.draw_channel(t, 3), pl, demand)


# ---------------------------------------------------------------------------
# the compiled geometry equals the piece-by-piece enumeration
# ---------------------------------------------------------------------------

ENUMERATED = [
    *((3, 6, t) for t in range(4)),
    *((4, 6, t) for t in range(7)),
    *((5, 10, t) for t in range(11)),
    *((4, 4, t) for t in range(5)),
    (6, 15, 0),
    (6, 15, 9),
]


@pytest.mark.parametrize("h,k,t", ENUMERATED)
def test_compiled_geometry_matches_the_enumeration(h, k, t):
    g = delivery_geometry(h, k, t)
    want = delivery_by_enumeration(h, k, t)
    assert step_tuples(g) == want["steps"]
    m = k if g.case == CASE_ONE_SHOT else h + t
    assert g.step_pp.shape == (len(want["steps"]),)
    for name in ("step_ue", "step_subset", "step_pi", "step_slot"):
        assert getattr(g, name).shape == (len(want["steps"]), m), name
    for name in ("step_pp", "step_ue", "step_subset", "step_pi", "step_slot"):
        assert not getattr(g, name).flags.writeable, name
    assert tuple(map(tuple, g.step_slot.tolist())) == want["step_slot"]
    for name in ("piece_key", "piece_subset", "piece_chunk"):
        assert np.array_equal(getattr(g, name), want[name]), name
    assert np.array_equal(g.cached, want["cached"])


def geometry_placement(h, k, t):
    """A two-part placement over the bare geometry (H, K, t), which need not be a combination network."""
    unit = subfile_unit(h, k, t)
    lib = cn.random_library(k, 2 * unit, seed=h + k + t)
    bare = SimpleNamespace(h=h, k=k)
    return cn.SoftPlacement(lib, bare, t, Fraction(0), Fraction(0), {"local": unit, "cloud": unit})


def assert_schedule_matches_the_oracle(demand, placement):
    schedule = cn.soft_schedule(demand, placement, placement.topology)
    want = eager_schedule(demand, placement)
    got = list(schedule)
    assert len(schedule) == len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.index, a.case, a.part, a.entries, a.pi_prime) == (b.index, b.case, b.part, b.entries, b.pi_prime)
    assert schedule == want and want == schedule
    # built once and kept: iteration, indexing and slicing hand out the same steps
    assert all(s is g for s, g in zip(schedule, got)) and schedule[::2] == want[::2]
    assert all(schedule[i] is got[i] for i in range(-len(got), len(got)))
    # the schedule and the list of its steps locate to the same columns
    lazy, listed = _locate(schedule, placement), _locate(got, placement)
    columns = [f.name for f in fields(lazy) if isinstance(getattr(lazy, f.name), np.ndarray)]
    assert {"step", "ue", "file", "part", "slot", "subset", "pi"} <= set(columns)
    for name in columns:
        a, b = getattr(lazy, name), getattr(listed, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("h,k,t", ENUMERATED)
def test_schedule_matches_the_eager_oracle_on_every_enumerated_geometry(h, k, t):
    assert_schedule_matches_the_oracle(list(range(k, 0, -1)), geometry_placement(h, k, t))


def lattice_placement(t, scheme, level):
    """The criterion-5 lattice placement of ``scheme`` at ``level``: soft at mu_t = 0, zf at mu_t = 1/2."""
    if scheme == "soft":
        mu_r, mu_t = Fraction(level, t.k), Fraction(0)
    else:
        mu_r, mu_t = Fraction(level + t.k, 2 * t.k), Fraction(1, 2)
    f_bits = SCHEMES[scheme].file_bits(t.h, t.r, mu_r, mu_t)
    pl = SCHEMES[scheme].place(cn.random_library(t.k, f_bits, seed=0), t, mu_r, mu_t)
    assert pl.t_u == level
    return pl


@pytest.mark.parametrize("scheme", ["soft", "zf"])
@pytest.mark.parametrize("h,r", [(3, 2), (4, 2), (5, 2), (4, 3)])
def test_schedule_matches_the_eager_oracle_over_the_lattice(h, r, scheme):
    t = cn.build_topology(h, r)
    for level in range(t.k + 1):
        assert_schedule_matches_the_oracle(list(range(1, t.k + 1)), lattice_placement(t, scheme, level))


class KeySearched(AssertionError):
    """Raised by a piece-key lookup that a test forbids."""


@pytest.mark.parametrize("scheme", ["soft", "zf"])
@pytest.mark.parametrize("h,r", [(3, 2), (4, 2), (5, 2), (4, 3)])
def test_a_schedule_over_its_own_geometry_is_delivered_without_a_key_search(h, r, scheme, monkeypatch):
    def search(*args):
        raise KeySearched

    monkeypatch.setattr(soft_transfer.DeliveryGeometry, "find", search)
    monkeypatch.setattr(soft_transfer.DeliveryGeometry, "piece_keys", search)
    t = cn.build_topology(h, r)
    demand = list(range(1, t.k + 1))
    for level in range(t.k + 1):
        pl = lattice_placement(t, scheme, level)
        schedule = cn.soft_schedule(demand, pl, t)
        assert all(v.ok for v in cn.soft_simulate(schedule, None, pl, demand))
        if (h, r) == (5, 2) and level < 6:
            # zero-forcing cannot reach every receiver of these (5, 2) deliveries on the
            # partially connected channel; the entries are located before beamforming
            with pytest.raises(DegenerateChannel):
                cn.soft_simulate(schedule, cn.draw_channel(t, 3), pl, demand)
        else:
            assert all(v.ok for v in cn.soft_simulate(schedule, cn.draw_channel(t, 3), pl, demand))
        assert all(v.ok for v in cn.zf_deliver(demand, pl, t, None)[1])
        assert_oracle_bytes(schedule, pl, demand)
        # any other list of steps is located by key lookup
        with pytest.raises(KeySearched):
            cn.soft_simulate(list(schedule), None, pl, demand)
        with pytest.raises(KeySearched):
            collect_deliveries(list(schedule), None, pl)


def test_channel_delivery_does_not_import_numpy_ma():
    # numpy's plain ``unique`` imports numpy.ma on its first call, a one-off cost inside the first delivery
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        import cachenet as cn

        t = cn.build_topology(4, 2)
        demand = list(range(1, t.k + 1))
        for mu_r in (Fraction(1, 6), Fraction(1, 2)):
            lib = cn.random_library(t.k, cn.minimal_soft_file_bits(4, 2, mu_r, 0), seed=1)
            pl = cn.soft_place(lib, t, mu_r, 0)
            schedule = cn.soft_schedule(demand, pl, t)
            assert all(v.ok for v in cn.soft_simulate(schedule, cn.draw_channel(t, 3), pl, demand))
        mu_r, mu_t = Fraction(2, 3), Fraction(1, 2)
        pl = cn.zf_place(cn.random_library(t.k, cn.minimal_zf_file_bits(4, 2, mu_r, mu_t), seed=1), t, mu_r, mu_t)
        assert all(v.ok for v in cn.zf_deliver(demand, pl, t, cn.draw_channel(t, 3))[1])
        print("numpy.ma" in sys.modules)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cn.__file__).parent.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# the compiled plan is sound across calls
# ---------------------------------------------------------------------------


def assert_all_hits(before, after):
    assert after.misses == before.misses and after.hits > before.hits


def assert_oracle_bytes(schedule, placement, demand):
    # the subfiled parts: the whole file, or zf's prefix before its cached suffix
    prefix_bytes = sum(placement.part_bits.values()) // 8
    got = collect_deliveries(schedule, None, placement)
    for ue in range(1, placement.topology.k + 1):
        want = demand[ue - 1]
        prefix = assemble_by_labels(ue, want, placement, got[ue])
        assert prefix == placement.library.file(want)[:prefix_bytes]


def test_plan_compiled_under_identity_serves_a_permuted_demand():
    t, lib, pl, demand, schedule = make_soft(5, 2, Fraction(4, 10), 0)
    assert all(v.ok for v in cn.soft_simulate(schedule, None, pl, demand))
    before = delivery_geometry.cache_info()
    lib2 = cn.random_library(t.k, lib.file_size_bits, seed=11)
    pl2 = cn.soft_place(lib2, t, Fraction(4, 10), 0)
    perm = [(ue + 3) % t.k + 1 for ue in range(t.k)]
    schedule2 = cn.soft_schedule(perm, pl2, t)
    verdicts = cn.soft_simulate(schedule2, None, pl2, perm)
    assert [v.file_id for v in verdicts] == perm and all(v.ok for v in verdicts)
    assert_all_hits(before, delivery_geometry.cache_info())
    assert_oracle_bytes(schedule2, pl2, perm)


@pytest.mark.parametrize("mu_r", [Fraction(3, 6), Fraction(1, 6)], ids=["one-shot", "chunked"])
def test_plan_serves_a_repeated_file_demand(mu_r):
    t, lib, pl, demand, schedule = make_soft(4, 2, mu_r, 0)
    before = delivery_geometry.cache_info()
    repeated = [(ue + 1) // 2 for ue in range(1, t.k + 1)]  # 1, 1, 2, 2, 3, 3
    with pytest.warns(NonDistinctDemand):
        schedule2 = cn.soft_schedule(repeated, pl, t)
    verdicts = cn.soft_simulate(schedule2, None, pl, repeated)
    assert [v.file_id for v in verdicts] == repeated and all(v.ok for v in verdicts)
    assert_all_hits(before, delivery_geometry.cache_info())
    assert_oracle_bytes(schedule2, pl, repeated)


@pytest.mark.parametrize("h,t_u", [(4, 3), (4, 1), (5, 6), (5, 4)])
def test_soft_and_zf_share_one_geometry(h, t_u):
    t = cn.build_topology(h, 2)
    demand = list(range(1, t.k + 1))
    runs = []
    for mu_t in (Fraction(0), Fraction(1, 2)):
        mu_r = Fraction(t_u, t.k)
        lib = cn.random_library(t.k, cn.minimal_soft_file_bits(h, 2, mu_r, mu_t), seed=t_u)
        runs.append(cn.soft_place(lib, t, mu_r, mu_t))
    mu_r, mu_t = Fraction(t_u + t.k, 2 * t.k), Fraction(1, 2)
    zf_lib = cn.random_library(t.k, cn.minimal_zf_file_bits(h, 2, mu_r, mu_t), seed=t_u)
    zf = cn.zf_place(zf_lib, t, mu_r, mu_t)
    assert zf.t_u == t_u and zf.case == runs[0].case

    for i, pl in enumerate(runs + [zf]):
        before = delivery_geometry.cache_info()
        schedule = cn.soft_schedule(demand, pl, t)
        after = delivery_geometry.cache_info()
        if i:  # compiled by the first run at the latest
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        if pl is zf:
            _, verdicts = cn.zf_deliver(demand, zf, t, None)
        else:
            verdicts = cn.soft_simulate(schedule, None, pl, demand)
        assert_oracle_bytes(schedule, pl, demand)
        assert all(v.ok for v in verdicts)
    # the three runs differ in part sizes only: three byte layouts over one geometry
    placements = runs + [zf]
    assert len({(pl.parts, pl.layout) for pl in placements}) == 3
    assert all(pl.geometry is delivery_geometry(h, t.k, t_u) for pl in placements)
