"""Tests for cloud-free delivery when the combined caches hold the library."""

import re
from fractions import Fraction
from math import comb

import pytest

import cachenet as cn
from cachenet.errors import (
    DegenerateChannel,
    NonIntegralCacheParameter,
    OutOfRange,
    ReconstructionMismatch,
    RegionViolation,
)
from cachenet.schemes import SCHEMES
from cachenet.soft_transfer import collect_deliveries

from oracles import FROZEN


def make_zf(h, r, mu_r, mu_t, seed=9):
    t = cn.build_topology(h, r)
    f_bits = cn.minimal_zf_file_bits(h, r, mu_r, mu_t)
    lib = cn.random_library(t.k, f_bits, seed=seed)
    pl = cn.zf_place(lib, t, mu_r, mu_t)
    demand = list(range(1, t.k + 1))
    return t, lib, pl, demand


# ---------------------------------------------------------------------------
# sizing and placement bookkeeping
# ---------------------------------------------------------------------------


def test_subset_size_values():
    t, lib, pl, demand = make_zf(5, 2, Fraction(13, 20), Fraction(1, 2))
    assert pl.t_u == FROZEN["zf_t_r_5_2_065_05"]
    # mu_t = 0 inside the region forces mu_r = 1: everything fits at the UEs
    t2, lib2, pl2, _ = make_zf(5, 2, 1, 0)
    assert pl2.t_u == t2.k


def test_cache_budgets_are_exact():
    t, lib, pl, demand = make_zf(5, 2, Fraction(13, 20), Fraction(1, 2))
    f = lib.file_size_bits
    assert f == 28800
    assert pl.part_bits["local"] == pl.suffix_bits == f // 2
    assert pl.ue_cache_bits() == FROZEN["zf_ue_cache_files_5_2_065_05"] * f
    assert pl.en_cache_bits() == Fraction(1, 2) * lib.n_files * f
    # the prefix is a pure EN-part placement with the derived subset size
    assert pl.t_u == 3 and pl.parts == ("local",)


def test_suffix_is_cached_whole():
    for mu_r, mu_t in [(Fraction(2, 3), Fraction(1, 2)), (1, 0)]:  # a split file, then all suffix
        t, lib, pl, demand = make_zf(4, 2, mu_r, mu_t)
        assert isinstance(pl, cn.SoftPlacement) and (pl.mu_r, pl.mu_t) == (mu_r, mu_t)
        f = lib.file_size_bits
        # the subfiled prefix and the whole-cached suffix tile every file
        assert pl.suffix_bits == f - sum(pl.part_bits.values()) == (1 - mu_t) * f
        assert pl.ue_cache_bits() == mu_r * lib.n_files * f
        # each UE rebuilds its suffix from its own copy of the file it requests
        perm = [(ue + 2) % t.k + 1 for ue in range(t.k)]
        _, verdicts = cn.zf_deliver(perm, pl, t, None)
        assert [v.file_id for v in verdicts] == perm and all(v.ok for v in verdicts)


def test_zf_runs_on_the_soft_delivery_path():
    zf = SCHEMES["zf"]
    assert zf.deliver is cn.soft_schedule and zf.verify is cn.soft_simulate


def test_region_and_parameter_errors():
    t = cn.build_topology(5, 2)
    lib = cn.random_library(t.k, 28800, seed=0)
    with pytest.raises(RegionViolation):
        cn.zf_place(lib, t, Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(NonIntegralCacheParameter):
        cn.zf_place(lib, t, Fraction(3, 4), Fraction(3, 10))  # t_R = 5/3
    with pytest.raises(OutOfRange):
        cn.zf_place(lib, t, Fraction(6, 5), Fraction(1, 2))
    with pytest.raises(RegionViolation):
        cn.minimal_zf_file_bits(5, 2, Fraction(1, 2), Fraction(1, 4))


# ---------------------------------------------------------------------------
# delivery
# ---------------------------------------------------------------------------


def test_everything_cached_needs_no_steps():
    t, lib, pl, demand = make_zf(4, 2, 1, Fraction(1, 2))
    assert pl.t_u == t.k
    schedule, verdicts = cn.zf_deliver(demand, pl, t, None)
    assert schedule == []
    assert all(v.ok for v in verdicts)


def test_boundary_subset_size_uses_one_shot_steps():
    t, lib, pl, demand = make_zf(4, 2, Fraction(2, 3), Fraction(1, 2))
    assert pl.t_u == t.k - t.h == 2
    schedule, verdicts = cn.zf_deliver(demand, pl, t, cn.draw_channel(t, 2))
    assert len(schedule) == comb(t.k - 1, pl.t_u) == 10
    assert all(len(s.entries) == t.k for s in schedule)
    assert all(s.part == "local" for s in schedule)
    assert all(v.ok for v in verdicts)


def test_chunked_delivery_bit_exact():
    t, lib, pl, demand = make_zf(5, 2, Fraction(13, 20), Fraction(1, 2))
    schedule, verdicts = cn.zf_deliver(demand, pl, t, None)
    assert len(schedule) == cn.chunked_step_count(5, 10, 3)
    assert all(len(s.entries) == t.h + pl.t_u for s in schedule)
    assert all(v.ok for v in verdicts)


def test_prefix_delivery_rejects_a_repeated_step():
    t, lib, pl, demand = make_zf(5, 2, Fraction(13, 20), Fraction(1, 2))
    schedule, _ = cn.zf_deliver(demand, pl, t, None)
    ue, lab = schedule[0].entries[0]
    pattern = rf"step 1: UE {ue} .*subset={re.escape(str(lab.subset))}"
    with pytest.raises(ReconstructionMismatch, match=pattern):
        collect_deliveries(schedule + [schedule[0]], None, pl)


@pytest.mark.parametrize("seed", range(3))
def test_delivery_with_channel_across_seeds(seed):
    t, lib, pl, demand = make_zf(4, 2, Fraction(2, 3), Fraction(1, 2), seed=seed)
    schedule, verdicts = cn.zf_deliver(demand, pl, t, cn.draw_channel(t, seed))
    assert all(v.ok for v in verdicts)


# ---------------------------------------------------------------------------
# delivery-time values
# ---------------------------------------------------------------------------


def test_ndt_closed_form_values():
    assert cn.zf_ndt(5, 2, Fraction(79, 100), Fraction(3, 10)).total == FROZEN["zf_total_5_2_079_03"]
    assert cn.zf_ndt(5, 2, Fraction(7, 10), Fraction(3, 10)).total == FROZEN["zf_total_5_2_07_03"]
    assert cn.zf_ndt(4, 2, Fraction(2, 3), Fraction(1, 2)).total == Fraction(1, 3)
    assert cn.zf_ndt(5, 2, 1, 0).total == 0


def test_ndt_is_fronthaul_free():
    for mu_r, mu_t in [(1, 0), (Fraction(7, 10), Fraction(3, 10)),
                       (Fraction(13, 20), Fraction(1, 2)), (1, 1)]:
        v = cn.zf_ndt(5, 2, mu_r, mu_t)
        assert v.fronthaul == 0 and v.total == v.edge


def test_ndt_branch_tags():
    assert cn.zf_ndt(5, 2, 1, 0).branch == "degenerate"
    assert cn.zf_ndt(4, 2, Fraction(2, 3), Fraction(1, 2)).branch == "one-shot"
    assert cn.zf_ndt(5, 2, Fraction(13, 20), Fraction(1, 2)).branch == "chunked"


def test_ndt_errors():
    with pytest.raises(RegionViolation):
        cn.zf_ndt(5, 2, Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(NonIntegralCacheParameter):
        cn.zf_ndt(5, 2, Fraction(3, 4), Fraction(3, 10))


def test_edge_term_reuses_the_soft_transfer_form():
    # the cloud-free edge time is mu_t times the pure-EN soft edge time at t_R
    for h, r, mu_r, mu_t in [
        (5, 2, Fraction(13, 20), Fraction(1, 2)),
        (5, 2, Fraction(79, 100), Fraction(3, 10)),
        (4, 2, Fraction(2, 3), Fraction(1, 2)),
    ]:
        v = cn.zf_ndt(h, r, mu_r, mu_t)
        k = comb(h, r)
        t_r = int((Fraction(mu_r) + Fraction(mu_t) - 1) * k / Fraction(mu_t))
        inner = cn.soft_ndt(h, r, Fraction(t_r, k), 1)
        assert v.edge == Fraction(mu_t) * inner.edge


@pytest.mark.parametrize("h,r,mu_r,mu_t", [
    (4, 2, Fraction(2, 3), Fraction(1, 2)),
    (5, 2, Fraction(13, 20), Fraction(1, 2)),
    (4, 2, 1, Fraction(1, 2)),
])
def test_structural_ndt_matches_closed_form(h, r, mu_r, mu_t):
    t, lib, pl, demand = make_zf(h, r, mu_r, mu_t)
    schedule, _ = cn.zf_deliver(demand, pl, t, None)
    structural = cn.zf_structural_ndt(schedule, pl)
    closed = cn.zf_ndt(h, r, mu_r, mu_t)
    assert structural.total == closed.total
    assert structural.fronthaul == 0 == closed.fronthaul


def test_chunked_channel_delivery_reports_structural_null():
    # the lexicographic chunked composition can hand a UE a null set whose
    # kernel is pinned onto an EN that UE cannot hear; every realization is
    # equally silent there, so the driver gives up loudly instead of looping
    t, lib, pl, demand = make_zf(5, 2, Fraction(13, 20), Fraction(1, 2))
    with pytest.raises(DegenerateChannel):
        cn.zf_deliver(demand, pl, t, cn.draw_channel(t, 0))
