"""Acceptance suite: one test per release criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. Every expectation here is re-derived independently — exact
rational arithmetic, direct combinatorial counts, golden tables, and
numeric tolerance checks — rather than read back from library internals.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import cachenet as cn
import cachenet.fixtures as fx
from cachenet.channel import DESIRED_COEF_MIN, SINGLE_NULL, SUM_OF_BASIS, ZF_RESIDUAL_TOL
from cachenet.errors import UnsupportedRegime
from cachenet.soft_transfer import CASE_ONE_SHOT, collect_deliveries

GOLDEN_DIR = Path(__file__).parent / "golden"

# the (ENs, connectivity) grid every lattice sweep runs over
CONFIGS = [(3, 2), (4, 2), (5, 2), (4, 3)]

FIVE_EN_TABLES = (
    "ue_caches.csv",
    "multicasts.csv",
    "interference.csv",
    "directions_a.csv",
    "directions_b.csv",
    "directions_c.csv",
)
FOUR_EN_TABLES = ("ue_subsets.csv", "missing.csv", "missing_nulled.csv")


def identity_demand(t):
    return list(range(1, t.k + 1))


def coded_cache_levels(h, r):
    """Integral per-EN cache counts supported by the aligned-delivery scheme."""
    l = comb(h - 1, r - 1)
    return [t_e for t_e in range(l + 1) if r == 2 or t_e >= l - 2]


def zf_memory_point(k, t_r):
    """(mu_r, mu_t) hitting an integral split parameter t_r at EN share 1/2."""
    return Fraction(t_r + k, 2 * k), Fraction(1, 2)


def prefix_plan(ue, want, placement, labels):
    """Where each subfile of the split scheme's demanded prefix comes from, in order.

    Independent of the library's own assembler: walks every subfile of the
    demanded prefix and pairs it with None where the UE caches it, else with
    the delivered labels that carry it (the one-shot subfile, or its chunks
    sorted by null set). The labels depend on the schedule only, so one plan
    serves every library seed of a point.
    """
    k = placement.topology.k
    by_base = {}
    for lab in labels:
        by_base.setdefault(lab.base(), []).append(lab)
    plan = []
    for part in placement.parts:
        for t_set in combinations(range(1, k + 1), placement.t_u):
            base = cn.SoftSubfileLabel(file=want, subset=t_set, part=part)
            if ue in t_set:
                plan.append((base, None))
            elif placement.case == CASE_ONE_SHOT:
                (lab,) = by_base[base]
                plan.append((base, [lab]))
            else:
                chunks = sorted(by_base[base], key=lambda lb: lb.pi)
                assert len(chunks) == placement.chunk_count
                plan.append((base, chunks))
    return plan


def rebuild_prefix(plan, placement, delivered):
    """Reassemble the prefix from cache plus delivered bytes, following ``prefix_plan``."""
    return b"".join(
        placement.subfile_payload(base) if labels is None else b"".join(delivered[lab] for lab in labels)
        for base, labels in plan
    )


# ---------------------------------------------------------------------------
# criterion 1: five-EN walkthrough tables reproduce the golden copies
# ---------------------------------------------------------------------------


def test_criterion_01_five_en_walkthrough_tables_match_golden():
    t0 = time.monotonic()
    data = fx.all_fixtures()
    for name in FIVE_EN_TABLES:
        assert data[name] == (GOLDEN_DIR / name).read_text(encoding="ascii"), name
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS ({len(FIVE_EN_TABLES)} tables, {elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# criterion 2: five-EN delivery time is exact at three fronthaul qualities
# ---------------------------------------------------------------------------


def test_criterion_02_five_en_delivery_time_exact():
    for rho in (Fraction(1, 20), Fraction(1), Fraction(20)):
        v = cn.mdsia_ndt(5, 2, Fraction(1, 4), 0, rho)
        assert v.edge == Fraction(9, 8)
        assert v.fronthaul == Fraction(3, 4) / rho
        assert v.total == Fraction(9, 8) + Fraction(3, 4) / rho
    print("criterion 2: PASS (exact at rho = 1/20, 1, 20)")


# ---------------------------------------------------------------------------
# criterion 3: four-EN subset walkthrough tables, step count, delivery time
# ---------------------------------------------------------------------------


def test_criterion_03_four_en_subset_walkthrough():
    data = fx.all_fixtures()
    for name in FOUR_EN_TABLES:
        assert data[name] == (GOLDEN_DIR / name).read_text(encoding="ascii"), name

    t = cn.build_topology(4, 2)
    lib = cn.random_library(t.k, cn.minimal_soft_file_bits(4, 2, Fraction(1, 3), 0), seed=0)
    pl = cn.soft_place(lib, t, Fraction(1, 3), 0)
    schedule = cn.soft_schedule(identity_demand(t), pl, t)
    assert len(schedule) == 10

    for rho in (Fraction(1, 20), Fraction(1), Fraction(20)):
        v = cn.soft_ndt(4, 2, Fraction(1, 3), 0, rho)
        assert v.edge == Fraction(2, 3)
        assert v.fronthaul == 1 / rho
        assert v.total == Fraction(2, 3) + 1 / rho
    print("criterion 3: PASS (3 tables, 10 steps, delta = 2/3 + 1/rho)")


# ---------------------------------------------------------------------------
# criterion 4: structurally counted delivery time equals the closed forms
# ---------------------------------------------------------------------------


def test_criterion_04_structural_delivery_time_matches_closed_form():
    t0 = time.monotonic()
    rho = Fraction(1, 3)
    checked = 0
    for h, r in CONFIGS:
        t = cn.build_topology(h, r)
        k, l = t.k, t.l
        demand = identity_demand(t)

        for t_e in coded_cache_levels(h, r):
            mu_r = Fraction(t_e, l)
            lib = cn.random_library(k, cn.minimal_file_bits(t, t_e, 0), seed=0)
            pl = cn.mdsia_place(lib, t, mu_r, 0)
            cloud = cn.mdsia_fronthaul(demand, pl, t)
            local = cn.mdsia_local_multicast(demand, pl, t)
            mats = cn.build_interference_matrices(t, cloud or local)
            s = cn.mdsia_structural_ndt(pl, cloud, local, mats, rho)
            c = cn.mdsia_ndt(h, r, mu_r, 0, rho)
            assert (s.total, s.fronthaul, s.edge) == (c.total, c.fronthaul, c.edge)
            checked += 1

        for t_u in range(k + 1):
            mu_r = Fraction(t_u, k)
            lib = cn.random_library(k, cn.minimal_soft_file_bits(h, r, mu_r, 0), seed=0)
            pl = cn.soft_place(lib, t, mu_r, 0)
            schedule = cn.soft_schedule(demand, pl, t)
            s = cn.soft_structural_ndt(schedule, pl, rho)
            c = cn.soft_ndt(h, r, mu_r, 0, rho)
            assert (s.total, s.fronthaul, s.edge) == (c.total, c.fronthaul, c.edge)
            checked += 1

        for t_r in range(k + 1):
            mu_r, mu_t = zf_memory_point(k, t_r)
            lib = cn.random_library(k, cn.minimal_zf_file_bits(h, r, mu_r, mu_t), seed=0)
            pl = cn.zf_place(lib, t, mu_r, mu_t)
            schedule, _ = cn.zf_deliver(demand, pl, t, None)
            s = cn.zf_structural_ndt(schedule, pl)
            c = cn.zf_ndt(h, r, mu_r, mu_t)
            assert (s.total, s.fronthaul, s.edge) == (c.total, c.fronthaul, c.edge)
            checked += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 4: PASS ({checked} lattice points, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: bit-exact reconstruction over 50 library seeds per lattice point
# ---------------------------------------------------------------------------


def test_criterion_05_bit_exact_reconstruction_over_50_library_seeds():
    t0 = time.monotonic()
    n_seeds = 50
    points = 0
    for h, r in CONFIGS:
        t = cn.build_topology(h, r)
        k, l = t.k, t.l
        demand = identity_demand(t)

        for t_e in coded_cache_levels(h, r):
            mu_r = Fraction(t_e, l)
            f_bits = cn.minimal_file_bits(t, t_e, 0)
            for seed in range(n_seeds):
                lib = cn.random_library(k, f_bits, seed=seed)
                pl = cn.mdsia_place(lib, t, mu_r, 0)
                cloud = cn.mdsia_fronthaul(demand, pl, t)
                verdicts = cn.mdsia_decode_check(demand, pl, cloud, [], t)
                assert all(v.ok for v in verdicts)
            points += 1

        for t_u in range(k + 1):
            mu_r = Fraction(t_u, k)
            f_bits = cn.minimal_soft_file_bits(h, r, mu_r, 0)
            # schedules are payload-free; build once and rerun per library
            lib0 = cn.random_library(k, f_bits, seed=0)
            schedule = cn.soft_schedule(demand, cn.soft_place(lib0, t, mu_r, 0), t)
            for seed in range(n_seeds):
                lib = cn.random_library(k, f_bits, seed=seed)
                pl = cn.soft_place(lib, t, mu_r, 0)
                verdicts = cn.soft_simulate(schedule, None, pl, demand)
                assert all(v.ok for v in verdicts)
            points += 1

        for t_r in range(k + 1):
            mu_r, mu_t = zf_memory_point(k, t_r)
            f_bits = cn.minimal_zf_file_bits(h, r, mu_r, mu_t)
            lib0 = cn.random_library(k, f_bits, seed=0)
            pl0 = cn.zf_place(lib0, t, mu_r, mu_t)
            schedule = cn.soft_schedule(demand, pl0, t)
            # the labels each UE receives depend on the schedule only: group them once per UE
            labels = collect_deliveries(schedule, None, pl0)
            plans = {ue: prefix_plan(ue, demand[ue - 1], pl0, labels[ue]) for ue in range(1, k + 1)}
            for seed in range(n_seeds):
                lib = cn.random_library(k, f_bits, seed=seed)
                pl = cn.zf_place(lib, t, mu_r, mu_t)
                prefix_bytes = pl.part_bits.get("local", 0) // 8
                got = collect_deliveries(schedule, None, pl)
                for ue in range(1, k + 1):
                    assert len(got[ue]) == len(labels[ue])
                    prefix = rebuild_prefix(plans[ue], pl, got[ue])
                    assert prefix == lib.file(demand[ue - 1])[:prefix_bytes]
            points += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 5: PASS ({points} points x {n_seeds} seeds, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 6: beamformer numerics over 100 channel seeds per configuration
# ---------------------------------------------------------------------------


def test_criterion_06_beamformer_numerics_over_100_channel_seeds():
    assert ZF_RESIDUAL_TOL == 1e-9
    assert DESIRED_COEF_MIN == 1e-6

    # null sets taken from the actual delivery geometry of each configuration
    beam_configs = [
        (4, 2, Fraction(2, 6), SUM_OF_BASIS),  # one-shot, |pi| = 3, 1-dim kernel
        (4, 2, Fraction(1, 6), SINGLE_NULL),  # chunked, |pi| = H-1 = 3
        (5, 2, Fraction(6, 10), SUM_OF_BASIS),  # one-shot, |pi| = 3, 2-dim kernel
    ]
    for h, r, mu_r, mode in beam_configs:
        t = cn.build_topology(h, r)
        lib = cn.random_library(t.k, cn.minimal_soft_file_bits(h, r, mu_r, 0), seed=0)
        pl = cn.soft_place(lib, t, mu_r, 0)
        schedule = cn.soft_schedule(identity_demand(t), pl, t)
        pi_sets = sorted({lab.pi for step in schedule for _, lab in step.entries})
        assert pi_sets, "configuration produced no zero-forcing sets"

        redraws = 0
        for seed in range(100):
            ch = cn.draw_channel(t, seed)
            beams, used, attempts = cn.beamformers_for(ch, pi_sets, mode)
            redraws += attempts
            if attempts:
                assert used is not ch  # degenerate draws are always replaced
            for pi, bf in beams.items():
                rows = [u - 1 for u in pi]
                nulled = used.matrix[rows, :] @ bf.vector
                assert np.linalg.norm(nulled) <= 1e-9 * np.linalg.norm(bf.vector)
                for u in range(1, t.k + 1):
                    if u not in pi:
                        assert abs(used.matrix[u - 1, :] @ bf.vector) >= 1e-6
        rate = redraws / (100 + redraws)
        assert rate < 0.01, (h, r, mode, rate)
    print("criterion 6: PASS (3 configurations x 100 seeds)")


# ---------------------------------------------------------------------------
# criterion 7: scheme map over the memory grid and the crossover threshold
# ---------------------------------------------------------------------------


def test_criterion_07_scheme_map_and_crossover_threshold():
    grid = [Fraction(i, 20) for i in range(21)]
    mu_t = Fraction(3, 10)

    rows_low = cn.compare_schemes([(5, 2, m, mu_t, Fraction(1, 20)) for m in grid])
    rows_high = cn.compare_schemes([(5, 2, m, mu_t, Fraction(20)) for m in grid])
    for m, low, high in zip(grid, rows_low, rows_high):
        if m < Fraction(7, 10):
            assert low.values["mdsia"].total <= low.values["soft"].total
            assert high.values["soft"].total <= high.values["mdsia"].total
        else:
            assert low.argmin == "zf"

    th = cn.rho_threshold(5, 2, Fraction(7, 10), mu_t)
    assert abs(float(th) - 0.2353) <= 5e-5

    eps = Fraction(1, 1000)
    below = cn.compare_schemes([(5, 2, Fraction(7, 10), mu_t, th - eps)])[0]
    above = cn.compare_schemes([(5, 2, Fraction(7, 10), mu_t, th + eps)])[0]
    at = cn.compare_schemes([(5, 2, Fraction(7, 10), mu_t, th)])[0]
    assert below.values["zf"].total < below.values["mdsia"].total
    assert above.values["mdsia"].total < above.values["zf"].total
    assert at.values["mdsia"].total == at.values["zf"].total
    print(f"criterion 7: PASS (threshold {th} = {float(th):.6f}, flip verified)")


# ---------------------------------------------------------------------------
# criterion 8: wider connectivity never loses on the shared-memory grid
# ---------------------------------------------------------------------------


def test_criterion_08_wider_connectivity_never_worse():
    # connectivity 5 at 7 ENs is defined only near full UE cache
    # (t >= L-2 with L = 15): the grid points 18/20, 19/20, 20/20
    applicable = [Fraction(18, 20), Fraction(19, 20), Fraction(1)]
    with pytest.raises(UnsupportedRegime):
        cn.shared_mdsia_ndt(7, 5, Fraction(17, 20), 0, 1)

    max_gaps = []
    for rho in (Fraction(1, 10), Fraction(1), Fraction(10)):
        gaps = []
        for mu_r in applicable:
            wide = cn.shared_mdsia_ndt(7, 5, mu_r, 0, rho).total
            narrow = cn.shared_mdsia_ndt(7, 2, mu_r, 0, rho).total
            assert wide <= narrow, (rho, mu_r)
            gaps.append(narrow - wide)
        max_gaps.append(max(gaps))
    assert max_gaps[0] > max_gaps[1] > max_gaps[2] > 0
    print(f"criterion 8: PASS (max gaps {[float(g) for g in max_gaps]})")


# ---------------------------------------------------------------------------
# criterion 9: invariant property suite
# ---------------------------------------------------------------------------


def test_criterion_09_invariant_property_suite():
    # (a) cache budgets are exact for every placement of every scheme
    for h, r in CONFIGS:
        t = cn.build_topology(h, r)
        k, l, n = t.k, t.l, t.k

        mu_r, mu_t = Fraction(1, l), Fraction(1, 2 * r)
        f = cn.minimal_file_bits(t, 1, mu_t)
        lib = cn.random_library(n, f, seed=1)
        pl = cn.mdsia_place(lib, t, mu_r, mu_t)
        assert all(pl.ue_cache_bits(u) == mu_r * n * f for u in range(1, k + 1))
        assert all(pl.en_cache_bits(i) == mu_t * n * f for i in range(1, h + 1))

        mu_r, mu_t = Fraction(1, k), Fraction(1, 2)
        f = cn.minimal_soft_file_bits(h, r, mu_r, mu_t)
        sp = cn.soft_place(cn.random_library(n, f, seed=1), t, mu_r, mu_t)
        assert sp.ue_cache_bits() == mu_r * n * f
        assert sp.en_cache_bits() == mu_t * n * f

        mu_r, mu_t = zf_memory_point(k, 1)
        f = cn.minimal_zf_file_bits(h, r, mu_r, mu_t)
        zp = cn.zf_place(cn.random_library(n, f, seed=1), t, mu_r, mu_t)
        assert zp.ue_cache_bits() == mu_r * n * f
        assert zp.en_cache_bits() == mu_t * n * f

    # (b) peelability: every addressee of every multicast cancels the rest
    for h, r in CONFIGS:
        t = cn.build_topology(h, r)
        for mu_t in (0, Fraction(1, 2 * r)):
            lib = cn.random_library(t.k, cn.minimal_file_bits(t, 1, mu_t), seed=2)
            pl = cn.mdsia_place(lib, t, Fraction(1, t.l), mu_t)
            demand = identity_demand(t)
            cloud = cn.mdsia_fronthaul(demand, pl, t)
            local = cn.mdsia_local_multicast(demand, pl, t)
            for msg in cloud + local:
                for ue, own in msg.members:
                    others = [lb for u, lb in msg.members if u != ue]
                    assert all(lb in pl.ue_caches[ue] for lb in others)
                    assert own not in pl.ue_caches[ue]

    # (c) transmit-direction rows partition the message universe
    for h, r, t_e in ((5, 2, 1), (4, 3, 1)):
        t = cn.build_topology(h, r)
        lib = cn.random_library(t.k, cn.minimal_file_bits(t, t_e, 0), seed=3)
        pl = cn.mdsia_place(lib, t, Fraction(t_e, t.l), 0)
        cloud = cn.mdsia_fronthaul(identity_demand(t), pl, t)
        mats = cn.build_interference_matrices(t, cloud)
        plan = cn.plan_alignment(t, mats)
        planned = [m for row in plan.rows for m in row.b]
        assert len(planned) == len(set(planned)) == len(cloud)
        assert set(planned) == {m.id for m in cloud}

    # (d) chunked delivery steps carry exactly H + t_U entries
    for h, r, t_u in ((4, 2, 1), (5, 2, 1), (5, 2, 3)):
        t = cn.build_topology(h, r)
        mu_r = Fraction(t_u, t.k)
        lib = cn.random_library(t.k, cn.minimal_soft_file_bits(h, r, mu_r, 0), seed=4)
        pl = cn.soft_place(lib, t, mu_r, 0)
        schedule = cn.soft_schedule(identity_demand(t), pl, t)
        assert schedule and all(len(step.entries) == h + t_u for step in schedule)

    # (e) midpoint convexity of the shared curves, in exact rationals
    report = cn.convexity_check("mdsia", 0, 1, [Fraction(i, 8) for i in range(9)], h=5, r=2)
    assert report.ok and report.checked_pairs == 36 and not report.skipped_pairs
    report = cn.convexity_check(
        "soft", Fraction(3, 10), Fraction(1, 20), [Fraction(i, 10) for i in range(11)], h=5, r=2
    )
    assert report.ok and report.checked_pairs == 55 and not report.skipped_pairs
    print("criterion 9: PASS (budgets, peelability, partition, step law, convexity)")


# ---------------------------------------------------------------------------
# criterion 10: alignment certification across the supported grid
# ---------------------------------------------------------------------------


def test_criterion_10_alignment_certification_grid():
    configs = [(h, 2, t_e) for h in (3, 4, 5, 6) for t_e in range(comb(h - 1, 1) + 1)]
    configs.append((4, 3, 1))
    for h, r, t_e in configs:
        t = cn.build_topology(h, r)
        l = t.l
        lib = cn.random_library(t.k, cn.minimal_file_bits(t, t_e, 0), seed=0)
        pl = cn.mdsia_place(lib, t, Fraction(t_e, l), 0)
        cloud = cn.mdsia_fronthaul(identity_demand(t), pl, t)
        mats = cn.build_interference_matrices(t, cloud)
        plan = cn.plan_alignment(t, mats)
        report = cn.certify_alignment(plan, t, mats)
        assert report.ok, (h, r, t_e)

        groups_expected = comb(l, t_e + 1) - comb(l - 1, t_e)
        desired_expected = r * comb(l - 1, t_e)
        for ue in range(1, t.k + 1):
            checks = report.per_ue[ue]
            assert checks.partition_ok and checks.groups_shape_ok
            assert checks.group_count == groups_expected
            mine = sum(1 for m in cloud if any(u == ue for u, _ in m.members))
            assert mine == desired_expected
    print(f"criterion 10: PASS ({len(configs)} configurations)")
