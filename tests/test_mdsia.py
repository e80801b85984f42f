"""Tests for erasure-coded placement with aligned-interference delivery."""

import dataclasses
import re
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import cachenet as cn
from cachenet import mdsia
from cachenet.errors import (
    DemandLengthMismatch,
    IndivisibleFileSize,
    InterferenceLeak,
    LengthError,
    NonCanonicalInterference,
    NonDistinctDemand,
    NonIntegralCacheParameter,
    OutOfRange,
    PeelFailure,
    ReconstructionMismatch,
    UnsupportedRegime,
)

from cachenet.mdsia import mdsia_geometry
import oracles
from oracles import FROZEN, mdsia_by_labels


def make_pipeline(h, r, mu_r, mu_t, seed=7, demand=None):
    """Build topology, library, placement, multicasts, matrices, and plan."""
    t = cn.build_topology(h, r)
    t_e = int(Fraction(mu_r) * t.l)
    lib = cn.random_library(t.k, cn.minimal_file_bits(t, t_e, mu_t), seed=seed)
    pl = cn.mdsia_place(lib, t, mu_r, mu_t)
    if demand is None:
        demand = list(range(1, t.k + 1))
    cloud = cn.mdsia_fronthaul(demand, pl, t)
    local = cn.mdsia_local_multicast(demand, pl, t)
    # both phases share one message-id universe; build matrices from either
    mats = cn.build_interference_matrices(t, cloud or local)
    plan = cn.plan_alignment(t, mats)
    return t, lib, pl, demand, cloud, local, mats, plan


# ---------------------------------------------------------------------------
# placement geometry and cache budgets
# ---------------------------------------------------------------------------


def test_minimal_file_bits_slices_into_whole_bytes():
    t = cn.build_topology(5, 2)
    assert cn.minimal_file_bits(t, 1, 0) == 64
    assert cn.minimal_file_bits(t, 1, Fraction(3, 10)) == 320


@pytest.mark.parametrize("mu_t", [0, Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)])
def test_cache_budgets_are_exact(mu_t):
    t = cn.build_topology(5, 2)
    f_bits = cn.minimal_file_bits(t, 1, mu_t)
    lib = cn.random_library(t.k, f_bits, seed=3)
    pl = cn.mdsia_place(lib, t, Fraction(1, 4), mu_t)
    ue_budget = Fraction(1, 4) * lib.n_files * f_bits
    assert all(pl.ue_cache_bits(k) == ue_budget for k in range(1, t.k + 1))
    # the EN share is capped at one chunk (1/r of the file) per file
    en_budget = min(Fraction(mu_t), Fraction(1, 2)) * lib.n_files * f_bits
    assert all(pl.en_cache_bits(i) == en_budget for i in range(1, t.h + 1))


def test_ue_cache_contents_follow_serving_ranks():
    t, lib, pl, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    # UE 1 is served by ENs 1 and 2 at rank 1, so it caches exactly the
    # rank-1 piece of chunks 1 and 2 of every file
    expected = {
        cn.PieceLabel(n, i, (1,)) for n in range(1, 11) for i in (1, 2)
    }
    assert pl.ue_caches[1] == expected
    # every cached piece's subset contains the UE's rank at that EN
    for k in range(1, t.k + 1):
        for lb in pl.ue_caches[k]:
            assert cn.index(t, lb.chunk, k) in lb.subset


def test_split_placement_has_both_parts():
    t, lib, pl, *_ = make_pipeline(5, 2, Fraction(1, 4), Fraction(3, 10))
    assert pl.parts() == [("en", "local", 96), ("cloud", "cloud", 64)]
    assert pl.piece_bits("en") == 24
    assert pl.piece_bits("cloud") == 16
    # concatenating the parts of a chunk reproduces the chunk
    chunk = pl.chunk_payload(1, 1)
    ranks = pl.rank_subsets
    en = b"".join(pl.piece_payload(cn.PieceLabel(1, 1, s, "en")) for s in ranks)
    cl = b"".join(pl.piece_payload(cn.PieceLabel(1, 1, s, "cloud")) for s in ranks)
    assert en + cl == chunk


@pytest.mark.parametrize("subset", [(1, 2), (5,), ()])
def test_piece_payload_rejects_a_subset_no_piece_has(subset):
    # t = 1 of L = 4 ranks: a pair, a rank past L and the empty set name no piece
    t, lib, pl, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    with pytest.raises(OutOfRange, match=rf"no piece has subset {re.escape(str(subset))}"):
        pl.piece_payload(cn.PieceLabel(1, 1, subset, None))


def test_full_en_share_moves_everything_local():
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), 1)
    assert pl.parts() == [(None, "local", pl.en_part_bits)]
    assert cloud == []
    assert len(local) == 5 * comb(4, 2)


def test_place_rejects_bad_parameters():
    t = cn.build_topology(5, 2)
    lib = cn.random_library(t.k, 64, seed=0)
    with pytest.raises(OutOfRange):
        cn.mdsia_place(lib, t, Fraction(3, 2), 0)
    with pytest.raises(NonIntegralCacheParameter):
        cn.mdsia_place(lib, t, Fraction(1, 3), 0)
    short = cn.random_library(t.k, 16, seed=0)
    with pytest.raises(IndivisibleFileSize):
        cn.mdsia_place(short, t, Fraction(1, 4), 0)


# ---------------------------------------------------------------------------
# multicast generation and demand validation
# ---------------------------------------------------------------------------


def test_multicast_counts_and_sizes():
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    assert local == []
    assert len(cloud) == t.h * comb(t.l, pl.t_e + 1)
    assert all(len(m.payload) == 1 for m in cloud)  # F/(r*C(L,t)) = 8 bits
    per_en = {i: sum(1 for m in cloud if m.en == i) for i in range(1, 6)}
    assert set(per_en.values()) == {comb(4, 2)}
    # each message XORs one piece per rank in its subset
    for m in cloud:
        assert len(m.members) == pl.t_e + 1
        ranks = {cn.index(t, m.en, k) for k, _ in m.members}
        assert ranks == set(m.subset)


def test_demand_validation():
    t, lib, pl, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    with pytest.raises(DemandLengthMismatch):
        cn.mdsia_fronthaul([1, 2, 3], pl, t)
    with pytest.raises(OutOfRange):
        cn.mdsia_fronthaul([99] + [1] * 9, pl, t)
    with pytest.warns(NonDistinctDemand):
        cn.mdsia_fronthaul([1] * 10, pl, t)


# ---------------------------------------------------------------------------
# peelability: every addressee can cancel everything it did not ask for
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu_t", [0, Fraction(3, 10)])
def test_every_addressee_can_peel(mu_t):
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), mu_t)
    for msg in cloud + local:
        for k, own in msg.members:
            others = [lb for u, lb in msg.members if u != k]
            assert all(lb in pl.ue_caches[k] for lb in others)
            assert own not in pl.ue_caches[k]


# ---------------------------------------------------------------------------
# interference matrices and the alignment plan
# ---------------------------------------------------------------------------


def test_interference_matrix_shape():
    t, lib, pl, demand, cloud, local, mats, plan = make_pipeline(5, 2, Fraction(1, 4), 0)
    expected_i = comb(4, 2) - comb(3, 1)
    for k, mat in mats.items():
        assert len(mat.columns) == t.r
        assert mat.i_rows == expected_i
        assert all(len(col) == expected_i for col in mat.columns)
        assert mat.rows() == tuple(zip(*mat.columns))
        # a UE never finds its own rank inside an interfering subset
        for col, en in zip(mat.columns, t.ens_of_ue(k)):
            for (i, s) in col:
                assert i == en and cn.index(t, i, k) not in s


def test_plan_rows_for_the_five_en_network():
    t, lib, pl, demand, cloud, local, mats, plan = make_pipeline(5, 2, Fraction(1, 4), 0)
    assert plan.g_rows == comb(5, 2)
    assert plan.rows[0].b == ((1, (2, 3)), (2, (2, 3)), (5, (3, 4)))
    assert [row.c for row in plan.rows] == [
        (1, 4, 7), (1, 3, 6), (1, 2, 5), (2, 4, 9), (2, 3, 8),
        (3, 4, 10), (5, 7, 9), (5, 6, 8), (6, 7, 10), (8, 9, 10),
    ]
    # coefficient identifiers: one per owner per serving EN, in owner order
    for row in plan.rows:
        assert row.a == tuple((c, en) for c in row.c for en in t.ens_of_ue(c))
    # in the pair-connectivity construction, the 6 messages UE 1 wants land
    # in 6 distinct rows, none of which aligns interference at UE 1
    row_of = plan.row_of_message()
    desired = [m.id for m in cloud if any(k == 1 for k, _ in m.members)]
    rows_hit = [row_of[m] for m in desired]
    mine = {row.g for row in plan.rows if 1 in row.c}
    assert len(desired) == 6 and len(set(rows_hit)) == 6
    assert not set(rows_hit) & mine and mine == {1, 2, 3}


def test_plan_partitions_the_message_universe():
    t, lib, pl, demand, cloud, local, mats, plan = make_pipeline(5, 2, Fraction(1, 4), 0)
    ids = [m for row in plan.rows for m in row.b]
    assert len(ids) == len(set(ids)) == len(cloud)
    assert set(ids) == {m.id for m in cloud}


def test_plan_rejects_wide_connectivity_below_supported_share():
    t = cn.build_topology(6, 3)  # L = 10, needs t >= 8
    lib = cn.random_library(t.k, cn.minimal_file_bits(t, 0, 0), seed=1)
    pl = cn.mdsia_place(lib, t, 0, 0)
    demand = list(range(1, t.k + 1))
    cloud = cn.mdsia_fronthaul(demand, pl, t)
    mats = cn.build_interference_matrices(t, cloud)
    with pytest.raises(UnsupportedRegime):
        cn.plan_alignment(t, mats)


CERTIFY_CONFIGS = (
    [(h, 2, t_e) for h in (3, 4, 5, 6) for t_e in range(comb(h - 1, 1) + 1)]
    + [(4, 3, t_e) for t_e in (1, 2, 3)]
)


@pytest.mark.parametrize("h,r,t_e", CERTIFY_CONFIGS)
def test_certification_passes_across_networks(h, r, t_e):
    l = comb(h - 1, r - 1)
    t, lib, pl, demand, cloud, local, mats, plan = make_pipeline(
        h, r, Fraction(t_e, l), 0, seed=11
    )
    report = cn.certify_alignment(plan, t, mats)
    assert report.ok
    assert report.b_partition_ok
    for k, checks in report.per_ue.items():
        assert checks.group_count == checks.expected_groups
        assert checks.desired_count == checks.expected_desired
        if t_e < l - 1:  # with no interference the desired count is not inferable
            assert checks.desired_count == t.r * comb(t.l - 1, t_e)


def test_certification_flags_a_broken_plan():
    t, lib, pl, demand, cloud, local, mats, plan = make_pipeline(5, 2, Fraction(1, 4), 0)
    # drop one message from its row: the partition and group shapes break
    first = plan.rows[0]
    broken = cn.AlignmentPlan(
        rows=(dataclasses.replace(first, b=first.b[:-1]),) + plan.rows[1:]
    )
    report = cn.certify_alignment(broken, t, mats)
    assert not report.ok
    assert not report.b_partition_ok


def test_deliver_names_the_first_ue_that_fails_certification(monkeypatch):
    # a plan missing its first row leaves that row's owners, UE 1 first,
    # one alignment group short of a partition of their interference
    t, lib, pl, demand, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    plan_alignment = mdsia.plan_alignment

    def drop_first_row(top, mats):
        plan = plan_alignment(top, mats)
        assert plan.rows[0].c[0] == 1
        return cn.AlignmentPlan(rows=plan.rows[1:])

    monkeypatch.setattr(mdsia, "plan_alignment", drop_first_row)
    with pytest.raises(InterferenceLeak, match=r"^alignment certification failed, row partition broken: "
                       r"UE 1 fails partition_ok$"):
        mdsia.mdsia_deliver(demand, pl, t)


#: every mdsia point of the criterion-5 lattice and the criterion-10 grid,
#: plus the three large ones the benchmark runs, as (H, r, t, mu_t, path)
ALIGNMENT_POINTS = sorted(
    {(h, r, t_e, 0, "cloud") for h, r in ((3, 2), (4, 2), (5, 2), (4, 3)) for t_e in range(comb(h - 1, r - 1) + 1)
     if r == 2 or t_e >= comb(h - 1, r - 1) - 2}
    | {(h, 2, t_e, 0, "cloud") for h in (3, 4, 5, 6) for t_e in range(h)}
    | {(4, 3, 1, 0, "cloud"), (10, 2, 3, Fraction(1, 4), "local"), (12, 2, 4, 0, "cloud"), (7, 3, 13, 0, "cloud")}
)


@pytest.mark.parametrize("h,r,t_e,mu_t,path", ALIGNMENT_POINTS)
def test_plan_and_report_match_the_greedy_oracle(h, r, t_e, mu_t, path):
    t, lib, pl, demand, cloud, local, mats, plan = make_pipeline(h, r, Fraction(t_e, comb(h - 1, r - 1)), mu_t)
    if path == "local":
        assert local
        mats = cn.build_interference_matrices(t, local)
        plan = cn.plan_alignment(t, mats)
    expected = oracles.plan_alignment(t, mats)
    fields = [(row.g, row.b, row.c, row.a) for row in plan.rows]
    assert fields == [(row.g, row.b, row.c, row.a) for row in expected.rows]
    report, oracle_report = cn.certify_alignment(plan, t, mats), oracles.certify_alignment(expected, t, mats)
    assert report.b_partition_ok == oracle_report.b_partition_ok
    assert report.per_ue == oracle_report.per_ue
    assert report.ok


def _tampered(name, plan, t):
    rows = list(plan.rows)
    if name == "duplicated":  # the first row's first message also rides the second row
        rows[1] = dataclasses.replace(rows[1], b=rows[1].b + rows[0].b[:1])
    elif name == "desired in an interfering row":
        # a message UE 1 decodes moves into a row that aligns UE 1's interference at the same EN
        row_of = plan.row_of_message()
        wanted = (1, (1, 2))
        home = row_of[wanted] - 1
        target = next(i for i, row in enumerate(rows) if 1 in row.c and any(m[0] == 1 for m in row.b))
        rows[home] = dataclasses.replace(rows[home], b=tuple(m for m in rows[home].b if m != wanted))
        rows[target] = dataclasses.replace(rows[target], b=rows[target].b + (wanted,))
    elif name == "substituted":
        # UE 1's second row carries its first row's EN-1 message in place of its own: every
        # count still holds, but UE 1's groups repeat one message and miss another
        first, second = [i for i, row in enumerate(rows) if 1 in row.c][:2]
        theirs = next(m for m in rows[first].b if m[0] == 1)
        rows[second] = dataclasses.replace(rows[second], b=tuple(theirs if m[0] == 1 else m for m in rows[second].b))
    else:  # a message of an EN the network does not have
        rows[0] = dataclasses.replace(rows[0], b=rows[0].b + ((t.h + 1, (1, 2)),))
    return cn.AlignmentPlan(rows=tuple(rows))


@pytest.mark.parametrize("name", ["duplicated", "desired in an interfering row", "substituted", "foreign message"])
def test_certification_flags_a_tampered_plan_as_the_oracle_does(name):
    t, lib, pl, demand, cloud, local, mats, plan = make_pipeline(5, 2, Fraction(1, 4), 0)
    tampered = _tampered(name, plan, t)
    report, expected = cn.certify_alignment(tampered, t, mats), oracles.certify_alignment(tampered, t, mats)
    assert not report.ok and not expected.ok
    assert report.b_partition_ok == expected.b_partition_ok
    assert {k: c.failed for k, c in report.per_ue.items()} == {k: c.failed for k, c in expected.per_ue.items()}
    assert report.per_ue == expected.per_ue
    if name == "desired in an interfering row":
        assert report.per_ue[1].failed == ("desired_rows_separate",)
    if name == "substituted":
        assert "partition_ok" in report.per_ue[1].failed and report.per_ue[1].groups_shape_ok


def test_alignment_refuses_matrices_that_are_not_the_geometrys():
    t, lib, pl, demand, cloud, local, mats, plan = make_pipeline(5, 2, Fraction(1, 4), 0)
    # the plan is one cached object per geometry, whichever message set built the matrices
    assert cn.plan_alignment(t, cn.build_interference_matrices(t, cloud)) is plan
    reordered = dict(mats)
    reordered[3] = dataclasses.replace(mats[3], columns=tuple(col[::-1] for col in mats[3].columns))
    for call in (lambda: cn.plan_alignment(t, reordered), lambda: cn.certify_alignment(plan, t, reordered)):
        with pytest.raises(NonCanonicalInterference, match=r"interference matrix of UE 3 is not the canonical one"):
            call()
    with pytest.raises(NonCanonicalInterference, match=r"^29 messages are not the 30 multicasts of \(H, r, t\)"):
        cn.build_interference_matrices(t, cloud[1:])
    # as many messages as the geometry has, but one repeated or foreign in place of another
    for msgs in (cloud[:1] + cloud[:-1], [m for m in cloud if m.en != 5] + [dataclasses.replace(cloud[0], en=6)] * 6):
        with pytest.raises(NonCanonicalInterference, match=r"^30 messages are not the 30 multicasts of \(H, r, t\)"):
            cn.build_interference_matrices(t, msgs)


# ---------------------------------------------------------------------------
# bit-level decode
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu_t", [0, Fraction(3, 10), 1])
def test_decode_rebuilds_every_file(mu_t):
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), mu_t)
    verdicts = cn.mdsia_decode_check(demand, pl, cloud, local, t)
    assert len(verdicts) == t.k
    assert all(v.ok and v.file_id == demand[v.ue - 1] for v in verdicts)


def test_decode_check_catches_a_corrupted_multicast():
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    bad = dataclasses.replace(
        cloud[0], payload=bytes(b ^ 0xFF for b in cloud[0].payload)
    )
    with pytest.raises(ReconstructionMismatch):
        cn.mdsia_decode_check(demand, pl, [bad] + cloud[1:], local, t)


def replace_member(msg, ue, label=None):
    """``msg`` with UE ``ue``'s member relabelled to ``label`` (dropped if None)."""
    members = tuple(
        (k, label if k == ue else lb) for k, lb in msg.members if k != ue or label is not None
    )
    return dataclasses.replace(msg, members=members)


def test_decode_check_names_a_dropped_message():
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    with pytest.raises(PeelFailure, match=re.escape("multicast (1,(1, 2)) absent on path cloud")):
        cn.mdsia_decode_check(demand, pl, cloud[1:], local, t)


def test_decode_check_names_a_member_the_peeler_cannot_cancel():
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    assert cloud[0].id == (1, (1, 2)) and [k for k, _ in cloud[0].members] == [1, 2]
    # UE 1 holds rank 1 of EN 1, so it caches no piece of subset (3,)
    bad = replace_member(cloud[0], 2, cn.PieceLabel(2, 1, (3,)))
    want = "UE 1 cannot cancel PieceLabel(file=2, chunk=1, subset=(3,), part=None) (not cached)"
    with pytest.raises(PeelFailure, match=re.escape(want)):
        cn.mdsia_decode_check(demand, pl, [bad] + cloud[1:], local, t)


def test_decode_check_names_a_peeler_missing_from_the_members():
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    bad = replace_member(cloud[0], 1)
    with pytest.raises(PeelFailure, match=re.escape("UE 1 is not an addressee of multicast (1, (1, 2))")):
        cn.mdsia_decode_check(demand, pl, [bad] + cloud[1:], local, t)


def test_decode_check_catches_a_corrupted_local_part():
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), Fraction(3, 10))
    assert [tag for tag, _, _ in pl.parts()] == ["en", "cloud"]  # chunks are split
    bad = dataclasses.replace(local[0], payload=bytes(b ^ 0x01 for b in local[0].payload))
    with pytest.raises(ReconstructionMismatch, match=re.escape("UE 1 rebuilt file 1 incorrectly")):
        cn.mdsia_decode_check(demand, pl, cloud, [bad] + local[1:], t)


def test_decode_check_reports_the_first_failure_in_scan_order():
    # UEs are scanned in order: UE 3 peels the corrupted message, UE 7 the
    # dropped one, UE 8 the relabelled one; each failure shows once the
    # earlier ones are repaired
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    by_id = {m.id: m for m in cloud}
    corrupt = dataclasses.replace(by_id[(1, (3, 4))], payload=b"\x5a")
    relabelled = replace_member(by_id[(3, (3, 4))], 9, cn.PieceLabel(9, 3, (1,)))
    dropped = (5, (2, 3))

    def run(*tampered):
        swap = {m.id: m for m in tampered}
        msgs = [swap.get(m.id, m) for m in cloud if m.id != dropped or dropped in swap]
        return cn.mdsia_decode_check(demand, pl, msgs, local, t)

    with pytest.raises(ReconstructionMismatch, match=re.escape("UE 3 rebuilt file 3 incorrectly")):
        run(corrupt, relabelled)
    with pytest.raises(PeelFailure, match=re.escape("multicast (5,(2, 3)) absent on path cloud")):
        run(relabelled)
    want = "UE 8 cannot cancel PieceLabel(file=9, chunk=3, subset=(1,), part=None) (not cached)"
    with pytest.raises(PeelFailure, match=re.escape(want)):
        run(relabelled, by_id[dropped])


def test_decode_check_reports_the_lowest_mismatching_ue_first():
    # the second corrupted message below reaches UE 6, the lowest UE either reaches
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    by_id = {m.id: m for m in cloud}
    tampered = {
        mid: dataclasses.replace(by_id[mid], payload=bytes(b ^ 0xFF for b in by_id[mid].payload))
        for mid in ((5, (2, 3)), (2, (3, 4)))
    }
    assert [k for k, _ in tampered[(5, (2, 3))].members] == [7, 9]
    assert [k for k, _ in tampered[(2, (3, 4))].members] == [6, 7]
    msgs = [tampered.get(m.id, m) for m in cloud]
    with pytest.raises(ReconstructionMismatch, match=re.escape("UE 6 rebuilt file 6 incorrectly")):
        cn.mdsia_decode_check(demand, pl, msgs, local, t)


def test_decode_check_names_a_wrong_own_label():
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    bad = replace_member(cloud[0], 1, cn.PieceLabel(3, 1, (2,)))
    want = (
        "multicast (1, (1, 2)) addresses UE 1 with PieceLabel(file=3, chunk=1, subset=(2,), part=None), "
        "not its missing piece PieceLabel(file=1, chunk=1, subset=(2,), part=None)"
    )
    with pytest.raises(PeelFailure, match=re.escape(want)):
        cn.mdsia_decode_check(demand, pl, [bad] + cloud[1:], local, t)


def test_decode_check_rejects_pieces_of_the_wrong_length():
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), Fraction(3, 10))
    bad = dataclasses.replace(local[0], payload=local[0].payload * 2)
    with pytest.raises(LengthError, match=re.escape("xor of unequal lengths 6 != 3")):
        cn.mdsia_decode_check(demand, pl, cloud, [bad] + local[1:], t)
    # UE 1 caches this 2-byte cloud piece, but the local payload is 3 bytes long
    other_part = replace_member(local[0], 2, cn.PieceLabel(2, 1, (1,), "cloud"))
    assert other_part.members[1][1] in pl.ue_caches[1]
    with pytest.raises(LengthError, match=re.escape("xor of unequal lengths 3 != 2")):
        cn.mdsia_decode_check(demand, pl, cloud, [other_part] + local[1:], t)


def test_decode_check_peels_an_extra_member_with_the_rest():
    # the first addressee caches the extra piece, XORs it out and so keeps a
    # spoiled piece; without it cached, the same message fails the peel
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(5, 2, Fraction(1, 4), 0)
    for extra, error, want in (
        (cn.PieceLabel(5, 1, (1,)), ReconstructionMismatch, "UE 1 rebuilt file 1 incorrectly"),
        (cn.PieceLabel(5, 1, (2,)), PeelFailure, "UE 1 cannot cancel PieceLabel(file=5, chunk=1, subset=(2,)"),
    ):
        spoiled = dataclasses.replace(cloud[0], members=cloud[0].members + ((3, extra),))
        with pytest.raises(error, match=re.escape(want)):
            cn.mdsia_decode_check(demand, pl, [spoiled] + cloud[1:], local, t)


# ---------------------------------------------------------------------------
# caches and multicasts against the label-level oracle
# ---------------------------------------------------------------------------

ORACLE_POINTS = [
    (h, r, t_e, mu_t)
    for h, r in ((3, 2), (4, 2), (5, 2), (4, 3))
    for t_e in range(comb(h - 1, r - 1) + 1)
    if r == 2 or t_e >= comb(h - 1, r - 1) - 2
    for mu_t in (Fraction(0), Fraction(3, 10), Fraction(1))
] + [(10, 2, 3, Fraction(1, 4))]


def assert_matches_oracle(pl, demand, cloud, local):
    """Views, cache sizes and every multicast equal the label-by-label oracle."""
    t = pl.topology
    ue_caches, en_caches, cloud_o, local_o, piece = mdsia_by_labels(pl, demand)
    universe = [
        cn.PieceLabel(n, i, s, tag)
        for n in range(1, pl.library.n_files + 2)
        for i in range(1, t.h + 1)
        for s in combinations(range(1, t.l + 1), pl.t_e)
        for tag in (None, "en", "cloud")
    ]
    for views, want_caches, bits in (
        (pl.ue_caches, ue_caches, pl.ue_cache_bits),
        (pl.en_caches, en_caches, pl.en_cache_bits),
    ):
        assert sorted(views) == sorted(want_caches)
        for node, want in want_caches.items():
            got = views[node]
            assert got == want and want == got
            assert len(got) == len(want) == len(list(got))
            assert set(got) == want
            probes = universe if len(universe) <= 5000 else want
            assert [lb in got for lb in probes] == [lb in want for lb in probes]
            assert bits(node) == sum(8 * len(piece(lb)) for lb in want)
    for lb in ue_caches[1]:
        assert pl.piece_payload(lb) == piece(lb)
    for got, want in ((cloud, cloud_o), (local, local_o)):
        assert isinstance(got, mdsia.Multicasts) and len(got) == len(want) and bool(got) == bool(want)
        messages = list(got)
        assert [(m.en, m.subset, m.payload, m.members) for m in messages] == want
        # built once and kept; equal to the list of its messages, whose slices and sums are lists
        assert all(a is b for a, b in zip(got, messages)) and [got[i] for i in range(len(got))] == messages
        assert got == messages and messages == got and got != messages + [None]
        for part in (got[1:], got[::-1], got + [], got + got):
            assert type(part) is list
        assert got[1:] == messages[1:] and got[::-1] == messages[::-1] and got + got == messages * 2
    assert cloud + local == [*cloud, *local]


@pytest.mark.parametrize("h,r,t_e,mu_t", ORACLE_POINTS)
def test_placement_and_multicasts_match_the_label_oracle(h, r, t_e, mu_t):
    t, lib, pl, demand, cloud, local, *_ = make_pipeline(h, r, Fraction(t_e, comb(h - 1, r - 1)), mu_t, seed=t_e)
    assert_matches_oracle(pl, demand, cloud, local)
    assert all(v.ok for v in cn.mdsia_decode_check(demand, pl, cloud, local, t))


def test_geometry_cache_is_sound_across_libraries_demands_and_shares():
    # one compiled (H, r, t) serves every run below; each must still match the oracle
    t = cn.build_topology(5, 2)
    mu_r = Fraction(2, t.l)
    identity = list(range(1, t.k + 1))
    runs = [
        (1, identity, Fraction(0)),
        (2, identity, Fraction(0)),  # a new library
        (2, identity[::-1], Fraction(0)),
        (2, [3, 3] + identity[2:], Fraction(0)),  # a repeated file
        (2, identity, Fraction(3, 10)),  # split chunks: other part sizes, same geometry
    ]
    mdsia_geometry.cache_clear()
    geometries = set()
    for i, (seed, demand, mu_t) in enumerate(runs):
        lib = cn.random_library(t.k, cn.minimal_file_bits(t, 2, mu_t), seed=seed)
        before = mdsia_geometry.cache_info()
        pl = cn.mdsia_place(lib, t, mu_r, mu_t)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cloud = cn.mdsia_fronthaul(demand, pl, t)
            local = cn.mdsia_local_multicast(demand, pl, t)
        repeats = len(set(demand)) < len(demand)
        assert [w.category for w in caught] == [NonDistinctDemand] * (2 if repeats else 0)
        after = mdsia_geometry.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == ((1, 1) if i == 0 else (0, 2))
        geometries.add(id(pl.geometry))
        assert_matches_oracle(pl, demand, cloud, local)
        verdicts = cn.mdsia_decode_check(demand, pl, cloud, local, t)
        assert [v.file_id for v in verdicts] == demand and all(v.ok for v in verdicts)
    assert len(geometries) == 1 and mdsia_geometry.cache_info().currsize == 1


def test_placement_memory_holds_no_labels():
    # the parent's label-per-piece placement peaked at 137 MB here
    t = cn.build_topology(12, 2)
    lib = cn.random_library(t.k, cn.minimal_file_bits(t, 4, 0), seed=1)
    mdsia_geometry.cache_clear()  # the compile counts too
    tracemalloc.start()
    try:
        pl = cn.mdsia_place(lib, t, Fraction(4, t.l), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pl.ue_caches[1]) == 2 * comb(10, 3) * t.k
    assert peak < 10 * 10**6


# ---------------------------------------------------------------------------
# multicasts as a lazy sequence over the geometry's message slots
# ---------------------------------------------------------------------------

#: the mdsia points of the criterion-5 lattice, as (H, r, t)
LATTICE_POINTS = [(h, r, t_e) for h, r, t_e, mu_t in ORACLE_POINTS if mu_t == 0 and h <= 5]


def test_mdsia_delivery_decode_and_recount_build_no_label(monkeypatch):
    points = [(10, 2, 3, Fraction(1, 4)), (5, 2, 1, Fraction(0))]
    prepared = []
    for h, r, t_e, mu_t in points:
        t = cn.build_topology(h, r)
        lib = cn.random_library(t.k, cn.minimal_file_bits(t, t_e, mu_t), seed=t_e)
        prepared.append((t, cn.mdsia_place(lib, t, Fraction(t_e, t.l), mu_t), mu_t))
    assert [tag for tag, _, _ in prepared[0][1].parts()] == ["en", "cloud"]  # both paths carry a part

    def refuse(*args, **kwargs):
        raise AssertionError("delivery built a label or a message")

    monkeypatch.setattr(mdsia, "PieceLabel", refuse)
    monkeypatch.setattr(mdsia, "MulticastMessage", refuse)
    deliveries = []
    for t, pl, mu_t in prepared:
        demand = list(range(t.k, 0, -1))
        delivery = mdsia.mdsia_deliver(demand, pl, t)
        cloud, local = delivery.cloud, delivery.local
        n_messages = t.h * comb(t.l, pl.t_e + 1)
        assert len(cloud) == n_messages and (cloud or local) is cloud
        assert len(local) == (n_messages if mu_t else 0) and (local or cloud) is (local if mu_t else cloud)
        verdicts = cn.mdsia_decode_check(demand, pl, cloud, local, t)
        assert [v.file_id for v in verdicts] == demand and all(v.ok for v in verdicts)
        counted = cn.mdsia_structural_ndt(pl, cloud, local, delivery.mats, rho=2)
        closed = cn.mdsia_ndt(t.h, t.r, pl.mu_r, mu_t, 2)
        assert (counted.total, counted.fronthaul, counted.edge) == (closed.total, closed.fronthaul, closed.edge)
        deliveries.append((pl, demand, delivery))
    monkeypatch.undo()
    for pl, demand, delivery in deliveries:  # what was not built is still the oracle's
        _, _, cloud_o, local_o, _ = mdsia_by_labels(pl, demand)
        assert [(m.en, m.subset, m.payload, m.members) for m in delivery.cloud + delivery.local] == cloud_o + local_o


def _outcome(call):
    # what a check returns, or the class and message of what it raises
    try:
        return call()
    except (PeelFailure, LengthError, ReconstructionMismatch, NonCanonicalInterference, AssertionError) as exc:
        return type(exc), str(exc)


#: the lattice, a split of unequal part sizes and the large split point
ALIKE_POINTS = [(h, r, t_e, 0) for h, r, t_e in LATTICE_POINTS] + [(5, 2, 1, Fraction(3, 10)),
                                                                  (10, 2, 3, Fraction(1, 4))]


@pytest.mark.parametrize("h,r,t_e,mu_t", ALIKE_POINTS)
def test_batches_and_their_message_lists_check_alike(h, r, t_e, mu_t):
    t, lib, pl, demand, cloud, local, mats, _ = make_pipeline(h, r, Fraction(t_e, comb(h - 1, r - 1)), mu_t)
    other_pl = cn.mdsia_place(cn.random_library(t.k, lib.file_size_bits, seed=99), t, pl.mu_r, mu_t)
    shifted = demand[1:] + demand[:1]
    # the placement's own batches, then batches of another demand, of another
    # library and of the other path, each against the lists of their messages
    cases = [
        (cloud, local),
        (cn.mdsia_fronthaul(shifted, pl, t), cn.mdsia_local_multicast(shifted, pl, t)),
        (cn.mdsia_fronthaul(demand, other_pl, t), cn.mdsia_local_multicast(demand, other_pl, t)),
        (local, cloud),
    ]
    checks = (
        lambda c, l: cn.mdsia_decode_check(demand, pl, c, l, t),
        lambda c, l: cn.mdsia_structural_ndt(pl, c, l, mats, rho=1),
        lambda c, l: cn.build_interference_matrices(t, c or l),
    )
    assert all(v.ok for v in cn.mdsia_decode_check(demand, pl, cloud, local, t))
    for c, l in cases:
        for check in checks:
            assert _outcome(lambda: check(c, l)) == _outcome(lambda: check(list(c), list(l)))


def test_a_batch_of_another_geometry_is_read_through_its_labels():
    # (5, 2) and (5, 4) both have L = 4 ranks per EN, so at one level their
    # multicasts carry the same ids; the (5, 4) batch's members are other UEs
    # past EN 1, and its payloads come from another library
    t, lib, pl, demand, cloud, local, mats, _ = make_pipeline(5, 2, Fraction(2, 4), 0)
    t4 = cn.build_topology(5, 4)
    pl4 = cn.mdsia_place(cn.random_library(t4.k, cn.minimal_file_bits(t4, 2, 0), seed=3), t4, Fraction(2, 4), 0)
    foreign = cn.mdsia_fronthaul(list(range(1, t4.k + 1)), pl4, t4)
    assert [m.id for m in foreign] == [m.id for m in cloud]
    for check in (
        lambda msgs: cn.mdsia_decode_check(demand, pl, msgs, local, t),
        lambda msgs: cn.build_interference_matrices(t, msgs),
    ):
        got = _outcome(lambda: check(foreign))
        assert got == _outcome(lambda: check(list(foreign)))
    with pytest.raises(ReconstructionMismatch, match=r"^UE 1 rebuilt file 1 incorrectly$"):
        cn.mdsia_decode_check(demand, pl, foreign, local, t)


# ---------------------------------------------------------------------------
# delivery-time values
# ---------------------------------------------------------------------------


def test_ndt_closed_form_values():
    v = cn.mdsia_ndt(5, 2, Fraction(1, 4), 0, 1)
    assert (v.total, v.fronthaul, v.edge) == (
        Fraction(15, 8), Fraction(3, 4), Fraction(9, 8))
    assert v.branch == "cloud-only"
    assert cn.mdsia_ndt(5, 2, Fraction(1, 4), 0, Fraction(1, 20)).total == Fraction(129, 8)
    assert cn.mdsia_ndt(5, 2, Fraction(1, 4), 0, 20).total == Fraction(93, 80)
    hybrid = cn.mdsia_ndt(5, 2, Fraction(1, 4), Fraction(3, 10), 1)
    assert hybrid.total == FROZEN["mdsia_total_5_2_quarter_mut03"]
    assert hybrid.branch == "hybrid"


def test_ndt_edge_only_branch_needs_no_fronthaul_rate():
    v = cn.mdsia_ndt(5, 2, Fraction(1, 4), Fraction(1, 2))  # rho omitted
    assert v.fronthaul == 0
    assert v.edge == Fraction(9, 8)
    assert v.branch == "edge-only"
    full = cn.mdsia_ndt(5, 2, 1, 0)
    assert full.total == 0


def test_ndt_value_is_consistent():
    for mu_t in (0, Fraction(3, 10), Fraction(1, 2)):
        v = cn.mdsia_ndt(5, 2, Fraction(1, 2), mu_t, 2)
        assert v.total == v.fronthaul + v.edge


def test_ndt_errors():
    with pytest.raises(NonIntegralCacheParameter):
        cn.mdsia_ndt(5, 2, Fraction(1, 3), 0, 1)
    with pytest.raises(UnsupportedRegime):
        cn.mdsia_ndt(6, 3, 0, 0, 1)
    with pytest.raises(OutOfRange):
        cn.mdsia_ndt(5, 2, Fraction(1, 4), 0, 0)


@pytest.mark.parametrize("h,r,t_e,mu_t", [
    (5, 2, 1, Fraction(0)),
    (5, 2, 1, Fraction(3, 10)),
    (5, 2, 2, Fraction(1, 2)),
    (4, 3, 1, Fraction(0)),
])
def test_structural_ndt_matches_closed_form(h, r, t_e, mu_t):
    l = comb(h - 1, r - 1)
    t, lib, pl, demand, cloud, local, mats, plan = make_pipeline(
        h, r, Fraction(t_e, l), mu_t
    )
    rho = Fraction(3, 2)
    structural = cn.mdsia_structural_ndt(pl, cloud, local, mats, rho=rho)
    closed = cn.mdsia_ndt(h, r, Fraction(t_e, l), mu_t, rho)
    assert structural.total == closed.total
    assert structural.fronthaul == closed.fronthaul
    assert structural.edge == closed.edge
    for bad in (0, -1):  # the closed form's rho check, which a value without fronthaul skips
        if closed.fronthaul:
            with pytest.raises(OutOfRange, match="^scheme mdsia uses the fronthaul"):
                cn.mdsia_structural_ndt(pl, cloud, local, mats, rho=bad)
        else:
            assert cn.mdsia_structural_ndt(pl, cloud, local, mats, rho=bad) == structural


def test_structural_ndt_refuses_a_repeated_or_foreign_message():
    # counted per slot, a repeat would vanish and a foreign message go uncounted
    t, lib, pl, demand, cloud, local, mats, plan = make_pipeline(5, 2, Fraction(1, 4), Fraction(3, 10))
    foreign = dataclasses.replace(local[0], en=6)
    for c, l in ((cloud + cloud[:1], local), (cloud, local + [foreign])):
        with pytest.raises(NonCanonicalInterference, match=r"^31 messages fill only 30 multicast slots$"):
            cn.mdsia_structural_ndt(pl, c, l, mats, rho=1)
