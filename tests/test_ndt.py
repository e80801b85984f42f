"""Tests for the exact delivery-time algebra: sharing, thresholds, comparison."""

import random
import re
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import chain, zip_longest
from math import comb

import pytest

import cachenet as cn
from cachenet import ndt, schemes
from cachenet.cli import sweep_rows
from cachenet.combinatorics import level_mu
from cachenet.errors import OutOfRange, RegionViolation, UnsupportedRegime
from cachenet.ndt import FRONTHAUL_FREE, argmin_key, at_rho, memory_share

from oracles import (
    FROZEN,
    SCHEME_NAMES,
    compare_schemes_by_hand,
    compare_schemes_per_rho,
    convexity_check_per_pair,
    rho_threshold_remark_form,
    shared_by_hand,
)

RHOS = [Fraction(1, 20), Fraction(1, 4), Fraction(1), Fraction(4), Fraction(20)]
#: the (H, r) x mu_t slices of the ndt-grid benchmark
NDT_CONFIGS = [(4, 2), (5, 2), (8, 2), (12, 2), (6, 3), (7, 3)]
NDT_MU_TS = [Fraction(0), Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(1)]


# ---------------------------------------------------------------------------
# exact-rational plumbing
# ---------------------------------------------------------------------------


def test_as_fraction_accepts_exact_forms():
    assert cn.as_fraction(Fraction(3, 10)) == Fraction(3, 10)
    assert cn.as_fraction(2) == 2
    assert cn.as_fraction("3/10") == Fraction(3, 10)
    assert cn.as_fraction("0.3") == Fraction(3, 10)
    assert cn.as_fraction(Decimal("0.25")) == Fraction(1, 4)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        cn.as_fraction(0.3)
    with pytest.raises(TypeError):
        cn.as_fraction(object())


def test_ndt_value_enforces_its_decomposition():
    with pytest.raises(AssertionError):
        cn.NdtValue(total=Fraction(2), fronthaul=Fraction(1), edge=Fraction(2),
                    scheme="mdsia")
    with pytest.raises(AssertionError):
        cn.NdtValue(total=Fraction(-1), fronthaul=Fraction(-1), edge=Fraction(0),
                    scheme="mdsia")


# ---------------------------------------------------------------------------
# memory sharing
# ---------------------------------------------------------------------------


def test_sharing_is_identity_at_integral_points():
    direct = cn.mdsia_ndt(5, 2, Fraction(1, 4), 0, 1)
    shared = cn.shared_mdsia_ndt(5, 2, Fraction(1, 4), 0, 1)
    assert shared.total == direct.total
    assert shared.sharing.alpha == 1
    assert shared.sharing.param_hi == shared.sharing.param_lo == 1


def test_sharing_midpoint_value():
    v = cn.shared_mdsia_ndt(5, 2, Fraction(3, 8), 0, 1)
    assert v.total == FROZEN["mdsia_shared_midpoint_5_2_3o8"]
    assert v.sharing.alpha == Fraction(1, 2)
    assert (v.sharing.param_lo, v.sharing.param_hi) == (1, 2)
    assert v.branch == "shared"


def test_sharing_general_weight():
    v = cn.shared_mdsia_ndt(5, 2, Fraction(3, 10), 0, 1)
    assert v.sharing.alpha == Fraction(1, 5)
    assert v.total == Fraction(101, 60)
    # the combination is applied component-wise
    lo = cn.mdsia_ndt(5, 2, Fraction(1, 4), 0, 1)
    hi = cn.mdsia_ndt(5, 2, Fraction(1, 2), 0, 1)
    a = Fraction(1, 5)
    assert v.fronthaul == a * hi.fronthaul + (1 - a) * lo.fronthaul
    assert v.edge == a * hi.edge + (1 - a) * lo.edge


def test_sharing_cloud_free_normalizer():
    v = cn.shared_zf_ndt(5, 2, Fraction(3, 4), Fraction(3, 10))
    assert v.total == Fraction(53, 140)
    assert v.sharing.alpha == Fraction(2, 3)
    assert (v.sharing.param_lo, v.sharing.param_hi) == (1, 2)
    # the bracket cache fractions are affine images of the integer points
    assert v.sharing.mu_lo == Fraction(3, 10) * Fraction(1, 10) + Fraction(7, 10)
    degenerate = cn.shared_zf_ndt(5, 2, 1, 0)
    assert degenerate.total == 0 and degenerate.sharing.param_hi == 10


def test_sharing_region_and_normalizer_errors():
    with pytest.raises(RegionViolation):
        cn.shared_zf_ndt(5, 2, Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        memory_share(cn.mdsia_ndt, 5, 2, Fraction(1, 4), 0, 1, "bogus")


def test_sharing_soft_curve():
    half = cn.shared_soft_ndt(5, 2, Fraction(1, 2), 0, 1)
    assert half.total == FROZEN["soft_total_5_2_half"]
    mid = cn.shared_soft_ndt(4, 2, Fraction(1, 4), 0, 1)
    lo = cn.soft_ndt(4, 2, Fraction(1, 6), 0, 1)
    hi = cn.soft_ndt(4, 2, Fraction(1, 3), 0, 1)
    assert mid.total == (lo.total + hi.total) / 2
    assert mid.sharing.alpha == Fraction(1, 2)


def test_at_rho_scales_only_the_fronthaul():
    for args in [(5, 2, Fraction(1, 10), 0), (5, 2, Fraction(2, 5), Fraction(1, 10)), (7, 3, Fraction(9, 10), 0)]:
        unit = cn.shared_mdsia_ndt(*args, 1)
        assert unit.fronthaul and unit.sharing.alpha != 1
        for rho in RHOS:
            assert at_rho(unit, rho) == cn.shared_mdsia_ndt(*args, rho)
            assert at_rho(cn.shared_soft_ndt(*args, 1), rho) == cn.shared_soft_ndt(*args, rho)


def test_at_rho_checks_rho_only_where_the_fronthaul_is_used():
    free = cn.shared_soft_ndt(6, 3, Fraction(1, 10), 1, 1)  # mu_t = 1: no fronthaul
    used = cn.shared_mdsia_ndt(5, 2, Fraction(1, 4), 0, 1)
    for rho in (0, -1, None):
        assert at_rho(free, rho) is free
        with pytest.raises(OutOfRange, match=rf"^scheme mdsia uses the fronthaul, so rho must be positive, got {rho}$"):
            at_rho(used, rho)
    # both closed forms check rho there, with the one message
    with pytest.raises(OutOfRange, match="^scheme mdsia "):
        cn.mdsia_ndt(5, 2, Fraction(1, 4), 0)
    with pytest.raises(OutOfRange, match="^scheme soft "):
        cn.soft_ndt(4, 2, Fraction(1, 3), 0, 0)


# ---------------------------------------------------------------------------
# fronthaul-quality threshold
# ---------------------------------------------------------------------------


def test_threshold_value_and_remark_form_agree():
    th = cn.rho_threshold(5, 2, Fraction(7, 10), Fraction(3, 10))
    assert th == FROZEN["rho_threshold_5_2_07_03"]
    assert rho_threshold_remark_form(5, 2, Fraction(7, 10), Fraction(3, 10)) == th
    # string inputs parse exactly
    assert cn.rho_threshold(5, 2, "0.7", "0.3") == th


def test_threshold_degenerate_cases():
    # EN share large enough to silence the fronthaul: threshold collapses to 0
    assert cn.rho_threshold(5, 2, Fraction(3, 5), Fraction(1, 2)) == 0
    # cloud-free never wins at finite rho when its value meets the edge part
    assert cn.rho_threshold(3, 2, Fraction(3, 5), Fraction(2, 5)) is None
    with pytest.raises(RegionViolation):
        cn.rho_threshold(5, 2, Fraction(3, 10), Fraction(3, 10))


def test_schemes_flip_across_the_threshold():
    th = cn.rho_threshold(5, 2, Fraction(7, 10), Fraction(3, 10))
    zf = cn.shared_zf_ndt(5, 2, Fraction(7, 10), Fraction(3, 10)).total
    eps = Fraction(1, 100)
    below = cn.shared_mdsia_ndt(5, 2, Fraction(7, 10), Fraction(3, 10), th - eps).total
    above = cn.shared_mdsia_ndt(5, 2, Fraction(7, 10), Fraction(3, 10), th + eps).total
    at = cn.shared_mdsia_ndt(5, 2, Fraction(7, 10), Fraction(3, 10), th).total
    assert below > zf > above
    assert at == zf  # exact crossover


# ---------------------------------------------------------------------------
# grid comparison
# ---------------------------------------------------------------------------


def test_compare_schemes_at_poor_fronthaul():
    rows = cn.compare_schemes([
        (5, 2, Fraction(7, 10), Fraction(3, 10), Fraction(1, 20)),
        (5, 2, Fraction(3, 10), Fraction(3, 10), Fraction(1, 20)),
    ])
    strong = rows[0]
    assert strong.values["mdsia"].total == Fraction(33, 20)
    assert strong.values["soft"].total == Fraction(87, 10)
    assert strong.values["zf"].total == Fraction(3, 5)
    assert strong.argmin == "zf"
    weak = rows[1]
    assert weak.values["zf"] is None  # outside the cloud-free region
    assert weak.argmin == "mdsia"


def test_compare_schemes_handles_unsupported_regimes():
    [row] = cn.compare_schemes([(6, 3, Fraction(1, 10), 0, 1)])
    assert row.values["mdsia"] is None  # wide connectivity below its region
    assert row.values["zf"] is None
    assert row.argmin == "soft"


def _slice_mu_rs(h: int, r: int, mu_t: Fraction, rng: random.Random) -> list[Fraction]:
    """Integral levels and bracket midpoints of every normalizer, and random multiples of 1/2520."""
    mu_rs = {Fraction(rng.randrange(2521), 2520) for _ in range(3)}
    for normalizer, top in (("L", comb(h - 1, r - 1)), ("K", comb(h, r)), ("ZF", comb(h, r))):
        for p in rng.sample(range(top), min(top, 3)):
            lo, hi = (level_mu(normalizer, h, r, q, mu_t) for q in (p, p + 1))
            mu_rs |= {lo, hi, (lo + hi) / 2}
    return sorted(mu_rs)


def test_compare_schemes_equals_the_per_rho_evaluation():
    # the ndt-grid benchmark's (H, r) x mu_t slices, each mu_r at every rho
    rng = random.Random(13)
    slices = [
        [(h, r, mu_r, mu_t, rho) for mu_r in _slice_mu_rs(h, r, mu_t, rng) for rho in RHOS]
        for mu_t in NDT_MU_TS
        for h, r in NDT_CONFIGS
    ]
    entries = sorted(chain.from_iterable(slices))
    expected = dict(zip(entries, compare_schemes_per_rho(entries)))
    rows = expected.values()
    assert any(row.mu_r + row.mu_t < 1 and row.values["zf"] is None for row in rows)
    assert any(row.mu_r + row.mu_t >= 1 and row.values["zf"] is not None for row in rows)
    assert any(row.values["mdsia"] is None for row in rows)
    assert any(row.values["mdsia"] and row.values["mdsia"].sharing.alpha != 1 for row in rows)

    shuffled = rng.sample(entries, len(entries))
    repeated = entries + rng.sample(entries, len(entries) // 3)
    rng.shuffle(repeated)
    interleaved = [e for group in zip_longest(*slices) for e in group if e is not None]
    for grid in (entries, shuffled, repeated, interleaved):
        assert cn.compare_schemes(grid) == [expected[e] for e in grid]


def test_compare_schemes_equals_the_closed_forms_by_hand():
    # every slice holds integral levels, bracket midpoints and random points, each at every rho
    rng = random.Random(29)
    grid = []
    for h, r in NDT_CONFIGS:
        for mu_t in NDT_MU_TS:
            mu_rs = set(_slice_mu_rs(h, r, mu_t, rng))
            while len(mu_rs) < 24:
                mu_rs.add(Fraction(rng.randrange(2521), 2520))
            grid += [(h, r, mu_r, mu_t, rho) for mu_r in sorted(mu_rs) for rho in RHOS]
    rows = cn.compare_schemes(grid)
    expected = compare_schemes_by_hand(grid)
    assert len(rows) == len(expected) == len(grid)
    for row, (values, best) in zip(rows, expected):
        assert tuple(row.values) == SCHEME_NAMES
        for scheme, value in row.values.items():
            if values[scheme] is None:
                assert value is None, (row, scheme)
                continue
            total, fronthaul, edge, alpha, levels, mus = values[scheme]
            s = value.sharing
            assert (value.total, value.fronthaul, value.edge) == (total, fronthaul, edge), (row, scheme)
            assert (s.alpha, (s.param_lo, s.param_hi), (s.mu_lo, s.mu_hi)) == (alpha, levels, mus), (row, scheme)
        assert row.argmin == best, row
    # the grid reaches every case the oracle distinguishes
    shared = [v for row in rows for v in row.values.values() if v is not None]
    assert {v.sharing.alpha == 1 for v in shared} == {True, False}
    assert all(any(row.values[s] is None for row in rows) for s in ("mdsia", "zf"))
    assert {row.argmin for row in rows} == set(SCHEME_NAMES)


def test_one_sweep_evaluates_each_closed_form_once_per_corner(monkeypatch):
    calls = Counter()

    def counting(name, closed_form):
        def ndt_fn(h, r, mu_r, mu_t, rho=None):
            value = closed_form(h, r, mu_r, mu_t, rho)  # a raise is not counted: errors are not cached
            calls[name, h, r, mu_r, mu_t] += 1  # a corner's mu_r names its level
            return value
        return ndt_fn

    grid = [Fraction(i, 40) for i in range(41)]  # cachenet sweep --mu-r-grid 0:1:1/40
    want = {(h, r, mu_t): sweep_rows(h, r, mu_t, grid, RHOS) for h, r in ((5, 2), (7, 3)) for mu_t in NDT_MU_TS}
    for name, scheme in schemes.SCHEMES.items():
        monkeypatch.setitem(schemes.SCHEMES, name, replace(scheme, ndt=counting(name, scheme.ndt)))
    for (h, r, mu_t), lines in want.items():
        assert sweep_rows(h, r, mu_t, grid, RHOS) == lines
    assert {name for name, *_ in calls} == set(SCHEME_NAMES)
    assert set(calls.values()) == {1}
    assert ndt._corner.cache_info().maxsize is not None  # bounded


def test_an_unsupported_corner_raises_on_every_call():
    # (7, 3): L = 15, and mu_r = 5/6 is t = 25/2, between the uncovered t = 12 < L - 2 and t = 13
    for _ in range(2):
        with pytest.raises(UnsupportedRegime, match=r"^connectivity 3 requires t >= L-2, got t=12$"):
            cn.shared_mdsia_ndt(7, 3, Fraction(5, 6), 0, 1)
    # the covered corner t = 13 is kept, and a good call right after gets it right
    value = cn.shared_mdsia_ndt(7, 3, Fraction(9, 10), 0, Fraction(1, 4))
    assert (value.total, value.fronthaul, value.edge) == shared_by_hand("mdsia", 7, 3, Fraction(9, 10), 0, Fraction(1, 4))[:3]


@pytest.mark.parametrize("scheme,point", [
    ("mdsia", (5, 2, Fraction(1, 4), 0)),  # integral
    ("mdsia", (5, 2, Fraction(3, 10), 0)),  # shared
    ("soft", (4, 2, Fraction(1, 4), Fraction(1, 10))),
])
@pytest.mark.parametrize("rho", [None, 0, -1])
def test_shared_ndt_checks_rho_although_its_corners_are_kept(scheme, point, rho):
    shared_ndt = schemes.SCHEMES[scheme].shared_ndt
    at_one = shared_ndt(*point, 1)  # keeps the corners
    with pytest.raises(OutOfRange, match=rf"^scheme {scheme} uses the fronthaul, so rho must be positive, got {rho}$"):
        shared_ndt(*point, rho)
    assert shared_ndt(*point, 1) == at_one
    after = shared_ndt(*point, 4)
    assert (after.total, after.fronthaul, after.edge) == shared_by_hand(scheme, *point, 4)[:3]


def _scheme_named(message: str) -> str:
    """The scheme a non-positive-rho error names."""
    return re.search(r"scheme (\w+) uses the fronthaul", message).group(1)


@pytest.mark.parametrize("point,rho,scheme", [
    ((5, 2, Fraction(1, 4), 0), 0, "mdsia"),
    ((5, 2, Fraction(1, 4), 0), -1, "mdsia"),
    # mdsia is n/a there, so the first scheme in registry order with a fronthaul part
    ((6, 3, Fraction(1, 10), 0), 0, "soft"),
    # mdsia's lower corner (t = 3 < L - 2) is n/a, so mdsia is n/a at every rho
    ((5, 3, Fraction(7, 12), 0), 0, "soft"),
])
def test_compare_schemes_rejects_non_positive_rho(point, rho, scheme):
    with pytest.raises(OutOfRange) as info:
        cn.compare_schemes([(*point, 1), (*point, rho)])
    assert _scheme_named(str(info.value)) == scheme


def test_compare_schemes_takes_any_rho_where_no_fronthaul_is_used():
    [at_zero, at_one] = cn.compare_schemes([(6, 3, Fraction(1, 10), 1, 0), (6, 3, Fraction(1, 10), 1, 1)])
    assert at_zero.values == at_one.values and at_zero.values["mdsia"] is None
    assert at_zero.argmin == "zf"


def test_argmin_tie_breaks_toward_fronthaul_free():
    [row] = cn.compare_schemes([(5, 2, 1, 0, 1)])
    assert all(v.total == 0 for v in row.values.values())
    assert row.argmin == "zf"
    # the key orders: no-fronthaul value first, structurally free scheme first
    assert "zf" in FRONTHAUL_FREE
    a = argmin_key("zf", row.values["zf"])
    b = argmin_key("mdsia", row.values["mdsia"])
    assert a < b


# ---------------------------------------------------------------------------
# convexity and monotonicity of the shared curves
# ---------------------------------------------------------------------------


def test_coded_multicast_curve_is_midpoint_convex():
    grid = [Fraction(i, 8) for i in range(9)]
    report = cn.convexity_check("mdsia", 0, 1, grid, h=5, r=2)
    assert report.ok
    assert report.checked_pairs == 36
    assert report.skipped_pairs == ()


def test_soft_curve_is_midpoint_convex():
    grid = [Fraction(i, 10) for i in range(11)]
    report = cn.convexity_check("soft", Fraction(3, 10), Fraction(1, 20), grid, h=5, r=2)
    assert report.ok
    assert report.checked_pairs == 55


def test_convexity_skips_out_of_region_pairs():
    grid = [Fraction(1, 2), Fraction(7, 10), Fraction(9, 10)]
    report = cn.convexity_check("zf", Fraction(3, 10), 1, grid, h=5, r=2)
    assert report.ok
    assert report.checked_pairs == 1
    assert set(report.skipped_pairs) == {
        (Fraction(1, 2), Fraction(7, 10)), (Fraction(1, 2), Fraction(9, 10))
    }


@pytest.mark.parametrize("scheme,mu_t,rho,grid,h,r", [
    ("mdsia", 0, 1, [Fraction(i, 8) for i in range(9)], 5, 2),
    ("mdsia", Fraction(1, 10), Fraction(1, 4), [Fraction(i, 10) for i in range(11)], 6, 3),
    ("soft", Fraction(3, 10), Fraction(1, 20), [Fraction(i, 10) for i in range(11)], 5, 2),
    ("zf", Fraction(3, 10), 1, [Fraction(i, 20) for i in range(21)], 5, 2),
])
def test_convexity_report_equals_the_per_pair_check(scheme, mu_t, rho, grid, h, r):
    report = cn.convexity_check(scheme, mu_t, rho, grid, h=h, r=r)
    assert report == convexity_check_per_pair(scheme, mu_t, rho, grid, h=h, r=r)
    assert report.checked_pairs


def test_convexity_evaluates_each_point_once(monkeypatch):
    calls = Counter()
    shared = schemes.shared_scheme_ndt

    def counting(scheme, h, r, mu_r, *args):
        calls[mu_r] += 1
        return shared(scheme, h, r, mu_r, *args)

    monkeypatch.setattr(schemes, "shared_scheme_ndt", counting)
    grid = [Fraction(i, 10) for i in range(11)]
    report = cn.convexity_check("zf", Fraction(3, 10), 1, grid, h=5, r=2)
    assert report.skipped_pairs and report.checked_pairs
    assert sum(calls[m] for m in grid) == len(grid)
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("scheme,mu_t", [("mdsia", Fraction(0)), ("soft", Fraction(3, 10))])
def test_totals_never_increase_with_cache_size(scheme, mu_t):
    grid = [Fraction(i, 20) for i in range(21)]
    totals = [cn.shared_scheme_ndt(scheme, 5, 2, m, mu_t, 1).total for m in grid]
    assert all(a >= b for a, b in zip(totals, totals[1:]))


def test_totals_never_increase_with_fronthaul_quality():
    rhos = [Fraction(1, 20), Fraction(1, 4), 1, 4, 20]
    for scheme in ("mdsia", "soft"):
        totals = [
            cn.shared_scheme_ndt(scheme, 5, 2, Fraction(2, 5), Fraction(1, 10), rho).total
            for rho in rhos
        ]
        assert all(a >= b for a, b in zip(totals, totals[1:]))
