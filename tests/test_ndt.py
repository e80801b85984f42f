"""Tests for the exact delivery-time algebra: sharing, thresholds, comparison."""

from decimal import Decimal
from fractions import Fraction

import pytest

import cachenet as cn
from cachenet.errors import RegionViolation
from cachenet.ndt import FRONTHAUL_FREE, argmin_key, memory_share

from oracles import FROZEN, rho_threshold_remark_form


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
