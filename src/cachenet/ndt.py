"""Exact-rational delivery-time algebra shared by all schemes.

Normalized delivery time (NDT) here is always an exact ``Fraction`` split
into a fronthaul part and an edge part. This module owns the value types,
convex memory sharing between integer-parameter operating points, the
fronthaul-quality threshold at which the cloud-free scheme stops winning,
grid comparison with deterministic tie-breaking, and midpoint-convexity
verification. No floats enter any computation; decimals appear only when a
caller renders values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction

from .combinatorics import fractional_level, level_mu
from .errors import RegionViolation, UnsupportedRegime

SCHEMES = ("mdsia", "soft", "zf")

#: schemes that never touch the fronthaul by construction
FRONTHAUL_FREE = frozenset({"zf"})


def as_fraction(x) -> Fraction:
    """Exact conversion; floats are rejected to keep every path rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, Decimal):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError(
            f"refusing float {x!r}: pass a string like '0.3' or a Fraction for exactness"
        )
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class SharingDecomposition:
    """How a fractional cache point splits across two integer-parameter points.

    ``alpha`` is the weight of the upper point: mu_r = alpha * mu_hi +
    (1 - alpha) * mu_lo, with param_hi/param_lo the bracketing integer
    values of the scheme's normalized cache parameter. Integral points use
    alpha = 1 with both brackets equal.
    """

    mu_hi: Fraction
    mu_lo: Fraction
    alpha: Fraction
    param_hi: int
    param_lo: int


@dataclass(frozen=True)
class NdtValue:
    """An exact delivery-time value with its fronthaul/edge decomposition."""

    total: Fraction
    fronthaul: Fraction
    edge: Fraction
    scheme: str
    branch: str = ""
    sharing: SharingDecomposition | None = None

    def __post_init__(self) -> None:
        assert self.total == self.fronthaul + self.edge, "decomposition broken"
        assert self.fronthaul >= 0 and self.edge >= 0, "negative component"


# ---------------------------------------------------------------------------
# memory sharing
# ---------------------------------------------------------------------------


def memory_share(ndt_fn, h: int, r: int, mu_r, mu_t, rho, normalizer: str) -> NdtValue:
    """Evaluate a scheme at any cache fraction by convex combination.

    ``normalizer`` selects how the UE cache fraction maps to the scheme's
    integer parameter: ``"L"`` (per-EN rank subsets, param = mu_r*L),
    ``"K"`` (per-UE subsets, param = mu_r*K), or ``"ZF"`` (param =
    (mu_r+mu_t-1)*K/mu_t, affine in mu_r). Integral parameters evaluate
    directly (alpha = 1); otherwise the two adjacent integer points are
    combined with the exact affine weight, and errors raised at a bracket
    point propagate. Cache fractions outside [0, 1] raise ``OutOfRange``.
    """
    mu_r = as_fraction(mu_r)
    mu_t = as_fraction(mu_t)
    param = fractional_level(normalizer, h, r, mu_r, mu_t)

    if param.denominator == 1:
        p = int(param)
        value = ndt_fn(h, r, mu_r, mu_t, rho)
        sharing = SharingDecomposition(mu_hi=mu_r, mu_lo=mu_r, alpha=Fraction(1), param_hi=p, param_lo=p)
        return replace(value, sharing=sharing)

    p_lo = math.floor(param)
    p_hi = p_lo + 1
    alpha = param - p_lo  # affine in mu_r, so this is the weight of the upper point
    mu_hi, mu_lo = (level_mu(normalizer, h, r, p, mu_t) for p in (p_hi, p_lo))
    v_hi = ndt_fn(h, r, mu_hi, mu_t, rho)
    v_lo = ndt_fn(h, r, mu_lo, mu_t, rho)
    sharing = SharingDecomposition(mu_hi=mu_hi, mu_lo=mu_lo, alpha=alpha, param_hi=p_hi, param_lo=p_lo)
    return NdtValue(
        total=alpha * v_hi.total + (1 - alpha) * v_lo.total,
        fronthaul=alpha * v_hi.fronthaul + (1 - alpha) * v_lo.fronthaul,
        edge=alpha * v_hi.edge + (1 - alpha) * v_lo.edge,
        scheme=v_hi.scheme,
        branch="shared",
        sharing=sharing,
    )


def shared_mdsia_ndt(h: int, r: int, mu_r, mu_t, rho) -> NdtValue:
    from .mdsia import mdsia_ndt

    return memory_share(mdsia_ndt, h, r, mu_r, mu_t, rho, "L")


def shared_soft_ndt(h: int, r: int, mu_r, mu_t, rho) -> NdtValue:
    from .soft_transfer import soft_ndt

    return memory_share(soft_ndt, h, r, mu_r, mu_t, rho, "K")


def shared_zf_ndt(h: int, r: int, mu_r, mu_t) -> NdtValue:
    from .zf import zf_ndt

    fn = lambda hh, rr, m, mt, _rho: zf_ndt(hh, rr, m, mt)
    return memory_share(fn, h, r, mu_r, mu_t, None, "ZF")


def shared_scheme_ndt(scheme: str, h: int, r: int, mu_r, mu_t, rho) -> NdtValue:
    if scheme == "mdsia":
        return shared_mdsia_ndt(h, r, mu_r, mu_t, rho)
    if scheme == "soft":
        return shared_soft_ndt(h, r, mu_r, mu_t, rho)
    if scheme == "zf":
        return shared_zf_ndt(h, r, mu_r, mu_t)
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# fronthaul-quality threshold
# ---------------------------------------------------------------------------


def rho_threshold(h: int, r: int, mu_r, mu_t) -> Fraction | None:
    """Fronthaul quality below which cloud-free delivery wins.

    The memory-shared coded-multicast value is affine in 1/rho: B/rho + E
    with B its fronthaul coefficient and E its edge part. The cloud-free
    value Z is rho-independent, so the two cross at B/(Z - E) exactly.

    Returns 0 when B = 0 (the EN share already silences the fronthaul, per
    the clamp), and None when Z <= E with B > 0 (the coded-multicast value
    exceeds Z at every finite rho, so no finite threshold exists).

    Raises
    ------
    RegionViolation
        If (mu_r, mu_t) lies outside the cloud-free region mu_r + mu_t >= 1.
    """
    mu_r = as_fraction(mu_r)
    mu_t = as_fraction(mu_t)
    if mu_r + mu_t < 1:
        raise RegionViolation("threshold defined on the cloud-free region only")
    at_unit_rho = shared_mdsia_ndt(h, r, mu_r, mu_t, Fraction(1))
    b, e = at_unit_rho.fronthaul, at_unit_rho.edge
    if b == 0:
        return Fraction(0)
    z = shared_zf_ndt(h, r, mu_r, mu_t).total
    if z <= e:
        return None
    return b / (z - e)


# ---------------------------------------------------------------------------
# grid comparison and convexity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    """All applicable scheme values at one grid point, plus the argmin."""

    h: int
    r: int
    mu_r: Fraction
    mu_t: Fraction
    rho: Fraction
    values: dict[str, NdtValue | None]
    argmin: str


def argmin_key(scheme: str, value: NdtValue):
    # ties: prefer a value that used no fronthaul, then a scheme that never
    # uses fronthaul by construction, then lexicographic ids
    return (value.total, value.fronthaul != 0, scheme not in FRONTHAUL_FREE, scheme)


def compare_schemes(grid) -> list[ComparisonRow]:
    """Evaluate every scheme at every (h, r, mu_r, mu_t, rho) grid point.

    Inapplicable regimes become None entries rather than failures. The
    argmin is deterministic: smallest total, ties broken toward values that
    used no fronthaul, then toward structurally fronthaul-free schemes, then
    lexicographically.
    """
    rows = []
    for h, r, mu_r, mu_t, rho in grid:
        mu_r, mu_t, rho = as_fraction(mu_r), as_fraction(mu_t), as_fraction(rho)
        values: dict[str, NdtValue | None] = {}
        for scheme in SCHEMES:
            try:
                values[scheme] = shared_scheme_ndt(scheme, h, r, mu_r, mu_t, rho)
            except (RegionViolation, UnsupportedRegime):
                values[scheme] = None
        applicable = {s: v for s, v in values.items() if v is not None}
        best = min(applicable, key=lambda s: argmin_key(s, applicable[s]))
        rows.append(
            ComparisonRow(h=h, r=r, mu_r=mu_r, mu_t=mu_t, rho=rho, values=values, argmin=best)
        )
    return rows


@dataclass(frozen=True)
class ConvexityReport:
    """Midpoint-convexity verdict for a scheme's shared curve on a grid."""

    scheme: str
    ok: bool
    checked_pairs: int
    violations: tuple[tuple[Fraction, Fraction], ...]
    skipped_pairs: tuple[tuple[Fraction, Fraction], ...]


def convexity_check(scheme: str, mu_t, rho, mu_r_grid, *, h: int, r: int) -> ConvexityReport:
    """Verify delta((a+b)/2) <= (delta(a)+delta(b))/2 for every grid pair.

    All arithmetic is exact; pairs whose endpoints or midpoint fall outside
    the scheme's region are reported as skipped, not violated.
    """
    pts = sorted(as_fraction(m) for m in mu_r_grid)
    violations = []
    skipped = []
    checked = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i], pts[j]
            mid = (a + b) / 2
            try:
                fa = shared_scheme_ndt(scheme, h, r, a, mu_t, rho).total
                fb = shared_scheme_ndt(scheme, h, r, b, mu_t, rho).total
                fm = shared_scheme_ndt(scheme, h, r, mid, mu_t, rho).total
            except (RegionViolation, UnsupportedRegime):
                skipped.append((a, b))
                continue
            checked += 1
            if fm > (fa + fb) / 2:
                violations.append((a, b))
    return ConvexityReport(
        scheme=scheme,
        ok=not violations,
        checked_pairs=checked,
        violations=tuple(violations),
        skipped_pairs=tuple(skipped),
    )
