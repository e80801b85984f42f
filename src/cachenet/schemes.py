"""The scheme registry, and everything that evaluates every scheme.

Each delivery scheme is registered once, as a ``Scheme``. ``cachenet run``,
the memory-shared NDTs, grid comparison, the fronthaul-quality threshold
and the convexity audit read the registry; none dispatches on a name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

from .combinatorics import level
from .errors import RegionViolation, UnsupportedRegime
from .mdsia import mdsia_decode_check, mdsia_deliver, mdsia_ndt, mdsia_place, mdsia_structural_ndt
from .mdsia import minimal_file_bits
from .ndt import FRONTHAUL_FREE, NdtValue, argmin_key, as_fraction, at_rho, memory_share
from .soft_transfer import minimal_soft_file_bits, soft_ndt, soft_place, soft_schedule, soft_simulate
from .soft_transfer import soft_structural_ndt
from .topology import build_topology
from .zf import minimal_zf_file_bits, zf_ndt, zf_place, zf_structural_ndt


@dataclass(frozen=True)
class Scheme:
    """One delivery scheme, as ``cachenet run`` and every all-scheme consumer call it."""

    name: str
    normalizer: str  # cache-level map: "L", "K" or "ZF" (combinatorics.level)
    file_bits: Callable  # (h, r, mu_r, mu_t) -> smallest file size in bits
    place: Callable  # (library, topology, mu_r, mu_t) -> placement
    deliver: Callable  # (demand, placement, topology) -> payload-free artifacts
    verify: Callable  # (artifacts, channel, placement, demand) -> one verdict per UE, or raises
    ndt: Callable  # (h, r, mu_r, mu_t, rho=None) -> closed form at an integral level
    structural_ndt: Callable  # (artifacts, placement, rho) -> the NDT counted from the artifacts

    @property
    def fronthaul_free(self) -> bool:
        return self.name in FRONTHAUL_FREE

    def shared_ndt(self, h: int, r: int, mu_r, mu_t, rho=None) -> NdtValue:
        """The NDT at any cache fraction, memory-shared between integral levels."""
        return memory_share(self.ndt, h, r, mu_r, mu_t, rho, self.normalizer)


def _mdsia_file_bits(h: int, r: int, mu_r, mu_t) -> int:
    return minimal_file_bits(build_topology(h, r), level("L", h, r, mu_r, mu_t), mu_t)


#: the registry, in ``--scheme`` choice and sweep-row order
SCHEMES: dict[str, Scheme] = {
    s.name: s
    for s in (
        Scheme(
            "mdsia", "L", file_bits=_mdsia_file_bits, place=mdsia_place, deliver=mdsia_deliver,
            verify=lambda d, ch, pl, demand: mdsia_decode_check(demand, pl, d.cloud, d.local, pl.topology),
            ndt=mdsia_ndt,
            structural_ndt=lambda d, pl, rho: mdsia_structural_ndt(pl, d.cloud, d.local, d.mats, rho),
        ),
        Scheme(
            "soft", "K", file_bits=minimal_soft_file_bits, place=soft_place, deliver=soft_schedule,
            verify=soft_simulate, ndt=soft_ndt, structural_ndt=soft_structural_ndt,
        ),
        Scheme(
            "zf", "ZF", file_bits=minimal_zf_file_bits, place=zf_place, deliver=soft_schedule,
            verify=soft_simulate, ndt=zf_ndt, structural_ndt=zf_structural_ndt,
        ),
    )
}


def shared_scheme_ndt(scheme: str, h: int, r: int, mu_r, mu_t, rho=None) -> NdtValue:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return SCHEMES[scheme].shared_ndt(h, r, mu_r, mu_t, rho)


shared_mdsia_ndt = SCHEMES["mdsia"].shared_ndt
shared_soft_ndt = SCHEMES["soft"].shared_ndt
shared_zf_ndt = SCHEMES["zf"].shared_ndt


# ---------------------------------------------------------------------------
# fronthaul-quality threshold
# ---------------------------------------------------------------------------


def rho_threshold(h: int, r: int, mu_r, mu_t) -> Fraction | None:
    """Fronthaul quality below which cloud-free delivery wins.

    The memory-shared coded-multicast value is B/rho + E, with B and E the
    fronthaul and edge parts of its value at rho = 1 (``ndt.at_rho``). The
    cloud-free value Z is rho-independent, so the two cross at B/(Z - E).

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
    at_unit_rho = shared_mdsia_ndt(h, r, mu_r, mu_t, 1)
    b, e = at_unit_rho.fronthaul, at_unit_rho.edge
    if b == 0:
        return Fraction(0)
    z = shared_zf_ndt(h, r, mu_r, mu_t, 1).total
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


def compare_schemes(grid) -> list[ComparisonRow]:
    """Evaluate every scheme at every (h, r, mu_r, mu_t, rho) grid point.

    Every NDT is affine in 1/rho, so each distinct cache point (h, r, mu_r,
    mu_t) is evaluated once, at rho = 1, and scaled to each of its rows' rho
    (``ndt.at_rho``); the grid may come in any order and repeat points.
    Inapplicable regimes become None entries rather than failures. The
    argmin is deterministic: smallest total, ties broken toward values that
    used no fronthaul, then toward structurally fronthaul-free schemes, then
    lexicographically.
    """
    at_unit_rho: dict[tuple, dict[str, NdtValue | None]] = {}
    rows = []
    for h, r, mu_r, mu_t, rho in grid:
        mu_r, mu_t, rho = as_fraction(mu_r), as_fraction(mu_t), as_fraction(rho)
        point = (h, r, mu_r, mu_t)
        if point not in at_unit_rho:
            at_unit_rho[point] = {name: _unless_outside(s.shared_ndt, *point, 1) for name, s in SCHEMES.items()}
        values = {s: None if v is None else at_rho(v, rho) for s, v in at_unit_rho[point].items()}
        best = min((s for s, v in values.items() if v is not None), key=lambda s: argmin_key(s, values[s]))
        rows.append(ComparisonRow(h=h, r=r, mu_r=mu_r, mu_t=mu_t, rho=rho, values=values, argmin=best))
    return rows


def _unless_outside(shared_ndt, *args) -> NdtValue | None:
    """``shared_ndt(*args)``, or None where the scheme's regime does not cover the point."""
    try:
        return shared_ndt(*args)
    except (RegionViolation, UnsupportedRegime):
        return None


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
    the scheme's region are reported as skipped, not violated. Each grid
    point and each distinct midpoint is evaluated once.
    """
    pts = sorted(as_fraction(m) for m in mu_r_grid)

    @cache  # for this call only
    def total(mu_r) -> Fraction | None:  # None outside the scheme's region
        value = _unless_outside(shared_scheme_ndt, scheme, h, r, mu_r, mu_t, rho)
        return None if value is None else value.total

    violations = []
    skipped = []
    checked = 0
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            fa = total(a)
            fb = None if fa is None else total(b)
            fm = None if fb is None else total((a + b) / 2)
            if fm is None:
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
