"""Cloud-free delivery for networks whose combined caches hold the library.

When mu_r + mu_t >= 1 the EN-resident prefix of each file can be sized so
that, together with a suffix cached whole at every UE, no cloud transfer is
needed at delivery time: the prefix is subfiled over t_R-subsets of UEs and
shipped purely by EN beamforming. A zf placement is a ``SoftPlacement``
with one ``local`` part and a whole-cached suffix, so soft's one-shot/chunked
schedule and simulation deliver and verify it. The fronthaul component of
the delivery time is identically zero.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace
from fractions import Fraction
from math import comb

from .channel import ChannelMatrix
from .combinatorics import level, smallest_file_bits
from .mdscode import Library
from .ndt import NdtValue, as_fraction
from .soft_transfer import (
    PART_LOCAL,
    DeliveryStep,
    Schedule,
    SoftPlacement,
    soft_schedule,
    soft_simulate,
    soft_structural_ndt,
    subfile_placement,
    subfile_unit,
)
from .topology import NetworkTopology
from .verdict import RecoveryVerdict


def minimal_zf_file_bits(h: int, r: int, mu_r, mu_t) -> int:
    """Smallest file size (bits) giving whole-byte prefix subfiles/chunks."""
    mu_r, mu_t = as_fraction(mu_r), as_fraction(mu_t)
    unit = subfile_unit(h, comb(h, r), level("ZF", h, r, mu_r, mu_t))
    return smallest_file_bits((1, 8), (mu_t, unit))


def zf_place(lib: Library, t: NetworkTopology, mu_r, mu_t) -> SoftPlacement:
    """Split every file so delivery never touches the cloud.

    The first mu_t*F bits of each file go to every EN and are subfiled over
    t_R-subsets at the UEs (the placement's one ``local`` part, at level
    ``t_u`` = t_R); the remaining (1-mu_t)*F bits are its ``suffix_bits``,
    cached whole at every UE. UE cache totals come out to mu_r*N*F bits
    exactly.

    Raises
    ------
    RegionViolation
        If mu_r + mu_t < 1.
    NonIntegralCacheParameter
        If t_R = (mu_r+mu_t-1)K/mu_t is not an integer.
    IndivisibleFileSize
        If the prefix does not split into whole-byte subfiles (and chunks).
    """
    mu_r, mu_t = as_fraction(mu_r), as_fraction(mu_t)
    t_r = level("ZF", t.h, t.r, mu_r, mu_t)
    f_bits = lib.file_size_bits
    placement = subfile_placement(lib, t, t_r, mu_r, mu_t, {PART_LOCAL: mu_t * f_bits})
    assert placement.ue_cache_bits() == mu_r * lib.n_files * f_bits
    assert placement.en_cache_bits() == mu_t * lib.n_files * f_bits
    return placement


def zf_deliver(
    demand,
    placement: SoftPlacement,
    t: NetworkTopology,
    ch: ChannelMatrix | None,
) -> tuple[Schedule, list[RecoveryVerdict]]:
    """Schedule and verify the EN-only delivery of the prefix subfiles; no fronthaul message exists."""
    schedule = soft_schedule(demand, placement, t)
    return schedule, soft_simulate(schedule, ch, placement, demand)


def zf_ndt(h: int, r: int, mu_r, mu_t, rho=None) -> NdtValue:
    """Closed-form delivery time: mu_t*(K - t_R)/min(H + t_R, K); no fronthaul, so ``rho`` is unused."""
    mu_r, mu_t = as_fraction(mu_r), as_fraction(mu_t)
    t_r = level("ZF", h, r, mu_r, mu_t)
    k = comb(h, r)
    edge = mu_t * Fraction(k - t_r, min(h + t_r, k))
    branch = "degenerate" if mu_t == 0 else ("one-shot" if t_r >= k - h else "chunked")
    return NdtValue(total=edge, fronthaul=Fraction(0), edge=edge, scheme="zf", branch=branch)


def zf_structural_ndt(schedule: Sequence[DeliveryStep], placement: SoftPlacement, rho=None) -> NdtValue:
    """Delivery time re-derived from the scheduled bits; no part rides the fronthaul (``rho`` is unused)."""
    return replace(soft_structural_ndt(schedule, placement), scheme="zf")
