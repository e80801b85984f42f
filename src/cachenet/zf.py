"""Cloud-free delivery for networks whose combined caches hold the library.

When mu_r + mu_t >= 1 the EN-resident prefix of each file can be sized so
that, together with a suffix cached whole at every UE, no cloud transfer is
needed at delivery time: the prefix is subfiled over t_R-subsets of UEs and
shipped purely by EN beamforming, reusing the one-shot/chunked scheduling
machinery. The fronthaul component of the delivery time is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .channel import ChannelMatrix
from .combinatorics import level, smallest_file_bits
from .mdscode import Library
from .ndt import NdtValue, as_fraction
from .soft_transfer import (
    PART_LOCAL,
    DeliveryStep,
    SoftPlacement,
    _deliver,
    _verify,
    soft_schedule,
    soft_structural_ndt,
    subfile_placement,
    subfile_unit,
)
from .topology import NetworkTopology
from .verdict import RecoveryVerdict


@dataclass(frozen=True)
class ZfParams:
    """Derived sizing of the cloud-free split."""

    t_r: int
    w1_bits: int  # EN-resident prefix of every file
    w2_bits: int  # suffix cached whole at every UE


@dataclass(frozen=True)
class ZfPlacement:
    """Frozen outcome of the split placement: prefix subfiled, suffix whole."""

    library: Library
    topology: NetworkTopology
    params: ZfParams
    mu_r: Fraction
    mu_t: Fraction
    view: SoftPlacement  # the prefix as a pure-EN-part subset placement

    @property
    def t_r(self) -> int:
        return self.params.t_r

    def w2_payload(self, file: int) -> bytes:
        return self.library.file(file)[self.params.w1_bits // 8 :]

    def ue_cache_bits(self) -> int:
        n = self.library.n_files
        return self.view.ue_cache_bits() + n * self.params.w2_bits

    def en_cache_bits(self) -> int:
        return self.library.n_files * self.params.w1_bits


def minimal_zf_file_bits(h: int, r: int, mu_r, mu_t) -> int:
    """Smallest file size (bits) giving whole-byte prefix subfiles/chunks."""
    mu_r, mu_t = as_fraction(mu_r), as_fraction(mu_t)
    unit = subfile_unit(h, comb(h, r), level("ZF", h, r, mu_r, mu_t))
    return smallest_file_bits((1, 8), (mu_t, unit))


def zf_place(lib: Library, t: NetworkTopology, mu_r, mu_t) -> ZfPlacement:
    """Split every file so delivery never touches the cloud.

    The first mu_t*F bits of each file go to every EN and are subfiled over
    t_R-subsets at the UEs; the remaining (1-mu_t)*F bits are cached whole
    at every UE. UE cache totals come out to mu_r*N*F bits exactly.

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
    # the prefix is a pure-EN-part subset placement at level t_R
    view = subfile_placement(
        lib, t, t_r, Fraction(t_r, t.k), Fraction(1), {PART_LOCAL: mu_t * f_bits}
    )
    w1 = view.part_bits.get(PART_LOCAL, 0)
    placement = ZfPlacement(
        library=lib,
        topology=t,
        params=ZfParams(t_r=t_r, w1_bits=w1, w2_bits=f_bits - w1),
        mu_r=mu_r,
        mu_t=mu_t,
        view=view,
    )
    assert placement.ue_cache_bits() == mu_r * lib.n_files * f_bits
    assert placement.en_cache_bits() == mu_t * lib.n_files * f_bits
    return placement


def zf_simulate(schedule, ch: ChannelMatrix | None, placement: ZfPlacement, demand) -> list[RecoveryVerdict]:
    """``soft_simulate`` on the prefix placement, each UE's cached suffix appended.

    No fronthaul messages exist anywhere on this path.
    """
    loc = _deliver(schedule, ch, placement.view, demand)
    return _verify(loc, placement.view, demand, suffix=placement.w2_payload)


def zf_deliver(
    demand,
    placement: ZfPlacement,
    t: NetworkTopology,
    ch: ChannelMatrix | None,
) -> tuple[list[DeliveryStep], list[RecoveryVerdict]]:
    """Schedule and verify the EN-only delivery of the prefix subfiles."""
    schedule = soft_schedule(demand, placement.view, t)
    return schedule, zf_simulate(schedule, ch, placement, demand)


def zf_ndt(h: int, r: int, mu_r, mu_t, rho=None) -> NdtValue:
    """Closed-form delivery time: mu_t*(K - t_R)/min(H + t_R, K); no fronthaul, so ``rho`` is unused."""
    mu_r, mu_t = as_fraction(mu_r), as_fraction(mu_t)
    t_r = level("ZF", h, r, mu_r, mu_t)
    k = comb(h, r)
    edge = mu_t * Fraction(k - t_r, min(h + t_r, k))
    branch = "degenerate" if mu_t == 0 else ("one-shot" if t_r >= k - h else "chunked")
    return NdtValue(total=edge, fronthaul=Fraction(0), edge=edge, scheme="zf", branch=branch)


def zf_structural_ndt(schedule: list[DeliveryStep], placement: ZfPlacement, rho=None) -> NdtValue:
    """Delivery time re-derived from the scheduled bits; fronthaul must be 0 (``rho`` is unused)."""
    inner = soft_structural_ndt(schedule, placement.view, rho=None)
    assert inner.fronthaul == 0
    return NdtValue(
        total=inner.edge,
        fronthaul=Fraction(0),
        edge=inner.edge,
        scheme="zf",
        branch="structural",
    )
