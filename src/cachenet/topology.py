"""Combination-network connectivity.

A combination network has ``h`` edge nodes (ENs) and one receiver (UE) for
every r-subset of them: UE ``j`` attaches to the j-th r-subset of
``{1, ..., h}`` in lexicographic order (so UE 1 always attaches to
``{1, ..., r}``). Everything downstream — cache placement, multicast
grouping, zero-forcing sets — is driven by this incidence structure and by
the rank of a UE inside an EN's served list.

All indices on the public surface are 1-based.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .combinatorics import lex_ranks
from .errors import DemandLengthMismatch, InvalidConnectivity, NonDistinctDemand, OutOfRange

MAX_UES = 10**6


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable H x K incidence structure of a combination network.

    Attributes
    ----------
    num_ens : int
        Number of edge nodes (H >= 2).
    connectivity : int
        Number of ENs each UE attaches to (1 <= r < H).
    num_ues : int
        Number of receivers, C(H, r).
    ues_per_en : int
        Number of receivers each EN serves, C(H-1, r-1).
    ue_to_ens : tuple[tuple[int, ...], ...]
        ``ue_to_ens[k-1]`` is the ascending r-subset of ENs serving UE k.
    en_to_ues : tuple[tuple[int, ...], ...]
        ``en_to_ues[i-1]`` is the ascending list of UEs served by EN i.
    """

    num_ens: int
    connectivity: int
    num_ues: int
    ues_per_en: int
    ue_to_ens: tuple[tuple[int, ...], ...]
    en_to_ues: tuple[tuple[int, ...], ...]

    # short aliases for math-dense call sites
    @property
    def h(self) -> int:
        return self.num_ens

    @property
    def r(self) -> int:
        return self.connectivity

    @property
    def k(self) -> int:
        return self.num_ues

    @property
    def l(self) -> int:
        return self.ues_per_en

    def ens_of_ue(self, ue: int) -> tuple[int, ...]:
        """Ascending EN subset serving UE ``ue`` (1-based)."""
        if not 1 <= ue <= self.num_ues:
            raise OutOfRange(f"UE index {ue} outside 1..{self.num_ues}")
        return self.ue_to_ens[ue - 1]

    def ues_of_en(self, en: int) -> tuple[int, ...]:
        """Ascending list of UEs served by EN ``en`` (1-based)."""
        if not 1 <= en <= self.num_ens:
            raise OutOfRange(f"EN index {en} outside 1..{self.num_ens}")
        return self.en_to_ues[en - 1]

    def ue_of_en_subset(self, ens: tuple[int, ...]) -> int | None:
        """The UE attached to exactly this EN subset, or None."""
        members = [en in ens for en in range(1, self.num_ens + 1)]
        if len(ens) != self.connectivity or sum(members) != len(ens):
            return None
        return int(lex_ranks(members, True)) + 1


def build_topology(h: int, r: int) -> NetworkTopology:
    """Construct the combination network with ``h`` ENs and connectivity ``r``.

    UE numbering follows lexicographic r-subset order; the two incidence maps
    are mutually consistent by construction.

    Raises
    ------
    InvalidConnectivity
        If ``r`` is outside ``1 <= r < h`` or the network would exceed
        ``MAX_UES`` receivers.
    """
    if not isinstance(h, int) or not isinstance(r, int):
        raise InvalidConnectivity("h and r must be integers")
    if r < 1 or r >= h:
        raise InvalidConnectivity(f"need 1 <= r < h, got h={h}, r={r}")
    if comb(h, r) > MAX_UES:
        raise InvalidConnectivity(f"C({h},{r}) receivers exceed the {MAX_UES} limit")

    ue_to_ens = tuple(combinations(range(1, h + 1), r))
    en_to_ues = tuple(
        tuple(k for k, ens in enumerate(ue_to_ens, start=1) if i in ens)
        for i in range(1, h + 1)
    )
    return NetworkTopology(
        num_ens=h,
        connectivity=r,
        num_ues=comb(h, r),
        ues_per_en=comb(h - 1, r - 1),
        ue_to_ens=ue_to_ens,
        en_to_ues=en_to_ues,
    )


def index(t: NetworkTopology, i: int, k: int) -> int | None:
    """1-based rank of UE ``k`` within EN ``i``'s ascending served list.

    Returns None when EN ``i`` does not serve UE ``k``. This rank is what
    placement subsets and multicast groups are keyed on.

    Raises
    ------
    OutOfRange
        If ``i`` or ``k`` lies outside the network's index ranges.
    """
    if not 1 <= i <= t.num_ens:
        raise OutOfRange(f"EN index {i} outside 1..{t.num_ens}")
    if not 1 <= k <= t.num_ues:
        raise OutOfRange(f"UE index {k} outside 1..{t.num_ues}")
    if i not in t.ue_to_ens[k - 1]:
        return None
    return t.en_to_ues[i - 1].index(k) + 1


def validate_demand(demand, t: NetworkTopology, n_files: int, warn_repeats: bool = True) -> list[int]:
    """One requested file id in 1..n_files per UE; repeats only warn."""
    demand = list(demand)
    if len(demand) != t.k:
        raise DemandLengthMismatch(f"demand length {len(demand)} != {t.k} UEs")
    for d in demand:
        if not 1 <= d <= n_files:
            raise OutOfRange(f"file id {d} outside 1..{n_files}")
    if warn_repeats and len(set(demand)) != len(demand):
        warnings.warn(
            "demand entries repeat; worst-case delivery-time guarantee void",
            NonDistinctDemand,
            stacklevel=3,
        )
    return demand


def adjacency_lines(t: NetworkTopology) -> list[str]:
    """Human-readable adjacency listing (used by the CLI)."""
    lines = [
        f"network: {t.num_ens} ENs x {t.num_ues} UEs, connectivity {t.connectivity}, "
        f"{t.ues_per_en} UEs per EN"
    ]
    for k in range(1, t.num_ues + 1):
        ens = ",".join(str(i) for i in t.ens_of_ue(k))
        lines.append(f"UE {k}: ENs {{{ens}}}")
    for i in range(1, t.num_ens + 1):
        ues = ",".join(str(k) for k in t.ues_of_en(i))
        lines.append(f"EN {i}: UEs {{{ues}}}")
    return lines
