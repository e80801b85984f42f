"""Erasure-coded placement with aligned-interference delivery.

Each file is MDS-coded into ``h`` chunks (one per EN). A chunk is cut into
equal pieces labeled by t-subsets of the EN's serving ranks; a UE caches the
pieces whose subset contains its own rank at that EN. Delivery then sends,
per EN, one XOR multicast for every (t+1)-subset of ranks; every addressee
can peel the XOR down to its missing piece using cached pieces only.

Because ENs transmit over a shared partially connected channel, multicasts
that are useless to a UE interfere at it. The row builder here groups all
multicast messages so that the messages interfering at any one receiver
collapse into the minimum number of shared transmit directions, and the
certifier checks those groupings structurally (counts, partitions, and
separation of desired rows from interfering rows). Bit-level decodability is
verified separately by XOR-peeling actual payloads and comparing the decoded
files against the library.

When the ENs also hold a cache share, every chunk splits into an EN-resident
prefix and a cloud-resident suffix; the cloud part travels over the
fronthaul (shrinking as the EN share grows) and the EN part is multicast
locally with the same combinatorial structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple

from .combinatorics import level, smallest_file_bits, subset_rank
from .errors import (
    IndivisibleFileSize,
    InterferenceLeak,
    OutOfRange,
    PeelFailure,
    ReconstructionMismatch,
    UnsupportedRegime,
)
from .mdscode import CodedChunk, Library, mds_decode, mds_encode, xor_bytes
from .ndt import NdtValue, as_fraction
from .topology import NetworkTopology, index, validate_demand
from .verdict import RecoveryVerdict

# ---------------------------------------------------------------------------
# labels and state
# ---------------------------------------------------------------------------

#: delivery-path tags for the EN-share split of a chunk
EN_PART = "en"
CLOUD_PART = "cloud"


@dataclass(frozen=True, order=True)
class PieceLabel:
    """Identifies one piece: (file, coded chunk, rank subset, optional part).

    ``part`` is None when the chunk is not split (EN share zero, or large
    enough to hold whole chunks); otherwise ``"en"``/``"cloud"`` name the
    EN-resident prefix and the cloud-resident suffix of the chunk.
    """

    file: int
    chunk: int
    subset: tuple[int, ...]
    part: str | None = None


MessageId = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class MulticastMessage:
    """XOR of the pieces addressed to one (t+1)-subset of an EN's ranks."""

    en: int
    subset: tuple[int, ...]
    payload: bytes = field(repr=False)
    members: tuple[tuple[int, PieceLabel], ...] = ()

    @property
    def id(self) -> MessageId:
        return (self.en, self.subset)


@dataclass(frozen=True)
class PlacementState:
    """Cache contents of every node plus the piece store geometry."""

    topology: NetworkTopology
    library: Library
    t_e: int
    mu_r: Fraction
    mu_t: Fraction
    en_part_bits: int
    cloud_part_bits: int
    ue_caches: dict[int, frozenset[PieceLabel]]
    en_caches: dict[int, frozenset[PieceLabel]]
    _chunks: dict[tuple[int, int], bytes] = field(repr=False)

    @property
    def rank_subsets(self) -> list[tuple[int, ...]]:
        return list(combinations(range(1, self.topology.l + 1), self.t_e))

    def parts(self) -> list[tuple[str | None, str, int]]:
        """Active chunk parts as (label tag, delivery path, bits).

        The EN-resident part always precedes the cloud part so that
        concatenating the parts reproduces the chunk layout.
        """
        chunk_bits = self.en_part_bits + self.cloud_part_bits
        if self.cloud_part_bits == 0:
            return [(None, "local", chunk_bits)]
        if self.en_part_bits == 0:
            return [(None, "cloud", chunk_bits)]
        return [(EN_PART, "local", self.en_part_bits), (CLOUD_PART, "cloud", self.cloud_part_bits)]

    def piece_bits(self, part: str | None) -> int:
        n_subsets = comb(self.topology.l, self.t_e)
        if part == EN_PART:
            return self.en_part_bits // n_subsets
        if part == CLOUD_PART:
            return self.cloud_part_bits // n_subsets
        return (self.en_part_bits + self.cloud_part_bits) // n_subsets

    def chunk_payload(self, file: int, chunk: int) -> bytes:
        return self._chunks[(file, chunk)]

    def piece_payload(self, label: PieceLabel) -> bytes:
        chunk = self.chunk_payload(label.file, label.chunk)
        if label.part == EN_PART:
            seg = chunk[: self.en_part_bits // 8]
        elif label.part == CLOUD_PART:
            seg = chunk[self.en_part_bits // 8:]
        else:
            seg = chunk
        size = self.piece_bits(label.part) // 8
        rank = subset_rank(label.subset, range(1, self.topology.l + 1))
        return seg[rank * size:(rank + 1) * size]

    def ue_cache_bits(self, ue: int) -> int:
        return sum(self.piece_bits(lb.part) for lb in self.ue_caches[ue])

    def en_cache_bits(self, en: int) -> int:
        return sum(self.piece_bits(lb.part) for lb in self.en_caches[en])


def minimal_file_bits(t: NetworkTopology, t_e: int, mu_t) -> int:
    """Smallest file size (bits) for which every piece is a whole byte.

    Every file size that slices into whole-byte pieces is a multiple of it.
    """
    chunk = Fraction(1, t.r)
    en_share = min(as_fraction(mu_t), chunk)
    piece_unit = 8 * comb(t.l, t_e)
    return smallest_file_bits((chunk, 8), (en_share, piece_unit), (chunk - en_share, piece_unit))


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


def mdsia_place(lib: Library, t: NetworkTopology, mu_r, mu_t) -> PlacementState:
    """Cache coded pieces at the UEs (and chunk prefixes at the ENs).

    UE ``k`` caches, for every file and every serving EN ``i``, the pieces of
    chunk ``i`` whose rank subset contains its serving rank at ``i``; the
    per-UE cache then fills exactly ``mu_r * N * F`` bits. Each EN caches the
    leading ``min(mu_t, 1/r) * F`` bits of its own chunk of every file.

    Raises
    ------
    NonIntegralCacheParameter
        If ``mu_r * L`` is not an integer (use memory sharing instead).
    IndivisibleFileSize
        If the file size does not slice into whole-byte pieces.
    """
    mu_r = as_fraction(mu_r)
    mu_t = as_fraction(mu_t)
    t_e = level("L", t.h, t.r, mu_r, mu_t)

    f_bits = lib.file_size_bits
    unit = minimal_file_bits(t, t_e, mu_t)
    if f_bits % unit:
        raise IndivisibleFileSize(
            f"file size {f_bits} bits does not slice into whole-byte pieces (need a multiple of {unit})"
        )
    en_bits = int(min(mu_t, Fraction(1, t.r)) * f_bits)
    cloud_bits = f_bits // t.r - en_bits

    chunks: dict[tuple[int, int], bytes] = {}
    for n in range(1, lib.n_files + 1):
        for c in mds_encode(lib.file(n), t.h, t.r, file_id=n):
            chunks[(n, c.chunk_id)] = c.payload

    part_tags = [EN_PART, CLOUD_PART] if en_bits and cloud_bits else [None]
    subsets = list(combinations(range(1, t.l + 1), t_e))

    ue_caches: dict[int, frozenset[PieceLabel]] = {}
    for k in range(1, t.k + 1):
        labels = []
        for i in t.ens_of_ue(k):
            rank = index(t, i, k)
            for subset in subsets:
                if rank not in subset:
                    continue
                for n in range(1, lib.n_files + 1):
                    for tag in part_tags:
                        labels.append(PieceLabel(n, i, subset, tag))
        ue_caches[k] = frozenset(labels)

    en_caches: dict[int, frozenset[PieceLabel]] = {}
    for i in range(1, t.h + 1):
        if en_bits == 0:
            en_caches[i] = frozenset()
            continue
        tag = EN_PART if cloud_bits else None
        en_caches[i] = frozenset(
            PieceLabel(n, i, subset, tag)
            for n in range(1, lib.n_files + 1)
            for subset in subsets
        )

    return PlacementState(
        topology=t,
        library=lib,
        t_e=t_e,
        mu_r=mu_r,
        mu_t=mu_t,
        en_part_bits=en_bits,
        cloud_part_bits=cloud_bits,
        ue_caches=ue_caches,
        en_caches=en_caches,
        _chunks=chunks,
    )


# ---------------------------------------------------------------------------
# multicast generation
# ---------------------------------------------------------------------------


def _multicast(demand, placement: PlacementState, t: NetworkTopology, path: str) -> list[MulticastMessage]:
    demand = validate_demand(demand, t, placement.library.n_files)
    spec = next((s for s in placement.parts() if s[1] == path), None)
    if spec is None:
        return []
    tag, _, _ = spec
    t_e = placement.t_e
    messages = []
    for i in range(1, t.h + 1):
        served = t.ues_of_en(i)
        rank_of = {index(t, i, k): k for k in served}
        for s in combinations(range(1, t.l + 1), t_e + 1):
            members = []
            payload = bytes(placement.piece_bits(tag) // 8)
            for rank in s:
                k = rank_of[rank]
                label = PieceLabel(demand[k - 1], i, tuple(x for x in s if x != rank), tag)
                members.append((k, label))
                payload = xor_bytes(payload, placement.piece_payload(label))
            messages.append(
                MulticastMessage(en=i, subset=s, payload=payload, members=tuple(members))
            )
    return messages


def mdsia_fronthaul(demand, placement: PlacementState, t: NetworkTopology) -> list[MulticastMessage]:
    """Cloud-side XOR multicasts, one per EN per (t+1)-subset of ranks.

    Empty when the EN share covers whole chunks (no cloud part) or when
    everything is cached (t = L). Repeated demand entries only warn.
    """
    return _multicast(demand, placement, t, "cloud")


def mdsia_local_multicast(demand, placement: PlacementState, t: NetworkTopology) -> list[MulticastMessage]:
    """EN-side XOR multicasts over the EN-resident chunk parts (empty when
    the ENs cache nothing)."""
    return _multicast(demand, placement, t, "local")


# ---------------------------------------------------------------------------
# interference matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterferenceMatrix:
    """Per-UE table of the multicasts it hears but cannot use.

    Column ``q`` lists, ascending, the messages of the UE's q-th serving EN
    whose rank subset misses the UE's rank there.
    """

    ue: int
    columns: tuple[tuple[MessageId, ...], ...]

    @property
    def i_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def rows(self) -> tuple[tuple[MessageId, ...], ...]:
        return tuple(zip(*self.columns)) if self.columns and self.columns[0] else ()


def build_interference_matrices(
    t: NetworkTopology, messages: list[MulticastMessage]
) -> dict[int, InterferenceMatrix]:
    """Interference matrix for every UE, from a complete message set."""
    by_en: dict[int, list[tuple[int, ...]]] = {}
    for msg in messages:
        by_en.setdefault(msg.en, []).append(msg.subset)
    for subsets in by_en.values():
        subsets.sort()

    mats = {}
    for k in range(1, t.k + 1):
        cols = []
        for i in t.ens_of_ue(k):
            rank = index(t, i, k)
            cols.append(tuple((i, s) for s in by_en.get(i, ()) if rank not in s))
        mats[k] = InterferenceMatrix(ue=k, columns=tuple(cols))
    return mats


# ---------------------------------------------------------------------------
# transmit-direction grouping (rows of the alignment plan)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentRow:
    """One shared transmit direction: its messages, owners, and coefficients.

    ``b`` lists the messages sent along this direction; ``c`` lists the UEs
    at which some r-subset of ``b`` (one message per serving EN) collapses
    into a single receive dimension; ``a`` lists, for each owner in order,
    the channel-coefficient identifiers (ue, en) that parameterize the
    direction.
    """

    g: int
    b: tuple[MessageId, ...]
    c: tuple[int, ...]
    a: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class AlignmentPlan:
    """All transmit-direction rows produced by the greedy sweep."""

    rows: tuple[AlignmentRow, ...]

    @property
    def g_rows(self) -> int:
        return len(self.rows)

    def row_of_message(self) -> dict[MessageId, int]:
        return {m: row.g for row in self.rows for m in row.b}


def plan_alignment(t: NetworkTopology, mats: dict[int, InterferenceMatrix]) -> AlignmentPlan:
    """Group every multicast message into exactly one transmit-direction row.

    Greedy sweep over UEs in ascending order: take the topmost unconsumed
    entry of each of the UE's columns as the row seed, then extend the row so
    that every third-party UE hearing a seed entry also gets its pair: the
    two seed hearers' lists are paired by ascending rank, and each pair
    contributes the first unconsumed message common to both UEs' other
    columns. Emitted rows remove their messages everywhere.

    Supported for connectivity 2 at any cache level, and for any connectivity
    when at most two ranks per EN are uncached (no extension step needed).

    Raises
    ------
    UnsupportedRegime
        Outside the constructive region above.
    """
    i_rows = max((m.i_rows for m in mats.values()), default=0)
    if i_rows == 0:
        return AlignmentPlan(rows=())

    some_entry = next(m for mat in mats.values() for col in mat.columns for m in col)
    s_size = len(some_entry[1])
    t_e = s_size - 1
    if t.r != 2 and t_e < t.l - 2:
        raise UnsupportedRegime(
            f"no row construction for connectivity {t.r} below t = L-2"
        )

    hearers: dict[MessageId, list[int]] = {}
    for k in range(1, t.k + 1):
        for col in mats[k].columns:
            for m in col:
                hearers.setdefault(m, []).append(k)
    for lst in hearers.values():
        lst.sort()

    consumed: set[MessageId] = set()
    rows: list[AlignmentRow] = []
    ext_count = t.l - s_size - 1

    for k in range(1, t.k + 1):
        while True:
            current = [[m for m in col if m not in consumed] for col in mats[k].columns]
            if all(not col for col in current):
                break
            assert all(col for col in current), (
                f"columns of UE {k} consumed unevenly; grouping broke down"
            )
            b: list[MessageId] = [col[0] for col in current]

            if ext_count > 0:
                e1, e2 = b[0], b[1]
                j1 = [u for u in hearers[e1] if u != k]
                j2 = [u for u in hearers[e2] if u != k]
                assert len(j1) == len(j2) == ext_count
                for u1, u2 in zip(j1, j2):
                    cand1 = _other_column_entries(t, mats, u1, e1, consumed, b)
                    cand2 = set(_other_column_entries(t, mats, u2, e2, consumed, b))
                    match = next((m for m in cand1 if m in cand2), None)
                    assert match is not None, (
                        f"no shared extension entry for UEs {u1},{u2}"
                    )
                    b.append(match)

            owners = _row_owners(t, b)
            a = tuple(
                (c, en) for c in owners for en in t.ens_of_ue(c)
            )
            rows.append(AlignmentRow(g=len(rows) + 1, b=tuple(b), c=owners, a=a))
            consumed.update(b)

    return AlignmentPlan(rows=tuple(rows))


def _other_column_entries(
    t: NetworkTopology,
    mats: dict[int, InterferenceMatrix],
    ue: int,
    heard: MessageId,
    consumed: set[MessageId],
    taken: list[MessageId],
) -> list[MessageId]:
    # the ue's interference column for the EN it does NOT hear `heard` through
    ens = t.ens_of_ue(ue)
    assert len(ens) == 2, "extension step only defined for connectivity 2"
    other_q = 1 if ens[0] == heard[0] else 0
    col = mats[ue].columns[other_q]
    return [m for m in col if m not in consumed and m not in taken]


def _row_owners(t: NetworkTopology, b: list[MessageId]) -> tuple[int, ...]:
    owners = []
    for combo in combinations(b, t.r):
        ens = tuple(sorted(m[0] for m in combo))
        if len(set(ens)) != t.r:
            continue
        ue = t.ue_of_en_subset(ens)
        if ue is None:
            continue
        if all(index(t, en, ue) not in s for en, s in combo):
            owners.append(ue)
    owners.sort()
    assert len(owners) == len(set(owners)), "duplicate owner for one row"
    return tuple(owners)


# ---------------------------------------------------------------------------
# structural certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UeAlignmentChecks:
    """Per-UE results of the structural delivery certification."""

    ue: int
    groups_shape_ok: bool
    partition_ok: bool
    group_count: int
    expected_groups: int
    desired_count: int
    expected_desired: int
    desired_count_ok: bool
    interference_rows_distinct: bool
    desired_rows_separate: bool

    @property
    def ok(self) -> bool:
        return (
            self.groups_shape_ok
            and self.partition_ok
            and self.desired_count_ok
            and self.interference_rows_distinct
            and self.desired_rows_separate
        )


@dataclass(frozen=True)
class AlignmentReport:
    """Certification outcome: per-UE checks plus the global partition check."""

    per_ue: dict[int, UeAlignmentChecks]
    b_partition_ok: bool

    @property
    def ok(self) -> bool:
        return self.b_partition_ok and all(c.ok for c in self.per_ue.values())


def certify_alignment(
    plan: AlignmentPlan, t: NetworkTopology, mats: dict[int, InterferenceMatrix]
) -> AlignmentReport:
    """Check the plan's structural delivery guarantees for every UE.

    Per UE: (a) every row owning it aligns exactly one message per serving
    EN; (b) those groups partition all of its interference entries; (c) its
    desired-message count matches r * C(L-1, t); (d) the rows it is aligned
    in are distinct, and every desired message sits in a row different from
    every interfering row heard through the same EN. Globally: rows
    partition the message universe. Failures are recorded in the report,
    never raised.
    """
    i_rows = max((m.i_rows for m in mats.values()), default=0)
    t_e = None
    for m in mats.values():
        for col in m.columns:
            if col:
                t_e = len(col[0][1]) - 1
                break
        if t_e is not None:
            break

    row_of = plan.row_of_message()
    all_ids = {m for mat in mats.values() for col in mat.columns for m in col}
    b_entries = [m for row in plan.rows for m in row.b]
    b_partition_ok = len(b_entries) == len(set(b_entries)) and set(b_entries) == all_ids

    per_ue = {}
    for k in range(1, t.k + 1):
        mat = mats[k]
        col_sets = [set(c) for c in mat.columns]
        entries = set().union(*col_sets) if col_sets else set()

        groups = []
        shape_ok = True
        my_rows = []
        for row in plan.rows:
            if k not in row.c:
                continue
            my_rows.append(row.g)
            group = [m for m in row.b if any(m in cs for cs in col_sets)]
            per_col = [sum(1 for m in group if m in cs) for cs in col_sets]
            if len(group) != t.r or any(c != 1 for c in per_col):
                shape_ok = False
            groups.append(group)

        flat = [m for g in groups for m in g]
        partition_ok = (
            len(flat) == len(set(flat))
            and set(flat) == entries
            and len(groups) == i_rows
        )

        desired = _desired_ids(t, k, t_e) if t_e is not None else []
        expected_desired = t.r * comb(t.l - 1, t_e) if t_e is not None else 0
        desired_rows_separate = True
        if t_e is not None:
            for q, i in enumerate(t.ens_of_ue(k)):
                col_rows = {row_of[m] for m in mat.columns[q] if m in row_of}
                for m in desired:
                    if m[0] != i:
                        continue
                    if m not in row_of or row_of[m] in col_rows:
                        desired_rows_separate = False

        per_ue[k] = UeAlignmentChecks(
            ue=k,
            groups_shape_ok=shape_ok,
            partition_ok=partition_ok,
            group_count=len(groups),
            expected_groups=i_rows,
            desired_count=len(desired),
            expected_desired=expected_desired,
            desired_count_ok=len(desired) == expected_desired,
            interference_rows_distinct=len(my_rows) == len(set(my_rows)),
            desired_rows_separate=desired_rows_separate,
        )
    return AlignmentReport(per_ue=per_ue, b_partition_ok=b_partition_ok)


def _desired_ids(t: NetworkTopology, k: int, t_e: int) -> list[MessageId]:
    out = []
    for i in t.ens_of_ue(k):
        rank = index(t, i, k)
        for s in combinations(range(1, t.l + 1), t_e + 1):
            if rank in s:
                out.append((i, s))
    return out


class MdsiaDelivery(NamedTuple):
    """Both multicast phases of one demand, with their certified alignment plan."""

    cloud: list[MulticastMessage]
    local: list[MulticastMessage]
    mats: dict[int, InterferenceMatrix]
    plan: AlignmentPlan


def mdsia_deliver(demand, placement: PlacementState, t: NetworkTopology) -> MdsiaDelivery:
    """Build both multicast phases, then plan and certify their alignment.

    Raises ``UnsupportedRegime`` as ``plan_alignment`` does (exactly where
    ``mdsia_ndt`` does), and ``InterferenceLeak`` if certification fails.
    """
    cloud = mdsia_fronthaul(demand, placement, t)
    local = mdsia_local_multicast(demand, placement, t)
    mats = build_interference_matrices(t, cloud or local)
    plan = plan_alignment(t, mats)
    report = certify_alignment(plan, t, mats)
    if not report.ok:
        failed = [check for check in report.per_ue.values() if not check.ok]
        partition = "ok" if report.b_partition_ok else "broken"
        raise InterferenceLeak(f"alignment certification failed, row partition {partition}: {failed}")
    return MdsiaDelivery(cloud, local, mats, plan)


# ---------------------------------------------------------------------------
# bit-level decode check
# ---------------------------------------------------------------------------


def mdsia_decode_check(
    demand,
    placement: PlacementState,
    cloud_msgs: list[MulticastMessage],
    local_msgs: list[MulticastMessage],
    t: NetworkTopology,
) -> list[RecoveryVerdict]:
    """Peel every relevant multicast with cached pieces and rebuild each file.

    For each UE and each serving EN, the messages containing the UE's rank
    are XOR-peeled down to the missing pieces; pieces (cached + peeled, all
    parts) reassemble the chunk, and the UE's r chunks decode the file,
    compared bit-exactly against the library.

    Raises
    ------
    PeelFailure
        If a multicast member the UE must cancel is not in its cache.
    ReconstructionMismatch
        If a decoded file differs from the library copy.
    """
    demand = validate_demand(demand, t, placement.library.n_files, warn_repeats=False)
    by_path = {
        "cloud": {m.id: m for m in cloud_msgs},
        "local": {m.id: m for m in local_msgs},
    }
    subsets = placement.rank_subsets
    lib = placement.library

    verdicts = []
    for k in range(1, t.k + 1):
        n = demand[k - 1]
        chunks = []
        for i in t.ens_of_ue(k):
            rank = index(t, i, k)
            part_bytes = []
            for tag, path, _ in placement.parts():
                pieces = {}
                for subset in subsets:
                    label = PieceLabel(n, i, subset, tag)
                    if rank in subset:
                        if label not in placement.ue_caches[k]:
                            raise PeelFailure(f"UE {k} missing cached piece {label}")
                        pieces[subset] = placement.piece_payload(label)
                    else:
                        s = tuple(sorted(subset + (rank,)))
                        msg = by_path[path].get((i, s))
                        if msg is None:
                            raise PeelFailure(f"multicast ({i},{s}) absent on path {path}")
                        pieces[subset] = _peel(msg, k, label, placement)
                part_bytes.append(b"".join(pieces[s] for s in subsets))
            chunks.append(CodedChunk(file_id=n, chunk_id=i, payload=b"".join(part_bytes)))
        rebuilt = mds_decode(chunks)
        if rebuilt != lib.file(n):
            raise ReconstructionMismatch(f"UE {k} rebuilt file {n} incorrectly")
        verdicts.append(RecoveryVerdict(ue=k, file_id=n, ok=True))
    return verdicts


def _peel(msg: MulticastMessage, k: int, own: PieceLabel, placement: PlacementState) -> bytes:
    acc = msg.payload
    seen_own = False
    for member_ue, label in msg.members:
        if member_ue == k:
            assert label == own, "multicast member bookkeeping is inconsistent"
            seen_own = True
            continue
        if label not in placement.ue_caches[k]:
            raise PeelFailure(f"UE {k} cannot cancel {label} (not cached)")
        acc = xor_bytes(acc, placement.piece_payload(label))
    if not seen_own:
        raise PeelFailure(f"UE {k} is not an addressee of multicast {msg.id}")
    return acc


# ---------------------------------------------------------------------------
# delivery-time values
# ---------------------------------------------------------------------------


def mdsia_ndt(h: int, r: int, mu_r, mu_t, rho=None) -> NdtValue:
    """Closed-form delivery time of the erasure-coded aligned scheme.

    Exact rationals throughout: with L = C(h-1, r-1), t = mu_r * L integral,
    the edge part is ((L-t)/r) * ((r-1)/L + 1/(t+1)) and the fronthaul part
    is ((L-t)/r) * (1/(t+1)) * max(0, 1 - mu_t*r)/rho. ``rho`` may be None
    when the EN share makes the fronthaul term vanish.

    Raises
    ------
    NonIntegralCacheParameter
        If ``mu_r * L`` is not an integer.
    UnsupportedRegime
        For connectivity above 2 below t = L-2.
    """
    mu_r = as_fraction(mu_r)
    mu_t = as_fraction(mu_t)
    l = comb(h - 1, r - 1)
    t_e = level("L", h, r, mu_r, mu_t)
    if r != 2 and t_e < l - 2:
        raise UnsupportedRegime(f"connectivity {r} requires t >= L-2, got t={t_e}")

    clamp = max(Fraction(0), 1 - mu_t * r)
    scale = Fraction(l - t_e, r)
    edge = scale * (Fraction(r - 1, l) + Fraction(1, t_e + 1))
    if clamp == 0 or scale == 0:
        fronthaul = Fraction(0)
    else:
        rho = as_fraction(rho)
        if rho <= 0:
            raise OutOfRange("rho must be positive when the fronthaul is used")
        fronthaul = scale * Fraction(1, t_e + 1) * clamp / rho
    branch = "edge-only" if clamp == 0 else ("hybrid" if mu_t > 0 else "cloud-only")
    return NdtValue(
        total=fronthaul + edge, fronthaul=fronthaul, edge=edge,
        scheme="mdsia", branch=branch,
    )


def mdsia_structural_ndt(
    placement: PlacementState,
    cloud_msgs: list[MulticastMessage],
    local_msgs: list[MulticastMessage],
    mats: dict[int, InterferenceMatrix],
    rho=None,
) -> NdtValue:
    """Delivery time counted from the artifacts themselves.

    Fronthaul: the per-EN cloud-message bit load (each EN has its own link)
    over F*rho. Edge: per delivery phase, the number of occupied receive
    dimensions at a UE (desired messages plus interference groups) times the
    phase's message size over F.
    """
    t = placement.topology
    f_bits = placement.library.file_size_bits
    i_rows = max((m.i_rows for m in mats.values()), default=0)

    fronthaul = Fraction(0)
    if cloud_msgs:
        per_en: dict[int, int] = {}
        for m in cloud_msgs:
            per_en[m.en] = per_en.get(m.en, 0) + len(m.payload) * 8
        peak = max(per_en.values())
        assert len(set(per_en.values())) == 1, "uneven fronthaul loads"
        rho = as_fraction(rho)
        fronthaul = Fraction(peak, f_bits) / rho

    edge = Fraction(0)
    for msgs in (local_msgs, cloud_msgs):
        if not msgs:
            continue
        desired = [0] * (t.k + 1)
        for m in msgs:
            for member_ue, _ in m.members:
                desired[member_ue] += 1
        subspaces = max(desired[1:]) + i_rows
        assert len(set(desired[1:])) == 1, "uneven desired counts"
        edge += Fraction(subspaces * len(msgs[0].payload) * 8, f_bits)

    return NdtValue(
        total=fronthaul + edge, fronthaul=fronthaul, edge=edge,
        scheme="mdsia", branch="structural",
    )
