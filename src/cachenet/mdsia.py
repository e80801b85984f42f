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

Everything but the payload bytes and the demand depends only on (H, r, t),
so it is compiled once into a cached ``MdsiaGeometry`` of index tables,
and so is the alignment plan. Placement keeps the coded library as one byte
array and answers cache membership from the rule; a path's multicasts (a
lazy ``Multicasts``) and the peel-decode gather their pieces from that array.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import comb
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .combinatorics import LazySequence, frozen_table, lex_ranks, level, smallest_file_bits
from .errors import (
    AlignmentBreakdown,
    IndivisibleFileSize,
    InterferenceLeak,
    LengthError,
    NonCanonicalInterference,
    OutOfRange,
    PeelFailure,
    ReconstructionMismatch,
    UnsupportedRegime,
)
from .mdscode import Library, decoder_rows, generator_rows, gf_matmul
from .ndt import NdtValue, as_fraction, at_rho
from .topology import NetworkTopology, build_topology, validate_demand
from .verdict import RecoveryVerdict

# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

#: delivery-path tags for the EN-share split of a chunk
EN_PART = "en"
CLOUD_PART = "cloud"
#: every part tag, by its integer code in array form
_PART_TAGS = (None, EN_PART, CLOUD_PART)
_PART_CODE = {tag: code for code, tag in enumerate(_PART_TAGS)}


@dataclass(frozen=True, order=True, slots=True)
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


# ---------------------------------------------------------------------------
# the compiled, payload-free geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MdsiaGeometry:
    """Index tables of one (H, r, t): pieces, multicasts and cache masks.

    Ranks run over 1..L at every EN. ``subsets`` (the pieces of a chunk) and
    ``groups`` (the multicasts of an EN) are the t- and (t+1)-subsets of the
    ranks in lexicographic order, so a position is a lexicographic rank.
    Message slot ``(i - 1) * len(groups) + g`` is EN i's multicast to group
    g; its member j is the UE at the group's j-th rank, which caches every
    other member's piece and misses its own, the piece of subset
    ``group - {rank}``. Holds no payload and no demand.
    """

    h: int
    r: int
    l: int
    t: int
    subsets: tuple[tuple[int, ...], ...]
    subset_index: dict = field(repr=False)
    groups: tuple[tuple[int, ...], ...] = field(repr=False)
    message_ids: tuple[MessageId, ...] = field(repr=False)
    # per message slot: its EN; per slot and member: the UE, its piece's
    # subset rank, and the EN's position among the UE's serving ENs
    slot_en: np.ndarray = field(repr=False)
    slot_ue: np.ndarray = field(repr=False)
    slot_piece: np.ndarray = field(repr=False)
    slot_q: np.ndarray = field(repr=False)
    # per UE and serving EN q: the EN, the UE's rank there, and the t-subsets holding that rank
    ue_ens: np.ndarray = field(repr=False)
    # per UE: the GF(2^8) inverse of its serving ENs' generator rows, (K, r, r)
    ue_decoder: np.ndarray = field(repr=False)
    ue_rank: np.ndarray = field(repr=False)
    ue_cached: np.ndarray = field(repr=False)
    # rank_at[UE, EN]: the UE's rank at the EN, 0 if not served there;
    # contains[rank, subset]: the t-subset holds the rank (row 0 is all False);
    # in_group[group, rank]: the same for the (t+1)-subsets
    rank_at: np.ndarray = field(repr=False)
    contains: np.ndarray = field(repr=False)
    in_group: np.ndarray = field(repr=False)
    # per UE and serving EN q: the slots it hears there as interference (the
    # groups missing its rank) and the slots it decodes (those holding it)
    interfering: np.ndarray = field(repr=False)
    desired: np.ndarray = field(repr=False)
    slot_of: dict = field(repr=False)

    @cached_property
    def interference(self) -> Mapping[int, InterferenceMatrix]:
        """Every UE's interference matrix: the message ids of its ``interfering`` slots."""
        ids = self.message_ids.__getitem__
        return MappingProxyType({k: InterferenceMatrix(k, tuple(tuple(map(ids, c)) for c in cols))
                                 for k, cols in enumerate(self.interfering.tolist(), start=1)})


@lru_cache(maxsize=64)
def mdsia_geometry(h: int, r: int, t: int) -> MdsiaGeometry:
    """Compile the pieces, multicasts and cache masks of (H, r, t); cached."""
    top = build_topology(h, r)
    ranks = range(1, top.l + 1)
    subsets = tuple(combinations(ranks, t))
    groups = tuple(combinations(ranks, t + 1))
    contains = np.zeros((top.l + 1, len(subsets)), dtype=bool)
    for pos, s in enumerate(subsets):
        contains[list(s), pos] = True
    served = np.array(top.en_to_ues, dtype=np.int64)  # (H, L): UE at each rank
    ue_ens = np.array(top.ue_to_ens, dtype=np.int64)
    ues = np.arange(1, top.k + 1)[:, None]
    rank_at = np.zeros((top.k + 1, h + 1), dtype=np.int64)
    rank_at[served, np.arange(1, h + 1)[:, None]] = ranks
    q_at = np.zeros((top.k + 1, h + 1), dtype=np.int64)
    q_at[ues, ue_ens] = np.arange(r)
    ue_rank = rank_at[ues, ue_ens]

    members = np.array(groups, dtype=np.int64).reshape(len(groups), t + 1)
    in_group = np.zeros((len(groups), top.l + 1), dtype=bool)
    np.put_along_axis(in_group, members, True, axis=1)
    # member j's piece is its group without the member's own rank
    piece = lex_ranks(in_group[:, None, 1:] & (members[..., None] != np.arange(1, top.l + 1)), True)
    slot_en = np.repeat(np.arange(1, h + 1), len(groups))
    slot_ue = served[slot_en[:, None] - 1, np.tile(members - 1, (h, 1))]
    slot_piece = np.tile(piece, (h, 1))
    # per rank (0-based): the groups missing it, then the groups holding it
    outside = np.nonzero(~in_group[:, 1:].T)[1].reshape(top.l, -1)
    inside = np.nonzero(in_group[:, 1:].T)[1].reshape(top.l, -1)
    en_base = (ue_ens[..., None] - 1) * len(groups)
    message_ids = tuple((i, s) for i in range(1, h + 1) for s in groups)
    return MdsiaGeometry(
        h=h,
        r=r,
        l=top.l,
        t=t,
        subsets=subsets,
        subset_index={s: pos for pos, s in enumerate(subsets)},
        groups=groups,
        message_ids=message_ids,
        slot_en=frozen_table(slot_en),
        slot_ue=frozen_table(slot_ue),
        slot_piece=frozen_table(slot_piece),
        slot_q=frozen_table(q_at[slot_ue, slot_en[:, None]]),
        ue_ens=frozen_table(ue_ens),
        ue_decoder=frozen_table([decoder_rows(ens) for ens in top.ue_to_ens], np.uint8),
        ue_rank=frozen_table(ue_rank),
        ue_cached=frozen_table(contains[ue_rank], bool),
        rank_at=frozen_table(rank_at),
        contains=frozen_table(contains, bool),
        in_group=frozen_table(in_group, bool),
        interfering=frozen_table(en_base + outside[ue_rank - 1]),
        desired=frozen_table(en_base + inside[ue_rank - 1]),
        slot_of={mid: slot for slot, mid in enumerate(message_ids)},
    )


# ---------------------------------------------------------------------------
# placement state: the coded library plus the cache rule
# ---------------------------------------------------------------------------


class PieceSet(Set):
    """The pieces one node caches, as a read-only set decided by the cache rule.

    ``ranks`` maps every EN whose chunk the node holds pieces of to the rank
    each held piece's subset must contain (0: every subset). Membership,
    length and iteration follow from it, file ids 1..n_files and the part
    ``tags``; no label is stored.
    """

    __slots__ = ("_geometry", "_n_files", "_ranks", "tags")

    def __init__(self, geometry: MdsiaGeometry, n_files: int, ranks: dict[int, int], tags: tuple):
        self._geometry = geometry
        self._n_files = n_files
        self._ranks = ranks
        self.tags = tags

    def __contains__(self, label) -> bool:
        if not isinstance(label, PieceLabel) or label.part not in self.tags:
            return False
        rank = self._ranks.get(label.chunk)
        return (
            rank is not None
            and 1 <= label.file <= self._n_files
            and label.subset in self._geometry.subset_index
            and (rank == 0 or rank in label.subset)
        )

    def __len__(self) -> int:
        g = self._geometry
        per_rank = comb(g.l - 1, g.t - 1) if g.t else 0
        held = sum(per_rank if rank else len(g.subsets) for rank in self._ranks.values())
        return held * self._n_files * len(self.tags)

    def __iter__(self):
        for chunk, rank in self._ranks.items():
            for s in self._geometry.subsets:
                if not rank or rank in s:
                    for n in range(1, self._n_files + 1):
                        for tag in self.tags:
                            yield PieceLabel(n, chunk, s, tag)

    def __repr__(self) -> str:
        return f"PieceSet({len(self)} pieces)"

    def first_file(self) -> "PieceSet":
        """The pieces of file 1 alone, which every file-independent cache table lists."""
        return PieceSet(self._geometry, 1, self._ranks, self.tags)


@dataclass(frozen=True)
class PlacementState:
    """Cache contents of every node plus the piece store geometry.

    ``ue_caches``/``en_caches`` are read-only ``PieceSet`` views per node;
    the coded library is one ``(N, H, chunk bytes)`` array.
    """

    topology: NetworkTopology
    library: Library
    t_e: int
    mu_r: Fraction
    mu_t: Fraction
    en_part_bits: int
    cloud_part_bits: int
    ue_caches: Mapping[int, PieceSet]
    en_caches: Mapping[int, PieceSet]
    _coded: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def geometry(self) -> MdsiaGeometry:
        return mdsia_geometry(self.topology.h, self.topology.r, self.t_e)

    @property
    def rank_subsets(self) -> list[tuple[int, ...]]:
        return list(self.geometry.subsets)

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

    def part_start(self, part: str | None) -> int:
        """First byte of a part within its chunk."""
        return self.en_part_bits // 8 if part == CLOUD_PART else 0

    @cached_property
    def _part_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per part code (-1 last): whether the caches hold the part, its piece bytes, its first byte."""
        held = [tag for tag, _, _ in self.parts()]
        return (
            np.array([tag in held for tag in _PART_TAGS] + [False]),
            np.array([self.piece_bits(tag) // 8 for tag in _PART_TAGS] + [0], dtype=np.int64),
            np.array([self.part_start(tag) for tag in _PART_TAGS] + [0], dtype=np.int64),
        )

    def pieces(self, part: str | None) -> np.ndarray:
        """Read-only ``(N, H, C(L, t), piece bytes)`` view of every piece of a part."""
        lib, size = self.library, self.piece_bits(part) // 8
        lo = self.part_start(part)
        n_sub = len(self.geometry.subsets)
        return self._coded[:, :, lo : lo + n_sub * size].reshape(lib.n_files, self.topology.h, n_sub, size)

    def chunk_payload(self, file: int, chunk: int) -> bytes:
        if not (1 <= file <= self.library.n_files and 1 <= chunk <= self.topology.h):
            raise OutOfRange(f"no coded chunk {chunk} of file {file}")
        return self._coded[file - 1, chunk - 1].tobytes()

    def piece_payload(self, label: PieceLabel) -> bytes:
        size = self.piece_bits(label.part) // 8
        if label.subset not in self.geometry.subset_index:
            raise OutOfRange(f"no piece has subset {label.subset}: pieces are {self.t_e}-subsets of the ranks")
        lo = self.part_start(label.part) + self.geometry.subset_index[label.subset] * size
        return self.chunk_payload(label.file, label.chunk)[lo : lo + size]

    def ue_cache_bits(self, ue: int) -> int:
        return self._cache_bits(self.ue_caches[ue])

    def en_cache_bits(self, en: int) -> int:
        return self._cache_bits(self.en_caches[en])

    def _cache_bits(self, cache: PieceSet) -> int:
        per_tag = len(cache) // len(cache.tags) if cache.tags else 0
        return per_tag * sum(self.piece_bits(tag) for tag in cache.tags)


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

    The library is MDS-coded into one byte array; the caches are views that
    apply this rule, so placement builds no labels.

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

    coded = gf_matmul(generator_rows(t.h, t.r), lib.array.reshape(lib.n_files, t.r, -1))
    g = mdsia_geometry(t.h, t.r, t_e)
    tags = (EN_PART, CLOUD_PART) if en_bits and cloud_bits else (None,)
    ue_caches = {
        k: PieceSet(g, lib.n_files, dict(zip(ens, ranks)), tags)
        for k, ens, ranks in zip(range(1, t.k + 1), g.ue_ens.tolist(), g.ue_rank.tolist())
    }
    en_tags = ((EN_PART if cloud_bits else None),) if en_bits else ()
    en_caches = {i: PieceSet(g, lib.n_files, {i: 0}, en_tags) for i in range(1, t.h + 1)}

    return PlacementState(
        topology=t,
        library=lib,
        t_e=t_e,
        mu_r=mu_r,
        mu_t=mu_t,
        en_part_bits=en_bits,
        cloud_part_bits=cloud_bits,
        ue_caches=MappingProxyType(ue_caches),
        en_caches=MappingProxyType(en_caches),
        _coded=frozen_table(coded, np.uint8),
    )


# ---------------------------------------------------------------------------
# multicast generation
# ---------------------------------------------------------------------------


class Multicasts(LazySequence):
    """The XOR multicasts of one delivery path: a lazy sequence over a geometry's message slots.

    Slot s is message ``geometry.message_ids[s]`` with payload ``payloads[s]``;
    its member j is UE ``slot_ue[s, j]`` with the piece (``demand[k - 1]``
    for that UE k, the slot's EN, subset ``slot_piece[s, j]``, ``tag``). The
    decode check, the interference matrices and the structural NDT read these arrays.
    """

    def __init__(self, geometry: MdsiaGeometry, payloads: np.ndarray, demand: np.ndarray, tag: str | None):
        self.geometry, self.payloads, self.demand, self.tag = geometry, payloads, demand, tag

    def __len__(self) -> int:
        return len(self.payloads)

    def _build(self) -> list[MulticastMessage]:
        g, tag, subsets = self.geometry, self.tag, self.geometry.subsets
        files = self.demand[g.slot_ue - 1].tolist()
        slots = zip(g.message_ids, map(bytes, self.payloads), g.slot_ue.tolist(), files, g.slot_piece.tolist())
        return [
            MulticastMessage(i, s, payload, tuple([(k, PieceLabel(n, i, subsets[p], tag)) for k, n, p in zip(*member)]))
            for (i, s), payload, *member in slots
        ]


def _multicast(demand, placement: PlacementState, t: NetworkTopology, path: str) -> Multicasts:
    demand = frozen_table(validate_demand(demand, t, placement.library.n_files))
    spec = next((s for s in placement.parts() if s[1] == path), None)
    g = placement.geometry
    if spec is None or not g.groups:
        return Multicasts(g, np.zeros((0, 0), dtype=np.uint8), demand, None)
    # every member's piece in one gather, XORed over the members of each message
    pieces = placement.pieces(spec[0])[demand[g.slot_ue - 1] - 1, g.slot_en[:, None] - 1, g.slot_piece]
    return Multicasts(g, frozen_table(np.bitwise_xor.reduce(pieces, axis=1), np.uint8), demand, spec[0])


def mdsia_fronthaul(demand, placement: PlacementState, t: NetworkTopology) -> Multicasts:
    """Cloud-side XOR multicasts, one per EN per (t+1)-subset of ranks.

    A lazy ``Multicasts``: one payload array, no label built until read.
    Empty when the EN share covers whole chunks (no cloud part) or when
    everything is cached (t = L). Repeated demand entries only warn.
    """
    return _multicast(demand, placement, t, "cloud")


def mdsia_local_multicast(demand, placement: PlacementState, t: NetworkTopology) -> Multicasts:
    """EN-side XOR multicasts over the EN-resident chunk parts, as a lazy
    ``Multicasts`` like ``mdsia_fronthaul``'s (empty when the ENs cache nothing)."""
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


def build_interference_matrices(t: NetworkTopology,
                                messages: Sequence[MulticastMessage]) -> dict[int, InterferenceMatrix]:
    """Interference matrix for every UE, from a complete message set: the
    geometry's own (``MdsiaGeometry.interference``). Raises
    ``NonCanonicalInterference`` if the messages are not every multicast of one geometry."""
    batch = isinstance(messages, Multicasts)
    g = mdsia_geometry(t.h, t.r, (messages.geometry.t if batch else len(messages[0].subset) - 1) if messages else t.l)
    if len(messages) != len(g.slot_of) or not _slot_columns(messages, g, 0)[1].all():
        where = f"(H, r, t) = ({t.h}, {t.r}, {g.t})"
        raise NonCanonicalInterference(f"{len(messages)} messages are not the {len(g.slot_of)} multicasts of {where}")
    return dict(g.interference)


def _geometry_of(t: NetworkTopology, mats: dict[int, InterferenceMatrix]) -> MdsiaGeometry:
    # the geometry whose canonical matrices ``mats`` are; t = L stands for
    # every level at which no UE hears interference, where they are all alike
    entry = next((m for mat in mats.values() for col in mat.columns for m in col), None)
    level = t.l if entry is None else len(entry[1]) - 1
    canon = mdsia_geometry(t.h, t.r, level).interference if 0 <= level <= t.l else {}
    bad = next((k for k in sorted(canon.keys() | mats.keys()) if mats.get(k) != canon.get(k)), None)
    if bad is not None or not canon:
        where = f"(H, r, t) = ({t.h}, {t.r}, {level})"
        raise NonCanonicalInterference(f"the interference matrix of UE {bad} is not the canonical one of {where}")
    return mdsia_geometry(t.h, t.r, level)


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

    The plan depends on the geometry alone, so this checks that ``mats`` are
    its canonical matrices and returns its cached ``_alignment_plan``.

    Supported for connectivity 2 at any cache level, and for any connectivity
    when at most two ranks per EN are uncached (no extension step needed);
    raises ``UnsupportedRegime`` outside that region, and
    ``NonCanonicalInterference`` if ``mats`` are not one geometry's matrices.
    """
    g = _geometry_of(t, mats)
    if not g.interfering.shape[2]:
        return AlignmentPlan(rows=())
    if t.r != 2 and g.t < t.l - 2:
        raise UnsupportedRegime(f"no row construction for connectivity {t.r} below t = L-2")
    return _alignment_plan(t.h, t.r, g.t)


@lru_cache(maxsize=64)
def _alignment_plan(h: int, r: int, t: int) -> AlignmentPlan:
    """The alignment plan of (H, r, t) at t <= L-2, compiled over message slots; cached.

    Greedy sweep over UEs in ascending order: take the topmost unconsumed
    slot of each of the UE's interference columns as the row seed, then
    extend the row so that every third-party UE hearing a seed slot also
    gets its pair: the two seed slots' other hearers are paired by ascending
    rank, and each pair contributes the first unconsumed slot both UEs hear
    at the EN they share (there are none at t = L-2). A row consumes its
    slots. Its owners are the UEs at which one slot per serving EN of the
    row is interference.

    Raises ``AlignmentBreakdown``, naming the UE, where a row cannot be completed.
    """
    g = mdsia_geometry(h, r, t)
    n_groups, rank_at, ue_ens, in_group = len(g.groups), g.rank_at.tolist(), g.ue_ens.tolist(), g.in_group
    # per slot: the UEs hearing it, ascending (those at the ranks its group misses)
    missing = np.nonzero(~in_group[:, 1:])[1].reshape(n_groups, -1)
    hearers = np.array(build_topology(h, r).en_to_ues)[g.slot_en[:, None] - 1, np.tile(missing, (h, 1))].tolist()
    consumed, rows = bytearray(len(g.message_ids)), []
    shared: dict[tuple[int, int], list] = {}  # per UE pair: [the slots both hear at their shared EN, pointer]
    for k, columns in enumerate(g.interfering.tolist(), start=1):
        heads = [0] * r
        while True:
            for q, col in enumerate(columns):
                while heads[q] < len(col) and consumed[col[heads[q]]]:
                    heads[q] += 1
            b = [col[p] for col, p in zip(columns, heads) if p < len(col)]
            if not b:
                break
            if len(b) < r:
                raise AlignmentBreakdown(f"columns of UE {k} consumed unevenly; grouping broke down")
            for m in b:
                consumed[m] = 1
            for u1, u2 in zip(*([u for u in hearers[e] if u != k] for e in b[:2])):
                pair = shared.get((u1, u2))
                if pair is None:  # u1's other EN, which u2 shares
                    (j,) = set(ue_ens[u1 - 1]) - {b[0] // n_groups + 1}
                    both = ~(in_group[:, rank_at[u1][j]] | in_group[:, rank_at[u2][j]])
                    pair = shared[(u1, u2)] = [(np.flatnonzero(both) + (j - 1) * n_groups).tolist(), 0]
                common = pair[0]
                while pair[1] < len(common) and consumed[common[pair[1]]]:
                    pair[1] += 1
                if pair[1] == len(common):
                    raise AlignmentBreakdown(f"no shared extension entry for UEs {u1},{u2} in a row of UE {k}")
                consumed[common[pair[1]]] = 1
                b.append(common[pair[1]])
            rows.append(b)

    # owners: per row and r-subset of its slots on r distinct ENs, the UE on
    # those ENs, if each of the slots misses its rank there
    slots = np.array(rows, dtype=np.int64)
    combos = np.array(list(combinations(range(slots.shape[1]), r)))
    ens = g.slot_en[slots][:, combos]  # (rows, combos, r)
    on = np.zeros(ens.shape[:2] + (h + 1,), dtype=bool)
    np.put_along_axis(on, ens, True, axis=2)
    distinct = on.sum(axis=2) == r
    ue = np.where(distinct, lex_ranks(on[..., 1:], True) + 1, 0)
    owner = distinct & ~in_group[(slots % n_groups)[:, combos], g.rank_at[ue[..., None], ens]].any(axis=2)
    owners = np.sort(np.where(owner, ue, 0), axis=1)
    twice = np.argwhere((owners[:, 1:] == owners[:, :-1]) & (owners[:, 1:] > 0))
    if len(twice):
        raise AlignmentBreakdown(f"duplicate owner UE {owners[tuple(twice[0])]} for row {twice[0][0] + 1}")
    ids, coefficients = g.message_ids, [()] + [tuple((u, en) for en in serving) for u, serving in enumerate(ue_ens, 1)]
    plan = []
    for n, (b, c) in enumerate(zip(rows, owners.tolist()), start=1):
        c = tuple(filter(None, c))
        plan.append(AlignmentRow(n, tuple(map(ids.__getitem__, b)), c, tuple(chain(*map(coefficients.__getitem__, c)))))
    return AlignmentPlan(rows=tuple(plan))


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
    def failed(self) -> tuple[str, ...]:
        """Names of the checks this UE fails, in certification order."""
        return tuple(name for name in _UE_CHECKS if not getattr(self, name))

    @property
    def ok(self) -> bool:
        return not self.failed


_UE_CHECKS = ("groups_shape_ok", "partition_ok", "desired_count_ok", "interference_rows_distinct",
              "desired_rows_separate")


@dataclass(frozen=True)
class AlignmentReport:
    """Certification outcome: per-UE checks plus the global partition check."""

    per_ue: dict[int, UeAlignmentChecks]
    b_partition_ok: bool

    @property
    def ok(self) -> bool:
        return self.b_partition_ok and all(c.ok for c in self.per_ue.values())


def certify_alignment(plan: AlignmentPlan, t: NetworkTopology, mats: dict[int, InterferenceMatrix]) -> AlignmentReport:
    """Check the plan's structural delivery guarantees for every UE.

    Per UE: (a) every row owning it aligns exactly one message per serving
    EN; (b) those groups partition all of its interference entries; (c) its
    desired-message count matches r * C(L-1, t); (d) the rows it is aligned
    in are distinct, and every desired message sits in a row different from
    every interfering row heard through the same EN. Globally: rows
    partition the message universe. Failures are recorded in the report,
    never raised. The plan is read afresh on every call, as a (row x
    message slot) incidence; ``mats`` must be one geometry's matrices
    (``NonCanonicalInterference`` otherwise).
    """
    g = _geometry_of(t, mats)
    (n_ues, r, i_rows), n_slots, n_rows = g.interfering.shape, len(g.slot_of), max(len(plan.rows), 1)
    desired = r * g.desired.shape[2]
    if not plan.rows:  # no row owns or sends anything: the geometry's sizes decide every check
        checks = (True, not i_rows, 0, i_rows, desired, desired, True, True, not desired)
        return AlignmentReport({k: UeAlignmentChecks(k, *checks) for k in range(1, n_ues + 1)}, not n_slots)
    index = defaultdict(lambda: len(index), g.slot_of)  # an id the geometry lacks: an index past every slot
    e_slot = np.array([index[m] for row in plan.rows for m in row.b], dtype=np.int64)
    b_len = np.array([len(row.b) for row in plan.rows], dtype=np.int64)
    row_g = np.array([row.g for row in plan.rows], dtype=np.int64)
    g_id = np.searchsorted(_distinct(row_g), row_g)  # the rows' g values, renumbered from 0
    c_len = [len(row.c) for row in plan.rows]
    owners = np.fromiter(chain.from_iterable(row.c for row in plan.rows), dtype=np.int64, count=sum(c_len))
    keys = np.repeat(np.arange(len(c_len)), c_len) * (n_ues + 1) + owners
    o_row, o_ue = np.divmod(_distinct(keys[(owners >= 1) & (owners <= n_ues)]), n_ues + 1)

    # every (owned row, UE) pair against each entry of its row: the entries
    # that are interference at the UE (hits), and in which of its columns
    count = b_len[o_row]
    pair = np.repeat(np.arange(len(o_row)), count)
    entry = np.arange(count.sum()) + np.repeat(np.cumsum(b_len)[o_row] - b_len[o_row] - np.cumsum(count) + count, count)
    slot, ue = e_slot[entry], o_ue[pair]
    known = np.flatnonzero(slot < n_slots)
    en = g.slot_en[slot[known]]
    rank = g.rank_at[ue[known], en]
    hears = (rank > 0) & ~g.in_group[slot[known] % len(g.groups), rank]
    hit, en = known[hears], en[hears]
    q = np.argmax(g.ue_ens[ue[hit] - 1] == en[:, None], axis=1)
    per_column = np.bincount(pair[hit] * r + q, minlength=len(o_row) * r).reshape(-1, r)
    def per_ue(values):  # the count of each UE 1..K
        return np.bincount(values, minlength=n_ues + 1)[1:]
    groups, hits = per_ue(o_ue), per_ue(ue[hit])
    shape_ok = per_ue(o_ue[(per_column != 1).any(axis=1)]) == 0
    partition_ok = per_ue(_distinct(ue[hit] * n_slots + slot[hit]) // n_slots) == hits
    partition_ok &= (hits == r * i_rows) & (groups == i_rows)
    distinct = per_ue(_distinct(o_ue * n_rows + g_id[o_row]) // n_rows) == groups

    # the row of each slot (the last one holding it wins, as in a dict), at
    # every UE's interference and desired slots per serving EN
    last = {s: row for s, row in zip(e_slot.tolist(), np.repeat(g_id, b_len).tolist()) if s < n_slots}
    row_of = np.full(n_slots, -1)
    row_of[list(last)] = list(last.values())
    column = np.arange(n_ues * r).reshape(n_ues, r, 1)
    interfering_rows = np.zeros((n_ues * r, n_rows + 1), dtype=bool)
    interfering_rows[column, row_of[g.interfering] + 1] = True
    wanted = row_of[g.desired]
    separate = ~((wanted < 0) | interfering_rows[column, wanted + 1]).reshape(n_ues, -1).any(axis=1)

    checks = zip(*(v.tolist() for v in (shape_ok, partition_ok, groups, distinct, separate)))  # in field order
    by_ue = {k: UeAlignmentChecks(k, *c[:3], i_rows, desired, desired, True, *c[3:]) for k, c in enumerate(checks, 1)}
    return AlignmentReport(by_ue, len(e_slot) == n_slots == len(_distinct(e_slot)) and bool((e_slot < n_slots).all()))


def _distinct(keys: np.ndarray) -> np.ndarray:
    # the distinct keys, ascending: a sort, which here beats numpy's hashing unique
    keys = np.sort(keys)
    return keys[np.append(True, keys[1:] != keys[:-1])[: len(keys)]]


class MdsiaDelivery(NamedTuple):
    """Both multicast phases of one demand (lazy ``Multicasts``), with their certified alignment plan."""

    cloud: Multicasts
    local: Multicasts
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
        first = next((check for check in report.per_ue.values() if not check.ok), None)
        partition = "ok" if report.b_partition_ok else "broken"
        where = f": UE {first.ue} fails {', '.join(first.failed)}" if first else ""
        raise InterferenceLeak(f"alignment certification failed, row partition {partition}{where}")
    return MdsiaDelivery(cloud, local, mats, plan)


# ---------------------------------------------------------------------------
# bit-level decode check
# ---------------------------------------------------------------------------


def mdsia_decode_check(
    demand,
    placement: PlacementState,
    cloud_msgs: Sequence[MulticastMessage],
    local_msgs: Sequence[MulticastMessage],
    t: NetworkTopology,
) -> list[RecoveryVerdict]:
    """Peel every relevant multicast with cached pieces and rebuild each file.

    For each UE and each serving EN, the messages containing the UE's rank
    are XOR-peeled down to the missing pieces; pieces (cached + peeled, all
    parts) reassemble the chunk, and the UE's r chunks decode the file,
    compared bit-exactly against the library.

    The messages are checked as given: every member label is tested against
    the peeling UE's cache rule, and the pieces come from the members'
    own labels (a ``Multicasts`` of the placement's geometry: its arrays).
    Failures are reported as a scan over UEs, serving ENs, parts and
    subsets in order would first meet them.

    Raises
    ------
    PeelFailure
        If a message is missing, does not address the UE by its own piece,
        or has a member the UE must cancel but does not cache.
    LengthError
        If a payload is not one piece long.
    ReconstructionMismatch
        If a decoded file differs from the library copy.
    """
    demand = validate_demand(demand, t, placement.library.n_files, warn_repeats=False)
    g, parts = placement.geometry, placement.parts()
    want = np.asarray(demand, dtype=np.int64)
    # scan positions advance by 2 per (UE, serving EN, part, subset), so that
    # a UE's mismatch (odd) sorts after all its peels and before the next UE
    block = 2 * t.r * len(parts) * len(g.subsets)
    failures, assembled = [], []
    for p, (tag, path, _) in enumerate(parts):
        pieces = placement.pieces(tag)[want[:, None] - 1, g.ue_ens - 1]  # (K, r, subsets, bytes)
        pieces[~g.ue_cached] = 0
        failures.append(_peel_path(cloud_msgs if path == "cloud" else local_msgs, p, path, placement, want, pieces))
        assembled.append(pieces.reshape(t.k, t.r, -1))

    # every UE's file from its r chunks in one product, compared in one pass
    rebuilt = gf_matmul(g.ue_decoder, np.concatenate(assembled, axis=2)).reshape(t.k, -1)
    wrong = np.flatnonzero((rebuilt != placement.library.array[want - 1]).any(axis=1))
    if len(wrong):
        k = int(wrong[0]) + 1
        failures.append((k * block - 1, ReconstructionMismatch(f"UE {k} rebuilt file {want[k - 1]} incorrectly")))
    first = min(filter(None, failures), key=itemgetter(0), default=None)
    if first is not None:
        raise first[1]
    return [RecoveryVerdict(ue=k, file_id=n, ok=True) for k, n in enumerate(demand, start=1)]


#: the UE column of the padding after a message's last member
_NO_MEMBER = np.iinfo(np.int64).min


def _member_row(ue, label, subset_index) -> tuple[int, int, int, int, int]:
    # (UE, file, chunk, subset rank, part code); -1 where the label names nothing
    if not isinstance(label, PieceLabel):
        return (ue, -1, -1, -1, -1)
    return (ue, label.file, label.chunk, subset_index.get(label.subset, -1), _PART_CODE.get(label.part, -1))


def _slot_columns(msgs, g: MdsiaGeometry, size: int):
    """Per message slot of ``g``: its members, whether it is given, its payload length and its payload.

    Members are five columns, (slots, members) or broadcastable to it: UE
    (``_NO_MEMBER`` past the last member), file, chunk, subset rank and
    part code; a payload not ``size`` bytes long reads as zeros. A
    ``Multicasts`` over ``g`` is read from the geometry's slot tables and its
    own arrays, any other list from its labels (-1 where one names nothing;
    of two messages with one id, the last).
    """
    n_slots, ue = len(g.message_ids), g.slot_ue
    if isinstance(msgs, Multicasts) and msgs.geometry is g and len(msgs) == n_slots:
        members = (ue, msgs.demand[ue - 1], g.slot_en[:, None], g.slot_piece, np.full(ue.shape, _PART_CODE[msgs.tag]))
        width = msgs.payloads.shape[1]
        payload = msgs.payloads if width == size else np.zeros((n_slots, size), dtype=np.uint8)
        return members, np.ones(n_slots, dtype=bool), np.full(n_slots, width), payload
    by_id = {m.id: m for m in msgs}
    found = [by_id.get(mid) for mid in g.message_ids]
    rows = [[_member_row(k, lb, g.subset_index) for k, lb in m.members] if m else [] for m in found]
    span, pad = max(map(len, rows), default=0), (_NO_MEMBER, -1, -1, -1, -1)
    table = np.array([row + [pad] * (span - len(row)) for row in rows], dtype=np.int64).reshape(n_slots, span, 5)
    plen = np.array([len(m.payload) if m else size for m in found], dtype=np.int64)
    payload = b"".join(m.payload if m and len(m.payload) == size else bytes(size) for m in found)
    given = np.array([m is not None for m in found], dtype=bool)
    return tuple(table.transpose(2, 0, 1)), given, plen, np.frombuffer(payload, dtype=np.uint8).reshape(n_slots, size)


def _peel_path(msgs, p: int, path: str, placement: PlacementState, want: np.ndarray, pieces: np.ndarray):
    """Peel the messages of one path into ``pieces``; return its first failure.

    Message slot s is peeled by the UEs ``slot_ue[s]``. A peeler skips its
    own members, which must carry exactly the label of its missing piece,
    and XORs out every other member's piece, which it must cache and which
    must be as long as the payload. ``pieces[k - 1, q, s]`` receives what UE
    k peels for subset s at its q-th serving EN. Returns ``(scan position,
    exception)`` of the earliest failing peel, or None.
    """
    g, t = placement.geometry, placement.topology
    if not g.message_ids:
        return None
    tag, size = placement.parts()[p][0], pieces.shape[-1]
    columns, given, plen, payload = _slot_columns(msgs, g, size)
    # arrays run over (member w, slot, peeler j): a member's own columns are (w, slot, 1)
    m_ue, m_file, m_chunk, m_sub, m_part = (np.ascontiguousarray(c.T)[..., None] for c in columns)

    # per member: does its label name a piece of this placement, and where
    held, part_size, part_lo = (per_code[m_part] for per_code in placement._part_tables)
    real = held & (m_file >= 1) & (m_file <= placement.library.n_files) & (m_sub >= 0)
    real &= (m_chunk >= 1) & (m_chunk <= t.h)
    # per (member, slot, peeler): the peeler's own member, which must carry
    # its missing piece's label, or another one it must have cached
    own = m_ue == g.slot_ue
    wrong = (m_chunk != g.slot_en[:, None]) | (m_part != _PART_CODE[tag])
    wrong = wrong | (m_file != want[g.slot_ue - 1]) | (m_sub != g.slot_piece)
    other = (m_ue != _NO_MEMBER) & ~own
    cached = real & g.contains[g.rank_at[g.slot_ue, m_chunk * real], m_sub * real]
    cancels = cached & (part_size == plen[:, None])
    fails = (own & wrong) | (other & ~cancels)

    # peel: the payload XOR every other member's piece, gathered by its own label
    fits = real & (part_size == size)
    lo = (part_lo + m_sub * part_size) * fits
    got = placement._coded[(m_file - 1) * fits, (m_chunk - 1) * fits, lo + np.arange(size)]
    peeled = payload[:, None] ^ np.bitwise_xor.reduce(got[:, :, None] * other[..., None], axis=0)
    pieces[g.slot_ue - 1, g.slot_q, g.slot_piece] = peeled

    failed_member = fails.any(axis=0)
    unaddressed = ~own.any(axis=0)
    bad = failed_member | unaddressed | ~given[:, None] | (plen != size)[:, None]
    if not bad.any():
        return None
    scan = ((g.slot_ue - 1) * t.r + g.slot_q) * len(placement.parts()) + p
    pos = 2 * (scan * len(g.subsets) + g.slot_piece)
    slot, j = np.unravel_index(np.argmin(np.where(bad, pos, pos.max() + 1)), bad.shape)
    k, (i, s) = int(g.slot_ue[slot, j]), g.message_ids[slot]
    if not given[slot]:
        error = PeelFailure(f"multicast ({i},{s}) absent on path {path}")
    elif failed_member[slot, j]:
        w = int(np.argmax(fails[:, slot, j]))
        label = {m.id: m for m in msgs}[i, s].members[w][1]
        if own[w, slot, j]:
            missing = PieceLabel(int(want[k - 1]), i, g.subsets[g.slot_piece[slot, j]], tag)
            error = PeelFailure(f"multicast {(i, s)} addresses UE {k} with {label}, not its missing piece {missing}")
        elif not cached[w, slot, j]:
            error = PeelFailure(f"UE {k} cannot cancel {label} (not cached)")
        else:
            error = LengthError(f"xor of unequal lengths {plen[slot]} != {part_size[w, slot, 0]}")
    elif unaddressed[slot, j]:
        error = PeelFailure(f"UE {k} is not an addressee of multicast {(i, s)}")
    else:
        error = LengthError(f"multicast {(i, s)} carries {plen[slot]} bytes, its pieces {size}")
    return int(pos[slot, j]), error


# ---------------------------------------------------------------------------
# delivery-time values
# ---------------------------------------------------------------------------


def mdsia_ndt(h: int, r: int, mu_r, mu_t, rho=None) -> NdtValue:
    """Closed-form delivery time of the erasure-coded aligned scheme.

    Exact rationals throughout: with L = C(h-1, r-1), t = mu_r * L integral,
    the edge part is ((L-t)/r) * ((r-1)/L + 1/(t+1)) and the fronthaul part
    is ((L-t)/r) * (1/(t+1)) * max(0, 1 - mu_t*r)/rho. ``rho`` may be None
    when the fronthaul term vanishes (``ndt.at_rho``).

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
    fronthaul = scale * Fraction(1, t_e + 1) * clamp  # at rho = 1
    branch = "edge-only" if clamp == 0 else ("hybrid" if mu_t > 0 else "cloud-only")
    return at_rho(NdtValue(fronthaul + edge, fronthaul, edge, scheme="mdsia", branch=branch), rho)


def mdsia_structural_ndt(
    placement: PlacementState,
    cloud_msgs: Sequence[MulticastMessage],
    local_msgs: Sequence[MulticastMessage],
    mats: dict[int, InterferenceMatrix],
    rho=None,
) -> NdtValue:
    """Delivery time counted from the artifacts themselves.

    Fronthaul: the per-EN cloud-message bit load (each EN has its own link)
    over F*rho. Edge: per delivery phase, the number of occupied receive
    dimensions at a UE (desired messages plus interference groups) times the
    phase's message size over F. Both count the geometry's message slots
    the messages fill, as the decode check reads them; ``NonCanonicalInterference``
    if an id repeats or is not the geometry's.
    """
    t, g = placement.topology, placement.geometry
    f_bits = placement.library.file_size_bits
    i_rows = max((m.i_rows for m in mats.values()), default=0)

    fronthaul = edge = Fraction(0)
    for msgs in (cloud_msgs, local_msgs):
        if not msgs:
            continue
        (ues, *_), given, plen, _ = _slot_columns(msgs, g, 0)
        if given.sum() != len(msgs):  # an id repeats or is not the geometry's
            raise NonCanonicalInterference(f"{len(msgs)} messages fill only {given.sum()} multicast slots")
        if msgs is cloud_msgs:
            per_en = np.bincount(g.slot_en[given], weights=plen[given], minlength=t.h + 1)[1:]
            assert (per_en == per_en[0]).all(), "uneven fronthaul loads"
            fronthaul = Fraction(int(per_en[0]) * 8, f_bits)  # at rho = 1
        ues = ues[given]
        desired = np.bincount(ues[(ues >= 1) & (ues <= t.k)], minlength=t.k + 1)[1:]
        assert (desired == desired[0]).all(), "uneven desired counts"
        edge += Fraction(int(desired[0] + i_rows) * int(plen[given][0]) * 8, f_bits)
    return at_rho(NdtValue(fronthaul + edge, fronthaul, edge, scheme="mdsia", branch="structural"), rho)
