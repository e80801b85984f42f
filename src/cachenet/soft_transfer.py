"""Cloud-assisted zero-forcing delivery with per-UE subset placement.

Files are split into an EN-resident part and a cloud part, each partitioned
into subfiles indexed by t_U-subsets of the UE population; UE k caches every
subfile whose subset contains k. Delivery emulates one H-antenna transmitter:
when t_U >= K - H every missing subfile can be nulled at all non-caching UEs
in one shot (one subfile per requested file per step); otherwise subfiles are
further chunked so each chunk is nulled at H-1 UEs and scheduled only with
chunks leaking onto the same excluded set. The cloud part rides the fronthaul
as quantized transmit symbols, accounted as load only.

Everything but the payload bytes and the part sizes depends only on the
geometry (H, K, t_U), so it is compiled once into a cached
``DeliveryGeometry`` of index tables, its steps and their chunk slots
included as arrays. A ``Schedule`` over those steps builds its steps and
labels on its first read; delivery never reads them, but gathers its
columns from the step arrays, checks coverage and numerics on whole arrays,
and assembles each UE's file with one gather per part of the placement's
byte layout. Any other list of steps is read from its labels and located
by key lookup, then takes the same path.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from math import comb
from operator import attrgetter

import numpy as np

from .channel import (
    DESIRED_COEF_MIN,
    SINGLE_NULL,
    SUM_OF_BASIS,
    ZF_RESIDUAL_TOL,
    ChannelMatrix,
    beamformers_for,
)
from .combinatorics import LazySequence, chunk_count, frozen_table, level, lex_ranks, smallest_file_bits
from .errors import (
    IndivisibleFileSize,
    InterferenceLeak,
    OutOfRange,
    ReconstructionMismatch,
)
from .mdscode import Library
from .ndt import NdtValue, as_fraction, at_rho
from .topology import NetworkTopology, validate_demand
from .verdict import RecoveryVerdict

#: part resident in every EN cache before delivery
PART_LOCAL = "local"
#: part fetched over the fronthaul during delivery
PART_CLOUD = "cloud"
#: file-layout order of the parts (local bits come first)
PART_ORDER = (PART_LOCAL, PART_CLOUD)


@dataclass(frozen=True, slots=True)
class SoftSubfileLabel:
    """A subfile (or chunk) coordinate: file, caching subset, part, null sets.

    ``subset`` lists the UEs caching this subfile. Scheduling annotates
    ``pi`` (UEs where the transmission is nulled) and ``pi_prime`` (UEs that
    would see residual interference and are therefore excluded from the
    step). Placement-level labels leave both as None.
    """

    file: int
    subset: tuple[int, ...]
    part: str
    pi: tuple[int, ...] | None = None
    pi_prime: tuple[int, ...] | None = None

    def base(self) -> "SoftSubfileLabel":
        """The placement-level identity, with delivery annotations dropped."""
        return SoftSubfileLabel(self.file, self.subset, self.part)


@dataclass(frozen=True)
class DeliveryStep:
    """One simultaneous beamformed transmission.

    ``entries`` pairs each served UE with the label it decodes, sorted by UE.
    All entries of an under-provisioned step share ``pi_prime``; fully
    provisioned steps use ``pi_prime = ()``. A ``Schedule`` builds its steps
    on its first read; delivery and the structural NDT do not read them.
    """

    index: int
    case: str  # "one-shot" (t_U >= K-H) or "chunked"
    part: str
    entries: tuple[tuple[int, SoftSubfileLabel], ...]
    pi_prime: tuple[int, ...]


CASE_ONE_SHOT = "one-shot"
CASE_CHUNKED = "chunked"


# ---------------------------------------------------------------------------
# the compiled, payload-free delivery geometry
# ---------------------------------------------------------------------------


def _membership(sets, k: int) -> np.ndarray:
    """(len(sets), K+1) table: entry [i, u] says UE u lies in sets[i]."""
    table = np.zeros((len(sets), k + 1), dtype=bool)
    for i, s in enumerate(sets):
        table[i, list(s)] = True
    return frozen_table(table, bool)


@dataclass(frozen=True)
class DeliveryGeometry:
    """Index tables of one (H, K, t): which pieces exist and how steps group them.

    A *piece* is what one scheduled entry delivers: the chunk of rank
    ``chunk`` of the subfile with subset rank ``subset`` that destination
    ``dest`` misses, nulled at ``pi`` and sent beside the excluded set
    ``pi_prime``. Subsets, null sets and excluded sets are interned tuples
    in lexicographic order, addressed by rank. Bytes ``[0, C(K, t) *
    subfile)`` of a part are ``C(K, t) * chunks`` chunk slots, slot ``subset
    * chunks + chunk``, which ``step_slot`` holds per step entry; ``cached[u
    - 1, slot]`` says UE u holds that slot of every part of every file, and
    must receive it otherwise. ``piece_key`` sorts the pieces by ``(pi *
    len(pi_primes) + pi_prime) * K + dest - 1`` (the two null sets and the
    destination pin the subset, which a lookup checks) and ``piece_entry``
    is each one's position in the raveled step tables. No labels, no bytes.
    """

    h: int
    k: int
    t: int
    chunks: int
    subsets: tuple[tuple[int, ...], ...]
    subset_index: dict = field(repr=False)
    subset_member: np.ndarray = field(repr=False)
    pis: tuple[tuple[int, ...], ...] = field(repr=False)
    pi_index: dict = field(repr=False)
    pi_member: np.ndarray = field(repr=False)
    pi_primes: tuple[tuple[int, ...], ...] = field(repr=False)
    pi_prime_index: dict = field(repr=False)
    # pieces, sorted by key: where each sits in the raveled step tables, its subset rank and chunk rank
    piece_key: np.ndarray = field(repr=False)
    piece_entry: np.ndarray = field(repr=False)
    piece_subset = property(lambda self: self.step_subset.ravel()[self.piece_entry])
    piece_chunk = property(lambda self: self.step_slot.ravel()[self.piece_entry] % self.chunks)
    # the scheduler's steps of one part: per step its excluded-set id, and per
    # (step, position) the UE served, its subset rank, null-set id and chunk slot
    step_pp: np.ndarray = field(repr=False)
    step_ue: np.ndarray = field(repr=False)
    step_subset: np.ndarray = field(repr=False)
    step_pi: np.ndarray = field(repr=False)
    step_slot: np.ndarray = field(repr=False)
    cached: np.ndarray = field(repr=False)

    @property
    def case(self) -> str:
        return CASE_ONE_SHOT if self.t >= self.k - self.h else CASE_CHUNKED

    @property
    def slots(self) -> int:
        return self.cached.shape[1]

    def piece_keys(self, ue, pi_id, pi_prime_id):
        return (pi_id * len(self.pi_primes) + pi_prime_id) * self.k + ue - 1

    def find(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Step-table entry of the piece every key names, and whether the key names a piece at all."""
        if not len(self.piece_key):
            return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
        at = np.minimum(np.searchsorted(self.piece_key, keys), len(self.piece_key) - 1)
        return self.piece_entry[at], self.piece_key[at] == keys


@lru_cache(maxsize=64)
def delivery_geometry(h: int, k: int, t: int) -> DeliveryGeometry:
    """Compile the steps, pieces and cache mask of (H, K, t); cached per geometry.

    Every entry of every step is one piece, so the steps are built first,
    as UE masks, and the piece lookup is their keys sorted. The completeness
    of the steps (every chunk a UE does not cache delivered exactly once)
    and their structural soundness (every bystander of a step either nulls
    or caches each other entry) are asserted here, once per geometry.
    """
    universe = range(1, k + 1)
    subsets = tuple(combinations(universe, t))
    one_shot = t >= k - h
    width = k - 1 - t if one_shot else h - 1  # UEs each piece is nulled at
    pis = tuple(combinations(universe, width)) if t < k else ()
    pi_primes = ((),) if one_shot else tuple(combinations(universe, k - t - h))
    chunks = chunk_count(h, k, t)
    subset_member, pi_member, pp_member = (_membership(sets, k) for sets in (subsets, pis, pi_primes))

    # one template over the m UEs a step serves: step s gives the UE at
    # position j the rank-s t-subset of the other positions; one-shot steps
    # serve all K UEs, chunked ones the H + t outside each excluded set
    m = k if one_shot else h + t
    base = np.array(list(combinations(range(m - 1), t)), dtype=np.int64).reshape(comb(m - 1, t), t)
    template = base[:, None, :] + (base[:, None, :] >= np.arange(m)[:, None])
    served = np.nonzero(~pp_member[:, 1:])[1].reshape(len(pi_primes), m)
    step_pp = np.repeat(np.arange(len(pi_primes)), len(base))
    step_ue = np.repeat(served, len(base), axis=0) + 1
    # per entry, UE masks of the subset caching it and of its destination's
    # other non-caching UEs (the pool); the null set is the pool outside the
    # excluded set, and the chunk is the null set's rank within the pool
    caching = np.zeros(step_ue.shape + (k,), dtype=bool)
    np.put_along_axis(caching, served[:, template].reshape(len(step_ue), m, t), True, axis=-1)
    pool = ~caching
    np.put_along_axis(pool, step_ue[..., None] - 1, False, axis=-1)
    pi = pool & ~pp_member[step_pp, None, 1:]
    step_subset, step_pi, chunk = lex_ranks(caching, True), lex_ranks(pi, True), lex_ranks(pi, pool)
    del caching, pool, pi
    step_slot = step_subset * chunks + chunk

    cached = np.repeat(subset_member[:, 1:].T, chunks, axis=1)
    key = ((step_pi * len(pi_primes) + step_pp[:, None]) * k + step_ue - 1).ravel()
    order = np.argsort(key)
    geometry = DeliveryGeometry(
        h=h,
        k=k,
        t=t,
        chunks=chunks,
        subsets=subsets,
        subset_index={s: r for r, s in enumerate(subsets)},
        subset_member=subset_member,
        pis=pis,
        pi_index={p: i for i, p in enumerate(pis)},
        pi_member=pi_member,
        pi_primes=pi_primes,
        pi_prime_index={p: i for i, p in enumerate(pi_primes)},
        piece_key=frozen_table(key[order]),
        piece_entry=frozen_table(order),
        step_pp=frozen_table(step_pp),
        step_ue=frozen_table(step_ue),
        step_subset=frozen_table(step_subset),
        step_pi=frozen_table(step_pi),
        step_slot=frozen_table(step_slot),
        cached=frozen_table(cached, bool),
    )
    assert np.all(geometry.piece_key[1:] > geometry.piece_key[:-1]), "piece keys must be unique"
    # completeness: the steps hit every chunk slot a UE misses exactly once, and no other
    hits = np.bincount(((step_ue - 1) * cached.shape[1] + step_slot).ravel(), minlength=cached.size)
    assert (hits == ~cached.ravel()).all(), "every missing chunk once"
    # soundness: bystander i of entry j's stream nulls it or caches it
    by = step_ue[:, :, None]
    ok = pi_member[step_pi[:, None, :], by] | subset_member[step_subset[:, None, :], by]
    assert (ok | np.eye(m, dtype=bool)).all(), "a bystander can neither null nor cancel a scheduled stream"
    return geometry


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoftPlacement:
    """Frozen outcome of the split-and-subfile placement phase.

    The parts are subfiled; the bytes of every file past them (``suffix_bits``,
    the cloud-free scheme's suffix) are cached whole at every UE.
    """

    library: Library
    topology: NetworkTopology
    t_u: int
    mu_r: Fraction
    mu_t: Fraction
    part_bits: dict[str, int] = field(compare=False)

    @cached_property
    def parts(self) -> tuple[str, ...]:
        return tuple(p for p in PART_ORDER if self.part_bits.get(p, 0))

    @property
    def n_subfiles(self) -> int:
        return comb(self.topology.k, self.t_u)

    @property
    def case(self) -> str:
        return CASE_ONE_SHOT if self.t_u >= self.topology.k - self.topology.h else CASE_CHUNKED

    @property
    def chunk_count(self) -> int:
        return chunk_count(self.topology.h, self.topology.k, self.t_u)

    @property
    def subfile_bits(self) -> dict[str, int]:
        return {p: bits // self.n_subfiles for p, bits in self.part_bits.items()}

    @cached_property
    def geometry(self) -> DeliveryGeometry:
        """The compiled delivery geometry this placement is subfiled over."""
        t = self.topology
        return delivery_geometry(t.h, t.k, self.t_u)

    @cached_property
    def layout(self) -> tuple[tuple[int, int, int], ...]:
        """Per part, in file-layout order: its first byte, subfile bytes and chunk bytes."""
        layout, first = [], 0
        for p in self.parts:
            layout.append((first, self.subfile_bits[p] // 8, self.chunk_bits(p) // 8))
            first += self.part_bits[p] // 8
        return tuple(layout)

    @property
    def suffix_bits(self) -> int:
        return self.library.file_size_bits - sum(self.part_bits.values())

    def chunk_bits(self, part: str) -> int:
        return self.subfile_bits[part] // self.chunk_count

    def ue_cache_labels(self, ue: int):
        """All subfile labels cached at ``ue``, file-major then subset-lex."""
        k = self.topology.k
        for n in range(1, self.library.n_files + 1):
            for part in self.parts:
                for t_set in combinations(range(1, k + 1), self.t_u):
                    if ue in t_set:
                        yield SoftSubfileLabel(file=n, subset=t_set, part=part)

    def ue_cache_bits(self) -> int:
        holding = comb(self.topology.k - 1, self.t_u - 1) if self.t_u else 0
        per_file = sum(self.subfile_bits[p] * holding for p in self.parts)
        return self.library.n_files * (per_file + self.suffix_bits)

    def en_cache_bits(self) -> int:
        return self.library.n_files * self.part_bits.get(PART_LOCAL, 0)

    def subfile_payload(self, label: SoftSubfileLabel) -> bytes:
        """The exact bytes of one subfile (annotations ignored)."""
        rank, n_files = self.geometry.subset_index.get(label.subset), self.library.n_files
        if rank is None or label.part not in self.parts or not 1 <= label.file <= n_files:
            raise OutOfRange(f"{label} names no subfile: files 1..{n_files}, parts {self.parts}, {self.t_u}-subsets")
        first, size, _ = self.layout[self.parts.index(label.part)]
        return self.library.file(label.file)[first + rank * size : first + (rank + 1) * size]

    def chunk_payload(self, label: SoftSubfileLabel) -> bytes:
        """The exact bytes of one chunk of an under-provisioned delivery, located as a one-entry step."""
        step = DeliveryStep(0, self.case, label.part, ((self.chunk_destination(label), label),), label.pi_prime)
        subfile, size = self.subfile_payload(label), self.layout[self.parts.index(label.part)][2]
        rank = int(_locate([step], self).slot[0]) % self.chunk_count
        return subfile[rank * size : (rank + 1) * size]

    def chunk_destination(self, label: SoftSubfileLabel) -> int:
        """The single UE not covered by subset, pi, or pi_prime."""
        if label.pi is None or label.pi_prime is None:
            raise ReconstructionMismatch(f"{label} has no null sets: it names a subfile, not a chunk")
        rest = set(range(1, self.topology.k + 1)) - set(label.subset) - set(label.pi) - set(label.pi_prime)
        if len(rest) != 1:
            raise ReconstructionMismatch(f"{label}: chunk coordinates must pin a unique destination")
        return rest.pop()


def subfile_unit(h: int, k: int, t_u: int) -> int:
    """Bits a part must be a multiple of: C(K, t_U) subfiles of whole-byte chunks."""
    return 8 * comb(k, t_u) * chunk_count(h, k, t_u)


def minimal_soft_file_bits(h: int, r: int, mu_r, mu_t) -> int:
    """Smallest file size (bits) giving whole-byte subfiles and chunks."""
    mu_r, mu_t = as_fraction(mu_r), as_fraction(mu_t)
    unit = subfile_unit(h, comb(h, r), level("K", h, r, mu_r, mu_t))
    return smallest_file_bits((mu_t, unit), (1 - mu_t, unit))


def subfile_placement(lib: Library, t: NetworkTopology, t_u: int, mu_r, mu_t, part_bits) -> SoftPlacement:
    """Subfile every nonzero part over the t_U-subsets of the UEs.

    ``part_bits`` maps parts, in file-layout order, to their exact sizes in
    bits; each must split into C(K, t_U) subfiles of ``chunk_count``
    whole-byte chunks, or ``IndivisibleFileSize`` is raised. Bits past the
    parts are the placement's ``suffix_bits``.
    """
    n_subfiles, chunks = comb(t.k, t_u), chunk_count(t.h, t.k, t_u)
    unit = subfile_unit(t.h, t.k, t_u)
    part_bits = {p: bits for p, bits in part_bits.items() if bits}
    for part, bits in part_bits.items():
        if bits.denominator != 1 or bits.numerator % unit:
            raise IndivisibleFileSize(
                f"{part} part of {bits} bits does not split into {n_subfiles} subfiles "
                f"of {chunks} whole-byte chunks"
            )
    return SoftPlacement(
        library=lib,
        topology=t,
        t_u=t_u,
        mu_r=mu_r,
        mu_t=mu_t,
        part_bits={p: int(bits) for p, bits in part_bits.items()},
    )


def soft_place(lib: Library, t: NetworkTopology, mu_r, mu_t) -> SoftPlacement:
    """Split every file into EN/cloud parts and subfile both by t_U-subsets.

    Parameters
    ----------
    lib : Library
        Content to place; file size must split evenly (see errors).
    t : NetworkTopology
        Supplies K; the EN side only matters through mu_t here.
    mu_r, mu_t : exact rationals
        UE and EN cache fractions.

    Returns
    -------
    SoftPlacement

    Raises
    ------
    NonIntegralCacheParameter
        If mu_r*K is not an integer.
    IndivisibleFileSize
        If parts or subfiles (or chunks, in the under-provisioned case) do
        not come out as whole bytes.
    OutOfRange
        If either cache fraction leaves [0, 1].
    """
    mu_r, mu_t = as_fraction(mu_r), as_fraction(mu_t)
    t_u = level("K", t.h, t.r, mu_r, mu_t)
    local = mu_t * lib.file_size_bits
    parts = {PART_LOCAL: local, PART_CLOUD: lib.file_size_bits - local}
    return subfile_placement(lib, t, t_u, mu_r, mu_t, parts)


def soft_missing(demand, placement: SoftPlacement) -> dict[int, tuple[SoftSubfileLabel, ...]]:
    """Per UE, the subfiles of its request absent from its cache (lex order)."""
    t = placement.topology
    validate_demand(demand, t, placement.library.n_files)
    k = t.k
    out = {}
    for ue in range(1, k + 1):
        labels = [
            SoftSubfileLabel(file=demand[ue - 1], subset=t_set, part=part)
            for part in placement.parts
            for t_set in combinations(range(1, k + 1), placement.t_u)
            if ue not in t_set
        ]
        out[ue] = tuple(labels)
    return out


# ---------------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------------


class Schedule(LazySequence):
    """The steps of one delivery: the geometry's steps, once per part, in layout order.

    Step ``p * S + s + 1`` sends part ``parts[p]`` along step s of the
    geometry's S, each entry labelled with the file its UE demands. Delivery
    and the structural NDT read the geometry's step arrays instead.
    """

    def __init__(self, geometry: DeliveryGeometry, parts, demand):
        self.geometry, self.parts, self.demand = geometry, tuple(parts), tuple(demand)

    def __len__(self) -> int:
        return len(self.parts) * len(self.geometry.step_pp)

    def _build(self) -> list[DeliveryStep]:
        g, files, steps = self.geometry, self.demand, []
        rows = list(zip(*(a.tolist() for a in (g.step_pp, g.step_ue, g.step_subset, g.step_pi))))
        for part in self.parts:
            for pp, ues, rs, qs in rows:
                pi_prime = g.pi_primes[pp]
                labels = [
                    SoftSubfileLabel(files[u - 1], g.subsets[r], part, g.pis[q], pi_prime) for u, r, q in zip(ues, rs, qs)
                ]
                steps.append(DeliveryStep(len(steps) + 1, g.case, part, tuple(zip(ues, labels)), pi_prime))
        return steps


def soft_schedule(demand, placement: SoftPlacement, t: NetworkTopology) -> Schedule:
    """Order the missing subfiles into simultaneous beamformed steps.

    One-shot regime (t_U >= K - H): every UE's missing subsets are ranked
    lexicographically and step s serves each UE's rank-s subfile, nulled at
    all UEs that neither cache nor want it. Chunked regime: each subfile is
    split into equal chunks, one per (H-1)-subset of its non-caching
    bystanders; a step bundles, for one excluded set pi_prime, the rank-s
    admissible subset of every UE outside pi_prime.

    Returns a lazy ``Schedule`` over the compiled geometry, whose step
    counts and completeness are asserted when it is compiled; its steps and
    labels are built, all at once, only when the schedule is first read.
    """
    assert t.k == placement.topology.k and t.h == placement.topology.h
    validate_demand(demand, t, placement.library.n_files)
    return Schedule(delivery_geometry(t.h, t.k, placement.t_u), placement.parts, demand)


def chunked_step_count(h: int, k: int, t_u: int) -> int:
    """Closed-form number of chunked-regime steps, asserted integral.

    Each of the C(K,t_U) - C(K-1,t_U-1) missing subsets per file splits into
    C(K-t_U-1, H-1) chunks across K files, delivered H+t_U chunks at a time.
    """
    fresh = comb(k, t_u) - (comb(k - 1, t_u - 1) if t_u else 0)
    total_chunks = fresh * chunk_count(h, k, t_u) * k
    assert total_chunks % (h + t_u) == 0, "step count must be integral"
    return total_chunks // (h + t_u)


# ---------------------------------------------------------------------------
# delivery: locate every entry, check coverage and numerics, gather
# ---------------------------------------------------------------------------


def _entry(schedule, step: np.ndarray, i: int):
    """The step behind column entry ``i``, and its (ue, label) pair."""
    s = schedule[step[i]]
    return s, s.entries[i - int(np.searchsorted(step, step[i]))]


@dataclass(frozen=True)
class _Located:
    """Every entry of a schedule resolved against the geometry, in schedule order."""

    placement: SoftPlacement
    schedule: Sequence
    step: np.ndarray  # position of the entry's step in the schedule
    ue: np.ndarray
    file: np.ndarray
    part: np.ndarray  # index into placement.parts
    slot: np.ndarray  # chunk slot within the part
    subset: np.ndarray  # subset rank
    pi: np.ndarray  # null-set id
    excluded: np.ndarray  # the UE lies in its step's excluded set

    def name(self, i: int) -> str:
        s, (ue, lab) = _entry(self.schedule, self.step, i)
        return f"step {s.index}: UE {ue} <- {lab}"

    def covering(self, ue: int, part: int, slot: int) -> list[int]:
        return np.flatnonzero((self.ue == ue) & (self.part == part) & (self.slot == slot)).tolist()


def _columns(schedule, placement: SoftPlacement, part_index: dict) -> tuple[np.ndarray, ...]:
    """Per entry of a list of steps, in schedule order, read from its labels:
    step position, UE, file, part, subset, null set and excluded set (ids
    into the placement's parts and geometry, -1 for none), and whether the
    UE lies in its step's excluded set.
    """
    g = placement.geometry
    entries = [e for step in schedule for e in step.entries]
    n = len(entries)
    ues, labs = zip(*entries) if n else ((), ())

    def column(name, index=None):
        values = map(attrgetter(name), labs)
        if index is not None:
            values = map(index.get, values, repeat(-1))
        return np.fromiter(values, dtype=np.int64, count=n)

    step = np.repeat(np.arange(len(schedule)), [len(s.entries) for s in schedule])
    excluded = np.fromiter((ue in s.pi_prime for s in schedule for ue, _ in s.entries), dtype=bool, count=n)
    file, part, subset = column("file"), column("part", part_index), column("subset", g.subset_index)
    pi, pp = column("pi", g.pi_index), column("pi_prime", g.pi_prime_index)
    return step, np.array(ues, dtype=np.int64), file, part, subset, pi, pp, excluded


def _locate(schedule, placement: SoftPlacement) -> _Located:
    """Map every scheduled entry to its chunk slot.

    A ``Schedule`` over the placement's geometry, of its parts and library
    files, is located by gather from the step tables, tiled once per part.
    Any other list of steps is read from its labels and located by key
    lookup, raising ``ReconstructionMismatch`` for the first entry that names
    no piece its UE misses (wrong UE, subset, null sets, part or file id).
    """
    g, n_files = placement.geometry, placement.library.n_files
    part_index = {p: i for i, p in enumerate(placement.parts)}
    own = isinstance(schedule, Schedule) and schedule.geometry is g and part_index.keys() >= set(schedule.parts)
    if own and all(1 <= f <= n_files for f in schedule.demand):
        copies, per_step = len(schedule.parts), g.step_ue.shape[1]
        ue, subset, pi, slot = (np.tile(a.ravel(), copies) for a in (g.step_ue, g.step_subset, g.step_pi, g.step_slot))
        part = np.repeat(np.array([part_index[p] for p in schedule.parts], dtype=np.int64), g.step_ue.size)
        file = np.array(schedule.demand, dtype=np.int64)[ue - 1]
        step = np.repeat(np.arange(len(schedule)), per_step)
        excluded = np.zeros(len(ue), dtype=bool)  # served UEs lie outside their step's excluded set
        return _Located(placement, schedule, step, ue, file, part, slot, subset, pi, excluded)

    step, ue, file, part, subset, pi, pp, excluded = _columns(schedule, placement, part_index)
    ok = (ue >= 1) & (ue <= g.k) & (file >= 1) & (file <= n_files)
    ok &= (part >= 0) & (subset >= 0) & (pi >= 0) & (pp >= 0)
    entry, found = g.find(np.where(ok, g.piece_keys(ue, pi, pp), -1))
    ok &= found
    ok[ok] = g.step_subset.ravel()[entry[ok]] == subset[ok]
    if not ok.all():
        s, (u, lab) = _entry(schedule, step, int(np.argmin(ok)))
        raise ReconstructionMismatch(
            f"step {s.index}: UE {u} <- {lab}: no missing piece of the "
            f"(H, K, t) = ({g.h}, {g.k}, {g.t}) delivery of parts {placement.parts} has these coordinates"
        )
    return _Located(placement, schedule, step, ue, file, part, g.step_slot.ravel()[entry], subset, pi, excluded)


def _check_coverage(loc: _Located, demand=None) -> None:
    """Cache plus deliveries fill every chunk slot of every UE exactly once."""
    parts, g = loc.placement.parts, loc.placement.geometry
    n_slots = g.slots
    for i in range(len(parts)):
        mine = loc.part == i
        counts = g.cached.astype(np.int64).ravel()
        counts += np.bincount((loc.ue[mine] - 1) * n_slots + loc.slot[mine], minlength=g.k * n_slots)
        if (counts != 1).any():
            flat = int(np.flatnonzero(counts != 1)[0])
            ue, slot = flat // n_slots + 1, flat % n_slots
            subset = g.subsets[slot // g.chunks]
            what = f"chunk {slot % g.chunks} of the {parts[i]} subfile subset={subset}"
            what += f" of file {demand[ue - 1]}" if demand is not None else ""
            hits = loc.covering(ue, i, slot)
            if not hits:
                raise ReconstructionMismatch(f"UE {ue}: no step delivers {what}")
            raise ReconstructionMismatch(
                f"{loc.name(hits[1])}: UE {ue} already got {what} in {loc.name(hits[0])}"
            )


def _check_numerics(loc: _Located, ch: ChannelMatrix) -> None:
    """Beamform every step on ``ch`` and check it from one gain matrix.

    Per entry, the desired coefficient clears ``DESIRED_COEF_MIN``; per
    ordered pair of entries in a step, the other stream is nulled at the
    receiving UE (residual at most ``ZF_RESIDUAL_TOL``) or cached there.
    Every coefficient depends only on (UE, beam), so ``|H @ beams|`` holds
    them all. Raises ``InterferenceLeak`` for the first failure a scan of the
    steps, entry by entry, would meet.
    """
    g, schedule = loc.placement.geometry, loc.schedule
    mode = SUM_OF_BASIS if g.case == CASE_ONE_SHOT else SINGLE_NULL
    # one beam per null set, in first-use order, floor-checked only at the
    # UEs scheduled to decode it: bystanders may sit in a structural null
    used, first, inverse = np.unique(loc.pi, return_index=True, return_inverse=True)
    order = np.argsort(first)
    hears = np.zeros((len(used), g.k + 1), dtype=bool)
    hears[inverse, loc.ue] = True
    receivers = {g.pis[p]: set(np.flatnonzero(row).tolist()) for p, row in zip(used[order].tolist(), hears[order])}
    beams, ch, _ = beamformers_for(ch, receivers, mode, receivers_by_set=receivers)
    gain = np.abs(ch.matrix @ np.stack([bf.vector for bf in beams.values()], axis=1))
    beam = np.argsort(order)[inverse]  # each entry's column: its null set's place in first-use order

    # every failure gets its scan-order key: receiving entry, then its desired
    # floor, each other entry of its step in order, and last the step's excluded set
    n = len(loc.ue)
    width = n + 2
    keys = [np.flatnonzero(gain[loc.ue - 1, beam] < DESIRED_COEF_MIN) * width]
    # ordered pairs (receiving entry i, other entry j) within each step
    sizes = np.bincount(loc.step, minlength=len(schedule))
    starts = np.cumsum(sizes) - sizes
    reps = sizes[loc.step]
    i = np.repeat(np.arange(n), reps)
    j = starts[loc.step[i]] + np.arange(len(i)) - np.repeat(np.cumsum(reps) - reps, reps)
    by, other = loc.ue[i], loc.ue[j]
    i, j, by = i[by != other], j[by != other], by[by != other]
    nulled = g.pi_member[loc.pi[j], by]
    leak = np.where(nulled, gain[by - 1, beam[j]] > ZF_RESIDUAL_TOL, ~g.subset_member[loc.subset[j], by])
    keys.append(i[leak] * width + j[leak] + 1)
    keys.append((starts + sizes - 1)[loc.step[loc.excluded]] * width + n + 1)
    key = np.concatenate(keys)
    if not len(key):
        return

    e, o = divmod(int(key.min()), width)
    step, ue = schedule[loc.step[e]], int(loc.ue[e])
    if o == 0:
        raise InterferenceLeak(f"step {step.index}: UE {ue} desired coefficient {gain[ue - 1, beam[e]]:.2e}")
    if o == n + 1:
        raise InterferenceLeak(f"step {step.index}: a served UE lies in the excluded set {step.pi_prime}")
    o -= 1
    olab = _entry(schedule, loc.step, o)[1][1]
    if g.pi_member[loc.pi[o], ue]:
        raise InterferenceLeak(f"step {step.index}: residual {gain[ue - 1, beam[o]]:.2e} at UE {ue} for {olab}")
    raise InterferenceLeak(f"step {step.index}: UE {ue} can neither null nor cancel {olab}")


def _deliver(schedule, ch: ChannelMatrix | None, placement: SoftPlacement, demand=None) -> _Located:
    """What soft_simulate and collect_deliveries share: locate, cover, beamform.

    ``demand``, when known, only names the requested file in errors.
    """
    loc = _locate(schedule, placement)
    _check_coverage(loc, demand)
    if ch is not None and len(loc.ue):
        _check_numerics(loc, ch)
    return loc


def _assemble(loc: _Located, demand, files: np.ndarray) -> np.ndarray:
    """Every UE's copy of its requested file from the library's ``files``, one row per UE.

    One gather per part: slots default to the UE's own cached copy, and each
    delivered slot is read from the file its entry names. The whole-cached
    suffix comes from the UE's own copy.
    """
    placement = loc.placement
    k, n_slots = placement.geometry.k, placement.geometry.slots
    want = np.asarray(demand, dtype=np.int64) - 1
    pieces = []
    for i, (first, _, chunk) in enumerate(placement.layout):
        region = files[:, first : first + n_slots * chunk].reshape(-1, chunk)
        src = want[:, None] * n_slots + np.arange(n_slots)
        mine = loc.part == i
        src[loc.ue[mine] - 1, loc.slot[mine]] = (loc.file[mine] - 1) * n_slots + loc.slot[mine]
        pieces.append(region[src].reshape(k, n_slots * chunk))
    pieces.append(files[want, files.shape[1] - placement.suffix_bits // 8 :])
    return np.concatenate(pieces, axis=1)


def _mismatch(loc: _Located, ue: int, want: int, got: np.ndarray) -> ReconstructionMismatch:
    """Name the entry behind the first wrong byte of UE ``ue``'s file."""
    byte = int(np.argmax(got != loc.placement.library.array[want - 1]))
    source = "its cache"
    for i, (first, _, chunk) in enumerate(loc.placement.layout):
        if first <= byte < first + loc.placement.geometry.slots * chunk:
            hits = loc.covering(ue, i, (byte - first) // chunk)
            source = loc.name(hits[0]) if hits else source
    return ReconstructionMismatch(f"UE {ue} rebuilt file {want} incorrectly: byte {byte} from {source}")


def _verify(loc: _Located, demand) -> list[RecoveryVerdict]:
    """Assemble every UE's file and byte-compare it with the library copy; one ok-verdict per UE."""
    lib, k = loc.placement.library, loc.placement.topology.k
    demand = validate_demand(demand, loc.placement.topology, lib.n_files, warn_repeats=False)
    files = lib.array
    blobs = _assemble(loc, demand, files)
    wrong = np.flatnonzero((blobs != files[np.asarray(demand) - 1]).any(axis=1))
    if len(wrong):
        raise _mismatch(loc, int(wrong[0]) + 1, demand[wrong[0]], blobs[wrong[0]])
    counts = np.bincount(loc.ue, minlength=k + 1)
    return [
        RecoveryVerdict(ue=ue, file_id=want, ok=True, note=f"{counts[ue]} deliveries")
        for ue, want in enumerate(demand, start=1)
    ]


def soft_simulate(
    schedule: Sequence[DeliveryStep],
    ch: ChannelMatrix | None,
    placement: SoftPlacement,
    demand,
) -> list[RecoveryVerdict]:
    """Drive the schedule and verify decodability and bit-exact recovery.

    Every entry is located in the compiled geometry (a ``Schedule`` over the
    placement's geometry by gather from its step tables, any other list of
    steps by key lookup of its labels), and cache plus deliveries must fill
    every chunk slot of every UE exactly once. With a channel, beamformers
    are built per distinct null set (degenerate draws redrawn
    deterministically) and every step is checked numerically: desired
    coefficients stay above the decodability floor, nulled coefficients
    below the residual tolerance, and any bystander must hold the subfile in
    cache. With ``ch=None`` the numeric layer is skipped and only the
    combinatorial/bit layer runs (the geometry is channel-free).

    Returns one ok-verdict per UE; failures raise.

    Raises
    ------
    InterferenceLeak
        A step exposes a UE to a subfile it neither caches nor can null.
    ReconstructionMismatch
        An entry names no missing piece, a piece is delivered twice or not
        at all, or assembled bytes differ from the requested file.
    OutOfRange, DemandLengthMismatch
        The demand names a file outside the library or has the wrong length.
    """
    return _verify(_deliver(schedule, ch, placement, demand), demand)


def collect_deliveries(
    schedule: Sequence[DeliveryStep],
    ch: ChannelMatrix | None,
    placement: SoftPlacement,
) -> dict[int, dict[SoftSubfileLabel, bytes]]:
    """Run every step, returning the exact bytes each UE walks away with.

    Locates every entry in the compiled geometry and checks coverage; with a
    channel, also builds one beamformer per distinct null set (redrawing
    deterministically on degenerate draws) and applies the per-step numeric
    interference checks. ``ch=None`` skips the numeric layer.
    """
    loc = _deliver(schedule, ch, placement)
    first, _, chunk = np.array(placement.layout, dtype=np.int64).reshape(-1, 3)[loc.part].T
    lo = (first + loc.slot * chunk).tolist()
    hi = (first + (loc.slot + 1) * chunk).tolist()
    contents = placement.library.contents
    got: dict[int, dict[SoftSubfileLabel, bytes]] = {ue: {} for ue in range(1, placement.topology.k + 1)}
    entries = (e for step in schedule for e in step.entries)
    for (ue, lab), a, b in zip(entries, lo, hi):
        got[ue][lab] = contents[lab.file - 1][a:b]
    return got


def soft_fronthaul_bits_per_en(placement: SoftPlacement) -> Fraction:
    """Quantized-symbol load each EN pulls from the cloud, in bits.

    The cloud part of every missing subfile is precoded centrally and the
    symbol stream splits evenly across the H ENs; the EN part contributes
    nothing. Load accounting only — no quantizer is modeled.
    """
    k, h = placement.topology.k, placement.topology.h
    cloud = placement.part_bits.get(PART_CLOUD, 0)
    return Fraction((k - placement.t_u) * cloud, h)


def soft_ndt(h: int, r: int, mu_r, mu_t, rho=None) -> NdtValue:
    """Closed-form delivery time of the cloud-assisted ZF scheme.

    delta = (K - t_U) * [1/min(H + t_U, K) + (1 - mu_T)/(H*rho)], split into
    the edge term and the fronthaul term. ``rho`` may be omitted only when
    the fronthaul coefficient vanishes (mu_T = 1 or t_U = K; ``ndt.at_rho``).
    """
    mu_r, mu_t = as_fraction(mu_r), as_fraction(mu_t)
    t_u = level("K", h, r, mu_r, mu_t)
    k = comb(h, r)

    edge = Fraction(k - t_u, min(h + t_u, k))
    fronthaul = (1 - mu_t) * Fraction(k - t_u, h)  # at rho = 1
    branch = CASE_ONE_SHOT if t_u >= k - h else CASE_CHUNKED
    if t_u == k:
        branch = "empty"
    return at_rho(NdtValue(edge + fronthaul, fronthaul, edge, scheme="soft", branch=branch), rho)


def soft_structural_ndt(schedule: Sequence[DeliveryStep], placement: SoftPlacement, rho=None) -> NdtValue:
    """Delivery time re-derived by counting bits in the actual schedule.

    Edge: sum of per-step durations (bits served per UE in that step over
    F). Fronthaul: per-EN quantized-symbol bits, counted from the scheduled
    cloud-part entries, over F*rho. Must equal ``soft_ndt`` exactly. Bits
    are summed as integers; each term is one exact ``Fraction``.
    """
    f_bits = placement.library.file_size_bits
    piece_bits = {
        CASE_ONE_SHOT: placement.subfile_bits,
        CASE_CHUNKED: {p: placement.chunk_bits(p) for p in placement.subfile_bits},
    }
    if isinstance(schedule, Schedule):  # every step of a part has one shape
        g = schedule.geometry
        shapes = Counter({(g.case, p, g.step_ue.shape[1]): len(g.step_pp) for p in schedule.parts})
    else:
        shapes = Counter((s.case, s.part, len(s.entries)) for s in schedule)
    edge_bits = cloud_bits = 0
    for (case, part, size), count in shapes.items():
        bits = piece_bits[case][part] * count
        edge_bits += bits
        if part == PART_CLOUD:
            cloud_bits += bits * size
    per_en = Fraction(cloud_bits, placement.topology.h)
    assert per_en == soft_fronthaul_bits_per_en(placement)
    fronthaul, edge = per_en / f_bits, Fraction(edge_bits, f_bits)  # at rho = 1
    return at_rho(NdtValue(edge + fronthaul, fronthaul, edge, scheme="soft", branch="structural"), rho)
