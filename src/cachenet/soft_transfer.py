"""Cloud-assisted zero-forcing delivery with per-UE subset placement.

Files are split into an EN-resident part and a cloud part, each partitioned
into subfiles indexed by t_U-subsets of the UE population; UE k caches every
subfile whose subset contains k. Delivery emulates one H-antenna transmitter:
when t_U >= K - H every missing subfile can be nulled at all non-caching UEs
in one shot (one subfile per requested file per step); otherwise subfiles are
further chunked so each chunk is nulled at H-1 UEs and scheduled only with
chunks leaking onto the same excluded set. The cloud part rides the fronthaul
as quantized transmit symbols, accounted as load only.

Everything but the payload bytes depends only on the geometry (H, K, t_U)
and the part sizes, so it is compiled once into a cached ``DeliveryPlan`` of
index tables. Scheduling reads its steps from the plan; delivery looks every
scheduled entry up in it, checks coverage and numerics on whole arrays, and
assembles each UE's file with one gather per part.
"""

from __future__ import annotations

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
from .combinatorics import chunk_count, frozen_table, level, smallest_file_bits
from .errors import (
    IndivisibleFileSize,
    InterferenceLeak,
    OutOfRange,
    ReconstructionMismatch,
)
from .mdscode import Library
from .ndt import NdtValue, as_fraction
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
    provisioned steps use ``pi_prime = ()``.
    """

    index: int
    case: str  # "one-shot" (t_U >= K-H) or "chunked"
    part: str
    entries: tuple[tuple[int, SoftSubfileLabel], ...]
    pi_prime: tuple[int, ...]


CASE_ONE_SHOT = "one-shot"
CASE_CHUNKED = "chunked"


# ---------------------------------------------------------------------------
# the compiled, payload-free delivery plan
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
    in lexicographic order, addressed by rank. Pieces are found by the
    integer key ``(pi * len(pi_primes) + pi_prime) * K + dest - 1``: the two
    null sets and the destination pin the subset, which the lookup then
    checks. Holds no labels and no bytes.
    """

    h: int
    k: int
    t: int
    chunks: int
    subsets: tuple[tuple[int, ...], ...]
    subset_rank: dict = field(repr=False)
    subset_member: np.ndarray = field(repr=False)
    pis: tuple[tuple[int, ...], ...] = field(repr=False)
    pi_index: dict = field(repr=False)
    pi_member: np.ndarray = field(repr=False)
    pi_primes: tuple[tuple[int, ...], ...] = field(repr=False)
    pi_prime_index: dict = field(repr=False)
    # pieces, sorted by key
    piece_key: np.ndarray = field(repr=False)
    piece_subset: np.ndarray = field(repr=False)
    piece_chunk: np.ndarray = field(repr=False)
    # the scheduler's steps of one part: (pi_prime, UEs, subsets, null sets)
    steps: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple, tuple], ...] = field(repr=False)

    @property
    def case(self) -> str:
        return CASE_ONE_SHOT if self.t >= self.k - self.h else CASE_CHUNKED

    def piece_keys(self, ue, pi_id, pi_prime_id):
        return (pi_id * len(self.pi_primes) + pi_prime_id) * self.k + ue - 1

    def find(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Piece index of every key, and whether the key names a piece at all."""
        if not len(self.piece_key):
            return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
        at = np.minimum(np.searchsorted(self.piece_key, keys), len(self.piece_key) - 1)
        return at, self.piece_key[at] == keys

    def chunk_rank(self, dest: int, subset, pi, pi_prime) -> int | None:
        """Chunk rank of one piece, or None if the coordinates name no piece."""
        ids = (self.subset_rank.get(subset), self.pi_index.get(pi), self.pi_prime_index.get(pi_prime))
        if None in ids or not 1 <= dest <= self.k:
            return None
        at, found = self.find(np.array([self.piece_keys(dest, ids[1], ids[2])]))
        if not found[0] or self.piece_subset[at[0]] != ids[0]:
            return None
        return int(self.piece_chunk[at[0]])


@lru_cache(maxsize=64)
def delivery_geometry(h: int, k: int, t: int) -> DeliveryGeometry:
    """Compile the pieces and step grouping of (H, K, t); cached per geometry.

    The completeness of the grouping (every missing subfile delivered in
    exactly ``chunk_count`` distinct chunks, each once) and its structural
    soundness (every bystander of a step either nulls or caches each other
    entry) are asserted here, once per geometry.
    """
    universe = range(1, k + 1)
    subsets = tuple(combinations(universe, t))
    subset_rank = {s: r for r, s in enumerate(subsets)}
    one_shot = t >= k - h
    width = k - 1 - t if one_shot else h - 1  # UEs each piece is nulled at
    pis = tuple(combinations(universe, width)) if t < k else ()
    pi_index = {p: i for i, p in enumerate(pis)}
    pi_primes = ((),) if one_shot else tuple(combinations(universe, k - t - h))
    pi_prime_index = {p: i for i, p in enumerate(pi_primes)}
    chunks = chunk_count(h, k, t)
    n_pp = len(pi_primes)

    def key(ue, pi, pi_prime):
        return (pi_index[pi] * n_pp + pi_prime_index[pi_prime]) * k + ue - 1

    # pieces, enumerated destination-major with chunks in lexicographic order
    keys, piece_subset, piece_chunk = [], [], []
    for dest in universe:
        for r, t_set in enumerate(subsets):
            if dest in t_set:
                continue
            pool = [u for u in universe if u != dest and u not in t_set]
            for c, pi in enumerate(combinations(pool, width)):
                keys.append(key(dest, pi, tuple(u for u in pool if u not in pi)))
                piece_subset.append(r)
                piece_chunk.append(c)
    fresh = comb(k, t) - (comb(k - 1, t - 1) if t else 0)
    assert len(keys) == k * fresh * chunks
    order = np.argsort(keys, kind="stable")
    piece_key = np.asarray(keys, dtype=np.int64)[order]
    assert np.all(piece_key[1:] > piece_key[:-1]), "piece keys must be unique"

    # the scheduler's grouping of pieces into steps: (pi_prime, pool, [(UE, subset), ...])
    grouping = []
    if one_shot and t < k:
        per_ue = {ue: [s for s in subsets if ue not in s] for ue in universe}
        grouping = [((), universe, [(ue, per_ue[ue][s]) for ue in universe]) for s in range(fresh)]
    elif not one_shot:
        per_group = comb(h + t - 1, t)
        for pi_prime in pi_primes:
            served = [u for u in universe if u not in pi_prime]
            choices = {ue: list(combinations([u for u in served if u != ue], t)) for ue in served}
            assert all(len(c) == per_group for c in choices.values())
            for s in range(per_group):
                grouping.append((pi_prime, served, [(ue, choices[ue][s]) for ue in served]))
        assert len(grouping) == chunked_step_count(h, k, t)
    width_step = k if one_shot else h + t

    def slot(pi_prime, pool, ue, t_set):
        # nulled at every UE of the pool that neither receives nor caches it
        pi = tuple(u for u in pool if u != ue and u not in t_set)
        return pi_prime_index[pi_prime], ue, subset_rank[t_set], pi_index[pi]

    table = np.array(
        [[slot(pp, pool, ue, t_set) for ue, t_set in slots] for pp, pool, slots in grouping], dtype=np.int64
    ).reshape(-1, width_step, 4)
    step_pp, step_ue, step_subset, step_pi = table.transpose(2, 0, 1)

    geometry = DeliveryGeometry(
        h=h,
        k=k,
        t=t,
        chunks=chunks,
        subsets=subsets,
        subset_rank=subset_rank,
        subset_member=_membership(subsets, k),
        pis=pis,
        pi_index=pi_index,
        pi_member=_membership(pis, k),
        pi_primes=pi_primes,
        pi_prime_index=pi_prime_index,
        piece_key=frozen_table(piece_key),
        piece_subset=frozen_table(np.asarray(piece_subset, dtype=np.int64)[order]),
        piece_chunk=frozen_table(np.asarray(piece_chunk, dtype=np.int64)[order]),
        steps=tuple(
            (pi_primes[pps[0]], tuple(ues), tuple(subsets[r] for r in srs), tuple(pis[p] for p in prs))
            for pps, ues, srs, prs in zip(*(a.tolist() for a in (step_pp, step_ue, step_subset, step_pi)))
        ),
    )
    if grouping:
        # completeness: the steps hit every piece exactly once
        at, found = geometry.find(geometry.piece_keys(step_ue, step_pi, step_pp))
        assert found.all() and (geometry.piece_subset[at] == step_subset).all()
        assert (np.bincount(at.ravel(), minlength=len(piece_key)) == 1).all(), "every piece once"
        # soundness: bystander i of entry j's stream nulls it or caches it
        by = step_ue[:, :, None]
        ok = geometry.pi_member[step_pi[:, None, :], by] | geometry.subset_member[step_subset[:, None, :], by]
        ok |= np.eye(width_step, dtype=bool)
        assert ok.all(), "a bystander can neither null nor cancel a scheduled stream"
    return geometry


@dataclass(frozen=True)
class DeliveryPlan:
    """A compiled geometry plus the byte layout of one set of part sizes.

    Per part (in file-layout order): its first byte, subfile bytes and chunk
    bytes. Bytes ``[first, first + C(K, t) * subfile)`` of every file are
    ``C(K, t) * chunks`` chunk slots, slot ``subset_rank * chunks + chunk``;
    ``cached[u - 1, slot]`` says UE u holds that slot of every part of every
    file, and must receive it otherwise.
    """

    geometry: DeliveryGeometry
    parts: tuple[str, ...]
    layout: tuple[tuple[int, int, int], ...]
    cached: np.ndarray = field(repr=False)

    @property
    def slots(self) -> int:
        return self.cached.shape[1]


@lru_cache(maxsize=128)
def delivery_plan(h: int, k: int, t: int, part_bits: tuple[tuple[str, int], ...]) -> DeliveryPlan:
    """The cached plan of geometry (H, K, t) with ``part_bits`` = ((part, bits), ...)."""
    geometry = delivery_geometry(h, k, t)
    n_sub, chunks = len(geometry.subsets), geometry.chunks
    layout, first = [], 0
    for _, bits in part_bits:
        sub = bits // 8 // n_sub
        assert sub * n_sub * 8 == bits and sub % chunks == 0, "parts must split into whole-byte chunks"
        layout.append((first, sub, sub // chunks))
        first += bits // 8
    return DeliveryPlan(
        geometry=geometry,
        parts=tuple(p for p, _ in part_bits),
        layout=tuple(layout),
        cached=frozen_table(np.repeat(geometry.subset_member[:, 1:].T, chunks, axis=1), bool),
    )


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
    subfile_bits: dict[str, int] = field(compare=False)
    chunk_count: int = 1

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(p for p in PART_ORDER if self.part_bits.get(p, 0))

    @property
    def n_subfiles(self) -> int:
        return comb(self.topology.k, self.t_u)

    @property
    def case(self) -> str:
        return CASE_ONE_SHOT if self.t_u >= self.topology.k - self.topology.h else CASE_CHUNKED

    @cached_property
    def plan(self) -> DeliveryPlan:
        """The compiled delivery plan of this geometry and these part sizes."""
        t = self.topology
        return delivery_plan(t.h, t.k, self.t_u, tuple((p, self.part_bits[p]) for p in self.parts))

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
        plan = self.plan
        first, size, _ = plan.layout[plan.parts.index(label.part)]
        lo = first + plan.geometry.subset_rank[label.subset] * size
        return self.library.file(label.file)[lo : lo + size]

    def chunk_payload(self, label: SoftSubfileLabel) -> bytes:
        """The exact bytes of one chunk of an under-provisioned delivery."""
        plan = self.plan
        dest = self.chunk_destination(label)
        rank = plan.geometry.chunk_rank(dest, label.subset, label.pi, label.pi_prime)
        if rank is None:
            raise ReconstructionMismatch(f"{label} is not a chunk of this delivery geometry")
        size = plan.layout[plan.parts.index(label.part)][2]
        return self.subfile_payload(label)[rank * size : (rank + 1) * size]

    def chunk_destination(self, label: SoftSubfileLabel) -> int:
        """The single UE not covered by subset, pi, or pi_prime."""
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
        subfile_bits={p: int(bits) // n_subfiles for p, bits in part_bits.items()},
        chunk_count=chunks,
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


def soft_schedule(demand, placement: SoftPlacement, t: NetworkTopology) -> list[DeliveryStep]:
    """Order the missing subfiles into simultaneous beamformed steps.

    One-shot regime (t_U >= K - H): every UE's missing subsets are ranked
    lexicographically and step s serves each UE's rank-s subfile, nulled at
    all UEs that neither cache nor want it. Chunked regime: each subfile is
    split into equal chunks, one per (H-1)-subset of its non-caching
    bystanders; a step bundles, for one excluded set pi_prime, the rank-s
    admissible subset of every UE outside pi_prime.

    The steps come from the compiled geometry, whose step counts and
    completeness are asserted when it is compiled.
    """
    assert t.k == placement.topology.k and t.h == placement.topology.h
    validate_demand(demand, t, placement.library.n_files)
    g = delivery_geometry(t.h, t.k, placement.t_u)
    steps: list[DeliveryStep] = []
    case = g.case
    for part in placement.parts:
        for pi_prime, ues, t_sets, pis in g.steps:
            entries = tuple(
                [
                    (ue, SoftSubfileLabel(demand[ue - 1], t_set, part, pi, pi_prime))
                    for ue, t_set, pi in zip(ues, t_sets, pis)
                ]
            )
            steps.append(DeliveryStep(len(steps) + 1, case, part, entries, pi_prime))
    return steps


def chunked_step_count(h: int, k: int, t_u: int) -> int:
    """Closed-form number of chunked-regime steps, asserted integral.

    Each of the C(K,t_U) - C(K-1,t_U-1) missing subsets per file splits into
    C(K-t_U-1, H-1) chunks across K files, delivered H+t_U chunks at a time.
    """
    fresh = comb(k, t_u) - (comb(k - 1, t_u - 1) if t_u else 0)
    total_chunks = fresh * chunk_count(h, k, t_u) * k
    assert total_chunks % (h + t_u) == 0, "step count must be integral"
    return total_chunks // (h + t_u)


def chunked_step_geometry(
    h: int, k: int, t_u: int
) -> list[tuple[tuple[int, ...], list[tuple[int, tuple[int, ...], tuple[int, ...]]]]]:
    """Chunked-regime grouping as pure combinatorics on (H, K, t_U).

    Returns one ``(pi_prime, [(destination, subset, pi), ...])`` pair per
    step, sweeping the excluded sets pi_prime lexicographically and, within
    each, the destinations' admissible subsets by rank. Requires t_U < K - H;
    needs no concrete topology, only the counts.
    """
    assert 0 <= t_u < k - h, "chunked regime needs t_U < K - H"
    return [(pi_prime, list(zip(*row))) for pi_prime, *row in delivery_geometry(h, k, t_u).steps]


# ---------------------------------------------------------------------------
# delivery: locate every entry, check coverage and numerics, gather
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Located:
    """Every entry of a schedule resolved against the plan, in schedule order."""

    plan: DeliveryPlan
    schedule: list
    entries: list  # the (ue, label) pairs
    step: np.ndarray  # position of the entry's step in the schedule
    ue: np.ndarray
    file: np.ndarray
    part: np.ndarray  # index into plan.parts
    slot: np.ndarray  # chunk slot within the part
    subset: np.ndarray  # subset rank
    pi: np.ndarray  # null-set id

    def name(self, i: int) -> str:
        ue, lab = self.entries[i]
        return f"step {self.schedule[self.step[i]].index}: UE {ue} <- {lab}"

    def covering(self, ue: int, part: int, slot: int) -> list[int]:
        return np.flatnonzero((self.ue == ue) & (self.part == part) & (self.slot == slot)).tolist()


def _locate(schedule, placement: SoftPlacement) -> _Located:
    """Map every scheduled entry to its chunk slot, from the entry's own label.

    Raises ``ReconstructionMismatch`` for the first entry that names no piece
    its UE misses (wrong UE, subset, null sets, part or file id).
    """
    plan = placement.plan
    g = plan.geometry
    entries = [e for step in schedule for e in step.entries]
    n = len(entries)
    ues, labs = zip(*entries) if n else ((), ())
    part_index = {p: i for i, p in enumerate(plan.parts)}

    def column(name, index=None):
        values = map(attrgetter(name), labs)
        if index is not None:
            values = map(index.get, values, repeat(-1))
        return np.fromiter(values, dtype=np.int64, count=n)

    ue = np.array(ues, dtype=np.int64)
    file, part_id, subset = column("file"), column("part", part_index), column("subset", g.subset_rank)
    pi_id, pp_id = column("pi", g.pi_index), column("pi_prime", g.pi_prime_index)
    step = np.repeat(np.arange(len(schedule)), [len(s.entries) for s in schedule])

    ok = (ue >= 1) & (ue <= g.k) & (file >= 1) & (file <= placement.library.n_files)
    ok &= (part_id >= 0) & (subset >= 0) & (pi_id >= 0) & (pp_id >= 0)
    at, found = g.find(np.where(ok, g.piece_keys(ue, pi_id, pp_id), -1))
    ok &= found
    ok[ok] = g.piece_subset[at[ok]] == subset[ok]
    if not ok.all():
        i = int(np.argmin(ok))
        raise ReconstructionMismatch(
            f"step {schedule[step[i]].index}: UE {ues[i]} <- {labs[i]}: no missing piece of the "
            f"(H, K, t) = ({g.h}, {g.k}, {g.t}) delivery of parts {plan.parts} has these coordinates"
        )
    return _Located(
        plan=plan,
        schedule=schedule,
        entries=entries,
        step=step,
        ue=ue,
        file=file,
        part=part_id,
        slot=subset * g.chunks + g.piece_chunk[at],
        subset=subset,
        pi=pi_id,
    )


def _check_coverage(loc: _Located, demand=None) -> None:
    """Cache plus deliveries fill every chunk slot of every UE exactly once."""
    plan, g = loc.plan, loc.plan.geometry
    n_slots = plan.slots
    for i in range(len(plan.parts)):
        mine = loc.part == i
        counts = plan.cached.astype(np.int64).ravel()
        counts += np.bincount((loc.ue[mine] - 1) * n_slots + loc.slot[mine], minlength=g.k * n_slots)
        if (counts != 1).any():
            flat = int(np.flatnonzero(counts != 1)[0])
            ue, slot = flat // n_slots + 1, flat % n_slots
            subset = g.subsets[slot // g.chunks]
            what = f"chunk {slot % g.chunks} of the {plan.parts[i]} subfile subset={subset}"
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
    g, schedule = loc.plan.geometry, loc.schedule
    mode = SUM_OF_BASIS if g.case == CASE_ONE_SHOT else SINGLE_NULL
    # one beam per null set, in first-use order, floor-checked only at the
    # UEs scheduled to decode it: bystanders may sit in a structural null
    used, first = np.unique(loc.pi, return_index=True)
    used = used[np.argsort(first)]
    receivers = {g.pis[p]: set() for p in used.tolist()}
    for code in np.unique(loc.pi * (g.k + 1) + loc.ue).tolist():
        receivers[g.pis[code // (g.k + 1)]].add(code % (g.k + 1))
    beams, ch, _ = beamformers_for(ch, receivers, mode, receivers_by_set=receivers)
    column = np.zeros(len(g.pis), dtype=np.int64)
    column[used] = np.arange(len(used))
    gain = np.abs(ch.matrix @ np.stack([beams[g.pis[p]].vector for p in used.tolist()], axis=1))
    beam = column[loc.pi]

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
    excluded = np.array(
        [s for s, step in enumerate(schedule) if not {ue for ue, _ in step.entries}.isdisjoint(step.pi_prime)],
        dtype=np.int64,
    )
    keys.append((starts[excluded] + sizes[excluded] - 1) * width + n + 1)
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
    olab = loc.entries[o][1]
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


def _assemble(loc: _Located, placement: SoftPlacement, demand) -> np.ndarray:
    """Every UE's copy of its requested file, one row per UE.

    One gather per part: slots default to the UE's own cached copy, and each
    delivered slot is read from the file its entry names. The whole-cached
    suffix comes from the UE's own copy.
    """
    plan, lib = loc.plan, placement.library
    k = plan.geometry.k
    files = np.frombuffer(b"".join(lib.contents), dtype=np.uint8).reshape(lib.n_files, -1)
    want = np.asarray(demand, dtype=np.int64) - 1
    pieces = []
    n_slots = plan.slots
    for i, (first, _, chunk) in enumerate(plan.layout):
        region = files[:, first : first + n_slots * chunk].reshape(-1, chunk)
        src = want[:, None] * n_slots + np.arange(n_slots)
        mine = loc.part == i
        src[loc.ue[mine] - 1, loc.slot[mine]] = (loc.file[mine] - 1) * n_slots + loc.slot[mine]
        pieces.append(region[src].reshape(k, n_slots * chunk))
    pieces.append(files[want, files.shape[1] - placement.suffix_bits // 8 :])
    return np.concatenate(pieces, axis=1)


def _mismatch(loc: _Located, ue: int, want: int, expected: bytes, got: np.ndarray) -> ReconstructionMismatch:
    """Name the entry behind the first wrong byte of UE ``ue``'s file."""
    wrong = np.flatnonzero(got != np.frombuffer(expected[: len(got)], dtype=np.uint8))
    byte = int(wrong[0]) if len(wrong) else len(got)
    source = "its cache"
    for i, (first, _, chunk) in enumerate(loc.plan.layout):
        if first <= byte < first + loc.plan.slots * chunk:
            hits = loc.covering(ue, i, (byte - first) // chunk)
            source = loc.name(hits[0]) if hits else source
    return ReconstructionMismatch(f"UE {ue} rebuilt file {want} incorrectly: byte {byte} from {source}")


def _verify(loc: _Located, placement: SoftPlacement, demand) -> list[RecoveryVerdict]:
    """Assemble every UE's file and byte-compare it with the library copy; one ok-verdict per UE."""
    lib = placement.library
    demand = validate_demand(demand, placement.topology, lib.n_files, warn_repeats=False)
    blobs = _assemble(loc, placement, demand)
    counts = np.bincount(loc.ue, minlength=loc.plan.geometry.k + 1)
    verdicts = []
    for ue in range(1, loc.plan.geometry.k + 1):
        want = demand[ue - 1]
        if blobs[ue - 1].tobytes() != lib.file(want):
            raise _mismatch(loc, ue, want, lib.file(want), blobs[ue - 1])
        verdicts.append(RecoveryVerdict(ue=ue, file_id=want, ok=True, note=f"{counts[ue]} deliveries"))
    return verdicts


def soft_simulate(
    schedule: list[DeliveryStep],
    ch: ChannelMatrix | None,
    placement: SoftPlacement,
    demand,
) -> list[RecoveryVerdict]:
    """Drive the schedule and verify decodability and bit-exact recovery.

    Every entry is located in the compiled plan from its own label, and
    cache plus deliveries must fill every chunk slot of every UE exactly
    once. With a channel, beamformers are built per distinct null set
    (degenerate draws redrawn deterministically) and every step is checked
    numerically: desired coefficients stay above the decodability floor,
    nulled coefficients below the residual tolerance, and any bystander must
    hold the subfile in cache. With ``ch=None`` the numeric layer is skipped
    and only the combinatorial/bit layer runs (the geometry is channel-free).

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
    return _verify(_deliver(schedule, ch, placement, demand), placement, demand)


def collect_deliveries(
    schedule: list[DeliveryStep],
    ch: ChannelMatrix | None,
    placement: SoftPlacement,
) -> dict[int, dict[SoftSubfileLabel, bytes]]:
    """Run every step, returning the exact bytes each UE walks away with.

    Locates every entry in the compiled plan and checks coverage; with a
    channel, also builds one beamformer per distinct null set (redrawing
    deterministically on degenerate draws) and applies the per-step numeric
    interference checks. ``ch=None`` skips the numeric layer.
    """
    loc = _deliver(schedule, ch, placement)
    layout = loc.plan.layout
    first = np.array([f for f, _, _ in layout], dtype=np.int64)[loc.part]
    chunk = np.array([c for _, _, c in layout], dtype=np.int64)[loc.part]
    lo = (first + loc.slot * chunk).tolist()
    hi = (first + (loc.slot + 1) * chunk).tolist()
    contents = placement.library.contents
    got: dict[int, dict[SoftSubfileLabel, bytes]] = {ue: {} for ue in range(1, placement.topology.k + 1)}
    for (ue, lab), a, b in zip(loc.entries, lo, hi):
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
    the fronthaul coefficient vanishes (mu_T = 1 or t_U = K).
    """
    mu_r, mu_t = as_fraction(mu_r), as_fraction(mu_t)
    t_u = level("K", h, r, mu_r, mu_t)
    k = comb(h, r)

    edge = Fraction(k - t_u, min(h + t_u, k))
    fronthaul_per_rho = (1 - mu_t) * Fraction(k - t_u, h)
    if fronthaul_per_rho == 0:
        fronthaul = Fraction(0)
    else:
        if rho is None:
            raise OutOfRange("rho required: the fronthaul term is nonzero")
        rho = as_fraction(rho)
        if rho <= 0:
            raise OutOfRange(f"rho must be positive, got {rho}")
        fronthaul = fronthaul_per_rho / rho
    branch = CASE_ONE_SHOT if t_u >= k - h else CASE_CHUNKED
    if t_u == k:
        branch = "empty"
    return NdtValue(
        total=edge + fronthaul, fronthaul=fronthaul, edge=edge, scheme="soft", branch=branch
    )


def soft_structural_ndt(schedule: list[DeliveryStep], placement: SoftPlacement, rho=None) -> NdtValue:
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
    edge_bits = 0
    cloud_bits = 0
    for step in schedule:
        bits = piece_bits[step.case][step.part]
        edge_bits += bits
        if step.part == PART_CLOUD:
            cloud_bits += bits * len(step.entries)
    per_en = Fraction(cloud_bits, placement.topology.h)
    assert per_en == soft_fronthaul_bits_per_en(placement)
    if per_en == 0:
        fronthaul = Fraction(0)
    else:
        rho = as_fraction(rho)
        fronthaul = per_en / (f_bits * rho)
    edge = Fraction(edge_bits, f_bits)
    return NdtValue(
        total=edge + fronthaul,
        fronthaul=fronthaul,
        edge=edge,
        scheme="soft",
        branch="structural",
    )
