"""Cloud-assisted zero-forcing delivery with per-UE subset placement.

Files are split into an EN-resident part and a cloud part, each partitioned
into subfiles indexed by t_U-subsets of the UE population; UE k caches every
subfile whose subset contains k. Delivery emulates one H-antenna transmitter:
when t_U >= K - H every missing subfile can be nulled at all non-caching UEs
in one shot (one subfile per requested file per step); otherwise subfiles are
further chunked so each chunk is nulled at H-1 UEs and scheduled only with
chunks leaking onto the same excluded set. The cloud part rides the fronthaul
as quantized transmit symbols, accounted as load only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from math import comb

from .channel import (
    DESIRED_COEF_MIN,
    SINGLE_NULL,
    SUM_OF_BASIS,
    ZF_RESIDUAL_TOL,
    ChannelMatrix,
    beamformers_for,
)
from .combinatorics import chunk_count, level, smallest_file_bits, subset_rank
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


@dataclass(frozen=True)
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
        return replace(self, pi=None, pi_prime=None)


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

    def labels(self):
        return [lab for _, lab in self.entries]


CASE_ONE_SHOT = "one-shot"
CASE_CHUNKED = "chunked"


@dataclass(frozen=True)
class SoftPlacement:
    """Frozen outcome of the split-and-subfile placement phase."""

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

    def chunk_bits(self, part: str) -> int:
        return self.subfile_bits[part] // self.chunk_count

    def is_cached_at_ue(self, label: SoftSubfileLabel, ue: int) -> bool:
        return ue in label.subset

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
        return self.library.n_files * per_file

    def en_cache_bits(self) -> int:
        return self.library.n_files * self.part_bits.get(PART_LOCAL, 0)

    def _part_span(self, part: str) -> tuple[int, int]:
        local = self.part_bits.get(PART_LOCAL, 0)
        return (0, local) if part == PART_LOCAL else (local, self.library.file_size_bits)

    def subfile_payload(self, label: SoftSubfileLabel) -> bytes:
        """The exact bytes of one subfile (annotations ignored)."""
        start_bit, _ = self._part_span(label.part)
        size = self.subfile_bits[label.part]
        rank = subset_rank(label.subset, range(1, self.topology.k + 1))
        lo = (start_bit + rank * size) // 8
        return self.library.file(label.file)[lo : lo + size // 8]

    def chunk_payload(self, label: SoftSubfileLabel) -> bytes:
        """The exact bytes of one chunk of an under-provisioned delivery."""
        assert label.pi is not None and label.pi_prime is not None
        dest = self.chunk_destination(label)
        pool = [u for u in range(1, self.topology.k + 1) if u != dest and u not in label.subset]
        rank = subset_rank(label.pi, pool)
        size = self.chunk_bits(label.part)
        sub = self.subfile_payload(label)
        lo = rank * size // 8
        return sub[lo : lo + size // 8]

    def chunk_destination(self, label: SoftSubfileLabel) -> int:
        """The single UE not covered by subset, pi, or pi_prime."""
        rest = set(range(1, self.topology.k + 1)) - set(label.subset) - set(label.pi) - set(label.pi_prime)
        assert len(rest) == 1, "chunk coordinates must pin a unique destination"
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
    whole-byte chunks, or ``IndivisibleFileSize`` is raised.
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


def soft_schedule(demand, placement: SoftPlacement, t: NetworkTopology) -> list[DeliveryStep]:
    """Order the missing subfiles into simultaneous beamformed steps.

    One-shot regime (t_U >= K - H): every UE's missing subsets are ranked
    lexicographically and step s serves each UE's rank-s subfile, nulled at
    all UEs that neither cache nor want it. Chunked regime: each subfile is
    split into equal chunks, one per (H-1)-subset of its non-caching
    bystanders; a step bundles, for one excluded set pi_prime, the rank-s
    admissible subset of every UE outside pi_prime.

    Step counts are asserted against the closed forms.
    """
    assert t.k == placement.topology.k and t.h == placement.topology.h
    k, h, t_u = t.k, t.h, placement.t_u
    missing = soft_missing(demand, placement)
    universe = range(1, k + 1)
    steps: list[DeliveryStep] = []

    if placement.t_u == k:
        assert all(not v for v in missing.values())
        return steps

    if placement.case == CASE_ONE_SHOT:
        per_ue = {
            ue: [t_set for t_set in combinations(universe, t_u) if ue not in t_set]
            for ue in universe
        }
        n_steps = comb(k, t_u) - (comb(k - 1, t_u - 1) if t_u else 0)
        for part in placement.parts:
            for s in range(n_steps):
                entries = []
                for ue in universe:
                    t_set = per_ue[ue][s]
                    pi = tuple(u for u in universe if u != ue and u not in t_set)
                    entries.append(
                        (ue, SoftSubfileLabel(demand[ue - 1], t_set, part, pi=pi, pi_prime=()))
                    )
                steps.append(
                    DeliveryStep(len(steps) + 1, CASE_ONE_SHOT, part, tuple(entries), ())
                )
    else:
        geometry = chunked_step_geometry(h, k, t_u)
        for part in placement.parts:
            for pi_prime, triples in geometry:
                entries = tuple(
                    (ue, SoftSubfileLabel(demand[ue - 1], t_set, part, pi=pi, pi_prime=pi_prime))
                    for ue, t_set, pi in triples
                )
                steps.append(
                    DeliveryStep(len(steps) + 1, CASE_CHUNKED, part, entries, pi_prime)
                )
        assert len(steps) == len(placement.parts) * chunked_step_count(h, k, t_u)

    _assert_complete(steps, missing, placement)
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
    universe = range(1, k + 1)
    per_group = comb(h + t_u - 1, t_u)
    out = []
    for pi_prime in combinations(universe, k - t_u - h):
        served = [u for u in universe if u not in pi_prime]
        choices = {
            ue: list(combinations([u for u in served if u != ue], t_u)) for ue in served
        }
        assert all(len(c) == per_group for c in choices.values())
        for s in range(per_group):
            triples = []
            for ue in served:
                t_set = choices[ue][s]
                pi = tuple(
                    u for u in universe if u != ue and u not in t_set and u not in pi_prime
                )
                assert len(pi) == h - 1
                triples.append((ue, t_set, pi))
            assert len(triples) == h + t_u
            out.append((pi_prime, triples))
    assert len(out) == chunked_step_count(h, k, t_u)
    return out


def _assert_complete(steps, missing, placement) -> None:
    """Every missing label delivered exactly once (chunks cover subfiles)."""
    per_ue: dict[int, list[SoftSubfileLabel]] = {ue: [] for ue in missing}
    seen = set()
    for step in steps:
        for ue, lab in step.entries:
            assert (ue, lab) not in seen, "duplicate delivery"
            seen.add((ue, lab))
            per_ue[ue].append(lab)
    for ue, labs in per_ue.items():
        bases = [lab.base() for lab in labs]
        want = list(missing[ue])
        if placement.case == CASE_ONE_SHOT:
            assert sorted(bases, key=_label_key) == sorted(want, key=_label_key)
        else:
            from collections import Counter

            counts = Counter(bases)
            assert all(c == placement.chunk_count for c in counts.values())
            assert sorted(counts, key=_label_key) == sorted(want, key=_label_key)


def _label_key(lab: SoftSubfileLabel):
    return (lab.part, lab.file, lab.subset)


def soft_simulate(
    schedule: list[DeliveryStep],
    ch: ChannelMatrix | None,
    placement: SoftPlacement,
    demand,
) -> list[RecoveryVerdict]:
    """Drive the schedule and verify decodability and bit-exact recovery.

    With a channel, beamformers are built per distinct null set (degenerate
    draws redrawn deterministically) and every step is checked numerically:
    desired coefficients stay above the decodability floor, nulled
    coefficients below the residual tolerance, and any bystander must hold
    the subfile in cache. With ``ch=None`` the numeric layer is skipped and
    only the combinatorial/bit layer runs (the geometry is channel-free).

    Returns one ok-verdict per UE; failures raise.

    Raises
    ------
    InterferenceLeak
        A step exposes a UE to a subfile it neither caches nor can null.
    ReconstructionMismatch
        Assembled bytes differ from the requested file.
    """
    k = placement.topology.k
    got = collect_deliveries(schedule, ch, placement)
    verdicts = []
    for ue in range(1, k + 1):
        want = demand[ue - 1]
        blob = _assemble(ue, want, placement, got[ue])
        if blob != placement.library.file(want):
            raise ReconstructionMismatch(f"UE {ue} rebuilt file {want} incorrectly")
        verdicts.append(RecoveryVerdict(ue=ue, file_id=want, ok=True, note=f"{len(got[ue])} deliveries"))
    return verdicts


def collect_deliveries(
    schedule: list[DeliveryStep],
    ch: ChannelMatrix | None,
    placement: SoftPlacement,
) -> dict[int, dict[SoftSubfileLabel, bytes]]:
    """Run every step, returning the exact bytes each UE walks away with.

    Builds one beamformer per distinct null set when a channel is supplied
    (redrawing deterministically on degenerate draws) and applies the
    per-step numeric interference checks; ``ch=None`` skips the numeric
    layer. Shared by the cloud-assisted and cloud-free delivery drivers.
    """
    k = placement.topology.k
    mode = SUM_OF_BASIS if placement.case == CASE_ONE_SHOT else SINGLE_NULL
    beams = {}
    if ch is not None:
        # floor-check each beam only at the UEs scheduled to decode it;
        # bystanders may sit in a structural null of the connectivity graph
        receivers: dict[tuple[int, ...], set[int]] = {}
        for step in schedule:
            for ue, lab in step.entries:
                receivers.setdefault(tuple(sorted(lab.pi)), set()).add(ue)
        beams, ch, _ = beamformers_for(ch, receivers, mode, receivers_by_set=receivers)

    got: dict[int, dict[SoftSubfileLabel, bytes]] = {ue: {} for ue in range(1, k + 1)}
    for step in schedule:
        if ch is not None:
            _check_step_numerics(step, ch, beams, placement)
        for ue, lab in step.entries:
            payload = (
                placement.subfile_payload(lab)
                if step.case == CASE_ONE_SHOT
                else placement.chunk_payload(lab)
            )
            got[ue][lab] = payload
    return got


def _check_step_numerics(step, ch, beams, placement) -> None:
    served = {ue for ue, _ in step.entries}
    for ue, lab in step.entries:
        own = abs(ch.row(ue) @ beams[lab.pi].vector)
        if own < DESIRED_COEF_MIN:
            raise InterferenceLeak(f"step {step.index}: UE {ue} desired coefficient {own:.2e}")
        for other, olab in step.entries:
            if other == ue:
                continue
            coef = abs(ch.row(ue) @ beams[olab.pi].vector)
            if ue in olab.pi:
                if coef > ZF_RESIDUAL_TOL:
                    raise InterferenceLeak(
                        f"step {step.index}: residual {coef:.2e} at UE {ue} for {olab}"
                    )
            elif not placement.is_cached_at_ue(olab, ue):
                raise InterferenceLeak(
                    f"step {step.index}: UE {ue} can neither null nor cancel {olab}"
                )
    assert served.isdisjoint(step.pi_prime)


def _assemble(ue: int, file_id: int, placement: SoftPlacement, delivered) -> bytes:
    """Reconstruct the file from cache plus delivered subfiles/chunks."""
    k = placement.topology.k
    by_base: dict[SoftSubfileLabel, list[SoftSubfileLabel]] = {}
    for lab in delivered:
        by_base.setdefault(lab.base(), []).append(lab)

    pieces = []
    for part in placement.parts:
        for t_set in combinations(range(1, k + 1), placement.t_u):
            base = SoftSubfileLabel(file=file_id, subset=t_set, part=part)
            if ue in t_set:
                pieces.append(placement.subfile_payload(base))
            elif placement.case == CASE_ONE_SHOT:
                pieces.append(delivered[replace_annotations(base, ue, placement)])
            else:
                chunks = sorted(by_base[base], key=lambda l: l.pi)
                assert len(chunks) == placement.chunk_count
                pieces.append(b"".join(delivered[c] for c in chunks))
    return b"".join(pieces)


def replace_annotations(base: SoftSubfileLabel, ue: int, placement: SoftPlacement) -> SoftSubfileLabel:
    """Re-attach the one-shot regime's forced null annotation to a base label."""
    k = placement.topology.k
    pi = tuple(u for u in range(1, k + 1) if u != ue and u not in base.subset)
    return replace(base, pi=pi, pi_prime=())


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
    cloud-part entries, over F*rho. Must equal ``soft_ndt`` exactly.
    """
    f_bits = placement.library.file_size_bits
    edge = Fraction(0)
    cloud_bits = 0
    for step in schedule:
        bits = (
            placement.subfile_bits[step.part]
            if step.case == CASE_ONE_SHOT
            else placement.chunk_bits(step.part)
        )
        edge += Fraction(bits, f_bits)
        if step.part == PART_CLOUD:
            cloud_bits += bits * len(step.entries)
    per_en = Fraction(cloud_bits, placement.topology.h)
    assert per_en == soft_fronthaul_bits_per_en(placement)
    if per_en == 0:
        fronthaul = Fraction(0)
    else:
        rho = as_fraction(rho)
        fronthaul = per_en / (f_bits * rho)
    return NdtValue(
        total=edge + fronthaul,
        fronthaul=fronthaul,
        edge=edge,
        scheme="soft",
        branch="structural",
    )
