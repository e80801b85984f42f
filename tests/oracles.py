"""Independent oracles and frozen expected values.

Everything here is computed by a different method than the library uses
(peasant multiplication instead of log tables, pivoted elimination instead
of SVD) or was evaluated by hand before the implementation existed and then
frozen. Tests compare the library against these, never the other way round.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

import cachenet as cn
from cachenet.channel import DESIRED_COEF_MIN, SINGLE_NULL, SUM_OF_BASIS, ZF_RESIDUAL_TOL, Beamformer, ChannelMatrix
from cachenet.errors import DegenerateChannel, EmptyNullSpace, RegionViolation, UnsupportedRegime
from cachenet.mdsia import (
    AlignmentPlan,
    AlignmentReport,
    AlignmentRow,
    InterferenceMatrix,
    MessageId,
    UeAlignmentChecks,
)
from cachenet.ndt import argmin_key
from cachenet.schemes import SCHEMES, ComparisonRow, ConvexityReport
from cachenet.soft_transfer import DeliveryStep
from cachenet.topology import NetworkTopology, index

REDUCING_POLY = 0x11D


def peasant_gf_mul(a: int, b: int) -> int:
    """GF(2^8) product by shift-and-add reduction, no lookup tables."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= REDUCING_POLY
    return acc


def peasant_gf_pow(a: int, n: int) -> int:
    acc = 1
    for _ in range(n):
        acc = peasant_gf_mul(acc, a)
    return acc


def draw_channel_per_ue(t: NetworkTopology, seed) -> np.ndarray:
    """The channel matrix drawn UE by UE: real then imaginary parts of each row's support."""
    rng = np.random.default_rng(seed)
    m = np.zeros((t.num_ues, t.num_ens), dtype=np.complex128)
    for k in range(1, t.num_ues + 1):
        ens = t.ue_to_ens[k - 1]
        vals = (rng.standard_normal(len(ens)) + 1j * rng.standard_normal(len(ens))) / np.sqrt(2)
        for en, v in zip(ens, vals):
            m[k - 1, en - 1] = v
    return m


# the zero-forcing beams one null set at a time, one SVD each: the path the
# batched `channel._zero_forcing_beams` replaced, kept verbatim


def null_space_per_beam(m: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis of ``m`` (columns), via SVD.

    Asserts the scheme-side convention rows <= columns, and that every basis
    vector has relative residual at most ``ZF_RESIDUAL_TOL``. An empty basis
    (shape (cols, 0)) is a legal return.
    """
    rows, cols = m.shape
    assert rows <= cols, f"null_space expects rows <= columns, got {m.shape}"
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    _, s, vh = np.linalg.svd(m)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > ZF_RESIDUAL_TOL * scale))
    basis = vh[rank:].conj().T
    for j in range(basis.shape[1]):
        resid = np.linalg.norm(m @ basis[:, j])
        assert resid <= ZF_RESIDUAL_TOL * max(1.0, scale), "kernel residual too large"
    return basis


def make_beamformer_per_beam(ch: ChannelMatrix, pi, mode: str, receivers=None) -> Beamformer:
    """Build a unit-norm beamformer that zero-forces the UEs in ``pi``.

    ``mode`` is ``"sum-of-basis"`` (sum the kernel basis vectors — used when
    the kernel may have several dimensions) or ``"single-null"`` (take one
    kernel vector — used when the stacked rows leave exactly one direction).
    An empty ``pi`` yields the uniform vector (1, ..., 1)/sqrt(H).

    ``receivers`` narrows the coefficient-floor check to the UEs that must
    actually decode the beam; by default every UE outside ``pi`` must hear
    it. Partial connectivity can pin the kernel onto few ENs and silence a
    bystander structurally — no redraw heals that — so schedulers that know
    the true receiver set must pass it.

    Raises
    ------
    EmptyNullSpace
        If more rows than H-1 are requested (caller bug).
    DegenerateChannel
        If a checked receiver would get the beam with a coefficient below
        ``DESIRED_COEF_MIN``; the caller should redraw the channel.
    """
    t = ch.topology
    pi = tuple(sorted(pi))
    h = t.num_ens
    if len(pi) > h - 1:
        raise EmptyNullSpace(f"cannot zero-force {len(pi)} UEs with {h} ENs")
    if mode not in (SUM_OF_BASIS, SINGLE_NULL):
        raise ValueError(f"unknown beamformer mode {mode!r}")

    if not pi:
        v = np.ones(h, dtype=np.complex128) / np.sqrt(h)
    else:
        stacked = ch.matrix[[u - 1 for u in pi], :]
        basis = null_space_per_beam(stacked)
        if basis.shape[1] == 0:
            raise EmptyNullSpace(f"no kernel direction for zero-forcing set {pi}")
        v = basis[:, 0] if mode == SINGLE_NULL else basis.sum(axis=1)
        norm = np.linalg.norm(v)
        if norm < ZF_RESIDUAL_TOL:
            raise DegenerateChannel(f"kernel combination vanished for {pi}")
        v = v / norm

    forbidden = set(pi)
    targets = range(1, t.num_ues + 1) if receivers is None else sorted(set(receivers))
    for k in targets:
        if k in forbidden:
            continue
        coef = abs(np.dot(ch.row(k), v))
        if coef < DESIRED_COEF_MIN:
            raise DegenerateChannel(
                f"receiver {k} coefficient {coef:.2e} below {DESIRED_COEF_MIN}"
            )
    return Beamformer(zero_forcing_set=pi, vector=v, mode=mode)


def beamformers_for_per_beam(
    ch: ChannelMatrix, pi_sets, mode: str, max_attempts: int = 16, receivers_by_set=None
):
    """Beamformers for every zero-forcing set, redrawing degenerate channels.

    Returns ``(mapping, channel_used, attempts)`` where ``mapping`` is keyed
    by the sorted tuple of each set. ``receivers_by_set`` optionally maps
    those keys to the UEs whose coefficient floor must hold (see
    make_beamformer_per_beam). Redraws are deterministic (seeded by the original seed
    and the attempt number); channels that stay degenerate for
    ``max_attempts`` draws propagate DegenerateChannel.
    """
    current = ch
    for attempt in range(max_attempts):
        try:
            mapping = {}
            for pi in pi_sets:
                key = tuple(sorted(pi))
                if key not in mapping:
                    rec = receivers_by_set.get(key) if receivers_by_set else None
                    mapping[key] = make_beamformer_per_beam(current, key, mode, rec)
            return mapping, current, attempt
        except DegenerateChannel:
            if attempt == max_attempts - 1:
                raise
            current = ch.redraw(attempt + 1)
    raise DegenerateChannel("unreachable")


def elimination_rank(m: np.ndarray, tol: float = 1e-9) -> int:
    """Rank of a complex matrix by Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=np.complex128)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= tol:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] /= a[rank, col]
        for other in range(rows):
            if other != rank:
                a[other] -= a[other, col] * a[rank]
        rank += 1
    return rank


def lex_rank(pool, subset) -> int:
    """0-based rank of ``subset`` among lexicographic combinations of pool,
    found by enumerating them."""
    ordered = sorted(pool)
    for i, cand in enumerate(combinations(ordered, len(subset))):
        if cand == tuple(subset):
            return i
    raise AssertionError(f"{subset} is not a subset of {pool}")


def rho_threshold_remark_form(h: int, r: int, mu_r, mu_t) -> Fraction:
    """Closed-form variant of the threshold built from the sharing brackets.

    Uses delta_i = (1 - mu_i)/(mu_i + 1/L) at the two sharing points of the
    coded-multicast curve, with the combination weight read as the weight of
    the LOWER bracket (the convention under which this form reproduces the
    exact crossover on the region boundary t = 0 of the cloud-free scheme).
    The library's general exact crossover is ``rho_threshold``.
    """
    mu_r = cn.as_fraction(mu_r)
    mu_t = cn.as_fraction(mu_t)
    if mu_r + mu_t < 1:
        raise RegionViolation("threshold defined on the cloud-free region only")
    l, k = comb(h - 1, r - 1), comb(h, r)
    shared = cn.shared_mdsia_ndt(h, r, mu_r, mu_t, Fraction(1))
    assert shared.sharing is not None
    mu1, mu2 = shared.sharing.mu_hi, shared.sharing.mu_lo
    alpha = 1 - shared.sharing.alpha  # weight of the lower bracket
    if alpha == 0:
        mu2, alpha = mu1, Fraction(1)

    delta1 = (1 - mu1) / (mu1 + Fraction(1, l))
    delta2 = (1 - mu2) / (mu2 + Fraction(1, l))
    clamp = max(Fraction(0), 1 - mu_t * r)
    numerator = clamp * (delta2 + (1 - alpha) / alpha * delta1)
    denominator = (
        Fraction(k, min(h, k)) * (mu_t * r / alpha)
        - delta2 * ((r - 1) * (mu2 + Fraction(1, l)) + 1)
        - delta1 * (1 / alpha - 1) * ((r - 1) * (mu1 + Fraction(1, l)) + 1)
    )
    return numerator / denominator


def compare_schemes_per_rho(grid) -> list:
    """``compare_schemes`` as one memory-shared evaluation per scheme and
    grid row, each at the row's own rho: no point is evaluated once and scaled."""
    rows = []
    for h, r, mu_r, mu_t, rho in grid:
        mu_r, mu_t, rho = cn.as_fraction(mu_r), cn.as_fraction(mu_t), cn.as_fraction(rho)
        values = {}
        for name, scheme in SCHEMES.items():
            try:
                values[name] = scheme.shared_ndt(h, r, mu_r, mu_t, rho)
            except (RegionViolation, UnsupportedRegime):
                values[name] = None
        applicable = {s: v for s, v in values.items() if v is not None}
        best = min(applicable, key=lambda s: argmin_key(s, applicable[s]))
        rows.append(ComparisonRow(h=h, r=r, mu_r=mu_r, mu_t=mu_t, rho=rho, values=values, argmin=best))
    return rows


#: the schemes, in registry order, named independently of the registry
SCHEME_NAMES = ("mdsia", "soft", "zf")


def closed_form_by_hand(scheme: str, h: int, r: int, p: int, mu_t: Fraction):
    """(fronthaul at rho = 1, edge) of a scheme at the integral level ``p``, or
    None where it does not cover the level (connectivity 3+ below t = L - 2 for
    mdsia). Written out from the papers' formulas; calls no cachenet NDT function."""
    k, l = comb(h, r), comb(h - 1, r - 1)
    if scheme == "mdsia":
        if r != 2 and p < l - 2:
            return None
        share = Fraction(l - p, r)
        return share * max(Fraction(0), 1 - r * mu_t) / (p + 1), share * (Fraction(r - 1, l) + Fraction(1, p + 1))
    edge = Fraction(k - p, min(h + p, k))
    if scheme == "soft":
        return (1 - mu_t) * (k - p) / Fraction(h), edge
    return Fraction(0), mu_t * edge


def shared_by_hand(scheme: str, h: int, r: int, mu_r: Fraction, mu_t: Fraction, rho: Fraction):
    """Memory sharing between the two levels around the cache point, from ``closed_form_by_hand``:
    (total, fronthaul, edge, alpha, (level_lo, level_hi), (mu_lo, mu_hi)) at ``rho``, or None where the
    scheme does not cover the point (outside the cloud-free region, or at an uncovered level)."""
    k, l = comb(h, r), comb(h - 1, r - 1)
    if scheme != "zf":  # mu_r = offset + slope * level
        offset, slope = Fraction(0), Fraction(1, l if scheme == "mdsia" else k)
    elif mu_r + mu_t >= 1:
        offset, slope = 1 - mu_t, mu_t / k
    else:
        return None
    level = Fraction(k) if slope == 0 else (mu_r - offset) / slope  # zf at mu_t = 0 only reaches mu_r = 1
    lo = level.numerator // level.denominator
    hi, alpha = (lo, Fraction(1)) if level == lo else (lo + 1, level - lo)
    corners = [closed_form_by_hand(scheme, h, r, p, mu_t) for p in (hi, lo)]
    if None in corners:
        return None
    (f_hi, e_hi), (f_lo, e_lo) = corners
    fronthaul = (alpha * f_hi + (1 - alpha) * f_lo) / rho
    edge = alpha * e_hi + (1 - alpha) * e_lo
    return fronthaul + edge, fronthaul, edge, alpha, (lo, hi), (offset + slope * lo, offset + slope * hi)


def compare_schemes_by_hand(grid) -> list[tuple]:
    """Per grid row: each scheme's ``shared_by_hand`` value and the argmin (smallest total, then no
    fronthaul used, then the fronthaul-free zf, then the name)."""
    rows = []
    for h, r, mu_r, mu_t, rho in grid:
        values = {s: shared_by_hand(s, h, r, Fraction(mu_r), Fraction(mu_t), Fraction(rho)) for s in SCHEME_NAMES}
        best = min((s for s, v in values.items() if v), key=lambda s: (values[s][0], values[s][1] != 0, s != "zf", s))
        rows.append((values, best))
    return rows


def convexity_check_per_pair(scheme: str, mu_t, rho, mu_r_grid, *, h: int, r: int):
    """``convexity_check`` evaluating both endpoints and the midpoint afresh for every pair."""
    pts = sorted(cn.as_fraction(m) for m in mu_r_grid)
    violations, skipped, checked = [], [], 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i], pts[j]
            try:
                fa = cn.shared_scheme_ndt(scheme, h, r, a, mu_t, rho).total
                fb = cn.shared_scheme_ndt(scheme, h, r, b, mu_t, rho).total
                fm = cn.shared_scheme_ndt(scheme, h, r, (a + b) / 2, mu_t, rho).total
            except (RegionViolation, UnsupportedRegime):
                skipped.append((a, b))
                continue
            checked += 1
            if fm > (fa + fb) / 2:
                violations.append((a, b))
    return ConvexityReport(
        scheme=scheme, ok=not violations, checked_pairs=checked,
        violations=tuple(violations), skipped_pairs=tuple(skipped),
    )


def assemble_by_labels(ue: int, want: int, placement, delivered: dict) -> bytes:
    """UE ``ue``'s copy of the placed parts of file ``want``, label by label.

    Walks the subfiles in file order by enumerating subsets and null sets
    with ``itertools.combinations``: a subfile whose subset holds the UE is
    sliced from the library copy (its cache); any other is the concatenation
    of the delivered pieces the paper prescribes, looked up by their full
    labels (one-shot: nulled at every other non-caching UE; chunked: one
    chunk per (H-1)-subset pi of those UEs, the rest of them excluded).
    Asserts that ``delivered`` holds exactly those pieces. Uses none of the
    library's rank or layout code.
    """
    h, k, t = placement.topology.h, placement.topology.k, placement.t_u
    universe = range(1, k + 1)
    subsets = list(combinations(universe, t))
    data = placement.library.file(want)
    pieces, used, start = [], set(), 0
    for part in ("local", "cloud"):
        bits = placement.part_bits.get(part, 0)
        if not bits:
            continue
        size = bits // 8 // len(subsets)
        for i, t_set in enumerate(subsets):
            if ue in t_set:
                pieces.append(data[start + i * size : start + (i + 1) * size])
                continue
            pool = [u for u in universe if u != ue and u not in t_set]
            nulls = list(combinations(pool, h - 1)) if t < k - h else [tuple(pool)]
            for pi in nulls:
                label = cn.SoftSubfileLabel(want, t_set, part, pi, tuple(u for u in pool if u not in pi))
                pieces.append(delivered[label])
                used.add(label)
        start += bits // 8
    assert used == set(delivered), "deliveries beyond the prescribed pieces"
    return b"".join(pieces)


def delivery_by_enumeration(h: int, k: int, t: int) -> dict:
    """The soft/zf delivery geometry of (H, K, t), piece by piece.

    Enumerates every missing piece destination-major (subsets and chunks in
    lexicographic order, each chunk one (H-1)-subset pi of the destination's
    non-caching bystanders, or all of them in one shot) and every scheduler
    step (per excluded set pi_prime, the rank-s admissible subset of each
    served UE), ranking subsets and null sets by their position in
    ``itertools.combinations`` output. Returns ``steps`` as
    ``(pi_prime, ues, subsets, pis)`` tuples; ``step_slot``, per step the
    chunk slot ``subset_rank * chunks + chunk`` of each entry; ``piece_key``,
    ``piece_subset`` and ``piece_chunk`` sorted by the piece key
    ``(pi * len(pi_primes) + pi_prime) * K + dest - 1``; and ``cached``,
    the K x (C(K, t) * chunks) mask of the chunk slots each UE holds. Uses
    none of the library's rank or geometry code.
    """
    universe = range(1, k + 1)
    subsets = list(combinations(universe, t))
    one_shot = t >= k - h
    width = k - 1 - t if one_shot else h - 1
    pis = list(combinations(universe, width)) if t < k else []
    pi_primes = [()] if one_shot else list(combinations(universe, k - t - h))
    pi_id = {p: i for i, p in enumerate(pis)}
    pp_id = {p: i for i, p in enumerate(pi_primes)}
    chunks = comb(k - t - 1, h - 1) if not one_shot else 1

    pieces, slot_of = [], {}  # slot_of: (dest, subset, pi) -> chunk slot
    for dest in universe:
        for r, t_set in enumerate(subsets):
            if dest in t_set:
                continue
            pool = [u for u in universe if u != dest and u not in t_set]
            for c, pi in enumerate(combinations(pool, width)):
                rest = tuple(u for u in pool if u not in pi)
                pieces.append(((pi_id[pi] * len(pi_primes) + pp_id[rest]) * k + dest - 1, r, c))
                slot_of[dest, t_set, pi] = r * chunks + c
    pieces.sort()

    steps, step_slot = [], []
    if t < k:
        for pi_prime in pi_primes:
            served = [u for u in universe if u not in pi_prime]
            choices = {ue: list(combinations([u for u in served if u != ue], t)) for ue in served}
            for s in range(len(choices[served[0]])):
                t_sets = tuple(choices[ue][s] for ue in served)
                nulls = tuple(
                    tuple(u for u in served if u != ue and u not in t_set) for ue, t_set in zip(served, t_sets)
                )
                steps.append((pi_prime, tuple(served), t_sets, nulls))
                step_slot.append(tuple(slot_of[e] for e in zip(served, t_sets, nulls)))

    cached = np.zeros((k, len(subsets) * chunks), dtype=bool)
    for r, t_set in enumerate(subsets):
        for ue in t_set:
            cached[ue - 1, r * chunks : (r + 1) * chunks] = True
    key, subset, chunk = np.array(pieces, dtype=np.int64).reshape(len(pieces), 3).T
    return {
        "steps": tuple(steps),
        "step_slot": tuple(step_slot),
        "piece_key": key,
        "piece_subset": subset,
        "piece_chunk": chunk,
        "cached": cached,
    }


def eager_schedule(demand, placement) -> list:
    """The soft/zf schedule of ``placement`` for ``demand``, every step and label built up front.

    Per part in layout order, one ``DeliveryStep`` per enumerated step of
    ``delivery_by_enumeration``, its entries ``(ue, SoftSubfileLabel(file,
    subset, part, pi, pi_prime))`` in the step's UE order and numbered from 1
    across parts. Uses none of the library's geometry or schedule code.
    """
    h, k, t = placement.topology.h, placement.topology.k, placement.t_u
    case = "one-shot" if t >= k - h else "chunked"
    schedule = []
    for part in placement.parts:
        for pi_prime, ues, t_sets, pis in delivery_by_enumeration(h, k, t)["steps"]:
            entries = tuple(
                (ue, cn.SoftSubfileLabel(demand[ue - 1], t_set, part, pi, pi_prime))
                for ue, t_set, pi in zip(ues, t_sets, pis)
            )
            schedule.append(DeliveryStep(len(schedule) + 1, case, part, entries, pi_prime))
    return schedule


def mdsia_by_labels(placement, demand):
    """Caches and multicasts of an mdsia placement, written out label by label.

    Returns ``(ue_caches, en_caches, cloud, local, piece)``: frozensets of
    ``PieceLabel`` per UE and per EN; per delivery path the messages as
    ``(en, subset, payload, members)`` tuples in EN-then-subset order; and
    ``piece(label)``, the bytes of one piece. Walks
    every (UE, file, chunk, subset, part) with ``itertools.combinations``,
    cuts each piece from ``mds_encode`` output by byte slicing, and XORs the
    members' pieces byte by byte. Uses none of the library's rank, layout or
    multicast code.
    """
    t, lib, t_e = placement.topology, placement.library, placement.t_e
    f_bits = lib.file_size_bits
    en_bits = int(min(placement.mu_t, Fraction(1, t.r)) * f_bits)
    cloud_bits = f_bits // t.r - en_bits
    ranks = list(range(1, t.l + 1))
    subsets = list(combinations(ranks, t_e))
    files = range(1, lib.n_files + 1)
    tags = ["en", "cloud"] if en_bits and cloud_bits else [None]
    chunks = {
        (n, c.chunk_id): c.payload for n in files for c in cn.mds_encode(lib.file(n), t.h, t.r, file_id=n)
    }

    def piece(label):
        start, bits = {None: (0, en_bits + cloud_bits), "en": (0, en_bits), "cloud": (en_bits, cloud_bits)}[label.part]
        size = bits // 8 // len(subsets)
        at = start // 8 + subsets.index(label.subset) * size
        return chunks[(label.file, label.chunk)][at : at + size]

    ue_caches = {}
    for k in range(1, t.k + 1):
        labels = set()
        for i in t.ens_of_ue(k):
            rank = t.ues_of_en(i).index(k) + 1
            labels |= {cn.PieceLabel(n, i, s, tag) for s in subsets if rank in s for n in files for tag in tags}
        ue_caches[k] = frozenset(labels)
    en_tag = "en" if cloud_bits else None
    en_caches = {
        i: frozenset(cn.PieceLabel(n, i, s, en_tag) for n in files for s in subsets if en_bits)
        for i in range(1, t.h + 1)
    }

    paths = {"local": en_bits, "cloud": cloud_bits}
    messages = {path: [] for path in paths}
    for path, bits in paths.items():
        if not bits:
            continue
        tag = tags[0 if path == "local" else -1]
        for i in range(1, t.h + 1):
            for s in combinations(ranks, t_e + 1):
                ues = [t.ues_of_en(i)[rank - 1] for rank in s]
                members = tuple(
                    (k, cn.PieceLabel(demand[k - 1], i, tuple(x for x in s if x != rank), tag))
                    for k, rank in zip(ues, s)
                )
                payload = bytes(bits // 8 // len(subsets))
                for _, label in members:
                    payload = bytes(a ^ b for a, b in zip(payload, piece(label)))
                messages[path].append((i, s, payload, members))
    return ue_caches, en_caches, messages["cloud"], messages["local"], piece


# ---------------------------------------------------------------------------
# the mdsia alignment plan and certifier as first written: a greedy sweep and a
# per-row scan over Python sets of (en, subset) message ids
# ---------------------------------------------------------------------------


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


#: hand-evaluated expected values, frozen before the implementation ran
FROZEN = {
    # coded-placement NDT at (h=5, r=2, mu_r=1/4, mu_t=3/10, rho=1):
    # (3/2) * [1/4 + (1/2) * (1 + 2/5)] = 57/40
    "mdsia_total_5_2_quarter_mut03": Fraction(57, 40),
    # memory sharing at (h=5, r=2, mu_r=3/8, mu_t=0, rho=1):
    # brackets t=1 (15/8) and t=2 (11/12), alpha=1/2 -> 67/48
    "mdsia_shared_midpoint_5_2_3o8": Fraction(67, 48),
    # chunked-regime step counts
    "chunked_steps_3_6_1": 45,
    "chunked_steps_4_6_0": 15,
    # subset-placement NDT at (h=5, K=10, t_u=5, mu_t=0, rho=1):
    # 5 * (1/10 + 1/5) = 3/2
    "soft_total_5_2_half": Fraction(3, 2),
    # cloud-free t_r and booking at (h=5, K=10, mu_t=1/2, mu_r=13/20)
    "zf_t_r_5_2_065_05": 3,
    "zf_ue_cache_files_5_2_065_05": Fraction(13, 2),  # per-UE cache in file units
    # crossover gain threshold at (h=5, r=2, mu_r=7/10, mu_t=3/10):
    # B=1/15, E=19/60, delta_zf=3/5 -> (1/15)/(3/5 - 19/60) = 4/17
    "rho_threshold_5_2_07_03": Fraction(4, 17),
    # cloud-free totals at (h=5, r=2, mu_t=3/10)
    "zf_total_5_2_079_03": Fraction(21, 80),
    "zf_total_5_2_07_03": Fraction(3, 5),
    # missing-subfile count at K=4, t_u=2: C(4,2) - C(3,1) = 3
    "missing_per_ue_k4_t2": 3,
}
