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
from cachenet.errors import RegionViolation

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
