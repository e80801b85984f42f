"""Subset combinatorics shared by every scheme.

Every scheme indexes its caches by t-subsets whose size t, the cache level,
comes from the cache fractions through one of three normalizers: ``"L"``
(t = mu_r*L, rank subsets at one EN), ``"K"`` (t = mu_r*K, UE subsets) and
``"ZF"`` (t = (mu_r + mu_t - 1)*K/mu_t, the cloud-free prefix). This module
owns that map and its inverse, the lexicographic rank of subsets given as
masks, the chunk count of the under-provisioned regime, the smallest file size
that slices into whole bytes, the read-only arrays that hold the compiled
index tables, and the lazy sequence through which a delivery built on them
reads as a list. Cache fractions are exact rationals (ints or
``Fraction``); all arithmetic here stays on their integer parts.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, lcm

import numpy as np

from .errors import NonIntegralCacheParameter, OutOfRange, RegionViolation

NORMALIZERS = ("L", "K", "ZF")

_LEVEL_NAMES = {"L": "mu_r*L", "K": "mu_r*K", "ZF": "t_R = (mu_r+mu_t-1)*K/mu_t"}


def lex_ranks(members, pool) -> np.ndarray:
    """0-based rank of each row of ``members`` among the lexicographic combinations of its ``pool``.

    Both are boolean masks over the elements (last axis) and broadcast
    against each other; an element's place in the mask is its order, and a
    row's members must lie in its pool. Rows may differ in pool and size.
    """
    members, pool = np.broadcast_arrays(np.asarray(members, dtype=bool), np.asarray(pool, dtype=bool))
    small = np.min_scalar_type(members.shape[-1] + 1)
    # lex rank = C(n, size) - 1 - sum over the members, in order, of
    # C(n - position, members left counting this one), position 1-based in the pool
    n, size = pool.sum(axis=-1, dtype=small), members.sum(axis=-1, dtype=small)
    position = np.cumsum(pool, axis=-1, dtype=small)
    left = size[..., None] + 1 - np.cumsum(members, axis=-1, dtype=small)
    top_n, top_size = int(n.max(initial=0)), int(size.max(initial=0))
    pascal = _pascal(top_n, top_size)
    ranks = pascal[n, size] - 1
    width = max(1, (1 << 18) // max(n.size, 1))  # element columns per gather: at most 256 Ki terms, or one column
    for j in range(0, members.shape[-1], width):
        cols = slice(j, j + width)
        terms = pascal[n[..., None] - position[..., cols], np.where(members[..., cols], left[..., cols], top_size + 1)]
        ranks -= terms.sum(axis=-1)
    return ranks


@lru_cache(maxsize=256)
def _pascal(n: int, size: int) -> np.ndarray:
    # C(a, b) for a <= n and b <= size, then a zero column that stands in for every non-member
    return frozen_table([[comb(a, b) for b in range(size + 1)] + [0] for a in range(n + 1)])


def chunk_count(h: int, k: int, t: int) -> int:
    """Chunks per subfile: one per (H-1)-subset of the K-t-1 bystanders when
    t < K - H (each chunk nulled at H-1 UEs), else the subfile goes whole."""
    return comb(k - t - 1, h - 1) if t < k - h else 1


def _level_ratio(normalizer: str, h: int, r: int, mu_r, mu_t) -> tuple[int, int]:
    # the cache level as numerator/denominator, after range and region checks
    a, b = mu_r.numerator, mu_r.denominator
    c, d = mu_t.numerator, mu_t.denominator
    if not (0 <= a <= b and 0 <= c <= d):
        raise OutOfRange(f"cache fractions must lie in [0,1]: mu_r={mu_r}, mu_t={mu_t}")
    if normalizer == "L":
        return comb(h - 1, r - 1) * a, b
    if normalizer == "K":
        return comb(h, r) * a, b
    if normalizer == "ZF":
        gap = a * d + c * b - b * d  # (mu_r + mu_t - 1) * b * d
        if gap < 0:
            raise RegionViolation(f"cloud-free delivery needs mu_r + mu_t >= 1, got {mu_r} + {mu_t}")
        if c == 0:
            return comb(h, r), 1  # the region forces mu_r = 1: everything fits at the UEs
        return comb(h, r) * gap, b * c
    raise ValueError(f"normalizer must be one of {NORMALIZERS}, got {normalizer!r}")


def fractional_level(normalizer: str, h: int, r: int, mu_r, mu_t) -> Fraction:
    """The exact cache level, integral or not (memory sharing brackets it).

    Raises ``OutOfRange`` if a cache fraction leaves [0, 1], ``RegionViolation``
    if ``"ZF"`` meets mu_r + mu_t < 1, and ``ValueError`` for an unknown normalizer.
    """
    return Fraction(*_level_ratio(normalizer, h, r, mu_r, mu_t))


def level(normalizer: str, h: int, r: int, mu_r, mu_t) -> int:
    """The integer cache level a placement is built on.

    Raises as ``fractional_level``, and ``NonIntegralCacheParameter`` when
    the level is not an integer (use memory sharing for such points).
    """
    num, den = _level_ratio(normalizer, h, r, mu_r, mu_t)
    if num % den:
        raise NonIntegralCacheParameter(
            f"{_LEVEL_NAMES[normalizer]} = {Fraction(num, den)} is not an integer; "
            "use memory sharing for such points"
        )
    return num // den


def level_mu(normalizer: str, h: int, r: int, p: int, mu_t) -> Fraction:
    """The UE cache fraction at which the level is the integer ``p``."""
    if normalizer == "L":
        return Fraction(p, comb(h - 1, r - 1))
    k = comb(h, r)
    if normalizer == "K":
        return Fraction(p, k)
    if normalizer == "ZF":
        c, d = mu_t.numerator, mu_t.denominator
        return Fraction(c * p + (d - c) * k, d * k)  # mu_t*p/K + 1 - mu_t
    raise ValueError(f"normalizer must be one of {NORMALIZERS}, got {normalizer!r}")


def smallest_file_bits(*constraints) -> int:
    """Smallest file size F with ``frac * F`` a whole multiple of ``unit``
    for every ``(frac, unit)`` constraint (zero fractions impose nothing)."""
    need = 1
    for frac, unit in constraints:
        if frac:
            den = unit * frac.denominator
            need = lcm(need, den // gcd(frac.numerator, den))
    return need


def frozen_table(values, dtype=np.int64) -> np.ndarray:
    """``values`` as a read-only array: a compiled table is shared by every caller of its cache."""
    arr = np.asarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


class LazySequence(Sequence):
    """A read-only sequence whose items its ``_build`` makes, all at once, on the first read, then kept.

    A subclass gives ``__len__``, so length and truthiness build nothing.
    Equal to the list of its items; slicing and ``+`` give lists.
    """

    @cached_property
    def _items(self) -> list:
        return self._build()

    def __getitem__(self, i):
        return self._items[i]

    def __iter__(self):
        return iter(self._items)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    def __add__(self, other):
        return list(self) + list(other)
