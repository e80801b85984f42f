"""Exact-rational delivery-time algebra shared by all schemes.

Normalized delivery time (NDT) here is always an exact ``Fraction`` split
into a fronthaul part and an edge part. This module owns the value types,
convex memory sharing between integer-parameter operating points, and the
deterministic tie-break between schemes. It imports no scheme: the scheme
modules build on it, and the all-scheme consumers (grid comparison, the
fronthaul-quality threshold, convexity) live next to the registry in
``schemes``. No floats enter any computation; decimals appear only when a
caller renders values.

Every NDT is affine in 1/rho, delta = edge + fronthaul/rho, and memory
sharing mixes corner points with a weight free of rho: a value at rho = 1
gives every rho by scaling its fronthaul part (``at_rho``, the one place rho
is checked). ``memory_share`` evaluates each closed form once per integral
corner, at rho = 1, into a bounded cache, mixes two cached corners at rho = 1
and scales the mix by ``at_rho`` once. Grid comparison evaluates each cache
point once, at rho = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .combinatorics import fractional_level, level_mu
from .errors import OutOfRange

#: schemes that never touch the fronthaul by construction
FRONTHAUL_FREE = frozenset({"zf"})


def as_fraction(x) -> Fraction:
    """Exact conversion; floats are rejected to keep every path rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, Decimal):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError(
            f"refusing float {x!r}: pass a string like '0.3' or a Fraction for exactness"
        )
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True, slots=True)
class SharingDecomposition:
    """How a fractional cache point splits across two integer-parameter points.

    ``alpha`` is the weight of the upper point: mu_r = alpha * mu_hi +
    (1 - alpha) * mu_lo, with param_hi/param_lo the bracketing integer
    values of the scheme's normalized cache parameter. Integral points use
    alpha = 1 with both brackets equal.
    """

    mu_hi: Fraction
    mu_lo: Fraction
    alpha: Fraction
    param_hi: int
    param_lo: int


@dataclass(frozen=True, slots=True)
class NdtValue:
    """An exact delivery-time value with its fronthaul/edge decomposition."""

    total: Fraction
    fronthaul: Fraction
    edge: Fraction
    scheme: str
    branch: str = ""
    sharing: SharingDecomposition | None = None

    def __post_init__(self) -> None:
        assert self.total == self.fronthaul + self.edge, "decomposition broken"
        assert self.fronthaul >= 0 and self.edge >= 0, "negative component"


def at_rho(value: NdtValue, rho) -> NdtValue:
    """``value``, computed at rho = 1, at fronthaul quality ``rho``: only the fronthaul
    part scales, by 1/rho. A value without one comes back unchanged for any rho;
    otherwise a missing or non-positive rho raises ``OutOfRange``."""
    if not value.fronthaul:
        return value
    if rho is None or (rho := as_fraction(rho)) <= 0:
        raise OutOfRange(f"scheme {value.scheme} uses the fronthaul, so rho must be positive, got {rho}")
    if rho == 1:
        return value
    fronthaul = value.fronthaul / rho
    return NdtValue(value.edge + fronthaul, fronthaul, value.edge, value.scheme, value.branch, value.sharing)


# ---------------------------------------------------------------------------
# memory sharing
# ---------------------------------------------------------------------------


def memory_share(ndt_fn, h: int, r: int, mu_r, mu_t, rho, normalizer: str) -> NdtValue:
    """Evaluate a scheme at any cache fraction by convex combination.

    ``normalizer`` selects how the UE cache fraction maps to the scheme's
    integer parameter: ``"L"`` (per-EN rank subsets, param = mu_r*L),
    ``"K"`` (per-UE subsets, param = mu_r*K), or ``"ZF"`` (param =
    (mu_r+mu_t-1)*K/mu_t, affine in mu_r). Integral parameters evaluate
    directly (alpha = 1); otherwise the two adjacent integer points are
    combined with the exact affine weight, and errors raised at a bracket
    point propagate. Cache fractions outside [0, 1] raise ``OutOfRange``.
    Each corner is evaluated once, at rho = 1, into a bounded cache keyed by
    ``ndt_fn`` itself (an error is not kept: it is raised on every call); the
    corners mix at rho = 1 and one ``at_rho`` call scales the mix to ``rho``.
    """
    mu_r = as_fraction(mu_r)
    mu_t = as_fraction(mu_t)
    param = fractional_level(normalizer, h, r, mu_r, mu_t)
    if param.denominator == 1:
        return at_rho(_corner(ndt_fn, h, r, normalizer, param.numerator, mu_t), rho)

    p_lo = math.floor(param)
    p_hi = p_lo + 1
    alpha = param - p_lo  # affine in mu_r, so this is the weight of the upper point
    v_hi, v_lo = (_corner(ndt_fn, h, r, normalizer, p, mu_t) for p in (p_hi, p_lo))
    fronthaul = alpha * v_hi.fronthaul + (1 - alpha) * v_lo.fronthaul
    edge = alpha * v_hi.edge + (1 - alpha) * v_lo.edge
    sharing = SharingDecomposition(v_hi.sharing.mu_hi, v_lo.sharing.mu_lo, alpha, param_hi=p_hi, param_lo=p_lo)
    return at_rho(NdtValue(fronthaul + edge, fronthaul, edge, v_hi.scheme, "shared", sharing), rho)


@lru_cache(maxsize=4096)
def _corner(ndt_fn, h: int, r: int, normalizer: str, p: int, mu_t: Fraction) -> NdtValue:
    """``ndt_fn`` at the integral level ``p`` and rho = 1, carrying its trivial sharing (alpha = 1)."""
    mu = level_mu(normalizer, h, r, p, mu_t)
    v = ndt_fn(h, r, mu, mu_t, 1)
    sharing = SharingDecomposition(mu_hi=mu, mu_lo=mu, alpha=Fraction(1), param_hi=p, param_lo=p)
    return NdtValue(v.total, v.fronthaul, v.edge, v.scheme, v.branch, sharing)


def argmin_key(scheme: str, value: NdtValue):
    # ties: prefer a value that used no fronthaul, then a scheme that never
    # uses fronthaul by construction, then lexicographic ids
    return (value.total, value.fronthaul != 0, scheme not in FRONTHAUL_FREE, scheme)
