"""Exact delivery times re-derived from the closed forms, without cachenet.

The benchmark compares every NDT and every sweep row it times against the
values here, so a build that computes something different fails the run
instead of scoring. All arithmetic is on ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, floor

SCHEMES = ("mdsia", "soft", "zf")
ZERO = Fraction(0)
NA = "n/a"  # a threshold the coded scheme does not define


def point(scheme: str, h: int, r: int, p: int, mu_t: Fraction, rho: Fraction):
    """(fronthaul, edge) of a scheme at integral parameter ``p``, or None
    where the scheme does not cover the point (connectivity 3+ below
    t = L-2 for the aligned scheme)."""
    k, l = comb(h, r), comb(h - 1, r - 1)
    if scheme == "mdsia":
        if r != 2 and p < l - 2:
            return None
        scale = Fraction(l - p, r)
        clamp = max(ZERO, 1 - mu_t * r)
        edge = scale * (Fraction(r - 1, l) + Fraction(1, p + 1))
        return scale * clamp / ((p + 1) * rho), edge
    edge = Fraction(k - p, min(h + p, k))
    if scheme == "soft":
        return (1 - mu_t) * Fraction(k - p, h) / rho, edge
    return ZERO, mu_t * edge


def param(scheme: str, h: int, r: int, mu_r: Fraction, mu_t: Fraction):
    """The scheme's (possibly fractional) integer parameter at a cache point,
    or None outside its region."""
    k, l = comb(h, r), comb(h - 1, r - 1)
    if scheme == "mdsia":
        return mu_r * l
    if scheme == "soft":
        return mu_r * k
    if mu_r + mu_t < 1:
        return None
    return Fraction(k) if mu_t == 0 else (mu_r + mu_t - 1) * k / mu_t


def shared(scheme, h, r, mu_r, mu_t, rho):
    """Memory-shared (fronthaul, edge, alpha, lo, hi), or None for n/a."""
    x = param(scheme, h, r, mu_r, mu_t)
    if x is None:
        return None
    if scheme == "zf" and mu_t == 0:  # only mu_r = 1 reaches here: all cached
        return ZERO, ZERO, Fraction(1), int(x), int(x)
    lo = floor(x)
    if x == lo:
        v = point(scheme, h, r, lo, mu_t, rho)
        return None if v is None else (*v, Fraction(1), lo, lo)
    alpha = x - lo
    v_hi = point(scheme, h, r, lo + 1, mu_t, rho)
    v_lo = point(scheme, h, r, lo, mu_t, rho)
    if v_hi is None or v_lo is None:
        return None
    mix = [alpha * a + (1 - alpha) * b for a, b in zip(v_hi, v_lo)]
    return mix[0], mix[1], alpha, lo, lo + 1


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _cell(x: Fraction) -> str:
    return f"{_frac(x)}|{float(x)!r}"


def sweep_rows(h: int, r: int, mu_t: Fraction, mu_r: Fraction, rhos) -> list[str]:
    """The CSV body lines ``cachenet sweep`` must print for one mu_r."""
    lines = []
    for rho in sorted(rhos):
        prefix = [str(h), str(r), _cell(mu_r), _cell(mu_t), _cell(rho)]
        values = {s: shared(s, h, r, mu_r, mu_t, rho) for s in SCHEMES}
        best = min(
            (s for s in SCHEMES if values[s] is not None),
            key=lambda s: (sum(values[s][:2]), values[s][0] != 0, s != "zf", s),
        )
        for s in SCHEMES:
            v = values[s]
            if v is None:
                lines.append(",".join(prefix + [s] + ["n/a"] * 6 + ["0"]))
                continue
            front, edge, alpha, lo, hi = v
            cells = [_cell(front + edge), _cell(front), _cell(edge)]
            flag = "1" if s == best else "0"
            lines.append(",".join(prefix + [s] + cells + [_frac(alpha), str(lo), str(hi), flag]))
    return lines


def rho_threshold(h: int, r: int, mu_r: Fraction, mu_t: Fraction):
    """Fronthaul gain where cloud-free delivery stops winning (mu_r + mu_t >= 1):
    0 when the coded scheme uses no fronthaul, None when it never wins, and
    ``NA`` where the coded scheme does not cover the point."""
    coded = shared("mdsia", h, r, mu_r, mu_t, Fraction(1))
    if coded is None:
        return NA
    b, e = coded[:2]
    if b == 0:
        return ZERO
    front, edge, *_ = shared("zf", h, r, mu_r, mu_t, Fraction(1))
    z = front + edge
    return None if z <= e else b / (z - e)
