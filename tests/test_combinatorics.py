"""Tests for the shared subset combinatorics: rank, cache level, file sizing."""

from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cachenet as cn
from cachenet.combinatorics import (
    NORMALIZERS,
    fractional_level,
    level,
    level_mu,
    lex_ranks,
    smallest_file_bits,
)
from cachenet.errors import IndivisibleFileSize

from oracles import lex_rank


# ---------------------------------------------------------------------------
# subset rank
# ---------------------------------------------------------------------------


def mask(elements, width: int) -> np.ndarray:
    out = np.zeros(width, dtype=bool)
    out[list(elements)] = True
    return out


#: a pool of up to 10 elements out of 30, and a subset of it
pool_and_subset = st.sets(st.integers(min_value=0, max_value=29), max_size=10).flatmap(
    lambda pool: st.tuples(st.just(sorted(pool)), st.sets(st.sampled_from(sorted(pool))).map(sorted))
    if pool
    else st.just(([], []))
)


@given(st.lists(pool_and_subset, min_size=1, max_size=5))
def test_lex_ranks_is_the_lexicographic_position(rows):
    # one call ranks rows that differ in pool and in size
    want = [lex_rank(pool, subset) for pool, subset in rows]
    members = np.array([mask(subset, 30) for _, subset in rows])
    assert lex_ranks(members, np.array([mask(pool, 30) for pool, _ in rows])).tolist() == want
    # the same subsets as positions in a whole pool, as the schemes rank them
    for (pool, subset), rank in zip(rows, want):
        assert lex_ranks(mask([pool.index(e) for e in subset], len(pool)), True) == rank


# ---------------------------------------------------------------------------
# smallest file size
# ---------------------------------------------------------------------------

constraint = st.tuples(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda d: st.integers(min_value=0, max_value=d).map(lambda n: Fraction(n, d))
    ),
    st.integers(min_value=1, max_value=8),
)


@given(st.lists(constraint, min_size=1, max_size=3))
def test_smallest_file_bits_matches_brute_force(constraints):
    bound = lcm(*(unit * frac.denominator for frac, unit in constraints))
    brute = next(
        f for f in range(1, bound + 1)
        if all((frac.numerator * f) % (unit * frac.denominator) == 0 for frac, unit in constraints)
    )
    assert smallest_file_bits(*constraints) == brute


def _smallest_accepted(place, t, mu_r, mu_t, limit):
    for f_bits in range(8, limit + 1, 8):
        try:
            place(cn.random_library(1, f_bits, seed=0), t, mu_r, mu_t)
        except IndivisibleFileSize:
            continue
        return f_bits
    raise AssertionError("no file size up to the limit was accepted")


@pytest.mark.parametrize("h,r,mu_r,mu_t", [
    (5, 2, Fraction(1, 4), Fraction(0)),
    (5, 2, Fraction(1, 4), Fraction(3, 10)),
    (4, 3, Fraction(1, 3), Fraction(1, 5)),
])
def test_mdsia_minimal_size_is_the_smallest_accepted(h, r, mu_r, mu_t):
    t = cn.build_topology(h, r)
    f = cn.minimal_file_bits(t, level("L", h, r, mu_r, mu_t), mu_t)
    assert _smallest_accepted(cn.mdsia_place, t, mu_r, mu_t, f) == f


@pytest.mark.parametrize("h,r,mu_r,mu_t", [
    (4, 2, Fraction(1, 3), Fraction(0)),
    (4, 2, Fraction(1, 3), Fraction(1, 2)),
    (3, 1, Fraction(1, 3), Fraction(2, 5)),
])
def test_soft_minimal_size_is_the_smallest_accepted(h, r, mu_r, mu_t):
    f = cn.minimal_soft_file_bits(h, r, mu_r, mu_t)
    assert _smallest_accepted(cn.soft_place, cn.build_topology(h, r), mu_r, mu_t, f) == f


@pytest.mark.parametrize("h,r,mu_r,mu_t", [
    (4, 2, Fraction(2, 3), Fraction(1, 2)),
    (3, 1, Fraction(5, 6), Fraction(1, 2)),
    (4, 2, Fraction(1), Fraction(0)),
])
def test_zf_minimal_size_is_the_smallest_accepted(h, r, mu_r, mu_t):
    f = cn.minimal_zf_file_bits(h, r, mu_r, mu_t)
    assert _smallest_accepted(cn.zf_place, cn.build_topology(h, r), mu_r, mu_t, f) == f


# ---------------------------------------------------------------------------
# cache level and its inverse
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda h: st.tuples(st.just(h), st.integers(min_value=1, max_value=h - 1))
    ),
    st.sampled_from(NORMALIZERS),
    st.integers(min_value=1, max_value=10).flatmap(
        lambda d: st.integers(min_value=1, max_value=d).map(lambda n: Fraction(n, d))
    ),
    st.data(),
)
def test_level_inverts_level_mu(hr, normalizer, mu_t, data):
    h, r = hr
    top = comb(h - 1, r - 1) if normalizer == "L" else comb(h, r)
    p = data.draw(st.integers(min_value=0, max_value=top))
    mu_r = level_mu(normalizer, h, r, p, mu_t)
    assert level(normalizer, h, r, mu_r, mu_t) == p
    assert fractional_level(normalizer, h, r, mu_r, mu_t) == p
