"""Erasure code: field arithmetic, systematic layout, any-r recovery."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachenet import (
    DuplicateChunk,
    FieldOverflow,
    LengthError,
    OutOfRange,
    mds_decode,
    mds_encode,
    random_library,
)
from cachenet.mdscode import GF_POLY, CodedChunk, gf_inv, gf_mul

from oracles import peasant_gf_mul


def test_field_polynomial_pinned():
    assert GF_POLY == 0x11D


def test_field_multiply_matches_peasant_oracle():
    for a in range(0, 256, 7):
        for b in range(0, 256, 5):
            assert gf_mul(a, b) == peasant_gf_mul(a, b)
    assert gf_mul(255, 255) == peasant_gf_mul(255, 255)


def test_field_inverse():
    for a in range(1, 256):
        assert gf_mul(a, gf_inv(a)) == 1


def test_systematic_prefix():
    chunks = mds_encode(bytes([0x12, 0x34]), 5, 2)
    assert len(chunks) == 5
    assert chunks[0].payload == bytes([0x12])
    assert chunks[1].payload == bytes([0x34])
    for c in chunks[2:]:
        assert len(c.payload) == 1


def test_rate_one_code_is_plain_split():
    file = bytes(range(12))
    chunks = mds_encode(file, 3, 3)
    assert [c.payload for c in chunks] == [file[0:4], file[4:8], file[8:12]]


def test_round_trip_all_pairs():
    file = random_library(1, 64 * 8, 7).file(1)
    chunks = mds_encode(file, 5, 2, file_id=1)
    for pair in combinations(chunks, 2):
        assert mds_decode(list(pair)) == file


def test_round_trip_exhaustive_subsets_h6():
    file = random_library(1, 30 * 8, 3).file(1)
    for r in (2, 3, 5):
        chunks = mds_encode(file, 6, r, file_id=1)
        for sub in combinations(chunks, r):
            assert mds_decode(list(sub)) == file


@settings(max_examples=100)
@given(st.binary(min_size=6, max_size=60), st.sampled_from([(4, 2), (5, 2), (6, 3)]))
def test_mds_property_random_files(blob, shape):
    h, r = shape
    file = blob + bytes(-len(blob) % (2 * r * 3))  # pad to a common multiple
    chunks = mds_encode(file, h, r)
    for sub in combinations(range(h), r):
        assert mds_decode([chunks[i] for i in sub]) == file


def test_decode_rejects_duplicates_and_empty_input():
    file = bytes(range(8))
    chunks = mds_encode(file, 5, 2, file_id=1)
    with pytest.raises(DuplicateChunk):
        mds_decode([chunks[0], chunks[0]])
    with pytest.raises(LengthError):
        mds_decode([])


@pytest.mark.parametrize("chunk_id", [-1, 0, -3])
def test_decode_rejects_chunk_ids_below_one(chunk_id):
    # -1 used to be read as the last generator row, 0 as a singular system
    chunks = mds_encode(bytes(range(8)), 5, 2, file_id=1)
    with pytest.raises(OutOfRange, match=rf"^no chunk {chunk_id}: chunk ids run 1\.\.h$"):
        mds_decode([CodedChunk(1, chunk_id, chunks[0].payload), chunks[1]])


def test_mixed_files_rejected():
    a = mds_encode(bytes(range(8)), 5, 2, file_id=1)
    b = mds_encode(bytes(range(8, 16)), 5, 2, file_id=2)
    with pytest.raises(DuplicateChunk):
        mds_decode([a[0], b[1]])


def test_field_size_bound():
    with pytest.raises(FieldOverflow):
        mds_encode(bytes(512), 256, 2)


def test_length_divisibility():
    with pytest.raises(LengthError):
        mds_encode(bytes(7), 5, 2)
