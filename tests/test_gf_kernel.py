"""GF(2^8) product table and matrix kernel; the library's file access."""

import re

import numpy as np
import pytest

from cachenet import mds_decode, mds_encode, random_library
from cachenet.errors import OutOfRange
from cachenet.mdscode import gf_mul

from oracles import peasant_gf_mul, peasant_gf_pow


def _peasant_table() -> np.ndarray:
    return np.array([[peasant_gf_mul(a, b) for b in range(256)] for a in range(256)], dtype=np.uint8)


def test_scalar_multiply_matches_peasant_oracle_on_every_pair():
    expected = _peasant_table()
    assert all(gf_mul(a, b) == expected[a, b] for a in range(256) for b in range(256))


def test_product_table_matches_peasant_oracle_on_every_pair():
    from cachenet.mdscode import GF_MUL_TABLE

    assert GF_MUL_TABLE.shape == (256, 256) and GF_MUL_TABLE.dtype == np.uint8
    assert not GF_MUL_TABLE.flags.writeable
    assert np.array_equal(GF_MUL_TABLE, _peasant_table())


def test_matrix_kernel_matches_scalar_products():
    from cachenet.mdscode import gf_matmul

    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    b = rng.integers(0, 256, (2, 4, 7), dtype=np.uint8)
    got = gf_matmul(a, b)  # batched over b's leading axis, as numpy matmul
    assert got.shape == (2, 3, 7) and got.dtype == np.uint8
    for n in range(2):
        for i in range(3):
            for j in range(7):
                acc = 0
                for x in range(4):
                    acc ^= peasant_gf_mul(int(a[i, x]), int(b[n, x, j]))
                assert got[n, i, j] == acc


def test_encode_then_decode_through_parity_chunks():
    file = random_library(1, 48 * 8, 11).file(1)
    chunks = mds_encode(file, 7, 3, file_id=1)
    assert mds_decode([chunks[6], chunks[3], chunks[4]]) == file


def test_library_file_rejects_ids_outside_the_library():
    lib = random_library(6, 120, seed=0)
    assert [lib.file(n) for n in range(1, 7)] == list(lib.contents)
    for n in (0, -1, 7):
        with pytest.raises(OutOfRange, match=re.escape("1..6")):
            lib.file(n)


@pytest.mark.parametrize("h, r", [(5, 2), (6, 3), (7, 7), (12, 4)])
def test_generator_maps_the_vandermonde_top_onto_every_evaluation_point(h, r):
    from cachenet.mdscode import generator_rows

    rows = generator_rows(h, r)
    for x in range(1, h + 1):
        for j in range(r):
            acc = 0
            for k in range(r):
                acc ^= peasant_gf_mul(int(rows[x - 1][k]), peasant_gf_pow(k + 1, j))
            assert acc == peasant_gf_pow(x, j)


def test_field_overflow_is_named_on_every_path():
    from cachenet import build_topology, mdsia_place, minimal_file_bits
    from cachenet.errors import FieldOverflow
    from cachenet.mdscode import CodedChunk

    t = build_topology(256, 1)
    with pytest.raises(FieldOverflow):
        mdsia_place(random_library(t.k, minimal_file_bits(t, 0, 0), 0), t, 0, 0)
    with pytest.raises(FieldOverflow):
        mds_decode([CodedChunk(file_id=1, chunk_id=2, payload=b"a"), CodedChunk(file_id=1, chunk_id=300, payload=b"b")])
