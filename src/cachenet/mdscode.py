"""Maximum-distance-separable erasure coding over GF(2^8).

Files are split into ``r`` equal segments and expanded to ``h`` coded chunks
with a systematic Vandermonde (Reed-Solomon) generator: chunks ``1..r`` are
the plain segments, chunks ``r+1..h`` are parity, and any ``r`` distinct
chunks reconstruct the file exactly. The symbol field is GF(2^8) with the
primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), which caps ``h`` at
255.

All byte work is one kernel, ``gf_matmul``: a GF(2^8) matrix product of
uint8 arrays through a 256 x 256 product table. Encoding multiplies the
generator by ``(r, segment)`` arrays (a file, or a whole library at once);
decoding multiplies the inverse of the received chunks' generator rows by
their ``(r, chunk)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import frozen_table
from .errors import DuplicateChunk, FieldOverflow, LengthError, OutOfRange, SingularSystem

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic via exp/log tables and the product table
# ---------------------------------------------------------------------------

GF_POLY = 0x11D
GF_EXP = [0] * 512
GF_LOG = [0] * 256

_x = 1
for _i in range(255):
    GF_EXP[_i] = _x
    GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= GF_POLY
for _i in range(255, 512):
    GF_EXP[_i] = GF_EXP[_i - 255]
del _x, _i


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return GF_EXP[GF_LOG[a] + GF_LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(2^8)")
    return GF_EXP[255 - GF_LOG[a]]


#: GF_MUL_TABLE[a, b] is the product a * b, GF_EXP[GF_LOG[a] + GF_LOG[b]]; row and column 0 are zero
GF_MUL_TABLE = np.lib.stride_tricks.sliding_window_view(np.array(GF_EXP, np.uint8), 256)[GF_LOG].take(GF_LOG, axis=1)
GF_MUL_TABLE[0] = GF_MUL_TABLE[:, 0] = 0
GF_MUL_TABLE.flags.writeable = False


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2^8) product ``a @ b`` of uint8 arrays, batched over leading axes as numpy's ``@``.

    One table gather per inner index, XOR-accumulated into the output, so
    no temporary is larger than the output.
    """
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]), dtype=np.uint8)
    for j in range(a.shape[-1]):
        out ^= GF_MUL_TABLE[a[..., :, j, None], b[..., None, j, :]]
    return out


def gf_matrix_inv(m: list[list[int]]) -> list[list[int]]:
    """Invert a square GF(2^8) matrix by Gauss-Jordan elimination."""
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((row for row in range(col, n) if aug[row][col] != 0), None)
        if pivot is None:
            raise SingularSystem("matrix not invertible over GF(2^8)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = gf_inv(aug[col][col])
        aug[col] = [gf_mul(inv_p, v) for v in aug[col]]
        for row in range(n):
            if row != col and aug[row][col] != 0:
                factor = aug[row][col]
                aug[row] = [v ^ gf_mul(factor, p) for v, p in zip(aug[row], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# library and coded chunks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Library:
    """A set of equal-length files addressed by 1-based file ids."""

    n_files: int
    file_size_bits: int
    contents: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if self.file_size_bits % 8 != 0:
            raise LengthError("file size must be a whole number of bytes")
        if len(self.contents) != self.n_files:
            raise LengthError("contents count disagrees with n_files")
        nbytes = self.file_size_bits // 8
        if any(len(f) != nbytes for f in self.contents):
            raise LengthError("all files must have file_size_bits bits")

    def file(self, n: int) -> bytes:
        if not 1 <= n <= self.n_files:
            raise OutOfRange(f"no file {n}: file ids run 1..{self.n_files}")
        return self.contents[n - 1]

    @property
    def array(self) -> np.ndarray:
        """Every file as one read-only ``(n_files, file bytes)`` uint8 array, joined afresh on
        each read: a cached copy would double the memory of every library kept alive."""
        return np.frombuffer(b"".join(self.contents), dtype=np.uint8).reshape(self.n_files, self.file_size_bits // 8)


def random_library(n_files: int, file_size_bits: int, seed: int) -> Library:
    import random

    rng = random.Random(seed)
    nbytes = file_size_bits // 8
    return Library(
        n_files=n_files,
        file_size_bits=file_size_bits,
        contents=tuple(rng.randbytes(nbytes) for _ in range(n_files)),
    )


@dataclass(frozen=True)
class CodedChunk:
    """One of ``h`` coded chunks of a file; payload carries 1/r of the file."""

    file_id: int
    chunk_id: int
    payload: bytes


@lru_cache(maxsize=None)
def generator_rows(h: int, r: int) -> np.ndarray:
    """Rows of the systematic Vandermonde generator (evaluation points 1..h).

    Row ``i`` (1-based) maps the r file segments to chunk ``i``; rows 1..r
    are unit vectors, so the code is systematic. A read-only ``(h, r)``
    array; raises ``FieldOverflow`` past the 255 evaluation points of GF(2^8).
    """
    if h > 255:
        raise FieldOverflow(f"h={h} exceeds the 8-bit symbol field (max 255)")
    vand = np.array(GF_EXP, np.uint8)[np.outer(GF_LOG[1 : max(h, r) + 1], range(r)) % 255]  # x^j at x = 1, 2, ...
    return frozen_table(gf_matmul(vand[:h], np.array(gf_matrix_inv(vand[:r].tolist()), np.uint8)), np.uint8)


@lru_cache(maxsize=1024)
def decoder_rows(chunk_ids: tuple[int, ...]) -> np.ndarray:
    """Inverse of the generator rows of the ascending ``chunk_ids``, read-only."""
    if chunk_ids[0] < 1:
        raise OutOfRange(f"no chunk {chunk_ids[0]}: chunk ids run 1..h")
    rows = generator_rows(chunk_ids[-1], len(chunk_ids))
    return frozen_table(gf_matrix_inv([rows[i - 1].tolist() for i in chunk_ids]), np.uint8)


def mds_encode(file: bytes, h: int, r: int, file_id: int = 0) -> list[CodedChunk]:
    """Encode ``file`` into ``h`` coded chunks, any ``r`` of which decode it.

    Chunks 1..r are the plain r-way split of the file (systematic prefix);
    the rest are Vandermonde parity.

    Raises
    ------
    FieldOverflow
        If ``h`` exceeds the 255 distinct evaluation points of GF(2^8).
    LengthError
        If the file length is not divisible by ``r``.
    """
    rows = generator_rows(h, r)
    if len(file) % r != 0:
        raise LengthError(f"file length {len(file)} not divisible by r={r}")
    coded = gf_matmul(rows, np.frombuffer(file, dtype=np.uint8).reshape(r, -1))
    return [CodedChunk(file_id=file_id, chunk_id=i, payload=c.tobytes()) for i, c in enumerate(coded, start=1)]


def mds_decode(chunks: list[CodedChunk]) -> bytes:
    """Reconstruct the original file from any ``r`` distinct coded chunks.

    Raises
    ------
    DuplicateChunk
        If two chunks share a chunk id or the chunks mix file ids.
    OutOfRange
        If a chunk id is below 1.
    SingularSystem
        Internal assertion; cannot trigger for distinct Vandermonde ids.
    """
    r = len(chunks)
    if r == 0:
        raise LengthError("cannot decode from zero chunks")
    ids = [c.chunk_id for c in chunks]
    if len(set(ids)) != r:
        raise DuplicateChunk(f"duplicate chunk ids in {ids}")
    if len({c.file_id for c in chunks}) != 1:
        raise DuplicateChunk("chunks from different files")
    if len({len(c.payload) for c in chunks}) != 1:
        raise LengthError("chunk payloads of unequal length")

    ordered = sorted(chunks, key=lambda c: c.chunk_id)
    payloads = np.frombuffer(b"".join(c.payload for c in ordered), dtype=np.uint8).reshape(r, -1)
    return gf_matmul(decoder_rows(tuple(c.chunk_id for c in ordered)), payloads).tobytes()
