"""Maximum-distance-separable erasure coding over GF(2^8).

Files are split into ``r`` equal segments and expanded to ``h`` coded chunks
with a systematic Vandermonde (Reed-Solomon) generator: chunks ``1..r`` are
the plain segments, chunks ``r+1..h`` are parity, and any ``r`` distinct
chunks reconstruct the file exactly. The symbol field is GF(2^8) with the
primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), which caps ``h`` at
255.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DuplicateChunk, FieldOverflow, LengthError, SingularSystem

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic via exp/log tables
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


def gf_pow(a: int, n: int) -> int:
    if n == 0:
        return 1
    if a == 0:
        return 0
    return GF_EXP[(GF_LOG[a] * n) % 255]


@lru_cache(maxsize=None)
def _mul_table(c: int) -> bytes:
    # translation table for scalar-multiplying a whole payload at once
    return bytes(gf_mul(c, x) for x in range(256))


def gf_scale(payload: bytes, c: int) -> bytes:
    if c == 0:
        return bytes(len(payload))
    if c == 1:
        return payload
    return payload.translate(_mul_table(c))


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise LengthError(f"xor of unequal lengths {len(a)} != {len(b)}")
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


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
        return self.contents[n - 1]


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
def generator_rows(h: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the systematic Vandermonde generator (evaluation points 1..h).

    Row ``i`` (1-based) maps the r file segments to chunk ``i``; rows 1..r
    are unit vectors, so the code is systematic.
    """
    vtop = [[gf_pow(x, j) for j in range(r)] for x in range(1, r + 1)]
    vtop_inv = gf_matrix_inv(vtop)
    rows = []
    for x in range(1, h + 1):
        v = [gf_pow(x, j) for j in range(r)]
        rows.append(
            tuple(
                _gf_dot(v, [vtop_inv[jj][col] for jj in range(r)])
                for col in range(r)
            )
        )
    return tuple(rows)


@lru_cache(maxsize=1024)
def _decoder_rows(chunk_ids: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Inverse of the generator rows of the ascending ``chunk_ids``."""
    rows = generator_rows(chunk_ids[-1], len(chunk_ids))
    return tuple(map(tuple, gf_matrix_inv([list(rows[i - 1]) for i in chunk_ids])))


def _gf_dot(a: list[int], b: list[int]) -> int:
    acc = 0
    for x, y in zip(a, b):
        acc ^= gf_mul(x, y)
    return acc


def _combine(coeffs: tuple[int, ...], segments: list[bytes]) -> bytes:
    acc = bytes(len(segments[0]))
    for c, seg in zip(coeffs, segments):
        if c:
            acc = xor_bytes(acc, gf_scale(seg, c))
    return acc


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
    if h > 255:
        raise FieldOverflow(f"h={h} exceeds the 8-bit symbol field (max 255)")
    if len(file) % r != 0:
        raise LengthError(f"file length {len(file)} not divisible by r={r}")
    seg_len = len(file) // r
    segments = [file[j * seg_len:(j + 1) * seg_len] for j in range(r)]
    rows = generator_rows(h, r)
    chunks = []
    for i in range(1, h + 1):
        payload = segments[i - 1] if i <= r else _combine(rows[i - 1], segments)
        chunks.append(CodedChunk(file_id=file_id, chunk_id=i, payload=payload))
    return chunks


def mds_decode(chunks: list[CodedChunk]) -> bytes:
    """Reconstruct the original file from any ``r`` distinct coded chunks.

    Raises
    ------
    DuplicateChunk
        If two chunks share a chunk id or the chunks mix file ids.
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
    m_inv = _decoder_rows(tuple(c.chunk_id for c in ordered))
    payloads = [c.payload for c in ordered]
    segments = [_combine(m_inv[j], payloads) for j in range(r)]
    return b"".join(segments)
