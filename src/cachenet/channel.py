"""Partially connected channel draws, null spaces, and zero-forcing beamformers.

The channel between the ENs and a UE only exists on the UE's serving subset,
so every row of the K x H gain matrix has structural zeros outside that
subset. A beam is a null-space vector of the rows it zero-forces. The matrices
are tiny, so every beam of a delivery comes from one batched SVD per null-set
size (relative tolerance), and one gain product decides the coefficient floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateChannel, EmptyNullSpace
from .topology import NetworkTopology

ZF_RESIDUAL_TOL = 1e-9
DESIRED_COEF_MIN = 1e-6

SUM_OF_BASIS = "sum-of-basis"
SINGLE_NULL = "single-null"


@dataclass(frozen=True)
class ChannelMatrix:
    """K x H complex gains with exact zeros where a UE does not hear an EN."""

    topology: NetworkTopology
    seed: int
    matrix: np.ndarray = field(repr=False)

    def row(self, ue: int) -> np.ndarray:
        return self.matrix[ue - 1]

    def redraw(self, attempt: int) -> "ChannelMatrix":
        """Deterministic replacement draw for degenerate channels."""
        return draw_channel(self.topology, seed=(self.seed, attempt))


def draw_channel(t: NetworkTopology, seed) -> ChannelMatrix:
    """Draw i.i.d. unit complex Gaussian gains on the connectivity support.

    The same seed always produces the same matrix; ``seed`` may be an int or
    a sequence of ints (used for deterministic redraws).
    """
    # per UE, the real then the imaginary parts of its r gains, in UE order
    re, im = np.random.default_rng(seed).standard_normal((t.num_ues, 2, t.r)).transpose(1, 0, 2)
    m = np.zeros((t.num_ues, t.num_ens), dtype=np.complex128)
    m[np.arange(t.num_ues)[:, None], np.array(t.ue_to_ens) - 1] = (re + 1j * im) / np.sqrt(2)
    base = seed if isinstance(seed, int) else seed[0]
    return ChannelMatrix(topology=t, seed=base, matrix=m)


def _kernels(stack: np.ndarray):
    """Right singular vectors ``vh`` of every matrix of a stack (n, rows, cols), from one
    SVD, and the (n, cols) mask of those spanning each kernel; asserts as null_space."""
    _, s, vh = np.linalg.svd(stack)
    top = s.max(axis=1, initial=0.0)
    scale = np.where(top > 0, top, 1.0)
    kernel = np.arange(stack.shape[2]) >= (s > ZF_RESIDUAL_TOL * scale[:, None]).sum(axis=1)[:, None]
    resid = np.linalg.norm(stack @ vh.conj().transpose(0, 2, 1), axis=1)
    assert (resid <= ZF_RESIDUAL_TOL * np.maximum(scale, 1.0)[:, None])[kernel].all(), "kernel residual too large"
    return vh, kernel


def null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis of ``m`` (columns), via SVD.

    Asserts the scheme-side convention rows <= columns, and that every basis
    vector has relative residual at most ``ZF_RESIDUAL_TOL``. An empty basis
    (shape (cols, 0)) is a legal return.
    """
    assert m.shape[0] <= m.shape[1], f"null_space expects rows <= columns, got {m.shape}"
    vh, kernel = _kernels(m[None])
    return vh[0, kernel[0]].conj().T


@dataclass(frozen=True)
class Beamformer:
    """A transmit direction that nulls the rows of a zero-forcing set."""

    zero_forcing_set: tuple[int, ...]
    vector: np.ndarray = field(repr=False)
    mode: str = SUM_OF_BASIS


def _zero_forcing_beams(matrix: np.ndarray, sets: list, mode: str, receivers_by_set=None) -> np.ndarray:
    """Unit beams, one row per set of sorted UE tuples ``sets``, each nulling its set's rows of ``matrix``.

    Sets of one size share one ``_kernels`` call, and the coefficient floor
    of every beam is decided from one gain product ``|matrix @ beams|``. The
    error raised is the one the first failing set in ``sets`` order would
    meet (see make_beamformer).
    """
    k, h = matrix.shape
    over = next((i for i, pi in enumerate(sets) if len(pi) > h - 1), len(sets))
    head = sets[:over]
    if head and mode not in (SUM_OF_BASIS, SINGLE_NULL):
        raise ValueError(f"unknown beamformer mode {mode!r}")
    beams = np.full((len(head), h), 1 / np.sqrt(h), dtype=np.complex128)  # an empty set keeps this uniform beam
    # the floor holds at a set's receivers, by default every UE, outside the set
    listeners = [receivers_by_set.get(pi) if receivers_by_set else None for pi in head]
    check = np.array([r is None for r in listeners], dtype=bool)[:, None].repeat(k, axis=1)
    heard = [(i, u - 1) for i, r in enumerate(listeners) if r is not None for u in r]
    check[tuple(np.array(heard, dtype=np.int64).reshape(-1, 2).T)] = True
    for size in sorted({len(pi) for pi in head} - {0}):
        at = np.array([i for i, pi in enumerate(head) if len(pi) == size])
        rows = np.array([head[i] for i in at], dtype=np.int64) - 1
        vh, kernel = _kernels(matrix[rows])
        if mode == SINGLE_NULL:
            kernel &= np.cumsum(kernel, axis=1) == 1  # its first kernel vector only
        v = (vh * kernel[..., None]).sum(axis=1).conj()
        beams[at] = v / np.linalg.norm(v, axis=1, keepdims=True)
        check[at[:, None], rows] = False

    gain = np.abs(matrix @ beams.T).T
    fail = check & (gain < DESIRED_COEF_MIN)
    if fail.any():
        first, ue = np.unravel_index(np.argmax(fail), fail.shape)
        raise DegenerateChannel(f"receiver {ue + 1} coefficient {gain[first, ue]:.2e} below {DESIRED_COEF_MIN}")
    if over < len(sets):
        raise EmptyNullSpace(f"cannot zero-force {len(sets[over])} UEs with {h} ENs")
    return beams


def make_beamformer(ch: ChannelMatrix, pi, mode: str, receivers=None) -> Beamformer:
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
    pi = tuple(sorted(pi))
    rec = None if receivers is None else {pi: receivers}
    return Beamformer(zero_forcing_set=pi, vector=_zero_forcing_beams(ch.matrix, [pi], mode, rec)[0], mode=mode)


def beamformers_for(
    ch: ChannelMatrix, pi_sets, mode: str, max_attempts: int = 16, receivers_by_set=None
):
    """Beamformers for every zero-forcing set, redrawing degenerate channels.

    Returns ``(mapping, channel_used, attempts)`` where ``mapping`` is keyed
    by the sorted tuple of each set. ``receivers_by_set`` optionally maps
    those keys to the UEs whose coefficient floor must hold (see
    make_beamformer). Redraws are deterministic (seeded by the original seed
    and the attempt number); channels that stay degenerate for
    ``max_attempts`` draws propagate DegenerateChannel.
    """
    keys = list(dict.fromkeys(tuple(sorted(pi)) for pi in pi_sets))
    for attempt in range(max_attempts):
        current = ch.redraw(attempt) if attempt else ch
        try:
            beams = _zero_forcing_beams(current.matrix, keys, mode, receivers_by_set)
            return {key: Beamformer(key, v, mode) for key, v in zip(keys, beams)}, current, attempt
        except DegenerateChannel:
            if attempt == max_attempts - 1:
                raise
    raise DegenerateChannel("unreachable")
