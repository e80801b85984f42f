"""Partially connected channel draws, null spaces, and zero-forcing beamformers.

The channel between the ENs and a UE only exists on the UE's serving subset,
so every row of the K x H gain matrix has structural zeros outside that
subset. Beamformers are null-space vectors of the rows being zero-forced;
because the matrices are tiny (at most a few dozen rows), plain SVD with a
relative tolerance is ample.
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


def null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis of ``m`` (columns), via SVD.

    Asserts the scheme-side convention rows <= columns, and that every basis
    vector has relative residual at most ``ZF_RESIDUAL_TOL``. An empty basis
    (shape (cols, 0)) is a legal return.
    """
    rows, cols = m.shape
    assert rows <= cols, f"null_space expects rows <= columns, got {m.shape}"
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    _, s, vh = np.linalg.svd(m)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > ZF_RESIDUAL_TOL * scale))
    basis = vh[rank:].conj().T
    for j in range(basis.shape[1]):
        resid = np.linalg.norm(m @ basis[:, j])
        assert resid <= ZF_RESIDUAL_TOL * max(1.0, scale), "kernel residual too large"
    return basis


@dataclass(frozen=True)
class Beamformer:
    """A transmit direction that nulls the rows of a zero-forcing set."""

    zero_forcing_set: tuple[int, ...]
    vector: np.ndarray = field(repr=False)
    mode: str = SUM_OF_BASIS


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
    t = ch.topology
    pi = tuple(sorted(pi))
    h = t.num_ens
    if len(pi) > h - 1:
        raise EmptyNullSpace(f"cannot zero-force {len(pi)} UEs with {h} ENs")
    if mode not in (SUM_OF_BASIS, SINGLE_NULL):
        raise ValueError(f"unknown beamformer mode {mode!r}")

    if not pi:
        v = np.ones(h, dtype=np.complex128) / np.sqrt(h)
    else:
        stacked = ch.matrix[[u - 1 for u in pi], :]
        basis = null_space(stacked)
        if basis.shape[1] == 0:
            raise EmptyNullSpace(f"no kernel direction for zero-forcing set {pi}")
        v = basis[:, 0] if mode == SINGLE_NULL else basis.sum(axis=1)
        norm = np.linalg.norm(v)
        if norm < ZF_RESIDUAL_TOL:
            raise DegenerateChannel(f"kernel combination vanished for {pi}")
        v = v / norm

    forbidden = set(pi)
    targets = range(1, t.num_ues + 1) if receivers is None else sorted(set(receivers))
    for k in targets:
        if k in forbidden:
            continue
        coef = abs(np.dot(ch.row(k), v))
        if coef < DESIRED_COEF_MIN:
            raise DegenerateChannel(
                f"receiver {k} coefficient {coef:.2e} below {DESIRED_COEF_MIN}"
            )
    return Beamformer(zero_forcing_set=pi, vector=v, mode=mode)


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
    current = ch
    for attempt in range(max_attempts):
        try:
            mapping = {}
            for pi in pi_sets:
                key = tuple(sorted(pi))
                if key not in mapping:
                    rec = receivers_by_set.get(key) if receivers_by_set else None
                    mapping[key] = make_beamformer(current, key, mode, rec)
            return mapping, current, attempt
        except DegenerateChannel:
            if attempt == max_attempts - 1:
                raise
            current = ch.redraw(attempt + 1)
    raise DegenerateChannel("unreachable")
