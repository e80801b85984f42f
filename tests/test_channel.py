"""Channel draws, null spaces, and zero-forcing beamformers."""

import numpy as np
import pytest

from cachenet import (
    DegenerateChannel,
    EmptyNullSpace,
    beamformers_for,
    build_topology,
    draw_channel,
    make_beamformer,
    null_space,
)
from cachenet.channel import (
    DESIRED_COEF_MIN,
    SINGLE_NULL,
    SUM_OF_BASIS,
    ZF_RESIDUAL_TOL,
)

from oracles import draw_channel_per_ue, elimination_rank


def test_draw_is_deterministic():
    t = build_topology(5, 2)
    a = draw_channel(t, 42)
    b = draw_channel(t, 42)
    assert np.array_equal(a.matrix, b.matrix)
    c = draw_channel(t, 43)
    assert not np.array_equal(a.matrix, c.matrix)


@pytest.mark.parametrize("h, r", [(4, 2), (5, 2), (6, 2), (12, 2), (7, 3)])
def test_draw_matches_the_per_ue_draw(h, r):
    t = build_topology(h, r)
    for seed in (0, 1, 12345, (3, 1)):
        assert np.array_equal(draw_channel(t, seed).matrix, draw_channel_per_ue(t, seed))


def test_structural_zeros_and_support():
    t = build_topology(5, 2)
    ch = draw_channel(t, 0)
    for k in range(1, t.k + 1):
        row = ch.row(k)
        support = {i + 1 for i in np.flatnonzero(row)}
        assert support == set(t.ens_of_ue(k))
        assert len(support) == 2


def test_no_exact_duplicates_across_draws():
    t = build_topology(4, 2)
    values = []
    for seed in range(1000):
        ch = draw_channel(t, seed)
        values.extend(ch.matrix[np.nonzero(ch.matrix)].tolist())
    assert len(values) == len(set(values))


def test_null_space_of_zero_matrix():
    # a zero row constrains nothing: kernel is all of C^5
    basis = null_space(np.zeros((1, 5), dtype=np.complex128))
    assert basis.shape == (5, 5)
    assert np.allclose(basis.conj().T @ basis, np.eye(5), atol=1e-12)


def test_null_space_generic_dimensions():
    rng = np.random.default_rng(0)
    for rows, cols in ((3, 4), (4, 5), (2, 6)):
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        basis = null_space(m)
        assert basis.shape == (cols, cols - rows)
        assert np.linalg.norm(m @ basis) <= 1e-9 * np.linalg.norm(basis)
        assert elimination_rank(m) == rows


def test_null_space_dimension_matches_rank_oracle():
    # stacked channel rows with structural zeros: dim = H - rank
    t = build_topology(5, 2)
    ch = draw_channel(t, 7)
    for pi in ((1, 2, 3), (2, 5, 9), (4, 7), (10,)):
        stacked = ch.matrix[[u - 1 for u in pi], :]
        basis = null_space(stacked)
        assert basis.shape[1] == t.h - elimination_rank(stacked)


def test_empty_zero_forcing_set_gives_uniform_vector():
    t = build_topology(4, 2)
    ch = draw_channel(t, 3)
    bf = make_beamformer(ch, (), SUM_OF_BASIS)
    assert np.allclose(bf.vector, np.ones(4) / 2)


def test_single_null_mode_with_h_minus_one_constraints():
    t = build_topology(4, 2)  # K=6
    ch = draw_channel(t, 1)
    bf = make_beamformer(ch, (4, 5, 6), SINGLE_NULL)
    stacked = ch.matrix[[3, 4, 5], :]
    assert np.linalg.norm(stacked @ bf.vector) <= ZF_RESIDUAL_TOL * np.linalg.norm(bf.vector)
    # every other UE hears the beam
    for ue in (1, 2, 3):
        assert abs(ch.row(ue) @ bf.vector) >= DESIRED_COEF_MIN


def test_sum_of_basis_mode_with_wide_null_space():
    t = build_topology(5, 2)  # K=10; |pi|=3 leaves a 2-dim kernel
    ch = draw_channel(t, 5)
    bf = make_beamformer(ch, (1, 2, 3), SUM_OF_BASIS)
    stacked = ch.matrix[[0, 1, 2], :]
    assert np.linalg.norm(stacked @ bf.vector) <= ZF_RESIDUAL_TOL * np.linalg.norm(bf.vector)
    assert null_space(stacked).shape[1] == 2


def test_oversized_zero_forcing_set_is_a_caller_bug():
    t = build_topology(4, 2)
    ch = draw_channel(t, 0)
    with pytest.raises(EmptyNullSpace):
        make_beamformer(ch, (1, 2, 3, 4), SINGLE_NULL)


def test_beamformed_signal_respects_connectivity():
    # the coefficient at UE k only involves the entries v[i] for serving ENs i
    t = build_topology(5, 2)
    ch = draw_channel(t, 9)
    bf = make_beamformer(ch, (1, 2), SUM_OF_BASIS)
    for k in range(1, t.k + 1):
        ens = t.ens_of_ue(k)
        manual = sum(ch.matrix[k - 1, i - 1] * bf.vector[i - 1] for i in ens)
        assert np.isclose(ch.row(k) @ bf.vector, manual)


def test_residual_bound_over_many_seeds():
    t = build_topology(4, 2)
    degenerate = 0
    for seed in range(100):
        ch = draw_channel(t, seed)
        mapping, used, attempts = beamformers_for(ch, [(1, 3, 5)], SINGLE_NULL)
        degenerate += attempts
        bf = mapping[(1, 3, 5)]
        stacked = used.matrix[[0, 2, 4], :]
        assert np.linalg.norm(stacked @ bf.vector) <= ZF_RESIDUAL_TOL * np.linalg.norm(bf.vector)
    assert degenerate <= 1  # degenerate draws are rare and always redrawn


def test_beamformer_bundle_is_keyed_by_sorted_tuple():
    t = build_topology(4, 2)
    ch = draw_channel(t, 2)
    mapping, used, attempts = beamformers_for(ch, [(3, 1, 2), (1, 2, 3)], SINGLE_NULL)
    assert set(mapping) == {(1, 2, 3)}
    assert attempts == 0
    assert used is ch


def test_receiver_narrowing_skips_structural_bystanders():
    # UEs {1,2},{1,3},{1,4},{2,3} span ENs 1-4, so the only null direction is
    # the EN-5 axis: bystanders not served by EN 5 hear exactly nothing, and
    # no redraw can change that
    t = build_topology(5, 2)
    ch = draw_channel(t, 0)
    pi = (1, 2, 3, 5)
    with pytest.raises(DegenerateChannel):
        make_beamformer(ch, pi, SINGLE_NULL)

    en5_listeners = (4, 7, 9, 10)
    bf = make_beamformer(ch, pi, SINGLE_NULL, receivers=en5_listeners)
    assert abs(bf.vector[4]) == pytest.approx(1.0)
    assert np.linalg.norm(bf.vector[:4]) <= ZF_RESIDUAL_TOL
    for ue in en5_listeners:
        assert abs(ch.row(ue) @ bf.vector) >= DESIRED_COEF_MIN


def test_beamformer_bundle_narrows_per_set():
    t = build_topology(5, 2)
    ch = draw_channel(t, 0)
    receivers = {(1, 2, 3, 5): (4, 7, 9, 10)}
    mapping, used, attempts = beamformers_for(
        ch, list(receivers), SINGLE_NULL, receivers_by_set=receivers
    )
    assert set(mapping) == {(1, 2, 3, 5)}
    assert attempts == 0 and used is ch
