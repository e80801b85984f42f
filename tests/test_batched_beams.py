"""The batched zero-forcing pass against the per-beam path it replaced."""

from fractions import Fraction

import numpy as np
import pytest

import cachenet as cn
from cachenet import soft_transfer
from cachenet.channel import SINGLE_NULL, SUM_OF_BASIS, Beamformer, ChannelMatrix, null_space
from cachenet.errors import DegenerateChannel, EmptyNullSpace
from cachenet.soft_transfer import CASE_ONE_SHOT

from oracles import beamformers_for_per_beam, make_beamformer_per_beam, null_space_per_beam


def soft_point(h, r, mu_r):
    """Topology, placement, identity demand, schedule and beam mode of a soft point."""
    t = cn.build_topology(h, r)
    lib = cn.random_library(t.k, cn.minimal_soft_file_bits(h, r, mu_r, 0), seed=0)
    pl = cn.soft_place(lib, t, mu_r, 0)
    demand = list(range(1, t.k + 1))
    mode = SUM_OF_BASIS if pl.geometry.case == CASE_ONE_SHOT else SINGLE_NULL
    return t, pl, demand, cn.soft_schedule(demand, pl, t), mode


def outcome(call, *args, **kwargs):
    """What ``call`` returns, or the class and message of what it raises."""
    try:
        return call(*args, **kwargs)
    except Exception as e:
        return type(e), str(e)


def assert_same_beams(got: list, want: list):
    assert [(b.zero_forcing_set, b.mode) for b in got] == [(b.zero_forcing_set, b.mode) for b in want]
    assert np.abs(np.array([b.vector for b in got]) - np.array([b.vector for b in want])).max(initial=0) <= 1e-12


def assert_same(got, want):
    if isinstance(want, Beamformer):
        assert_same_beams([got], [want])
    elif isinstance(want[0], type):
        assert got == want
    else:
        (beams, used, attempts), (oracle, oracle_used, oracle_attempts) = got, want
        assert list(beams) == list(oracle) and attempts == oracle_attempts
        assert np.array_equal(used.matrix, oracle_used.matrix)
        assert_same_beams(list(beams.values()), list(oracle.values()))


@pytest.mark.parametrize(
    "h, r, mu_r",
    [
        # criterion 6's three configurations
        (4, 2, Fraction(2, 6)),
        (4, 2, Fraction(1, 6)),
        (5, 2, Fraction(6, 10)),
        # a 3-dim kernel per null set (t_U = 11), and H-1 = 4 rows per null set
        (6, 2, Fraction(11, 15)),
        (5, 3, Fraction(1, 5)),
    ],
)
def test_batched_beams_match_the_per_beam_path(h, r, mu_r):
    t, _, _, schedule, mode = soft_point(h, r, mu_r)
    pi_sets = sorted({lab.pi for step in schedule for _, lab in step.entries})
    for seed in range(100):
        ch = cn.draw_channel(t, seed)
        got, want = (outcome(call, ch, pi_sets, mode) for call in (cn.beamformers_for, beamformers_for_per_beam))
        assert_same(got, want)


MAKE = (cn.make_beamformer, make_beamformer_per_beam)
BUNDLE = (cn.beamformers_for, beamformers_for_per_beam)
# at (5, 2) UEs 1, 2, 3, 5 span ENs 1-4, so the only null direction is the
# EN-5 axis and only its listeners, UEs 4, 7, 9 and 10, can hear the beam
STRUCTURAL, EN5 = (1, 2, 3, 5), (4, 7, 9, 10)


@pytest.mark.parametrize(
    "pair, h, args, kwargs, raises",
    [
        (MAKE, 5, (STRUCTURAL, SINGLE_NULL), {}, DegenerateChannel),
        (MAKE, 5, (STRUCTURAL, SINGLE_NULL), {"receivers": EN5}, None),
        (MAKE, 5, (STRUCTURAL, SINGLE_NULL), {"receivers": (6, 4)}, DegenerateChannel),
        (BUNDLE, 5, ([STRUCTURAL], SINGLE_NULL), {}, DegenerateChannel),
        (BUNDLE, 5, ([STRUCTURAL], SINGLE_NULL), {"receivers_by_set": {STRUCTURAL: EN5}}, None),
        (MAKE, 4, ((1, 2, 3, 4), SINGLE_NULL), {}, EmptyNullSpace),
        (BUNDLE, 4, ([(2, 1), (1, 2, 3, 4)], SUM_OF_BASIS), {}, EmptyNullSpace),
        # the floor failure comes first, so every redraw fails before the oversized set
        (BUNDLE, 5, ([STRUCTURAL, (2, 1), (1, 2, 3, 4, 5)], SINGLE_NULL), {}, DegenerateChannel),
        (BUNDLE, 5, ([(1, 2, 3, 4, 5), STRUCTURAL], SINGLE_NULL), {}, EmptyNullSpace),
        (MAKE, 4, ((1, 2), "bogus"), {}, ValueError),
        (MAKE, 4, ((1, 2, 3, 4), "bogus"), {}, EmptyNullSpace),
        (BUNDLE, 4, ([], "bogus"), {}, None),
        # three rows of five ENs leave a 2-dim kernel: single-null takes its first vector
        (MAKE, 5, ((1, 2, 3), SINGLE_NULL), {}, None),
    ],
    ids=[
        "structural-null",
        "structural-null-listeners",
        "structural-null-bystander",
        "structural-null-redrawn",
        "structural-null-listeners-bundle",
        "oversized",
        "oversized-after-a-beam",
        "floor-then-oversized",
        "oversized-then-floor",
        "unknown-mode",
        "oversized-before-mode",
        "no-sets-no-mode-check",
        "single-null-wide-kernel",
    ],
)
def test_errors_match_the_per_beam_path(pair, h, args, kwargs, raises):
    ch = cn.draw_channel(cn.build_topology(h, 2), 0)
    got, want = (outcome(call, ch, *args, **kwargs) for call in pair)
    assert_same(got, want)
    if raises is not None:
        assert want[0] is raises
    else:
        assert not isinstance(want, tuple) or not isinstance(want[0], type)


def test_a_weak_draw_is_redrawn_as_before():
    # UE 6 hears every beam some 1e-9 times weaker: the first draw fails the floor
    t = cn.build_topology(4, 2)
    m = cn.draw_channel(t, 0).matrix.copy()
    m[5] *= 1e-9
    weak = ChannelMatrix(topology=t, seed=0, matrix=m)
    got, want = (outcome(call, weak, [(1, 2, 3), (4, 5), ()], SUM_OF_BASIS) for call in BUNDLE)
    assert_same(got, want)
    assert want[2] == 1 and want[1] is not weak


def test_the_first_failing_set_names_its_first_failing_receiver():
    # UEs 5 and 6 hear every beam weakly; the first set fails only at UE 6,
    # the second only at UE 5, and without a redraw the first set's is raised
    t = cn.build_topology(4, 2)
    m = cn.draw_channel(t, 0).matrix.copy()
    m[4:6] *= 1e-9
    weak = ChannelMatrix(topology=t, seed=0, matrix=m)
    got, want = (outcome(call, weak, [(1, 2, 5), (1, 2, 6)], SINGLE_NULL, 1) for call in BUNDLE)
    assert got == want
    assert want[0] is DegenerateChannel and want[1].startswith("receiver 6 ")


@pytest.mark.parametrize("mu_r", [Fraction(1, 3), Fraction(1, 6)], ids=["one-shot", "chunked"])
def test_a_reordered_schedule_is_beamformed_per_null_set(mu_r):
    # reversed, the steps use their null sets in an order that is no
    # involution of the canonical one; each entry must still meet its own beam
    t, pl, demand, schedule, _ = soft_point(4, 2, mu_r)
    verdicts = cn.soft_simulate(list(schedule)[::-1], cn.draw_channel(t, 3), pl, demand)
    assert len(verdicts) == t.k and all(v.ok for v in verdicts)


def test_null_space_matches_the_per_beam_path():
    rng = np.random.default_rng(0)
    generic = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    # the rank tolerance is relative: a tiny matrix keeps its rank
    for m in (generic, 1e-12 * generic, generic[:, :3], np.zeros((1, 5)), np.zeros((0, 4), dtype=np.complex128)):
        basis, oracle = null_space(m), null_space_per_beam(m)
        assert basis.shape == oracle.shape and np.abs(basis - oracle).max(initial=0) <= 1e-12


def test_one_svd_per_null_set_size_per_attempt(monkeypatch):
    t, pl, demand, schedule, mode = soft_point(4, 2, Fraction(1, 6))
    sizes = {len(lab.pi) for step in schedule for _, lab in step.entries}
    calls, attempts = [], []
    svd, bundle = np.linalg.svd, soft_transfer.beamformers_for

    def counted_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    def spied_bundle(*args, **kwargs):
        out = bundle(*args, **kwargs)
        attempts.append(out[2])
        return out

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(soft_transfer, "beamformers_for", spied_bundle)
    assert all(v.ok for v in cn.soft_simulate(schedule, cn.draw_channel(t, 3), pl, demand))
    assert len(attempts) == 1
    assert len(calls) == len(sizes) * (attempts[0] + 1)
