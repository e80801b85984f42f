"""Tests for the scheme registry: order, entries, and name lookup."""

from fractions import Fraction

import pytest

import cachenet as cn
from cachenet.cli import CONFIG_FAILURES, main, sweep_rows
from cachenet.ndt import FRONTHAUL_FREE, memory_share
from cachenet.schemes import SCHEMES

RHO = Fraction(1, 3)


def test_registry_order_is_the_sweep_and_cli_order(capsys):
    assert tuple(SCHEMES) == ("mdsia", "soft", "zf")
    rows = sweep_rows(5, 2, Fraction(3, 10), [Fraction(7, 10)], [1])
    assert tuple(row.split(",")[5] for row in rows) == tuple(SCHEMES)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--h", "5", "--r", "2", "--mu-r", "1/4", "--scheme", "bogus"])
    assert exc.value.code == 2
    assert "(choose from 'mdsia', 'soft', 'zf', 'all')" in capsys.readouterr().err


def test_registry_entries_describe_their_scheme():
    assert [s.name for s in SCHEMES.values()] == list(SCHEMES)
    assert [s.normalizer for s in SCHEMES.values()] == ["L", "K", "ZF"]
    assert {name for name, s in SCHEMES.items() if s.fronthaul_free} == FRONTHAUL_FREE == {"zf"}
    for s in SCHEMES.values():
        assert s.shared_ndt(5, 2, Fraction(3, 4), Fraction(3, 10), 1) == memory_share(
            s.ndt, 5, 2, Fraction(3, 4), Fraction(3, 10), 1, s.normalizer
        )


@pytest.mark.parametrize(
    "name, h, r, mu_r, mu_t, branch",
    [
        ("mdsia", 5, 2, Fraction(1, 4), Fraction(3, 10), "hybrid"),
        ("mdsia", 4, 2, Fraction(1), Fraction(0), "cloud-only"),  # t = L: nothing to send
        ("soft", 4, 2, Fraction(1, 3), Fraction(0), "one-shot"),
        ("soft", 4, 2, Fraction(1, 6), Fraction(1, 2), "chunked"),
        ("zf", 4, 2, Fraction(2, 3), Fraction(1, 2), "one-shot"),
        ("zf", 4, 2, Fraction(7, 12), Fraction(1, 2), "chunked"),
        ("zf", 4, 2, Fraction(1), Fraction(0), "degenerate"),
    ],
)
def test_registered_scheme_delivers_its_closed_form(name, h, r, mu_r, mu_t, branch):
    scheme = SCHEMES[name]
    t = cn.build_topology(h, r)
    lib = cn.random_library(t.k, scheme.file_bits(h, r, mu_r, mu_t), seed=5)
    placement = scheme.place(lib, t, mu_r, mu_t)
    demand = list(range(t.k, 0, -1))
    artifacts = scheme.deliver(demand, placement, t)
    verdicts = scheme.verify(artifacts, cn.draw_channel(t, 5), placement, demand)
    assert [(v.ue, v.file_id, v.ok) for v in verdicts] == [(u, f, True) for u, f in enumerate(demand, 1)]
    closed = scheme.ndt(h, r, mu_r, mu_t, RHO)
    structural = scheme.structural_ndt(artifacts, placement, RHO)
    assert (closed.scheme, closed.branch) == (name, branch)
    assert (structural.fronthaul, structural.edge) == (closed.fronthaul, closed.edge)


def test_unknown_scheme_is_a_configuration_error():
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        cn.shared_scheme_ndt("bogus", 5, 2, Fraction(1, 4), 0, 1)
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        cn.convexity_check("bogus", 0, 1, [0, Fraction(1, 2), 1], h=5, r=2)
    assert ValueError in CONFIG_FAILURES  # so the CLI exits 2


def test_zf_accepts_and_ignores_rho():
    args = (5, 2, Fraction(7, 10), Fraction(3, 10))
    assert cn.zf_ndt(*args, Fraction(1, 20)) == cn.zf_ndt(*args) == cn.zf_ndt(*args, rho=None)
    t = cn.build_topology(4, 2)
    lib = cn.random_library(t.k, cn.minimal_zf_file_bits(4, 2, Fraction(2, 3), Fraction(1, 2)), seed=1)
    pl = cn.zf_place(lib, t, Fraction(2, 3), Fraction(1, 2))
    schedule, _ = cn.zf_deliver(list(range(1, t.k + 1)), pl, t, None)
    assert cn.zf_structural_ndt(schedule, pl, Fraction(7)) == cn.zf_structural_ndt(schedule, pl)
