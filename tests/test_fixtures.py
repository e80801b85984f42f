"""Tests for the plain-text fixture grammar and the golden scenario tables."""

from fractions import Fraction
from pathlib import Path

import pytest

import cachenet as cn
import cachenet.fixtures as fx
from cachenet import PieceLabel, SoftSubfileLabel, mdsia

GOLDEN_DIR = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# grammar round-trips
# ---------------------------------------------------------------------------


def test_set_round_trip():
    assert fx.render_set((1, 3, 6)) == "{1,3,6}"
    assert fx.parse_set("{1,3,6}") == (1, 3, 6)
    assert fx.render_set(()) == "{}"
    assert fx.parse_set("{}") == ()


def test_piece_round_trip():
    lb = PieceLabel(file=7, chunk=2, subset=(1, 3), part=None)
    assert fx.render_piece(lb) == "f[7|2|{1,3}]"
    assert fx.parse_piece("f[7|2|{1,3}]") == lb
    tagged = PieceLabel(file=7, chunk=2, subset=(1, 3), part="cloud")
    assert fx.render_piece(tagged) == "f[7|2|{1,3}|cloud]"
    assert fx.parse_piece("f[7|2|{1,3}|cloud]") == tagged
    # cache tables are file-generic: the file token renders as `n`, parses as 0
    assert fx.render_piece(lb, generic_file=True) == "f[n|2|{1,3}]"
    assert fx.parse_piece("f[n|2|{1,3}]").file == 0


def test_subfile_round_trip():
    lb = SoftSubfileLabel(file=4, subset=(2, 5), part="cloud")
    assert fx.render_subfile(lb) == "W[4|{2,5}]"
    assert fx.parse_subfile("W[4|{2,5}]") == lb
    nulled = SoftSubfileLabel(file=4, subset=(2, 5), part="cloud", pi=(1, 3, 6))
    assert fx.render_subfile(nulled) == "W[4|{2,5}|{1,3,6}]"
    assert fx.parse_subfile("W[4|{2,5}|{1,3,6}]") == nulled
    local = SoftSubfileLabel(file=4, subset=(2, 5), part="local", pi=(1,))
    assert fx.render_subfile(local, with_part=True) == "W[4|{2,5}|local|{1}]"
    assert fx.parse_subfile("W[4|{2,5}|local|{1}]") == local


def test_split_fields_respects_brackets():
    line = "UE,1,cache,f[n|1|{1,2}],f[n|2|{1,3}]"
    assert fx.split_fields(line) == ["UE", "1", "cache", "f[n|1|{1,2}]", "f[n|2|{1,3}]"]
    assert fx.split_fields("X,1,{1,2},X,2,{2,3}") == ["X", "1", "{1,2}", "X", "2", "{2,3}"]


def test_message_id_round_trip():
    assert fx.render_message_id((1, (1, 2))) == ["X", "1", "{1,2}"]
    fields = fx.split_fields("EN,1,X,1,{1,2},f[1|1|{2}],f[2|1|{1}]")
    assert fx.parse_message_fields(fields) == [(1, (1, 2))]
    both = fx.split_fields("X,1,{2,3},X,2,{2,3},X,5,{3,4}")
    assert fx.parse_message_fields(both) == [(1, (2, 3)), (2, (2, 3)), (5, (3, 4))]


def test_coef_rendering():
    assert fx.render_coef((7, 5)) == "h[7,5]"


# ---------------------------------------------------------------------------
# golden tables
# ---------------------------------------------------------------------------


def test_fixture_inventory():
    data = fx.all_fixtures()
    assert sorted(data) == sorted(p.name for p in GOLDEN_DIR.glob("*.csv"))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*.csv")))
def test_fixture_matches_golden_copy(name):
    data = fx.all_fixtures()
    assert data[name] == (GOLDEN_DIR / name).read_text(encoding="ascii")


def test_fixture_shapes():
    data = fx.all_fixtures()
    assert len(data["ue_caches.csv"].splitlines()) == 10
    assert len(data["multicasts.csv"].splitlines()) == 30
    assert len(data["interference.csv"].splitlines()) == 30  # 10 UEs x 3 rows
    for name in ("directions_a.csv", "directions_b.csv", "directions_c.csv"):
        assert len(data[name].splitlines()) == 10
    assert len(data["ue_subsets.csv"].splitlines()) == 6
    assert len(data["missing.csv"].splitlines()) == 6
    assert len(data["missing_nulled.csv"].splitlines()) == 6


def test_write_fixtures_is_deterministic(tmp_path):
    first = fx.write_fixtures(tmp_path / "a")
    second = fx.write_fixtures(tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second] == sorted(fx.all_fixtures())
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("mu_t", [0, Fraction(3, 10)], ids=["whole", "split"])
def test_piece_cache_lines_build_file_one_labels_only(monkeypatch, mu_t):
    # (6, 2, t=2) with 15 files: the table lists file 1 of each UE cache
    t = cn.build_topology(6, 2)
    lib = cn.random_library(t.k, cn.minimal_file_bits(t, 2, mu_t), seed=0)
    pl = cn.mdsia_place(lib, t, Fraction(2, 5), mu_t)
    expected = [
        f"UE,{ue},cache,"
        + ",".join(
            fx.render_piece(lb, generic_file=True)
            for lb in sorted(
                (lb for lb in pl.ue_caches[ue] if lb.file == 1), key=lambda lb: (lb.chunk, lb.subset, lb.part or "")
            )
        )
        for ue in range(1, t.k + 1)
    ]
    built = []

    def counting_label(*args):
        built.append(args)
        return PieceLabel(*args)

    monkeypatch.setattr(mdsia, "PieceLabel", counting_label)
    lines = list(fx.piece_cache_lines(pl))
    assert lines == expected
    cells = sum(len(fx.split_fields(line)) - 3 for line in lines)
    assert len(built) == cells == sum(len(pl.ue_caches[ue]) for ue in range(1, t.k + 1)) // lib.n_files
