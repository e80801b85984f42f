"""Tests for the command-line front end: run, sweep, fixtures, exit codes."""

import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from cachenet.cli import CSV_HEADER, cell, frac_str, main, parse_cell
from cachenet.fixtures import all_fixtures
from cachenet.schemes import SCHEMES
from cachenet.soft_transfer import Schedule

GOLDEN_DIR = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# cell encoding
# ---------------------------------------------------------------------------


def test_cell_round_trip_is_identity():
    for x in (Fraction(3, 4), Fraction(0), Fraction(15, 8), Fraction(7), Fraction(4, 17)):
        assert parse_cell(cell(x)) == x
        assert cell(parse_cell(cell(x))) == cell(x)
    assert cell(Fraction(3, 4)) == "3/4|0.75"
    assert frac_str(Fraction(5)) == "5"


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_coded_multicast_end_to_end(capsys):
    code = main(["run", "--h", "5", "--r", "2", "--mu-r", "1/4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "network: 5 ENs x 10 UEs, connectivity 2" in out
    assert "multicasts: 30 over fronthaul, 0 EN-local" in out
    assert "alignment: 10 transmit directions" in out
    assert "certification: ok" in out
    assert "decode: 10/10 files rebuilt bit-exactly" in out
    # no --rho: the delivery time stays symbolic in rho
    assert "delta = (3/4)/rho + 9/8" in out


def test_run_with_en_share_symbolic(capsys):
    code = main(["run", "--h", "5", "--r", "2", "--mu-r", "1/4", "--mu-t", "0.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "multicasts: 30 over fronthaul, 30 EN-local" in out
    assert "delta = (3/10)/rho + 9/8" in out


def test_run_with_concrete_rho(capsys):
    code = main(["run", "--h", "5", "--r", "2", "--mu-r", "1/4", "--rho", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "total     = 15/8|1.875" in out


def test_run_soft_scheme(capsys):
    code = main(["run", "--h", "4", "--r", "2", "--mu-r", "1/3", "--scheme", "soft"])
    out = capsys.readouterr().out
    assert code == 0
    assert "schedule: 10 steps, entries per step [6]" in out
    assert "decode: 6/6 files rebuilt bit-exactly" in out


@pytest.mark.parametrize("mu_r, listing", [
    ("1/3", "schedule: 10 steps, entries per step [6]"),
    ("1", "schedule: 0 steps, entries per step []"),
])
def test_run_soft_listing_builds_no_step(capsys, monkeypatch, mu_r, listing):
    def refuse(self):
        raise AssertionError("the soft run built its schedule's steps")

    monkeypatch.setattr(Schedule, "_build", refuse)
    code = main(["run", "--h", "4", "--r", "2", "--mu-r", mu_r, "--scheme", "soft"])
    out = capsys.readouterr().out
    assert code == 0
    assert listing in out


def test_run_zf_scheme(capsys):
    code = main([
        "run", "--h", "4", "--r", "2", "--mu-r", "2/3", "--mu-t", "1/2",
        "--scheme", "zf",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "schedule: 10 steps (no fronthaul)" in out
    assert "decode: 6/6 files rebuilt bit-exactly" in out


def test_run_all_schemes_reports_argmin(capsys):
    code = main([
        "run", "--h", "5", "--r", "2", "--mu-r", "0.7", "--mu-t", "0.3",
        "--scheme", "all", "--rho", "1/20",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "scheme mdsia" in out and "scheme soft" in out and "scheme zf" in out
    assert "argmin: zf" in out


def test_run_all_marks_inapplicable_schemes(capsys):
    code = main([
        "run", "--h", "5", "--r", "2", "--mu-r", "0.3", "--mu-t", "0.3",
        "--scheme", "all", "--rho", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "scheme zf: n/a (outside regime)" in out


def test_run_custom_demand(capsys):
    code = main([
        "run", "--h", "4", "--r", "2", "--mu-r", "1/3", "--scheme", "soft",
        "--demand", "6,5,4,3,2,1",
    ])
    assert code == 0
    assert "decode: 6/6" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, line",
    [
        (["--h", "5", "--r", "2", "--mu-r", "1/4"], "structural NDT == closed form: 15/8 at rho = 1"),
        (["--h", "4", "--r", "2", "--mu-r", "1/6", "--mu-t", "1/2", "--rho", "1/2", "--scheme", "soft"],
         "structural NDT == closed form: 9/4 at rho = 1/2"),
        (["--h", "4", "--r", "2", "--mu-r", "2/3", "--mu-t", "1/2", "--scheme", "zf"],
         "structural NDT == closed form: 1/3 at rho = 1"),
    ],
)
def test_run_checks_structural_ndt_against_closed_form(capsys, argv, line):
    assert main(["run", *argv]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == line
    assert sum(x.startswith("structural NDT") for x in out) == 1


def test_run_exits_1_when_structural_ndt_disagrees(capsys, monkeypatch):
    mdsia = SCHEMES["mdsia"]

    def off_by_half(*args):
        value = mdsia.ndt(*args)
        return replace(value, total=value.total + Fraction(1, 2), edge=value.edge + Fraction(1, 2))

    monkeypatch.setitem(SCHEMES, "mdsia", replace(mdsia, ndt=off_by_half))
    assert main(["run", "--h", "5", "--r", "2", "--mu-r", "1/4", "--rho", "1"]) == 1
    captured = capsys.readouterr()
    assert "structural NDT ==" not in captured.out
    assert captured.err.strip() == (
        "verification failure: scheme mdsia at rho = 1: structural NDT 3/4 + 9/8 "
        "!= closed form 3/4 + 13/8 (fronthaul + edge)"
    )


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_config_errors_exit_2(capsys):
    # non-integral cache parameter
    assert main(["run", "--h", "5", "--r", "2", "--mu-r", "1/3"]) == 2
    # outside the cloud-free region
    assert main(["run", "--h", "5", "--r", "2", "--mu-r", "1/2", "--mu-t", "1/4",
                 "--scheme", "zf"]) == 2
    # floats-only demand string
    assert main(["run", "--h", "4", "--r", "2", "--mu-r", "1/3", "--demand", "x,y"]) == 2
    # demand of the wrong length
    assert main(["run", "--h", "4", "--r", "2", "--mu-r", "1/3", "--demand", "1,2"]) == 2
    # wide connectivity below the supported share
    assert main(["run", "--h", "6", "--r", "3", "--mu-r", "0", "--rho", "1"]) == 2
    # bad sweep grid step
    assert main(["sweep", "--h", "5", "--r", "2", "--mu-r-grid", "0:1:0",
                 "--rhos", "1"]) == 2
    # cache fractions outside [0, 1], on the sharing and the placement paths
    assert main(["sweep", "--h", "5", "--r", "2", "--mu-r-list", "2", "--rhos", "1"]) == 2
    assert main(["run", "--h", "5", "--r", "2", "--mu-r", "5/4", "--scheme", "mdsia"]) == 2
    # a file size that is not whole bytes
    assert main(["run", "--h", "4", "--r", "2", "--mu-r", "1/3", "--scheme", "soft", "--file-bits", "7"]) == 2
    capsys.readouterr()


def test_io_errors_exit_3(tmp_path, capsys):
    missing_dir = tmp_path / "nope" / "out.csv"
    assert main(["sweep", "--h", "5", "--r", "2", "--mu-r-list", "1/4",
                 "--rhos", "1", "--out", str(missing_dir)]) == 3
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["fixtures", "--out", str(blocker / "sub")]) == 3
    capsys.readouterr()


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CACHENET_SEED", "123")
    assert main(["run", "--h", "4", "--r", "2", "--mu-r", "1/3", "--scheme", "soft"]) == 0
    monkeypatch.setenv("CACHENET_SEED", "not-a-number")
    assert main(["run", "--h", "4", "--r", "2", "--mu-r", "1/3", "--scheme", "soft"]) == 2
    capsys.readouterr()


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_stdout_layout(capsys):
    code = main([
        "sweep", "--h", "5", "--r", "2", "--mu-t", "0.3",
        "--mu-r-list", "0.7,0.75", "--rhos", "1/20,20",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 3  # grid points x schemes
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[5] in ("mdsia", "soft", "zf")
        assert fields[-1] in ("0", "1")
        if fields[6] != "n/a":
            # every numeric cell round-trips exactly
            for cell_text in fields[2:5] + fields[6:9]:
                assert cell(parse_cell(cell_text)) == cell_text
    # exactly one argmin per grid point
    by_point = {}
    for line in lines[1:]:
        fields = line.split(",")
        by_point.setdefault((fields[2], fields[4]), []).append(fields[-1])
    assert all(flags.count("1") == 1 for flags in by_point.values())


@pytest.mark.parametrize("argv,golden", [
    (["sweep", "--h", "5", "--r", "2", "--mu-r-grid", "0:1:1/20", "--rhos", "1/20,1,20"], "sweep_h5_r2.stdout"),
    (["run", "--h", "5", "--r", "2", "--mu-r", "1/10", "--scheme", "all", "--rho", "1"], "run_all_h5_r2.stdout"),
])
def test_stdout_matches_golden_copy(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text(encoding="ascii")


@pytest.mark.parametrize("argv,scheme", [
    (["--h", "5", "--r", "2", "--rhos", "0"], "mdsia"),
    (["--h", "5", "--r", "2", "--rhos", "-1"], "mdsia"),
    # mdsia is n/a there, so the first scheme in registry order with a fronthaul part
    (["--h", "6", "--r", "3", "--mu-r-list", "0.1", "--rhos", "0"], "soft"),
])
def test_sweep_rejects_non_positive_rho(argv, scheme, capsys):
    assert main(["sweep", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert re.search(r"scheme (\w+) uses the fronthaul", err).group(1) == scheme


@pytest.mark.parametrize("grid", ["1/2", "0:1", "0:1:1/2:3"])
def test_sweep_names_a_malformed_grid(grid, capsys):
    assert main(["sweep", "--h", "4", "--r", "2", "--mu-r-grid", grid, "--rhos", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: --mu-r-grid expects start:stop:step, got '{grid}'\n"


def test_sweep_takes_rho_zero_where_no_fronthaul_is_used(capsys):
    assert main(["sweep", "--h", "6", "--r", "3", "--mu-t", "1", "--mu-r-list", "0.1", "--rhos", "0"]) == 0
    assert capsys.readouterr().out == "\n".join([
        CSV_HEADER,
        "6,3,1/10|0.1,1|1.0,0|0.0,mdsia,n/a,n/a,n/a,n/a,n/a,n/a,0",
        "6,3,1/10|0.1,1|1.0,0|0.0,soft,9/4|2.25,0|0.0,9/4|2.25,1,2,2,0",
        "6,3,1/10|0.1,1|1.0,0|0.0,zf,9/4|2.25,0|0.0,9/4|2.25,1,2,2,1",
    ]) + "\n"


def test_sweep_default_grid_size(capsys):
    code = main(["sweep", "--h", "5", "--r", "2", "--rhos", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 21 * 3  # default 0:1:1/20 grid


def test_sweep_empty_list_emits_header_only(capsys):
    code = main(["sweep", "--h", "5", "--r", "2", "--mu-r-list", "", "--rhos", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == CSV_HEADER + "\n"


def test_sweep_file_output_matches_stdout(tmp_path, capsys):
    argv = ["sweep", "--h", "4", "--r", "2", "--mu-r-list", "1/3,1/2", "--rhos", "1,4"]
    assert main(argv) == 0
    stdout_text = capsys.readouterr().out
    out_file = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out_file)]) == 0
    assert "wrote 12 rows" in capsys.readouterr().out
    assert out_file.read_text(encoding="ascii") == stdout_text


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def test_fixtures_subcommand_writes_golden_files(tmp_path, capsys):
    out = tmp_path / "fx"
    assert main(["fixtures", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip().split("\n")
    data = all_fixtures()
    assert sorted(Path(p).name for p in printed) == sorted(data)
    for name, text in data.items():
        assert (out / name).read_text(encoding="ascii") == text
