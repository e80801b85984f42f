"""Command-line front end: run one scenario, sweep a grid, emit fixtures.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O error. Rational parameters are accepted as ``p/q`` or decimal strings
and kept exact end to end; CSV cells render them as ``p/q|decimal``.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from .channel import draw_channel
from .combinatorics import level
from .errors import (
    DegenerateChannel,
    DemandLengthMismatch,
    EmptyNullSpace,
    IndivisibleFileSize,
    InterferenceLeak,
    InvalidConnectivity,
    NonIntegralCacheParameter,
    OutOfRange,
    PeelFailure,
    ReconstructionMismatch,
    RegionViolation,
    UnsupportedRegime,
)
from .fixtures import render_message_id, render_piece, render_subfile, write_fixtures
from .mdscode import random_library
from .mdsia import (
    build_interference_matrices,
    mdsia_decode_check,
    mdsia_fronthaul,
    mdsia_local_multicast,
    mdsia_ndt,
    mdsia_place,
    minimal_file_bits,
    certify_alignment,
    plan_alignment,
)
from .ndt import SCHEMES, NdtValue, as_fraction, compare_schemes
from .soft_transfer import (
    minimal_soft_file_bits,
    soft_ndt,
    soft_place,
    soft_schedule,
    soft_simulate,
)
from .topology import adjacency_lines, build_topology
from .zf import minimal_zf_file_bits, zf_deliver, zf_ndt, zf_place

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3

#: failures of the artifact itself (placement/delivery/alignment/decoding)
VERIFY_FAILURES = (
    InterferenceLeak,
    ReconstructionMismatch,
    PeelFailure,
    DegenerateChannel,
    EmptyNullSpace,
)
#: bad or unsupported scenario parameters
CONFIG_FAILURES = (
    NonIntegralCacheParameter,
    RegionViolation,
    UnsupportedRegime,
    OutOfRange,
    InvalidConnectivity,
    IndivisibleFileSize,
    DemandLengthMismatch,
    ValueError,
    TypeError,
)

CSV_HEADER = (
    "h,r,mu_r,mu_t,rho,scheme,ndt_total,ndt_fronthaul,ndt_edge,"
    "alpha,bracket_lo,bracket_hi,is_argmin"
)


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cell(x: Fraction) -> str:
    """CSV cell carrying both the exact and the float rendering."""
    return f"{frac_str(x)}|{float(x)!r}"


def parse_cell(text: str) -> Fraction:
    return Fraction(text.split("|", 1)[0])


def _ndt_lines(value: NdtValue, rho: Fraction | None) -> list[str]:
    """Human-readable decomposition; symbolic in rho when rho is unknown."""
    lines = [f"scheme {value.scheme} ({value.branch})"]
    if rho is None and value.fronthaul:
        # value computed at rho=1, so 'fronthaul' is the 1/rho coefficient
        lines.append(f"  delta = ({frac_str(value.fronthaul)})/rho + {frac_str(value.edge)}")
    else:
        lines.append(f"  total     = {cell(value.total)}")
        lines.append(f"  fronthaul = {cell(value.fronthaul)}")
        lines.append(f"  edge      = {cell(value.edge)}")
    if value.sharing and value.sharing.alpha != 1:
        s = value.sharing
        lines.append(
            f"  sharing: alpha={frac_str(s.alpha)} between params {s.param_lo} and {s.param_hi}"
        )
    return lines


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _demand_list(spec: str, k: int, n_files: int) -> list[int]:
    if spec == "identity":
        return list(range(1, k + 1))
    try:
        demand = [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise ValueError(f"demand must be 'identity' or a comma list of file ids: {spec!r}") from exc
    return demand


def cmd_run(args) -> int:
    t = build_topology(args.h, args.r)
    mu_r, mu_t = as_fraction(args.mu_r), as_fraction(args.mu_t)
    rho = as_fraction(args.rho) if args.rho is not None else None
    seed = int(os.environ.get("CACHENET_SEED", args.seed))
    n_files = args.n_files or t.k
    demand = _demand_list(args.demand, t.k, n_files)

    for line in adjacency_lines(t):
        print(line)

    if args.scheme == "all":
        if rho is None:
            raise OutOfRange("--rho is required with --scheme all")
        [row] = compare_schemes([(t.h, t.r, mu_r, mu_t, rho)])
        for scheme in SCHEMES:
            value = row.values[scheme]
            if value is None:
                print(f"scheme {scheme}: n/a (outside regime)")
            else:
                for line in _ndt_lines(value, rho):
                    print(line)
        print(f"argmin: {row.argmin}")
        return EXIT_OK

    runner = {"mdsia": _run_mdsia, "soft": _run_soft, "zf": _run_zf}[args.scheme]
    return runner(t, mu_r, mu_t, rho, n_files, args.file_bits, seed, demand)


def _run_mdsia(t, mu_r, mu_t, rho, n_files, file_bits, seed, demand) -> int:
    bits = file_bits or minimal_file_bits(t, level("L", t.h, t.r, mu_r, mu_t), mu_t)
    lib = random_library(n_files, bits, seed)
    placement = mdsia_place(lib, t, mu_r, mu_t)
    cloud = mdsia_fronthaul(demand, placement, t)
    local = mdsia_local_multicast(demand, placement, t)

    print(f"placement: t={placement.t_e}, piece store per UE = {placement.ue_cache_bits(1)} bits/file-set")
    for ue in range(1, t.k + 1):
        labels = sorted(
            (lb for lb in placement.ue_caches[ue] if lb.file == 1),
            key=lambda lb: (lb.chunk, lb.subset, lb.part or ""),
        )
        print(f"UE,{ue},cache," + ",".join(render_piece(lb, generic_file=True) for lb in labels))
    print(f"multicasts: {len(cloud)} over fronthaul, {len(local)} EN-local")
    for msg in sorted(cloud + local, key=lambda m: (m.en, m.subset)):
        cells = [f"EN,{msg.en}", *render_message_id(msg.id)]
        cells += [render_piece(lb) for _, lb in msg.members]
        print(",".join(cells))

    mats = build_interference_matrices(t, cloud or local)
    for ue in range(1, t.k + 1):
        for j, row in enumerate(mats[ue].rows(), start=1):
            cells = [f"UE,{ue},row,{j}"]
            for mid in row:
                cells += render_message_id(mid)
            print(",".join(cells))

    status = EXIT_OK
    try:
        plan = plan_alignment(t, mats)
    except UnsupportedRegime as exc:
        print(f"alignment: skipped ({exc})")
    else:
        print(f"alignment: {plan.g_rows} transmit directions")
        for row in plan.rows:
            b_cells = []
            for mid in row.b:
                b_cells += render_message_id(mid)
            print(f"direction {row.g}: B = " + ",".join(b_cells))
            print(f"direction {row.g}: C = " + ",".join(str(u) for u in row.c))
        report = certify_alignment(plan, t, mats)
        print(f"certification: {'ok' if report.ok else 'FAILED'}")
        if not report.ok:
            for check in report.per_ue.values():
                if not check.ok:
                    print(f"  UE {check.ue}: {check}")
            status = EXIT_VERIFY

    verdicts = mdsia_decode_check(demand, placement, cloud, local, t)
    print(f"decode: {sum(v.ok for v in verdicts)}/{len(verdicts)} files rebuilt bit-exactly")
    value = mdsia_ndt(t.h, t.r, mu_r, mu_t, rho if rho is not None else Fraction(1))
    for line in _ndt_lines(value, rho):
        print(line)
    return status


def _run_soft(t, mu_r, mu_t, rho, n_files, file_bits, seed, demand) -> int:
    bits = file_bits or minimal_soft_file_bits(t.h, t.r, mu_r, mu_t)
    lib = random_library(n_files, bits, seed)
    placement = soft_place(lib, t, mu_r, mu_t)
    schedule = soft_schedule(demand, placement, t)
    sizes = sorted({len(s.entries) for s in schedule})
    print(f"placement: t={placement.t_u}, {placement.n_subfiles} subfiles per part, parts {placement.parts}")
    for ue in range(1, t.k + 1):
        labels = [lb for lb in placement.ue_cache_labels(ue) if lb.file == 1]
        print(f"UE,{ue},cache," + ",".join(render_subfile(lb, generic_file=True) for lb in labels))
    print(f"schedule: {len(schedule)} steps, entries per step {sizes}")
    ch = draw_channel(t, seed)
    verdicts = soft_simulate(schedule, ch, placement, demand)
    print(f"decode: {sum(v.ok for v in verdicts)}/{len(verdicts)} files rebuilt bit-exactly")
    value = soft_ndt(t.h, t.r, mu_r, mu_t, rho if rho is not None else Fraction(1))
    for line in _ndt_lines(value, rho):
        print(line)
    return EXIT_OK


def _run_zf(t, mu_r, mu_t, rho, n_files, file_bits, seed, demand) -> int:
    bits = file_bits or minimal_zf_file_bits(t.h, t.r, mu_r, mu_t)
    lib = random_library(n_files, bits, seed)
    placement = zf_place(lib, t, mu_r, mu_t)
    ch = draw_channel(t, seed)
    schedule, verdicts = zf_deliver(demand, placement, t, ch)
    print(f"placement: t={placement.t_r}, prefix {placement.params.w1_bits} bits, suffix {placement.params.w2_bits} bits")
    print(f"schedule: {len(schedule)} steps (no fronthaul)")
    print(f"decode: {sum(v.ok for v in verdicts)}/{len(verdicts)} files rebuilt bit-exactly")
    for line in _ndt_lines(zf_ndt(t.h, t.r, mu_r, mu_t), rho):
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _grid_values(args) -> list[Fraction]:
    if args.mu_r_list is not None:
        text = args.mu_r_list.strip()
        return [as_fraction(tok) for tok in text.split(",")] if text else []
    start, stop, step = (as_fraction(tok) for tok in args.mu_r_grid.split(":"))
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    values = []
    v = start
    while v <= stop:
        values.append(v)
        v += step
    return values


def sweep_rows(h: int, r: int, mu_t, mu_rs, rhos) -> list[str]:
    """CSV body lines for every (mu_r, rho, scheme), sorted and exact."""
    mu_t = as_fraction(mu_t)
    grid = [(h, r, mu_r, mu_t, rho) for mu_r in sorted(mu_rs) for rho in sorted(rhos)]
    lines = []
    for row in compare_schemes(grid):
        for scheme in SCHEMES:
            value = row.values[scheme]
            prefix = [str(h), str(r), cell(row.mu_r), cell(row.mu_t), cell(row.rho), scheme]
            if value is None:
                lines.append(",".join(prefix + ["n/a"] * 6 + ["0"]))
                continue
            s = value.sharing
            lines.append(
                ",".join(
                    prefix
                    + [cell(value.total), cell(value.fronthaul), cell(value.edge)]
                    + [frac_str(s.alpha), str(s.param_lo), str(s.param_hi)]
                    + ["1" if row.argmin == scheme else "0"]
                )
            )
    return lines


def cmd_sweep(args) -> int:
    mu_rs = _grid_values(args)
    rhos = [as_fraction(tok) for tok in args.rhos.split(",")] if args.rhos.strip() else []
    lines = [CSV_HEADER]
    if mu_rs and rhos:
        lines += sweep_rows(args.h, args.r, as_fraction(args.mu_t), mu_rs, rhos)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote {len(lines) - 1} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    paths = write_fixtures(Path(args.out))
    for path in paths:
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cachenet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario end to end with verification")
    run.add_argument("--h", type=int, required=True, help="number of ENs")
    run.add_argument("--r", type=int, required=True, help="receiver connectivity")
    run.add_argument("--mu-r", required=True, help="UE cache fraction, p/q or decimal")
    run.add_argument("--mu-t", default="0", help="EN cache fraction, p/q or decimal")
    run.add_argument("--rho", default=None, help="fronthaul multiplexing gain; omit for symbolic")
    run.add_argument("--scheme", choices=[*SCHEMES, "all"], default="mdsia")
    run.add_argument("--n-files", type=int, default=None)
    run.add_argument("--file-bits", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--demand", default="identity", help="'identity' or comma list of file ids")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="evaluate all schemes over a cache-fraction grid")
    sweep.add_argument("--h", type=int, required=True)
    sweep.add_argument("--r", type=int, required=True)
    sweep.add_argument("--mu-t", default="0")
    sweep.add_argument("--mu-r-grid", default="0:1:1/20", help="start:stop:step")
    sweep.add_argument("--mu-r-list", default=None, help="explicit comma list (overrides grid)")
    sweep.add_argument("--rhos", required=True, help="comma list of fronthaul gains")
    sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)

    fixtures = sub.add_parser("fixtures", help="regenerate golden fixture files")
    fixtures.add_argument("--out", required=True, help="output directory")
    fixtures.set_defaults(func=cmd_fixtures)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except VERIFY_FAILURES as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except CONFIG_FAILURES as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
