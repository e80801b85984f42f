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
from .errors import (
    DegenerateChannel,
    DemandLengthMismatch,
    EmptyNullSpace,
    IndivisibleFileSize,
    InterferenceLeak,
    InvalidConnectivity,
    LengthError,
    NonCanonicalInterference,
    NonIntegralCacheParameter,
    OutOfRange,
    PeelFailure,
    ReconstructionMismatch,
    RegionViolation,
    UnsupportedRegime,
)
from .fixtures import (
    direction_rows,
    interference_lines,
    multicast_lines,
    piece_cache_lines,
    subfile_cache_lines,
    write_fixtures,
)
from .mdscode import random_library
from .ndt import NdtValue, as_fraction
from .schemes import SCHEMES, compare_schemes
from .topology import adjacency_lines, build_topology

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
    NonCanonicalInterference,
    NonIntegralCacheParameter,
    RegionViolation,
    UnsupportedRegime,
    OutOfRange,
    InvalidConnectivity,
    IndivisibleFileSize,
    LengthError,
    DemandLengthMismatch,
    ValueError,
    TypeError,
)

CSV_HEADER = (
    "h,r,mu_r,mu_t,rho,scheme,ndt_total,ndt_fronthaul,ndt_edge,"
    "alpha,bracket_lo,bracket_hi,is_argmin"
)


def frac_str(x: Fraction) -> str:
    x = x if isinstance(x, Fraction) else Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cell(x: Fraction) -> str:
    """CSV cell carrying both the exact and the float rendering (``float`` of a rational is n / d)."""
    n, d = x.numerator, x.denominator
    return f"{n}|{float(n)!r}" if d == 1 else f"{n}/{d}|{n / d!r}"


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


def _demand_list(spec: str) -> list[int]:
    try:
        return [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise ValueError(f"demand must be 'identity' or a comma list of file ids: {spec!r}") from exc


def _mdsia_listing(placement, delivery) -> list[str]:
    lines = [f"placement: t={placement.t_e}, piece store per UE = {placement.ue_cache_bits(1)} bits/file-set"]
    lines += piece_cache_lines(placement)
    lines.append(f"multicasts: {len(delivery.cloud)} over fronthaul, {len(delivery.local)} EN-local")
    lines += multicast_lines(delivery.cloud + delivery.local)
    lines += interference_lines(delivery.mats)
    plan = delivery.plan
    lines.append(f"alignment: {plan.g_rows} transmit directions")
    for row, (_, b, c) in zip(plan.rows, direction_rows(plan)):
        lines += [f"direction {row.g}: B = {b}", f"direction {row.g}: C = {c}"]
    return lines + ["certification: ok"]  # mdsia_deliver raises on a failed one


def _soft_listing(placement, schedule) -> list[str]:
    sizes = [schedule.geometry.step_ue.shape[1]] if len(schedule) else []
    return [
        f"placement: t={placement.t_u}, {placement.n_subfiles} subfiles per part, parts {placement.parts}",
        *subfile_cache_lines(placement),
        f"schedule: {len(schedule)} steps, entries per step {sizes}",
    ]


def _zf_listing(placement, schedule) -> list[str]:
    prefix = placement.part_bits.get("local", 0)
    return [
        f"placement: t={placement.t_u}, prefix {prefix} bits, suffix {placement.suffix_bits} bits",
        f"schedule: {len(schedule)} steps (no fronthaul)",
    ]


#: what ``run`` prints of a placement and its delivery, before verifying it
_LISTINGS = {"mdsia": _mdsia_listing, "soft": _soft_listing, "zf": _zf_listing}


def cmd_run(args) -> int:
    t = build_topology(args.h, args.r)
    mu_r, mu_t = as_fraction(args.mu_r), as_fraction(args.mu_t)
    rho = as_fraction(args.rho) if args.rho is not None else None
    seed = int(os.environ.get("CACHENET_SEED", args.seed))
    demand = list(range(1, t.k + 1)) if args.demand == "identity" else _demand_list(args.demand)

    for line in adjacency_lines(t):
        print(line)

    if args.scheme == "all":
        if rho is None:
            raise OutOfRange("--rho is required with --scheme all")
        [row] = compare_schemes([(t.h, t.r, mu_r, mu_t, rho)])
        for name in SCHEMES:
            value = row.values[name]
            if value is None:
                print(f"scheme {name}: n/a (outside regime)")
            else:
                for line in _ndt_lines(value, rho):
                    print(line)
        print(f"argmin: {row.argmin}")
        return EXIT_OK

    scheme = SCHEMES[args.scheme]
    at = rho if rho is not None else Fraction(1)  # the symbolic print is the value at rho = 1
    closed = scheme.ndt(t.h, t.r, mu_r, mu_t, at)  # first: an unsupported point fails before any work
    bits = args.file_bits or scheme.file_bits(t.h, t.r, mu_r, mu_t)
    placement = scheme.place(random_library(args.n_files or t.k, bits, seed), t, mu_r, mu_t)
    artifacts = scheme.deliver(demand, placement, t)
    for line in _LISTINGS[scheme.name](placement, artifacts):
        print(line)
    verdicts = scheme.verify(artifacts, draw_channel(t, seed), placement, demand)
    print(f"decode: {sum(v.ok for v in verdicts)}/{len(verdicts)} files rebuilt bit-exactly")
    for line in _ndt_lines(closed, rho):
        print(line)
    structural = scheme.structural_ndt(artifacts, placement, at)
    if (structural.fronthaul, structural.edge) != (closed.fronthaul, closed.edge):
        print(
            f"verification failure: scheme {scheme.name} at rho = {at}: structural NDT "
            f"{structural.fronthaul} + {structural.edge} != closed form {closed.fronthaul} + {closed.edge}"
            " (fronthaul + edge)",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    print(f"structural NDT == closed form: {closed.total} at rho = {at}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _grid_values(args) -> list[Fraction]:
    if args.mu_r_list is not None:
        text = args.mu_r_list.strip()
        return [as_fraction(tok) for tok in text.split(",")] if text else []
    bounds = args.mu_r_grid.split(":")
    if len(bounds) != 3:
        raise ValueError(f"--mu-r-grid expects start:stop:step, got {args.mu_r_grid!r}")
    start, stop, step = map(as_fraction, bounds)
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
    mu_t, mu_rs, rhos = as_fraction(mu_t), sorted(mu_rs), sorted(rhos)
    rows = iter(compare_schemes([(h, r, mu_r, mu_t, rho) for mu_r in mu_rs for rho in rhos]))
    mu_t_cell, rho_cells = cell(mu_t), [cell(as_fraction(rho)) for rho in rhos]
    lines = []
    for mu_r in mu_rs:  # rows come mu_r-major, one per rho
        point = f"{h},{r},{cell(as_fraction(mu_r))},{mu_t_cell}"
        for rho_cell, row in zip(rho_cells, rows):
            prefix = f"{point},{rho_cell}"
            for scheme, value in row.values.items():
                if value is None:
                    lines.append(f"{prefix},{scheme},n/a,n/a,n/a,n/a,n/a,n/a,0")
                    continue
                s = value.sharing
                lines.append(f"{prefix},{scheme},{cell(value.total)},{cell(value.fronthaul)},{cell(value.edge)},"
                             f"{frac_str(s.alpha)},{s.param_lo},{s.param_hi},{int(row.argmin == scheme)}")
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
