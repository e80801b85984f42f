"""The three workloads: inputs drawn from a seed, the ops, and their gates.

An op is one unit of user work. ``Op.run`` makes only calls into cachenet,
each through the tracer, and is the part that is timed. ``Op.check`` then
verifies what it returned, untimed, and counts the work it did. Only names
in ``cachenet.__all__`` and ``cachenet.cli.sweep_rows`` are used.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

import cachenet as cn
from cachenet.cli import sweep_rows

import oracle

#: fronthaul gain at which every simulated run's delivery time is checked
RHO = Fraction(1)


class GateFailure(Exception):
    """A timed result is not what the program must compute."""


@dataclass
class Stats:
    """What one verified op did: bytes byte-compared, work counts, exact NDTs."""

    verified_bytes: int = 0
    counts: Counter = field(default_factory=Counter)
    exact: tuple = ()


@dataclass
class Op:
    id: str
    geometry: tuple  # everything the op's work depends on except payload bytes
    run: Callable  # (tracer) -> raw results; timed
    check: Callable  # raw results -> Stats; raises GateFailure


@dataclass
class Workload:
    passes: int  # passes whose inputs set-up generated
    min_passes: int
    ops: Callable[[int], list[Op]]  # the ops of pass j
    probes: list[Op] = field(default_factory=list)  # known defects, run untimed


def _gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateFailure(what)


# ---------------------------------------------------------------------------
# simulated schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """One operating point of a scheme; ``level`` is its integral cache
    parameter (t for mdsia, t_U for soft, t_R for zf)."""

    scheme: str
    h: int
    r: int
    level: int
    mu_t: Fraction

    @property
    def label(self) -> str:
        return f"{self.scheme}({self.h},{self.r},t={self.level},mu_t={self.mu_t})"

    def mu_r(self) -> Fraction:
        k, l = comb(self.h, self.r), comb(self.h - 1, self.r - 1)
        if self.scheme == "mdsia":
            return Fraction(self.level, l)
        if self.scheme == "soft":
            return Fraction(self.level, k)
        return self.mu_t * Fraction(self.level, k) + 1 - self.mu_t


class Inputs:
    """Set-up's generated inputs, every generating call traced."""

    def __init__(self, tr, seed: int):
        self.tr = tr
        self.rng = random.Random(seed)
        self.topologies = {}

    def topology(self, h: int, r: int):
        if (h, r) not in self.topologies:
            self.topologies[h, r] = self.tr.call("topology.build_topology", cn.build_topology, h, r)
        return self.topologies[h, r]

    def file_bits(self, p: Point) -> int:
        t, mu_r = self.topology(p.h, p.r), p.mu_r()
        if p.scheme == "mdsia":
            return self.tr.call("sizing.file_bits", cn.minimal_file_bits, t, p.level, p.mu_t)
        fn = cn.minimal_soft_file_bits if p.scheme == "soft" else cn.minimal_zf_file_bits
        return self.tr.call("sizing.file_bits", fn, p.h, p.r, mu_r, p.mu_t)

    def library(self, p: Point, bits: int):
        k = self.topology(p.h, p.r).k
        return self.tr.call("mdscode.random_library", cn.random_library, k, bits, self.rng.getrandbits(32))

    def channel(self, p: Point):
        t = self.topology(p.h, p.r)
        return self.tr.call("channel.draw_channel", cn.draw_channel, t, self.rng.getrandbits(32))


def _check_verdicts(verdicts, demand, file_bytes: int, stats: Stats) -> None:
    _gate(len(verdicts) == len(demand), f"{len(verdicts)} verdicts for {len(demand)} UEs")
    for v, want in zip(verdicts, demand):
        _gate(v.ok and v.file_id == want, f"UE {v.ue}: verdict {v}")
    stats.verified_bytes += len(demand) * file_bytes


def _check_ndt(p: Point, structural, closed, stats: Stats) -> None:
    got = (closed.fronthaul, closed.edge)
    _gate(got == oracle.point(p.scheme, p.h, p.r, p.level, p.mu_t, RHO), f"closed-form NDT {got}")
    _gate(closed.total == sum(got), "closed-form total != fronthaul + edge")
    same = (structural.total, structural.fronthaul, structural.edge) == (closed.total, *got)
    _gate(same, f"structural NDT {structural.total} != closed form {closed.total}")
    stats.exact = (str(closed.fronthaul), str(closed.edge))


def _null_sets(schedule) -> int:
    return len({tuple(sorted(lab.pi)) for step in schedule for _, lab in step.entries})


def scheme_op(op_id: str, p: Point, t, lib, ch) -> Op:
    """One ``cachenet run``: place, deliver, decode with a byte compare, and
    the structural NDT checked against the closed form. ``ch=None`` runs the
    delivery channel-free."""
    demand = list(range(1, t.k + 1))
    mu_r, mu_t = p.mu_r(), p.mu_t
    nbytes = lib.file_size_bits // 8

    if p.scheme == "mdsia":

        def run(tr):
            pl = tr.call("mdsia.place", cn.mdsia_place, lib, t, mu_r, mu_t)
            cloud = tr.call("mdsia.multicast", cn.mdsia_fronthaul, demand, pl, t)
            local = tr.call("mdsia.multicast", cn.mdsia_local_multicast, demand, pl, t)
            mats = tr.call("mdsia.interference", cn.build_interference_matrices, t, cloud or local)
            try:
                plan = tr.call("mdsia.plan", cn.plan_alignment, t, mats)
            except cn.UnsupportedRegime:  # no plan at this point, as in `cachenet run`
                plan = report = None
            else:
                report = tr.call("mdsia.certify", cn.certify_alignment, plan, t, mats)
            verdicts = tr.call("mdsia.decode", cn.mdsia_decode_check, demand, pl, cloud, local, t)
            structural = tr.call("mdsia.structural_ndt", cn.mdsia_structural_ndt, pl, cloud, local, mats, RHO)
            closed = tr.call("ndt.closed_form", cn.mdsia_ndt, p.h, p.r, mu_r, mu_t, RHO)
            return cloud, local, plan, report, verdicts, structural, closed

        def check(raw):
            cloud, local, plan, report, verdicts, structural, closed = raw
            stats = Stats()
            _check_verdicts(verdicts, demand, nbytes, stats)
            _gate(report is None or report.ok, "alignment certification failed")
            _check_ndt(p, structural, closed, stats)
            stats.counts["mdsia.messages"] = len(cloud) + len(local)
            stats.counts["mdsia.plan_rows"] = plan.g_rows if plan else 0
            return stats

    elif p.scheme == "soft":

        def run(tr):
            pl = tr.call("soft_transfer.place", cn.soft_place, lib, t, mu_r, mu_t)
            schedule = tr.call("soft_transfer.schedule", cn.soft_schedule, demand, pl, t)
            verdicts = tr.call("soft_transfer.simulate", cn.soft_simulate, schedule, ch, pl, demand)
            structural = tr.call("soft_transfer.structural_ndt", cn.soft_structural_ndt, schedule, pl, RHO)
            closed = tr.call("ndt.closed_form", cn.soft_ndt, p.h, p.r, mu_r, mu_t, RHO)
            return schedule, verdicts, structural, closed

        def check(raw):
            schedule, verdicts, structural, closed = raw
            stats = Stats()
            _check_verdicts(verdicts, demand, nbytes, stats)
            _check_ndt(p, structural, closed, stats)
            stats.counts["soft_transfer.steps"] = len(schedule)
            stats.counts["soft_transfer.entries"] = sum(len(s.entries) for s in schedule)
            stats.counts["channel.null_sets"] = _null_sets(schedule)
            return stats

    else:

        def run(tr):
            pl = tr.call("zf.place", cn.zf_place, lib, t, mu_r, mu_t)
            schedule, verdicts = tr.call("zf.deliver", cn.zf_deliver, demand, pl, t, ch)
            structural = tr.call("zf.structural_ndt", cn.zf_structural_ndt, schedule, pl)
            closed = tr.call("ndt.closed_form", cn.zf_ndt, p.h, p.r, mu_r, mu_t)
            return schedule, verdicts, structural, closed

        def check(raw):
            schedule, verdicts, structural, closed = raw
            stats = Stats()
            _check_verdicts(verdicts, demand, nbytes, stats)
            _check_ndt(p, structural, closed, stats)
            stats.counts["zf.steps"] = len(schedule)
            stats.counts["channel.null_sets"] = _null_sets(schedule)
            return stats

    geometry = (p.scheme, p.h, p.r, p.level, p.mu_t)
    return Op(id=op_id, geometry=geometry, run=run, check=check)


# ---------------------------------------------------------------------------
# lattice-seeds: the criterion-5 lattice as Monte Carlo over library seeds
# ---------------------------------------------------------------------------

LATTICE_CONFIGS = [(3, 2), (4, 2), (5, 2), (4, 3)]
LATTICE_PASSES = 24  # library seeds generated; a run uses as many as fit


def lattice_points() -> list[Point]:
    points = []
    half = Fraction(1, 2)
    for h, r in LATTICE_CONFIGS:
        k, l = comb(h, r), comb(h - 1, r - 1)
        points += [Point("mdsia", h, r, t, Fraction(0)) for t in range(l + 1) if r == 2 or t >= l - 2]
        points += [Point("soft", h, r, t, Fraction(0)) for t in range(k + 1)]
        points += [Point("zf", h, r, t, half) for t in range(k + 1)]
    return points


def lattice_seeds(seed: int, tr) -> Workload:
    inputs = Inputs(tr, seed)
    points = lattice_points()
    bits = [inputs.file_bits(p) for p in points]
    libs = [[inputs.library(p, b) for p, b in zip(points, bits)] for _ in range(LATTICE_PASSES)]

    def ops(j):
        return [
            scheme_op(f"s{j}/{p.label}", p, inputs.topology(p.h, p.r), lib, None)
            for p, lib in zip(points, libs[j])
        ]

    return Workload(passes=LATTICE_PASSES, min_passes=2, ops=ops)


# ---------------------------------------------------------------------------
# large-channel: one-off large geometries, each on its own drawn channel
# ---------------------------------------------------------------------------

LARGE_POINTS = [
    Point("mdsia", 12, 2, 4, Fraction(0)),
    Point("mdsia", 10, 2, 3, Fraction(1, 4)),
    Point("mdsia", 7, 3, 13, Fraction(0)),
    Point("soft", 6, 2, 11, Fraction(1, 2)),
    Point("soft", 5, 2, 6, Fraction(0)),
    Point("soft", 4, 2, 1, Fraction(0)),
    Point("zf", 6, 2, 11, Fraction(1, 2)),
    Point("zf", 5, 2, 6, Fraction(1, 2)),
]
#: null sets of H-1 UEs on the partially connected channel (ROADMAP item 1)
LARGE_KNOWN_DEFECTS = [
    Point("soft", 5, 2, 3, Fraction(0)),
    Point("zf", 5, 2, 3, Fraction(1, 2)),
]


def large_channel(seed: int, tr) -> Workload:
    inputs = Inputs(tr, seed)

    def make(p):
        lib = inputs.library(p, inputs.file_bits(p))
        ch = inputs.channel(p) if p.scheme != "mdsia" else None
        return scheme_op(p.label, p, inputs.topology(p.h, p.r), lib, ch)

    timed = [make(p) for p in LARGE_POINTS]
    probes = [make(p) for p in LARGE_KNOWN_DEFECTS]
    return Workload(passes=1, min_passes=1, ops=lambda j: timed, probes=probes)


# ---------------------------------------------------------------------------
# ndt-grid: exact analytics over NDT-curve slices
# ---------------------------------------------------------------------------

NDT_CONFIGS = [(4, 2), (5, 2), (8, 2), (12, 2), (6, 3), (7, 3)]
NDT_MU_TS = [Fraction(0), Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(1)]
NDT_RHOS = [Fraction(1, 20), Fraction(1, 4), Fraction(1), Fraction(4), Fraction(20)]
NDT_GRID = 2520  # mu_r values are drawn from the multiples of 1/NDT_GRID
NDT_POINTS = 67  # mu_r values per slice and pass
NDT_PASSES = 16


def ndt_op(op_id: str, h: int, r: int, mu_t: Fraction, mu_r: Fraction) -> Op:
    """One mu_r point: the `cachenet sweep` rows, then the fronthaul-gain
    threshold where the cloud-free scheme applies."""
    cloud_free = mu_r + mu_t >= 1

    def run(tr):
        rows = tr.call("cli.sweep_rows", sweep_rows, h, r, mu_t, [mu_r], NDT_RHOS)
        threshold = None
        if cloud_free:
            try:
                threshold = tr.call("ndt.rho_threshold", cn.rho_threshold, h, r, mu_r, mu_t)
            except (cn.UnsupportedRegime, cn.RegionViolation):  # n/a, as in compare_schemes
                threshold = oracle.NA
        return rows, threshold

    def check(raw):
        rows, threshold = raw
        want = oracle.sweep_rows(h, r, mu_t, mu_r, NDT_RHOS)
        bad = next((f"{g!r} != {w!r}" for g, w in zip(rows, want) if g != w), f"{len(rows)} != {len(want)} rows")
        _gate(rows == want, f"sweep row {bad}")
        if cloud_free:
            expected = oracle.rho_threshold(h, r, mu_r, mu_t)
            _gate(threshold == expected, f"rho threshold {threshold} != {expected}")
        stats = Stats(exact=(*rows, str(threshold)))
        stats.counts["cli.rows"] = len(rows)
        stats.counts["ndt.na_cells"] = sum(",n/a," in row for row in rows) + (threshold == oracle.NA)
        return stats

    return Op(id=op_id, geometry=("ndt", h, r, mu_t, mu_r), run=run, check=check)


def ndt_grid(seed: int, tr) -> Workload:
    rng = random.Random(seed)
    grids = [
        [
            (h, r, mu_t, [Fraction(i, NDT_GRID) for i in sorted(rng.sample(range(NDT_GRID + 1), NDT_POINTS))])
            for h, r in NDT_CONFIGS
            for mu_t in NDT_MU_TS
        ]
        for _ in range(NDT_PASSES)
    ]

    def ops(j):
        return [
            ndt_op(f"s{j}/ndt({h},{r},mu_t={mu_t},mu_r={mu_r})", h, r, mu_t, mu_r)
            for h, r, mu_t, mu_rs in grids[j]
            for mu_r in mu_rs
        ]

    return Workload(passes=NDT_PASSES, min_passes=1, ops=ops)


WORKLOADS = {"lattice-seeds": lattice_seeds, "large-channel": large_channel, "ndt-grid": ndt_grid}
