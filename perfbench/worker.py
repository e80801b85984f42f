"""One workload in one fresh process: set up, run timed passes, report.

Started by run.py. Prints ``ready`` once every input exists, then
human-readable lines, then one JSON line with the measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
from cachenet.cli import CONFIG_FAILURES, VERIFY_FAILURES  # noqa: E402
from cachenet import CachenetError, DegenerateChannel  # noqa: E402

from pace import Pace  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, GateFailure  # noqa: E402

#: per-layer time metrics, one per span name: set-up layers as a total for
#: the run, the others per pass of the traced phase
SETUP_LAYERS = ("topology.build_topology", "sizing.file_bits", "mdscode.random_library", "channel.draw_channel")
OP_LAYERS = (
    "soft_transfer.place", "soft_transfer.schedule", "soft_transfer.simulate", "soft_transfer.structural_ndt",
    "zf.place", "zf.deliver", "zf.structural_ndt",
    "mdsia.place", "mdsia.multicast", "mdsia.interference", "mdsia.plan", "mdsia.certify",
    "mdsia.decode", "mdsia.structural_ndt",
    "cli.sweep_rows", "ndt.rho_threshold", "ndt.closed_form",
)  # fmt: skip
COUNTS = (
    "soft_transfer.steps", "soft_transfer.entries", "zf.steps", "mdsia.messages", "mdsia.plan_rows",
    "channel.null_sets", "cli.rows", "ndt.na_cells", "inputs.verified_bytes",
)  # fmt: skip


def classify(exc: Exception) -> str:
    if isinstance(exc, GateFailure):
        return "gate"
    if isinstance(exc, VERIFY_FAILURES):
        return "verify"
    if isinstance(exc, CONFIG_FAILURES):
        return "config"
    return "error"


def describe(exc: Exception) -> str:
    return f"{classify(exc)} failure {type(exc).__name__}: {exc}"


class Phase:
    """Everything measured over a run of whole passes."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []  # wall clock of each op
        self.latencies: list[float] = []  # the same, at the reference speed
        self.ok = 0
        self.failures: list[tuple[str, Exception]] = []
        self.verified_bytes = 0
        self.passes: list[tuple[str, str, Counter]] = []  # (geometries, fingerprint, counts)
        self.seen: set = set()
        self.repeats = 0

    def run_op(self, op, tr):
        """Time one op, then check it; returns its Stats, or None if it failed."""
        tr.op = op.id
        t0 = perf_counter()
        try:
            raw = tr.call("op", op.run, tr)
        except Exception as exc:  # a failed op is recorded, and the run goes on
            self.intervals.append((t0, perf_counter()))
            self.fail(op, exc)
            return None
        self.intervals.append((t0, perf_counter()))
        try:
            stats = op.check(raw)
        except GateFailure as exc:
            self.fail(op, exc)
            return None
        self.ok += 1
        self.verified_bytes += stats.verified_bytes
        return stats

    def fail(self, op, exc: Exception) -> None:
        if classify(exc) == "error":
            traceback.print_exception(exc, file=sys.stderr)
        self.failures.append((op.id, exc))

    def run_pass(self, ops, tr) -> None:
        geometries, digest, counts = hashlib.sha256(), hashlib.sha256(), Counter()
        for op in ops:
            geometries.update(repr(op.geometry).encode())
            self.repeats += op.geometry in self.seen
            self.seen.add(op.geometry)
            stats = self.run_op(op, tr)
            if stats is not None:
                counts.update(stats.counts)
                counts["inputs.verified_bytes"] += stats.verified_bytes
                digest.update(repr((op.geometry, sorted(stats.counts.items()), stats.exact)).encode())
        self.passes.append((geometries.hexdigest(), digest.hexdigest(), counts))

    def run(self, wl, tr, seconds=None, passes=None) -> "Phase":
        """Whole passes until ``seconds`` of wall time are spent (at least
        the workload's minimum), or exactly ``passes`` of them."""
        with Pace() as self.pace:
            start = perf_counter()
            for j in range(wl.passes if passes is None else passes):
                if passes is None and j >= wl.min_passes and perf_counter() - start >= seconds:
                    break
                self.run_pass(wl.ops(j), tr)
        self.latencies = [self.pace.at_reference(a, b) for a, b in self.intervals]
        return self

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    @property
    def consistent(self) -> bool:
        """Passes over the same geometries must do identical simulated work."""
        by_geometry: dict[str, set] = {}
        for geometries, digest, _ in self.passes:
            by_geometry.setdefault(geometries, set()).add(digest)
        return all(len(d) == 1 for d in by_geometry.values())


def run_probes(wl, tr) -> tuple[int, bool]:
    """Run the known-defect points untimed; returns (failures, acceptable).

    A probe may reproduce its defect (DegenerateChannel), be refused up
    front with one of cachenet's own configuration errors, or pass its
    gates; anything else, a builtin ValueError or TypeError included, is a
    new bug.
    """
    failed, acceptable = 0, True
    probe = Phase()
    for op in wl.probes:
        if probe.run_op(op, tr) is not None:
            print(f"known defect {op.id}: now passes its gates")
            continue
        _, exc = probe.failures[-1]
        failed += 1
        refused = isinstance(exc, CachenetError) and classify(exc) == "config"
        expected = isinstance(exc, DegenerateChannel) or refused
        acceptable &= expected
        print(f"known defect {op.id}: {describe(exc)}" + ("" if expected else "  (UNEXPECTED)"))
    return failed, acceptable


def end_to_end(phase: Phase) -> dict[str, float]:
    lat = phase.latencies
    return {
        "ops_per_s": phase.ok / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tr: Tracer, mark: int, untraced: Phase, traced: Phase, failed_ratio: float) -> dict[str, float]:
    n = len(traced.passes)
    at_speed = traced.pace.at_run_speed
    setup_busy, op_busy = tr.busy(0, mark), tr.busy(mark, duration=at_speed)
    counts = traced.passes[0][2]
    return {
        **{f"{name}_s": setup_busy.get(name, 0.0) for name in SETUP_LAYERS},
        **{f"{name}_s": op_busy.get(name, 0.0) / n for name in OP_LAYERS},
        **{name: counts.get(name, 0) for name in COUNTS},
        "inputs.geometry_repeat_share": untraced.repeats / untraced.attempted,
        "op.self_s": tr.self_time("op", mark, duration=at_speed) / n,
        "trace.overhead_s": (sum(traced.latencies) - sum(untraced.latencies)) / n,
        "failed_ratio": failed_ratio,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", type=Path, default=None, help="where the traced run writes its spans")
    p.add_argument("--setup-only", action="store_true", help="exit once the inputs exist")
    args = p.parse_args(argv)

    tr = Tracer(enabled=bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed, tr)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tr.enabled = False
    untraced = Phase().run(wl, tr, seconds=args.seconds)
    phases = [untraced]
    if args.trace:
        tr.enabled = True
        mark = len(tr.spans)
        phases.append(Phase().run(wl, tr, passes=len(untraced.passes)))
        tr.enabled = False
    probe_failures, probes_ok = run_probes(wl, tr)

    for phase in phases:
        for op_id, exc in phase.failures:
            print(f"failed op {op_id}: {describe(exc)}")
    fingerprint = untraced.passes[0][1]
    consistent = all(ph.consistent and ph.passes[0][1] == fingerprint for ph in phases)
    correct = consistent and probes_ok and not any(ph.failures for ph in phases)
    print(f"fingerprint {args.workload} {fingerprint}" + ("" if consistent else "  (INCONSISTENT across passes)"))
    print("counts per pass " + json.dumps(dict(sorted(untraced.passes[0][2].items()))))
    timed = sum(untraced.latencies)
    failed = len(untraced.failures) + probe_failures
    attempted = untraced.attempted + len(wl.probes)
    print(
        f"passes {len(untraced.passes)}, ops {untraced.attempted}, "
        f"{timed:.3f} s at reference speed, {sum(b - a for a, b in untraced.intervals):.3f} s wall, "
        f"verified {untraced.verified_bytes * 8 / 1e6 / timed:.4f} Mbit/s, failed_ratio {failed}/{attempted}"
    )

    if args.trace:
        metrics = per_layer(tr, mark, untraced, phases[1], failed / attempted)
        if args.trace_out is not None:
            tr.dump(args.trace_out)
            print(f"spans written to {args.trace_out}")
    else:
        metrics = end_to_end(untraced)
    result = {
        "correct": correct,
        "attempted": untraced.attempted,
        "failed": len(untraced.failures),
        "metrics": metrics,
        "numpy": numpy.__version__,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
