"""Benchmark for cachenet: each workload in a fresh worker process.

    python3 perfbench/run.py --workload lattice-seeds --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn

With ``--trace 0`` the end-to-end metrics are measured; ``setup_s`` is the
median over several set-up-only processes plus the measured one, each
scaled by a reference process spawned just before it. With
``--trace 1`` the worker also runs the same passes traced and reports the
per-layer metrics. Metric names and units come from BENCHMARK.json at the
repository root. The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from pace import REFERENCE_PROCESS_S, REFERENCE_PROGRAM

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lattice-seeds", "large-channel", "ndt-grid")
SETUP_PROBES = 8  # set-up-only processes per measured run
DEADLINE_S = 170.0  # every run, set-up probes included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})


def spawn(cmd: list[str], cwd: Path, deadline: float) -> tuple[float, str, list[str]]:
    """Run ``cmd``; returns (seconds from spawn to its first line, that line,
    the later lines). Output is read as it comes, so the first line is timed
    without polling."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=cwd)
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        first_s = perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return first_s, first.strip(), rest


def worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run one worker; returns (set-up time at the reference speed, later lines).

    Set-up is timed from spawn to 'ready' and scaled by the time of a
    reference process spawned just before, which shares the machine's speed
    of that moment.
    """
    reference_s, _, _ = spawn([sys.executable, "-c", REFERENCE_PROGRAM], HERE, deadline)
    setup_s, ready, rest = spawn([sys.executable, str(HERE / "worker.py"), *args], ROOT, deadline)
    if ready != "ready":
        raise BenchError(f"worker {' '.join(args)} printed {ready!r} before it was ready")
    return setup_s * REFERENCE_PROCESS_S / reference_s, rest


def run_workload(name: str, args, spec: dict, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(args.seed)]
    samples = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            samples.append(worker(common + ["--setup-only"], deadline)[0])
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--trace-out", str(HERE / "out" / f"spans-{name}-seed{args.seed}.jsonl")]
    setup_s, lines = worker(run_args, deadline)
    samples.append(setup_s)
    for line in lines[:-1]:
        print(f"[{name}] {line}")
    result = json.loads(lines[-1])
    print(f"[{name}] numpy {result['numpy']}")

    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(samples)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        print(f"[{name}] {m['name']:32} {values[m['name']]:>16.6g} {m['unit']}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="timed wall time per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    try:
        if not (ROOT / "src" / "cachenet" / "__init__.py").is_file():
            raise BenchError(f"no cachenet sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        print(
            f"revision {git_revision()}, python {platform.python_version()}, "
            f"nproc {len(os.sched_getaffinity(0))} of {os.cpu_count()}, cpu {cpu_model()}, "
            f"seed {args.seed}, seconds {args.seconds}, trace {args.trace}"
        )
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            if args.workload == "all":
                deadline = perf_counter() + DEADLINE_S
            print(json.dumps(run_workload(name, args, spec, deadline)), flush=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
