"""Benchmark for matchreg: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload register-gen --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the last line carries the end-to-end metrics, measured
with nothing wrapped. With ``--trace 1`` the first third of the time runs
untraced as a baseline, the rest with every probed library function wrapped
(see ``probes.py``), and the last line carries the per-layer metrics,
including the tracing overhead against that baseline. Both modes run the
workload's checks after the timed loop. See README.md for the workloads,
metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import program

# Set-up is repeated back to back before the loop for this many seconds, and
# the median is reported: one set-up takes tens to hundreds of milliseconds
# and, on a shared machine, varies by a third from one to the next; the first
# one in a process also pays for first calls into numpy.
SETUP_SECONDS = 2.0
TRACE_BASELINE_SHARE = 1 / 3
WORK_DIR = Path(__file__).resolve().parent / ".work"


@dataclass
class Segment:
    """Timed units of one loop: wall time, operations and failures of each."""

    seconds: list[float] = field(default_factory=list)
    ops: list[int] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return sum(self.ops)

    def op_ms(self) -> list[float]:
        return [1000 * s / n for s, n in zip(self.seconds, self.ops)]


def timed_loop(workload, seconds: float) -> Segment:
    """Run whole units back to back until ``seconds`` have passed."""
    seg = Segment()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        unit = workload.next_unit()
        start = time.perf_counter()
        try:
            output = workload.run(unit)
        except Exception:  # a failing operation is counted, and the loop goes on
            seg.seconds.append(time.perf_counter() - start)
            seg.ops.append(unit.ops)
            seg.failed += unit.ops
            traceback.print_exc()
            continue
        seg.seconds.append(time.perf_counter() - start)
        seg.ops.append(unit.ops)
        problems = workload.failed_ops(unit, output)
        if problems:
            seg.failed += unit.ops
            for p in problems:
                print(f"perfbench: failed operation: {p}", file=sys.stderr)
    return seg


def timed_setups(cls, seed: int, workdir: Path):
    """Fresh workloads set up in ``workdir`` for SETUP_SECONDS: the last one,
    and the seconds each set-up took."""
    seconds = []
    while sum(seconds) < SETUP_SECONDS:
        workload = cls()
        start = time.perf_counter()
        workload.setup(seed, workdir)
        seconds.append(time.perf_counter() - start)
    return workload, seconds


def tail_ms(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it.

    None below forty samples, where that percentile would be no tail.
    """
    if len(values) < 40:
        return None
    ordered = sorted(values)
    pct = max(p for p in range(50, 100) if len(values) * (100 - p) / 100 >= 10)
    return pct, statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, setup_s: list[float], seg: Segment) -> dict:
    ms = seg.op_ms()
    samples = seg.attempted * workload.samples_per_op
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "samples_per_s": (samples / sum(seg.seconds), "1/s"),
        "op_ms": (statistics.median(ms), "ms"),
    }
    print(f"# {workload.name}: {len(ms)} timed units, {seg.attempted} operations, "
          f"{samples} samples, {sum(seg.seconds):.2f} s timed, {len(setup_s)} set-ups")
    tail = tail_ms(ms)
    print("# op_ms tail: " + (f"p{tail[0]} {tail[1]:.4f} ms" if tail else "n/a (under 40 units)"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    matchreg = program.load()
    import probes
    from workloads import WORKLOADS
    from tracer import Tracer

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    print(f"# matchreg {matchreg.__version__} from {program.SRC}; {program.machine()}")

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=WORK_DIR) as tmp:
        workload, setup_s = timed_setups(cls, args.seed, Path(tmp))
        if args.trace:
            base = timed_loop(workload, args.seconds * TRACE_BASELINE_SHARE)
            tracer = Tracer()
            tracer.install(probes.PROBES)
            try:
                traced = timed_loop(workload, args.seconds * (1 - TRACE_BASELINE_SHARE))
            finally:
                tracer.uninstall()
            metrics = probes.layer_metrics(tracer, workload.root, base, traced)
            segments = (base, traced)
        else:
            seg = timed_loop(workload, args.seconds)
            metrics = end_to_end(workload, setup_s, seg)
            segments = (seg,)
        problems = workload.checks()

    for name, value in workload.summary().items():
        print(f"# {name}: {value:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:14.4f} {unit}")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(s.attempted for s in segments),
        "failed": sum(s.failed for s in segments),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
