"""Benchmark of finitekey: one workload, one seed, one run.

    python3 bench/run.py --workload keyrate --seed 1 --seconds 10 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median seconds for a fresh interpreter to import
  ``finitekey.cli`` and build its parser (``finitekey --help``), over five
  interpreters after one untimed one;
* ``wall_s``: median time of one pass of the workload's job, in process,
  after an untimed warm-up, with tracing off, in reference seconds
  (see `speed`);
* ``peak_rss_mb``: peak resident memory of the process.

With ``--trace 1`` it reports the per-layer metrics of one traced pass
(the median of the traced passes), the tracing overhead and the model's
anchor values.  Both print a readable summary, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every pass's output is checked; ``failed / attempted`` is the error rate.
"""

from __future__ import annotations

import os

# Single-threaded numerics, here and in the set-up interpreters.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from finitekey import cli; sys.exit(cli.main(['--help']))"
)
MIN_PASSES = 2


def measure_setup() -> float:
    """Median wall time of ``SETUP_RUNS`` fresh interpreters, after a warm one.

    In raw seconds: scaling by the reference kernel (see `speed`) made the
    spread of these times wider, not narrower.
    """
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC)]
    times = []
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def timed_passes(job, seconds: float, min_passes: int):
    """Run passes until ``seconds`` have gone by; returns their clocks and outputs."""
    clocks, outputs = [], []
    start = time.perf_counter()
    while len(clocks) < min_passes or time.perf_counter() - start < seconds:
        with speed.ReferenceClock() as clock:
            outputs.append(job.run())
        clocks.append(clock)
    return clocks, outputs


def traced_pass(job, targets):
    tracer = tracing.Tracer()
    with tracing.installed(tracer, targets), speed.ReferenceClock() as clock:
        tracer.begin("bench.pass")
        output = job.run()
        tracer.end()
    return clock, output, tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "finitekey" / "__init__.py").is_file():
        print(f"bench: no finitekey sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    job = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = None if args.trace else measure_setup()

    job.warmup()
    budget = args.seconds / 2 if args.trace else args.seconds
    clocks, outputs = timed_passes(job, budget, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(c.ref_s for c in clocks)
    raw_wall_s = statistics.median(c.raw_s for c in clocks)

    checks = job.check(outputs[0])
    sha = workloads.compare_digests(outputs, checks)

    print(f"workload {args.workload}, seed {args.seed}: {len(clocks)} untraced passes, "
          f"median {raw_wall_s:.4f} s, {wall_s:.4f} reference s "
          f"(kernel median {statistics.median(c.kernel_median_s for c in clocks) * 1e3:.3f} ms)")
    print(f"  output sha256 {sha}")
    if checks.coverage is not None:
        print(f"  coverage {checks.coverage:.4f} (99% intervals covering the exact value)")

    if args.trace:
        traced = []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < budget:
            traced.append(traced_pass(job, layers.TARGETS))
        workloads.compare_digests([outputs[0]] + [out for _, out, _ in traced], checks)
        traced.sort(key=lambda item: item[0].ref_s)
        clock, _, tracer = traced[(len(traced) - 1) // 2]
        metrics = layers.layer_metrics(tracer, tracer.stats["bench.pass"].total_s)
        metrics["trace.overhead_s"] = (clock.ref_s - wall_s, "s")
        metrics["check.coverage"] = (checks.coverage or 0.0, "ratio")
        metrics.update(workloads.anchors())
        print(f"  {len(traced)} traced passes, median {clock.raw_s:.4f} s, "
              f"{clock.ref_s:.4f} reference s")
        print("  layer-size table:")
        for m in layers.ORACLE_SIZES:
            value = metrics[f"bounds.exact_joint_ppe.us_per_call.m{m}"][0]
            print(f"    bounds.exact_joint_ppe  m={m:<8d} {value:12.2f} us/call")
        for m in layers.SIMULATOR_SIZES:
            value = metrics[f"simulator.run.us_per_trial.m{m}"][0]
            print(f"    simulator.run           m={m:<8d} {value:12.2f} us/trial")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    for name, (value, unit) in metrics.items():
        print(f"  {name:<44s} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<44s} {checks.error_rate:>16.6g} ratio "
          f"({len(checks.failures)} of {checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
