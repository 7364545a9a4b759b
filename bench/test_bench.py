"""Tests of the benchmark's own machinery: checkers, digests and span arithmetic.

    python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Checks, Output  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    # root 0..10 { a 1..4 { b 2..3 }, c 5..9 { b 6..8 } }
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    events = [
        (0, "begin", "root"), (1, "begin", "a"), (2, "begin", "b"), (3, "end", None),
        (4, "end", None), (5, "begin", "c"), (6, "begin", "b"), (8, "end", None),
        (9, "end", None), (10, "end", None),
    ]
    for at, kind, name in events:
        clock.now = at
        if kind == "begin":
            tracer.begin(name)
        else:
            tracer.end()
    self_s = {name: stat.self_s for name, stat in tracer.stats.items()}
    assert self_s == {"root": 3.0, "a": 2.0, "b": 3.0, "c": 2.0}
    assert sum(self_s.values()) == tracer.stats["root"].total_s == 10.0
    assert tracer.stats["b"].calls == 2
    assert tracer.edges[("a", "b")].total_s == 1.0
    assert tracer.edges[("c", "b")].total_s == 2.0
    assert tracer.edges[("root", "c")].calls == 1


def test_traced_counts_outcomes_errors_and_sizes():
    tracer = tracing.Tracer()

    def half(x):
        if x < 0:
            raise ValueError("negative")
        return x / 2

    wrapped = tracing.traced(
        tracer, "half", half, outcome=lambda r: r >= 1, size=lambda x: (f"x{x}", 3)
    )
    assert wrapped(4) == 2
    assert wrapped(1) == 0.5
    with pytest.raises(ValueError):
        wrapped(-1)
    stat = tracer.stats["half"]
    assert (stat.calls, stat.hits, stat.errors) == (3, 1, {"ValueError": 1})
    assert tracer.sized[("half", "x4")].work == 3


def test_installed_restores_the_originals():
    from finitekey import optimizer

    original = optimizer.max_ell_at
    with tracing.installed(tracing.Tracer(), layers.TARGETS):
        assert optimizer.max_ell_at is not original
    assert optimizer.max_ell_at is original


def test_reference_clock_excludes_its_samples_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with speed.ReferenceClock() as clock:
        while time.perf_counter() - start < 0.5:
            pass
    elapsed = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock._samples) >= 3
    assert 0.3 < clock.raw_s < elapsed
    assert clock.ref_s > 0.0


def test_digest_mismatch_is_a_failure():
    checks = Checks()
    workloads.compare_digests([Output("a\n"), Output("a\n"), Output("b\n")], checks)
    assert checks.attempted == 2 and len(checks.failures) == 1


def _csv(header, rows):
    return "\n".join(",".join(str(v) for v in row) for row in [header] + rows) + "\n"


def test_keyrate_checker_catches_ell_one_too_high():
    job = workloads.Keyrate(0)
    job.ms = [3100]
    output = job.run()
    assert job.check(output).error_rate == 0
    lines = output.text.splitlines()
    row = lines[1].split(",")
    assert row[1] == "lemma2" and row[-1] == "true"
    row[2] = str(int(row[2]) + 1)
    lines[1] = ",".join(row)
    bad = Output("\n".join(lines) + "\n", output.codes)
    checks = job.check(bad)
    assert checks.error_rate > 0
    assert any("feasible rejects" in f for f in checks.failures)


def test_keyrate_checker_catches_a_failed_cli_call():
    job = workloads.Keyrate(0)
    job.ms = []
    assert job.check(Output("", [2])).error_rate > 0


def test_minblock_checker_catches_wrong_m_min():
    job = workloads.Minblock(0)

    def output(m_min_lemma2, found="true"):
        return Output(_csv(workloads.MINBLOCK_HEADER, [
            [0.0451, 10, "lemma2", m_min_lemma2, found],
        ]), [0])

    # Far above the threshold, m_min - 1 still has a key.
    assert job.check(output(10000)).error_rate > 0
    # Far below it, m_min itself has none.
    assert job.check(output(1500)).error_rate > 0
    assert job.check(output("", found="false")).error_rate > 0


def _validate_rows(n=50, exact=0.01):
    return [
        [20, 10, 10, 3, 0.05, 0.35, 0.12, 1000, i, exact, exact, 0.0, 0.02, 0.5, 0.4, "true"]
        for i in range(n)
    ]


def test_validate_checker_catches_a_bound_below_exact():
    job = workloads.Validate(0)
    rows = _validate_rows()
    good = Output(_csv(workloads.VALIDATE_HEADER, rows), [0])
    assert job.check(good).error_rate == 0
    rows[7][14] = 0.001  # lemma2_bound below exact
    checks = job.check(Output(_csv(workloads.VALIDATE_HEADER, rows), [1]))
    assert checks.error_rate > 0
    assert any("lemma2_bound" in f for f in checks.failures)


def test_validate_checker_catches_low_coverage():
    job = workloads.Validate(0)
    rows = _validate_rows()
    for row in rows[:3]:
        row[11], row[12] = 0.02, 0.03  # interval misses the exact value
    checks = job.check(Output(_csv(workloads.VALIDATE_HEADER, rows), [1]))
    assert checks.coverage == pytest.approx(0.94)
    assert checks.error_rate > 0


def _audit_rows(job):
    rows = []
    for m in (60, 3100, 4820, 6422):
        rows.append(["mc", m, m // 2, 5, 0.0451, 0.01, 0.005, 10000, 1, 500, 0.05,
                     0.044, 0.056, 0.05, 0.6, 0.7])
    for m in job.oracle_sizes:
        rows.append(["oracle", m, m // 2, 50, 0.0451, 0.01, 0.005, "", "", "", "", "", "",
                     1e-30, 1e-20, 1e-21])
    return rows


def test_audit_checker_catches_a_bound_below_exact():
    job = workloads.AuditOperating(0)
    rows = _audit_rows(job)
    assert job.check(Output(_csv(workloads.AUDIT_HEADER, rows))).error_rate == 0
    rows[-1][-2] = 1e-40  # serfling bound below the oracle's sup
    checks = job.check(Output(_csv(workloads.AUDIT_HEADER, rows)))
    assert checks.error_rate > 0


def test_audit_checker_catches_a_frequency_far_from_exact():
    job = workloads.AuditOperating(0)
    rows = _audit_rows(job)
    rows[1][10:13] = [0.07, 0.064, 0.076]  # ten standard errors above exact
    checks = job.check(Output(_csv(workloads.AUDIT_HEADER, rows)))
    assert checks.error_rate > 0
    assert checks.coverage == 0.75


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    reported = set(layers.layer_metrics(tracing.Tracer(), 1.0))
    reported |= {"trace.overhead_s", "check.coverage"}
    listed = {m["name"] for m in spec["per_layer"]}
    assert reported <= listed
    assert all(name.startswith("anchor.") for name in listed - reported)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
