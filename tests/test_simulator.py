"""Tests for the Monte Carlo audit of the two closed-form bounds."""

import math
import re
import statistics
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import (
    binomial_lower_tail,
    binomial_tail,
    enum_joint,
    enumeration_tables,
    urn_pe_errors,
)

import finitekey.simulator as simulator
from finitekey.bounds import (
    BlockShape,
    SlackParams,
    exact_joint_ppe,
    lemma2_ppe_bound,
    max_passing_pe_errors,
    min_alarming_key_errors,
    serfling_epe,
)
from finitekey.simulator import (
    SimConfig,
    ValidationCase,
    ValidationRow,
    default_validation_grid,
    run,
    validate_bounds,
)

# smallest block where the bad-event probability is a hand-computable 1/6
TIGHT_CASE = ValidationCase(
    shape=BlockShape(m=4, k=2),
    w=2,
    delta=0.0,
    nu=1.0,
    xi=0.25,
    trials=4000,
    seed=7,
)

# n (nu - xi) <= 1 makes the two-term bound undefined
UNDEFINED_CASE = ValidationCase(
    shape=BlockShape(m=40, k=20),
    w=10,
    delta=0.05,
    nu=0.06,
    xi=0.01,
    trials=100,
    seed=1,
)


class TestRun:
    def test_reproducible(self):
        cfg = SimConfig(
            shape=BlockShape(m=60, k=30), w=12, delta=0.1, nu=0.3, trials=5000, seed=3
        )
        assert run(cfg) == run(cfg)

    def test_seed_changes_counts(self):
        # about 470 expected events per seed, so five seeds all tying is
        # out of reach for any sampler that depends on the seed
        base = dict(
            shape=BlockShape(m=3100, k=1550), w=155, delta=0.0451, nu=0.01, trials=5000
        )
        counts = {run(SimConfig(seed=seed, **base)).bad_event_count for seed in range(5)}
        assert len(counts) > 1

    def test_no_errors_no_bad_event(self):
        cfg = SimConfig(
            shape=BlockShape(m=60, k=30), w=0, delta=0.1, nu=0.3, trials=2000, seed=1
        )
        report = run(cfg)
        assert report.frequency == 0.0
        assert report.exact == 0.0

    def test_small_block_hand_value(self):
        report = run(replace(TIGHT_CASE, trials=600_000, seed=11))
        assert abs(report.exact - 1.0 / 6.0) < 1e-15
        assert report.ci_low <= 1.0 / 6.0 <= report.ci_high

    def test_midsize_ci_contains_exact(self):
        cfg = SimConfig(
            shape=BlockShape(m=60, k=30),
            w=12,
            delta=0.1,
            nu=0.3,
            trials=100_000,
            seed=2,
        )
        report = run(cfg)
        assert 0.0 < report.exact < 1.0
        assert report.ci_low <= report.exact <= report.ci_high

    def test_zero_count_interval_starts_at_zero(self):
        # rare event with few trials: no count, so the lower limit is 0
        cfg = SimConfig(
            shape=BlockShape(m=60, k=30),
            w=30,
            delta=0.05,
            nu=0.45,
            trials=500,
            seed=5,
        )
        report = run(cfg)
        assert report.bad_event_count == 0
        assert report.ci_low == 0.0
        assert report.ci_high > 0.0

    def test_config_validation(self):
        shape = BlockShape(m=60, k=30)
        with pytest.raises(ValueError):
            SimConfig(shape=shape, w=61, delta=0.1, nu=0.3, trials=100, seed=0)
        with pytest.raises(ValueError):
            SimConfig(shape=shape, w=5, delta=0.1, nu=0.3, trials=0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(shape=shape, w=5, delta=0.1, nu=-0.3, trials=100, seed=0)

    def test_w_must_be_an_integer(self):
        shape = BlockShape(m=60, k=30)
        for w in (6.5, 6.0):
            with pytest.raises(ValueError, match="integer"):
                SimConfig(shape=shape, w=w, delta=0.1, nu=0.3, trials=100, seed=0)
        cfg = SimConfig(shape=shape, w=np.int64(6), delta=0.1, nu=0.3, trials=100, seed=0)
        assert cfg.w == 6 and type(cfg.w) is int

    def test_trials_and_seed_must_be_integers(self):
        # a float reached numpy's sampler and died there with a TypeError
        shape = BlockShape(m=60, k=30)
        bad = [{"trials": 2.5}, {"trials": 100.0}, {"seed": 1.5}]
        for fields in bad:
            kwargs = {"trials": 100, "seed": 0, **fields}
            with pytest.raises(ValueError, match="integer"):
                SimConfig(shape=shape, w=6, delta=0.1, nu=0.3, **kwargs)
        cfg = SimConfig(
            shape=shape, w=6, delta=0.1, nu=0.3, trials=np.int64(100), seed=np.int64(1)
        )
        assert (cfg.trials, cfg.seed) == (100, 1)
        assert type(cfg.trials) is int and type(cfg.seed) is int

    def test_chunk_streams_are_spawned_children(self):
        # chunk i draws from child i of SeedSequence(seed).spawn
        cfg = SimConfig(
            shape=BlockShape(m=60, k=30), w=12, delta=0.1, nu=0.3,
            trials=3 * simulator._CHUNK + 5, seed=9,
        )
        pe_max = max_passing_pe_errors(cfg.shape, cfg.delta)
        key_min = min_alarming_key_errors(cfg.shape, cfg.delta, cfg.nu)
        limit = min(pe_max, cfg.w - key_min)
        children = np.random.SeedSequence(cfg.seed).spawn(4)
        sizes = [simulator._CHUNK] * 3 + [5]
        bad = sum(
            simulator._count_bad(
                np.random.default_rng(child), size, cfg.shape, cfg.w, limit
            )
            for child, size in zip(children, sizes)
        )
        assert run(cfg).bad_event_count == bad

    def test_huge_trial_count_starts_drawing_at_once(self, monkeypatch):
        # 10^12 trials are 15 million chunks; making all their seeds before
        # the first draw ran out of memory
        class FirstChunk(Exception):
            pass

        def first_chunk(rng, size, *args):
            raise FirstChunk(size)

        monkeypatch.setattr(simulator, "_count_bad", first_chunk)
        cfg = SimConfig(
            shape=BlockShape(m=100, k=50), w=10, delta=0.05, nu=0.1,
            trials=10**12, seed=1,
        )
        with pytest.raises(FirstChunk) as caught:
            run(cfg)
        assert caught.value.args == (simulator._CHUNK,)


def _record_draws(monkeypatch):
    """Make `simulator._count_bad` record its ``size`` and draw nothing."""
    sizes = []

    def record(rng, size, *args):
        sizes.append(size)
        return 0

    monkeypatch.setattr(simulator, "_count_bad", record)
    return sizes


class TestDrawRule:
    """`run` draws exactly where its bad event can happen."""

    @pytest.mark.parametrize(
        "delta, nu", [(0.0, 1.0), (0.0, 0.35), (0.1, 0.3), (0.25, 0.2), (0.6, 0.5), (1.0, 0.1)]
    )
    def test_draws_exactly_where_enumeration_is_positive(self, monkeypatch, delta, nu):
        sizes = _record_draws(monkeypatch)
        for m in range(2, 13):
            for k in range(1, m):
                shape = BlockShape(m=m, k=k)
                counts, total = enumeration_tables(m, k)
                pe_max = max_passing_pe_errors(shape, delta)
                key_min = min_alarming_key_errors(shape, delta, nu)
                for w in range(m + 1):
                    sizes.clear()
                    run(SimConfig(shape=shape, w=w, delta=delta, nu=nu, trials=1, seed=0))
                    possible = enum_joint(counts, total, k, w, pe_max, key_min) > 0
                    assert sizes == ([1] if possible else []), (m, k, w)

    def test_default_grid_draws_only_in_possible_cases(self, monkeypatch):
        sizes = _record_draws(monkeypatch)
        trials = 2 * simulator._CHUNK + 3
        drawn = []
        for case in default_validation_grid(trials=trials):
            sizes.clear()
            report = run(case)
            assert sizes == ([simulator._CHUNK] * 2 + [3] if report.exact > 0.0 else [])
            drawn.append(bool(sizes))
        assert (drawn.count(False), drawn.count(True)) == (29, 21)


def within(freq, p, trials, draws=1):
    """``freq`` within 5 standard errors plus one count of ``p``.

    ``draws`` is 2 when ``p`` is itself a frequency over ``trials``.
    """
    return abs(freq - p) <= 5.0 * math.sqrt(draws * p * (1.0 - p) / trials) + 1.0 / trials


class TestSampler:
    """`run` against the slot-by-slot replay of the split and the exact value."""

    @pytest.mark.parametrize("m, delta, nu, w", [(60, 0.1, 0.3, 15), (1000, 0.05, 0.03, 65)])
    def test_run_urn_and_exact_agree(self, m, delta, nu, w):
        shape, trials = BlockShape(m=m, k=m // 2), 100_000
        exact = exact_joint_ppe(shape, delta, nu, w)
        assert exact >= 1e-3
        report = run(SimConfig(shape=shape, w=w, delta=delta, nu=nu, trials=trials, seed=4))
        pe = urn_pe_errors(np.random.default_rng(4), trials, m, shape.k, w)
        bad = (pe <= max_passing_pe_errors(shape, delta)) & (
            w - pe >= min_alarming_key_errors(shape, delta, nu)
        )
        urn = np.count_nonzero(bad) / trials
        assert within(report.frequency, exact, trials)
        assert within(urn, exact, trials)
        assert within(report.frequency, urn, trials, draws=2)

    def test_urn_pmf_matches_enumeration(self):
        m, k, w, trials = 14, 7, 6, 100_000
        counts, total = enumeration_tables(m, k)
        pe = urn_pe_errors(np.random.default_rng(8), trials, m, k, w)
        seen = np.bincount(pe, minlength=k + 1) / trials
        for p in range(k + 1):
            want = counts[w][p] / total
            assert abs(seen[p] - want) <= 5.0 * math.sqrt(want * (1.0 - want) / trials)


def _interval_cases():
    yield from ((c, 1) for c in (0, 1))
    for trials in (20, 200, 2000):
        counts = (0, 1, 29, 30, 31, trials // 2, trials - 31, trials - 30, trials - 29,
                  trials - 1, trials)
        yield from ((c, trials) for c in sorted(set(counts)) if 0 <= c <= trials)
    # counts of the default grid at 100,000 trials, as the bench's seed-1 pass draws them
    yield from ((c, 100_000) for c in (4, 97, 448, 2846))
    for trials in (10**9, 10**12):
        for c in (1, 3, 1000, 10**4):
            yield from ((c, trials), (trials - c, trials))


def _holds_half_a_percent(tail, limit):
    """``tail(limit)`` is 0.5% to 1e-9 relative, or a limit above 1/2 is
    within one float step of the exact one.

    Near 1 the float64 spacing, 1.1e-16, is a coarse step in ``1 - limit``:
    at 10^12 trials and a count of ``trials - 1`` one step moves the tail by
    2%.  No float meets 1e-9 there; the best is the float next to the root,
    which puts the tails at the two neighbouring floats on either side of
    0.5%.  Below 1/2 a step is at most 2.2e-16 relative, and no limit is
    let off.
    """
    if tail(limit) == pytest.approx(0.005, rel=1e-9):
        return True
    below, above = tail(math.nextafter(limit, 0.0)), tail(math.nextafter(limit, 1.0))
    return limit > 0.5 and min(below, above) <= 0.005 <= max(below, above)


class TestConfidenceInterval:
    """`_confidence_interval` against 30-digit sums of the binomial pmf."""

    @pytest.mark.parametrize("count, trials", list(_interval_cases()))
    def test_each_tail_holds_half_a_percent(self, count, trials):
        # a normal approximation served counts 30 .. trials - 30: at 30 of
        # 2,000 its limits left 0.066% below and 1.31% above
        lo, hi = simulator._confidence_interval(count, trials)
        if count == 0:
            assert lo == 0.0
        else:
            assert _holds_half_a_percent(lambda p: binomial_tail(trials, count, p), lo)
        if count == trials:
            assert hi == 1.0
        else:
            assert _holds_half_a_percent(lambda p: binomial_lower_tail(trials, count, p), hi)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), trials=st.integers(1, 10**12))
    def test_limits_hold_the_frequency_and_grow_with_the_count(self, data, trials):
        count = data.draw(st.integers(0, trials - 1))
        lo, hi = simulator._confidence_interval(count, trials)
        next_lo, next_hi = simulator._confidence_interval(count + 1, trials)
        assert 0.0 <= lo <= count / trials <= hi <= 1.0
        assert 0.0 <= next_lo <= (count + 1) / trials <= next_hi <= 1.0
        assert lo <= next_lo and hi <= next_hi

    def test_search_that_does_not_converge_raises(self, monkeypatch):
        # the limits at 30 of 2,000 take 5 and 4 Newton steps, so one is too few
        monkeypatch.setattr(simulator, "_NEWTON_STEPS", 1)
        with pytest.raises(ArithmeticError, match="did not converge at 30 of 2000"):
            simulator._confidence_interval(30, 2000)

    def test_tail_lost_everywhere_raises(self, monkeypatch):
        # no bracket can form, so bisection has nothing to halve
        monkeypatch.setattr(simulator, "_upper_tail", lambda k, n, p, q: (0.0, 0.0))
        with pytest.raises(ArithmeticError, match="did not converge"):
            simulator._confidence_interval(30, 2000)

    def test_tail_above_its_mean_raises(self):
        # the limits' searches never ask above k / (n + 1) = 3/11, so a
        # tail there would be a path that no search and no test runs
        with pytest.raises(ArithmeticError, match="above its mean"):
            simulator._upper_tail(3, 10, 0.9, 0.1)


class TestOperatingPoint:
    """Audit cases at the operating block sizes, ``w`` at the sup of the exact value."""

    @pytest.mark.parametrize("m, w_sup", [(3100, 155), (4820, 241), (6422, 321)])
    def test_frequency_and_bounds(self, m, w_sup):
        shape = BlockShape(m=m, k=m // 2)
        delta, slack, trials = 0.0451, SlackParams(nu=0.01, xi=0.005), 100_000
        ws = range(math.floor(m * delta), math.ceil(m * (delta + slack.nu)) + 1)
        assert max(ws, key=lambda w: exact_joint_ppe(shape, delta, slack.nu, w)) == w_sup
        report = run(
            SimConfig(shape=shape, w=w_sup, delta=delta, nu=slack.nu, trials=trials, seed=m)
        )
        assert within(report.frequency, report.exact, trials)
        assert report.exact <= serfling_epe(shape, slack.nu) ** 2
        assert report.exact <= lemma2_ppe_bound(shape, delta, slack)


class TestDefaultGrid:
    def test_structure(self):
        grid = default_validation_grid()
        assert len(grid) == 50
        assert {c.shape.m for c in grid} == {20, 40, 60}
        assert {c.delta for c in grid} == {0.05, 0.1}
        assert all(c.shape.k == c.shape.m // 2 for c in grid)
        assert all(c.trials == 100_000 for c in grid)
        seeds = [c.seed for c in grid]
        assert seeds == list(range(20260821, 20260821 + 50))

    def test_all_cases_pass_at_reduced_trials(self):
        # Every case passes the deterministic checks: no note, exact at or
        # below both bounds.  The 99% intervals are random: 50 of them all
        # covering at once is a property of one draw, so coverage is held
        # to C7's rule instead.
        grid = default_validation_grid(trials=20_000)
        rows = validate_bounds(grid)
        assert len(rows) == 50
        assert all(r.note is None for r in rows)
        assert all(r.exact <= min(r.serfling_bound, r.lemma2_bound) for r in rows)
        covered = [r.ci_low <= r.exact <= r.ci_high for r in rows]
        assert [r.passed for r in rows] == covered
        assert sum(covered) >= 0.95 * len(rows)

    def test_readme_and_module_state_the_audit(self):
        # the cases that make no draw (exact value 0) and those that can
        # fire; over the latter, the interval's half-width relative to the
        # exact value, its median and least, and the least ratio of a bound
        # to the exact value, which the text floors ("at least")
        rows = validate_bounds(default_validation_grid())
        fire = [r for r in rows if r.exact > 0.0]
        width = [(r.ci_high - r.ci_low) / 2.0 / r.exact for r in fire]
        ratio = min(min(r.serfling_bound, r.lemma2_bound) / r.exact for r in fire)
        computed = [
            str(len(rows) - len(fire)), str(len(rows)), str(len(fire)),
            f"{statistics.median(width):.0%}", f"{min(width):.1%}",
            str(math.floor(10 * ratio) / 10),
        ]
        pattern = re.compile(
            r"(\d+) of the (\d+) cases.*? the (\d+) (?:default )?cases that can fire.*?"
            r" a median (\d+%) of the exact value and ([\d.]+%) at best.*? at least ([\d.]+) times"
        )
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        for text in (readme, simulator.__doc__):
            assert list(pattern.search(" ".join(text.split())).groups()) == computed


class TestValidateBounds:
    def test_empty_grid(self):
        assert validate_bounds([]) == []

    def test_tight_case_passes_clean(self):
        (row,) = validate_bounds([TIGHT_CASE])
        assert row.passed
        assert row.note is None
        assert abs(row.exact - 1.0 / 6.0) < 1e-15
        # this entry is tight enough that halving the bound crosses the
        # exact value, which is what the corruption check below relies on
        assert row.serfling_bound < 2.0 * row.exact

    def test_halved_bound_is_flagged(self, monkeypatch):
        def halved(shape, nu):
            return math.sqrt(0.5) * serfling_epe(shape, nu)

        monkeypatch.setattr(simulator, "serfling_epe", halved)
        (row,) = validate_bounds([TIGHT_CASE])
        assert not row.passed
        assert row.exact > row.serfling_bound

    def test_precondition_failure_reported_per_row(self):
        # the row of a case whose bound is undefined must carry a note
        # instead of aborting the batch
        rows = validate_bounds([UNDEFINED_CASE, TIGHT_CASE])
        assert len(rows) == 2
        assert not rows[0].passed
        assert rows[0].note is not None
        assert math.isnan(rows[0].exact)
        assert rows[1].passed

    def test_case_is_checked_when_built(self):
        # a case is a SimConfig: more planted errors than bits never reaches
        # validate_bounds, where it would abort the whole batch inside run
        with pytest.raises(ValueError, match="w must lie in"):
            ValidationCase(
                shape=BlockShape(m=40, k=20),
                w=41,
                delta=0.05,
                nu=0.35,
                xi=0.12,
                trials=100,
                seed=1,
            )

    @pytest.mark.parametrize(
        "change, message",
        [({"xi": 0.5}, "xi must lie in"), ({"nu": 1.5}, "nu must lie in")],
    )
    def test_slack_is_checked_when_built(self, change, message):
        # SlackParams used to reject these inside validate_bounds, outside its
        # try, so one such case aborted the batch and the good cases got no row
        with pytest.raises(ValueError, match=message):
            replace(default_validation_grid()[0], **change)


def serial_rows(cases):
    """The rows of `validate_bounds` from a loop over `run` on this thread.

    The reference that the thread pool must reproduce row for row.
    """
    rows = []
    for case in cases:
        slack = SlackParams(nu=case.nu, xi=case.xi)
        try:
            s_bound = min(1.0, serfling_epe(case.shape, case.nu) ** 2)
            l_bound = lemma2_ppe_bound(case.shape, case.delta, slack)
        except ValueError as exc:
            rows.append(ValidationRow(case=case, passed=False, note=str(exc)))
            continue
        report = run(case)
        passed = (
            report.exact <= s_bound
            and report.exact <= l_bound
            and report.ci_low <= report.exact <= report.ci_high
        )
        rows.append(
            ValidationRow(
                case=case,
                passed=passed,
                exact=report.exact,
                frequency=report.frequency,
                ci_low=report.ci_low,
                ci_high=report.ci_high,
                serfling_bound=s_bound,
                lemma2_bound=l_bound,
            )
        )
    return rows


def call_joined(fn, *args, timeout=120):
    """What ``fn(*args)`` returns or raises, called on a thread joined with a timeout.

    Returns ``(result, exception)``, one of them None.
    """
    outcome = [None, None]

    def target():
        try:
            outcome[0] = fn(*args)
        except BaseException as exc:  # handed back to the test to check
            outcome[1] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{fn.__name__} did not return in {timeout} s"
    return tuple(outcome)


def interleaved_cases():
    """Grid cases with undefined-bound cases between them, first and last."""
    grid = default_validation_grid(trials=2000)
    return [
        UNDEFINED_CASE, *grid[:20], TIGHT_CASE, replace(UNDEFINED_CASE, seed=2),
        *grid[20:], replace(UNDEFINED_CASE, w=3),
    ]


class TestThreadPool:
    """`validate_bounds` runs its cases on threads and returns the serial rows."""

    @pytest.mark.parametrize("cpus", [None, 1, 8], ids=["host", "one", "eight"])
    @pytest.mark.parametrize(
        "cases",
        [lambda: default_validation_grid(trials=2000), interleaved_cases],
        ids=["grid", "interleaved"],
    )
    def test_rows_equal_the_serial_loop(self, monkeypatch, cpus, cases):
        # eight threads are more than the cores of most hosts; a short
        # switch interval makes the threads trade the lock often
        cases = cases()
        if cpus is not None:
            monkeypatch.setattr(simulator, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rows, error = call_joined(validate_bounds, cases)
        finally:
            sys.setswitchinterval(interval)
        assert error is None
        assert threading.active_count() == before
        assert rows == serial_rows(cases)

    def test_one_thread_per_cpu(self, monkeypatch):
        # the executor's own default starts up to 4 more threads than CPUs
        monkeypatch.setattr(simulator, "_usable_cpus", lambda: 1)
        names = set()

        def recorded(case):
            names.add(threading.current_thread().name)
            time.sleep(0.002)
            return run(case)

        monkeypatch.setattr(simulator, "run", recorded)
        rows, error = call_joined(validate_bounds, default_validation_grid(trials=200)[:6])
        assert error is None and len(rows) == 6
        assert len(names) == 1

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
        assert simulator._usable_cpus() == 3
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: None)
        assert simulator._usable_cpus() == 1

    @pytest.mark.parametrize("error", [ArithmeticError, KeyboardInterrupt])
    def test_first_failing_case_raises_and_the_rest_are_cancelled(self, monkeypatch, error):
        # The third and fourth drawing cases raise, the fourth at once and
        # the third after a pause, so the fourth fails first in time; the
        # third must raise, as in a serial loop.  Each case pauses, so the
        # 50 cases take about half a second on two threads, and the error
        # surfaces within a few of them.
        cases = default_validation_grid(trials=200)
        started = []

        def failing(case):
            started.append(case)
            if case is cases[2]:
                time.sleep(0.05)
                raise error(case.seed)
            if case is cases[3]:
                raise error(case.seed)
            time.sleep(0.02)
            return run(case)

        monkeypatch.setattr(simulator, "run", failing)
        before = threading.active_count()
        rows, raised = call_joined(validate_bounds, cases)
        assert rows is None
        assert type(raised) is error and raised.args == (cases[2].seed,)
        assert len(started) < len(cases)
        assert threading.active_count() == before

    def test_interrupt_on_the_calling_thread_cancels_the_rest(self, monkeypatch):
        # A Ctrl-C lands on the calling thread, here while it builds the
        # third row; the queued cases must not run before it propagates.
        cases = default_validation_grid(trials=200)
        started = []
        row = simulator.ValidationRow

        def paused(case):
            started.append(case)
            time.sleep(0.02)
            return run(case)

        def interrupted(*, case, **fields):
            if case is cases[2]:
                raise KeyboardInterrupt
            return row(case=case, **fields)

        monkeypatch.setattr(simulator, "run", paused)
        monkeypatch.setattr(simulator, "ValidationRow", interrupted)
        before = threading.active_count()
        rows, raised = call_joined(validate_bounds, cases)
        assert rows is None and type(raised) is KeyboardInterrupt
        assert len(started) < len(cases)
        assert threading.active_count() == before
