"""Acceptance suite.

Each test exercises one shipping criterion end to end and prints a single
``ACCEPTANCE C<n> PASS/FAIL: <detail>`` line to the live terminal before
asserting, so the full scorecard is visible in any run.

The numeric anchors (expected key length, threshold windows, reduction
fractions) are external reference values.  Two of them are not
reproduced by this model: C1 (the reference block yields 10 secret bits,
not 6) and C4 (the threshold reduction is about 0.24-0.25, above the
expected 0.12..0.19).  Those tests fail rather than being loosened; the
README records the discrepancy analysis.

C3 checks the two-term threshold against its anchor window, 4560..5040.
Its single-term anchor window, 5510..6090, is reached only if the
single-term route is not charged the privacy-amplification cost.  The
single-term route follows Tomamichel et al. (Nat. Commun. 3, 634, 2012),
whose key-length formula charges that cost: under it no block size up to
6090 has a key at s = 10 (`oracle_utils.published_single_term_threshold`,
checked with three constants in the deviation's logarithm).  Under this
model's budget ``2^-t + 2 eps_pe + eps_pa <= 10^-s``, which `feasible`
applies to both bounds, the best single-term point at m = 6090 is 29 bits
short of one key bit.  The single-term threshold is therefore checked
against an exact reference of that budget,
`oracle_utils.single_term_threshold`, which decides every k of every block
size from the bottom of the scan up; C3 also checks that the published
formula rules the window out, and the window stays in the detail line.
C4's window is the paper's own headline (14-17%, see PAPER.md), so it is
kept: under the same budget the reduction is not reproduced.
"""

import re
import time
from pathlib import Path

import numpy as np
import pytest
from oracle_utils import (
    enum_joint,
    enumeration_tables,
    published_single_term_threshold,
    single_term_threshold,
)

from finitekey.bounds import (
    BlockShape,
    SlackParams,
    exact_joint_ppe,
    lemma2_ppe_bound,
    serfling_epe,
)
from finitekey.cli import main as cli_main
from finitekey.optimizer import min_block_length, optimize
from finitekey.security import ProtocolSettings, SecurityBudget, feasible, stream_budget
from finitekey.simulator import default_validation_grid, validate_bounds


def record(capsys, cid, ok, detail):
    line = f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def readme_detail(cid):
    """The detail cell of criterion ``cid`` in the README's acceptance table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    row = next(line for line in readme.splitlines() if line.startswith(f"| {cid} "))
    return row.split("|")[3]


@pytest.fixture(scope="module")
def thresholds():
    """Minimum viable block sizes for both bounds at both budgets."""
    out = {}
    start = time.perf_counter()
    for s in (6, 10):
        budget = SecurityBudget(s)
        for variant in ("lemma2", "serfling"):
            out[(s, variant)] = min_block_length(
                0.0451, budget, variant, m_lo=1000, m_hi=20000
            )
    out["elapsed"] = time.perf_counter() - start
    return out


def test_c1_reference_block_two_term_key_length(capsys):
    start = time.perf_counter()
    res = optimize(3100, 0.0451, SecurityBudget(6), "lemma2")
    elapsed = time.perf_counter() - start
    pt = res.point
    ok = (
        res.feasible
        and res.ell == 6
        and abs(pt.alpha - 1.962e-3) <= 0.05 * 1.962e-3
        and abs(pt.beta - 0.5) <= 0.15 * 0.5
        and abs(pt.nu - 0.1141) <= 0.15 * 0.1141
        and abs(pt.xi - 0.0693) <= 0.15 * 0.0693
        and elapsed < 60.0
    )
    detail = (
        f"m=3100 two-term: ell={res.ell} (want 6), alpha={pt.alpha:.4g} "
        f"(want 1.962e-3 within 5%), (beta, nu, xi)=({pt.beta:.4g}, "
        f"{pt.nu:.4g}, {pt.xi:.4g}) vs (0.5, 0.1141, 0.0693) within 15%, "
        f"{elapsed:.1f}s"
    )
    record(capsys, "C1", ok, detail)


def test_c2_reference_block_single_term_no_key(capsys):
    res = optimize(3100, 0.0451, SecurityBudget(6), "serfling")
    detail = f"m=3100 single-term: ell={res.ell} (want 0), feasible={res.feasible}"
    record(capsys, "C2", res.ell == 0 and not res.feasible, detail)


def test_reference_block_keys_at_security_level_1e5():
    # The shape of the paper's application claim, keys at a 10^-5 security
    # level (PAPER.md), at C1's block.  The numbers are this model's own,
    # pinned against drift; no external anchor sets them.
    two_term = optimize(3100, 0.0451, SecurityBudget(5), "lemma2")
    single_term = optimize(3100, 0.0451, SecurityBudget(5), "serfling")
    assert (two_term.ell, two_term.feasible) == (58, True)
    assert (single_term.ell, single_term.feasible) == (0, False)


def test_c3_minimum_block_thresholds_strict_budget(capsys, thresholds):
    lem = thresholds[(10, "lemma2")]
    ser = thresholds[(10, "serfling")]
    elapsed = thresholds["elapsed"]
    budget = SecurityBudget(10)
    start = time.perf_counter()
    ref = single_term_threshold(0.0451, 10, m_lo=1000, m_hi=20000)
    ref_s = time.perf_counter() - start
    # the reference's key point must pass the package's own budget check
    ref_ok = ref is not None and feasible(
        ProtocolSettings.for_budget(
            BlockShape(m=ref[0], k=ref[1]), 0.0451, budget, ell=1
        ),
        budget,
        SlackParams(nu=ref[2]),
        "serfling",
    )[1]
    # the published single-term formula, which charges the privacy
    # amplification cost, has no key in the anchor window; the constant in
    # its deviation's logarithm is 2, and 1 and 4 are checked as well
    published = [
        published_single_term_threshold(0.0451, 10, 1000, 20000, log_const=c)
        for c in (1.0, 2.0, 4.0)
    ]
    window_ruled_out = all(p is not None and p > 6090 for p in published)
    ok = (
        lem is not None
        and 4560 <= lem <= 5040
        and ref_ok
        and ser == ref[0]
        and window_ruled_out
        and elapsed < 300.0
    )
    ref_text = "none" if ref is None else f"{ref[0]} (k={ref[1]}, nu={ref[2]:.5f})"
    detail = (
        f"s=10: two-term m_min={lem} (want 4560..5040), single-term "
        f"m_min={ser} (want the exact reference {ref_text}, {ref_s:.1f}s; "
        f"external anchor 5510..6090, published formula's threshold "
        f"{'/'.join(str(p) for p in published)} with log constant 1/2/4), "
        f"all four scans {elapsed:.0f}s"
    )
    record(capsys, "C3", ok, detail)


def test_c4_threshold_reduction_fraction(capsys, thresholds):
    parts = []
    ok = True
    for s in (6, 10):
        lem = thresholds[(s, "lemma2")]
        ser = thresholds[(s, "serfling")]
        red = 1.0 - lem / ser
        ok = ok and 0.12 <= red <= 0.19
        parts.append(f"s={s}: 1 - {lem}/{ser} = {red:.4f}")
    record(capsys, "C4", ok, "; ".join(parts) + " (want 0.12..0.19)")


def test_threshold_reduction_across_error_rates(capsys):
    # Where the paper's 14-17% could hold: the abstract names no error
    # rate, and under this model's budget the reduction rises with it.
    # The thresholds are this model's own, pinned against drift; C4 keeps
    # its window and its delta.
    want = {
        (0.01, 6): (974, 1133), (0.01, 10): (1550, 1815),
        (0.02, 6): (1294, 1567), (0.02, 10): (2061, 2515),
        (0.0451, 6): (3006, 3967), (0.0451, 10): (4807, 6402),
    }
    got, lines = {}, []
    for (delta, s) in want:
        got[delta, s] = tuple(
            min_block_length(delta, SecurityBudget(s), variant, 100, 400000)
            for variant in ("lemma2", "serfling")
        )
        lem, ser = got[delta, s]
        lines.append(f"delta={delta} s={s}: 1 - {lem}/{ser} = {1.0 - lem / ser:.3f}")
    with capsys.disabled():
        print("\nthreshold reduction: " + "; ".join(lines), flush=True)
    assert got == want


def test_c5_bounds_dominate_exact_probability(capsys):
    start = time.perf_counter()
    comparisons = 0
    violations = 0
    skipped = 0
    tol = 1e-12
    for m in (20, 40, 60):
        for k in (m // 4, m // 2):
            shape = BlockShape(m=m, k=k)
            n = shape.n
            for delta in (0.05, 0.10):
                for nu in np.linspace(0.1, 0.9, 10):
                    nu = float(nu)
                    exacts = [
                        exact_joint_ppe(shape, delta, nu, w) for w in range(m + 1)
                    ]
                    s_bound = min(1.0, serfling_epe(shape, nu) ** 2)
                    comparisons += len(exacts)
                    violations += sum(
                        1 for e in exacts if e > s_bound * (1.0 + tol)
                    )
                    for frac in np.linspace(0.05, 0.95, 10):
                        xi = nu * float(frac)
                        if (n * (nu - xi)) ** 2 <= 1.0:
                            skipped += 1
                            continue
                        l_bound = lemma2_ppe_bound(
                            shape, delta, SlackParams(nu=nu, xi=xi)
                        )
                        comparisons += len(exacts)
                        violations += sum(
                            1 for e in exacts if e > l_bound * (1.0 + tol)
                        )
    elapsed = time.perf_counter() - start
    ok = violations == 0 and comparisons > 10_000 and elapsed < 120.0
    detail = (
        f"{violations} violations in {comparisons} exact-vs-bound comparisons "
        f"({skipped} slack splits below the validity floor skipped), {elapsed:.1f}s"
    )
    record(capsys, "C5", ok, detail)
    printed = re.search(r"(\d+) violations in (\d+) comparisons", readme_detail("C5"))
    assert printed.groups() == (str(violations), str(comparisons))


def test_c6_exact_joint_matches_enumeration(capsys):
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for m in range(2, 15):
        for k in range(1, m):
            n = m - k
            shape = BlockShape(m=m, k=k)
            counts, total = enumeration_tables(m, k)
            for w in range(m + 1):
                for pe_max in range(k + 1):
                    for key_min in range(n + 1):
                        delta = pe_max / k
                        nu = key_min / n - delta
                        if nu <= 0.0:
                            continue
                        want = enum_joint(counts, total, k, w, pe_max, key_min)
                        got = exact_joint_ppe(shape, delta, nu, w)
                        checked += 1
                        if want == 0:
                            err = 0.0 if got == 0.0 else float("inf")
                        else:
                            err = abs(got - float(want)) / float(want)
                        worst = max(worst, err)
    hand = exact_joint_ppe(BlockShape(m=4, k=2), 0.0, 1.0, 2)
    hand_err = abs(hand - 1.0 / 6.0)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and hand_err < 1e-15 and checked > 10_000
    detail = (
        f"{checked} instances across every block size up to 14, worst relative "
        f"error {worst:.2e}, hand value 1/6 off by {hand_err:.1e}, {elapsed:.1f}s"
    )
    record(capsys, "C6", ok, detail)
    printed = re.search(r"worst relative error (\S+) over (\d+) instances", readme_detail("C6"))
    assert printed.groups() == (f"{worst:.1e}", str(checked))


def test_c7_monte_carlo_audit_default_grid(capsys):
    rows = validate_bounds(default_validation_grid())
    covered = sum(1 for r in rows if r.ci_low <= r.exact <= r.ci_high)
    width_violations = sum(
        1
        for r in rows
        if r.frequency > r.serfling_bound + (r.ci_high - r.ci_low)
        or r.frequency > r.lemma2_bound + (r.ci_high - r.ci_low)
    )
    ok = len(rows) == 50 and covered >= 0.95 * len(rows) and width_violations == 0
    detail = (
        f"{covered}/{len(rows)} confidence intervals cover the exact value, "
        f"{width_violations} frequencies above a bound by more than one CI width"
    )
    record(capsys, "C7", ok, detail)


def test_c8_stream_budget_reference(capsys):
    got = stream_budget(1e-5, 1e-6)
    record(capsys, "C8", got == 10, f"stream_budget(1e-5, 1e-6) = {got} (want 10)")


def test_c9_cli_deterministic_output(capsys):
    invocations = [
        ["keyrate", "--m", "800"],
        ["sweep", "--m-range", "600:800:100", "--variant", "lemma2"],
        ["minblock", "--m-range", "3000:3050", "--variant", "lemma2"],
        ["validate", "--trials", "2000"],
        ["simulate", "--m", "60", "--k", "30", "--w", "12", "--nu", "0.3",
         "--trials", "5000"],
        ["stream", "--eps-stream", "1e-5", "--eps-qkd", "1e-6"],
    ]
    mismatched = []
    for argv in invocations:
        code_a = cli_main(argv)
        out_a = capsys.readouterr().out
        code_b = cli_main(argv)
        out_b = capsys.readouterr().out
        if out_a != out_b or code_a != code_b:
            mismatched.append(argv[0])
    detail = (
        f"all {len(invocations)} subcommands byte-identical on repeat"
        if not mismatched
        else f"non-deterministic output from: {', '.join(mismatched)}"
    )
    record(capsys, "C9", not mismatched, detail)
