"""Command line interface.

Six subcommands: ``keyrate`` (one block size), ``sweep`` (a range of block
sizes), ``minblock`` (smallest viable block size), ``validate`` (Monte Carlo
audit of the bounds), ``simulate`` (one Monte Carlo case) and ``stream``
(how many runs a stream-level budget funds).  All tabular output is CSV with a header
row, written to stdout or to ``--output``; runs are deterministic, so a
repeated invocation produces byte-identical output.

A ``--config`` file supplies defaults as flat ``key=value`` lines (keys are
the long flag names without the dashes); explicit flags override the file.

Exit codes: 0 on success, 1 when ``validate`` finds a failing row, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from typing import List, Optional

from .bounds import BlockShape
from .optimizer import min_block_length, optimize
from .security import VARIANTS, SecurityBudget, stream_budget
from .simulator import SimConfig, default_validation_grid, run, validate_bounds

__all__ = ["main"]

_KEYRATE_HEADER = [
    "m", "variant", "ell", "alpha", "beta", "nu", "xi",
    "eps_correct", "eps_pe", "eps_pa", "eps_total", "feasible",
]
_MINBLOCK_HEADER = ["delta", "s", "variant", "m_min", "found"]
_VALIDATE_HEADER = [
    "m", "k", "n", "w", "delta", "nu", "xi", "trials", "seed",
    "exact", "frequency", "ci_low", "ci_high",
    "serfling_bound", "lemma2_bound", "passed",
]
_SIMULATE_HEADER = [
    "m", "k", "n", "w", "delta", "nu", "trials", "seed",
    "bad_event_count", "frequency", "ci_low", "ci_high", "exact",
]


class _UsageError(Exception):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@contextmanager
def _output(args):
    """The ``--output`` file, opened for writing, or else ``sys.stdout``."""
    if not args.output:
        yield sys.stdout
        return
    with open(args.output, "w", newline="") as handle:
        yield handle


def _write_rows(args, header, rows) -> None:
    with _output(args) as target:
        writer = csv.writer(target, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _variants(arg: str):
    return VARIANTS if arg == "both" else (arg,)


def _parse_m_range(text: str):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"expected start:stop or start:stop:step, got {text!r}"
        )
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer in m-range {text!r}")
    start, stop = nums[0], nums[1]
    step = nums[2] if len(nums) == 3 else 1
    if step < 1 or start > stop:
        raise argparse.ArgumentTypeError(
            f"need start <= stop and step >= 1, got {text!r}"
        )
    return start, stop, step


def _parse_m_bounds(text: str):
    """``start:stop`` of `_parse_m_range`; a step other than 1 is refused."""
    start, stop, step = _parse_m_range(text)
    if step != 1:
        raise argparse.ArgumentTypeError(
            f"minblock searches every m in start:stop, so the step must be 1, "
            f"got {text!r}"
        )
    return start, stop


def _keyrate_row(result):
    point = result.point
    bd = result.breakdown
    return [
        result.m,
        result.variant,
        result.ell,
        point.alpha if point else None,
        point.beta if point else None,
        point.nu if point else None,
        point.xi if point else None,
        bd.eps_correct if bd else None,
        bd.eps_pe if bd else None,
        bd.eps_pa if bd else None,
        bd.total if bd else None,
        result.feasible,
    ]


def _keyrate_rows(args, m_values):
    """One row per block size and variant, in that order."""
    budget = SecurityBudget(args.s)
    return [
        _keyrate_row(optimize(m, args.delta, budget, var))
        for m in m_values
        for var in _variants(args.variant)
    ]


def cmd_keyrate(args) -> int:
    _write_rows(args, _KEYRATE_HEADER, _keyrate_rows(args, [args.m]))
    return 0


def cmd_sweep(args) -> int:
    start, stop, step = args.m_range
    rows = _keyrate_rows(args, range(start, stop + 1, step))
    _write_rows(args, _KEYRATE_HEADER, rows)
    return 0


def cmd_minblock(args) -> int:
    start, stop = args.m_range
    budget = SecurityBudget(args.s)
    rows = []
    for var in _variants(args.variant):
        m_min = min_block_length(args.delta, budget, var, start, stop)
        rows.append([args.delta, args.s, var, m_min, m_min is not None])
    _write_rows(args, _MINBLOCK_HEADER, rows)
    return 0


def cmd_validate(args) -> int:
    cases = default_validation_grid(trials=args.trials, seed=args.seed)
    rows = validate_bounds(cases)
    out = []
    for row in rows:
        c = row.case
        out.append([
            c.shape.m, c.shape.k, c.shape.n, c.w, c.delta, c.nu, c.xi,
            c.trials, c.seed, row.exact, row.frequency, row.ci_low,
            row.ci_high, row.serfling_bound, row.lemma2_bound, row.passed,
        ])
    _write_rows(args, _VALIDATE_HEADER, out)
    return 0 if all(row.passed for row in rows) else 1


def cmd_simulate(args) -> int:
    shape = BlockShape(m=args.m, k=args.k)
    report = run(SimConfig(
        shape=shape, w=args.w, delta=args.delta, nu=args.nu,
        trials=args.trials, seed=args.seed,
    ))
    row = [
        shape.m, shape.k, shape.n, args.w, args.delta, args.nu,
        report.trials, report.seed, report.bad_event_count,
        report.frequency, report.ci_low, report.ci_high, report.exact,
    ]
    _write_rows(args, _SIMULATE_HEADER, [row])
    return 0


def cmd_stream(args) -> int:
    budget = stream_budget(args.eps_stream, args.eps_qkd)
    with _output(args) as target:
        print(budget, file=target)
    return 0


def _add_common(sp) -> None:
    sp.add_argument("--output", help="write output to this file instead of stdout")
    sp.add_argument(
        "--config",
        help="file of key=value lines used as defaults for this command",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitekey",
        description="Finite-block security calculator for QKD key distillation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several subcommands, each defined once
    rate = argparse.ArgumentParser(add_help=False)
    rate.add_argument("--delta", type=float, default=0.0451)
    search = argparse.ArgumentParser(add_help=False, parents=[rate])
    search.add_argument("--s", type=int, default=6,
                        help="budget exponent: eps_qkd = 10^-s, 1 <= s <= 305")
    search.add_argument("--variant", choices=[*VARIANTS, "both"], default="both")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--trials", type=int, default=100_000)
    sampling.add_argument("--seed", type=int, default=20260821)

    p = sub.add_parser("keyrate", parents=[search], help="optimise one block size")
    p.add_argument("--m", type=int, required=True, help="block size")
    _add_common(p)
    p.set_defaults(func=cmd_keyrate)

    p = sub.add_parser("sweep", parents=[search], help="optimise a range of block sizes")
    p.add_argument("--m-range", type=_parse_m_range, required=True,
                   help="start:stop:step, stop inclusive")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("minblock", parents=[search],
                       help="smallest block size with a positive key")
    p.add_argument("--m-range", type=_parse_m_bounds, default=(1000, 20000),
                   help="search range start:stop")
    _add_common(p)
    p.set_defaults(func=cmd_minblock)

    p = sub.add_parser("validate", parents=[sampling],
                       help="Monte Carlo audit of the PE bounds")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", parents=[rate, sampling],
                       help="one Monte Carlo bad-event estimate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="PE sample size")
    p.add_argument("--w", type=int, required=True, help="errors planted in the block")
    p.add_argument("--nu", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stream", help="how many runs a stream failure budget funds")
    p.add_argument("--eps-stream", type=float, required=True)
    p.add_argument("--eps-qkd", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_stream)

    return parser


def _apply_config(argv: List[str]) -> List[str]:
    """Strip --config from argv and splice its contents in as leading flags.

    Injected flags come before the user's, so explicit flags win (argparse
    keeps the last occurrence).  Unknown keys surface as unrecognised
    arguments when the real parser runs.
    """
    path = None
    rest = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--config":
            if i + 1 >= len(argv):
                raise _UsageError("--config requires a file path")
            path = argv[i + 1]
            i += 2
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
            i += 1
        else:
            rest.append(arg)
            i += 1
    if path is None:
        return rest
    if not rest:
        raise _UsageError("--config requires a subcommand")
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    injected = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("_", "-")
        if not key:
            raise _UsageError(f"{path}:{lineno}: empty key")
        injected.extend([f"--{key}", value.strip()])
    return [rest[0]] + injected + rest[1:]


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        cooked = _apply_config(list(argv))
    except _UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"finitekey: error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(cooked)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 2 if code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"finitekey: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
