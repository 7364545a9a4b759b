"""Command line interface.

Six subcommands: ``keyrate`` (one block size), ``sweep`` (a range of block
sizes), ``minblock`` (smallest viable block size), ``validate`` (Monte Carlo
audit of the bounds), ``simulate`` (one Monte Carlo case) and ``stream``
(how many runs a stream-level budget funds).  All tabular output is CSV with a header
row, written to stdout or to ``--output``; runs are deterministic, so a
repeated invocation produces byte-identical output, whatever the number of
CPUs.  The ``--config`` and ``--output`` files are UTF-8, whatever the
locale.  Floats print in Python's shortest round-trip form, the library's
exact value, so a ``keyrate`` or ``sweep`` row re-checks from its own fields
with ``k = round(beta * m)``.

Every option is parsed by argparse.  ``--config`` and ``--output`` come from
one parent parser that each subcommand lists, and may stand before or after
the subcommand.  A ``--config`` file supplies defaults as flat ``key=value``
lines (keys are the long flag names without the dashes).  `main` finds
``--config`` with that parent's ``parse_known_args``, so ``--config=FILE``
and abbreviations such as ``--conf`` work as for any flag, and puts the
file's flags right after the subcommand, ahead of every flag on the command
line: explicit flags win wherever they stand.  A config file that cannot be
read or decoded is a usage error, and so is one with a key that argparse
reads as ``--config`` (``config`` or an abbreviation such as ``conf``),
whose file would never be read.

Exit codes: 0 on success, 1 when ``validate`` finds a failing row, 2 on
usage errors.  A usage error, whether argparse or the library refuses the
input, prints the subcommand's usage and ``finitekey <subcommand>: error:``;
only errors found before a subcommand is chosen (``--config`` without a
path, or a config file that cannot be read) print the top-level ones.

Importing this module loads no library module and no numpy, so ``--help``,
each subcommand's ``--help`` and every usage error that argparse finds
finish without them.  The parser needs only `security.VARIANTS`, which it
reads from the numpy-free module that holds the tuple.  A command imports
the library modules it calls just before it runs: ``keyrate``, ``sweep``
and ``minblock`` never load the simulator, and ``validate`` and
``simulate`` never load the optimizer.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib
import sys
from contextlib import contextmanager
from typing import List, Optional

from ._variants import VARIANTS

__all__ = ["main"]

# The library names the commands call, by defining module.  Importing cli
# imports none of them: `main` binds the names of the modules a command
# lists (`_bind`) just before it runs it, and `__getattr__` binds them on
# first access from outside.  Either way each stays a module attribute
# that the commands look up when they run, and a name that is bound
# already, such as a wrapper set from outside, is kept.
_IMPORTS = {
    "bounds": ("BlockShape", "_check_block_size"),
    "optimizer": ("min_block_length", "optimize", "_optimize_each"),
    "security": ("SecurityBudget", "stream_budget"),
    "simulator": ("SimConfig", "default_validation_grid", "run", "validate_bounds"),
}


def _bind(modules) -> None:
    """Import ``modules`` and bind their names of `_IMPORTS` that are unbound."""
    for module in modules:
        library = importlib.import_module(f".{module}", __package__)
        for name in _IMPORTS[module]:
            globals().setdefault(name, getattr(library, name))


def __getattr__(name: str):
    module = next((m for m, names in _IMPORTS.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((module,))
    return globals()[name]


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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@contextmanager
def _output(args):
    """The ``--output`` file, opened for writing, or else ``sys.stdout``."""
    if not args.output:
        yield sys.stdout
        return
    with open(args.output, "w", encoding="utf-8", newline="") as handle:
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
    """``start:stop[:step]`` as ints, or ``ValueError`` before any search.

    The command parses it, not argparse, so that a ``stop`` of 2^53 or more
    is reported as `optimize` reports such a block size.
    """
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"expected start:stop or start:stop:step, got {text!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"non-integer in m-range {text!r}") from None
    start, stop = nums[0], nums[1]
    step = nums[2] if len(nums) == 3 else 1
    if step < 1 or start > stop:
        raise ValueError(f"need start <= stop and step >= 1, got {text!r}")
    _check_block_size(stop, "m-range stop")
    return start, stop, step


def _keyrate_row(result):
    point, bd = result.point, result.breakdown
    knobs = (point.alpha, point.beta, point.nu, point.xi) if point else (None,) * 4
    terms = (bd.eps_correct, bd.eps_pe, bd.eps_pa, bd.total) if bd else (None,) * 4
    return [result.m, result.variant, result.ell, *knobs, *terms, result.feasible]


def _keyrate_rows(args, m_values):
    """One row per block size and variant, in that order.

    Each variant searches the block sizes in lock step, a bounded batch at
    a time (see `optimizer._optimize_each`); zipping the variants keeps the
    order of the rows.
    """
    budget = SecurityBudget(args.s)
    each = [
        _optimize_each(m_values, args.delta, budget, var)
        for var in _variants(args.variant)
    ]
    return [_keyrate_row(result) for results in zip(*each) for result in results]


def cmd_keyrate(args) -> int:
    budget = SecurityBudget(args.s)
    rows = [
        _keyrate_row(optimize(args.m, args.delta, budget, var))
        for var in _variants(args.variant)
    ]
    _write_rows(args, _KEYRATE_HEADER, rows)
    return 0


def cmd_sweep(args) -> int:
    start, stop, step = _parse_m_range(args.m_range)
    rows = _keyrate_rows(args, range(start, stop + 1, step))
    _write_rows(args, _KEYRATE_HEADER, rows)
    return 0


def cmd_minblock(args) -> int:
    start, stop, step = _parse_m_range(args.m_range)
    if step != 1:
        raise ValueError(
            f"minblock searches every m in start:stop, so the step must be 1, "
            f"got {args.m_range!r}"
        )
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


def _common_parser() -> argparse.ArgumentParser:
    """The options every subcommand takes; `main` also reads ``--config`` with it."""
    # its refusals are raised, for `main` to report with the top-level usage
    common = argparse.ArgumentParser(
        prog="finitekey", add_help=False, exit_on_error=False
    )
    common.add_argument("--output", help="write output to this file instead of stdout")
    common.add_argument(
        "--config",
        help="file of key=value lines used as defaults for this command",
    )
    return common


def _build_parser(common: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitekey",
        description="Finite-block security calculator for QKD key distillation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several subcommands, each defined once; no subcommand
    # lists a parent twice, since parents share their Action objects
    rate = argparse.ArgumentParser(add_help=False)
    rate.add_argument("--delta", type=float, default=0.0451)
    search = argparse.ArgumentParser(add_help=False, parents=[rate])
    search.add_argument("--s", type=int, default=6,
                        help="budget exponent: eps_qkd = 10^-s, 1 <= s <= 305")
    search.add_argument("--variant", choices=[*VARIANTS, "both"], default="both")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--trials", type=int, default=100_000)
    sampling.add_argument("--seed", type=int, default=20260821)

    p = sub.add_parser("keyrate", parents=[search, common],
                       help="optimise one block size")
    p.add_argument("--m", type=int, required=True, help="block size")
    p.set_defaults(func=cmd_keyrate, library=("optimizer", "security"))

    p = sub.add_parser("sweep", parents=[search, common],
                       help="optimise a range of block sizes")
    p.add_argument("--m-range", required=True, help="start:stop:step, stop inclusive")
    p.set_defaults(func=cmd_sweep, library=("bounds", "optimizer", "security"))

    p = sub.add_parser("minblock", parents=[search, common],
                       help="smallest block size with a positive key")
    p.add_argument("--m-range", default="1000:20000", help="search range start:stop")
    p.set_defaults(func=cmd_minblock, library=("bounds", "optimizer", "security"))

    p = sub.add_parser("validate", parents=[sampling, common],
                       help="Monte Carlo audit of the PE bounds")
    p.set_defaults(func=cmd_validate, library=("simulator",))

    p = sub.add_parser("simulate", parents=[rate, sampling, common],
                       help="one Monte Carlo bad-event estimate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="PE sample size")
    p.add_argument("--w", type=int, required=True, help="errors planted in the block")
    p.add_argument("--nu", type=float, required=True)
    p.set_defaults(func=cmd_simulate, library=("bounds", "simulator"))

    p = sub.add_parser("stream", parents=[common],
                       help="how many runs a stream failure budget funds")
    p.add_argument("--eps-stream", type=float, required=True)
    p.add_argument("--eps-qkd", type=float, required=True)
    p.set_defaults(func=cmd_stream, library=("security",))

    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


@functools.cache
def _parsers():
    """``(common, parser)``, built once per process.

    Parsing keeps no state in them, so every `main` call may share them.
    """
    common = _common_parser()
    return common, _build_parser(common)


def _apply_config(path: str) -> List[str]:
    """The flags that a UTF-8 config file of ``key=value`` lines stands for.

    Blank lines and ``#`` comments are skipped; ``key`` is a long flag name
    without the dashes, with ``_`` read as ``-``.  Unknown keys surface as
    unrecognised arguments when the parser runs.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read config file: {path!r} is not UTF-8: {exc}") from None
    flags = []
    for lineno, line in enumerate(map(str.strip, lines), start=1):
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if not (sep and key):
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        flags.extend([f"--{key}", value.strip()])
    return flags


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    common, parser = _parsers()
    # every refusal goes through argparse's `error`, which exits with status 2
    try:
        try:
            # The subcommand is the first argument that `common` leaves over,
            # wherever `common`'s own values stand and whatever they spell;
            # with nothing left over, the parser reports it missing.  It goes
            # first and the config file's flags right after it, ahead of
            # every flag on the command line, so explicit flags win (argparse
            # keeps the last occurrence).
            known, argv = common.parse_known_args(argv)
            if argv:
                flags = [] if known.config is None else _apply_config(known.config)
                if common.parse_known_args(flags)[0].config is not None:
                    raise ValueError(f"{known.config}: a config file cannot set --config")
                output = [] if known.output is None else [f"--output={known.output}"]
                argv = [argv[0], *flags, *output, *argv[1:]]
        except (argparse.ArgumentError, ValueError) as exc:
            parser.error(str(exc))
        args = parser.parse_args(argv)
        _bind(args.library)
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            args.subparser.error(str(exc))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2


if __name__ == "__main__":
    sys.exit(main())
