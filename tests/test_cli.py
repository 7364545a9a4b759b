"""End-to-end tests of the command line interface."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import finitekey
import finitekey.simulator as simulator
from finitekey.bounds import BlockShape, SlackParams
from finitekey.cli import main
from finitekey.optimizer import _Model
from finitekey.security import ProtocolSettings, SecurityBudget, feasible
from finitekey.simulator import SimConfig, run

KEYRATE_HEADER = [
    "m", "variant", "ell", "alpha", "beta", "nu", "xi",
    "eps_correct", "eps_pe", "eps_pa", "eps_total", "feasible",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestKeyrate:
    def test_schema_and_values(self, capsys):
        code, out, _ = run_cli(["keyrate", "--m", "3100"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == KEYRATE_HEADER
        assert [r[1] for r in rows] == ["lemma2", "serfling"]
        lemma2, serfling = rows
        # ell = 10 at k = 1548, nu = 0.11405, xi = 0.06942 (see test_optimizer)
        assert lemma2[0] == "3100" and lemma2[2] == "10" and lemma2[-1] == "true"
        assert serfling[2] == "0" and serfling[-1] == "false"
        # numeric columns round-trip as floats
        for r in rows:
            for cell in r[3:11]:
                if cell:
                    float(cell)

    def test_single_variant(self, capsys):
        code, out, _ = run_cli(["keyrate", "--m", "3100", "--variant", "serfling"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0][1] == "serfling"

    def test_deterministic_bytes(self, capsys):
        argv = ["keyrate", "--m", "3100", "--variant", "lemma2"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["keyrate", "--m", "11", "--delta", "0.1"],
                [
                    "11,lemma2,0,0.0,0.36363636363636365,0.3999999996,"
                    "0.08181818181818182,7.450580596923828e-09,0.9804646127795867,"
                    "1.0,2.960929233009754,false",
                    "11,serfling,0,0.0,0.45454545454545453,0.3999999996,0.0,"
                    "7.450580596923828e-09,0.695143928904438,1.0,2.390287865259457,false",
                ],
            ),
            # no point has headroom, so the row has no point and no breakdown
            (
                ["keyrate", "--m", "3100", "--delta", "0.4999", "--variant", "lemma2"],
                ["3100,lemma2,0,,,,,,,,,false"],
            ),
        ],
        ids=["argv0", "argv1"],
    )
    def test_keyless_inputs_print_a_row(self, capsys, argv, expected):
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == expected

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "rates.csv"
        argv = ["keyrate", "--m", "3100", "--variant", "lemma2"]
        code, _, _ = run_cli(argv + ["--output", str(path)], capsys)
        assert code == 0
        _, stdout_text, _ = run_cli(argv, capsys)
        assert path.read_text() == stdout_text

    def test_one_optimize_call_per_variant(self, capsys, monkeypatch):
        # keyrate asks optimize for its one block size, so the benchmark's
        # optimizer spans see it; sweep batches its block sizes instead
        calls = []
        optimize = finitekey.cli.optimize

        def counted(m, delta, budget, variant):
            calls.append((m, variant))
            return optimize(m, delta, budget, variant)

        monkeypatch.setattr(finitekey.cli, "optimize", counted)
        assert run_cli(["keyrate", "--m", "3100", "--variant", "both"], capsys)[0] == 0
        assert calls == [(3100, "lemma2"), (3100, "serfling")]
        assert run_cli(["sweep", "--m-range", "3000:3200:100"], capsys)[0] == 0
        assert len(calls) == 2


class TestSweep:
    def test_single_m_matches_keyrate(self, capsys):
        _, from_sweep, _ = run_cli(
            ["sweep", "--m-range", "3100:3100", "--variant", "lemma2"], capsys
        )
        _, from_keyrate, _ = run_cli(
            ["keyrate", "--m", "3100", "--variant", "lemma2"], capsys
        )
        assert from_sweep == from_keyrate

    def test_range_is_stop_inclusive(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--m-range", "3000:3200:100", "--variant", "lemma2"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["3000", "3100", "3200"]


class TestMinblock:
    def test_found(self, capsys):
        code, out, _ = run_cli(
            ["minblock", "--m-range", "2900:3200", "--variant", "lemma2"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        # ell = 1 at m = 3006, k = 1501, nu = 0.11612, xi = 0.07064
        assert rows == [["0.0451", "6", "lemma2", "3006", "true"]]

    def test_not_found(self, capsys):
        code, out, _ = run_cli(
            ["minblock", "--m-range", "100:500", "--variant", "lemma2"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [["0.0451", "6", "lemma2", "", "false"]]


GOLDEN_DIR = Path(__file__).parent / "data"

# Each file holds the stdout of its command as last accepted.  A change
# that moves a value updates the file and says which values moved and why.
GOLDEN = {
    "keyrate_m800": ["keyrate", "--m", "800"],
    "keyrate_m3100": ["keyrate", "--m", "3100"],
    "sweep_600_800_100_lemma2": [
        "sweep", "--m-range", "600:800:100", "--variant", "lemma2",
    ],
    "sweep_200_20000_1300": [
        "sweep", "--m-range", "200:20000:1300", "--variant", "both",
    ],
    "sweep_10_400_7": ["sweep", "--m-range", "10:400:7", "--variant", "both"],
    "sweep_4000_7000_97_s10": [
        "sweep", "--m-range", "4000:7000:97", "--s", "10", "--variant", "both",
    ],
    "minblock_3000_3050_lemma2": [
        "minblock", "--m-range", "3000:3050", "--variant", "lemma2",
    ],
    "minblock_1000_20000_s6": [
        "minblock", "--m-range", "1000:20000", "--variant", "both", "--s", "6",
    ],
    "minblock_1000_20000_s10": [
        "minblock", "--m-range", "1000:20000", "--variant", "both", "--s", "10",
    ],
    "validate_2000_20260821": ["validate", "--trials", "2000", "--seed", "20260821"],
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stdout_matches_file(self, capsys, name):
        code, out, _ = run_cli(GOLDEN[name], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / f"{name}.csv").read_text()


# Prints, as one JSON object, the stdout of each command of the JSON object
# in sys.argv[1], all run in this interpreter.
_GOLDEN_PROBE = """
import contextlib, io, json, sys
import finitekey.cli
out = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        finitekey.cli.main(argv)
    out[name] = buf.getvalue()
print(json.dumps(out))
"""

# numpy's SIMD levels below AVX-512, as NPY_DISABLE_CPU_FEATURES reaches
# them: its AVX2 loops, and its X86_V2 baseline
CPU_LEVELS = {
    "avx2": "AVX512_SPR AVX512_ICL X86_V4",
    "baseline": "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
}

# The columns of each command that no CPU level may move; keyrate and sweep
# rows add k = round(beta * m).  The other columns are floats, whose last
# bits follow numpy's exp and log loops.
EXACT_COLUMNS = {
    "keyrate": ["m", "variant", "ell", "feasible"],
    "sweep": ["m", "variant", "ell", "feasible"],
    "minblock": ["variant", "m_min", "found"],
    "validate": ["m", "k", "n", "w", "trials", "seed", "passed"],
}


def exact_columns(command, text):
    """Each row's `EXACT_COLUMNS` cells; keyrate and sweep rows add ``k``, None without a point."""
    header, rows = parse_csv(text)
    out = []
    for row in (dict(zip(header, r)) for r in rows):
        cells = [row[name] for name in EXACT_COLUMNS[command]]
        if "beta" in row:
            cells.append(round(float(row["beta"]) * int(row["m"])) if row["beta"] else None)
        out.append(cells)
    return out


class TestGoldenAtLowerCpuLevels:
    """The golden files' exact columns at numpy's lower SIMD levels.

    `TestGoldenOutput` holds the files byte for byte, which holds for one
    numpy build at one CPU level: at the levels below AVX-512 the last bit
    of a float column can move.  Here every golden command runs in one
    fresh interpreter per level, and only its exact columns are compared.
    """

    @pytest.mark.parametrize("level", sorted(CPU_LEVELS))
    def test_exact_columns_match_files(self, level):
        src = str(Path(finitekey.__file__).resolve().parent.parent)
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=CPU_LEVELS[level])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _GOLDEN_PROBE, json.dumps(GOLDEN)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        if "part of the baseline" in done.stderr:
            pytest.skip(f"this numpy build's baseline is above the {level} level")
        assert done.returncode == 0, done.stderr
        outputs = json.loads(done.stdout)
        for name, argv in GOLDEN.items():
            want = (GOLDEN_DIR / f"{name}.csv").read_text()
            assert exact_columns(argv[0], outputs[name]) == exact_columns(argv[0], want), name


def _flag(argv, name, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv else default


def assert_rows_recheck(argv, text):
    """Each row with a point re-checks from its own printed fields.

    With ``k = round(beta * m)`` and the printed ``nu`` and ``xi``,
    `feasible` gives the printed verdict at the printed ``ell``, and on a
    feasible row rejects ``ell + 1`` where ``ell < n``.  Returns the number
    of rows checked.
    """
    delta = _flag(argv, "--delta", 0.0451)
    budget = SecurityBudget(_flag(argv, "--s", 6))
    header, rows = parse_csv(text)
    checked = 0
    for row in (dict(zip(header, r)) for r in rows):
        if not row["beta"]:
            continue
        m, ell, variant = int(row["m"]), int(row["ell"]), row["variant"]
        shape = BlockShape(m=m, k=round(float(row["beta"]) * m))
        slack = SlackParams(nu=float(row["nu"]), xi=float(row["xi"]))

        def accepts(bits):
            settings = ProtocolSettings(shape, delta, bits)
            return feasible(settings, budget, slack, variant)[1]

        where = f"m={m} {variant} ell={ell}"
        assert accepts(ell) == (row["feasible"] == "true"), where
        if row["feasible"] == "true" and ell < shape.n:
            assert not accepts(ell + 1), f"{where}: feasible accepts ell + 1"
        checked += 1
    return checked


class TestPrintedRowsRecheck:
    @pytest.mark.parametrize(
        "name", sorted(n for n in GOLDEN if GOLDEN[n][0] in ("keyrate", "sweep"))
    )
    def test_golden_rows(self, name):
        text = (GOLDEN_DIR / f"{name}.csv").read_text()
        assert assert_rows_recheck(GOLDEN[name], text) > 0

    @pytest.mark.parametrize("m", [10**9 + 7, 2**53 - 1])
    def test_rows_at_large_block_sizes(self, capsys, m):
        # six digits of beta no longer fix k at these m
        argv = ["keyrate", "--m", str(m), "--s", "10"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert assert_rows_recheck(argv, out) == 2


class TestValidate:
    def test_clean_grid_exits_zero(self, capsys):
        # Exit code 0 exactly when every row passes.  A row fails only where
        # its random 99% interval misses, and C7's rule bounds how many.
        code, out, _ = run_cli(["validate", "--trials", "20000"], capsys)
        header, rows = parse_csv(out)
        assert len(rows) == 50
        col = {name: header.index(name) for name in header}
        for r in rows:
            exact = float(r[col["exact"]])
            assert exact <= float(r[col["serfling_bound"]])
            assert exact <= float(r[col["lemma2_bound"]])
        passed = [r[col["passed"]] == "true" for r in rows]
        assert code == (0 if all(passed) else 1)
        assert sum(passed) >= 0.95 * len(rows)

    def test_corrupted_bound_exits_one(self, capsys, monkeypatch):
        original = simulator.serfling_epe

        def corrupted(shape, nu):
            return math.sqrt(0.001) * original(shape, nu)

        monkeypatch.setattr(simulator, "serfling_epe", corrupted)
        code, out, _ = run_cli(["validate", "--trials", "500"], capsys)
        assert code == 1
        _, rows = parse_csv(out)
        assert any(r[-1] == "false" for r in rows)


class TestSimulate:
    def test_row_matches_library_run(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--m", "60", "--k", "30", "--w", "12",
                "--delta", "0.1", "--nu", "0.3", "--trials", "20000", "--seed", "9",
            ],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        (row,) = rows
        report = run(
            SimConfig(
                shape=BlockShape(m=60, k=30), w=12, delta=0.1, nu=0.3,
                trials=20000, seed=9,
            )
        )
        assert row[:4] == ["60", "30", "30", "12"]
        assert row[8] == str(report.bad_event_count)
        assert row[9] == str(report.frequency)
        assert row[12] == str(report.exact)

    def test_no_errors_no_bad_event(self, capsys):
        # a deviation of 1e-300 puts the alarm at one key error, so no trial
        # with w = 0 is a bad event
        code, out, _ = run_cli(
            ["simulate", "--m", "10", "--k", "1", "--w", "0", "--delta", "0",
             "--nu", "1e-300", "--trials", "5"],
            capsys,
        )
        assert code == 0
        (row,) = parse_csv(out)[1]
        assert (row[8], row[12]) == ("0", "0.0")


class TestStream:
    def test_budget_value(self, capsys):
        code, out, _ = run_cli(
            ["stream", "--eps-stream", "1e-5", "--eps-qkd", "1e-6"], capsys
        )
        assert code == 0
        assert out == "10\n"

    def test_zero_when_stream_budget_smaller(self, capsys):
        code, out, _ = run_cli(
            ["stream", "--eps-stream", "1e-6", "--eps-qkd", "1e-5"], capsys
        )
        assert code == 0
        assert out == "0\n"

    def test_zero_budget_rejected(self, capsys):
        code, _, err = run_cli(
            ["stream", "--eps-stream", "1e-5", "--eps-qkd", "0"], capsys
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("eps_qkd", ["1e-300", "1e-10"])
    def test_overflowing_quotient_is_a_usage_error(self, capsys, eps_qkd):
        code, out, err = run_cli(
            ["stream", "--eps-stream", "1e300", "--eps-qkd", eps_qkd], capsys
        )
        assert code == 2
        assert out == ""
        assert "overflows" in err


# Runs the CLI on argv (sys.argv[1]) with stdout discarded and scipy made
# unimportable, then prints the exit code.
_SCIPY_PROBE = """
import contextlib, io, sys
sys.modules["scipy"] = None
import finitekey.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = finitekey.cli.main(sys.argv[1].split())
print(code)
"""

# Runs the CLI's help, then a stream command, with stdout discarded, and
# prints whether fractions was loaded after each.
_FRACTIONS_PROBE = """
import contextlib, io, sys
import finitekey.cli
with contextlib.redirect_stdout(io.StringIO()):
    finitekey.cli.main(["--help"])
    started = "fractions" in sys.modules
    finitekey.cli.main("stream --eps-stream 1e-5 --eps-qkd 1e-6".split())
print(started, "fractions" in sys.modules)
"""


class TestImport:
    def test_module_runs_as_the_console_script(self):
        # python -m finitekey.cli exits with main's status
        src = str(Path(finitekey.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        cli = [sys.executable, "-m", "finitekey.cli"]
        done = subprocess.run(
            cli + ["stream", "--eps-stream", "1e-5", "--eps-qkd", "1e-6"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, "10\n")
        done = subprocess.run(
            cli + ["keyrate", "--m", "5"], env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert "m must be at least 10" in done.stderr

    def test_no_scipy_stats(self):
        # scipy took most of the CLI's start-up time, and a third of the
        # audit's memory, for the Clopper-Pearson limits alone; every
        # command runs with it blocked
        src = str(Path(finitekey.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for argv in [
            "--help",
            "keyrate --m 800",
            "sweep --m-range 600:800:100 --variant lemma2",
            "minblock --m-range 3000:3050 --variant lemma2",
            "stream --eps-stream 1e-6 --eps-qkd 1e-5",
            "simulate --m 60 --k 30 --w 12 --delta 0.1 --nu 0.3 --trials 2000",
            "validate --trials 200",
        ]:
            out = subprocess.run(
                [sys.executable, "-c", _SCIPY_PROBE, argv], env=env,
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            assert out.strip() == "0", argv

    def test_fractions_loaded_only_by_stream(self):
        # stream_budget imports it when it is called: after numpy, loading
        # it at start-up would cost about 2 ms of every command
        src = str(Path(finitekey.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _FRACTIONS_PROBE], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        assert out.split() == ["False", "True"]


    def test_parsers_built_once(self, monkeypatch, capsys):
        # building them took about 1.5 ms of each call; a refusal in
        # between leaves them as they were
        built = []
        build = finitekey.cli._build_parser

        def counted(common):
            built.append(common)
            return build(common)

        monkeypatch.setattr(finitekey.cli, "_build_parser", counted)
        finitekey.cli._parsers.cache_clear()
        stream = ["stream", "--eps-stream", "1e-5", "--eps-qkd", "1e-6"]
        try:
            assert run_cli(stream, capsys)[:2] == (0, "10\n")
            assert run_cli(["keyrate", "--m", "5"], capsys)[0] == 2
            assert run_cli(stream, capsys)[:2] == (0, "10\n")
        finally:
            finitekey.cli._parsers.cache_clear()
        assert len(built) == 1


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert run_cli(["keyrate"], capsys)[0] == 2

    @pytest.mark.parametrize(
        "argv", [["--config", "c.cfg"], ["--output", "o.csv"]], ids=["config", "output"]
    )
    def test_missing_subcommand(self, capsys, argv):
        # the flag's value was taken for the subcommand: "invalid choice: 'c.cfg'"
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.endswith("finitekey: error: the following arguments are required: command\n")

    def test_unknown_variant(self, capsys):
        assert run_cli(["keyrate", "--m", "3100", "--variant", "azuma"], capsys)[0] == 2

    def test_bad_m_range(self, capsys):
        assert run_cli(["sweep", "--m-range", "500:100"], capsys)[0] == 2

    def test_minblock_refuses_a_step(self, capsys):
        # minblock searches every m; a step used to be accepted and ignored
        code, out, err = run_cli(["minblock", "--m-range", "1000:2000:5"], capsys)
        assert code == 2
        assert out == ""
        assert "step must be 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep", "minblock"])
    @pytest.mark.parametrize(
        "m_range, message",
        [
            ("5", "expected start:stop or start:stop:step, got '5'"),
            ("1:2:3:4", "expected start:stop or start:stop:step, got '1:2:3:4'"),
            ("a:b", "non-integer in m-range 'a:b'"),
        ],
    )
    def test_malformed_m_range(self, capsys, command, m_range, message):
        code, out, err = run_cli([command, "--m-range", m_range], capsys)
        assert (code, out) == (2, "")
        assert err.count("error: ") == 1
        assert err.endswith(f"\nfinitekey {command}: error: {message}\n")

    def test_sweep_stop_beyond_float64_rejected_before_search(self, capsys, monkeypatch):
        # the first two block sizes were searched in full before the third
        # was refused, and nothing was written
        searches = []
        monkeypatch.setattr(
            _Model, "best_nu", lambda self, m, k, piece=None: searches.append(k)
        )
        code, out, err = run_cli(
            ["sweep", "--m-range", "9007199254739000:9007199254741000:1000"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.count("finitekey sweep: error: ") == 1
        assert "must be below 2^53" in err
        assert searches == []

    def test_domain_error_reported_as_usage(self, capsys):
        # the library's refusal used to print the top-level usage line; the
        # rule on m has one owner, so every command reports it in its words
        for argv in (["keyrate", "--m", "5"], ["sweep", "--m-range", "5:20"],
                     ["minblock", "--m-range", "5:100"]):
            code, _, err = run_cli(argv, capsys)
            command = argv[0]
            assert code == 2
            assert err.startswith(f"usage: finitekey {command} ")
            assert err.endswith(f"\nfinitekey {command}: error: m must be at least 10, got 5\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["keyrate", "--m", "100000000000000000000"],
            ["keyrate", "--m", "9223372036854775808"],
            ["simulate", "--m", "100000000000000000000", "--k", "50", "--w", "3",
             "--nu", "0.1", "--trials", "10"],
            ["minblock", "--m-range", "1000:100000000000000000000"],
        ],
    )
    def test_block_size_beyond_float64(self, capsys, argv):
        # these crashed with a traceback inside numpy, or ran out of memory
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.count(f"finitekey {argv[0]}: error: ") == 1
        assert "must be below 2^53" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["keyrate", "--m", "3100", "--s", "324"], ["minblock", "--s", "400"]],
    )
    def test_budget_exponent_out_of_range(self, capsys, argv):
        # 10^-s underflowed to 0 and divided by zero in the optimizer
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"finitekey {argv[0]}: error: s must be at most 305" in err
        assert "Traceback" not in err


# Each subcommand with small, valid values, and the numeric options that the
# domain sweep below sets in turn.
_SWEEP_BASE = {
    "keyrate": (["keyrate", "--m", "3100"], ["--m", "--delta", "--s"]),
    "sweep": (["sweep", "--m-range", "1000:1010"], ["--delta", "--s"]),
    "minblock": (["minblock", "--m-range", "1000:1010"], ["--delta", "--s"]),
    "validate": (["validate", "--trials", "10"], ["--trials", "--seed"]),
    "simulate": (
        ["simulate", "--m", "100", "--k", "50", "--w", "10", "--nu", "0.1",
         "--trials", "10"],
        ["--m", "--k", "--w", "--nu", "--delta", "--trials", "--seed"],
    ),
    "stream": (
        ["stream", "--eps-stream", "1e-4", "--eps-qkd", "1e-5"],
        ["--eps-stream", "--eps-qkd"],
    ),
}
_HUGE = "1" + "0" * 400
_SWEEP_VALUES = ["nan", "inf", "-inf", "1e308", _HUGE, "-1"]
_SWEEP_CASES = [
    pytest.param(
        command, option, value,
        id=f"{command}{option}={'10^400' if value == _HUGE else value}",
    )
    for command, (_, options) in _SWEEP_BASE.items()
    for option in options
    for value in _SWEEP_VALUES
    # a huge trial count is valid input whose cost is its size
    if not (option == "--trials" and value == _HUGE)
]


class TestDomainSweep:
    @pytest.mark.parametrize("command, option, value", _SWEEP_CASES)
    def test_out_of_domain_values_exit_cleanly(self, capsys, command, option, value):
        # the last occurrence of an option wins, so this overrides the base value
        argv = _SWEEP_BASE[command][0] + [f"{option}={value}"]
        code, _, err = run_cli(argv, capsys)
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 2:
            # argparse's refusals and the library's read the same
            assert err.startswith(f"usage: finitekey {command} "), err
            assert len(re.findall(r"^finitekey\b.*: error: ", err, re.M)) == 1, err
            assert f"\nfinitekey {command}: error: " in err, err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "stream.cfg"
        cfg.write_text("eps_stream=1e-5\neps_qkd=1e-6\n")
        code, out, _ = run_cli(["stream", "--config", str(cfg)], capsys)
        assert code == 0
        assert out == "10\n"

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "stream.cfg"
        cfg.write_text("eps_stream=1e-5\neps_qkd=1e-6\n")
        code, out, _ = run_cli(
            ["stream", "--config", str(cfg), "--eps-qkd", "3e-7"], capsys
        )
        assert code == 0
        assert out == "33\n"

    def test_comments_and_underscore_keys(self, capsys, tmp_path):
        cfg = tmp_path / "stream.cfg"
        cfg.write_text("# stream defaults\n\neps_stream = 1e-5\neps_qkd = 1e-6\n")
        code, out, _ = run_cli(["stream", "--config", str(cfg)], capsys)
        assert code == 0
        assert out == "10\n"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        code, _, _ = run_cli(
            ["stream", "--config", str(cfg), "--eps-stream", "1e-5",
             "--eps-qkd", "1e-6"],
            capsys,
        )
        assert code == 2

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["stream", "--config", str(tmp_path / "absent.cfg"),
             "--eps-stream", "1e-5", "--eps-qkd", "1e-6"],
            capsys,
        )
        assert code == 2
        # found before the subcommand is chosen, so the top-level form
        assert err.startswith("usage: finitekey [-h] ")
        assert "\nfinitekey: error: cannot read config file" in err

    def test_file_that_is_not_utf8_rejected(self, capsys, tmp_path):
        # the decode error escaped `except OSError` and named no file
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(["stream", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: finitekey [-h] ")
        assert "\nfinitekey: error: cannot read config file" in err
        assert str(cfg) in err

    @pytest.mark.skipif(sys.version_info < (3, 10), reason="EncodingWarning is new in 3.10")
    def test_files_do_not_use_the_locale_encoding(self, tmp_path):
        # open() without encoding= raised EncodingWarning under this filter
        (tmp_path / "c.cfg").write_text("m=3100\nvariant=lemma2\n", encoding="utf-8")
        src = str(Path(finitekey.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "finitekey.cli", "keyrate", "--config", "c.cfg", "--output", "o.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        header, rows = parse_csv((tmp_path / "o.csv").read_text(encoding="utf-8"))
        assert header == KEYRATE_HEADER
        assert [row[:3] for row in rows] == [["3100", "lemma2", "10"]]

    def test_line_without_equals_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "stream.cfg"
        cfg.write_text("eps_stream\neps_qkd=1e-6\n")
        code, out, err = run_cli(["stream", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err.count("error: ") == 1
        assert err.endswith(
            f"\nfinitekey: error: {cfg}:1: expected key=value, got 'eps_stream'\n"
        )

    @pytest.mark.parametrize("key", ["config", "conf"])
    def test_config_file_cannot_name_one(self, capsys, tmp_path, key):
        # argparse took the key as --config and the named file was never
        # read: this printed 10 and exited 0
        cfg = tmp_path / "stream.cfg"
        cfg.write_text(f"eps_stream=1e-5\neps_qkd=1e-6\n{key}=/nonexistent\n")
        code, out, err = run_cli(["stream", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        # found before the subcommand is chosen, so the top-level form
        assert err.startswith("usage: finitekey [-h] ")
        assert err.count("finitekey: error: ") == 1
        assert "cannot set --config" in err

    def test_abbreviated_flag_reads_the_file(self, capsys, tmp_path):
        # --conf used to be accepted by argparse and the file never read
        cfg = tmp_path / "delta.cfg"
        cfg.write_text("delta=0.03\n")
        argv = ["keyrate", "--m", "3100", "--variant", "lemma2"]
        _, from_config, _ = run_cli(argv + ["--config", str(cfg)], capsys)
        code, from_conf, _ = run_cli(argv + ["--conf", str(cfg)], capsys)
        assert code == 0
        assert from_conf == from_config
        _, rows = parse_csv(from_conf)
        assert rows[0][2] == "218"

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["stream", "--config={cfg}"], "10\n"),
            (["--config", "{cfg}", "stream"], "10\n"),
            (["--conf={cfg}", "stream", "--eps-qkd", "3e-7"], "33\n"),
        ],
    )
    def test_config_wherever_it_stands(self, capsys, tmp_path, argv, out):
        cfg = tmp_path / "stream.cfg"
        cfg.write_text("eps_stream=1e-5\neps_qkd=1e-6\n")
        code, got, _ = run_cli([a.format(cfg=cfg) for a in argv], capsys)
        assert (code, got) == (0, out)

    @pytest.mark.parametrize("argv", [["stream", "--config"], ["--config"]])
    def test_config_without_path(self, capsys, argv):
        # refused before the subcommand is chosen, so the top-level usage;
        # it was the usage of --config and --output alone
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: finitekey [-h] ")
        assert err.count("finitekey: error: ") == 1
        assert "--config" in err

    def test_output_before_subcommand(self, capsys, tmp_path):
        path = tmp_path / "budget.txt"
        argv = ["--output", str(path), "stream", "--eps-stream", "1e-5", "--eps-qkd", "1e-6"]
        code, out, _ = run_cli(argv, capsys)
        assert (code, out) == (0, "")
        assert path.read_text() == "10\n"

    def test_flag_values_spelled_like_the_subcommand(self, capsys, tmp_path, monkeypatch):
        # the subcommand was found by its text, so the --output value
        # "stream" was taken for it and the run exited 2
        monkeypatch.chdir(tmp_path)
        (tmp_path / "stream.cfg").write_text("eps_stream=1e-5\neps_qkd=1e-6\n")
        argv = ["--output", "stream", "--config", "stream.cfg", "stream"]
        code, out, _ = run_cli(argv, capsys)
        assert (code, out) == (0, "")
        assert (tmp_path / "stream").read_text() == "10\n"

    def test_explicit_output_beats_the_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "stream.cfg"
        cfg.write_text(f"eps_stream=1e-5\neps_qkd=1e-6\noutput={tmp_path / 'a.txt'}\n")
        code, _, _ = run_cli(["--config", str(cfg), "stream"], capsys)
        assert code == 0
        assert (tmp_path / "a.txt").read_text() == "10\n"
        (tmp_path / "a.txt").unlink()
        argv = ["--output", str(tmp_path / "b.txt"), "--config", str(cfg), "stream"]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        assert (tmp_path / "b.txt").read_text() == "10\n"
        assert not (tmp_path / "a.txt").exists()


class TestHelp:
    def test_top_level_help(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "keyrate" in out

    @pytest.mark.parametrize(
        "command", ["keyrate", "sweep", "minblock", "validate", "simulate", "stream"]
    )
    def test_shared_options_listed_once(self, capsys, command):
        # parents share their Action objects; a parent listed twice, or a
        # conflict resolved by argparse, would show up here
        code, out, _ = run_cli([command, "--help"], capsys)
        assert code == 0
        options = [line.split()[0] for line in out.splitlines() if line.startswith("  -")]
        for flag in ("--config", "--output"):
            assert options.count(flag) == 1, (flag, options)
