"""End-to-end tests of the command line interface."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finitekey
import finitekey.simulator as simulator
from finitekey.bounds import BlockShape
from finitekey.cli import main
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
        "argv",
        [
            ["keyrate", "--m", "11", "--delta", "0.1"],
            ["keyrate", "--m", "3100", "--delta", "0.4999", "--variant", "lemma2"],
        ],
    )
    def test_keyless_inputs_print_a_row(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert rows and all(r[2] == "0" and r[-1] == "false" for r in rows)

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "rates.csv"
        argv = ["keyrate", "--m", "3100", "--variant", "lemma2"]
        code, _, _ = run_cli(argv + ["--output", str(path)], capsys)
        assert code == 0
        _, stdout_text, _ = run_cli(argv, capsys)
        assert path.read_text() == stdout_text


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
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stdout_matches_file(self, capsys, name):
        code, out, _ = run_cli(GOLDEN[name], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / f"{name}.csv").read_text()


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
        original = simulator.default_serfling_bound

        def corrupted(shape, delta, slack):
            return 0.001 * original(shape, delta, slack)

        monkeypatch.setattr(simulator, "default_serfling_bound", corrupted)
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
        assert row[9] == f"{report.frequency:.6g}"
        assert row[12] == f"{report.exact:.6g}"


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


class TestImport:
    def test_no_scipy_stats(self):
        # scipy.stats took most of the CLI's start-up time, for one quantile
        src = str(Path(finitekey.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (
            "import sys, finitekey.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout
        assert out.strip() == "[]"


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert run_cli(["keyrate"], capsys)[0] == 2

    def test_unknown_variant(self, capsys):
        assert run_cli(["keyrate", "--m", "3100", "--variant", "azuma"], capsys)[0] == 2

    def test_bad_m_range(self, capsys):
        assert run_cli(["sweep", "--m-range", "500:100"], capsys)[0] == 2

    def test_domain_error_reported_as_usage(self, capsys):
        code, _, err = run_cli(["keyrate", "--m", "5"], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [["keyrate", "--m", "3100", "--s", "324"], ["minblock", "--s", "400"]],
    )
    def test_budget_exponent_out_of_range(self, capsys, argv):
        # 10^-s underflowed to 0 and divided by zero in the optimizer
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "finitekey: error: s must be at most 305" in err
        assert "Traceback" not in err


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
        assert "config" in err
