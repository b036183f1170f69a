import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ipower.cli import main
from ipower.estimation import SWEEP_COLUMNS
from ipower.probes import classical_probe, werner_state
from ipower.states import DensityMatrix, save_state


def run_cli(args):
    return main(list(args))


class TestFigure3:
    def test_default_outputs(self, tmp_path, capsys):
        out = tmp_path / "fig"
        assert run_cli(["figure3", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 4
        sweep = (tmp_path / "fig_sweep.csv").read_text().splitlines()
        assert sweep[0] == ",".join(SWEEP_COLUMNS)
        assert len(sweep) == 1 + 2 * 3 * 37

        precision = (tmp_path / "fig_precision.csv").read_text().splitlines()
        assert precision[0] == "s,k,p,f_exp_over_4,ip"
        curves = {tuple(line.split(",")[:2]) for line in precision[1:]}
        assert curves == {
            ("Q", "1"), ("Q", "2"), ("Q", "3"),
            ("C", "1"), ("C", "2"), ("C", "3"),
        }
        assert (tmp_path / "fig_variance.csv").exists()
        assert (tmp_path / "fig_mean.csv").exists()

    def test_deterministic_with_seed(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert run_cli(
                [
                    "figure3", "--noise", "0.05", "--seed", "7",
                    "--p-start", "40", "--p-stop", "60",
                    "--out", str(tmp_path / name),
                ]
            ) == 0
        capsys.readouterr()
        for suffix in ("sweep", "precision", "variance", "mean"):
            first = (tmp_path / f"a_{suffix}.csv").read_bytes()
            second = (tmp_path / f"b_{suffix}.csv").read_bytes()
            assert first == second

    def test_empty_grid_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli(["figure3", "--p-steps", "0", "--out", str(tmp_path / "x")])
        assert info.value.code == 2

    def test_bad_probe_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["figure3", "--probe", "X", "--out", str(tmp_path / "x")])
        assert info.value.code == 2
        assert "--probe" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "fig"
        assert run_cli(
            ["figure3", "--format", "json", "--p-stop", "10", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        records = json.loads((tmp_path / "fig_sweep.json").read_text())
        assert len(records) == 2 * 3 * 5
        precision = json.loads((tmp_path / "fig_precision.json").read_text())
        assert set(precision[0]) == {"s", "k", "p", "f_exp_over_4", "ip"}


class TestFloatFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["figure3", "--p-steps", "nan"],
            ["figure3", "--p-start", "inf"],
            ["figure3", "--p-stop=-inf"],
            ["figure3", "--phi-true", "nan"],
            ["figure3", "--noise", "nan"],
            ["figure3", "--nu", "inf"],
            ["estimate", "--phi-true", "nan"],
            ["estimate", "--noise", "nan"],
            ["estimate", "--p", "nan"],
            ["adaptive", "--phi-true", "nan"],
            ["adaptive", "--p", "inf"],
            ["adaptive", "--nu", "abc"],
        ],
    )
    def test_non_finite_value_exits_2_naming_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(argv)
        assert info.value.code == 2
        flag = argv[1].split("=")[0]
        assert f"argument {flag}: expected a finite number" in capsys.readouterr().err


class TestBoundedFlags:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["figure3", "--seed", "-1"], "an integer >= 0"),
            (["estimate", "--seed", "-1"], "an integer >= 0"),
            (["adaptive", "--seed", "1.5"], "an integer >= 0"),
            (["verify", "--seed", "-1"], "an integer >= 0"),
            (["verify", "--seed", "abc"], "an integer >= 0"),
            (["verify", "--trials", "0"], "an integer >= 1"),
            (["verify", "--trials", "-3"], "an integer >= 1"),
            (["adaptive", "--max-iters", "0"], "an integer >= 1"),
            (["estimate", "--noise", "-0.1"], "a finite number >= 0"),
            (["figure3", "--nu", "0.5"], "a finite number >= 1"),
        ],
    )
    def test_out_of_range_value_exits_2_naming_the_flag(self, argv, expected, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(argv + ["--out", str(tmp_path / "x")] if argv[0] == "figure3" else argv)
        assert info.value.code == 2
        assert f"argument {argv[1]}: expected {expected}, got " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_env_seed_exits_2_naming_the_variable(self, value, capsys, monkeypatch):
        monkeypatch.setenv("IPOWER_SEED", value)
        with pytest.raises(SystemExit) as info:
            run_cli(["estimate", "--noise", "0.05"])
        assert info.value.code == 2
        assert "IPOWER_SEED: expected an integer >= 0" in capsys.readouterr().err

    def test_seed_flag_overrides_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("IPOWER_SEED", "abc")
        assert run_cli(["estimate", "--noise", "0.05", "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5


class TestIpCommand:
    def test_werner_report(self, tmp_path, capsys):
        path = tmp_path / "werner.json"
        save_state(werner_state(0.5), path)
        assert run_cli(["ip", str(path)]) == 0
        out = capsys.readouterr().out
        assert "interferometric_power 0.333333333333" in out
        assert "hierarchy power >= uncertainty: OK" in out

    def test_classical_state_worst_direction(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        save_state(classical_probe(0.7), path)
        assert run_cli(["ip", str(path)]) == 0
        out = capsys.readouterr().out
        power_line = [l for l in out.splitlines() if l.startswith("interferometric")][0]
        assert float(power_line.split()[1]) <= 1e-10
        direction = [l for l in out.splitlines() if l.startswith("oracle_minimum")][0]
        nx = abs(float(direction.split("(")[1].split(",")[0]))
        assert nx == pytest.approx(1.0, abs=0.02)

    def test_maximally_mixed_all_zero(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        save_state(DensityMatrix.from_matrix(np.eye(4) / 4.0, (2, 2)), path)
        assert run_cli(["ip", str(path)]) == 0
        values = [
            float(line.split()[1])
            for line in capsys.readouterr().out.splitlines()
            if line.split()[0]
            in ("interferometric_power", "local_quantum_uncertainty", "oracle_minimum")
        ]
        assert max(abs(v) for v in values) <= 1e-12

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert run_cli(["ip", str(path)]) == 2
        assert "state_file" in capsys.readouterr().err

    def test_non_qubit_a_exits_3(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        save_state(DensityMatrix.from_matrix(np.eye(6) / 6.0, (3, 2)), path)
        assert run_cli(["ip", str(path)]) == 3
        assert "qubit" in capsys.readouterr().err


class TestEstimateCommand:
    def test_json_record(self, capsys):
        assert run_cli(["estimate", "--probe", "Q", "--p", "0.5", "--setting", "2"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["probe_label"] == "Q"
        assert record["setting_k"] == 2
        assert record["phi_hat_mean"] == pytest.approx(math.pi / 4, abs=1e-6)
        assert record["failed"] is False

    def test_csv_single_row(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert run_cli(
            ["estimate", "--probe", "C", "--setting", "3", "--format", "csv",
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 2
        assert lines[1].endswith(",true")

    def test_env_seed_used(self, capsys, monkeypatch):
        monkeypatch.setenv("IPOWER_SEED", "123")
        assert run_cli(["estimate", "--noise", "0.05"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["seed"] == 123


class TestAdaptiveCommand:
    def test_prints_trials(self, capsys):
        assert run_cli(
            ["adaptive", "--probe", "Q", "--p", "0.13", "--setting", "1",
             "--max-iters", "5"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "trial 1 0"
        assert lines[-1] == "converged true"

    def test_pathological_setting_exits_2(self, capsys):
        assert run_cli(["adaptive", "--probe", "C", "--setting", "3"]) == 2
        assert "QFI" in capsys.readouterr().err

    def test_p_out_of_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["adaptive", "--p", "1.5"])
        assert info.value.code == 2
        assert "--p" in capsys.readouterr().err


class TestPhaseWindowFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["figure3", "--phi-true", "2.0"],
            ["estimate", "--phi-true", "2.0"],
            ["estimate", "--phi-true", "-0.5"],
            ["adaptive", "--phi-true", "2.0"],
        ],
    )
    def test_outside_window_exits_2(self, argv, tmp_path, capsys):
        if argv[0] == "figure3":
            argv = argv + ["--out", str(tmp_path / "fig")]
        with pytest.raises(SystemExit) as info:
            run_cli(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--phi-true" in err and "window" in err
        assert not list(tmp_path.iterdir())

    def test_probe_errors_still_name_probe(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["estimate", "--probe", "Q", "--p", "1.5"])
        assert info.value.code == 2
        assert "--probe" in capsys.readouterr().err


def test_module_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "ipower", "estimate", "--probe", "Q", "--p", "0.5"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["probe_label"] == "Q"


class TestVerifyCommand:
    def test_small_scale_run_passes(self, capsys):
        assert run_cli(["verify", "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "property families passed" in out
        assert "FAIL" not in out
