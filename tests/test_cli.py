import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ipower import cli, correlations
from ipower.cli import main
from ipower.estimation import SWEEP_COLUMNS
from ipower.probes import classical_probe, werner_state
from ipower.sampling import random_density_matrix
from ipower.states import DensityMatrix, save_state


def run_cli(args):
    return main(list(args))


# An integer of 401 digits, beyond the float range.
BIG = str(10**400)


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--p-steps", "1e-300"],
            ["--p-stop", "1e308", "--p-steps", "1e-308"],
            ["--p-steps", "1e-15"],
            ["--p-steps", "9e-8"],
            ["--p-stop", "50000", "--p-steps", "1"],
        ],
    )
    def test_grid_too_fine_for_an_array_exits_2(self, argv, tmp_path, capsys):
        # Every grid is refused before any array is allocated: 1e-15 gives 9e16
        # points, numpy's refusal, and 9e-8 gives 1e9, which numpy would allocate;
        # 0..50000 by 1 is one point above the cap.
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as info:
                run_cli(["figure3", *argv, "--out", str(tmp_path / "x")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "flip-angle grid" in err and "more than 50000" in err
        assert peak < 2**20, f"peak {peak / 2**10:.1f} KiB"

    def test_bad_probe_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["figure3", "--probe", "X", "--out", str(tmp_path / "x")])
        assert info.value.code == 2
        assert "--probe" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--setting", "4"], "--setting"),
            (["--setting", "1,x"], "--setting"),
            (["--probe", "belldiag"], "--probe"),
            (["--p-stop", "95"], "--p-stop"),
        ],
    )
    def test_bad_list_or_grid_exits_2_naming_the_flag(self, argv, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["figure3", *argv, "--out", str(tmp_path / "x")])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_csv_and_json_datasets_carry_the_same_cells(self, tmp_path, capsys):
        for fmt in ("csv", "json"):
            argv = ["figure3", "--p-stop", "10", "--format", fmt, "--out", str(tmp_path / "f")]
            assert run_cli(argv) == 0
        capsys.readouterr()
        nulls = 0
        for name in ("precision", "variance", "mean"):
            with open(tmp_path / f"f_{name}.csv", newline="", encoding="utf-8") as fh:
                csv_rows = list(csv.DictReader(fh))
            json_rows = json.loads((tmp_path / f"f_{name}.json").read_text())
            assert len(csv_rows) == len(json_rows) == 2 * 3 * 5
            for csv_row, json_row in zip(csv_rows, json_rows):
                assert list(csv_row) == list(json_row)
                for column, value in json_row.items():
                    if value is None:
                        nulls += 1
                        assert csv_row[column] == "nan"
                    elif isinstance(value, bool):
                        assert csv_row[column] == str(value).lower()
                    elif isinstance(value, str):
                        assert csv_row[column] == value
                    else:
                        assert float(csv_row[column]) == value
        assert nulls > 0

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


GOLDEN = Path(__file__).with_name("golden")
FIGURE3_FILES = ("sweep", "precision", "variance", "mean")


class TestParserReuse:
    """main builds its parser once per process; no call may see another's flags."""

    def _figure3(self, argv, out, capsys, fresh):
        if fresh:
            cli._parser.cache_clear()  # as in a process of its own
        assert run_cli(["figure3", *argv, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        fmt = "json" if "json" in argv else "csv"
        return printed, {name: Path(f"{out}_{name}.{fmt}").read_bytes() for name in FIGURE3_FILES}

    def test_calls_write_what_they_write_alone(self, tmp_path, capsys):
        noisy = ["--probe", "Q", "--setting", "1", "--noise", "0.05", "--seed", "7",
                 "--format", "json"]
        together = [
            self._figure3(argv, tmp_path / "one", capsys, fresh)
            for argv, fresh in ((noisy, True), ([], False))
        ]
        alone = [self._figure3(argv, tmp_path / "one", capsys, True) for argv in (noisy, [])]
        assert together == alone
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        for name in FIGURE3_FILES:
            assert together[1][1][name] == (GOLDEN / f"figure3_{name}.csv").read_bytes()

    def test_extended_lists_start_empty_on_every_call(self, tmp_path, capsys):
        grid = ["--setting", "1", "--p-stop", "10"]
        self._figure3(["--probe", "Q", "--probe", "C", *grid], tmp_path / "a", capsys, True)
        _, files = self._figure3(["--probe", "C", *grid], tmp_path / "b", capsys, False)
        rows = files["sweep"].decode().splitlines()[1:]
        assert len(rows) == 5 and {row.split(",")[0] for row in rows} == {"C"}


def strict_json(text):
    """json.loads that rejects the NaN and Infinity tokens strict JSON lacks."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    # Failed runs, families without p and dust all print as strict JSON.
    def test_figure3_files(self, tmp_path, capsys):
        assert run_cli(["figure3", "--format", "json", "--out", str(tmp_path / "f")]) == 0
        capsys.readouterr()
        nulls = 0
        for name in ("sweep", "precision", "variance", "mean"):
            records = strict_json((tmp_path / f"f_{name}.json").read_text())
            assert len(records) == 222
            nulls += sum(None in record.values() for record in records)
        assert nulls > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--probe", "Q", "--p", "0.5", "--setting", "2", "--noise", "0.05", "--seed", "7"],
            ["--probe", "C", "--p", "0", "--setting", "3"],
            ["--probe", "sep", "--noise", "0.1", "--seed", "2"],
        ],
    )
    def test_estimate_record(self, argv, capsys):
        assert run_cli(["estimate", *argv]) == 0
        record = strict_json(capsys.readouterr().out)
        assert set(record) >= {"p", "phi_hat_mean", "phi_hat_var", "failed"}

    def test_adaptive_record(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert run_cli(["adaptive", "--probe", "C", "--p", "0.6", "--setting", "2",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        assert strict_json(out.read_text())["converged"] is True


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
            ["estimate", "--nu", "abc"],
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
            (["estimate", "--seed", "1.5"], "an integer >= 0"),
            (["verify", "--seed", "-1"], "an integer >= 0"),
            (["verify", "--seed", "abc"], "an integer >= 0"),
            (["verify", "--trials", "0"], "an integer >= 1"),
            (["verify", "--trials", "-3"], "an integer >= 1"),
            (["adaptive", "--max-iters", "0"], "an integer >= 1"),
            # Counts beyond the float range used to end in an OverflowError.
            (["verify", "--trials", BIG], "an integer >= 1"),
            (["adaptive", "--max-iters", BIG], "an integer >= 1"),
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

    @pytest.mark.parametrize("command", ["figure3", "estimate"])
    def test_fractional_nu_exits_2_and_writes_nothing(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli([command, "--nu", "2.5", "--out", str(tmp_path / "x")])
        assert info.value.code == 2
        assert "argument --nu: expected a whole number, got '2.5'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text, nu", [("10", 10), ("1e15", 10**15)])
    def test_whole_nu_is_recorded_as_given(self, text, nu, capsys):
        assert run_cli(["estimate", "--nu", text]) == 0
        assert json.loads(capsys.readouterr().out)["nu"] == nu

    @pytest.mark.parametrize(
        "argv", [["estimate", "--setting", "4"], ["adaptive", "--setting", "0"]]
    )
    def test_setting_outside_1_to_3_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(argv)
        assert info.value.code == 2
        assert "--setting" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_env_seed_exits_2_naming_the_variable(self, value, capsys, monkeypatch):
        monkeypatch.setenv("IPOWER_SEED", value)
        with pytest.raises(SystemExit) as info:
            run_cli(["estimate", "--noise", "0.05"])
        assert info.value.code == 2
        assert "ipower estimate: error: IPOWER_SEED: expected an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["estimate", "figure3", "verify", "IPOWER_SEED"])
    def test_seed_of_any_size_is_taken(self, source, tmp_path, capsys, monkeypatch):
        # A seed beyond the float range used to end each command with an
        # OverflowError and exit 1, verify's "verification failed" code.
        if source == "IPOWER_SEED":
            monkeypatch.setenv(source, BIG)
            assert run_cli(["estimate", "--noise", "0.05"]) == 0
            assert json.loads(capsys.readouterr().out)["seed"] == 10**400
        elif source == "estimate":
            assert run_cli(["estimate", "--noise", "0.05", "--seed", BIG]) == 0
            assert json.loads(capsys.readouterr().out)["seed"] == 10**400
        elif source == "figure3":
            out = tmp_path / "fig"
            assert run_cli(
                ["figure3", "--probe", "Q", "--setting", "1", "--p-steps", "45", "--noise",
                 "0.05", "--seed", BIG, "--format", "json", "--out", str(out)]
            ) == 0
            records = json.loads((tmp_path / "fig_sweep.json").read_text())
            seeds = np.random.default_rng(10**400).integers(0, 2**63 - 1, size=3).tolist()
            assert [record["seed"] for record in records] == seeds
        else:
            assert run_cli(["verify", "--trials", "5", "--seed", BIG]) == 0
            assert "FAIL" not in capsys.readouterr().out

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

    def test_odd_grid_reaches_the_closed_form(self, tmp_path, capsys):
        path = tmp_path / "random.json"
        save_state(random_density_matrix((2, 3), np.random.default_rng(7), env_dim=2), path)
        assert run_cli(["ip", str(path), "--grid", "181x361"]) == 0
        lines = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines())
        power = float(lines["interferometric_power"])
        assert float(lines["oracle_minimum"].split()[0]) == pytest.approx(power, abs=1e-12)

    def test_oversized_grid_exits_2_before_allocating(self, tmp_path, capsys, monkeypatch):
        # The half-grid of 100000x100000 holds 5e9 points.
        path = tmp_path / "werner.json"
        save_state(werner_state(0.5), path)

        def refuse(*args):
            raise AssertionError("the sphere search ran")

        monkeypatch.setattr(correlations, "_sphere_minimum", refuse)
        assert run_cli(["ip", str(path), "--grid", "100000x100000"]) == 2
        assert "--grid" in capsys.readouterr().err

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

    def test_fractional_dims_exit_2(self, tmp_path, capsys):
        path = tmp_path / "fractional.json"
        eye = (np.eye(6) / 6.0).tolist()
        path.write_text(json.dumps({"dims": [2.5, 3], "re": eye, "im": np.zeros((6, 6)).tolist()}))
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--probe", "sep", "--p", "0.9"],
            ["--probe", "bell", "--p", "0.5"],
            ["--probe", "Q", "--p", "0.3", "--params", "0.5"],
            ["--probe", "belldiag", "--p", "0.3", "--params", "0.5,0.3,0.1"],
        ],
        ids=["sep", "bell", "Q-params", "belldiag-params"],
    )
    def test_unused_p_exits_2_naming_p(self, argv, capsys):
        # These used to run without a word: sep recorded p null, Q ran at 0.5.
        with pytest.raises(SystemExit) as info:
            run_cli(["estimate", *argv])
        assert info.value.code == 2
        assert "error: --p: " in capsys.readouterr().err

    def test_p_defaults_to_one_half_for_the_swept_families(self, capsys):
        assert run_cli(["estimate", "--probe", "werner"]) == 0
        default = capsys.readouterr().out
        assert run_cli(["estimate", "--probe", "werner", "--p", "0.5"]) == 0
        assert capsys.readouterr().out == default and json.loads(default)["p"] == 0.5
        assert run_cli(["estimate", "--probe", "sep"]) == 0
        assert json.loads(capsys.readouterr().out)["p"] is None

    @pytest.mark.parametrize("bad", ["abc", "nan"])
    def test_bad_params_entry_exits_2_naming_params(self, bad, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["estimate", "--probe", "belldiag", "--params", f"0.5,0.5,{bad}"])
        assert info.value.code == 2
        assert f"argument --params: expected a finite number, got '{bad}'" in capsys.readouterr().err


class TestAdaptiveCommand:
    def test_prints_trials(self, capsys):
        assert run_cli(
            ["adaptive", "--probe", "Q", "--p", "0.13", "--setting", "1",
             "--max-iters", "5"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "trial 1 0"
        assert lines[-1] == "converged true"

    def test_second_trial_exact_away_from_reference_phase(self, capsys):
        # Measured in the SLD basis at 0, the data at pi/4 fix the fit to rounding.
        assert run_cli(["adaptive", "--probe", "C", "--p", "0.6", "--setting", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("trial 2 ")
        assert abs(float(lines[1].split()[2]) - math.pi / 4) <= 1e-12

    def test_pathological_setting_exits_2(self, capsys):
        assert run_cli(["adaptive", "--probe", "C", "--setting", "3"]) == 2
        assert "QFI" in capsys.readouterr().err

    def test_p_out_of_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["adaptive", "--p", "1.5"])
        assert info.value.code == 2
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed", "--nu", "--noise"])
    def test_estimation_flags_exit_2(self, flag, capsys):
        # The adaptive loop is exact: no seed, ensemble size or noise enters it.
        with pytest.raises(SystemExit) as info:
            run_cli(["adaptive", flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


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
        assert f"usage: ipower {argv[0]} " in err and f"ipower {argv[0]}: error: --phi-true" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--probe", "Q", "--p", "1.5"], "--p"),
            (["--probe", "werner", "--p", "-1"], "--p"),
            (["--probe", "belldiag", "--params", "0.5,0.5,0.9"], "--params"),
            (["--probe", "Q", "--params", "0.5,0.2"], "--params"),
            (["--probe", "belldiag"], "--params"),
        ],
        ids=["p", "werner-p", "params", "params-count", "params-missing"],
    )
    def test_parameter_errors_name_their_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["estimate", *argv])
        assert info.value.code == 2
        assert f"error: {flag}: " in capsys.readouterr().err


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
