"""Command-line front end.

Subcommands
-----------
figure3   sweep both probe families over the flip-angle grid and emit the
          precision / variance / mean datasets plus the full sweep table
ip        evaluate the correlation measures of a state stored in a JSON file
estimate  run a single estimation instance
adaptive  run the iterative phase localization loop
verify    run the seeded property suites

The environment variable ``IPOWER_SEED`` overrides the default seed when
``--seed`` is not given.  Exit codes: 2 for configuration errors, 3 when a
state file does not have a qubit on subsystem A, 1 when verification fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import verify as verify_mod
from .correlations import (
    interferometric_power,
    ip_grid_search,
    local_quantum_uncertainty,
)
from .errors import (
    NotIdentifiableError,
    PhaseOutOfWindowError,
    SubsystemANotQubitError,
)
from .estimation import (
    SWEEP_COLUMNS,
    NoiseSpec,
    ProbeFamily,
    adaptive_localize,
    rows_csv_text,
    run_experiment,
    run_sweep,
    sweep_csv_text,
    sweep_json_text,
    sweep_rows,
    _fmt12,
    _round12,
)
from .probes import flip_angle_grid, make_probe, setting_hamiltonian
from .states import DensityMatrix

DATASET_COLUMNS = {
    "precision": ("s", "k", "p", "f_exp_over_4", "ip"),
    "variance": ("s", "k", "p", "var", "nu_var_product"),
    "mean": ("s", "k", "p", "phi_hat", "failed"),
}


@dataclass(frozen=True)
class SweepConfig:
    """Validated configuration of a figure3 sweep."""

    probes: tuple[str, ...]
    settings: tuple[int, ...]
    p_start: float
    p_stop: float
    p_steps: float
    phi_true: float
    nu: int
    noise: float
    seed: int
    out: str
    fmt: str

    def p_grid(self) -> np.ndarray:
        return flip_angle_grid(self.p_start, self.p_stop, self.p_steps)


def _default_seed() -> int:
    env = os.environ.get("IPOWER_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        return 0


def _dataset_text(rows: list[dict], columns: tuple[str, ...], fmt: str) -> str:
    if fmt == "csv":
        return rows_csv_text(rows, columns)
    payload = []
    for row in rows:
        record = {}
        for c in columns:
            if c in ("s", "k", "failed"):
                record[c] = row[c]
            else:
                record[c] = _round12(row[c])
        payload.append(record)
    return json.dumps(payload, indent=1) + "\n"


def _write(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_figure3(config: SweepConfig) -> list[str]:
    """Run the sweep and write the output files; returns the paths written."""
    runs = run_sweep(
        config.probes,
        config.settings,
        config.p_grid(),
        config.phi_true,
        config.nu,
        config.noise,
        config.seed,
    )
    rows = sweep_rows(runs)
    ext = config.fmt
    paths = []
    sweep_path = f"{config.out}_sweep.{ext}"
    _write(
        sweep_path,
        rows_csv_text(rows, SWEEP_COLUMNS) if ext == "csv" else sweep_json_text(runs),
    )
    paths.append(sweep_path)
    for name, columns in DATASET_COLUMNS.items():
        path = f"{config.out}_{name}.{ext}"
        _write(path, _dataset_text(rows, columns, ext))
        paths.append(path)
    return paths


def _finite_float(text: str) -> float:
    """argparse type of the float flags; argparse names the flag and exits 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


def _add_common_flags(parser, with_noise=True):
    parser.add_argument("--phi-true", type=_finite_float, default=math.pi / 4)
    parser.add_argument("--nu", type=_finite_float, default=1e15)
    if with_noise:
        parser.add_argument("--noise", type=_finite_float, default=0.0)
    parser.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipower",
        description="Interferometric power and worst-case phase estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure3", help="sweep the probe families over the p grid")
    fig.add_argument(
        "--probe", action="append", default=None, help="probe label(s), e.g. Q or Q,C"
    )
    fig.add_argument(
        "--setting", action="append", default=None, help="setting index(es) among 1,2,3"
    )
    fig.add_argument("--p-start", type=_finite_float, default=0.0, help="flip angle start, degrees")
    fig.add_argument("--p-stop", type=_finite_float, default=90.0, help="flip angle stop, degrees")
    fig.add_argument("--p-steps", type=_finite_float, default=2.5, help="flip angle step, degrees")
    _add_common_flags(fig)
    fig.add_argument("--out", default="figure3")
    fig.add_argument("--format", choices=("csv", "json"), default="csv")

    ipc = sub.add_parser("ip", help="correlation measures of a JSON state file")
    ipc.add_argument("state_file")
    ipc.add_argument("--grid", default="180x360", help="oracle grid, e.g. 180x360")

    est = sub.add_parser("estimate", help="run one estimation instance")
    est.add_argument(
        "--probe", default="Q", choices=("Q", "C", "werner", "belldiag", "sep", "bell")
    )
    est.add_argument("--p", type=_finite_float, default=0.5)
    est.add_argument(
        "--params", default=None, help="comma-separated parameters, e.g. 0.5,0.3,0.1"
    )
    est.add_argument("--setting", type=int, default=1)
    _add_common_flags(est)
    est.add_argument("--out", default=None)
    est.add_argument("--format", choices=("csv", "json"), default="json")

    ada = sub.add_parser("adaptive", help="iterative phase localization")
    ada.add_argument("--probe", default="Q", choices=("Q", "C"))
    ada.add_argument("--p", type=_finite_float, default=0.13)
    ada.add_argument("--setting", type=int, default=1)
    ada.add_argument("--max-iters", type=int, default=10)
    _add_common_flags(ada, with_noise=False)
    ada.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run the seeded property suites")
    ver.add_argument("--trials", type=int, default=100, help="base ensemble size")
    ver.add_argument("--seed", type=int, default=None)

    return parser


def _figure3(args, parser) -> int:
    probes = []
    for chunk in args.probe or ["Q,C"]:
        probes += [x.strip() for x in chunk.split(",") if x.strip()]
    for label in probes:
        if label not in ("Q", "C", "werner"):
            parser.error(
                f"--probe: {label!r} cannot be swept over the p grid "
                "(choose among Q, C, werner)"
            )
    settings = []
    for chunk in args.setting or ["1,2,3"]:
        for x in chunk.split(","):
            if x.strip():
                try:
                    settings.append(int(x))
                except ValueError:
                    parser.error(f"--setting: not an integer: {x!r}")
    for k in settings:
        if k not in (1, 2, 3):
            parser.error(f"--setting: must be 1, 2 or 3, got {k}")
    if args.p_steps <= 0:
        parser.error("--p-steps: step must be positive (empty grid)")
    if args.p_stop < args.p_start:
        parser.error("--p-stop: must not precede --p-start")
    if args.noise < 0:
        parser.error("--noise: must be nonnegative")
    if args.nu < 1:
        parser.error("--nu: must be at least 1")
    config = SweepConfig(
        probes=tuple(sorted(set(probes))),
        settings=tuple(sorted(set(settings))),
        p_start=args.p_start,
        p_stop=args.p_stop,
        p_steps=args.p_steps,
        phi_true=args.phi_true,
        nu=int(args.nu),
        noise=args.noise,
        seed=args.seed if args.seed is not None else _default_seed(),
        out=args.out,
        fmt=args.format,
    )
    try:
        paths = cmd_figure3(config)
    except PhaseOutOfWindowError as exc:
        parser.error(f"--phi-true: {exc}")
    for path in paths:
        print(path)
    return 0


def _ip(args) -> int:
    try:
        with open(args.state_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        rho = DensityMatrix.from_json_dict(payload)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: state_file: {exc}", file=sys.stderr)
        return 2
    if rho.d_a != 2:
        print(
            f"error: subsystem A has dimension {rho.d_a}, need a qubit",
            file=sys.stderr,
        )
        return 3
    try:
        n_theta, n_phi = (int(x) for x in args.grid.lower().split("x"))
        power = interferometric_power(rho)
        uncertainty = local_quantum_uncertainty(rho)
        value, direction = ip_grid_search(rho, n_theta, n_phi)
    except ValueError as exc:
        print(f"error: --grid: {exc}", file=sys.stderr)
        return 2
    print(f"interferometric_power {_fmt12(power)}")
    print(f"local_quantum_uncertainty {_fmt12(uncertainty)}")
    print(
        f"oracle_minimum {_fmt12(value)} at direction "
        f"({_fmt12(direction[0])}, {_fmt12(direction[1])}, {_fmt12(direction[2])})"
    )
    ok = power >= uncertainty - 1e-10
    print(f"hierarchy power >= uncertainty: {'OK' if ok else 'VIOLATED'}")
    return 0


def _estimate(args, parser) -> int:
    if args.setting not in (1, 2, 3):
        parser.error(f"--setting: must be 1, 2 or 3, got {args.setting}")
    if args.noise < 0:
        parser.error("--noise: must be nonnegative")
    if args.nu < 1:
        parser.error("--nu: must be at least 1")
    seed = args.seed if args.seed is not None else _default_seed()
    noise = NoiseSpec(args.noise, seed) if args.noise > 0 else NoiseSpec()
    if args.params is not None:
        params = tuple(_parse_float_list(args.params))
    elif args.probe in ("Q", "C", "werner"):
        params = (args.p,)
    else:
        params = ()
    try:
        family = ProbeFamily(args.probe, params)
        run = run_experiment(
            family, args.setting, args.phi_true, int(args.nu), noise
        )
    except PhaseOutOfWindowError as exc:
        parser.error(f"--phi-true: {exc}")
    except ValueError as exc:
        parser.error(f"--probe: {exc}")
    if args.format == "json":
        text = json.dumps(run.to_json_dict(), indent=1) + "\n"
    else:
        text = sweep_csv_text([run])
    if args.out:
        _write(args.out, text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def _adaptive(args, parser) -> int:
    if args.setting not in (1, 2, 3):
        parser.error(f"--setting: must be 1, 2 or 3, got {args.setting}")
    try:
        rho = make_probe(ProbeFamily(args.probe, (args.p,)))
    except ValueError as exc:
        parser.error(f"--p: {exc}")
    ham = setting_hamiltonian(args.setting)
    try:
        trials, converged = adaptive_localize(
            rho, ham, args.phi_true, max_iters=args.max_iters
        )
    except PhaseOutOfWindowError as exc:
        parser.error(f"--phi-true: {exc}")
    except NotIdentifiableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for n, value in enumerate(trials, start=1):
        print(f"trial {n} {_fmt12(value)}")
    print(f"converged {'true' if converged else 'false'}")
    if args.out:
        payload = {
            "probe": args.probe,
            "p": _round12(args.p),
            "setting": args.setting,
            "phi_true": _round12(args.phi_true),
            "trials": [_round12(t) for t in trials],
            "converged": converged,
        }
        _write(args.out, json.dumps(payload, indent=1) + "\n")
    return 0


def _verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    results = verify_mod.run_all(seed=seed, scale=args.trials / 100.0)
    failures = 0
    for result in results:
        print(result.line())
        if not result.passed:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} property families passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "figure3":
            return _figure3(args, parser)
        if args.command == "ip":
            return _ip(args)
        if args.command == "estimate":
            return _estimate(args, parser)
        if args.command == "adaptive":
            return _adaptive(args, parser)
        return _verify(args)
    except SubsystemANotQubitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
