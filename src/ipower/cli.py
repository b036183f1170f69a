"""Command-line front end: parse flags, call the library, write files.

Subcommands
-----------
figure3   sweep probe families over the flip-angle grid and emit the
          precision / variance / mean datasets plus the full sweep table
ip        evaluate the correlation measures of a state stored in a JSON file
estimate  run a single estimation instance
adaptive  run the iterative phase localization loop
verify    run the seeded property suites

The library owns every decision behind a flag: the file formats
(``estimation.FIGURE3_COLUMNS`` and ``estimation.RECORD_FIELDS``, rendered
by ``estimation.figure3_texts`` and ``estimation.run_json_text``), the probe
families and which of them take p (``probes.PROBE_LABELS``,
``probes.SWEPT_LABELS``) and the range checks.
This module only maps their errors to exit codes.  The environment variable
``IPOWER_SEED`` overrides the default seed when ``--seed`` is not given; both
must be non-negative integers.
Exit codes: 2 for configuration errors, 3 when a state file does not have a
qubit on subsystem A, 1 when verification fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import verify as verify_mod
from .correlations import (
    interferometric_power,
    ip_grid_search,
    local_quantum_uncertainty,
)
from .errors import (
    NotIdentifiableError,
    ParameterOutOfRangeError,
    PhaseOutOfWindowError,
    SubsystemANotQubitError,
)
from .estimation import (
    NoiseSpec,
    adaptive_localize,
    figure3_texts,
    fmt12,
    round12,
    run_experiment,
    run_json_text,
    run_sweep,
    sweep_csv_text,
)
from .linalg import HIERARCHY_SLACK, _count, _real
from .probes import (
    PROBE_LABELS,
    SETTINGS,
    SWEPT_LABELS,
    ProbeFamily,
    flip_angle_grid,
    make_probe,
    setting_hamiltonian,
)
from .states import load_state


def _write(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _number(kind=float, low=-math.inf, whole=False):
    """argparse type of a ``kind`` that is a real (README, "Tolerances": an integer
    beyond about 1.8e308 is not) not below ``low``, and with ``whole`` a whole
    number (1e15 passes, 2.5 does not); argparse exits 2 otherwise."""
    expected = "an integer" if kind is int else "a finite number"
    if low > -math.inf:
        expected += f" >= {low:g}"

    def parse(text: str):
        try:
            value = kind(text)
            _real(value, "value", low)
        except ValueError:  # ParameterOutOfRangeError is one
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
        if whole and value % 1:
            raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
        return value

    return parse


def _seed(text: str) -> int:
    """argparse type of a seed: a count >= 0 of any size, as numpy takes it;
    argparse exits 2 otherwise."""
    try:
        return _count(int(text), "seed")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}") from None


def _env_seed(parser) -> int:
    """The seed from ``IPOWER_SEED``, or 0 when it is unset."""
    try:
        return _seed(os.environ.get("IPOWER_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        parser.error(f"IPOWER_SEED: {exc}")


def _choice(options):
    """argparse type of one of ``options``, matched by its text."""

    def parse(text: str):
        for option in options:
            if str(option) == text:
                return option
        expected = ", ".join(str(option) for option in options)
        raise argparse.ArgumentTypeError(f"expected one of {expected}, got {text!r}")

    return parse


def _listed(item):
    """argparse type of a non-empty comma-separated list of ``item`` values."""

    def parse(text: str) -> list:
        values = [item(x.strip()) for x in text.split(",") if x.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
        return values

    return parse


def _add_common_flags(parser):
    parser.add_argument("--phi-true", type=_number(), default=math.pi / 4)
    parser.add_argument("--nu", type=_number(float, 1, whole=True), default=1e15)
    parser.add_argument("--noise", type=_number(float, 0), default=0.0)
    parser.add_argument("--seed", type=_seed, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipower",
        description="Interferometric power and worst-case phase estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure3", help="sweep the probe families over the p grid")
    fig.add_argument(
        "--probe", type=_listed(_choice(SWEPT_LABELS)), action="extend",
        help="probe labels, e.g. Q or Q,C (default Q,C)",
    )
    fig.add_argument(
        "--setting", type=_listed(_choice(SETTINGS)), action="extend",
        help="setting indices among 1,2,3 (default all)",
    )
    fig.add_argument("--p-start", type=_number(), default=0.0, help="flip angle start, degrees")
    fig.add_argument("--p-stop", type=_number(), default=90.0, help="flip angle stop, degrees")
    fig.add_argument("--p-steps", type=_number(), default=2.5, help="flip angle step, degrees")
    _add_common_flags(fig)
    fig.add_argument("--out", default="figure3")
    fig.add_argument("--format", choices=("csv", "json"), default="csv")
    fig.set_defaults(run=_figure3, parser=fig)

    ipc = sub.add_parser("ip", help="correlation measures of a JSON state file")
    ipc.add_argument("state_file")
    ipc.add_argument("--grid", default="180x360", help="oracle grid, e.g. 180x360")
    ipc.set_defaults(run=_ip, parser=ipc)

    est = sub.add_parser("estimate", help="run one estimation instance")
    est.add_argument("--probe", default="Q", choices=PROBE_LABELS)
    est.add_argument(
        "--p", type=_number(), default=None,
        help="parameter of a family among " + ", ".join(SWEPT_LABELS) + " (default 0.5)",
    )
    est.add_argument(
        "--params", type=_listed(_number()), default=None,
        help="comma-separated parameters, e.g. 0.5,0.3,0.1",
    )
    est.add_argument("--setting", type=int, choices=SETTINGS, default=1)
    _add_common_flags(est)
    est.add_argument("--out", default=None)
    est.add_argument("--format", choices=("csv", "json"), default="json")
    est.set_defaults(run=_estimate, parser=est)

    ada = sub.add_parser("adaptive", help="iterative phase localization")
    ada.add_argument("--probe", default="Q", choices=SWEPT_LABELS)
    ada.add_argument("--p", type=_number(), default=0.13)
    ada.add_argument("--setting", type=int, choices=SETTINGS, default=1)
    ada.add_argument("--max-iters", type=_number(int, 1), default=10)
    ada.add_argument("--phi-true", type=_number(), default=math.pi / 4)
    ada.add_argument("--out", default=None)
    ada.set_defaults(run=_adaptive, parser=ada)

    ver = sub.add_parser("verify", help="run the seeded property suites")
    ver.add_argument("--trials", type=_number(int, 1), default=100, help="base ensemble size")
    ver.add_argument("--seed", type=_seed, default=None)
    ver.set_defaults(run=_verify, parser=ver)

    return parser


def _figure3(args, parser) -> int:
    try:
        runs = run_sweep(
            set(args.probe or ("Q", "C")),
            set(args.setting or SETTINGS),
            flip_angle_grid(args.p_start, args.p_stop, args.p_steps),
            args.phi_true,
            args.nu,
            args.noise,
            args.seed,
        )
    except PhaseOutOfWindowError as exc:
        parser.error(f"--phi-true: {exc}")
    except ParameterOutOfRangeError as exc:
        parser.error(f"flip-angle grid --p-start/--p-stop/--p-steps: {exc}")
    for name, text in figure3_texts(runs, args.format).items():
        path = f"{args.out}_{name}.{args.format}"
        _write(path, text)
        print(path)
    return 0


def _ip(args, parser) -> int:
    try:
        rho = load_state(args.state_file)
    except (OSError, ValueError) as exc:
        print(f"error: state_file: {exc}", file=sys.stderr)
        return 2
    power = interferometric_power(rho)  # SubsystemANotQubitError: exit 3
    uncertainty = local_quantum_uncertainty(rho)
    try:
        n_theta, n_phi = (int(x) for x in args.grid.lower().split("x"))
        if min(n_theta, n_phi) < 1:  # the flag's own message for a count below 1
            raise ValueError(f"grid counts ({n_theta!r}, {n_phi!r}) must be positive integers")
        value, direction = ip_grid_search(rho, n_theta, n_phi)
    except ValueError as exc:
        print(f"error: --grid: {exc}", file=sys.stderr)
        return 2
    print(f"interferometric_power {fmt12(power)}")
    print(f"local_quantum_uncertainty {fmt12(uncertainty)}")
    print(
        f"oracle_minimum {fmt12(value)} at direction "
        f"({fmt12(direction[0])}, {fmt12(direction[1])}, {fmt12(direction[2])})"
    )
    ok = power >= uncertainty - HIERARCHY_SLACK
    print(f"hierarchy power >= uncertainty: {'OK' if ok else 'VIOLATED'}")
    return 0


def _estimate(args, parser) -> int:
    noise = NoiseSpec(args.noise, args.seed)
    if args.p is not None and args.params is not None:
        parser.error("--p: not used when --params gives the parameters")
    if args.p is not None and args.probe not in SWEPT_LABELS:
        parser.error(f"--p: only {', '.join(SWEPT_LABELS)} take p, not {args.probe!r}")
    params, flag = args.params or (), "--params"
    if args.params is None and args.probe in SWEPT_LABELS:
        params, flag = (0.5 if args.p is None else args.p,), "--p"
    try:
        family = ProbeFamily(args.probe, params)
        run = run_experiment(
            family, args.setting, args.phi_true, args.nu, noise
        )
    except PhaseOutOfWindowError as exc:
        parser.error(f"--phi-true: {exc}")
    except ValueError as exc:  # the probe's parameters, from the flag that gave them
        parser.error(f"{flag}: {exc}")
    text = run_json_text(run) if args.format == "json" else sweep_csv_text([run])
    if args.out:
        _write(args.out, text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def _adaptive(args, parser) -> int:
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
        print(f"trial {n} {fmt12(value)}")
    print(f"converged {'true' if converged else 'false'}")
    if args.out:
        payload = {
            "probe": args.probe,
            "p": round12(args.p),
            "setting": args.setting,
            "phi_true": round12(args.phi_true),
            "trials": [round12(t) for t in trials],
            "converged": converged,
        }
        _write(args.out, json.dumps(payload, indent=1) + "\n")
    return 0


def _verify(args, parser) -> int:
    results = verify_mod.run_all(seed=args.seed, scale=args.trials / 100.0)
    for result in results:
        print(result.line())
    passed = sum(result.passed for result in results)
    print(f"{passed}/{len(results)} property families passed")
    return 0 if passed == len(results) else 1


# The parser of main, built on its first call: a parser keeps no state between
# parse_args calls, and each call returns a fresh namespace.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "seed", 0) is None:  # ip and adaptive have no --seed
        args.seed = _env_seed(args.parser)
    try:
        return args.run(args, args.parser)
    except SubsystemANotQubitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
