"""The three benchmark workloads: what a job runs, and how its outputs are checked.

A workload object builds a job's inputs (``prepare``), runs the job
(``run``, the only timed part), and checks its outputs (``check``), returning
the number of items that raised or failed.  Correctness bounds are those of the
tier-1 tests and the ``ipower verify`` property families.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import inputs
# Calls go through the module attributes, which the tracer rebinds.
from ipower import cli, correlations, estimation, probes, sampling, states

PHI_TRUE = math.pi / 4
SWEEP_RUNS = 222  # Q and C x settings 1-3 x 37 flip angles
NOISE = 0.05
NOISE_WINDOW = 0.05
NOISE_MISS_RATE = 0.05
ADAPTIVE_MAX_ITERS = 5


class Sweep:
    """Figure-3 protocol through ``ipower.cli.main``: exact CSV pass, noisy JSON pass, adaptive loop.

    Every job runs the same inputs, so every job must write byte-identical files.
    """

    items_per_job = 2 * SWEEP_RUNS + inputs.ADAPTIVE_CASES

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.exact = workdir / "exact"
        self.noisy = workdir / "noisy"
        self.argv_exact = ["figure3", "--out", str(self.exact)]
        self.argv_noisy = [
            "figure3", "--noise", str(NOISE), "--seed", str(seed),
            "--format", "json", "--out", str(self.noisy),
        ]
        self.cases = [
            (probes.make_probe(probes.ProbeFamily(label, (p,))), probes.setting_hamiltonian(k))
            for label, p, k in inputs.adaptive_cases(seed)
        ]
        self.first_digests: dict[Path, str | None] | None = None

    def prepare(self, job: int):
        return self.cases

    def run(self, cases, tracer):
        # The adaptive items are timed one by one; splitting them around the two
        # passes spreads their latency samples over the whole job.
        outcome = {"adaptive": []}
        latencies = []
        thirds = np.array_split(np.arange(len(cases)), 3)
        passes = (("exact_rc", self.argv_exact, -1), ("noisy_rc", self.argv_noisy, -2), None)
        for group, step in zip(thirds, passes):
            for i in group:
                rho, ham = cases[i]
                if tracer is not None:
                    tracer.item = int(i)
                start = time.perf_counter()
                try:
                    trials, converged = estimation.adaptive_localize(
                        rho, ham, PHI_TRUE, max_iters=ADAPTIVE_MAX_ITERS
                    )
                    result = (len(trials), converged)
                except Exception as exc:  # recorded and counted as a failed item
                    result = repr(exc)
                latencies.append(time.perf_counter() - start)
                outcome["adaptive"].append(result)
            if step is None:
                continue
            key, argv, item = step
            if tracer is not None:
                tracer.item = item
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    outcome[key] = cli.main(argv)
            except Exception as exc:  # recorded and counted as failed items
                outcome[key] = repr(exc)
        return outcome, latencies

    def check(self, cases, outcome) -> int:
        exact = _check_exact_sweep(self.exact) if outcome["exact_rc"] == 0 else SWEEP_RUNS
        noisy = _check_noisy_sweep(self.noisy) if outcome["noisy_rc"] == 0 else SWEEP_RUNS
        # Determinism: every job with this seed writes the same bytes.
        digests = {path: _digest(path) for path in _outputs(self.exact, "csv") + _outputs(self.noisy, "json")}
        if self.first_digests is None:
            self.first_digests = digests
        for path, digest in digests.items():
            if digest is None or digest != self.first_digests[path]:
                if path.name.startswith(self.exact.name):
                    exact = SWEEP_RUNS
                else:
                    noisy = SWEEP_RUNS
        adaptive = sum(
            not (isinstance(result, tuple) and result[1] and result[0] <= ADAPTIVE_MAX_ITERS)
            for result in outcome["adaptive"]
        )
        return exact + noisy + adaptive

    def final_check(self) -> int:
        """A different seed must change the noisy output: returns 1 if it does not."""
        texts = []
        for seed in (self.seed, self.seed + 1):
            out = self.noisy.parent / f"seedcheck{seed}"
            argv = [
                "figure3", "--probe", "Q", "--setting", "1", "--p-steps", "15",
                "--noise", str(NOISE), "--seed", str(seed), "--format", "json", "--out", str(out),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    return 1
            texts.append(Path(f"{out}_sweep.json").read_bytes())
        return int(texts[0] == texts[1])


def _outputs(prefix: Path, ext: str) -> list[Path]:
    """The four files ``ipower figure3 --out prefix`` writes."""
    return [Path(f"{prefix}_{name}.{ext}") for name in ("sweep", "precision", "variance", "mean")]


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _check_exact_sweep(prefix: Path) -> int:
    """Rows of the exact sweep that break the Cramér-Rao, unbiasedness or failure-flag bounds."""
    with open(f"{prefix}_sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    failed = max(SWEEP_RUNS - len(rows), 0)
    for row in rows:
        qfi_ref = inputs.analytic_qfi(row["s"], float(row["p"]), int(row["k"]))
        should_fail = qfi_ref <= 1e-10
        if should_fail:
            ok = row["failed"] == "true"
        else:
            ok = (
                row["failed"] == "false"
                and abs(float(row["f_exp_over_4"]) - qfi_ref / 4.0) <= 1e-9
                # Cramér-Rao saturation nu Var F = 1; the column holds nu Var.
                and abs(float(row["nu_var_product"]) * 4.0 * float(row["f_exp_over_4"]) - 1.0) <= 1e-9
                and abs(float(row["phi_hat"]) - PHI_TRUE) <= 1e-6
            )
        failed += not ok
    return failed


def _binomial_tail(n: int, k: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1))


def _check_noisy_sweep(prefix: Path) -> int:
    """Noisy-sweep rows that break the failure-flag rule or the 5 % noise-robustness bound.

    The robustness bound is the one of the noise property check: at least
    95 % of Q, setting-1 runs with p >= 0.3 land within 0.05 of the true
    phase.  A pass holds only 30 such rows, so the bound is applied as a
    test: the rows fail when their miss count is one a miss rate of 5 % would
    produce with probability below 1e-3.
    """
    records = json.loads(Path(f"{prefix}_sweep.json").read_text(encoding="utf-8"))
    failed = max(SWEEP_RUNS - len(records), 0)
    for r in records:
        should_fail = inputs.analytic_qfi(r["probe_label"], r["p"], r["setting_k"]) <= 1e-10
        failed += r["failed"] != should_fail
    judged = [r for r in records if r["probe_label"] == "Q" and r["setting_k"] == 1 and r["p"] >= 0.3]
    misses = sum(
        1 for r in judged
        if r["failed"] or abs(r["phi_hat_mean"] - PHI_TRUE) > NOISE_WINDOW
    )
    if not judged or _binomial_tail(len(judged), misses, NOISE_MISS_RATE) < 1e-3:
        failed += max(misses, 1)
    return failed


class Ensemble:
    """Closed forms over random qubit-qudit states: many tiny spectral problems."""

    items_per_job = inputs.ENSEMBLE_STATES_PER_JOB

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self, job: int):
        return inputs.ensemble_job(self.seed, job)

    def run(self, items, tracer):
        outputs, latencies = [], []
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            start = time.perf_counter()
            try:
                rho = states.DensityMatrix.from_matrix(item["matrix"], (2, item["d_b"]))
                power = correlations.interferometric_power(rho)
                uncertainty = correlations.local_quantum_uncertainty(rho)
                ham = states.LocalHamiltonian.from_bloch(item["bloch"])
                fisher = correlations.qfi(rho, ham)
                derivative = correlations.sld(rho, ham, item["phase"])
                degraded = correlations.interferometric_power(sampling.apply_channel_b(rho, item["kraus"]))
                result = (power, uncertainty, fisher, derivative.eigenvalues, degraded)
            except Exception as exc:
                result = repr(exc)
            latencies.append(time.perf_counter() - start)
            outputs.append(result)
        return outputs, latencies

    def check(self, items, outputs) -> int:
        failed = 0
        for result in outputs:
            if not isinstance(result, tuple):
                failed += 1
                continue
            power, uncertainty, fisher, sld_values, degraded = result
            ok = (
                np.all(np.isfinite(sld_values))
                and uncertainty <= power + 1e-10
                and power <= fisher / 4.0 + 1e-10
                and degraded <= power + 1e-9
            )
            failed += not ok
        return failed


class Oracle:
    """Brute-force Bloch-sphere certification of the closed forms: large arrays per state."""

    items_per_job = inputs.ORACLE_STATES_PER_JOB

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self, job: int):
        return inputs.oracle_job(self.seed, job)

    def run(self, items, tracer):
        outputs, latencies = [], []
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = i
            start = time.perf_counter()
            try:
                rho = states.DensityMatrix.from_matrix(item["matrix"], (2, item["d_b"]))
                grid_value, _ = correlations.ip_grid_search(rho, 256, 512)
                skew_value, _ = correlations.skew_grid_search(rho)
                variance, _ = correlations.min_local_variance(rho)
                result = (rho, grid_value, skew_value, variance)
            except Exception as exc:
                result = repr(exc)
            latencies.append(time.perf_counter() - start)
            outputs.append(result)
        return outputs, latencies

    def check(self, items, outputs) -> int:
        failed = 0
        for result in outputs:
            if not isinstance(result, tuple):
                failed += 1
                continue
            rho, grid_value, skew_value, variance = result
            power = correlations.interferometric_power(rho)
            ok = (
                power - 1e-12 <= grid_value <= power + 5e-4
                and abs(skew_value - correlations.local_quantum_uncertainty(rho)) <= 1e-6
                and variance >= power - 1e-9
            )
            failed += not ok
        return failed


WORKLOADS = {"sweep": Sweep, "ensemble": Ensemble, "oracle": Oracle}
