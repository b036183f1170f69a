"""Byte-for-byte expected outputs of the command line.

``tests/golden/`` holds what these commands print and write:

* the four default ``ipower figure3`` CSV files and the paths it prints;
* the sha256 of every file of ``figure3 --noise 0.05 --seed 7 --format json``
  and of ``figure3 --probe werner,Q,C --noise 0.3 --seed 3 --format json``;
* the stdout of the README's ``estimate`` and ``adaptive`` examples, and the
  ``adaptive --out`` record;
* the stdout of ``estimate --noise 0.05`` with the seed 2^70, whose entropy
  takes three 32-bit words, so numpy's multi-word seeding is pinned too;
* the lines of ``verify --trials 100 --seed S`` for S = 0-3, whose worst
  deviations are rounding-level numbers;
* ``one_state.sha256``: the sha256 of the raw bytes of each one-state measure
  over seeded qubit-qudit states built with plain numpy, and of the sphere
  oracles' values and directions over those states and four flat ones
  (:func:`one_state_digests`);
* ``environment.json``: the numpy version, BLAS build and machine they were
  made with.  Rounding-level cells (e.g. a power of 5e-32) depend on the
  build, so on another environment the test fails naming the mismatch.

A change that moves an output on purpose regenerates the files with::

    PYTHONPATH=src python tests/test_golden.py

and lists the moved lines in CHANGES.md.  Before it rewrites the files, the
command prints, per file, "unchanged" or its first differing line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from ipower import correlations, probes, sampling
from ipower.cli import main
from ipower.states import DensityMatrix, LocalHamiltonian

GOLDEN = Path(__file__).with_name("golden")
_FILES = ("sweep", "precision", "variance", "mean")

# (argv, files it writes, whether they are kept whole or as digests); every
# run writes into the current directory, so printed paths are relative.
RUNS = {
    "figure3": (["figure3"], [f"figure3_{n}.csv" for n in _FILES], False),
    "figure3_noisy": (
        ["figure3", "--noise", "0.05", "--seed", "7", "--format", "json", "--out", "noisy"],
        [f"noisy_{n}.json" for n in _FILES],
        True,
    ),
    "figure3_werner": (
        ["figure3", "--probe", "werner,Q,C", "--noise", "0.3", "--seed", "3",
         "--format", "json", "--out", "werner"],
        [f"werner_{n}.json" for n in _FILES],
        True,
    ),
    "estimate": (
        ["estimate", "--probe", "Q", "--p", "0.5", "--setting", "2", "--noise", "0.05",
         "--seed", "7"],
        [],
        False,
    ),
    "estimate_long_seed": (
        ["estimate", "--probe", "Q", "--p", "0.5", "--setting", "1", "--noise", "0.05",
         "--seed", "1180591620717411303424"],
        [],
        False,
    ),
    "adaptive": (
        ["adaptive", "--probe", "Q", "--p", "0.13", "--setting", "1", "--max-iters", "5",
         "--out", "adaptive.json"],
        ["adaptive.json"],
        False,
    ),
    **{
        f"verify_seed{seed}": (["verify", "--trials", "100", "--seed", str(seed)], [], False)
        for seed in range(4)
    },
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": " ".join(
            str(blas[key]) for key in ("name", "version", "openblas configuration") if key in blas
        ),
        "machine": platform.machine(),
    }


def _one_state_inputs():
    """(matrix, d_B, Bloch vector, phase, Kraus operators on B) per state: two
    Ginibre states of each rank 1..2 d_B for d_B = 2, 3, 4, so pure states,
    degenerate zero eigenvalues and full-rank states are all present."""
    rng = np.random.default_rng(2013)
    for d_b in (2, 3, 4):
        d = 2 * d_b
        for rank in range(1, d + 1):
            for _ in range(2):
                g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
                m = g @ g.conj().T
                n = rng.standard_normal(3)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                k = int(rng.integers(1, 4))
                z = rng.standard_normal((d_b * k, d_b)) + 1j * rng.standard_normal((d_b * k, d_b))
                v = np.linalg.qr(z)[0]
                kraus = [v[j * d_b : (j + 1) * d_b] for j in range(k)]
                yield m / np.trace(m).real, d_b, n / np.linalg.norm(n), phase, kraus


def one_state_digests() -> bytes:
    """One line "sha256  name" per one-state quantity, over the raw bytes of its
    values on every state of :func:`_one_state_inputs`, in order."""
    digests = {}

    def record(name, value):
        digests.setdefault(name, hashlib.sha256()).update(np.asarray(value).tobytes())

    def record_oracles(rho):
        for name, (value, direction) in (
            ("ip_grid_search", correlations.ip_grid_search(rho, 256, 512)),
            ("skew_grid_search", correlations.skew_grid_search(rho)),
        ):
            record(f"{name}_value", value)
            record(f"{name}_direction", direction)
        record("qfi_sphere_grid", correlations.qfi_sphere_grid(rho, 64, 64)[2])

    for matrix, d_b, bloch, phase, kraus in _one_state_inputs():
        rho = DensityMatrix.from_matrix(matrix, (2, d_b))
        ham = LocalHamiltonian.from_bloch(bloch)
        derivative = correlations.sld(rho, ham, phase)
        record("eigenvalues", rho.eigenvalues)
        record("eigenvectors", rho.eigenvectors)
        record("ip", correlations.interferometric_power(rho))
        record("lqu", correlations.local_quantum_uncertainty(rho))
        record("qfi_quadratic_form", correlations.qfi_quadratic_form(rho))
        record("bloch_matrix", ham.matrix)
        record("bloch_eigenvectors", ham.eigenvectors)
        record("qfi", correlations.qfi(rho, ham))
        record("skew_information", correlations.skew_information(rho, ham))
        record("sld_eigenvalues", derivative.eigenvalues)
        record("sld_basis", derivative.eigenbasis)
        record("ip_after_channel", correlations.interferometric_power(
            sampling.apply_channel_b(rho, kraus)))
        record_oracles(rho)
    # Flat forms, whose screens keep every block of the grid.
    for d_b in (2, 3, 4):
        record_oracles(DensityMatrix.from_matrix(np.eye(2 * d_b) / (2 * d_b), (2, d_b)))
    record_oracles(probes.werner_state(0.5))
    return "".join(f"{h.hexdigest()}  {name}\n" for name, h in digests.items()).encode()


def render(workdir: Path) -> dict[str, bytes]:
    """{golden file name: content} of every run, made inside ``workdir``."""
    outputs = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, (argv, files, digest) in RUNS.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0, argv
            outputs[f"{name}.stdout"] = stdout.getvalue().encode()
            if digest:
                sums = (f"{hashlib.sha256(Path(f).read_bytes()).hexdigest()}  {f}\n" for f in files)
                outputs[f"{name}.sha256"] = "".join(sums).encode()
            else:
                outputs.update((f, Path(f).read_bytes()) for f in files)
    finally:
        os.chdir(cwd)
    outputs["one_state.sha256"] = one_state_digests()
    return outputs


def first_difference(name: str, expected: bytes, actual: bytes) -> str:
    old, new = expected.splitlines(keepends=True), actual.splitlines(keepends=True)
    for number, (a, b) in enumerate(zip(old, new), start=1):
        if a != b:
            return f"{name} line {number}: expected {a!r}, got {b!r}"
    return f"{name}: expected {len(old)} lines, got {len(new)}"


def test_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("IPOWER_SEED", raising=False)
    recorded = json.loads((GOLDEN / "environment.json").read_text())
    current = environment()
    moved = [
        f"{key}: recorded {recorded.get(key)!r}, running {current[key]!r}"
        for key in current
        if recorded.get(key) != current[key]
    ]
    assert not moved, "golden outputs were made in another environment; " + "; ".join(moved)
    outputs = render(tmp_path)
    kept = sorted(p.name for p in GOLDEN.iterdir() if p.name != "environment.json")
    assert sorted(outputs) == kept
    for name, actual in outputs.items():
        expected = (GOLDEN / name).read_bytes()
        assert actual == expected, first_difference(name, expected, actual)


if __name__ == "__main__":
    import tempfile

    os.environ.pop("IPOWER_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = render(Path(tmp))
    for name, content in outputs.items():
        path = GOLDEN / name
        if not path.exists():
            print(f"{name}: new")
        elif path.read_bytes() == content:
            print(f"{name}: unchanged")
        else:
            print(first_difference(name, path.read_bytes(), content))
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, content in outputs.items():
        (GOLDEN / name).write_bytes(content)
    (GOLDEN / "environment.json").write_text(json.dumps(environment(), indent=1) + "\n")
    print(f"wrote {len(outputs) + 1} files to {GOLDEN}", file=sys.stderr)
