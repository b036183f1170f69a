"""Byte-for-byte expected outputs of the command line.

``tests/golden/`` holds what these commands print and write:

* the four default ``ipower figure3`` CSV files and the paths it prints;
* the sha256 of every file of ``figure3 --noise 0.05 --seed 7 --format json``
  and of ``figure3 --probe werner,Q,C --noise 0.3 --seed 3 --format json``;
* the stdout of the README's ``estimate`` and ``adaptive`` examples, and the
  ``adaptive --out`` record;
* the lines of ``verify --trials 100 --seed S`` for S = 0-3, whose worst
  deviations are rounding-level numbers;
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

from ipower.cli import main

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
