import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_pulls_in_no_scipy():
    code = (
        "import sys, ipower\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(','.join(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def test_declared_numpy_floor_has_the_calls_the_code_makes():
    # np.vecdot (estimation) and ndarray.mT (linalg, correlations) arrived in NumPy 2.0.
    floors = re.findall(r'"numpy>=(\d+)\.(\d+)"', (SRC.parent / "pyproject.toml").read_text())
    assert len(floors) == 1, floors
    assert tuple(map(int, floors[0])) >= (2, 0)
