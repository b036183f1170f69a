"""The output writers against ``json.dumps`` and the renderers they replaced.

Nothing here depends on the numpy or BLAS build: the inputs are literal
values, synthetic run records and a seeded sweep rendered twice in the same
process.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import ipower.estimation as estimation_mod
from ipower.estimation import (
    FIGURE3_COLUMNS,
    SWEEP_COLUMNS,
    EstimationRun,
    figure3_texts,
    fmt12,
    round12,
    run_json_text,
    run_sweep,
    sweep_csv_text,
    sweep_json_text,
    sweep_rows,
)
from ipower.probes import SETTINGS, flip_angle_grid
from test_cli import strict_json

PI4 = math.pi / 4
INF = float("inf")
NAN = float("nan")


# The renderers as they were before the cell table, kept as the reference.
def reference_rows_text(rows, columns, fmt):
    if fmt == "json":
        payload = [
            {c: row[c] if isinstance(row[c], (str, int)) else round12(row[c]) for c in columns}
            for row in rows
        ]
        return json.dumps(payload, indent=1) + "\n"
    lines = [",".join(columns)]
    lines += [",".join(_reference_csv_cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _reference_csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, int)):
        return str(value)
    return fmt12(value)


def reference_sweep_json_text(runs):
    ordered = sorted(runs, key=lambda r: (r.probe_label, r.setting_k, r.p))
    return json.dumps([run.to_json_dict() for run in ordered], indent=1) + "\n"


def reference_figure3_texts(runs, fmt):
    rows = sweep_rows(runs)
    return {
        name: (
            reference_sweep_json_text(runs)
            if fmt == "json" and name == "sweep"
            else reference_rows_text(rows, columns, fmt)
        )
        for name, columns in FIGURE3_COLUMNS.items()
    }


DUST = (-0.0, 1e16, 1e-05, 123456789012.0, 5.4e-29)


def json_text(value):
    """The JSON text of an object, or a list of objects, with JSON scalars or flat
    lists of them as values, laid out by the template and list helpers that the
    sweep records use; each scalar is ``json.dumps``'s own text."""

    def object_text(obj, pad):
        values = tuple(
            estimation_mod._json_list([json.dumps(x) for x in v], pad + " ")
            if isinstance(v, (list, tuple)) else json.dumps(v)
            for v in obj.values()
        )
        return estimation_mod._json_template(obj, pad) % values

    if isinstance(value, dict):
        return object_text(value, "") + "\n"
    return estimation_mod._json_list([object_text(item, " ") for item in value], "") + "\n"


@pytest.mark.parametrize(
    "value",
    [
        {"nan": round12(NAN), "none": round12(None), "raw_nan": NAN},
        {"inf": INF, "minus_inf": -INF, "rounded": [round12(INF), round12(-INF)]},
        {"dust": list(DUST), "rounded": [round12(x) for x in DUST], "first": DUST[0]},
        {"t": True, "one": 1, "f": False, "zero": 0, "mixed": [True, 1, False, 0, -7]},
        {"text": "ψ, é, 量子", 'quote "and"\nnewline': 'say "hi"\nbye\t\\', "empty": "",
         "100%": "%s"},
        {"tuple": (1.5, None), "empty_list": [], "big": 2**63 - 1, "np": np.float64(0.1)},
        [],
        {},
        [{}],
        [{"a": 1, "b": [0.5, None]}, {"a": 2, "b": []}],
    ],
    ids=["nan-none", "inf", "dust", "bools-ints", "strings", "shapes", "[]", "{}", "[{}]", "list"],
)
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=1) + "\n"


def _wide_floats():
    rng = np.random.default_rng(3)
    values = [0.0, -0.0, 1.0, -1.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [1e-4, 9.99999999999949e-5, 1e12, 999999999999.5, 1e15, 1e16, *DUST]
    values += [INF, -INF, NAN, None]
    for exponent in range(-324, 308):
        scale = np.float64(10.0) ** exponent
        values += (scale * rng.uniform(-10.0, 10.0, 6)).tolist()
    values += rng.integers(-(10**13), 10**13, 500).astype(float).tolist()
    values += (rng.integers(-(10**6), 10**6, 500) / 1000.0).tolist()
    return values


def test_float_cells_are_fmt12_and_json_of_round12():
    values = _wide_floats()
    assert estimation_mod._cells12(values, "csv") == [fmt12(x) for x in values]
    assert estimation_mod._cells12(values, "json") == [json.dumps(round12(x)) for x in values]


def _synthetic_runs():
    base = EstimationRun(
        probe_label="Q", p=0.5, setting_k=1, phi0=PI4, nu=10**15,
        d_meas=(0.25, 0.25, 0.3, 0.2), l_values=(-1.0, -1.0, 1.0, 1.0),
        phi_hat_mean=PI4, phi_hat_var=1e-15, f_exp=1.0, failed=False, seed=7,
        ip=np.float64(0.25),
    )
    change = dataclasses.replace
    return [
        base,
        change(base, p=0.5, setting_k=1, seed=None),  # ties keep their order
        change(
            base, probe_label="C", p=6.123233995736766e-17, setting_k=3, failed=True,
            phi_hat_mean=None, phi_hat_var=None, f_exp=5.4e-29,
            l_values=(-8.8e-16, -0.0, 5.1e-48, 8.8e-16), ip=np.float64(5.9e-32),
        ),
        change(base, probe_label="sep", p=None, setting_k=2, ip=np.float64(0.0), seed=2**63 - 2),
        change(base, probe_label="bell", p=None, setting_k=3, ip=None, failed=True,
               phi_hat_mean=None, phi_hat_var=None),
        change(base, probe_label="werner", p=1.0, nu=1, d_meas=DUST[:4], phi_hat_var=INF,
               f_exp=NAN, ip=123456789012.0),
        change(base, probe_label='ψ"\n', p=0.0, d_meas=(), l_values=(), phi_hat_mean=-INF),
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_synthetic_records_match_reference(fmt):
    runs = _synthetic_runs()
    texts, reference = figure3_texts(runs, fmt), reference_figure3_texts(runs, fmt)
    assert list(texts) == list(reference)
    for name, text in reference.items():
        assert texts[name] == text, name


@pytest.mark.parametrize("run", _synthetic_runs())
def test_run_json_text_matches_json_dumps(run):
    assert run_json_text(run) == json.dumps(run.to_json_dict(), indent=1) + "\n"


def test_every_json_text_is_strict_json():
    # An infinite float prints null, as NaN does: strict JSON has no Infinity.
    runs = _synthetic_runs()
    texts = [*figure3_texts(runs, "json").values(), sweep_json_text(runs)]
    for text in texts + [run_json_text(run) for run in runs]:
        strict_json(text)


def test_synthetic_records_match_reference_one_by_one():
    runs = _synthetic_runs()
    assert sweep_json_text(runs) == reference_sweep_json_text(runs)
    assert sweep_csv_text(runs) == reference_rows_text(sweep_rows(runs), SWEEP_COLUMNS, "csv")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_sweep_matches_reference(fmt):
    assert figure3_texts([], fmt) == reference_figure3_texts([], fmt)
    assert sweep_json_text([]) == "[]\n"


@pytest.fixture(scope="module")
def noisy_sweep():
    return run_sweep(("Q", "C"), SETTINGS, flip_angle_grid(), PI4, sigma=0.05, seed=7)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_default_noisy_sweep_matches_reference(noisy_sweep, fmt):
    assert len(noisy_sweep) == 222
    assert figure3_texts(noisy_sweep, fmt) == reference_figure3_texts(noisy_sweep, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_float_is_formatted_once(noisy_sweep, fmt, monkeypatch):
    # One cell table serves every file: six float columns per row, and in JSON
    # the records' phi0, f_exp, d_meas and l_values; p, var and phi_hat are
    # shared with the rows.  round12 does not run at all.
    formatted = []
    cells12 = estimation_mod._cells12

    def counting(values, fmt):
        formatted.extend(values)
        return cells12(values, fmt)

    def no_round12(x):
        raise AssertionError("round12 called while rendering")

    monkeypatch.setattr(estimation_mod, "_cells12", counting)
    monkeypatch.setattr(estimation_mod, "round12", no_round12)
    figure3_texts(noisy_sweep, fmt)
    per_run = 6 + (2 + 4 + 4 if fmt == "json" else 0)
    assert len(formatted) == per_run * len(noisy_sweep)
