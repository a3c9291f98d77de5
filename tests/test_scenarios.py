"""End-to-end tests for the scenario runner and the command-line interface."""

import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest

from dcobserver import (
    ConfigError,
    ScenarioConfig,
    assemble_augmented,
    convergence_diagnostics,
    make_plant,
    make_theta,
    run_scenario,
    synthesize_observer,
    uniform_grid,
)
from dcobserver import closed_form, scenarios, simulation, synthesis
from dcobserver.cli import build_parser, main
from dcobserver.simulation import _chunk_rows
from helpers import (
    csv_text,
    exact_schedule,
    flow_of,
    invariant_residuals,
    one_mode_augmented,
    phase_dynamics,
    random_augmented,
    stepwise_schedule,
    swapped_augmented,
    swept_schedule,
    trapezoid_average,
    whole_series,
)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


@pytest.fixture(scope="module")
def one_mode_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("one_mode_out")
    return run_scenario(ScenarioConfig.from_dict({"scenario": "one_mode", "out_dir": str(out)}))


@pytest.fixture(scope="module")
def sequence_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("sequence_out")
    return run_scenario(
        ScenarioConfig.from_dict({"scenario": "measurement_sequence", "out_dir": str(out)})
    )


def test_one_mode_emits_expected_files(one_mode_bundle):
    names = sorted(p.name for p in one_mode_bundle.csv_files)
    assert names == ["fig03.csv", "fig04.csv", "fig05.csv", "fig06.csv", "fig06a.csv", "fig06b.csv"]
    assert sorted(p.name for p in one_mode_bundle.plot_scripts) == [
        "fig03.gp",
        "fig04.gp",
        "fig05.gp",
        "fig06.gp",
        "fig06a.gp",
        "fig06b.gp",
    ]
    assert one_mode_bundle.summary_file.name == "summary.json"
    assert one_mode_bundle.passed


def test_one_mode_estimated_row_is_flat(one_mode_bundle):
    header, data = read_csv(one_mode_bundle.out_dir / "fig03.csv")
    assert header == ["t", "phi_11", "phi_12", "phi_13", "phi_14"]
    assert data[0, 0] == 0.0 and data[-1, 0] == 50.0
    assert np.max(np.abs(data[:, 1] - 1.0)) <= 1e-10
    assert np.max(np.abs(data[:, 2:])) <= 1e-10


def test_one_mode_observer_row_matches_closed_form(one_mode_bundle):
    _, data = read_csv(one_mode_bundle.out_dir / "fig05.csv")
    t = data[:, 0]
    assert np.max(np.abs(data[:, 1] - (1 - np.cos(2 * t)))) <= 1e-9
    assert np.max(np.abs(data[:, 3] - np.cos(2 * t))) <= 1e-9


def test_one_mode_second_observer_row_is_cosine(one_mode_bundle):
    _, data = read_csv(one_mode_bundle.out_dir / "fig06a.csv")
    t = data[:, 0]
    assert np.max(np.abs(data[:, 4] - np.cos(2 * t))) <= 1e-9


def test_one_mode_averages_converge(one_mode_bundle):
    header, data = read_csv(one_mode_bundle.out_dir / "fig06.csv")
    assert header == ["T", "phi_31_ave", "phi_32_ave", "phi_33_ave", "phi_34_ave"]
    assert data[-1, 0] == 100.0
    assert abs(data[-1, 1] - 1.0) <= 0.005


def test_one_mode_summary_reports_residuals(one_mode_bundle):
    summary = json.loads(one_mode_bundle.summary_file.read_text())
    assert summary["passed"] is True
    assert summary["conservation"]["ccr_residual"] <= 1e-8
    assert summary["conservation"]["energy_residual"] <= 1e-8
    assert summary["observer_conditions"]["gain_residual"] <= 1e-10
    assert summary["estimated_row_max_deviation"] <= 1e-10
    assert summary["convergence"]["converged"] is True


def test_csv_numbers_use_twelve_significant_digits(one_mode_bundle):
    lines = (one_mode_bundle.out_dir / "fig05.csv").read_text().splitlines()
    for raw in lines[1:50]:
        for field in raw.split(","):
            assert field == format(float(field), ".12g")


# signed zero, the smallest subnormals, exponents of both signs, nan, the
# infinities and 13-digit ties
EDGE_VALUES = [
    -0.0, 5e-324, 1e16, 123456789012.5, 1.5e-7,
    2.5e21, -1e-300, 0.1 + 0.2, -1.7976931348623157e308, 1.0,
    np.pi, -2.0 / 3.0, 0.0, 999999999999.5, 1e-5,
    np.nan, np.inf, -np.inf, 12345.678901234567, -5e-324,
]


def edge_series(rng, rows, n):
    """Times and n x n maps of random magnitudes with EDGE_VALUES spread among them."""
    table = rng.standard_normal((rows, 1 + n * n)) * 10.0 ** rng.integers(-12, 13, size=(rows, 1 + n * n))
    flat = table.reshape(-1)
    flat[rng.choice(flat.size, len(EDGE_VALUES), replace=False)] = EDGE_VALUES
    return table[:, 0], table[:, 1:].reshape(rows, n, n)


# the entries of 2 x 2 averages below their time column
WRITER_TABLES = (
    np.array(EDGE_VALUES).reshape(4, 5),
    # a column alternating 0.0 and -0.0, which a value-equality check would
    # print as one text, beside constant -0.0, nan and inf columns
    np.array([[t, -0.0 if t % 2 else 0.0, -0.0, np.nan, np.inf] for t in range(4)]),
    # every column constant
    np.array([[t, 1.5, -0.0, np.nan, -np.inf] for t in range(4)]),
)


def test_csv_writer_matches_formatting_each_value(tmp_path):
    figure = scenarios._Figure("edge", None, None, avg=True)
    header = ["T", "phi_11_ave", "phi_12_ave", "phi_21_ave", "phi_22_ave"]
    for i, table in enumerate(WRITER_TABLES):
        averages = table[:, 1:].reshape(4, 2, 2)
        with ExitStack() as stack:
            out = tmp_path / str(i)
            out.mkdir()
            writer = scenarios._FigureFile(out, figure, "phi", 2, 4, stack)
            # appended in runs, as the pipeline appends its chunks: a one-row
            # batch, an empty run, a batch of two rows and a one-row batch, past
            # which the rows from the stop on write nothing
            for lo, hi in ((0, 1), (1, 1), (1, 3), (3, 5)):
                writer.write(slice(lo, hi), scenarios._stamps(table[lo:hi, 0]), None, averages[lo:hi])
        assert writer.script is None
        assert writer.path.read_bytes() == csv_text(header, table).encode(), i


def test_csv_writer_batches_share_the_time_column(tmp_path):
    # a maps and an averages file of one n = 4 run: 1,638 and 481 rows a batch,
    # runs of 4,096 rows, the maps stopping inside their second batch; the
    # times are formatted once, up to the later stop, and each file cuts them
    rng = np.random.default_rng(14)
    n, rows_total, map_stop = 4, 5001, 2000
    times, maps = edge_series(rng, rows_total, n)
    _, averages = edge_series(rng, rows_total, n)
    # a map column constant over every batch, an average constant over its
    # first two batches and into the third, and a column of each file whose
    # first batch ends on the value it starts with
    maps[:, 2, 3] = np.pi
    averages[:1200, 1, 1] = -0.0
    maps[[1, 1638], 2, 0] = averages[[1, 481], 0, 1] = 7.0
    figures = (scenarios._Figure("maps", 2, None), scenarios._Figure("averages", None, None, avg=True))
    with ExitStack() as stack:
        files = [
            scenarios._FigureFile(tmp_path, fig, "phi", n, rows_total if fig.avg else map_stop, stack)
            for fig in figures
        ]
        assert [f.batch for f in files] == [1638, 481]
        chunk = _chunk_rows(n)
        for first in range(1, rows_total, chunk):
            rows = slice(first, min(first + chunk, rows_total))
            stamps = scenarios._stamps(times[rows])
            for f in files:
                f.write(rows, stamps, maps[rows], averages[rows])
    names = [f"phi_{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    map_table = np.column_stack([times, maps[:, 2]])[:map_stop]
    map_table[0] = [0.0, *np.eye(n)[2]]
    assert files[0].path.read_bytes() == csv_text(["t", *names[8:12]], map_table).encode()
    avg_table = np.column_stack([times, averages.reshape(rows_total, n * n)])[1:]
    header = ["T"] + [f"{name}_ave" for name in names]
    assert files[1].path.read_bytes() == csv_text(header, avg_table).encode()


def test_csv_writer_rows_wider_than_a_batch(tmp_path):
    # n = 91: 1 + n^2 = 8,282 values a row, more than BATCH_VALUES; one row a
    # call, with one column constant over the rows
    n = 91
    assert 1 + n * n > scenarios.BATCH_VALUES
    times, maps = edge_series(np.random.default_rng(15), 4, n)
    maps[:, 7, 8] = 2.5
    with ExitStack() as stack:
        writer = scenarios._FigureFile(tmp_path, scenarios._Figure("wide", None, None), "phi", n, 4, stack)
        writer.write(slice(1, 5), scenarios._stamps(times[1:]), maps[1:], None)
    assert writer.batch == 1
    table = np.column_stack([times, maps.reshape(4, n * n)])
    table[0] = [0.0, *np.eye(n).reshape(-1)]
    header = ["t"] + [f"phi_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    assert writer.path.read_bytes() == csv_text(header, table).encode()


def test_one_row_batches_hold_no_column(tmp_path):
    # an all-rows figure of n = 64 is 4,097 values a row, so one row a batch;
    # every column of one row has its first row's bits, and as literal text
    # the whole row would be formatted one value at a time, not by the batched %
    n = 64
    with ExitStack() as stack:
        writer = scenarios._FigureFile(tmp_path, scenarios._Figure("wide", None, None), "phi", n, 2, stack)
    assert writer.batch == 1
    row = np.eye(n).reshape(1, n * n)
    assert not scenarios._held_columns(row).any()
    assert scenarios._held_columns(np.vstack([row, row])).all()


def test_csv_writer_holds_a_batch_not_a_chunk(tmp_path):
    # one write of a 2,048-row run of one row of n = 32 maps (33 values a row,
    # 248 rows a batch): a tuple of the whole run would hold 67,584 floats,
    # 2.2 MB, and its text 1.2 MB more
    n = 32
    chunk = _chunk_rows(n)
    times, maps = edge_series(np.random.default_rng(16), chunk + 1, n)
    rows = slice(1, chunk + 1)
    stamps = scenarios._stamps(times[rows])
    with ExitStack() as stack:
        writer = scenarios._FigureFile(tmp_path, scenarios._Figure("row", 5, None), "phi", n, chunk + 1, stack)
        tracemalloc.start()
        try:
            writer.write(rows, stamps, maps[rows], None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1e6
    assert writer.batch == 248


def test_column_names_are_unique_beyond_nine_dimensions(tmp_path):
    aug = random_augmented(np.random.default_rng(12), 6, 6)
    config = ScenarioConfig.from_dict(
        {
            "scenario": "custom",
            "beta": aug.plant.beta.tolist(),
            "r_o": aug.observer.r_o.tolist(),
            "c_o": aug.observer.c_o.tolist(),
            "t_end": 1.0,
            "dt": 0.25,
            "out_dir": str(tmp_path),
        }
    )
    bundle = run_scenario(config)
    for path in bundle.csv_files:
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == 1 + 12 * 12
        assert len(set(header)) == len(header), path.name
    header = (bundle.out_dir / "coefficients.csv").read_text().splitlines()[0].split(",")
    assert header[1] == "phi_1_1" and {"phi_1_11", "phi_11_1"} <= set(header)


def test_plot_scripts_reference_their_csv(one_mode_bundle, tmp_path):
    # one "plot for" clause over the CSV's value columns, so a script's size does
    # not grow with n; checked as text (rendering it needs gnuplot)
    aug = random_augmented(np.random.default_rng(32), 16, 16)
    matrices = {key: getattr(aug.observer, key).tolist() for key in ("r_o", "c_o")}
    raw = {"scenario": "custom", "beta": aug.plant.beta.tolist(), **matrices, "t_end": 0.5, "dt": 0.25}
    wide = run_scenario(ScenarioConfig.from_dict({**raw, "out_dir": str(tmp_path)}))
    assert wide.out_dir.name == "custom" and aug.n == 32
    for script in one_mode_bundle.plot_scripts + wide.plot_scripts:
        text = script.read_text()
        csv = script.with_suffix(".csv")
        columns = len(csv.read_text().splitlines()[0].split(","))
        assert "set datafile separator ','\n" in text and "set key autotitle columnhead\n" in text
        assert text.endswith(f"\nplot for [k=2:{columns}] '{csv.name}' using 1:k with lines\n"), script.name
    assert columns == 1 + 32 * 32
    one_mode_size = (one_mode_bundle.out_dir / "fig05.gp").stat().st_size
    assert (wide.out_dir / "coefficients.gp").stat().st_size <= one_mode_size + 16


def test_sequence_emits_expected_files(sequence_bundle):
    names = sorted(p.name for p in sequence_bundle.csv_files)
    assert names == ["fig07.csv", "fig08.csv", "fig09.csv", "fig10.csv", "fig11.csv", "fig12.csv"]
    assert sequence_bundle.passed


def test_sequence_first_row_flat_until_swap(sequence_bundle):
    _, data = read_csv(sequence_bundle.out_dir / "fig07.csv")
    t = data[:, 0]
    before = data[t <= 25.0]
    assert np.max(np.abs(before[:, 1] - 1.0)) <= 1e-10
    assert np.max(np.abs(before[:, 2:])) <= 1e-10
    after = data[t >= 25.0]
    assert np.max(np.abs(after[:, 1:] - before[-1, 1:])) > 0.1


def test_sequence_second_row_frozen_after_swap(sequence_bundle):
    _, data = read_csv(sequence_bundle.out_dir / "fig08.csv")
    t = data[:, 0]
    after = data[t >= 25.0]
    assert np.max(np.abs(after[:, 1:] - after[0, 1:])) <= 1e-10


def test_sequence_summary_checks(sequence_bundle):
    summary = json.loads(sequence_bundle.summary_file.read_text())
    checks = summary["checks"]
    assert checks["plateau_constant"] and checks["protected_rows_constant"]
    assert checks["swap_disturbs_previous_row"]
    assert summary["conservation"]["ccr_residual"] <= 1e-8
    assert summary["conservation"]["energy_residual"] <= 1e-8
    kinds = [seg["kind"] for seg in summary["segments"]]
    assert kinds == ["coupled", "disconnected", "coupled"]


def test_custom_two_mode_pipeline(tmp_path):
    # both plant modes expose their first quadrature; with r_o = I and
    # orthonormal output rows the synthesized gain is alpha = -c_o.T
    config = ScenarioConfig.from_dict(
        {
            "scenario": "custom",
            "beta": [[1, 0], [0, 0], [0, 1], [0, 0]],
            "r_o": np.eye(4).tolist(),
            "c_o": [[1, 0, 0, 0], [0, 1, 0, 0]],
            "t_end": 60.0,
            "out_dir": str(tmp_path),
        }
    )
    from dcobserver import make_plant, synthesize_observer

    observer = synthesize_observer(
        make_plant(config.beta), config.r_o, config.c_o
    )
    assert np.allclose(observer.alpha, -np.asarray(config.c_o).T, atol=1e-13)

    bundle = run_scenario(config)
    assert bundle.passed
    summary = bundle.summary
    conv = summary["convergence"]
    for t, dval in zip(conv["t_values"], conv["d_values"]):
        assert dval <= conv["bound_constant"] / t + 1e-6
    header, data = read_csv(bundle.out_dir / "coefficients.csv")
    assert header[0] == "t" and header[1] == "phi_11" and len(header) == 65


# the two-mode config of the numpy-only CI run
_CI_TWO_MODE = {
    "scenario": "custom",
    "beta": [[1, 0], [0, 0], [0, 1], [0, 0]],
    "r_o": np.eye(4).tolist(),
    "c_o": [[1, 0, 0, 0], [0, 0, 1, 0]],
    "t_end": 20.0,
    "dt": 0.01,
}


@pytest.mark.parametrize(
    "raw, system, horizon",
    [
        ({"scenario": "one_mode"}, ([[1.0], [0.0]], np.eye(2), [[1.0, 0.0]]), 100.0),
        (_CI_TWO_MODE, (_CI_TWO_MODE["beta"], _CI_TWO_MODE["r_o"], _CI_TWO_MODE["c_o"]), 20.0),
    ],
    ids=["one_mode", "ci_two_mode"],
)
def test_summary_convergence_is_convergence_diagnostics(tmp_path, raw, system, horizon):
    # the CLI and the API build the convergence report on one path, bit for bit;
    # the averaging horizon is one_mode's default 100 and custom's t_end
    config = ScenarioConfig.from_dict({**raw, "out_dir": str(tmp_path)})
    bundle = run_scenario(config)
    beta, r_o, c_o = system
    plant = make_plant(beta)
    aug = assemble_augmented(plant, synthesize_observer(plant, r_o, c_o))
    report = convergence_diagnostics(aug, horizon, config.dt)
    written = json.loads(bundle.summary_file.read_text())["convergence"]
    assert written == scenarios._as_json(report)
    assert bundle.summary["convergence"] == written


def test_custom_accepts_alpha_instead_of_output_matrix(tmp_path):
    config = ScenarioConfig.from_dict(
        {
            "scenario": "custom",
            "beta": [[1], [0]],
            "r_o": [[1, 0], [0, 1]],
            "alpha": [[-1], [0]],
            "t_end": 20.0,
            "out_dir": str(tmp_path),
        }
    )
    bundle = run_scenario(config)
    assert bundle.passed


def test_custom_rejects_indefinite_observer_hamiltonian(tmp_path):
    config = ScenarioConfig.from_dict(
        {
            "scenario": "custom",
            "beta": [[1], [0]],
            "r_o": [[1, 0], [0, -1]],
            "c_o": [[1, 0]],
            "out_dir": str(tmp_path),
        }
    )
    with pytest.raises(ValueError, match="positive definite"):
        run_scenario(config)


def test_custom_rejects_odd_plant_dimension(tmp_path):
    with pytest.raises((ConfigError, ValueError)):
        run_scenario(
            ScenarioConfig.from_dict(
                {
                    "scenario": "custom",
                    "beta": [[1], [0], [0]],
                    "r_o": [[1, 0], [0, 1]],
                    "c_o": [[1, 0]],
                    "out_dir": str(tmp_path),
                }
            )
        )


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("alpha", {"alpha": [[-1, 0], [0, 0]]}),
        ("r_o", {"r_o": [[1, 0], [0, -1]]}),
        ("r_o", {"r_o": [[1, 0.5], [0, 1]]}),
        ("r_o", {"r_o": [[1, 0, 0], [0, 1, 0]]}),
        ("r_o", {"r_o": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        ("c_o", {"c_o": [[1, 0, 0]]}),
        ("c_o", {"alpha": None, "c_o": [[1, 0, 0]]}),
        ("c_o", {"alpha": None, "c_o": [[0, 0]]}),
        ("alpha", {"alpha": [[0], [0]]}),
        ("alpha", {"c_o": [[0, 1]]}),
    ],
)
def test_custom_validates_given_gain_before_any_work(tmp_path, capsys, field, overrides):
    # every error of the one observer constructor, solved or given gain, names its field
    raw = {
        "scenario": "custom",
        "beta": [[1], [0]],
        "r_o": [[1, 0], [0, 1]],
        "alpha": [[-1], [0]],
        "out_dir": str(tmp_path),
        **overrides,
    }
    with pytest.raises(ConfigError, match=f"^{field}:"):
        run_scenario(ScenarioConfig.from_dict(raw))
    assert not (tmp_path / "custom").exists()
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(raw))
    assert main(["--config", str(config_file)]) == 1
    assert f"error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, field, value",
    [
        ("one_mode", "segments", [{"duration": 5, "disconnect": True}]),
        ("custom", "segments", [{"duration": 5, "disconnect": True}]),
        ("measurement_sequence", "beta", [[0], [1]]),
        ("measurement_sequence", "r_o", [[2, 0], [0, 2]]),
        ("measurement_sequence", "c_o", [[0, 1]]),
        ("measurement_sequence", "alpha", [[0], [-1]]),
        ("measurement_sequence", "average_t_end", 50.0),
    ],
)
def test_cli_rejects_fields_the_scenario_never_reads(tmp_path, capsys, scenario, field, value):
    raw = {"scenario": scenario, "t_end": 30.0, "out_dir": str(tmp_path), field: value}
    if scenario == "custom":
        raw.update({"beta": [[1], [0]], "r_o": [[1, 0], [0, 1]], "c_o": [[1, 0]]})
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(raw))
    assert main(["--config", str(config_file)]) == 1
    assert f"error: {field}: not read by the {scenario} scenario" in capsys.readouterr().err
    assert not (tmp_path / scenario).exists()


def test_custom_reports_a_missing_field_before_segments(tmp_path):
    raw = {"scenario": "custom", "r_o": [[1, 0], [0, 1]], "c_o": [[1, 0]], "out_dir": str(tmp_path)}
    raw["segments"] = [{"duration": 5, "disconnect": True}]
    with pytest.raises(ConfigError, match=r"^beta: required for the custom scenario$"):
        run_scenario(ScenarioConfig.from_dict(raw))


def count_certify(monkeypatch) -> list:
    """The plant sizes of every closed_form.certify call from now on."""
    calls = []
    original = closed_form.certify

    def counting(a, n_p):
        calls.append(n_p)
        return original(a, n_p)

    # synthesis holds its own reference to the function
    for module in (closed_form, synthesis):
        monkeypatch.setattr(module, "certify", counting)
    return calls


def test_single_segment_run_propagates_once(tmp_path, monkeypatch):
    swept = []
    original = scenarios._sweep

    def counting(systems, *args):
        swept.append(len(systems))
        return original(systems, *args)

    monkeypatch.setattr(scenarios, "_sweep", counting)
    certified = count_certify(monkeypatch)
    bundle = run_scenario(
        ScenarioConfig.from_dict({"scenario": "one_mode", "out_dir": str(tmp_path), "t_end": 10.0})
    )
    assert bundle.passed
    assert swept == [1]
    assert certified == [2]


def test_schedule_run_certifies_each_coupled_segment_once(tmp_path, monkeypatch):
    # verify and propagate read one certificate per coupled segment; the
    # disconnected segment needs none
    certified = count_certify(monkeypatch)
    bundle = run_scenario(
        ScenarioConfig.from_dict(
            {"scenario": "measurement_sequence", "out_dir": str(tmp_path), "t_end": 40.0}
        )
    )
    assert bundle.passed
    assert certified == [2, 2]


def _alternating_schedule(out_dir) -> dict:
    """299 segments of 0.25 that alternate the one-mode observer and a disconnect, then the
    conjugate observer for the open remainder: 151 coupled segments of two distinct systems."""
    one_mode = {"beta": [[1], [0]], "r_o": [[1, 0], [0, 1]], "c_o": [[1, 0]]}
    conjugate = {"beta": [[0], [1]], "r_o": [[1, 0], [0, 1]], "c_o": [[0, 1]]}
    segments = [{"duration": 0.25, **(one_mode if i % 2 == 0 else {"disconnect": True})} for i in range(299)]
    return {"scenario": "measurement_sequence", "t_end": 99.75, "dt": 0.01, "out_dir": str(out_dir),
            "segments": [*segments, conjugate]}


def test_long_schedule_derives_each_system_once(tmp_path, monkeypatch):
    # theta is built once per size, and each distinct system is synthesized,
    # certified and verified once, however many segments repeat it
    kron_sizes, synthesized, verified = [], [], []
    original_kron, original_synthesize = np.kron, scenarios.synthesize_observer
    original_verify = scenarios.verify_observer_conditions

    def counting_kron(a, b):
        kron_sizes.append(len(a))
        return original_kron(a, b)

    def counting_synthesize(*args, **kwargs):
        synthesized.append(args)
        return original_synthesize(*args, **kwargs)

    def counting_verify(aug):
        verified.append(aug)
        return original_verify(aug)

    monkeypatch.setattr(np, "kron", counting_kron)
    monkeypatch.setattr(scenarios, "synthesize_observer", counting_synthesize)
    monkeypatch.setattr(scenarios, "verify_observer_conditions", counting_verify)
    certified = count_certify(monkeypatch)
    make_theta.cache_clear()  # so that every size this run reads is built here
    config_file = tmp_path / "schedule.json"
    config_file.write_text(json.dumps(_alternating_schedule(tmp_path)))
    assert main(["--config", str(config_file)]) == 0
    assert sorted(kron_sizes) == [1, 2]
    assert len(synthesized) == 2 and certified == [2, 2] and len(verified) == 2
    summary = json.loads((tmp_path / "measurement_sequence" / "summary.json").read_text())
    assert len(summary["segments"]) == 300 and len(summary["systems"]) == 2


def test_schedule_summary_states_each_system_once(tmp_path):
    # two observers over 300 segments: summary.json lists each system's
    # conditions once, and each coupled segment points at its own
    bundle = run_scenario(ScenarioConfig.from_dict(_alternating_schedule(tmp_path)))
    assert bundle.passed
    summary = json.loads(bundle.summary_file.read_text())
    systems, entries = summary["systems"], summary["segments"]
    assert len(systems) == 2
    assert [entry.get("system") for entry in entries] == [0, None] * 149 + [0, 1]
    conjugate = scenarios._system([[0], [1]], np.eye(2), [[0, 1]])
    own = [one_mode_augmented() if i % 2 == 0 else None for i in range(299)] + [conjugate]
    for entry, system in zip(entries, own):
        assert "observer_conditions" not in entry
        if system is not None:
            conditions = scenarios._as_json(synthesis.verify_observer_conditions(system))
            assert systems[entry["system"]] == {"observer_conditions": conditions}
    assert summary["tolerances"] == {"residual": 1e-8, "constant_row": 1e-10, "plateau": 1e-12}


def test_repeated_system_errors_name_its_first_segment(tmp_path):
    bad = {"beta": [[1], [0]], "r_o": [[1, 0], [0, -1]], "c_o": [[1, 0]]}
    segments = ({"duration": 5, **_COUPLED}, {"duration": 5, **bad}, {"duration": 5, "disconnect": True}, bad)
    raw = {"t_end": 30.0, "out_dir": str(tmp_path), **_sequence(*segments)}
    with pytest.raises(ConfigError, match=r"^segments\[1\]\.r_o: not positive definite"):
        run_scenario(ScenarioConfig.from_dict(raw))
    assert list(tmp_path.iterdir()) == []


def test_schedule_of_mixed_dimensions_fails_in_its_planner(tmp_path):
    two_mode = {"beta": [[1, 0], [0, 0], [0, 1], [0, 0]], "r_o": np.eye(2).tolist(), "c_o": [[1, 0], [0, 1]]}
    config = ScenarioConfig.from_dict(
        {"t_end": 30.0, "out_dir": str(tmp_path), **_sequence({"duration": 5, **_COUPLED}, two_mode)}
    )
    with pytest.raises(ConfigError, match=r"^segments\[1\]: augmented dimension 6 != 4$"):
        scenarios._measurement_sequence(config)
    with pytest.raises(ConfigError, match=r"^segments\[1\]: augmented dimension 6 != 4$"):
        run_scenario(config)
    assert list(tmp_path.iterdir()) == []


def test_dt_beyond_averaging_horizon_exits_1(tmp_path, capsys):
    argv = ["--out-dir", str(tmp_path), "--t-end", "1", "--dt", "2"]
    assert main(["--scenario", "one_mode", *argv]) == 0
    config_file = tmp_path / "custom.json"
    config_file.write_text(
        json.dumps({"scenario": "custom", "beta": [[1], [0]], "r_o": [[1, 0], [0, 1]], "c_o": [[1, 0]]})
    )
    assert main(["--config", str(config_file), *argv]) == 1
    assert "error: dt:" in capsys.readouterr().err


def test_schedule_errors_name_their_segment(tmp_path, capsys):
    config_file = tmp_path / "sequence.json"
    config_file.write_text(
        json.dumps(
            {
                "scenario": "measurement_sequence",
                "out_dir": str(tmp_path),
                "segments": [
                    {"duration": 20.0, "beta": [[1], [0]], "r_o": [[1, 0], [0, 1]], "c_o": [[1, 0]]},
                    {"beta": [[0], [1]], "r_o": [[1, 0], [0, -1]], "c_o": [[0, 1]]},
                ],
            }
        )
    )
    assert main(["--config", str(config_file)]) == 1
    assert "error: segments[1].r_o:" in capsys.readouterr().err


def test_segment_below_the_float_spacing_names_its_duration(tmp_path, capsys):
    # 20 + 1e-20 == 20: the segment would take a step of zero length
    config_file = tmp_path / "sequence.json"
    config_file.write_text(
        json.dumps(
            {
                "scenario": "measurement_sequence",
                "out_dir": str(tmp_path),
                "segments": [
                    {"duration": 20.0, "beta": [[1], [0]], "r_o": [[1, 0], [0, 1]], "c_o": [[1, 0]]},
                    {"duration": 1e-20, "disconnect": True},
                    {"beta": [[0], [1]], "r_o": [[1, 0], [0, 1]], "c_o": [[0, 1]]},
                ],
            }
        )
    )
    assert main(["--config", str(config_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: segments[1].duration: 1e-20 ")
    assert err.count("\n") == 1
    assert not (tmp_path / "measurement_sequence").exists()


_COUPLED = {"beta": [[1], [0]], "r_o": [[1, 0], [0, 1]], "c_o": [[1, 0]]}


def _sequence(*segments) -> dict:
    return {"scenario": "measurement_sequence", "segments": list(segments)}


# one fault each, named by its field; t_end 30 is added to each
_WRONG_TYPES = [
    ("segments[0]", _sequence(5)),
    ("segments[1]", _sequence(_COUPLED, [_COUPLED])),
    ("out_dir", {"scenario": "one_mode", "out_dir": 5}),
    ("dt", {"scenario": "one_mode", "dt": True}),
    ("t_end", {"scenario": "one_mode", "t_end": "50"}),
    ("segments[0].duration", _sequence({"duration": True, **_COUPLED})),
    # a JSON boolean only: "no", 1 and "false" would all disconnect
    *[
        ("segments[0].disconnect", _sequence({"duration": 5, "disconnect": flag}, _COUPLED))
        for flag in ("no", 1, "false")
    ],
    # a disconnected segment reads none of the coupled fields
    *[
        (f"segments[0].{key}", _sequence({"duration": 5, "disconnect": True, key: _COUPLED[key]}, _COUPLED))
        for key in ("beta", "r_o", "c_o")
    ],
    # a matrix entry is a JSON number: numpy would cast true and "1"
    ("beta", {"scenario": "custom", **_COUPLED, "beta": [[True], [False]]}),
    ("r_o", {"scenario": "custom", **_COUPLED, "r_o": [["1", 0], [0, "1"]]}),
    ("c_o", {"scenario": "custom", **_COUPLED, "c_o": [[1, True]]}),
    ("segments[0].r_o", _sequence({"duration": 5, **_COUPLED, "r_o": [["1", 0], [0, "1"]]}, _COUPLED)),
    ("segments[1].beta", _sequence({"duration": 5, **_COUPLED}, {**_COUPLED, "beta": [[True], [False]]})),
]


# faults that a config built by hand shows only to its planner, and an empty matrix
_PLANNED_FAULTS = [
    ("beta", {"scenario": "custom", **_COUPLED, "beta": []}),
    ("segments", _sequence()),
    ("segments", _sequence({"duration": 40.0, **_COUPLED}, _COUPLED)),
    ("c_o", {"scenario": "custom", "beta": _COUPLED["beta"], "r_o": _COUPLED["r_o"]}),
]


@pytest.mark.parametrize("field, raw", _WRONG_TYPES + _PLANNED_FAULTS)
def test_config_values_of_the_wrong_type_name_their_field(tmp_path, capsys, monkeypatch, field, raw):
    # the run starts in an empty directory, so any output directory it made would show
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({"t_end": 30.0, **raw}))
    assert main(["--config", "config.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


_HUGE = 10**400  # a JSON integer that float() cannot hold

# one integer beyond the float range each, named by its field; t_end 30 is added to each
_BEYOND_FLOAT = [
    ("t_end", {"scenario": "one_mode", "t_end": _HUGE}),
    ("dt", {"scenario": "one_mode", "dt": -_HUGE}),
    ("segments[0].duration", _sequence({"duration": _HUGE, **_COUPLED}, _COUPLED)),
    ("beta", {"scenario": "custom", **_COUPLED, "beta": [[_HUGE], [0]]}),
    ("r_o", {"scenario": "custom", **_COUPLED, "r_o": [[1, 0], [0, -_HUGE]]}),
    ("segments[1].c_o", _sequence({"duration": 5, **_COUPLED}, {**_COUPLED, "c_o": [[_HUGE, 0]]})),
]


@pytest.mark.parametrize("field, raw", _BEYOND_FLOAT)
def test_integers_beyond_the_float_range_name_their_field(tmp_path, capsys, monkeypatch, field, raw):
    # float() and astype(float) raise OverflowError on them: a config error, one line, exit 1
    monkeypatch.chdir(tmp_path)
    raw = {"t_end": 30.0, **raw}
    Path("config.json").write_text(json.dumps(raw))
    assert main(["--config", "config.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "beyond the float range" in err
    assert err.count("\n") == 1
    with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
        _by_hand(raw)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_integer_past_the_digit_limit_is_a_json_error(tmp_path, capsys):
    # Python's json refuses integers of more than 4,300 digits with a plain ValueError
    config_file = tmp_path / "config.json"
    config_file.write_text('{"scenario": "one_mode", "t_end": 1' + "0" * 5000 + "}")
    assert main(["--config", str(config_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid JSON: ") and err.count("\n") == 1


def test_disconnected_segment_may_give_null_coupled_fields(tmp_path):
    # null counts as absent, as for the top-level fields
    segments = [
        {"duration": 10.0, "disconnect": False, **_COUPLED},
        {"duration": 5.0, "disconnect": True, "beta": None},
        {"disconnect": None, **_COUPLED},
    ]
    config = ScenarioConfig.from_dict({"t_end": 30.0, **_sequence(*segments)})
    assert [seg.disconnect for seg in config.segments] == [False, True, False]
    assert config.segments[1].beta is None


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown"):
        ScenarioConfig.from_dict({"scenario": "one_mode", "betta": [[1], [0]]})
    with pytest.raises(ConfigError, match="^constant_tol: unknown"):
        ScenarioConfig.from_dict({"scenario": "one_mode", "constant_tol": 1e-10})


def test_config_rejects_bad_scenario():
    with pytest.raises(ConfigError, match="scenario"):
        ScenarioConfig.from_dict({"scenario": "both_modes"})
    # a config built by hand is checked on construction too, with the same message
    with pytest.raises(ConfigError, match=r"^scenario: must be one of \(.*\), got 'bogus'$"):
        ScenarioConfig(scenario="bogus")


def _by_hand(raw: dict) -> ScenarioConfig:
    """The config of a JSON object built by hand: each segment object becomes a SegmentConfig."""
    values = dict(raw)
    if "segments" in values:
        values["segments"] = tuple(
            scenarios.SegmentConfig(**seg) if isinstance(seg, dict) else seg
            for seg in values["segments"]
        )
    return ScenarioConfig(**values)


@pytest.mark.parametrize(
    "field, raw",
    [
        *_WRONG_TYPES,
        *[
            (key, {"scenario": "one_mode", key: value})
            for key in ("t_end", "dt", "average_t_end", "tol")
            for value in (float("nan"), -5.0, float("inf"))
        ],
        ("segments[0].duration", _sequence({"duration": -5, **_COUPLED}, _COUPLED)),
        ("scenario", {"scenario": "bogus"}),
    ],
)
def test_hand_built_config_fails_as_its_json_does(tmp_path, monkeypatch, field, raw):
    # construction is the one check: a config built by hand (a disconnected
    # segment with a beta among them) fails with the JSON route's message,
    # before run_scenario could write anything
    monkeypatch.chdir(tmp_path)
    raw = {"t_end": 30.0, **raw}
    with pytest.raises(ConfigError) as from_json:
        ScenarioConfig.from_dict(raw)
    with pytest.raises(ConfigError) as by_hand:
        run_scenario(_by_hand(raw))
    assert str(from_json.value).startswith(f"{field}: ")
    assert str(by_hand.value) == str(from_json.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "raw, grid, last_average",
    [
        ({"scenario": "one_mode"}, {"t_end": 50.0, "dt": 0.01, "average_t_end": 100.0}, 100.0),
        ({"scenario": "measurement_sequence"}, {"t_end": 100.0, "dt": 0.01}, None),
        ({**_CI_TWO_MODE, "t_end": None}, {"t_end": 50.0, "dt": 0.01}, 50.0),
    ],
    ids=["one_mode", "measurement_sequence", "custom"],
)
def test_each_planner_owns_its_default_horizons(tmp_path, raw, grid, last_average):
    # one_mode writes maps to 50 and averages to 100, measurement_sequence runs to
    # 100, and custom (50 by default) averages to its own t_end
    bundle = run_scenario(ScenarioConfig.from_dict({**raw, "out_dir": str(tmp_path)}))
    assert bundle.passed
    assert bundle.summary["grid"] == grid
    if last_average is not None:
        assert bundle.summary["convergence"]["t_values"][-1] == last_average


def test_cli_scenario_choices_are_the_planner_table():
    (action,) = [a for a in build_parser()._actions if a.dest == "scenario"]
    assert list(action.choices) == list(scenarios._PLANNERS)


def test_hand_built_config_takes_a_string_out_dir(tmp_path, monkeypatch):
    # from_dict is not the only way in: a config built by hand converts its path too
    monkeypatch.chdir(tmp_path)
    config = ScenarioConfig(scenario="one_mode", out_dir="out", t_end=1.0, dt=0.1)
    assert config.out_dir == Path("out")
    bundle = run_scenario(config)
    assert bundle.passed
    assert bundle.out_dir == Path("out", "one_mode") and bundle.summary_file.is_file()


def test_failed_certificate_in_a_run_names_its_segment(tmp_path):
    # the second system gets C B != 0: a run rejects it with the certificate's
    # message behind the index of the first segment that uses it, before any output
    aug1, aug3 = one_mode_augmented(), swapped_augmented()
    a = aug3.a_a.copy()
    a[3, 0] += 0.5
    broken = dataclasses.replace(aug3, a_a=a)
    phases = ((20.0, 0), (5.0, None), (35.0, 1), (40.0, 1))
    plan = scenarios._Plan(phases, (aug1, broken), scenarios._SEQUENCE_FIGURES, 100.0, schedule=True)
    config = ScenarioConfig(scenario="measurement_sequence", out_dir=tmp_path / "out")
    with pytest.raises(ValueError, match=r"^segments\[2\]: max\|C B\| = "):
        scenarios._run(config, plan)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", ["one_mode", "custom"])
def test_flow_that_overflows_is_not_certified(tmp_path, capsys, scenario):
    # c_o = [[1e-300, 0]] gives alpha = -1e300: the structure holds exactly (C B
    # is 0), but the flow's coefficients pass the float range
    raw = {"scenario": scenario, "beta": [[1], [0]], "r_o": [[1, 0], [0, 1]], "c_o": [[1e-300, 0]],
           "t_end": 1.0, "dt": 0.1, "out_dir": str(tmp_path)}
    plant = make_plant(raw["beta"])
    aug = assemble_augmented(plant, synthesize_observer(plant, raw["r_o"], raw["c_o"]))
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        certificate = aug.certificate
        passes = synthesis.verify_observer_conditions(aug).passes()
        status = main(["--config", str(config_file)])
    assert caught == []
    assert certificate.coupling == 0.0 and certificate.flow is None and not passes
    assert status == 1
    # one line, and no segment to name outside a schedule
    assert capsys.readouterr().err == (
        "error: flow coefficients overflow the float range (max|a| = 2.000e+300)\n"
    )
    assert not (tmp_path / scenario).exists()


@pytest.mark.parametrize("beta, status", [(1e-200, 0), (1e200, 1)])
def test_custom_at_extreme_beta(tmp_path, capsys, beta, status):
    # a tiny beta block is no zero block, and every check passes; a huge one
    # overflows the flow's coefficients, one line and exit 1, without a warning
    raw = {"scenario": "custom", "beta": [[beta], [0]], "r_o": [[1, 0], [0, 1]], "c_o": [[1, 0]],
           "t_end": 20.0, "out_dir": str(tmp_path)}
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(raw))
    assert main(["--config", str(config_file)]) == status
    err = capsys.readouterr().err
    if status:
        assert err == "error: flow coefficients overflow the float range (max|a| = 2.000e+200)\n"
    else:
        assert err == ""
        assert all(json.loads((tmp_path / "custom" / "summary.json").read_text())["checks"].values())


def test_config_rejects_a_complex_matrix_entry_before_the_cast():
    # numpy would drop the imaginary part with a ComplexWarning, a RuntimeWarning
    with pytest.raises(ConfigError, match=r"^beta: entry \[0\]\[0\] is .*1\+1j.*, not a number$"):
        ScenarioConfig(scenario="custom", beta=np.array([[1 + 1j], [0]]))


@pytest.mark.parametrize(
    "segments, message",
    [
        ((scenarios.SegmentConfig(disconnect=True),), "segments: at least one coupled segment is required"),
        (
            (scenarios.SegmentConfig(5.0, disconnect=True), scenarios.SegmentConfig(disconnect=True)),
            "segments: at least one coupled segment is required",
        ),
        (
            (scenarios.SegmentConfig(**_COUPLED), scenarios.SegmentConfig(disconnect=True)),
            "segments: at most one segment may omit its duration",
        ),
    ],
)
def test_schedule_faults_fail_at_construction(segments, message):
    # the config alone shows these faults: construction names them, not the run
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScenarioConfig(scenario="measurement_sequence", segments=segments)


def test_config_rejects_nonnumeric_matrix():
    with pytest.raises(ConfigError, match="beta"):
        ScenarioConfig.from_dict({"scenario": "custom", "beta": [["x"], [0]]})


def test_config_segment_validation():
    with pytest.raises(ConfigError, match="segments\\[0\\].r_o"):
        ScenarioConfig.from_dict(
            {
                "scenario": "measurement_sequence",
                "segments": [{"duration": 5.0, "beta": [[1], [0]], "c_o": [[1, 0]]}],
            }
        )


def test_segment_durations_must_fill_t_end(tmp_path):
    config = ScenarioConfig.from_dict(
        {
            "scenario": "measurement_sequence",
            "t_end": 10.0,
            "out_dir": str(tmp_path),
            "segments": [
                {"duration": 4.0, "beta": [[1], [0]], "r_o": [[1, 0], [0, 1]], "c_o": [[1, 0]]},
                {"duration": 4.0, "disconnect": True},
            ],
        }
    )
    with pytest.raises(ConfigError, match="durations"):
        run_scenario(config)


def test_many_short_segments_fill_t_end():
    # 30,000 segments of 0.1: a float sum drifts 1.6e-9 below 3000; math.fsum is exact
    segments = (scenarios.SegmentConfig(0.1, disconnect=True),) * 30_000
    assert scenarios._resolve_segments(segments, 3000.0) == segments
    open_end = segments[:-1] + (scenarios.SegmentConfig(disconnect=True),)
    resolved = scenarios._resolve_segments(open_end, 3000.0)
    assert resolved[:-1] == segments[:-1]
    assert resolved[-1].duration == 3000.0 - math.fsum([0.1] * 29_999)


def test_durations_that_sum_to_t_end_in_decimal_fill_it_at_any_scale(tmp_path):
    # 16.9 + 1481424305.2 is 1481424322.1 in decimal, but fsum of the parsed
    # floats lands one ulp (2.4e-7) above the parsed t_end; the bound scales with t_end
    config = {
        "scenario": "measurement_sequence", "t_end": 1481424322.1, "dt": 1e7, "out_dir": str(tmp_path),
        "segments": [{"duration": 16.9, **_COUPLED}, {"duration": 1481424305.2, "disconnect": True}],
    }
    assert math.fsum([16.9, 1481424305.2]) != 1481424322.1
    assert run_scenario(ScenarioConfig.from_dict(config)).passed
    # a misfit of 1e-5, far above the rounding, is still refused
    config["t_end"] = 1481424322.10001
    with pytest.raises(ConfigError, match="durations sum to"):
        run_scenario(ScenarioConfig.from_dict(config))


_CONJUGATE_SEGMENT = {"beta": [[0], [1]], "r_o": [[1, 0], [0, 1]], "c_o": [[0, 1]]}


@pytest.mark.parametrize(
    "segments, swapped",
    [
        ([_COUPLED, {"disconnect": True}, _COUPLED], False),
        ([_COUPLED] * 3, False),
        ([_COUPLED, _CONJUGATE_SEGMENT, _COUPLED], True),
    ],
    ids=["reattached-after-disconnect", "reattached-three-times", "conjugate-between"],
)
def test_swap_is_measured_on_the_last_other_observer(tmp_path, segments, swapped):
    # a schedule that only reattaches the first observer swaps nothing and
    # reports 0.0; otherwise the swap is that of the last coupled segment whose
    # system is another, even when the first observer comes back after it
    config = {
        "scenario": "measurement_sequence", "t_end": 30.0, "dt": 0.01, "out_dir": str(tmp_path),
        "segments": [{"duration": 10.0, **segment} for segment in segments],
    }
    bundle = run_scenario(ScenarioConfig.from_dict(config))
    assert bundle.passed, bundle.summary["checks"]
    disturbance = bundle.summary["swap_disturbance"]
    assert disturbance > 0.1 if swapped else disturbance == 0.0
    if swapped:  # measured on the conjugate segment, not on the last coupled one
        first = one_mode_augmented()
        _, edges, maps, _, _ = swept_schedule([(10.0, first), (10.0, swapped_augmented()), (10.0, first)], 0.01)
        lo, hi = edges[1:3]
        rows = first.plant_output
        assert disturbance == float(np.max(np.abs(rows @ maps[lo : hi + 1] - rows @ maps[lo])))


def test_disconnected_run_checks_its_first_map_for_residuals(tmp_path, monkeypatch):
    # every map of a disconnected run is its start map, so the monitor reads
    # its first map alone; the plateau deviation still reads every row
    received, residuals = [], simulation._residuals

    def counting_residuals(maps, *args):
        received.append(len(maps))
        return residuals(maps, *args)

    monkeypatch.setattr(simulation, "_residuals", counting_residuals)
    bundle = run_scenario(ScenarioConfig(scenario="measurement_sequence", out_dir=tmp_path))
    assert bundle.passed
    # 2,000 coupled rows, 500 disconnected ones, then 7,500 coupled in runs of 4,096
    assert received == [2000, 1, 4096, 3404]


def test_a_nan_plateau_after_a_constant_one_fails_its_check(tmp_path, monkeypatch):
    # Python's max keeps a finite first value and drops a NaN after it; every
    # plateau must be within its bound, as every protected row must
    sweep = scenarios._sweep

    def nan_second_plateau(systems, *args):
        second = [i for i, aug in enumerate(systems) if aug is None][1]
        for i, rows, start, block, averages, residuals in sweep(systems, *args):
            moved = np.nan if i == second else residuals[2]
            yield i, rows, start, block, averages, (*residuals[:2], moved)

    monkeypatch.setattr(scenarios, "_sweep", nan_second_plateau)
    segments = [_COUPLED, {"disconnect": True}, _CONJUGATE_SEGMENT, {"disconnect": True}, _COUPLED]
    config = {
        "scenario": "measurement_sequence", "t_end": 10.0, "dt": 0.1, "out_dir": str(tmp_path),
        "segments": [{"duration": 2.0, **segment} for segment in segments],
    }
    bundle = run_scenario(ScenarioConfig.from_dict(config))
    plateaus = [e["plateau_max_deviation"] for e in bundle.summary["segments"] if e["kind"] == "disconnected"]
    assert plateaus[0] == 0.0 and math.isnan(plateaus[1])
    checks = bundle.summary["checks"]
    assert not checks["plateau_constant"] and not bundle.passed
    assert all(ok for name, ok in checks.items() if name != "plateau_constant")


def test_run_leaves_its_config_unchanged(tmp_path):
    # the last segment omits its duration; resolving it must not write it back
    config = ScenarioConfig.from_dict(
        {
            "scenario": "measurement_sequence",
            "out_dir": str(tmp_path),
            "segments": [
                {"duration": 20.0, "beta": [[1], [0]], "r_o": [[1, 0], [0, 1]], "c_o": [[1, 0]]},
                {"duration": 5.0, "disconnect": True},
                {"beta": [[0], [1]], "r_o": [[1, 0], [0, 1]], "c_o": [[0, 1]]},
            ],
        }
    )
    assert run_scenario(config).passed
    shorter = run_scenario(dataclasses.replace(config, t_end=60.0))
    assert shorter.passed
    assert shorter.summary["segments"][-1]["duration"] == 35.0
    assert config.t_end is None
    assert [seg.duration for seg in config.segments] == [20.0, 5.0, None]
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.t_end = 60.0


def test_cli_one_mode_roundtrip(tmp_path, capsys):
    code = main(
        [
            "--scenario",
            "one_mode",
            "--out-dir",
            str(tmp_path),
            "--t-end",
            "10",
            "--dt",
            "0.05",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pass" in out and "summary" in out
    summary = json.loads((tmp_path / "one_mode" / "summary.json").read_text())
    assert summary["grid"]["t_end"] == 10.0
    assert summary["grid"]["dt"] == 0.05


def test_cli_reads_config_file_and_flags_override(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps(
            {
                "scenario": "one_mode",
                "t_end": 30.0,
                "dt": 0.1,
                "out_dir": str(tmp_path / "from_config"),
            }
        )
    )
    code = main(["--config", str(config_file), "--t-end", "12"])
    assert code == 0
    summary = json.loads((tmp_path / "from_config" / "one_mode" / "summary.json").read_text())
    assert summary["grid"]["t_end"] == 12.0
    assert summary["grid"]["dt"] == 0.1


def test_cli_validation_failures_exit_1(tmp_path, capsys):
    assert main(["--scenario", "custom", "--out-dir", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 1
    bad.write_bytes(b'{"scenario": "one_mode\xff"}')  # not UTF-8: one error line, no traceback
    capsys.readouterr()
    assert main(["--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid JSON: ") and err.count("\n") == 1
    indefinite = tmp_path / "indefinite.json"
    indefinite.write_text(
        json.dumps(
            {
                "scenario": "custom",
                "beta": [[1], [0]],
                "r_o": [[1, 0], [0, -1]],
                "c_o": [[1, 0]],
                "out_dir": str(tmp_path),
            }
        )
    )
    assert main(["--config", str(indefinite)]) == 1
    capsys.readouterr()


def test_cli_residual_failure_exits_2(tmp_path, capsys):
    code = main(
        ["--scenario", "one_mode", "--out-dir", str(tmp_path), "--t-end", "5", "--tol", "1e-20"]
    )
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_missing_config_exits_3(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("text", ["[]", "5", '"one_mode"', "null"])
def test_cli_config_that_is_no_object_exits_1(tmp_path, capsys, text):
    config_file = tmp_path / "config.json"
    config_file.write_text(text)
    assert main(["--config", str(config_file)]) == 1
    assert capsys.readouterr().err == "error: config must be a JSON object\n"


def test_cli_io_failure_during_a_run_exits_3(tmp_path, capsys):
    # the output directory would sit below a regular file
    (tmp_path / "file").write_text("")
    argv = ["--scenario", "one_mode", "--t-end", "1", "--dt", "0.1", "--out-dir", str(tmp_path / "file")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: I/O failure: ") and err.count("\n") == 1


def test_cli_missing_scenario_exits_1(capsys):
    assert main([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--t-end", "abc"], ["--scenario", "bogus"], ["--no-such-flag"]])
def test_cli_usage_errors_exit_1(capsys, argv):
    # exit 2 is a failed residual check; a malformed command line is a validation failure
    assert main(argv) == 1
    assert "error: " in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "--scenario" in capsys.readouterr().out


def test_runs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        run_scenario(
            ScenarioConfig.from_dict(
                {"scenario": "one_mode", "out_dir": str(out), "t_end": 20.0, "dt": 0.02}
            )
        )
    for name in ("fig03.csv", "fig05.csv", "fig06.csv"):
        assert (out_a / "one_mode" / name).read_bytes() == (out_b / "one_mode" / name).read_bytes()


@pytest.mark.parametrize("dt, points", [("1e-13", "1e+15"), ("5e-324", "inf")])
def test_grid_beyond_the_memory_bound_is_a_dt_error(tmp_path, capsys, dt, points):
    # 1e15 points are past the address space, so the run fails at once with
    # or without the bound; 100 / 5e-324 overflows to inf
    assert main(["--scenario", "one_mode", "--dt", dt, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: dt: {float(dt)} needs {points} grid points")
    assert err.count("\n") == 1
    assert not (tmp_path / "one_mode").exists()


# the stock runs at dt = 0.01: column prefix, (duration, system or None
# while disconnected) per segment, last map time, last average time, and the
# (file, row) of each figure
_STOCK = {
    "one_mode": (
        "phi",
        [(100.0, one_mode_augmented())],
        50.0,
        100.0,
        [("fig03", 0), ("fig04", 1), ("fig05", 2), ("fig06a", 3)],
        [("fig06", 2), ("fig06b", 3)],
    ),
    "measurement_sequence": (
        "phit",
        [(20.0, one_mode_augmented()), (5.0, None), (75.0, swapped_augmented())],
        100.0,
        100.0,
        [("fig07", 0), ("fig08", 1), ("fig09", 2), ("fig11", 3)],
        [("fig10", 2), ("fig12", 3)],
    ),
}


@pytest.mark.parametrize("scenario", sorted(_STOCK))
def test_stock_csvs_match_the_exact_and_stepwise_oracles(tmp_path, scenario):
    prefix, phases, map_end, average_end, map_figures, average_figures = _STOCK[scenario]
    assert main(["--scenario", scenario, "--out-dir", str(tmp_path)]) == 0
    pieces, edges, t0 = [np.array([0.0])], [0], 0.0
    for duration, _ in phases:
        pieces.append(t0 + uniform_grid(duration, 0.01)[1:])
        edges.append(edges[-1] + pieces[-1].size)
        t0 += duration
    times = np.concatenate(pieces)
    # the text is the series of a run's pass, cut to each file's rows and times
    swept_times, swept_edges, maps, averages, _ = swept_schedule(phases, 0.01)
    assert np.array_equal(swept_times, times) and swept_edges == tuple(edges)
    # sampled values: closed_form_map and Van Loan's integral, composed at the
    # boundaries, within the 12-digit rounding (5e-12 of the value) plus 1e-13
    # of max|Phi| for float64 rounding on either side
    picks = sorted(set(range(1, times.size, 97)) | set(edges[1:]))
    exact_maps, exact_integrals = exact_schedule(phases, times, edges, picks)
    exact_averages = exact_integrals / times[picks][:, None, None]
    # every value: maps within 1e-12 of max|Phi| of the stepwise oracle (its
    # drift), averages within the trapezoid bias (dt^2 / 12) max ||a||^2 max ||Phi||
    stepped = stepwise_schedule(phases, times)
    trapezoid = trapezoid_average(times, stepped)
    a_norm = max(np.linalg.norm(a, 2) for a in phase_dynamics(phases))
    bias = 0.01**2 / 12.0 * a_norm**2 * max(np.linalg.norm(m, 2) for m in stepped)
    for figures, col, t, data, end, suffix, exact, lag, oracle in [
        (map_figures, "t", times, maps, map_end, "", exact_maps, 0, stepped),
        (average_figures, "T", times[1:], averages, average_end, "_ave", exact_averages, 1, trapezoid),
    ]:
        keep = t <= end
        rows = [i for i, k in enumerate(picks) if keep[k - lag]]
        scale = np.max(np.abs(exact[rows]), axis=(1, 2))[:, None]
        drift = 1e-12 * np.max(np.abs(oracle[keep]), axis=(1, 2))[:, None]
        for tag, row in figures:
            header = [col] + [f"{prefix}_{row + 1}{j + 1}{suffix}" for j in range(4)]
            table = np.column_stack([t[keep], data[keep, row, :]])
            written = (tmp_path / scenario / f"{tag}.csv").read_bytes()
            assert written == csv_text(header, table).encode(), tag
            lines = written.decode().splitlines()[1:]
            values = np.array([line.split(",") for line in lines], dtype=float)[:, 1:]
            got, ref = values[[picks[i] - lag for i in rows]], exact[rows, row, :]
            assert np.all(np.abs(got - ref) <= 5e-12 * np.abs(ref) + 1e-13 * scale), tag
            reference = oracle[keep, row, :]
            if lag:
                assert np.max(np.abs(values - reference)) <= bias, tag
            else:
                assert np.all(np.abs(values - reference) <= 5e-12 * np.abs(reference) + drift), tag


def test_files_keep_the_grid_point_at_their_end_past_t_16384():
    # past t = 16,384 the float spacing (3.6e-12) passes an absolute 1e-12
    # slack, so the grid point of an end k / 10 can round to just above it
    times, _ = simulation._grid([16400.0], 0.1)
    rows = np.arange(163_841, times.size)
    ends = rows / 10.0
    assert np.count_nonzero(times[rows] > ends + 1e-12) > 10
    assert [scenarios._stop(times, end) for end in ends.tolist()] == (rows + 1).tolist()
    # below it nothing moves: the stock ends keep their rows, and an end past
    # the grid keeps them all
    times, _ = simulation._grid([100.0], 0.01)
    assert [scenarios._stop(times, end) for end in (10.0, 50.0, 100.0, np.inf)] == [1001, 5001, 10001, 10001]


def test_memory_guard_bounds_the_grid_and_the_chunk_buffers(tmp_path, capsys, monkeypatch):
    # by arithmetic: one_mode at dt = 0.1 has 1001 grid points and n = 4; the
    # guard counts 24 bytes a point and 48 n^2 bytes a chunk row
    held = 24 * 1001 + 48 * 1001 * 4 * 4
    argv = ["--scenario", "one_mode", "--dt", "0.1", "--out-dir", str(tmp_path)]
    monkeypatch.setattr(simulation, "MAX_SERIES_BYTES", held)
    assert main(argv) == 0
    monkeypatch.setattr(simulation, "MAX_SERIES_BYTES", held - 1)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: dt: 0.1 needs 1001 grid points")

    # n = 80 (20 one-mode copies) over 301 grid points: the chunk buffers are
    # sized by bytes, 256 rows at n = 80, not 301 rows as a 4,096-row chunk
    # would take
    modes = 20
    segment = {
        "beta": np.kron(np.eye(modes), [[1.0], [0.0]]).tolist(),
        "r_o": np.eye(2 * modes).tolist(),
        "c_o": np.kron(np.eye(modes), [[1.0, 0.0]]).tolist(),
    }
    config = {"scenario": "measurement_sequence", "t_end": 30.0, "dt": 0.1, "segments": [segment]}
    (tmp_path / "wide.json").write_text(json.dumps(config))
    argv = ["--config", str(tmp_path / "wide.json"), "--out-dir", str(tmp_path)]
    held = 24 * 301 + 48 * 256 * 80 * 80
    monkeypatch.setattr(simulation, "MAX_SERIES_BYTES", held)
    assert main(argv) == 0
    monkeypatch.setattr(simulation, "MAX_SERIES_BYTES", held - 1)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: dt: 0.1 needs 301 grid points")

    # 1e7 grid points: the whole series (16 K n^2 = 2.6 GB) would not pass
    # 2 GB, the grid and the chunk buffers (0.24 GB) do; the grid is never built
    def no_grid(durations, dt):
        raise RuntimeError("the guard let the grid through")

    monkeypatch.undo()
    monkeypatch.setattr(simulation, "_grid", no_grid)
    config = ScenarioConfig.from_dict({"scenario": "one_mode", "dt": 1e-5, "out_dir": str(tmp_path)})
    assert 16 * 10_000_001 * 4 * 4 > simulation.MAX_SERIES_BYTES
    with pytest.raises(RuntimeError, match="the guard let the grid through"):
        run_scenario(config)


def test_run_memory_grows_by_at_most_16_bytes_a_grid_point(tmp_path):
    # one_mode at dt = 0.1: 10,001 and 30,001 grid points, both past two
    # chunks, and the diagnosis grid up to average_t_end = 100 in both; a run
    # holds its grid (8 bytes a point) and its chunk buffers, never its
    # series; a run that kept two copies of its grid (24 bytes a point) fails
    def peak(t_end):
        config = {"scenario": "one_mode", "out_dir": str(tmp_path), "t_end": t_end, "dt": 0.1}
        tracemalloc.start()
        try:
            assert run_scenario(ScenarioConfig.from_dict(config)).passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10.0)  # warm up imports and caches
    assert peak(3e3) - peak(1e3) <= 16 * 20_000


def test_schedule_run_writes_and_checks_the_whole_series(tmp_path):
    # segment starts off the chunk seams, a zero segment and a last segment
    # of more than two chunks: every CSV byte and every residual and
    # deviation in summary.json are those of the whole series
    observers = [([[1.0], [0.0]], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]])]
    observers.append(([[0.0], [1.0]], [[2.0, 0.3], [0.3, 1.0]], [[0.0, 1.0]]))
    raw = [dict(zip(("beta", "r_o", "c_o"), spec)) for spec in observers]
    config = {
        "scenario": "measurement_sequence",
        "out_dir": str(tmp_path),
        "t_end": 98.87,
        "dt": 0.01,
        "segments": [{"duration": 13.37, **raw[0]}, {"duration": 0.5, "disconnect": True}, raw[1]],
    }
    bundle = run_scenario(ScenarioConfig.from_dict(config))
    assert bundle.passed
    entries = bundle.summary["segments"]
    first, last = (
        assemble_augmented(make_plant(b), synthesize_observer(make_plant(b), r, c)) for b, r, c in observers
    )
    phases = [(entries[0]["duration"], first), (entries[1]["duration"], None), (entries[2]["duration"], last)]
    times, edges = simulation._grid([duration for duration, _ in phases], 0.01)
    lo, hi = edges[2:]
    assert edges[1:3] == (1337, 1387) and hi - lo > 2 * _chunk_rows(4)
    flows = [flow_of(a) for a in phase_dynamics(phases)]
    maps, averages = whole_series(flows, times, edges)

    theta = first.ccr
    ccr = invariant_residuals(maps, theta, np.zeros((4, 4)))[0]
    assert bundle.summary["conservation"]["ccr_residual"] == ccr
    for entry, (_, aug), lo, hi in zip(entries, phases, edges[:-1], edges[1:]):
        piece = maps[lo : hi + 1]
        r_seg = np.zeros((4, 4)) if aug is None else aug.r_a
        assert entry["energy_residual"] == invariant_residuals(piece, theta, r_seg)[1]
        if aug is None:
            assert entry["plateau_max_deviation"] == float(np.max(np.abs(piece - piece[0])))
        else:
            rows = aug.plant_output
            deviation = float(np.max(np.abs(rows @ piece - rows @ piece[0])))
            assert entry["protected_row_max_deviation"] == deviation
    rows = first.plant_output
    swap = float(np.max(np.abs(rows @ maps[lo : hi + 1] - rows @ maps[lo])))
    assert bundle.summary["swap_disturbance"] == swap

    for tag, row, t, data, col, suffix in [
        ("fig07", 0, times, maps, "t", ""),
        ("fig12", 3, times[1:], averages, "T", "_ave"),
    ]:
        header = [col] + [f"phit_{row + 1}{j + 1}{suffix}" for j in range(4)]
        expected = csv_text(header, np.column_stack([t, data[:, row, :]]))
        assert (tmp_path / "measurement_sequence" / f"{tag}.csv").read_text() == expected
