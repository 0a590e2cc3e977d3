"""End-to-end command-line behaviour: formats, determinism, exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import effham
from effham import __version__, partition_hamiltonian
from effham.bloch import adiabatic_embedding, iterate_bloch, perturbative_bloch
from effham.cli import (
    _csv,
    _float_token,
    build_parser,
    format_float,
    load_model,
    main,
    parse_complex_entry,
)
from effham.effective import adiabatic_hamiltonian, hermitian_effective
from effham.schriefferwolff import (_effective_route, embedding_from_generator,
                                    first_order_generator,
                                    sw_first_order_hamiltonian)

FULL_EIGS = (-0.05790167391504361, -0.0012484394101993715, 1.0591501133252428)


def write_lambda(tmp_path) -> str:
    path = tmp_path / "lambda.json"
    assert main(["export", "--preset", "lambda", "--out", str(path)]) == 0
    return str(path)


def write_qubit(tmp_path, **overrides) -> str:
    path = tmp_path / "qubit.json"
    argv = ["export", "--preset", "driven-qubit", "--out", str(path)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 0
    return str(path)


def test_format_float_round_trips():
    for x in (0.1, -3.6943137311051104, 1e-300, 2.0**53 + 1.0):
        assert float(format_float(x)) == x
    assert format_float(float("nan")) == '"nan"'
    assert format_float(float("inf")) == '"inf"'


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
def test_format_float_token_round_trips(x):
    token = format_float(x)
    assert float(token) == x
    if x == 0.0:
        assert token == "0"


def test_json_and_csv_float_strings_pinned():
    cases = [
        (0.0, "0", "0"),
        (-0.0, "0", "0"),
        (float("nan"), '"nan"', "nan"),
        (float("inf"), '"inf"', "inf"),
        (float("-inf"), '"-inf"', "-inf"),
        (1e-300, "1e-300", "1e-300"),
        (2**53 + 1, "9007199254740992", "9007199254740992"),
        (np.float64(0.1), "0.10000000000000001", "0.10000000000000001"),
    ]
    for x, json_text, _ in cases:
        assert format_float(x) == json_text
    column = np.array([x for x, _, _ in cases])
    assert _csv(["x"], column) == "".join(
        f"{line}\n" for line in ["x", *(text for _, _, text in cases)])
    # A text column passes through as given, an empty cell included.
    assert _csv(["method", "x", "radius"], ["adiabatic", "sw"],
                column[-2:], ["", "3.5"]) == (
        "method,x,radius\nadiabatic,9007199254740992,\n"
        "sw,0.10000000000000001,3.5\n")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(xs=st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=8))
@example([-0.0, 5e-324, -2.2250738585072014e-308, float("nan"),
          float("-inf")])
def test_csv_float_cells_match_the_float_token(xs):
    column = np.array(xs)
    lines = _csv(["a", "b"], column, column[::-1]).splitlines()
    assert lines[0] == "a,b"
    assert lines[1:] == [f"{_float_token(x)},{_float_token(y)}"
                         for x, y in zip(xs, xs[::-1])]


def test_parse_complex_entry_forms():
    assert parse_complex_entry(2) == 2.0 + 0.0j
    assert parse_complex_entry([1.5, -0.5]) == 1.5 - 0.5j
    with pytest.raises(ValueError):
        parse_complex_entry("2")
    with pytest.raises(ValueError):
        parse_complex_entry([1.0, 2.0, 3.0])


@pytest.mark.parametrize("kind, key, value", [
    ("floquet", "drive_frequency", [10.0, 3.0]),
    ("lambda_system", "gap", [1.0, 7.0]),
    ("lambda_system", "detuning", [-0.0175, 5.0]),
    ("export", "drive_frequency", "10+3i"),
    ("export", "detuning", "0.5+2i"),
])
def test_real_parameters_reject_imaginary_parts(tmp_path, capsys, kind,
                                                key, value):
    if kind == "export":
        argv = ["export", "--preset", "driven-qubit", "--set",
                f"{key}={value}", "--out", str(tmp_path / "x.json")]
    else:
        path = write_qubit(tmp_path) if kind == "floquet" else write_lambda(
            tmp_path)
        doc = json.loads(Path(path).read_text())
        doc[kind][key] = value
        Path(path).write_text(json.dumps(doc))
        argv = ["floquet" if kind == "floquet" else "solve", path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{key} must be real" in captured.err


@pytest.mark.parametrize("preset, override, message", [
    ("lambda", "rabi_a=nan", "expected a number"),
    ("lambda", "gap=inf", "expected a number"),
    ("driven-qubit", "drive_frequency=-1", "drive frequency must be positive"),
    ("driven-qubit", "drive_frequency=0", "drive frequency must be positive"),
])
def test_export_refuses_models_the_loader_rejects(tmp_path, capsys, preset,
                                                  override, message):
    argv = ["export", "--preset", preset, "--set", override]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    out = tmp_path / "model.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_export_rejects_unknown_override(tmp_path):
    path = tmp_path / "x.json"
    code = main(["export", "--preset", "lambda", "--set", "bogus=1",
                 "--out", str(path)])
    assert code == 2


def test_solve_report_frozen_values(tmp_path, capsys):
    model = write_lambda(tmp_path)
    out = tmp_path / "report.json"
    assert main(["solve", model, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "epsilon = 0.00875" in err
    assert "invariant-ball radius = 3.69431" in err
    report = json.loads(out.read_text())
    assert report["tool"] == "effham"
    assert report["command"] == "solve"
    assert report["model"] == "lambda_system"
    assert report["method"] == "adiabatic"
    assert report["slow_dim"] == 2
    assert report["fast_dim"] == 1
    assert report["hermitian"] is True
    assert report["epsilon"] == 0.00875
    assert report["epsilon_prime"] == 0.25
    assert report["radius"] == 3.6943137311051104
    assert report["radius_small"] == 0.27068626889488939
    assert report["bloch_residual"] == 0.01515866604454363
    assert np.allclose(report["spectrum"], [-0.06125, -0.00125], atol=1e-14)
    matrix = report["effective_hamiltonian"]
    assert matrix[0][0][0] == pytest.approx(-0.03125, abs=1e-15)
    assert matrix[1][0][0] == pytest.approx(-0.03, abs=1e-15)
    assert matrix[0][0][1] == 0.0
    assert np.allclose(report["full_spectrum"], FULL_EIGS, atol=1e-14)


def test_solve_decoupled_model_reports_infinite_radius(tmp_path, capsys):
    path = tmp_path / "decoupled.json"
    path.write_text(json.dumps({"matrix": {
        "hamiltonian": [[0.1, 0, 0], [0, -0.1, 0], [0, 0, 2]],
        "slow_indices": [0, 1]}}))
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert '"radius": "inf",' in out
    assert '"radius_small": 0,' in out


def test_solve_iterate_matches_full_slow_spectrum(tmp_path):
    model = write_lambda(tmp_path)
    out = tmp_path / "report.json"
    assert main(["solve", model, "--method", "iterate",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert np.allclose(report["spectrum"], FULL_EIGS[:2], atol=1e-10)
    assert report["bloch_residual"] < 1e-12


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_solve_rejects_unmeetable_iterate_tolerance(tmp_path, capsys, tol):
    model = write_lambda(tmp_path)
    for extra in ([], ["--sweep", "rabi_a:0.1:0.4:4"]):
        assert main(["solve", model, "--method", "iterate", "--tol", tol,
                     *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be finite and non-negative" in captured.err


def test_solve_sw_takes_one_svd(tmp_path, capsys, monkeypatch):
    # The residual is that of the tan block of the first-order generator,
    # from one SVD with vectors; no rotation is built.  Spectral norms take
    # singular values alone and are not counted.
    model = write_lambda(tmp_path)
    svd, shapes = np.linalg.svd, []

    def counted(a, *args, **kw):
        if kw.get("compute_uv", True):
            shapes.append(np.shape(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert main(["solve", model, "--method", "sw"]) == 0
    assert shapes == [(1, 2)]


def test_solve_sw_solves_the_linearized_equation_once(tmp_path, monkeypatch):
    # The operator and the residual's embedding share the partition's one
    # cached Sylvester solve.
    model = write_lambda(tmp_path)
    solve, calls = effham.matrixkit.sylvester_solve, []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(effham.matrixkit, "sylvester_solve", counted)
    assert main(["solve", model, "--method", "sw"]) == 0
    assert len(calls) == 1


def _lambda_solutions(ph):
    """``(operator, embedding)`` per route name, each spelled out."""
    iterate, series1, series4 = (iterate_bloch(ph), perturbative_bloch(ph, 1),
                                 perturbative_bloch(ph, 4))
    return {
        "adiabatic": (adiabatic_hamiltonian(ph), adiabatic_embedding(ph)),
        "sw_first": (sw_first_order_hamiltonian(ph),
                     embedding_from_generator(ph, first_order_generator(ph))),
        "iterate": (hermitian_effective(ph, iterate), iterate),
        "bloch_order_1": (hermitian_effective(ph, series1), series1),
        "bloch_order_4": (hermitian_effective(ph, series4), series4),
    }


@pytest.mark.parametrize("argv, name", [
    ([], "adiabatic"),
    (["--method", "sw"], "sw_first"),
    (["--method", "iterate"], "iterate"),
    (["--method", "perturb", "--order", "1"], "bloch_order_1"),
    (["--method", "perturb"], "bloch_order_4"),
])
def test_solve_reports_the_route_table(tmp_path, capsys, argv, name):
    model = write_lambda(tmp_path)
    assert main(["solve", model, *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    ph = partition_hamiltonian(load_model(model).hamiltonian, (0, 1))
    op, be = _lambda_solutions(ph)[name]
    table_op, table_be = _effective_route(name)(ph)
    assert np.array_equal(table_op.matrix, op.matrix)
    assert (table_be is None) == (name in ("adiabatic", "sw_first"))
    if table_be is not None:
        assert table_be.residual == be.residual
    matrix = np.array(report["effective_hamiltonian"], dtype=float)
    assert np.array_equal(matrix[..., 0] + 1j * matrix[..., 1], op.matrix)
    assert report["spectrum"] == op.spectrum().tolist()
    assert report["bloch_residual"] == be.residual


@pytest.mark.parametrize("order, message", [
    ("65", "<= 64, got 65"),
    ("0", ">= 1, got 0"),
], ids=["above_cap", "below_one"])
def test_solve_checks_series_order_before_any_work(tmp_path, capsys, order,
                                                   message):
    # Nothing is computed or reported before the order is checked.
    model = write_lambda(tmp_path)
    for extra in ([], ["--sweep", "rabi_a:0.1:0.4:4"]):
        assert main(["solve", model, "--method", "perturb", "--order", order,
                     *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: series order must be {message}\n"


def test_multi_line_report_parses_back_to_the_library_floats(tmp_path,
                                                             capsys):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = 0.1 * (a + a.conj().T) + np.diag([0, 0, 0, 3.0, 3.5])
    path = tmp_path / "three_slow.json"
    path.write_text(json.dumps({"matrix": {
        "hamiltonian": [[[z.real, z.imag] for z in row] for row in h],
        "slow_indices": [0, 1, 2]}}))
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert '"effective_hamiltonian": [\n' in out
    report = json.loads(out)
    op = adiabatic_hamiltonian(partition_hamiltonian(h, (0, 1, 2)))
    matrix = np.array(report["effective_hamiltonian"], dtype=float)
    assert np.array_equal(matrix[..., 0] + 1j * matrix[..., 1], op.matrix)
    assert report["spectrum"] == op.spectrum().tolist()


def test_solve_rejects_floquet_model(tmp_path):
    model = write_qubit(tmp_path)
    assert main(["solve", model]) == 2


def test_solve_sweep_table(tmp_path):
    model = write_lambda(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["solve", model, "--sweep", "rabi_a:0.1:0.4:4",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("rabi_a,eig_0,eig_1,bloch_residual,"
                        "epsilon,epsilon_prime,radius")
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.1


def test_solve_sweep_bad_spec(tmp_path):
    model = write_lambda(tmp_path)
    assert main(["solve", model, "--sweep", "rabi_a:0:1"]) == 2
    assert main(["solve", model, "--sweep", "bogus:0:1:3"]) == 2


def test_solve_sweep_off_the_ball_writes_an_empty_radius(tmp_path, capsys):
    # At gap 0.2 and 0.3625 epsilon_prime exceeds (1 - epsilon) / 2: no
    # invariant ball, so the radius cell is empty; past it, a number.
    model = write_lambda(tmp_path)
    assert main(["solve", model, "--sweep", "gap:0.2:1.5:9"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.endswith(",radius") and len(rows) == 9
    radii = [row.split(",")[-1] for row in rows]
    assert radii[:2] == ["", ""]
    assert all(float(r) > 1.0 for r in radii[2:])
    off = tmp_path / "off.json"
    assert main(["export", "--preset", "lambda", "--set", "gap=0.2",
                 "--out", str(off)]) == 0
    assert main(["solve", str(off)]) == 0
    assert json.loads(capsys.readouterr().out)["radius"] is None


def test_solve_sweep_row_equals_the_single_solve(tmp_path, capsys):
    model = write_lambda(tmp_path)
    assert main(["solve", model, "--method", "iterate",
                 "--sweep", "rabi_a:0.1:0.4:4"]) == 0
    header, _, row, *_ = capsys.readouterr().out.splitlines()
    sweep = dict(zip(header.split(","), map(float, row.split(","))))
    assert sweep["rabi_a"] == 0.2
    single = tmp_path / "single.json"
    assert main(["export", "--preset", "lambda", "--set", "rabi_a=0.2",
                 "--out", str(single)]) == 0
    assert main(["solve", str(single), "--method", "iterate"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [sweep["eig_0"], sweep["eig_1"]] == report["spectrum"]
    for key in ("bloch_residual", "epsilon", "epsilon_prime", "radius"):
        assert sweep[key] == report[key]


def test_solve_sweep_decomposes_the_slow_block_once_per_point(
        tmp_path, capsys, monkeypatch):
    model = write_lambda(tmp_path)
    eigh, shapes = np.linalg.eigh, []

    def counted(a, *args, **kw):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert main(["solve", model, "--method", "adiabatic",
                 "--sweep", "gap:0.8:1.2:10"]) == 0
    # The effective spectra of every point in one stacked call, none per
    # point; the unprinted gap costs none.
    assert shapes.count((10, 2, 2)) == 1
    assert shapes.count((2, 2)) == 0


@pytest.mark.parametrize("write, argv, code, message", [
    (write_lambda, ["solve", "--sweep", "gap:-1:1:3"], 3, "SingularFastBlock"),
    (write_qubit, ["floquet", "--methods", "monodromy", "--steps", "100",
                   "--sweep", "scale:1:20:3"], 2, "refine the grid"),
])
def test_sweep_stops_at_the_first_failing_point(tmp_path, capsys, write,
                                                argv, code, message):
    argv = [argv[0], write(tmp_path), *argv[1:]]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    out = tmp_path / "table.csv"
    assert main(argv + ["--out", str(out)]) == code
    assert not out.exists()


def test_sweep_replays_points_to_report_the_first_failure(tmp_path, capsys):
    # The stacked run stops at a later point (it diverges at sweep 2); the
    # replay reports the first point's own error, as its single solve does.
    model = write_lambda(tmp_path)
    assert main(["solve", model, "--method", "iterate",
                 "--sweep", "gap:0.2:0.01:8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    single = tmp_path / "single.json"
    assert main(["export", "--preset", "lambda", "--set", "gap=0.2",
                 "--out", str(single)]) == 0
    assert main(["solve", str(single), "--method", "iterate"]) == 3
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: ConvergenceFailure: ")
    assert captured.err == last + "\n"


def test_exit_code_for_unreadable_and_invalid_models(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 2
    two = tmp_path / "two.json"
    two.write_text(json.dumps({
        "matrix": {"hamiltonian": [[1.0]], "slow_indices": [0]},
        "lambda_system": {}}))
    assert main(["solve", str(two)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_exit_code_for_singular_fast_block(tmp_path, capsys):
    model = tmp_path / "singular.json"
    model.write_text(json.dumps({"matrix": {
        "hamiltonian": [[0.5, 0.1], [0.1, 0.0]],
        "slow_indices": [0]}}))
    assert main(["solve", str(model)]) == 3
    assert "SingularFastBlock" in capsys.readouterr().err


def test_exit_code_for_wide_principal_angle(tmp_path, capsys):
    model = tmp_path / "strong.json"
    assert main(["export", "--preset", "lambda", "--set", "rabi_a=8",
                 "--set", "rabi_b=6", "--out", str(model)]) == 0
    assert main(["solve", str(model), "--method", "sw"]) == 3
    assert "WidePrincipalAngle" in capsys.readouterr().err


def test_exit_code_for_floquet_resonance(tmp_path, capsys):
    # static splitting equal to twice the drive frequency: the shifted
    # copies collide and elimination must refuse
    model = write_qubit(tmp_path, coupling=0, detuning=20)
    assert main(["floquet", model, "--methods", "adiabatic",
                 "--cutoff", "2"]) == 3
    assert "SingularFastBlock" in capsys.readouterr().err


def test_exit_code_for_nan_matrix_entry(tmp_path, capsys):
    model = tmp_path / "nan.json"
    model.write_text(json.dumps({"matrix": {
        "hamiltonian": [[0.5, 0.1], [0.1, float("nan")]],
        "slow_indices": [0]}}))
    assert main(["solve", str(model)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_exit_code_for_nonpositive_drive_frequency(tmp_path, capsys):
    # export refuses this model, so it is edited in after a valid export.
    model = write_qubit(tmp_path)
    doc = json.loads(Path(model).read_text())
    doc["floquet"]["drive_frequency"] = 0
    Path(model).write_text(json.dumps(doc))
    assert main(["floquet", model]) == 2
    assert "drive frequency must be positive" in capsys.readouterr().err


def test_exit_code_for_too_few_monodromy_steps(tmp_path, capsys):
    model = write_qubit(tmp_path)
    assert main(["floquet", model, "--methods", "monodromy",
                 "--steps", "10"]) == 2
    assert "refine the grid" in capsys.readouterr().err


def test_floquet_table_method_agreement(tmp_path):
    model = write_qubit(tmp_path)
    out = tmp_path / "quasi.csv"
    assert main(["floquet", model, "--steps", "40000",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,q_0,q_1,max_dev"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"monodromy", "diag", "adiabatic"}
    assert float(rows["monodromy"][3]) == 0.0
    assert float(rows["diag"][3]) < 1e-9
    assert abs(float(rows["diag"][2]) - 0.09901951359278449) < 1e-11
    # leading-order elimination differs in the second order of g/w
    assert 1e-4 < float(rows["adiabatic"][3]) < 1e-2


def test_floquet_sweep_table(tmp_path):
    model = write_qubit(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["floquet", model, "--methods", "adiabatic,hf1",
                 "--sweep", "drive_frequency:10:20:3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("drive_frequency,adiabatic_q0,adiabatic_q1,"
                        "adiabatic_dev,hf1_q0,hf1_q1,hf1_dev")
    assert len(lines) == 4
    mid = lines[2].split(",")
    assert float(mid[0]) == 15.0
    assert float(mid[1]) == pytest.approx(-1.0 / 15.0, abs=1e-12)


def test_floquet_rejects_non_floquet_model(tmp_path):
    model = write_lambda(tmp_path)
    assert main(["floquet", model]) == 2


def test_floquet_rejects_unknown_method(tmp_path):
    model = write_qubit(tmp_path)
    assert main(["floquet", model, "--methods", "magnus"]) == 2


def _count_ladders(monkeypatch) -> tuple[list, list]:
    """Record the cutoff of every ladder build and the shape of every
    ``eigh``."""
    import effham.floquet
    cutoffs, shapes = [], []
    build, eigh = effham.floquet.build_floquet, np.linalg.eigh

    def counted_build(spec, cutoff):
        cutoffs.append(cutoff)
        return build(spec, cutoff)

    def counted_eigh(a, *args, **kw):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kw)

    monkeypatch.setattr(effham.floquet, "build_floquet", counted_build)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    return cutoffs, shapes


def test_floquet_methods_share_one_ladder_per_cutoff(tmp_path, capsys,
                                                     monkeypatch):
    model = write_qubit(tmp_path)
    argv = ["floquet", model, "--methods", "diag,adiabatic,sw,iterate"]
    cutoffs, shapes = _count_ladders(monkeypatch)
    assert main(argv) == 0
    assert cutoffs == [4, 8]
    # One fast-block eigh per cutoff (fast dimension 2 * 2N); diag's
    # truncation certificate ends it at the first ladder, so one dense
    # ladder eigh at cutoff 4 and none at 8.
    assert shapes.count((16, 16)) == 1 and shapes.count((32, 32)) == 1
    assert shapes.count((18, 18)) == 1 and shapes.count((34, 34)) == 0
    cutoffs.clear()
    assert main(["floquet", model, "--methods", "diag,adiabatic",
                 "--sweep", "scale:0.5:1.5:5"]) == 0
    assert len(cutoffs) == 10


@pytest.mark.parametrize("overrides, argv, code", [
    ({}, ["--methods", "adiabatic,magnus"], 2),
    ({"coupling": 0, "detuning": 20}, ["--methods", "adiabatic,magnus"], 2),
    ({"coupling": 0, "detuning": 20},
     ["--methods", "adiabatic,monodromy", "--steps", "10"], 2),
    ({"coupling": 0, "detuning": 20}, ["--methods", "diag"], 0),
])
def test_floquet_checks_tokens_then_runs_cutoff_free_rows_first(
        tmp_path, capsys, monkeypatch, overrides, argv, code):
    # On the resonant model (levels +-10 at drive frequency 10) every
    # elimination route is singular; a bad token or --steps value is
    # reported before any ladder is built.
    model = write_qubit(tmp_path, **overrides)
    cutoffs, _ = _count_ladders(monkeypatch)
    assert main(["floquet", model, *argv]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert cutoffs == [] and "SingularFastBlock" not in err
    else:  # the undriven ladder leaks nothing: certified at the first cutoff
        assert cutoffs == [4]


@pytest.mark.parametrize("argv, message", [
    (["--methods", "perturb0,monodromy", "--steps", "10"], ">= 1, got 0"),
    (["--methods", "perturb0,monodromy"], ">= 1, got 0"),
    (["--methods", "perturb65,monodromy"], "<= 64, got 65"),
], ids=["argv0", "argv1", "argv2"])
def test_floquet_checks_series_order_before_any_work(
        tmp_path, capsys, monkeypatch, argv, message):
    model = write_qubit(tmp_path)
    cutoffs, shapes = _count_ladders(monkeypatch)
    assert main(["floquet", model, *argv]) == 2
    assert f"series order must be {message}" in capsys.readouterr().err
    assert cutoffs == [] and shapes == []


def test_simulate_stdout_sections(tmp_path, capsys):
    model = write_lambda(tmp_path)
    assert main(["simulate", model, "--tmax", "1.0", "--samples", "3",
                 "--generators", "exact,adiabatic"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# generator: exact\n")
    assert "# generator: adiabatic\n" in out
    assert "t,pop_g_a,pop_g_b,pop_e,norm\n" in out
    assert "t,pop_g_a,pop_g_b,norm\n" in out


def test_simulate_file_mode_and_population_overshoot(tmp_path):
    model = write_lambda(tmp_path)
    prefix = tmp_path / "run"
    assert main(["simulate", model, "--tmax", "400", "--samples", "2001",
                 "--generators", "iterate4", "--out", str(prefix)]) == 0
    path = tmp_path / "run_iterate4.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "t,pop_g_a,pop_g_b,norm"
    norms = np.array([float(line.split(",")[3]) for line in lines[1:]])
    # truncated non-hermitian generator: total slow population overshoots
    assert 1.01 < norms.max() ** 2 < 1.05


def test_simulate_hermitized_generator_conserves_norm(tmp_path):
    model = write_lambda(tmp_path)
    prefix = tmp_path / "run"
    assert main(["simulate", model, "--tmax", "50", "--samples", "501",
                 "--generators", "herm4", "--out", str(prefix)]) == 0
    lines = (tmp_path / "run_herm4.csv").read_text().splitlines()
    norms = np.array([float(line.split(",")[3]) for line in lines[1:]])
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_simulate_floquet_models_are_exact_only(tmp_path):
    model = write_qubit(tmp_path)
    assert main(["simulate", model, "--tmax", "1.0", "--samples", "3",
                 "--generators", "adiabatic"]) == 2
    assert main(["simulate", model, "--tmax", "1.0", "--samples", "3"]) == 0


def test_simulate_psi0_parsing(tmp_path, capsys):
    model = write_lambda(tmp_path)
    assert main(["simulate", model, "--tmax", "1.0", "--samples", "2",
                 "--psi0", "0.6,0.8i,0"]) == 0
    out = capsys.readouterr().out
    first = out.splitlines()[2].split(",")
    assert float(first[1]) == pytest.approx(0.36)
    assert float(first[2]) == pytest.approx(0.64)
    assert main(["simulate", model, "--tmax", "1.0", "--samples", "2",
                 "--psi0", "1,bad,0"]) == 2
    assert main(["simulate", model, "--tmax", "1.0", "--samples", "2",
                 "--psi0", "1,0"]) == 2


def test_simulate_evolves_a_zero_state(tmp_path, capsys):
    # Zero in, zeros out, on both model kinds; 0,0,1 has a zero slow part.
    lam, qubit = write_lambda(tmp_path), write_qubit(tmp_path)
    for argv, zero_tokens in (([lam, "--psi0", "0,0,0"], ["exact"]),
                              ([qubit, "--psi0", "0,0"], ["exact"]),
                              ([lam, "--psi0", "0,0,1", "--generators",
                                "exact,adiabatic"], ["adiabatic"])):
        assert main(["simulate", *argv, "--tmax", "1.0", "--samples", "3"]) == 0
        zero = []
        for chunk in capsys.readouterr().out.split("# generator: ")[1:]:
            token, _, csv = chunk.partition("\n")
            if token in zero_tokens:
                zero.append(token)
                for row in csv.splitlines()[1:]:
                    assert set(row.split(",")[1:]) == {"0"}
        assert zero == zero_tokens


SINGULAR_FAST = [[0.1, 0, 0.05], [0, -0.1, 0.02], [0.05, 0.02, 0]]


@pytest.mark.parametrize("hamiltonian, slow, error", [
    (SINGULAR_FAST, [0, 1], "SingularFastBlock"),
])
def test_simulate_exact_alone_needs_no_partition(tmp_path, capsys,
                                                 hamiltonian, slow, error):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"matrix": {"hamiltonian": hamiltonian,
                                            "slow_indices": slow}}))
    argv = ["simulate", str(model), "--tmax", "1.0", "--samples", "3"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# generator: exact" and len(lines) == 5
    prefix = tmp_path / "run"
    assert main(argv + ["--generators", "exact,adiabatic",
                        "--out", str(prefix)]) == 3
    assert error in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_simulate_exact_alone_still_checks_the_matrix(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"matrix": {
        "hamiltonian": [[0.1, 0.3], [0.0, -0.1]], "slow_indices": [0]}}))
    assert main(["simulate", str(model), "--tmax", "1.0"]) == 3
    assert "NotHermitian: hamiltonian" in capsys.readouterr().err


def test_simulate_partitions_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return partition_hamiltonian(*args)

    monkeypatch.setattr("effham.cli.partition_hamiltonian", counted)
    model = write_lambda(tmp_path)
    assert main(["simulate", model, "--tmax", "1.0", "--samples", "3",
                 "--generators", "exact,adiabatic,second,sw,iterate3,herm3",
                 "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 1


def test_simulate_caps_the_generator_depth(tmp_path, capsys):
    model = write_lambda(tmp_path)
    prefix = tmp_path / "run"
    for token, depth in (("iterate65", 65), ("herm65", 65),
                         ("iterate99999999", 99999999)):
        assert main(["simulate", model, "--tmax", "10", "--samples", "3",
                     "--generators", f"exact,{token}",
                     "--out", str(prefix)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: generator depth must be <= 64, got {depth}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lambda.json"]
    assert main(["simulate", model, "--tmax", "10", "--samples", "3",
                 "--generators", "iterate64,herm64"]) == 0


def test_simulate_long_periodic_run_keeps_the_norm(tmp_path, capsys):
    # 1.6e6 whole periods in one gap: the powers of a one-period propagator
    # that is unitary only to rounding once drifted past the 1e-8 guard.
    model = write_qubit(tmp_path)
    assert main(["simulate", model, "--tmax", "1e6", "--samples", "2"]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert last[0] == "1000000"
    assert abs(float(last[-1]) - 1.0) <= 1e-8
    # 1e300 is 1.6e299 periods, past the 2**53 a float resolves; 1.7e308
    # periods overflow.
    for tmax in ("1e300", "1.7e308"):
        assert main(["simulate", model, "--tmax", tmax, "--samples", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: sample times hold more drive periods than a float\n")


def test_simulate_iterate_decides_hermiticity_once(tmp_path, capsys,
                                                 monkeypatch):
    # One hermiticity check of the 2x2 generator: its deviation and its
    # norm, each one spectral norm (singular values alone), then no further
    # check per time gap.
    model = write_lambda(tmp_path)
    svd, shapes = np.linalg.svd, []

    def counted(a, *args, **kw):
        if not kw.get("compute_uv", True):
            shapes.append(np.shape(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert main(["simulate", model, "--tmax", "40", "--samples", "201",
                 "--generators", "iterate3"]) == 0
    assert shapes.count((2, 2)) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["simulate", "--tmax", "inf"], "tmax must be positive and finite"),
    (["simulate", "--tmax", "nan"], "tmax must be positive and finite"),
    (["solve", "--sweep", "rabi_a:0:inf:3"], "sweep bounds must be finite"),
    (["solve", "--sweep", "rabi_a:nan:1:3"], "sweep bounds must be finite"),
    (["simulate", "--tmax", "1", "--psi0", "inf,0,0"], "non-finite"),
])
def test_non_finite_arguments_exit_2_without_warnings(tmp_path, capsys,
                                                      argv, message):
    argv = [argv[0], write_lambda(tmp_path), *argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize("write, argv", [
    (write_lambda, ["solve"]),
    (write_lambda, ["solve", "--method", "iterate", "--sweep",
                    "rabi_a:0.1:0.4:3"]),
    (write_lambda, ["simulate", "--tmax", "1", "--samples", "3",
                    "--generators", "exact,sw"]),
    (write_qubit, ["floquet", "--methods", "hf1"]),
    (None, ["export", "--preset", "lambda"]),
])
def test_unwritable_out_exits_2(tmp_path, capsys, write, argv):
    if write is not None:
        argv = [argv[0], write(tmp_path), *argv[1:]]
    capsys.readouterr()
    target = tmp_path / "missing" / "dir" / "out"
    assert main([*argv, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith("error: cannot write output: ")
    assert not target.parent.exists()


MATRIX_1 = [[1.0]]
FLOQUET = {"dim": 1, "drive_frequency": 10.0, "components": {"0": [[0.5]]}}
BIG = 10 ** 400  # an integer beyond the largest double
TOO_BIG = "model file exceeds a limit: int too large to convert to float"


@pytest.mark.parametrize("command, model, argv, message", [
    ("solve", {"matrix": {"hamiltonian": 5, "slow_indices": [0]}}, [],
     "hamiltonian must be a non-empty list of rows"),
    ("solve", {"matrix": {"hamiltonian": [], "slow_indices": [0]}}, [],
     "hamiltonian must be a non-empty list of rows"),
    ("solve", {"matrix": {"hamiltonian": [1.0], "slow_indices": [0]}}, [],
     "hamiltonian rows must be lists"),
    ("solve", {"matrix": {"hamiltonian": [[1, 0], [0]], "slow_indices": [0]}},
     [], "hamiltonian rows have inconsistent lengths"),
    ("solve", {"matrix": {"hamiltonian": MATRIX_1, "slow_indices": [0],
                          "labels": []}}, [],
     "matrix model needs exactly the keys hamiltonian and slow_indices"),
    ("solve", {"lambda_system": {"detuning": 0, "gap": 1, "rabi_a": 0.4,
                                 "rabi_b": 0.3, "phase": 0}}, [],
     "lambda_system needs exactly the keys "
     "['detuning', 'gap', 'rabi_a', 'rabi_b']"),
    ("solve", {"matrix": {"hamiltonian": MATRIX_1, "slow_indices": []}}, [],
     "slow_indices must be a non-empty integer list"),
    ("solve", {"matrix": {"hamiltonian": MATRIX_1, "slow_indices": [True]}},
     [], "slow_indices must be a non-empty integer list"),
    ("solve", {"matrix": {"hamiltonian": MATRIX_1, "slow_indices": "0"}}, [],
     "slow_indices must be a non-empty integer list"),
    ("floquet", {"floquet": {"dim": 1, "drive_frequency": 10.0}}, [],
     "floquet model needs exactly the keys "
     "['components', 'dim', 'drive_frequency']"),
    ("floquet", {"floquet": {**FLOQUET, "dim": True}}, [],
     "floquet dim must be a positive integer"),
    ("floquet", {"floquet": {**FLOQUET, "dim": 0}}, [],
     "floquet dim must be a positive integer"),
    ("floquet", {"floquet": {**FLOQUET, "components": {}}}, [],
     "floquet components must be a non-empty object keyed by harmonic"),
    ("floquet", {"floquet": {**FLOQUET, "components": {"x": [[0.5]]}}}, [],
     "harmonic key 'x' is not an integer"),
    ("solve", [], [], "model file must hold a JSON object"),
    ("solve", {"matrix": {"hamiltonian": MATRIX_1, "slow_indices": [0]},
               "floquet": FLOQUET}, [],
     "model must contain exactly one of matrix, lambda_system, floquet; "
     "found ['matrix', 'floquet']"),
    ("solve", None, ["--sweep", "rabi_a:a:1:3"],
     "bad sweep bounds: could not convert string to float: 'a'"),
    ("solve", None, ["--sweep", "rabi_a:0:1:0"],
     "sweep needs at least one step"),
    ("simulate", None, ["--tmax", "1", "--samples", "1"],
     "need at least two samples"),
    ("simulate", None, ["--tmax", "1", "--generators", ","],
     "no generators requested"),
    ("export", None, ["--preset", "lambda", "--set", "gap"],
     "override 'gap' must look like key=value"),
    ("floquet", {"floquet": FLOQUET}, ["--steps", "0"],
     "steps must be positive, got 0"),
    ("solve", {"lambda_system": {"detuning": 0, "gap": BIG, "rabi_a": 0.4,
                                 "rabi_b": 0.3}}, [], TOO_BIG),
    ("solve", {"matrix": {"hamiltonian": [[1, 0], [0, [BIG, 0]]],
                          "slow_indices": [0]}}, [], TOO_BIG),
    ("floquet", {"floquet": {**FLOQUET, "drive_frequency": BIG}}, [], TOO_BIG),
])
def test_malformed_input_exits_2_with_its_message(tmp_path, capsys, command,
                                                  model, argv, message):
    if command == "export":
        path = []
    elif model is None:
        path = [write_lambda(tmp_path)]
    else:
        file = tmp_path / "model.json"
        file.write_text(json.dumps(model))
        path = [str(file)]
    capsys.readouterr()
    assert main([command, *path, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


QUBIT_COMPONENTS = {"-1": [[0, 1], [0, 0]], "1": [[0, 0], [1, 0]]}


@pytest.mark.parametrize("model, argv, code, message", [
    ({"matrix": {"hamiltonian": [[1, 0, 0], [0, 1, 0]], "slow_indices": [0]}},
     ["solve"], 2, "hamiltonian must be square, got shape (2, 3)"),
    ({"matrix": {"hamiltonian": [[1, 0], [0, 2]], "slow_indices": [5]}},
     ["solve"], 2, "slow index 5 outside matrix of dimension 2"),
    ({"matrix": {"hamiltonian": [[1, 0], [0, 2]], "slow_indices": [-1]}},
     ["solve"], 2, "slow index -1 outside matrix of dimension 2"),
    ({"matrix": {"hamiltonian": [[1, 0], [0, 2]], "slow_indices": [1, 0, 1]}},
     ["solve"], 2, "slow_indices cover all 2 levels; the fast sector is empty"),
    ({"matrix": {"hamiltonian": [[0.1, 0.01], [0.01, -0.1]],
                 "slow_indices": [0, 1]}},
     ["simulate", "--tmax", "1.0", "--samples", "3"], 2,
     "slow_indices cover all 2 levels; the fast sector is empty"),
    ({"floquet": {"dim": 2, "drive_frequency": 10.0,
                  "components": {**QUBIT_COMPONENTS, "0": [[0.5]]}}},
     ["floquet"], 2, "component 0 has shape (1, 1), expected (2, 2)"),
    ({"floquet": {"dim": 2, "drive_frequency": 10.0,
                  "components": {"1": QUBIT_COMPONENTS["1"]}}},
     ["floquet"], 3, "NotHermitian: component 1 has no adjoint partner at "
                     "harmonic -1"),
], ids=["non-square", "index-out-of-range", "negative-index", "all-slow",
        "all-slow-simulate", "component-shape", "one-sided-component"])
def test_model_file_structure_is_checked_at_load(tmp_path, capsys, model,
                                                 argv, code, message):
    # Shapes and index ranges are malformed input (exit 2), whatever the
    # command; a one-sided drive is well formed but not hermitian (exit 3).
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main([argv[0], str(path), *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_deeply_nested_model_file_exits_2(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: model file exceeds a limit: maximum recursion depth exceeded "
        "while decoding a JSON array from a unicode string\n")


# Each first allocation exceeds 1 TiB, so numpy refuses it outright.
@pytest.mark.parametrize("argv, size", [
    (["simulate", "lam", "--tmax", "1", "--samples", "1000000000000"],
     "7.28 TiB"),
    (["solve", "lam", "--sweep", "gap:1:2:1000000000000"], "7.28 TiB"),
    (["floquet", "dq", "--methods", "monodromy", "--steps", "1000000000000"],
     "7.28 TiB"),
    (["floquet", "dq", "--methods", "diag", "--cutoff", "1000000"],
     "233. TiB"),
], ids=["simulate-samples", "solve-sweep", "floquet-steps", "floquet-cutoff"])
def test_oversized_requests_exit_2(tmp_path, capsys, argv, size):
    models = {"lam": write_lambda(tmp_path), "dq": write_qubit(tmp_path)}
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([argv[0], models[argv[1]], *argv[2:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: Unable to allocate {size} for an array")
    assert sorted(tmp_path.iterdir()) == sorted(
        Path(m) for m in models.values())


def test_readme_command_lines_run(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [line.split("#", 1)[0].split()
             for line in block.split("```", 1)[0].splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["effham"]]
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_simulate_rejects_unknown_generator(tmp_path):
    model = write_lambda(tmp_path)
    assert main(["simulate", model, "--tmax", "1.0",
                 "--generators", "bogus"]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_parser_is_built_once_and_not_at_import():
    assert build_parser() is build_parser()
    script = ("import effham.cli\n"
              "assert effham.cli.build_parser.cache_info().currsize == 0")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         env=_child_env())
    assert run.returncode == 0, run.stderr.decode()


def _child_env() -> dict:
    """Environment in which a child interpreter imports the same effham as
    this process, installed or not."""
    src = str(Path(effham.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_subprocess_output_is_deterministic(tmp_path):
    model = write_lambda(tmp_path)
    cmd = [sys.executable, "-m", "effham.cli", "solve", model,
           "--method", "iterate"]
    runs = [subprocess.run(cmd, capture_output=True, check=True,
                           env=_child_env()) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.decode().startswith("{\n")


def test_cli_paths_never_import_scipy(tmp_path):
    # scipy.linalg roughly doubles the resident memory of a run; every
    # command needs numpy alone, the non-hermitian iterate<k> generator too.
    lam, dq = write_lambda(tmp_path), write_qubit(tmp_path)
    script = "\n".join([
        "import sys",
        "from effham.cli import main",
        f"assert main(['solve', {lam!r}, '--method', 'iterate', "
        "'--sweep', 'rabi_a:0.1:0.4:5']) == 0",
        f"assert main(['solve', {lam!r}, '--method', 'sw']) == 0",
        f"assert main(['floquet', {dq!r}, '--methods', "
        "'monodromy,diag,adiabatic,iterate']) == 0",
        f"assert main(['simulate', {lam!r}, '--tmax', '100', '--samples', "
        "'201', '--generators', 'exact,adiabatic,second,sw,iterate3,herm3', "
        f"'--out', {str(tmp_path / 'run')!r}]) == 0",
        "assert 'scipy' not in sys.modules, sorted(sys.modules)",
    ])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         env=_child_env())
    assert run.returncode == 0, run.stderr.decode()


def test_import_loads_no_third_party_package_but_numpy():
    # Start-up time of every entry point: importing effham pulls in the
    # standard library, numpy and itself, nothing else.
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import effham",
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}",
        "print(sorted(new - set(sys.stdlib_module_names)))",
    ])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         env=_child_env(), text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "['effham', 'numpy']"


@pytest.mark.parametrize("command, doc, error", [
    ("solve", {"matrix": {"hamiltonian": [[1, 1e308, 0], [-1e308, 2, 0],
                                          [0, 0, 3]], "slow_indices": [0]}},
     "NotHermitian: hamiltonian is not hermitian"),
    ("simulate", {"matrix": {"hamiltonian": [[1, 1e308, 0], [-1e308, 2, 0],
                                             [0, 0, 3]], "slow_indices": [0]}},
     "NotHermitian: hamiltonian is not hermitian"),
    ("floquet", {"floquet": {"dim": 2, "drive_frequency": 10.0, "components": {
        "1": [[0, 1e308], [0, 0]], "-1": [[0, 0], [-1e308, 0]]}}},
     "NotHermitian: components 1 and -1 are not mutually adjoint"),
])
def test_overflowing_models_exit_3_with_the_error_line_alone(tmp_path,
                                                             command, doc,
                                                             error):
    # Their residual a^dagger - b overflows to inf; such a model once passed
    # as hermitian, behind RuntimeWarnings and LAPACK's own stderr lines.
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    extra = {"solve": [], "simulate": ["--tmax", "1"],
             "floquet": ["--methods", "hf1"]}[command]
    run = subprocess.run([sys.executable, "-m", "effham.cli", command,
                          str(model), *extra], capture_output=True, text=True,
                         env=_child_env())
    assert run.returncode == 3 and run.stdout == ""
    assert run.stderr.startswith(f"error: {error}")
    assert run.stderr.count("\n") == 1


def test_simulate_hermitian_model_near_overflow(tmp_path, capsys):
    # Hermitizing as (a + a^dagger) / 2 overflowed on these finite entries.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"matrix": {
        "hamiltonian": [[1e308, 1e308, 0], [1e308, -1e308, 0], [0, 0, 1]],
        "slow_indices": [2]}}))
    assert main(["simulate", str(model), "--tmax", "1", "--samples", "3",
                 "--generators", "exact,adiabatic"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()
            if line[0].isdigit()]
    assert len(rows) == 6
    assert all(np.isfinite(float(x)) for row in rows for x in row)
