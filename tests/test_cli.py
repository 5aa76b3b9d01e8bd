import argparse
import json

import numpy as np
import pytest

from spinreset import cli
from spinreset.cli import (
    SERIES_COLUMNS,
    SWEEP_COLUMNS,
    WORKERS_ENV,
    _csv_text,
    _parse_grid,
    _parse_n_list,
    _parse_window,
    execute_command,
)
from spinreset.observables import connected_correlation_closed_form
from spinreset.renewal import WaitingTime, stationary_density_closed_form
from spinreset.spin_dynamics import DriveParams


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)


def run_cli(args, capsys):
    code = execute_command(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = [c.strip() for c in lines[0].split(",")]
    rows = [[c.strip() for c in ln.split(",")] for ln in lines[1:]]
    return header, rows


def test_grid_parsing():
    np.testing.assert_allclose(_parse_grid("0.2:1.0:0.2"), [0.2, 0.4, 0.6, 0.8, 1.0],
                               atol=1e-12)
    assert _parse_grid("0.5,1.5") == [0.5, 1.5]
    # the endpoint survives step rounding
    assert _parse_grid("0.2:2.0:0.05")[-1] == pytest.approx(2.0, abs=1e-9)
    for bad in ("1:0:0.1", "1:2:-0.5", "a,b", "1:2"):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_grid(bad)
    assert _parse_window("3:7.5") == (3.0, 7.5)
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_window("3")
    assert _parse_n_list("51,201") == [51, 201]
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_n_list("51,x")


def test_csv_text_empty_table_is_header_only():
    assert _csv_text(SWEEP_COLUMNS, []) == ", ".join(SWEEP_COLUMNS) + "\n"


def test_stationary_stdout(capsys):
    code, out, _ = run_cli(["stationary", "--protocol", "1", "--omega", "1"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == 1
    row = rows[0]
    assert float(row[0]) == 1.0
    assert float(row[1]) == pytest.approx(25.0 / 33.0, abs=1e-15)
    assert float(row[3]) == pytest.approx(
        connected_correlation_closed_form(1, DriveParams(1.0, 1.0), 0.5), abs=1e-10)
    assert 0.0 < float(row[5]) < 1.0
    assert row[7] == "closed-form"
    # no drive: the reset state never decays
    code, out, _ = run_cli(["stationary", "--protocol", "1", "--omega", "0"], capsys)
    assert float(parse_csv(out)[1][0][1]) == 1.0


def test_stationary_is_scale_invariant(capsys):
    # inputs are dimensionless groups, so delta only sets the unit
    _, out1, _ = run_cli(["stationary", "--protocol", "2", "--omega", "1.4"], capsys)
    _, out2, _ = run_cli(["stationary", "--protocol", "2", "--omega", "1.4",
                          "--delta", "2.5"], capsys)
    r1, r2 = parse_csv(out1)[1][0], parse_csv(out2)[1][0]
    assert r1[1] == r2[1] and r1[7] == r2[7]
    assert float(r1[3]) == pytest.approx(float(r2[3]), abs=1e-12)
    # the discord measure rides on sqrt(rho), which amplifies rounding
    # near zero eigenvalues to the sqrt(eps) scale
    assert float(r1[5]) == pytest.approx(float(r2[5]), abs=1e-7)


def test_exit_codes(tmp_path, capsys):
    assert run_cli(["stationary", "--protocol", "1"], capsys)[0] == 2  # missing omega
    assert run_cli(["stationary", "--protocol", "7", "--omega", "1"], capsys)[0] == 2
    assert run_cli(["bogus-command"], capsys)[0] == 2
    assert run_cli(["--help"], capsys)[0] == 0
    assert run_cli(["stationary", "--protocol", "1", "--omega", "-3"], capsys)[0] == 3
    assert run_cli(["stationary", "--protocol", "1", "--omega", "1",
                    "--dist", "chopped"], capsys)[0] == 3  # chopped needs --tmax
    assert run_cli(["stationary", "--protocol", "1", "--omega", "1",
                    "--tmax", "5"], capsys)[0] == 3  # tmax needs chopped
    assert run_cli(["sweep", "--protocol", "2", "--grid", "0.5,1.5",
                    "--delta", "0"], capsys)[0] == 3
    for workers in ("0", "-2"):
        assert run_cli(["sweep", "--protocol", "3", "--grid", "1.1",
                        "--workers", workers], capsys)[0] == 3
        assert run_cli(["finite-size", "--n-spins", "11", "--grid", "1.1",
                        "--workers", workers], capsys)[0] == 3
    assert run_cli(["fit", "--input", str(tmp_path / "missing.csv"),
                    "--observable", "density"], capsys)[0] == 5
    bad = tmp_path / "bad.csv"
    bad.write_text("not, a, sweep\n1, 2, 3\n")
    assert run_cli(["fit", "--input", str(bad), "--observable", "density"], capsys)[0] == 5
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{\"kind\": \"sweep\"")
    assert run_cli(["fit", "--input", str(bad_json), "--observable", "density"],
                   capsys)[0] == 5


def test_ensemble_outputs_and_round_trip(tmp_path, capsys):
    stem = str(tmp_path / "run")
    code, out, _ = run_cli([
        "ensemble", "--protocol", "1", "--omega", "1.1", "--trajectories", "1100",
        "--time", "12", "--points", "13", "--window", "8:12", "--seed", "3",
        "--output", stem, "--svg"], capsys)
    assert code == 0
    listed = out.strip().splitlines()
    assert stem + ".csv" in listed and stem + ".json" in listed
    assert stem + ".manifest.json" in listed
    header, rows = parse_csv((tmp_path / "run.csv").read_text())
    assert header == list(SERIES_COLUMNS)
    assert len(rows) == 13
    doc = json.loads((tmp_path / "run.json").read_text())
    # CSV carries 17 significant digits: parsing it back must reproduce
    # the JSON numbers bit for bit
    for j, name in enumerate(SERIES_COLUMNS):
        np.testing.assert_array_equal([float(r[j]) for r in rows], doc[name])
    assert doc["window"]["range"] == [8.0, 12.0]
    assert doc["window"]["lqu_stderr"] > 0.0
    svg = (tmp_path / "run.density.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["command"] == "ensemble"
    assert manifest["seed"] == 3
    assert manifest["config"]["trajectories"] == 1100
    assert set(manifest["outputs"]) == {stem + ".csv", stem + ".json",
                                        stem + ".density.svg"}


def test_ensemble_worker_and_rerun_determinism(tmp_path, capsys, monkeypatch):
    base = ["ensemble", "--protocol", "2", "--omega", "1.3", "--trajectories", "600",
            "--time", "8", "--points", "9", "--seed", "5", "--format", "csv"]
    texts = []
    for tag, extra in (("w1", ["--workers", "1"]), ("w4", ["--workers", "4"]),
                       ("rerun", ["--workers", "1"])):
        stem = str(tmp_path / tag)
        assert run_cli(base + extra + ["--output", stem], capsys)[0] == 0
        texts.append((tmp_path / (tag + ".csv")).read_bytes())
    assert texts[0] == texts[1] == texts[2]
    # workers can come from the environment
    monkeypatch.setenv(WORKERS_ENV, "3")
    stem = str(tmp_path / "env")
    assert run_cli(base + ["--output", stem], capsys)[0] == 0
    assert (tmp_path / "env.csv").read_bytes() == texts[0]
    # a broken environment value only matters when the flag is absent
    monkeypatch.setenv(WORKERS_ENV, "lots")
    assert run_cli(base, capsys)[0] == 3
    assert run_cli(base + ["--workers", "2"], capsys)[0] == 0


def test_time_unit_round_trip(tmp_path, capsys):
    # T and gamma are entered as T*delta and gamma/delta; the emitted
    # time column is t*delta again
    stem = str(tmp_path / "scaled")
    code, _, _ = run_cli([
        "ensemble", "--protocol", "1", "--omega", "1.0", "--delta", "2.0",
        "--trajectories", "64", "--time", "12", "--points", "7",
        "--output", stem, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "scaled.json").read_text())
    assert doc["time"][0] == 0.0
    assert doc["time"][-1] == pytest.approx(12.0, abs=1e-12)
    assert doc["manifest"]["config"]["observation_time"] == pytest.approx(6.0, abs=1e-12)


def test_sweep_stdout_and_files(tmp_path, capsys):
    code, out, _ = run_cli(["sweep", "--protocol", "2", "--grid", "0.6,1.2,1.8"],
                           capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == list(SWEEP_COLUMNS)
    assert [r[7] for r in rows] == ["closed-form", "mixture", "mixture"]
    assert float(rows[0][1]) == pytest.approx(
        stationary_density_closed_form(DriveParams(0.6, 1.0), WaitingTime.poisson(0.5)),
        abs=1e-15)
    assert float(rows[1][1]) == 0.5 and float(rows[2][1]) == 0.5
    stem = str(tmp_path / "sweep")
    code, out, _ = run_cli(["sweep", "--protocol", "2", "--grid", "0.6,1.2,1.8",
                            "--output", stem], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    header, rows = parse_csv((tmp_path / "sweep.csv").read_text())
    for j, name in enumerate(SWEEP_COLUMNS[:-1]):
        np.testing.assert_array_equal([float(r[j]) for r in rows], doc[name])
    assert doc["regime"] == [r[7] for r in rows]


def test_fit_command_from_both_formats(tmp_path, capsys):
    xs = 1.0 + np.linspace(0.02, 0.25, 9)
    dens = 0.5 + 0.3 * (xs - 1.0) ** 0.5
    rows = [(x, d, 0.0, 0.0, 0.0, 0.0, 0.0, "monte-carlo") for x, d in zip(xs, dens)]
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text(_csv_text(SWEEP_COLUMNS, rows))

    code, out, _ = run_cli(["fit", "--input", str(csv_path), "--observable", "density",
                            "--output", str(tmp_path / "fit")], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["observable"] == "density"
    assert doc["exponent"] == pytest.approx(0.5, abs=1e-8)
    assert doc["amplitude"] == pytest.approx(0.3, abs=1e-8)
    assert json.loads((tmp_path / "fit.json").read_text()) == doc
    assert (tmp_path / "fit.manifest.json").exists()

    # the same table via the JSON writer fits identically
    json_doc = {
        "kind": "sweep", "protocol": 3,
        "dist": {"kind": "poisson", "gamma": 0.5, "t_max": None},
        "delta": 1.0, "n_spins": None, "columns": list(SWEEP_COLUMNS),
        "omega_over_delta": xs.tolist(), "density": dens.tolist(),
        "density_stderr": [0.0] * 9, "correlation": [0.0] * 9,
        "correlation_stderr": [0.0] * 9, "lqu": [0.0] * 9, "lqu_stderr": [0.0] * 9,
        "regime": ["monte-carlo"] * 9, "row_errors": {}, "fits": {},
    }
    json_path = tmp_path / "sweep.json"
    json_path.write_text(json.dumps(json_doc))
    code, out2, _ = run_cli(["fit", "--input", str(json_path),
                             "--observable", "density"], capsys)
    assert code == 0
    assert json.loads(out2) == doc
    # mixed-sign offsets surface as a validation error, not a traceback
    code, _, err = run_cli(["fit", "--input", str(csv_path), "--observable", "density",
                            "--baseline", "0.6"], capsys)
    assert code == 3
    assert "change sign" in err


def test_finite_size_command(tmp_path, capsys):
    stem = str(tmp_path / "fs")
    code, out, _ = run_cli([
        "finite-size", "--n-spins", "5,7", "--grid", "0.9,1.1",
        "--trajectories", "100", "--time", "40", "--window-points", "5",
        "--output", stem], capsys)
    assert code == 0
    for n in (5, 7):
        header, rows = parse_csv((tmp_path / f"fs_N{n}.csv").read_text())
        assert header == list(SWEEP_COLUMNS)
        assert len(rows) == 2
        assert all(r[7] == "monte-carlo" for r in rows)
    assert (tmp_path / "fs.manifest.json").exists()
    # stdout mode prints one block per N
    code, out, _ = run_cli(["finite-size", "--n-spins", "5", "--grid", "0.9",
                            "--trajectories", "50", "--time", "20",
                            "--window-points", "3"], capsys)
    assert code == 0
    assert out.startswith("# N = 5")


def test_verify_command(capsys, monkeypatch):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert "all 10 checks passed" in out
    monkeypatch.setattr(cli, "_verify_checks",
                        lambda: [("doomed", False, "synthetic")])
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 4
    assert "1 of 1 checks failed" in out
