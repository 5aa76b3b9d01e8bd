import argparse
import ast
import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinreset import analysis, cli, trajectory_sim
from spinreset.cli import (
    SERIES_COLUMNS,
    SWEEP_COLUMNS,
    _csv_text,
    _parse_grid,
    _parse_n_list,
    _parse_window,
    execute_command,
)
from spinreset.observables import connected_correlation_closed_form
from spinreset.renewal import WaitingTime, stationary_density_closed_form
from spinreset.spin_dynamics import DriveParams


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
    # the point count is checked before the list is built
    with pytest.raises(argparse.ArgumentTypeError, match="asks for inf points"):
        _parse_grid("0:1e308:1e-308")  # the quotient overflows
    with pytest.raises(argparse.ArgumentTypeError, match="asks for 2e\\+06 points"):
        _parse_grid("0:1:5e-7")
    assert _parse_window("3:7.5") == (3.0, 7.5)
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_window("3")
    assert _parse_n_list("51,201") == [51, 201]
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_n_list("51,x")
    with pytest.raises(argparse.ArgumentTypeError, match="repeated"):
        _parse_n_list("5,7,5")


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


@pytest.mark.parametrize("argv", [
    ["sweep", "--protocol", "1", "--grid", "0.2:2.0:0.3"],
    ["sweep", "--protocol", "2", "--grid", "0.2:2.0:0.3"],
    ["sweep", "--protocol", "1", "--grid", "0.2:2.0:0.3", "--dist", "chopped", "--tmax", "4"],
    ["sweep", "--protocol", "2", "--grid", "0.2:2.0:0.3", "--dist", "chopped", "--tmax", "4"],
    ["stationary", "--protocol", "1", "--omega", "1.3"],
    ["stationary", "--protocol", "2", "--n-spins", "51", "--omega", "1.3"],
    ["ensemble", "--protocol", "2", "--omega", "1.3"],
    ["ensemble", "--protocol", "2", "--n-spins", "11", "--omega", "1.3"],
    ["ensemble", "--protocol", "3", "--n-spins", "11", "--omega", "1.3"],
], ids=["sweep-p1", "sweep-p2", "sweep-p1-chopped", "sweep-p2-chopped", "stationary-p1",
        "stationary-p2-n51", "ensemble-p2", "ensemble-p2-n11", "ensemble-p3-n11"])
def test_power_of_two_delta_prints_the_bytes_of_delta_one(argv, capsys):
    # every input is a dimensionless group and a power of two rescales
    # without rounding, so only the unit changes, even near the ends of
    # the float range
    if argv[0] == "ensemble":
        argv = argv + ["--trajectories", "300", "--time", "6", "--points", "4"]
    outs = []
    for delta in (1.0, 2.0 ** -600, 2.0 ** 600):
        code, out, err = run_cli(argv + ["--delta", repr(delta)], capsys)
        assert code == 0, err
        outs.append(out)
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert run_cli(["stationary", "--protocol", "1"], capsys)[0] == 2  # missing omega
    assert run_cli(["stationary", "--protocol", "7", "--omega", "1"], capsys)[0] == 2
    # protocol 3 has no exact state, so it is no stationary choice
    code, _, err = run_cli(["stationary", "--protocol", "3", "--omega", "1"], capsys)
    assert code == 2 and "--protocol {1,2}" in err
    assert run_cli(["bogus-command"], capsys)[0] == 2
    assert run_cli(["--help"], capsys)[0] == 0
    assert run_cli(["stationary", "--protocol", "1", "--omega", "-3"], capsys)[0] == 3
    assert run_cli(["stationary", "--protocol", "1", "--omega", "1",
                    "--dist", "chopped"], capsys)[0] == 3  # chopped needs --tmax
    assert run_cli(["stationary", "--protocol", "1", "--omega", "1",
                    "--tmax", "5"], capsys)[0] == 3  # tmax needs chopped
    assert run_cli(["sweep", "--protocol", "2", "--grid", "0.5,1.5",
                    "--delta", "0"], capsys)[0] == 3
    # the engine does not form 4 * obar: it runs where the exact path refuses
    code, _, err = run_cli(["ensemble", "--protocol", "1", "--omega", "1.3", "--delta", "1e308",
                            "--trajectories", "300", "--time", "6", "--points", "4"], capsys)
    assert (code, err) == (0, "")
    for workers in ("0", "-2"):
        assert run_cli(["sweep", "--protocol", "3", "--grid", "1.1",
                        "--workers", workers], capsys)[0] == 3
        assert run_cli(["finite-size", "--n-spins", "11", "--grid", "1.1",
                        "--workers", workers], capsys)[0] == 3
    # Monte Carlo settings no row can run with fail before any row runs
    for bad in (["--n-spins", "4"], ["--trajectories", "0"], ["--window-points", "0"],
                ["--time", "-5"]):
        assert run_cli(["sweep", "--protocol", "3", "--grid", "1.1", *bad], capsys)[0] == 3
    code, _, err = run_cli(["finite-size", "--n-spins", "5,4", "--grid", "1.1"], capsys)
    assert code == 3 and "n_spins must be a positive odd integer" in err
    code, _, err = run_cli(["finite-size", "--n-spins", "5,5", "--grid", "1.1"], capsys)
    assert code == 2 and "repeated value" in err
    code, _, err = run_cli(["stationary", "--protocol", "1", "--omega", "1", "--svg",
                            "-o", str(tmp_path / "st")], capsys)
    assert code == 3 and "--svg" in err
    assert not list(tmp_path.iterdir())
    # an invalid register size is rejected whether or not the protocol uses it
    for protocol in ("1", "2"):
        for n in ("4", "-3"):
            code, _, err = run_cli(["stationary", "--protocol", protocol, "--omega", "1",
                                    "--n-spins", n, "-o", str(tmp_path / "st")], capsys)
            assert code == 3 and "positive odd" in err
    assert not list(tmp_path.iterdir())
    # plots are files: --svg without --output fails before any trajectory runs
    calls = []
    run_ensembles = analysis.run_ensembles
    monkeypatch.setattr(analysis, "run_ensembles",
                        lambda configs: calls.append(configs) or run_ensembles(configs))
    monkeypatch.setattr(cli, "run_ensemble", calls.append)
    for argv in (["sweep", "--protocol", "1", "--grid", "0.5"],
                 ["sweep", "--protocol", "3", "--grid", "1.1"],
                 ["ensemble", "--protocol", "1", "--omega", "1"],
                 ["finite-size", "--n-spins", "5", "--grid", "1.1"]):
        code, out, err = run_cli(argv + ["--svg"], capsys)
        assert code == 3 and "--output" in err and out == ""
    assert calls == []
    # positive control: without --svg the sweeps do reach the patched engine
    for argv in (["sweep", "--protocol", "3", "--grid", "1.1"],
                 ["finite-size", "--n-spins", "5", "--grid", "1.1", "--time", "20"]):
        code, out, _ = run_cli(argv + ["--trajectories", "8"], capsys)
        assert code == 0 and "monte-carlo" in out
    assert len(calls) == 2
    assert run_cli(["fit", "--input", str(tmp_path / "missing.csv"),
                    "--observable", "density"], capsys)[0] == 5
    bad = tmp_path / "bad.csv"
    bad.write_text("not, a, sweep\n1, 2, 3\n")
    assert run_cli(["fit", "--input", str(bad), "--observable", "density"], capsys)[0] == 5
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{\"kind\": \"sweep\"")
    assert run_cli(["fit", "--input", str(bad_json), "--observable", "density"],
                   capsys)[0] == 5


def test_fit_rejects_an_ensemble_table(tmp_path, capsys):
    # an ensemble table has no sweep columns
    stem = str(tmp_path / "ens")
    assert run_cli(["ensemble", "--protocol", "1", "--omega", "1", "--trajectories", "8",
                    "--time", "2", "--points", "3", "--format", "json", "--output", stem],
                   capsys)[0] == 0
    code, _, err = run_cli(["fit", "--input", stem + ".json", "--observable", "density"], capsys)
    assert code == 5 and "is not a sweep JSON file" in err


def test_sweeps_need_positive_delta_with_one_message(capsys):
    for argv in (["sweep", "--protocol", "2", "--grid", "0.5,1.5"],
                 ["finite-size", "--n-spins", "5", "--grid", "1.1"]):
        code, _, err = run_cli(argv + ["--delta", "0"], capsys)
        assert code == 3
        assert err == "error: sweeps need delta > 0 (the grid is in units of delta)\n"


def test_reversed_ensemble_window_is_named(capsys):
    code, _, err = run_cli(["ensemble", "--protocol", "1", "--omega", "1",
                            "--window", "20:10"], capsys)
    assert code == 3 and "average_window (20.0, 10.0) has lo > hi" in err


def test_reversed_fit_window_is_named(tmp_path, capsys):
    # a header-only table reaches the fit, which checks its window first
    path = tmp_path / "empty.csv"
    path.write_text(_csv_text(SWEEP_COLUMNS, []))
    code, _, err = run_cli(["fit", "--input", str(path), "--observable", "density"], capsys)
    assert code == 3 and "found 0" in err
    code, _, err = run_cli(["fit", "--input", str(path), "--observable", "density",
                            "--window", "1.5:1.2"], capsys)
    assert code == 3 and "fit window (1.5, 1.2) has lo > hi" in err


def test_zero_window_points_is_named(capsys):
    for argv in (["sweep", "--protocol", "3", "--grid", "1.1"],
                 ["finite-size", "--n-spins", "5", "--grid", "1.1"]):
        code, _, err = run_cli(argv + ["--window-points", "0"], capsys)
        assert code == 3 and "window_points must be >= 1, got 0" in err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    lines = [ln.strip() for block in blocks for ln in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("spinreset ")]
    assert len(commands) >= 6
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: spinreset {shlex.join(argv)}")


def test_abbreviated_options_are_usage_errors(capsys):
    # argparse would take --point for --points, and --traj for --trajectories
    for argv in (["ensemble", "--protocol", "1", "--omega", "1.3", "--point", "61"],
                 ["ensemble", "--protocol", "1", "--omega", "1.3", "--traj", "10"],
                 ["stationary", "--protocol", "1", "--om", "1.3"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and argv[-2] in err


def test_oversized_grid_is_a_usage_error():
    for grid in ("0:1e308:1e-308", "0:1:5e-7"):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["sweep", "--protocol", "1", "--grid", grid])
        assert exc.value.code == 2


def test_shared_parser_carries_nothing_between_commands(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    first_build = len(built)
    assert first_build > 0
    sweep = ["sweep", "--protocol", "1", "--grid", "0.5,1.0,1.5"]
    assert run_cli(sweep + ["--output", str(tmp_path / "first")], capsys)[0] == 0
    code, out, _ = run_cli(["stationary", "--protocol", "2", "--n-spins", "51",
                            "--omega", "1.3"], capsys)
    assert code == 0 and out.startswith("omega_over_delta")
    code, out, err = run_cli(sweep + ["--dist", "bogus"], capsys)
    assert code == 2 and out == "" and "--dist" in err
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0 and out.startswith("usage: spinreset")
    assert run_cli(sweep + ["--output", str(tmp_path / "second")], capsys)[0] == 0
    assert len(built) == first_build  # every command reuses the parser built first
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
    # a default list is built again by each parse, so mutating one leaves the next alone
    assert cli.build_parser() is parser
    parser.parse_args(["finite-size", "--n-spins", "51"]).grid.append(9.0)
    assert parser.parse_args(["finite-size", "--n-spins", "51"]).grid == _parse_grid(
        "0.85:1.1:0.05")
    assert len(built) == first_build


@pytest.mark.parametrize("argv, engine", [
    (["ensemble", "--protocol", "1", "--omega", "1"], "run_ensemble"),
    (["sweep", "--protocol", "3", "--grid", "1.1"], "sweep_stationary"),
])
def test_out_of_memory_exits_3(argv, engine, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.24 GiB for an array")

    monkeypatch.setattr(cli, engine, exhausted)
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err == "error: out of memory: Unable to allocate 2.24 GiB for an array\n"


def test_ensemble_too_long_for_one_wait_block_exits_3(capsys, monkeypatch):
    # about 1e9 resets per trajectory: refused before any chunk draws a wait
    monkeypatch.setattr(trajectory_sim, "_chunk_sums", lambda *args: pytest.fail("a chunk ran"))
    code, _, err = run_cli(["ensemble", "--protocol", "1", "--omega", "1.1", "--dist", "chopped",
                            "--tmax", "2e-8", "--trajectories", "400", "--time", "10"], capsys)
    assert code == 3 and "about 1e+09 resets per trajectory" in err


@pytest.mark.parametrize("argv, code, name", [
    (["ensemble", "--protocol", "1", "--omega", "inf"], 3, "omega"),
    (["ensemble", "--protocol", "3", "--omega", "1.1", "--n-spins", "11", "--time", "inf"],
     3, "--time"),
    (["stationary", "--protocol", "2", "--omega", "1.3", "--delta", "inf"], 3, "delta"),
    (["ensemble", "--protocol", "1", "--omega", "1.1", "--delta", "inf"], 3, "delta"),
    (["ensemble", "--protocol", "1", "--omega", "1.1", "--gamma", "inf"], 3, "gamma"),
    (["ensemble", "--protocol", "1", "--omega", "1.1", "--dist", "chopped", "--tmax", "inf"],
     3, "t_max"),
    (["sweep", "--protocol", "1", "--grid", "1:inf:0.1"], 2, "grid"),
    (["sweep", "--protocol", "1", "--grid", "0.5,nan"], 2, "grid"),
    (["sweep", "--protocol", "3", "--grid", "1.1", "--time", "inf"], 3, "--time"),
    (["finite-size", "--n-spins", "5", "--grid", "1.1", "--time", "inf"], 3, "--time"),
    # finite inputs whose drive is not: omega/delta times delta, or the
    # exact path's highest frequency 4 * obar
    (["stationary", "--protocol", "1", "--omega", "1e10", "--delta", "1e300"], 3, "--delta"),
    (["sweep", "--protocol", "1", "--grid", "0.5:2.5:0.5", "--delta", "1e308"], 3, "delta"),
    (["sweep", "--protocol", "3", "--grid", "0.5:2.5:0.5", "--delta", "1e308"], 3, "delta"),
    (["stationary", "--protocol", "1", "--omega", "1.3", "--delta", "3e307"], 3, "delta"),
    (["stationary", "--protocol", "2", "--omega", "1.3", "--delta", "1e308"], 3, "delta"),
], ids=["omega", "time-finite-n", "stationary-delta", "ensemble-delta", "gamma", "tmax",
        "grid-range", "grid-list", "sweep-time", "finite-size-time", "stationary-omega-times-delta",
        "sweep-omega-times-delta", "sweep-mc-omega-times-delta", "stationary-4-obar-3e307",
        "stationary-4-obar-1e308"])
def test_non_finite_inputs_fail_with_a_reason(argv, code, name, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(analysis, "run_ensembles", calls.append)
    monkeypatch.setattr(cli, "run_ensemble", calls.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(argv, capsys)
    assert (got, out, calls) == (code, "", [])
    assert name in err and "finite" in err
    assert "Traceback" not in err and "Warning" not in err


OVERFLOWING_DRIVE = ["--omega", "1", "--delta", "1.7e308"]  # omega * delta is finite, obar is not


@pytest.mark.parametrize("n_spins", [[], ["--n-spins", "11"]], ids=["limit", "finite-n"])
@pytest.mark.parametrize("protocol", ["1", "2", "3"])
def test_ensemble_refuses_a_drive_whose_rabi_frequency_overflows(protocol, n_spins, capsys,
                                                                 monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_ensemble", calls.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(["ensemble", "--protocol", protocol, *OVERFLOWING_DRIVE,
                                 *n_spins, "--trajectories", "20", "--time", "5",
                                 "--points", "3"], capsys)
    assert (got, out, calls) == (3, "", [])
    assert "--omega 1 and --delta 1.7e+308" in err and "not finite" in err
    assert "Traceback" not in err and "Warning" not in err


def test_stationary_refuses_an_overflowing_drive_without_a_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(["stationary", "--protocol", "1", *OVERFLOWING_DRIVE], capsys)
    assert (got, out) == (3, "")
    assert "4 * obar is not finite" in err and "Warning" not in err


def test_mc_sweep_row_gives_the_reason_its_rabi_frequency_overflows(tmp_path, capsys):
    # the grid times delta is finite, so the sweep runs, and the engine fails each row
    stem = str(tmp_path / "sweep")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, err = run_cli(["sweep", "--protocol", "2", "--mc", "--grid", "0.5,1.0",
                               "--delta", "1.7e308", "--trajectories", "20", "--time", "5",
                               "--output", stem, "--format", "json"], capsys)
    assert got == 0 and "Traceback" not in err and "Warning" not in err
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["regime"] == ["failed", "failed"]
    reason = "ValueError: omega = 8.5e+307, delta = 1.7e+308: the Rabi frequency"
    assert [e.startswith(reason) for e in doc["row_errors"].values()] == [True, True]


def test_stationary_at_a_tiny_chopped_cutoff_prints_the_unevolved_state(capsys):
    # every wait ends by t_max = 1e-300, long before the spin turns: the
    # state stays |up>, density 1 and no correlation, to rounding
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["stationary", "--protocol", "1", "--omega", "1.1",
                                  "--dist", "chopped", "--tmax", "1e-300"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    row = {key: float(value) for key, value in zip(header[:7], rows[0])}
    assert row["density"] == pytest.approx(1.0, abs=1e-15)
    assert abs(row["correlation"]) < 1e-15 and abs(row["lqu"]) < 1e-15


@pytest.mark.parametrize("tmax, name", [("5e-324", "t_max"), ("3e-308", "gamma * t_max")])
def test_subnormal_chopped_cutoff_fails_with_a_reason(tmax, name, capsys):
    # gamma = 0.5: 5e-324 rounds gamma * t_max to 0, and 3e-308 makes it subnormal
    code, out, err = run_cli(["stationary", "--protocol", "1", "--omega", "1.1",
                              "--dist", "chopped", "--tmax", tmax], capsys)
    assert (code, out) == (3, "")
    assert f"{name} = " in err and "smallest normal float" in err and "Traceback" not in err


@pytest.mark.parametrize("point", [
    ["--omega", "0", "--n-spins", "51"],
    ["--omega", "2", "--dist", "chopped", "--tmax", "0.1"],
], ids=["undriven-finite-n", "cutoff-before-flip-window"])
def test_protocol_two_prints_protocol_one_where_no_reset_leaves_up(point, capsys):
    # the reset chain never leaves all-up here: protocol 2 is protocol 1
    _, p1, _ = run_cli(["stationary", "--protocol", "1", *point], capsys)
    code, p2, _ = run_cli(["stationary", "--protocol", "2", *point], capsys)
    assert code == 0 and p2 == p1
    assert parse_csv(p2)[1][0][7] == "closed-form"
    if "--n-spins" not in point:
        grid = ["--grid", "0.5,2", *point[2:]]
        _, p1, _ = run_cli(["sweep", "--protocol", "1", *grid], capsys)
        code, p2, _ = run_cli(["sweep", "--protocol", "2", *grid], capsys)
        assert code == 0 and p2 == p1


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


def test_ensemble_worker_and_rerun_determinism(tmp_path, capsys):
    base = ["ensemble", "--protocol", "2", "--omega", "1.3", "--trajectories", "600",
            "--time", "8", "--points", "9", "--seed", "5", "--format", "csv"]
    texts = []
    for tag, extra in (("w1", ["--workers", "1"]), ("w4", ["--workers", "4"]),
                       ("rerun", ["--workers", "1"])):
        stem = str(tmp_path / tag)
        assert run_cli(base + extra + ["--output", stem], capsys)[0] == 0
        texts.append((tmp_path / (tag + ".csv")).read_bytes())
    assert texts[0] == texts[1] == texts[2]


def test_workers_come_from_the_flag_alone(monkeypatch, capsys):
    # the environment is no second source of the worker count
    monkeypatch.setenv("SPINRESET_WORKERS", "0")
    assert run_cli(["sweep", "--protocol", "1", "--grid", "0.5"], capsys)[0] == 0


def test_source_reads_no_environment():
    # flags are the only settings source: no module under src/ reads os.environ or os.getenv
    src = Path(__file__).resolve().parents[1] / "src"
    names = ("environ", "environb", "getenv", "getenvb")
    found = [f"{path.relative_to(src)}:{node.lineno}"
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in names
             or isinstance(node, ast.Name) and node.id in names
             or isinstance(node, ast.alias) and node.name in names]
    assert found == []


def test_json_documents_keep_their_key_order(tmp_path, capsys):
    # the benchmark hashes JSON with sorted keys, so only this pins the layout
    stem = str(tmp_path / "ens")
    assert run_cli(["ensemble", "--protocol", "1", "--omega", "1.1", "--trajectories", "64",
                    "--time", "6", "--points", "4", "--window", "3:6",
                    "--output", stem, "--format", "json"], capsys)[0] == 0
    doc = json.loads((tmp_path / "ens.json").read_text())
    assert list(doc) == (["kind", "protocol", "dist", "n_spins", "n_trajectories", "columns"]
                         + list(SERIES_COLUMNS) + ["wall_time", "window", "manifest"])
    assert list(doc["window"]) == (["range"] + list(SERIES_COLUMNS[1:])
                                   + ["lqu", "lqu_stderr"])
    stem = str(tmp_path / "sweep")
    assert run_cli(["sweep", "--protocol", "1", "--grid", "0.5,1.5",
                    "--output", stem, "--format", "json"], capsys)[0] == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert list(doc) == (["kind", "protocol", "dist", "delta", "n_spins", "columns"]
                         + list(SWEEP_COLUMNS) + ["row_errors", "fits", "manifest"])
    assert list(doc["manifest"]) == ["command", "argv", "config", "seed", "version",
                                     "wall_time", "outputs"]


@pytest.mark.parametrize("argv", [
    ["stationary", "--protocol", "2", "--omega", "1.2"],
    ["ensemble", "--protocol", "1", "--omega", "1.1", "--trajectories", "64", "--time", "6",
     "--points", "4", "--window", "3:6"],
    ["sweep", "--protocol", "1", "--grid", "0.5,1.5"],
    ["finite-size", "--n-spins", "5,7", "--grid", "0.9", "--trajectories", "50",
     "--time", "20", "--window-points", "3"],
], ids=["stationary", "ensemble", "sweep", "finite-size"])
def test_json_tables_embed_the_manifest_before_its_outputs(argv, tmp_path, capsys):
    stem = str(tmp_path / "run")
    code, out, _ = run_cli(argv + ["--output", stem], capsys)
    assert code == 0
    listed = out.strip().splitlines()
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert listed == manifest["outputs"] + [stem + ".manifest.json"]
    tables = [path for path in listed[:-1] if path.endswith(".json")]
    assert len(tables) == (2 if argv[0] == "finite-size" else 1)
    for path in tables:
        # tables are written before the outputs are known
        assert json.loads(Path(path).read_text())["manifest"] == {**manifest, "outputs": []}


def test_stationary_files_and_manifest(tmp_path, capsys):
    stem = str(tmp_path / "st")
    code, out, _ = run_cli(["stationary", "--protocol", "2", "--omega", "1.2",
                            "--output", stem], capsys)
    assert code == 0
    assert out.strip().splitlines() == [stem + ".csv", stem + ".json", stem + ".manifest.json"]
    header, rows = parse_csv((tmp_path / "st.csv").read_text())
    assert header == list(SWEEP_COLUMNS) and rows[0][7] == "mixture"
    assert json.loads((tmp_path / "st.json").read_text())["regime"] == ["mixture"]
    manifest = json.loads((tmp_path / "st.manifest.json").read_text())
    assert manifest["command"] == "stationary"
    assert manifest["seed"] is None
    assert "note" in manifest["config"]
    assert manifest["outputs"] == [stem + ".csv", stem + ".json"]


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
    assert (tmp_path / "fit.json").read_text() == out
    manifest = json.loads((tmp_path / "fit.manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["outputs"] == [str(tmp_path / "fit.json")]

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
    # the fit reads only the sweep columns of a JSON table
    json_path.write_text(json.dumps({c: json_doc[c] for c in SWEEP_COLUMNS}))
    code, out3, _ = run_cli(["fit", "--input", str(json_path),
                             "--observable", "density"], capsys)
    assert (code, out3) == (0, out2)
    # mixed-sign offsets surface as a validation error, not a traceback
    code, _, err = run_cli(["fit", "--input", str(csv_path), "--observable", "density",
                            "--baseline", "0.6"], capsys)
    assert code == 3
    assert "change sign" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_skips_failed_rows(tmp_path, capsys, fmt):
    xs = 1.0 + np.linspace(0.02, 0.25, 9)
    dens = 0.5 + 0.3 * (xs - 1.0) ** 0.5
    failed = (float("nan"),) * 6 + (analysis.REGIME_FAILED,)

    def fit(rows, name, *extra):
        sweep = analysis.SweepResult.from_rows(analysis.ProtocolKind.UNCONDITIONAL_RESET,
                                               WaitingTime.poisson(0.5), 1.0, xs, rows)
        path = cli.write_table(sweep, fmt, str(tmp_path / name))[0]
        return run_cli(["fit", "--input", path, "--observable", "density", *extra], capsys)

    rows = [(d, 0.0, 0.0, 0.0, 0.0, 0.0, "monte-carlo") for d in dens]
    code, out, err = fit([failed if i == 4 else r for i, r in enumerate(rows)], "one")
    assert code == 0, err
    assert json.loads(out)["exponent"] == pytest.approx(0.5, abs=1e-8)
    # too few rows left: a reason, not a traceback
    code, _, err = fit([failed if i >= 4 else r for i, r in enumerate(rows)], "many")
    assert code == 3 and "did not fail" in err and "Traceback" not in err
    # a NaN in a row that did not fail names the row
    code, _, err = fit([(float("nan"),) + r[1:] if i == 4 else r for i, r in enumerate(rows)],
                       "nan")
    assert code == 3 and f"omega/delta={xs[4]}" in err
    code, _, err = fit(rows, "baseline", "--baseline", "nan")
    assert code == 3 and "baseline must be finite" in err


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


def test_finite_size_json_and_svg_outputs(tmp_path, capsys):
    stem = str(tmp_path / "fs")
    code, out, _ = run_cli([
        "finite-size", "--n-spins", "5,7", "--grid", "0.9,1.1",
        "--trajectories", "50", "--time", "20", "--window-points", "3",
        "--output", stem, "--format", "json", "--svg"], capsys)
    assert code == 0
    expected = [stem + "_N5.json", stem + "_N7.json", stem + ".density.svg"]
    assert out.strip().splitlines() == expected + [stem + ".manifest.json"]
    manifest = json.loads((tmp_path / "fs.manifest.json").read_text())
    assert manifest["command"] == "finite-size"
    assert manifest["outputs"] == expected
    assert json.loads((tmp_path / "fs_N7.json").read_text())["n_spins"] == 7
    assert "N=5" in (tmp_path / "fs.density.svg").read_text()


def test_finite_size_reports_failed_rows(capsys, monkeypatch):
    # a row of N = 5 fails while running; the table still prints
    run_ensembles = analysis.run_ensembles

    def failing(configs):
        if configs[0].n_spins == 5:
            raise ValueError(f"injected failure at omega {configs[0].params.omega}")
        return run_ensembles(configs)

    monkeypatch.setattr(analysis, "run_ensembles", failing)
    code, out, err = run_cli(["finite-size", "--n-spins", "5,7", "--grid", "1.1",
                              "--trajectories", "50", "--time", "20",
                              "--window-points", "3"], capsys)
    assert code == 0
    assert err.splitlines() == [
        "N = 5: row 0 (omega/delta=1.1) failed: "
        "ValueError: injected failure at omega 1.1"]
    assert "failed" in out and "monte-carlo" in out
    # the same report without the prefix for a single sweep
    code, _, err = run_cli(["sweep", "--protocol", "2", "--n-spins", "5", "--grid", "1.1",
                            "--trajectories", "50", "--time", "20"], capsys)
    assert code == 0
    assert err.startswith("row 0 (omega/delta=1.1) failed: ValueError")


def test_verify_command(capsys, monkeypatch):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert "all 10 checks passed" in out
    monkeypatch.setattr(cli, "_verify_checks",
                        lambda: [("doomed", False, "synthetic")])
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 4
    assert "1 of 1 checks failed" in out
