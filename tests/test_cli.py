"""End-to-end tests for the ``syncphase`` command-line interface.

Every test drives :func:`syncphase.cli.main` in-process and inspects the
CSV/JSON tables it writes, so the assertions cover argument plumbing,
formatting conventions, and exit codes as a user would see them.
"""
import hashlib
import json
import math
import random
import re
import runpy
import threading
import warnings

import numpy as np
import pytest

import syncphase.cli as cli
import syncphase.mc_harness as mc_harness
import syncphase.phase_pdf as phase_pdf
import syncphase.signal_model as signal_model
from syncphase import __version__, quadrature
from syncphase.cli import main
from syncphase.errors import OutOfRange, QuadratureNonConvergence
from syncphase.mc_harness import BatteryReport, McConfig, run_mc
from syncphase.signal_model import make_params, sigma_x_for_snr
from syncphase.spectral_estimator import reduced_dft_draws, theoretical_moments

SEED = 12


def no_pool():
    raise AssertionError("this table must stay on the calling thread")


def read_table(path):
    """Parse a CLI CSV table into (meta, columns, rows of strings)."""
    meta = {}
    columns = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def cell(columns, row, name):
    return row[columns.index(name)]


def fcell(columns, row, name):
    return float(cell(columns, row, name))


class TestGenEstimate:
    def test_round_trip_recovers_phase(self, tmp_path):
        record = tmp_path / "record.csv"
        table = tmp_path / "estimate.csv"
        assert main(["gen", "--n", "40", "--phi-deg", "60", "--seed", "3",
                     "--out", str(record)]) == 0
        assert main(["estimate", "--in", str(record),
                     "--out", str(table)]) == 0
        meta, columns, rows = read_table(table)
        assert meta["command"] == "estimate"
        assert meta["input"] == str(record)
        assert len(rows) == 1
        phase_deg = fcell(columns, rows[0], "phase_deg")
        phase_rad = fcell(columns, rows[0], "phase_rad")
        d = complex(fcell(columns, rows[0], "d_re"),
                    fcell(columns, rows[0], "d_im"))
        assert abs(phase_deg - 60.0) < 1e-9
        assert phase_deg == pytest.approx(math.degrees(phase_rad), rel=1e-12)
        assert np.angle(d) == pytest.approx(phase_rad, abs=1e-12)
        assert abs(d) == pytest.approx(1.0, abs=1e-9)

    def test_gen_writes_provenance_and_sample_rows(self, tmp_path):
        record = tmp_path / "record.csv"
        assert main(["gen", "--n", "20", "--seed", "7",
                     "--out", str(record)]) == 0
        lines = record.read_text().splitlines()
        assert lines[0] == f"# tool: syncphase {__version__}"
        assert "# command: gen" in lines
        assert "# seed: 7" in lines
        header_at = next(i for i, l in enumerate(lines)
                         if not l.startswith("#"))
        assert lines[header_at] == "n,sample"
        data = lines[header_at + 1:]
        assert len(data) == 20
        assert data[0].startswith("0,")

    def test_noiseless_gen_matches_cosine(self, tmp_path):
        record = tmp_path / "record.csv"
        assert main(["gen", "--n", "10", "--phi-deg", "0",
                     "--out", str(record)]) == 0
        values = [float(line.split(",")[1])
                  for line in record.read_text().splitlines()
                  if line and not line.startswith("#") and
                  not line.startswith("n,")]
        expected = np.cos(2.0 * np.pi * np.arange(10) / 10.0)
        assert np.allclose(values, expected, atol=1e-12)

    def test_estimate_requires_in_flag(self, capsys):
        assert main(["estimate"]) == 2
        assert "--in" in capsys.readouterr().err

    def test_estimate_unreadable_file_is_validation_error(self, tmp_path,
                                                          capsys):
        missing = tmp_path / "nope.csv"
        assert main(["estimate", "--in", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert str(missing) in err

    def test_estimate_directory_input_is_validation_error(self, tmp_path,
                                                         capsys):
        assert main(["estimate", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert str(tmp_path) in err
        assert "Traceback" not in err

    def test_estimate_empty_csv_names_the_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("# comment only\nn,sample\n")
        assert main(["estimate", "--in", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "EmptyInput" in err
        assert str(empty) in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_estimate_rejects_non_finite_sample(self, tmp_path, capsys, bad):
        record = tmp_path / "record.csv"
        rows = [f"{n},{math.cos(2.0 * math.pi * n / 10.0)!r}" for n in range(10)]
        rows[4] = f"4,{bad}"
        record.write_text("n,sample\n" + "\n".join(rows) + "\n")
        table = tmp_path / "estimate.csv"
        assert main(["estimate", "--in", str(record),
                     "--out", str(table)]) == 2
        err = capsys.readouterr().err
        assert "OutOfRange" in err
        assert "n=4" in err
        assert str(record) in err
        assert not table.exists()

    def test_estimate_rejects_overflowing_statistic(self, tmp_path, capsys):
        # A*N = 2e309 and the Goertzel sum overflow: no NaN row, exit 2
        record = tmp_path / "big.csv"
        rows = [f"{n},{1e308 * math.cos(4.0 * math.pi * n / 20.0)!r}"
                for n in range(20)]
        record.write_text("n,sample\n" + "\n".join(rows) + "\n")
        table = tmp_path / "estimate.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--in", str(record), "--amplitude",
                         "1e308", "--f0", "1", "--fs", "10",
                         "--out", str(table)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "OutOfRange" in err and "overflowed" in err
        assert not table.exists()


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["rmse", "--frobnicate", "1"]) == 1
        capsys.readouterr()

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert f"syncphase {__version__}" in capsys.readouterr().out

    def test_python_m_syncphase_runs_main(self, capsys, monkeypatch):
        # `python -m syncphase`, run in this interpreter
        monkeypatch.setattr("sys.argv", ["syncphase", "--version"])
        with pytest.raises(SystemExit) as done:
            runpy.run_module("syncphase", run_name="__main__")
        assert done.value.code == 0
        assert f"syncphase {__version__}" in capsys.readouterr().out

    def test_nonsynchronous_grid_is_validation_error(self, capsys):
        # n=7 at f0=1, fs=10 puts the tone between bins
        assert main(["gen", "--n", "7"]) == 2
        assert "NonSynchronous" in capsys.readouterr().err

    def test_bad_option_value_is_validation_error(self, capsys):
        assert main(["gen", "--n", "twelve"]) == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "mc"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_phase_is_validation_error(self, tmp_path, capsys,
                                                  command, bad):
        out = tmp_path / "t.csv"
        argv = [command, "--snr-db", "0", "--n", "20", "--phi-deg", bad,
                "--out", str(out)]
        if command == "mc":
            argv += ["--draws", "100"]
        assert main(argv) == 2
        assert "phase must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["rmse", "--n", ","], "--n"),
        (["efficiency", "--snr-db", "0", "--n", ""], "--n"),
        (["rmse", "--n", "20", "--snr-db", ","], "--snr-db"),
    ])
    def test_empty_list_is_validation_error(self, capsys, argv, flag):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"bad value for {flag}:" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gen", "--snr-db=-inf", "--n", "20"],
        ["mc", "--snr-db=-inf", "--n", "20", "--draws", "10"],
        ["pdf", "--snr-db=-inf", "--n", "20"],
        ["efficiency", "--snr-db=-inf", "--n", "20"],
        ["rmse", "--snr-db", "0,-inf", "--n", "20"],
        ["divergence", "--snr-db", "0,-inf", "--n", "20"],
        ["normality", "--snr-db", "0,-inf", "--n", "20", "--reps", "1",
         "--hz-draws", "20", "--hoeffding-draws", "10"],
    ])
    def test_minus_inf_snr_is_validation_error(self, tmp_path, capsys, argv):
        # -inf dB is SNR 0, not a noiseless record
        out = tmp_path / "t.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "snr must be > 0" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_minus_inf_snr_from_config_is_validation_error(self, tmp_path,
                                                           capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"snr_db": "-inf", "n": 20}))
        assert main(["gen", "--config", str(config)]) == 2
        assert "snr must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["rmse", "--f0", "1e400", "--fs", "1e401", "--snr-db", "0",
         "--n", "20"],                                    # f0 past the floats
        ["gen", "--f0", "1e400", "--fs", "1e401", "--n", "20"],
    ])
    def test_overflow_is_validation_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("syncphase: overflow:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, name", [
        (["rmse", "--f0", "1e400", "--fs", "1e401", "--snr-db", "0",
          "--n", "20"], "f0"),
        (["gen", "--f0", "1e306", "--fs", "1e309", "--n", "1000"], "fs"),
    ])
    def test_overflow_names_the_frequency(self, capsys, argv, name):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"syncphase: overflow: {name} '")
        assert "too large for a float" in err

    @pytest.mark.parametrize("argv", [
        ["rmse", "--amplitude", "1e-200", "--snr-db", "3000", "--n", "20"],
        ["mc", "--amplitude", "1e-200", "--snr-db", "3000", "--n", "20",
         "--draws", "10"],
    ])
    def test_noise_std_underflow_is_validation_error(self, capsys, argv):
        # a finite SNR whose noise std underflows to 0 is not noiseless
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "underflows to 0" in err
        assert err.count("\n") == 1

    def test_snr_whose_double_overflows_keeps_its_noise(self, capsys):
        # 3080 dB: 2*SNR overflows; the row was the noiseless NA row
        [row] = _json_rows(capsys, ["rmse", "--snr-db", "3080", "--n", "20"])
        assert row["regime"] == "Linear"
        assert row["rmse_analytic_deg"] == pytest.approx(
            row["rmse_linear_approx_deg"], rel=1e-6, abs=0.0)
        assert row["rmse_analytic_deg"] > 0.0

    def test_overflowing_record_length_snr_product_stays_linear(self, capsys):
        # at N=1000, N*SNR overflows: the linear column read 0.0 and the
        # cell was called Transitional
        rows = _json_rows(capsys, ["rmse", "--snr-db", "3060",
                                   "--n", "20,1000"])
        assert [row["regime"] for row in rows] == ["Linear", "Linear"]
        for row in rows:
            assert row["rmse_linear_approx_deg"] == pytest.approx(
                row["rmse_analytic_deg"], rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("command, columns", [
        ("rmse", ("rmse_floor_deg", "crlb_deg2", "efficiency")),
        ("efficiency", ("crlb_deg2", "efficiency")),
    ])
    @pytest.mark.parametrize("sigma_p_deg", ["1560", "1600", "1e5"])
    def test_underflowing_beta_p_squared_gives_infinite_bounds(
            self, capsys, command, columns, sigma_p_deg):
        # beta_p^2 is subnormal at 1560 deg and 0 at 1600 deg, which ended
        # in a ZeroDivisionError traceback; beta_p itself is 0 at 1e5 deg
        [row] = _json_rows(capsys, [command, "--snr-db", "0", "--sigma-p-deg",
                                    sigma_p_deg, "--n", "20"])
        for name in columns:  # strict JSON writes infinity as "inf"
            assert row[name] == "inf"
        assert row["rmse_analytic_deg"] == pytest.approx(
            math.degrees(math.pi / math.sqrt(3.0)), rel=1e-12)

    @pytest.mark.parametrize("command", ["rmse", "efficiency"])
    def test_underflowing_beta_p_prints_the_uniform_row(self, capsys,
                                                        command):
        # beta_p itself is 0 at 1e5 deg; the table used to abort with
        # "OutOfRange: beta_p must be in (0, 1], got 0.0".  Its rows are
        # those of 1600 deg, where only beta_p^2 is 0
        def rows(sigma_p_deg):
            return _json_rows(capsys, [command, "--snr-db", "0",
                                       "--sigma-p-deg", sigma_p_deg,
                                       "--n", "20,100"])
        uniform, at_1600 = rows("1e5"), rows("1600")
        for row in uniform + at_1600:
            row.pop("sigma_p_deg")
        assert uniform == at_1600
        if command == "rmse":
            assert [row["regime"] for row in uniform] == \
                ["UniformSaturated"] * 2
            # the other cells of a grid keep their rows
            assert rows("1,1e5")[:2] == rows("1")

    # beta_p is 0 at 1e5 deg; at 2190 deg it is subnormal and sigma/beta_p
    # overflows, which used to exit with the node builder's message
    @pytest.mark.parametrize("sigma_p_deg", ["1e5", "2190"])
    def test_underflowing_beta_p_divergence_names_the_flag(self, capsys,
                                                           sigma_p_deg):
        assert main(["divergence", "--snr-db", "0,20", "--sigma-p-deg",
                     sigma_p_deg, "--n", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--sigma-p-deg {float(sigma_p_deg)!r}" in captured.err
        assert "beta_p" not in captured.err

    def test_tiny_amplitude_is_a_pure_scale(self, tmp_path):
        # A^2 and sigma^2 both underflow at A = 1e-200; their ratio does not
        tiny, unit = tmp_path / "tiny.csv", tmp_path / "unit.csv"
        argv = ["rmse", "--snr-db", "0", "--n", "20"]
        assert main(argv + ["--amplitude", "1e-200", "--out", str(tiny)]) == 0
        assert main(argv + ["--out", str(unit)]) == 0
        _, columns, rows = read_table(tiny)
        _, _, unit_rows = read_table(unit)
        for name in ("rmse_analytic_deg", "crlb_deg2", "efficiency"):
            assert fcell(columns, rows[0], name) == pytest.approx(
                fcell(columns, unit_rows[0], name), rel=1e-12)

    @pytest.mark.parametrize("argv", [["gen"], ["rmse"], ["pdf"],
                                      ["mc", "--draws", "10"]])
    def test_snr_db_past_the_float_range_names_the_flag(self, capsys, argv):
        # 10**(snr_db/10) overflows above 3082.5 dB; the message was
        # "overflow: (34, 'Numerical result out of range')"
        assert main(argv + ["--snr-db", "4000", "--n", "20"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("syncphase: OutOfRange: --snr-db 4000.0 ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["rmse", "--sigma-p-deg", "0"],   # at 1 deg a diagnostic is text
        ["efficiency", "--sigma-p-deg", "1"],
        ["divergence", "--sigma-p-deg", "1"],
        ["pdf", "--sigma-p-deg", "1", "--points", "7"],
    ])
    def test_huge_amplitude_is_a_pure_scale(self, capsys, argv):
        # A^2 and sigma^2 overflow at A = 1e155, which ended in "overflow:
        # (34, 'Numerical result out of range')" with exit 2
        argv = argv + ["--snr-db", "0", "--n", "20"]
        unit = _json_rows(capsys, argv)
        for amplitude in ("1e155", "1e300"):
            huge = _json_rows(capsys, argv + ["--amplitude", amplitude])
            assert len(huge) == len(unit)
            for row, want in zip(huge, unit):
                assert row == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("command", ["rmse", "efficiency"])
    def test_overflowing_sigma_p_square_prints_the_uniform_row(self, capsys,
                                                               command):
        # sigma_p**2 overflows past 1.34e154 rad, which ended in "overflow:
        # (34, 'Numerical result out of range')"; beta_p is 0 there, as at
        # 1e5 deg
        def rows(sigma_p_deg):
            found = _json_rows(capsys, [command, "--snr-db", "0",
                                        "--sigma-p-deg", sigma_p_deg,
                                        "--n", "20,100"])
            for row in found:
                row.pop("sigma_p_deg")
            return found
        assert rows("1e160") == rows("1e5")

    @pytest.mark.parametrize("name, argv", [
        ("pdf_value", ["pdf", "--snr-db", "0", "--n", "20"]),
        ("run_convergence_battery", ["normality", "--snr-db", "0",
                                     "--n", "20"]),
    ])
    def test_out_of_memory_is_validation_error(self, monkeypatch, capsys,
                                               name, argv):
        # stands in for a huge --points or --hz-draws, which would really
        # try to allocate
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(cli, name, exhaust)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "syncphase: out of memory: Unable to allocate 745. GiB\n"

    @pytest.mark.filterwarnings("error")  # no overflow warning either
    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "20", "--amplitude", "1e308", "--snr-db", "0"],
        ["mc", "--amplitude", "1e306", "--snr-db", "inf", "--sigma-p-deg",
         "1", "--n", "1000", "--draws", "10"],
    ])
    def test_non_finite_result_is_validation_error(self, tmp_path, capsys,
                                                   argv):
        out = tmp_path / "t.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("syncphase: OutOfRange:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_missing_required_option_is_validation_error(self, capsys):
        assert main(["mc", "--snr-db", "0", "--n", "20"]) == 2
        assert "--draws" in capsys.readouterr().err

    def test_leading_negative_list_values_parse(self, tmp_path):
        table = tmp_path / "t.csv"
        assert main(["rmse", "--snr-db", "-20,0,20", "--n", "100",
                     "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        assert [fcell(columns, r, "snr_db") for r in rows] == [-20.0, 0.0,
                                                               20.0]

    def test_numeric_failure_maps_to_exit_3(self, monkeypatch, capsys):
        # a panel budget no integral meets: the quadrature itself raises
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
        assert main(["efficiency", "--snr-db", "0", "--sigma-p-deg", "1",
                     "--n", "20"]) == 3
        assert "QuadratureNonConvergence" in capsys.readouterr().err


class TestOutputConventions:
    def test_csv_output_is_byte_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["rmse", "--snr-db", "0,10", "--sigma-p-deg", "1",
                "--n", "20,100"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirrors_csv(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        argv = ["rmse", "--snr-db", "inf,20", "--n", "50"]
        assert main(argv + ["--out", str(csv_path)]) == 0
        assert main(argv + ["--json", "--out", str(json_path)]) == 0
        meta, columns, rows = read_table(csv_path)
        doc = json.loads(json_path.read_text())
        assert doc["provenance"]["tool"] == f"syncphase {__version__}"
        assert doc["provenance"]["command"] == "rmse"
        assert doc["columns"] == columns
        assert len(doc["rows"]) == len(rows) == 2
        for csv_row, json_row in zip(rows, doc["rows"]):
            for name in columns:
                text = cell(columns, csv_row, name)
                value = json_row[name]
                if text == "NA":
                    assert value is None
                elif isinstance(value, float):
                    assert float(text) == value
                else:
                    assert text == str(value)

    def test_default_output_goes_to_stdout(self, capsys):
        assert main(["pdf", "--snr-db", "0", "--n", "20",
                     "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"# tool: syncphase {__version__}\n")
        assert "theta_deg,g_value" in out

    def test_config_supplies_defaults_but_flags_win(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"snr_db": "20", "sigma_p_deg": "1", "n": "100"}))
        table = tmp_path / "t.csv"
        assert main(["rmse", "--config", str(config), "--snr-db", "0",
                     "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        assert len(rows) == 1
        assert fcell(columns, rows[0], "snr_db") == 0.0     # flag beat config
        assert fcell(columns, rows[0], "sigma_p_deg") == 1.0
        assert fcell(columns, rows[0], "n") == 100

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"snr-db": "20", "n": "100"}))
        table = tmp_path / "t.csv"
        assert main(["rmse", "--config", str(config),
                     "--out", str(table)]) == 2
        assert "snr-db" in capsys.readouterr().err
        assert not table.exists()

    @pytest.mark.parametrize("data, flag", [
        ({"n": 20.7}, "--n"),
        ({"n": 20, "seed": True}, "--seed"),
        ({"n": 20, "snr_db": True}, "--snr-db"),
        ({"n": 20, "json_output": "yes"}, "--json"),
    ])
    def test_config_values_are_type_checked(self, tmp_path, capsys, data,
                                            flag):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        assert main(["gen", "--config", str(config)]) == 2
        assert f"bad value for {flag}:" in capsys.readouterr().err

    def test_config_list_is_a_list_option(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"snr_db": [20, 0], "n": [100]}))
        assert main(["rmse", "--config", str(config), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["snr_db"] for row in rows] == [0.0, 20.0]
        config.write_text(json.dumps({"snr_db": [0, "x"], "n": [100]}))
        assert main(["rmse", "--config", str(config)]) == 2
        assert "bad value for --snr-db:" in capsys.readouterr().err

    def test_config_integral_float_is_an_integer(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 20.0, "seed": 7}))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["gen", "--config", str(config), "--out", str(a)]) == 0
        assert main(["gen", "--n", "20", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_can_select_json(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"json_output": True}))
        table = tmp_path / "t.json"
        assert main(["rmse", "--config", str(config), "--snr-db", "inf,20",
                     "--n", "50", "--out", str(table)]) == 0
        doc = json.loads(table.read_text())
        assert doc["provenance"]["command"] == "rmse"
        assert len(doc["rows"]) == 2

    def test_gen_json_mirrors_csv(self, tmp_path):
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        argv = ["gen", "--n", "10", "--snr-db", "0", "--seed", "1"]
        assert main(argv + ["--out", str(csv_path)]) == 0
        assert main(argv + ["--json", "--out", str(json_path)]) == 0
        meta, columns, rows = read_table(csv_path)
        doc = json.loads(json_path.read_text())
        assert doc["columns"] == columns == ["n", "sample"]
        assert doc["provenance"]["command"] == "gen"
        assert doc["provenance"]["seed"] == 1
        assert [[r["n"], r["sample"]] for r in doc["rows"]] == \
            [[int(n), float(v)] for n, v in rows]

    @pytest.mark.parametrize("command", [
        "gen", "estimate", "rmse", "pdf", "mc", "divergence", "efficiency",
        "normality"])
    def test_help_lists_exactly_the_table(self, capsys, command):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        _, _, table = cli._COMMANDS[command]
        flags = {opt.flag for opt in table.values()}
        usage = out.split("\n\n")[0]
        assert set(re.findall(r"\[(--[a-z][a-z0-9-]*)", usage)) == \
            flags | {"--config"}
        for key, opt in table.items():
            if opt.cast is not cli._cast_flag:
                assert f"{opt.flag} {key.upper()}" in out

    def test_missing_config_file_is_validation_error(self, tmp_path, capsys):
        assert main(["rmse", "--config", str(tmp_path / "nope.json"),
                     "--n", "20"]) == 2
        assert "bad config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["rmse", "--n", "20"],
                                      ["gen", "--n", "20"]])
    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_is_validation_error(self, tmp_path, capsys, argv,
                                                where):
        out = tmp_path if where == "directory" else tmp_path / "no" / "t.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("syncphase: cannot write output")
        assert str(out) in err
        assert len(err.splitlines()) == 1

    def test_unwritable_hist_out_fails_before_the_table(self, tmp_path,
                                                        capsys):
        # the histogram is written first, so nothing reaches stdout
        hist = tmp_path / "no" / "hist.csv"
        assert main(["mc", "--snr-db", "10", "--n", "20", "--draws", "100",
                     "--hist-out", str(hist)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("syncphase: cannot write output")
        assert str(hist) in err

    def test_non_object_config_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        assert main(["rmse", "--config", str(config), "--n", "20"]) == 2
        assert "JSON object" in capsys.readouterr().err


class TestRmseCommand:
    COLUMNS = ["snr_db", "sigma_p_deg", "n", "rmse_analytic_deg",
               "rmse_linear_approx_deg", "rmse_floor_deg", "crlb_deg2",
               "efficiency", "regime", "diagnostics"]

    def test_grid_rows_sorted_with_stable_schema(self, tmp_path):
        table = tmp_path / "t.csv"
        assert main(["rmse", "--snr-db", "20,0", "--sigma-p-deg", "1,0",
                     "--n", "100,20", "--out", str(table)]) == 0
        meta, columns, rows = read_table(table)
        assert columns == self.COLUMNS
        assert "grid-sha256" in meta
        assert len(rows) == 8
        keys = [(fcell(columns, r, "snr_db"),
                 fcell(columns, r, "sigma_p_deg"),
                 fcell(columns, r, "n")) for r in rows]
        assert keys == sorted(keys)
        assert keys[0] == (0.0, 0.0, 20.0)
        assert keys[-1] == (20.0, 1.0, 100.0)

    def test_noiseless_row_degrades_to_na(self, tmp_path):
        table = tmp_path / "t.csv"
        assert main(["rmse", "--snr-db", "inf", "--n", "20",
                     "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        row = rows[0]
        assert cell(columns, row, "rmse_analytic_deg") == "NA"
        assert cell(columns, row, "crlb_deg2") == "NA"
        assert cell(columns, row, "efficiency") == "NA"
        assert cell(columns, row, "regime") == "NA"
        assert cell(columns, row, "diagnostics").startswith("DegenerateSigma")

    def test_floor_diagnostic_flags_floor_dominated_cells(self, tmp_path):
        table = tmp_path / "t.csv"
        assert main(["rmse", "--snr-db", "20", "--sigma-p-deg", "0,1",
                     "--n", "100", "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        assert cell(columns, rows[0], "diagnostics") == ""
        assert cell(columns, rows[1],
                    "diagnostics").startswith("floor_generic_deg=")

    def test_high_snr_rows_track_linear_approximation(self, tmp_path):
        # sigma_p = 0, N = 1000: the exact RMSE approaches the small-error
        # 1/sqrt(2 N SNR) law from above as the SNR grows
        table = tmp_path / "t.csv"
        assert main(["rmse", "--snr-db", "0,10,20,30", "--n", "1000",
                     "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        gaps = []
        for row in rows:
            rmse = fcell(columns, row, "rmse_analytic_deg")
            linear = fcell(columns, row, "rmse_linear_approx_deg")
            assert cell(columns, row, "regime") == "Linear"
            assert rmse > linear
            gaps.append((rmse - linear) / linear)
        assert all(gap < 1e-3 for gap in gaps)
        assert gaps == sorted(gaps, reverse=True)

    def test_rmse_collapses_onto_record_length_snr_product(self, tmp_path):
        # with sigma_p = 0 the density depends on N*SNR only, so rows with
        # equal products coincide
        table = tmp_path / "t.csv"
        assert main(["rmse", "--snr-db", "0", "--n", "1000",
                     "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        low = fcell(columns, rows[0], "rmse_analytic_deg")
        assert main(["rmse", "--snr-db", "10", "--n", "100",
                     "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        high = fcell(columns, rows[0], "rmse_analytic_deg")
        assert low == pytest.approx(high, rel=1e-12)

    def test_phase_noise_floor_onset_at_high_snr(self, tmp_path):
        # N=1e5 at 50 dB: a 0.01-degree jitter barely lifts the RMSE while
        # a 0.1-degree jitter dominates it
        table = tmp_path / "t.csv"
        assert main(["rmse", "--snr-db", "50", "--sigma-p-deg", "0.01,0.1",
                     "--n", "100000", "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        ratios = [fcell(columns, r, "rmse_analytic_deg")
                  / fcell(columns, r, "rmse_linear_approx_deg")
                  for r in rows]
        assert ratios[0] - 1.0 < 0.01
        assert ratios[1] - 1.0 > 0.10


def _report_for(snr_db, sigma_p_deg, n):
    """The library's report for the params the CLI builds from its defaults."""
    sigma_x = sigma_x_for_snr(1.0, 10.0 ** (snr_db / 10.0))
    params = make_params(1.0, "1.0", "10.0", sigma_additive=sigma_x,
                         sigma_phase=math.radians(sigma_p_deg), n_samples=n)
    return phase_pdf.error_report(theoretical_moments(params))


def _json_rows(capsys, argv):
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)["rows"]


# (snr_db, sigma_p_deg, n): spreads sigma/beta_p of 0.22, 0.010 and 1.1e-4
# rad, so both quadrature branches (spread >= and < NARROW_SPREAD)
REPORT_CELLS = [(0.0, 0.0, 20), (20.0, 1.0, 100), (40.0, 0.2, 10000)]


@pytest.mark.parametrize("snr_db, sigma_p_deg, n", REPORT_CELLS)
def test_rmse_row_is_the_error_report(capsys, snr_db, sigma_p_deg, n):
    [row] = _json_rows(capsys, ["rmse", "--snr-db", repr(snr_db),
                                "--sigma-p-deg", repr(sigma_p_deg),
                                "--n", str(n)])
    report = _report_for(snr_db, sigma_p_deg, n)
    assert row["rmse_analytic_deg"] == math.degrees(report.rmse_analytic)
    assert row["rmse_linear_approx_deg"] == \
        math.degrees(report.rmse_linear_approx)
    assert row["rmse_floor_deg"] == math.degrees(report.rmse_floor_approx)
    assert row["crlb_deg2"] == report.crlb * math.degrees(1.0) ** 2
    assert row["efficiency"] == report.efficiency
    assert row["regime"] == report.regime.value


@pytest.mark.parametrize("snr_db, sigma_p_deg, n", REPORT_CELLS)
def test_rmse_generic_floor_is_root_crlb(capsys, snr_db, sigma_p_deg, n):
    # sqrt((1 - beta_p^2 + 1/SNR)/(beta_p^2 N)), shown where phase noise is
    # present but does not dominate; the first cell has none
    [row] = _json_rows(capsys, ["rmse", "--snr-db", repr(snr_db),
                                "--sigma-p-deg", repr(sigma_p_deg),
                                "--n", str(n)])
    report = _report_for(snr_db, sigma_p_deg, n)
    generic = math.degrees(math.sqrt(report.crlb))
    assert row["diagnostics"] == \
        (f"floor_generic_deg={generic!r}" if sigma_p_deg > 0 else "")


@pytest.mark.parametrize("snr_db, sigma_p_deg, n", REPORT_CELLS)
def test_efficiency_row_is_the_error_report(capsys, snr_db, sigma_p_deg, n):
    [row] = _json_rows(capsys, ["efficiency", "--snr-db", repr(snr_db),
                                "--sigma-p-deg", repr(sigma_p_deg),
                                "--n", str(n)])
    report = _report_for(snr_db, sigma_p_deg, n)
    assert row["rmse_analytic_deg"] == math.degrees(report.rmse_analytic)
    assert row["crlb_deg2"] == report.crlb * math.degrees(1.0) ** 2
    assert row["efficiency"] == report.efficiency


def test_report_cells_cover_both_quadrature_branches():
    spreads = [math.sqrt(_report_for(*c).crlb) for c in REPORT_CELLS]
    assert any(s >= phase_pdf.NARROW_SPREAD for s in spreads)
    assert any(s < phase_pdf.NARROW_SPREAD for s in spreads)


def _rmse_rows(argv, tmp_path, name="t.csv"):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    _, columns, rows = read_table(out)
    return columns, rows


def _cell_alone(tmp_path, snr_db, sigma_p_deg, n):
    _, [row] = _rmse_rows(["rmse", "--snr-db", snr_db, "--sigma-p-deg",
                           sigma_p_deg, "--n", n], tmp_path, "one.csv")
    return row


class TestRmseTableInLockstep:
    @pytest.mark.parametrize("budget", [None, 16])
    def test_na_rows_leave_the_other_rows_their_bytes(self, tmp_path,
                                                      monkeypatch, budget):
        # SNR = inf with sigma_p = 0 is DegenerateSigma; a panel budget of 16
        # stops the (30 dB, 1 deg, N = 20) cell alone (its final panel
        # count is 17, the others' at most 15)
        grid = [(snr, sp, n) for snr in ("-10", "0", "30", "inf")
                for sp in ("0", "1") for n in ("20", "100")]
        alone = {(float(snr), float(sp), int(n)): _cell_alone(tmp_path, snr,
                                                              sp, n)
                 for snr, sp, n in grid}
        if budget is not None:
            monkeypatch.setattr(quadrature, "_MAX_PANELS", budget)
        columns, rows = _rmse_rows(
            ["rmse", "--snr-db", "-10,0,30,inf", "--sigma-p-deg", "0,1",
             "--n", "20,100"], tmp_path)
        assert len(rows) == len(grid)
        na = {}
        for row in rows:
            key = (fcell(columns, row, "snr_db"),
                   fcell(columns, row, "sigma_p_deg"),
                   int(cell(columns, row, "n")))
            if cell(columns, row, "rmse_analytic_deg") == "NA":
                na[key] = cell(columns, row, "diagnostics").split(":")[0]
            else:
                assert row == alone[key], key
        want = {(math.inf, 0.0, 20): "DegenerateSigma",
                (math.inf, 0.0, 100): "DegenerateSigma"}
        if budget is not None:
            want[30.0, 1.0, 20] = "QuadratureNonConvergence"
            assert alone[30.0, 1.0, 20][3] != "NA"
        assert na == want

    def test_efficiency_raises_the_first_failing_cell_in_sorted_order(
            self, capsys, monkeypatch):
        # final panel counts 12, 14, 18, 18 at 0 dB, 1 deg: a budget of 13
        # fails N = 100, 1000 and 10000, and N = 100 names the error
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 13)
        with pytest.raises(QuadratureNonConvergence) as first:
            _report_for(0.0, 1.0, 100)
        capsys.readouterr()
        assert main(["efficiency", "--snr-db", "0", "--sigma-p-deg", "1",
                     "--n", "10000,1000,100,20"]) == 3
        assert capsys.readouterr().err == \
            f"syncphase: QuadratureNonConvergence: {first.value}\n"

    # a grid command builds every point's parameters before any cell:
    # N = 25 is not synchronous at fs = 10 f0, and 4000 dB overflows a float
    @pytest.mark.parametrize("argv, err", [
        (["rmse", "--snr-db", "0", "--n", "20,25"], "NonSynchronous: "),
        (["efficiency", "--snr-db", "0", "--n", "20,25"], "NonSynchronous: "),
        # the N = 20 cell's DegenerateSigma is never reached
        (["efficiency", "--snr-db", "inf", "--sigma-p-deg", "0",
          "--n", "25,20"], "NonSynchronous: "),
        (["divergence", "--snr-db", "0,4000", "--n", "20"],
         "OutOfRange: --snr-db 4000.0 is too large"),
    ], ids=["rmse", "efficiency", "efficiency-noiseless", "divergence"])
    def test_a_parameter_error_comes_before_any_cell(self, capsys,
                                                     monkeypatch, argv, err):
        calls = []

        def recorder(func):
            def recorded(*args, **kwargs):
                calls.append(func.__name__)
                return func(*args, **kwargs)
            return recorded

        for name in ("error_reports", "divergence_row"):
            monkeypatch.setattr(cli, name, recorder(getattr(cli, name)))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("syncphase: " + err)
        assert calls == []

    def test_a_grid_of_several_groups_has_the_bytes_of_one(self, tmp_path,
                                                           monkeypatch):
        argv = ["rmse", "--snr-db", "-50,-10,20,60", "--sigma-p-deg",
                "0,2,20", "--n", "20,10000"]
        one = tmp_path / "one.csv"
        assert main(argv + ["--out", str(one)]) == 0
        calls = []

        def counting(f, a, b, **kwargs):
            calls.append(len(a))
            return quadrature.integrate(f, a, b, **kwargs)

        monkeypatch.setattr(phase_pdf, "integrate", counting)
        monkeypatch.setattr(phase_pdf, "_CELLS_PER_LOCKSTEP", 5)
        grouped = tmp_path / "grouped.csv"
        assert main(argv + ["--out", str(grouped)]) == 0
        assert calls == [5, 5, 5, 5, 4]
        assert grouped.read_bytes() == one.read_bytes()


class TestPdfCommand:
    def test_density_table_peaks_at_true_phase(self, tmp_path):
        table = tmp_path / "t.csv"
        assert main(["pdf", "--snr-db", "0", "--sigma-p-deg", "1",
                     "--phi-deg", "60", "--n", "20", "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        assert columns == ["theta_deg", "g_value"]
        assert len(rows) == 721
        theta = np.array([fcell(columns, r, "theta_deg") for r in rows])
        g = np.array([fcell(columns, r, "g_value") for r in rows])
        assert theta[0] == -180.0 and theta[-1] == 180.0
        assert np.all(g >= 0.0)
        assert theta[np.argmax(g)] == pytest.approx(60.0, abs=0.5)
        # periodic endpoints and unit mass on the default half-degree grid
        assert g[0] == g[-1]
        mass = np.trapezoid(g, np.radians(theta))
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_custom_window_and_point_count(self, tmp_path):
        table = tmp_path / "t.csv"
        assert main(["pdf", "--snr-db", "0", "--n", "20",
                     "--theta-start-deg", "0", "--theta-stop-deg", "90",
                     "--points", "91", "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        theta = [fcell(columns, r, "theta_deg") for r in rows]
        assert theta == pytest.approx(list(np.linspace(0.0, 90.0, 91)))

    def test_degenerate_point_count_is_validation_error(self, capsys):
        assert main(["pdf", "--snr-db", "0", "--n", "20",
                     "--points", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("bound", [["--theta-stop-deg", "inf"],
                                       ["--theta-start-deg=-inf"],
                                       ["--theta-start-deg", "nan"],
                                       # finite bounds whose span overflows
                                       ["--points", "3",
                                        "--theta-start-deg=-1e308",
                                        "--theta-stop-deg", "1e308"]])
    def test_non_finite_window_is_validation_error(self, capsys, bound):
        assert main(["pdf", "--snr-db", "0", "--n", "20"] + bound) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("stop", ["10", "-5"])
    def test_empty_window_is_validation_error(self, capsys, stop):
        assert main(["pdf", "--snr-db", "0", "--n", "20",
                     "--theta-start-deg", "10", "--theta-stop-deg", stop]) == 2
        assert "must exceed --theta-start-deg" in capsys.readouterr().err


class TestMcCommand:
    def test_row_matches_library_run(self, tmp_path):
        table = tmp_path / "t.csv"
        assert main(["mc", "--snr-db", "0", "--n", "20", "--phi-deg", "60",
                     "--draws", "2000", "--seed", str(SEED),
                     "--out", str(table)]) == 0
        params = make_params(
            amplitude=1.0, f0=1.0, fs=10.0, phase=math.radians(60.0),
            sigma_additive=sigma_x_for_snr(1.0, 1.0), sigma_phase=0.0,
            n_samples=20)
        report = run_mc(McConfig(params=params, n_draws=2000,
                                 master_seed=SEED))
        _, columns, rows = read_table(table)
        row = rows[0]
        assert fcell(columns, row, "n_draws") == 2000
        assert fcell(columns, row, "rmse_empirical_deg") == \
            math.degrees(report.rmse_empirical)
        assert fcell(columns, row, "bias_empirical_deg") == \
            math.degrees(report.bias_empirical)
        assert fcell(columns, row, "mean_d_re") == report.mean_d.real
        assert fcell(columns, row, "mean_d_im") == report.mean_d.imag
        assert fcell(columns, row, "var_d") == report.var_d
        assert fcell(columns, row, "mc_standard_error_deg") == \
            math.degrees(report.mc_standard_error)

    @pytest.mark.parametrize("argv", [
        ["mc", "--draws", "100"],
        ["normality", "--reps", "1", "--hz-draws", "20",
         "--hoeffding-draws", "10"],
    ])
    def test_subnormal_scale_is_validation_error(self, tmp_path, capsys,
                                                 argv):
        # A*N = 2e-309 is subnormal: was "a bin statistic overflowed:
        # amplitude, noise or record length too large"
        out = tmp_path / "t.csv"
        assert main(argv + ["--amplitude", "1e-310", "--snr-db", "0",
                            "--n", "20", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("syncphase: OutOfRange: A*N = ")
        assert "too small" in err and err.count("\n") == 1
        assert not out.exists()

    def test_histogram_side_table(self, tmp_path):
        table = tmp_path / "t.csv"
        hist = tmp_path / "hist.csv"
        assert main(["mc", "--snr-db", "0", "--n", "20", "--draws", "5000",
                     "--seed", "1", "--out", str(table),
                     "--hist-out", str(hist)]) == 0
        meta, columns, rows = read_table(hist)
        assert meta["command"] == "mc-hist"
        assert columns == ["theta_deg", "count"]
        assert len(rows) == 720
        centers = [fcell(columns, r, "theta_deg") for r in rows]
        counts = [int(cell(columns, r, "count")) for r in rows]
        assert centers[0] == pytest.approx(-179.75, abs=1e-9)
        assert centers[-1] == pytest.approx(179.75, abs=1e-9)
        assert np.diff(centers) == pytest.approx(0.5, abs=1e-9)
        assert sum(counts) == 5000

    def test_histogram_bytes_match_the_generic_rendering(self, tmp_path,
                                                         monkeypatch):
        # The θ column is formatted once per process; the table must have
        # the bytes that _write_table gives the report's rows through _fmt,
        # and a CSV run must not see a JSON run's cells, or the reverse.
        write_table, reports, calls = cli._write_table, [], []

        def record_run(config):
            reports.append(run_mc(config))
            return reports[-1]

        def record_write(*args):
            calls.append(args)
            write_table(*args)

        monkeypatch.setattr(cli, "run_mc", record_run)
        monkeypatch.setattr(cli, "_write_table", record_write)
        cli._hist_thetas.cache_clear()
        for i, fmt in enumerate(["csv", "json", "csv", "json"]):
            hist = tmp_path / f"hist{i}.{fmt}"
            argv = ["mc", "--snr-db", "-10", "--sigma-p-deg", "5", "--n",
                    "20", "--draws", str(300 + i), "--seed", str(i),
                    "--out", str(tmp_path / "t"), "--hist-out", str(hist)]
            assert main(argv + ["--json"] * (fmt == "json")) == 0
            [hist_call] = [c for c in calls[-2:] if c[1] == "mc-hist"]
            o, command, columns, _, provenance = hist_call[:5]
            edges = reports[-1].hist_edges
            centers = 0.5 * (edges[:-1] + edges[1:])
            rows = list(zip(np.degrees(centers).tolist(),
                            reports[-1].hist_counts.tolist()))
            generic = tmp_path / f"generic{i}.{fmt}"
            write_table(o, command, columns, rows, provenance, str(generic))
            assert hist.read_bytes() == generic.read_bytes(), fmt
        assert cli._hist_thetas.cache_info().misses == 1


class TestDivergenceCommand:
    def test_divergence_sweep(self, tmp_path):
        table = tmp_path / "t.csv"
        assert main(["divergence", "--snr-db", "0,-10,10", "--n", "20",
                     "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        assert columns == ["snr_db", "kl_to_uniform", "bhat_to_gauss",
                           "kl_to_gauss_or_NA"]
        snr = [fcell(columns, r, "snr_db") for r in rows]
        assert snr == [-10.0, 0.0, 10.0]
        kl_uniform = [fcell(columns, r, "kl_to_uniform") for r in rows]
        bhat = [fcell(columns, r, "bhat_to_gauss") for r in rows]
        # deep noise approaches the uniform density and leaves the Gaussian
        assert kl_uniform == sorted(kl_uniform)
        assert all(k > 0 for k in kl_uniform)
        assert bhat == sorted(bhat, reverse=True)
        assert all(b > 0 for b in bhat)
        # the sharply concentrated 10 dB density escapes the Gaussian's
        # numerical support, so KL is reported as missing
        assert cell(columns, rows[2], "kl_to_gauss_or_NA") == "NA"
        for i in (0, 1):
            kl_gauss = fcell(columns, rows[i], "kl_to_gauss_or_NA")
            assert kl_gauss > 0
            assert kl_gauss >= 2.0 * bhat[i]

    # --n 20: -50 dB is a wide lobe, 60 dB a narrow one, and 10 dB the NA
    # cell of test_divergence_sweep
    @pytest.mark.parametrize("snr_db", [
        "10", "0,-10", "0,-10,10", "60,-50,0,10,-10,30"])
    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_two_threads_give_the_one_thread_bytes(self, tmp_path,
                                                   monkeypatch, snr_db, fmt):
        argv = ["divergence", "--snr-db", snr_db, "--n", "20"] + fmt
        one, two = tmp_path / "one", tmp_path / "two"
        monkeypatch.setattr(signal_model, "_THREADS", 1)
        monkeypatch.setattr(signal_model, "_worker_pool", no_pool)
        assert main(argv + ["--out", str(one)]) == 0
        monkeypatch.undo()
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        assert main(argv + ["--out", str(two)]) == 0
        assert two.read_bytes() == one.read_bytes()

    @pytest.mark.parametrize("snr_db, workers", [("0", 0), ("0,-10,10", 1)])
    def test_cells_start_at_most_one_worker(self, monkeypatch, capsys,
                                            snr_db, workers):
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        pools = []
        worker_pool = signal_model._worker_pool

        def recording_pool():
            pools.append(True)
            return worker_pool()

        monkeypatch.setattr(signal_model, "_worker_pool", recording_pool)
        assert main(["divergence", "--snr-db", snr_db, "--n", "20"]) == 0
        assert len(pools) == workers
        # three comment lines, the header, one row per cell
        rows = len(capsys.readouterr().out.splitlines()) - 4
        assert rows == len(snr_db.split(","))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_failing_cell_in_sorted_order_names_the_error(
            self, monkeypatch, capsys, threads):
        # head: -10 and 0 dB, tail: 10 and 20 dB.  The tail's cell fails
        # first in time; the head's failure is still the one reported.
        monkeypatch.setattr(signal_model, "_THREADS", threads)
        tail_failed = threading.Event()
        row = cli.divergence_row

        def failing(moments):
            if math.isclose(moments.snr, 100.0):
                tail_failed.set()
                raise OutOfRange("cell at 20 dB failed")
            if math.isclose(moments.snr, 1.0):
                if threads == 2:
                    tail_failed.wait(timeout=10)
                raise OutOfRange("cell at 0 dB failed")
            return row(moments)

        monkeypatch.setattr(cli, "divergence_row", failing)
        assert main(["divergence", "--snr-db", "20,10,0,-10",
                     "--n", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "syncphase: OutOfRange: cell at 0 dB failed\n"
        assert tail_failed.is_set() == (threads == 2)

    def test_lobe_below_the_node_resolution_is_named(self, tmp_path, capsys):
        # the window nodes near 0 lie on multiples of ulp(pi) = 4.4e-16 rad;
        # a 1e-16 rad lobe fails its mass check, and the error says why
        assert main(["divergence", "--snr-db", "280", "--n", "10000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("syncphase: OutOfRange: lobe spread "
                              "1.0000000000000001e-16 rad is below the "
                              "resolution of the phase nodes")
        assert "4.44e-16 rad apart" in err and err.count("\n") == 1
        # 260 dB (spread 1e-15 rad, 181 distinct window nodes) keeps the
        # table it had before the check
        table = tmp_path / "t.csv"
        assert main(["divergence", "--snr-db", "260", "--n", "10000",
                     "--out", str(table)]) == 0
        assert hashlib.sha256(table.read_bytes()).hexdigest() == (
            "c1021cdb1b74e4cc27ea71d11505a57e28534b14d7d658409e208b5b21be29bd")


class TestEfficiencyCommand:
    def test_efficiency_approaches_unity(self, tmp_path):
        table = tmp_path / "t.csv"
        assert main(["efficiency", "--snr-db", "0", "--sigma-p-deg", "1",
                     "--n", "1000,20,100", "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        n = [fcell(columns, r, "n") for r in rows]
        assert n == [20.0, 100.0, 1000.0]
        eff = [fcell(columns, r, "efficiency") for r in rows]
        assert eff == sorted(eff)
        assert all(0.0 < e < 1.0 for e in eff)
        assert 1.0 - eff[-1] == pytest.approx(1.002285760e-3, rel=1e-6)


class TestNormalityCommand:
    def test_battery_row_at_reference_point(self, tmp_path):
        table = tmp_path / "t.csv"
        assert main(["normality", "--snr-db", "0", "--sigma-p-deg", "1",
                     "--n", "20", "--seed", str(SEED),
                     "--out", str(table)]) == 0
        _, columns, rows = read_table(table)
        row = rows[0]
        assert cell(columns, row, "verdict_normality") == "true"
        assert cell(columns, row, "failure") == ""
        assert fcell(columns, row, "fisher_p_value") >= 0.05
        assert abs(fcell(columns, row, "hoeffding_d")) < 1e-4
        raw = [float(tok) for tok
               in cell(columns, row, "hz_p_values").split(";")]
        adjusted = [float(tok) for tok
                    in cell(columns, row, "hz_p_adjusted").split(";")]
        assert len(raw) == len(adjusted) == 10
        assert all(0.0 < p <= 1.0 for p in raw)
        assert all(a >= r for a, r in zip(adjusted, raw))

    def test_degenerate_point_recorded_not_raised(self, tmp_path):
        table = tmp_path / "t.csv"
        assert main(["normality", "--snr-db", "inf", "--n", "20",
                     "--seed", "1", "--out", str(table)]) == 0
        text = table.read_text()
        assert "SingularCovariance" in text
        _, columns, rows = read_table(table)
        assert cell(columns, rows[0], "verdict_normality") == "false"

    FIGURES = ["hz_statistic", "fisher_statistic", "fisher_p_value",
               "hoeffding_d"]

    def test_degenerate_point_is_na_and_strict_json(self, tmp_path):
        # its figures were nan cells in CSV and bare NaN tokens in JSON,
        # and its SNR a bare Infinity token
        argv = ["normality", "--snr-db", "inf", "--n", "20",
                "--sigma-p-deg", "0"]
        table, doc = tmp_path / "t.csv", tmp_path / "t.json"
        assert main(argv + ["--out", str(table)]) == 0
        assert main(argv + ["--json", "--out", str(doc)]) == 0
        _, columns, rows = read_table(table)
        assert [cell(columns, rows[0], f) for f in self.FIGURES] == \
            ["NA"] * 4
        assert cell(columns, rows[0], "snr_db") == "inf"

        def no_constant(token):
            raise AssertionError(f"not strict JSON: {token}")

        (row,) = json.loads(doc.read_text(),
                            parse_constant=no_constant)["rows"]
        assert [row[f] for f in self.FIGURES] == [None] * 4
        assert row["snr_db"] == "inf"
        assert row["verdict_normality"] is False
        assert row["failure"].startswith("SingularCovariance: ")

    def test_noiseless_point_draws_only_its_first_batch(self, tmp_path,
                                                        monkeypatch):
        # Without noise every record is the same: the first Henze-Zirkler
        # batch is singular, and nothing after it is drawn.  The point drew
        # all 120k draws of its batches first, with these same bytes.
        calls = []

        def recording_draws(params, seed, first_draw, n_draws):
            calls.append((first_draw, n_draws))
            return reduced_dft_draws(params, seed, first_draw, n_draws)

        monkeypatch.setattr(mc_harness, "reduced_dft_draws", recording_draws)
        argv = ["normality", "--snr-db", "inf", "--n", "20",
                "--sigma-p-deg", "0"]
        table, doc = tmp_path / "t.csv", tmp_path / "t.json"
        assert main(argv + ["--out", str(table)]) == 0
        assert main(argv + ["--json", "--out", str(doc)]) == 0
        assert calls == [(0, 2000), (0, 2000)]
        assert hashlib.sha256(table.read_bytes()).hexdigest() == (
            "5d49dfe453694875eac1e8bfcaebbb917c41d9d16ef32937b0f6350430085a45")
        assert hashlib.sha256(doc.read_bytes()).hexdigest() == (
            "61fbe1d1016f68a9a6e14379284f5d7b13a63f5813e28a5f730ddaa98eee26e2")

    def test_nan_cell_is_an_error_not_a_json_token(self, tmp_path, capsys,
                                                  monkeypatch):
        def nan_report(*args, **kwargs):
            return [BatteryReport(math.nan, (), (), 1.0, 0.5, 0.0, True)]

        monkeypatch.setattr(cli, "run_convergence_battery", nan_report)
        out = tmp_path / "t.json"
        assert main(["normality", "--snr-db", "0", "--n", "20", "--json",
                     "--out", str(out)]) == 2
        assert "not JSON compliant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sizes, message", [
        (["--reps", "0"], "repetitions must be >= 1"),
        (["--hz-draws", "0"], "hz_draws must be >= 20, got 0"),
        (["--hz-draws", "19"], "hz_draws must be >= 20, got 19"),
        (["--hoeffding-draws", "4"], "hoeffding_draws must be >= 5, got 4"),
    ])
    def test_bad_battery_size_is_validation_error(self, tmp_path, capsys,
                                                  sizes, message):
        # was a NaN row with a TooFewPoints failure and exit 0
        out = tmp_path / "t.csv"
        argv = ["normality", "--snr-db", "0", "--n", "20", "--reps", "1",
                "--hz-draws", "20", "--hoeffding-draws", "10"]
        assert main(argv + sizes + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"syncphase: OutOfRange: {message}\n"
        assert not out.exists()


class TestGridDigest:
    # Each command that prints a grid digest, at its smallest table.
    ARGV = {
        "rmse": ["rmse", "--snr-db", "0", "--n", "20"],
        "pdf": ["pdf", "--snr-db", "0", "--n", "20", "--points", "3"],
        "mc": ["mc", "--snr-db", "0", "--n", "20", "--draws", "10"],
        "divergence": ["divergence", "--snr-db", "0", "--n", "20"],
        "efficiency": ["efficiency", "--snr-db", "0", "--n", "20"],
        "normality": ["normality", "--snr-db", "0", "--n", "20", "--reps",
                      "1", "--hz-draws", "20", "--hoeffding-draws", "5"],
    }

    @staticmethod
    def digest(tmp_path, argv):
        table = tmp_path / "t.csv"
        assert main(argv + ["--out", str(table)]) == 0
        return read_table(table)[0]["grid-sha256"]

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_signal_options_off_their_defaults_are_hashed(self, tmp_path,
                                                          command):
        argv = self.ARGV[command]
        default = self.digest(tmp_path, argv)
        # the default, however it is written, leaves the digest alone
        for same in (["--fs", "10"], ["--fs", "1e1"], ["--f0", "1"],
                     ["--amplitude", "1"], ["--f0", "1.0", "--fs", "10.0"]):
            assert self.digest(tmp_path, argv + same) == default, same
        moved = [self.digest(tmp_path, argv + other)
                 for other in (["--fs", "20"], ["--f0", "2"],
                               ["--amplitude", "2"])]
        assert default not in moved and len(set(moved)) == 3
        # compared as numbers: 20 and 20.0 are one sampling rate
        assert self.digest(tmp_path, argv + ["--fs", "20.0"]) == moved[0]

    def test_different_mc_rows_no_longer_share_a_digest(self, tmp_path):
        # --fs 10 and --fs 20 print different rows; they shared 90d6886780cb3c5d
        argv = self.ARGV["mc"]
        tables = {}
        for fs in ("10", "20"):
            table = tmp_path / f"fs{fs}.csv"
            assert main(argv + ["--fs", fs, "--out", str(table)]) == 0
            tables[fs] = read_table(table)
        assert tables["10"][0]["grid-sha256"] == "90d6886780cb3c5d"
        assert tables["10"][2] != tables["20"][2]
        assert tables["20"][0]["grid-sha256"] != "90d6886780cb3c5d"


# --- the output contract, checked by generation ------------------------------

# Values swapped into options: zeros, infinities, nan, the smallest subnormal
# and a huge float, empty and non-numeric text, stray commas, and negative
# or fractional counts.
EDGE_VALUES = ["0", "-0.0", "inf", "-inf", "nan", "5e-324", "1e308", "", "x",
               "1/3", ",", "1,,2", "0,", "-1", "-3", "0.5", "2.5"]
# One valid argv per command, by option key.  Only its required options and
# sizes are set; the default of every other option is used.  N <= 1000,
# draws <= 100 and hz draws <= 25, and no edge value is a larger count, so
# no mutated argv can grow memory.
CONTRACT_BASE = {
    "gen": {"snr_db": "10", "n": "20"},
    "estimate": {"in_path": None},  # a generated record, set in the test
    "rmse": {"snr_db": "0,20", "sigma_p_deg": "0,1", "n": "20,100"},
    "pdf": {"snr_db": "10", "n": "20", "points": "41"},
    "mc": {"snr_db": "10", "n": "20", "draws": "100"},
    "divergence": {"snr_db": "0,20", "n": "20"},
    "efficiency": {"snr_db": "10", "n": "20,100"},
    "normality": {"snr_db": "10", "n": "20", "reps": "2", "hz_draws": "25",
                  "hoeffding_draws": "50"},
}
# Seeded argvs with two options mutated, after the walk over every option.
CONTRACT_PAIRS = 400


def _contract_argv(command, options):
    """argv for ``command`` from {key: value}; a flag's value is True, and
    an option whose value is None is left out."""
    table = cli._COMMANDS[command][2]
    argv = [command]
    for key, value in options.items():
        if value is not None:
            argv += [table[key].flag] + ([] if value is True else [value])
    return argv


def _mutations(table, key):
    """The values option ``key`` is mutated to: a flag is toggled (None
    drops it), any other option gets each edge value."""
    return [True, None] if table[key].cast is cli._cast_flag else EDGE_VALUES


def contract_argvs(bases, rand):
    """Each command's valid argv with one option mutated, for every option
    of its table and every value, in CSV and in JSON; then CONTRACT_PAIRS
    argvs with two options mutated, drawn from ``rand``."""
    def argv(command, json_output, changes):
        return _contract_argv(command, {**bases[command],
                                        "json_output": json_output, **changes})

    commands = sorted(bases)
    for command in commands:
        table = cli._COMMANDS[command][2]
        for key in table:
            for value in _mutations(table, key):
                for json_output in (None, True):
                    yield argv(command, json_output, {key: value})
    for _ in range(CONTRACT_PAIRS):
        command = rand.choice(commands)
        table = cli._COMMANDS[command][2]
        yield argv(command, rand.choice([None, True]),
                   {key: rand.choice(_mutations(table, key))
                    for key in rand.sample(sorted(table), 2)})


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def contract_violations(argv, code, out, err, outputs):
    """What in one run breaks the output contract: an exit code other than
    0 (done), 1 (usage) or 2 and 3 (one stderr line), a traceback, a nan
    cell, or JSON output that is not strict JSON."""
    found = []
    if code not in (0, 1, 2, 3):
        found.append(f"exit {code}")
    if "Traceback" in err:
        found.append("traceback")
    if code == 1 and not err.startswith("usage:"):
        found.append(f"exit 1 without usage: {err!r}")
    if code in (2, 3) and (err.count("\n") != 1 or not err.endswith("\n")):
        found.append(f"exit {code} with stderr {err!r}")
    # stdout is empty where --out names a file
    texts = [text for text in [out] + outputs if text]
    if code == 0 and not texts:
        found.append("exit 0 without output")
    if code == 0:
        for text in texts:
            if "--json" in argv:
                try:
                    _strict_json(text)
                except ValueError as exc:
                    found.append(f"not strict JSON: {exc}")
            elif any(cell.strip().lower() == "nan"
                     for line in text.splitlines() if not line.startswith("#")
                     for cell in re.split("[,;]", line)):
                found.append("nan cell")
    return found


def test_every_row_has_a_cell_per_column(tmp_path):
    # --json pairs cells with columns by zip, which would cut a long row
    record = tmp_path / "record.csv"
    assert main(["gen", "--snr-db", "10", "--n", "20", "--seed", "3",
                 "--out", str(record)]) == 0
    bases = dict(CONTRACT_BASE, estimate={"in_path": str(record)})
    for command, base in bases.items():
        _, func, table = cli._COMMANDS[command]
        args = cli._PARSER.parse_args(_contract_argv(command, base))
        columns, rows, _ = func(cli._resolve(table, args, {}))
        assert rows, command
        assert {len(row) for row in rows} == {len(columns)}, command


def test_generated_argvs_keep_the_output_contract(tmp_path, monkeypatch,
                                                  capsys):
    record = tmp_path / "record.csv"
    assert main(["gen", "--snr-db", "10", "--n", "20", "--seed", "3",
                 "--out", str(record)]) == 0
    bases = dict(CONTRACT_BASE, estimate={"in_path": str(record)})
    # a new command needs a valid argv here; a new option is walked as is
    assert sorted(bases) == sorted(cli._COMMANDS)
    work = tmp_path / "work"  # where a mutated --out or --hist-out lands
    work.mkdir()
    monkeypatch.chdir(work)
    for command, base in bases.items():
        assert main(_contract_argv(command, base)) == 0, command
    capsys.readouterr()

    violations, codes = [], set()
    for argv in contract_argvs(bases, random.Random(20240)):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # reported as its exit
            code = f"raised {type(exc).__name__}: {exc}"
        out, err = capsys.readouterr()
        codes.add(code)
        outputs = []
        for path in sorted(work.iterdir()):
            outputs.append(path.read_text())
            path.unlink()
        violations += [(argv, problem) for problem in
                       contract_violations(argv, code, out, err, outputs)]
    assert violations == []
    # the argvs reach both the commands' results and their validation
    assert {0, 2} <= codes
