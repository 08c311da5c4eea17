import inspect
import json
import re

import numpy as np
import pytest

import golden
from perifront import WindowGrid, cli, make_cell_grid
from perifront.cli import DEFAULTS, main

FLOAT_KEYS = [key for key, val in DEFAULTS.items() if isinstance(val, float)]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def first_line(path):
    with open(path) as fh:
        return fh.readline()


class TestDispersionCommand:
    def test_constant_benchmark_values(self, tmp_path):
        out = tmp_path / "disp"
        rc = main(["dispersion", "--model", "constant2", "--c", "2.5",
                   "--out", str(out)])
        assert rc == 0
        res = read_json(out / "results.json")
        assert abs(res["c_plus0"] - 2.0) <= 1e-6
        assert abs(res["lambda_plus0"] - 1.0) <= 1e-6
        assert abs(res["lambda_c"]["2.5"] - 0.5) <= 1e-6
        assert res["H6_ok"] is True
        header = first_line(out / "dispersion.csv")
        assert header.startswith("# lambda, kappa_1")

    def test_resolved_config_written(self, tmp_path):
        out = tmp_path / "disp"
        main(["dispersion", "--model", "constant2", "--out", str(out)])
        cfg = read_json(out / "resolved-config.json")
        assert cfg["model"] == "constant2"
        assert "dt" in cfg and "n" in cfg

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["dispersion", "--model", "periodic2", "--out", str(a)])
        main(["dispersion", "--model", "periodic2", "--out", str(b)])
        assert (a / "results.json").read_bytes() == \
            (b / "results.json").read_bytes()


class TestHypothesesCommand:
    def test_constant2_passes(self, tmp_path):
        out = tmp_path / "hyp"
        rc = main(["hypotheses", "--model", "constant2", "--out", str(out)])
        assert rc == 0
        res = read_json(out / "results.json")
        assert res["hypotheses"]["H8"]["verdict"] == "pass"
        assert res["hypotheses"]["H5"]["verdict"] == "not-checkable"

    def test_weak_competition_reports_H8_failure(self, tmp_path):
        # the symmetric constant competition instance is weak competition:
        # its transformed upper state is not linearly stable, so the
        # honest verdict is a nonzero exit with H8 failed
        out = tmp_path / "hyp"
        rc = main(["hypotheses", "--model", "competition-const",
                   "--out", str(out)])
        assert rc == 1
        res = read_json(out / "results.json")
        assert res["hypotheses"]["H8"]["verdict"] == "fail"
        assert res["assumptions"]["A3"]["verdict"] == "pass"

    def test_strong_competition(self, tmp_path):
        out = tmp_path / "hyp"
        rc = main(["hypotheses", "--model", "competition-strong",
                   "--out", str(out)])
        res = read_json(out / "results.json")
        assert res["hypotheses"]["H8"]["verdict"] == "pass"
        assert res["assumptions"]["A3"]["verdict"] == "fail"
        assert rc == 1   # A3-as-printed fails for the strong instance


class TestCertifyCommand:
    def test_margins_csv(self, tmp_path):
        out = tmp_path / "cert"
        rc = main(["certify", "--model", "constant2", "--c", "2.5",
                   "--out", str(out)])
        assert rc == 0
        header = first_line(out / "margins.csv")
        assert header.startswith("# component, s, t, margin")
        res = read_json(out / "results.json")
        assert all(rep["verdict"] == "pass" for rep in res["reports"])

    def test_reported_tolerances_are_enforced(self, tmp_path):
        # results.json reports the constants that the solvers and the
        # certificate check enforce, at their established values, and
        # the ones a subcommand reads from TOLERANCES: those and no other
        from perifront import certify, cli, dispersion, eigen
        out = tmp_path / "cert"
        main(["certify", "--out", str(out)])
        tol = read_json(out / "results.json")["tolerances"]
        enforced = {"eigen_scalar": (eigen.SCALAR_TOL, 1e-10),
                    "eigen_coupled": (eigen.COUPLED_TOL, 1e-8),
                    "cascade_residual": (dispersion.CASCADE_RESID_TOL, 1e-8),
                    "cert_allowance_factor": (certify.C_ALLOW, 10.0)}
        for key, (constant, value) in enforced.items():
            assert tol[key] == constant == value, key
        read = re.findall(r'TOLERANCES\["(\w+)"\]', inspect.getsource(cli))
        assert sorted(tol) == sorted(set(enforced) | set(read))


class TestCompetitionCommand:
    def test_strong_pipeline(self, tmp_path):
        out = tmp_path / "comp"
        rc = main(["competition", "--model", "competition-strong",
                   "--out", str(out)])
        assert rc == 0
        res = read_json(out / "results.json")
        assert abs(res["c_plus0"] - 2 * 0.7**0.5) <= 1e-6


class TestErrors:
    def test_bad_config_exit_2(self, tmp_path):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text("{not json")
        rc = main(["dispersion", "--config", str(cfgfile),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_numerical_failure_exit_3(self, tmp_path):
        # speed below critical has no decay exponent
        rc = main(["certify", "--model", "constant2", "--c", "1.0",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_critical_band_certify_exit_3(self, tmp_path, capsys):
        # constant2's c_+0 is 2 to 1e-13: 2 + 5e-11 is critical by
        # Dispersion.tau, so the supercritical builder refuses it
        rc = main(["certify", "--c", "2.00000000005",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical failure: supercritical construction "
                       "needs c > c_+0"]

    @pytest.mark.parametrize("command", ["certify", "dispersion"])
    def test_delta_out_of_range_exit_2(self, tmp_path, capsys, command):
        # every subcommand checks every key, the ones it does not read too
        rc = main([command, "--delta", "0", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: delta must be positive, "
                       "got 0.0"]

    def test_failed_rerun_removes_earlier_outputs(self, tmp_path):
        out = tmp_path / "cert"
        assert main(["certify", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "margins.csv", "resolved-config.json", "results.json"]
        assert main(["certify", "--c", "1.0", "--out", str(out)]) == 3
        assert list(out.iterdir()) == []

    def test_unreadable_config_removes_earlier_outputs(self, tmp_path):
        # the config fails before it can name outdir: --out names it
        out = tmp_path / "o"
        assert main(["hypotheses", "--out", str(out)]) == 0
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text("{not json")
        rc = main(["hypotheses", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 2
        assert not (out / "results.json").exists()
        assert list(out.iterdir()) == []

    def test_non_string_out_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfgfile = tmp_path / "out5.json"
        cfgfile.write_text('{"out": 5}')
        assert main(["hypotheses", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert list(tmp_path.iterdir()) == [cfgfile]

    def test_unknown_model_name_exit_2(self, tmp_path, capsys):
        out = tmp_path / "hyp"
        assert main(["hypotheses", "--model", "foo", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: unknown model name: 'foo'"]
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ("[1]", "JSON object"),
        ('{"n": [64]}', "n must be an integer"),
        ('{"T": "30"}', "T must be a number"),
        ('{"window_cells": 120.0}', "window_cells must be an integer"),
        ('{"c": [2.5]}', "c must be a number"),
        ('{"model": 5}', "model must be a model name or a dict"),
    ])
    def test_wrongly_typed_config_exit_2(self, tmp_path, capsys, text, key):
        cfgfile = tmp_path / "typed.json"
        cfgfile.write_text(text)
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert key in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("data, words", [
        ({"window-cells": 30, "n": 32},
         ["unknown config key 'window-cells'", "'window_cells'"]),
        ({"model": {"name": "custom2", "zeta_1": {"const": 3.0}}},
         ["custom2 has no parameter 'zeta_1'", "zeta1, zeta2, a21"]),
        ({"model": {"name": "custom2", "n": 128}},
         ["custom2 has no parameter 'n'", "top-level config keys L and n"]),
    ], ids=["top-level", "model-zeta_1", "model-n"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, data, words):
        cfgfile = tmp_path / "typo.json"
        cfgfile.write_text(json.dumps(data))
        out = tmp_path / "o"
        rc = main(["dispersion", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert all(w in err[0] for w in words)
        assert not out.exists()

    @pytest.mark.parametrize("model, words", [
        ({"name": "chain-m", "a": "x"},
         ["chain-m parameter 'a' must be a finite number", "'x'"]),
        ({"name": "chain-m", "m": 1},
         ["chain-m parameter 'm' must be an integer >= 2", "got 1"]),
        ({"name": "custom2", "d1": {"foo": 1}},
         ["custom2 parameter 'd1' must be a number or a const, cosine or "
          "csv field spec", "{'foo': 1}"]),
        # well-typed values that give no valid model
        ({"name": "custom2", "zeta1": -1}, ["custom2 needs zeta1 > 0"]),
        ({"name": "periodic2", "amp": 1.5},
         ["invalid periodic2 parameters", "diffusion"]),
        ({"name": "chain-m", "a": -1},
         ["invalid chain-m parameters", "coupling"]),
    ], ids=["chain-m-a", "chain-m-m", "custom2-d1", "custom2-zeta1-range",
            "periodic2-amp-range", "chain-m-a-range"])
    def test_bad_model_value_exit_2(self, tmp_path, capsys, model, words):
        cfgfile = tmp_path / "model.json"
        cfgfile.write_text(json.dumps({"model": model}))
        out = tmp_path / "o"
        rc = main(["hypotheses", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert all(w in err[0] for w in words)
        assert not out.exists()

    @pytest.mark.parametrize("text", ["1\n2\n3\n", "0.5\n"])
    def test_one_column_csv_field_exit_2(self, tmp_path, capsys, text):
        csv = tmp_path / "d1.csv"
        csv.write_text(text)
        cfgfile = tmp_path / "model.json"
        cfgfile.write_text(json.dumps(
            {"model": {"name": "custom2", "d1": {"csv": str(csv)}}}))
        out = tmp_path / "o"
        rc = main(["hypotheses", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"configuration error: custom2 parameter 'd1': {csv} "
                       "must hold two columns x, value; it holds 1"]
        assert not out.exists()

    def test_csv_field_with_two_values_at_one_x_exit_2(self, tmp_path,
                                                       capsys):
        csv = tmp_path / "d1.csv"
        csv.write_text("0,1\n0.5,1.2\n0.5,0.8\n")
        cfgfile = tmp_path / "model.json"
        cfgfile.write_text(json.dumps(
            {"model": {"name": "custom2", "d1": {"csv": str(csv)}}}))
        out = tmp_path / "o"
        rc = main(["dispersion", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"configuration error: custom2 parameter 'd1': {csv} "
                       "holds different values at x = 0.5 (mod L = 1.0)"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_exit_2(self, tmp_path, capsys, key, value):
        # from the config and from the flag; Python's json reads all three
        cfgfile = tmp_path / "nonfinite.json"
        cfgfile.write_text(f'{{"{key}": {value}}}')
        out = tmp_path / "o"
        flag = f"--{key.replace('_', '-')}={value}"
        for args in (["--config", str(cfgfile)], [flag]):
            rc = main(["simulate", *args, "--out", str(out)])
            assert rc == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"configuration error: {key} must be a "
                                     "number")
            assert not out.exists()

    @pytest.mark.parametrize("flag, words", [
        ("--n=8", "n must be at least 16, got 8"),
        ("--L=0", "L must be positive, got 0.0"),
        ("--window-cells=10", "window_cells must be at least 20, got 10"),
        ("--eps0=0.7", "eps0 must be in (0, 0.5), got 0.7"),
        ("--k=0", "k must be positive, got 0.0"),
        ("--T=-1", "T must be nonnegative, got -1.0"),
        ("--dt=0", "dt must be positive, got 0.0"),
        ("--snapshot-dt=0", "snapshot_dt must be positive, got 0.0"),
        ("--delta=0", "delta must be positive, got 0.0"),
        ("--level=1.5", "level must be in (0, 1), got 1.5"),
        ("--level=0", "level must be in (0, 1), got 0.0"),
    ])
    def test_out_of_range_exit_2(self, tmp_path, capsys, flag, words):
        # the library's own range checks, named by key before any work;
        # the flag comes last, so it overrides the short run's
        out = tmp_path / "sim"
        rc = main(["simulate", "--T=1", "--window-cells=20", flag,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"configuration error: {words}"]
        assert not out.exists()

    def test_out_of_range_config_value_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "coarse.json"
        cfgfile.write_text('{"n": 8}')
        out = tmp_path / "disp"
        rc = main(["dispersion", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: n must be at least 16, got 8"]

    def test_dt_above_reaction_bound_exit_3(self, tmp_path, capsys):
        # the bound depends on the model: StepperConfig's check, exit 3
        out = tmp_path / "sim"
        rc = main(["simulate", "--dt", "0.5", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical failure: dt = 0.5 must be positive and at "
                       "most the explicit-reaction bound 0.5/max|dF_i/du_i| "
                       "= 0.3125"]
        assert list(out.iterdir()) == []

    def test_unexpected_exception_exit_4(self, tmp_path, capsys,
                                         monkeypatch):
        # a bug, not a bad input: neither exit 1 (a failed check) nor 2
        def broken(cfg, outdir, model, tc):
            raise KeyError("H9")
        monkeypatch.setattr(cli, "cmd_hypotheses", broken)
        out = tmp_path / "hyp"
        out.mkdir()
        (out / "results.json").write_text("{}")      # an earlier run's
        assert main(["hypotheses", "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["internal error: KeyError: 'H9'"]
        assert list(out.iterdir()) == []

    def test_int_for_float_and_speed_list_are_accepted(self, tmp_path):
        # an int stands for a float, and dispersion takes a list of speeds
        cfgfile = tmp_path / "ok.json"
        cfgfile.write_text('{"c": [3, 2.5], "L": 1, "n": 32}')
        out = tmp_path / "disp"
        assert main(["dispersion", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
        res = read_json(out / "results.json")
        assert sorted(res["lambda_c"]) == ["2.5", "3"]

    def test_competition_needs_competition_model_exit_2(self, tmp_path):
        out = tmp_path / "comp"
        rc = main(["competition", "--model", "constant2", "--out", str(out)])
        assert rc == 2
        assert not (out / "results.json").exists()


class TestSimulateAndFront:
    def test_simulate_speed(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--model", "constant2", "--c", "2.5",
                   "--T", "16", "--window-cells", "70",
                   "--snapshot-dt", "0.1", "--out", str(out)])
        assert rc == 0
        res = read_json(out / "results.json")
        assert abs(res["c_est"] - 2.5) <= 0.02 * 2.5
        assert res["fronts_skipped"] == 0
        header = first_line(out / "fronts.csv")
        assert header.startswith("# t, position, c_running")

    def test_snapshots_round_trip(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--model", "chain-m", "--c", "2.5",
                   "--T", "12", "--window-cells", "70",
                   "--snapshot-dt", "0.4", "--out", str(out)])
        assert rc == 0
        header = first_line(out / "snapshots.csv")
        assert header == "# t, x, u_1, u_2, u_3\n"
        data = np.loadtxt(out / "snapshots.csv", delimiter=",")
        window = WindowGrid(make_cell_grid(1.0, 64), 70)
        nsnap = 31
        assert data.shape == (nsnap * window.npts, 5)
        assert np.array_equal(data[:, 1], np.tile(window.x, nsnap))
        # t is accumulated step by step, x is exact
        assert np.allclose(data[::window.npts, 0], 0.4 * np.arange(nsnap),
                           rtol=0.0, atol=1e-9)
        assert data[:, 2:].min() >= -1e-8 and data[:, 2:].max() <= 1.0 + 1e-8

    def test_snapshots_path_is_directory_exit_2(self, tmp_path):
        out = tmp_path / "sim"
        (out / "snapshots.csv").mkdir(parents=True)
        rc = main(["simulate", "--model", "constant2", "--c", "2.5",
                   "--T", "2", "--window-cells", "60", "--out", str(out)])
        assert rc == 2
        assert not (out / "results.json").exists()

    def test_failed_fit_leaves_no_outputs(self, tmp_path):
        # T = 4 leaves too few snapshots for the speed fit: exit 3 after
        # the run wrote snapshots.csv
        out = tmp_path / "sim"
        rc = main(["simulate", "--T", "4", "--window-cells", "60",
                   "--out", str(out)])
        assert rc == 3
        assert list(out.iterdir()) == []

    def test_failed_rerun_removes_earlier_outputs(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--T", "8", "--window-cells", "60",
                   "--out", str(out)])
        assert rc in (0, 1)
        assert sorted(p.name for p in out.iterdir()) == [
            "fronts.csv", "resolved-config.json", "results.json",
            "snapshots.csv"]
        # the front reaches the guard band of 60 cells before T = 30
        rc = main(["simulate", "--T", "30", "--window-cells", "60",
                   "--out", str(out)])
        assert rc == 3
        assert list(out.iterdir()) == []

    def test_fronts_skipped_counts_snapshots_without_crossing(self,
                                                               tmp_path):
        # the datum tops out at 1 - eps0 = 0.9, so the t = 0 snapshot has
        # no crossing of 0.95; from the first step the clamp u = 1 at
        # the left edge gives one
        out = tmp_path / "sim"
        rc = main(["simulate", "--model", "constant2", "--c", "2.5",
                   "--T", "8", "--window-cells", "60", "--level", "0.95",
                   "--out", str(out)])
        assert rc in (0, 1)
        res = read_json(out / "results.json")
        assert res["fronts_skipped"] == 1
        rows = np.loadtxt(out / "fronts.csv", delimiter=",", ndmin=2)
        assert len(rows) == 32           # 33 snapshots, t = 0 skipped
        assert rows[0, 0] == pytest.approx(0.25)

    def test_front_fit(self, tmp_path):
        out = tmp_path / "front"
        rc = main(["front", "--model", "constant2", "--c", "2.5",
                   "--T", "20", "--window-cells", "85",
                   "--snapshot-dt", "0.03", "--out", str(out)])
        assert rc == 0
        res = read_json(out / "results.json")
        assert abs(res["fits"][0]["lambda_est"] - 0.5) <= 0.05 * 0.5


class TestDefaults:
    @pytest.mark.parametrize("command", ["dispersion", "simulate", "front",
                                         "certify", "competition",
                                         "hypotheses"])
    def test_exit_zero_at_defaults(self, tmp_path, command):
        out = tmp_path / command
        assert main([command, "--out", str(out)]) == 0
        cfg = read_json(out / "resolved-config.json")
        assert cfg["window_cells"] == 120
        assert cfg["snapshot_dt"] == (0.03 if command == "front" else 0.25)
        assert cfg["model"] == ("competition-strong"
                                if command == "competition" else "constant2")
        # the same numbers: every file byte for byte as recorded
        golden.assert_recorded("files", command, golden.digests(out))
