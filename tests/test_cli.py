import json

import numpy as np
import pytest

from perifront import WindowGrid, make_cell_grid
from perifront.cli import main


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
        # certificate check enforce, at their established values
        from perifront import certify, dispersion, eigen
        out = tmp_path / "cert"
        main(["certify", "--out", str(out)])
        tol = read_json(out / "results.json")["tolerances"]
        enforced = {"eigen_scalar": (eigen.SCALAR_TOL, 1e-10),
                    "eigen_coupled": (eigen.COUPLED_TOL, 1e-8),
                    "cascade_residual": (dispersion.CASCADE_RESID_TOL, 1e-8),
                    "cert_allowance_factor": (certify.C_ALLOW, 10.0)}
        for key, (constant, value) in enforced.items():
            assert tol[key] == constant == value, key


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
    @pytest.mark.parametrize("command", ["simulate", "front"])
    def test_exit_zero_at_defaults(self, tmp_path, command):
        out = tmp_path / command
        assert main([command, "--out", str(out)]) == 0
        cfg = read_json(out / "resolved-config.json")
        assert cfg["window_cells"] == 120
