"""End-to-end tests of the command-line interface."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from recovery_lab import cli
from recovery_lab import lrr as lrr_mod
from recovery_lab import markov as mk

from conftest import count_calls, random_recursive_economy, stagnation_grid_economy


@pytest.fixture
def power_economy_file(tmp_path, power_economy):
    path = tmp_path / "economy.json"
    path.write_text(json.dumps(mk.economy_to_dict(power_economy)))
    return path


@pytest.fixture
def recursive_economy_file(tmp_path, recursive_economy):
    path = tmp_path / "recursive.json"
    path.write_text(json.dumps(mk.economy_to_dict(recursive_economy)))
    return path


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, np.asarray(rows)


def test_package_import_loads_no_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, recovery_lab, recovery_lab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_write_json_matches_json_dump_of_lists(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 4))
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = -0.0, 5e-324, 1e308, np.nan
    m[4, 0], m[5, 1] = np.inf, -np.inf
    payload = {
        "matrix": m,
        "finite": rng.random((3, 5)),
        "nested": [m[0], {"k": m[2:4], "v": 1.5}],
        "ints": np.arange(3),
        "empty": np.zeros(0),
        "empty_rows": np.zeros((2, 0)),
        "text": "x",
        "none": None,
    }
    as_lists = {
        **payload,
        "matrix": m.tolist(),
        "finite": payload["finite"].tolist(),
        "nested": [m[0].tolist(), {"k": m[2:4].tolist(), "v": 1.5}],
        "ints": [0, 1, 2],
        "empty": [],
        "empty_rows": [[], []],
    }
    cli._write_json(tmp_path / "t.json", payload)
    expected = json.dumps(as_lists, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "t.json").read_bytes() == expected.encode()


def test_write_csv_cells_match_python_format(tmp_path):
    floats = np.array([-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0])
    ints = np.arange(floats.size) * 10**6 - 3
    cli._write_csv(tmp_path / "t.csv", ["x", "k"], [floats, ints])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "x,k"
    assert lines[1:] == [f"{float(x):.12g},{float(k):.12g}" for x, k in zip(floats, ints)]


class TestRecover:
    def test_power_economy_round_trip(self, tmp_path, power_economy_file):
        out = tmp_path / "out"
        code = cli.main(
            ["recover", "--input", str(power_economy_file), "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "recovery.json").read_text())
        assert payload["eta_hat"] == pytest.approx(-0.02, abs=1e-10)
        np.testing.assert_allclose(
            payload["p_hat"], [[0.9, 0.1], [0.1, 0.9]], atol=1e-10
        )
        header, rows = read_csv(out / "decomposition.csv")
        assert header[:3] == ["i", "j", "p"]
        assert rows.shape == (4, 8)

    def test_recursive_economy_nontrivial_martingale(
        self, tmp_path, recursive_economy_file
    ):
        out = tmp_path / "out"
        assert cli.main(
            ["recover", "--input", str(recursive_economy_file), "--out", str(out)]
        ) == 0
        payload = json.loads((out / "recovery.json").read_text())
        h = np.asarray(payload["h_increments"])
        assert np.max(np.abs(h - 1.0)) > 1e-3
        assert np.max(np.abs(np.asarray(payload["p_hat"]) - [[0.9, 0.1], [0.1, 0.9]])) > 1e-3

    def test_recovery_json_matches_json_dump_of_lists(
        self, tmp_path, recursive_economy, recursive_economy_file
    ):
        out = tmp_path / "out"
        assert cli.main(
            ["recover", "--input", str(recursive_economy_file), "--out", str(out)]
        ) == 0
        rec = mk.recover(recursive_economy)
        as_lists = {
            "eta_hat": rec.eta_hat,
            "e_hat": rec.e_hat.tolist(),
            "e_star": rec.e_star.tolist(),
            "p_hat": rec.p_hat.entries.tolist(),
            "h_increments": rec.h_increments.tolist(),
        }
        expected = json.dumps(as_lists, indent=2, sort_keys=True) + "\n"
        assert (out / "recovery.json").read_bytes() == expected.encode()

    def test_solver_debug_log_leaves_output_unchanged(
        self, tmp_path, power_economy_file, capsys, caplog
    ):
        argv = ["recover", "--input", str(power_economy_file), "--out"]
        assert cli.main([*argv, str(tmp_path / "plain")]) == 0
        plain = capsys.readouterr()
        with caplog.at_level(logging.DEBUG, logger="recovery_lab.markov"):
            assert cli.main([*argv, str(tmp_path / "logged")]) == 0
        assert caplog.records
        assert capsys.readouterr() == plain
        for name in ("recovery.json", "decomposition.csv"):
            assert (tmp_path / "logged" / name).read_bytes() == (
                tmp_path / "plain" / name
            ).read_bytes()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["recover", "--help"]) == 0
        assert "recover" in capsys.readouterr().out

    def test_malformed_input_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["recover", "--input", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_nonprimitive_prices_exit_two(self, tmp_path):
        path = tmp_path / "np.json"
        path.write_text(json.dumps({"prices": [[0.0, 0.9], [0.9, 0.0]]}))
        assert cli.main(["recover", "--input", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exit_one(self, tmp_path):
        assert cli.main(
            ["recover", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        ) == 1


class TestForwardAndYields:
    def test_forward_outputs(self, tmp_path, power_economy_file):
        out = tmp_path / "fwd"
        assert cli.main(
            ["forward", "--input", str(power_economy_file), "--out", str(out),
             "--horizons", "1:5:1"]
        ) == 0
        payload = json.loads((out / "forward_measures.json").read_text())
        assert set(payload["forward"]) == {"1", "2", "3", "4", "5"}
        _, rows = read_csv(out / "forward_limit.csv")
        # distance to the recovered matrix shrinks with maturity
        assert rows[-1, 1] < rows[0, 1]

    def test_yields_outputs(self, tmp_path, recursive_economy_file):
        out = tmp_path / "yld"
        assert cli.main(
            ["yields", "--input", str(recursive_economy_file), "--out", str(out),
             "--horizons", "1:41:20"]
        ) == 0
        header, rows = read_csv(out / "yields.csv")
        assert header == ["horizon", "state", "yield_p", "yield_p_hat"]
        assert rows.shape == (6, 4)  # 3 horizons x 2 states


class TestLrr:
    def test_default_run_produces_all_files(self, tmp_path):
        out = tmp_path / "lrr"
        code = cli.main(
            ["lrr", "--out", str(out), "--seed", "1",
             "--override", "n_paths=2000", "--override", "burn_in=150",
             "--horizons", "12:240:114"]
        )
        assert code == 0
        for name in (
            "density_p.csv",
            "density_p_hat.csv",
            "density_risk_neutral.csv",
            "yields_consumption.csv",
            "yields_bond.csv",
            "lrr_summary.json",
        ):
            assert (out / name).exists(), name
        summary = json.loads((out / "lrr_summary.json").read_text())
        assert summary["pf"]["eta_hat"] < 0
        assert summary["changed_measure"]["mu_22"] < 0
        # X2 >= 0 by construction of its transitions, so no path is dropped
        assert summary["density_n_nan"] == {"p": 0, "p_hat": 0, "risk_neutral": 0}

    def test_gamma_one_still_has_martingale_component(self, tmp_path):
        # consumption carries a permanent component, so even log utility
        # leaves the recovered measure distinct from the physical one
        out = tmp_path / "lrr1"
        code = cli.main(
            ["lrr", "--out", str(out), "--override", "gamma=1",
             "--override", "n_paths=1000", "--override", "burn_in=100",
             "--horizons", "12:24:12"]
        )
        assert code == 0
        summary = json.loads((out / "lrr_summary.json").read_text())
        assert abs(np.asarray(summary["pf"]["alpha_h"])).max() > 1e-4
        assert summary["changed_measure"]["iota_hat"][1] != pytest.approx(1.0)

    def test_nonsense_override_exit_one(self, tmp_path):
        assert cli.main(
            ["lrr", "--out", str(tmp_path / "x"), "--override", "gamma_typo=1"]
        ) == 1

    def test_infeasible_gamma_exit_two(self, tmp_path):
        assert cli.main(
            ["lrr", "--out", str(tmp_path / "x"), "--override", "gamma=500"]
        ) == 2

    def test_reruns_byte_identical(self, tmp_path):
        args = lambda name: [
            "lrr", "--out", str(tmp_path / name), "--seed", "3",
            "--override", "n_paths=500", "--override", "burn_in=50",
            "--horizons", "12:24:12",
        ]
        assert cli.main(args("a")) == 0
        assert cli.main(args("b")) == 0
        for f in ("density_p.csv", "yields_bond.csv", "lrr_summary.json"):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_physical_law_simulated_once(self, tmp_path, monkeypatch):
        # densities of three laws, and the recovered law again for the yield
        # draws; the physical ensemble serves its density and its yields
        calls = count_calls(monkeypatch, lrr_mod, "simulate_states")
        assert cli.main(
            ["lrr", "--out", str(tmp_path / "x"), "--override", "n_paths=200",
             "--override", "burn_in=12", "--horizons", "12:24:12"]
        ) == 0
        assert len(calls) == 4

    def test_thread_cap_does_not_change_outputs(self, tmp_path, monkeypatch):
        args = lambda name: [
            "lrr", "--out", str(tmp_path / name), "--seed", "3",
            "--override", "n_paths=500", "--override", "burn_in=50",
            "--horizons", "12:24:12",
        ]
        monkeypatch.setenv("RECOVERY_LAB_THREADS", "1")
        assert cli.main(args("serial")) == 0
        monkeypatch.setenv("RECOVERY_LAB_THREADS", "3")
        assert cli.main(args("pooled")) == 0
        for f in ("density_p.csv", "density_p_hat.csv", "lrr_summary.json"):
            assert (tmp_path / "serial" / f).read_bytes() == (
                tmp_path / "pooled" / f
            ).read_bytes()


class TestBounds:
    def test_bounds_output(self, tmp_path, recursive_economy_file):
        out = tmp_path / "bnd"
        assert cli.main(
            ["bounds", "--input", str(recursive_economy_file), "--out", str(out),
             "--theta=-1,0,1"]
        ) == 0
        payload = json.loads((out / "bounds.json").read_text())
        assert set(payload["theta"]) == {"-1.0", "0.0", "1.0"}
        for entry in payload["theta"].values():
            assert entry["lambda_bar"] > 0
            assert entry["lambda_bar"] <= entry["population_discrepancy"] + 1e-10
            assert entry["duality_gap"] <= 1e-8
            assert 1 <= entry["iterations"] <= 200
            assert entry["n_rows"] == 4  # every transition of the 2-state chain

    def test_unit_martingale_bounds_zero(self, tmp_path, power_economy_file):
        out = tmp_path / "bnd0"
        assert cli.main(
            ["bounds", "--input", str(power_economy_file), "--out", str(out)]
        ) == 0
        payload = json.loads((out / "bounds.json").read_text())
        for entry in payload["theta"].values():
            assert abs(entry["lambda_bar"]) <= 1e-10

    def test_one_eigensolve(self, tmp_path, recursive_economy_file, monkeypatch):
        calls = count_calls(monkeypatch, mk, "perron_frobenius")
        assert cli.main(
            ["bounds", "--input", str(recursive_economy_file), "--out", str(tmp_path)]
        ) == 0
        assert len(calls) == 1

    def test_ten_state_economy_not_rejected(self, tmp_path):
        # a valid economy whose dual Newton used to stall at the round-off
        # floor of the dual value and exit 2
        eco = random_recursive_economy(np.random.default_rng(1), 10)
        path = tmp_path / "economy.json"
        path.write_text(json.dumps(mk.economy_to_dict(eco)))
        out = tmp_path / "bnd"
        assert cli.main(
            ["bounds", "--input", str(path), "--out", str(out), "--theta=-1,0,1"]
        ) == 0
        payload = json.loads((out / "bounds.json").read_text())
        for entry in payload["theta"].values():
            assert entry["converged"]
            assert np.max(np.abs(entry["constraint_residuals"])) <= 1e-8

    def test_entropy_bound_with_underflowed_primal(self, tmp_path):
        # at theta = 0 the primal exp(z - 1) underflows to 0 on some of the
        # 1,296 population rows, where 0 log 0 = 0 is the kernel's limit
        path = tmp_path / "economy.json"
        path.write_text(json.dumps(mk.economy_to_dict(stagnation_grid_economy())))
        out = tmp_path / "bnd"
        assert cli.main(
            ["bounds", "--input", str(path), "--out", str(out), "--theta=-1,0,1"]
        ) == 0
        payload = json.loads((out / "bounds.json").read_text())
        for entry in payload["theta"].values():
            assert entry["lambda_bar"] <= entry["population_discrepancy"] + 1e-10
            assert entry["duality_gap"] <= 1e-10


class TestDemoApprox:
    def test_report_structure_and_determinism(self, tmp_path):
        overrides = ["--override", "rhos=1.0,0.01", "--override", "n_zeta=11",
                     "--override", "n_y=21"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["demo-approx", "--out", str(out_a), *overrides]) == 0
        assert cli.main(["demo-approx", "--out", str(out_b), *overrides]) == 0
        assert (out_a / "approx_residuals.csv").read_bytes() == (
            out_b / "approx_residuals.csv"
        ).read_bytes()
        report = json.loads((out_a / "approx_report.json").read_text())
        assert set(report["spectral_gaps"]) == {"1.0", "0.01"}
        # near-unit-root persistence admits more near-solutions and a
        # narrower spectral gap
        assert report["near_solutions"]["0.01"] >= report["near_solutions"]["1.0"]
        assert report["spectral_gaps"]["0.01"] < report["spectral_gaps"]["1.0"]

    def test_residual_profile_shapes(self, tmp_path):
        out = tmp_path / "r"
        assert cli.main(
            ["demo-approx", "--out", str(out), "--override", "rhos=1.0",
             "--override", "n_zeta=7", "--override", "n_y=15"]
        ) == 0
        _, rows = read_csv(out / "approx_residuals.csv")
        assert rows.shape == (7, 3)
        residuals = rows[:, 2]
        # strong reversion: residual is small only near its minimizer
        assert residuals.min() < 1e-2
        assert residuals.max() > 10 * residuals.min()
