"""End-to-end tests of the command-line interface."""

import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from recovery_lab import cli
from recovery_lab import lrr as lrr_mod
from recovery_lab import markov as mk

from conftest import (
    count_calls,
    distorted_grid_economy,
    random_recursive_economy,
    stagnation_grid_economy,
)


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


def test_lrr_run_loads_no_scipy(tmp_path):
    # the exponents come from the Magnus propagator, not scipy.integrate, and
    # the demo's residuals and gaps are closed forms, not a scipy.special grid
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, recovery_lab.cli as c; "
        f"assert c.main(['lrr', '--out', {str(tmp_path / 'lrr')!r}]) == 0; "
        f"assert c.main(['demo-approx', '--out', {str(tmp_path / 'demo')!r}]) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def as_lists(node):
    """The payload with every numpy array replaced by its nested lists."""
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {key: as_lists(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [as_lists(value) for value in node]
    return node


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
    cli._write_json(tmp_path / "t.json", payload)
    expected = json.dumps(as_lists(payload), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "t.json").read_bytes() == expected.encode()


_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
_SPECIAL_FLOATS = st.sampled_from([-0.0, 5e-324, np.inf, -np.inf, np.nan])
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=st.floats() | _SPECIAL_FLOATS),
    hnp.arrays(np.int64, _SHAPES),
)
_LEAVES = st.one_of(
    st.booleans(), st.none(), st.integers(), st.floats(),
    st.text() | st.sampled_from(["p\u0302", "e*", "\u03b7\u0302"]), _ARRAYS,
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payload=_PAYLOADS)
def test_write_json_of_any_payload_matches_json_dumps(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "t.json"
    cli._write_json(path, payload)
    expected = json.dumps(as_lists(payload), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


def test_write_csv_matches_savetxt(tmp_path):
    # more rows than one formatting block, with integer and special values
    rng = np.random.default_rng(2)
    n = cli._CSV_BLOCK_ROWS + 5
    wide = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    cols = [wide, np.arange(n), rng.random(n)]
    cols[0][:4] = [np.nan, np.inf, -0.0, 5e-324]
    cli._write_csv(tmp_path / "t.csv", ["a", "b", "c"], cols)
    np.savetxt(tmp_path / "ref.csv", np.column_stack(cols), fmt="%.12g", delimiter=",",
               header="a,b,c", comments="")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_cells_match_python_format(tmp_path):
    floats = np.array([-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0])
    ints = np.arange(floats.size) * 10**6 - 3
    cli._write_csv(tmp_path / "t.csv", ["x", "k"], [floats, ints])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "x,k"
    assert lines[1:] == [f"{float(x):.12g},{float(k):.12g}" for x, k in zip(floats, ints)]


# subcommand -> the flags it reads; any other flag is a usage error
FLAGS = {
    "recover": {"--input", "--out"},
    "forward": {"--input", "--out", "--horizons"},
    "yields": {"--input", "--out", "--horizons"},
    "lrr": {"--input", "--out", "--override", "--horizons", "--seed"},
    "bounds": {"--input", "--out", "--override", "--theta"},
    "demo-approx": {"--out", "--override"},
}
FLAG_VALUES = {
    "--input": "economy.json",
    "--out": "out",
    "--override": "k=1",
    "--horizons": "1:2:1",
    "--seed": "3",
    "--theta": "5",
}


@pytest.mark.parametrize("command", ["recover", "forward", "yields", "bounds", "lrr"])
@pytest.mark.parametrize("payload", [[1, 2], [[1]], 3, "economy", None])
def test_non_object_input_is_an_input_error(command, payload, tmp_path, capsys):
    # a list used to reach economy_from_dict or params_from_dict and crash
    # there with a TypeError traceback
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert cli.main([command, "--input", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "input error: input JSON must be an object" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


ECONOMY = {"transition": [[0.9, 0.1], [0.2, 0.8]], "sdf": [[0.95, 0.97], [0.93, 0.96]]}
PRICES_ONLY = {"prices": [[0.8, 0.1], [0.2, 0.7]]}


@pytest.mark.parametrize(
    "command, payload, extra, message",
    [
        # a null transition was a 0-d array whose shape[0] raised IndexError
        *[pytest.param(c, {**ECONOMY, "transition": None}, [],
                       "economy field 'transition' must be a matrix, got shape ()",
                       id=f"{c}-null-transition")
          for c in ("recover", "forward", "yields", "bounds")],
        *[pytest.param(c, {**ECONOMY, "sdf": [0.9, 0.9]}, [],
                       "economy field 'sdf' must be a matrix, got shape (2,)",
                       id=f"{c}-vector-sdf")
          for c in ("recover", "forward", "yields", "bounds")],
        pytest.param("yields", PRICES_ONLY, [], "yields needs a full economy",
                     id="yields-prices-only"),
        pytest.param("bounds", PRICES_ONLY, [], "bounds needs a full economy",
                     id="bounds-prices-only"),
        pytest.param("bounds", ECONOMY, ["--override", "payoff=arrow", "--override", "k=1"],
                     "unknown overrides for bounds: ['k']", id="bounds-unknown-override"),
        pytest.param("forward", ECONOMY, ["--horizons", "1:5"],
                     "horizons must be 'a:b:step'", id="forward-horizons-1:5"),
        pytest.param("forward", ECONOMY, ["--horizons", "5:1:1"],
                     "horizons range must be increasing", id="forward-horizons-5:1:1"),
        pytest.param("yields", ECONOMY, ["--horizons", "1:5:0"],
                     "horizons range must be increasing", id="yields-horizons-1:5:0"),
    ],
)
def test_malformed_economy_input_is_an_input_error(
    command, payload, extra, message, tmp_path, capsys
):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    argv = [command, "--input", str(path), "--out", str(tmp_path / "o"), *extra]
    assert cli.main(argv) == 1
    assert f"input error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestFlagTable:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_exactly_the_flags_read(self, command, capsys):
        assert cli.main([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        assert listed == FLAGS[command] | {"--help"}

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in sorted(FLAGS) for f in sorted(FLAG_VALUES) if f not in FLAGS[c]],
    )
    def test_flag_not_read_is_a_usage_error(self, command, flag, tmp_path, capsys):
        argv = [command]
        for own in sorted(FLAGS[command] & {"--input", "--out"}):
            argv += [own, str(tmp_path / FLAG_VALUES[own])]
        assert cli.main([*argv, flag, FLAG_VALUES[flag]]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["recover", "forward", "yields", "bounds"])
    def test_benchmark_argv_with_input_exits_zero(self, command, tmp_path, power_economy_file):
        out = tmp_path / command
        assert cli.main([command, "--input", str(power_economy_file), "--out", str(out)]) == 0
        assert any(out.iterdir())

    def test_benchmark_argv_of_lrr_and_demo_exit_zero(self, tmp_path):
        lrr_argv = ["lrr", "--out", str(tmp_path / "lrr"), "--seed", "1",
                    "--override", "n_paths=5000"]
        assert cli.main(lrr_argv) == 0
        assert cli.main(["demo-approx", "--out", str(tmp_path / "demo")]) == 0
        report = json.loads((tmp_path / "demo" / "approx_report.json").read_text())
        # the gap at rho = 1e-4 is 1e-4, and it must stay positive
        assert all(gap > 0.0 for gap in report["spectral_gaps"].values())


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
        assert cli.main(
            ["forward", "--input", str(power_economy_file), "--out", str(out),
             "--horizons", "5"]
        ) == 0
        payload = json.loads((out / "forward_measures.json").read_text())
        assert set(payload["forward"]) == {"5"}

    def test_forward_at_extreme_price_scale(self, tmp_path):
        # every s = 2^1020 used to overflow in the product chain of Q's powers;
        # forward measures do not depend on Q's scale, and bond prices scale
        # with it exactly
        written = {}
        for name, s in (("huge", 2.0**1020), ("unit", 1.0)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**ECONOMY, "sdf": [[s, s], [s, s]]}))
            assert cli.main(
                ["forward", "--input", str(path), "--out", str(tmp_path / name)]
            ) == 0
            written[name] = json.loads((tmp_path / name / "forward_measures.json").read_text())
        huge, unit = written["huge"], written["unit"]
        for key in ("risk_neutral", "forward"):
            assert json.dumps(huge[key]) == json.dumps(unit[key])
        assert huge["bond_prices"] == [b * 2.0**1020 for b in unit["bond_prices"]]

    def test_yields_outputs(self, tmp_path, recursive_economy_file):
        out = tmp_path / "yld"
        assert cli.main(
            ["yields", "--input", str(recursive_economy_file), "--out", str(out),
             "--horizons", "1:41:20"]
        ) == 0
        header, rows = read_csv(out / "yields.csv")
        assert header == ["horizon", "state", "yield_p", "yield_p_hat"]
        assert rows.shape == (6, 4)  # 3 horizons x 2 states

    def test_yields_one_eigensolve(self, tmp_path, recursive_economy_file, monkeypatch):
        calls = count_calls(monkeypatch, mk, "perron_frobenius")
        assert cli.main(
            ["yields", "--input", str(recursive_economy_file), "--out", str(tmp_path)]
        ) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "field, value",
        [("payoff", [1.0, 2.0, 3.0]), ("growth", [[1.0, 1.1], [0.9, 1.0], [1.2, 1.0]]),
         ("payoff", np.ones((2, 2, 2)).tolist())],
    )
    def test_yields_cash_flow_of_wrong_shape_names_the_expected_one(
        self, tmp_path, recursive_economy, field, value, capsys
    ):
        # used to exit 1 with numpy's matmul or broadcasting message (or, for
        # three axes, without naming the shape)
        path = tmp_path / "eco.json"
        path.write_text(json.dumps({**mk.economy_to_dict(recursive_economy), field: value}))
        assert cli.main(["yields", "--input", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and "shape (2,)" in err and "shape (2, 2)" in err


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
        # the exact share of each law beyond its mean +/- 4 sd grid
        outside = summary["density_mass_outside_grid"]
        assert set(outside) == {"p", "p_hat", "risk_neutral"}
        assert all(0.0 < share < 1e-2 for share in outside.values())
        for name in outside:
            _, rows = read_csv(out / f"density_{name}.csv")
            assert np.all(rows[:, 2] > 0.0)
            assert rows[:, 2].sum() == pytest.approx(1.0, abs=1e-12)

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

    def test_draws_no_random_numbers(self, tmp_path, monkeypatch, capsys):
        # the stationary laws and the yield quartiles are computed, not
        # simulated, so the outputs do not depend on --seed; the Monte Carlo
        # overrides of earlier versions are accepted and ignored with a note
        def no_rng(*args, **kwargs):
            raise AssertionError("recovery-lab lrr drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        for seed in ("4", "5"):
            assert cli.main(
                ["lrr", "--out", str(tmp_path / seed), "--seed", seed, "--override", "n_paths=200",
                 "--override", "burn_in=12", "--horizons", "12:24:12"]
            ) == 0
        assert capsys.readouterr().err.count("n_paths, burn_in ignored") == 2
        for f in ("density_p.csv", "density_p_hat.csv", "density_risk_neutral.csv",
                  "yields_consumption.csv", "yields_bond.csv", "lrr_summary.json"):
            assert (tmp_path / "4" / f).read_bytes() == (tmp_path / "5" / f).read_bytes()

    def test_one_solve_per_run(self, tmp_path, monkeypatch):
        # yield_curves takes the value function, SDF and eigenpair of the run
        calls = [
            count_calls(monkeypatch, lrr_mod, name)
            for name in ("solve_value_function", "sdf_coefficients", "solve_pf")
        ]
        assert cli.main(["lrr", "--out", str(tmp_path)]) == 0
        assert [len(c) for c in calls] == [1, 1, 1]

    @pytest.mark.parametrize("value", ["0", "2.5", "abc"])
    def test_invalid_bins_is_an_input_error(self, tmp_path, value, capsys):
        # bins = 0 used to exit 0 with empty densities, 2.5 became 2 and abc
        # failed in int()
        argv = ["lrr", "--out", str(tmp_path), "--override", f"bins={value}",
                "--horizons", "12:24:12"]
        assert cli.main(argv) == 1
        assert "bins must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "lrr_summary.json").exists()

    @pytest.mark.parametrize(
        "override, field",
        [
            ("gamma=abc", "gamma"),
            ("iota=1", "iota"),
            ("beta_c=0.001", "beta_c"),
            ("sigma_1=0,0.0003", "sigma_1"),
            ("alpha_c=0.0078,0", "alpha_c"),
            ("iota=0,1,2", "iota"),
            ("mu_11=nan", "mu_11"),
            ("sigma_2=0,0,nan", "sigma_2"),
            ("mu_12=inf", "mu_12"),
        ],
    )
    def test_malformed_parameter_is_an_input_error(self, tmp_path, capsys, override, field):
        # these crashed with a TypeError, failed inside numpy, or exited 2
        # as model errors
        argv = ["lrr", "--out", str(tmp_path), "--horizons", "12:24:12", "--override", override]
        assert cli.main(argv) == 1
        assert f"input error: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "lrr_summary.json").exists()

    def test_degenerate_volatility_factor_exit_two(self, tmp_path):
        # X2 without shocks has a point-mass stationary law: no density
        assert cli.main(
            ["lrr", "--out", str(tmp_path / "x"), "--override", "sigma_2=0,0,0",
             "--horizons", "12:24:12"]
        ) == 2


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

    def test_theta_next_to_zero(self, tmp_path, recursive_economy_file):
        # theta = 1e-9 used to exit 2: the dual's power formulas divided by it
        out = tmp_path / "bnd"
        assert cli.main(
            ["bounds", "--input", str(recursive_economy_file), "--out", str(out),
             "--theta=1e-9,0"]
        ) == 0
        payload = json.loads((out / "bounds.json").read_text())
        near, zero = payload["theta"]["1e-09"], payload["theta"]["0.0"]
        assert near["converged"]
        assert near["lambda_bar"] == pytest.approx(zero["lambda_bar"], rel=1e-8)
        # the multipliers are phi's: phi'(1) = 1 / theta moves the first one
        np.testing.assert_allclose(near["multipliers"][1:], zero["multipliers"][1:], rtol=1e-8)
        shift = near["multipliers"][0] - 1e9
        assert shift == pytest.approx(zero["multipliers"][0] - 1.0, abs=1e-6)

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

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_is_an_input_error(
        self, tmp_path, capsys, recursive_economy_file, theta
    ):
        # nan exited 2 with "dual line search failed to make progress"
        argv = ["bounds", "--input", str(recursive_economy_file), "--out", str(tmp_path),
                f"--theta=0,{theta}"]
        assert cli.main(argv) == 1
        assert "input error: theta must be finite" in capsys.readouterr().err
        assert not (tmp_path / "bounds.json").exists()

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

    def test_pairs_menu_on_distorted_grid_pins_population_value(self, tmp_path):
        # weights from 1e-24 to 1e-1: the dual Newton stopped on absolute
        # floors here and the run exited 2; the complete transition menu
        # pins J, which the constraints then give directly
        path = tmp_path / "economy.json"
        path.write_text(json.dumps(mk.economy_to_dict(distorted_grid_economy((0, 1)))))
        out = tmp_path / "bnd"
        argv = ["bounds", "--input", str(path), "--out", str(out)]
        assert cli.main([*argv, "--override", "payoff=arrow_pairs", "--theta=-1,0,1"]) == 0
        payload = json.loads((out / "bounds.json").read_text())
        assert payload["n_assets"] == 36 * 36
        for entry in payload["theta"].values():
            assert entry["iterations"] == 0
            assert entry["lambda_bar"] == pytest.approx(
                entry["population_discrepancy"], rel=1e-10
            )
            assert entry["duality_gap"] <= 1e-10


# the demo's model, as the program states it in _approx_family_report
DEMO_P_X = np.array([[0.9, 0.1], [0.2, 0.8]])
DEMO_G, DEMO_DELTA, DEMO_ZETA_TRUE, DEMO_M = 0.05, 0.02, 0.5, np.array([1.0, 1.3])
DEMO_DRIFT = np.array([DEMO_G, -2.0 * DEMO_G])  # zero mean under pi_x = (2/3, 1/3)


def demo_half_range(rho, sigma_y):
    sd_y = np.sqrt((sigma_y**2 + 2.0 * DEMO_G**2) / max(1.0 - (1.0 - rho) ** 2, 1e-12))
    return min(5.0 * sd_y, 100.0)


def demo_pricing_kernel():
    """e^{-delta} P_x(x, x') m(x') / m(x), the x-part of the pricing operator."""
    return np.exp(-DEMO_DELTA) * DEMO_P_X * DEMO_M[None, :] / DEMO_M[:, None]


def quadrature_residual(rho, zeta, sigma_y):
    """max |(Q eps) - lambda eps| / (lambda eps) over 4,001 points of |y| <= Y,
    the y-expectation by 60-node Gauss-Hermite and (lambda, e) by ``eig``."""
    y = np.linspace(-1.0, 1.0, 4001) * demo_half_range(rho, sigma_y)
    nodes, weights = np.polynomial.hermite_e.hermegauss(60)
    weights = weights / np.sqrt(2.0 * np.pi)
    kappa = zeta + DEMO_ZETA_TRUE
    kernel = demo_pricing_kernel()
    vals, vecs = np.linalg.eig(
        np.exp(kappa * DEMO_DRIFT + 0.5 * (kappa * sigma_y) ** 2)[:, None] * kernel
    )
    top = int(np.argmax(vals.real))
    lam, e = vals[top].real, np.abs(vecs[:, top].real)
    # (x, y, node) -> y' = (1 - rho) y + d(x) + sigma_y eps
    y_next = (1.0 - rho) * y[None, :, None] + DEMO_DRIFT[:, None, None] + sigma_y * nodes
    moment = np.exp(DEMO_ZETA_TRUE * (y_next - y[:, None]) + zeta * y_next) @ weights
    q_eps = (kernel @ e)[:, None] * moment
    eps = e[:, None] * np.exp(zeta * y)
    return float(np.max(np.abs(q_eps - lam * eps) / (lam * eps)))


def tauchen_gap(rho, n_y):
    """1 - |lambda_2| / |lambda_1| of the pricing operator on a Tauchen grid
    of n_y cells per growth state, tails lumped at the ends."""
    from scipy.special import ndtr

    persistence = 1.0 - rho
    half = demo_half_range(rho, 0.25)
    grid = np.linspace(-half, half, n_y)
    edges = np.concatenate([[-np.inf], 0.5 * (grid[:-1] + grid[1:]), [np.inf]])
    blocks = []
    for d in DEMO_DRIFT:
        z = (edges[None, :] - (persistence * grid + d)[:, None]) / 0.25
        # upper-tail cells from the survival function, so they stay positive
        cells = np.where(
            0.5 * (z[:, :-1] + z[:, 1:]) <= 0, np.diff(ndtr(z), axis=1), -np.diff(ndtr(-z), axis=1)
        )
        blocks.append(cells / cells.sum(axis=1, keepdims=True))
    w = np.stack(blocks)  # y-transition of each growth state
    # Q((x, y), (x', y')) = e^{-delta} P_x m'/m  w_x(y, y') e^{zeta_true (y' - y)}
    q = demo_pricing_kernel()[:, None, :, None] * w[:, :, None, :]
    q = q * np.exp(DEMO_ZETA_TRUE * (grid[None, :] - grid[:, None]))[None, :, None, :]
    mags = np.sort(np.abs(np.linalg.eigvals(q.reshape(2 * n_y, 2 * n_y))))[::-1]
    return 1.0 - mags[1] / mags[0]


class TestDemoApprox:
    def test_report_structure_and_determinism(self, tmp_path):
        overrides = ["--override", "rhos=1.0,0.01", "--override", "n_zeta=11"]
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

    def test_default_gaps_and_near_solutions(self, tmp_path):
        assert cli.main(["demo-approx", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "approx_report.json").read_text())
        rhos = ["1.0", "0.1", "0.01", "0.0001"]
        gaps = report["spectral_gaps"]
        assert sorted(gaps) == sorted(rhos)
        for rho, want in zip(rhos, [0.3, 0.1, 0.01, 1e-4]):
            assert gaps[rho] == pytest.approx(want, rel=1e-12)
        # only zeta = -zeta_true = -0.5 solves, at every persistence; its
        # neighbours on the 25-point grid miss by 0.00115 at rho = 1e-4
        assert report["near_solutions"] == {rho: 1 for rho in rhos}
        header, rows = read_csv(tmp_path / "approx_residuals.csv")
        assert header == ["rho", "zeta", "residual"]
        assert rows.shape == (100, 3)
        (miss,) = rows[(rows[:, 0] == 1e-4) & (rows[:, 1] == -0.625), 2]
        assert miss == pytest.approx(0.00115, rel=1e-3)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        rho=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
        zeta=st.floats(-1.0, 2.0),
        sigma_y=st.floats(0.05, 1.0),
    )
    def test_residual_matches_quadrature(self, rho, zeta, sigma_y):
        (entry,) = cli._approx_family_report([rho], np.array([zeta]), sigma_y, DEMO_G,
                                             DEMO_ZETA_TRUE)
        (_, _, got), = entry["rows"]
        want = quadrature_residual(rho, zeta, sigma_y)
        # the reference cancels near zeta = -zeta_true, hence the absolute term
        assert abs(got - want) <= 1e-10 * want + 1e-13

    @pytest.mark.parametrize("rho", [1.0, 0.1, 0.01])
    def test_gap_matches_tauchen_chain(self, rho):
        (entry,) = cli._approx_family_report([rho], np.zeros(1), 0.25, DEMO_G, DEMO_ZETA_TRUE)
        assert entry["spectral_gap"] == pytest.approx(tauchen_gap(rho, 201), rel=1e-3)

    @pytest.mark.parametrize(
        "override",
        ["n_y=0", "n_zeta=0", "n_zeta=1.5",
         "sigma_y=-1", "sigma_y=0", "sigma_y=inf", "sigma_y=nan", "sigma_y=a",
         "rhos=abc", "rhos=0", "rhos=-1", "rhos=2", "rhos=3", "rhos=1,nan", "rhos=inf",
         "zeta_min=1,2", "zeta_max=a", "zeta_min=nan", "zeta_max=inf", "zeta_min=3",
         "foo"],
    )
    def test_invalid_grid_override_is_an_input_error(self, override, tmp_path, capsys):
        # the demo has no grid, so n_y is an unknown override; sigma_y = -1
        # used to exit 0 with meaningless residuals and sigma_y = 0 to exit 2
        # as if the model were at fault; rhos = abc and zeta_min = 1,2 raised
        # TypeError, rhos = 0 (a unit root) exited 0 and rhos = -1 or 3
        # exited 2; zeta_min = 3 is above the default zeta_max; foo is no key=value
        argv = ["demo-approx", "--out", str(tmp_path), "--override", "rhos=1.0",
                "--override", "n_zeta=3", "--override", override]
        assert cli.main(argv) == 1
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "approx_report.json").exists()

    def test_residual_profile_shapes(self, tmp_path):
        out = tmp_path / "r"
        assert cli.main(
            ["demo-approx", "--out", str(out), "--override", "rhos=1.0",
             "--override", "n_zeta=7"]
        ) == 0
        _, rows = read_csv(out / "approx_residuals.csv")
        assert rows.shape == (7, 3)
        residuals = rows[:, 2]
        # strong reversion: residual is small only near its minimizer
        assert residuals.min() < 1e-2
        assert residuals.max() > 10 * residuals.min()
