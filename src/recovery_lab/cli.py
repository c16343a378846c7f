"""Command-line front end.

Subcommands:

  recover      economy JSON -> recovered measure JSON + decomposition table
  forward      risk-neutral and forward measures, limit diagnostics
  yields       per-state yield curves on a payoff or growing cash flow
  lrr          long-run-risk pipeline: densities + yield-curve quartiles
  bounds       divergence lower bounds on the martingale component
  demo-approx  near-multiplicity of the eigenfunction family under highly
               persistent (almost unit-root) cumulative shocks

Exit codes: 0 success, 1 usage/input error, 2 mathematical-validity error.
Outputs are plot-ready CSV/JSON files; reruns with the same config and seed
are byte-identical.  The environment variable RECOVERY_LAB_THREADS caps the
number of worker threads used for independent simulations (default 1).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import lrr as lrr_mod
from . import markov
from .exceptions import ModelValidityError

__all__ = ["main"]


def _max_threads() -> int:
    raw = os.environ.get("RECOVERY_LAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns as a CSV table, each cell as ``%.12g``."""
    np.savetxt(
        path,
        np.column_stack(columns),
        fmt="%.12g",
        delimiter=",",
        header=",".join(header),
        comments="",
    )


# a numpy array in a JSON payload becomes this string plus its index until written
_ARRAY_MARK = "\x00array"
_ARRAY_SLOT = re.compile(r'"\\u0000array(\d+)"')


def _write_json(path: Path, payload) -> None:
    """Write ``json.dump(payload, indent=2, sort_keys=True)`` and a newline.

    numpy arrays in the payload are encoded one row at a time, byte for byte
    as their nested lists would be, so a large matrix never exists as Python
    floats all at once.
    """
    arrays = []

    def hide(node):
        if isinstance(node, np.ndarray) and node.ndim:
            arrays.append(node)
            return f"{_ARRAY_MARK}{len(arrays) - 1}"
        if isinstance(node, dict):
            return {key: hide(value) for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            return [hide(value) for value in node]
        return node

    text = json.dumps(hide(payload), indent=2, sort_keys=True)
    pieces = _ARRAY_SLOT.split(text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pieces[0])
        for k in range(1, len(pieces), 2):
            line = pieces[k - 1].rsplit("\n", 1)[-1]
            depth = (len(line) - len(line.lstrip(" "))) // 2
            for chunk in _array_chunks(arrays[int(pieces[k])], depth):
                fh.write(chunk)
            fh.write(pieces[k + 1])
        fh.write("\n")


def _array_chunks(a: np.ndarray, depth: int):
    """``json.dumps(a.tolist(), indent=2)`` nested ``depth`` levels deep, one row at a time."""
    if a.shape[0] == 0:
        yield "[]"
        return
    pad = "\n" + "  " * (depth + 1)
    if a.ndim > 1:
        yield "["
        for k, row in enumerate(a):
            yield ("," if k else "") + pad
            yield from _array_chunks(row, depth + 1)
    else:
        items = a.tolist()
        fast = a.dtype.kind == "f" and bool(np.all(np.isfinite(a)))
        yield "[" + pad + ("," + pad).join(map(float.__repr__ if fast else json.dumps, items))
    yield "\n" + "  " * depth + "]"


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if "," in raw:
            out[key] = tuple(float(tok) for tok in raw.split(","))
        else:
            try:
                out[key] = float(raw)
            except ValueError:
                out[key] = raw
    return out


def _parse_horizons(spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) != 3:
        raise ValueError("horizons must be 'a:b:step' or a single integer")
    a, b, step = (int(p) for p in parts)
    if step <= 0 or b < a:
        raise ValueError("horizons range must be increasing with positive step")
    return list(range(a, b + 1, step))


def _load_input(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_recover(args) -> int:
    payload = _load_input(args.input)
    source = markov.economy_from_dict(payload)
    recovered = markov.recover(source)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "recovery.json", markov.recovery_to_dict(recovered))
    if isinstance(source, markov.MarkovPricingEconomy):
        e = recovered.e_hat
        i, j = np.indices((source.n, source.n))
        matrices = (
            source.transition.entries,
            source.sdf.entries,
            source.prices.entries,
            recovered.p_hat.entries,
            recovered.h_increments,
            np.exp(recovered.eta_hat) * e[:, None] / e[None, :],
        )
        _write_csv(
            out / "decomposition.csv",
            ["i", "j", "p", "s", "q", "p_hat", "h_hat", "trend_eigen_part"],
            [m.ravel() for m in (i, j, *matrices)],
        )
    return 0


def run_forward(args) -> int:
    payload = _load_input(args.input)
    source = markov.economy_from_dict(payload)
    prices = (
        source.prices if isinstance(source, markov.MarkovPricingEconomy) else source
    )
    horizons = _parse_horizons(args.horizons or "1:10:1")
    rn, bond = markov.risk_neutral(prices)
    recovered = markov.recover(source)
    forward = markov.forward_measures(prices, horizons)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "forward_measures.json",
        {
            "bond_prices": bond,
            "risk_neutral": rn.entries,
            "forward": {str(t): forward[t].entries for t in horizons},
        },
    )
    taus = [2, 5, 10, 25, 50, 100, 200]
    dists = [
        np.max(np.abs(markov.forward_one_period_limit(prices, tau) - recovered.p_hat.entries))
        for tau in taus
    ]
    _write_csv(out / "forward_limit.csv", ["tau", "sup_distance_to_p_hat"], [taus, dists])
    return 0


def run_yields(args) -> int:
    payload = _load_input(args.input)
    source = markov.economy_from_dict(payload)
    if not isinstance(source, markov.MarkovPricingEconomy):
        raise ValueError("yields needs a full economy (transition + sdf)")
    if "growth" in payload:
        cash_flow = np.asarray(payload["growth"], dtype=float)
    elif "payoff" in payload:
        cash_flow = np.asarray(payload["payoff"], dtype=float)
    else:
        cash_flow = np.ones(source.n)
    horizons = _parse_horizons(args.horizons or "1:200:10")
    under_p = markov.yield_curve(source, cash_flow, horizons, measure="P")
    under_hat = markov.yield_curve(source, cash_flow, horizons, measure="P_hat")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t, i = np.meshgrid(horizons, np.arange(source.n), indexing="ij")
    _write_csv(
        out / "yields.csv",
        ["horizon", "state", "yield_p", "yield_p_hat"],
        [t.ravel(), i.ravel(), under_p.ravel(), under_hat.ravel()],
    )
    return 0


def _density_columns(result: lrr_mod.DensityResult):
    """Bin centres and mass of the occupied cells, in row-major order."""
    centers1 = 0.5 * (result.x1_edges[:-1] + result.x1_edges[1:])
    centers2 = 0.5 * (result.x2_edges[:-1] + result.x2_edges[1:])
    a, b = np.nonzero(result.hist > 0)
    return [centers1[a], centers2[b], result.hist[a, b]]


def run_lrr(args) -> int:
    if args.input:
        params = lrr_mod.params_from_dict(_load_input(args.input))
    else:
        params = lrr_mod.load_default_params()
    overrides = _parse_overrides(args.override)
    sim_keys = {"n_paths": 10_000, "burn_in": 600.0, "dt": lrr_mod.DT_DEFAULT, "bins": 100}
    sim = {k: type(v)(overrides.pop(k, v)) for k, v in sim_keys.items()}
    if overrides:
        params = lrr_mod.apply_overrides(params, overrides)

    value = lrr_mod.solve_value_function(params)
    sdf = lrr_mod.sdf_coefficients(params, value)
    pf = lrr_mod.solve_pf(params, sdf)
    cm = lrr_mod.changed_measure(params, pf)
    rn = lrr_mod.risk_neutral_dynamics(params, sdf)

    dynamics = {
        "p": params.dynamics(),
        "p_hat": cm.dynamics(params),
        "risk_neutral": rn.dynamics(params),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def simulate(job):
        dyn, seed = job
        return lrr_mod.simulate_states(
            dyn, sim["burn_in"], sim["dt"], int(sim["n_paths"]), seed
        )

    # one stationary ensemble per law for the densities; the physical one
    # also supplies the yield draws, the recovered law's draws use seed + 1
    jobs = [(dyn, args.seed) for dyn in dynamics.values()]
    jobs.append((dynamics["p_hat"], args.seed + 1))
    workers = min(_max_threads(), len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            ensembles = list(pool.map(simulate, jobs))
    else:
        ensembles = list(map(simulate, jobs))
    densities = {
        name: lrr_mod.density_from_draws(*draws, bins=int(sim["bins"]))
        for name, draws in zip(dynamics, ensembles)
    }
    for name, result in densities.items():
        _write_csv(
            out / f"density_{name}.csv",
            ["x1", "x2", "mass"],
            _density_columns(result),
        )

    horizons = _parse_horizons(args.horizons or "12:1200:12")
    draws = (ensembles[0], ensembles[-1])
    curves = {}
    for flow in ("consumption", "bond"):
        yc = lrr_mod.yield_curves(
            params,
            horizons,
            cash_flow=flow,
            seed=args.seed,
            state_draws=draws,
        )
        curves[flow] = yc
        _write_csv(
            out / f"yields_{flow}.csv",
            [
                "horizon_months",
                "p_q25",
                "p_q50",
                "p_q75",
                "p_hat_q25",
                "p_hat_q50",
                "p_hat_q75",
            ],
            [yc.horizons, *yc.quartiles_p, *yc.quartiles_p_hat],
        )
    _write_json(
        out / "lrr_summary.json",
        {
            "params": lrr_mod.params_to_dict(params),
            "value": {
                "v0": value.v0,
                "v1": value.v1,
                "v2": value.v2,
                "discriminant": value.discriminant,
            },
            "pf": {
                "eta_hat": pf.eta_hat,
                "e1": pf.e1,
                "e2": pf.e2,
                "alpha_h": pf.alpha_h.tolist(),
                "eta_other": pf.eta_other,
            },
            "changed_measure": {
                "mu_11": cm.mu_11,
                "mu_12": cm.mu_12,
                "mu_22": cm.mu_22,
                "iota_hat": cm.iota_hat.tolist(),
            },
            "long_bond_yield_annualized": -pf.eta_hat * lrr_mod.MONTHS_PER_YEAR,
            "density_means": {
                name: densities[name].mean.tolist() for name in densities
            },
            "density_n_nan": {name: densities[name].n_nan for name in densities},
        },
    )
    return 0


def run_bounds(args) -> int:
    payload = _load_input(args.input)
    source = markov.economy_from_dict(payload)
    if not isinstance(source, markov.MarkovPricingEconomy):
        raise ValueError("bounds needs a full economy (transition + sdf)")
    overrides = _parse_overrides(args.override)
    menu = overrides.pop("payoff", "arrow")
    if overrides:
        raise ValueError(f"unknown overrides for bounds: {sorted(overrides)}")
    thetas = [float(tok) for tok in (args.theta or "-1,0,1").split(",")]
    recovered = markov.recover(source)
    problem = bounds_mod.generate_problem_from_chain(
        source, recovered, payoff_spec=menu, mode="population"
    )
    results = {}
    for theta in thetas:
        res = bounds_mod.unconditional_bound(problem, theta)
        results[str(theta)] = {
            "lambda_bar": res.lambda_bar,
            "dual_value": res.dual_value,
            "duality_gap": res.duality_gap,
            "multipliers": res.multipliers.tolist(),
            "constraint_residuals": res.constraint_residuals.tolist(),
            "converged": res.converged,
            "population_discrepancy": bounds_mod.population_discrepancy(
                source, recovered, theta
            ),
        }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "bounds.json",
        {
            "theta": results,
            "kazemi_errors": bounds_mod.kazemi_test(problem).tolist(),
            "n_assets": problem.n_assets,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# stationary-approximation demo
# ---------------------------------------------------------------------------


def _tauchen_rows(means, sd, grid):
    """Cell probabilities of N(mean, sd^2) on a grid, tails lumped at the ends.

    Differences in the upper tail are taken on the survival function so that
    tiny transition probabilities stay positive on both sides (a plain cdf
    difference rounds to zero above ~8 standard deviations, which would make
    nearly frozen chains spuriously reducible).
    """
    from scipy.special import ndtr  # standard normal cdf

    edges = np.concatenate(
        [[-np.inf], 0.5 * (grid[:-1] + grid[1:]), [np.inf]]
    )
    z = (edges[None, :] - np.asarray(means)[:, None]) / sd
    lower = np.diff(ndtr(z), axis=1)
    upper = -np.diff(ndtr(-z), axis=1)
    mid = 0.5 * (z[:, :-1] + z[:, 1:])
    rows = np.where(mid <= 0, lower, upper)
    return rows / rows.sum(axis=1, keepdims=True)


def _approx_family_report(rho_list, zeta_grid, n_y, sigma_y, g, delta, zeta_true, m_x):
    """Eigen-residuals of the zeta-indexed candidate family per persistence level.

    For each rho, a two-state growth chain drives a discretized
    autoregressive cumulative block with reversion rho.  The candidate
    eigenfunction exp(zeta y) e(x) is fitted from the stationary-weighted
    collapsed operator; the reported residual is the relative sup-norm
    eigenvalue defect over all product states, and the spectral gap of the
    product pricing matrix records how close the dominant eigenvalue is to
    being multiple.
    """
    p_x = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi_x = markov.stationary_distribution(markov.StochasticMatrix(p_x))
    drift = np.array([g, -g * pi_x[0] / pi_x[1]])  # zero stationary mean
    m_x = np.asarray(m_x, dtype=float)

    report = []
    for rho in rho_list:
        persistence = 1.0 - rho
        sd_y = np.sqrt(
            (sigma_y**2 + 2.0 * g**2) / max(1.0 - persistence**2, 1e-12)
        )
        half = min(5.0 * sd_y, 100.0)
        grid = np.linspace(-half, half, n_y)
        n_states = 2 * n_y

        q_tilde = np.zeros((n_states, n_states))
        for i in range(2):
            means = persistence * grid + drift[i]
            w = _tauchen_rows(means, sigma_y, grid)  # (n_y, n_y)
            dy = grid[None, :] - grid[:, None]
            for i2 in range(2):
                block = (
                    p_x[i, i2]
                    * w
                    * np.exp(-delta + zeta_true * dy)
                    * (m_x[i2] / m_x[i])
                )
                q_tilde[
                    i * n_y : (i + 1) * n_y, i2 * n_y : (i2 + 1) * n_y
                ] = block

        eigvals = np.linalg.eigvals(q_tilde)
        mags = np.sort(np.abs(eigvals))[::-1]
        gap = float(1.0 - mags[1] / mags[0])

        # stationary weights over grid cells per growth state
        p_tilde = np.zeros_like(q_tilde)
        for i in range(2):
            means = persistence * grid + drift[i]
            w = _tauchen_rows(means, sigma_y, grid)
            for i2 in range(2):
                p_tilde[
                    i * n_y : (i + 1) * n_y, i2 * n_y : (i2 + 1) * n_y
                ] = p_x[i, i2] * w
        pi = markov.stationary_distribution(markov.StochasticMatrix(p_tilde))

        y_full = np.tile(grid, 2)
        rows = []
        for zeta in zeta_grid:
            weights = np.exp(zeta * (y_full[None, :] - y_full[:, None]))
            collapsed = np.zeros((2, 2))
            for i in range(2):
                sl_i = slice(i * n_y, (i + 1) * n_y)
                w_i = pi[sl_i]
                w_i = w_i / w_i.sum()
                for i2 in range(2):
                    sl_j = slice(i2 * n_y, (i2 + 1) * n_y)
                    collapsed[i, i2] = w_i @ (
                        (q_tilde[sl_i, sl_j] * weights[sl_i, sl_j]).sum(axis=1)
                    )
            lam, vecs = np.linalg.eig(collapsed)
            top = int(np.argmax(lam.real))
            e_x = np.abs(vecs[:, top].real)
            lam_top = float(lam.real[top])
            eps = np.exp(zeta * y_full) * np.repeat(e_x, n_y)
            defect = q_tilde @ eps - lam_top * eps
            residual = float(np.max(np.abs(defect) / eps) / lam_top)
            rows.append((float(rho), float(zeta), residual))
        report.append({"rho": float(rho), "spectral_gap": gap, "rows": rows})
    return report


def run_demo_approx(args) -> int:
    overrides = _parse_overrides(args.override)
    rho_list = overrides.pop("rhos", (1.0, 0.1, 0.01, 1e-4))
    if isinstance(rho_list, float):
        rho_list = (rho_list,)
    n_zeta = int(overrides.pop("n_zeta", 25))
    zeta_lo = float(overrides.pop("zeta_min", -1.0))
    zeta_hi = float(overrides.pop("zeta_max", 2.0))
    n_y = int(overrides.pop("n_y", 41))
    sigma_y = float(overrides.pop("sigma_y", 0.25))
    if overrides:
        raise ValueError(f"unknown overrides for demo-approx: {sorted(overrides)}")
    zeta_grid = np.linspace(zeta_lo, zeta_hi, n_zeta)
    report = _approx_family_report(
        rho_list=rho_list,
        zeta_grid=zeta_grid,
        n_y=n_y,
        sigma_y=sigma_y,
        g=0.05,
        delta=0.02,
        zeta_true=0.5,
        m_x=(1.0, 1.3),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [row for entry in report for row in entry["rows"]]
    _write_csv(
        out / "approx_residuals.csv", ["rho", "zeta", "residual"], np.reshape(rows, (-1, 3)).T
    )
    _write_json(
        out / "approx_report.json",
        {
            "spectral_gaps": {str(e["rho"]): e["spectral_gap"] for e in report},
            "near_solutions": {
                str(e["rho"]): sum(1 for _, _, r in e["rows"] if r < 1e-3)
                for e in report
            },
            "zeta_grid": zeta_grid.tolist(),
        },
    )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recovery-lab",
        description="Recover probability measures from Arrow prices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "recover": (run_recover, True),
        "forward": (run_forward, True),
        "yields": (run_yields, True),
        "lrr": (run_lrr, False),
        "bounds": (run_bounds, True),
        "demo-approx": (run_demo_approx, False),
    }
    for name, (func, needs_input) in specs.items():
        p = sub.add_parser(name)
        p.add_argument("--input", required=needs_input, help="input JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="K=V",
            help="parameter patch, repeatable",
        )
        p.add_argument("--theta", default=None, help="comma-separated theta values")
        p.add_argument("--horizons", default=None, help="a:b:step horizon range")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ModelValidityError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
