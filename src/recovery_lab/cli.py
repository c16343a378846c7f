"""Command-line front end.

Subcommands:

  recover      economy JSON -> recovered measure JSON + decomposition table
  forward      risk-neutral and forward measures, limit diagnostics
  yields       per-state yield curves on a payoff or growing cash flow
  lrr          long-run-risk pipeline: densities + yield-curve quartiles
  bounds       divergence lower bounds on the martingale component
  demo-approx  near-multiplicity of the eigenfunction family under highly
               persistent (almost unit-root) cumulative shocks

Each subcommand accepts only the flags it reads (see ``_build_parser``);
any other flag is a usage error.  Exit codes: 0 success, 1 usage/input
error, 2 mathematical-validity error.  Outputs are plot-ready CSV/JSON files;
reruns with the same configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import lrr as lrr_mod
from . import markov
from .exceptions import ModelValidityError

__all__ = ["main"]


_CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns as a CSV table, each cell as ``%.12g``.

    Byte for byte what ``np.savetxt`` writes, but each block of rows is
    formatted by one ``%`` operation instead of one per row.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[lo : lo + _CSV_BLOCK_ROWS]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


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


def _load_input(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("input JSON must be an object")
    return payload


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
    horizons = _parse_horizons(args.horizons)
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
    horizons = _parse_horizons(args.horizons)
    under_p = markov.yield_curve(source, cash_flow, horizons, source.transition)
    recovered = markov.recover(source)
    under_hat = markov.yield_curve(source, cash_flow, horizons, recovered.p_hat)
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
    # Monte Carlo settings of earlier versions, still accepted
    ignored = [key for key in ("n_paths", "burn_in", "dt") if overrides.pop(key, None) is not None]
    if ignored:
        print(
            f"note: {', '.join(ignored)} ignored; the stationary laws are computed exactly",
            file=sys.stderr,
        )
    bins = _count_override(overrides, "bins", 100, 1)
    if overrides:
        params = lrr_mod.apply_overrides(params, overrides)

    value = lrr_mod.solve_value_function(params)
    sdf = lrr_mod.sdf_coefficients(params, value)
    pf = lrr_mod.solve_pf(params, sdf)
    cm = lrr_mod.changed_measure(params, pf)

    dynamics = {
        "p": params.dynamics(),
        "p_hat": cm,
        "risk_neutral": lrr_mod.risk_neutral_dynamics(params, sdf),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    laws = {name: lrr_mod.StationaryLaw(dyn) for name, dyn in dynamics.items()}
    densities = {name: law.density(bins) for name, law in laws.items()}
    for name, result in densities.items():
        _write_csv(
            out / f"density_{name}.csv",
            ["x1", "x2", "mass"],
            _density_columns(result),
        )

    horizons = _parse_horizons(args.horizons)
    for flow in ("consumption", "bond"):
        yc = lrr_mod.yield_curves(
            params, sdf, pf, (laws["p"], laws["p_hat"]), horizons, cash_flow=flow
        )
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
                "iota_hat": cm.iota.tolist(),
            },
            "long_bond_yield_annualized": -pf.eta_hat * lrr_mod.MONTHS_PER_YEAR,
            "density_means": {
                name: densities[name].mean.tolist() for name in densities
            },
            "density_mass_outside_grid": {
                name: densities[name].mass_outside_grid for name in densities
            },
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
    thetas = [float(tok) for tok in args.theta.split(",")]
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
            "iterations": res.iterations,
            "n_rows": res.n_rows,
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


def _approx_family_report(rho_list, zeta_grid, sigma_y, g, zeta_true):
    """Eigen-residuals of the zeta-indexed candidate family per persistence level.

    The model: a two-state growth chain x with transition P_x drives the
    cumulative process y' = phi y + d(x) + sigma_y eps, eps ~ N(0, 1), with
    persistence phi = 1 - rho and growth drifts d(x) of zero stationary mean,
    and prices by Q = P e^{-delta} e^{zeta_true (y' - y)} m(x') / m(x).
    Both reported numbers are exact, so no grid is formed.

    Residual.  With kappa = zeta + zeta_true, E[exp(kappa y') | x, y] =
    exp(kappa (phi y + d(x)) + kappa^2 sigma_y^2 / 2), so the candidate
    eps(x, y) = exp(zeta y) e_kappa(x), e_kappa the Perron vector of the
    2 x 2 matrix A_kappa = e^{-delta} diag(e^{kappa d + kappa^2 sigma_y^2 / 2})
    D_m^-1 P_x D_m with root lambda_kappa, satisfies
    (Q eps) / eps = lambda_kappa e^{-kappa rho y} exactly.  The relative
    sup-norm defect |Q eps - lambda_kappa eps| / (lambda_kappa eps) over
    |y| <= Y is therefore expm1(|kappa| rho Y), whatever delta, d and m are;
    Y = min(5 sd_y, 100), with sd_y bounding the stationary standard
    deviation of y.  It vanishes only at zeta = -zeta_true.

    Spectral gap.  Q is conjugate, through e^{zeta_true y} m(x), to
    e^{-delta} times the physical chain, which maps the polynomials in y of
    degree k or less into themselves: on them it is block-triangular with
    diagonal blocks phi^k P_x, as phi^k y^k is the top term of
    E[y'^k | x, y].  Its eigenvalues are e^{-delta} phi^k mu, with
    mu in {1, mu_2} and mu_2 = trace(P_x) - 1, so
    1 - |lambda_2| / lambda_1 = 1 - max(|mu_2|, |phi|).  1 - |phi| is
    min(rho, 2 - rho), written so to keep its digits at small rho.
    """
    mu_2 = np.trace([[0.9, 0.1], [0.2, 0.8]]) - 1.0  # P_x's second eigenvalue
    report = []
    for rho in rho_list:
        persistence = 1.0 - rho
        sd_y = np.sqrt((sigma_y**2 + 2.0 * g**2) / max(1.0 - persistence**2, 1e-12))
        half = min(5.0 * sd_y, 100.0)
        residuals = np.expm1(np.abs(zeta_grid + zeta_true) * rho * half)
        gap = float(min(1.0 - abs(mu_2), rho, 2.0 - rho))
        rows = [(float(rho), float(z), float(r)) for z, r in zip(zeta_grid, residuals)]
        report.append({"rho": float(rho), "spectral_gap": gap, "rows": rows})
    return report


def _count_override(overrides: dict, key: str, default: int, least: int) -> int:
    value = overrides.pop(key, default)
    if not (isinstance(value, (int, float)) and value >= least and float(value).is_integer()):
        raise ValueError(f"{key} must be an integer >= {least}, got {value!r}")
    return int(value)


def run_demo_approx(args) -> int:
    overrides = _parse_overrides(args.override)
    rho_list = overrides.pop("rhos", (1.0, 0.1, 0.01, 1e-4))
    if isinstance(rho_list, float):
        rho_list = (rho_list,)
    if not all(isinstance(rho, float) and 0.0 < rho < 2.0 for rho in rho_list):
        raise ValueError(f"rhos must be floats in (0, 2), got {rho_list!r}")
    n_zeta = _count_override(overrides, "n_zeta", 25, 1)
    zeta_lo = overrides.pop("zeta_min", -1.0)
    zeta_hi = overrides.pop("zeta_max", 2.0)
    if not (isinstance(zeta_lo, float) and isinstance(zeta_hi, float)
            and -np.inf < zeta_lo <= zeta_hi < np.inf):
        raise ValueError(
            f"zeta_min and zeta_max must be finite floats with zeta_min <= zeta_max, "
            f"got {zeta_lo!r} and {zeta_hi!r}"
        )
    sigma_y = overrides.pop("sigma_y", 0.25)
    if not (isinstance(sigma_y, float) and 0.0 < sigma_y < np.inf):
        raise ValueError(f"sigma_y must be finite and positive, got {sigma_y!r}")
    if overrides:
        raise ValueError(f"unknown overrides for demo-approx: {sorted(overrides)}")
    zeta_grid = np.linspace(zeta_lo, zeta_hi, n_zeta)
    report = _approx_family_report(
        rho_list=rho_list,
        zeta_grid=zeta_grid,
        sigma_y=sigma_y,
        g=0.05,
        zeta_true=0.5,
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
    flags = {
        "input": dict(required=True, help="input JSON file"),
        "out": dict(required=True, help="output directory"),
        "override": dict(
            action="append", default=[], metavar="K=V", help="parameter patch, repeatable"
        ),
        "horizons": dict(help="a:b:step horizon range, or one horizon"),
        "theta": dict(default="-1,0,1", help="comma-separated theta values"),
        "seed": dict(type=int, default=0, help="accepted and unused: nothing is random"),
    }
    # subcommand -> handler and the flags it reads, with its own settings
    table = {
        "recover": (run_recover, {"input": {}, "out": {}}),
        "forward": (run_forward, {"input": {}, "out": {}, "horizons": {"default": "1:10:1"}}),
        "yields": (run_yields, {"input": {}, "out": {}, "horizons": {"default": "1:200:10"}}),
        "lrr": (run_lrr, {"input": {"required": False}, "out": {}, "override": {},
                          "horizons": {"default": "12:1200:12"}, "seed": {}}),
        "bounds": (run_bounds, {"input": {}, "out": {}, "override": {}, "theta": {}}),
        "demo-approx": (run_demo_approx, {"out": {}, "override": {}}),
    }
    for name, (func, own) in table.items():
        p = sub.add_parser(name)
        for flag, settings in own.items():
            p.add_argument(f"--{flag}", **{**flags[flag], **settings})
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
