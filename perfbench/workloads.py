"""Operations of the three workloads, each a timed program call plus a check.

An operation's ``call`` is the only part that is timed.  Its ``check`` runs
afterwards against a reference from ``checks`` and raises ``CheckFailed`` on
a wrong output, or ``Refused`` when the program declined the call (nonzero
exit code, or an input an earlier failed call should have produced).  The
worker runs each check in a forked child, so a check changes no state of
the workload process; ``accept`` runs there instead, after a passing check,
and hands the output on to the later calls of its job.  One failed
operation never skips the remaining operations of its job.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks as ck
import inputs


class Refused(Exception):
    """The program raised, exited nonzero, or lacked an upstream result."""


@dataclass
class Op:
    kind: str  # the program entry point, e.g. "cli.recover"
    label: str  # which input, e.g. "chain8-n500-distorted"
    work: float  # goodput units earned when the call succeeds and checks
    call: Callable[[], Any]
    check: Callable[[Any], None]
    accept: Callable[[Any], None] | None = None


class Outputs:
    """Per-call output directories; counts and removes what the CLI wrote."""

    def __init__(self, root: Path):
        self.root = root
        self.bytes_written = 0

    def dir(self, name: str) -> Path:
        return self.root / name

    def collect(self) -> None:
        """Count and remove every output written since the last collect."""
        if self.root.is_dir():
            self.bytes_written += sum(f.stat().st_size for f in self.root.rglob("*") if f.is_file())
            shutil.rmtree(self.root)


def cli_call(lab, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = lab.cli.main(argv)
        return code, err.getvalue()

    return call


def cli_checked(outputs: Outputs, name: str, check_files: Callable[[Path], None]):
    """Check for a CLI call: exit code 0, then the files it wrote."""

    def check(result):
        code, err = result
        if code != 0:
            raise Refused(f"exit {code}: {err.strip()}")
        check_files(outputs.dir(name))

    return check


def need(ctx: dict, key: str):
    if key not in ctx:
        raise Refused(f"no {key}: an earlier call of this job failed")
    return ctx[key]


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# chain-cli
# ---------------------------------------------------------------------------

FORWARD_HORIZONS = list(range(1, 11))  # CLI default 1:10:1
FORWARD_TAUS = [2, 5, 10, 25, 50, 100, 200]
YIELD_HORIZONS = list(range(1, 201, 10))  # CLI default 1:200:10
DEMO_RHOS = (1.0, 0.1, 0.01, 1e-4)
DEMO_STATES = 2 * 41


def chain_reference(eco: inputs.ChainEconomy) -> ck.RecoveryRef:
    """Closed form for power utility, a dense eigenpair otherwise.

    Computed afresh in each check: checks run in forked children, which
    cannot hand a cache back to the workload process.
    """
    if eco.kind == "power":
        beta = math.exp(-inputs.CHAIN_DELTA - inputs.CHAIN_GAMMA * inputs.CHAIN_G_C)
        return ck.RecoveryRef.power_utility(eco.transition, eco.sdf, eco.c, inputs.CHAIN_GAMMA, beta, eco.stationary)
    return ck.RecoveryRef.dense(eco.transition, eco.sdf)


def check_recover_files(eco: inputs.ChainEconomy):
    def check(out: Path):
        ref = chain_reference(eco)
        rec = read_json(out / "recovery.json")
        ck.check_recovery(rec, ref, 1e-10 if eco.kind == "power" else 1e-9)
        if eco.kind == "power":
            # power utility: the recovered measure is the true one
            ck.close("p_hat - p", rec["p_hat"], eco.transition, atol=1e-10)
        # the table repeats the inputs and the recovery at 12 digits
        table = read_csv(out / "decomposition.csv")
        n = eco.n
        ck.require("decomposition rows", table.shape == (n * n, 8))
        i = table[:, 0].astype(int)
        j = table[:, 1].astype(int)
        e_hat = np.asarray(rec["e_hat"])
        for col, name, want in (
            (2, "p", ref.p),
            (3, "s", eco.sdf),
            (4, "q", ref.q),
            (5, "p_hat", np.asarray(rec["p_hat"])),
            (6, "h_hat", np.asarray(rec["h_increments"])),
        ):
            ck.close(name, table[:, col], want[i, j], rtol=1e-11)
        trend = np.exp(rec["eta_hat"]) * e_hat[i] / e_hat[j]
        ck.close("trend_eigen_part", table[:, 7], trend, rtol=1e-11)

    return check


def check_forward_files(eco: inputs.ChainEconomy):
    def check(out: Path):
        ref = chain_reference(eco)
        q = ref.q
        got = read_json(out / "forward_measures.json")
        ck.close("bond_prices", got["bond_prices"], q.sum(axis=1), rtol=1e-12)
        ck.close("risk_neutral", got["risk_neutral"], q / q.sum(axis=1, keepdims=True), atol=1e-12)
        want = ck.forward_measures(q, FORWARD_HORIZONS)
        ck.require("forward horizons", sorted(got["forward"], key=int) == [str(t) for t in FORWARD_HORIZONS])
        for t in FORWARD_HORIZONS:
            ck.close(f"forward[{t}]", got["forward"][str(t)], want[t], atol=1e-10)
        del got
        table = read_csv(out / "forward_limit.csv")
        ck.close("tau", table[:, 0], FORWARD_TAUS)
        dist = ck.forward_limit_distances(q, ref.p_hat, FORWARD_TAUS)
        ck.close("sup_distance_to_p_hat", table[:, 1], dist, atol=1e-8, rtol=1e-6)

    return check


def check_yields_files(eco: inputs.ChainEconomy):
    def check(out: Path):
        table = read_csv(out / "yields.csv")
        n = eco.n
        ck.require("yields rows", table.shape == (len(YIELD_HORIZONS) * n, 4))
        logs = ck.bond_iterates(chain_reference(eco).q, YIELD_HORIZONS)
        t = table[:, 0].astype(int)
        i = table[:, 1].astype(int)
        want = np.array([-logs[tt][ii] / tt for tt, ii in zip(t, i)])
        ck.close("yield_p", table[:, 2], want, atol=1e-10)
        ck.close("yield_p_hat", table[:, 3], want, atol=1e-10)

    return check


def check_demo_files(out: Path) -> None:
    table = read_csv(out / "approx_residuals.csv")
    ck.require("residual rows", table.shape == (len(DEMO_RHOS) * 25, 3))
    ck.require("residuals finite and nonnegative", bool(np.all(np.isfinite(table[:, 2]) & (table[:, 2] >= 0))))
    report = read_json(out / "approx_report.json")
    ck.close("zeta_grid", report["zeta_grid"], np.linspace(-1.0, 2.0, 25), atol=1e-15)
    for rho in DEMO_RHOS:
        rows = table[table[:, 0] == rho]
        gap = report["spectral_gaps"][str(rho)]
        ck.require(f"spectral gap at rho={rho} in (0, 1]", 0.0 < gap <= 1.0)
        near = int(np.sum(rows[:, 2] < 1e-3))
        ck.require(f"near solutions at rho={rho}", report["near_solutions"][str(rho)] == near)


def chain_cli_ops(lab, seed: int, workdir: Path, outputs: Outputs) -> list[Op]:
    ops = []
    for eco in inputs.chain_economies(workdir, seed):
        for cmd, make_check in (
            ("recover", check_recover_files),
            ("forward", check_forward_files),
            ("yields", check_yields_files),
        ):
            name = f"{eco.name}-{cmd}"
            argv = [cmd, "--input", str(eco.path), "--out", str(outputs.dir(name))]
            ops.append(
                Op(
                    kind=f"cli.{cmd}",
                    label=eco.name,
                    work=float(eco.n * eco.n),
                    call=cli_call(lab, argv),
                    check=cli_checked(outputs, name, make_check(eco)),
                )
            )
    ops.append(
        Op(
            kind="cli.demo-approx",
            label="default",
            work=float(len(DEMO_RHOS) * DEMO_STATES**2),
            call=cli_call(lab, ["demo-approx", "--out", str(outputs.dir("demo"))]),
            check=cli_checked(outputs, "demo", check_demo_files),
        )
    )
    return ops


# ---------------------------------------------------------------------------
# small-chain-solvers
# ---------------------------------------------------------------------------


def extended_reference(job: inputs.SolverJob, ref: ck.RecoveryRef, zeta: float):
    """Dominant eigenpair of the zeta-weighted Arrow prices (one Y block)."""
    n = job.n
    chain = job.y_alpha[:, :n]
    gauss = job.y_alpha[:, n:]
    innov = np.eye(n)[None, :, :] - ref.p[:, None, :]
    chain_term = zeta * np.einsum("ik,ijk->ij", chain, innov)
    row = -zeta * job.y_beta + 0.5 * zeta**2 * np.sum(gauss**2, axis=1)
    q_zeta = ref.q * np.exp(row[:, None] - chain_term)
    eta, e, _ = ck.dominant_eig(q_zeta)
    p_hat = np.exp(-eta) * q_zeta * (e[None, :] / e[:, None])
    return eta, e, p_hat


def solver_job_ops(lab, job: inputs.SolverJob, workdir: Path, outputs: Outputs) -> list[Op]:
    mk, pref, bd = lab.markov, lab.preferences, lab.bounds
    ctx: dict = {}
    p = job.transition
    gamma, g_c = inputs.SOLVER_GAMMA, inputs.SOLVER_G_C
    spec_args = dict(delta=job.delta, gamma=gamma, g_c=g_c, c=job.c)

    def recovery_ref() -> ck.RecoveryRef:
        return ck.RecoveryRef.dense(p, need(ctx, "sdf"))

    def solve_value():
        ctx.clear()  # a new round starts this job afresh
        return pref.solve_continuation_value(
            pref.RecursiveUtilitySpec(**spec_args), mk.StochasticMatrix(p)
        )

    def check_value(value):
        rhs = ck.continuation_rhs(value.v, p, job.c, job.delta, gamma, g_c)
        ck.close("continuation-value residual", value.v, rhs, atol=1e-10)
        ck.require("reported residual", value.residual <= 1e-10)
        ck.close("v_star", value.v_star, np.exp((1.0 - gamma) * value.v), rtol=1e-12)

    def accept_value(value):
        ctx["value"] = value

    def make_sdf():
        value = need(ctx, "value")
        transition = mk.StochasticMatrix(p)
        sdf = pref.recursive_sdf(pref.RecursiveUtilitySpec(**spec_args), transition, value)
        return sdf, mk.build_economy(transition, sdf)

    def check_sdf(result):
        sdf, economy = result
        v_star = ctx["value"].v_star
        want = (
            np.exp(-(job.delta + g_c))
            * (job.c[:, None] / job.c[None, :])
            * (v_star[None, :] / (p @ v_star)[:, None])
        )
        ck.close("recursive sdf", sdf.entries, want, rtol=1e-12)

    def accept_sdf(result):
        sdf, economy = result
        ctx["sdf"] = sdf.entries
        ctx["economy"] = economy
        path = workdir / f"{job.name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"n": job.n, "transition": p.tolist(), "sdf": sdf.entries.tolist()}))
        ctx["economy_path"] = path

    def recover():
        return mk.recover(need(ctx, "economy"))

    def check_recover(rec):
        ck.check_recovery(
            {
                "eta_hat": rec.eta_hat,
                "e_hat": rec.e_hat,
                "e_star": rec.e_star,
                "p_hat": rec.p_hat.entries,
                "h_increments": rec.h_increments,
            },
            recovery_ref(),
            1e-9,
        )

    def accept_recover(rec):
        ctx["recovered"] = rec

    out_name = f"{job.name}-bounds"

    def bounds_cli():
        path = need(ctx, "economy_path")
        argv = ["bounds", "--input", str(path), "--out", str(outputs.dir(out_name))]
        return cli_call(lab, argv)()

    def check_bounds_files(out: Path):
        got = read_json(out / "bounds.json")
        ref = recovery_ref()
        pi = ck.stationary(p)
        ck.require("n_assets", got["n_assets"] == job.n)
        ck.require("kazemi_errors", len(got["kazemi_errors"]) == job.n)
        for theta in inputs.THETAS:
            row = got["theta"][str(theta)]
            pop = float(pi @ ck.conditional_discrepancy(ref, theta))
            ck.close(f"population_discrepancy theta={theta}", row["population_discrepancy"], pop, atol=1e-12, rtol=1e-8)
            ck.close(f"constraint residuals theta={theta}", row["constraint_residuals"], np.zeros(job.n + 1), atol=1e-8)
            ck.require(f"duality gap theta={theta}", row["duality_gap"] <= 1e-8)
            ck.require(f"bound <= population theta={theta}", -1e-10 <= row["lambda_bar"] <= pop + 1e-8)

    def sample():
        return bd.generate_problem_from_chain(
            need(ctx, "economy"),
            need(ctx, "recovered"),
            payoff_spec="arrow",
            horizon_t=inputs.SAMPLED_ROWS,
            mode="sampled",
            seed=job.sample_seed,
        )

    def check_sample(problem):
        ref = recovery_ref()
        t = inputs.SAMPLED_ROWS
        ck.require("sampled shape", problem.payoff_samples.shape == (t, job.n))
        ck.close("weights", problem.weights, np.full(t, 1.0 / t), rtol=1e-12)
        rows_j = np.argmax(problem.payoff_samples, axis=1)
        ck.close("arrow payoffs", problem.payoff_samples, np.eye(job.n)[rows_j])
        # the current state is the one whose Arrow price row was quoted
        quoted, rows = np.unique(problem.price_samples, axis=0, return_inverse=True)
        dist = np.abs(quoted[:, None, :] - ref.q[None, :, :]).max(axis=2)
        rows_i = np.argmin(dist, axis=1)[rows.ravel()]
        ck.close("arrow prices", problem.price_samples, ref.q[rows_i], rtol=1e-12)
        ck.require("sampled path is connected", bool(np.all(rows_i[1:] == rows_j[:-1])))
        ck.close("R_inf", problem.long_bond_return, ref.r_inf[rows_i, rows_j], rtol=1e-9)

    def accept_sample(problem):
        ctx["sampled"] = problem

    ops = [
        Op("preferences.solve_continuation_value", job.name, 1.0, solve_value, check_value, accept_value),
        Op("preferences.recursive_sdf", job.name, 1.0, make_sdf, check_sdf, accept_sdf),
        Op("markov.recover", job.name, 1.0, recover, check_recover, accept_recover),
        Op("cli.bounds", job.name, 1.0, bounds_cli, cli_checked(outputs, out_name, check_bounds_files)),
        Op("bounds.generate_problem_from_chain", job.name, 1.0, sample, check_sample, accept_sample),
    ]

    def bound():
        return bd.unconditional_bound(need(ctx, "sampled"), job.theta)

    def check_bound(res):
        ck.check_bound_solution(res, ctx["sampled"], job.theta)

    ops.append(Op("bounds.unconditional_bound", f"{job.name} theta={job.theta:g}", 1.0, bound, check_bound))
    for theta in inputs.THETAS:

        def cond(theta=theta):
            return bd.conditional_bound(need(ctx, "economy"), need(ctx, "recovered"), theta)

        def check_cond(out, theta=theta):
            want = ck.conditional_discrepancy(recovery_ref(), theta)
            ck.close(f"conditional bound theta={theta}", out, want, atol=1e-8)

        ops.append(Op("bounds.conditional_bound", f"{job.name} theta={theta:g}", 1.0, cond, check_cond))
    for zeta in inputs.ZETAS:

        def extended(zeta=zeta):
            y_spec = mk.GaussianAugmentedFunctional(beta_bar=job.y_beta, alpha_bar=job.y_alpha)
            return mk.extended_pf_family(need(ctx, "economy"), y_spec, zeta)

        def check_extended(res, zeta=zeta):
            eta, e, p_hat = extended_reference(job, recovery_ref(), zeta)
            ck.close(f"eta zeta={zeta}", res.eta, eta, atol=1e-10)
            ck.close(f"e zeta={zeta}", res.e, e, atol=1e-9)
            ck.close(f"p_hat zeta={zeta}", res.p_hat.entries, p_hat, atol=1e-9)

        ops.append(Op("markov.extended_pf_family", f"{job.name} zeta={zeta:g}", 1.0, extended, check_extended))

    def structured():
        v_star = need(ctx, "value").v_star
        growth = v_star[None, :] / (p @ v_star)[:, None]
        return mk.structured_recover(need(ctx, "economy"), growth)

    def check_structured(res):
        ck.close("structured delta", res.delta, job.delta + g_c, atol=1e-10)
        ck.close("m_tilde", res.m_tilde, job.c.max() / job.c, rtol=1e-8)
        ck.close("p_tilde", res.p_tilde.entries, p, atol=1e-9)

    ops.append(Op("markov.structured_recover", job.name, 1.0, structured, check_structured))
    return ops


def small_chain_solver_ops(lab, seed: int, workdir: Path, outputs: Outputs) -> list[Op]:
    return [op for job in inputs.solver_jobs(seed) for op in solver_job_ops(lab, job, workdir, outputs)]


# ---------------------------------------------------------------------------
# lrr-pipeline
# ---------------------------------------------------------------------------

# Half the CLI default of 10k paths: per-path-step cost still dominates
# per-step interpreter overhead, and one pipeline fits one run.
LRR_PATHS = 5_000
LRR_HORIZON_MAX = 1200


def check_lrr_files(calibration: dict):
    def check(out: Path):
        summary = read_json(out / "lrr_summary.json")
        ck.require("value discriminant > 0", summary["value"]["discriminant"] > 0)
        pf = summary["pf"]
        ck.require("smaller eigenvalue root", pf["eta_hat"] < pf["eta_other"])
        ck.require("mu_22_hat < 0", summary["changed_measure"]["mu_22"] < 0)
        ck.close("long bond yield", summary["long_bond_yield_annualized"], -12.0 * pf["eta_hat"], rtol=1e-12)
        targets = {
            "p": np.asarray(calibration["iota"], dtype=float),
            "p_hat": np.asarray(summary["changed_measure"]["iota_hat"], dtype=float),
        }
        for name in ("p", "p_hat", "risk_neutral"):
            rows = read_csv(out / f"density_{name}.csv")
            ck.close(f"density_{name} mass", rows[:, 2].sum(), 1.0, atol=1e-9)
            _, var = ck.binned_moments(rows)
            mean = np.asarray(summary["density_means"][name], dtype=float)
            ck.require(f"density_{name} mean finite", bool(np.all(np.isfinite(mean))))
            if name in targets:
                for k in range(2):
                    se = math.sqrt(var[k] / LRR_PATHS)
                    ck.within_se(f"{name} mean of X{k + 1}", float(mean[k]), float(targets[name][k]), se)
            if name == "p":
                _, var_ref = ck.cir_moments(calibration["iota"][1], calibration["sigma_2"], calibration["mu_22"])
                ck.within_se("X2 variance", float(var[1]), var_ref, var_ref * math.sqrt(2.0 / LRR_PATHS))
        bond = read_csv(out / "yields_bond.csv")
        ck.require("yield horizons", bond.shape[0] == 100 and bond[-1, 0] == LRR_HORIZON_MAX)
        # the recovered-measure median meets the long-bond yield; the
        # physical-measure median does not by construction and is not checked
        ck.close("P_hat median yield at 1200 months", bond[-1, 5], -12.0 * pf["eta_hat"], atol=1e-4)
        cons = read_csv(out / "yields_consumption.csv")
        ck.require("consumption yields finite", cons.shape == (100, 7) and bool(np.all(np.isfinite(cons))))

    return check


def lrr_pipeline_ops(lab, seed: int, workdir: Path, outputs: Outputs) -> list[Op]:
    sq = lab.sqroot
    calibration = read_json(Path(lab.__file__).parent / "data" / "lrr_default.json")
    spec = inputs.SQROOT_MODEL
    ctx: dict = {}
    share = 1.0 / 5.0  # one fully successful round earns one pipeline

    def candidates():
        ctx.clear()  # a new round starts afresh
        return sq.eigen_candidates(sq.SquareRootModel(**spec))

    k, s, a = spec["kappa"], spec["sigma_bar"], spec["alpha_bar"]
    roots = (0.0, (2.0 * k - 2.0 * a * s) / s**2)

    def check_candidates(cands):
        ck.require("two candidates", len(cands) == 2)
        for cand, upsilon in zip(cands, roots):
            ck.close("upsilon", cand.upsilon, upsilon, atol=1e-14)
            ck.close("eta", cand.eta, spec["beta_bar"] + upsilon * k * spec["mu_bar"], atol=1e-14)
            ck.close("kappa_new", cand.kappa_new, k - s * a - upsilon * s**2, atol=1e-14)

    def accept_candidates(cands):
        ctx["candidates"] = cands

    def select():
        return sq.select_ergodic(need(ctx, "candidates"))

    def check_select(sel):
        ergodic = [u for u in roots if k - s * a - u * s**2 > 0]
        ck.require("one mean-reverting root", len(ergodic) == 1)
        ck.close("selected upsilon", sel.upsilon, ergodic[0], atol=1e-14)

    def accept_select(sel):
        ctx["selected"] = sel

    model_args = dict(horizon=inputs.SQROOT_HORIZON, dt=inputs.SQROOT_DT, n_paths=inputs.SQROOT_PATHS)
    t = inputs.SQROOT_HORIZON
    n = inputs.SQROOT_PATHS

    def physical():
        return sq.simulate(sq.SquareRootModel(**spec), "physical", seed=seed, **model_args)

    def check_physical(res):
        ck.require("no dropped paths", res.n_nan == 0)
        # started at its mean, X keeps mean mu_bar; E[S_t] = exp(beta_bar t)
        ck.within_se("physical mean of X", res.x_mean, spec["mu_bar"], math.sqrt(res.x_var / n))
        ck.within_se("discounted bond", res.discounted_bond_mean, math.exp(spec["beta_bar"] * t), res.discounted_bond_se)

    def changed():
        return sq.simulate(sq.SquareRootModel(**spec), need(ctx, "selected"), seed=seed + 1, **model_args)

    def check_changed(res):
        ck.require("no dropped paths", res.n_nan == 0)
        kn = ctx["selected"].kappa_new
        long_run = k * spec["mu_bar"] / kn
        mean = long_run + (spec["mu_bar"] - long_run) * math.exp(-kn * t)
        ck.within_se("changed-measure mean of X", res.x_mean, mean, math.sqrt(res.x_var / n))
        ck.within_se("martingale mean", res.martingale_mean, 1.0, res.martingale_se)

    name = "lrr"
    return [
        Op(
            "cli.lrr",
            "default",
            share,
            cli_call(
                lab,
                ["lrr", "--out", str(outputs.dir(name)), "--seed", str(seed), "--override", f"n_paths={LRR_PATHS}"],
            ),
            cli_checked(outputs, name, check_lrr_files(calibration)),
        ),
        Op("sqroot.eigen_candidates", "model", share, candidates, check_candidates, accept_candidates),
        Op("sqroot.select_ergodic", "model", share, select, check_select, accept_select),
        Op("sqroot.simulate", "physical", share, physical, check_physical),
        Op("sqroot.simulate", "selected", share, changed, check_changed),
    ]


WORKLOADS = {
    "chain-cli": chain_cli_ops,
    "small-chain-solvers": small_chain_solver_ops,
    "lrr-pipeline": lrr_pipeline_ops,
}
