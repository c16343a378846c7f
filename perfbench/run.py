"""Benchmark of recovery-lab: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload chain-cli --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is taken from ``src/``
without installing it.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics, with ``--trace 1`` one with
the per-layer metrics.  The lines before it describe the environment, the
metrics under the names used in perfbench/README.md, and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import MODULES, span_names

HERE = Path(__file__).resolve().parent
WORKLOADS = ("chain-cli", "small-chain-solvers", "lrr-pipeline")
# set-up-only processes before and after the measuring one, so that the
# median set-up straddles the machine's drift over the run
SETUP_RUNS_BEFORE = 2
SETUP_RUNS_AFTER = 2
IMPORT_RUNS = 3
RUN_BUDGET_S = 170.0  # the whole run, every child process included
# kept free after a worker's deadline for its last check and its report
WORKER_MARGIN_S = 10.0
# share of a traced run's time given to its untraced round
PLAIN_SHARE = 0.45
GOODPUT_NAME = {
    "chain-cli": ("entries_per_s", "matrix entries (sum of n^2) of checked calls"),
    "small-chain-solvers": ("solves_per_s", "checked solver calls"),
    "lrr-pipeline": ("pipelines_per_s", "checked lrr + square-root rounds"),
}
IMPORTS = {
    "import.recovery_lab_s": "recovery_lab",
    "import.markov_s": "recovery_lab.markov",
    "import.bounds_s": "recovery_lab.bounds",
    "import.lrr_s": "recovery_lab.lrr",
    "import.scipy.sparse.csgraph_s": "scipy.sparse.csgraph",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = root / ".perfbench" / f"run-{os.getpid()}"
        # One BLAS thread: on two time-shared vCPUs a second BLAS thread makes
        # a matmul's time swing by a factor of two from run to run.
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def _run(self, cmd: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        # a session of its own, so that a timeout also ends the worker's
        # forked check processes
        with subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired as exc:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"timed out: {' '.join(cmd)}") from exc
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)

    def worker(self, *extra: str, deadline: float | None = None) -> tuple[dict, float]:
        """Run worker.py; returns its report and its set-up seconds.

        A worker given a ``deadline`` (time.monotonic()) stops its timed
        calls then and reports the rest of the round as failed.
        """
        workdir = self.work / f"w{time.monotonic_ns()}"
        workdir.mkdir(parents=True)
        if deadline is not None:
            extra += ("--deadline", repr(deadline - WORKER_MARGIN_S))
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--workdir", str(workdir), *extra,
        ]
        spawned = time.monotonic()
        proc = self._run(cmd)
        shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        report = json.loads(lines[-1])
        return report, report["ready"] - spawned

    def import_times(self) -> dict[str, float]:
        """Cumulative import seconds per module from python -X importtime."""
        samples: dict[str, list[float]] = {name: [] for name in IMPORTS}
        pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)")
        for _ in range(IMPORT_RUNS):
            proc = self._run([sys.executable, "-X", "importtime", "-c", "import recovery_lab"])
            if proc.returncode != 0:
                raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
            cumulative = {m.group(2): int(m.group(1)) * 1e-6 for m in pattern.finditer(proc.stderr)}
            for name, module in IMPORTS.items():
                samples[name].append(cumulative.get(module, 0.0))
        return {name: statistics.median(vals) for name, vals in samples.items()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(runner: Runner, seconds: float) -> tuple[dict, dict, list[str]]:
    setups = [runner.worker("--setup-only")[1] for _ in range(SETUP_RUNS_BEFORE)]
    # leave time for the set-ups after it, each allowed twice the slowest so far
    reserve = SETUP_RUNS_AFTER * 2.0 * max(setups)
    report, setup = runner.worker("--seconds", str(seconds), deadline=runner.deadline - reserve)
    setups.append(setup)
    setups += [runner.worker("--setup-only")[1] for _ in range(SETUP_RUNS_AFTER)]
    failed = report["errors"] + report["wrong"]
    goodput = report["work"] / report["timed_s"]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "goodput_per_s": metric(goodput, "1/s"),
        "success_ratio": metric(1.0 - failed / report["attempted"], "ratio"),
        "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
    }
    name, meaning = GOODPUT_NAME[runner.workload]
    lines = [
        f"setup_s = {metrics['setup_s']['value']:.4f} s (median of {len(setups)} set-ups)",
        f"{name} = {goodput:.6g} 1/s ({meaning} per timed second)",
        f"run_s = {statistics.median(report['round_s']):.4f} s (median round of {report['rounds']})",
        f"failed_ratio = {failed / report['attempted']:.4f} ({failed} of {report['attempted']} operations)",
        f"peak_rss_mb = {report['peak_rss_mb']:.1f} MB",
    ]
    return report, metrics, lines


def traced(runner: Runner) -> tuple[dict, dict, list[str]]:
    imports = runner.import_times()
    now = time.monotonic()
    plain, _ = runner.worker("--rounds", "1", deadline=now + PLAIN_SHARE * (runner.deadline - now))
    spans_path = runner.root / ".perfbench" / f"spans-{runner.workload}-seed{runner.seed}.json"
    report, _ = runner.worker("--rounds", "1", "--trace", str(spans_path), deadline=runner.deadline)
    spans, counts = report["spans"], report["counts"]
    metrics = {}
    for name in span_names():
        row = spans.get(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        metrics[f"{name}.calls"] = metric(row["calls"], "count")
        metrics[f"{name}.self_s"] = metric(row["self_s"], "s")
        metrics[f"{name}.errors"] = metric(row["errors"], "count")
    metrics["cli.bytes_written"] = metric(report["bytes_written"], "bytes")
    for mod, fn in (("lrr", "simulate_states"), ("sqroot", "simulate")):
        steps = counts.get(f"{mod}.path_steps", 0)
        busy = spans.get(f"{mod}.{fn}", {}).get("total_s", 0.0)
        metrics[f"{mod}.path_steps"] = metric(steps, "count")
        metrics[f"{mod}.ns_per_path_step"] = metric(1e9 * busy / steps if steps else 0.0, "ns")
    for name, seconds in imports.items():
        metrics[name] = metric(seconds, "s")
    metrics["trace.overhead_ratio"] = metric(report["timed_s"] / plain["timed_s"], "ratio")
    own = sum(row["self_s"] for name, row in spans.items() if not name.startswith("op:"))
    lines = [
        f"traced wall {report['timed_s']:.4f} s, untraced {plain['timed_s']:.4f} s, "
        f"{own / report['timed_s']:.1%} of traced wall inside the modules {', '.join(MODULES)}",
        f"spans written to {spans_path.relative_to(runner.root)}",
    ]
    for name in sorted(spans, key=lambda k: -spans[k]["self_s"])[:12]:
        row = spans[name]
        lines.append(f"  {name}: {row['calls']} calls, self {row['self_s']:.4f} s, {row['errors']} errors")
    merged = dict(report)
    for key in ("attempted", "errors", "wrong"):
        merged[key] = plain[key] + report[key]
    merged["failures"] = {**plain["failures"], **report["failures"]}
    merged["out_of_time"] = plain["out_of_time"] or report["out_of_time"]
    return merged, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "recovery_lab" / "__init__.py").is_file():
        print("perfbench: no src/recovery_lab here; run from the root of a checkout", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            report, metrics, lines = traced(runner)
        else:
            report, metrics, lines = untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    failed = report["errors"] + report["wrong"]
    env = dict(report["env"], commit=source_commit(root), source_sha256=source_digest(root))
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{report['rounds']} round(s), {report['attempted']} operations, "
          f"{report['errors']} errors, {report['wrong']} wrong outputs")
    if report["out_of_time"]:
        print(f"# stopped at the run's deadline ({RUN_BUDGET_S:g} s in all): the call it interrupted "
              "and the rest of the round count as failed")
    for line in lines:
        print(f"# {line}")
    for line, count in report["failures"].items():
        print(f"# failure x{count}: {line}")
    print(json.dumps({
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def source_digest(root: Path) -> str:
    """sha256 over the package sources, which names the code outside git too."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "recovery_lab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def source_commit(root: Path) -> str:
    """The git commit of the checkout, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


if __name__ == "__main__":
    sys.exit(main())
