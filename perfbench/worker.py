"""One workload process: set up, run whole rounds of operations, report JSON.

Started by run.py with PYTHONPATH pointing at the package under test:

    python3 perfbench/worker.py --workload chain-cli --seed 1 --workdir DIR \\
        (--seconds 15 | --rounds 1) [--deadline T] [--trace SPANS.json] [--setup-only]

The last line of standard output is one JSON object.  ``ready`` is the
monotonic clock just before the first timed call; run.py subtracts the
spawn time from it to get the set-up time.

Only set-up and the timed program calls run in this process.  Each check
runs in a forked child, so ``peak_rss_mb`` (this process's peak resident
memory) is that of the interpreter, the inputs and the program.  At the
``--deadline`` (a time.monotonic() value) the running call is interrupted
and the rest of the round is not run; both count as failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import recovery_lab
import recovery_lab.cli  # noqa: F401  (the CLI is not imported by the package)
import workloads
from checks import CheckFailed
from spans import Tracer

MAX_FAILURE_LINES = 20
MAX_DETAIL_CHARS = 2000


class OutOfTime(BaseException):
    """The run's deadline passed during a call (a BaseException, so that the
    program's own ``except Exception`` cannot take it for an error of its own)."""


def _out_of_time(signum, frame):
    raise OutOfTime("stopped at the run's deadline")


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "RECOVERY_LAB_THREADS": os.environ.get("RECOVERY_LAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Stats:
    def __init__(self):
        self.attempted = 0
        self.errors = 0  # raised, exited nonzero, or lacked an upstream result
        self.wrong = 0  # returned an output that failed its check
        self.work = 0.0
        self.timed = 0.0
        self.round_s: list[float] = []
        self.failures: dict[str, int] = {}
        self.out_of_time = False

    def fail(self, op, kind: str, detail: str) -> None:
        if kind == "wrong":
            self.wrong += 1
        else:
            self.errors += 1
        line = f"{kind}: {op.kind} [{op.label}]: {detail.splitlines()[0] if detail else ''}"
        self.failures[line] = self.failures.get(line, 0) + 1


def verdict(op, result) -> tuple[str, str] | None:
    """None if ``op.check(result)`` passes, else (kind, detail) with kind
    "error" (the program refused) or "wrong"."""
    try:
        op.check(result)
    except workloads.Refused as exc:
        return ("error", str(exc)[:MAX_DETAIL_CHARS])
    except CheckFailed as exc:
        return ("wrong", str(exc)[:MAX_DETAIL_CHARS])
    except Exception:  # an output too malformed to check counts as wrong
        return ("wrong", traceback.format_exc(limit=1).strip().splitlines()[-1][:MAX_DETAIL_CHARS])
    return None


def check_in_child(op, result) -> tuple[str, str] | None:
    """``verdict`` computed in a forked child, whose memory and state the
    workload process never sees.

    The workload process has one thread when it forks: run.py sets one BLAS
    thread, and the lrr subcommand's thread pool closes before its call
    returns.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            os.write(write_fd, json.dumps(verdict(op, result)).encode())
        finally:
            os._exit(0)  # never return into the copy of the workload loop
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        message = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not message:
        return ("wrong", f"check process ended with wait status {status} and no verdict")
    found = json.loads(message)
    return tuple(found) if found is not None else None


def run_op(op, stats: Stats, tracer, deadline: float | None = None) -> float:
    """One timed call, its check and its hand-on; returns the timed seconds."""
    stats.attempted += 1
    if stats.out_of_time:
        stats.fail(op, "error", "not run: the run's deadline had passed")
        return 0.0
    span = tracer.begin(f"op:{op.kind}") if tracer else None
    start = time.perf_counter()
    try:
        if deadline is not None:
            signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 1e-3))
        try:
            result = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        error = None
    except OutOfTime as exc:
        stats.out_of_time = True
        error = f"OutOfTime: {exc}"
    except Exception as exc:  # the program failed; record it and go on
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer:
        elapsed = tracer.abort(span) if stats.out_of_time else tracer.end(span, raised=error is not None)
    if error is not None:
        stats.fail(op, "error", error)
        return elapsed
    failure = check_in_child(op, result)
    if failure is not None:
        stats.fail(op, *failure)
        return elapsed
    if op.accept is not None:
        op.accept(result)
    stats.work += op.work
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float, help="run whole rounds until this much timed work")
    length.add_argument("--rounds", type=int, help="run exactly this many rounds")
    parser.add_argument("--deadline", type=float, default=None, help="time.monotonic() at which to stop")
    parser.add_argument("--trace", default=None, help="write spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not args.setup_only and args.seconds is None and args.rounds is None:
        parser.error("--seconds or --rounds is required")

    workdir = Path(args.workdir)
    outputs = workloads.Outputs(workdir / "out")
    ops = workloads.WORKLOADS[args.workload](recovery_lab, args.seed, workdir, outputs)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(recovery_lab)
    signal.signal(signal.SIGALRM, _out_of_time)
    ready = time.monotonic()
    report = {"ready": ready}
    if not args.setup_only:
        stats = Stats()
        while True:
            round_s = 0.0
            for op in ops:
                round_s += run_op(op, stats, tracer, args.deadline)
                outputs.collect()
            stats.round_s.append(round_s)
            stats.timed += round_s
            if stats.out_of_time:
                break
            if args.rounds is not None:
                if len(stats.round_s) >= args.rounds:
                    break
            elif stats.timed >= args.seconds:
                break
        report.update(
            rounds=len(stats.round_s),
            round_s=stats.round_s,
            timed_s=stats.timed,
            work=stats.work,
            attempted=stats.attempted,
            errors=stats.errors,
            wrong=stats.wrong,
            failures=dict(list(stats.failures.items())[:MAX_FAILURE_LINES]),
            bytes_written=outputs.bytes_written,
            out_of_time=stats.out_of_time,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(),
        )
    if tracer:
        tracer.uninstall()
        tracer.dump(args.trace)
        report["spans"] = tracer.summary()
        report["counts"] = dict(tracer.counts)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
