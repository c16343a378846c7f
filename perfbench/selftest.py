"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import recovery_lab  # noqa: E402
import recovery_lab.cli  # noqa: E402,F401

import inputs  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
import worker  # noqa: E402
from worker import Stats, run_op  # noqa: E402

FAST_JOB = 2  # n = 4, delta = 0.02: every call takes milliseconds


def test_chain_inputs_deterministic_per_seed(tmp_path):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, other = (inputs.chain_economies(d, seed) for d, seed in zip(dirs, (3, 3, 4)))
    sizes = [n1 * n2 for n1, n2, *_ in inputs.CHAIN_MIX]
    assert [x.n for x in a] == sizes + [sizes[1]]
    assert a[-1].name.endswith("stagnation")
    for x, y, z in zip(a, b, other):
        assert x.path.read_bytes() == y.path.read_bytes()
        # the seed draws only the consumption of the power-utility economies
        assert (x.path.read_bytes() == z.path.read_bytes()) == (x.kind != "power")
        np.testing.assert_allclose(x.transition.sum(axis=1), 1.0, rtol=0, atol=1e-14)


def test_solver_inputs_deterministic_per_seed():
    for x, y in zip(inputs.solver_jobs(3), inputs.solver_jobs(3)):
        np.testing.assert_array_equal(x.y_alpha, y.y_alpha)
        np.testing.assert_array_equal(x.transition, y.transition)
        assert x.sample_seed == y.sample_seed
    other = inputs.solver_jobs(4)
    assert [j.name for j in other] == [j.name for j in inputs.solver_jobs(3)]
    assert not np.array_equal(other[0].y_alpha, inputs.solver_jobs(3)[0].y_alpha)


def fast_job_ops(tmp_path):
    job = inputs.solver_jobs(1)[FAST_JOB]
    outputs = workloads.Outputs(tmp_path / "out")
    return workloads.solver_job_ops(recovery_lab, job, tmp_path, outputs)


def test_wrong_output_counted_and_job_continues(tmp_path):
    ops = fast_job_ops(tmp_path)
    k = next(i for i, op in enumerate(ops) if op.kind == "markov.extended_pf_family")
    honest = ops[k].call

    def corrupted():
        res = honest()
        return dataclasses.replace(res, eta=res.eta + 1e-6)

    ops[k].call = corrupted
    stats = Stats()
    for op in ops:
        run_op(op, stats, None)
    assert stats.attempted == len(ops)
    assert stats.wrong == 1
    assert any("extended_pf_family" in line for line in stats.failures)
    # every other call ran and was checked
    assert stats.work == stats.attempted - stats.errors - stats.wrong


def test_raising_call_counted_and_job_continues(tmp_path):
    ops = fast_job_ops(tmp_path)

    def broken():
        raise recovery_lab.exceptions.ConvergenceError("injected")

    ops[3].call = broken  # the bounds CLI call
    stats = Stats()
    for op in ops:
        run_op(op, stats, None)
    assert stats.attempted == len(ops)
    assert stats.errors >= 1
    assert any("injected" in line for line in stats.failures)
    assert stats.work == stats.attempted - stats.errors - stats.wrong


def test_check_runs_apart_from_the_workload_process(tmp_path):
    ops = fast_job_ops(tmp_path)
    seen = []
    mb = 1 << 20
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    current = int(Path("/proc/self/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    honest = ops[0].check

    def heavy(value):
        # raise the checking process's peak 64 MB above this process's peak
        np.ones((peak - current + 64 * mb) // 8)
        seen.append(value)
        honest(value)

    ops[0].check = heavy
    stats = Stats()
    for op in ops:
        run_op(op, stats, None)
    assert not any(ops[0].kind in line for line in stats.failures)
    assert seen == []  # the check ran in another process
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 < peak + 32 * mb


def test_deadline_interrupts_call_and_fails_rest_of_round(tmp_path):
    ops = fast_job_ops(tmp_path)
    ops[1].call = lambda: time.sleep(30)
    previous = signal.signal(signal.SIGALRM, worker._out_of_time)
    try:
        stats = Stats()
        start = time.monotonic()
        for op in ops:
            run_op(op, stats, None, deadline=start + 0.5)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 5.0
    assert stats.out_of_time
    assert stats.attempted == len(ops)
    assert stats.errors == len(ops) - 1 and stats.work == 1.0
    assert any("OutOfTime" in line for line in stats.failures)


def test_spans_nest_per_thread():
    tracer = Tracer()

    def nested():
        for _ in range(200):
            outer = tracer.begin("outer")
            tracer.end(tracer.begin("inner"))
            tracer.end(outer)

    threads = [threading.Thread(target=nested) for _ in range(3)]
    for t in threads:
        t.start()
    nested()
    for t in threads:
        t.join()
    spans = tracer.spans
    assert len(spans) == 4 * 400
    for name, _, _, parent, _, thread in spans:
        if name == "inner":
            assert spans[parent][0] == "outer" and spans[parent][5] == thread
        else:
            assert parent == -1
    assert min(tracer.self_times()) >= 0.0


def test_span_self_times_add_up_to_traced_wall(tmp_path):
    ops = fast_job_ops(tmp_path)
    original = recovery_lab.bounds.stationary_distribution
    tracer = Tracer()
    tracer.install(recovery_lab)
    try:
        # bindings imported by name are wrapped too
        assert recovery_lab.bounds.stationary_distribution is not original
        stats = Stats()
        wall = sum(run_op(op, stats, tracer) for op in ops)
    finally:
        tracer.uninstall()
    assert recovery_lab.bounds.stationary_distribution is original
    own = tracer.self_times()
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(wall, rel=1e-9)
    summary = tracer.summary()
    assert summary["markov.perron_frobenius"]["calls"] > 0
    # a call through any binding is recorded under the defining module
    assert "bounds.stationary_distribution" not in summary
    assert summary["markov.stationary_distribution"]["calls"] > 0
    roots = [s for s in tracer.spans if s[3] < 0]
    assert len(roots) == len(ops) and all(s[0].startswith("op:") for s in roots)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
