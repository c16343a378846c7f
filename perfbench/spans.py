"""Spans around calls into the recovery_lab modules, recorded from outside.

``Tracer.install`` replaces every module binding of each traced function
with a wrapper that records a span: name, start, end, parent, whether the
call raised, and the thread.  Parents are tracked per thread, so a call made
from a thread pool is a root span of its own thread.  Bindings imported by
name into another module (for example ``bounds.stationary_distribution``)
are found and wrapped as well, so a call through any of them is seen.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict

# module -> functions whose calls, self time and errors are reported
TRACED = {
    "markov": (
        "is_primitive",
        "ergodicity_check",
        "perron_frobenius",
        "recover",
        "yield_curve",
        "forward_one_period_limit",
        "holding_period_return_limit",
        "log_return_bound_check",
        "extended_pf_family",
        "structured_recover",
        "stationary_distribution",
        "economy_from_dict",
    ),
    "preferences": ("solve_continuation_value", "recursive_sdf"),
    "bounds": (
        "unconditional_bound",
        "conditional_bound",
        "generate_problem_from_chain",
        "population_discrepancy",
    ),
    "lrr": (
        "simulate_states",
        "stationary_density",
        "yield_curves",
        "solve_affine_ode",
        "solve_value_function",
        "solve_pf",
    ),
    "sqroot": ("simulate", "eigen_candidates"),
}
# CLI subcommand -> its handler in recovery_lab.cli
CLI_COMMANDS = {
    "recover": "run_recover",
    "forward": "run_forward",
    "yields": "run_yields",
    "bounds": "run_bounds",
    "lrr": "run_lrr",
    "demo-approx": "run_demo_approx",
}
MODULES = ("markov", "preferences", "bounds", "lrr", "sqroot", "cli")


def _lrr_path_steps(args) -> int:
    return int(args["n_paths"]) * int(round(args["horizon"] / args["dt"]))


def _sqroot_path_steps(args) -> int:
    steps = int(args["n_paths"]) * int(round(args["horizon"] / args["dt"]))
    # a candidate-measure run adds a companion physical ensemble
    return steps if args["measure"] == "physical" else 2 * steps


# span name -> (counter name, count from the bound call arguments)
COUNTERS = {
    "lrr.simulate_states": ("lrr.path_steps", _lrr_path_steps),
    "sqroot.simulate": ("sqroot.path_steps", _sqroot_path_steps),
}


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + [f"cli.{cmd}" for cmd in CLI_COMMANDS]


class _OpenSpans(threading.local):
    def __init__(self):
        self.stack: list[int] = []


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, raised, thread id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        # open spans per thread: with RECOVERY_LAB_THREADS > 1 the lrr
        # subcommand calls traced functions from a thread pool
        self._open = _OpenSpans()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    def begin(self, name: str) -> int:
        stack = self._open.stack
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, False, threading.get_ident()])
        stack.append(idx)
        return idx

    def end(self, idx: int, raised: bool = False) -> float:
        """Close span ``idx`` and return its duration."""
        now = time.perf_counter()
        stack = self._open.stack
        while True:
            top = stack.pop()
            span = self.spans[top]
            span[2] = now
            if top == idx:
                span[4] = raised
                return now - span[1]
            span[4] = True  # left open by a call interrupted at the deadline

    def abort(self, idx: int) -> float:
        """Close every open span, as raised, after the run's deadline
        interrupted a call; returns the duration of span ``idx``."""
        now = time.perf_counter()
        for span in self.spans:
            if span[2] is None:
                span[2] = now
                span[4] = True
        self._open.stack.clear()
        return now - self.spans[idx][1]

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[counter[0]] += counter[1](bound.arguments)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, raised=True)
                raise
            self.end(idx)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every binding of the traced functions in ``package``."""
        modules = [package] + [getattr(package, name) for name in MODULES]
        targets = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                targets[getattr(getattr(package, mod), fn)] = f"{mod}.{fn}"
        for cmd, handler in CLI_COMMANDS.items():
            targets[getattr(package.cli, handler)] = f"cli.{cmd}"
        wrappers = {orig: self.wrap(name, orig) for orig, name in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, self_s, total_s and errors per span name."""
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0}
        )
        for span, own in zip(self.spans, self.self_times()):
            row = agg[span[0]]
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += span[2] - span[1]
            row["errors"] += int(span[4])
        return dict(agg)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "raised", "thread"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
