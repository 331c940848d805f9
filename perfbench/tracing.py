"""Spans around relayplan's public functions, installed from outside the package.

``Tracer.install`` replaces every name in ``TRACED`` with a wrapper that
records a span (name, start, end, parent span, operation) while an operation
is open, and ``Tracer.restore`` puts the original objects back. A function is
wrapped under each name its callers look up, since ``from .solvers import
select_pair`` binds a second name in ``relayplan.sim`` that wrapping
``relayplan.solvers.select_pair`` alone would miss. Spans stay in memory and
are written out once, by ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

# (module, attribute) pairs; the span name is the defining module and qualname.
TRACED = [
    ("relayplan.solvers", "solve_gcpbvi"),
    ("relayplan.sim", "solve_gcpbvi"),
    ("relayplan.solvers", "solve_cpbvi"),
    ("relayplan.solvers", "gcpbvi_backup"),
    ("relayplan.solvers", "cpbvi_backup"),
    ("relayplan.solvers", "select_pair"),
    ("relayplan.sim", "select_pair"),
    ("relayplan.solvers", "save_policy"),
    ("relayplan.solvers", "load_policy"),
    ("relayplan.solvers", "build_h_belief_set"),
    ("relayplan.belief", "build_h_belief_set"),
    ("relayplan.belief", "advance_belief"),
    ("relayplan.sim", "advance_belief"),
    ("relayplan.alpha", "AlphaPair.evaluate"),
    ("relayplan.sim", "run_episode"),
    ("relayplan.sim", "monte_carlo"),
    ("relayplan.sim", "run_multiuser"),
    ("relayplan.sim", "solve_centralized"),
]

# Counters every point-based solve leaves in ``PolicySolution.stats``.
SOLVER_COUNTERS = (
    "predictions",
    "pair_evaluations",
    "branch_merges",
    "frontier_cap_hits",
    "local_mode_selections",
)


def _solver_counters(args, kwargs, result):
    return {key: result.stats[key] for key in SOLVER_COUNTERS}


# Extra facts a span keeps about its call, taken after its end time is read.
SUMMARIES = {
    "solvers.solve_gcpbvi": _solver_counters,
    "solvers.solve_cpbvi": _solver_counters,
    "belief.build_h_belief_set": lambda args, kwargs, result: len(result),
    "solvers.save_policy": lambda args, kwargs, result: os.path.getsize(args[1]),
    "solvers.load_policy": lambda args, kwargs, result: os.path.getsize(args[0]),
}

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.operations: list[str] = []
        self._op: int | None = None
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, path in TRACED:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def operation(self, name: str):
        """Record spans under a new operation id until the block ends."""
        self.operations.append(name)
        self._op = len(self.operations) - 1
        try:
            yield
        finally:
            self._op = None

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        summarize = SUMMARIES.get(name)
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, op, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                open_spans.pop()
            if summarize is not None:
                span[EXTRA] = summarize(args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "op": span[OP],
                    "op_name": self.operations[span[OP]],
                    "extra": span[EXTRA],
                }) + "\n")


# Per-layer self times reported as shares of the round: metric -> span name.
SELF_SHARES = {
    "solvers.gcpbvi_backup_share": "solvers.gcpbvi_backup",
    "solvers.cpbvi_backup_share": "solvers.cpbvi_backup",
    "solvers.select_pair_share": "solvers.select_pair",
    "solvers.save_policy_share": "solvers.save_policy",
    "solvers.load_policy_share": "solvers.load_policy",
    "alpha.evaluate_share": "alpha.AlphaPair.evaluate",
    "belief.build_h_belief_set_share": "belief.build_h_belief_set",
    "belief.advance_belief_share": "belief.advance_belief",
    "sim.run_episode_self_share": "sim.run_episode",
    "sim.monte_carlo_self_share": "sim.monte_carlo",
    "sim.solve_centralized_share": "sim.solve_centralized",
    "sim.run_multiuser_self_share": "sim.run_multiuser",
}


def layer_metrics(spans: list[list], decisions: int, round_s: float) -> dict[str, float]:
    """Per-layer self times, counts and ratios of one traced workload round.

    Every metric is given on every workload, as 0 for a layer the workload
    does not call. Self times are shares of ``round_s``, the round's summed
    operation time, so that none of them is a time that reads 0 on every
    run. ``decisions`` is the number of policy decisions the round's episodes
    made through ``select_pair``; it is the base of the action-cache miss ratio.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def self_time(name):
        return sum(spans[i][END] - spans[i][START] - child_time[i] for i in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def under(name, parents):
        return [
            i for i in by_name.get(name, ())
            if spans[i][PARENT] is not None and spans[spans[i][PARENT]][NAME] in parents
        ]

    out: dict[str, float] = {"trace.round_s": round_s}
    for metric, name in SELF_SHARES.items():
        out[metric] = self_time(name) / round_s
    out["sim.distributed_solve_share"] = sum(
        spans[i][END] - spans[i][START] for i in under("solvers.solve_gcpbvi", ("sim.run_multiuser",))
    ) / round_s
    for method in ("gcpbvi", "cpbvi"):
        solves = by_name.get(f"solvers.solve_{method}", ())
        for key in SOLVER_COUNTERS:
            out[f"solvers.{method}.{key}"] = sum(spans[i][EXTRA][key] for i in solves)
        merges = out[f"solvers.{method}.branch_merges"]
        out[f"solvers.{method}.frontier_cap_hit_ratio"] = (
            out[f"solvers.{method}.frontier_cap_hits"] / merges if merges else 0.0
        )
    out["solvers.backup_calls"] = count("solvers.gcpbvi_backup") + count("solvers.cpbvi_backup")
    out["solvers.select_pair_calls"] = count("solvers.select_pair")
    saves = by_name.get("solvers.save_policy", ())
    out["solvers.policy_bytes"] = sum(spans[i][EXTRA] for i in saves) / len(saves) if saves else 0
    out["alpha.evaluate_calls"] = count("alpha.AlphaPair.evaluate")
    out["belief.points"] = sum(spans[i][EXTRA] for i in by_name.get("belief.build_h_belief_set", ()))
    out["belief.advance_belief_calls"] = count("belief.advance_belief")
    out["sim.episodes"] = count("sim.run_episode")
    rule_calls = len(under("solvers.select_pair", ("sim.run_episode", "sim.run_multiuser")))
    out["sim.action_cache_miss_ratio"] = rule_calls / decisions if decisions else 0.0
    return out
