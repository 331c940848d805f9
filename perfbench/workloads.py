"""The three benchmark workloads, each one round of closed-loop calls into relayplan.

A workload calls the library the way ``relayplan solve``, ``simulate`` and
``compare`` do, times each stage, and checks every result against the
select-all and cellular values of ``reference``, which share no code with
relayplan. A failed check fails the operation concerned. Every workload gives
the same end-to-end samples: ``setup_s``, ``round_s`` (the summed wall time of
its timed operations) and ``reward_share`` (the mean reward of its policies as
a share of the select-all value); ``worker.py`` adds ``peak_rss_mb``. The
per-stage times are kept as information.

Functions are looked up on their modules at call time (``solvers.save_policy``,
not a name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from pathlib import Path

from relayplan import mobility, model, sim, solvers

import reference

ROOT = Path(__file__).resolve().parent.parent
TABLE1 = ROOT / "scenarios" / "table1.json"
MULTIUSER_8B = Path(__file__).resolve().parent / "scenarios" / "multiuser_8b.json"
OUT = Path(__file__).resolve().parent / "out"

H = 2
BASELINE_EPISODES = 200  # the cellular check is exact, so a short run suffices


class Round:
    """Timed stages, checks and outputs of one workload round."""

    def __init__(self, spawned_at: float, tracer=None):
        self.spawned_at = spawned_at
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.outputs: dict[str, object] = {}
        self.ops: list[list] = []  # [name, ok, reasons]
        self.stage_s = 0.0
        self.decisions = 0
        self.shares: list[float] = []

    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def output(self, key: str, value) -> None:
        """A result that must repeat exactly across rounds and with tracing on."""
        self.outputs[key] = value

    def timed(self, op: str, fn, *args, **kwargs):
        """Run one operation, returning its result and wall time."""
        if "setup_s" not in self.samples:
            self.sample("setup_s", time.monotonic() - self.spawned_at)
        self.ops.append([op, False, []])
        scope = self.tracer.operation(op) if self.tracer is not None else nullcontext()
        with scope:
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - started
        self.ops[-1][1] = True
        self.stage_s += elapsed
        return result, elapsed

    def reward(self, r: float, ref: dict) -> None:
        """Count a policy's reward towards the round's ``reward_share``."""
        self.shares.append(r / ref["select_all_reward"])

    def finish(self) -> None:
        """Take the round's end-to-end samples once its operations are done."""
        self.sample("round_s", self.stage_s)
        self.sample("reward_share", sum(self.shares) / len(self.shares))

    def check(self, ok: bool, message: str) -> None:
        """Fail the latest operation unless ``ok``."""
        if not ok:
            self.ops[-1][1] = False
            self.ops[-1][2].append(message)

    def check_reward(self, label: str, r: float, ref: dict, se: float = 0.0) -> None:
        top = ref["select_all_reward"] + 3 * se + 1e-9 * max(1.0, ref["select_all_reward"])
        self.check(r <= top, f"{label} reward {r!r} above the select-all value {top!r}")
        self.check(
            r > ref["cellular_reward"],
            f"{label} reward {r!r} not above the cellular value {ref['cellular_reward']!r}",
        )

    def check_cost(self, label: str, c: float, ref: dict, se: float = 0.0) -> None:
        top = ref["c_th"] + 3 * se + 1e-9 * max(1.0, ref["c_th"])
        self.check(c <= top, f"{label} cost {c!r} above the budget {top!r}")

    def check_runs(self, label: str, metrics, runs: int) -> None:
        self.check(metrics.runs == runs, f"{label} ran {metrics.runs} of {runs} episodes")


def _planned(rnd: Round, method: str, policy, ref: dict) -> float:
    r, c = policy.planned_value()
    rnd.check_reward(f"{method} planned", r, ref)
    rnd.check_cost(f"{method} planned", c, ref)
    rnd.output(f"{method}_planned", [r, c])
    rnd.reward(r, ref)
    gap = (ref["select_all_reward"] - r) / ref["select_all_reward"]
    rnd.output(f"info.{method}_gap_to_select_all", gap)
    return r


def _solve(rnd: Round, method: str, scenario, chains, cap: int):
    solve = getattr(solvers, f"solve_{method}")
    policy, elapsed = rnd.timed(f"{method}_solve", solve, scenario, chains, h=H, cap=cap)
    rnd.sample(f"{method}_solve_s", elapsed)
    return policy


def solve_table1(rnd: Round, seed: int, gcpbvi_cap: int = 32, cpbvi_cap: int = 12) -> None:
    """gcpbvi and cpbvi on table1; the solves are deterministic, so ``seed`` is unused."""
    scenario = model.load_scenario(TABLE1)
    chains = mobility.chains_for_scenario(scenario)
    greedy = _solve(rnd, "gcpbvi", scenario, chains, gcpbvi_cap)
    ref = reference.totals(reference.load(TABLE1))  # after the first stage: not set-up
    _planned(rnd, "gcpbvi", greedy, ref)
    exact_points = _solve(rnd, "cpbvi", scenario, chains, cpbvi_cap)
    _planned(rnd, "cpbvi", exact_points, ref)
    rnd.finish()


def simulate_table1(rnd: Round, seed: int, cap: int = 24, episodes: int = 1500) -> None:
    """Solve, save, load back, then simulate the loaded policy and the cellular baseline."""
    scenario = model.load_scenario(TABLE1)
    chains = mobility.chains_for_scenario(scenario)
    policy = _solve(rnd, "gcpbvi", scenario, chains, cap)
    ref = reference.totals(reference.load(TABLE1))
    _planned(rnd, "gcpbvi", policy, ref)
    saved_value = policy.planned_value()

    OUT.mkdir(exist_ok=True)
    path = OUT / f"policy_{os.getpid()}.json"
    try:
        _, elapsed = rnd.timed("policy_save", solvers.save_policy, policy, path)
        rnd.sample("policy_save_s", elapsed)
        rnd.sample("policy_bytes", path.stat().st_size)
        loaded, elapsed = rnd.timed("policy_load", solvers.load_policy, path)
        rnd.sample("policy_load_s", elapsed)
        value = loaded.planned_value()
        rnd.check(
            value == saved_value,
            f"loaded planned value {value!r} differs from the saved {saved_value!r}",
        )
    finally:
        path.unlink(missing_ok=True)

    metrics, elapsed = rnd.timed(
        "monte_carlo", sim.monte_carlo, loaded, scenario, episodes, seed, chains
    )
    rnd.decisions += episodes * scenario.horizon
    rnd.sample("episodes_per_s", metrics.runs / elapsed)
    rnd.sample("sim_reward", metrics.avg_cum_reward)
    rnd.reward(metrics.avg_cum_reward, ref)
    rnd.output("sim", [metrics.avg_cum_reward, metrics.avg_cum_cost])
    rnd.check_runs("monte carlo", metrics, episodes)
    rnd.check_reward("monte carlo", metrics.avg_cum_reward, ref, metrics.stderr_reward)
    rnd.check_cost("monte carlo", metrics.avg_cum_cost, ref, metrics.stderr_cost)

    cell, _ = rnd.timed(
        "baseline_cellular", sim.baseline_cellular, scenario, BASELINE_EPISODES, seed, chains
    )
    rnd.check_runs("cellular", cell, BASELINE_EPISODES)
    rnd.check(
        cell.avg_cum_reward == ref["cellular_reward"] and cell.avg_cum_cost == ref["cellular_cost"],
        f"cellular baseline ({cell.avg_cum_reward!r}, {cell.avg_cum_cost!r}) is not "
        f"({ref['cellular_reward']!r}, {ref['cellular_cost']!r})",
    )
    rnd.finish()


def _multiuser(rnd: Round, mode: str, scenario, chains, cap: int, episodes: int, seed: int):
    metrics, elapsed = rnd.timed(
        mode, sim.run_multiuser, scenario, mode, episodes, seed, chains, h=H, cap=cap
    )
    rnd.sample(f"{mode}_s", elapsed)
    rnd.sample(f"{mode}_reward", metrics.avg_cum_reward)
    rnd.output(mode, [metrics.avg_cum_reward, [u["avg_cum_cost"] for u in metrics.per_ue]])
    return metrics


def _check_multiuser(rnd: Round, mode: str, metrics, episodes: int, ref: dict) -> None:
    rnd.check_runs(mode, metrics, episodes)
    rnd.check_reward(mode, metrics.avg_cum_reward, ref, metrics.stderr_reward)
    rnd.reward(metrics.avg_cum_reward, ref)
    for entry in metrics.per_ue:
        rnd.check_cost(f"{mode} UE {entry['ue']}", entry["avg_cum_cost"], ref, entry["stderr_cost"])


def multiuser_8b(rnd: Round, seed: int, cap: int = 8, episodes: int = 200) -> None:
    """Centralized and distributed ``run_multiuser`` on the five-UE, four-relay scenario."""
    scenario = model.load_scenario(MULTIUSER_8B)
    chains = mobility.chains_for_scenario(scenario)
    central = _multiuser(rnd, "centralized", scenario, chains, cap, episodes, seed)
    ref = reference.totals(reference.load(MULTIUSER_8B))
    _check_multiuser(rnd, "centralized", central, episodes, ref)
    distributed = _multiuser(rnd, "distributed", scenario, chains, cap, episodes, seed)
    rnd.decisions += episodes * scenario.horizon * scenario.n_ues
    _check_multiuser(rnd, "distributed", distributed, episodes, ref)
    rnd.finish()


# name -> (function, operations attempted per round)
WORKLOADS = {
    "solve_table1": (solve_table1, 2),
    "simulate_table1": (simulate_table1, 5),
    "multiuser_8b": (multiuser_8b, 2),
}
