"""Policy execution and evaluation.

Episodes draw relay trajectories from the scenario chains, apply the stored
policy through the execution rule (the reward argmax over the epoch's pairs
at the current belief among those that fit the budget the plan left to
this branch, see ``_Agent``), and accumulate discounted reward, cost, and
energy efficiency. Episode randomness derives from a master seed
through spawned child sequences, so runs are reproducible and independent
of execution order; metric reductions use compensated summation.

The multi-user entry point supports a centralized mode (gcpbvi's greedy
over every UE's elements in one solve, a relay observed when any UE selects
it, budgets per UE) and a distributed mode (independent single-UE gcpbvi
solves and private beliefs in a shared world). A policy plays the first N
UEs of a scenario, N = 1 for a single user. Single-user runs and both modes
share one episode loop, ``run_episode``, one execution rule and one metric
reduction.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .belief import (
    FactoredBelief,
    FactorTable,
    Observation,
    advance_belief,
    advance_ids,
)
from .errors import CapExceededError, ValidationError
from .mobility import MarkovChain, chains_for_scenario
from .model import (
    EMPTY_ACTION,
    Action,
    JointState,
    ScenarioConfig,
    cost_vector,
    reward_vector,
    with_single_ue,
)
from .solvers import (
    EXACT_STATE_CAP,
    OracleTree,
    PolicySolution,
    _branch_obs,
    _Engine,
    _first_fit,
    _ranked,
    _solve_point_based,
    select_pair,  # unused here; perfbench/tracing.py wraps relayplan.sim.select_pair
    solve_gcpbvi,
)


@dataclass(slots=True)
class EpochRecord:
    """One epoch of an episode: per-UE actions, rewards and costs, and the
    observation of each agent (see ``run_episode``)."""

    epoch: int
    state: JointState
    actions: tuple[Action, ...]
    observations: tuple[Observation, ...]
    rewards: tuple[float, ...]
    costs: tuple[float, ...]


@dataclass(slots=True)
class EpisodeTrace:
    """Epoch records and per-UE cumulative discounted reward, cost and
    energy efficiency."""

    records: list[EpochRecord]
    cum_reward: tuple[float, ...]
    cum_cost: tuple[float, ...]
    cum_ee: tuple[float, ...]

    def __post_init__(self):
        for t, rec in enumerate(self.records, start=1):
            if rec.epoch != t:
                raise ValidationError("trace epochs must be 1..T in order")


@dataclass
class SimulationMetrics:
    """Averages over episodes, summed over UEs; ``per_epoch`` holds the
    running averages after each epoch and ``per_ue`` each UE's averages."""

    runs: int
    horizon: int
    gamma: float
    avg_cum_reward: float
    avg_cum_cost: float
    avg_cum_ee: float
    stderr_reward: float
    stderr_cost: float
    per_epoch: list[dict] = field(default_factory=list)
    per_ue: list[dict] = field(default_factory=list)


class _SimContext:
    """One UE's reward and cost tables, and the relay-state sampler."""

    def __init__(self, scenario: ScenarioConfig, chains: list[MarkovChain]):
        self.scenario = scenario
        self.r_vecs = {i: reward_vector(scenario, i) for i in range(1, scenario.n_relays + 1)}
        self.c_vecs = {i: cost_vector(scenario, i) for i in range(1, scenario.n_relays + 1)}
        self.cum_rows = [_sampling_rows(c.matrix).tolist() for c in chains]

    def outcome(self, state: JointState, action: Action) -> tuple[float, float]:
        """The (reward, cost) of ``action`` in ``state``."""
        r = self.scenario.direct_reward() if 0 in action else 0.0
        c = self.scenario.direct_cost() if 0 in action else 0.0
        for i in action.relays:
            r += float(self.r_vecs[i][state[i - 1]])
            c += float(self.c_vecs[i][state[i - 1]])
        return r, c

    def step_states(self, state: JointState, rng: np.random.Generator) -> JointState:
        # bisect_right on Python floats is searchsorted(side="right"), minus numpy's call cost
        draws = rng.random(len(state)).tolist()
        return tuple(bisect.bisect_right(self.cum_rows[i][s], draws[i]) for i, s in enumerate(state))


def _sampling_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums for inverse-CDF sampling, infinite from each
    row's last positive column on: a row may sum to 1 - 1e-9, and a draw past
    its sum then lands on that column instead of past the grid. A draw below
    the sum picks the same column as with the plain sums."""
    cum = np.cumsum(matrix, axis=1)
    last = matrix.shape[1] - 1 - np.argmax(matrix[:, ::-1] > 0.0, axis=1)
    cum[np.arange(matrix.shape[1]) >= last[:, None]] = np.inf
    return cum


@dataclass
class _Ranking:
    """The stored pairs at one belief ``fb`` and epoch in ``solvers._ranked``
    order, their per-UE costs-to-go there, and those at the posteriors seen
    so far."""

    fb: FactoredBelief
    pairs: list
    costs: np.ndarray
    posteriors: dict = field(default_factory=dict)

    def at_posterior(self, j: int, obs: Observation) -> list[float]:
        """Pair ``j``'s per-UE costs-to-go at ``fb`` given the observation:
        the observed relays' axes indexed, the others contracted with their
        factors."""
        key = (j, obs)
        if key not in self.posteriors:
            t = self.pairs[j].alpha_cs.reshape((-1,) + tuple(len(f) for f in self.fb.per_relay))
            t = t[(slice(None),) + tuple(slice(None) if z is None else z for z in obs)]
            for f, z in reversed(list(zip(self.fb.per_relay, obs))):
                if z is None:
                    t = t @ f
            self.posteriors[key] = t.tolist()
        return self.posteriors[key]


@dataclass
class _Agent:
    """A decision maker for the UEs ``ues``: an oracle ``tree``, a fixed
    ``action``, or the execution rule over ``epochs`` (each epoch's pairs).

    The rule plays the first pair in ``solvers._ranked`` order at the belief
    whose costs-to-go fit every UE's budget, or idles every UE. Budgets
    start at ``c_th``; a UE's next one is ``(budget - the pair's cost-to-go
    at the belief + its cost-to-go at the posterior of the observed branch -
    the cost paid) / gamma``: what the plan gave that branch plus the slack.
    Over the branches that is the budget, so the expected cost stays within
    ``c_th``; and the plan's own continuation fits, so with exact beliefs
    the policy earns at least its planned value.

    ``decide`` memoises the ranking per (epoch, belief ids), a pure function
    of the two, and builds a ``FactoredBelief`` from ``factors`` on a miss.
    """

    ues: tuple[int, ...]
    factors: FactorTable | None
    epochs: list | None = None
    c_th: float = 0.0
    gamma: float = 1.0
    action: Action | None = None
    tree: OracleTree | None = None
    memo: dict = field(default_factory=dict)

    def act(self, epoch: int, fb: FactoredBelief, budgets: tuple, node):
        """``(actions, choice)``; ``choice`` is what ``next_budgets`` needs."""
        if self.tree is not None:
            return (node.action if node is not None else EMPTY_ACTION,), None
        if self.epochs is None:
            return (self.action,), None
        return self._play(_Ranking(fb, *_ranked(self.epochs[epoch - 1], fb)), budgets)

    def decide(self, epoch: int, ids, budgets: tuple, node):
        if self.epochs is None:
            return self.act(epoch, None, budgets, node)
        ranking = self.memo.get((epoch, ids))
        if ranking is None:
            fb = self.factors.belief(ids)
            ranking = self.memo[(epoch, ids)] = _Ranking(fb, *_ranked(self.epochs[epoch - 1], fb))
        return self._play(ranking, budgets)

    def _play(self, ranking: _Ranking, budgets: tuple):
        j = _first_fit(ranking.costs, budgets, self.c_th)
        if j is None:
            return (EMPTY_ACTION,) * len(self.ues), (ranking, None)
        return ranking.pairs[j].actions, (ranking, j)

    def next_budgets(self, choice, budgets: tuple, obs: Observation, spent: tuple) -> tuple:
        """Each UE's next budget after ``choice`` met ``obs`` and cost ``spent``."""
        if choice is None:
            return budgets
        if self.gamma == 0.0:  # later costs do not count
            return (math.inf,) * len(budgets)
        ranking, j = choice
        planned = at_branch = (0.0,) * len(budgets)
        if j is not None:
            planned, at_branch = ranking.costs[j].tolist(), ranking.at_posterior(j, obs)
        return tuple(
            (d - p + a - c) / self.gamma for d, p, a, c in zip(budgets, planned, at_branch, spent)
        )


def _policy_agent(policy, factors: FactorTable | None, first_ue: int = 0) -> _Agent:
    """The agent playing an oracle-tree or alpha policy for UEs ``first_ue``
    on: one UE, or as many as the alpha policy's pairs hold."""
    if policy.tree is not None:
        return _Agent((first_ue,), factors, tree=policy.tree)
    ues = tuple(range(first_ue, first_ue + policy.n_ues))
    return _Agent(ues, factors, epochs=policy.epochs, c_th=policy.c_th, gamma=policy.gamma)


def _play_policy(
    policy, scenario: ScenarioConfig, chains: list[MarkovChain]
) -> tuple[list[_Agent], list[_SimContext]]:
    """The agent of ``policy`` and the contexts of the UEs it plays, the
    first of ``scenario``."""
    if policy.horizon != scenario.horizon:
        raise ValidationError(
            f"policy horizon {policy.horizon} does not match scenario horizon {scenario.horizon}"
        )
    agent = _policy_agent(policy, FactorTable(chains))
    if len(agent.ues) > scenario.n_ues:
        raise ValidationError(f"policy plays {len(agent.ues)} UEs; scenario has {scenario.n_ues}")
    return [agent], [_SimContext(with_single_ue(scenario, u), chains) for u in agent.ues]


def run_episode(
    agents: list[_Agent],
    contexts: list[_SimContext],
    seed: int | np.random.SeedSequence = 0,
) -> EpisodeTrace:
    """One seeded episode; identical seeds produce identical traces.

    ``contexts`` holds one context per UE; ``agents`` are one agent for a
    single user, one per UE (distributed) or one for all UEs (centralized).
    Each agent carries its own belief ids (see ``belief.FactorTable``),
    oracle-tree cursor and per-UE budgets (see ``_Agent``), and observes
    the relays its UEs selected.
    """
    scenario = contexts[0].scenario
    horizon = scenario.horizon
    gamma = scenario.gamma
    rng = np.random.default_rng(seed)
    state = scenario.initial_states
    ids = [tuple((s, 0) for s in state)] * len(agents)
    cursors = [agent.tree for agent in agents]
    budgets = [(scenario.c_th,) * len(agent.ues) for agent in agents]
    n_ues = len(contexts)
    cum_r = [0.0] * n_ues
    cum_c = [0.0] * n_ues
    cum_ee = [0.0] * n_ues
    records = []
    for epoch in range(1, horizon + 1):
        actions = [EMPTY_ACTION] * n_ues
        choices = []
        for a, agent in enumerate(agents):
            acts, choice = agent.decide(epoch, ids[a], budgets[a], cursors[a])
            choices.append(choice)
            for u, action in zip(agent.ues, acts):
                actions[u] = action
        rewards, costs = zip(*(ctx.outcome(state, act) for ctx, act in zip(contexts, actions)))
        w, w_ee = gamma ** (epoch - 1), gamma ** (horizon - epoch)
        for u, (r, c) in enumerate(zip(rewards, costs)):
            cum_r[u] += w * r
            cum_c[u] += w * c
            cum_ee[u] += w_ee * (r / c if c > 0 else 0.0)
        observations = []
        for a, agent in enumerate(agents):
            seen = {i - 1 for u in agent.ues for i in actions[u].relays}
            obs = tuple(s if i in seen else None for i, s in enumerate(state))
            observations.append(obs)
            if epoch < horizon:
                budgets[a] = agent.next_budgets(
                    choices[a], budgets[a], obs, tuple(costs[u] for u in agent.ues)
                )
            ids[a] = advance_ids(ids[a], obs)
            if cursors[a] is not None:
                cursors[a] = cursors[a].children.get(obs)
        records.append(
            EpochRecord(epoch, state, tuple(actions), tuple(observations), rewards, costs)
        )
        state = contexts[0].step_states(state, rng)
    return EpisodeTrace(records, tuple(cum_r), tuple(cum_c), tuple(cum_ee))


def _simulate(
    agents: list[_Agent], contexts: list[_SimContext], n_runs: int, seed: int
) -> SimulationMetrics:
    """``run_episode`` over ``n_runs`` seeds spawned from ``seed``, reduced.

    Each trace is cut to its ``_episode_sums`` as soon as it is played, so a
    batch never holds more than one trace."""
    if n_runs < 1:
        raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
    scenario = contexts[0].scenario
    seeds = np.random.SeedSequence(seed).spawn(n_runs)
    return _reduce(
        [_episode_sums(run_episode(agents, contexts, s), scenario) for s in seeds], scenario
    )


def monte_carlo(
    policy,
    scenario: ScenarioConfig,
    n_runs: int,
    seed: int = 0,
    chains: list[MarkovChain] | None = None,
) -> SimulationMetrics:
    """Averages over independent seeded episodes."""
    chains = chains if chains is not None else chains_for_scenario(scenario)
    return _simulate(*_play_policy(policy, scenario, chains), n_runs, seed)


def _episode_sums(trace: EpisodeTrace, scenario: ScenarioConfig) -> tuple:
    """What the metric reduction needs of one episode: the trace's per-UE
    cumulative reward, cost and energy efficiency, and per epoch ``e`` its
    discounted reward, cost and energy-efficiency terms over epochs 1..e,
    summed over UEs."""
    horizon = scenario.horizon
    gamma = scenario.gamma
    terms_r: list[float] = []
    terms_c: list[float] = []
    terms_ee: list[float] = []
    running = []
    for rec in trace.records:
        w, w_ee = gamma ** (rec.epoch - 1), gamma ** (horizon - rec.epoch)
        terms_r.extend(w * r for r in rec.rewards)
        terms_c.extend(w * c for c in rec.costs)
        terms_ee.extend(w_ee * (r / c if c > 0 else 0.0) for r, c in zip(rec.rewards, rec.costs))
        running.append((math.fsum(terms_r), math.fsum(terms_c), math.fsum(terms_ee)))
    return trace.cum_reward, trace.cum_cost, trace.cum_ee, running


def _reduce(episodes: list[tuple], scenario: ScenarioConfig) -> SimulationMetrics:
    """Compensated averages over the ``_episode_sums`` of every episode:
    totals and running per-epoch values summed over UEs, and each UE's own."""
    n = len(episodes)
    cum_r, cum_c, cum_ee, running = zip(*episodes)
    rewards = [math.fsum(r) for r in cum_r]
    costs = [math.fsum(c) for c in cum_c]
    ees = [math.fsum(ee) for ee in cum_ee]
    per_epoch = []
    for e in range(1, scenario.horizon + 1):
        cr, cc, cee = zip(*(run[e - 1] for run in running))
        per_epoch.append(
            {
                "epoch": e,
                "avg_cum_reward": math.fsum(cr) / n,
                "avg_cum_cost": math.fsum(cc) / n,
                "avg_cum_ee": math.fsum(cee) / n,
                "stderr_reward": _stderr(cr),
            }
        )
    per_ue = [
        {
            "ue": u,
            "avg_cum_reward": math.fsum(r[u] for r in cum_r) / n,
            "avg_cum_cost": math.fsum(c[u] for c in cum_c) / n,
            "avg_cum_ee": math.fsum(ee[u] for ee in cum_ee) / n,
            "stderr_cost": _stderr([c[u] for c in cum_c]),
        }
        for u in range(len(cum_r[0]))
    ]
    return SimulationMetrics(
        runs=n,
        horizon=scenario.horizon,
        gamma=scenario.gamma,
        avg_cum_reward=math.fsum(rewards) / n,
        avg_cum_cost=math.fsum(costs) / n,
        avg_cum_ee=math.fsum(ees) / n,
        stderr_reward=_stderr(rewards),
        stderr_cost=_stderr(costs),
        per_epoch=per_epoch,
        per_ue=per_ue,
    )


def _stderr(values) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return math.sqrt(var / n)


def baseline_cellular(
    scenario: ScenarioConfig,
    n_runs: int,
    seed: int = 0,
    chains: list[MarkovChain] | None = None,
) -> SimulationMetrics:
    """Always plays the direct link; the with/without comparison reference."""
    chains = chains if chains is not None else chains_for_scenario(scenario)
    agent = _Agent((0,), None, action=Action((0,)))
    return _simulate([agent], [_SimContext(with_single_ue(scenario, 0), chains)], n_runs, seed)


def exact_policy_value(
    policy,
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
    fb: FactoredBelief | None = None,
    epoch: int = 1,
    action: Action | None = None,
) -> tuple[float, float]:
    """Expected cumulative discounted (reward, cost) of executing a policy
    from ``fb`` at ``epoch`` (by default the initial one-hot at epoch 1)
    with the budget ``c_th``, carried on as in ``run_episode``, by
    exhaustive enumeration of observation paths (capped instances only).

    With ``action`` given, that action is taken at ``epoch`` and the policy
    is executed from the next epoch with the budget ``c_th``, so the result
    is the Q-value ``rho(b, a) + gamma * sum_z P(z | b, a) * V(b_z)`` of the
    policy's value ``V``. The belief doubles as the true conditional state distribution, so one
    recursion covers both filtering and probability weighting. A tree policy
    is followed from its root only.
    """
    chains = chains if chains is not None else chains_for_scenario(scenario)
    horizon = scenario.horizon
    gamma = scenario.gamma
    k = scenario.n_relays
    if scenario.n_regions**k > EXACT_STATE_CAP:
        raise CapExceededError(f"exact policy evaluation needs |S|^K <= {EXACT_STATE_CAP}")
    ctx = _SimContext(scenario, chains)
    agent = _policy_agent(policy, None)
    if len(agent.ues) != 1:
        raise ValidationError("exact policy evaluation plays a policy of one UE")
    cursor = agent.tree
    if cursor is not None and (fb is not None or epoch != 1 or action is not None):
        raise ValidationError("a tree policy is evaluated from its root only")
    engine = _Engine(scenario, chains)

    def recurse(e: int, b: FactoredBelief, cursor, act: Action | None, budget: float):
        if e > horizon:
            return 0.0, 0.0
        choice = None
        if act is None:
            (act,), choice = agent.act(e, b, (budget,), cursor)
        total_r, total_c = engine.rho(act, b)
        sel = act.relays
        # with no selected relays the product yields the single empty branch
        supports = [np.flatnonzero(b.per_relay[i - 1] > 0.0) for i in sel]
        for combo in itertools.product(*supports):
            p_z = 1.0
            for i, region in zip(sel, combo):
                p_z *= float(b.per_relay[i - 1][region])
            obs = _branch_obs(act, combo, k)
            child = cursor.children.get(obs) if cursor is not None else None
            left = budget
            if e < horizon:
                (left,) = agent.next_budgets(choice, (budget,), obs, (ctx.outcome(obs, act)[1],))
            fr, fc = recurse(e + 1, advance_belief(b, chains, act, obs), child, None, left)
            total_r += gamma * p_z * fr
            total_c += gamma * p_z * fc
        return total_r, total_c

    if fb is None:
        fb = FactoredBelief.one_hot(scenario.initial_states, scenario.n_regions)
    return recurse(epoch, fb, cursor, action, scenario.c_th)


def discrete_derivative(
    scenario: ScenarioConfig,
    chains: list[MarkovChain],
    policy: PolicySolution,
    fb: FactoredBelief,
    epoch: int,
    element: int,
    base: Action,
) -> tuple[float, float]:
    """Marginal Q gain of adding ``element`` to ``base`` at ``fb``."""
    if element in base.selected:
        raise ValidationError(f"element {element} already in the base action {base.selected}")
    with_e = Action(tuple(sorted(base.selected + (element,))))
    q1 = exact_policy_value(policy, scenario, chains, fb, epoch, with_e)
    q0 = exact_policy_value(policy, scenario, chains, fb, epoch, base)
    return q1[0] - q0[0], q1[1] - q0[1]


# --- multi-user ---------------------------------------------------------------


def solve_centralized(
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
    h: int | None = None,
    cap: int = 64,
) -> PolicySolution:
    """Joint greedy solve over every UE's (UE, option) elements with per-UE
    budgets: gcpbvi's backup (``_Engine.greedy``) for all N UEs, a policy of
    method ``centralized``. A relay any UE selects is observed by all;
    continuation choices follow the per-branch local rule with every UE's
    budget."""
    return _solve_point_based("centralized", scenario, chains, h, cap)


def _multi_user(
    scenario: ScenarioConfig,
    mode: str,
    chains: list[MarkovChain],
    h: int | None,
    cap: int,
) -> tuple[list[_Agent], list[_SimContext]]:
    """The solved agents and per-UE contexts of a multi-user run: one agent
    for all UEs (centralized) or one single-user agent per UE (distributed)."""
    if mode == "centralized":
        policy = solve_centralized(scenario, chains, h=h, cap=cap)
        return _play_policy(policy, scenario, chains)
    factors = FactorTable(chains)
    agents = [
        _policy_agent(solve_gcpbvi(with_single_ue(scenario, u), chains, h=h, cap=cap), factors, u)
        for u in range(scenario.n_ues)
    ]
    return agents, [_SimContext(with_single_ue(scenario, u), chains) for u in range(scenario.n_ues)]


def run_multiuser(
    scenario: ScenarioConfig,
    mode: str,
    n_runs: int = 100,
    seed: int = 0,
    chains: list[MarkovChain] | None = None,
    h: int | None = None,
    cap: int = 64,
) -> SimulationMetrics:
    """Simulate N UEs sharing one relay pool, centralized or distributed.

    Reward aggregates over UEs; the budget holds per UE. With a single UE
    both modes reduce to the single-user pipeline.
    """
    if mode not in ("centralized", "distributed"):
        raise ValidationError(f"mode must be centralized or distributed, got {mode!r}")
    chains = chains if chains is not None else chains_for_scenario(scenario)
    return _simulate(*_multi_user(scenario, mode, chains, h, cap), n_runs, seed)


# --- complexity model ----------------------------------------------------------


def complexity_log10(method: str, k: int, sizes: dict | None = None) -> float:
    """log10 of the closed-form per-iteration operation-count estimate.

    ``sizes`` may carry ``S`` (regions), ``B`` (belief points), ``Z``
    (observation branches, default ``S**K``), ``V`` (stored pairs, default
    ``B``) and ``N`` (UEs), each at least 1. The enumerated methods are doubly exponential,
    so the estimates are kept in log space; they are order-of-magnitude
    models meant for ratios and trend plots. Measured operation counters
    live in each PolicySolution's stats for empirical cross-checks.
    """
    sizes = sizes or {}
    if min(sizes.values(), default=1) < 1:
        raise ValidationError(f"sizes must be >= 1, got {sizes}")
    s = sizes.get("S", 16)
    b = sizes.get("B", 32)
    z = sizes.get("Z", s**k)
    v = sizes.get("V", b)
    n = sizes.get("N", 1)
    lg = math.log10
    if method == "exact":
        return k * lg(2) + z * lg(v)
    if method == "cpbvi":
        return k * lg(2) + z * lg(b)
    if method == "gcpbvi":
        return 2 * lg(k) + lg(s) + s * lg(b)
    if method == "centralized":
        return 2 * lg(n * k) + lg(n) + lg(s) + s * lg(b)
    if method == "distributed":
        return lg(n) + 2 * lg(k) + lg(s) + s * lg(b)
    raise ValidationError(f"unknown method {method!r}")


def complexity_model(method: str, k: int, sizes: dict | None = None) -> float:
    """Operation-count estimate; inf when it exceeds float range."""
    lg = complexity_log10(method, k, sizes)
    return float("inf") if lg > 300 else 10.0**lg


def complexity_ratio(method_a: str, method_b: str, k: int, sizes: dict | None = None) -> float:
    """Common-factor-cancelling ratio of two methods' estimates.

    The CPBVI/GCPBVI ratio reduces to ``2**K / K**2``; the centralized /
    distributed ratio reduces to ``N**2``.
    """
    if {method_a, method_b} == {"cpbvi", "gcpbvi"}:
        ratio = 2**k / k**2
        return ratio if method_a == "cpbvi" else 1.0 / ratio
    if {method_a, method_b} == {"centralized", "distributed"}:
        n = (sizes or {}).get("N", k)
        ratio = float(n**2)
        return ratio if method_a == "centralized" else 1.0 / ratio
    a = complexity_model(method_a, k, sizes)
    b = complexity_model(method_b, k, sizes)
    return a / b


# --- tabular output -------------------------------------------------------------


METRIC_COLUMNS = [
    "scenario_id",
    "method",
    "epoch",
    "avg_cum_reward",
    "avg_cum_cost",
    "avg_cum_ee",
    "stderr_reward",
    "runs",
]


def metrics_rows(metrics: SimulationMetrics, scenario_id: str, method: str) -> list[dict]:
    """One ``METRIC_COLUMNS`` row per epoch."""
    return [
        {"scenario_id": scenario_id, "method": method, **entry, "runs": metrics.runs}
        for entry in metrics.per_epoch
    ]


def write_csv(rows: list[dict], columns: list[str], path) -> None:
    """Comma-separated table of ``columns``; floats are written with ``repr``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns) + "\n")
