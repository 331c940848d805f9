"""Policy execution and evaluation.

Episodes draw relay trajectories from the scenario chains, play an agent of
one of two kinds, an oracle tree (the cellular baseline is a one-path tree)
or the stored policy's execution rule (the reward argmax over the epoch's
pairs at the current belief among those that fit the budget the plan left
to this branch, see ``_Agent``), and accumulate discounted reward, cost, and
energy efficiency. Episode randomness derives from a master seed through
spawned child sequences, so runs are reproducible and independent of
execution order; metric reductions use compensated summation.

The multi-user entry point supports a centralized mode (gcpbvi's greedy
over every UE's elements in one solve, a relay observed when any UE selects
it, budgets per UE) and a distributed mode (independent single-UE gcpbvi
solves and private beliefs in a shared world). A policy plays the first N
UEs of a scenario, N = 1 for a single user. Single-user runs and both modes
share one episode loop, ``_run_batch``, which steps all of a run's episodes
together as arrays, one execution rule and one metric reduction, in one
world per run (``_World``): the option tables of the UEs played, read for
every UE at once, and the relay-state sampler, built once.

``exact_policy_value`` enumerates every observation path instead of
sampling, with the same rule (``solvers._play``), the same budget carry
(``solvers._Ranking.allotment``) and the same option tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .alpha import expectation
from .belief import FactoredBelief, FactorTable, Observation, Support, advance_belief
from .errors import CapExceededError, ValidationError
from .mobility import MarkovChain, chains_for_scenario
from .model import (
    EMPTY_ACTION,
    Action,
    JointState,
    ScenarioConfig,
    option_tables,
    with_single_ue,
)
from .solvers import (
    EXACT_STATE_CAP,
    OracleTree,
    PolicySolution,
    _branch_obs,
    _first_fit,
    _play,
    _Ranking,
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


class _World:
    """What a run's episodes share, built once: the option tables (see
    ``model.option_tables``) of the UEs played, the first ``n_ues`` of
    ``scenario``, and the relay-state sampler rows of ``chains``."""

    def __init__(self, scenario: ScenarioConfig, chains: list[MarkovChain], n_ues: int):
        self.scenario = scenario
        rewards, self.costs = option_tables(scenario)
        self.rewards = rewards[:n_ues]
        self.cum_rows = [_sampling_rows(c.matrix) for c in chains]

    def outcomes(self, states: np.ndarray, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every UE's rewards and costs (runs, UEs) in ``states`` (runs, K) of
        the actions whose options ``sel`` (UEs, runs, K + 1) marks, summed
        option by option as ``model.total_reward`` and ``total_cost`` sum them."""
        r = np.where(sel[..., 0], self.rewards[:, 0, :1], 0.0)
        c = np.where(sel[..., 0], self.costs[0, 0], 0.0)
        for i, s in enumerate(states.T, start=1):
            np.add(r, self.rewards[:, i, s], out=r, where=sel[..., i])
            np.add(c, self.costs[i, s], out=c, where=sel[..., i])
        return r.T, c.T

    def step_states(self, states: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """The next relay states of a batch, ``states`` and ``draws`` both
        (runs, K): a relay moves to the count of its sampling row's entries at
        or below its draw, which is ``bisect_right`` on the row."""
        return np.stack(
            [(rows[s] <= d[:, None]).sum(axis=1) for rows, s, d in zip(self.cum_rows, states.T, draws.T)],
            axis=1,
        )


def _sampling_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums for inverse-CDF sampling, infinite from each
    row's last positive column on: a row may sum to 1 - 1e-9, and a draw past
    its sum then lands on that column instead of past the grid. A draw below
    the sum picks the same column as with the plain sums."""
    cum = np.cumsum(matrix, axis=1)
    last = matrix.shape[1] - 1 - np.argmax(matrix[:, ::-1] > 0.0, axis=1)
    cum[np.arange(matrix.shape[1]) >= last[:, None]] = np.inf
    return cum


def _groups(*columns: tuple[np.ndarray, int]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of integer ``(values, bound)`` columns, each value
    below its bound, by one int64 code per row: the first row of each group
    and every row's group."""
    code = np.zeros(len(columns[0][0]), dtype=np.int64)
    for values, bound in columns:
        if (int(code.max()) + 1) * bound > 2**62:  # renumber the groups so far to stay in int64
            code = np.unique(code, return_inverse=True)[1]
        code = code * bound + values
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return first, inverse


@dataclass
class _Agent:
    """A decision maker for the UEs ``ues``, of two kinds: an oracle
    ``tree``, which plays its node's action and idles where the tree has no
    child, or the execution rule over ``epochs`` (each epoch's pairs) at the
    beliefs ``factors`` builds from belief ids. ``_Walk`` plays an agent
    over a batch of episodes, and ``exact_policy_value`` over every
    observation path.

    The rule (``solvers._play``) plays the first pair in ``solvers._Ranking``
    order whose costs-to-go fit every UE's budget, or idles every UE.
    Budgets start at ``c_th``; a UE's next one is ``(budget - the pair's
    cost-to-go at the belief + its cost-to-go at the posterior of the
    observed branch - the cost paid) / gamma``: what the plan gave that
    branch (``solvers._Ranking.allotment``) plus the slack. Over the
    branches that is the budget, so the expected cost stays within
    ``c_th``; and the plan's own continuation fits, so with exact beliefs
    the policy earns at least its planned value.
    """

    ues: tuple[int, ...]
    factors: FactorTable | None
    epochs: list | None = None
    c_th: float = 0.0
    gamma: float = 1.0
    tree: OracleTree | None = None

    def next_budgets(self, budgets: np.ndarray, planned, at_branch, spent) -> np.ndarray:
        """Each UE's next budget, elementwise: the played pair's costs-to-go
        ``planned`` at the belief and ``at_branch`` at the observed branch
        (both 0 when the rule idled), and the cost ``spent``."""
        if self.gamma == 0.0:  # later costs do not count
            return np.full(budgets.shape, math.inf)
        return (budgets - planned + at_branch - spent) / self.gamma


class _Walk:
    """One agent across a batch of episodes, a row per episode: its belief
    ids as ``(sid, mid)`` arrays (see ``belief.FactorTable``), its UEs'
    budgets, and its oracle-tree cursor as an index into ``nodes``, the
    distinct nodes the runs reached."""

    def __init__(self, agent: _Agent, scenario: ScenarioConfig, runs: int):
        self.agent = agent
        self.n_regions, self.horizon = scenario.n_regions, scenario.horizon
        self.sid = np.tile(np.asarray(scenario.initial_states, dtype=np.int64), (runs, 1))
        self.mid = np.zeros_like(self.sid)
        self.budgets = np.full((runs, len(agent.ues)), scenario.c_th)
        self.nodes = [agent.tree]
        self.cursor = np.zeros(runs, dtype=np.intp)

    def choose(self, epoch: int) -> tuple[list, np.ndarray]:
        """This epoch's distinct choices, each ``(actions, how)``, and every
        run's index into them: ``how`` is the rule's ``(ranking, j)``, ``j``
        the played pair or None, or the tree node played. The pairs are
        ranked once per distinct belief ids, and one ``_first_fit`` call
        fits every run."""
        agent = self.agent
        if agent.tree is not None:
            return [((EMPTY_ACTION if n is None else n.action,), n) for n in self.nodes], self.cursor
        first, group = _groups(
            *((ids, self.n_regions) for ids in self.sid.T),
            *((ids, self.horizon) for ids in self.mid.T),
        )
        rankings = [
            _Ranking.of(agent.epochs[epoch - 1], agent.factors.belief(tuple(zip(s, m))))
            for s, m in zip(self.sid[first].tolist(), self.mid[first].tolist())
        ]
        width = len(agent.epochs[epoch - 1])
        j = _first_fit(np.stack([r.costs for r in rankings])[group], self.budgets, agent.c_th)
        first, inverse = _groups((group, len(rankings)), (j, width + 1))
        picks = zip((rankings[g] for g in group[first].tolist()), j[first].tolist())
        idle = (EMPTY_ACTION,) * len(agent.ues)
        return [
            (idle, (r, None)) if jj == width else (r.pairs[jj].actions, (r, jj)) for r, jj in picks
        ], inverse

    def advance(self, choices: list, inverse: np.ndarray, state: np.ndarray, seen: np.ndarray, spent):
        """Carry every run past its epoch: it observes ``state`` on the relays
        ``seen`` (runs, K) marks, and its UEs paid ``spent`` (runs, UEs). The
        next budgets and tree nodes are looked up once per distinct choice
        and observation."""
        agent = self.agent
        first, branch = _groups(
            (inverse, len(choices)),
            *((np.where(z, s, self.n_regions), self.n_regions + 1) for s, z in zip(state.T, seen.T)),
        )
        branches = [
            (choices[inverse[r]][1], _observation(state[r].tolist(), seen[r].tolist()))
            for r in first.tolist()
        ]
        if agent.tree is not None:
            self.nodes = [n.children.get(obs) if n is not None else None for n, obs in branches]
            self.cursor = branch
            return
        planned = np.zeros((len(branches), len(agent.ues)))
        at_branch = np.zeros_like(planned)
        for row, ((ranking, j), obs) in enumerate(branches):
            planned[row], at_branch[row] = ranking.allotment(j, obs)
        self.budgets = agent.next_budgets(self.budgets, planned[branch], at_branch[branch], spent)
        self.sid = np.where(seen, state, self.sid)
        self.mid = np.where(seen, 1, self.mid + 1)


def _observation(state: list, seen: list) -> Observation:
    """One run's observation: its ``state`` on the relays ``seen`` marks."""
    return tuple(s if z else None for s, z in zip(state, seen))


def _policy_agent(
    policy, scenario: ScenarioConfig, factors: FactorTable | None, first_ue: int = 0
) -> _Agent:
    """The agent playing an oracle-tree or alpha policy of ``scenario``'s
    horizon for UEs ``first_ue`` on: one UE, or as many as the alpha
    policy's pairs hold."""
    if policy.horizon != scenario.horizon:
        raise ValidationError(
            f"policy horizon {policy.horizon} does not match scenario horizon {scenario.horizon}"
        )
    if policy.tree is not None:
        return _Agent((first_ue,), factors, tree=policy.tree)
    ues = tuple(range(first_ue, first_ue + policy.n_ues))
    return _Agent(ues, factors, epochs=policy.epochs, c_th=policy.c_th, gamma=policy.gamma)


def _play_policy(
    policy, scenario: ScenarioConfig, chains: list[MarkovChain]
) -> tuple[list[_Agent], _World]:
    """The agent of ``policy`` and the world of the UEs it plays, the first
    of ``scenario``."""
    agent = _policy_agent(policy, scenario, FactorTable(chains))
    if len(agent.ues) > scenario.n_ues:
        raise ValidationError(f"policy plays {len(agent.ues)} UEs; scenario has {scenario.n_ues}")
    return [agent], _World(scenario, chains, len(agent.ues))


def _run_batch(
    agents: list[_Agent], world: _World, seeds: list
) -> tuple[np.ndarray, np.ndarray, list[EpochRecord]]:
    """The episodes of ``seeds``, played together in ``world``, a row of
    arrays per episode; identical seeds produce identical episodes.

    ``agents`` are one agent for a single user, one per UE (distributed) or
    one for all UEs (centralized), and between them play the world's UEs.
    Each agent carries its own belief ids, oracle-tree cursor and per-UE
    budgets (see ``_Walk``), and observes the relays its UEs selected. Each
    episode's uniforms are drawn up front from its own seed, bitwise the
    draws of one ``rng.random(K)`` per epoch but the last.

    Returns the discounted reward, cost and energy-efficiency terms
    ``(runs, 3, T, UEs)``, their per-UE running sums in epoch order
    ``(runs, 3, UEs)``, and the first episode's epoch records.
    """
    scenario = world.scenario
    horizon, gamma, k = scenario.horizon, scenario.gamma, scenario.n_relays
    runs, n_ues = len(seeds), len(world.rewards)
    draws = np.empty((runs, horizon - 1, k))
    for row, seed in zip(draws, seeds):
        np.random.default_rng(seed).random(out=row)
    state = np.tile(np.asarray(scenario.initial_states, dtype=np.int64), (runs, 1))
    walks = [_Walk(agent, scenario, runs) for agent in agents]
    terms = np.empty((runs, 3, horizon, n_ues))
    cum = np.zeros((runs, 3, n_ues))
    records = []
    for epoch in range(1, horizon + 1):
        decided = [walk.choose(epoch) for walk in walks]
        sel = np.zeros((n_ues, runs, k + 1), dtype=bool)
        for walk, (choices, inverse) in zip(walks, decided):
            for q, u in enumerate(walk.agent.ues):
                options = [[o in acts[q] for o in range(k + 1)] for acts, _ in choices]
                sel[u] = np.array(options)[inverse]
        rewards, costs = world.outcomes(state, sel)
        ees = np.divide(rewards, costs, out=np.zeros_like(rewards), where=costs > 0)
        w, w_ee = gamma ** (epoch - 1), gamma ** (horizon - epoch)
        for m, term in enumerate((w * rewards, w * costs, w_ee * ees)):
            terms[:, m, epoch - 1] = term
            cum[:, m] += term
        seen = [sel[list(walk.agent.ues), :, 1:].any(axis=0) for walk in walks]
        row = state[0].tolist()
        records.append(EpochRecord(
            epoch, tuple(row), tuple(Action(tuple(np.flatnonzero(s[0]).tolist())) for s in sel),
            tuple(_observation(row, z[0].tolist()) for z in seen),
            tuple(rewards[0].tolist()), tuple(costs[0].tolist()),
        ))
        if epoch < horizon:
            for walk, (choices, inverse), z in zip(walks, decided, seen):
                walk.advance(choices, inverse, state, z, costs[:, list(walk.agent.ues)])
            state = world.step_states(state, draws[:, epoch - 1])
    return terms, cum, records


def run_episode(
    agents: list[_Agent],
    world: _World,
    seed: int | np.random.SeedSequence = 0,
) -> EpisodeTrace:
    """One seeded episode with its epoch records: the batch of one seed (see
    ``_run_batch``); identical seeds produce identical traces."""
    _, cum, records = _run_batch(agents, world, [seed])
    return EpisodeTrace(records, *(tuple(x) for x in cum[0].tolist()))


def _simulate(agents: list[_Agent], world: _World, n_runs: int, seed: int) -> SimulationMetrics:
    """The batch of ``n_runs`` episodes on seeds spawned from ``seed``, reduced."""
    if n_runs < 1:
        raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
    terms, cum, _ = _run_batch(agents, world, np.random.SeedSequence(seed).spawn(n_runs))
    return _reduce(terms, cum, world.scenario)


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


def _reduce(terms: np.ndarray, cum: np.ndarray, scenario: ScenarioConfig) -> SimulationMetrics:
    """Compensated averages over a batch's episodes (see ``_run_batch``):
    totals and running per-epoch values summed over UEs, and each UE's own.
    An episode's running value after epoch ``e`` is the ``math.fsum`` of its
    terms over epochs 1..e and every UE, and its total the ``math.fsum`` of
    its per-UE running sums."""
    n, _, horizon, n_ues = terms.shape
    running = np.empty((n, 3, horizon))
    totals = np.empty((n, 3))
    for lo in range(0, n, 256):  # a few episodes' floats at a time as Python lists
        block = slice(lo, lo + 256)
        running[block] = [
            [[math.fsum(flat[: e * n_ues]) for e in range(1, horizon + 1)] for flat in episode]
            for episode in terms[block].reshape(-1, 3, horizon * n_ues).tolist()
        ]
        totals[block] = [list(map(math.fsum, episode)) for episode in cum[block].tolist()]

    def mean(values: list) -> float:
        return math.fsum(values) / n

    per_epoch = [
        {"epoch": e + 1, "avg_cum_reward": mean(r), "avg_cum_cost": mean(c),
         "avg_cum_ee": mean(ee), "stderr_reward": _stderr(r)}
        for e, (r, c, ee) in enumerate(x.tolist() for x in running.transpose(2, 1, 0))
    ]
    per_ue = [
        {"ue": u, "avg_cum_reward": mean(r), "avg_cum_cost": mean(c),
         "avg_cum_ee": mean(ee), "stderr_cost": _stderr(c)}
        for u, (r, c, ee) in enumerate(x.tolist() for x in cum.transpose(2, 1, 0))
    ]
    rewards, costs, ees = totals.T.tolist()
    return SimulationMetrics(
        runs=n, horizon=horizon, gamma=scenario.gamma,
        avg_cum_reward=mean(rewards), avg_cum_cost=mean(costs), avg_cum_ee=mean(ees),
        stderr_reward=_stderr(rewards), stderr_cost=_stderr(costs),
        per_epoch=per_epoch, per_ue=per_ue,
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
    return _simulate([_cellular_agent(scenario)], _World(scenario, chains, 1), n_runs, seed)


def _cellular_agent(scenario: ScenarioConfig) -> _Agent:
    """The cellular baseline: a one-path oracle tree playing the direct link."""
    tree = None
    for _ in range(scenario.horizon):
        tree = OracleTree(Action((0,)), {} if tree is None else {(None,) * scenario.n_relays: tree})
    return _Agent((0,), None, tree=tree)


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
    is followed from its root only. An epoch outside 1..T raises
    ``ValidationError``.
    """
    chains = chains if chains is not None else chains_for_scenario(scenario)
    horizon = scenario.horizon
    gamma = scenario.gamma
    k = scenario.n_relays
    if scenario.n_regions**k > EXACT_STATE_CAP:
        raise CapExceededError(f"exact policy evaluation needs |S|^K <= {EXACT_STATE_CAP}")
    if not 1 <= epoch <= horizon:
        raise ValidationError(f"epoch {epoch} is outside 1..{horizon}")
    agent = _policy_agent(policy, scenario, None)
    if len(agent.ues) != 1:
        raise ValidationError("exact policy evaluation plays a policy of one UE")
    cursor = agent.tree
    if cursor is not None and (fb is not None or epoch != 1 or action is not None):
        raise ValidationError("a tree policy is evaluated from its root only")
    rewards, costs = option_tables(scenario)

    def recurse(e: int, b: FactoredBelief, cursor, act: Action | None, budget: float):
        if e > horizon:
            return 0.0, 0.0
        ranking = j = None
        if act is None and agent.tree is not None:
            act = EMPTY_ACTION if cursor is None else cursor.action  # no child: the tree idles
        elif act is None:
            ranking, j = _play(agent.epochs[e - 1], b, (budget,), agent.c_th)
            act = EMPTY_ACTION if j is None else ranking.pairs[j].actions[0]
        total_r, total_c = expectation(rewards[0], act, b), expectation(costs, act, b)
        support, sel_axes = Support(b), [i - 1 for i in act.relays]
        # the branches of positive probability; with no selected relays, the single empty one
        branches = itertools.product(*(support.index[ax] for ax in sel_axes))
        for combo, p_z in zip(branches, support.probs(sel_axes).tolist()):
            obs = _branch_obs(act, combo, k)
            child = cursor.children.get(obs) if cursor is not None else None
            left = budget
            if e < horizon and ranking is not None:
                planned, at_branch = ranking.allotment(j, obs)
                # the cost paid, summed from 0 in option order as model.total_cost sums it
                spent = sum(costs[i, obs[i - 1]] if i else costs[0, 0] for i in act)
                (left,) = agent.next_budgets(np.array([budget]), planned, at_branch, spent).tolist()
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
) -> tuple[list[_Agent], _World]:
    """The solved agents and the world of a multi-user run: one agent for
    all UEs (centralized) or one single-user agent per UE (distributed)."""
    if mode == "centralized":
        policy = solve_centralized(scenario, chains, h=h, cap=cap)
        return _play_policy(policy, scenario, chains)
    factors = FactorTable(chains)
    agents = [
        _policy_agent(solve_gcpbvi(with_single_ue(scenario, u), chains, h=h, cap=cap), scenario, factors, u)
        for u in range(scenario.n_ues)
    ]
    return agents, _World(scenario, chains, scenario.n_ues)


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
