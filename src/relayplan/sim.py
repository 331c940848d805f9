"""Policy execution and evaluation.

Episodes draw relay trajectories from the scenario chains, apply the stored
policy through the execution rule (budget-feasible reward argmax over the
epoch's pairs at the current belief), and accumulate discounted reward,
cost, and energy efficiency. Episode randomness derives from a master seed
through spawned child sequences, so runs are reproducible and independent
of execution order; metric reductions use compensated summation.

The multi-user entry point supports a centralized mode (one joint greedy
solve, a relay observed when any UE selects it, budgets per UE) and a
distributed mode (independent single-UE solves and private beliefs in a
shared world).
"""

from __future__ import annotations

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
    joint_belief,
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
    PolicySolution,
    _AnchorScores,
    _branch_obs,
    _budget_tol,
    _Engine,
    _max_ratio_point,
    _merge_branches,
    select_pair,
    solve_gcpbvi,
)


@dataclass
class EpochRecord:
    epoch: int
    action: Action
    state: JointState
    observation: Observation
    reward: float
    cost: float


@dataclass
class EpisodeTrace:
    records: list[EpochRecord]
    cum_reward: float
    cum_cost: float
    cum_ee: float

    def __post_init__(self):
        for t, rec in enumerate(self.records, start=1):
            if rec.epoch != t:
                raise ValidationError("trace epochs must be 1..T in order")


@dataclass
class SimulationMetrics:
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


@dataclass
class StaticPolicy:
    """Plays one fixed action every epoch (the cellular baseline uses {0})."""

    action: Action
    horizon: int
    gamma: float


class _SimContext:
    def __init__(self, scenario: ScenarioConfig, chains: list[MarkovChain], ue: int = 0):
        self.scenario = scenario
        self.chains = chains
        self.ue = ue
        self.r_vecs = {
            i: reward_vector(scenario, i, ue) for i in range(1, scenario.n_relays + 1)
        }
        self.c_vecs = {i: cost_vector(scenario, i) for i in range(1, scenario.n_relays + 1)}
        self.cum_rows = [_sampling_rows(c.matrix) for c in chains]
        self.factors = FactorTable(chains)

    def reward(self, state: JointState, action: Action) -> float:
        total = self.scenario.direct_reward(self.ue) if 0 in action else 0.0
        for i in action.relays:
            total += float(self.r_vecs[i][state[i - 1]])
        return total

    def cost(self, state: JointState, action: Action) -> float:
        total = self.scenario.direct_cost() if 0 in action else 0.0
        for i in action.relays:
            total += float(self.c_vecs[i][state[i - 1]])
        return total

    def step_states(self, state: JointState, rng: np.random.Generator) -> JointState:
        draws = rng.random(len(state))
        return tuple(
            int(np.searchsorted(self.cum_rows[i][s], draws[i], side="right"))
            for i, s in enumerate(state)
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


def _policy_action(policy, epoch: int, cursor, decide) -> tuple[Action, object]:
    """The action of a static, tree or alpha policy; ``decide()`` runs the
    execution rule of an alpha policy."""
    if isinstance(policy, StaticPolicy):
        return policy.action, cursor
    if policy.tree is not None:
        node = cursor
        return (node.action if node is not None else EMPTY_ACTION), node
    return decide(), cursor


def run_episode(
    policy,
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
    seed: int | np.random.SeedSequence = 0,
    context: _SimContext | None = None,
    action_cache: dict | None = None,
) -> EpisodeTrace:
    """One seeded episode; identical seeds produce identical traces.

    The belief is carried as per-relay ids (see ``belief.FactorTable``);
    ``action_cache`` memoises the execution rule per (epoch, ids), safe
    because the selection is a pure function of those two, and a
    ``FactoredBelief`` is built only when the rule runs.
    """
    chains = chains if chains is not None else chains_for_scenario(scenario)
    horizon = getattr(policy, "horizon", scenario.horizon)
    if horizon != scenario.horizon:
        raise ValidationError(
            f"policy horizon {horizon} does not match scenario horizon {scenario.horizon}"
        )
    ctx = context or _SimContext(scenario, chains)
    rng = np.random.default_rng(seed)
    gamma = scenario.gamma
    state = scenario.initial_states
    ids = tuple((s, 0) for s in state)
    cursor = policy.tree if isinstance(policy, PolicySolution) and policy.tree is not None else None
    cache = {} if action_cache is None else action_cache

    def decide():
        key = (epoch, ids)
        if key not in cache:
            cache[key] = select_pair(policy, epoch, ctx.factors.belief(ids))[1]
        return cache[key]

    records = []
    cum_r = cum_c = cum_ee = 0.0
    for epoch in range(1, horizon + 1):
        action, cursor = _policy_action(policy, epoch, cursor, decide)
        reward = ctx.reward(state, action)
        cost = ctx.cost(state, action)
        obs = _branch_obs(action, [state[i - 1] for i in action.relays], scenario.n_relays)
        records.append(EpochRecord(epoch, action, state, obs, reward, cost))
        cum_r += gamma ** (epoch - 1) * reward
        cum_c += gamma ** (epoch - 1) * cost
        cum_ee += gamma ** (horizon - epoch) * (reward / cost if cost > 0 else 0.0)
        if cursor is not None:
            cursor = cursor.children.get(obs)
        ids = advance_ids(ids, obs)
        state = ctx.step_states(state, rng)
    return EpisodeTrace(records=records, cum_reward=cum_r, cum_cost=cum_c, cum_ee=cum_ee)


def monte_carlo(
    policy,
    scenario: ScenarioConfig,
    n_runs: int,
    seed: int = 0,
    chains: list[MarkovChain] | None = None,
) -> SimulationMetrics:
    """Averages over independent seeded episodes."""
    if n_runs < 1:
        raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
    chains = chains if chains is not None else chains_for_scenario(scenario)
    ctx = _SimContext(scenario, chains)
    seeds = np.random.SeedSequence(seed).spawn(n_runs)
    action_cache: dict = {}
    traces = [
        run_episode(policy, scenario, chains, s, context=ctx, action_cache=action_cache)
        for s in seeds
    ]
    return _reduce_traces(traces, scenario.horizon, scenario.gamma)


def _reduce_traces(traces: list[EpisodeTrace], horizon: int, gamma: float) -> SimulationMetrics:
    n = len(traces)
    rewards = [t.cum_reward for t in traces]
    costs = [t.cum_cost for t in traces]
    ees = [t.cum_ee for t in traces]
    per_epoch = []
    for e in range(1, horizon + 1):
        cr = [
            math.fsum(gamma ** (rec.epoch - 1) * rec.reward for rec in t.records[:e])
            for t in traces
        ]
        cc = [
            math.fsum(gamma ** (rec.epoch - 1) * rec.cost for rec in t.records[:e])
            for t in traces
        ]
        cee = [
            math.fsum(
                gamma ** (horizon - rec.epoch) * (rec.reward / rec.cost if rec.cost > 0 else 0.0)
                for rec in t.records[:e]
            )
            for t in traces
        ]
        per_epoch.append(
            {
                "epoch": e,
                "avg_cum_reward": math.fsum(cr) / n,
                "avg_cum_cost": math.fsum(cc) / n,
                "avg_cum_ee": math.fsum(cee) / n,
                "stderr_reward": _stderr(cr),
            }
        )
    return SimulationMetrics(
        runs=n,
        horizon=horizon,
        gamma=gamma,
        avg_cum_reward=math.fsum(rewards) / n,
        avg_cum_cost=math.fsum(costs) / n,
        avg_cum_ee=math.fsum(ees) / n,
        stderr_reward=_stderr(rewards),
        stderr_cost=_stderr(costs),
        per_epoch=per_epoch,
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
    policy = StaticPolicy(action=Action((0,)), horizon=scenario.horizon, gamma=scenario.gamma)
    return monte_carlo(policy, scenario, n_runs, seed, chains)


def exact_policy_value(
    policy,
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
    fb: FactoredBelief | None = None,
    epoch: int = 1,
    action: Action | None = None,
) -> tuple[float, float]:
    """Expected cumulative discounted (reward, cost) of executing a policy
    from ``fb`` at ``epoch`` (by default the initial one-hot at epoch 1), by
    exhaustive enumeration of observation paths (capped instances only).

    With ``action`` given, that action is taken at ``epoch`` and the policy
    followed after it, so the result is the action's Q-value. The belief
    doubles as the true conditional state distribution, so one recursion
    covers both filtering and probability weighting. A tree policy is
    followed from its root only.
    """
    chains = chains if chains is not None else chains_for_scenario(scenario)
    horizon = scenario.horizon
    gamma = scenario.gamma
    k = scenario.n_relays
    if scenario.n_regions**k > 4096:
        raise CapExceededError("exact policy evaluation needs |S|^K <= 4096")
    cursor = policy.tree if isinstance(policy, PolicySolution) and policy.tree is not None else None
    if cursor is not None and (fb is not None or epoch != 1 or action is not None):
        raise ValidationError("a tree policy is evaluated from its root only")
    engine = _Engine(scenario, chains)

    def recurse(e: int, b: FactoredBelief, cursor, act: Action | None) -> tuple[float, float]:
        if e > horizon:
            return 0.0, 0.0
        if act is None:
            act, cursor = _policy_action(policy, e, cursor, lambda: select_pair(policy, e, b)[1])
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
            fr, fc = recurse(e + 1, advance_belief(b, chains, act, obs), child, None)
            total_r += gamma * p_z * fr
            total_c += gamma * p_z * fc
        return total_r, total_c

    if fb is None:
        fb = FactoredBelief.one_hot(scenario.initial_states, scenario.n_regions)
    return recurse(epoch, fb, cursor, action)


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


@dataclass
class _MultiPair:
    alpha_r: np.ndarray
    alpha_cs: np.ndarray  # (N, flat)
    assignment: tuple[tuple[int, ...], ...]  # per-UE selected options


def solve_centralized(
    scenario: ScenarioConfig,
    chains: list[MarkovChain] | None = None,
    h: int | None = None,
    eps: float | None = None,
    cap: int = 64,
) -> tuple[list[list[_MultiPair]], "object"]:
    """Joint greedy solve over (UE, option) elements with per-UE budgets.

    Element candidates are scored like the single-user greedy (branch
    frontier over the element's own observations; the cost side tracks the
    charged UE). Continuation choices for the assembled joint action use the
    per-branch rule with all-UE feasibility; a pair that still breaks some
    UE's budget drops its latest elements until it fits.
    """
    from .solvers import _resolve_belief_set

    chains = chains if chains is not None else chains_for_scenario(scenario)
    belief_set = _resolve_belief_set(scenario, chains, None, eps, h, cap)
    engine = _Engine(scenario, chains)
    n_ues = scenario.n_ues
    k = scenario.n_relays
    flat = engine.flat
    shape = engine.shape
    c_th = scenario.c_th
    tol = _budget_tol(c_th)
    horizon = scenario.horizon

    r_vecs = {
        (u, e): reward_vector(scenario, e, u) for u in range(n_ues) for e in range(1, k + 1)
    }
    c_vecs = {e: cost_vector(scenario, e) for e in range(1, k + 1)}

    def element_merge(rho_r, rho_c, wr, wc):
        """Best ratio point of one element's branch frontier at a belief."""
        if rho_c > c_th + tol:
            return None
        if wr is None:
            return rho_r, rho_c
        merge = _merge_branches(rho_r, rho_c, wr, wc, c_th + tol, 512, lowest=True)
        if merge.r is None:
            return None
        return _max_ratio_point(merge.r, merge.c, c_th)

    def imm_tensors(assignment):
        alpha_r = np.zeros(shape)
        alpha_cs = np.zeros((n_ues, flat))
        for u, options in enumerate(assignment):
            acc = np.zeros(shape)
            for e in options:
                if e == 0:
                    alpha_r += scenario.direct_reward(u)
                    acc += scenario.direct_cost(u)
                else:
                    vec_r = r_vecs[(u, e)].reshape((1,) * (e - 1) + (-1,) + (1,) * (k - e))
                    vec_c = c_vecs[e].reshape((1,) * (e - 1) + (-1,) + (1,) * (k - e))
                    alpha_r += vec_r
                    acc += vec_c
            alpha_cs[u] = acc.reshape(-1)
        return alpha_r.reshape(-1), alpha_cs

    def assemble(fb, b, assignment, gr, gcs):
        """The pair of ``assignment`` at ``fb`` (joint belief ``b``), or None
        when it breaks some UE's budget."""
        observed = sorted({e for options in assignment for e in options if e >= 1})
        sel_axes = tuple(e - 1 for e in observed)
        imm_r, imm_cs = imm_tensors(assignment)
        if gr is None:
            pair = _MultiPair(imm_r, imm_cs, assignment)
        else:
            wr = _AnchorScores(gr, fb).scores(sel_axes)
            wcs = np.stack([_AnchorScores(g, fb).scores(sel_axes) for g in gcs])
            sigma = engine._local_select(wr, wcs, engine.branch_probs(fb, sel_axes))
            at = engine.branch_index(sigma, sel_axes)
            alpha_r = imm_r + gr[at]
            alpha_cs = imm_cs + np.stack([g[at] for g in gcs])
            pair = _MultiPair(alpha_r, alpha_cs, assignment)
        if np.max(pair.alpha_cs @ b) > c_th + tol:
            return None
        return pair

    epochs: list[list[_MultiPair] | None] = [None] * horizon
    v: list[_MultiPair] = []
    for tau in range(1, horizon + 1):
        gr = gcs = gcs_stacked = None
        if v:
            gr = engine.predict(np.array([p.alpha_r for p in v]))
            gcs = [engine.predict(np.array([p.alpha_cs[u] for p in v])) for u in range(n_ues)]
            gcs_stacked = np.concatenate(gcs, axis=0)
        new_v = []
        for fb in belief_set.points:
            sr = sc_all = None
            if gr is not None:
                sr, sc_all = _AnchorScores(gr, fb), _AnchorScores(gcs_stacked, fb)
            scored = []
            for e in range(k + 1):
                sel_axes = () if e == 0 else (e - 1,)
                wr = wc_all = None
                if gr is not None:
                    wr = sr.scores(sel_axes)
                    wc_all = sc_all.scores(sel_axes)
                n_pairs = len(v)
                for u in range(n_ues):
                    if e == 0:
                        rho_r, rho_c = scenario.direct_reward(u), scenario.direct_cost(u)
                    else:
                        rho_r = float(fb.per_relay[e - 1] @ r_vecs[(u, e)])
                        rho_c = float(fb.per_relay[e - 1] @ c_vecs[e])
                    wc = wc_all[u * n_pairs : (u + 1) * n_pairs] if wc_all is not None else None
                    got = element_merge(rho_r, rho_c, wr, wc)
                    if got is None:
                        continue
                    r, c = got
                    zero = 1e-12 * max(1.0, c_th)
                    if c <= zero:
                        if r <= zero:
                            continue
                        scored.append(((0, -r, 0.0, u, e), u, e, c))
                    else:
                        scored.append(((1, -r / c, -r, u, e), u, e, c))
            del sr, sc_all  # pairs are allocated after the element contractions are freed
            scored.sort(key=lambda item: item[0])
            v_sums = [0.0] * n_ues
            admitted: list[tuple[int, int]] = []
            for _, u, e, c in scored:
                if v_sums[u] + c < c_th:
                    admitted.append((u, e))
                    v_sums[u] += c
            b = joint_belief(fb)
            pair = None
            while True:
                assignment = tuple(
                    tuple(sorted(e for uu, e in admitted if uu == u)) for u in range(n_ues)
                )
                pair = assemble(fb, b, assignment, gr, gcs)
                if pair is not None or not admitted:
                    break
                admitted.pop()
            if pair is None:
                pair = _MultiPair(
                    np.zeros(flat), np.zeros((n_ues, flat)),
                    tuple(() for _ in range(n_ues)),
                )
            new_v.append(pair)
        v = new_v
        epochs[horizon - tau] = v
    return epochs, belief_set


def _select_multi(
    epoch_pairs: list[_MultiPair], fb: FactoredBelief, c_th: float
) -> _MultiPair | None:
    """Multi-UE execution rule: the pair feasible for every UE with the best
    total reward at ``fb``; ties break toward lower summed cost, then the
    smallest assignment. The joint belief is built once per call."""
    tol = _budget_tol(c_th)
    b = joint_belief(fb)
    best = None
    best_key = None
    for pair in epoch_pairs:
        costs = pair.alpha_cs @ b
        if np.max(costs) > c_th + tol:
            continue
        r = float(pair.alpha_r @ b)
        key = (-r, float(costs.sum()), pair.assignment)
        if best_key is None or key < best_key:
            best, best_key = pair, key
    return best


def run_multiuser(
    scenario: ScenarioConfig,
    mode: str,
    n_runs: int = 100,
    seed: int = 0,
    chains: list[MarkovChain] | None = None,
    h: int | None = None,
    eps: float | None = None,
    cap: int = 64,
) -> SimulationMetrics:
    """Simulate N UEs sharing one relay pool, centralized or distributed.

    Reward aggregates over UEs; the budget holds per UE. With a single UE
    both modes reduce to the single-user pipeline.
    """
    if mode not in ("centralized", "distributed"):
        raise ValidationError(f"mode must be centralized or distributed, got {mode!r}")
    chains = chains if chains is not None else chains_for_scenario(scenario)
    n_ues = scenario.n_ues
    horizon = scenario.horizon
    gamma = scenario.gamma
    k = scenario.n_relays

    if mode == "centralized":
        epochs, _ = solve_centralized(scenario, chains, h=h, eps=eps, cap=cap)
        policies = None
    else:
        policies = [
            solve_gcpbvi(with_single_ue(scenario, u), chains, h=h, eps=eps, cap=cap)
            for u in range(n_ues)
        ]
        epochs = None

    contexts = [_SimContext(with_single_ue(scenario, u), chains) for u in range(n_ues)]
    seeds = np.random.SeedSequence(seed).spawn(n_runs)
    totals_r, totals_c, totals_ee = [], [], []
    per_ue_r = [[] for _ in range(n_ues)]
    per_ue_c = [[] for _ in range(n_ues)]
    per_ue_ee = [[] for _ in range(n_ues)]
    factors = FactorTable(chains)
    cache: dict = {}

    def centralized_assignment(epoch, ids):
        key = (epoch, ids)
        if key not in cache:
            pair = _select_multi(epochs[epoch - 1], factors.belief(ids), scenario.c_th)
            cache[key] = (
                pair.assignment if pair is not None else tuple(() for _ in range(n_ues))
            )
        return cache[key]

    def distributed_assignment(u, epoch, ids):
        key = (u, epoch, ids)
        if key not in cache:
            cache[key] = select_pair(policies[u], epoch, factors.belief(ids))[1].selected
        return cache[key]

    for child in seeds:
        rng = np.random.default_rng(child)
        state = scenario.initial_states
        shared_ids = tuple((s, 0) for s in state)
        ue_ids = [shared_ids] * n_ues
        run_r = [0.0] * n_ues
        run_c = [0.0] * n_ues
        run_ee = [0.0] * n_ues
        for epoch in range(1, horizon + 1):
            if mode == "centralized":
                assignment = centralized_assignment(epoch, shared_ids)
            else:
                assignment = tuple(
                    distributed_assignment(u, epoch, ue_ids[u]) for u in range(n_ues)
                )
            for u in range(n_ues):
                act = Action(assignment[u])
                r = contexts[u].reward(state, act)
                c = contexts[u].cost(state, act)
                run_r[u] += gamma ** (epoch - 1) * r
                run_c[u] += gamma ** (epoch - 1) * c
                run_ee[u] += gamma ** (horizon - epoch) * (r / c if c > 0 else 0.0)
            if mode == "centralized":
                observed = sorted({e for options in assignment for e in options if e >= 1})
                obs = _branch_obs(Action(tuple(observed)), [state[e - 1] for e in observed], k)
                shared_ids = advance_ids(shared_ids, obs)
            else:
                for u in range(n_ues):
                    act = Action(assignment[u])
                    obs = _branch_obs(act, [state[i - 1] for i in act.relays], k)
                    ue_ids[u] = advance_ids(ue_ids[u], obs)
            state = contexts[0].step_states(state, rng)
        totals_r.append(math.fsum(run_r))
        totals_c.append(math.fsum(run_c))
        totals_ee.append(math.fsum(run_ee))
        for u in range(n_ues):
            per_ue_r[u].append(run_r[u])
            per_ue_c[u].append(run_c[u])
            per_ue_ee[u].append(run_ee[u])

    n = len(seeds)
    per_ue = [
        {
            "ue": u,
            "avg_cum_reward": math.fsum(per_ue_r[u]) / n,
            "avg_cum_cost": math.fsum(per_ue_c[u]) / n,
            "avg_cum_ee": math.fsum(per_ue_ee[u]) / n,
            "stderr_cost": _stderr(per_ue_c[u]),
        }
        for u in range(n_ues)
    ]
    return SimulationMetrics(
        runs=n,
        horizon=horizon,
        gamma=gamma,
        avg_cum_reward=math.fsum(totals_r) / n,
        avg_cum_cost=math.fsum(totals_c) / n,
        avg_cum_ee=math.fsum(totals_ee) / n,
        stderr_reward=_stderr(totals_r),
        stderr_cost=_stderr(totals_c),
        per_ue=per_ue,
    )


# --- complexity model ----------------------------------------------------------


def complexity_log10(method: str, k: int, sizes: dict | None = None) -> float:
    """log10 of the closed-form per-iteration operation-count estimate.

    ``sizes`` may carry ``S`` (regions), ``B`` (belief points), ``Z``
    (observation branches, default ``S**K``), ``V`` (stored pairs, default
    ``B``) and ``N`` (UEs). The enumerated methods are doubly exponential,
    so the estimates are kept in log space; they are order-of-magnitude
    models meant for ratios and trend plots. Measured operation counters
    live in each PolicySolution's stats for empirical cross-checks.
    """
    sizes = dict(sizes or {})
    s = max(1, sizes.get("S", 16))
    b = max(1, sizes.get("B", 32))
    z = max(1, sizes.get("Z", s**k))
    v = max(1, sizes.get("V", b))
    n = max(1, sizes.get("N", 1))
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
    rows = []
    if metrics.per_epoch:
        for entry in metrics.per_epoch:
            rows.append(
                {
                    "scenario_id": scenario_id,
                    "method": method,
                    "epoch": entry["epoch"],
                    "avg_cum_reward": entry["avg_cum_reward"],
                    "avg_cum_cost": entry["avg_cum_cost"],
                    "avg_cum_ee": entry["avg_cum_ee"],
                    "stderr_reward": entry["stderr_reward"],
                    "runs": metrics.runs,
                }
            )
    else:
        rows.append(
            {
                "scenario_id": scenario_id,
                "method": method,
                "epoch": metrics.horizon,
                "avg_cum_reward": metrics.avg_cum_reward,
                "avg_cum_cost": metrics.avg_cum_cost,
                "avg_cum_ee": metrics.avg_cum_ee,
                "stderr_reward": metrics.stderr_reward,
                "runs": metrics.runs,
            }
        )
    return rows


def write_csv(rows: list[dict], columns: list[str], path) -> None:
    """Comma-separated table of ``columns``; floats are written with ``repr``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns) + "\n")
