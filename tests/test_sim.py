import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import advance_ids, line_scenario, random_grid_scenario, random_instance
from relayplan.alpha import AlphaPair
from relayplan import sim
from relayplan.belief import FactoredBelief, FactorTable, Support, joint_belief
from relayplan.errors import ValidationError
from relayplan.mobility import MarkovChain, chains_for_scenario
from relayplan.model import (
    EMPTY_ACTION,
    Action,
    RelaySpec,
    ScenarioConfig,
    UeSpec,
    total_cost,
    total_reward,
    with_single_ue,
)
from relayplan.sim import (
    METRIC_COLUMNS,
    EpisodeTrace,
    EpochRecord,
    baseline_cellular,
    complexity_log10,
    complexity_model,
    complexity_ratio,
    discrete_derivative,
    exact_policy_value,
    metrics_rows,
    monte_carlo,
    _Agent,
    _cellular_agent,
    _multi_user,
    _play_policy,
    _groups,
    _simulate,
    _World,
    _stderr,
    run_episode,
    run_multiuser,
    solve_centralized,
    write_csv,
)
from relayplan.solvers import (
    OracleTree,
    _first_fit,
    _play,
    _Ranking,
    _tree_to_dict,
    brute_force_oracle,
    select_pair,
    solve_cpbvi,
    solve_exact,
    solve_gcpbvi,
)


class TestRunEpisode:
    def test_same_seed_same_trace(self):
        rng = np.random.default_rng(2)
        scenario, chains = random_instance(rng, k=2, n=2, t=2)
        policy = solve_gcpbvi(scenario, chains, h=2)
        a = run_episode(*_play_policy(policy, scenario, chains), seed=99)
        b = run_episode(*_play_policy(policy, scenario, chains), seed=99)
        assert [(r.actions, r.state, r.observations) for r in a.records] == [
            (r.actions, r.state, r.observations) for r in b.records
        ]
        assert a.cum_reward == b.cum_reward

    def test_immobile_relays_constant_reward_stream(self):
        sc = line_scenario(3, [2], horizon=4, eps_fix=1.0, c_th=1e6)
        chains = chains_for_scenario(sc)
        policy = solve_gcpbvi(sc, chains, h=2)
        trace = run_episode(*_play_policy(policy, sc, chains), seed=1)
        rewards = [r.rewards for r in trace.records]
        assert len(set(rewards)) == 1

    def test_horizon_mismatch(self):
        sc = line_scenario(2, [1], horizon=2)
        chains = chains_for_scenario(sc)
        policy = solve_gcpbvi(sc, chains, h=2)
        other = dataclasses.replace(sc, horizon=3)
        with pytest.raises(ValidationError):
            run_episode(*_play_policy(policy, other, chains_for_scenario(other)), seed=0)

    def test_observations_reveal_current_state(self):
        rng = np.random.default_rng(4)
        scenario, chains = random_instance(rng, k=2, n=2, t=3, c_th=1e9)
        policy = solve_gcpbvi(scenario, chains, h=2)
        trace = run_episode(*_play_policy(policy, scenario, chains), seed=5)
        for rec in trace.records:
            (action,), (observation,) = rec.actions, rec.observations
            for i in action.relays:
                assert observation[i - 1] == rec.state[i - 1]
            for i in range(1, scenario.n_relays + 1):
                if i not in action.relays:
                    assert observation[i - 1] is None


class TestStepStates:
    # rows may sum to 1 - 5e-10; the last positive column of row 0 is 1
    CHAIN = MarkovChain(np.array([[0.5, 0.5 - 5e-10, 0.0], [0.2, 0.3, 0.5], [0.0, 0.5, 0.5]]))

    def test_draw_past_row_sum_stays_on_grid(self):
        world = _World(line_scenario(3, [1, 2]), [self.CHAIN, self.CHAIN], 1)
        largest = np.full((1, 2), 1.0 - 2.0**-53)  # the largest double below 1
        assert world.step_states(np.array([[0, 1]]), largest).tolist() == [[1, 2]]

    def test_draws_in_range_unchanged(self):
        world = _World(line_scenario(3, [1, 2]), [self.CHAIN, self.CHAIN], 1)
        rng = np.random.default_rng(8)
        cum = np.cumsum(self.CHAIN.matrix, axis=1)
        state = (0, 2)
        for _ in range(200):
            seed = int(rng.integers(2**32))
            draws = np.random.default_rng(seed).random(2)
            expected = tuple(
                int(np.searchsorted(cum[s], d, side="right")) for s, d in zip(state, draws)
            )
            state = tuple(world.step_states(np.array([state]), draws[None])[0].tolist())
            assert state == expected


class TestWorld:
    @pytest.mark.parametrize("direct", [True, False])
    @pytest.mark.parametrize("n_ues", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_outcomes_are_the_scalar_totals(self, seed, n_ues, direct):
        """Every UE's reward and cost in random states under random per-UE
        actions equal ``total_reward`` and ``total_cost`` to the bit; the
        world plays the first ``n_ues`` of a scenario of three UEs."""
        rng = np.random.default_rng(seed)
        sc = random_grid_scenario(rng, 3, direct)
        world = _World(sc, chains_for_scenario(sc), n_ues)
        runs, k = 40, sc.n_relays
        states = rng.integers(0, sc.n_regions, size=(runs, k))
        sel = rng.random((n_ues, runs, k + 1)) < 0.5
        rewards, costs = world.outcomes(states, sel)
        assert rewards.shape == costs.shape == (runs, n_ues)
        for r, state in enumerate(states.tolist()):
            for u in range(n_ues):
                action = Action(tuple(np.flatnonzero(sel[u, r]).tolist()))
                assert rewards[r, u] == total_reward(tuple(state), action, sc, u)
                assert costs[r, u] == total_cost(tuple(state), action, sc)


class TestBatch:
    """``_simulate`` plays all of its episodes together; each episode is
    what ``run_episode`` plays alone on its seed."""

    @pytest.mark.parametrize("t, k", [(1, 1), (3, 2), (5, 3), (4, 7)])
    def test_draws_up_front_are_the_draws_per_epoch(self, t, k):
        seed = np.random.SeedSequence(t * 10 + k)
        at_once = np.random.default_rng(seed).random((t, k))
        rng = np.random.default_rng(seed)
        per_epoch = np.stack([rng.random(k) for _ in range(t)])
        assert at_once.tobytes() == per_epoch.tobytes()
        into = np.empty((2, t, k))
        np.random.default_rng(seed).random(out=into[1])
        assert into[1].tobytes() == per_epoch.tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_batch_equals_episodes_one_by_one(self, seed):
        rng = np.random.default_rng(seed)
        gamma = (0.0, 0.9, 1.0)[seed % 3]  # 0: every later budget is infinite
        k, n, t = ((1, 3, 3), (2, 2, 2), (1, 2, 3), (2, 2, 3))[seed % 4]
        c_th = float(rng.uniform(5.0, 150.0))  # low enough that the rule idles on some seeds
        scenario, chains = random_instance(rng, k=k, n=n, t=t, gamma=gamma, c_th=c_th)
        ues = tuple(UeSpec((int(rng.integers(1, n + 1)), 1)) for _ in range(3))
        multi = dataclasses.replace(scenario, ues=ues)
        cellular = _cellular_agent(scenario)
        kinds = {
            "alpha": _play_policy(solve_gcpbvi(scenario, chains, h=2, cap=8), scenario, chains),
            "oracle": _play_policy(brute_force_oracle(scenario, chains), scenario, chains),
            "cellular": ([cellular], _World(scenario, chains, 1)),
            "centralized": _multi_user(multi, "centralized", chains, 2, 6),
            "distributed": _multi_user(multi, "distributed", chains, 2, 6),
        }
        runs, master = 40, seed + 100
        for kind, (agents, world) in kinds.items():
            seeds = np.random.SeedSequence(master).spawn(runs)
            traces = [run_episode(agents, world, s) for s in seeds]
            for s, trace in zip(seeds, traces):
                assert repr(trace) == repr(_reference_episode(agents, world, s)), kind
            want = _reduce_traces(traces, world.scenario)
            for key, value in dataclasses.asdict(_simulate(agents, world, runs, master)).items():
                assert repr(value) == repr(want[key]), (kind, key)

    @pytest.mark.parametrize("seed", [303, 7])
    def test_table1_batch_equals_reference_loop(self, table1_scenario, seed):
        chains = chains_for_scenario(table1_scenario)
        policy = solve_gcpbvi(table1_scenario, chains, h=2, cap=24)
        agents, world = _play_policy(policy, table1_scenario, chains)
        runs = 300
        traces = [
            _reference_episode(agents, world, s)
            for s in np.random.SeedSequence(seed).spawn(runs)
        ]
        want = _reduce_traces(traces, table1_scenario)
        got = dataclasses.asdict(_simulate(agents, world, runs, seed))
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("seed", range(8))
    def test_many_pairs_batch_equals_reference_loop(self, seed):
        """Random stored pairs, up to a dozen an epoch with random actions, so
        that every epoch's decisions turn on the belief ids and the budgets."""
        rng = np.random.default_rng(seed)
        k, n = ((2, 3), (3, 2))[seed % 2]
        scenario, chains = random_instance(rng, k=k, n=n, t=4, gamma=(0.9, 1.0)[seed // 2 % 2])
        n_ues = 1 + seed % 3
        ues = tuple(UeSpec((int(rng.integers(1, n + 1)), 1)) for _ in range(n_ues))
        multi = dataclasses.replace(scenario, ues=ues)
        epochs = [
            [
                AlphaPair(
                    rng.uniform(0.0, 100.0, n**k),
                    rng.uniform(0.0, 2.0 * multi.c_th, (n_ues, n**k)),
                    tuple(
                        Action(tuple(o for o in range(k + 1) if rng.random() < 0.5))
                        for _ in range(n_ues)
                    ),
                )
                for _ in range(int(rng.integers(1, 13)))
            ]
            for _ in range(multi.horizon)
        ]
        agents = [
            _Agent(tuple(range(n_ues)), FactorTable(chains), epochs, multi.c_th, multi.gamma)
        ]
        world = _World(multi, chains, n_ues)
        runs, master = 120, seed + 200
        traces = [
            _reference_episode(agents, world, s)
            for s in np.random.SeedSequence(master).spawn(runs)
        ]
        want = _reduce_traces(traces, multi)
        assert repr(dataclasses.asdict(_simulate(agents, world, runs, master))) == repr(want)

    @pytest.mark.parametrize("seed", range(6))
    def test_groups_are_the_distinct_rows(self, seed):
        rng = np.random.default_rng(seed)
        runs = int(rng.integers(1, 200))
        bounds = [int(b) for b in rng.choice([1, 2, 3, 16, 2**20, 2**40], size=int(rng.integers(1, 7)))]
        columns = [rng.integers(0, min(b, 4), size=runs) * (b // min(b, 4)) for b in bounds]
        first, inverse = _groups(*zip(columns, bounds))
        rows = np.stack(columns, axis=1)
        _, want_first, want_inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        assert sorted(first.tolist()) == sorted(want_first.tolist())
        # the same partition, each group named by its first row
        assert (first[inverse] == want_first[want_inverse.ravel()]).all()


def _reference_episode(agents, world, seed) -> EpisodeTrace:
    """The scalar episode loop that the batch replaces, as a reference: one
    epoch at a time, each agent's rule applied by ``solvers._play`` at its
    belief or its tree node played, each UE's reward and cost by ``total_reward`` and ``total_cost``,
    and the states sampled by ``searchsorted`` on one ``rng.random(K)`` per
    epoch."""
    scenario, n_ues = world.scenario, len(world.rewards)
    horizon, gamma = scenario.horizon, scenario.gamma
    rng = np.random.default_rng(seed)
    state = scenario.initial_states
    ids = [tuple((s, 0) for s in state)] * len(agents)
    nodes = [agent.tree for agent in agents]
    budgets = [np.full(len(agent.ues), scenario.c_th) for agent in agents]
    cum_r, cum_c, cum_ee = ([0.0] * n_ues for _ in range(3))
    records = []
    for epoch in range(1, horizon + 1):
        actions = [EMPTY_ACTION] * n_ues
        choices = []
        for a, agent in enumerate(agents):
            if agent.tree is not None:  # a tree idles where it has no child
                acts, choice = (EMPTY_ACTION if nodes[a] is None else nodes[a].action,), None
            else:
                fb = agent.factors.belief(ids[a])
                choice = ranking, j = _play(agent.epochs[epoch - 1], fb, tuple(budgets[a].tolist()), agent.c_th)
                acts = (EMPTY_ACTION,) * len(agent.ues) if j is None else ranking.pairs[j].actions
            choices.append(choice)
            for u, action in zip(agent.ues, acts):
                actions[u] = action
        rewards = tuple(total_reward(state, a, scenario, u) for u, a in enumerate(actions))
        costs = tuple(total_cost(state, a, scenario) for a in actions)
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
            if epoch < horizon and choices[a] is not None:
                ranking, j = choices[a]
                planned, at_branch = ranking.allotment(j, obs)
                spent = np.array([costs[u] for u in agent.ues])
                budgets[a] = agent.next_budgets(budgets[a], planned, at_branch, spent)
            ids[a] = advance_ids(ids[a], obs)
            if nodes[a] is not None:
                nodes[a] = nodes[a].children.get(obs)
        records.append(
            EpochRecord(epoch, state, tuple(actions), tuple(observations), rewards, costs)
        )
        draws = rng.random(len(state))
        state = tuple(
            int(np.searchsorted(rows[s], d, side="right"))
            for rows, s, d in zip(world.cum_rows, state, draws)
        )
    return EpisodeTrace(records, tuple(cum_r), tuple(cum_c), tuple(cum_ee))


def _reduce_traces(traces, scenario) -> dict:
    """The metrics of one-episode traces, reduced one episode at a time:
    the reference for ``_simulate``'s reduction from arrays."""
    n, horizon, gamma = len(traces), scenario.horizon, scenario.gamma
    running = []
    for trace in traces:
        terms_r, terms_c, terms_ee, sums = [], [], [], []
        for rec in trace.records:
            w, w_ee = gamma ** (rec.epoch - 1), gamma ** (horizon - rec.epoch)
            terms_r.extend(w * r for r in rec.rewards)
            terms_c.extend(w * c for c in rec.costs)
            terms_ee.extend(
                w_ee * (r / c if c > 0 else 0.0) for r, c in zip(rec.rewards, rec.costs)
            )
            sums.append((math.fsum(terms_r), math.fsum(terms_c), math.fsum(terms_ee)))
        running.append(sums)
    rewards = [math.fsum(t.cum_reward) for t in traces]
    costs = [math.fsum(t.cum_cost) for t in traces]
    ees = [math.fsum(t.cum_ee) for t in traces]
    per_epoch = []
    for e in range(horizon):
        cr, cc, cee = zip(*(sums[e] for sums in running))
        per_epoch.append({
            "epoch": e + 1,
            "avg_cum_reward": math.fsum(cr) / n,
            "avg_cum_cost": math.fsum(cc) / n,
            "avg_cum_ee": math.fsum(cee) / n,
            "stderr_reward": _stderr(cr),
        })
    per_ue = [
        {
            "ue": u,
            "avg_cum_reward": math.fsum(t.cum_reward[u] for t in traces) / n,
            "avg_cum_cost": math.fsum(t.cum_cost[u] for t in traces) / n,
            "avg_cum_ee": math.fsum(t.cum_ee[u] for t in traces) / n,
            "stderr_cost": _stderr([t.cum_cost[u] for t in traces]),
        }
        for u in range(len(traces[0].cum_reward))
    ]
    return {
        "runs": n, "horizon": horizon, "gamma": gamma,
        "avg_cum_reward": math.fsum(rewards) / n,
        "avg_cum_cost": math.fsum(costs) / n,
        "avg_cum_ee": math.fsum(ees) / n,
        "stderr_reward": _stderr(rewards),
        "stderr_cost": _stderr(costs),
        "per_epoch": per_epoch,
        "per_ue": per_ue,
    }


class TestMonteCarlo:
    def test_single_run_equals_episode(self):
        rng = np.random.default_rng(6)
        scenario, chains = random_instance(rng, k=1, n=2, t=2)
        policy = solve_gcpbvi(scenario, chains, h=2)
        metrics = monte_carlo(policy, scenario, 1, seed=3, chains=chains)
        seed = np.random.SeedSequence(3).spawn(1)[0]
        trace = run_episode(*_play_policy(policy, scenario, chains), seed)
        assert (metrics.avg_cum_reward,) == trace.cum_reward
        assert (metrics.avg_cum_cost,) == trace.cum_cost
        assert metrics.stderr_reward == 0.0

    def test_ee_single_term(self):
        sc = line_scenario(2, [1], horizon=1, direct=(10.0, 5.0), c_th=1e6)
        metrics = baseline_cellular(sc, 4, seed=0, chains=chains_for_scenario(sc))
        assert metrics.avg_cum_ee == pytest.approx(2.0)

    def test_zero_cost_epochs_contribute_zero_ee(self):
        sc = line_scenario(2, [1], horizon=3, direct=(10.0, 0.0))
        metrics = baseline_cellular(sc, 2, seed=0, chains=chains_for_scenario(sc))
        assert metrics.avg_cum_ee == 0.0
        assert metrics.avg_cum_cost == 0.0

    def test_same_seed_same_metrics(self):
        rng = np.random.default_rng(8)
        scenario, chains = random_instance(rng, k=1, n=3, t=2)
        policy = solve_gcpbvi(scenario, chains, h=2)
        first = monte_carlo(policy, scenario, 40, seed=11, chains=chains)
        again = monte_carlo(policy, scenario, 40, seed=11, chains=chains)
        assert dataclasses.asdict(again) == dataclasses.asdict(first)

    def test_mean_matches_exact_policy_value(self):
        rng = np.random.default_rng(10)
        scenario, chains = random_instance(rng, k=1, n=3, t=3, gamma=1.0)
        policy = solve_gcpbvi(scenario, chains, h=3)
        exact_r, exact_c = exact_policy_value(policy, scenario, chains)
        metrics = monte_carlo(policy, scenario, 4000, seed=13, chains=chains)
        assert abs(metrics.avg_cum_reward - exact_r) <= 3 * metrics.stderr_reward + 1e-9
        assert abs(metrics.avg_cum_cost - exact_c) <= 3 * metrics.stderr_cost + 1e-9


def _metrics_digest(metrics) -> str:
    return hashlib.sha256(repr(dataclasses.asdict(metrics)).encode()).hexdigest()


class TestTable1Regression:
    """Seeded table1 metrics, pinned by the SHA-256 of their ``repr``: every
    field, every bit."""

    def test_gcpbvi_monte_carlo(self, table1_scenario):
        chains = chains_for_scenario(table1_scenario)
        policy = solve_gcpbvi(table1_scenario, chains, h=2, cap=24)
        metrics = monte_carlo(policy, table1_scenario, 1500, seed=303, chains=chains)
        assert metrics.avg_cum_reward == 629.6805555555555
        assert _metrics_digest(metrics) == (
            "e57dd82268a11af86d2ca6ce86ce693b5006dedd49229f61e451aa00a59b10ac"
        )

    def test_baseline_cellular(self, table1_scenario):
        metrics = baseline_cellular(table1_scenario, 200, seed=303)
        assert _metrics_digest(metrics) == (
            "c1dc11793adeddfbcb0d0a0a8d27941071ff5f21c8ad21fa18d68647e7e65b00"
        )


class TestBaseline:
    def test_constant_direct_stream(self):
        sc = ScenarioConfig(
            grid_x=4, grid_y=4,
            relays=(RelaySpec(0.7, 1, (2, 2)),),
            ues=(UeSpec((1, 1)),),
            bs_position=(4, 4),
            r_max=500.0, c_max=250.0, c_th=1000.0, horizon=5, gamma=1.0,
        )
        metrics = baseline_cellular(sc, 3, seed=0)
        assert metrics.avg_cum_reward == pytest.approx(156.25)
        assert metrics.avg_cum_cost == 0.0

    def test_policy_dominates_baseline(self, table1_scenario):
        chains = chains_for_scenario(table1_scenario)
        policy = solve_gcpbvi(table1_scenario, chains, h=2, cap=64)
        d2d = monte_carlo(policy, table1_scenario, 40, seed=2, chains=chains)
        cell = baseline_cellular(table1_scenario, 40, seed=2, chains=chains)
        assert d2d.avg_cum_reward >= cell.avg_cum_reward


class TestOraclePolicyExecution:
    def test_oracle_tree_runs_and_matches_enumeration(self):
        rng = np.random.default_rng(12)
        scenario, chains = random_instance(rng, k=1, n=2, t=2, gamma=1.0)
        oracle = brute_force_oracle(scenario, chains)
        exact_r, exact_c = exact_policy_value(oracle, scenario, chains)
        assert exact_r == pytest.approx(oracle.stats["oracle_value_r"], abs=1e-9)
        metrics = monte_carlo(oracle, scenario, 3000, seed=7, chains=chains)
        assert abs(metrics.avg_cum_reward - exact_r) <= 3.5 * metrics.stderr_reward + 1e-9

    def test_tree_evaluated_from_its_root_only(self):
        rng = np.random.default_rng(12)
        scenario, chains = random_instance(rng, k=1, n=2, t=2, gamma=1.0)
        oracle = brute_force_oracle(scenario, chains)
        with pytest.raises(ValidationError, match="root"):
            exact_policy_value(oracle, scenario, chains, action=Action((1,)))
        with pytest.raises(ValidationError, match="root"):
            exact_policy_value(oracle, scenario, chains, epoch=2)


class TestEpochRange:
    """An epoch outside 1..T is refused, not read from the wrong end of the
    policy or past it."""

    @pytest.mark.parametrize("epoch", [0, -1, 4])
    def test_outside_the_horizon(self, epoch):
        rng = np.random.default_rng(10)
        scenario, chains = random_instance(rng, k=1, n=3, t=3, gamma=1.0)
        policy = solve_gcpbvi(scenario, chains, h=2, cap=4)
        fb = FactoredBelief.one_hot(scenario.initial_states, scenario.n_regions)
        with pytest.raises(ValidationError, match=f"epoch {epoch} is outside 1..3"):
            select_pair(policy, epoch, fb)
        with pytest.raises(ValidationError, match=f"epoch {epoch} is outside 1..3"):
            exact_policy_value(policy, scenario, chains, fb, epoch)
        with pytest.raises(ValidationError, match=f"epoch {epoch} is outside 1..3"):
            discrete_derivative(scenario, chains, policy, fb, epoch, 1, Action((0,)))
        for inside in (1, 3):
            select_pair(policy, inside, fb)
            exact_policy_value(policy, scenario, chains, fb, inside)

    @pytest.mark.parametrize("horizon", [2, 5])
    def test_scenario_of_another_horizon(self, horizon):
        """The exact evaluation refuses a scenario whose horizon is not the
        policy's, as the simulator does, instead of reading past the
        policy's last epoch or stopping short of it."""
        rng = np.random.default_rng(10)
        scenario, chains = random_instance(rng, k=1, n=3, t=3, gamma=1.0)
        policy = solve_gcpbvi(scenario, chains, h=2, cap=4)
        other = dataclasses.replace(scenario, horizon=horizon)
        with pytest.raises(ValidationError, match=f"policy horizon 3 does not match scenario horizon {horizon}"):
            exact_policy_value(policy, other, chains)


class TestEvaluatorInputs:
    """A belief the rule cannot read, or an option above K, is refused with
    ``ValidationError`` instead of failing inside numpy."""

    @staticmethod
    def _solved():
        rng = np.random.default_rng(11)
        scenario, chains = random_instance(rng, k=2, n=2, t=2, gamma=1.0)
        return scenario, chains, solve_gcpbvi(scenario, chains, h=2, cap=4)

    @pytest.mark.parametrize("factors", [
        (np.ones(2) / 2,),
        (np.ones(2) / 2,) * 3,
        (np.ones(4) / 4, np.ones(2) / 2),
    ], ids=["too-few", "too-many", "wrong-length"])
    def test_belief_of_another_shape(self, factors):
        scenario, chains, policy = self._solved()
        fb = FactoredBelief(factors)
        with pytest.raises(ValidationError, match="expected K=2, n=2"):
            select_pair(policy, 1, fb)
        with pytest.raises(ValidationError, match="expected K=2, n=2"):
            exact_policy_value(policy, scenario, chains, fb)

    def test_option_above_k(self):
        scenario, chains, policy = self._solved()
        fb = FactoredBelief.one_hot(scenario.initial_states, scenario.n_regions)
        with pytest.raises(ValidationError, match="references option > K=2"):
            exact_policy_value(policy, scenario, chains, fb, action=Action((7,)))
        with pytest.raises(ValidationError, match="references option > K=2"):
            discrete_derivative(scenario, chains, policy, fb, 1, 5, EMPTY_ACTION)
        exact_policy_value(policy, scenario, chains, fb, action=Action((0, 2)))


class TestMultiUser:
    def _two_ue_scenario(self, c_th=1000.0):
        return ScenarioConfig(
            grid_x=3, grid_y=1,
            relays=(RelaySpec(0.6, 1, (2, 1)),),
            ues=(UeSpec((1, 1)), UeSpec((3, 1))),
            bs_position=(3, 1),
            r_max=400.0, c_max=200.0, c_th=c_th, horizon=3, gamma=1.0,
        )

    def test_single_ue_modes_agree(self):
        sc = line_scenario(3, [2], horizon=3, c_th=1e9, eps_fix=0.5)
        cent = run_multiuser(sc, "centralized", n_runs=30, seed=4, h=2)
        dist = run_multiuser(sc, "distributed", n_runs=30, seed=4, h=2)
        assert dataclasses.asdict(cent) == dataclasses.asdict(dist)

    def test_single_ue_distributed_equals_single_user_pipeline(self):
        sc = line_scenario(3, [2], horizon=3, c_th=1e9, eps_fix=0.5)
        chains = chains_for_scenario(sc)
        dist = run_multiuser(sc, "distributed", n_runs=30, seed=4, h=2)
        policy = solve_gcpbvi(sc, chains, h=2)
        single = monte_carlo(policy, sc, 30, seed=4, chains=chains)
        assert dataclasses.asdict(dist) == dataclasses.asdict(single)

    def test_no_shared_benefit_when_relays_useless_to_one_ue(self):
        # UE 2 sits on top of the BS: its direct link beats any relay, so no
        # observation sharing can change anything and the modes coincide
        sc = self._two_ue_scenario()
        cent = run_multiuser(sc, "centralized", n_runs=25, seed=6, h=2)
        dist = run_multiuser(sc, "distributed", n_runs=25, seed=6, h=2)
        assert cent.avg_cum_reward == pytest.approx(dist.avg_cum_reward, rel=1e-9)

    def test_per_ue_budgets_respected(self):
        sc = self._two_ue_scenario(c_th=300.0)
        for mode in ("centralized", "distributed"):
            metrics = run_multiuser(sc, mode, n_runs=40, seed=8, h=2)
            for entry in metrics.per_ue:
                assert entry["avg_cum_cost"] <= sc.c_th + 3 * entry["stderr_cost"] + 1e-9

    @pytest.mark.parametrize("mode", ["centralized", "distributed"])
    def test_totals_agree_with_per_epoch_and_per_ue(self, mode):
        metrics = run_multiuser(self._two_ue_scenario(c_th=300.0), mode, n_runs=20, seed=5, h=2)
        last = metrics.per_epoch[-1]
        assert len(metrics.per_epoch) == metrics.horizon
        for key in ("avg_cum_reward", "avg_cum_cost", "avg_cum_ee", "stderr_reward"):
            assert last[key] == pytest.approx(getattr(metrics, key), rel=1e-12)
        for key in ("avg_cum_reward", "avg_cum_cost", "avg_cum_ee"):
            total = sum(entry[key] for entry in metrics.per_ue)
            assert total == pytest.approx(getattr(metrics, key), rel=1e-12)

    def test_centralized_agent_observes_every_selected_relay(self):
        # at this budget the UEs select different relays in some epochs
        sc = ScenarioConfig(
            grid_x=3, grid_y=2,
            relays=(RelaySpec(0.6, 1, (1, 1)), RelaySpec(0.6, 1, (3, 2))),
            ues=(UeSpec((1, 1)), UeSpec((3, 2))),
            bs_position=(3, 1),
            r_max=400.0, c_max=200.0, c_th=100.0, horizon=3, gamma=1.0,
        )
        agents, world = _multi_user(sc, "centralized", chains_for_scenario(sc), 2, 64)
        assert len(agents) == 1
        differ = 0
        for seed in range(10):
            for rec in run_episode(agents, world, seed).records:
                selected = {i for action in rec.actions for i in action.relays}
                differ += len({action.relays for action in rec.actions}) > 1
                assert rec.observations == (tuple(
                    s if i + 1 in selected else None for i, s in enumerate(rec.state)
                ),)
        assert differ > 0

    def test_invalid_mode(self):
        sc = self._two_ue_scenario()
        with pytest.raises(ValidationError):
            run_multiuser(sc, "federated")


def _scalar_first_fit(costs, budgets, c_th) -> list[int]:
    """Per row, the first pair whose every UE's cost fits its budget plus
    the tolerance, or the pair count: the reference for ``_first_fit``."""
    tol = 1e-9 * max(1.0, abs(c_th))
    return [
        next((j for j, cs in enumerate(row) if all(c <= b + tol for c, b in zip(cs, budget))), len(row))
        for row, budget in zip(costs.tolist(), budgets.tolist())
    ]


class TestOneRule:
    """One ranking and one first fit serve ``select_pair``,
    ``exact_policy_value`` and the batch."""

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)),
        c_th=st.sampled_from([0.0, 1.0, 300.0, 1e6]),
        data=st.data(),
    )
    def test_first_fit_is_the_scalar_loop(self, shape, c_th, data):
        rows, pairs, ues = shape
        tol = 1e-9 * max(1.0, abs(c_th))
        levels = [0.0, 1.0, c_th, 0.5 * c_th, math.inf]
        budgets = np.array(data.draw(st.lists(
            st.lists(st.sampled_from(levels), min_size=ues, max_size=ues),
            min_size=rows, max_size=rows,
        )))
        # each cost sits exactly on a budget plus the tolerance, one ulp past
        # it, below every budget, or above every one (an all-idle row)
        edges = [b + tol for b in levels if b < math.inf]
        pool = [0.0, 2e6, *edges, *(float(np.nextafter(e, math.inf)) for e in edges)]
        costs = np.array(data.draw(st.lists(
            st.lists(st.lists(st.sampled_from(pool), min_size=ues, max_size=ues),
                     min_size=pairs, max_size=pairs),
            min_size=rows, max_size=rows,
        )))
        want = _scalar_first_fit(costs, budgets, c_th)
        assert _first_fit(costs, budgets, c_th).tolist() == want
        # a row that fits nothing idles; a row of infinite budgets fits pair 0
        assert _first_fit(np.full((1, pairs, ues), 2e6), np.zeros((1, ues)), c_th).tolist() == [pairs]
        assert _first_fit(costs[:1], np.full((1, ues), math.inf), c_th).tolist() == [0]

    @pytest.mark.parametrize("n_ues", [1, 3])
    def test_a_run_ranks_each_epoch_and_belief_once(self, monkeypatch, n_ues):
        """Rankings are not memoised, so a batch must build at most one per
        epoch's pairs and belief: the key is the pair list and the ids of the
        belief's ``FactorTable`` factors, which the table keeps alive."""
        rng = np.random.default_rng(40 + n_ues)
        scenario, chains = random_instance(rng, k=2, n=3, t=4, gamma=0.9)
        ues = tuple(UeSpec((int(rng.integers(1, 4)), 1)) for _ in range(n_ues))
        multi = dataclasses.replace(scenario, ues=ues)
        policy = solve_centralized(multi, chains, h=2, cap=8)
        built = []
        of = _Ranking.of.__func__

        def counted(cls, pairs, fb, support=None):
            built.append((id(pairs), tuple(id(f) for f in fb.per_relay)))
            return of(cls, pairs, fb, support)

        monkeypatch.setattr(_Ranking, "of", classmethod(counted))
        monte_carlo(policy, multi, 300, seed=3, chains=chains)
        assert built and len(set(built)) == len(built)

    def test_cellular_plays_the_direct_link_every_epoch(self):
        """A direct link of cost 5 against a budget of 0: a tree knows no
        budget, so it plays option 0 at every epoch regardless."""
        sc = line_scenario(3, [2], horizon=4, c_th=0.0, gamma=0.9, direct=(30.0, 5.0))
        chains = chains_for_scenario(sc)
        trace = run_episode([_cellular_agent(sc)], _World(sc, chains, 1), seed=4)
        assert [rec.actions for rec in trace.records] == [(Action((0,)),)] * 4
        assert [rec.observations for rec in trace.records] == [((None,),)] * 4
        weights = [0.9**t for t in range(4)]
        assert trace.cum_reward == (sum(w * 30.0 for w in weights),)
        assert trace.cum_cost == (sum(w * 5.0 for w in weights),)
        metrics = baseline_cellular(sc, 25, seed=8, chains=chains)
        assert metrics.avg_cum_reward == pytest.approx(30.0 * sum(weights), rel=1e-12)
        assert metrics.avg_cum_cost == pytest.approx(5.0 * sum(weights), rel=1e-12)
        assert metrics.stderr_cost == 0.0


class TestSharedSupports:
    """The agents of a distributed batch share one ``FactorTable``, so they
    share each epoch's belief supports; an agent alone shares none."""

    @pytest.mark.parametrize("seed", range(4))
    def test_one_support_per_epoch_and_belief_across_agents(self, seed, monkeypatch):
        """One ``Support`` is built per distinct (epoch, belief ids) that any
        agent ranks at, each ranking is handed its support, and the metrics
        are those of agents that each build their own."""
        rng = np.random.default_rng(seed)
        scenario, chains = random_instance(rng, k=2, n=3, t=4, gamma=0.9)
        multi = dataclasses.replace(scenario, ues=tuple(UeSpec((int(rng.integers(1, 4)), 1)) for _ in range(3)))
        agents, world = _multi_user(multi, "distributed", chains, 2, 8)
        now, passed, built, ranked = [0], [], [], []
        choose, of = sim._Walk.choose, _Ranking.of.__func__

        def spied(walk, epoch, supports):
            now[0] = epoch
            passed.append(supports is not None)
            return choose(walk, epoch, supports)

        class Counted(Support):
            def __init__(self, fb):
                built.append((now[0], tuple(map(id, fb.per_relay))))
                super().__init__(fb)

        def counted(cls, pairs, fb, support=None):
            assert support is not None
            ranked.append((now[0], tuple(map(id, fb.per_relay))))
            return of(cls, pairs, fb, support)

        monkeypatch.setattr(sim._Walk, "choose", spied)
        monkeypatch.setattr(sim, "Support", Counted)
        monkeypatch.setattr(_Ranking, "of", classmethod(counted))
        got = _simulate(agents, world, 60, seed)
        assert passed and all(passed)
        assert len(set(built)) == len(built) < len(ranked)
        assert set(built) == set(ranked)

        monkeypatch.undo()
        monkeypatch.setattr(sim._Walk, "choose", lambda walk, epoch, supports: choose(walk, epoch, None))
        assert dataclasses.asdict(_simulate(agents, world, 60, seed)) == dataclasses.asdict(got)

    def test_a_single_agent_shares_nothing(self, monkeypatch):
        rng = np.random.default_rng(5)
        scenario, chains = random_instance(rng, k=2, n=3, t=3, gamma=0.9)
        multi = dataclasses.replace(scenario, ues=tuple(UeSpec((int(rng.integers(1, 4)), 1)) for _ in range(2)))
        passed = []
        choose = sim._Walk.choose

        def spied(walk, epoch, supports):
            passed.append(supports)
            return choose(walk, epoch, supports)

        monkeypatch.setattr(sim._Walk, "choose", spied)
        monte_carlo(solve_gcpbvi(scenario, chains, h=2, cap=8), scenario, 20, seed=1, chains=chains)
        run_multiuser(multi, "centralized", 20, seed=1, chains=chains, h=2, cap=8)
        assert passed and passed == [None] * len(passed)


class TestSelectMulti:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_reference_loop_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 3))
        n = int(rng.integers(2, 4))
        n_ues = int(rng.integers(1, 4))
        count = int(rng.integers(1, 9))
        rewards = rng.uniform(0.0, 10.0, size=(count, n**k))
        costs = rng.uniform(0.0, 10.0, size=(count, n_ues, n**k))
        assignments = [
            tuple(tuple(e for e in range(k + 1) if rng.random() < 0.5) for _ in range(n_ues))
            for _ in range(count)
        ]
        for j in range(1, count):
            src = int(rng.integers(j))
            tie = rng.random()
            if tie < 0.3:
                rewards[j] = rewards[src]  # equal reward, the summed cost decides
            elif tie < 0.6:
                rewards[j], costs[j] = rewards[src], costs[src]  # the assignment decides
        pairs = [
            AlphaPair(r, cs, tuple(map(Action, a))) for r, cs, a in zip(rewards, costs, assignments)
        ]
        fb = FactoredBelief(tuple(
            np.eye(n)[int(rng.integers(n))] if rng.random() < 0.3 else rng.dirichlet(np.ones(n))
            for _ in range(k)
        ))
        b = joint_belief(fb)
        worst = [float(np.max(pair.alpha_cs @ b)) for pair in pairs]
        c_th = float(rng.choice(worst)) if rng.random() < 0.8 else -1.0

        tol = 1e-9 * max(1.0, abs(c_th))
        scored = [
            ((-float(pair.alpha_r @ b), float(c.sum()), pair.actions), pair)
            for pair in pairs
            for c in [pair.alpha_cs @ b]
            if all(float(x) <= c_th + tol for x in c)
        ]
        expected = min(scored, key=lambda item: item[0])[1] if scored else None

        ranking, j = _play(pairs, fb, (c_th,) * n_ues, c_th)
        assert (None if j is None else ranking.pairs[j]) is expected


def _scenario_8b() -> ScenarioConfig:
    """The five-UE, four-relay scenario of acceptance criterion 8b."""
    return ScenarioConfig(
        grid_x=4, grid_y=4,
        relays=(
            RelaySpec(0.7, 1, (2, 2)),
            RelaySpec(0.7, 1, (3, 3)),
            RelaySpec(0.7, 1, (2, 3)),
            RelaySpec(0.7, 1, (3, 2)),
        ),
        ues=(UeSpec((1, 1)), UeSpec((1, 3)), UeSpec((2, 1)), UeSpec((1, 2)), UeSpec((2, 2))),
        bs_position=(4, 4),
        r_max=500.0, c_max=250.0, c_th=1000.0, horizon=5, gamma=1.0,
    )


class TestMultiUser8bRegression:
    """Criterion 8b's scenario at h=2 and belief cap 4, pinned: the stored
    centralized vectors, the five distributed gcpbvi policies and the seeded
    metrics of both modes. The digests cover each epoch's distinct pairs,
    which is what a solve stores."""

    def test_centralized_vectors(self):
        policy = solve_centralized(_scenario_8b(), h=2, cap=4)
        digest = hashlib.sha256()
        for pairs in policy.epochs:
            for pair in pairs:
                digest.update(pair.alpha_r.tobytes())
                digest.update(pair.alpha_cs.tobytes())
                digest.update(repr(tuple(a.selected for a in pair.actions)).encode())
        assert digest.hexdigest() == (
            "a7ace18415b78a53aad2f3eec2004b7a2af632ee7ec0ef28c483a7f47cea5268"
        )

    def test_distributed_vectors(self):
        scenario = _scenario_8b()
        digest = hashlib.sha256()
        for u in range(scenario.n_ues):
            policy = solve_gcpbvi(with_single_ue(scenario, u), h=2, cap=4)
            for pairs in policy.epochs:
                for pair in pairs:
                    digest.update(pair.alpha_r.tobytes())
                    digest.update(pair.alpha_cs.tobytes())
                    digest.update(repr(pair.actions[0].selected).encode())
        assert digest.hexdigest() == (
            "54985238e64b8237a18bbccc2d64c150962f64f9cdd8ec8588a8506d012e3b1c"
        )

    # ids name the mode only, so that re-pinning a value keeps the test's name
    @pytest.mark.parametrize("mode", ["centralized", "distributed"])
    def test_benchmark_run_metrics(self, mode):
        """The benchmark's run of each mode, belief cap 8 and 200 episodes,
        whose rankings meet beliefs of thousands of joint states: every
        metric, every bit."""
        metrics = run_multiuser(_scenario_8b(), mode, n_runs=200, seed=303, h=2, cap=8)
        assert _metrics_digest(metrics) == (
            "7352d289620a4a1574f406d3683632ad7d006595b8aa7e658e62b2072d35909b"
        )

    @pytest.mark.parametrize("mode, reward, costs", [
        pytest.param("centralized", 4859.143518518517, [
            1003.7797619047618, 1016.2797619047618, 1003.7797619047618,
            1003.7797619047618, 1016.2797619047618,
        ], id="centralized"),
        pytest.param("distributed", 4859.143518518517, [
            1003.7797619047618, 1016.2797619047618, 1003.7797619047618,
            1003.7797619047618, 1016.2797619047618,
        ], id="distributed"),
    ])
    def test_seeded_metrics(self, mode, reward, costs):
        metrics = run_multiuser(_scenario_8b(), mode, n_runs=30, seed=3, h=2, cap=4)
        assert metrics.avg_cum_reward == reward
        assert [entry["avg_cum_cost"] for entry in metrics.per_ue] == costs


def _policy_digest(*policies) -> str:
    """sha256 of every stored vector and each pair's per-UE actions, epoch
    by epoch, over ``policies`` in order."""
    digest = hashlib.sha256()
    for policy in policies:
        for pairs in policy.epochs:
            for pair in pairs:
                digest.update(pair.alpha_r.tobytes())
                digest.update(pair.alpha_cs.tobytes())
                digest.update(repr(tuple(a.selected for a in pair.actions)).encode())
    return digest.hexdigest()


class TestBenchmarkSolves:
    """The solves the benchmark runs (h=2), and a budget-binding table1
    solve whose later epochs store several pairs, pinned bit for bit: the
    stored vectors and actions, the planned value and the pairs per epoch."""

    # ids name the configuration only, so that re-pinning keeps the test's name
    @pytest.mark.parametrize("method, cap, c_th, planned, pairs, digest", [
        pytest.param(
            "gcpbvi", 32, None, (629.2562396336053, 792.6435554074225), [2, 1, 1, 1, 1],
            "c927a97877cbe5ab68c5dcc5f6b3f8924105fd67bb31e9c81373ca9825627862",
            id="gcpbvi-cap32",
        ),
        pytest.param(
            "cpbvi", 12, None, (629.2562396336053, 792.6435554074225), [1, 1, 1, 1, 1],
            "6b4982ecad9e22aa02dcaca92356ce53c4796510ed3e4818c4ce5c0f5c43e7ac",
            id="cpbvi-cap12",
        ),
        pytest.param(
            "gcpbvi", 16, 300.0, (342.0599551679845, 299.85177955630286), [10, 9, 8, 3, 1],
            "80551d6fcf0b7d43631e0a1cc1670336ea22e6935f524bfedebe17f8b367968e",
            id="gcpbvi-cap16-cth300",
        ),
    ])
    def test_table1(self, table1_scenario, method, cap, c_th, planned, pairs, digest):
        scenario = table1_scenario if c_th is None else dataclasses.replace(table1_scenario, c_th=c_th)
        solve = solve_gcpbvi if method == "gcpbvi" else solve_cpbvi
        policy = solve(scenario, h=2, cap=cap)
        assert policy.planned_value() == planned
        assert policy.stats["pairs_per_epoch"] == pairs
        assert _policy_digest(policy) == digest

    def test_8b_centralized_cap_8(self):
        policy = solve_centralized(_scenario_8b(), h=2, cap=8)
        assert policy.planned_value() == (4806.510329051512, 999.1832577538861)
        assert policy.stats["pairs_per_epoch"] == [6, 1, 1, 1, 1]
        assert _policy_digest(policy) == (
            "863c05bdaf4f264bc4da817c1ad557b4d74de4f610b4e7241be5b50788949df7"
        )

    def test_8b_distributed_cap_8(self):
        scenario = _scenario_8b()
        policies = [solve_gcpbvi(with_single_ue(scenario, u), h=2, cap=8) for u in range(scenario.n_ues)]
        assert _policy_digest(*policies) == (
            "9c14a15f8133631e89b92c6295be8ede1811288cea8a2e0ae7815c1d58b5c7e6"
        )


def _criterion_1_instance(index: int):
    """Instance ``index`` of acceptance criterion 1, drawn as it draws them."""
    rng = np.random.default_rng(20240801)
    for i in range(index + 1):
        if i % 3 == 0:
            instance = random_instance(rng, k=2, n=2, t=int(rng.integers(1, 3)))
        elif i % 3 == 1:
            instance = random_instance(rng, k=1, n=int(rng.integers(2, 4)), t=int(rng.integers(1, 4)))
        else:
            instance = random_instance(rng, k=1, n=int(rng.integers(4, 9)), t=int(rng.integers(1, 3)))
    return instance


class TestExactPathsPinned:
    """The exact solve, the oracle and the exact evaluator on criterion 1's
    instances, pinned bit for bit: the exact solve's stored vectors and
    actions, the oracle's stats and tree, and ``exact_policy_value`` of the
    exact policy, a gcpbvi policy (h=2, cap 8), the oracle tree and the
    oracle tree cut to its root, which idles from epoch 2 on."""

    @pytest.mark.parametrize("index, digest, stats, tree, values, cut", [
        pytest.param(
            0, "3b03aaa12fcd3cc663022beaa0a8f79fec32a0d7302b965e06912de6303d5791",
            "{'oracle_value_r': 972.6483935911489, 'oracle_value_c': 115.1959456494448, 'contexts': 2}",
            {"action": [0, 1, 2], "children": {"0,0": {"action": [0, 1, 2], "children": {}}}},
            ["(972.6483935911489, 115.19594564944481)"] * 3,
            "(500.87048922977226, 55.93851009954691)",
            id="k2-n2-t2",
        ),
        pytest.param(
            2, "8b8dde49d8cd6fd30e9459534fa7440d4e5c06144a1915f75cc4a049dd782f83",
            "{'oracle_value_r': 124.86445184370365, 'oracle_value_c': 35.71469304564962, 'contexts': 2}",
            {"action": [0, 1], "children": {"1": {"action": [0, 1], "children": {}}}},
            ["(124.86445184370366, 35.71469304564962)"] * 3,
            "(58.23606450383187, 14.135608905308311)",
            id="k1-n6-t2",
        ),
        pytest.param(
            7, "de15443571e930a86adc609c23dd33633971393d63e149b4fac886c186c28c2a",
            "{'oracle_value_r': 338.23233343932645, 'oracle_value_c': 159.53096441949418, 'contexts': 5}",
            {"action": [0, 1], "children": {"1": {"action": [0, 1], "children": {
                "0": {"action": [0], "children": {}}, "1": {"action": [0, 1], "children": {}},
            }}}},
            [
                "(338.23233343932645, 159.53096441949418)",
                "(295.4940707673261, 121.45395955009035)",
                "(338.23233343932645, 159.53096441949418)",
            ],
            "(147.02550268424335, 86.0303186624731)",
            id="k1-n2-t3",
        ),
    ])
    def test_criterion_1_instance(self, index, digest, stats, tree, values, cut):
        scenario, chains = _criterion_1_instance(index)
        exact = solve_exact(scenario, chains)
        assert _policy_digest(exact) == digest
        oracle = brute_force_oracle(scenario, chains)
        assert repr({k: v for k, v in oracle.stats.items() if k != "wall_time_s"}) == stats
        assert _tree_to_dict(oracle.tree) == tree
        gcpbvi = solve_gcpbvi(scenario, chains, h=2, cap=8)
        got = [repr(exact_policy_value(p, scenario, chains)) for p in (exact, gcpbvi, oracle)]
        assert got == values
        root = dataclasses.replace(oracle, tree=OracleTree(oracle.tree.action))
        assert repr(exact_policy_value(root, scenario, chains)) == cut


class TestComplexityModel:
    def test_cpbvi_to_gcpbvi_ratio_at_k10(self):
        assert complexity_ratio("cpbvi", "gcpbvi", 10) == pytest.approx(10.24)
        # same order as the reported 12x reduction
        assert 12 / complexity_ratio("cpbvi", "gcpbvi", 10) < 2

    def test_k1_greedy_not_worse(self):
        assert complexity_ratio("cpbvi", "gcpbvi", 1) >= 1.0

    def test_ratio_increasing_beyond_k5(self):
        ratios = [complexity_ratio("cpbvi", "gcpbvi", k) for k in range(5, 16)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_centralized_distributed_ratio_grows(self):
        ratios = [
            complexity_ratio("centralized", "distributed", k, {"N": k}) for k in range(2, 11)
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_estimates_positive(self):
        sizes = {"S": 9, "B": 16, "N": 3}
        for method in ("exact", "cpbvi", "gcpbvi", "centralized", "distributed"):
            assert complexity_model(method, 3, sizes) > 0

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            complexity_model("magic", 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_refused(self, k):
        calls = [
            lambda: complexity_ratio("cpbvi", "gcpbvi", k),
            lambda: complexity_ratio("centralized", "distributed", k, {"N": 2}),
            lambda: complexity_ratio("exact", "cpbvi", k),
            lambda: complexity_log10("gcpbvi", k),
            lambda: complexity_model("exact", k),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=f"K must be >= 1, got {k}"):
                call()

    def test_measured_counters_favor_greedy_in_action_heavy_regimes(self):
        rng = np.random.default_rng(14)
        scenario, chains = random_instance(rng, k=2, n=2, t=2, c_th=1e9)
        from relayplan.solvers import solve_cpbvi

        cp = solve_cpbvi(scenario, chains, h=2, cap=16)
        gc = solve_gcpbvi(scenario, chains, h=2, cap=16)
        assert gc.stats["pair_evaluations"] <= cp.stats["pair_evaluations"]


class TestMetricsTable:
    def test_rows_and_csv(self, tmp_path):
        rng = np.random.default_rng(16)
        scenario, chains = random_instance(rng, k=1, n=2, t=2)
        policy = solve_gcpbvi(scenario, chains, h=2)
        metrics = monte_carlo(policy, scenario, 5, seed=1, chains=chains)
        rows = metrics_rows(metrics, "sc1", "gcpbvi")
        assert len(rows) == scenario.horizon
        assert rows[-1]["avg_cum_reward"] == pytest.approx(metrics.avg_cum_reward)
        path = tmp_path / "metrics.csv"
        write_csv(rows, METRIC_COLUMNS, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario_id,method,epoch,avg_cum_reward,avg_cum_cost,avg_cum_ee,stderr_reward,runs"
        assert len(lines) == 1 + len(rows)
