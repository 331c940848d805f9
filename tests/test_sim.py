import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import line_scenario, random_instance
from relayplan.belief import FactoredBelief, build_h_belief_set, joint_belief
from relayplan.errors import ValidationError
from relayplan.mobility import MarkovChain, chains_for_scenario
from relayplan.model import Action, RelaySpec, ScenarioConfig, UeSpec
from relayplan.sim import (
    METRIC_COLUMNS,
    StaticPolicy,
    baseline_cellular,
    complexity_model,
    complexity_ratio,
    exact_policy_value,
    metrics_rows,
    monte_carlo,
    _MultiPair,
    _select_multi,
    _multi_user,
    _SimContext,
    _single_user,
    run_episode,
    run_multiuser,
    solve_centralized,
    write_csv,
)
from relayplan.solvers import brute_force_oracle, solve_gcpbvi


class TestRunEpisode:
    def test_same_seed_same_trace(self):
        rng = np.random.default_rng(2)
        scenario, chains = random_instance(rng, k=2, n=2, t=2)
        policy = solve_gcpbvi(scenario, chains, h=2)
        a = run_episode(*_single_user(policy, scenario, chains), seed=99)
        b = run_episode(*_single_user(policy, scenario, chains), seed=99)
        assert [(r.actions, r.state, r.observations) for r in a.records] == [
            (r.actions, r.state, r.observations) for r in b.records
        ]
        assert a.cum_reward == b.cum_reward

    def test_immobile_relays_constant_reward_stream(self):
        sc = line_scenario(3, [2], horizon=4, eps_fix=1.0, c_th=1e6)
        chains = chains_for_scenario(sc)
        policy = solve_gcpbvi(sc, chains, h=2)
        trace = run_episode(*_single_user(policy, sc, chains), seed=1)
        rewards = [r.rewards for r in trace.records]
        assert len(set(rewards)) == 1

    def test_horizon_mismatch(self):
        sc = line_scenario(2, [1], horizon=2)
        chains = chains_for_scenario(sc)
        policy = solve_gcpbvi(sc, chains, h=2)
        other = dataclasses.replace(sc, horizon=3)
        with pytest.raises(ValidationError):
            run_episode(*_single_user(policy, other, chains_for_scenario(other)), seed=0)

    def test_observations_reveal_current_state(self):
        rng = np.random.default_rng(4)
        scenario, chains = random_instance(rng, k=2, n=2, t=3, c_th=1e9)
        policy = solve_gcpbvi(scenario, chains, h=2)
        trace = run_episode(*_single_user(policy, scenario, chains), seed=5)
        for rec in trace.records:
            (action,), (observation,) = rec.actions, rec.observations
            for i in action.relays:
                assert observation[i - 1] == rec.state[i - 1]
            for i in range(1, scenario.n_relays + 1):
                if i not in action.relays:
                    assert observation[i - 1] is None


class _LargestDraws:
    """A generator stub whose every draw is the largest double below 1."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


class TestStepStates:
    # rows may sum to 1 - 5e-10; the last positive column of row 0 is 1
    CHAIN = MarkovChain(np.array([[0.5, 0.5 - 5e-10, 0.0], [0.2, 0.3, 0.5], [0.0, 0.5, 0.5]]))

    def test_draw_past_row_sum_stays_on_grid(self):
        ctx = _SimContext(line_scenario(3, [1, 2]), [self.CHAIN, self.CHAIN])
        assert ctx.step_states((0, 1), _LargestDraws()) == (1, 2)

    def test_draws_in_range_unchanged(self):
        ctx = _SimContext(line_scenario(3, [1, 2]), [self.CHAIN, self.CHAIN])
        rng = np.random.default_rng(8)
        cum = np.cumsum(self.CHAIN.matrix, axis=1)
        state = (0, 2)
        for _ in range(200):
            seed = int(rng.integers(2**32))
            draws = np.random.default_rng(seed).random(2)
            expected = tuple(
                int(np.searchsorted(cum[s], d, side="right")) for s, d in zip(state, draws)
            )
            state = ctx.step_states(state, np.random.default_rng(seed))
            assert state == expected


class TestMonteCarlo:
    def test_single_run_equals_episode(self):
        rng = np.random.default_rng(6)
        scenario, chains = random_instance(rng, k=1, n=2, t=2)
        policy = solve_gcpbvi(scenario, chains, h=2)
        metrics = monte_carlo(policy, scenario, 1, seed=3, chains=chains)
        seed = np.random.SeedSequence(3).spawn(1)[0]
        trace = run_episode(*_single_user(policy, scenario, chains), seed)
        assert (metrics.avg_cum_reward,) == trace.cum_reward
        assert (metrics.avg_cum_cost,) == trace.cum_cost
        assert metrics.stderr_reward == 0.0

    def test_ee_single_term(self):
        sc = line_scenario(2, [1], horizon=1, direct=(10.0, 5.0), c_th=1e6)
        metrics = monte_carlo(
            StaticPolicy(Action((0,)), 1, 1.0), sc, 4, seed=0, chains=chains_for_scenario(sc)
        )
        assert metrics.avg_cum_ee == pytest.approx(2.0)

    def test_zero_cost_epochs_contribute_zero_ee(self):
        sc = line_scenario(2, [1], horizon=3, direct=(10.0, 0.0))
        metrics = monte_carlo(
            StaticPolicy(Action((0,)), 3, 1.0), sc, 2, seed=0, chains=chains_for_scenario(sc)
        )
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
        agents, contexts = _multi_user(sc, "centralized", chains_for_scenario(sc), 2, None, 64)
        assert len(agents) == 1
        differ = 0
        for seed in range(10):
            for rec in run_episode(agents, contexts, seed).records:
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
        pairs = [_MultiPair(r, cs, a) for r, cs, a in zip(rewards, costs, assignments)]
        fb = FactoredBelief(tuple(
            np.eye(n)[int(rng.integers(n))] if rng.random() < 0.3 else rng.dirichlet(np.ones(n))
            for _ in range(k)
        ))
        b = joint_belief(fb)
        worst = [float(np.max(pair.alpha_cs @ b)) for pair in pairs]
        c_th = float(rng.choice(worst)) if rng.random() < 0.8 else -1.0

        tol = 1e-9 * max(1.0, abs(c_th))
        scored = [
            ((-float(pair.alpha_r @ b), float(c.sum()), pair.assignment), pair)
            for pair in pairs
            for c in [pair.alpha_cs @ b]
            if all(float(x) <= c_th + tol for x in c)
        ]
        expected = min(scored, key=lambda item: item[0])[1] if scored else None

        assert _select_multi(pairs, fb, c_th) is expected


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
    centralized vectors and the seeded metrics of both modes."""

    def test_centralized_vectors(self):
        epochs, _ = solve_centralized(_scenario_8b(), h=2, cap=4)
        digest = hashlib.sha256()
        for pairs in epochs:
            for pair in pairs:
                digest.update(pair.alpha_r.tobytes())
                digest.update(pair.alpha_cs.tobytes())
                digest.update(repr(pair.assignment).encode())
        assert digest.hexdigest() == (
            "5fa7bd26c3d3eb3ef00ab62024ec158ca97af69f96bb98033a15b8ee4d636f90"
        )

    @pytest.mark.parametrize("mode, reward, costs", [
        ("centralized", 2929.340277777778, [499.8115079365079] * 5),
        ("distributed", 3111.7476851851848, [
            525.327380952381, 522.8571428571428, 528.6607142857142,
            529.077380952381, 523.6904761904761,
        ]),
    ])
    def test_seeded_metrics(self, mode, reward, costs):
        metrics = run_multiuser(_scenario_8b(), mode, n_runs=30, seed=3, h=2, cap=4)
        assert metrics.avg_cum_reward == reward
        assert [entry["avg_cum_cost"] for entry in metrics.per_ue] == costs


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

    def test_measured_counters_favor_greedy_in_action_heavy_regimes(self):
        rng = np.random.default_rng(14)
        scenario, chains = random_instance(rng, k=2, n=2, t=2, c_th=1e9)
        bs = build_h_belief_set(scenario.initial_states, 2, chains, cap=16)
        from relayplan.solvers import solve_cpbvi

        cp = solve_cpbvi(scenario, chains, belief_set=bs)
        gc = solve_gcpbvi(scenario, chains, belief_set=bs)
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
