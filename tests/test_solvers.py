import dataclasses
import json
import math
import time
import zipfile

import numpy as np
import pytest

from conftest import line_scenario, random_chain, random_instance
from relayplan.alpha import AlphaPair, immediate_pair
from relayplan.belief import FactoredBelief, build_h_belief_set
from relayplan.errors import CapExceededError, ValidationError
from relayplan.mobility import MarkovChain
from relayplan.model import Action, EMPTY_ACTION, all_actions
from relayplan.sim import monte_carlo
from relayplan.solvers import (
    PolicySolution,
    brute_force_oracle,
    cpbvi_backup,
    discrete_derivative,
    evaluate_q,
    exact_backup,
    greedy_constrained_argmax,
    load_policy,
    pbvi_error_bound,
    save_policy,
    select_pair,
    solve_cpbvi,
    solve_exact,
    solve_gcpbvi,
)


class TestExactBackup:
    def test_first_backup_equals_immediates(self):
        sc = line_scenario(2, [1], c_th=1e6)
        chains = [MarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]))]
        pairs = exact_backup([], sc, chains)
        by_action = {p.action.selected: p for p in pairs}
        for action in all_actions(1):
            imm = immediate_pair(action, sc)
            if action.selected in by_action:
                np.testing.assert_allclose(by_action[action.selected].alpha_r, imm.alpha_r)
        # the best action's pair must survive pruning
        assert (0, 1) in by_action

    def test_gamma_zero_reproduces_immediates(self):
        sc = line_scenario(2, [1], gamma=0.0, c_th=1e6)
        chains = [MarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]))]
        first = exact_backup([], sc, chains)
        second = exact_backup(first, sc, chains)
        keys_first = {p.key()[:1] + (p.alpha_r.tobytes(),) for p in first}
        keys_second = {p.key()[:1] + (p.alpha_r.tobytes(),) for p in second}
        assert keys_second == keys_first

    def test_matches_oracle_on_tiny_instance(self):
        rng = np.random.default_rng(3)
        scenario, chains = random_instance(rng, k=1, n=2, t=2, gamma=1.0)
        policy = solve_exact(scenario, chains)
        oracle = brute_force_oracle(scenario, chains)
        assert policy.planned_value()[0] == pytest.approx(
            oracle.stats["oracle_value_r"], abs=1e-9
        )

    def test_state_cap(self):
        sc = line_scenario(5, [1, 1, 1, 1, 1, 1], c_th=1e6)
        with pytest.raises(CapExceededError):
            solve_exact(sc)

    def test_grid_prune_mode_keeps_value_at_grid_anchors(self):
        rng = np.random.default_rng(5)
        scenario, chains = random_instance(rng, k=1, n=2, t=2, gamma=1.0)
        full = solve_exact(scenario, chains)
        pruned = solve_exact(scenario, chains, prune="grid")
        fb = FactoredBelief.one_hot(scenario.initial_states, scenario.n_regions)
        assert pruned.planned_value(fb)[0] == pytest.approx(full.planned_value(fb)[0], abs=1e-9)


class TestCpbviBackup:
    def test_slack_budget_matches_exact_at_anchors(self):
        rng = np.random.default_rng(11)
        scenario, chains = random_instance(rng, k=1, n=3, t=2, gamma=1.0, c_th=1e9)
        bs = build_h_belief_set(scenario.initial_states, scenario.horizon, chains)
        point_based = solve_cpbvi(scenario, chains, belief_set=bs)
        exact = solve_exact(scenario, chains)
        fb0 = FactoredBelief.one_hot(scenario.initial_states, scenario.n_regions)
        assert point_based.planned_value(fb0)[0] == pytest.approx(
            exact.planned_value(fb0)[0], abs=1e-9
        )

    def test_zero_budget_zero_cost_actions_only(self):
        sc = line_scenario(2, [1], c_th=0.0, horizon=2, direct=(10.0, 0.0))
        chains = [MarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]))]
        bs = build_h_belief_set(sc.initial_states, 2, chains)
        policy = solve_cpbvi(sc, chains, belief_set=bs)
        for pairs in policy.epochs:
            for pair in pairs:
                assert pair.action.selected in ((), (0,))

    def test_one_pair_per_belief_point(self):
        sc = line_scenario(2, [1], horizon=2)
        chains = [MarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]))]
        bs = build_h_belief_set(sc.initial_states, 2, chains)
        out = cpbvi_backup([], bs, sc, chains)
        assert len(out) == len(bs)


class TestGreedyArgmax:
    def _pairs(self):
        p1 = AlphaPair(np.array([10.0]), np.array([5.0]), Action((1,)))
        p2 = AlphaPair(np.array([6.0]), np.array([2.0]), Action((2,)))
        return {1: [p1], 2: [p2]}

    def test_ratio_selection_skips_budget_violator(self):
        fb = FactoredBelief((np.array([1.0]),))
        pair, action = greedy_constrained_argmax(self._pairs(), fb, c_th=6.0)
        # ratios are 2 vs 3: relay 2 admitted first, relay 1 then violates
        assert action.selected == (2,)
        assert pair.evaluate(fb) == (6.0, 2.0)
        assert 6.0 >= (1 - 1 / math.e) ** 2 * 10.0

    def test_zero_budget_empty_selection(self):
        fb = FactoredBelief((np.array([1.0]),))
        pair, action = greedy_constrained_argmax(self._pairs(), fb, c_th=0.0)
        assert action == EMPTY_ACTION
        assert pair.evaluate(fb) == (0.0, 0.0)

    def test_single_relay_under_budget(self):
        fb = FactoredBelief((np.array([1.0]),))
        pairs = {1: [AlphaPair(np.array([4.0]), np.array([1.0]), Action((1,)))]}
        _, action = greedy_constrained_argmax(pairs, fb, c_th=10.0)
        assert action.selected == (1,)

    def test_strict_vs_nonstrict_boundary(self):
        fb = FactoredBelief((np.array([1.0]),))
        pairs = {2: [AlphaPair(np.array([6.0]), np.array([2.0]), Action((2,)))]}
        _, strict_action = greedy_constrained_argmax(pairs, fb, c_th=2.0, strict=True)
        assert strict_action == EMPTY_ACTION
        _, loose_action = greedy_constrained_argmax(pairs, fb, c_th=2.0, strict=False)
        assert loose_action.selected == (2,)

    def test_zero_cost_positive_reward_admitted_first(self):
        fb = FactoredBelief((np.array([1.0]),))
        pairs = {
            1: [AlphaPair(np.array([3.0]), np.array([1.0]), Action((1,)))],
            0: [AlphaPair(np.array([0.5]), np.array([0.0]), Action((0,)))],
        }
        pair, action = greedy_constrained_argmax(pairs, fb, c_th=1.5)
        assert action.selected == (0, 1)
        assert pair.evaluate(fb) == (3.5, 1.0)


class TestGcpbvi:
    def test_k1_identity_with_slack_budget(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            scenario, chains = random_instance(rng, k=1, c_th=1e9)
            bs = build_h_belief_set(scenario.initial_states, scenario.horizon, chains, cap=30)
            cp = solve_cpbvi(scenario, chains, belief_set=bs)
            gc = solve_gcpbvi(scenario, chains, belief_set=bs)
            for epoch in range(1, scenario.horizon + 1):
                for fb in bs.points:
                    vb, _ = select_pair(cp, epoch, fb)
                    vg, _ = select_pair(gc, epoch, fb)
                    assert vg.evaluate(fb)[0] == pytest.approx(vb.evaluate(fb)[0], abs=1e-9)

    def test_never_exceeds_cpbvi(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            scenario, chains = random_instance(rng)
            bs = build_h_belief_set(scenario.initial_states, 2, chains, cap=16)
            cp = solve_cpbvi(scenario, chains, belief_set=bs)
            gc = solve_gcpbvi(scenario, chains, belief_set=bs)
            for epoch in range(1, scenario.horizon + 1):
                for fb in bs.points:
                    pb, _ = select_pair(cp, epoch, fb)
                    pg, _ = select_pair(gc, epoch, fb)
                    vb = pb.evaluate(fb)[0] if pb else 0.0
                    vg = pg.evaluate(fb)[0] if pg else 0.0
                    assert vg <= vb + 1e-9

    def test_budget_anchor_invariant(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            scenario, chains = random_instance(rng)
            bs = build_h_belief_set(scenario.initial_states, 2, chains, cap=16)
            for solver in (solve_cpbvi, solve_gcpbvi):
                policy = solver(scenario, chains, belief_set=bs)
                for pairs in policy.epochs:
                    for pair, fb in zip(pairs, bs.points):
                        _, c = pair.evaluate(fb)
                        assert c <= scenario.c_th + 1e-6


class TestErrorBounds:
    def test_zero_density_zero_error(self):
        assert pbvi_error_bound(0.0, 1.0, 7, 100.0, 50.0) == (0.0, 0.0)

    def test_undiscounted_form(self):
        eta_r, eta_c = pbvi_error_bound(0.01, 1.0, 5, 1.0, 1.0)
        assert eta_r == pytest.approx(0.15)
        assert eta_c == pytest.approx(0.15)

    def test_discounted_form(self):
        eta_r, _ = pbvi_error_bound(0.01, 0.9, 5, 1.0, 1.0)
        assert eta_r == pytest.approx(1.0)

    def test_negative_density_rejected(self):
        with pytest.raises(ValidationError):
            pbvi_error_bound(-0.1, 1.0, 5, 1.0, 1.0)


class TestOracle:
    def test_horizon_one_is_feasible_argmax(self):
        rng = np.random.default_rng(17)
        scenario, chains = random_instance(rng, k=2, n=2, t=1, gamma=1.0)
        oracle = brute_force_oracle(scenario, chains)
        s0 = scenario.initial_states
        from relayplan.model import total_cost, total_reward

        best = 0.0
        for action in all_actions(2):
            cost = total_cost(s0, action, scenario)
            if cost <= scenario.c_th + 1e-9:
                best = max(best, total_reward(s0, action, scenario))
        assert oracle.stats["oracle_value_r"] == pytest.approx(best, abs=1e-9)

    def test_gamma_zero_equals_horizon_one(self):
        rng = np.random.default_rng(19)
        scenario, chains = random_instance(rng, k=1, n=3, t=3, gamma=0.0)
        full = brute_force_oracle(scenario, chains)
        import dataclasses

        short = brute_force_oracle(dataclasses.replace(scenario, horizon=1), chains, horizon=1)
        assert full.stats["oracle_value_r"] == pytest.approx(
            short.stats["oracle_value_r"], abs=1e-12
        )

    def test_caps_enforced(self):
        sc = line_scenario(3, [1, 1], horizon=4)
        with pytest.raises(CapExceededError):
            brute_force_oracle(sc)
        sc2 = line_scenario(2, [1, 1, 1], horizon=2)
        with pytest.raises(CapExceededError):
            brute_force_oracle(sc2)


class TestQEvaluation:
    def test_horizon_one_derivative_closed_form(self):
        sc = line_scenario(3, [2], horizon=1, c_th=1e6)
        chains = [MarkovChain(np.array([[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.4, 0.5]]))]
        policy = solve_gcpbvi(sc, chains, h=1)
        fb = FactoredBelief((np.array([0.2, 0.5, 0.3]),))
        from relayplan.model import reward_vector

        d_r, d_c = discrete_derivative(sc, chains, policy, fb, 1, 1, EMPTY_ACTION)
        assert d_r == pytest.approx(float(fb.per_relay[0] @ reward_vector(sc, 1)), abs=1e-12)

    def test_zero_reward_element_zero_derivative(self):
        sc = line_scenario(3, [2], horizon=1, direct=(0.0, 0.0), c_th=1e6)
        chains = [MarkovChain(np.eye(3) * 0 + 1 / 3)]
        policy = solve_gcpbvi(sc, chains, h=1)
        fb = FactoredBelief((np.ones(3) / 3,))
        d_r, d_c = discrete_derivative(sc, chains, policy, fb, 1, 0, EMPTY_ACTION)
        assert d_r == pytest.approx(0.0, abs=1e-12)
        assert d_c == pytest.approx(0.0, abs=1e-12)

    def test_element_already_in_base_rejected(self):
        sc = line_scenario(2, [1], horizon=1)
        chains = [MarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]))]
        policy = solve_gcpbvi(sc, chains, h=1)
        fb = FactoredBelief.one_hot((0,), 2)
        with pytest.raises(ValidationError):
            discrete_derivative(sc, chains, policy, fb, 1, 1, Action((1,)))

    def test_q_matches_stored_pair_on_slack_instance(self):
        sc = line_scenario(3, [1], horizon=3, c_th=1e9, eps_fix=0.5)
        from relayplan.mobility import chains_for_scenario

        chains = chains_for_scenario(sc)
        policy = solve_gcpbvi(sc, chains, h=3)
        fb = FactoredBelief.one_hot(sc.initial_states, 3)
        pair, action = select_pair(policy, 1, fb)
        q = evaluate_q(sc, chains, policy, fb, 1, action)
        r, c = pair.evaluate(fb)
        assert q.q_r == pytest.approx(r, abs=1e-9)
        assert q.q_c == pytest.approx(c, abs=1e-9)


class TestSelectPair:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_reference_loop_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 3))
        n = int(rng.integers(2, 4))
        actions = all_actions(k)
        vecs = rng.uniform(0.0, 10.0, size=(int(rng.integers(1, 9)), 2, n**k))
        for j in range(1, len(vecs)):
            src = int(rng.integers(j))
            tie = rng.random()
            if tie < 0.3:
                vecs[j, 0] = vecs[src, 0]  # equal reward, cost decides
            elif tie < 0.6:
                vecs[j] = vecs[src]  # equal reward and cost, the action decides
        pairs = [
            AlphaPair(alpha_r=r, alpha_c=c, action=actions[int(rng.integers(len(actions)))])
            for r, c in vecs
        ]
        fb = FactoredBelief(tuple(
            np.eye(n)[int(rng.integers(n))] if rng.random() < 0.3 else rng.dirichlet(np.ones(n))
            for _ in range(k)
        ))
        costs = [pair.evaluate(fb)[1] for pair in pairs]
        c_th = float(rng.choice(costs)) if rng.random() < 0.8 else -1.0
        policy = PolicySolution(
            method="gcpbvi", horizon=1, gamma=1.0, c_th=c_th,
            chains=[random_chain(rng, n) for _ in range(k)], scenario_fingerprint="x",
            initial_state=(0,) * k, epochs=[pairs],
        )

        tol = 1e-9 * max(1.0, abs(c_th))
        scored = [
            ((-r, c, pair.action.selected), pair)
            for pair in pairs
            for r, c in [pair.evaluate(fb)]
            if c <= c_th + tol
        ]
        expected = min(scored, key=lambda item: item[0])[1] if scored else None

        pair, action = select_pair(policy, 1, fb)
        assert pair is expected
        assert action == (expected.action if expected is not None else EMPTY_ACTION)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _tree_items(tree) -> tuple:
    return (tree.action, sorted((z, _tree_items(sub)) for z, sub in tree.children.items()))


def _rewrite_archive(path, edit_meta=None, **arrays):
    """Rewrite a saved policy archive with edited metadata or replaced arrays."""
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    meta = json.loads(str(members["meta"]))
    if edit_meta is not None:
        edit_meta(meta)
    members["meta"] = np.array(json.dumps(meta))
    members.update(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **members)


class TestPersistence:
    @pytest.fixture
    def saved(self, tmp_path):
        rng = np.random.default_rng(23)
        scenario, chains = random_instance(rng, k=2, n=2, t=2)
        policy = solve_gcpbvi(scenario, chains, h=2)
        path = tmp_path / "policy.npz"
        save_policy(policy, path)
        return policy, path

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(23)
        scenario, chains = random_instance(rng, k=1, n=3, t=2)
        policy = solve_cpbvi(scenario, chains, h=2)
        path = tmp_path / "policy.json"
        save_policy(policy, path)
        again = load_policy(path)
        assert again.method == policy.method
        assert again.scenario_fingerprint == policy.scenario_fingerprint
        assert again.planned_value() == pytest.approx(policy.planned_value())
        np.testing.assert_allclose(again.chains[0].matrix, chains[0].matrix)

    @pytest.mark.parametrize("solve", [solve_exact, solve_cpbvi, solve_gcpbvi])
    @pytest.mark.parametrize("k, n", [(1, 3), (2, 2)])
    def test_round_trip_is_bit_identical(self, tmp_path, solve, k, n):
        rng = np.random.default_rng(23)
        scenario, chains = random_instance(rng, k=k, n=n, t=2)
        policy = solve(scenario, chains) if solve is solve_exact else solve(scenario, chains, h=2)
        path = tmp_path / "policy.npz"
        save_policy(policy, path)
        again = load_policy(path)

        for attr in ("method", "horizon", "gamma", "c_th", "scenario_fingerprint",
                     "initial_state", "stats"):
            assert getattr(again, attr) == getattr(policy, attr)
        assert all(_same_bits(a.matrix, b.matrix) for a, b in zip(again.chains, policy.chains))
        assert len(again.chains) == len(policy.chains)
        assert len(again.epochs) == len(policy.epochs)
        for e, (got, want) in enumerate(zip(again.epochs, policy.epochs), start=1):
            assert [(p.action, p.epoch) for p in got] == [(p.action, e) for p in want]
            for a, b in zip(got, want):
                assert _same_bits(a.alpha_r, b.alpha_r)
                assert _same_bits(a.alpha_c, b.alpha_c)
        if policy.belief_set is None:
            assert again.belief_set is None
        else:
            assert again.belief_set.h == policy.belief_set.h
            assert again.belief_set.source_state == policy.belief_set.source_state
            assert len(again.belief_set) == len(policy.belief_set)
            for a, b in zip(again.belief_set.points, policy.belief_set.points):
                assert all(_same_bits(x, y) for x, y in zip(a.per_relay, b.per_relay))
        assert again.planned_value() == policy.planned_value()
        ran = monte_carlo(policy, scenario, 200, seed=17, chains=chains)
        assert dataclasses.asdict(monte_carlo(again, scenario, 200, seed=17, chains=chains)) == (
            dataclasses.asdict(ran)
        )

    def test_oracle_tree_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        scenario, chains = random_instance(rng, k=1, n=2, t=2)
        oracle = brute_force_oracle(scenario, chains)
        path = tmp_path / "oracle.json"
        save_policy(oracle, path)
        again = load_policy(path)
        assert again.epochs is None and again.belief_set is None
        assert _tree_items(again.tree) == _tree_items(oracle.tree)
        assert again.stats == oracle.stats
        assert again.planned_value() == oracle.planned_value()

    def test_writes_exactly_the_given_path(self, saved, tmp_path):
        policy, _ = saved
        target = tmp_path / "sub"
        target.mkdir()
        save_policy(policy, target / "x.json")
        assert sorted(p.name for p in target.iterdir()) == ["x.json"]
        assert load_policy(target / "x.json").planned_value() == policy.planned_value()

    def test_same_policy_same_bytes(self, saved, tmp_path, monkeypatch):
        policy, path = saved
        monkeypatch.setattr(time, "time", lambda: 2e9)
        later = tmp_path / "later.npz"
        save_policy(policy, later)
        assert later.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("format_version"),
        lambda meta: meta.update(format_version=2),
    ], ids=["missing", "unknown"])
    def test_bad_format_version_rejected(self, saved, edit):
        _, path = saved
        _rewrite_archive(path, edit)
        with pytest.raises(ValidationError, match="format version.*relayplan solve"):
            load_policy(path)

    @pytest.mark.parametrize("cut", [
        lambda stack: stack[:, :-1],
        lambda stack: stack[:-1],
        lambda stack: stack.reshape(-1),
    ], ids=["length", "rows", "flat"])
    def test_misshaped_stack_rejected(self, saved, cut):
        _, path = saved
        with np.load(path) as archive:
            stack = archive["alpha_c_2"]
        _rewrite_archive(path, alpha_c_2=cut(stack))
        with pytest.raises(ValidationError, match="epoch 2 stack.*relayplan solve"):
            load_policy(path)

    @pytest.mark.parametrize("cut", [
        lambda points: points[:, :, :-1],
        lambda points: points[:, :1],
        lambda points: points[0],
    ], ids=["regions", "relays", "ndim"])
    def test_misshaped_belief_points_rejected(self, saved, cut):
        _, path = saved
        with np.load(path) as archive:
            points = archive["belief_points"]
        _rewrite_archive(path, belief_points=cut(points))
        with pytest.raises(ValidationError, match="belief points.*relayplan solve"):
            load_policy(path)

    @pytest.mark.parametrize("kind", ["old_json", "truncated", "foreign_zip", "empty"])
    def test_not_a_policy_archive_rejected(self, saved, kind):
        _, path = saved
        if kind == "old_json":
            path.write_text(json.dumps({"method": "gcpbvi", "chains": [[[1.0]]]}) + "\n")
        elif kind == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif kind == "foreign_zip":
            with zipfile.ZipFile(path, "w") as archive:
                archive.writestr("readme.txt", "not a policy")
        else:
            path.write_bytes(b"")
        with pytest.raises(ValidationError, match="relayplan solve"):
            load_policy(path)

    def test_missing_file_is_an_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_policy(tmp_path / "absent.npz")
