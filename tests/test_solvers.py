import dataclasses
import itertools
import json
import time
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_scenario, random_chain, random_instance
from relayplan.alpha import AlphaPair, reward_tensor
from relayplan.belief import BeliefSet, FactoredBelief, build_h_belief_set
from relayplan.errors import CapExceededError, ValidationError
from relayplan.mobility import MarkovChain, chains_for_scenario
from relayplan.model import Action, EMPTY_ACTION, all_actions, cost_vector, reward_vector
from relayplan.sim import discrete_derivative, exact_policy_value, monte_carlo, solve_centralized
from relayplan.solvers import (
    PolicySolution,
    _AnchorScores,
    _column_frontiers,
    _element_frontier_best,
    _Engine,
    _merge_branches,
    _pareto_indices,
    brute_force_oracle,
    cpbvi_backup,
    exact_backup,
    gcpbvi_backup,
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
            if action.selected in by_action:
                np.testing.assert_allclose(
                    by_action[action.selected].alpha_r, reward_tensor(sc, action)
                )
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
    """gcpbvi's ratio-greedy admission at horizon 1, where no continuation
    can change it: elements enter best ratio first while the strict ``<``
    budget test holds or the element is free, and an element that would
    break the budget is skipped."""

    @staticmethod
    def _greedy(sc) -> tuple[AlphaPair, FactoredBelief]:
        fb = FactoredBelief.one_hot(sc.initial_states, sc.n_regions)
        points = BeliefSet(points=[fb], h=1, source_state=sc.initial_states)
        (pair,) = gcpbvi_backup([], points, sc, chains_for_scenario(sc))
        return pair, fb

    @staticmethod
    def _element(sc, i: int) -> tuple[float, float]:
        s = sc.initial_states[i - 1]
        return float(reward_vector(sc, i)[s]), float(cost_vector(sc, i)[s])

    def test_ratio_selection_skips_budget_violator(self):
        sc = line_scenario(4, [2, 4], horizon=1, direct=(0.0, 0.0))
        (r1, c1), (r2, c2) = self._element(sc, 1), self._element(sc, 2)
        assert r1 / c1 != r2 / c2
        first, second = (1, 2) if r1 / c1 > r2 / c2 else (2, 1)
        c_th = self._element(sc, first)[1] + 0.5 * self._element(sc, second)[1]
        pair, fb = self._greedy(dataclasses.replace(sc, c_th=c_th))
        assert pair.action.selected == (first,)
        assert pair.evaluate(fb) == self._element(sc, first)

    def test_zero_budget_admits_free_option(self):
        # 0 + 0 < 0 fails the strict test; a free element enters regardless
        sc = line_scenario(3, [1, 2], horizon=1, c_th=0.0, direct=(10.0, 0.0))
        pair, fb = self._greedy(sc)
        assert pair.action.selected == (0,)
        assert pair.evaluate(fb) == (10.0, 0.0)
        sc = dataclasses.replace(sc, horizon=2)
        chains = chains_for_scenario(sc)
        planned = solve_gcpbvi(sc, chains, h=1).planned_value()
        assert planned == solve_cpbvi(sc, chains, h=1).planned_value() == (20.0, 0.0)
        epochs, _ = solve_centralized(sc, chains, h=1)
        assert {pair.assignment for pairs in epochs for pair in pairs} == {((0,),)}

    def test_single_relay_under_budget(self):
        sc = line_scenario(3, [2], horizon=1, c_th=1e6, direct=(0.0, 0.0))
        pair, _ = self._greedy(sc)
        assert pair.action.selected == (1,)

    def test_strict_vs_nonstrict_boundary(self):
        # a cost equal to the budget fails the strict test a non-strict one passes
        sc = line_scenario(3, [2], horizon=1, direct=(0.0, 0.0))
        _, c1 = self._element(sc, 1)
        at_budget, _ = self._greedy(dataclasses.replace(sc, c_th=c1))
        assert at_budget.action == EMPTY_ACTION
        above, _ = self._greedy(dataclasses.replace(sc, c_th=float(np.nextafter(c1, np.inf))))
        assert above.action.selected == (1,)

    def test_zero_cost_positive_reward_admitted_first(self):
        sc = line_scenario(3, [2], horizon=1, direct=(0.5, 0.0))
        r1, c1 = self._element(sc, 1)
        pair, fb = self._greedy(dataclasses.replace(sc, c_th=1.5 * c1))
        assert pair.action.selected == (0, 1)
        assert pair.evaluate(fb) == pytest.approx((0.5 + r1, c1))


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
        q_r, q_c = exact_policy_value(policy, sc, chains, fb, 1, action)
        r, c = pair.evaluate(fb)
        assert q_r == pytest.approx(r, abs=1e-9)
        assert q_c == pytest.approx(c, abs=1e-9)

    # seed -> (action, its Q, the Q of selecting everything, the policy's
    # value), recorded from the two evaluators this one replaces
    # (``evaluate_q`` and ``exact_policy_value``) on criterion 5's instances
    RECORDED = {
        0: ((), (312.32857524277904, 212.37491264563965), (486.36595670884526, 334.6036719481817), (361.0426924941678, 218.4812314043868)),
        1: ((0, 1), (319.6055367387059, 158.28378565268804), (425.22207854350563, 202.23039474396546), (423.8441228813522, 203.2953546070161)),
        2: ((), (85.83296255474518, 43.22331992634534), (181.3573493921402, 82.36479418437021), (174.3503795629307, 78.29784273482841)),
        3: ((0,), (151.06793375823017, 53.71676611372923), (359.53292869326197, 103.42841425846619), (413.5040098856489, 95.30130990072581)),
        4: ((0, 2), (316.61604828270526, 99.40754495140504), (419.3299340686086, 127.70939936100696), (643.2681996746521, 186.28156548863132)),
        5: ((1,), (148.16875430229402, 47.889127845116896), (274.2100123822936, 72.85521935590354), (183.46552903810056, 18.53368375565206)),
        6: ((0, 1), (460.25306714185604, 229.5789615099864), (548.6145093236114, 282.1225709557219), (548.6145093236115, 271.28714181176673)),
        7: ((0, 1), (32.124978817937475, 107.12284183827663), (46.09632236384524, 184.87846344405375), (101.67122580150044, 155.72632768633122)),
        8: ((2,), (113.63209353736279, 93.51711211938479), (178.75484006304188, 155.79200242832007), (86.54433815790408, 40.235068593577815)),
        9: ((2,), (201.11374894777833, 102.80801850605683), (366.5652372269488, 192.90967130512658), (65.5872000194263, 0.0)),
    }

    @pytest.mark.parametrize("seed", sorted(RECORDED))
    def test_matches_recorded_values(self, seed):
        rng = np.random.default_rng(seed)
        n, t = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        scenario, chains = random_instance(rng, k=2, n=n, t=t)
        bs = build_h_belief_set(scenario.initial_states, 2, chains, cap=12)
        solve = solve_gcpbvi if seed % 2 else solve_cpbvi
        policy = solve(scenario, chains, belief_set=bs)
        fb = bs.points[int(rng.integers(len(bs)))]
        epoch = int(rng.integers(1, scenario.horizon + 1))
        actions = all_actions(2)
        action = actions[int(rng.integers(len(actions)))]
        selected, q, q_all, value = self.RECORDED[seed]
        assert action.selected == selected
        assert exact_policy_value(policy, scenario, chains, fb, epoch, action) == q
        assert exact_policy_value(policy, scenario, chains, fb, epoch, actions[-1]) == q_all
        assert exact_policy_value(policy, scenario, chains) == value


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


def _loop_pareto(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The sequential frontier rule: the reference for ``_pareto_indices``."""
    order = np.lexsort((np.arange(len(r)), -r, c))
    keep = []
    best = -np.inf
    for i in order:
        if r[i] > best + 1e-15:
            keep.append(i)
            best = r[i]
    return np.asarray(keep, dtype=int)


def _loop_merge(r0, c0, wr, wc, limit, cap, lowest=False):
    """Every branch merged in turn, zero ones included: the reference merge.

    Returns ``(r, c, trace, merged, cap_hits)``; ``r`` is None when a branch
    has no choice within ``limit``, and ``merged`` counts the branches before it.
    """
    r, c = np.array([r0]), np.array([c0])
    trace, hits = [], 0
    for z in range(wr.shape[1]):
        col_r, col_c = wr[:, z], wc[:, z]
        cand = _loop_pareto(col_r, col_c)
        rr = (r[:, None] + col_r[cand][None, :]).ravel()
        cc = (c[:, None] + col_c[cand][None, :]).ravel()
        parents = np.repeat(np.arange(len(r)), len(cand))
        choices = np.tile(cand, len(r))
        ok = cc <= limit
        if not ok.any():
            return None, None, None, z, hits
        rr, cc, parents, choices = rr[ok], cc[ok], parents[ok], choices[ok]
        keep = _loop_pareto(rr, cc)
        if len(keep) > cap:
            hits += 1
            if lowest:
                keep = keep[:cap]
            else:
                keep = keep[np.unique(np.linspace(0, len(keep) - 1, cap).round().astype(int))]
        r, c = rr[keep], cc[keep]
        trace.append((parents[keep], choices[keep]))
    return r, c, trace, wr.shape[1], hits


# rewards at or near the 1e-15 tie margin, exact duplicates and signed zeros
_tie_values = st.sampled_from([0.0, -0.0, 3e-16, 1e-15, 1.5e-15, 2e-15, 2.5e-15, 1.0, 2.0])
_values = st.one_of(
    _tie_values,
    st.integers(-3, 3).map(float),
    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False),
)
_costs = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 5.0, allow_subnormal=False))


def _random_merge_input(rng: np.random.Generator):
    """Branch scores with ties, all-zero columns (some with -0.0) and
    columns where only the cost side is nonzero."""
    m, n_branches = int(rng.integers(1, 7)), int(rng.integers(1, 12))
    if rng.random() < 0.5:
        wr = rng.integers(0, 5, size=(m, n_branches)) * 0.25
        wc = rng.integers(0, 5, size=(m, n_branches)) * 0.25
    else:
        wr = rng.uniform(0.0, 2.0, size=(m, n_branches))
        wc = rng.uniform(0.0, 2.0, size=(m, n_branches))
    dead = rng.random(n_branches) < 0.5
    wr[:, dead] = 0.0
    wc[:, dead] = 0.0
    wr[:, dead & (rng.random(n_branches) < 0.3)] = -0.0
    wr[:, rng.random(n_branches) < 0.1] = 0.0
    rho_r, rho_c = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
    limit = rho_c + float(rng.uniform(0.3, 1.0)) * float(wc.max(axis=0).sum())
    cap = int(rng.choice([1, 2, 3, 2048]))
    return rho_r, rho_c, wr, wc, limit, cap


class TestFrontierMerge:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_values, _costs), max_size=40))
    def test_pareto_indices_matches_loop(self, points):
        r = np.array([p[0] for p in points], dtype=float)
        c = np.array([p[1] for p in points], dtype=float)
        got, expected = _pareto_indices(r, c), _loop_pareto(r, c)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.data())
    def test_column_frontiers_match_per_column(self, m, n_cols, data):
        cells = st.lists(st.tuples(_values, _costs), min_size=m * n_cols, max_size=m * n_cols)
        flat = data.draw(cells)
        wr = np.array([p[0] for p in flat], dtype=float).reshape(m, n_cols)
        wc = np.array([p[1] for p in flat], dtype=float).reshape(m, n_cols)
        got = _column_frontiers(wr, wc)
        assert [g.tolist() for g in got] == [
            _loop_pareto(wr[:, z], wc[:, z]).tolist() for z in range(n_cols)
        ]

    @pytest.mark.parametrize("seed", range(60))
    def test_root_select_matches_full_loop(self, seed):
        rng = np.random.default_rng(seed)
        rho_r, rho_c, wr, wc, limit, cap = _random_merge_input(rng)
        sc = line_scenario(3, (1,))
        engine = _Engine(sc, chains_for_scenario(sc), c_th=limit, frontier_cap=cap)
        limit = engine.c_th + 1e-9 * max(1.0, abs(engine.c_th))

        got = engine._root_select(rho_r, rho_c, wr, wc)

        r, c, trace, merged, hits = _loop_merge(rho_r, rho_c, wr, wc, limit, cap)
        zero = ~(wr.any(axis=0) | wc.any(axis=0))
        assert engine.counters["branch_merges"] == merged
        assert engine.counters["frontier_cap_hits"] == hits
        assert engine.counters["zero_branches_skipped"] == int(zero[:merged].sum())
        if r is None:
            assert got is None
            return
        best = int(np.lexsort((c, -r))[0])
        sigma = np.zeros(len(trace), dtype=int)
        idx = best
        for z in range(len(trace) - 1, -1, -1):
            parents, choices = trace[z]
            sigma[z] = choices[idx]
            idx = int(parents[idx])
        assert got[:2] == (float(r[best]), float(c[best]))
        assert got[2].tolist() == sigma.tolist()

    @pytest.mark.parametrize("seed", range(30))
    def test_lowest_cost_thinning_matches_full_loop(self, seed):
        rng = np.random.default_rng(seed)
        rho_r, rho_c, wr, wc, limit, cap = _random_merge_input(rng)
        got = _merge_branches(rho_r, rho_c, wr, wc, limit, cap, lowest=True)
        r, c, _, merged, hits = _loop_merge(rho_r, rho_c, wr, wc, limit, cap, lowest=True)
        assert (got.merged, got.cap_hits) == (merged, hits)
        if r is None:
            assert got.r is None and got.c is None
        else:
            assert got.r.tobytes() == r.tobytes() and got.c.tobytes() == c.tobytes()

    @pytest.mark.parametrize("seed", range(30))
    def test_element_frontier_best_matches_full_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 4, 2
        sc = line_scenario(n, (1, 3), c_th=float(rng.uniform(50.0, 400.0)))
        cap = int(rng.choice([1, 2, 2048]))
        engine = _Engine(sc, chains_for_scenario(sc), frontier_cap=cap)
        per_relay = []
        for _ in range(k):
            b = rng.dirichlet(np.ones(n))
            b[rng.random(n) < 0.5] = 0.0
            if not b.any():
                b[int(rng.integers(n))] = 1.0
            per_relay.append(b / b.sum())
        fb = FactoredBelief(tuple(per_relay))
        pairs = int(rng.integers(1, 6))
        gr = rng.integers(0, 4, size=(pairs, n**k)) * 40.0
        gc = rng.integers(0, 4, size=(pairs, n**k)) * 30.0
        limit = engine.c_th + 1e-9 * max(1.0, abs(engine.c_th))
        zero = 1e-12 * max(1.0, engine.c_th)
        for e in range(k + 1):
            action = Action((e,))
            hits_before = engine.counters["element_frontier_cap_hits"]
            got = _element_frontier_best(engine, action, fb, engine.anchor(fb, gr, gc))

            rho_r, rho_c = engine.rho(action, fb)
            if rho_c > limit:
                assert got is None
                continue
            sel_axes = tuple(i - 1 for i in action.relays)
            wr = _AnchorScores(gr, fb).scores(sel_axes)
            wc = _AnchorScores(gc, fb).scores(sel_axes)
            r, c, _, _, hits = _loop_merge(rho_r, rho_c, wr, wc, limit, cap)
            assert engine.counters["element_frontier_cap_hits"] - hits_before == hits
            if r is None:
                assert got is None
                continue
            ratios = np.where(c > zero, r / np.maximum(c, zero), np.where(r > zero, np.inf, 0.0))
            best = int(np.lexsort((c, -r, -ratios))[0])
            assert got == (float(r[best]), float(c[best]))


def _fresh_scores(g: np.ndarray, fb: FactoredBelief, sel_axes: tuple[int, ...]) -> np.ndarray:
    """Branch scores from scratch: the unselected axes contracted in descending
    order, then the selected factors multiplied in. The reference scorer."""
    t = g.reshape((-1,) + tuple(b.shape[0] for b in fb.per_relay))
    for ax in sorted(set(range(fb.n_relays)) - set(sel_axes), reverse=True):
        t = np.tensordot(t, fb.per_relay[ax], axes=(ax + 1, 0))
    m = len(sel_axes)
    for pos, ax in enumerate(sel_axes):
        t = t * fb.per_relay[ax].reshape((1,) * (pos + 1) + (-1,) + (1,) * (m - pos - 1))
    return t.reshape(len(g), -1)


class TestAnchorScores:
    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 4), n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_memoised_scores_match_fresh_contraction(self, k, n, seed):
        """Every subset, queried in random order and again, scores bit for bit
        as a fresh contraction, and each query counts its scores once."""
        rng = np.random.default_rng(seed)
        fb = FactoredBelief(tuple(
            np.eye(n)[int(rng.integers(n))] if rng.random() < 0.3 else rng.dirichlet(np.ones(n))
            for _ in range(k)
        ))
        g = rng.uniform(-10.0, 10.0, size=(int(rng.integers(1, 6)), n**k))
        g[:, rng.random(n**k) < 0.2] = 0.0
        subsets = [sel for m in range(k + 1) for sel in itertools.combinations(range(k), m)]
        queries = np.concatenate([
            rng.permutation(len(subsets)), rng.integers(len(subsets), size=len(subsets))
        ])
        counters = {"pair_evaluations": 0}
        scorer = _AnchorScores(g, fb, counters)
        counted = 0
        for i in queries:
            sel_axes = subsets[i]
            got = scorer.scores(sel_axes)
            expected = _fresh_scores(g, fb, sel_axes)
            assert np.array_equal(got, expected) and _same_bits(got, expected)
            counted += expected.size
        assert counters["pair_evaluations"] == counted


class TestTable1Regression:
    """Planned values and counters of the benchmark's table1 solves (h=2)."""

    def test_gcpbvi_cap_32(self, table1_scenario):
        policy = solve_gcpbvi(table1_scenario, h=2, cap=32)
        assert policy.planned_value()[0] == 516.3165516268782
        stats = policy.stats
        assert (stats["branch_merges"], stats["frontier_cap_hits"]) == (8466, 21)
        assert stats["local_mode_selections"] == 32
        assert stats["element_frontier_cap_hits"] == 81
        assert stats["zero_branches_skipped"] == 13064

    def test_cpbvi_cap_12(self, table1_scenario):
        policy = solve_cpbvi(table1_scenario, h=2, cap=12)
        assert policy.planned_value()[0] == 629.2562396336053
        stats = policy.stats
        assert (stats["branch_merges"], stats["frontier_cap_hits"]) == (78432, 0)
        assert stats["local_mode_selections"] == 96
        assert stats["element_frontier_cap_hits"] == 0
        assert stats["zero_branches_skipped"] == 75816


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
