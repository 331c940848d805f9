import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, line_scenario, random_chain, random_instance
from relayplan import solvers
from relayplan.alpha import AlphaPair, expectation, tabulate
from relayplan.belief import BeliefSet, FactoredBelief, FactorTable, build_h_belief_set, density_bound
from relayplan.errors import CapExceededError, ValidationError
from relayplan.mobility import MarkovChain, chains_for_scenario
from relayplan.model import (
    Action,
    EMPTY_ACTION,
    UeSpec,
    all_actions,
    option_tables,
    relay_cost,
    relay_reward,
    value_ranges,
    with_single_ue,
)
from relayplan.sim import (
    _Agent,
    _simulate,
    _World,
    discrete_derivative,
    exact_policy_value,
    monte_carlo,
    run_multiuser,
    solve_centralized,
)
from relayplan.solvers import (
    PolicySolution,
    _Anchor,
    _column_frontiers,
    _Continuation,
    _distinct_pairs,
    _Engine,
    _pareto_indices,
    _play,
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
        pairs = exact_backup(_Engine(sc, chains), [])
        by_action = {p.actions[0].selected: p for p in pairs}
        for action in all_actions(1):
            if action.selected in by_action:
                np.testing.assert_allclose(
                    by_action[action.selected].alpha_r, tabulate(option_tables(sc)[0][0], action)
                )
        # the best action's pair must survive pruning
        assert (0, 1) in by_action

    def test_equal_pairs_keep_the_first_action(self):
        # a free, zero-reward direct link gives {1} and {0, 1} (and {} and
        # {0}) equal vectors; the first in all_actions order is stored
        sc = line_scenario(2, [1], c_th=1e6, direct=(0.0, 0.0))
        chains = [MarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]))]
        pairs = exact_backup(_Engine(sc, chains), [])
        assert [p.actions[0].selected for p in pairs] == [(), (1,)]

    def test_gamma_zero_reproduces_immediates(self):
        sc = line_scenario(2, [1], gamma=0.0, c_th=1e6)
        chains = [MarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]))]
        engine = _Engine(sc, chains)
        first = exact_backup(engine, [])
        second = exact_backup(engine, first)
        keys_first = {(p.actions, p.alpha_r.tobytes()) for p in first}
        keys_second = {(p.actions, p.alpha_r.tobytes()) for p in second}
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
        point_based = solve_cpbvi(scenario, chains, h=scenario.horizon)
        exact = solve_exact(scenario, chains)
        assert point_based.planned_value()[0] == pytest.approx(
            exact.planned_value()[0], abs=1e-9
        )

    def test_zero_budget_zero_cost_actions_only(self):
        sc = line_scenario(2, [1], c_th=0.0, horizon=2, direct=(10.0, 0.0))
        chains = [MarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]))]
        policy = solve_cpbvi(sc, chains, h=2)
        for pairs in policy.epochs:
            for pair in pairs:
                assert pair.actions[0].selected in ((), (0,))

    def test_one_pair_per_belief_point(self):
        sc = line_scenario(2, [1], horizon=2)
        chains = [MarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]))]
        bs = build_h_belief_set(sc.initial_states, 2, chains)
        out = cpbvi_backup(_Engine(sc, chains), [], bs)
        assert len(out) == len(bs)

    def test_more_than_five_relays_refused(self):
        # 2^(K+1) = 128 actions exceed EXACT_ACTION_CAP; gcpbvi still solves
        sc = line_scenario(2, [1] * 6, horizon=1)
        with pytest.raises(CapExceededError, match="128 candidate actions"):
            solve_cpbvi(sc, h=1)
        assert len(solve_gcpbvi(sc, h=1).epochs) == 1


class TestGreedyArgmax:
    """gcpbvi's greedy admission at horizon 1, where no continuation can
    change it: elements enter best marginal ratio first while the strict
    ``<`` budget test holds or the element is free, an element that would
    break the budget is skipped, and the best single element wins when it
    beats the greedy set."""

    @staticmethod
    def _greedy(sc) -> tuple[AlphaPair, FactoredBelief]:
        fb = FactoredBelief.one_hot(sc.initial_states, sc.n_regions)
        points = BeliefSet(points=[fb], h=1, source_state=sc.initial_states)
        (pair,) = gcpbvi_backup(_Engine(sc, chains_for_scenario(sc)), [], points)
        return pair, fb

    @staticmethod
    def _element(sc, i: int) -> tuple[float, float]:
        s = sc.initial_states[i - 1]
        return relay_reward(s, i, sc), relay_cost(s, i, sc)

    def test_ratio_selection_skips_budget_violator(self):
        sc = line_scenario(4, [2, 4], horizon=1, direct=(0.0, 0.0))
        (r1, c1), (r2, c2) = self._element(sc, 1), self._element(sc, 2)
        assert r1 / c1 != r2 / c2
        first, second = (1, 2) if r1 / c1 > r2 / c2 else (2, 1)
        c_th = self._element(sc, first)[1] + 0.5 * self._element(sc, second)[1]
        pair, fb = self._greedy(dataclasses.replace(sc, c_th=c_th))
        assert pair.actions[0].selected == (first,)
        assert pair.evaluate(fb) == self._element(sc, first)

    def test_zero_budget_admits_free_option(self):
        # 0 + 0 < 0 fails the strict test; a free element enters regardless
        sc = line_scenario(3, [1, 2], horizon=1, c_th=0.0, direct=(10.0, 0.0))
        pair, fb = self._greedy(sc)
        assert pair.actions[0].selected == (0,)
        assert pair.evaluate(fb) == (10.0, 0.0)
        sc = dataclasses.replace(sc, horizon=2)
        chains = chains_for_scenario(sc)
        planned = solve_gcpbvi(sc, chains, h=1).planned_value()
        assert planned == solve_cpbvi(sc, chains, h=1).planned_value() == (20.0, 0.0)
        central = solve_centralized(sc, chains, h=1)
        assert {pair.actions for pairs in central.epochs for pair in pairs} == {(Action((0,)),)}

    def test_single_relay_under_budget(self):
        sc = line_scenario(3, [2], horizon=1, c_th=1e6, direct=(0.0, 0.0))
        pair, _ = self._greedy(sc)
        assert pair.actions[0].selected == (1,)

    def test_strict_vs_nonstrict_boundary(self):
        # a cost equal to the budget fails the strict test a non-strict one passes
        sc = line_scenario(3, [2], horizon=1, direct=(0.0, 0.0))
        _, c1 = self._element(sc, 1)
        at_budget, _ = self._greedy(dataclasses.replace(sc, c_th=c1))
        assert at_budget.actions == (EMPTY_ACTION,)
        above, _ = self._greedy(dataclasses.replace(sc, c_th=float(np.nextafter(c1, np.inf))))
        assert above.actions[0].selected == (1,)

    def test_best_single_element_beats_ratio_greedy(self):
        # relay 1 has the better ratio (50 / 40 against 66.7 / 66.7); once it
        # is in, relay 2 no longer fits, though alone it earns more
        sc = line_scenario(4, [1, 3], horizon=1, direct=(0.0, 0.0))
        (r1, c1), (r2, c2) = self._element(sc, 1), self._element(sc, 2)
        assert r1 / c1 > r2 / c2 and r2 > r1
        c_th = c2 + 0.5 * c1
        assert c1 + c2 > c_th
        pair, fb = self._greedy(dataclasses.replace(sc, c_th=c_th))
        assert pair.actions[0].selected == (2,)
        assert pair.evaluate(fb) == (r2, c2)

    def test_zero_cost_positive_reward_admitted_first(self):
        sc = line_scenario(3, [2], horizon=1, direct=(0.5, 0.0))
        r1, c1 = self._element(sc, 1)
        pair, fb = self._greedy(dataclasses.replace(sc, c_th=1.5 * c1))
        assert pair.actions[0].selected == (0, 1)
        assert pair.evaluate(fb) == pytest.approx((0.5 + r1, c1))


def _chained_epochs(method: str, scenario, chains, belief_set) -> list[list]:
    """The epochs of a cpbvi, gcpbvi or centralized solve over ``belief_set``
    with every backup's per-anchor output kept, copies included."""
    engine = _Engine(scenario, chains)
    backup = cpbvi_backup if method == "cpbvi" else gcpbvi_backup
    horizon = scenario.horizon
    epochs = [None] * horizon
    v = []
    for tau in range(1, horizon + 1):
        v = epochs[horizon - tau] = backup(engine, v, belief_set)
    return epochs


def _pair_bits(pair) -> tuple:
    return pair.actions, pair.alpha_r.tobytes(), pair.alpha_cs.tobytes()


def _first_copies(pairs: list) -> list:
    """The first pair of each distinct (actions, vector bytes), in order."""
    seen = set()
    out = []
    for pair in pairs:
        if _pair_bits(pair) not in seen:
            seen.add(_pair_bits(pair))
            out.append(pair)
    return out


class TestGcpbvi:
    def test_k1_identity_with_slack_budget(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            scenario, chains = random_instance(rng, k=1, c_th=1e9)
            bs = build_h_belief_set(scenario.initial_states, scenario.horizon, chains, cap=30)
            cp = solve_cpbvi(scenario, chains, h=scenario.horizon, cap=30)
            gc = solve_gcpbvi(scenario, chains, h=scenario.horizon, cap=30)
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
            cp = solve_cpbvi(scenario, chains, h=2, cap=16)
            gc = solve_gcpbvi(scenario, chains, h=2, cap=16)
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
            for method in ("cpbvi", "gcpbvi"):
                # each backup's output holds one pair per anchor, in anchor order
                for pairs in _chained_epochs(method, scenario, chains, bs):
                    assert len(pairs) == len(bs)
                    for pair, fb in zip(pairs, bs.points):
                        _, c = pair.evaluate(fb)
                        assert c <= scenario.c_th + 1e-6


def _played(pairs: list, fb: FactoredBelief, budgets: tuple, c_th: float):
    """The pair the execution rule (``solvers._play``) plays at ``fb``
    within ``budgets``, or None where it idles."""
    ranking, j = _play(pairs, fb, budgets, c_th)
    return None if j is None else ranking.pairs[j]


class TestDistinctPairs:
    """Each epoch stores its distinct pairs. Nothing stored, planned or
    played differs from chaining the backups with every copy kept."""

    @staticmethod
    def _relabelled(pair):
        """A pair with the vectors of ``pair`` and UE 0's direct option toggled."""
        options = tuple(sorted(set(pair.actions[0].selected) ^ {0}))
        actions = (Action(options),) + pair.actions[1:]
        return AlphaPair(pair.alpha_r, pair.alpha_cs, actions)

    def _check_epochs(self, epochs: list, reference: list) -> None:
        assert len(epochs) == len(reference)
        for pairs, ref in zip(epochs, reference):
            assert [_pair_bits(p) for p in pairs] == [_pair_bits(p) for p in _first_copies(ref)]
            assert len(set(map(_pair_bits, pairs))) == len(pairs)
            # the actions belong to the key: equal vectors of other actions stay
            relabelled = [self._relabelled(p) for p in ref]
            assert [_pair_bits(p) for p in _distinct_pairs(ref + relabelled)] == [
                _pair_bits(p) for p in _first_copies(ref) + _first_copies(relabelled)
            ]

    @staticmethod
    def _same_pick(got, want) -> bool:
        return (got is None and want is None) or _pair_bits(got) == _pair_bits(want)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_chained_backups_with_copies(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        scenario, chains = random_instance(
            rng, k=int(rng.integers(1, 4)), n=n, t=int(rng.integers(2, 4))
        )
        cap = int(rng.integers(3, 13))
        runs, run_seed = 20, int(rng.integers(1000))
        bs = build_h_belief_set(scenario.initial_states, 2, chains, cap=cap)
        for solve in (solve_cpbvi, solve_gcpbvi):
            policy = solve(scenario, chains, h=2, cap=cap)
            reference = dataclasses.replace(
                policy, epochs=_chained_epochs(policy.method, scenario, chains, bs)
            )
            self._check_epochs(policy.epochs, reference.epochs)
            assert policy.planned_value() == reference.planned_value()
            for epoch in range(1, scenario.horizon + 1):
                for fb in bs.points:
                    (got, action), (want, want_action) = (
                        select_pair(p, epoch, fb) for p in (policy, reference)
                    )
                    assert action == want_action
                    assert self._same_pick(got, want)
            assert exact_policy_value(policy, scenario, chains) == exact_policy_value(
                reference, scenario, chains
            )
            assert dataclasses.asdict(
                monte_carlo(policy, scenario, runs, run_seed, chains)
            ) == dataclasses.asdict(monte_carlo(reference, scenario, runs, run_seed, chains))

        ues = tuple(UeSpec((int(rng.integers(1, n + 1)), 1)) for _ in range(int(rng.integers(1, 3))))
        multi = dataclasses.replace(scenario, ues=ues)
        central = solve_centralized(multi, chains, h=2, cap=cap)
        epochs, bs = central.epochs, build_h_belief_set(multi.initial_states, 2, chains, cap=cap)
        reference = _chained_epochs("centralized", multi, chains, bs)
        self._check_epochs(epochs, reference)
        assert central.planned_value() == dataclasses.replace(
            central, epochs=reference
        ).planned_value()
        budgets = (multi.c_th,) * multi.n_ues
        # the planned value's pair is the pair the rule plays first
        fb0 = FactoredBelief.one_hot(multi.initial_states, multi.n_regions)
        planned, _ = select_pair(central, 1, fb0)
        assert self._same_pick(_played(epochs[0], fb0, budgets, multi.c_th), planned)
        for epoch in range(1, multi.horizon + 1):
            for fb in bs.points:
                got, want = (_played(e[epoch - 1], fb, budgets, multi.c_th) for e in (epochs, reference))
                assert self._same_pick(got, want)
        agent = _Agent(tuple(range(multi.n_ues)), FactorTable(chains), reference, multi.c_th, multi.gamma)
        got = run_multiuser(multi, "centralized", runs, run_seed, chains, h=2, cap=cap)
        want = _simulate([agent], _World(multi, chains, multi.n_ues), runs, run_seed)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


class TestCentralized:
    """The centralized solve is gcpbvi's solve loop for every UE; with one
    UE it is gcpbvi."""

    @pytest.mark.parametrize("seed", range(8))
    def test_one_ue_is_gcpbvi_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        scenario, chains = random_instance(
            rng, k=int(rng.integers(1, 4)), n=int(rng.integers(2, 4)), t=int(rng.integers(2, 4))
        )
        cap = int(rng.integers(3, 13))
        central = solve_centralized(scenario, chains, h=2, cap=cap)
        greedy = solve_gcpbvi(scenario, chains, h=2, cap=cap)
        assert central.method == "centralized" and central.n_ues == 1
        assert len(central.epochs) == len(greedy.epochs)
        for got, want in zip(central.epochs, greedy.epochs):
            assert [_pair_bits(p) for p in got] == [_pair_bits(p) for p in want]
        timings = {key for key in greedy.stats if key.startswith("time_") or key == "wall_time_s"}
        assert set(central.stats) == set(greedy.stats)
        for key in set(greedy.stats) - timings:
            assert central.stats[key] == greedy.stats[key], key
        assert central.planned_value() == greedy.planned_value()

    def test_reward_bound_covers_every_ue(self):
        """``eta_r_bound`` bounds a reward summed over N UEs with N times the
        largest UE's reward range; the per-UE cost bound is unchanged. The
        cap keeps the whole 7 x 7 set, so the bounds are printed."""
        rng = np.random.default_rng(5)
        scenario, chains = random_instance(rng, k=2, n=3, t=2)
        multi = dataclasses.replace(scenario, ues=(UeSpec((1, 1)), UeSpec((3, 1))))
        central = solve_centralized(multi, chains, h=2, cap=49)
        greedy = [solve_gcpbvi(with_single_ue(multi, u), chains, h=2, cap=49) for u in (0, 1)]
        assert (central.n_ues, greedy[0].n_ues) == (2, 1)
        top = max(g.stats["eta_r_bound"] for g in greedy)
        assert central.stats["eta_r_bound"] == pytest.approx(2 * top)
        for g in greedy:
            assert central.stats["eta_c_bound"] == g.stats["eta_c_bound"] > 0.0

    def test_monte_carlo_rejects_more_ues_than_the_scenario(self):
        rng = np.random.default_rng(6)
        scenario, chains = random_instance(rng, k=1, n=3, t=2)
        multi = dataclasses.replace(scenario, ues=(UeSpec((1, 1)), UeSpec((3, 1))))
        central = solve_centralized(multi, chains, h=2, cap=4)
        with pytest.raises(ValidationError, match="plays 2 UEs"):
            monte_carlo(central, scenario, 5, 0, chains)


class TestSolveStats:
    def test_cpbvi_select_calls_every_action_at_every_anchor(self):
        """cpbvi scores each of the 2^(K+1) = 8 actions of K = 2 relays with
        one ``select`` call at each of the 4 anchors, in each of the 3
        epochs: 96 calls."""
        sc = line_scenario(3, (1, 3), horizon=3)
        policy = solve_cpbvi(sc, h=2, cap=4)
        assert policy.stats["belief_points"] == 4
        assert policy.stats["select_calls"] == 3 * 4 * 8

    @pytest.mark.parametrize("method", ["cpbvi", "gcpbvi", "centralized"])
    def test_phases_sum_to_at_most_the_wall_time(self, method):
        """The timed phases never overlap: choosing excludes the scoring and
        merging it calls, so their sum stays within the solve's wall time
        (up to the rounding of seven values to 1e-6 s)."""
        rng = np.random.default_rng(11)
        scenario, chains = random_instance(rng, k=2, n=3, t=3)
        if method == "centralized":
            scenario = dataclasses.replace(scenario, ues=(UeSpec((1, 1)), UeSpec((3, 1))))
        solve = {"cpbvi": solve_cpbvi, "gcpbvi": solve_gcpbvi, "centralized": solve_centralized}[method]
        stats = solve(scenario, chains, h=2, cap=9).stats
        phases = [value for key, value in stats.items() if key.startswith("time_")]
        assert len(phases) == 6 and stats["time_choose_s"] > 0.0 and stats["select_calls"] > 0
        assert sum(phases) <= stats["wall_time_s"] + 7 * 5e-7


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

    @pytest.mark.parametrize("solve", [solve_cpbvi, solve_gcpbvi, solve_centralized])
    def test_printed_on_whole_sets_only(self, solve):
        """The bounds describe the whole h-set (here 7 x 7 products): a cap
        below its size prints None, one that keeps it prints the formula."""
        rng = np.random.default_rng(5)
        scenario, chains = random_instance(rng, k=2, n=3, t=2)
        keys = ("density_bound", "eta_r_bound", "eta_c_bound")
        for cap in (6, 48):
            stats = solve(scenario, chains, h=2, cap=cap).stats
            assert stats["belief_points"] == cap
            assert [stats[key] for key in keys] == [None, None, None]
        r_range, c_range = value_ranges(scenario)
        bound = density_bound(chains, 2)
        for cap in (49, 5000):
            stats = solve(scenario, chains, h=2, cap=cap).stats
            assert stats["belief_points"] == 49
            assert (stats["density_bound"], stats["eta_r_bound"], stats["eta_c_bound"]) == (
                bound, *pbvi_error_bound(bound, scenario.gamma, scenario.horizon, r_range, c_range)
            )


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
        short = brute_force_oracle(dataclasses.replace(scenario, horizon=1), chains)
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
        d_r, d_c = discrete_derivative(sc, chains, policy, fb, 1, 1, EMPTY_ACTION)
        want = sum(p * relay_reward(s, 1, sc) for s, p in enumerate(fb.per_relay[0].tolist()))
        assert d_r == pytest.approx(want, abs=1e-12)

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
        pair, (action,) = select_pair(policy, 1, fb)
        q_r, q_c = exact_policy_value(policy, sc, chains, fb, 1, action)
        r, c = pair.evaluate(fb)
        assert q_r == pytest.approx(r, abs=1e-9)
        assert q_c == pytest.approx(c, abs=1e-9)

    # seed -> (action, its Q, the Q of selecting everything, the policy's
    # value), recorded from the two evaluators this one replaces
    # (``evaluate_q`` and ``exact_policy_value``) on criterion 5's instances;
    # the gcpbvi policy values of seeds 1, 5 and 7 recorded again after the
    # greedy moved to marginal gains, and those of seeds 5 and 7 once more
    # after the execution rule began to carry each branch's planned budget
    RECORDED = {
        0: ((), (312.32857524277904, 212.37491264563965), (486.36595670884526, 334.6036719481817), (361.0426924941678, 218.4812314043868)),
        1: ((0, 1), (319.6055367387059, 158.28378565268804), (425.22207854350563, 202.23039474396546), (426.60003420565903, 211.06620997927612)),
        2: ((), (85.83296255474518, 43.22331992634534), (181.3573493921402, 82.36479418437021), (174.3503795629307, 78.29784273482841)),
        3: ((0,), (151.06793375823017, 53.71676611372923), (359.53292869326197, 103.42841425846619), (413.5040098856489, 95.30130990072581)),
        4: ((0, 2), (316.61604828270526, 99.40754495140504), (419.3299340686086, 127.70939936100696), (643.2681996746521, 186.28156548863132)),
        5: ((1,), (148.16875430229402, 47.889127845116896), (274.2100123822936, 72.85521935590354), (288.9415856103836, 32.10932654606536)),
        6: ((0, 1), (460.25306714185604, 229.5789615099864), (548.6145093236114, 282.1225709557219), (548.6145093236115, 271.28714181176673)),
        7: ((0, 1), (32.124978817937475, 107.12284183827663), (46.09632236384524, 184.87846344405375), (141.21140047254585, 288.13542630550296)),
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
        policy = solve(scenario, chains, h=2, cap=12)
        fb = bs.points[int(rng.integers(len(bs)))]
        epoch = int(rng.integers(1, scenario.horizon + 1))
        actions = all_actions(2)
        action = actions[int(rng.integers(len(actions)))]
        selected, q, q_all, value = self.RECORDED[seed]
        assert action.selected == selected
        assert exact_policy_value(policy, scenario, chains, fb, epoch, action) == q
        assert exact_policy_value(policy, scenario, chains, fb, epoch, actions[-1]) == q_all
        assert exact_policy_value(policy, scenario, chains) == value

    @pytest.mark.parametrize("seed", range(40))
    def test_executed_policy_keeps_budget_and_planned_value(self, seed):
        """By exact path enumeration, every executed policy spends at most
        ``c_th`` in expectation and earns at least its planned value: the
        execution rule passes each branch the budget its plan gave it."""
        rng = np.random.default_rng(seed)
        scenario, chains = random_instance(rng)
        for policy in (
            solve_exact(scenario, chains),
            solve_cpbvi(scenario, chains, h=2, cap=12),
            solve_gcpbvi(scenario, chains, h=2, cap=12),
        ):
            r, c = exact_policy_value(policy, scenario, chains)
            planned_r, _ = policy.planned_value()
            assert c <= scenario.c_th + 1e-9 * max(1.0, scenario.c_th), policy.method
            assert r >= planned_r - 1e-9 * max(1.0, abs(planned_r)), policy.method

    @pytest.mark.parametrize("seed", sorted(RECORDED))
    def test_recorded_policies_within_budget(self, seed):
        rng = np.random.default_rng(seed)
        n, t = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        scenario, _ = random_instance(rng, k=2, n=n, t=t)
        _, cost = self.RECORDED[seed][3]
        assert cost <= scenario.c_th + 1e-9 * max(1.0, scenario.c_th)


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
            AlphaPair(r, c[None], (actions[int(rng.integers(len(actions)))],)) for r, c in vecs
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
            ((-r, c, pair.actions[0].selected), pair)
            for pair in pairs
            for r, c in [pair.evaluate(fb)]
            if c <= c_th + tol
        ]
        expected = min(scored, key=lambda item: item[0])[1] if scored else None

        pair, actions = select_pair(policy, 1, fb)
        assert pair is expected
        assert actions == (expected.actions if expected is not None else (EMPTY_ACTION,))


    def test_every_ue_cost_must_fit(self):
        """The better pair breaks UE 1's budget, so the rule at the full
        budgets, the planned value and the rule at given budgets all take
        the other one."""
        ones = np.ones(2)
        over = AlphaPair(3 * ones, np.array([ones, 5 * ones]), (Action((1,)), Action((1,))))
        fits = AlphaPair(2 * ones, np.array([ones, ones]), (Action((0,)), Action((0,))))
        policy = PolicySolution(
            method="centralized", horizon=1, gamma=1.0, c_th=2.0,
            chains=[MarkovChain(np.eye(2))], scenario_fingerprint="x",
            initial_state=(0,), epochs=[[over, fits]],
        )
        fb = FactoredBelief.one_hot((0,), 2)
        pair, actions = select_pair(policy, 1, fb)
        assert pair is fits and actions == fits.actions
        assert policy.planned_value() == (2.0, 1.0)
        assert _played(policy.epochs[0], fb, (2.0, 2.0), 2.0) is fits


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


def _record_count(r: np.ndarray, c: np.ndarray) -> int:
    """How many points of the frontier sort beat the reward of every point before them."""
    best, count = -np.inf, 0
    for i in np.lexsort((np.arange(len(r)), -r, c)):
        if r[i] > best:
            best, count = r[i], count + 1
    return count


def _loop_merge(r0, c0, wr, wc, limit, cap):
    """Every branch merged in turn: the reference merge.

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
            keep = keep[np.unique(np.linspace(0, len(keep) - 1, cap).round().astype(int))]
        r, c = rr[keep], cc[keep]
        trace.append((parents[keep], choices[keep]))
    return r, c, trace, wr.shape[1], hits


def _traced(trace: list, point: int) -> list[int]:
    """The branch choices of ``point`` of the reference merge's last frontier."""
    sigma = [0] * len(trace)
    for z in range(len(trace) - 1, -1, -1):
        parents, choices = trace[z]
        sigma[z] = int(choices[point])
        point = int(parents[point])
    return sigma


def _merge_matches_loop(wr: np.ndarray, wc: np.ndarray, budget: float, cap: int):
    """``_root_merge`` of an engine whose budget is ``budget`` agrees with the
    reference merge by ``tobytes`` on its points, on both counters and on the
    choices of every point. Returns the continuation."""
    sc = dataclasses.replace(line_scenario(3, (1,)), c_th=budget)
    engine = _Engine(sc, chains_for_scenario(sc))
    limit = engine.c_th + 1e-9 * max(1.0, abs(engine.c_th))
    with mock.patch.object(solvers, "FRONTIER_CAP", cap):
        cont = engine._root_merge(wr, wc)
    r, c, trace, merged, hits = _loop_merge(0.0, 0.0, wr, wc, limit, cap)
    assert engine.counters["branch_merges"] == merged
    assert engine.counters["frontier_cap_hits"] == hits
    if r is None:
        assert cont is None
        return None
    assert cont.r.tobytes() == r.tobytes() and cont.cs[0].tobytes() == c.tobytes()
    for point in range(len(r)):
        assert cont.choices(point).tolist() == _traced(trace, point)
    return cont


@st.composite
def _led_stacks(draw, rows=st.integers(1, 4)):
    """Branch scores whose leading columns each have a dominant row (the
    highest reward at the lowest cost) before columns of free values, and a
    budget that is free or sits at, or just below, a running cost of the
    dominant rows, so it may fail inside the leading run."""
    m, n_cols = draw(rows), draw(st.integers(1, 12))
    run = draw(st.integers(0, n_cols))
    cells = draw(st.lists(st.tuples(_values, _costs), min_size=m * n_cols, max_size=m * n_cols))
    wr = np.array([p[0] for p in cells], dtype=float).reshape(m, n_cols)
    wc = np.array([p[1] for p in cells], dtype=float).reshape(m, n_cols)
    lead = []
    for z in range(run):
        j = draw(st.integers(0, m - 1))
        wr[j, z], wc[j, z] = wr[:, z].max(), wc[:, z].min()
        lead.append(wc[j, z])
    running = np.add.accumulate([0.0] + lead).tolist()
    budget = draw(
        st.one_of(
            st.floats(0.0, 5.0 * n_cols, allow_subnormal=False),
            st.tuples(st.sampled_from(running), st.sampled_from([0.0, 1e-6, 0.5])).map(
                lambda at: max(0.0, at[0] - at[1])
            ),
        )
    )
    return wr, wc, budget, draw(st.sampled_from([1, 2, 2048]))


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
    @given(cap=st.integers(1, 2 * solvers.FRONTIER_CAP), extra=st.integers(1, 200_000))
    def test_thinned_indices_strictly_increase(self, cap, extra):
        """A frontier is thinned only past the cap, where the evenly spaced
        positions step by more than 1, so their rounded indices strictly
        increase from the first point to the last without ``np.unique``."""
        n = cap + extra
        idx = np.linspace(0, n - 1, cap).round().astype(int)
        assert (np.diff(idx) > 0).all()
        assert idx[0] == 0 and idx[-1] == (n - 1 if cap > 1 else 0)

    def test_capped_solve_imports_no_masked_arrays(self):
        """table1 gcpbvi at cap 16 and ``c_th`` 300 thins 76 frontiers in a
        fresh process and leaves ``numpy.ma`` unimported (the first
        ``np.unique`` call of a process imports it)."""
        code = (
            "import dataclasses, sys\n"
            "from relayplan.model import load_scenario\n"
            "from relayplan.solvers import solve_gcpbvi\n"
            f"sc = dataclasses.replace(load_scenario({str(REPO_ROOT / 'scenarios' / 'table1.json')!r}), c_th=300.0)\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "print(solve_gcpbvi(sc, h=2, cap=16).stats['frontier_cap_hits'], 'numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["76", "False"]

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
        lead, rest = _column_frontiers(wr, wc)
        assert [[int(row)] for row in lead] + [g.tolist() for g in rest] == [
            _loop_pareto(wr[:, z], wc[:, z]).tolist() for z in range(n_cols)
        ]
        records = [_record_count(wr[:, z], wc[:, z]) for z in range(n_cols)]
        assert records[: len(lead)] == [1] * len(lead)
        assert len(lead) == n_cols or records[len(lead)] != 1

    @pytest.mark.parametrize("seed", range(60))
    def test_root_select_matches_full_loop(self, seed):
        """The root merge from (0, 0) and a pick under immediates (rho_r,
        rho_c) select what the reference merge does: the best point whose
        total cost fits, traced back to its branch choices."""
        rng = np.random.default_rng(seed)
        rho_r, rho_c, wr, wc, budget, cap = _random_merge_input(rng)
        cont = _merge_matches_loop(wr, wc, budget, cap)
        if cont is None:
            return
        limit = budget + 1e-9 * max(1.0, abs(budget))
        got = cont.pick(rho_r, [rho_c], limit)
        total_r, total_c = rho_r + cont.r, rho_c + cont.cs[0]
        fits = np.flatnonzero(total_c <= limit)
        if not len(fits):
            assert got is None
            return
        best = int(fits[np.lexsort((total_c[fits], -total_r[fits]))[0]])
        assert got == (float(total_r[best]), (float(total_c[best]),), best)

    @settings(max_examples=300, deadline=None)
    @given(_led_stacks())
    def test_folded_merge_matches_loop(self, stack):
        """Leading columns with one running record are folded in one sum, the
        rest merged branch by branch, and the result is the reference
        merge's, including when the budget fails inside the folded run."""
        _merge_matches_loop(*stack)

    @settings(max_examples=200, deadline=None)
    @given(_led_stacks(rows=st.just(1)))
    def test_one_row_stack_folds_whole(self, stack):
        """A stack of one row, as every stored epoch after the first holds on
        the benchmark's solves, merges to one point with no per-branch step."""
        cont = _merge_matches_loop(*stack)
        if cont is not None:
            assert cont.steps == [] and len(cont.r) == 1
            assert cont.choices(0).tolist() == [0] * stack[0].shape[1]

    @pytest.mark.parametrize(
        "wr, wc",
        [
            ([[-0.0, -0.0, -0.0]], [[-0.0, 0.0, -0.0]]),
            ([[1e-15, -0.0, 1e-15, 1e-15]], [[0.0, 1e-15, 0.0, 1e-15]]),
            ([[1e-15, 0.0], [2e-15, 1e-15]], [[0.0, 0.0], [0.0, 0.0]]),
            ([[0.0, 1e-15, 1.0], [-0.0, 2.5e-15, 1.0 + 1e-15]], [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
            ([[1.0] + [1e-16] * 9], [[0.0] * 10]),
            ([[1.0, 1.0, 1.0]], [[0.0, math.nan, 0.0]]),
        ],
    )
    def test_fold_keeps_signed_zeros_ties_and_order(self, wr, wc):
        """The folded sum starts at +0.0 and adds in branch order, as the
        loop does: a run of -0.0 rewards sums to +0.0, ten terms do not sum
        pairwise, and a NaN cost fails the budget."""
        _merge_matches_loop(np.array(wr), np.array(wc), 2.0, 2048)

    @pytest.mark.parametrize("seed", range(30))
    def test_element_frontier_best_matches_full_loop(self, seed, monkeypatch):
        """Each single element, at an anchor whose belief is zero on some
        regions, gets the best point of its relay set's frontier that fits
        the budget after its immediate cost, as the reference merge of the
        anchor's support scores finds it."""
        rng = np.random.default_rng(seed)
        n, k = 4, 2
        sc = line_scenario(n, (1, 3), c_th=float(rng.uniform(50.0, 400.0)))
        cap = int(rng.choice([1, 2, 2048]))
        monkeypatch.setattr(solvers, "FRONTIER_CAP", cap)
        engine = _Engine(sc, chains_for_scenario(sc))
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
        g = np.concatenate([gr, gc])
        limit = engine.c_th + 1e-9 * max(1.0, abs(engine.c_th))
        for e in range(k + 1):
            action = Action((e,))
            hits_before = engine.counters["frontier_cap_hits"]
            got = engine.select(((e,),), _Anchor(engine, fb, g))

            rho_r, rho_c = (expectation(rows, action, fb) for rows in (engine.rewards[0], engine.costs))
            if rho_c > limit:
                assert got is None
                continue
            sel_axes = tuple(i - 1 for i in action.relays)
            w = _Anchor(engine, fb, g).scores(sel_axes)
            r, c, _, _, hits = _loop_merge(0.0, 0.0, w[:pairs], w[pairs:], limit, cap)
            assert engine.counters["frontier_cap_hits"] - hits_before == hits
            if r is None:
                assert got is None
                continue
            total_r, total_c = rho_r + r, rho_c + c
            fits = np.flatnonzero(total_c <= limit)
            if not len(fits):
                assert got is None
                continue
            best = int(fits[np.lexsort((total_c[fits], -total_r[fits]))[0]])
            assert got == (float(total_r[best]), (float(total_c[best]),), best)


def _lexsort_pick(cont: _Continuation, rho_r: float, rho_cs: list[float], limit: float):
    """The pick by sorting every point that fits: the highest total reward,
    ties to the lower summed cost, then the lower index. The reference for
    ``_Continuation.pick``."""
    r = rho_r + cont.r
    cs = np.asarray(rho_cs)[:, None] + cont.cs
    ok = np.flatnonzero((cs <= limit).all(axis=0))
    if not len(ok):
        return None
    best = int(ok[np.lexsort((cs[:, ok].sum(axis=0), -r[ok]))[0]])
    return float(r[best]), tuple(cs[:, best].tolist()), best


def _limit_at(draw, totals: list[float]) -> float:
    """A budget exactly at one of ``totals``, one ulp below it, or anywhere
    around them."""
    at = draw(st.sampled_from(totals))
    kind = draw(st.sampled_from(["at", "ulp", "free"]))
    if kind == "at":
        return at
    if kind == "ulp":
        return math.nextafter(at, -math.inf)
    return draw(st.floats(min(totals) - 1.0, max(totals) + 1.0, allow_nan=False))


_rhos = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e3, 1e6]), st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
)


def _ascending(first: float, steps: np.ndarray) -> np.ndarray:
    """``first + cumsum(steps)`` with ``first`` itself as the first entry, so
    that a -0.0 start stays -0.0; non-decreasing for steps of at least 0."""
    out = first + np.cumsum(steps)
    out[0] = first
    return out


@st.composite
def _frontiers(draw):
    """One UE's continuation as a root merge leaves it: up to 2,048 points,
    costs and rewards ascending. Reward steps of a few 1e-15 at a scale of 1
    tie once a large ``rho_r`` is added; zero steps and -0.0 starts occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.one_of(st.integers(1, 12), st.sampled_from([2047, 2048]), st.integers(1, 2048)))
    steps = {
        "ulps": lambda: 1e-15 * rng.uniform(1.01, 4.0, size),
        "wide": lambda: rng.uniform(0.0, 3.0, size),
        "grid": lambda: rng.integers(0, 3, size) * 0.5,
    }

    def ascending(top_start: float) -> np.ndarray:
        start = draw(st.sampled_from([0.0, -0.0, top_start]))
        return _ascending(start, steps[draw(st.sampled_from(list(steps)))]())

    r, c = ascending(1.0), ascending(2.0)
    rho_r, rho_c = draw(_rhos), draw(_rhos)
    return _Continuation(r, c[None]), rho_r, [rho_c], _limit_at(draw, (rho_c + c).tolist())


@st.composite
def _single_points(draw):
    """The local rule's one point for 1 to 5 UEs, zeros of both signs among
    its costs and immediates."""
    n_ues = draw(st.integers(1, 5))
    parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1e3, allow_subnormal=False))
    r = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_nan=False)))
    cs = [draw(parts) for _ in range(n_ues)]
    rho_cs = [draw(parts) for _ in range(n_ues)]
    totals = [rho + c for rho, c in zip(rho_cs, cs)]
    return _Continuation(np.array([r]), np.array(cs)[:, None]), draw(_rhos), rho_cs, _limit_at(draw, totals)


class TestPick:
    @settings(max_examples=600, deadline=None)
    @given(st.one_of(_frontiers(), _single_points()))
    def test_matches_lexsort_pick(self, case):
        """The bisection pick is the sorted pick, to the bit (``repr`` tells
        -0.0 from 0.0), on frontiers of up to 2,048 points and on one-point
        continuations of up to five UEs, at a budget exactly at a total and
        one ulp below it."""
        cont, rho_r, rho_cs, limit = case
        assert repr(cont.pick(rho_r, rho_cs, limit)) == repr(_lexsort_pick(cont, rho_r, rho_cs, limit))


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


def _random_belief(rng: np.random.Generator, k: int, n: int) -> FactoredBelief:
    """Factors that are one-hot, fully supported or zero on some regions."""
    factors = []
    for _ in range(k):
        b = rng.dirichlet(np.ones(n))
        kind = rng.random()
        if kind < 0.3:
            b = np.eye(n)[int(rng.integers(n))]
        elif kind < 0.7:
            b[rng.random(n) < 0.5] = 0.0
            if not b.any():
                b[int(rng.integers(n))] = 1.0
        factors.append(b / b.sum())
    return FactoredBelief(tuple(factors))


class TestAnchorScores:
    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 4), n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_memoised_scores_match_fresh_contraction(self, k, n, seed):
        """Every relay set scores as a fresh full contraction restricted to
        the branches of positive probability, up to summation order. An
        anchor, queried for every relay set in random order and again,
        scores each set's continuation on the first query only and counts
        those scores once."""
        rng = np.random.default_rng(seed)
        fb = _random_belief(rng, k, n)
        g = rng.uniform(-10.0, 10.0, size=(2 * int(rng.integers(1, 4)), n**k))
        g[:, rng.random(n**k) < 0.2] = 0.0
        subsets = [sel for m in range(k + 1) for sel in itertools.combinations(range(k), m)]
        sc = line_scenario(n, [int(rng.integers(1, n + 1)) for _ in range(k)])
        engine = _Engine(sc, [random_chain(rng, n) for _ in range(k)])
        expected = {}
        scorer = _Anchor(engine, fb, g)
        for sel_axes in subsets:
            got = scorer.scores(sel_axes)
            live = np.ones(1, dtype=bool)
            for ax in sel_axes:
                live = np.multiply.outer(live, fb.per_relay[ax] > 0).ravel()
            expected[sel_axes] = _fresh_scores(g, fb, sel_axes)[:, live]
            assert got.shape == expected[sel_axes].shape
            np.testing.assert_allclose(got, expected[sel_axes], rtol=1e-12, atol=1e-12)
        assert engine.counters["pair_evaluations"] == 0

        anchor = _Anchor(engine, fb, g)
        queries = np.concatenate([
            rng.permutation(len(subsets)), rng.integers(len(subsets), size=len(subsets))
        ])
        first = {}
        for i in queries:
            sel_axes = subsets[i]
            before = engine.counters["pair_evaluations"]
            cont = engine.continuation(anchor, sum(1 << ax for ax in sel_axes))
            counted = engine.counters["pair_evaluations"] - before
            if sel_axes in first:
                assert cont is first[sel_axes] and counted == 0
            else:
                first[sel_axes] = cont
                assert counted == expected[sel_axes].size

    def test_one_hot_axis_is_sliced(self):
        """A one-hot factor's axis is gathered down to its one supported
        region, and a fully one-hot belief scores the empty relay set as the
        stack's column at that joint state, bit for bit."""
        rng = np.random.default_rng(3)
        n = 3
        fb = FactoredBelief((rng.dirichlet(np.ones(n)), np.eye(n)[1], rng.dirichlet(np.ones(n))))
        g = rng.uniform(0.0, 10.0, size=(4, n**3))
        sc = line_scenario(n, [1, 2, 3])
        engine = _Engine(sc, chains_for_scenario(sc))
        assert _Anchor(engine, fb, g).t.shape == (4, n, 1, n)
        scorer = _Anchor(engine, FactoredBelief.one_hot((2, 0, 1), n), g)
        assert scorer.t.shape == (4, 1, 1, 1)
        column = g[:, [np.ravel_multi_index((2, 0, 1), (n,) * 3)]]
        assert _same_bits(scorer.scores(()), column)


def _reference_greedy(engine: _Engine, fb: FactoredBelief, g):
    """The greedy from scratch: each round ranks every element ``e`` by
    re-evaluating ``engine.select(S + {e})`` at a new anchor, admits the
    best one, and the end result is the better of S and the best single
    element of round one. Returns ``(assignment, select's result)``."""
    free = 1e-12 * max(1.0, engine.c_th)
    n_ues = len(engine.rewards)

    def value(assignment):
        return engine.select(assignment, _Anchor(engine, fb, g))

    chosen = ((),) * n_ues
    current = value(chosen)
    rounds = []
    while True:
        base_r = current[0] if current is not None else 0.0
        base_c = sum(current[1]) if current is not None else 0.0
        admissible = []
        for u, e in itertools.product(range(n_ues), range(engine.k + 1)):
            if e in chosen[u]:
                continue
            grown = list(chosen)
            grown[u] = tuple(sorted(chosen[u] + (e,)))
            got = value(tuple(grown))
            if got is None:
                continue
            gain, cost = got[0] - base_r, sum(got[1]) - base_c
            if gain > 0.0 and (got[1][u] < engine.c_th or cost <= free):
                ratio = math.inf if cost <= free else gain / cost
                admissible.append(((-ratio, -gain, u, e), tuple(grown), got))
        if not admissible:
            break
        rounds.append(admissible)
        _, chosen, current = sorted(admissible)[0]
    if rounds:
        single = max(rounds[0], key=lambda item: (item[2][0], [-x for x in item[0][2:]]))
        if single[2][0] > current[0]:
            chosen, current = single[1], single[2]
    return chosen, current


class TestGreedy:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_reference_loop(self, seed):
        """On small random instances with one or two UEs, with and without a
        future, the greedy picks what the from-scratch reference loop picks."""
        rng = np.random.default_rng(seed)
        n_ues = 1 + seed % 2
        k, n = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        sc = line_scenario(
            n, [int(rng.integers(1, n + 1)) for _ in range(k)],
            c_th=float(rng.uniform(20.0, 400.0)), direct=(float(rng.uniform(0, 50)), 0.0),
        )
        sc = dataclasses.replace(sc, ues=tuple(UeSpec((int(rng.integers(1, n + 1)), 1)) for _ in range(n_ues)))
        engine = _Engine(sc, [random_chain(rng, n) for _ in range(k)])
        g = None
        if seed % 3:
            rows = rng.integers(0, 4, size=(int(rng.integers(1, 5)), 1 + n_ues, n**k)) * 40.0
            pairs = [AlphaPair(v[0], v[1:], (EMPTY_ACTION,) * n_ues) for v in rows]
            g = engine.predict_stack(pairs)
        for _ in range(4):
            fb = _random_belief(rng, k, n)
            got = engine.greedy(_Anchor(engine, fb, g))
            chosen, value = _reference_greedy(engine, fb, g)
            if value is None:
                assert got is None
            else:
                assert got == (chosen, value[2])


def _predict_by_moveaxis(engine: _Engine, stack: np.ndarray) -> np.ndarray:
    """The one-step prediction with each relay axis moved to the front and
    contracted by ``tensordot``: the reference for ``_Engine.predict``."""
    t = stack.reshape((-1,) + engine.shape)
    for axis, chain in enumerate(engine.chains):
        t = np.moveaxis(
            np.tensordot(chain.matrix, np.moveaxis(t, axis + 1, 0), axes=(1, 0)), 0, axis + 1
        )
    return engine.gamma * t.reshape(len(stack), -1)


class TestPredict:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 4),
        n=st.integers(2, 16),
        rows=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_moveaxis_reference(self, k, n, rows, seed):
        """Bit for bit the reference for n <= 12 and n = 16; for n = 13..15,
        where BLAS may pick another kernel, within 1e-15 of the entry's scale
        (the reference applied to the absolute values)."""
        rng = np.random.default_rng(seed)
        engine = _Engine(line_scenario(n, [1] * k, gamma=0.9), [random_chain(rng, n) for _ in range(k)])
        stack = rng.uniform(-10.0, 10.0, size=(rows, n**k))
        stack[:, rng.random(n**k) < 0.2] = 0.0
        got = engine.predict(stack)
        expected = _predict_by_moveaxis(engine, stack)
        if n <= 12 or n == 16:
            assert _same_bits(got, expected)
        else:
            scale = _predict_by_moveaxis(engine, np.abs(stack))
            assert np.all(np.abs(got - expected) <= 1e-15 * scale)

    def test_counts_rows_and_times_itself(self):
        engine = _Engine(line_scenario(3, [1, 2]), chains_for_scenario(line_scenario(3, [1, 2])))
        engine.predict(np.ones((4, 9)))
        assert engine.counters["predictions"] == 4
        assert engine.timings["time_predict_s"] > 0.0


class TestTable1Regression:
    """Planned values and counters of the benchmark's table1 solves (h=2)."""

    def test_gcpbvi_cap_32(self, table1_scenario):
        policy = solve_gcpbvi(table1_scenario, h=2, cap=32)
        assert policy.planned_value()[0] == 629.2562396336053
        stats = policy.stats
        assert (stats["branch_merges"], stats["frontier_cap_hits"]) == (2660, 0)
        assert stats["local_mode_selections"] == 128

    def test_cpbvi_cap_12(self, table1_scenario):
        policy = solve_cpbvi(table1_scenario, h=2, cap=12)
        assert policy.planned_value()[0] == 629.2562396336053
        stats = policy.stats
        assert (stats["branch_merges"], stats["frontier_cap_hits"]) == (1308, 0)
        assert stats["local_mode_selections"] == 48


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
        for got, want in zip(again.epochs, policy.epochs):
            assert [p.actions for p in got] == [p.actions for p in want]
            for a, b in zip(got, want):
                assert _same_bits(a.alpha_r, b.alpha_r)
                assert _same_bits(a.alpha_cs, b.alpha_cs)
        assert again.planned_value() == policy.planned_value()
        ran = monte_carlo(policy, scenario, 200, seed=17, chains=chains)
        assert dataclasses.asdict(monte_carlo(again, scenario, 200, seed=17, chains=chains)) == (
            dataclasses.asdict(ran)
        )

    @pytest.mark.parametrize("solve", [solve_exact, solve_cpbvi, solve_gcpbvi])
    def test_version_1_archive_plays_identically(self, tmp_path, solve):
        """A version-1 archive (one action and a (pairs, n^K) cost stack per
        epoch) is read as a policy of one UE, bit for bit."""
        rng = np.random.default_rng(31)
        scenario, chains = random_instance(rng, k=2, n=2, t=2)
        policy = solve(scenario, chains) if solve is solve_exact else solve(scenario, chains, h=2)
        path = tmp_path / "v1.npz"
        save_policy(policy, path)

        def to_version_1(meta):
            meta["format_version"] = 1
            meta["epoch_actions"] = [[acts[0] for acts in epoch] for epoch in meta["epoch_actions"]]

        with np.load(path) as archive:
            costs = {
                f"alpha_c_{e}": archive[f"alpha_c_{e}"][:, 0] for e in range(1, policy.horizon + 1)
            }
        _rewrite_archive(path, to_version_1, **costs)
        with np.load(path) as archive:
            assert archive["alpha_c_1"].ndim == 2
        again = load_policy(path)
        for got, want in zip(again.epochs, policy.epochs, strict=True):
            assert [_pair_bits(p) for p in got] == [_pair_bits(p) for p in want]
        assert again.planned_value() == policy.planned_value()
        assert dataclasses.asdict(monte_carlo(again, scenario, 100, 9, chains)) == (
            dataclasses.asdict(monte_carlo(policy, scenario, 100, 9, chains))
        )

    def test_centralized_round_trip(self, tmp_path):
        rng = np.random.default_rng(37)
        scenario, chains = random_instance(rng, k=2, n=2, t=2)
        multi = dataclasses.replace(scenario, ues=(UeSpec((1, 1)), UeSpec((2, 1))))
        policy = solve_centralized(multi, chains, h=2, cap=6)
        path = tmp_path / "central.npz"
        save_policy(policy, path)
        with np.load(path) as archive:
            assert archive["alpha_c_1"].shape == (len(policy.epochs[0]), 2, 4)
        again = load_policy(path)
        assert again.method == "centralized" and again.n_ues == 2
        for got, want in zip(again.epochs, policy.epochs, strict=True):
            assert [_pair_bits(p) for p in got] == [_pair_bits(p) for p in want]
        assert again.planned_value() == policy.planned_value()

    def test_mixed_ue_counts_rejected(self, tmp_path):
        rng = np.random.default_rng(37)
        scenario, chains = random_instance(rng, k=2, n=2, t=2)
        multi = dataclasses.replace(scenario, ues=(UeSpec((1, 1)), UeSpec((2, 1))))
        path = tmp_path / "central.npz"
        save_policy(solve_centralized(multi, chains, h=2, cap=6), path)

        def one_ue_in_epoch_2(meta):
            meta["epoch_actions"][1] = [acts[:1] for acts in meta["epoch_actions"][1]]

        with np.load(path) as archive:
            costs = archive["alpha_c_2"][:, :1]
        _rewrite_archive(path, one_ue_in_epoch_2, alpha_c_2=costs)
        with pytest.raises(ValidationError, match="numbers of UEs.*relayplan solve"):
            load_policy(path)

    def test_oracle_tree_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        scenario, chains = random_instance(rng, k=1, n=2, t=2)
        oracle = brute_force_oracle(scenario, chains)
        path = tmp_path / "oracle.json"
        save_policy(oracle, path)
        again = load_policy(path)
        assert again.epochs is None
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
        lambda meta: meta.update(format_version=3),
    ], ids=["missing", "unknown"])
    def test_bad_format_version_rejected(self, saved, edit):
        _, path = saved
        _rewrite_archive(path, edit)
        with pytest.raises(ValidationError, match="format version.*relayplan solve"):
            load_policy(path)

    @pytest.mark.parametrize("cut", [
        lambda stack: stack[..., :-1],
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

    def test_archive_with_belief_set_plays_identically(self, tmp_path):
        """Older archives also hold the solve's belief set, as
        ``belief_points`` and ``meta["belief_set"]``; it is ignored."""
        rng = np.random.default_rng(23)
        scenario, chains = random_instance(rng, k=2, n=2, t=2)
        policy = solve_gcpbvi(scenario, chains, h=2)
        bs = build_h_belief_set(scenario.initial_states, 2, chains, cap=5000)
        plain, older = tmp_path / "plain.npz", tmp_path / "older.npz"
        save_policy(policy, plain)
        save_policy(policy, older)

        def with_belief_set(meta):
            meta["belief_set"] = {"h": bs.h, "source_state": list(bs.source_state)}

        points = np.array([np.stack(fb.per_relay) for fb in bs.points])
        _rewrite_archive(older, with_belief_set, belief_points=points)
        with np.load(older) as archive:
            assert archive["belief_points"].shape == (len(bs), 2, 2)
        with np.load(plain) as archive:
            assert "belief_points" not in archive.files
            assert "belief_set" not in json.loads(str(archive["meta"][()]))
        got, want = load_policy(older), load_policy(plain)
        for a, b in zip(got.epochs, want.epochs, strict=True):
            assert [_pair_bits(p) for p in a] == [_pair_bits(p) for p in b]
        assert got.stats == want.stats
        assert got.planned_value() == want.planned_value()
        assert dataclasses.asdict(monte_carlo(got, scenario, 100, 9, chains)) == (
            dataclasses.asdict(monte_carlo(want, scenario, 100, 9, chains))
        )

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
