import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import advance_ids, line_scenario, random_chain
from relayplan.belief import (
    DEDUP_TOL,
    FactoredBelief,
    FactorTable,
    Support,
    advance_belief,
    _observable_steps,
    _relay_family,
    attainable_beliefs,
    build_h_belief_set,
    density_bound,
    empirical_density,
    joint_belief,
    update_relay_belief,
)
from relayplan.errors import CapExceededError, ValidationError
from relayplan.mobility import MarkovChain, chains_for_scenario
from relayplan.alpha import expectation
from relayplan.model import (
    Action,
    EMPTY_ACTION,
    UeSpec,
    option_tables,
    total_cost,
    total_reward,
    value_ranges,
)
from relayplan.solvers import horizon_for_eps, pbvi_error_bound, solve_gcpbvi

TWO_STATE = MarkovChain(np.array([[0.9, 0.1], [0.2, 0.8]]))


class TestRelayUpdate:
    def test_prediction(self):
        out = update_relay_belief(np.array([0.5, 0.5]), TWO_STATE, selected=False, obs=None)
        np.testing.assert_allclose(out, [0.55, 0.45], atol=1e-12)

    def test_observed_row_reset(self):
        out = update_relay_belief(np.array([0.5, 0.5]), TWO_STATE, selected=True, obs=1)
        np.testing.assert_allclose(out, TWO_STATE.matrix[1], atol=1e-15)

    def test_identity_chain_observed_is_one_hot(self):
        ident = MarkovChain(np.eye(3))
        out = update_relay_belief(np.ones(3) / 3, ident, selected=True, obs=2)
        np.testing.assert_array_equal(out, [0, 0, 1])

    def test_identity_chain_prediction_unchanged(self):
        ident = MarkovChain(np.eye(3))
        b = np.array([0.2, 0.3, 0.5])
        np.testing.assert_array_equal(
            update_relay_belief(b, ident, selected=False, obs=None), b
        )

    def test_obs_selected_mismatch(self):
        with pytest.raises(ValidationError):
            update_relay_belief(np.array([1.0, 0.0]), TWO_STATE, selected=True, obs=None)
        with pytest.raises(ValidationError):
            update_relay_belief(np.array([1.0, 0.0]), TWO_STATE, selected=False, obs=1)


class TestJointBelief:
    def test_single_relay_identity(self):
        fb = FactoredBelief((np.array([0.3, 0.7]),))
        np.testing.assert_array_equal(joint_belief(fb), [0.3, 0.7])

    def test_one_hot_factors(self):
        fb = FactoredBelief((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        np.testing.assert_array_equal(joint_belief(fb), [0, 1, 0, 0])

    def test_outer_product(self):
        fb = FactoredBelief((np.array([0.5, 0.5]), np.array([0.3, 0.7])))
        np.testing.assert_allclose(joint_belief(fb), [0.15, 0.35, 0.15, 0.35], atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_kron_chain(self, k, n, seed):
        rng = np.random.default_rng(seed)
        fb = FactoredBelief(tuple(
            np.eye(n)[int(rng.integers(n))] if rng.random() < 0.3 else rng.dirichlet(np.ones(n))
            for _ in range(k)
        ))
        expected = np.ones(1)
        for b in fb.per_relay:
            expected = np.kron(expected, b)
        got = joint_belief(fb)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_cap(self):
        fb = FactoredBelief(tuple(np.ones(10) / 10 for _ in range(7)))
        with pytest.raises(CapExceededError):
            joint_belief(fb)

    def test_invalid_factor(self):
        with pytest.raises(ValidationError):
            FactoredBelief((np.array([0.5, 0.4]),))


def _rho(sc, fb, action):
    """Expected immediate (reward, cost) of ``action`` at ``fb``, factored."""
    rewards, costs = option_tables(sc)
    return expectation(rewards[0], action, fb), expectation(costs, action, fb)


class TestBeliefRewardCost:
    def test_empty_action(self):
        sc = line_scenario(3, [1, 2])
        fb = FactoredBelief(tuple(np.ones(3) / 3 for _ in range(2)))
        assert _rho(sc, fb, EMPTY_ACTION) == (0.0, 0.0)

    def test_one_hot_equals_state_totals(self):
        sc = line_scenario(3, [1, 2])
        state = (2, 0)
        fb = FactoredBelief.one_hot(state, 3)
        for action in (Action((1,)), Action((0, 1, 2))):
            r, c = _rho(sc, fb, action)
            assert r == pytest.approx(total_reward(state, action, sc))
            assert c == pytest.approx(total_cost(state, action, sc))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_factored_equals_joint_expectation(self, seed):
        rng = np.random.default_rng(seed)
        sc = line_scenario(3, [1, 2], direct=(float(rng.uniform(0, 30)), 0.0))
        fb = FactoredBelief(tuple(rng.dirichlet(np.ones(3)) for _ in range(2)))
        joint = joint_belief(fb)
        options = [0, 1, 2]
        size = int(rng.integers(0, 4))
        action = Action(tuple(sorted(rng.choice(options, size=size, replace=False).tolist())))
        expected_r = sum(
            joint[i * 3 + j] * total_reward((i, j), action, sc)
            for i in range(3)
            for j in range(3)
        )
        expected_c = sum(
            joint[i * 3 + j] * total_cost((i, j), action, sc)
            for i in range(3)
            for j in range(3)
        )
        r, c = _rho(sc, fb, action)
        assert r == pytest.approx(expected_r, abs=1e-9)
        assert c == pytest.approx(expected_c, abs=1e-9)


class TestObservationProb:
    """Branch probabilities: selecting a relay reveals its current region, so
    a branch's probability is the product of the selected relays' masses at
    the observed regions, and an action without relays has one sure branch."""

    @staticmethod
    def _probs(fb, sel_axes):
        return Support(fb).probs(sel_axes)

    def test_empty_action_single_observation(self):
        fb = FactoredBelief((np.array([0.4, 0.6]),))
        assert self._probs(fb, ()).tolist() == [1.0]

    def test_selected_relay_mass(self):
        fb = FactoredBelief((np.array([0.3, 0.7]),))
        assert self._probs(fb, (0,)) == pytest.approx([0.3, 0.7])

    def test_two_relays_product_and_normalised(self):
        rng = np.random.default_rng(5)
        fb = FactoredBelief((rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))))
        probs = self._probs(fb, (0, 1))
        assert len(probs) == 9
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[0] == pytest.approx(fb.per_relay[0][0] * fb.per_relay[1][0])


@st.composite
def _beliefs_with_zeros(draw):
    """Factored beliefs of one to four relays over two to five regions whose
    factors are zero on some regions, one-hot or fully supported."""
    n = draw(st.integers(2, 5))
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
        factors.append(np.array(weights, dtype=float) / sum(weights))
    return FactoredBelief(tuple(factors))


class TestSupport:
    @settings(max_examples=200, deadline=None)
    @given(_beliefs_with_zeros())
    def test_matches_joint_belief(self, fb):
        """The flat indices are the joint belief's nonzero entries, None when
        it has none that is zero; and the branch probabilities of every
        subset of relays are the nonzero entries of that subset's joint
        belief, bit for bit: of every relay, the joint belief's entries at
        the flat indices."""
        support = Support(fb)
        joint = joint_belief(fb)
        nonzero = np.flatnonzero(joint)
        if len(nonzero) == len(joint):
            assert support.flat is None
        else:
            assert support.flat.tolist() == nonzero.tolist()
        assert support.probs(range(fb.n_relays)).tobytes() == joint[nonzero].tobytes()
        for m in range(fb.n_relays + 1):
            for axes in itertools.combinations(range(fb.n_relays), m):
                sub = joint_belief(FactoredBelief(tuple(fb.per_relay[ax] for ax in axes)))
                assert support.probs(axes).tobytes() == sub[np.flatnonzero(sub)].tobytes()
        for b, index, weights in zip(fb.per_relay, support.index, support.weights):
            assert index.tolist() == np.flatnonzero(b).tolist()
            assert weights.tobytes() == b[index].tobytes()


class TestFilterEquivalence:
    def test_matches_joint_bayes_filter(self):
        """Iterated factored updates equal a brute-force joint filter that
        conditions the joint distribution on the observed current regions
        and then applies the joint transition matrix."""
        rng = np.random.default_rng(42)
        k, n = 2, 3
        chains = [random_chain(rng, n) for _ in range(k)]
        t_joint = np.kron(chains[0].matrix, chains[1].matrix)
        state = (0, 2)
        fb = FactoredBelief.one_hot(state, n)
        joint = joint_belief(fb)
        for _ in range(200):
            size = int(rng.integers(0, k + 1))
            sel = tuple(sorted(rng.choice([1, 2], size=size, replace=False).tolist()))
            action = Action(sel)
            obs = tuple(state[i - 1] if i in sel else None for i in range(1, k + 1))
            fb = advance_belief(fb, chains, action, obs)
            mask = np.ones((n, n))
            for i in sel:
                one = np.zeros(n)
                one[state[i - 1]] = 1.0
                mask = mask * (one.reshape(-1, 1) if i == 1 else one.reshape(1, -1))
            joint_t = joint.reshape(n, n) * mask
            joint = (joint_t / joint_t.sum()).reshape(-1) @ t_joint
            assert np.abs(joint_belief(fb) - joint).max() < 1e-12
            state = tuple(
                int(rng.choice(n, p=chains[i].matrix[state[i]])) for i in range(k)
            )


class TestFactorTable:
    @pytest.mark.parametrize("seed", range(20))
    def test_ids_match_repeated_advance_belief(self, seed):
        """Along random action/observation sequences the id of each relay
        names, bit for bit, the factor repeated ``advance_belief`` computes,
        and the ``Support`` of that belief gathers its nonzero entries
        (no indices when it covers the whole joint space)."""
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        chains = [random_chain(rng, n) for _ in range(k)]
        state = tuple(int(s) for s in rng.integers(n, size=k))
        table = FactorTable(chains)
        fb = FactoredBelief.one_hot(state, n)
        ids = tuple((s, 0) for s in state)
        for _ in range(15):
            for i, (s, m) in enumerate(ids):
                assert table.factor(i, s, m).tobytes() == fb.per_relay[i].tobytes()
            assert all(
                a.tobytes() == b.tobytes()
                for a, b in zip(table.belief(ids).per_relay, fb.per_relay)
            )
            support = Support(table.belief(ids))
            idx, b = support.flat, support.probs(range(k))
            joint = joint_belief(fb)
            want = np.flatnonzero(joint)
            assert (idx is None) == (len(want) == len(joint))
            assert idx is None or idx.tolist() == want.tolist()
            assert b.tobytes() == joint[want].tobytes()
            options = [e for e in range(k + 1) if rng.random() < 0.4]
            action = Action(tuple(options))
            obs = tuple(
                int(rng.integers(n)) if i + 1 in action.relays else None for i in range(k)
            )
            fb = advance_belief(fb, chains, action, obs)
            ids = advance_ids(ids, obs)


class TestBeliefSetConstruction:
    def test_initial_one_hot_first(self):
        bs = build_h_belief_set((0,), 3, [TWO_STATE])
        np.testing.assert_array_equal(bs.points[0].per_relay[0], [1.0, 0.0])

    def test_contains_one_step_rows(self):
        bs = build_h_belief_set((0,), 2, [TWO_STATE])
        keys = {tuple(np.round(p.per_relay[0], 9)) for p in bs.points}
        for row in TWO_STATE.matrix:
            assert tuple(np.round(row, 9)) in keys

    def test_identity_chain_collapses(self):
        bs = build_h_belief_set((1,), 4, [MarkovChain(np.eye(3))])
        assert len(bs) == 1
        np.testing.assert_array_equal(bs.points[0].per_relay[0], [0, 1, 0])

    def test_cap_truncates_with_early_priority(self):
        chains = [TWO_STATE, TWO_STATE]
        full = build_h_belief_set((0, 1), 4, chains, cap=5000)
        capped = build_h_belief_set((0, 1), 4, chains, cap=5)
        assert len(capped) == 5
        for a, b in zip(capped.points, full.points[:5]):
            assert all(np.array_equal(x, y) for x, y in zip(a.per_relay, b.per_relay))

    def test_dedup(self):
        # rank-one chain: all rows identical, so the family is tiny
        chain = MarkovChain(np.array([[0.6, 0.4], [0.6, 0.4]]))
        bs = build_h_belief_set((0,), 6, [chain])
        assert len(bs) == 2

    @pytest.mark.parametrize("seed", range(12))
    def test_family_matches_pairwise_dedup(self, seed):
        """The family keeps what a candidate-by-candidate L1 test against
        every kept row keeps: the same epochs and bitwise the same rows."""
        rng = np.random.default_rng(seed)
        n, h = int(rng.integers(2, 7)), int(rng.integers(1, 40))
        chain = random_chain(rng, n)
        s0 = int(rng.integers(n))
        powers = [np.eye(n)]
        for _ in range(h):
            powers.append(powers[-1] @ chain.matrix)
        steps = _observable_steps(chain, s0)
        family = [(0, np.eye(n)[s0])] + [
            (1 + steps[s] + m, powers[m][s]) for s in range(n) if steps[s] >= 0 for m in range(1, h + 1)
        ]
        family.sort(key=lambda item: item[0])
        want = []
        for epoch, vec in family:
            if all(np.abs(vec - v).sum() > DEDUP_TOL for _, v in want):
                want.append((epoch, vec))
        got = _relay_family(chain, s0, h)
        assert [e for e, _ in got] == [e for e, _ in want]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))


class TestDensity:
    def test_bound_worked_example(self):
        assert density_bound([TWO_STATE], 5) == pytest.approx(2 * 0.7**5 * 3, abs=1e-9)

    def test_bound_two_identical_chains(self):
        assert density_bound([TWO_STATE, TWO_STATE], 5) == pytest.approx(
            2 * density_bound([TWO_STATE], 5)
        )

    def test_bound_vanishes(self):
        assert density_bound([TWO_STATE], 200) < 1e-12

    def test_empirical_below_bound_sample(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            chain = random_chain(rng, int(rng.integers(2, 5)))
            for h in (1, 3, 6):
                bs = build_h_belief_set((0,), h, [chain])
                assert empirical_density(bs, [chain]) <= density_bound([chain], h) + 1e-9

    def test_eigenvalues_computed_once_per_chain(self, monkeypatch):
        """The ergodicity check, the stationary law and the SLEM read one
        cached set of eigenvalue moduli per chain."""
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(1) or eigvals(m))
        chains = [MarkovChain(TWO_STATE.matrix), random_chain(np.random.default_rng(4), 3)]
        density_bound(chains, 5)
        density_bound(chains, 7)
        assert len(calls) == len(chains)

    def test_attainable_beliefs_contains_rows(self):
        beliefs = attainable_beliefs(TWO_STATE, 0, 3)
        assert len(beliefs) == 1 + 2 * 3
        np.testing.assert_array_equal(beliefs[0], [1.0, 0.0])


def _printed_etas(scenario, chains, h):
    """The (eta_r, eta_c) a solve at depth h prints on a whole belief set."""
    r_range, c_range = value_ranges(scenario)
    return pbvi_error_bound(
        density_bound(chains, h), scenario.gamma, scenario.horizon, scenario.n_ues * r_range, c_range
    )


class TestEpsilonSizing:
    """``horizon_for_eps`` picks the smallest depth whose printed eta bounds
    are both within the target."""

    @pytest.mark.parametrize(
        "ues, want", [(((1, 1),), 96), (((1, 1), (2, 1), (1, 2)), 108)], ids=["one_ue", "three_ues"]
    )
    def test_table1_depth_is_the_smallest_that_fits(self, table1_scenario, ues, want):
        sc = dataclasses.replace(table1_scenario, ues=tuple(UeSpec(p) for p in ues))
        chains = chains_for_scenario(sc)
        h = horizon_for_eps(5000.0, sc, chains)
        assert h == want
        assert max(_printed_etas(sc, chains, h)) <= 5000.0 < max(_printed_etas(sc, chains, h - 1))

    def test_monotone_in_eps(self, table1_scenario):
        chains = chains_for_scenario(table1_scenario)
        h_small = horizon_for_eps(500.0, table1_scenario, chains)
        h_large = horizon_for_eps(5000.0, table1_scenario, chains)
        assert h_large < h_small

    def test_clamped_to_one(self, table1_scenario):
        assert horizon_for_eps(1e12, table1_scenario, chains_for_scenario(table1_scenario)) == 1

    def test_discounted_form_differs(self, table1_scenario):
        chains = chains_for_scenario(table1_scenario)
        discounted = dataclasses.replace(table1_scenario, gamma=0.9)
        assert horizon_for_eps(5000.0, discounted, chains) > horizon_for_eps(
            5000.0, table1_scenario, chains
        )

    def test_rank_one_chain_h_is_one(self):
        sc = line_scenario(2, [1])
        chain = MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert horizon_for_eps(0.1, sc, [chain]) == 1

    def test_scenario_sizing_runs(self):
        sc = line_scenario(3, [1], eps_fix=0.5)
        chains = chains_for_scenario(sc)
        h = horizon_for_eps(0.5, sc, chains)
        policy = solve_gcpbvi(sc, chains, h=h)
        assert policy.stats["belief_h"] == h
        assert policy.stats["eta_r_bound"] <= 0.5 and policy.stats["eta_c_bound"] <= 0.5

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_nonpositive_eps_raises(self, table1_scenario, eps):
        with pytest.raises(ValidationError):
            horizon_for_eps(eps, table1_scenario, chains_for_scenario(table1_scenario))
