import functools
import itertools

import numpy as np
import pytest

from conftest import line_scenario, random_instance
from relayplan import solvers
from relayplan.alpha import AlphaPair, tabulate
from relayplan.belief import FactoredBelief, advance_belief, joint_belief
from relayplan.errors import CapExceededError, ValidationError
from relayplan.mobility import MarkovChain
from relayplan.model import Action, EMPTY_ACTION, option_tables, total_cost, total_reward
from relayplan.solvers import _Engine, exact_backup, solve_exact

TWO_STATE = MarkovChain(np.array([[0.9, 0.1], [0.2, 0.8]]))


def _immediates(scenario, action: Action) -> tuple[np.ndarray, np.ndarray]:
    """R(., a) and C(., a) over joint states, flat, tabulated from the
    scenario's option tables."""
    rewards, costs = option_tables(scenario)
    return tabulate(rewards[0], action), tabulate(costs, action)


def _branches(action: Action, k: int, n: int):
    """``(observation, joint-state mask)`` of every observation branch of
    ``action``: the states where its relays report those regions."""
    sel = action.relays
    states = list(itertools.product(range(n), repeat=k))
    for combo in itertools.product(range(n), repeat=len(sel)):
        obs = tuple(combo[sel.index(i)] if i in sel else None for i in range(1, k + 1))
        yield obs, np.array([all(s[i - 1] == z for i, z in zip(sel, combo)) for s in states])


def _branch_source(pair, mask, sources, scenario, chains):
    """The source pair that ``pair`` continues with on the branch ``mask``:
    the one whose prediction ``gamma * T @ alpha`` equals the pair's vectors,
    net of their immediates, on that branch's joint states."""
    (action,) = pair.actions
    t = functools.reduce(np.kron, [chain.matrix for chain in chains])
    imm_r, imm_c = _immediates(scenario, action)
    rest_r = (pair.alpha_r - imm_r)[mask]
    rest_c = (pair.alpha_cs[0] - imm_c)[mask]
    for src in sources:
        pred_r = scenario.gamma * (t @ src.alpha_r)[mask]
        pred_c = scenario.gamma * (t @ src.alpha_cs[0])[mask]
        if np.allclose(rest_r, pred_r, rtol=0, atol=1e-9) and np.allclose(
            rest_c, pred_c, rtol=0, atol=1e-9
        ):
            return src
    raise AssertionError(f"no source pair continues action {action.selected} on {mask}")


class TestImmediatePair:
    def test_empty_action_is_zero(self):
        sc = line_scenario(3, [1, 2])
        alpha_r, alpha_c = _immediates(sc, EMPTY_ACTION)
        assert not alpha_r.any()
        assert not alpha_c.any()

    def test_singleton_tabulation(self):
        sc = line_scenario(3, [2])
        alpha_r, _ = _immediates(sc, Action((1,)))
        for s in range(3):
            assert alpha_r[s] == pytest.approx(total_reward((s,), Action((1,)), sc))

    def test_two_relay_modularity_vs_joint_enumeration(self):
        sc = line_scenario(3, [1, 3])
        action = Action((0, 1, 2))
        alpha_r, alpha_c = _immediates(sc, action)
        for i in range(3):
            for j in range(3):
                flat = i * 3 + j
                assert alpha_r[flat] == pytest.approx(total_reward((i, j), action, sc))
                assert alpha_c[flat] == pytest.approx(total_cost((i, j), action, sc))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            AlphaPair(np.zeros(2), np.array([[-1.0, 0.0]]), (EMPTY_ACTION,))

    @pytest.mark.parametrize("costs, actions", [
        (np.zeros(2), (EMPTY_ACTION,)),
        (np.zeros((2, 2)), (EMPTY_ACTION,)),
        (np.zeros((1, 3)), (EMPTY_ACTION,)),
    ], ids=["flat", "rows", "length"])
    def test_cost_rows_must_match_actions(self, costs, actions):
        with pytest.raises(ValidationError):
            AlphaPair(np.zeros(2), costs, actions)


def _branch_part(engine: _Engine, vec, action: Action, sigma) -> np.ndarray:
    """What a pair of ``action`` assembled by the engine continues with: in
    branch ``z``, the prediction of ``vec`` where ``sigma[z] == 0`` and of the
    zero vector where ``sigma[z] == 1``."""
    vec = np.asarray(vec, dtype=float)
    g = engine.predict(np.array([vec, np.zeros_like(vec)]))
    sel_axes = tuple(i - 1 for i in action.relays)
    every_region = [range(engine.n)] * len(sel_axes)
    (out,) = engine.gather(g.reshape((1, 2) + engine.shape), sel_axes, np.asarray(sigma), every_region)
    return out


class TestBackproject:
    """A branch continuation is the one-step prediction masked to the joint
    states whose selected relays sit in the observed regions."""

    @staticmethod
    def _engine(gamma: float) -> _Engine:
        return _Engine(line_scenario(2, [1], gamma=gamma), [TWO_STATE])

    def test_myopic_limit_is_zero(self):
        out = _branch_part(self._engine(0.0), [1.0, 2.0], Action((1,)), [0, 1])
        assert not out.any()

    def test_selected_branch_masks_prediction(self):
        # observing the relay's current region keeps only the matching slice
        # of the one-step prediction
        engine = self._engine(1.0)
        out = _branch_part(engine, [1.0, 0.0], Action((1,)), [0, 1])
        np.testing.assert_allclose(out, [0.9, 0.0], atol=1e-15)
        other = _branch_part(engine, [1.0, 0.0], Action((1,)), [1, 0])
        np.testing.assert_allclose(other, [0.0, 0.2], atol=1e-15)

    def test_unselected_is_pure_prediction(self):
        out = _branch_part(self._engine(1.0), [1.0, 0.0], EMPTY_ACTION, [0])
        np.testing.assert_allclose(out, TWO_STATE.matrix @ np.array([1.0, 0.0]), atol=1e-15)

    def test_branches_partition_the_prediction(self):
        rng = np.random.default_rng(0)
        vec = rng.uniform(0, 5, size=2)
        engine = self._engine(0.9)
        parts = [_branch_part(engine, vec, Action((1,)), sigma) for sigma in ([0, 1], [1, 0])]
        np.testing.assert_allclose(sum(parts), 0.9 * TWO_STATE.matrix @ vec, atol=1e-12)

    def test_linear_in_alpha(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 3, size=2)
        b = rng.uniform(0, 3, size=2)
        engine = self._engine(0.9)
        combined = _branch_part(engine, a + b, Action((1,)), [1, 0])
        separate = (
            _branch_part(engine, a, Action((1,)), [1, 0])
            + _branch_part(engine, b, Action((1,)), [1, 0])
        )
        np.testing.assert_allclose(combined, separate, atol=1e-12)


class TestCrossSum:
    """``exact_backup`` enumerates the cross-sum: one pair per combination of
    per-branch choices, each the immediate pair plus its branch parts."""

    @staticmethod
    def _setup(direct=(0.0, 0.0)):
        sc = line_scenario(2, [1], c_th=1e6, direct=direct)
        # the two sources trade reward against cost, so no choice dominates
        sources = [
            AlphaPair(np.full(2, 10.0), np.full((1, 2), 10.0), (EMPTY_ACTION,)),
            AlphaPair(np.zeros(2), np.zeros((1, 2)), (EMPTY_ACTION,)),
        ]
        return sc, [TWO_STATE], sources

    def test_single_branch_elementwise(self):
        sc, chains, _ = self._setup()
        src = AlphaPair(np.array([2.0, 0.0]), np.array([[1.0, 3.0]]), (EMPTY_ACTION,))
        by_action = {p.actions[0].selected: p for p in exact_backup(_Engine(sc, chains), [src])}
        pair = by_action[()]  # one branch, one choice: no immediate, all prediction
        np.testing.assert_allclose(pair.alpha_r, TWO_STATE.matrix @ src.alpha_r, atol=1e-15)
        np.testing.assert_allclose(pair.alpha_cs[0], TWO_STATE.matrix @ src.alpha_cs[0], atol=1e-15)

    def test_cardinality(self):
        sc, chains, sources = self._setup()
        out = exact_backup(_Engine(sc, chains), sources)
        # two branches with two undominated choices each
        assert sum(p.actions[0].relays == (1,) for p in out) == 4

    def test_numeric(self):
        sc, chains, sources = self._setup(direct=(5.0, 0.0))
        for pair in exact_backup(_Engine(sc, chains), sources):
            (action,) = pair.actions
            expected_r, expected_c = _immediates(sc, action)
            for _, mask in _branches(action, 1, 2):
                child = _branch_source(pair, mask, sources, sc, chains)
                expected_r = expected_r + mask * (TWO_STATE.matrix @ child.alpha_r)
                expected_c = expected_c + mask * (TWO_STATE.matrix @ child.alpha_cs[0])
            np.testing.assert_allclose(pair.alpha_r, expected_r, atol=1e-12)
            np.testing.assert_allclose(pair.alpha_cs[0], expected_c, atol=1e-12)

    def test_cap(self, monkeypatch):
        sc, chains, sources = self._setup()
        monkeypatch.setattr(solvers, "EXACT_CROSS_CAP", 3)
        with pytest.raises(CapExceededError):
            exact_backup(_Engine(sc, chains), sources)


class TestPiecewiseLinearConsistency:
    def _recursive_value(self, pair, later, fb, scenario, chains):
        """Independent Bellman evaluation of a pair's plan over the later
        epochs' pairs ``later``: immediate belief reward plus
        probability-weighted values, at the updated beliefs, of the source
        each branch continues with (``_branch_source``)."""
        b = joint_belief(fb)
        (action,) = pair.actions
        imm_r, imm_c = _immediates(scenario, action)
        r = float(imm_r @ b)
        c = float(imm_c @ b)
        if not later:
            return r, c
        for obs, mask in _branches(action, scenario.n_relays, scenario.n_regions):
            p_z = 1.0
            for i in action.relays:
                p_z *= float(fb.per_relay[i - 1][obs[i - 1]])
            if p_z == 0.0:
                continue
            child = _branch_source(pair, mask, later[0], scenario, chains)
            nxt = advance_belief(fb, chains, action, obs)
            cr, cc = self._recursive_value(child, later[1:], nxt, scenario, chains)
            r += scenario.gamma * p_z * cr
            c += scenario.gamma * p_z * cc
        return r, c

    def test_exact_pairs_match_recursive_bellman(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            scenario, chains = random_instance(rng, k=1, n=2, t=2)
            policy = solve_exact(scenario, chains)
            for epoch, pairs in enumerate(policy.epochs, start=1):
                for pair in pairs[:8]:
                    for _ in range(3):
                        fb = FactoredBelief(tuple(rng.dirichlet(np.ones(2)) for _ in range(1)))
                        direct_r, direct_c = pair.evaluate(fb)
                        rec_r, rec_c = self._recursive_value(
                            pair, policy.epochs[epoch:], fb, scenario, chains
                        )
                        assert direct_r == pytest.approx(rec_r, abs=1e-9)
                        assert direct_c == pytest.approx(rec_c, abs=1e-9)


def test_reward_cost_tensor_shapes():
    sc = line_scenario(3, [1, 2])
    assert _immediates(sc, Action((1, 2)))[0].shape == (9,)
    assert _immediates(sc, EMPTY_ACTION)[1].shape == (9,)
