import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_scenario, random_grid_scenario
from relayplan.errors import SchemaError, ValidationError
from relayplan.model import (
    Action,
    EMPTY_ACTION,
    RelaySpec,
    ScenarioConfig,
    UeSpec,
    all_actions,
    link_metric,
    load_scenario,
    option_tables,
    parse_scenario,
    region_coords,
    region_index,
    relay_cost,
    relay_reward,
    save_scenario,
    scenario_to_dict,
    total_cost,
    total_reward,
    validate_action,
)


class TestScenarioLoading:
    def test_table1_defaults(self, table1_scenario):
        sc = table1_scenario
        assert sc.relays[0].eps_fix == 0.7
        assert sc.r_max == 500.0
        assert sc.c_max == 250.0
        assert sc.c_th == 1000.0
        assert sc.horizon == 5
        assert sc.gamma == 1.0

    def test_gamma_out_of_range(self, table1_scenario, tmp_path):
        data = scenario_to_dict(table1_scenario)
        data["gamma"] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="gamma"):
            load_scenario(path)

    def test_relay_position_out_of_bounds(self, table1_scenario, tmp_path):
        data = scenario_to_dict(table1_scenario)
        data["relays"][0]["initial_state"] = [5, 1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="initial_state"):
            load_scenario(path)

    def test_unknown_key_rejected(self, table1_scenario):
        data = scenario_to_dict(table1_scenario)
        data["wrap_around"] = True
        with pytest.raises(SchemaError, match="wrap_around"):
            parse_scenario(data)

    def test_nested_unknown_key_rejected(self, table1_scenario):
        data = scenario_to_dict(table1_scenario)
        data["relays"][0]["velocity"] = 2
        with pytest.raises(SchemaError, match=r"relays\[0\].velocity"):
            parse_scenario(data)

    def test_round_trip(self, table1_scenario, tmp_path):
        path = tmp_path / "copy.json"
        save_scenario(table1_scenario, path)
        again = load_scenario(path)
        assert again == table1_scenario
        assert again.fingerprint() == table1_scenario.fingerprint()

    def test_eps_fix_out_of_range(self):
        with pytest.raises(ValidationError, match="eps_fix"):
            RelaySpec(eps_fix=1.2, speed=1, initial_state=(1, 1))


class TestRegionIndexing:
    def test_round_trip(self, table1_scenario):
        for idx in range(table1_scenario.n_regions):
            assert region_index(region_coords(idx, table1_scenario), table1_scenario) == idx


class TestLinkMetric:
    def test_colocated_full_rate(self, table1_scenario):
        assert link_metric((1, 1), (1, 1), table1_scenario) == 500.0

    def test_offset_distance(self, table1_scenario):
        # d_x = 2, d_y = 3
        assert link_metric((1, 1), (2, 3), table1_scenario) == pytest.approx(500 / 6)

    def test_far_corner(self, table1_scenario):
        assert link_metric((1, 1), (4, 4), table1_scenario) == pytest.approx(31.25)


class TestRelayRewardCost:
    def test_two_hop_half_min(self, table1_scenario):
        region = region_index((2, 3), table1_scenario)
        assert relay_reward(region, 1, table1_scenario) == pytest.approx(0.5 * min(500 / 6, 500 / 6))

    def test_colocated_with_ue(self, table1_scenario):
        region = region_index((1, 1), table1_scenario)
        assert relay_reward(region, 1, table1_scenario) == pytest.approx(0.5 * min(500.0, 500 / 16))

    def test_index_zero_passthrough(self, table1_scenario):
        assert relay_reward(0, 0, table1_scenario) == pytest.approx(31.25)
        assert relay_cost(0, 0, table1_scenario) == 0.0

    def test_cost_formula(self, table1_scenario):
        assert relay_cost(region_index((2, 3), table1_scenario), 1, table1_scenario) == pytest.approx(50.0)
        assert relay_cost(region_index((4, 4), table1_scenario), 1, table1_scenario) == pytest.approx(125.0)

    def test_invalid_index(self, table1_scenario):
        with pytest.raises(ValidationError):
            relay_reward(0, 9, table1_scenario)

    def test_bounds(self, table1_scenario):
        for i in range(1, table1_scenario.n_relays + 1):
            for s in range(table1_scenario.n_regions):
                assert 0.0 <= relay_reward(s, i, table1_scenario) <= table1_scenario.r_max
                assert 0.0 < relay_cost(s, i, table1_scenario) <= table1_scenario.c_max

    def test_link_metric_non_increasing_per_axis(self, table1_scenario):
        rows = [link_metric((1, 1), (x, 2), table1_scenario) for x in range(1, 5)]
        cols = [link_metric((1, 1), (2, y), table1_scenario) for y in range(1, 5)]
        assert rows == sorted(rows, reverse=True)
        assert cols == sorted(cols, reverse=True)

    def test_reward_is_half_min_of_hops(self, table1_scenario):
        # with the per-hop links non-increasing in distance, half-the-min
        # inherits monotonicity in either hop distance
        for s in range(table1_scenario.n_regions):
            pos = region_coords(s, table1_scenario)
            up = link_metric(table1_scenario.ues[0].position, pos, table1_scenario)
            down = link_metric(pos, table1_scenario.bs_position, table1_scenario)
            assert relay_reward(s, 2, table1_scenario) == pytest.approx(0.5 * min(up, down))


class TestTotals:
    def test_empty_action(self, table1_scenario):
        state = table1_scenario.initial_states
        assert total_reward(state, EMPTY_ACTION, table1_scenario) == 0.0
        assert total_cost(state, EMPTY_ACTION, table1_scenario) == 0.0

    def test_singleton(self, table1_scenario):
        state = table1_scenario.initial_states
        assert total_reward(state, Action((1,)), table1_scenario) == pytest.approx(
            relay_reward(state[0], 1, table1_scenario)
        )
        assert total_cost(state, Action((2,)), table1_scenario) == pytest.approx(
            relay_cost(state[1], 2, table1_scenario)
        )

    def test_pair_sum(self, table1_scenario):
        state = table1_scenario.initial_states
        expected = relay_reward(state[0], 1, table1_scenario) + relay_reward(
            state[1], 2, table1_scenario
        )
        assert total_reward(state, Action((1, 2)), table1_scenario) == pytest.approx(expected)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_additive_over_disjoint_actions(self, seed):
        rng = np.random.default_rng(seed)
        sc = line_scenario(4, [1, 2, 3], direct=(float(rng.uniform(0, 40)), 0.0))
        state = tuple(int(x) for x in rng.integers(0, sc.n_regions, size=3))
        options = list(range(0, 4))
        rng.shuffle(options)
        cut = int(rng.integers(0, 5))
        a, b = Action(tuple(options[:cut])), Action(tuple(options[cut:]))
        union = Action(tuple(options))
        assert total_reward(state, union, sc) == pytest.approx(
            total_reward(state, a, sc) + total_reward(state, b, sc)
        )
        assert total_cost(state, union, sc) == pytest.approx(
            total_cost(state, a, sc) + total_cost(state, b, sc)
        )


class TestOptionTables:
    @pytest.mark.parametrize("direct", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_the_option_values_region_by_region(self, seed, direct):
        sc = random_grid_scenario(np.random.default_rng(seed), 1 + seed % 3, direct)
        rewards, costs = option_tables(sc)
        options, regions = sc.n_relays + 1, sc.n_regions
        assert rewards.shape == (sc.n_ues, options, regions)
        assert costs.shape == (options, regions)
        for i in range(options):
            for s in range(regions):
                assert costs[i, s] == relay_cost(s, i, sc)
                for u in range(sc.n_ues):
                    assert rewards[u, i, s] == relay_reward(s, i, sc, u)
        # the direct link's row is the same in every region
        assert (rewards[:, 0] == rewards[:, :1, 0]).all() and (costs[0] == costs[0, 0]).all()


class TestActions:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValidationError):
            Action((1, 1))

    def test_out_of_range_index(self, table1_scenario):
        with pytest.raises(ValidationError):
            validate_action(Action((4,)), table1_scenario)

    def test_all_actions_count(self):
        assert len(all_actions(2)) == 8
        assert all_actions(1) == [Action(()), Action((0,)), Action((1,)), Action((0, 1))]

    def test_sorted_normal_form(self):
        assert Action((2, 0)).selected == (0, 2)


class TestDirectLinkDefault:
    def test_default_is_full_rate_link(self):
        sc = ScenarioConfig(
            grid_x=4, grid_y=4,
            relays=(RelaySpec(0.7, 1, (2, 2)),),
            ues=(UeSpec((1, 1)),),
            bs_position=(4, 4),
            r_max=500.0, c_max=250.0, c_th=1000.0, horizon=5, gamma=1.0,
        )
        assert sc.direct_reward() == pytest.approx(31.25)
        assert sc.direct_cost() == 0.0
