import dataclasses
import json

import numpy as np
import pytest

from relayplan.cli import main
from relayplan.mobility import chains_for_scenario
from relayplan.model import DirectLink, load_scenario, save_scenario, with_single_ue
from relayplan.sim import METRIC_COLUMNS, metrics_rows, monte_carlo, run_multiuser, write_csv
from relayplan.solvers import load_policy


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def tiny_scenario(tmp_path):
    """Small scenario the exact solver and oracle can both handle."""
    path = tmp_path / "tiny.json"
    assert run([
        "generate", "--grid", "2x1", "--relays", "1", "--ues", "1",
        "--eps-fix", "0.6", "--horizon", "2", "--c-th", "300", "--out", path,
    ]) == 0
    return path


class TestGenerate:
    def test_defaults_match_standard_settings(self, tmp_path):
        out = tmp_path / "sc.json"
        assert run(["generate", "--grid", "4x4", "--relays", "3", "--ues", "1", "--out", out]) == 0
        sc = load_scenario(out)
        assert sc.relays[0].eps_fix == 0.7
        assert (sc.r_max, sc.c_max, sc.c_th) == (500.0, 250.0, 1000.0)
        assert (sc.horizon, sc.gamma) == (5, 1.0)
        assert sc.bs_position == (4, 4)
        assert (tmp_path / "generate_manifest.json").exists()

    def test_degenerate_grid_valid(self, tmp_path):
        out = tmp_path / "deg.json"
        assert run(["generate", "--grid", "1x1", "--relays", "1", "--out", out]) == 0
        sc = load_scenario(out)
        assert sc.n_regions == 1

    def test_invalid_eps_fix_exits_2(self, tmp_path):
        out = tmp_path / "bad.json"
        assert run(["generate", "--grid", "2x2", "--relays", "1", "--eps-fix", "1.2", "--out", out]) == 2

    def test_empty_grid_exits_2(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["generate", "--grid", "0x3", "--relays", "1", "--out", out]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("counts", [("-5", "1"), ("2", "-3"), ("0", "1"), ("1", "0")])
    def test_counts_below_1_exit_2(self, tmp_path, capsys, counts):
        out = tmp_path / "g.json"
        relays, ues = counts
        assert run(["generate", "--grid", "4x4", "--relays", relays, "--ues", ues, "--out", out]) == 2
        assert "--relays and --ues must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_direct_cost_without_direct_reward_exits_2(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run(["generate", "--grid", "4x4", "--relays", "1", "--direct-cost", "5", "--out", out]) == 2
        assert "--direct-cost needs --direct-reward" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_direct_reward_alone_costs_0(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["generate", "--grid", "4x4", "--relays", "1", "--direct-reward", "7", "--out", out]) == 0
        assert load_scenario(out).direct_link == DirectLink(7.0, 0.0)

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run(["generate", "--grid", "4x4", "--relays", "2", "--seed", "7", "--out", out])
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    @pytest.mark.parametrize("method", ["exact", "oracle", "cpbvi", "gcpbvi", "centralized"])
    def test_all_methods_on_tiny(self, tiny_scenario, tmp_path, method):
        out = tmp_path / f"{method}.json"
        depth = ["--belief-h", "2"] if method in ("cpbvi", "gcpbvi", "centralized") else []
        assert run(["solve", "--scenario", tiny_scenario, "--method", method, *depth, "--out", out]) == 0
        assert out.exists()
        report = out.with_suffix(".report.txt").read_text()
        assert f"method={method}" in report
        if method in ("cpbvi", "gcpbvi", "centralized"):
            assert "eta_r_bound=" in report
            assert "eta_c_bound=" in report
            assert "belief_points=" in report
            for key in ("branch_merges", "frontier_cap_hits", "local_mode_selections",
                        "pairs_per_epoch", "time_belief_set_s", "time_predict_s",
                        "time_score_s", "time_merge_s", "time_assemble_s",
                        "select_calls", "time_choose_s"):
                assert f"{key}=" in report

    def test_seed_flag_rejected(self, tiny_scenario, tmp_path):
        # solves are deterministic and read no seed
        with pytest.raises(SystemExit):
            run(["solve", "--scenario", tiny_scenario, "--method", "gcpbvi",
                 "--seed", "1", "--out", tmp_path / "p.npz"])

    def test_eps_driven_sizing(self, tiny_scenario, tmp_path):
        out = tmp_path / "eps.json"
        assert run([
            "solve", "--scenario", tiny_scenario, "--method", "gcpbvi",
            "--eps", "50.0", "--out", out,
        ]) == 0
        report = out.with_suffix(".report.txt").read_text()
        assert "belief_h=" in report
        # --eps picks the smallest depth whose printed bounds fit
        stats = dict(line.split("=", 1) for line in report.splitlines())
        assert float(stats["eta_r_bound"]) <= 50.0
        assert float(stats["eta_c_bound"]) <= 50.0

    def test_eps_with_belief_h_exits_2(self, tiny_scenario, tmp_path):
        out = tmp_path / "p.npz"
        with pytest.raises(SystemExit) as exc:
            run([
                "solve", "--scenario", tiny_scenario, "--method", "gcpbvi",
                "--eps", "50.0", "--belief-h", "2", "--out", out,
            ])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["exact", "oracle"])
    @pytest.mark.parametrize("flag", [["--belief-h", "2"], ["--belief-cap", "8"], ["--eps", "50.0"]])
    def test_belief_flags_without_a_belief_set_exit_2(self, tiny_scenario, tmp_path, capsys, method, flag):
        out = tmp_path / "p.npz"
        assert run(["solve", "--scenario", tiny_scenario, "--method", method, *flag, "--out", out]) == 2
        assert f"--method {method} uses no belief set; drop {flag[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_over_cap_exits_3(self, tmp_path):
        big = tmp_path / "big.json"
        run(["generate", "--grid", "4x4", "--relays", "3", "--out", big])
        out = tmp_path / "pol.json"
        assert run(["solve", "--scenario", big, "--method", "oracle", "--out", out]) == 3

    def test_unknown_method_exits_2(self, tiny_scenario, tmp_path):
        assert run([
            "solve", "--scenario", tiny_scenario, "--method", "qlearning",
            "--out", tmp_path / "x.json",
        ]) == 2


class TestSimulate:
    def test_reproducible_table(self, tiny_scenario, tmp_path):
        policy = tmp_path / "pol.json"
        run(["solve", "--scenario", tiny_scenario, "--method", "gcpbvi", "--belief-h", "2", "--out", policy])
        t1, t2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        for out in (t1, t2):
            assert run([
                "simulate", "--scenario", tiny_scenario, "--policy", policy,
                "--runs", "50", "--seed", "7", "--out", out,
            ]) == 0
        assert t1.read_bytes() == t2.read_bytes()
        header = t1.read_text().splitlines()[0]
        assert header == "scenario_id,method,epoch,avg_cum_reward,avg_cum_cost,avg_cum_ee,stderr_reward,runs"

    def test_prints_planned_beside_simulated(self, tiny_scenario, tmp_path, capsys):
        policy = tmp_path / "pol.npz"
        run(["solve", "--scenario", tiny_scenario, "--method", "gcpbvi", "--belief-h", "2", "--out", policy])
        capsys.readouterr()
        assert run([
            "simulate", "--scenario", tiny_scenario, "--policy", policy,
            "--runs", "20", "--seed", "3", "--out", tmp_path / "m.csv",
        ]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        keys = [field.split("=")[0] for field in summary.split()]
        for key in ("avg_cum_reward", "stderr_reward", "planned_reward",
                    "avg_cum_cost", "planned_cost"):
            assert key in keys

    def test_single_run(self, tiny_scenario, tmp_path):
        policy = tmp_path / "pol.json"
        run(["solve", "--scenario", tiny_scenario, "--method", "gcpbvi", "--belief-h", "2", "--out", policy])
        out = tmp_path / "one.csv"
        assert run([
            "simulate", "--scenario", tiny_scenario, "--policy", policy,
            "--runs", "1", "--seed", "3", "--out", out,
        ]) == 0
        assert len(out.read_text().splitlines()) == 3  # header + 2 epochs

    def test_fingerprint_mismatch_exits_2(self, tiny_scenario, tmp_path):
        policy = tmp_path / "pol.json"
        run(["solve", "--scenario", tiny_scenario, "--method", "gcpbvi", "--belief-h", "2", "--out", policy])
        other = tmp_path / "other.json"
        run(["generate", "--grid", "2x1", "--relays", "1", "--eps-fix", "0.5", "--horizon", "2", "--out", other])
        assert run([
            "simulate", "--scenario", other, "--policy", policy,
            "--runs", "5", "--out", tmp_path / "m.csv",
        ]) == 2


    def test_old_json_policy_exits_2(self, tiny_scenario, tmp_path, capsys):
        policy = tmp_path / "old.json"
        policy.write_text(json.dumps({"method": "gcpbvi", "epochs": []}) + "\n")
        assert run([
            "simulate", "--scenario", tiny_scenario, "--policy", policy,
            "--runs", "5", "--out", tmp_path / "m.csv",
        ]) == 2
        assert "relayplan solve" in capsys.readouterr().err


def _rewrite_meta(policy, edit, arrays=lambda members: None) -> None:
    """Apply ``edit`` to the metadata of the policy archive at ``policy``,
    and ``arrays`` to its other members."""
    with np.load(policy) as archive:
        members = {name: archive[name] for name in archive.files}
    meta = json.loads(str(members["meta"]))
    edit(meta)
    members["meta"] = np.array(json.dumps(meta))
    arrays(members)
    with open(policy, "wb") as fh:
        np.savez(fh, **members)


def _empty_epoch(policy, e: int) -> None:
    """Leave epoch ``e`` of the policy archive at ``policy`` without a pair:
    no actions and both stacks of length 0, shaped as a solve writes them."""
    def arrays(members):
        for name in (f"alpha_r_{e}", f"alpha_c_{e}"):
            members[name] = members[name][:0]

    _rewrite_meta(policy, lambda meta: meta["epoch_actions"].__setitem__(e - 1, []), arrays)


class TestPolicyFileChecks:
    """A policy file whose metadata is out of range is refused on load (exit
    2), before ``simulate`` plays anything."""

    def _simulate(self, scenario, method, edit, tmp_path, capsys, arrays=lambda members: None) -> str:
        """``simulate``'s stderr on a ``method`` policy whose metadata
        ``edit`` and whose members ``arrays`` rewrote, checking that it
        exits 2 and writes no CSV."""
        policy = tmp_path / "pol.npz"
        run(["solve", "--scenario", scenario, "--method", method, "--out", policy])
        _rewrite_meta(policy, edit, arrays)
        capsys.readouterr()
        assert run([
            "simulate", "--scenario", scenario, "--policy", policy,
            "--runs", "20", "--seed", "3", "--out", tmp_path / "m.csv",
        ]) == 2
        assert not (tmp_path / "m.csv").exists()
        return capsys.readouterr().err

    def test_gamma_outside_unit_interval(self, tiny_scenario, tmp_path, capsys):
        err = self._simulate(tiny_scenario, "gcpbvi", lambda m: m.update(gamma=7.5), tmp_path, capsys)
        assert "gamma must be in [0, 1], got 7.5" in err

    def test_negative_budget(self, tiny_scenario, tmp_path, capsys):
        err = self._simulate(tiny_scenario, "gcpbvi", lambda m: m.update(c_th=-1.0), tmp_path, capsys)
        assert "c_th must be >= 0, got -1.0" in err

    def test_initial_state_outside_the_grid(self, tiny_scenario, tmp_path, capsys):
        err = self._simulate(tiny_scenario, "gcpbvi", lambda m: m.update(initial_state=[99]), tmp_path, capsys)
        assert "region outside 0..1" in err

    def test_epoch_action_names_an_unknown_relay(self, tiny_scenario, tmp_path, capsys):
        def edit(meta):
            for pairs in meta["epoch_actions"]:
                for actions in pairs:
                    actions[:] = [[0, 7] for _ in actions]

        err = self._simulate(tiny_scenario, "gcpbvi", edit, tmp_path, capsys)
        assert "stored action (0, 7) names an option outside 0..1" in err

    def test_oracle_tree_action_names_an_unknown_relay(self, tiny_scenario, tmp_path, capsys):
        def edit(meta):
            node = meta["tree"]
            while node["children"]:
                node = next(iter(node["children"].values()))
            node["action"] = [0, 7]

        err = self._simulate(tiny_scenario, "oracle", edit, tmp_path, capsys)
        assert "stored action (0, 7) names an option outside 0..1" in err

    def test_epoch_without_a_pair(self, tiny_scenario, tmp_path, capsys):
        policy = tmp_path / "pol.npz"
        run(["solve", "--scenario", tiny_scenario, "--method", "gcpbvi", "--out", policy])
        _empty_epoch(policy, 2)
        capsys.readouterr()
        assert run([
            "simulate", "--scenario", tiny_scenario, "--policy", policy,
            "--runs", "20", "--seed", "3", "--out", tmp_path / "m.csv",
        ]) == 2
        assert not (tmp_path / "m.csv").exists()
        assert "epoch 2 stores no pair" in capsys.readouterr().err

    def test_epoch_option_not_an_integer(self, tiny_scenario, tmp_path, capsys):
        def edit(meta):
            meta["epoch_actions"][0][0] = [[1.5]]

        err = self._simulate(tiny_scenario, "gcpbvi", edit, tmp_path, capsys)
        assert "epoch_actions[0][0][0][0]: expected an integer, got 1.5" in err

    def test_oracle_tree_option_not_an_integer(self, tiny_scenario, tmp_path, capsys):
        err = self._simulate(
            tiny_scenario, "oracle", lambda m: m["tree"].update(action=[0.0]), tmp_path, capsys
        )
        assert "tree.action[0]: expected an integer, got 0.0" in err

    def test_horizon_not_an_integer(self, tiny_scenario, tmp_path, capsys):
        err = self._simulate(tiny_scenario, "gcpbvi", lambda m: m.update(horizon=2.0), tmp_path, capsys)
        assert "horizon: expected an integer, got 2.0" in err

    def test_metadata_not_an_object(self, tiny_scenario, tmp_path, capsys):
        def arrays(members):
            members["meta"] = np.array(json.dumps([1, 2]))

        err = self._simulate(tiny_scenario, "gcpbvi", lambda m: None, tmp_path, capsys, arrays)
        assert "policy metadata is not a JSON object" in err

    def test_chains_not_square(self, tiny_scenario, tmp_path, capsys):
        def arrays(members):
            members["chains"] = members["chains"][:, :, :1]

        err = self._simulate(tiny_scenario, "gcpbvi", lambda m: None, tmp_path, capsys, arrays)
        assert "chains have shape (1, 2, 1), expected (K, n, n)" in err

    @pytest.mark.parametrize("matrix, problem", [
        ([[1.5, -0.5], [0.4, 0.6]], "transition probabilities must lie in [0, 1]"),
        ([[0.6, 0.6], [0.4, 0.6]], "rows must sum to 1"),
    ], ids=["outside-unit-interval", "row-sum"])
    def test_stored_chain_not_stochastic(self, tiny_scenario, tmp_path, capsys, matrix, problem):
        def arrays(members):
            members["chains"] = np.array([matrix])

        err = self._simulate(tiny_scenario, "gcpbvi", lambda m: None, tmp_path, capsys, arrays)
        assert problem in err

    def test_initial_state_of_other_relays(self, tiny_scenario, tmp_path, capsys):
        err = self._simulate(tiny_scenario, "gcpbvi", lambda m: m.update(initial_state=[0, 0]), tmp_path, capsys)
        assert "initial state (0, 0) does not have 1 relays" in err

    def test_epochs_short_of_the_horizon(self, tiny_scenario, tmp_path, capsys):
        err = self._simulate(tiny_scenario, "gcpbvi", lambda m: m.update(horizon=3), tmp_path, capsys)
        assert "2 epochs stored for horizon 3" in err

    def test_neither_epochs_nor_tree(self, tiny_scenario, tmp_path, capsys):
        err = self._simulate(tiny_scenario, "gcpbvi", lambda m: m.update(epoch_actions=None), tmp_path, capsys)
        assert "policy stores neither epoch_actions nor tree" in err

    def test_both_epochs_and_tree(self, tiny_scenario, tmp_path, capsys):
        def edit(meta):
            meta["tree"] = {"action": [0], "children": {}}

        err = self._simulate(tiny_scenario, "gcpbvi", edit, tmp_path, capsys)
        assert "policy stores both epoch_actions and tree" in err

    def test_oracle_tree_not_an_object(self, tiny_scenario, tmp_path, capsys):
        err = self._simulate(tiny_scenario, "oracle", lambda m: m.update(tree=[0, 1]), tmp_path, capsys)
        assert "tree is not a JSON object" in err

    def test_oracle_children_not_an_object(self, tiny_scenario, tmp_path, capsys):
        def edit(meta):
            meta["tree"]["children"] = [meta["tree"]["children"]]

        err = self._simulate(tiny_scenario, "oracle", edit, tmp_path, capsys)
        assert "tree.children is not a JSON object" in err

    def test_oracle_without_its_value(self, tiny_scenario, tmp_path, capsys):
        err = self._simulate(tiny_scenario, "oracle", lambda m: m["stats"].pop("oracle_value_r"), tmp_path, capsys)
        assert "stats.oracle_value_r: expected a number, got None" in err

    def test_stats_not_an_object(self, tiny_scenario, tmp_path, capsys):
        err = self._simulate(tiny_scenario, "oracle", lambda m: m.update(stats=[1, 2]), tmp_path, capsys)
        assert "stats is not a JSON object" in err

    @pytest.mark.parametrize("key", ["0", "0,1,1", "0,2", "-1,1"])
    def test_oracle_child_key_not_an_observation(self, tmp_path, capsys, key):
        """A K = 2 oracle policy whose one child key, "0,1", is rewritten to
        a key of another length or with a region outside 0..1 is refused:
        loaded as it was, the child would never be reached."""
        scenario = tmp_path / "k2.json"
        assert run([
            "generate", "--grid", "2x1", "--relays", "2", "--ues", "1", "--eps-fix", "0.6",
            "--horizon", "2", "--c-th", "300", "--seed", "1", "--out", scenario,
        ]) == 0

        def edit(meta):
            children = meta["tree"]["children"]
            assert list(children) == ["0,1"]
            children[key] = children.pop("0,1")

        err = self._simulate(scenario, "oracle", edit, tmp_path, capsys)
        assert f"tree.children.{key} is not an observation of 2 relays over regions 0..1" in err


class TestCentralizedPolicyFile:
    """``solve --method centralized`` writes a policy of every UE, and
    ``simulate`` plays it as ``run_multiuser`` does."""

    @pytest.fixture
    def two_ues(self, tmp_path):
        path = tmp_path / "two.json"
        assert run([
            "generate", "--grid", "3x2", "--relays", "2", "--ues", "2", "--eps-fix", "0.6",
            "--horizon", "3", "--c-th", "400", "--seed", "5", "--out", path,
        ]) == 0
        return path

    @staticmethod
    def _solve(scenario, method, out):
        assert run([
            "solve", "--scenario", scenario, "--method", method,
            "--belief-h", "2", "--belief-cap", "6", "--out", out,
        ]) == 0
        lines = out.with_suffix(".report.txt").read_text().splitlines()
        return {line.split("=", 1)[0] for line in lines}

    def test_report_keys_match_gcpbvi(self, two_ues, tmp_path):
        central = self._solve(two_ues, "centralized", tmp_path / "central.npz")
        one_ue = tmp_path / "one.json"
        save_scenario(with_single_ue(load_scenario(two_ues), 0), one_ue)
        assert central == self._solve(one_ue, "gcpbvi", tmp_path / "greedy.npz")

    @pytest.mark.parametrize("method", ["exact", "oracle", "cpbvi", "gcpbvi"])
    def test_single_ue_methods_exit_2(self, two_ues, tmp_path, capsys, method):
        out = tmp_path / "p.npz"
        assert run(["solve", "--scenario", two_ues, "--method", method, "--out", out]) == 2
        assert "--method centralized" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_matches_run_multiuser(self, two_ues, tmp_path, capsys):
        policy = tmp_path / "central.npz"
        self._solve(two_ues, "centralized", policy)
        capsys.readouterr()
        out = tmp_path / "m.csv"
        assert run([
            "simulate", "--scenario", two_ues, "--policy", policy,
            "--runs", "25", "--seed", "7", "--out", out,
        ]) == 0
        assert "ues=2" in capsys.readouterr().out.split()
        scenario = load_scenario(two_ues)
        chains = chains_for_scenario(scenario)
        want = run_multiuser(scenario, "centralized", 25, 7, chains, h=2, cap=6)
        got = monte_carlo(load_policy(policy), scenario, 25, 7, chains)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        expected = tmp_path / "want.csv"
        write_csv(metrics_rows(want, scenario.fingerprint(), "centralized"), METRIC_COLUMNS, expected)
        assert out.read_text() == expected.read_text()

    def test_more_ues_than_the_scenario_exits_2(self, two_ues, tmp_path, capsys):
        policy = tmp_path / "central.npz"
        self._solve(two_ues, "centralized", policy)
        one_ue = tmp_path / "one.json"
        save_scenario(with_single_ue(load_scenario(two_ues), 0), one_ue)
        # give the policy the one-UE scenario's fingerprint, so that only its UEs differ
        fingerprint = load_scenario(one_ue).fingerprint()
        _rewrite_meta(policy, lambda meta: meta.update(scenario_fingerprint=fingerprint))
        assert run([
            "simulate", "--scenario", one_ue, "--policy", policy,
            "--runs", "5", "--out", tmp_path / "m.csv",
        ]) == 2
        assert "policy plays 2 UEs" in capsys.readouterr().err

    def test_epoch_without_a_pair_exits_2(self, two_ues, tmp_path, capsys):
        policy = tmp_path / "central.npz"
        self._solve(two_ues, "centralized", policy)
        _empty_epoch(policy, 2)
        capsys.readouterr()
        assert run([
            "simulate", "--scenario", two_ues, "--policy", policy,
            "--runs", "5", "--out", tmp_path / "m.csv",
        ]) == 2
        assert not (tmp_path / "m.csv").exists()
        assert "epoch 2 stores no pair" in capsys.readouterr().err


class TestCompare:
    def test_d2d_vs_cellular_gain_positive(self, tmp_path):
        sc = tmp_path / "sc.json"
        run(["generate", "--grid", "3x3", "--relays", "2", "--seed", "3", "--out", sc])
        out = tmp_path / "cmp.csv"
        assert run([
            "compare", "--scenario", sc, "--modes", "d2d,cellular",
            "--speeds", "1..2", "--runs", "30", "--belief-h", "2", "--out", out,
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("speed,mode_a,value_a")
        for line in lines[1:]:
            gain = float(line.split(",")[5])
            assert gain >= 0.0

    def test_centralized_vs_distributed_single_ue_identical(self, tmp_path):
        sc = tmp_path / "sc.json"
        run([
            "generate", "--grid", "3x1", "--relays", "1", "--ues", "1",
            "--eps-fix", "0.5", "--c-th", "1e9", "--horizon", "3", "--seed", "3", "--out", sc,
        ])
        out = tmp_path / "cmp.csv"
        assert run([
            "compare", "--scenario", sc, "--modes", "centralized,distributed",
            "--speeds", "1..1", "--runs", "20", "--belief-h", "2", "--out", out,
        ]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(float(row[4]), abs=1e-9)

    @pytest.mark.parametrize("modes", ["d2d,cellular", "centralized,distributed"])
    def test_chains_built_once_per_speed(self, tmp_path, monkeypatch, modes):
        import relayplan.cli
        import relayplan.sim

        built = []

        def counted(scenario):
            built.append(scenario)
            return chains_for_scenario(scenario)

        monkeypatch.setattr(relayplan.cli, "chains_for_scenario", counted)
        monkeypatch.setattr(relayplan.sim, "chains_for_scenario", counted)
        sc = tmp_path / "sc.json"
        run(["generate", "--grid", "3x1", "--relays", "1", "--horizon", "2", "--out", sc])
        assert run([
            "compare", "--scenario", sc, "--modes", modes, "--speeds", "1..2",
            "--runs", "3", "--belief-h", "2", "--out", tmp_path / "cmp.csv",
        ]) == 0
        assert [s.relays[0].speed for s in built] == [1, 2]

    def test_d2d_vs_cellular_on_two_ues_exits_2(self, tmp_path, capsys):
        sc = tmp_path / "two.json"
        run(["generate", "--grid", "3x2", "--relays", "2", "--ues", "2", "--seed", "5", "--out", sc])
        out = tmp_path / "cmp.csv"
        assert run([
            "compare", "--scenario", sc, "--modes", "d2d,cellular",
            "--speeds", "1..1", "--runs", "5", "--belief-h", "2", "--out", out,
        ]) == 2
        err = capsys.readouterr().err
        assert "--modes centralized,distributed" in err and "--method" not in err
        assert not out.exists()

    def test_bad_modes_exit_2(self, tiny_scenario, tmp_path):
        assert run([
            "compare", "--scenario", tiny_scenario, "--modes", "a,b",
            "--out", tmp_path / "x.csv",
        ]) == 2

    @pytest.mark.parametrize("speeds", ["abc", "1..x", "", "2,,3", "3..1"])
    def test_bad_speeds_exit_2(self, tiny_scenario, tmp_path, capsys, speeds):
        out = tmp_path / "x.csv"
        assert run([
            "compare", "--scenario", tiny_scenario, "--modes", "d2d,cellular",
            "--speeds", speeds, "--runs", "5", "--out", out,
        ]) == 2
        assert "--speeds" in capsys.readouterr().err
        assert not out.exists()


class TestManifest:
    def test_manifest_holds_the_arguments_as_json(self, tiny_scenario, tmp_path):
        """The arguments given, without the command's function (a memory
        address) or a value turned into its ``str``: the same command writes
        the same manifest."""
        out = tmp_path / "p.npz"
        run(["solve", "--scenario", tiny_scenario, "--method", "gcpbvi", "--belief-h", "2", "--out", out])
        manifest = json.loads((tmp_path / "solve_manifest.json").read_text())
        assert manifest["args"] == {
            "command": "solve", "scenario": str(tiny_scenario), "method": "gcpbvi",
            "belief_h": 2, "out": str(out),
        }


class TestBench:
    def test_table_and_ratio(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--max-k", "10", "--out", out]) == 0
        lines = out.read_text().splitlines()
        last = lines[-1].split(",")
        assert last[0] == "10"
        assert float(last[4]) == pytest.approx(10.24)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "bench.csv"
        run(["bench", "--max-k", "3", "--out", out])
        manifest = json.loads((tmp_path / "bench_manifest.json").read_text())
        assert manifest["command"] == "bench"
        assert str(out) in manifest["outputs"]

    @pytest.mark.parametrize("max_k", ["0", "-1"])
    def test_max_k_below_1_exits_2(self, tmp_path, capsys, max_k):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--max-k", max_k, "--out", out]) == 2
        assert "--max-k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, size", [("--states", "0"), ("--belief-points", "-3")])
    def test_size_below_1_exits_2(self, tmp_path, flag, size):
        assert run(["bench", flag, size, "--out", tmp_path / "bench.csv"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_seed_flag_rejected(self, tmp_path):
        # the closed-form table draws no random numbers
        with pytest.raises(SystemExit):
            run(["bench", "--max-k", "3", "--seed", "1", "--out", tmp_path / "bench.csv"])


class TestCsvFormat:
    """The ``compare`` and ``bench`` tables, byte for byte: header line, then
    one line per row, floats written with ``repr`` and the rest with ``str``."""

    def test_compare_csv(self, tmp_path):
        sc = tmp_path / "sc.json"
        run(["generate", "--grid", "3x3", "--relays", "2", "--seed", "3", "--out", sc])
        out = tmp_path / "cmp.csv"
        assert run([
            "compare", "--scenario", sc, "--modes", "d2d,cellular",
            "--speeds", "1..2", "--runs", "30", "--belief-h", "2", "--out", out,
        ]) == 0
        assert out.read_text() == (
            "speed,mode_a,value_a,mode_b,value_b,relative_gain,stderr_a\n"
            "1,d2d,1175.2314814814813,cellular,833.3333333333333,0.4102777777777777,10.287800878168769\n"
            "2,d2d,1204.398148148148,cellular,833.3333333333333,0.4452777777777778,16.894867506384166\n"
        )

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--max-k", "3", "--out", out]) == 0
        assert out.read_text() == (
            "k,log10_exact,log10_cpbvi,log10_gcpbvi,ratio_cpbvi_gcpbvi,ratio_centralized_distributed\n"
            "1,37.92977945366163,37.92977945366163,39.02668946666969,2.0,1.0\n"
            "2,941.3207964412692,941.3207964412692,39.62874945799765,1.0,4.0\n"
            "3,23518.87150123552,23518.87150123552,39.98093197610901,0.8888888888888888,9.0\n"
        )


class TestExitCodes:
    def test_io_error_exits_4(self, tiny_scenario, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert run([
            "generate", "--grid", "2x2", "--relays", "1",
            "--out", blocker / "sub" / "x.json",
        ]) == 4

    def test_scenario_not_utf8_exits_2(self, tmp_path, capsys):
        """A scenario file that is not UTF-8 (here it starts with a UTF-16
        byte-order mark) is a schema error, not a traceback."""
        scenario = tmp_path / "utf16.json"
        scenario.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        assert run([
            "solve", "--scenario", scenario, "--method", "gcpbvi", "--out", tmp_path / "x.npz",
        ]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "x.npz").exists()

    def test_missing_scenario_exits_4(self, tmp_path):
        assert run([
            "solve", "--scenario", tmp_path / "nope.json", "--method", "gcpbvi",
            "--out", tmp_path / "x.json",
        ]) == 4
