"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS line with the measured
margin when it succeeds (run with ``pytest -s`` to see the lines as they
happen). Tolerances are fixed here, not calibrated elsewhere.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from conftest import line_scenario, random_chain, random_instance, random_reversible_chain
from relayplan.belief import (
    FactoredBelief,
    advance_belief,
    build_h_belief_set,
    density_bound,
    empirical_density,
    joint_belief,
)
from relayplan.mobility import MarkovChain, build_grid_chain, apply_speed, chains_for_scenario
from relayplan.model import (
    Action,
    RelaySpec,
    ScenarioConfig,
    UeSpec,
    load_scenario,
    scenario_to_dict,
    value_ranges,
)
from relayplan.sim import (
    baseline_cellular,
    complexity_ratio,
    discrete_derivative,
    exact_policy_value,
    monte_carlo,
    run_multiuser,
)
from relayplan.solvers import (
    brute_force_oracle,
    select_pair,
    solve_cpbvi,
    solve_exact,
    solve_gcpbvi,
)

from conftest import REPO_ROOT


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_1_exact_solver_matches_oracle():
    """50 randomized instances, K <= 2, |S| <= 8, T <= 3, gamma in {0.9, 1}:
    the exact backup's value at the one-hot initial belief equals the
    brute-force plan optimum within 1e-9, in under two minutes total."""
    rng = np.random.default_rng(20240801)
    started = time.perf_counter()
    worst = 0.0
    for i in range(50):
        if i % 3 == 0:
            scenario, chains = random_instance(rng, k=2, n=2, t=int(rng.integers(1, 3)))
        elif i % 3 == 1:
            scenario, chains = random_instance(rng, k=1, n=int(rng.integers(2, 4)), t=int(rng.integers(1, 4)))
        else:
            scenario, chains = random_instance(rng, k=1, n=int(rng.integers(4, 9)), t=int(rng.integers(1, 3)))
        exact = solve_exact(scenario, chains)
        oracle = brute_force_oracle(scenario, chains)
        gap = abs(exact.planned_value()[0] - oracle.stats["oracle_value_r"])
        assert gap <= 1e-9, f"instance {i}: gap {gap}\n{scenario_to_dict(scenario)}"
        worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report("criterion 1 (oracle equivalence)", f"worst gap {worst:.2e} over 50 instances in {elapsed:.1f}s")


def test_criterion_2_factored_filter_matches_joint_bayes_filter():
    """Factored belief updates track a joint-state brute-force Bayes filter
    along 1000 simulated epochs within 1e-12."""
    rng = np.random.default_rng(77)
    k, n = 3, 4
    chains = [random_chain(rng, n) for _ in range(k)]
    t_joint = np.ones((1, 1))
    for chain in chains:
        t_joint = np.kron(t_joint, chain.matrix)
    state = (0, 2, 1)
    fb = FactoredBelief.one_hot(state, n)
    joint = joint_belief(fb)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(0, k + 1))
        sel = tuple(sorted(rng.choice(np.arange(1, k + 1), size=size, replace=False).tolist()))
        action = Action(sel)
        obs = tuple(state[i - 1] if i in sel else None for i in range(1, k + 1))
        fb = advance_belief(fb, chains, action, obs)
        mask = np.ones((n,) * k)
        for i in sel:
            one = np.zeros(n)
            one[state[i - 1]] = 1.0
            shape = [1] * k
            shape[i - 1] = n
            mask = mask * one.reshape(shape)
        conditioned = joint.reshape((n,) * k) * mask
        joint = (conditioned / conditioned.sum()).reshape(-1) @ t_joint
        diff = float(np.abs(joint_belief(fb) - joint).sum())
        worst = max(worst, diff)
        assert diff <= 1e-12
        state = tuple(int(rng.choice(n, p=chains[i].matrix[state[i]])) for i in range(k))
    _report("criterion 2 (filter equivalence)", f"worst L1 deviation {worst:.2e} over 1000 epochs")


def test_criterion_3_point_based_error_within_prop_bound():
    """Undiscounted instances: |V_B - V_oracle| at the initial belief stays
    within (T(T+1)/2) * reward-range * measured belief-set density."""
    rng = np.random.default_rng(555)
    checked = 0
    worst_margin = np.inf
    while checked < 50:
        k = int(rng.integers(1, 3))
        n = int(rng.integers(2, 4)) if k == 1 else 2
        t = int(rng.integers(1, 4)) if (k == 1 and n <= 3) else int(rng.integers(1, 3))
        scenario, chains = random_instance(rng, k=k, n=n, t=t, gamma=1.0)
        try:
            if max(c.slem for c in chains) >= 1 - 1e-9:
                continue
        except Exception:
            continue
        h = int(rng.integers(1, t + 3))
        belief_set = build_h_belief_set(scenario.initial_states, h, chains, cap=200)
        point_based = solve_cpbvi(scenario, chains, h=h, cap=200)
        oracle = brute_force_oracle(scenario, chains)
        density = empirical_density(belief_set, chains)
        r_range, _ = value_ranges(scenario)
        bound = t * (t + 1) / 2 * r_range * density
        diff = abs(point_based.planned_value()[0] - oracle.stats["oracle_value_r"])
        assert diff <= bound + 1e-9, f"diff {diff} > bound {bound}\n{scenario_to_dict(scenario)}"
        worst_margin = min(worst_margin, bound - diff + 1e-9)
        checked += 1
    _report("criterion 3 (point-based error bound)", f"50 instances, smallest slack {worst_margin:.3e}")


def test_criterion_4_belief_set_density_within_spectral_bound():
    """Measured attainable-belief density of depth-h sets stays within
    2 * slem^h / pi_min on 50 sampled irreducible chains, h in 1..10."""
    rng = np.random.default_rng(42)
    sampled = 0
    worst_ratio = 0.0
    while sampled < 50:
        kind = sampled % 3
        n = int(rng.integers(2, 6))
        if kind == 0:
            chain = build_grid_chain(n, 1, float(rng.uniform(0.05, 0.95)))
        elif kind == 1:
            chain = apply_speed(
                build_grid_chain(int(rng.integers(2, 4)), int(rng.integers(1, 3)), float(rng.uniform(0.2, 0.9))),
                int(rng.integers(1, 4)),
            )
        else:
            chain = random_reversible_chain(rng, n)
        try:
            if chain.slem >= 1 - 1e-9:
                continue
        except Exception:
            continue
        s0 = int(rng.integers(0, chain.size))
        for h in range(1, 11):
            belief_set = build_h_belief_set((s0,), h, [chain])
            measured = empirical_density(belief_set, [chain])
            bound = density_bound([chain], h)
            assert measured <= bound + 1e-9, (chain.matrix.tolist(), s0, h, measured, bound)
            if bound > 0:
                worst_ratio = max(worst_ratio, measured / bound)
        sampled += 1
    _report("criterion 4 (density bound)", f"50 chains x h=1..10, worst measured/bound {worst_ratio:.3f}")


def test_criterion_5_q_functions_are_monotone_submodular():
    """Both Q functions behave submodularly under solver policies: marginal
    gains are non-negative and shrink as the base selection grows. Any
    violation is logged with the full instance before failing."""
    rng = np.random.default_rng(321)
    violations = []
    checks = 0
    for i in range(100):
        k = 2
        n = int(rng.integers(2, 4))
        t = int(rng.integers(2, 4))
        scenario, chains = random_instance(rng, k=k, n=n, t=t)
        belief_set = build_h_belief_set(scenario.initial_states, 2, chains, cap=12)
        solver = solve_gcpbvi if i % 2 else solve_cpbvi
        policy = solver(scenario, chains, h=2, cap=12)
        fb = belief_set.points[int(rng.integers(0, len(belief_set)))]
        epoch = int(rng.integers(1, t + 1))
        for element in (1, 2):
            rest = [x for x in range(0, k + 1) if x != element]
            for m_size in (0, 1):
                for m_set in itertools.combinations(rest, m_size):
                    extra = [x for x in rest if x not in m_set][:1]
                    for n_set in ([], extra):
                        base = Action(tuple(sorted(m_set)))
                        bigger = Action(tuple(sorted(m_set + tuple(n_set))))
                        d_r, d_c = discrete_derivative(scenario, chains, policy, fb, epoch, element, base)
                        dn_r, dn_c = discrete_derivative(scenario, chains, policy, fb, epoch, element, bigger)
                        checks += 1
                        ok = (
                            d_r >= -1e-9
                            and d_c >= -1e-9
                            and d_r >= dn_r - 1e-9
                            and d_c >= dn_c - 1e-9
                        )
                        if not ok:
                            violations.append(
                                {
                                    "scenario": scenario_to_dict(scenario),
                                    "chains": [c.matrix.tolist() for c in chains],
                                    "policy": policy.method,
                                    "epoch": epoch,
                                    "element": element,
                                    "base": base.selected,
                                    "bigger": bigger.selected,
                                    "deltas": (d_r, dn_r, d_c, dn_c),
                                }
                            )
    for violation in violations:
        print("SUBMODULARITY VIOLATION:", violation)
    assert not violations, f"{len(violations)} violations of {checks} checks"
    _report("criterion 5 (submodularity)", f"{checks} marginal-gain checks on 100 instances, 0 violations")


def test_criterion_6_greedy_values_within_squared_greedy_factor():
    """V_greedy >= (1 - 1/e)^(2 * steps-to-go) * V_point-based at every
    anchor belief and epoch on 100 randomized tiny instances."""
    rng = np.random.default_rng(99)
    checks = 0
    worst = np.inf
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4)) if k <= 2 else 2
        t = int(rng.integers(1, 4))
        scenario, chains = random_instance(rng, k=k, n=n, t=t)
        belief_set = build_h_belief_set(scenario.initial_states, min(t, 3), chains, cap=24)
        point_based = solve_cpbvi(scenario, chains, h=min(t, 3), cap=24)
        greedy = solve_gcpbvi(scenario, chains, h=min(t, 3), cap=24)
        for epoch in range(1, t + 1):
            to_go = t - epoch + 1
            factor = (1 - 1 / math.e) ** (2 * to_go)
            for fb in belief_set.points:
                pb, _ = select_pair(point_based, epoch, fb)
                pg, _ = select_pair(greedy, epoch, fb)
                v_b = pb.evaluate(fb)[0] if pb is not None else 0.0
                v_g = pg.evaluate(fb)[0] if pg is not None else 0.0
                assert v_g >= factor * v_b - 1e-9, (
                    f"epoch {epoch}: {v_g} < {factor * v_b}\n{scenario_to_dict(scenario)}"
                )
                if v_b > 1e-9:
                    worst = min(worst, v_g / v_b)
                checks += 1
    _report("criterion 6 (greedy bound)", f"{checks} checks on 100 instances, worst V_G/V_B {worst:.3f}")


def _table1_with(scenario, n_relays, speed=1):
    return dataclasses.replace(
        scenario,
        relays=tuple(
            dataclasses.replace(r, speed=speed) for r in scenario.relays[:n_relays]
        ),
    )


def test_criterion_7_budget_safety_everywhere():
    """Every solver on every regression scenario keeps the average
    cumulative discounted cost within C_th + 3 standard errors; the
    standard-settings scenario runs 100 realizations."""
    rng = np.random.default_rng(4242)
    table1 = load_scenario(REPO_ROOT / "scenarios" / "table1.json")
    rows = []

    tiny1, tiny1_chains = random_instance(rng, k=1, n=2, t=2, gamma=1.0, c_th=150.0)
    tiny2, tiny2_chains = random_instance(rng, k=2, n=2, t=2, gamma=1.0, c_th=200.0)
    for scenario, chains in ((tiny1, tiny1_chains), (tiny2, tiny2_chains)):
        policies = [
            solve_exact(scenario, chains),
            brute_force_oracle(scenario, chains),
            solve_cpbvi(scenario, chains, h=scenario.horizon, cap=64),
            solve_gcpbvi(scenario, chains, h=scenario.horizon, cap=64),
        ]
        for policy in policies:
            metrics = monte_carlo(policy, scenario, 100, seed=11, chains=chains)
            rows.append((policy.method, scenario.c_th, metrics))

    table1_k2 = _table1_with(table1, 2)
    chains_k2 = chains_for_scenario(table1_k2)
    for solver in (solve_cpbvi, solve_gcpbvi):
        policy = solver(table1_k2, chains_k2, h=2, cap=64)
        metrics = monte_carlo(policy, table1_k2, 100, seed=11, chains=chains_k2)
        rows.append((policy.method, table1_k2.c_th, metrics))

    chains_k3 = chains_for_scenario(table1)
    policy = solve_gcpbvi(table1, chains_k3, h=2, cap=96)
    metrics = monte_carlo(policy, table1, 100, seed=11, chains=chains_k3)
    rows.append((policy.method, table1.c_th, metrics))

    worst_slack = np.inf
    for method, c_th, metrics in rows:
        limit = c_th + 3 * metrics.stderr_cost + 1e-9
        assert metrics.avg_cum_cost <= limit, (method, metrics.avg_cum_cost, c_th)
        worst_slack = min(worst_slack, limit - metrics.avg_cum_cost)
    _report(
        "criterion 7 (budget safety)",
        f"{len(rows)} solver/scenario runs, min slack to C_th+3se {worst_slack:.2f} mW",
    )


def test_criterion_8a_relaying_beats_baseline_across_speeds():
    """Single UE, K=3, 16 regions: relay-enabled reward strictly exceeds the
    always-direct baseline at speeds 1..5 and does not increase with speed
    beyond noise."""
    table1 = load_scenario(REPO_ROOT / "scenarios" / "table1.json")
    started = time.perf_counter()
    results = []
    for speed in range(1, 6):
        scenario = _table1_with(table1, 3, speed=speed)
        chains = chains_for_scenario(scenario)
        policy = solve_gcpbvi(scenario, chains, h=2, cap=96)
        d2d = monte_carlo(policy, scenario, 100, seed=5, chains=chains)
        cell = baseline_cellular(scenario, 100, seed=5, chains=chains)
        assert d2d.avg_cum_reward > cell.avg_cum_reward, (speed, d2d.avg_cum_reward, cell.avg_cum_reward)
        results.append((speed, d2d.avg_cum_reward, d2d.stderr_reward, cell.avg_cum_reward))
    for (v1, r1, s1, _), (v2, r2, s2, _) in zip(results, results[1:]):
        noise = 3 * math.hypot(s1, s2)
        assert r2 <= r1 + noise, f"reward increased beyond noise {v1}->{v2}: {r1} -> {r2}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    gains = [(r - c) / c for _, r, _, c in results]
    _report(
        "criterion 8a (baseline comparison)",
        f"gains at v=1..5: {['%.0f%%' % (100 * g) for g in gains]} in {elapsed:.0f}s",
    )


def test_criterion_8b_distributed_close_to_centralized():
    """Five UEs, four relays, 16 regions: the distributed mode's average
    cumulative reward lands within 10% of the centralized mode's."""
    started = time.perf_counter()
    scenario = ScenarioConfig(
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
    centralized = run_multiuser(scenario, "centralized", n_runs=50, seed=9, h=2, cap=32)
    distributed = run_multiuser(scenario, "distributed", n_runs=50, seed=9, h=2, cap=32)
    gap = abs(centralized.avg_cum_reward - distributed.avg_cum_reward) / centralized.avg_cum_reward
    assert gap <= 0.10, (centralized.avg_cum_reward, distributed.avg_cum_reward)
    for metrics in (centralized, distributed):
        for entry in metrics.per_ue:
            assert entry["avg_cum_cost"] <= scenario.c_th + 3 * entry["stderr_cost"] + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(
        "criterion 8b (centralized vs distributed)",
        f"gap {100 * gap:.1f}% (cent {centralized.avg_cum_reward:.0f}, dist {distributed.avg_cum_reward:.0f}) in {elapsed:.0f}s",
    )


def test_criterion_8c_complexity_model_reductions():
    """The action-enumeration-to-greedy ratio at K=10 lands within a factor
    of two of the reported 12x, and the centralized-to-distributed estimate
    grows monotonically into the reported up-to-150x regime at K=N=10."""
    ratio_10 = complexity_ratio("cpbvi", "gcpbvi", 10)
    assert ratio_10 == pytest.approx(10.24)
    assert max(ratio_10 / 12.0, 12.0 / ratio_10) <= 2.0
    diag = [complexity_ratio("centralized", "distributed", n, {"N": n}) for n in range(2, 11)]
    assert all(b > a for a, b in zip(diag, diag[1:]))
    assert 15.0 <= diag[-1] <= 1500.0
    _report(
        "criterion 8c (complexity reductions)",
        f"greedy ratio {ratio_10:.2f} (target order 12), centralized/distributed at K=N=10: {diag[-1]:.0f}",
    )


def test_criterion_9_monte_carlo_matches_path_enumeration():
    """100k episodes of a capped instance agree with the exact
    path-enumeration expectation within three standard errors."""
    scenario = line_scenario(3, [1], horizon=3, c_th=350.0, eps_fix=0.6, direct=(25.0, 0.0))
    chains = [MarkovChain(np.array([[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.4, 0.5]]))]
    policy = solve_gcpbvi(scenario, chains, h=3)
    exact_r, exact_c = exact_policy_value(policy, scenario, chains)
    metrics = monte_carlo(policy, scenario, 100_000, seed=77, chains=chains)
    z_r = abs(metrics.avg_cum_reward - exact_r) / max(metrics.stderr_reward, 1e-12)
    z_c = abs(metrics.avg_cum_cost - exact_c) / max(metrics.stderr_cost, 1e-12)
    assert abs(metrics.avg_cum_reward - exact_r) <= 3 * metrics.stderr_reward + 1e-9
    assert abs(metrics.avg_cum_cost - exact_c) <= 3 * metrics.stderr_cost + 1e-9
    _report(
        "criterion 9 (Monte-Carlo consistency)",
        f"reward z={z_r:.2f}, cost z={z_c:.2f} over 100000 episodes",
    )
