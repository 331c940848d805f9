"""Self-tests of the benchmark: its reference values, its tracer, its metric tables.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relayplan.model import parse_scenario  # noqa: E402
from relayplan.solvers import brute_force_oracle  # noqa: E402


def _random_scenario(rng: np.random.Generator, budget_fits: bool) -> dict:
    """An instance inside the oracle's caps (|S|^K <= 64, T <= 3, K <= 2)."""
    k = int(rng.integers(1, 3))
    gx, gy = [(2, 1), (3, 1), (2, 2)][int(rng.integers(3))] if k == 2 else (
        int(rng.integers(1, 4)), int(rng.integers(1, 3)))
    if gx * gy == 1:
        gx = 2

    def cell():
        return [int(rng.integers(1, gx + 1)), int(rng.integers(1, gy + 1))]

    sc = {
        "grid_x": gx,
        "grid_y": gy,
        "bs_position": cell(),
        "r_max": float(rng.uniform(50, 500)),
        "c_max": float(rng.uniform(50, 250)),
        "c_th": 0.0,
        "horizon": int(rng.integers(1, 3 if k == 2 else 4)),
        "gamma": float(rng.choice([0.9, 1.0])),
        "relays": [
            {"eps_fix": float(rng.uniform(0.1, 0.95)), "speed": int(rng.integers(1, 3)),
             "initial_state": cell()}
            for _ in range(k)
        ],
        "ues": [{"position": cell()}],
    }
    if rng.random() < 0.5:
        sc["direct_link"] = {"reward": float(rng.uniform(0, 50)), "cost": float(rng.uniform(0, 30))}
    cost = reference.select_all(sc)[1]
    sc["c_th"] = cost * float(rng.uniform(1.0, 1.5) if budget_fits else rng.uniform(0.2, 0.9))
    return sc


@pytest.mark.parametrize("budget_fits", [True, False])
def test_select_all_reference_against_oracle(budget_fits):
    rng = np.random.default_rng(20261018 + budget_fits)
    for _ in range(12):
        sc = _random_scenario(rng, budget_fits)
        top = reference.select_all(sc)[0]
        oracle = brute_force_oracle(parse_scenario(sc)).stats["oracle_value_r"]
        if budget_fits:
            assert oracle == pytest.approx(top, rel=1e-9, abs=1e-9), sc
        else:
            assert oracle <= top + 1e-9 * max(1.0, top), sc


def test_reference_values_of_the_workload_scenarios():
    table1 = reference.totals(reference.load(workloads.TABLE1))
    assert table1["select_all_reward"] == pytest.approx(629.2562, abs=1e-4)
    assert table1["select_all_cost_per_ue"][0] == pytest.approx(792.64, abs=1e-2)
    assert table1["cellular_reward"] == 156.25
    multi = reference.totals(reference.load(workloads.MULTIUSER_8B))
    assert multi["select_all_reward"] == pytest.approx(5000.95, abs=1e-2)
    assert multi["cellular_reward"] == pytest.approx(1163.19, abs=1e-2)
    assert min(multi["select_all_cost_per_ue"]) > multi["c_th"]


def test_tracer_restores_every_wrapped_name():
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr in (tracing._resolve(m, p) for m, p in tracing.TRACED)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


SMALL = [
    (workloads.solve_table1, {"gcpbvi_cap": 4, "cpbvi_cap": 2}),
    (workloads.simulate_table1, {"cap": 4, "episodes": 40}),
    (workloads.multiuser_8b, {"cap": 2, "episodes": 4}),
]


@pytest.mark.parametrize("fn, sizes", SMALL, ids=[fn.__name__ for fn, _ in SMALL])
def test_traced_and_untraced_rounds_agree(fn, sizes):
    plain = workloads.Round(time.monotonic())
    fn(plain, 3, **sizes)
    tracer = tracing.Tracer()
    traced = workloads.Round(time.monotonic(), tracer)
    tracer.install()
    try:
        fn(traced, 3, **sizes)
    finally:
        tracer.restore()
    assert plain.outputs == traced.outputs
    assert all(ok for _, ok, _ in plain.ops + traced.ops), plain.ops + traced.ops
    assert tracer.spans and all(span[tracing.END] >= span[tracing.START] for span in tracer.spans)
    layers = tracing.layer_metrics(tracer.spans, traced.decisions, traced.stage_s)
    assert set(layers) == set(run.PER_LAYER) - {"trace.overhead_ratio"}
    assert set(plain.samples) >= {"setup_s", "round_s", "reward_share"}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.ALL)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
