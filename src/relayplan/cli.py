"""Batch front-end: generate | solve | simulate | compare | bench.

Every command is deterministic given identical inputs; ``generate``,
``simulate`` and ``compare`` draw their random numbers from ``--seed``
(default 12345, a fixed documented constant, never entropy). Outputs are
comma-separated tables plus a JSON run manifest carrying the command, the
scenario fingerprint, seeds, and a version stamp.

Exit codes: 0 success, 2 validation error, 3 size cap exceeded, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CapExceededError, RelayPlanError, ValidationError
from .mobility import chains_for_scenario
from .model import (
    DirectLink,
    RelaySpec,
    ScenarioConfig,
    UeSpec,
    load_scenario,
    save_scenario,
)
from .sim import (
    METRIC_COLUMNS,
    baseline_cellular,
    complexity_log10,
    complexity_ratio,
    metrics_rows,
    monte_carlo,
    run_multiuser,
    solve_centralized,
    write_csv,
)
from .solvers import (
    brute_force_oracle,
    horizon_for_eps,
    load_policy,
    save_policy,
    solve_cpbvi,
    solve_exact,
    solve_gcpbvi,
)

DEFAULT_SEED = 12345

# Defaults for generated scenarios: immobility 0.7, peak rate 500 kbps/RB,
# peak power 250 mW, budget 1000 mW, horizon 5, undiscounted.
GEN_DEFAULTS = {
    "eps_fix": 0.7,
    "r_max": 500.0,
    "c_max": 250.0,
    "c_th": 1000.0,
    "horizon": 5,
    "gamma": 1.0,
}


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        sx, sy = text.lower().split("x")
        grid = int(sx), int(sy)
    except Exception as exc:
        raise ValidationError(f"--grid expects AxB (e.g. 4x4), got {text!r}") from exc
    if min(grid) < 1:
        raise ValidationError(f"--grid dimensions must be >= 1, got {text!r}")
    return grid


def _parse_speeds(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            speeds = list(range(int(lo), int(hi) + 1))
        else:
            speeds = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(
            f"--speeds expects LO..HI or A,B,... (e.g. 1..5 or 1,3,5), got {text!r}"
        ) from exc
    if not speeds:
        raise ValidationError(f"--speeds {text!r} names no speed")
    return speeds


def _write_manifest(out_dir: Path, command: str, args: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "args": {k: v for k, v in args.items() if v is not None and k != "func"},
        "outputs": outputs,
    }
    (out_dir / f"{command}_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_generate(args) -> int:
    grid_x, grid_y = _parse_grid(args.grid)
    if min(args.relays, args.ues) < 1:
        raise ValidationError(f"--relays and --ues must be >= 1, got {args.relays} and {args.ues}")
    if args.direct_cost is not None and args.direct_reward is None:
        raise ValidationError("--direct-cost needs --direct-reward; without both the link costs 0")
    rng = np.random.default_rng(args.seed)
    positions = [
        (int(x), int(y))
        for x, y in zip(
            rng.integers(1, grid_x + 1, size=args.relays + args.ues),
            rng.integers(1, grid_y + 1, size=args.relays + args.ues),
        )
    ]
    relays = tuple(
        RelaySpec(eps_fix=args.eps_fix, speed=args.speed, initial_state=positions[i])
        for i in range(args.relays)
    )
    ues = tuple(UeSpec(position=positions[args.relays + i]) for i in range(args.ues))
    direct = None
    if args.direct_reward is not None:
        direct = DirectLink(args.direct_reward, 0.0 if args.direct_cost is None else args.direct_cost)
    scenario = ScenarioConfig(
        grid_x=grid_x,
        grid_y=grid_y,
        relays=relays,
        ues=ues,
        bs_position=(grid_x, grid_y),
        r_max=args.r_max,
        c_max=args.c_max,
        c_th=args.c_th,
        horizon=args.horizon,
        gamma=args.gamma,
        direct_link=direct,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_scenario(scenario, out)
    _write_manifest(out.parent, "generate", vars(args), [str(out)])
    print(f"wrote {out} (fingerprint {scenario.fingerprint()})")
    return 0


_POINT_BASED = {"cpbvi": solve_cpbvi, "gcpbvi": solve_gcpbvi, "centralized": solve_centralized}
_SOLVERS = {"exact", "oracle", *_POINT_BASED}


def cmd_solve(args) -> int:
    if args.method not in _SOLVERS:
        raise ValidationError(f"--method must be one of {sorted(_SOLVERS)}, got {args.method}")
    sizing = {"--belief-h": args.belief_h, "--belief-cap": args.belief_cap, "--eps": args.eps}
    given = [flag for flag, value in sizing.items() if value is not None]
    if args.method not in _POINT_BASED and given:
        raise ValidationError(f"--method {args.method} uses no belief set; drop {', '.join(given)}")
    scenario = load_scenario(args.scenario)
    chains = chains_for_scenario(scenario)
    if args.method == "exact":
        policy = solve_exact(scenario, chains)
    elif args.method == "oracle":
        policy = brute_force_oracle(scenario, chains)
    else:
        h = args.belief_h if args.eps is None else horizon_for_eps(args.eps, scenario, chains)
        cap = 256 if args.belief_cap is None else args.belief_cap
        policy = _POINT_BASED[args.method](scenario, chains, h=h, cap=cap)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_policy(policy, out)
    planned_r, planned_c = policy.planned_value()
    report_path = out.with_suffix(".report.txt")
    lines = [
        f"method={policy.method}",
        f"scenario_fingerprint={policy.scenario_fingerprint}",
        f"horizon={policy.horizon}",
        f"gamma={policy.gamma!r}",
        f"planned_reward={planned_r!r}",
        f"planned_cost={planned_c!r}",
    ]
    for key in sorted(policy.stats):
        lines.append(f"{key}={policy.stats[key]!r}")
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(out.parent, "solve", vars(args), [str(out), str(report_path)])
    print("\n".join(lines))
    print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    policy = load_policy(args.policy)
    if policy.scenario_fingerprint != scenario.fingerprint():
        raise ValidationError(
            f"policy fingerprint {policy.scenario_fingerprint} does not match "
            f"scenario fingerprint {scenario.fingerprint()}"
        )
    chains = chains_for_scenario(scenario)
    metrics = monte_carlo(policy, scenario, args.runs, args.seed, chains)
    rows = metrics_rows(metrics, scenario.fingerprint(), policy.method)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(rows, METRIC_COLUMNS, out)
    _write_manifest(out.parent, "simulate", vars(args), [str(out)])
    planned_r, planned_c = policy.planned_value()
    max_ue_cost = max(entry["avg_cum_cost"] for entry in metrics.per_ue)
    print(
        f"runs={metrics.runs} ues={len(metrics.per_ue)} avg_cum_reward={metrics.avg_cum_reward!r} "
        f"stderr_reward={metrics.stderr_reward!r} planned_reward={planned_r!r} "
        f"avg_cum_cost={metrics.avg_cum_cost!r} max_ue_cost={max_ue_cost!r} "
        f"planned_cost={planned_c!r} avg_cum_ee={metrics.avg_cum_ee!r}"
    )
    print(f"wrote {out}")
    return 0


def _d2d_cellular(scenario: ScenarioConfig, args) -> tuple:
    chains = chains_for_scenario(scenario)
    policy = solve_gcpbvi(scenario, chains, h=args.belief_h, cap=args.belief_cap)
    return (
        monte_carlo(policy, scenario, args.runs, args.seed, chains),
        baseline_cellular(scenario, args.runs, args.seed, chains),
    )


def _centralized_distributed(scenario: ScenarioConfig, args) -> tuple:
    chains = chains_for_scenario(scenario)
    return tuple(
        run_multiuser(
            scenario, mode, args.runs, args.seed, chains, h=args.belief_h, cap=args.belief_cap
        )
        for mode in ("centralized", "distributed")
    )


# (mode_a, mode_b) -> (the two modes' metrics at a scenario, the relative gain of a over b)
_COMPARISONS = {
    ("d2d", "cellular"): (_d2d_cellular, lambda a, b: (a - b) / b if b > 0 else float("inf")),
    ("centralized", "distributed"): (
        _centralized_distributed,
        lambda a, b: abs(a - b) / a if a > 0 else 0.0,
    ),
}


def cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    modes = {m.strip() for m in args.modes.split(",")}
    speeds = _parse_speeds(args.speeds)
    pair = next((key for key in _COMPARISONS if modes == set(key)), None)
    if pair is None:
        raise ValidationError(
            f"--modes must be 'd2d,cellular' or 'centralized,distributed', got {args.modes}"
        )
    if pair == ("d2d", "cellular") and scenario.n_ues > 1:
        raise ValidationError(
            f"--modes d2d,cellular plays one UE and the scenario has {scenario.n_ues}; "
            "compare them all with --modes centralized,distributed"
        )
    metrics, gain = _COMPARISONS[pair]
    rows: list[dict] = []
    for v in speeds:
        relays = tuple(dataclasses.replace(r, speed=v) for r in scenario.relays)
        a, b = metrics(dataclasses.replace(scenario, relays=relays), args)
        rows.append(
            {
                "speed": v,
                "mode_a": pair[0],
                "value_a": a.avg_cum_reward,
                "mode_b": pair[1],
                "value_b": b.avg_cum_reward,
                "relative_gain": gain(a.avg_cum_reward, b.avg_cum_reward),
                "stderr_a": a.stderr_reward,
            }
        )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    columns = ["speed", "mode_a", "value_a", "mode_b", "value_b", "relative_gain", "stderr_a"]
    write_csv(rows, columns, out)
    _write_manifest(out.parent, "compare", vars(args), [str(out)])
    for row in rows:
        print(row)
    return 0


def cmd_bench(args) -> int:
    if args.max_k < 1:
        raise ValidationError(f"--max-k must be >= 1, got {args.max_k}")
    sizes = {"S": args.states, "B": args.belief_points}
    rows = []
    for k in range(1, args.max_k + 1):
        rows.append(
            {
                "k": k,
                "log10_exact": complexity_log10("exact", k, sizes),
                "log10_cpbvi": complexity_log10("cpbvi", k, sizes),
                "log10_gcpbvi": complexity_log10("gcpbvi", k, sizes),
                "ratio_cpbvi_gcpbvi": complexity_ratio("cpbvi", "gcpbvi", k),
                "ratio_centralized_distributed": complexity_ratio(
                    "centralized", "distributed", k, {"N": k}
                ),
            }
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(rows, list(rows[0]), out)
    _write_manifest(out.parent, "bench", vars(args), [str(out)])
    for row in rows:
        print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relayplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a scenario file")
    gen.add_argument("--grid", required=True, help="grid size, e.g. 4x4")
    gen.add_argument("--relays", type=int, required=True)
    gen.add_argument("--ues", type=int, default=1)
    gen.add_argument("--eps-fix", dest="eps_fix", type=float, default=GEN_DEFAULTS["eps_fix"])
    gen.add_argument("--speed", type=int, default=1)
    gen.add_argument("--r-max", dest="r_max", type=float, default=GEN_DEFAULTS["r_max"])
    gen.add_argument("--c-max", dest="c_max", type=float, default=GEN_DEFAULTS["c_max"])
    gen.add_argument("--c-th", dest="c_th", type=float, default=GEN_DEFAULTS["c_th"])
    gen.add_argument("--horizon", type=int, default=GEN_DEFAULTS["horizon"])
    gen.add_argument("--gamma", type=float, default=GEN_DEFAULTS["gamma"])
    gen.add_argument("--direct-reward", dest="direct_reward", type=float, default=None)
    gen.add_argument("--direct-cost", dest="direct_cost", type=float, default=None, help="default 0")
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    slv = sub.add_parser("solve", help="solve a scenario and persist the policy")
    slv.add_argument("--scenario", required=True)
    slv.add_argument("--method", required=True)
    depth = slv.add_mutually_exclusive_group()
    depth.add_argument("--eps", type=float, default=None, help="target value error for belief sizing")
    depth.add_argument("--belief-h", dest="belief_h", type=int, default=None)
    slv.add_argument("--belief-cap", dest="belief_cap", type=int, default=None, help="default 256")
    slv.add_argument("--out", required=True)
    slv.set_defaults(func=cmd_solve)

    simp = sub.add_parser("simulate", help="Monte-Carlo evaluation of a stored policy")
    simp.add_argument("--scenario", required=True)
    simp.add_argument("--policy", required=True)
    simp.add_argument("--runs", type=int, default=100)
    simp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    simp.add_argument("--out", required=True)
    simp.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare", help="comparison tables across modes/speeds")
    cmp_.add_argument("--scenario", required=True)
    cmp_.add_argument("--modes", required=True, help="d2d,cellular or centralized,distributed")
    cmp_.add_argument("--speeds", default="1..1", help="e.g. 1..5 or 1,3,5")
    cmp_.add_argument("--runs", type=int, default=100)
    cmp_.add_argument("--belief-h", dest="belief_h", type=int, default=2)
    cmp_.add_argument("--belief-cap", dest="belief_cap", type=int, default=128)
    cmp_.add_argument("--seed", type=int, default=DEFAULT_SEED)
    cmp_.add_argument("--out", required=True)
    cmp_.set_defaults(func=cmd_compare)

    ben = sub.add_parser("bench", help="closed-form complexity model table")
    ben.add_argument("--max-k", dest="max_k", type=int, default=10)
    ben.add_argument("--states", type=int, default=25)
    ben.add_argument("--belief-points", dest="belief_points", type=int, default=32)
    ben.add_argument("--out", required=True)
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error (cap exceeded): {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error (I/O): {exc}", file=sys.stderr)
        return 4
    except RelayPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
