"""Benchmark for relayplan: solve, simulate and multi-user workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve_table1 --seed 1 --seconds 30 --trace 0

A run repeats whole rounds of the workload, each in a fresh single-threaded
process (``worker.py``), until the next round would end past ``--seconds``;
every end-to-end metric is the median of its samples over the run's rounds.
With ``--trace 1`` each round runs twice, untraced and then traced, and the
run prints the per-layer metrics of the traced rounds and the tracing
overhead instead. The last stdout line is the result object; per-round
details go to ``perfbench/out``. Exits non-zero without a result when a round
produces none, e.g. when ``src/relayplan`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SELF_SHARES, SOLVER_COUNTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

ROUND_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0

# End-to-end metrics, which every workload reports: name -> unit. Per-stage
# times are printed to stderr as information, not reported as metrics.
ALL = ("solve_table1", "simulate_table1", "multiuser_8b")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "round_s": "s",
    "reward_share": "share",
}

# Per-layer metrics of the traced rounds, which every workload reports (0 for
# a layer it does not call): name -> unit. Counts and ratios other than the
# overhead must repeat exactly from round to round.
PER_LAYER = {
    "trace.round_s": "s",
    **{name: "share" for name in SELF_SHARES},
    "sim.distributed_solve_share": "share",
    **{f"solvers.{m}.{k}": "count" for m in ("gcpbvi", "cpbvi") for k in SOLVER_COUNTERS},
    "solvers.gcpbvi.frontier_cap_hit_ratio": "ratio",
    "solvers.cpbvi.frontier_cap_hit_ratio": "ratio",
    "solvers.backup_calls": "count",
    "solvers.select_pair_calls": "count",
    "solvers.policy_bytes": "B",
    "alpha.evaluate_calls": "count",
    "belief.points": "count",
    "belief.advance_belief_calls": "count",
    "sim.episodes": "count",
    "sim.action_cache_miss_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
EXACT_UNITS = ("count", "ratio")


class RoundError(RuntimeError):
    pass


def _round(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """Run one round in a fresh process and return its parsed result."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # worker.py pins the BLAS threads itself
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(spawned_at),
           "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundError(f"round exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median_metrics(rounds: list[dict]) -> dict:
    metrics = {}
    for name, unit in END_TO_END.items():
        pooled = [v for r in rounds for v in r["samples"].get(name, ())]
        if not pooled:
            raise RoundError(f"no samples of {name}")
        metrics[name] = {"value": statistics.median(pooled), "unit": unit}
    return metrics


def _layer_metrics(pairs: list[tuple[dict, dict]], problems: list[str]) -> dict:
    metrics = {}
    layers = [traced.get("layers") for _, traced in pairs]
    if not all(layers):
        raise RoundError("a traced round gave no per-layer metrics")
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            continue
        values = [layer[name] for layer in layers]
        exact = len(set(values)) == 1
        if unit in EXACT_UNITS and not exact:
            problems.append(f"{name} differs between rounds: {values}")
        metrics[name] = {"value": values[0] if exact else statistics.median(values), "unit": unit}
    overheads = [traced["stage_s"] / plain["stage_s"] - 1.0 for plain, traced in pairs]
    metrics["trace.overhead_ratio"] = {"value": statistics.median(overheads), "unit": "ratio"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relayplan" / "__init__.py").is_file():
        print(f"error: no relayplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    rounds: list = []
    try:
        while True:
            round_started = time.monotonic()
            remaining = RUN_LIMIT_S - (round_started - started)
            if args.trace:
                plain = _round(args.workload, args.seed, False, min(ROUND_TIMEOUT_S, remaining))
                remaining = RUN_LIMIT_S - (time.monotonic() - started)
                rounds.append((plain, _round(args.workload, args.seed, True, remaining)))
            else:
                rounds.append(_round(args.workload, args.seed, False, min(ROUND_TIMEOUT_S, remaining)))
            now = time.monotonic()
            if (now - started) + (now - round_started) > min(args.seconds, RUN_LIMIT_S):
                break  # the next round would end past the run's length
        problems: list[str] = []
        if args.trace:
            metrics = _layer_metrics(rounds, problems)
        else:
            metrics = _median_metrics(rounds)
    except RoundError as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    results = [r for pair in rounds for r in pair] if args.trace else rounds
    for r in results[1:]:
        if r["outputs"] != results[0]["outputs"]:
            problems.append(f"outputs differ between rounds: {results[0]['outputs']} vs {r['outputs']}")
    for r in results:
        for failure in r["failures"]:
            print(f"failed: {failure}", file=sys.stderr)
    for key, value in results[0]["outputs"].items():
        if key.startswith("info."):
            print(f"{key[5:]}: {value!r}", file=sys.stderr)
    if not args.trace:
        stages = sorted({k for r in rounds for k in r["samples"]} - set(END_TO_END))
        for name in stages:
            pooled = [v for r in rounds for v in r["samples"][name]]
            print(f"stage median {name}: {statistics.median(pooled):.6g} "
                  f"over {len(pooled)} samples", file=sys.stderr)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    detail.write_text(json.dumps({"summary": summary, "rounds": rounds}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
