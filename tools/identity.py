"""Bit-identity records of relayplan's solves and seeded runs.

A refactor that claims to keep every output fixed can be checked with two
runs of this script, one per tree, and one comparison:

    python tools/identity.py --out new.jsonl
    python tools/identity.py --src /path/to/other/checkout/src --out old.jsonl
    python tools/identity.py --compare old.jsonl new.jsonl

Each case writes one JSON line: the sha256 of every stored vector with its
actions, the planned value, every counter of the solve's stats (timings
left out) and the seeded metrics. Floats are written by ``repr``, so equal
lines mean equal bits. ``--compare`` prints the first differing record and
exits 1, or prints the record count and exits 0.

The cases are:

* table1 gcpbvi at belief caps 24, 32 and 64, and cpbvi at cap 12;
* table1 gcpbvi at cap 32 with ``c_th`` 300 and 500, where the budget binds;
* criterion 8b's scenario, centralized and distributed, at caps 4, 8 and 16,
  and centralized at cap 16 with ``c_th`` 400 (several pairs per epoch);
* 300 exact solves of instances drawn as acceptance criterion 1 draws them,
  each with the oracle and ``exact_policy_value``;
* 1,500 Monte-Carlo episodes of the table1 cap-24 policy, 200 cellular
  episodes, and 200 multi-user episodes of each mode at cap 8.

Everything runs at h = 2. BLAS is pinned to one thread before numpy loads.
Only ``relayplan`` comes from ``--src``; the scenarios and the instance
generator (``tests/conftest.py``) come from this checkout, so two trees are
run on the same inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
TABLE1 = ROOT / "scenarios" / "table1.json"
MULTIUSER_8B = ROOT / "perfbench" / "scenarios" / "multiuser_8b.json"
H = 2
EXACT_INSTANCES = 300
SEED = 303


def _policy_record(policy) -> dict:
    """The digest of a policy's stored pairs, its planned value and its
    stats without the timings."""
    digest = hashlib.sha256()
    for e, pairs in enumerate(policy.epochs or []):
        digest.update(f"epoch {e}: {len(pairs)} pairs".encode())
        for pair in pairs:
            digest.update(pair.alpha_r.tobytes())
            digest.update(pair.alpha_cs.tobytes())
            digest.update(repr([a.selected for a in pair.actions]).encode())
    stats = {k: v for k, v in policy.stats.items() if not k.startswith("time_") and k != "wall_time_s"}
    return {"digest": digest.hexdigest(), "planned": repr(policy.planned_value()), "stats": stats}


def _metrics_record(metrics) -> dict:
    return dataclasses.asdict(metrics)


def _cases(rp):
    """(name, thunk) per case; a thunk returns the case's record."""
    model, mobility, solvers, sim = rp.model, rp.mobility, rp.solvers, rp.sim
    table1 = model.load_scenario(TABLE1)
    chains1 = mobility.chains_for_scenario(table1)
    multi = model.load_scenario(MULTIUSER_8B)
    chains8 = mobility.chains_for_scenario(multi)

    def solve(method, scenario, chains, cap):
        return lambda: _policy_record(getattr(solvers, f"solve_{method}")(scenario, chains, h=H, cap=cap))

    for cap in (24, 32, 64):
        yield f"table1-gcpbvi-cap{cap}", solve("gcpbvi", table1, chains1, cap)
    yield "table1-cpbvi-cap12", solve("cpbvi", table1, chains1, 12)
    for c_th in (300.0, 500.0):
        yield f"table1-gcpbvi-cap32-cth{c_th:g}", solve(
            "gcpbvi", dataclasses.replace(table1, c_th=c_th), chains1, 32
        )
    for cap in (4, 8, 16):
        yield f"8b-centralized-cap{cap}", lambda cap=cap: _policy_record(
            sim.solve_centralized(multi, chains8, h=H, cap=cap)
        )
        yield f"8b-distributed-cap{cap}", lambda cap=cap: {
            f"ue{u}": _policy_record(solvers.solve_gcpbvi(model.with_single_ue(multi, u), chains8, h=H, cap=cap))
            for u in range(multi.n_ues)
        }
    yield "8b-centralized-cap16-cth400", lambda: _policy_record(
        sim.solve_centralized(dataclasses.replace(multi, c_th=400.0), chains8, h=H, cap=16)
    )

    def monte_carlo():
        policy = solvers.solve_gcpbvi(table1, chains1, h=H, cap=24)
        return _metrics_record(sim.monte_carlo(policy, table1, 1500, SEED, chains1))

    yield "table1-monte-carlo", monte_carlo
    yield "table1-cellular", lambda: _metrics_record(sim.baseline_cellular(table1, 200, SEED, chains1))
    for mode in ("centralized", "distributed"):
        yield f"8b-run-{mode}", lambda mode=mode: _metrics_record(
            sim.run_multiuser(multi, mode, 200, SEED, chains8, h=H, cap=8)
        )

    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import random_instance

    import numpy as np

    rng = np.random.default_rng(20240801)
    for i in range(EXACT_INSTANCES):  # drawn in criterion 1's order, one instance per case
        if i % 3 == 0:
            scenario, chains = random_instance(rng, k=2, n=2, t=int(rng.integers(1, 3)))
        elif i % 3 == 1:
            scenario, chains = random_instance(rng, k=1, n=int(rng.integers(2, 4)), t=int(rng.integers(1, 4)))
        else:
            scenario, chains = random_instance(rng, k=1, n=int(rng.integers(4, 9)), t=int(rng.integers(1, 3)))

        def exact(scenario=scenario, chains=chains):
            policy = solvers.solve_exact(scenario, chains)
            oracle = solvers.brute_force_oracle(scenario, chains)
            return {
                **_policy_record(policy),
                "oracle": repr(oracle.planned_value()),
                "exact_policy_value": repr(sim.exact_policy_value(policy, scenario, chains)),
            }

        yield f"exact-{i}", exact


def _import_relayplan(src: Path) -> SimpleNamespace:
    sys.path.insert(0, str(src))
    return SimpleNamespace(
        **{name: importlib.import_module(f"relayplan.{name}") for name in ("model", "mobility", "solvers", "sim")}
    )


def _run(src: Path, only: list[str], out) -> None:
    rp = _import_relayplan(src)
    for name, thunk in _cases(rp):
        if only and name not in only:
            continue
        out.write(json.dumps({"case": name, **thunk()}, sort_keys=True) + "\n")
        out.flush()


def _compare(a: Path, b: Path) -> int:
    left, right = (p.read_text().splitlines() for p in (a, b))
    for i, (x, y) in enumerate(zip(left, right)):
        if x != y:
            print(f"record {i} differs:\n{a}: {x}\n{b}: {y}")
            return 1
    if len(left) != len(right):
        print(f"{a} has {len(left)} records, {b} has {len(right)}")
        return 1
    print(f"{len(left)} records equal")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory to import relayplan from")
    parser.add_argument("--case", action="append", default=[], help="run only this case (repeatable)")
    parser.add_argument("--out", type=Path, help="write the records here instead of standard output")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="compare two record files")
    args = parser.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    if args.out is None:
        _run(args.src, args.case, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            _run(args.src, args.case, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
