"""One round of one workload, in a fresh process; its result is the last stdout line.

Usage: python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT TRACE

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the spawn, so
``setup_s`` runs from process start to the first timed stage. With TRACE 1
the relayplan functions are wrapped for the round and the spans are written
to ``perfbench/out`` at its end.
"""

import os

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    workload, seed, spawned_at, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    import tracing
    import workloads

    fn, attempted = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer() if trace else None
    rnd = workloads.Round(spawned_at, tracer)
    error = None
    if tracer is not None:
        tracer.install()
    try:
        fn(rnd, seed)
    except Exception as exc:  # the round's remaining operations count as failed
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.restore()
    rnd.sample("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result = {
        "attempted": attempted,
        "failed": attempted - sum(1 for _, ok, _ in rnd.ops if ok),
        "failures": [f"{op}: {msg}" for op, ok, msgs in rnd.ops for msg in msgs]
        + ([error] if error else []),
        "samples": rnd.samples,
        "outputs": rnd.outputs,
        "stage_s": rnd.stage_s,
    }
    if tracer is not None and rnd.stage_s > 0:
        result["layers"] = tracing.layer_metrics(tracer.spans, rnd.decisions, rnd.stage_s)
        workloads.OUT.mkdir(exist_ok=True)
        tracer.write(workloads.OUT / f"spans_{workload}_seed{seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
