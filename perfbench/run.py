"""Benchmark of the topodecode package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hd-train --seed 0 --seconds 60 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer hooks on every second repetition and prints the per-layer metrics
and the trace overhead. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (environment, fingerprints, spans) goes to
``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One BLAS thread: on a 2-core box two threads made the same matmul loop
# vary by 25% between repetitions, one thread by 3%.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "topodecode", "__init__.py")):
        print(f"error: no topodecode sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, HERE]

    import envinfo
    import fingerprint
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        reference = fingerprint.reference_for(workload.name, args.seed)
        runner = workloads.Runner(workload, args.seed, work_dir, trace=bool(args.trace),
                                  reference=reference)
        # One warm-up repetition, then at least three timed (or two traced
        # and two untraced) ones.
        min_reps = 5 if args.trace else 4
        reps = runner.run(args.seconds, min_reps)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for r in reps if r.errors)
    if args.trace:
        values, units = runner.per_layer(reps), workloads.LAYER_UNITS
    else:
        values, units = runner.end_to_end(reps), workloads.E2E_UNITS
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items() if name in values
    }
    env = envinfo.environment(ROOT)
    env.update(default_seed=workloads.DEFAULT_SEED, held_out_seed=workloads.HELD_OUT_SEED)

    for rep in reps:
        for err in rep.errors:
            print(f"repetition {rep.index} failed: {err}", file=sys.stderr)
    if runner.missing_hooks:
        print("hook targets not found, metrics left out: "
              + ", ".join(runner.missing_hooks), file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  reference "
          f"{'checked' if reference is not None else 'none for this seed'}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    extra = {k: v for k, v in values.items() if k not in units}
    for name, value in extra.items():
        print(f"  {name:32s} {value:.6g}")
    print("env " + json.dumps(env, sort_keys=True))

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "env": env, "metrics": metrics, "extra": extra,
        "missing_hooks": runner.missing_hooks,
        "repetitions": [
            {"index": r.index, "traced": r.traced, "phases": r.phases,
             "fingerprint": r.fingerprint, "errors": r.errors}
            for r in reps
        ],
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        runner.tracer.write_jsonl(os.path.join(OUT, f"{tag}.spans.jsonl"))

    print(json.dumps({
        "correct": failed == 0 and bool(reps),
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
