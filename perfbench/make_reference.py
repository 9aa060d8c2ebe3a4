"""Write the committed behaviour fingerprints to perfbench/reference.json.

One repetition per workload and seed, untimed. Run it from the root of a
checkout only when a change is meant to alter what the package computes,
and say so in the change:

    python3 perfbench/make_reference.py                 # every workload, default seeds
    python3 perfbench/make_reference.py grid-train 3 4  # one workload, some seeds
"""

from __future__ import annotations

import os
import shutil
import sys

from run import BLAS_THREADS, HERE, OUT, SRC, THREAD_VARS

# The seeds a run is checked against; any other seed gets the sanity and
# repeatability checks only.
REFERENCE_SEEDS = list(range(20)) + [1009]


def main(argv) -> int:
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, HERE]
    import fingerprint
    import workloads

    names = argv[:1] or list(workloads.WORKLOADS)
    seeds = [int(s) for s in argv[1:]] or REFERENCE_SEEDS
    for name in names:
        workload = workloads.WORKLOADS[name]
        for seed in seeds:
            work_dir = os.path.join(OUT, f"reference-{name}-{seed}-{os.getpid()}")
            try:
                runner = workloads.Runner(workload, seed, work_dir, trace=False)
                reps = runner.run(seconds=0.0, min_reps=1)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            errors = [e for r in reps for e in r.errors]
            if errors or not reps:
                print(f"{name} seed {seed}: not written: {errors}", file=sys.stderr)
                return 1
            fingerprint.write_reference({name: {str(seed): reps[0].fingerprint}})
            print(f"{name} seed {seed}: test_error {reps[0].fingerprint['test_error']:.6f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
