"""Work that run.py does in a fresh interpreter, one job per call.

    python3 probe.py setup SRC_DIR WORKLOAD INIT_SEED

Times one set-up, from ``import assoclearn`` to a model that is ready to
train, and prints the elapsed seconds. run.py starts several of these and
reports the median as setup_s. numpy is imported before the clock starts:
its import (about 0.1 s, mostly OpenBLAS start-up) is the dependency's
cost, not the program's, and it varies by a quarter from one interpreter
to the next on a shared 2-vCPU host.

    python3 probe.py checks SRC_DIR WORKLOAD SEED

Makes the inputs of SEED, runs the whole-run correctness checks on them
and prints the problems found as a JSON list. The checks build and train
models of their own; run apart, their memory stays out of the training
process's peak_rss_mb.
"""

import json
import sys
import time

import numpy  # noqa: F401

from workloads import WORKLOADS, build_model, make_inputs


def main() -> None:
    job, src, name, seed = sys.argv[1:5]
    sys.path.insert(0, src)
    wl, seed = WORKLOADS[name], int(seed)
    if job == "setup":
        t0 = time.perf_counter()
        import assoclearn

        build_model(assoclearn, wl, seed)
        print(repr(time.perf_counter() - t0))
    elif job == "checks":
        import measure

        print(json.dumps(measure.run_checks(wl, make_inputs(wl, seed))))
    else:
        raise SystemExit(f"error: unknown job {job!r}")


if __name__ == "__main__":
    main()
