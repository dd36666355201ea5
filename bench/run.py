"""Block-level benchmark of slim: calib -> compress -> eval -> apply.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout: the benchmark imports ``slim`` from the
checkout's ``src`` and works in ``.bench_work/`` there, which it removes
when it ends. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones taken from spans around the calls into each module. The
line before it, starting ``env``, records the machine, library versions
and input shapes. README.md in this directory describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORKLOAD_NAMES = ("adapter-block", "prune-block", "scaled-fp8")
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, default=12.0,
                   help="the pipeline repeats until it has run this long (and at least "
                        "5 times on scaled-fp8); the forward loop runs half as long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--tiny", action="store_true",
                   help="64-wide blocks and few tokens, for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "slim", "__init__.py")):
        print(f"error: no slim package at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    # One client and one BLAS thread, fixed before numpy loads and inherited by
    # every slim process the benchmark starts. On a small shared VM two BLAS
    # threads wait for each other whenever the host slows either vCPU; one
    # thread keeps run-to-run spread low (see README.md).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, SRC)

    from spawner import Spawner

    spawner = Spawner()  # before numpy loads: see spawner.py
    try:
        import slim

        if os.path.dirname(os.path.abspath(slim.__file__)) != os.path.join(SRC, "slim"):
            print(f"error: imported slim from {slim.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import block

        workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            print(f"== {workload}")
            results[workload] = result = block.run(
                workload, args.seed, args.seconds, bool(args.trace), args.tiny, spawner)
            for name, metric in result["metrics"].items():
                print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    finally:
        spawner.close()
    if len(results) > 1:  # one line for all: metric names become WORKLOAD/NAME
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
