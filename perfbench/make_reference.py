"""Rebuild perfbench/reference.json: the epoch-1 training loss of each
workload's training runs at every reference seed.

    python3 perfbench/make_reference.py --seeds 0-19

The held-out seed stays out of the references, so a later claim can be
re-checked on data that never shaped them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run  # pins the BLAS threads before numpy loads

HELD_OUT_SEED = 7919


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range lo-hi")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    seeds = [s for s in range(lo, hi + 1) if s != HELD_OUT_SEED]

    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS, Ops

    refs: dict = {"held_out_seed": HELD_OUT_SEED}
    work = run.OUT_DIR / "reference-work"
    try:
        for name, cls in WORKLOADS.items():
            refs[name] = {}
            for seed in seeds:
                workload, ops = cls("full", seed, work, {}), Ops()
                workload.setup(ops, "setup")
                workload.run_pass(ops, decodes=0)
                if ops.failed:
                    raise RuntimeError(f"{name} seed {seed}: {list(ops.failures.values())}")
                refs[name][str(seed)] = workload.first_loss
                print(name, seed, workload.first_loss, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(refs, indent=1) + "\n",
                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
