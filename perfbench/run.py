"""scsnet benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train-paper --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the run reports the end-to-end metrics: passes of the
workload, each after a set-up, until they have taken `--seconds` and made
100 decodes, then more set-ups (set-up time is their median), then one pass
under tracemalloc for peak memory. With `--trace 1` it reports the per-layer metrics: a warm-up set-up and
pass, an untraced one, the same again under the span tracer (the difference
is the tracing overhead), then the isolated per-op timings.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The full
result set, with the environment, and the recorded spans are written under
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile; callers ensure ten samples lie beyond it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, ops, seconds: float) -> dict[str, float]:
    """End-to-end metrics: timed passes with a set-up before each, more
    set-ups after them up to SETUP_REPEATS (so set-up time is sampled across
    the run, not in one burst), then a tracemalloc pass."""
    setups, passes = [], []

    def setup():
        start = time.perf_counter()
        workload.setup(ops, f"setup{len(setups)}")
        setups.append(time.perf_counter() - start)

    elapsed = 0.0
    while elapsed < seconds or sum(len(p.decode_s) for p in passes) < workload.min_decodes:
        setup()
        start = time.perf_counter()
        passes.append(workload.run_pass(ops))
        elapsed += time.perf_counter() - start
    while len(setups) < SETUP_REPEATS:
        setup()
    tracemalloc.start()
    try:
        workload.run_pass(ops, decodes=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    workload.finish(ops)

    decode_ms = [1e3 * s for p in passes for s in p.decode_s]
    return {
        "setup_s": statistics.median(setups),
        "train_crops_per_s": statistics.median(p.train_crops / p.train_s for p in passes),
        "pipeline_s": statistics.median(p.pipeline_s for p in passes),
        "decode_ms_p50": statistics.median(decode_ms),
        "decode_ms_p90": _percentile(decode_ms, 90),
        "peak_mem_mb": peak / 1e6,
    }, {"passes": len(passes), "decodes": len(decode_ms), "setup_s_all": setups}


def traced(workload, ops, size: str, seed: int, spans_path: Path):
    """Per-layer metrics from one traced set-up and pass. An untraced
    set-up and pass after a warm-up one gives the tracing overhead."""
    import opbench
    from metrics import layer_metrics
    from tracer import Tracer

    workload.setup(ops, "warmup")
    workload.run_pass(ops, decodes=2)
    start = time.perf_counter()
    workload.setup(ops, "plain")
    workload.run_pass(ops)
    plain_s = time.perf_counter() - start

    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        with tracer.span("bench"):
            workload.setup(ops, "traced")
            workload.run_pass(ops)
        wall_s = time.perf_counter() - start
    workload.finish(ops)
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, wall_s, plain_s)
    metrics.update(opbench.run(size, seed))
    return metrics, {"spans": len(tracer.spans), "untraced_pass_s": plain_s}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes, for the smoke test only")
    args = parser.parse_args(argv)

    if not (SRC / "scsnet" / "__init__.py").is_file():
        print(f"error: no scsnet package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from envinfo import environment
    from metrics import BENCHMARK, accounts_for_wall, check_names, summary_lines
    from workloads import WORKLOADS, Abort, Ops

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.size, args.seed, work, references)
    ops = Ops()
    aborted = None
    try:
        if args.trace:
            metrics, extra = traced(workload, ops, args.size, args.seed,
                                    OUT_DIR / f"spans-{tag}.tsv")
        else:
            metrics, extra = measure(workload, ops, args.seconds)
    except Abort:
        aborted = "a failed operation stopped the run"
        metrics, extra = {}, {}
    except Exception as err:  # the program under test raised outside an operation
        traceback.print_exc()
        ops.crash("pass", err)
        aborted = "an exception stopped the run"
        metrics, extra = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    correct = aborted is None and ops.failed == 0 and check_names(kind, metrics) \
        and (not args.trace or accounts_for_wall(metrics))
    units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }
    record = {"workload": args.workload, "size": args.size, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(ROOT, args.seed, BLAS_THREADS),
              "run": extra, "failures": list(ops.failures.values()), "aborted": aborted,
              "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                encoding="utf-8")
    print("environment: " + json.dumps(record["environment"]))
    for line in summary_lines(result, extra, record["failures"]):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
