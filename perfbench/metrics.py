"""Metric names and units (from BENCHMARK.json), the per-layer metrics of a
traced pass, and the human-readable summary."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))


def _ms(*spans):
    return lambda t: 1e3 * sum(t.self_s.get(s, 0.0) for s in spans)


def _fwd_bwd(name: str) -> dict:
    return {f"autodiff.{name}.fwd_ms": _ms(f"autodiff.{name}"),
            f"autodiff.{name}.bwd_ms": _ms(f"autodiff.{name}.bwd")}


def _conv_s(t) -> float:
    return sum(t.self_s.get(f"autodiff.{op}{half}", 0.0)
               for op in ("conv_time", "conv_space") for half in ("", ".bwd"))


# per-layer metric -> value from the traced pass (self times in ms unless
# the name says otherwise; counts and bytes are computed from shapes)
LAYER_METRICS = {
    **_fwd_bwd("conv_time"), **_fwd_bwd("conv_space"), **_fwd_bwd("mean_pool"),
    **_fwd_bwd("pointwise"), **_fwd_bwd("dense"),
    "autodiff.softmax_xent.ms": _ms("autodiff.softmax_xent", "autodiff.softmax_xent.bwd"),
    "autodiff.backward.self_ms": _ms("autodiff.backward"),
    "autodiff.nodes": lambda t: t.counts["autodiff.nodes"],
    "autodiff.conv.gflop": lambda t: t.counts["autodiff.conv.flop"] / 1e9,
    "autodiff.conv.mb_moved": lambda t: t.counts["autodiff.conv.bytes"] / 1e6,
    "autodiff.conv.gflops": lambda t: t.counts["autodiff.conv.flop"] / 1e9 / _conv_s(t),
    "autodiff.conv_time.useful_frac":
        lambda t: t.counts["conv_time.windows_needed"] / t.counts["conv_time.windows_computed"],
    "mmd.layered_class_mmd.self_ms": _ms("mmd.layered_class_mmd"),
    "mmd.mmd2_biased.fwd_ms": _ms("mmd.mmd2_biased"),
    "mmd.mmd2_biased.bwd_ms": _ms("mmd.mmd2_biased.bwd"),
    "mmd.mmd2_biased.calls": lambda t: t.calls["mmd.mmd2_biased"],
    "mmd.bandwidth.ms": _ms("mmd.bandwidth"),
    "mmd.transfer_loss.self_ms": _ms("mmd.transfer_loss"),
    "models.forward_train.self_ms": _ms("models.forward_train"),
    "models.forward_infer.self_ms": _ms("models.forward_infer"),
    "models.checkpoint.ms": _ms("models.checkpoint"),
    "training.train.self_ms": _ms("training.train"),
    "training.adam_step.ms": _ms("training.adam_step"),
    "training.evaluate.self_ms": _ms("training.evaluate"),
    "training.steps": lambda t: t.calls["training.adam_step"],
    "datasets.synth.ms": _ms("datasets.synth"),
    "datasets.container.ms": _ms("datasets.container"),
    "datasets.container.mb": lambda t: t.counts["datasets.container.mb"],
    "datasets.balanced_upsample.ms": _ms("datasets.balanced_upsample"),
    "datasets.batch_iter.ms": _ms("datasets.batch_iter"),
    "preprocessing.filter.ms": _ms("preprocessing.filter"),
    "preprocessing.crop.ms": _ms("preprocessing.crop"),
    "preprocessing.crop.mb_copied": lambda t: t.counts["preprocessing.crop.bytes"] / 1e6,
    "cli.command.self_ms": _ms("cli.command"),
    "cli.manifest.ms": _ms("cli.manifest", "cli.hash"),
    "cli.hashed_mb": lambda t: t.counts["cli.hashed_mb"],
}
ROOT_SPAN = "bench"
# counts derived from array shapes and file sizes, not measured
COMPUTED = ("autodiff.conv.gflop", "autodiff.conv.mb_moved", "autodiff.conv.gflops",
            "autodiff.conv_time.useful_frac", "datasets.container.mb",
            "preprocessing.crop.mb_copied", "cli.hashed_mb")


def layer_metrics(tracer, wall_s: float, untraced_pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced set-up and pass, plus the tracing
    overhead and the time no span covers."""
    totals = SimpleNamespace(self_s=tracer.self_times(), calls=tracer.calls,
                             counts=tracer.counts)
    metrics = {name: float(fn(totals)) for name, fn in LAYER_METRICS.items()}
    untraced = totals.self_s[ROOT_SPAN]
    spans = sum(v for k, v in totals.self_s.items() if k != ROOT_SPAN)
    metrics.update({
        "trace.wall_ms": 1e3 * wall_s,
        "trace.untraced_ms": 1e3 * untraced,
        "trace.spans_self_ms": 1e3 * spans,
        "trace.overhead_ms": 1e3 * (wall_s - untraced_pass_s),
    })
    return metrics


def accounts_for_wall(metrics: dict[str, float]) -> bool:
    """Span self times plus the untraced remainder sum to the traced wall
    time, to within the cost of entering the root span."""
    total = metrics["trace.spans_self_ms"] + metrics["trace.untraced_ms"]
    return abs(metrics["trace.wall_ms"] - total) <= 1.0 + 1e-4 * metrics["trace.wall_ms"]


def check_names(kind: str, metrics: dict[str, float]) -> bool:
    return set(metrics) == {m["name"] for m in BENCHMARK[kind]}


def summary_lines(result: dict, extra: dict, failures: list[str]) -> list[str]:
    lines = [f"{name:<42} {m['value']:>14.6g} {m['unit']}"
             + (" (computed)" if name in COMPUTED else "")
             for name, m in result["metrics"].items()]
    lines.append(f"{'failed_frac':<42} {result['failed'] / result['attempted']:>14.6g} "
                 f"({result['failed']} of {result['attempted']} operations)")
    for key, value in extra.items():
        lines.append(f"{key:<42} {value}")
    lines += [f"FAILED {reason}" for reason in failures]
    return lines
