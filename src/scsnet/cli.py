"""Command-line pipeline: synthesize, preprocess, train, evaluate, report.

Every command writes its outputs under --out together with a manifest.txt
recording the resolved flags, the seed, the BLAS thread setting, and sha256
checksums of all inputs and outputs; `rerun` checks that the recorded inputs
are unchanged, replays the manifest into a fresh directory, and verifies
that the outputs come back byte-identical. Outputs are byte-exact only under
the BLAS thread setting they were made with, so a mismatch under another
setting names both.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import shlex
import sys
from datetime import datetime, timezone
from pathlib import Path

from .autodiff import BLAS_THREAD_VARS, _run_each
from .datasets import SplitSpec, SubjectDataset, format_fields, load_trialset, make_splits, \
    read_fields, save_trialset, synth_multisubject, write_parts
from .models import _check_width, load_checkpoint, save_checkpoint
from .preprocessing import MIN_FILTER_SAMPLES, crop_geometry, preprocess_trialset
from .training import ComparisonRow, TrainConfig, base_config, evaluate, \
    negative_transfer_report, train

CONTAINER_SUFFIX = ".tsc"
SUBJECTS_NOTE = "A01,A03,A07,A08,A09"


# ---------------------------------------------------------------------------
# flag parsing helpers


def _checked(convert, bad, problem: str):
    """A flag type: `convert` the text, then reject a value for which `bad`
    holds with "<value> <problem>"."""
    def parse(text: str):
        value = convert(text)
        if bad(value):
            raise argparse.ArgumentTypeError(f"{value} {problem}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names the type
    return parse


_positive_int = _checked(int, lambda v: v < 1, "is not a positive integer")
_nonnegative_int = _checked(int, lambda v: v < 0, "is negative")
_positive_float = _checked(float, lambda v: not (math.isfinite(v) and v > 0),
                           "is not finite and positive")
_nonnegative_float = _checked(float, lambda v: not (math.isfinite(v) and v >= 0),
                              "is not finite and nonnegative")
_unit_float = _checked(float, lambda v: not 0.0 <= v <= 1.0, "is outside [0, 1]")
_dropout_rate = _checked(float, lambda v: not 0.0 <= v < 1.0, "is outside [0, 1)")


def _range_pair(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        pair = (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not start:end") from None
    if pair[0] < 0 or pair[0] > pair[1]:
        raise argparse.ArgumentTypeError(f"{text!r} is not an ordered range")
    return pair


def _dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated int list") from None


# ---------------------------------------------------------------------------
# manifest plumbing


def sha256_file(path) -> str:
    """The sha256 hex digest of a file's bytes, read back: what `rerun`
    checks inputs and replayed outputs with."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_input(load, path: Path) -> tuple[object, tuple[Path, str]]:
    """`load(path, blob=...)` on the bytes of input `path`, and `path` with
    the sha256 digest of those bytes. A command reads each input once and
    hashes the bytes it parsed, so its manifest names the bytes the run used
    even if the file changes while the run goes on."""
    blob = Path(path).read_bytes()
    return load(path, blob=blob), (path, hashlib.sha256(blob).hexdigest())


def _write_text(path: Path, text: str) -> tuple[Path, str]:
    """Write `text` to `path` as UTF-8; `path` with the digest of its bytes."""
    return path, write_parts(path, [text.encode("utf-8")])


def blas_threads() -> str:
    """The BLAS thread variables as NAME=value words, empty when unset."""
    return " ".join(f"{name}={os.environ.get(name, '')}" for name in BLAS_THREAD_VARS)


def write_manifest(out_dir: Path, command: str, args: list[str], seed: int | None,
                   inputs: list[tuple[Path, str]], outputs: list[tuple[Path, str]],
                   extras: dict[str, str] | None = None) -> Path:
    """Write out_dir/manifest.txt. `inputs` and `outputs` are (path, sha256
    digest) pairs, each digest that of the bytes the command read or wrote,
    so no file is opened to hash it."""
    fields = [("command", command), ("timestamp", datetime.now(timezone.utc).isoformat()),
              ("args", shlex.join(args)), ("blas_threads", blas_threads())]
    if seed is not None:
        fields.append(("seed", seed))
    fields += (extras or {}).items()
    fields += [("input", f"{path}\t{digest}") for path, digest in inputs]
    fields += [("output", f"{path.name}\t{digest}") for path, digest in outputs]
    manifest = out_dir / "manifest.txt"
    manifest.write_text(format_fields(fields), encoding="utf-8")
    return manifest


def read_manifest(path: Path) -> dict:
    """A manifest's fields, with its `input=` and `output=` lines as lists of
    (name, digest) under "inputs" and "outputs"; any other field given twice
    is refused, naming the manifest and the field."""
    info = {"inputs": [], "outputs": []}
    fields = []
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key in ("input", "output"):
            name, _, digest = value.partition("\t")
            info[key + "s"].append((name, digest))
        else:
            fields.append(line)
    info.update(read_fields("\n".join(fields), path))
    return info


# how a parsed value of a custom flag type reads back on the command line
_RENDER = {_range_pair: lambda pair: ":".join(str(d) for d in pair),
           _dims: lambda dims: ",".join(str(d) for d in dims)}


def replay_args(ns, parser: argparse.ArgumentParser) -> list[str]:
    """The flags of `ns.command` as an argv that parses back to `ns`.

    Walks the command's option actions in declaration order, so every flag is
    recorded, defaults included: a single-valued flag as `--flag=value`, a
    list flag as the flag and its values; flags whose value is None are
    left out."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    args = []
    for action in sub.choices[ns.command]._actions:
        value = getattr(ns, action.dest, None)
        if not action.option_strings or value is None:
            continue
        render, flag = _RENDER.get(action.type, str), action.option_strings[0]
        args += ([flag, *map(render, value)] if action.nargs == "+"
                 else [f"{flag}={render(value)}"])
    return args


def _check_replay(ns, parser: argparse.ArgumentParser) -> None:
    """Refuse flags the manifest's `args=` line cannot hold or replay to `ns`."""
    args = replay_args(ns, parser)
    format_fields([("args", shlex.join(args))])
    try:
        back = vars(parser.parse_args([ns.command, *args]))
    except SystemExit:  # argparse has printed why
        raise ValueError(f"the recorded flags {shlex.join(args)} do not parse back") from None
    if differ := [dest for dest, value in back.items() if value != getattr(ns, dest)]:
        raise ValueError(f"flag(s) {', '.join(differ)} would not replay from {shlex.join(args)}")


def _out_dir(ns) -> Path:
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _discover_containers(data_dir: Path) -> list[Path]:
    files = sorted(data_dir.glob(f"*{CONTAINER_SUFFIX}"))
    if not files:
        raise FileNotFoundError(f"no {CONTAINER_SUFFIX} containers under {data_dir}")
    return files


def _load_subject_datasets(data_dir: Path, target: str, *, sources: bool
                           ) -> tuple[list[SubjectDataset], list[tuple[Path, str]]]:
    """The sessions `make_splits` reads: the target's sessions 1 and 2 and,
    with `sources`, every other subject's session 1; also each loaded file
    with the digest of its bytes. Every container's name is checked first:
    each subject's session numbers must be 1..n, each given once."""
    files = _discover_containers(data_dir)
    grouped: dict[str, dict[int, Path]] = {}
    for path in files:
        stem = path.name[:-len(CONTAINER_SUFFIX)]
        subject, sep, session = stem.rpartition("_s")
        if not sep or not session.isdigit():
            raise ValueError(f"container name {path.name!r} is not <subject>_s<k>{CONTAINER_SUFFIX}")
        numbered, k = grouped.setdefault(subject, {}), int(session)
        if k in numbered:
            raise ValueError(f"containers {numbered[k].name!r} and {path.name!r} are both "
                             f"session {k} of subject {subject!r}")
        numbered[k] = path
    for subject, numbered in sorted(grouped.items()):
        missing = min(set(range(1, len(numbered) + 1)) - numbered.keys(), default=None)
        if missing is not None:
            raise ValueError(f"subject {subject!r} has no session {missing}: sessions must "
                             f"be numbered 1..{len(numbered)}")
    used = {subject: [numbered[k] for k in ((1, 2) if subject == target else (1,))
                      if k in numbered]
            for subject, numbered in sorted(grouped.items()) if sources or subject == target}
    files = sorted(path for paths in used.values() for path in paths)
    # one pool item per container: read, hash and parse
    loaded = dict(zip(files, _run_each(functools.partial(_load_input, load_trialset), files)))
    datasets = [SubjectDataset(subject, [loaded[path][0] for path in paths])
                for subject, paths in used.items()]
    return datasets, [loaded[path][1] for path in files]


def _check_overlap(ns, parser) -> None:
    if ns.overlap >= ns.win:
        parser.error(f"--overlap {ns.overlap} must be shorter than --win {ns.win}")


def _check_target_sessions(datasets: list[SubjectDataset], target: str, fits) -> None:
    """Call `fits(session)` on each of the target's sessions, so a crop or
    pool that does not fit its trials fails before the split is built; the
    ValueError names the session. An unknown target is left to the split."""
    for ds in datasets:
        if ds.subject_id != target:
            continue
        for k, session in enumerate(ds.sessions, start=1):
            try:
                fits(session)
            except ValueError as err:
                raise ValueError(f"subject {target!r} session {k}: {err}") from None


# ---------------------------------------------------------------------------
# commands


def cmd_synth(ns, parser) -> int:
    out = _out_dir(ns)
    datasets = synth_multisubject(ns.subjects, ns.sessions, ns.trials, ns.channels,
                                  ns.fs, ns.duration, ns.classes, ns.shift, ns.snr, ns.seed)
    outputs = []
    for ds in datasets:
        for k, session in enumerate(ds.sessions, start=1):
            path = out / f"{ds.subject_id}_s{k}{CONTAINER_SUFFIX}"
            outputs.append((path, save_trialset(session, path)))
    write_manifest(out, "synth", replay_args(ns, parser), ns.seed, [], outputs)
    print(f"wrote {len(outputs)} container(s) to {out}")
    return 0


def cmd_preprocess(ns, parser) -> int:
    out = _out_dir(ns)
    channels = ns.channels.split(",") if ns.channels else None
    files = _discover_containers(Path(ns.data))

    def item(path: Path) -> tuple[tuple[Path, str], tuple[Path, str]]:
        ts, digest = _load_input(load_trialset, path)
        if ts.n_samples < MIN_FILTER_SAMPLES:
            raise ValueError(f"{path}: trials of {ts.n_samples} samples are too short for "
                             f"the filters, which need at least {MIN_FILTER_SAMPLES}")
        target = out / path.name
        return digest, (target, save_trialset(preprocess_trialset(
            ts, notch_hz=ns.notch, band=(ns.low, ns.high), channels=channels), target))

    # one pool item per container, so at most the pool's size are in memory
    inputs, outputs = zip(*_run_each(item, files))
    write_manifest(out, "preprocess", replay_args(ns, parser), None, inputs, outputs)
    print(f"preprocessed {len(outputs)} container(s) into {out}")
    return 0


def _train_config(ns) -> TrainConfig:
    return TrainConfig(
        lr=ns.lr, max_epochs=ns.epochs, patience=ns.patience,
        lam=getattr(ns, "lambda"), batch_per_branch=ns.batch,
        win_s=ns.win, overlap_s=ns.overlap, seed=ns.seed,
        temporal_filters=ns.temporal_filters, temporal_kernel=ns.temporal_kernel,
        pool_width=ns.pool_width, pool_stride=ns.pool_stride, dropout=ns.dropout,
        common_fc_dims=ns.common_dims, separate_fc_dims=ns.separate_dims)


def cmd_train(ns, parser) -> int:
    if ns.model in ("scsn", "scsn-mmd") and ns.regime == "single":
        parser.error("multi-branch models require --regime multi (need at least 2 subjects)")
    _check_overlap(ns, parser)
    if ns.patience > ns.epochs:
        parser.error(f"--patience {ns.patience} exceeds --epochs {ns.epochs}; "
                     f"give --patience at most {ns.epochs}")
    try:
        cfg = _train_config(ns)
        spec = SplitSpec(ns.target, ns.calib, ns.val, ns.test)
    except ValueError as err:
        parser.error(str(err))
    out = _out_dir(ns)
    datasets, inputs = _load_subject_datasets(Path(ns.data), ns.target, sources=True)
    _check_target_sessions(datasets, ns.target, lambda session: base_config(cfg, session))
    split = make_splits(datasets, spec)
    del datasets  # the target's session 1, copied into its training array, is freed
    n_train = sum(len(ts) for ts in split.train.values())
    print(f"split: train={n_train} val={len(split.val)} test={len(split.test)}")

    model, report = train(ns.model.replace("-", "_"), split, cfg, regime=ns.regime)

    ckpt = out / "model.ckpt"
    outputs = [(ckpt, save_checkpoint(model, ckpt, meta={
        "model": ns.model, "regime": ns.regime, "target": ns.target,
        "subjects": ",".join(sorted(split.train)), "win_s": str(ns.win),
        "overlap_s": str(ns.overlap)})),
        _write_text(out / "report.csv", report.to_csv_text()),
        _write_text(out / "summary.txt", report.to_summary_text())]
    write_manifest(out, "train", replay_args(ns, parser), ns.seed, inputs, outputs,
                   extras={"wall_time_s": f"{report.wall_time_s:.3f}",
                           "split_sizes": f"{n_train}/{len(split.val)}/{len(split.test)}"})
    print(f"test_crop_accuracy={report.test_crop_accuracy!r}")
    print(f"test_trial_accuracy={report.test_trial_accuracy!r}")
    return 0


def _recorded_crops(ckpt: Path, meta: dict[str, str]) -> dict[str, float]:
    """The window and overlap `train` recorded in a checkpoint's meta, by
    flag name ("win", "overlap"); a checkpoint without them records none."""
    recorded = {}
    for flag, key in (("win", "win_s"), ("overlap", "overlap_s")):
        if key in meta:
            try:
                recorded[flag] = float(meta[key])
            except ValueError:
                raise ValueError(f"{ckpt}: meta.{key} {meta[key]!r} is not a number") from None
    return recorded


def cmd_eval(ns, parser) -> int:
    if ns.win is not None and ns.overlap is not None:
        _check_overlap(ns, parser)
    try:
        spec = SplitSpec(ns.target, ns.calib, ns.val, ns.test)
    except ValueError as err:
        parser.error(str(err))
    out = _out_dir(ns)
    ckpt = Path(ns.ckpt)
    if not ckpt.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    (model, meta), ckpt_input = _load_input(load_checkpoint, ckpt)
    # --win and --overlap default to the checkpoint's, else to TrainConfig's
    recorded, defaults = _recorded_crops(ckpt, meta), TrainConfig()
    win = recorded.get("win", defaults.win_s) if ns.win is None else ns.win
    overlap = recorded.get("overlap", defaults.overlap_s) if ns.overlap is None else ns.overlap
    datasets, inputs = _load_subject_datasets(Path(ns.data), ns.target, sources=False)
    _check_target_sessions(datasets, ns.target, lambda session: crop_geometry(
        session.n_samples, session.fs, win, overlap))
    test = make_splits(datasets, spec).test
    del datasets  # only the test range's view of session 2 is kept for decoding
    # crops of another width are refused by width; other crops of the model's
    # width by the flag that differs from the checkpoint's
    _check_width(model, crop_geometry(test.n_samples, test.fs, win, overlap).width)
    for flag, value in recorded.items():
        if getattr(ns, flag) not in (None, value):
            raise ValueError(f"--{flag} {getattr(ns, flag)} differs from the {value} that "
                             f"{ckpt} was trained with")
    branch = model.cfg.target_index if model.kind == "scsn" else None
    crop_acc, trial_acc = evaluate(model, branch, test, win, overlap)
    print(f"crop_accuracy={crop_acc!r}")
    print(f"trial_accuracy={trial_acc!r}")
    summary = _write_text(out / "summary.txt", format_fields([
        ("model", meta.get("model", model.kind)), ("regime", meta.get("regime", "")),
        ("target_subject", ns.target), ("test_crop_accuracy", repr(crop_acc)),
        ("test_trial_accuracy", repr(trial_acc))]))
    write_manifest(out, "eval", replay_args(ns, parser), None, [ckpt_input, *inputs],
                   [summary])
    return 0


def _summary_row(path: Path, key: str, *, blob: bytes) -> ComparisonRow:
    """The comparison row of one run's summary.txt, whose bytes are `blob`;
    a malformed summary raises a ValueError naming the file and the field."""
    fields = read_fields(blob.decode("utf-8"), path)
    fields.setdefault("model_kind", fields.get("model"))  # eval's summary names it `model`
    for name in ("model_kind", "regime", "target_subject", key):
        if fields.get(name) is None:
            raise ValueError(f"{path}: field {name} is missing")
    try:
        return ComparisonRow(fields["model_kind"].replace("_", "-"), fields["regime"],
                             fields["target_subject"], float(fields[key]))
    except ValueError as err:
        raise ValueError(f"{path}: {err} (regime={fields['regime']!r}, "
                         f"{key}={fields[key]!r})") from None


def cmd_report(ns, parser) -> int:
    out = _out_dir(ns)
    key = "test_trial_accuracy" if ns.metric == "trial" else "test_crop_accuracy"
    rows = []
    inputs = []
    for run_dir in ns.runs:
        summary = Path(run_dir) / "summary.txt"
        if not summary.exists():
            raise FileNotFoundError(f"run summary not found: {summary}")
        row, digest = _load_input(functools.partial(_summary_row, key=key), summary)
        rows.append(row)
        inputs.append(digest)
    table = negative_transfer_report(rows)
    outputs = [_write_text(out / "report.csv", table.to_csv_text()),
               _write_text(out / "summary.txt", table.to_text())]
    write_manifest(out, "report", replay_args(ns, parser), None, inputs, outputs)
    print(table.to_text(), end="")
    return 0


def cmd_rerun(ns, parser) -> int:
    manifest = read_manifest(Path(ns.manifest))
    try:
        command, stored = manifest["command"], shlex.split(manifest["args"])
    except KeyError as missing:
        raise ValueError(f"manifest lacks a {missing} line") from None
    drifted = [name for name, digest in manifest["inputs"]
               if not Path(name).is_file() or sha256_file(name) != digest]
    for name in drifted:
        print(f"input differs from the manifest: {name}", file=sys.stderr)
    if drifted:
        return 1
    # argparse keeps the last --out, so this one replaces the recorded one
    code = main([command, *stored, f"--out={ns.out}"])
    if code != 0:
        return code
    out = Path(ns.out)
    mismatched = []
    for name, digest in manifest["outputs"]:
        fresh = out / name
        status = "ok" if fresh.exists() and sha256_file(fresh) == digest else "MISMATCH"
        if status == "MISMATCH":
            mismatched.append(name)
        print(f"{status}\t{name}")
    if mismatched:
        print(f"{len(mismatched)} output(s) differ from the manifest", file=sys.stderr)
        recorded, now = manifest.get("blas_threads"), blas_threads()
        if recorded is not None and recorded != now:
            print(f"the run was made with BLAS threads {recorded!r} and replayed with {now!r};"
                  " outputs are byte-exact only under the recorded setting", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scsnet",
        description="Multi-subject transfer-learning pipeline for multi-channel "
                    "time-series classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multi-subject dataset")
    p.add_argument("--subjects", type=_positive_int, default=5)
    p.add_argument("--sessions", type=_positive_int, default=2)
    p.add_argument("--trials", type=_positive_int, default=288)
    p.add_argument("--channels", type=_positive_int, default=22)
    p.add_argument("--fs", type=_positive_float, default=250.0)
    p.add_argument("--duration", type=_positive_float, default=4.0)
    p.add_argument("--classes", type=_positive_int, default=4)
    p.add_argument("--shift", type=_unit_float, default=0.5,
                   help="subject shift strength in [0, 1]")
    p.add_argument("--snr", type=_positive_float, default=5.0,
                   help="signal-to-noise power ratio")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="notch + bandpass (+ channel selection)")
    p.add_argument("--data", required=True, help="directory of input containers")
    p.add_argument("--notch", type=_positive_float, default=50.0)
    p.add_argument("--low", type=_positive_float, default=1.0)
    p.add_argument("--high", type=_positive_float, default=100.0)
    p.add_argument("--channels", default=None,
                   help="comma-separated channel names to keep, in order")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    defaults = TrainConfig()  # what the train flags and the crop flags default to
    # the split and crop flags that train and eval share
    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--data", required=True)
    split.add_argument("--target", required=True)
    split.add_argument("--calib", type=_nonnegative_int, default=120)
    split.add_argument("--val", type=_range_pair, default=(120, 144))
    split.add_argument("--test", type=_range_pair, default=(144, 288))

    p = sub.add_parser("train", parents=[split], help="train a decoder on a split")
    p.add_argument("--win", type=_positive_float, default=defaults.win_s)
    p.add_argument("--overlap", type=_nonnegative_float, default=defaults.overlap_s)
    p.add_argument("--model", choices=("baseline", "scsn", "scsn-mmd"), required=True)
    p.add_argument("--regime", choices=("single", "multi"), default="multi")
    p.add_argument("--lambda", type=_nonnegative_float, default=defaults.lam,
                   help="weight of the discrepancy term, which is summed over the "
                        "N-1 sources against the branch-mean cross-entropy (scsn-mmd)")
    p.add_argument("--batch", type=_positive_int, default=defaults.batch_per_branch)
    p.add_argument("--epochs", type=_positive_int, default=defaults.max_epochs)
    p.add_argument("--patience", type=_positive_int, default=defaults.patience)
    p.add_argument("--lr", type=_positive_float, default=defaults.lr)
    p.add_argument("--temporal-filters", type=_positive_int, default=defaults.temporal_filters)
    p.add_argument("--temporal-kernel", type=_positive_int, default=defaults.temporal_kernel)
    p.add_argument("--pool-width", type=_positive_int, default=defaults.pool_width)
    p.add_argument("--pool-stride", type=_positive_int, default=defaults.pool_stride)
    p.add_argument("--dropout", type=_dropout_rate, default=defaults.dropout)
    p.add_argument("--common-dims", type=_dims, default=defaults.common_fc_dims)
    p.add_argument("--separate-dims", type=_dims, default=defaults.separate_fc_dims)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--subjects-note", default=SUBJECTS_NOTE,
                   help="informational record of the recommended subject subset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[split], help="evaluate a checkpoint on a test split")
    p.add_argument("--win", type=_positive_float, default=None,
                   help="default: the checkpoint's window")
    p.add_argument("--overlap", type=_nonnegative_float, default=None,
                   help="default: the checkpoint's overlap")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="aggregate runs into the negative-transfer table")
    p.add_argument("--runs", nargs="+", required=True, help="run output directories")
    p.add_argument("--metric", choices=("trial", "crop"), default="trial")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("rerun", help="replay a manifest and verify outputs")
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="fresh output directory for the replay")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command != "rerun":  # every other command writes a manifest
            _check_replay(ns, parser)
        return ns.func(ns, parser)
    except Exception as err:  # runtime failure -> exit 1, message on stderr
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
