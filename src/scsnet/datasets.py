"""Trial containers, the on-disk dataset format, the `name=value` codec of
every header and summary the package writes, synthetic multi-subject
generation, the train/val/test split protocol, balanced upsampling, and
multi-branch batch iteration.

Containers store float32 samples; all numeric work downstream runs in
float64. One container file holds one TrialSet (a single subject's session).
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable, Sized
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import _run_each

HEADER_KEYS = ("format_version", "fs_hz", "n_trials", "n_channels", "n_samples",
               "channel_names", "class_names", "subject_id")
FORMAT_VERSION = 1


class ContainerFormatError(ValueError):
    """Raised when a dataset file is malformed; the message names the field."""


@dataclass
class Epoch:
    """One trial (or crop) with its label: what `crop_trials` takes and returns."""

    data: np.ndarray  # [channels, samples]
    label: int
    subject_id: str
    fs: float

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 2:
            raise ValueError("epoch data must be [channels, samples]")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be finite and positive, got {self.fs!r}")
        if self.label < 0:
            raise ValueError("label must be a nonnegative class index")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass
class TrialSet:
    """One subject's labeled trials as one [trials, channels, samples] array
    sharing one channel layout and sampling rate."""

    data: np.ndarray  # [trials, channels, samples], in the dtype it was given
    label: np.ndarray  # int64 [trials]
    subject_id: str
    channel_names: list[str]
    fs: float
    class_names: list[str]

    def __post_init__(self):
        self.data = np.asarray(self.data)
        given = np.asarray(self.label)
        with np.errstate(invalid="ignore"):  # a non-finite label, refused below
            self.label = given.astype(np.int64)
        self.channel_names, self.class_names = list(self.channel_names), list(self.class_names)
        if self.data.ndim != 3 or self.data.shape[1] != len(self.channel_names):
            raise ValueError("data must be [trials, channels, samples] over channel_names")
        if self.label.shape != self.data.shape[:1]:
            raise ValueError("label must hold one class index per trial")
        # a label the int64 cast changes, such as 0.7, is refused, not truncated
        bad = np.flatnonzero((self.label != given) | (self.label < 0)
                             | (self.label >= len(self.class_names)))
        if len(bad):
            raise ValueError(f"trial {bad[0]}: label {given[bad[0]].item()!r} is not an "
                             "integer index into class_names")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be finite and positive, got {self.fs!r}")
        self.fs = float(self.fs)  # the container records repr(fs), which numpy scalars spell out

    def __len__(self) -> int:
        return len(self.data)

    @property
    def n_samples(self) -> int:
        return self.data.shape[2]

    def subset(self, indices) -> "TrialSet":
        """The rows `indices`; a slice gives views of this set's arrays."""
        rows = indices if isinstance(indices, slice) else np.asarray(indices, dtype=np.intp)
        return replace(self, data=self.data[rows], label=self.label[rows])


@dataclass
class SubjectDataset:
    """One subject's recording sessions, in chronological order."""

    subject_id: str
    sessions: list[TrialSet]


# ---------------------------------------------------------------------------
# name=value headers and the container format


def format_fields(pairs) -> str:
    """One `name=value` line per (name, value) pair, in order: the only writer
    of the lines `read_fields` reads. Names may repeat. An empty name or one
    holding `=`, or a line that `str.splitlines` would cut or that is not
    UTF-8 text, raises a ValueError naming the field."""
    lines = []
    for name, value in pairs:
        line = f"{name}={value}"
        if not name or "=" in name:
            raise ValueError(f"field name {name!r} must be non-empty and free of '='")
        if line.splitlines() != [line] or line.encode("utf-8", "replace").decode() != line:
            raise ValueError(f"field {name!r} may not hold a line break or non-UTF-8 text: "
                             f"{line!r}")
        lines.append(f"{line}\n")
    return "".join(lines)


def read_fields(text: str, source, error=ValueError) -> dict[str, str]:
    """The `name=value` lines of a header or run summary; a non-blank line
    without `=`, or a name given twice, raises `error` naming `source` and
    the line or field."""
    fields = {}
    for line in filter(None, text.splitlines()):
        name, eq, value = line.partition("=")
        if not eq:
            raise error(f"{source}: line {line!r} is not name=value")
        if name in fields:
            raise error(f"{source}: field {name} is given twice")
        fields[name] = value
    return fields


def read_header(blob: bytes, source, error=ValueError) -> tuple[dict[str, str], int]:
    """The fields of a binary file's header, which a blank line ends, and the
    offset of the payload after it; a malformed header raises `error`."""
    end = blob.find(b"\n\n")
    if end < 0:
        raise error(f"{source}: header not terminated by a blank line")
    try:
        return read_fields(blob[:end].decode("utf-8"), source, error), end + 2
    except UnicodeDecodeError:
        raise error(f"{source}: header is not valid UTF-8") from None


def _check_name(kind: str, name: str, may_be_empty: bool = False) -> None:
    # a lone empty channel or class name would be written as an empty list
    if not (name or may_be_empty):
        raise ValueError(f"{kind} may not be empty")
    if "," in name:
        raise ValueError(f"{kind} {name!r} may not contain commas")


def _check_finite_trials(data: np.ndarray, path, error) -> None:
    finite = np.isfinite(data).all(axis=(1, 2))
    if not finite.all():
        raise error(f"{path}: trial {int(np.argmin(finite))} holds non-finite samples")


def write_parts(path, parts: Iterable) -> str:
    """Write the byte strings (or buffers) `parts` to `path`, in order, and
    return the sha256 hex digest of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            digest.update(part)
            fh.write(part)
    return digest.hexdigest()


def save_trialset(trial_set: TrialSet, path) -> str:
    """Write one TrialSet: text header, blank line, uint8 labels, float32
    little-endian payload in [trial][channel][sample] order; returns the
    sha256 hex digest of the file's bytes. Non-finite samples, which
    `load_trialset` refuses, are refused here too, naming the file and the
    trial, before the file is opened."""
    _check_name("subject id", trial_set.subject_id, may_be_empty=True)
    for name in trial_set.channel_names:
        _check_name("channel name", name)
    for name in trial_set.class_names:
        _check_name("class name", name)
    header = format_fields([
        ("format_version", FORMAT_VERSION), ("fs_hz", repr(trial_set.fs)),
        ("n_trials", len(trial_set)), ("n_channels", len(trial_set.channel_names)),
        ("n_samples", trial_set.n_samples), ("channel_names", ",".join(trial_set.channel_names)),
        ("class_names", ",".join(trial_set.class_names)), ("subject_id", trial_set.subject_id)])
    labels = trial_set.label
    if labels.size and labels.max() > 255:
        raise ValueError("labels above 255 do not fit the container format")
    payload = np.ascontiguousarray(trial_set.data, dtype="<f4")
    _check_finite_trials(payload, path, ValueError)
    return write_parts(path, [f"{header}\n".encode("utf-8"),
                              labels.astype(np.uint8).tobytes(), payload.data])


def _parse_int(fields: dict, key: str, path) -> int:
    try:
        value = int(fields[key])
    except ValueError:
        raise ContainerFormatError(f"{path}: field {key} is not a decimal integer") from None
    if value < 0:
        raise ContainerFormatError(f"{path}: field {key} must be nonnegative")
    return value


def load_trialset(path, *, blob: bytes | None = None) -> TrialSet:
    """Read a container written by save_trialset; round-trips bit-exactly.
    Given `blob`, the bytes of `path` read earlier, parse those instead of
    reading the file. The set's data is one read-only float32 array over
    the payload. Every refusal names the file; non-finite samples are
    rejected, naming the trial too."""
    if blob is None:
        with open(path, "rb") as fh:
            blob = fh.read()
    fields, offset = read_header(blob, path, ContainerFormatError)
    for key in HEADER_KEYS:
        if key not in fields:
            raise ContainerFormatError(f"{path}: field {key} is missing")
    if fields["format_version"] != str(FORMAT_VERSION):
        raise ContainerFormatError(
            f"{path}: unsupported format_version {fields['format_version']!r}")
    try:
        fs = float(fields["fs_hz"])
    except ValueError:
        raise ContainerFormatError(f"{path}: field fs_hz is not a number") from None
    if not math.isfinite(fs) or fs <= 0:
        raise ContainerFormatError(f"{path}: field fs_hz must be positive")
    n_trials = _parse_int(fields, "n_trials", path)
    n_channels = _parse_int(fields, "n_channels", path)
    n_samples = _parse_int(fields, "n_samples", path)
    channel_names = fields["channel_names"].split(",") if fields["channel_names"] else []
    class_names = fields["class_names"].split(",") if fields["class_names"] else []
    if len(channel_names) != n_channels:
        raise ContainerFormatError(f"{path}: field channel_names does not match n_channels")
    subject_id = fields["subject_id"]

    start = offset + n_trials
    if len(blob) < start:
        raise ContainerFormatError(f"{path}: truncated label block")
    labels = np.frombuffer(blob[offset:start], dtype=np.uint8)
    expected = n_trials * n_channels * n_samples * 4
    payload = blob[start:]
    if len(payload) != expected:
        raise ContainerFormatError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}")
    data = np.frombuffer(payload, dtype="<f4").reshape(n_trials, n_channels, n_samples)
    _check_finite_trials(data, path, ContainerFormatError)
    if labels.size and int(labels.max()) >= len(class_names):
        raise ContainerFormatError(f"{path}: label block references a class beyond class_names")

    return TrialSet(data, labels, subject_id, channel_names, fs, class_names)


# ---------------------------------------------------------------------------
# split protocol


@dataclass(frozen=True)
class SplitSpec:
    """How the target subject's second session feeds train/val/test."""

    target_subject: str
    calib_trials: int
    val_range: tuple[int, int]
    test_range: tuple[int, int]

    def __post_init__(self):
        v0, v1 = self.val_range
        t0, t1 = self.test_range
        if self.calib_trials < 0 or v0 > v1 or t0 > t1:
            raise ValueError("ranges must be nonnegative and ordered")
        for name, (lo, hi) in (("validation", self.val_range), ("test", self.test_range)):
            if lo == hi:
                raise ValueError(f"the {name} range {lo}:{hi} is empty")
        if not (self.calib_trials <= v0 and v1 <= t0):
            raise ValueError("calibration, validation and test ranges must not overlap")


@dataclass
class Split:
    """Per-subject training sets plus target-only validation and test sets.
    Each training set is its subject's first session; the target's ends with
    the first `calib_trials` trials of its second session."""

    train: dict[str, TrialSet]
    val: TrialSet
    test: TrialSet
    target_subject: str
    calib_trials: int = 0


def make_splits(datasets: list[SubjectDataset], spec: SplitSpec) -> Split:
    """Session 1 of every subject trains; the target's session 2 is divided
    into calibration (into training), validation, and test ranges."""
    by_id = {}
    for ds in datasets:
        if ds.subject_id in by_id:
            raise ValueError(f"duplicate subject id {ds.subject_id!r}")
        if not ds.sessions:
            raise ValueError(f"subject {ds.subject_id!r} has no sessions")
        by_id[ds.subject_id] = ds
    if spec.target_subject not in by_id:
        raise ValueError(f"target subject {spec.target_subject!r} not in datasets")

    train: dict[str, TrialSet] = {}
    target = by_id[spec.target_subject]
    session1 = target.sessions[0]
    for ds in datasets:
        if ds.subject_id == spec.target_subject:
            continue
        for name in ("channel_names", "fs", "class_names"):
            if getattr(ds.sessions[0], name) != getattr(session1, name):
                raise ValueError(f"subject {ds.subject_id!r}: session 1 differs from the "
                                 f"target {spec.target_subject!r} in {name}")
        train[ds.subject_id] = ds.sessions[0]

    if len(target.sessions) < 2:
        raise ValueError(f"target subject {spec.target_subject!r} has no second session")
    session2 = target.sessions[1]
    limit = len(session2)
    for name, hi in (("calib_trials", spec.calib_trials),
                     ("val_range", spec.val_range[1]),
                     ("test_range", spec.test_range[1])):
        if hi > limit:
            raise ValueError(f"{name} exceeds the second session size ({limit})")
    for name in ("channel_names", "fs", "n_samples", "class_names"):
        if getattr(session2, name) != getattr(session1, name):
            raise ValueError(f"subject {spec.target_subject!r}: sessions 1 and 2 "
                             f"differ in {name}")
    calib = slice(spec.calib_trials)
    train[spec.target_subject] = replace(
        session1, data=np.concatenate([session1.data, session2.data[calib]]),
        label=np.concatenate([session1.label, session2.label[calib]]))
    val = session2.subset(slice(*spec.val_range))
    test = session2.subset(slice(*spec.test_range))
    return Split(train, val, test, spec.target_subject, spec.calib_trials)


# ---------------------------------------------------------------------------
# synthetic multi-subject data

_MIX_JITTER = 0.15
_SYNTH_BLOCK = 1 << 16  # float64 samples per block of trials `_synth_trials` computes on


def _samples(seconds: float, fs: float, what: str) -> int:
    """`seconds` at `fs` as a whole, positive number of samples; any other
    span is refused, naming `what`."""
    exact = seconds * fs
    rounded = round(exact)
    if abs(exact - rounded) > 1e-9 or rounded < 1:
        raise ValueError(f"{what} of {seconds} s is not a whole number of samples at fs={fs}")
    return int(rounded)


def class_center_frequencies(n_classes: int) -> np.ndarray:
    """Distinct oscillation frequencies in the 8-30 Hz band, packed 0.8 Hz
    apart (comparable to the per-trial frequency jitter) so that class
    identity hinges on spatial structure rather than frequency content."""
    if n_classes <= 25:
        return 10.0 + 0.8 * np.arange(n_classes)
    return 8.0 + 22.0 * (np.arange(n_classes) + 1) / (n_classes + 1)


def class_spatial_patterns(n_channels: int, n_classes: int) -> np.ndarray:
    """Bipolar pattern per class over a class-specific channel pair,
    normalized so the mean clean channel power is amplitude-independent."""
    patterns = np.zeros((n_classes, n_channels))
    amp = math.sqrt(n_channels / 2.0)
    for c in range(n_classes):
        a = (2 * c) % n_channels
        b = (2 * c + 1) % n_channels
        if a == b:
            b = (b + 1) % n_channels
        patterns[c, a] += amp
        patterns[c, b] -= amp
    return patterns


def subject_mixing_matrix(seed: int, subject_index: int, n_channels: int,
                          shift_strength: float) -> np.ndarray:
    """Subject-specific channel permutation plus dense mixing jitter.

    The permutation moves whole channel pairs (the supports of the class
    patterns) in a cycle over round(shift_strength * n_pairs) randomly chosen
    pairs, so different subjects assign the same observable pattern to
    different classes; the jitter amplitude also scales with shift_strength.
    Exactly the identity at shift_strength 0.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, subject_index)))
    n_pairs = n_channels // 2
    moved = round(shift_strength * n_pairs)
    chosen = rng.choice(n_pairs, size=moved, replace=False) if moved else np.array([], int)
    perm = np.arange(n_channels)
    for src, dst in zip(chosen, np.roll(chosen, 1)):
        flip = rng.random() < 0.5
        perm[2 * src] = 2 * dst + (1 if flip else 0)
        perm[2 * src + 1] = 2 * dst + (0 if flip else 1)
    matrix = np.zeros((n_channels, n_channels))
    matrix[perm, np.arange(n_channels)] = 1.0
    jitter = rng.normal(0.0, _MIX_JITTER / math.sqrt(n_channels), (n_channels, n_channels))
    if shift_strength == 0.0:
        return np.eye(n_channels)
    return matrix + shift_strength * jitter


def synth_multisubject(n_subjects: int, n_sessions: int, n_trials: int,
                       n_channels: int, fs: float, duration_s: float,
                       n_classes: int, shift_strength: float, snr: float,
                       seed: int) -> list[SubjectDataset]:
    """Generate class-structured oscillatory trials for several subjects.

    Each class is a band-limited oscillation (distinct center frequency,
    random phase/frequency/amplitude jitter per trial) projected through a
    class-specific bipolar spatial pattern, plus white noise with
    signal-to-noise power ratio `snr`. Every subject observes the sources
    through its own mixing matrix whose distance from the identity scales
    with `shift_strength`. Deterministic given `seed`.
    """
    for name, value in (("n_subjects", n_subjects), ("n_sessions", n_sessions),
                        ("n_trials", n_trials), ("n_channels", n_channels),
                        ("n_classes", n_classes)):
        if value < 1:
            raise ValueError(f"{name} must be positive")
    for name, value in (("fs", fs), ("duration_s", duration_s), ("snr", snr)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if n_channels < 2:
        raise ValueError(f"n_channels must be at least 2, got {n_channels}: each class "
                         "pattern spans a pair of channels")
    if not 0.0 <= shift_strength <= 1.0:
        raise ValueError("shift_strength must lie in [0, 1]")

    n_samples = _samples(duration_s, fs, "duration_s")
    t = np.arange(n_samples) / fs
    freqs = class_center_frequencies(n_classes)
    patterns = class_spatial_patterns(n_channels, n_classes)
    noise_sigma = math.sqrt(0.5 / snr)
    channel_names = [f"ch{i:02d}" for i in range(n_channels)]
    class_names = [f"class{c}" for c in range(n_classes)]
    mixings = [subject_mixing_matrix(seed, s, n_channels, shift_strength)
               for s in range(n_subjects)]

    def session(unit) -> TrialSet:
        data, s, k = unit
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, s, k)))
        labels = np.tile(np.arange(n_classes), n_trials // n_classes + 1)[:n_trials]
        rng.shuffle(labels)
        _synth_trials(rng, data, labels, t, freqs, patterns, mixings[s], noise_sigma)
        return TrialSet(data, labels, f"S{s + 1:02d}", channel_names, fs, class_names)

    # one item per session, each filling samples the calling thread allocated
    sessions = _run_each(session, [
        (np.empty((n_trials, n_channels, n_samples), dtype=np.float32), s, k)
        for s in range(n_subjects) for k in range(n_sessions)])
    return [SubjectDataset(f"S{s + 1:02d}", sessions[s * n_sessions:(s + 1) * n_sessions])
            for s in range(n_subjects)]


def _synth_trials(rng: np.random.Generator, out: np.ndarray, labels: np.ndarray,
                  t: np.ndarray, freqs: np.ndarray, patterns: np.ndarray,
                  mixing: np.ndarray, noise_sigma: float) -> None:
    """Fill `out`, one session's float32 [trials, channels, samples], with
    the trials of `labels`. Per trial, `rng` draws the frequency jitter, the
    phase, the amplitude and the noise, in that order; the waves, their
    projection and the sum are computed on blocks of at most _SYNTH_BLOCK
    float64 samples, elementwise as for one trial alone."""
    n_trials, n_channels, n_samples = out.shape
    per_block = max(1, _SYNTH_BLOCK // max(1, n_channels * n_samples))
    for lo in range(0, n_trials, per_block):
        block = labels[lo:lo + per_block]
        jitter, phase, amp = np.empty((3, len(block), 1))
        noise = np.empty((len(block), n_channels, n_samples))
        for j in range(len(block)):
            jitter[j], phase[j], amp[j] = (rng.uniform(-0.5, 0.5), rng.uniform(0.0, 2.0 * math.pi),
                                           rng.uniform(0.8, 1.2))
            noise[j] = rng.normal(0.0, noise_sigma, (n_channels, n_samples))
        f = freqs[block, None] + jitter
        wave = amp * np.sin(2.0 * math.pi * f * t + phase)
        clean = mixing @ (patterns[block, :, None] * wave[:, None, :])
        out[lo:lo + len(block)] = clean + noise


# ---------------------------------------------------------------------------
# balanced upsampling and batching


def balanced_duplicates(labels: np.ndarray, class_names: list[str], target_size: int,
                        seed) -> np.ndarray:
    """Indices of the random duplicates that bring a set with these labels
    to target_size with per-class counts within 1 of target_size /
    n_classes, class by class in index order; originals are always kept."""
    if target_size < len(labels):
        raise ValueError("target_size must not shrink the set")
    n_classes = len(class_names)
    counts = np.bincount(labels, minlength=n_classes) if labels.size else np.zeros(n_classes, int)
    missing = [class_names[c] for c in range(n_classes) if counts[c] == 0]
    if missing:
        raise ValueError(f"cannot balance: class(es) absent from input: {', '.join(missing)}")

    base, remainder = divmod(target_size, n_classes)
    per_class = np.full(n_classes, base, dtype=int)
    per_class[:remainder] += 1
    if np.any(counts > per_class):
        raise ValueError("cannot balance without dropping trials; raise target_size")

    rng = np.random.default_rng(seed)
    extra = [np.empty(0, dtype=np.int64)]
    for c in range(n_classes):
        need = int(per_class[c] - counts[c])
        if need:
            extra.append(rng.choice(np.flatnonzero(labels == c), size=need, replace=True))
    return np.concatenate(extra)


def balanced_upsample(trial_set: TrialSet, target_size: int, seed: int) -> TrialSet:
    """Append the `balanced_duplicates` of a set's trials to it."""
    extra = balanced_duplicates(trial_set.label, trial_set.class_names, target_size, seed)
    return trial_set.subset(np.concatenate([np.arange(len(trial_set)), extra]))


def batch_iter(train: dict[str, Sized], batch_per_branch: int, seed: int):
    """Yield one epoch of multi-branch batches as {subject: trial indices}.

    Every subject's pool is shuffled once, then consumed without replacement;
    the epoch ends when the smallest pool cannot fill another batch.
    Deterministic given the seed.
    """
    if batch_per_branch < 1:
        raise ValueError("batch_per_branch must be positive")
    subjects = sorted(train)
    if not subjects:
        raise ValueError("no subjects to batch over")
    sizes = {s: len(train[s]) for s in subjects}
    small = min(sizes.values())
    if small < batch_per_branch:
        raise ValueError(
            f"smallest pool ({small}) is below the batch size ({batch_per_branch})")
    rng = np.random.default_rng(seed)
    perms = {s: rng.permutation(sizes[s]) for s in subjects}
    for b in range(small // batch_per_branch):
        lo, hi = b * batch_per_branch, (b + 1) * batch_per_branch
        yield {s: perms[s][lo:hi] for s in subjects}
