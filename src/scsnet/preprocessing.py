"""Trial preprocessing: notch and bandpass filtering, crop generation and
channel selection.

Filters are zero-phase (forward-backward) IIR designs applied along the time
axis, the offline convention for this kind of data; a causal deployment
would switch to forward-only filtering. Sets are filtered in blocks of whole
trials, one filter call per block; every time series is filtered on its own,
so a sample does not depend on which trials share its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import butter, filtfilt, iirnotch

from .datasets import Epoch, TrialSet, _samples

NOTCH_Q = 30.0
BANDPASS_ORDER = 4
_FILTER_BLOCK = 1 << 20  # samples per filtered block of whole trials (8 MB of float64)
# the fewest samples a trial needs for the notch and the bandpass: filtfilt
# pads each end with 3 samples per filter coefficient (the bandpass's
# 2 * BANDPASS_ORDER + 1 outnumber the notch's 3) and needs more than that
MIN_FILTER_SAMPLES = 3 * (2 * BANDPASS_ORDER + 1) + 1


def notch_filter(x: np.ndarray, f0: float, fs: float) -> np.ndarray:
    """Second-order IIR notch at f0, zero-phase, per channel."""
    if not 0.0 < f0 < fs / 2.0:
        raise ValueError(f"notch frequency {f0} must lie in (0, {fs / 2})")
    b, a = iirnotch(f0, NOTCH_Q, fs=fs)
    return filtfilt(b, a, np.asarray(x, dtype=np.float64), axis=-1)


def bandpass_filter(x: np.ndarray, low: float, high: float, fs: float) -> np.ndarray:
    """4th-order Butterworth bandpass, zero-phase, per channel."""
    if not 0.0 < low < high:
        raise ValueError("band edges must satisfy 0 < low < high")
    if high >= fs / 2.0:
        raise ValueError(f"band edge {high} reaches the Nyquist frequency {fs / 2}")
    b, a = butter(BANDPASS_ORDER, [low, high], btype="bandpass", fs=fs)
    return filtfilt(b, a, np.asarray(x, dtype=np.float64), axis=-1)


def _trial_blocks(data: np.ndarray):
    """Yield (offset, block): consecutive rows of a [trials, channels,
    samples] array as float64 blocks of at most _FILTER_BLOCK samples and at
    least one trial. Only one block is converted at a time."""
    per_block = max(1, _FILTER_BLOCK // max(1, data.shape[1] * data.shape[2]))
    for lo in range(0, len(data), per_block):
        yield lo, data[lo:lo + per_block].astype(np.float64)


@dataclass(frozen=True)
class CropGeometry:
    """Where a trial's crops lie, in samples: `count` windows of `width`
    samples starting every `stride` samples, ordered by onset."""

    width: int
    stride: int
    count: int

    @classmethod
    def of(cls, n_samples: int, width: int, stride: int) -> "CropGeometry":
        """Crops of `width` samples every `stride` samples over a trial of
        `n_samples`: floor((n_samples - width) / stride) + 1 of them."""
        if width > n_samples:
            raise ValueError("window exceeds the trial duration")
        return cls(width, stride, (n_samples - width) // stride + 1)

    @property
    def covered(self) -> int:
        """Samples from the first crop's onset to the last crop's end."""
        return (self.count - 1) * self.stride + self.width


def crop_geometry(n_samples: int, fs: float, win_s: float, overlap_s: float) -> CropGeometry:
    """The crops of a trial of `n_samples` at `fs` for a window of `win_s`
    seconds that overlaps the next by `overlap_s` seconds."""
    if not math.isfinite(win_s):
        raise ValueError(f"window of {win_s} s is not finite")
    if not (math.isfinite(overlap_s) and overlap_s >= 0):
        raise ValueError(f"overlap of {overlap_s} s is not finite and nonnegative")
    if overlap_s >= win_s:
        raise ValueError("overlap must be shorter than the window")
    width = _samples(win_s, fs, "window")
    stride = _samples(win_s - overlap_s, fs, "stride")
    return CropGeometry.of(n_samples, width, stride)


def crop_trials(epoch: Epoch, win_s: float, overlap_s: float) -> list[Epoch]:
    """Slice a trial into overlapping fixed-length crops, ordered by onset,
    as laid out by `crop_geometry`."""
    geo = crop_geometry(epoch.n_samples, epoch.fs, win_s, overlap_s)
    return [Epoch(epoch.data[:, i * geo.stride:i * geo.stride + geo.width].copy(),
                  epoch.label, epoch.subject_id, epoch.fs)
            for i in range(geo.count)]


def crop_trialset(trial_set: TrialSet, win_s: float, overlap_s: float) -> TrialSet:
    """Crop every trial; output ordered trial-major, then by onset."""
    geo = crop_geometry(trial_set.n_samples, trial_set.fs, win_s, overlap_s)
    crops = np.stack([trial_set.data[:, :, i * geo.stride:i * geo.stride + geo.width]
                      for i in range(geo.count)], axis=1)
    return replace(trial_set, data=crops.reshape(-1, len(trial_set.channel_names), geo.width),
                   label=np.repeat(trial_set.label, geo.count))


def select_channels(trial_set: TrialSet, names: list[str]) -> TrialSet:
    """Project onto the requested channels, in the requested order."""
    missing = [n for n in names if n not in trial_set.channel_names]
    if missing:
        raise ValueError(f"unknown channel(s): {', '.join(missing)}")
    repeated = [n for i, n in enumerate(names) if n in names[:i]]
    if repeated:
        raise ValueError(f"channel {repeated[0]!r} is given more than once")
    idx = [trial_set.channel_names.index(n) for n in names]
    return replace(trial_set, data=trial_set.data[:, idx], channel_names=names)


def preprocess_trialset(trial_set: TrialSet, notch_hz: float, band: tuple[float, float],
                        channels: list[str] | None = None) -> TrialSet:
    """The standard pipeline: notch at `notch_hz`, bandpass over `band` =
    (low, high), optional channel selection.

    Filtering runs in float64 on blocks of whole trials (at most
    _FILTER_BLOCK samples, at least one trial), each filter designed once
    per block; the results land in one float32 [trials, channels, samples]
    array at the container precision. The outputs equal filtering each trial
    alone, bit for bit. A trial with a NaN or infinite sample is rejected by
    index.
    """
    ts = select_channels(trial_set, channels) if channels else trial_set
    out = np.empty(ts.data.shape, dtype=np.float32)
    for lo, block in _trial_blocks(ts.data):
        finite = np.isfinite(block).all(axis=(1, 2))
        if not finite.all():
            i = lo + int(np.argmin(finite))
            raise ValueError(f"trial {i} (subject {ts.subject_id!r}) holds non-finite samples")
        block = bandpass_filter(notch_filter(block, notch_hz, ts.fs), band[0], band[1], ts.fs)
        out[lo:lo + len(block)] = block
    return replace(ts, data=out)
