"""Multi-subject transfer learning for multi-channel time-series
classification: a baseline CNN decoder, the separate-common-separate network
(SCSN), and its MMD-regularized variant, together with the preprocessing,
split, batching, and evaluation protocol they are trained under.
"""

from .autodiff import Tensor, grad_check
from .datasets import (
    ContainerFormatError,
    Epoch,
    Split,
    SplitSpec,
    SubjectDataset,
    TrialSet,
    balanced_upsample,
    batch_iter,
    load_trialset,
    make_splits,
    save_trialset,
    synth_multisubject,
)
from .mmd import (
    bandwidth_mean_l2,
    layered_class_mmd,
    mmd2_biased,
    multi_source_mmd,
    transfer_loss,
)
from .models import (
    BaselineConfig,
    ScsnConfig,
    build_baseline,
    build_scsn,
    forward_infer,
    forward_train,
    load_checkpoint,
    save_checkpoint,
)
from .preprocessing import (
    bandpass_filter,
    crop_trials,
    crop_trialset,
    notch_filter,
    preprocess_trialset,
    select_channels,
)
from .training import (
    ComparisonRow,
    TrainConfig,
    TrainReport,
    adam_step,
    evaluate,
    negative_transfer_report,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "grad_check",
    "ContainerFormatError", "Epoch", "Split", "SplitSpec", "SubjectDataset", "TrialSet",
    "balanced_upsample", "batch_iter", "load_trialset", "make_splits", "save_trialset",
    "synth_multisubject",
    "bandwidth_mean_l2", "layered_class_mmd", "mmd2_biased", "multi_source_mmd",
    "transfer_loss",
    "BaselineConfig", "ScsnConfig", "build_baseline", "build_scsn", "forward_infer",
    "forward_train", "load_checkpoint", "save_checkpoint",
    "bandpass_filter", "crop_trials", "crop_trialset", "notch_filter", "preprocess_trialset",
    "select_channels",
    "ComparisonRow", "TrainConfig", "TrainReport", "adam_step", "evaluate",
    "negative_transfer_report", "train",
    "__version__",
]
