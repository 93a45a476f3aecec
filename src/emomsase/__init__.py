"""Multimodal emotion classification from body-worn sensor recordings.

The package splits into:
  dataio      recording/rating ingest, label derivation, synthetic data
  preprocess  filtering, resampling, normalization, windowing
  autodiff    reverse-mode differentiation tape and its primitives
  model       LSTM + multi-scale attention + squeeze-and-excitation graph
  gradcheck   finite-difference verification of the full gradient
  train       AdamW optimisation with early stopping
  evaluate    subject-grouped splits, metrics, array decision fusion
  cli         batch commands (synth, preprocess, run, gradcheck, report)
"""

from .autodiff import Param, Tape, Var
from .dataio import (BoundaryPolicy, LabelCase, RawRecording, SamRating,
                     SyntheticSpec, binarize_rating, derive_labels,
                     make_synthetic)
from .evaluate import (SplitPlan, fuse_decisions, group_kfold, loso,
                       run_experiment)
from .gradcheck import grad_check, micro_config
from .model import EmoMsase, ModelConfig
from .preprocess import WindowedTensor, preprocess_channel
from .train import AdamW, TrainConfig, TrainLog, fit

__version__ = "0.1.0"

__all__ = [
    "AdamW", "BoundaryPolicy", "EmoMsase", "LabelCase", "ModelConfig",
    "Param", "RawRecording", "SamRating", "SplitPlan", "SyntheticSpec",
    "Tape", "TrainConfig", "TrainLog", "Var", "WindowedTensor",
    "binarize_rating", "derive_labels", "fit", "fuse_decisions",
    "grad_check", "group_kfold", "loso", "make_synthetic", "micro_config",
    "preprocess_channel", "run_experiment",
]
