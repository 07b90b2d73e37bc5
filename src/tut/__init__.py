"""Temporal U-transformer toolkit for frame-wise action segmentation."""

from .data import ClassMapping, SynthSpec, VideoSample, generate_synthetic, load_dataset
from .losses import derive_boundaries, total_loss
from .metrics import EvalReport, evaluate_corpus, extract_segments
from .net import (
    ModelConfig,
    StageOutputs,
    final_prediction,
    init_params,
    load_checkpoint,
    model_forward,
    save_checkpoint,
)
from .tensor import AdamState, SeedStreams, Tensor, adam_step
from .trainer import TrainConfig, TrainState, ablate, predict_sample, train

__version__ = "0.1.0"
