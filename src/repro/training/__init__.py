"""End-to-end (simulated) training loop gluing all subsystems together."""

from repro.training.config import TrainingConfig
from repro.training.trainer import Trainer, TrainingResult
from repro.training.throughput import ThroughputMeter
from repro.training.checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "TrainingConfig",
    "Trainer",
    "TrainingResult",
    "ThroughputMeter",
    "save_checkpoint",
    "load_checkpoint",
]
