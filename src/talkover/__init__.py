"""Speech interruption analysis for multi-channel meeting audio.

Pipeline stages: overlap candidate extraction from per-speaker channels,
feature extraction (MFCC, spectrogram, layered SSL embeddings), a
4-class interruption classifier with attention pooling, evaluation at a
fixed false-positive budget, crowd-label aggregation, and a
propensity-stratified estimate of raise-hand impact on inclusiveness.
"""

__version__ = "0.1.0"

from .audio import AudioChannel, MeetingAudio, WavChannel, load_wav, mixdown, write_wav
from .features import LayeredEmbedding, PROFILES, mfcc, spectrogram
from .model import CLASSES, InterruptionModel, TrainConfig, train
from .overlap import CandidateClip, VadParams, detect, export_clip, vad

__all__ = [
    "AudioChannel", "MeetingAudio", "WavChannel", "load_wav", "mixdown", "write_wav",
    "LayeredEmbedding", "PROFILES", "mfcc", "spectrogram",
    "CLASSES", "InterruptionModel", "TrainConfig", "train",
    "CandidateClip", "VadParams", "detect", "export_clip", "vad",
    "__version__",
]
