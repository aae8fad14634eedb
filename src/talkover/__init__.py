"""Speech interruption analysis for multi-channel meeting audio.

Pipeline stages: overlap candidate extraction from per-speaker channels,
feature extraction (MFCC, spectrogram, layered SSL embeddings), a
4-class interruption classifier with attention pooling, evaluation at a
fixed false-positive budget, crowd-label aggregation, and a
propensity-stratified estimate of raise-hand impact on inclusiveness.

The package loads none of its modules: import the one you use, such as
talkover.model or talkover.features, so that each command of the
talkover.cli front end starts with only the modules it runs.
"""

__version__ = "0.1.0"
