"""Exception hierarchy shared across the package.

Each family carries the exit code the command line returns for it.
"""


class TalkoverError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class AudioError(TalkoverError):
    """Problems reading, writing, or combining audio."""

    exit_code = 3


class MalformedWavError(AudioError):
    """File is not a parseable RIFF/WAVE container."""


class UnsupportedEncodingError(AudioError):
    """WAV encoding other than 16-bit PCM or 32-bit IEEE float."""


class ChannelLayoutError(AudioError):
    """Channel count differs from what the operation requires."""


class SampleRateError(AudioError):
    """Sample rate differs from the canonical 16 kHz."""


class FeatureError(TalkoverError):
    """Feature extraction or embedding ingestion failure."""

    exit_code = 4


class EmbeddingFormatError(FeatureError):
    """Embedding file is malformed or fails its declared contract."""


class ShapeContractError(FeatureError):
    """Tensor shape differs from the declared contract."""


class MatrixFormatError(FeatureError):
    """A .npy feature file is malformed or is not a finite 2-D real float matrix."""


class ModelError(TalkoverError):
    """Classifier construction, inference, or training failure."""

    exit_code = 5


class FeatureProfileError(ModelError):
    """Model and input feature profiles disagree."""


class TrainingDivergedError(ModelError):
    """Loss became non-finite during optimization."""


class MetricError(TalkoverError):
    """Evaluation metric cannot be computed on the given samples."""

    exit_code = 6


class DegenerateDistributionError(MetricError):
    """Sample set lacks a positive or negative example."""


class LabelError(TalkoverError):
    """Vote aggregation or agreement computation failure."""

    exit_code = 7


class DuplicateVoteError(LabelError):
    """Same annotator voted twice on one clip."""


class UndefinedKappaError(LabelError):
    """Chance agreement is 1, so kappa has no defined value."""


class CausalError(TalkoverError):
    """Propensity modelling or stratified estimation failure."""

    exit_code = 8


class PerfectSeparationError(CausalError):
    """Treatment is perfectly separable from the confounders."""


class SingleClassTreatmentError(CausalError):
    """All records share one treatment status."""


class NoValidStrataError(CausalError):
    """Every stratum lacks a treated or a control record."""


class ManifestError(TalkoverError):
    """Malformed or inconsistent manifest content."""

    exit_code = 9
