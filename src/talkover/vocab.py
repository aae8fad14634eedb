"""The package's fixed vocabularies, in a module that imports nothing,
so that the command-line parser and the label and metric code can read
them without loading the classifier or the feature code."""

# the classifier's output classes, in the order of its logits
CLASSES = ("backchannel", "failed_interruption", "interruption", "laughter")

# sorted(features.PROFILES), which a test holds equal to this
PROFILE_NAMES = ("base", "large", "tiny")
