"""Exception and warning types shared by all featkit modules."""


class FeatkitError(Exception):
    """Base class for every error raised by this package."""


class MalformedFile(FeatkitError):
    """A feature, label, model, or index file violates its format."""


class UnknownId(FeatkitError):
    """A requested identifier is not present in a file-backed store."""


class ExtractorFailure(FeatkitError):
    """An extractor could not produce a feature vector."""


class ProtocolViolation(ExtractorFailure):
    """An external extractor replied, but broke the line protocol."""


class RegionOutOfBounds(FeatkitError):
    """A rectangle does not fit inside the image it is bound to."""


class DimMismatch(FeatkitError):
    """Vector or matrix dimensions are inconsistent."""


class SingleClassData(FeatkitError):
    """Training data contains only one label where two are required."""


class DegenerateImage(FeatkitError):
    """Image or crop dimensions collapse to zero pixels."""


class EmptyInput(FeatkitError, ValueError):
    """An operation received an empty sequence it cannot handle."""


class NoPositives(FeatkitError):
    """Ranking metrics require at least one positive label."""


class UnknownLabel(FeatkitError):
    """A label is not in the declared class list."""


class EmptyClassRow(FeatkitError):
    """A confusion-matrix row has no samples."""


class EmptyRelevantSet(FeatkitError):
    """recall@k requires a non-empty relevant set."""


class RankDeficientWarning(UserWarning):
    """Fewer usable eigenvalues than requested; dimension was reduced."""


class ClampedDimensionWarning(UserWarning):
    """A requested projection dimension exceeded what the data allows."""


class SkippedClassWarning(UserWarning):
    """A degenerate one-vs-all subproblem was skipped during training."""


class ConvergenceWarning(UserWarning):
    """A solver hit its epoch limit before its stop test passed."""
