"""Exception hierarchy shared across the toolkit.

Three broad families map onto CLI exit codes:
  * VoxidUsageError   -> 64 (bad arguments / bad config)
  * VoxidDataError    -> 2  (unreadable or unsupported input data)
  * VoxidDomainError  -> 1  (valid inputs, operation cannot proceed)
"""


class VoxidError(Exception):
    """Base class for all toolkit errors."""


class VoxidUsageError(VoxidError):
    """Bad command-line arguments or malformed configuration."""


class VoxidDataError(VoxidError):
    """Input data is unreadable, unsupported or corrupt."""


class VoxidDomainError(VoxidError):
    """Inputs are well-formed but the requested operation is invalid."""


# --- audio ingestion -------------------------------------------------------

class UnsupportedSampleRate(VoxidDataError):
    pass


class UnsupportedEncoding(VoxidDataError):
    pass


class MalformedContainer(VoxidDataError):
    pass


class EmptyAudio(VoxidDataError):
    pass


# --- DSP front-end ---------------------------------------------------------

class SignalTooShort(VoxidDomainError):
    pass


class FrameTooShort(VoxidDomainError):
    pass


class InvalidDftSize(VoxidDomainError):
    pass


class DimensionMismatch(VoxidDomainError):
    pass


# --- mixture models --------------------------------------------------------

class EmptyFeatureMatrix(VoxidDomainError):
    pass


class TooFewFrames(VoxidDomainError):
    pass


class NegativeRelevance(VoxidDomainError):
    pass


# --- total variability -----------------------------------------------------

class RankTooLarge(VoxidDomainError):
    pass


class NumericalFailure(VoxidDomainError):
    pass


# --- scoring ---------------------------------------------------------------

class DegenerateCohort(VoxidDomainError):
    pass


class ZeroVector(VoxidDomainError):
    pass


class NotADistribution(VoxidDomainError):
    pass


# --- evaluation ------------------------------------------------------------

class EmptyRegistry(VoxidDomainError):
    pass


class ModeMismatch(VoxidDomainError):
    pass


class EmptyScoreSet(VoxidDomainError):
    pass


class NanScore(VoxidDomainError):
    pass


class InvalidExperimentConfig(VoxidUsageError):
    pass


class DuplicateSpeakerId(VoxidDomainError):
    pass


# --- persistence -----------------------------------------------------------

class IoFailure(VoxidDataError):
    pass


class WrongKind(VoxidDataError):
    pass


class UnsupportedVersion(VoxidDataError):
    pass


class CorruptArtifact(VoxidDataError):
    pass
