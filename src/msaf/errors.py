"""Exception taxonomy.

Every error raised on purpose by this package derives from MsafError and
falls into one of three buckets that the CLI maps to exit codes:

    ConfigError  -> exit 2   (bad arguments, bad config, bad request)
    DataError    -> exit 3   (malformed or degenerate input data)
    NumericError -> exit 4   (numerical failure during computation)
"""


class MsafError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MsafError):
    """The request itself is invalid (flags, config file, parameters)."""


class DataError(MsafError):
    """The input data is malformed, inconsistent, or degenerate."""


class NumericError(MsafError):
    """A numerical procedure failed or would produce garbage."""


# --- recording i/o ---

class IoFailure(DataError):
    """Underlying file operation failed."""


class BadMagic(DataError):
    """File does not start with the expected magic bytes."""


class ShapeMismatch(DataError):
    """Declared dimensions disagree with the payload size."""


class NonFiniteData(DataError):
    """NaN or infinity where finite values are required."""


class UnknownChannel(ConfigError):
    """Channel name not present in the built-in montage table."""


class DuplicateSubject(DataError):
    """Two rows claim the same subject identifier."""


# --- preprocessing ---

class InvalidBand(ConfigError):
    """Filter band edges outside (0, fs/2) or inverted."""


class InvalidRate(ConfigError):
    """Sampling rate must be positive."""


class RateMismatch(ConfigError):
    """Filter was designed at a different sampling rate than the data."""


class DegenerateChannel(DataError):
    """Channel with (near) zero variance cannot be standardized."""


class InsufficientChannels(DataError):
    """Operation needs more channels than the recording has."""


class EmptyCrop(ConfigError):
    """Crop window contains no samples."""


# --- microstates ---

class NoPeaks(DataError):
    """GFP series contains no local maxima."""


class TooFewSamples(DataError):
    """Fewer observations than clusters (or than the algorithm needs)."""


class DegenerateMap(DataError):
    """Spatially constant topography has no defined correlation."""


class DegenerateSample(DataError):
    """Spatially constant sample encountered where one cannot be handled."""


class EmptyCluster(NumericError):
    """A cluster lost all members and reseeding did not recover it."""


class ZeroGfp(NumericError):
    """Total GFP power is zero; explained variance is undefined."""


class MontageMismatch(DataError):
    """Channel sets or counts disagree between operands."""


class AmbiguousLabels(ConfigError):
    """Label assignment is not a bijection onto the map indices."""


# --- feature extraction ---

class TooShort(DataError):
    """Segmentation shorter than the minimum analyzable duration."""


class InconsistentStates(DataError):
    """Subjects disagree on the state label set."""


# --- models ---

class SingleClass(DataError):
    """Training labels contain fewer than two classes."""


class DimensionMismatch(DataError):
    """Feature dimensionality disagrees between fit and predict."""


class LengthMismatch(DataError):
    """Paired arrays have different lengths."""


class ClassTooSmall(DataError):
    """A class has fewer members than the number of CV folds."""


class TooFewSamplesForValidation(DataError):
    """Not enough rows to carve out an early-stopping validation split."""


class Diverged(NumericError):
    """A boosted fit's margins grew past any usable score."""


# --- explanations ---

class TooManyFeatures(ConfigError):
    """Exact enumeration requested beyond the supported dimensionality."""


class EmptyBackground(ConfigError):
    """Background set must contain at least one row."""


class SingularSystem(NumericError):
    """Weighted regression system singular even after ridge fallback."""


class UnsupportedModel(ConfigError):
    """Explanation method does not apply to this model type."""


# --- statistics ---

class SampleSizeOutOfRange(DataError):
    """Test defined only for a bounded range of sample sizes."""


class ConstantSample(DataError):
    """All observations identical; statistic undefined."""


class DegenerateData(DataError):
    """All observations tied across groups; ranks carry no information."""


class TooFewGroups(DataError):
    """Omnibus test needs at least two groups."""


class InvalidDomain(ConfigError):
    """Argument outside the mathematical domain of the function."""


# --- synthesis / pipeline ---

class InvalidConfig(ConfigError):
    """Configuration object fails validation."""


class UnlabeledData(DataError):
    """Training or statistics require class labels that are missing."""
