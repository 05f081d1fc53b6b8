"""Exception hierarchy.

Three branches map onto the CLI exit codes: configuration/usage problems
(exit 1), data problems (exit 2), and numeric failures (exit 3).
"""


class BelpmError(Exception):
    """Base class for all library errors."""


class ConfigError(BelpmError):
    """Invalid or inconsistent configuration / usage."""


class InvalidParameter(ConfigError):
    """An argument is outside its documented range."""


class UnsupportedKernel(ConfigError):
    """Kernel kind unknown or not usable for the requested operation."""


class DataError(BelpmError):
    """Problem with input data or stored artifacts."""


class SeriesTooShort(DataError):
    """Series has too few values for the requested embedding/window."""


class IndexOutOfRange(DataError):
    """Index or count exceeds the available data."""


class DimensionMismatch(DataError):
    """Vector dimension does not match the expected feature width."""


class EmptyInput(DataError):
    """An input that must be non-empty is empty."""


class LengthMismatch(DataError):
    """Paired sequences have different lengths."""


class TooFewSamples(DataError):
    """Operation needs more stored samples than are available."""


class ParseError(DataError):
    """Malformed line in a data file; message carries the line number."""


class GapError(DataError):
    """Missing-value sentinel encountered and the gap policy forbids filling."""


class EmptyFile(DataError):
    """Data file contains no observations."""


class VersionMismatch(DataError):
    """Model file was written by an unsupported format version."""


class CorruptFile(DataError):
    """Model file failed its checksum or is structurally broken."""


class NumericError(BelpmError):
    """Numeric failure during fitting or evaluation."""


class SingularSystem(NumericError):
    """Unregularized normal equations are numerically singular."""


class ZeroVariance(NumericError):
    """A metric is undefined because a sequence has zero variance."""
