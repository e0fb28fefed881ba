"""Exception hierarchy shared across the package."""


class QgsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QgsError, ValueError):
    """An argument lies outside the supported domain of an operation."""


class CertificationError(QgsError):
    """A numerical result cannot be certified to the required accuracy."""


class PrecisionLossError(CertificationError):
    """Catastrophic cancellation left fewer significant digits than required."""


class TruncationError(CertificationError):
    """A truncated distribution could not reach the requested tail mass."""


class InsufficientCountsError(QgsError):
    """wavepacket_g2 cannot divide by marginals this small; scan flags the row marginal-floor."""


class ConfigError(QgsError, ValueError):
    """Invalid scan or sampler configuration."""
