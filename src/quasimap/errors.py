"""Exception types shared across the package."""

from contextlib import contextmanager


class QuasimapError(Exception):
    """Base class for all package errors."""


class NonPositiveValuation(QuasimapError):
    """Substitution requires an inner series with valuation > 0."""


class AmbiguousExponentOrder(QuasimapError):
    """Two symbolically distinct exponents have equal values (only declared generators can make such)."""


class UnknownClass(QuasimapError):
    """Rationality of an angle cannot be decided from its representation."""


class OutOfSector(QuasimapError):
    """Point lies outside the sector a reflection is defined on."""


class CuspAngleZero(QuasimapError):
    """Corner has interior angle 0 (cusp), excluded everywhere downstream."""


class InversionFailure(QuasimapError):
    """Local series inversion did not converge at working precision."""


class ImageEscapesChart(QuasimapError):
    """Function values left the invertibility disk of the chart during reflection."""


class NormalizationError(QuasimapError):
    """Chart derivative at 0 is not unimodular; caller must rescale first."""


class GermTooSmall(QuasimapError):
    """Germ radius too small to seed the reflection tower."""


class OutsideExtensionDomain(QuasimapError):
    """Evaluation point lies outside the domain covered by the built tower."""


class IllConditioned(QuasimapError):
    """Fitting matrix condition number exceeds the configured guard."""

    def __init__(self, cond, message=None):
        self.cond = cond
        super().__init__(message or f"fit matrix condition number {cond:.3e} exceeds guard")


class FailedCertificate(QuasimapError):
    """Asymptotic certificate failed; carries the certificate with the witness."""

    def __init__(self, certificate, message=None):
        self.certificate = certificate
        super().__init__(message or "asymptotic certificate failed")


class DichotomyViolation(QuasimapError):
    """Irrational-angle expansion contains log terms above tolerance."""

    def __init__(self, offending_terms, message=None):
        self.offending_terms = offending_terms
        super().__init__(message or f"log terms present: {offending_terms}")


class NonConvergence(QuasimapError):
    """Nonlinear solve did not reach the requested residual."""

    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"solver stalled at residual {residual:.3e}")


class InvalidAngles(QuasimapError):
    """Polygon angles violate the closure sum rule or the admissible range, or its vertices run clockwise."""


class DegenerateTransform(QuasimapError):
    """Moebius transform has ad - bc = 0."""


@contextmanager
def malformed(field: str):
    """Report a malformed input field as ValueError naming the field.

    Wraps the type, shape and value errors that parsing decoded JSON raises
    (a number where a list belongs, a pair of the wrong length, a zero
    denominator, a string that is no number).
    """
    try:
        yield
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {field!r}: {type(exc).__name__}: {exc}") from exc
