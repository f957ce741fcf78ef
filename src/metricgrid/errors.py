"""Exception hierarchy for metric evaluation.

Input problems, per-point degeneracies, aggregation domain violations and
catalog lookup failures all get distinct types so callers can react to the
exact failure instead of parsing messages.
"""

from __future__ import annotations


class MetricError(Exception):
    """Base class for every error raised by this package."""


# --- input validation ---------------------------------------------------


class ValidationError(MetricError):
    """A series pair or parameter failed validation."""


class LengthMismatch(ValidationError):
    def __init__(self, n_actual: int, n_predicted: int):
        self.n_actual = n_actual
        self.n_predicted = n_predicted
        super().__init__(
            f"series lengths differ: {n_actual} actuals vs {n_predicted} predictions"
        )


class EmptySeries(ValidationError):
    def __init__(self, message: str = "series must contain at least one point"):
        super().__init__(message)


class NonFiniteValue(ValidationError):
    def __init__(self, series: str, index: int):
        self.series = series
        self.index = index
        super().__init__(f"non-finite value in {series} at index {index}")


class BenchmarkMismatch(ValidationError):
    def __init__(self, message: str = "benchmark actuals differ from evaluation actuals"):
        super().__init__(message)


class InsufficientData(ValidationError):
    def __init__(self, message: str):
        super().__init__(message)


# --- per-point degeneracies ---------------------------------------------


class EvaluationError(MetricError):
    """A metric could not be evaluated on the given data under the policy."""


class ZeroDenominator(EvaluationError):
    def __init__(self, index: int | None = None, message: str | None = None):
        self.index = index
        if message is None:
            where = f" at index {index}" if index is not None else ""
            message = f"normalization denominator is zero or near zero{where}"
        super().__init__(message)


class NonpositiveLogRatio(EvaluationError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"log-quotient distance undefined at index {index}: "
            "predicted/actual must be positive"
        )


class RangeOverflow(EvaluationError):
    """A value computed from finite inputs left the floating-point range."""

    def __init__(self, what: str, index: int | None = None):
        self.index = index
        where = f" at index {index}" if index is not None else ""
        super().__init__(f"{what}{where} overflows the floating-point range")


class DistanceOverflow(RangeOverflow):
    def __init__(self, index: int):
        super().__init__("point distance", index)


class NormalizerOverflow(RangeOverflow):
    def __init__(self, index: int):
        super().__init__("normalizer base", index)


class AllPointsSkipped(EvaluationError):
    def __init__(self, message: str = "skip policy removed every point"):
        super().__init__(message)


# --- aggregation and transform domains ----------------------------------


class EmptyAggregation(EvaluationError):
    def __init__(self, message: str = "no points left to aggregate"):
        super().__init__(message)


class GeometricMeanDomain(EvaluationError):
    def __init__(self, message: str | None = None):
        if message is None:
            message = (
                "geometric mean undefined: input contains zero or negative values"
            )
        super().__init__(message)


class HarmonicMeanDomain(EvaluationError):
    def __init__(self, message: str = "harmonic mean undefined: input contains zero"):
        super().__init__(message)


class SqrtDomain(EvaluationError):
    def __init__(self, value: float):
        self.value = value
        super().__init__(f"square root undefined for negative aggregate {value!r}")


class LogDomain(EvaluationError):
    def __init__(self, value: float):
        self.value = value
        super().__init__(f"logarithm undefined for non-positive aggregate {value!r}")


class NonFiniteResult(EvaluationError):
    def __init__(self, value: float):
        self.value = value
        super().__init__(f"metric value {value!r} is not a finite number")


# --- catalog and composite routing --------------------------------------


class UnknownMetric(MetricError):
    def __init__(self, name: str, suggestions: tuple[str, ...] = ()):
        self.name = name
        self.suggestions = suggestions
        hint = f"; did you mean {', '.join(suggestions)}?" if suggestions else ""
        super().__init__(f"unknown metric {name!r}{hint}")


class UnknownVariant(MetricError):
    def __init__(self, metric: str, variant: str, available: tuple[str, ...]):
        self.metric = metric
        self.variant = variant
        self.available = available
        have = ", ".join(available) if available else "none"
        super().__init__(
            f"metric {metric!r} has no variant {variant!r} (available: {have})"
        )


class UnimplementedMetric(MetricError):
    def __init__(self, name: str, reason: str):
        self.name = name
        self.reason = reason
        super().__init__(f"metric {name!r} is catalogued but not implemented: {reason}")


class RequiresBenchmark(MetricError):
    def __init__(self, name: str, needs: str):
        self.name = name
        self.needs = needs
        super().__init__(
            f"metric {name!r} needs {needs}; evaluate it through the derived-metrics API"
        )


class MissingBenchmark(MetricError):
    def __init__(self, name: str, needs: str):
        self.name = name
        self.needs = needs
        super().__init__(f"metric {name!r} needs {needs} and none was supplied")


class DuplicateCellClaim(MetricError):
    def __init__(self, message: str):
        super().__init__(message)


class IngestError(MetricError):
    """Input data or configuration could not be read."""


class ParseError(IngestError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FileAccess(IngestError):
    def __init__(self, path: str, reason: str):
        self.path = path
        super().__init__(f"cannot read {path}: {reason}")


class UnknownSuite(MetricError):
    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown suite {name!r} (available: {', '.join(available) or 'none'})"
        )
