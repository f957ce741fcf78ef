"""Core value types.

A metric evaluation is described by four orthogonal choices: a point
distance, a normalizer, an aggregator and optional transforms.  The types
here encode those choices as small frozen dataclasses plus a validated
``SeriesPair`` holding the data.  Construction implies validity: any
instance you can obtain satisfies its invariants.  Every series, the
history and the CLI's JSON arrays too, passes one rule: ``as_series``
(the only judge of what is a number), ``finite_range``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptySeries,
    LengthMismatch,
    NonFiniteResult,
    NonFiniteValue,
    ValidationError,
)

# Denominators with magnitude below this are treated as zero.
NEAR_ZERO = 1e-12
# The smallest positive normal double; a log quotient below it is abnormal.
SMALLEST_NORMAL = float(np.finfo(float).tiny)


class Distance(Enum):
    """Per-point distance between an actual and a predicted value."""

    ERROR = "D1"                  # A - P, signed
    ABSOLUTE_ERROR = "D2"         # |A - P|
    SQUARED_ERROR = "D3"          # (A - P)^2
    LOG_QUOTIENT = "D4"           # ln(P / A), signed
    ABS_LOG_QUOTIENT = "D5"       # |ln(P / A)|

    @property
    def code(self) -> str:
        return self.value


class NormKind(Enum):
    """What the per-point distance is divided by (or multiplied, for c=-1)."""

    UNITARY = "N1"                # no normalization
    BY_ACTUALS = "N2"             # A_j
    BY_VARIABILITY = "N3"         # A_j - mean(A)
    BY_SUM = "N4"                 # A_j + P_j
    BY_MAX = "N5max"              # max(A_j, P_j)
    BY_MIN = "N5min"              # min(A_j, P_j)

    @property
    def column(self) -> str:
        """Chart column code; max and min share the N5 column."""
        return "N5" if self in (NormKind.BY_MAX, NormKind.BY_MIN) else self.value


class AggKind(Enum):
    """How normalized point values collapse to a single number."""

    MEAN = "G1"
    MEDIAN = "G2"
    GEOMETRIC_MEAN = "G3"
    SUM = "G4"
    MAXIMUM = "max"
    HARMONIC_MEAN = "harmonic"
    TRUNCATED_MEAN = "truncated"
    WINSORIZED_MEAN = "winsorized"


class PointTransform(Enum):
    """Optional per-point map applied after normalization."""

    IDENTITY = "identity"
    EXP_MINUS_ONE = "exp-minus-one"              # x -> exp(x) - 1
    SIGNED_EXP_MINUS_ONE = "signed-exp-minus-one"  # x -> sign(P-A) * (exp(x) - 1)
    TIMES_PREDICTED = "times-predicted"          # x -> P * x
    TIMES_DIFFERENCE = "times-difference"        # x -> (P - A) * x


class PostKind(Enum):
    """Transform applied to the aggregated scalar."""

    SQRT = "sqrt"
    SCALE = "scale"
    SYMMETRIC_ACCURACY = "symmetric-accuracy"  # x -> 100 * (exp(x) - 1)


class Dimension(Enum):
    """Unit class of a metric value."""

    SAME_AS_DATA = "same-as-data"
    SQUARED_DATA = "squared-data"
    CUBED_DATA = "cubed-data"
    DIMENSIONLESS = "dimensionless"
    PERCENT = "percent"


@dataclass(frozen=True)
class NormalizerSpec:
    """Normalization step: value -> factor * value / base**exponent.

    ``exponent`` may be 1, 2 or -1; -1 means multiply by the base (weight
    style) and performs no zero check.  ``absolute`` takes the magnitude of
    the base before exponentiation; for BY_SUM it means |A| + |P| rather
    than |A + P|.  ``factor`` scales the numerator (2 for the fractional
    family).  UNITARY ignores and canonicalizes all three fields.
    """

    kind: NormKind
    exponent: int = 1
    absolute: bool = False
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind is NormKind.UNITARY:
            object.__setattr__(self, "exponent", 1)
            object.__setattr__(self, "absolute", False)
            object.__setattr__(self, "factor", 1.0)
            return
        if self.exponent not in (-1, 1, 2):
            raise ValidationError(f"normalizer exponent must be -1, 1 or 2, got {self.exponent!r}")
        if self.kind in (NormKind.BY_MAX, NormKind.BY_MIN) and self.absolute:
            raise ValidationError("max/min normalizers have no absolute variant")
        if not (np.isfinite(self.factor) and self.factor != 0):
            raise ValidationError(f"numerator factor must be finite and nonzero, got {self.factor!r}")


UNITARY = NormalizerSpec(NormKind.UNITARY)


@dataclass(frozen=True)
class Aggregator:
    """Aggregation step; truncated/winsorized means carry a trim fraction."""

    kind: AggKind
    fraction: float = 0.0

    def __post_init__(self) -> None:
        trimmed = self.kind in (AggKind.TRUNCATED_MEAN, AggKind.WINSORIZED_MEAN)
        if trimmed:
            if not (0.0 <= self.fraction < 0.5):
                raise ValidationError(f"trim fraction must lie in [0, 0.5), got {self.fraction!r}")
        elif self.fraction != 0.0:
            raise ValidationError(f"{self.kind.value} aggregator takes no fraction")


MEAN = Aggregator(AggKind.MEAN)
MEDIAN = Aggregator(AggKind.MEDIAN)
GEOMETRIC_MEAN = Aggregator(AggKind.GEOMETRIC_MEAN)
SUM = Aggregator(AggKind.SUM)
MAXIMUM = Aggregator(AggKind.MAXIMUM)


@dataclass(frozen=True)
class PostTransform:
    kind: PostKind
    k: float = 1.0

    def __post_init__(self) -> None:
        if self.kind is PostKind.SCALE and not (np.isfinite(self.k) and self.k != 0):
            raise ValidationError(f"scale constant must be finite and nonzero, got {self.k!r}")


SQRT = PostTransform(PostKind.SQRT)
PERCENT_SCALE = PostTransform(PostKind.SCALE, 100.0)
SYMMETRIC_ACCURACY = PostTransform(PostKind.SYMMETRIC_ACCURACY)

Cell = tuple[Distance, NormKind, AggKind]


@dataclass(frozen=True)
class MetricComposition:
    """A full recipe: aggregate(transform(normalize(distance(A, P))))."""

    distance: Distance
    normalizer: NormalizerSpec = UNITARY
    aggregator: Aggregator = MEAN
    transform: PointTransform = PointTransform.IDENTITY
    post: tuple[PostTransform, ...] = ()

    def __post_init__(self) -> None:
        if len(self.post) > 2:
            raise ValidationError("at most two post-transforms are supported")
        object.__setattr__(self, "post", tuple(self.post))

    @property
    def cell(self) -> Cell:
        return (self.distance, self.normalizer.kind, self.aggregator.kind)


class ZeroDenominatorPolicy(Enum):
    FAIL = "fail"
    SKIP = "skip"
    EPSILON = "epsilon"


class LogRatioPolicy(Enum):
    FAIL = "fail"
    SKIP = "skip"


@dataclass(frozen=True)
class EvaluationPolicy:
    """How degenerate points are treated.

    ``epsilon`` is the correction added to a near-zero denominator base
    when ``zero_denominator`` is EPSILON; ``None`` means use the smallest
    nonzero |actual| of the evaluated pair.  Zero or negative values inside
    a geometric mean always fail; that is a domain fact, not a policy.
    """

    zero_denominator: ZeroDenominatorPolicy = ZeroDenominatorPolicy.FAIL
    nonpositive_log_ratio: LogRatioPolicy = LogRatioPolicy.FAIL
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.epsilon is not None and not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValidationError(f"epsilon must be a positive finite value, got {self.epsilon!r}")

    def to_config(self) -> dict[str, Any]:
        return {
            "zero_denominator": self.zero_denominator.value,
            "nonpositive_log_ratio": self.nonpositive_log_ratio.value,
            "epsilon": "smallest-nonzero" if self.epsilon is None else self.epsilon,
        }


FAIL_FAST = EvaluationPolicy()


def as_series(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    """``values`` as a one-dimensional float array, not copied when it is one.

    A number is a Python or NumPy integer or float, never a bool.  A list
    or tuple is judged value by value, an array by its dtype (an object
    array value by value): the first value that is not a number, or is an
    integer beyond the float range, is a ValidationError naming its index.
    A complex array or any other shape is one naming the series.  A list
    or tuple of Python ints and floats alone, found by one pass over the
    value types, is packed by ``pack_floats`` with no further check.
    """
    if isinstance(values, (list, tuple)):
        if set(map(type, values)) <= {int, float}:
            return pack_floats(values, name)
        return _real_values(values, name)
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{name} is not a series of real numbers: {exc}") from None
    if arr.dtype.kind == "c":
        raise ValidationError(f"{name} has complex values")
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.dtype.kind not in "fiu":
        return _real_values(arr, name)
    if arr.dtype != np.float64:
        with np.errstate(over="ignore"):        # a longdouble beyond the double range
            arr = arr.astype(np.float64)
    return arr


def _real_values(values: Iterable[Any], name: str) -> np.ndarray:
    """``as_series`` value by value (``np.timedelta64`` is an ``np.integer``).

    Every value's type is checked first; the values before the first one
    that is not a number are then packed by ``pack_floats``, so an integer
    beyond the float range among them is still the error named first.
    """
    values = list(values)
    for i, v in enumerate(values):
        if isinstance(v, (bool, np.timedelta64)) or not isinstance(v, (int, float, np.integer, np.floating)):
            pack_floats(values[:i], name)
            raise ValidationError(f"{name}[{i}] is not a number: {v!r}")
    return pack_floats(values, name)


# Values per ``struct`` call of ``pack_floats``: one call over a whole
# 10^6-value list, whose argument tuple alone is 8 MB, packed at half the
# speed of np.fromiter; blocks of 2048 pack 20k values 1.5x and 10^6
# values 1.2x faster than it (CPython 3.11, 2 vCPU Xeon).
_PACK_BLOCK = 2048


def pack_floats(values: Sequence[Any], name: str) -> np.ndarray:
    """Numbers as a new float64 array, by ``struct`` in blocks of at most
    ``_PACK_BLOCK`` values; the only route from parsed numbers to an array.

    Each value becomes the double ``float()`` gives it, so ``values`` must
    hold numbers alone.  An integer beyond the float range is a
    ValidationError naming its index.
    """
    n = len(values)
    out = np.empty(n)
    for start in range(0, n, _PACK_BLOCK):
        block = values if n <= _PACK_BLOCK else values[start:start + _PACK_BLOCK]
        try:
            struct.pack_into(f"{len(block)}d", out, 8 * start, *block)
        except struct.error:
            # struct words every value it cannot convert alike; float() says which overflows
            for i, v in enumerate(block, start):
                try:
                    float(v)
                except OverflowError:
                    raise ValidationError(f"{name}[{i}] is an integer beyond the float range") from None
            raise
    return out


def finite_range(arr: np.ndarray, name: str) -> tuple[float, float]:
    """Smallest and largest value of a nonempty series.  A NaN or an
    infinity shows in one of them, so the index of the first value that is
    not finite is searched for only then, and named by NonFiniteValue."""
    lo, hi = float(arr.min()), float(arr.max())
    if not -math.inf < lo <= hi < math.inf:
        raise NonFiniteValue(name, int(np.argmin(np.isfinite(arr))))
    return lo, hi


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy."""
    return _read_only(arr.copy())


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, an array nothing else holds, made read-only."""
    arr.setflags(write=False)
    return arr


class Usable(NamedTuple):
    """The points a skip leaves usable: a read-only mask, and the
    read-only index of its True positions."""

    mask: np.ndarray
    index: np.ndarray

    @classmethod
    def without(cls, skipped: np.ndarray, n: int) -> "Usable":
        """Every one of ``n`` points but those at the index ``skipped``."""
        mask = np.ones(n, dtype=bool)
        mask[skipped] = False
        return cls(_read_only(mask), _read_only(np.flatnonzero(mask)))


class Extremes(NamedTuple):
    """Smallest and largest value of each series of a pair."""

    a_lo: float
    a_hi: float
    p_lo: float
    p_hi: float


@dataclass(frozen=True, eq=False)
class SeriesPair:
    """Aligned actual and predicted series; validated on construction.

    ``extremes`` holds the smallest and largest value of each series,
    found by the validation pass, so later stages can bound what they
    compute without scanning the series again.
    ``smallest_nonzero_actual``, the default epsilon, and the degenerate
    points that every metric on the pair meets alike are found once per
    pair, on first use: ``near_zero_actuals`` (the zero bases of BY_ACTUALS),
    ``abnormal_quotients`` and their subset ``nonpositive_quotients`` (the
    log quotients), and the points each skip leaves usable
    (``nonzero_actual_points``, ``positive_quotient_points``).  They are
    read-only index arrays and bool masks; no float array is kept.  The
    evaluator reads a set only where ``extremes`` cannot prove it empty.
    """

    actuals: np.ndarray
    predicted: np.ndarray
    extremes: Extremes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = as_series(self.actuals, "actuals")
        p = as_series(self.predicted, "predicted")
        if a.size != p.size:
            raise LengthMismatch(a.size, p.size)
        if a.size == 0:
            raise EmptySeries()
        extremes = Extremes(*finite_range(a, "actuals"), *finite_range(p, "predicted"))
        object.__setattr__(self, "actuals", _frozen(a))
        object.__setattr__(self, "predicted", _frozen(p))
        object.__setattr__(self, "extremes", extremes)

    @property
    def n(self) -> int:
        return int(self.actuals.size)

    @cached_property
    def all_points(self) -> np.ndarray:
        """Read-only all-True mask, shared by every clean PointVector of the pair."""
        return _read_only(np.ones(self.n, dtype=bool))

    @cached_property
    def smallest_nonzero_actual(self) -> float:
        """Smallest nonzero |actual|; 0.0 when every actual is zero."""
        return smallest_nonzero_actual(self.actuals)

    @cached_property
    def near_zero_actuals(self) -> np.ndarray:
        """Read-only index of the actuals with |A| < NEAR_ZERO."""
        a = self.actuals
        near = a < NEAR_ZERO
        near &= a > -NEAR_ZERO
        return _read_only(np.flatnonzero(near))

    @cached_property
    def abnormal_quotients(self) -> np.ndarray:
        """Read-only index of the points where P/A is not a positive normal
        number: zero, subnormal, negative, inf or NaN."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            ratio = self.predicted / self.actuals
        normal = ratio >= SMALLEST_NORMAL
        normal &= ratio < np.inf
        return _read_only(np.flatnonzero(np.logical_not(normal, out=normal)))

    @cached_property
    def nonpositive_quotients(self) -> np.ndarray:
        """Read-only index of the points where P/A is not positive, so its
        log is undefined: A or P is zero, or their signs differ.  Each is
        an abnormal quotient, so only those are tested."""
        at = self.abnormal_quotients
        a, p = self.actuals[at], self.predicted[at]
        positive = (a != 0) & (p != 0) & (np.signbit(a) == np.signbit(p))
        return _read_only(at[~positive])

    @cached_property
    def nonzero_actual_points(self) -> Usable:
        """The points left when the near-zero actuals are skipped."""
        return Usable.without(self.near_zero_actuals, self.n)

    @cached_property
    def positive_quotient_points(self) -> Usable:
        """The points left when the non-positive quotients are skipped."""
        return Usable.without(self.nonpositive_quotients, self.n)

    def swapped(self) -> "SeriesPair":
        """Pair with the roles of actual and predicted exchanged."""
        return SeriesPair(self.predicted, self.actuals)

    def scaled(self, k: float) -> "SeriesPair":
        """Both series multiplied by a constant."""
        return SeriesPair(self.actuals * k, self.predicted * k)

    def with_predicted(self, predicted: Sequence[float] | np.ndarray) -> "SeriesPair":
        """Pair of these same actuals (shared, not copied) with other
        predictions, which alone are validated and copied."""
        p = as_series(predicted, "predicted")
        if p.size != self.n:
            raise LengthMismatch(self.n, p.size)
        p_lo, p_hi = finite_range(p, "predicted")
        pair = object.__new__(SeriesPair)
        object.__setattr__(pair, "actuals", self.actuals)
        object.__setattr__(pair, "predicted", _frozen(p))
        object.__setattr__(pair, "extremes", self.extremes._replace(p_lo=p_lo, p_hi=p_hi))
        return pair


def validate_series_pair(
    actuals: Sequence[float] | np.ndarray,
    predicted: Sequence[float] | np.ndarray,
) -> SeriesPair:
    """Validate and pair two series; raises on any malformed input."""
    return SeriesPair(actuals, predicted)


@dataclass(frozen=True)
class PolicyAction:
    """Record of one policy intervention at one point."""

    index: int
    action: str


class ActionLog:
    """Policy interventions as ``(label, index array)`` runs, in the order taken.

    ``len()`` counts interventions and iteration yields one ``PolicyAction``
    per point, built on demand.  A run is never followed by another of the
    same label, so two logs holding the same actions compare equal.  The
    index arrays are read-only and the log is never changed in place:
    ``with_run`` returns a new log.
    """

    __slots__ = ("runs", "_size")

    def __init__(self, runs: Iterable[tuple[str, np.ndarray]] = ()) -> None:
        merged: list[tuple[str, np.ndarray]] = []
        for label, indices in runs:
            indices = np.array(indices, dtype=np.intp)
            if not indices.size:
                continue
            if merged and merged[-1][0] == label:
                indices = np.concatenate((merged[-1][1], indices))
                merged.pop()
            indices.setflags(write=False)
            merged.append((label, indices))
        self.runs: tuple[tuple[str, np.ndarray], ...] = tuple(merged)
        self._size = sum(indices.size for _, indices in merged)

    @classmethod
    def of(cls, actions: "ActionLog | Iterable[PolicyAction]") -> "ActionLog":
        """The log itself, or a sequence of ``PolicyAction`` grouped into runs."""
        if isinstance(actions, ActionLog):
            return actions
        runs = [
            (label, np.array([a.index for a in group], dtype=np.intp))
            for label, group in groupby(actions, key=attrgetter("action"))
        ]
        return cls(runs) if runs else NO_ACTIONS

    def with_run(self, label: str, indices: np.ndarray) -> "ActionLog":
        """This log followed by ``label`` at each of ``indices``."""
        if not len(indices):
            return self
        return ActionLog((*self.runs, (label, indices)))

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[PolicyAction]:
        for label, indices in self.runs:
            for i in indices.tolist():
                yield PolicyAction(i, label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActionLog):
            return NotImplemented
        return len(self.runs) == len(other.runs) and all(
            la == lb and np.array_equal(ia, ib)
            for (la, ia), (lb, ib) in zip(self.runs, other.runs)
        )

    def __hash__(self) -> int:
        return hash(tuple((label, indices.tobytes()) for label, indices in self.runs))

    def __repr__(self) -> str:
        runs = ", ".join(f"{label}: {indices.size}" for label, indices in self.runs)
        return f"ActionLog({runs})"


NO_ACTIONS = ActionLog()


@dataclass
class PointVector:
    """Intermediate per-point values plus a usability mask.

    ``usable`` marks points still participating; skipped indices keep a
    placeholder value and a recorded reason in ``actions``.  A sequence of
    ``PolicyAction`` given as ``actions`` becomes an ``ActionLog``.
    """

    values: np.ndarray
    usable: np.ndarray
    actions: ActionLog = NO_ACTIONS
    # read-only positions of the usable points, when a pair's cached skip gave them
    usable_index: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.actions = ActionLog.of(self.actions)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @classmethod
    def every_point(cls, values: np.ndarray, pair: "SeriesPair") -> "PointVector":
        """A clean vector of ``pair``'s points, under its shared all-True
        mask: its usable count is the pair's length, not counted."""
        points = cls(values, pair.all_points)
        points.n_usable = pair.n
        return points

    @classmethod
    def of_usable(cls, values: np.ndarray, usable: Usable, actions: ActionLog) -> "PointVector":
        """A vector under one of its pair's cached skips: its usable count
        and index are the skip's, not counted or searched."""
        points = cls(values, usable.mask, actions)
        points.n_usable = usable.index.size
        points.usable_index = usable.index
        return points

    @cached_property
    def n_usable(self) -> int:
        """Usable points, counted once per vector: ``usable`` is not
        changed in place once the vector is built."""
        return int(np.count_nonzero(self.usable))

    def with_values(self, values: np.ndarray, actions: ActionLog | None = None) -> "PointVector":
        """``values`` under this vector's mask, and its actions unless
        ``actions`` is given; the usable count and index, once known,
        carry over."""
        points = PointVector(values, self.usable, self.actions if actions is None else actions)
        if "n_usable" in self.__dict__:
            points.n_usable = self.n_usable
        points.usable_index = self.usable_index
        return points

    @property
    def clean(self) -> bool:
        """True when every point is usable."""
        return self.n_usable == self.n

    def usable_values(self) -> np.ndarray:
        """Values of the usable points: ``values`` itself when the vector
        is clean, so the caller must not write to it, else a new array,
        gathered by ``usable_index`` when it is known, else by
        ``np.compress`` (searching an index first would cost more)."""
        if self.clean:
            return self.values
        if self.usable_index is not None:
            return self.values.take(self.usable_index)
        return np.compress(self.usable, self.values)


@dataclass(frozen=True)
class MetricResult:
    """Outcome of one metric evaluation.

    ``value`` is always a finite number: construction refuses anything
    else with NonFiniteResult.  ``degenerate`` is True exactly when the
    policy intervened somewhere.  ``actions`` holds the interventions as
    an ``ActionLog``; a sequence of ``PolicyAction`` given there is
    converted.  ``policy_actions`` is the
    same record as a tuple of ``PolicyAction``, built on first access.
    """

    value: float
    dimension: Dimension
    points_total: int
    points_skipped: int
    actions: ActionLog = NO_ACTIONS

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise NonFiniteResult(self.value)
        object.__setattr__(self, "actions", ActionLog.of(self.actions))

    @cached_property
    def policy_actions(self) -> tuple[PolicyAction, ...]:
        return tuple(self.actions)

    @property
    def degenerate(self) -> bool:
        return self.points_skipped > 0 or len(self.actions) > 0

    def to_record(self) -> dict[str, Any]:
        """The report entry; ``actions`` is the whole ActionLog.
        ``metricgrid eval`` keeps only its first ``cli.ACTIONS_LISTED``
        and adds ``action_counts``, and ``json.dumps`` writes the log as a
        list of ``{"action", "index"}`` objects through ``cli._as_json``."""
        return {
            "value": self.value,
            "dimension": self.dimension.value,
            "points_total": self.points_total,
            "points_skipped": self.points_skipped,
            "actions": self.actions,
        }


def smallest_nonzero_actual(actuals: np.ndarray) -> float:
    """Smallest nonzero |actual|; 0.0 when every actual is zero."""
    mags = np.abs(actuals)
    smallest = float(np.where(mags > 0, mags, np.inf).min(initial=np.inf))
    return 0.0 if smallest == np.inf else smallest
