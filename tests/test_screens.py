"""Screens skipped on the strength of a pair's extremes.

``SeriesPair`` keeps the smallest and largest value of each series, and
the evaluator skips a screen (the error distances' overflow scan, the log
quotients' range check, and per normalizer block the base's extremes,
near-zero points and squared overflow) where interval arithmetic on them
proves the screen would find nothing.  These tests hold the proof to the
screen it replaces, at data scales from 1e-300 to 1e300.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalog_compositions
from metricgrid import evaluator
from metricgrid.errors import MetricError
from metricgrid.evaluator import evaluate
from metricgrid.types import (
    NEAR_ZERO,
    Distance,
    EvaluationPolicy,
    LogRatioPolicy,
    MetricComposition,
    NormalizerSpec,
    NormKind,
    SeriesPair,
    ZeroDenominatorPolicy,
    validate_series_pair,
)

TINY = float(np.finfo(float).tiny)
NORMALIZERS = [
    NormalizerSpec(kind, exponent, absolute)
    for kind in NormKind if kind is not NormKind.UNITARY
    for exponent in (-1, 1, 2)
    for absolute in ((False,) if kind in (NormKind.BY_MAX, NormKind.BY_MIN) else (False, True))
]
COMPOSITIONS = [MetricComposition(d, spec)
                for d in Distance for spec in (NormalizerSpec(NormKind.UNITARY), *NORMALIZERS)]
POLICIES = [
    EvaluationPolicy(),
    EvaluationPolicy(ZeroDenominatorPolicy.SKIP, LogRatioPolicy.SKIP),
    EvaluationPolicy(ZeroDenominatorPolicy.EPSILON, LogRatioPolicy.SKIP),
]

# mantissas up to 1.7e8 reach the top of the double range at scale 1e300
mantissa = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-10.0, 10.0, allow_nan=False),
    st.floats(-1.7e8, 1.7e8, allow_nan=False),
)


@st.composite
def scaled_pairs(draw):
    """Pairs of one shared scale, log-uniform over 1e-300 to 1e300: mixed
    signs with zeros and -0.0, or one strict sign for both series."""
    n = draw(st.integers(min_value=1, max_value=10))
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    signs = draw(st.sampled_from(["mixed", "positive", "negative"]))
    a = np.array(draw(st.lists(mantissa, min_size=n, max_size=n))) * scale
    p = np.array(draw(st.lists(mantissa, min_size=n, max_size=n))) * scale
    if signs != "mixed":
        sign = 1.0 if signs == "positive" else -1.0
        a, p = sign * np.abs(a), sign * np.abs(p)
        a[a == 0], p[p == 0] = sign * scale, sign * scale
    return SeriesPair(a, p)


def within(values: np.ndarray, lo: float, hi: float) -> bool:
    """Every value lies within [lo, hi] (a NaN bound says nothing)."""
    if math.isnan(lo) or math.isnan(hi):
        return True
    return not (values < lo).any() and not (values > hi).any()


def outcome(run):
    """A result as its value's bits, skip count and policy runs; an error
    as its type, message and index."""
    try:
        result = run()
    except MetricError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "index", None)
    runs = [(label, indices.tolist()) for label, indices in result.actions.runs]
    return result.value.hex(), result.points_skipped, runs


class TestProofs:
    @given(scaled_pairs())
    @settings(max_examples=300, deadline=None)
    def test_a_proven_screen_finds_nothing(self, pair):
        a, p = pair.actuals, pair.predicted
        e = pair.extremes
        with np.errstate(all="ignore"):
            d = a - p
            lo, hi = evaluator._difference_bounds(e)
            assert within(d, lo, hi)
            if evaluator._proven(lo, hi):
                assert np.isfinite(d).all()
            if evaluator._proven(lo, hi, square=True):
                assert np.isfinite(np.square(d)).all()

            ratio = p / a
            bounds = evaluator._ratio_bounds(e)
            if bounds is not None:
                assert within(ratio, *bounds)
                if evaluator._proven(*bounds, floor=TINY):
                    assert (ratio >= TINY).all() and (ratio < math.inf).all()

            for spec in NORMALIZERS:
                center = float(a.mean()) if spec.kind is NormKind.BY_VARIABILITY else 0.0
                base = evaluator._normalizer_base(pair, spec, center, slice(None), np.empty(pair.n))
                lo, hi = evaluator._base_bounds(e, spec, center)
                assert within(base, lo, hi), spec
                floor = -math.inf if spec.exponent == -1 else NEAR_ZERO
                if evaluator._proven(lo, hi, floor=floor, square=spec.exponent == 2):
                    assert np.isfinite(base).all(), spec
                    if spec.exponent != -1:
                        assert (np.abs(base) >= NEAR_ZERO).all(), spec
                    if spec.exponent == 2:
                        assert np.isfinite(np.square(base)).all(), spec

    @given(scaled_pairs(), st.sampled_from(POLICIES))
    @settings(max_examples=150, deadline=None)
    def test_evaluate_is_unchanged_when_nothing_is_proven(self, pair, policy):
        proven = [outcome(lambda: evaluate(pair, comp, policy)) for comp in COMPOSITIONS]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluator, "_proven", lambda *args, **kwargs: False)
            screened = [outcome(lambda: evaluate(pair, comp, policy)) for comp in COMPOSITIONS]
        assert proven == screened

    @pytest.mark.parametrize("values", [
        ([1.0, 2.0, -0.0], [3.0, 4.0, 5.0]),
        ([-0.0, -1.0], [-2.0, -3.0]),
        ([5e-324, 1.0], [1.0, 1e308]),
        ([1e308, 1.7e308], [1e-300, 2.0]),
    ])
    def test_edge_pairs_are_unchanged_when_nothing_is_proven(self, values):
        # -0.0 is not positive: it never takes the absolute bases' shortcut
        pair = validate_series_pair(*values)
        for spec in NORMALIZERS:
            for policy in POLICIES:
                proven = [outcome(lambda: evaluate(pair, MetricComposition(d, spec), policy))
                          for d in Distance]
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(evaluator, "_proven", lambda *args, **kwargs: False)
                    screened = [outcome(lambda: evaluate(pair, MetricComposition(d, spec), policy))
                                for d in Distance]
                assert proven == screened, spec


def refuse(*args, **kwargs):
    raise AssertionError("a screen ran that the pair's extremes prove unneeded")


def test_positive_data_never_screens_a_base_clear_of_zero(monkeypatch):
    # N3's base A - mean(A) crosses zero on any actuals that are not all
    # equal, so only its exponent -1 (no zero test) can be proven
    rng = np.random.default_rng(17)
    pair = validate_series_pair(rng.uniform(1.0, 10.0, 3 * evaluator._BLOCK + 5),
                                rng.uniform(1.0, 10.0, 3 * evaluator._BLOCK + 5))
    pinned = [(label, comp) for label, comp in catalog_compositions()
              if comp.normalizer.kind not in (NormKind.UNITARY, NormKind.BY_VARIABILITY)
              or comp.normalizer.kind is NormKind.BY_VARIABILITY and comp.normalizer.exponent == -1]
    assert len(pinned) >= 20
    expected = {label: outcome(lambda: evaluate(pair, comp)) for label, comp in pinned}
    for name in ("_extremes", "_near_zero", "_first_inf"):
        monkeypatch.setattr(evaluator, name, refuse)
    assert {label: outcome(lambda: evaluate(pair, comp)) for label, comp in pinned} == expected
