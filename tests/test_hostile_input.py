"""Malformed series in, a typed MetricError out, and never a warning.

A series reaches the library as the actuals or predictions of a pair, as
a benchmark prediction (``pair.with_predicted``) or as the in-sample
history.  Each of them passes the one rule ``types.as_series`` then
``types.finite_range``, so a bad series raises a ``MetricError`` on every
route, and a bad history raises the same error, word for word, on each.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgrid import SeriesPair, registry, validate_series_pair
from metricgrid.derived import SuiteDefinition, evaluate_metric, evaluate_suite, mase
from metricgrid.errors import MetricError
from metricgrid.types import FAIL_FAST

GOOD = [1.0, 2.0, 4.0, 3.0]
PAIR = SeriesPair(GOOD, [2.0, 2.0, 5.0, 3.0])
BENCH = PAIR.with_predicted([1.0, 3.0, 4.0, 2.0])
MASE_RECIPE = registry.lookup("MASE").recipe

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
base = st.lists(finite, min_size=2, max_size=8)
beyond_double = st.integers(min_value=2**1024, max_value=2**1100)


@st.composite
def one_bad_value(draw):
    """A list of finite numbers with one value at a drawn index that is
    not a finite real: a string that does not parse, None, a complex
    number, an integer beyond the double range, NaN or an infinity."""
    values = draw(base)
    bad = draw(st.one_of(
        st.text(alphabet="xyz ,", max_size=3),
        st.none(),
        st.builds(lambda make, z: make(z), st.sampled_from([complex, np.complex128, np.complex64]),
                  st.complex_numbers(max_magnitude=1e6)),
        beyond_double,
        beyond_double.map(lambda n: -n),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    ))
    values[draw(st.integers(0, len(values) - 1))] = bad
    return values


bad_series = st.one_of(
    one_bad_value(),
    base.map(lambda v: [v, v[:-1]]),                                     # ragged
    base.map(lambda v: [v[:1], *v[1:]]),                                 # ragged, nested first
    base.map(lambda v: np.array(v, dtype=complex) * (1 + 1j)),
    base.map(lambda v: np.array(v, dtype=np.complex64)),
    base.map(lambda v: np.array([np.array(1j), *v], dtype=object)),     # a 0-D complex in an object array
    finite.map(np.array),                                                # 0-D
    base.map(lambda v: np.array([v, v])),                                # 2-D
    base.map(lambda v: np.array(v).reshape(-1, 1)),                      # 2-D column
    st.just(np.array([])),
    st.just([]),
    finite.map(lambda x: [x]),                                           # too short for a history
    st.none(),
    st.text(alphabet="xyz", min_size=1, max_size=3),
)


def quietly(call):
    """(value, error) of ``call``: its return value, or the text of the
    MetricError it raised as a suite entry writes it.  It must emit no
    warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = call(), None
        except MetricError as exc:
            outcome = None, f"{type(exc).__name__}: {exc}"
    assert [str(w.message) for w in caught] == []
    return outcome


def error(call):
    """The error ``call`` must raise."""
    value, text = quietly(call)
    assert text is not None, f"a malformed series was accepted: {value!r}"
    return text


@settings(max_examples=300, deadline=None)
@given(bad_series)
def test_a_bad_series_in_a_pair_is_a_metric_error(series):
    error(lambda: validate_series_pair(series, GOOD))
    as_predicted = error(lambda: validate_series_pair(GOOD, series))
    assert error(lambda: PAIR.with_predicted(series)) == as_predicted


@settings(max_examples=300, deadline=None)
@given(bad_series.filter(lambda s: s is not None))     # None is no history: MissingBenchmark
def test_a_bad_history_is_one_error_on_every_route(history):
    want = error(lambda: registry.evaluate_recipe(PAIR, MASE_RECIPE, FAIL_FAST, None, history))
    suite = SuiteDefinition("scaled", ("MASE",))
    entry, _ = quietly(lambda: evaluate_suite(PAIR, suite, in_sample=history).entries[0])
    assert entry.error == want
    assert error(lambda: evaluate_metric(PAIR, "MASE", benchmark=BENCH, in_sample=history)) == want
    assert error(lambda: mase(PAIR, history)) == want
