"""The one JSON writer behind the report, ``list --format json`` and
``suites --format json``: the text of ``json.dumps(indent=2, sort_keys=True)``,
written into one list of parts that is joined once."""

import json
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metricgrid import EvaluationPolicy, LogRatioPolicy, ZeroDenominatorPolicy, cli, validate_series_pair

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402
import workloads  # noqa: E402

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]),
)
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=30,
)


@given(json_values)
def test_writer_equals_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {"a": [{"b": 1, 2.5: 0}]}, [{True: 1}]])
def test_non_string_key_is_refused(value):
    # json.dumps would write such a key as a string; none of ours is one
    with pytest.raises(TypeError, match="keys must be strings"):
        cli._json(value)


def test_report_is_rendered_within_twice_its_size():
    """The traced peak of rendering a 20k-row degenerate report under the
    skip policy (~5.8 MB) stays within the parts list and its one join:
    a second copy of the whole text, say a newline concatenated after the
    join, goes over."""
    data = inputs.generate("json_degenerate", 3)
    pair = validate_series_pair(data["actual"], data["predicted"])
    policy = EvaluationPolicy(ZeroDenominatorPolicy.SKIP, LogRatioPolicy.SKIP)
    report = {
        "input": "degenerate.json",
        "metrics": [cli.evaluate_selection(pair, name, None, None, None, policy)
                    for name in workloads.DEGENERATE_METRICS],
        "policy": policy.to_config(),
        "version": "x",
    }
    tracemalloc.start()
    try:
        text = cli.render_report(report, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 5_000_000
    assert peak <= 2 * len(text) + 2**20, peak / len(text)
