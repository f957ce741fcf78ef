"""The one JSON writer behind the report, ``list --format json`` and
``suites --format json``: ``json.dumps(indent=2, sort_keys=True)`` with a
newline at the end."""

import json

from hypothesis import given
from hypothesis import strategies as st

from metricgrid import cli

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
