"""Policy records from the evaluator to the JSON report.

The evaluator keeps interventions as an ``ActionLog`` of index arrays, and
``cli.render_report`` hands the log to ``json.dumps``, which writes it as a
list of ``{"action", "index"}`` objects; the report bytes must be exactly
what ``json.dumps(indent=2, sort_keys=True)`` of the list-of-dicts form
gives.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metricgrid import (
    Dimension,
    EvaluationPolicy,
    LogRatioPolicy,
    MetricResult,
    ZeroDenominatorPolicy,
    __version__,
    cli,
    evaluate,
    evaluator,
    validate_series_pair,
)
from metricgrid.cli import parse_composition
from metricgrid.errors import MetricError
from metricgrid.types import NO_ACTIONS, ActionLog, PointVector, PolicyAction

SKIP_BOTH = EvaluationPolicy(ZeroDenominatorPolicy.SKIP, LogRatioPolicy.SKIP)
EPSILON_SKIP_LOG = EvaluationPolicy(ZeroDenominatorPolicy.EPSILON, LogRatioPolicy.SKIP)
LOG_AND_VARIABILITY = "distance=D5 normalizer=N3 aggregator=G1 absolute=true"


def action_dicts(actions):
    return [{"action": a.action, "index": a.index} for a in actions]


def expanded(report):
    """The report with every entry's actions as the list of dicts it stands for."""
    metrics = [
        {**e, "actions": action_dicts(e["actions"])} if "actions" in e else e
        for e in report["metrics"]
    ]
    return {**report, "metrics": metrics}


def dumped(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def staged(pair, comp, policy):
    """A result built stage by stage and handed its actions as a tuple of
    PolicyAction, the route a caller composing the stages takes."""
    pv = evaluator.point_distances(pair, comp.distance, policy)
    pv = evaluator.normalize(pv, pair, comp.normalizer, policy)
    pv = evaluator.apply_point_transform(pv, pair, comp.transform)
    value = evaluator.aggregate(pv, comp.aggregator, policy)
    for post in comp.post:
        value = evaluator.apply_post(value, post)
    return pv, MetricResult(float(value), evaluator.dimension_of(comp), pv.n,
                            pv.n - pv.n_usable, tuple(pv.actions))


# --- golden bytes ----------------------------------------------------------------

GOLDEN_CSV = "actual,predicted,benchmark\n0,1,0.5\n2,-1,2.5\n3,3.5,2\n5,5,4\n5,6,5.5\n"

# Point 0 has a zero actual and point 1 a negative ratio (log skips); point 2
# sits on the actuals' mean (zero N3 base); point 3 is a perfect prediction,
# so GMAE fails.  The strings are what the list-of-PolicyAction renderer wrote.
GOLDEN = {
    "skip": r'''{
  "input": "donn\u00e9es.csv",
  "metrics": [
    {
      "actions": [
        {
          "action": "skipped:zero-denominator",
          "index": 0
        }
      ],
      "dimension": "percent",
      "name": "MAPE",
      "points_skipped": 1,
      "points_total": 5,
      "value": 46.666666666666664
    },
    {
      "actions": [
        {
          "action": "skipped:nonpositive-log-ratio",
          "index": 0
        },
        {
          "action": "skipped:nonpositive-log-ratio",
          "index": 1
        }
      ],
      "dimension": "dimensionless",
      "name": "MdLAR",
      "points_skipped": 2,
      "points_total": 5,
      "value": 0.15415067982725836
    },
    {
      "error": {
        "message": "geometric mean undefined: input contains zero or negative values",
        "type": "GeometricMeanDomain"
      },
      "name": "GMAE"
    },
    {
      "actions": [],
      "detail": {
        "base": "MAE",
        "benchmark": 0.7,
        "candidate": 1.1,
        "form": "ratio",
        "interpretation": "candidate MAE errors are 57.1429% higher than the benchmark's"
      },
      "dimension": "dimensionless",
      "name": "RMAE",
      "points_skipped": 0,
      "points_total": 5,
      "value": 1.5714285714285716
    },
    {
      "actions": [
        {
          "action": "skipped:nonpositive-log-ratio",
          "index": 0
        },
        {
          "action": "skipped:nonpositive-log-ratio",
          "index": 1
        },
        {
          "action": "skipped:zero-denominator",
          "index": 2
        }
      ],
      "dimension": "dimensionless",
      "name": "distance=D5 normalizer=N3 aggregator=G1 absolute=true",
      "points_skipped": 3,
      "points_total": 5,
      "value": 0.04558038919848865
    }
  ],
  "policy": {
    "epsilon": "smallest-nonzero",
    "nonpositive_log_ratio": "skip",
    "zero_denominator": "skip"
  },
  "version": "$version"
}
''',
    "epsilon": r'''{
  "input": "donn\u00e9es.csv",
  "metrics": [
    {
      "actions": [
        {
          "action": "epsilon-corrected",
          "index": 0
        }
      ],
      "dimension": "percent",
      "name": "MAPE",
      "points_skipped": 0,
      "points_total": 5,
      "value": 47.333333333333336
    },
    {
      "actions": [
        {
          "action": "skipped:nonpositive-log-ratio",
          "index": 0
        },
        {
          "action": "skipped:nonpositive-log-ratio",
          "index": 1
        }
      ],
      "dimension": "dimensionless",
      "name": "MdLAR",
      "points_skipped": 2,
      "points_total": 5,
      "value": 0.15415067982725836
    },
    {
      "error": {
        "message": "geometric mean undefined: input contains zero or negative values",
        "type": "GeometricMeanDomain"
      },
      "name": "GMAE"
    },
    {
      "actions": [],
      "detail": {
        "base": "MAE",
        "benchmark": 0.7,
        "candidate": 1.1,
        "form": "ratio",
        "interpretation": "candidate MAE errors are 57.1429% higher than the benchmark's"
      },
      "dimension": "dimensionless",
      "name": "RMAE",
      "points_skipped": 0,
      "points_total": 5,
      "value": 1.5714285714285716
    },
    {
      "actions": [
        {
          "action": "skipped:nonpositive-log-ratio",
          "index": 0
        },
        {
          "action": "skipped:nonpositive-log-ratio",
          "index": 1
        },
        {
          "action": "epsilon-corrected",
          "index": 2
        }
      ],
      "dimension": "dimensionless",
      "name": "distance=D5 normalizer=N3 aggregator=G1 absolute=true",
      "points_skipped": 2,
      "points_total": 5,
      "value": 0.05607870610353549
    }
  ],
  "policy": {
    "epsilon": "smallest-nonzero",
    "nonpositive_log_ratio": "skip",
    "zero_denominator": "epsilon"
  },
  "version": "$version"
}
''',
}


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_degenerate_report_bytes(tmp_path, monkeypatch, capsys, policy):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "données.csv").write_text(GOLDEN_CSV, encoding="utf-8")
    code = cli.main([
        "eval", "--input", "données.csv", "--metrics", "MAPE,MdLAR,GMAE,RMAE",
        "--benchmark", "benchmark", "--composition", LOG_AND_VARIABILITY,
        "--on-nonpositive-log", "skip", "--on-zero-denominator", policy,
    ])
    assert code == 1  # GMAE's error entry
    assert capsys.readouterr().out == GOLDEN[policy].replace("$version", __version__)


# --- the renderer against json.dumps ------------------------------------------------

values = st.one_of(st.just(0.0), st.floats(-50.0, 50.0, allow_nan=False, width=16))


@st.composite
def degenerate_pairs(draw):
    n = draw(st.integers(1, 30))
    a = draw(st.lists(values, min_size=n, max_size=n))
    p = draw(st.lists(values, min_size=n, max_size=n))
    return validate_series_pair(a, p)


@given(
    degenerate_pairs(),
    st.sampled_from([SKIP_BOTH, EPSILON_SKIP_LOG]),
    st.text(max_size=12),
)
def test_rendered_report_equals_json_dumps(pair, policy, path):
    entries = [
        cli.evaluate_selection(pair, name, None, None, None, policy)
        for name in ("MAPE", "MdLAR", "MARE", "NCSD", "sMAPE", "MAE")
    ]
    comp = parse_composition(LOG_AND_VARIABILITY)
    try:
        entries.append(cli._metric_entry(LOG_AND_VARIABILITY, evaluate(pair, comp, policy), None))
    except MetricError as exc:
        entries.append(cli._error_entry(LOG_AND_VARIABILITY, None, exc))
    report = {"input": path, "metrics": entries, "policy": policy.to_config(), "version": "x"}
    assert cli.render_report(report, "json") == dumped(expanded(report))


def test_hand_built_lists_render_as_json_dumps():
    report = {"input": "in.csv", "metrics": [
        {"name": "A", "actions": [{"index": 3, "action": "epsilon-corrected"}]},
        {"name": "B", "actions": []},
    ]}
    assert cli.render_report(report, "json") == dumped(report)


def test_log_anywhere_renders_as_its_list():
    log = ActionLog([("skipped:zero-denominator", [4, 1]), ("epsilon-corrected", [0])])
    report = {"a": [log, {"b": log, "c": NO_ACTIONS}], "d": log, "e": [NO_ACTIONS]}
    plain = {"a": [action_dicts(log), {"b": action_dicts(log), "c": []}],
             "d": action_dicts(log), "e": [[]]}
    assert cli.render_report(report, "json") == dumped(plain)


@pytest.mark.parametrize("spelled", ["\x00action-log:0", "\x00action-log:1"])
def test_string_spelling_a_placeholder_is_written_as_itself(spelled):
    log = ActionLog([("epsilon-corrected", [2])])
    report = {"input": spelled, "metrics": [{"actions": log, "name": spelled}]}
    plain = {"input": spelled, "metrics": [{"actions": action_dicts(log), "name": spelled}]}
    assert cli.render_report(report, "json") == dumped(plain)


def test_unknown_object_is_refused_as_json_dumps_refuses_it():
    with pytest.raises(TypeError, match="Object of type complex is not JSON serializable"):
        cli.render_report({"metrics": [], "x": 1j}, "json")


@pytest.mark.parametrize("number", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("actions", [NO_ACTIONS, ActionLog([("epsilon-corrected", [2])])])
def test_non_finite_number_is_refused_not_written(number, actions):
    # NaN and Infinity are not JSON; a strict reader would reject the report
    report = {"metrics": [{"actions": actions, "name": "A", "value": number}]}
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.render_report(report, "json")


# --- the staged route and the evaluator's own result ----------------------------------

# log skips at 0 (zero actual) and 1 (negative ratio); points 2 and 5 sit on
# the actuals' mean, so N3 has a zero base there
PAIR = validate_series_pair([0.0, 2.0, 3.0, 5.0, 5.0, 3.0], [1.0, -1.0, 3.5, 5.0, 6.0, 2.0])


@pytest.mark.parametrize("policy", [SKIP_BOTH, EPSILON_SKIP_LOG], ids=["skip", "epsilon"])
@pytest.mark.parametrize("text", [
    LOG_AND_VARIABILITY,
    "distance=D2 normalizer=N2 aggregator=G1 post=scale:100",
    "distance=D5 normalizer=N1 aggregator=G2",
    "distance=D3 normalizer=N2 c=2 aggregator=G1",
    "distance=D2 normalizer=N1 aggregator=G1",
])
def test_tuple_route_matches_evaluator(policy, text):
    comp = parse_composition(text)
    pv, via_tuple = staged(PAIR, comp, policy)
    direct = evaluate(PAIR, comp, policy)
    assert via_tuple == direct and hash(via_tuple) == hash(direct)
    assert via_tuple.policy_actions == direct.policy_actions
    assert via_tuple.to_record() == direct.to_record()
    render = [cli.render_report({"metrics": [cli._metric_entry(text, r, None)]}, "json")
              for r in (via_tuple, direct)]
    assert render[0] == render[1]
    corrected = sum(a.action == evaluator.EPSILON_CORRECTED for a in direct.policy_actions)
    assert len(pv.actions) == len(direct.policy_actions) == direct.points_skipped + corrected


def test_fail_policy_result_shares_the_empty_log():
    result = evaluate(PAIR, parse_composition("distance=D2 aggregator=G1"))
    assert result.actions is NO_ACTIONS
    assert result.policy_actions == () and not result.degenerate


def test_policy_actions_are_built_once():
    result = evaluate(PAIR, parse_composition(LOG_AND_VARIABILITY), SKIP_BOTH)
    assert result.policy_actions is result.policy_actions
    assert [(a.index, a.action) for a in result.policy_actions] == [
        (0, "skipped:nonpositive-log-ratio"), (1, "skipped:nonpositive-log-ratio"),
        (2, "skipped:zero-denominator"), (5, "skipped:zero-denominator"),
    ]


# --- ActionLog ----------------------------------------------------------------------


def test_log_merges_adjacent_runs_of_one_label_and_drops_empty_ones():
    log = ActionLog([("a", [1]), ("b", []), ("a", [3, 2]), ("c", [0])])
    assert [(label, indices.tolist()) for label, indices in log.runs] == [("a", [1, 3, 2]), ("c", [0])]
    assert len(log) == 4
    assert list(log) == [PolicyAction(1, "a"), PolicyAction(3, "a"), PolicyAction(2, "a"),
                         PolicyAction(0, "c")]
    assert ActionLog.of(list(log)) == log
    assert ActionLog.of(log) is log
    assert ActionLog.of(()) is NO_ACTIONS and ActionLog() == NO_ACTIONS


def test_log_is_not_changed_through_its_arrays():
    indices = np.array([5, 6])
    log = NO_ACTIONS.with_run("a", indices)
    indices[0] = 9
    assert [a.index for a in log] == [5, 6]
    with pytest.raises(ValueError):
        log.runs[0][1][0] = 1
    assert log.with_run("b", np.array([], dtype=np.intp)) is log
    assert len(NO_ACTIONS) == 0


def test_logs_compare_by_their_actions():
    assert ActionLog([("a", [1, 2])]) == ActionLog([("a", [1]), ("a", [2])])
    assert ActionLog([("a", [1, 2])]) != ActionLog([("a", [2, 1])])
    assert ActionLog([("a", [1])]) != ActionLog([("b", [1])])
    assert hash(ActionLog([("a", [1, 2])])) == hash(ActionLog([("a", [1]), ("a", [2])]))


def test_point_vector_and_result_take_sequences_of_actions():
    actions = [PolicyAction(0, "a"), PolicyAction(2, "b")]
    pv = PointVector(np.zeros(3), np.ones(3, dtype=bool), actions)
    assert isinstance(pv.actions, ActionLog) and list(pv.actions) == actions
    assert PointVector(np.zeros(1), np.ones(1, dtype=bool), ()).actions is NO_ACTIONS
    result = MetricResult(1.0, Dimension.SAME_AS_DATA, 3, 1, actions)
    assert result.policy_actions == tuple(actions) and result.degenerate
