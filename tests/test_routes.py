"""Every route to a named metric gives the same bits.

For each implemented catalog name and variant, the ``metricgrid eval``
report, ``derived.evaluate_metric``, a one-member ``evaluate_suite``,
for primary metrics ``registry.evaluate_named`` and for the others their
named wrapper in ``derived`` must agree bit for bit, or fail with the same
error type.  A missing benchmark or history is the same error on every
route, and ``metricgrid eval --suite`` and ``evaluate_suite`` agree on a
whole suite: its entries, their order and bits, or its error.  Each
library route and ``metricgrid eval`` look a name up and check its
configuration once.
"""

import json

import pytest

from metricgrid import cli, registry
from metricgrid.derived import (
    BUILTIN_SUITES,
    SuiteDefinition,
    coefficient_of_determination,
    evaluate_metric,
    evaluate_suite,
    extended,
    mase,
    relative_metric,
    relative_named,
)
from metricgrid.errors import MetricError, MissingBenchmark, UnknownMetric
from metricgrid.types import (
    EvaluationPolicy,
    LogRatioPolicy,
    SeriesPair,
    ZeroDenominatorPolicy,
)

MEMBERS = [(d.abbreviation, v) for d in registry.list_metrics() for v in (None, *d.variants)]
HISTORY = [1.0, 3.0, 2.0, 5.0, 4.0]

DATASETS = {
    # every family is well defined
    "clean": {
        "actual": [1.0, 2.0, 3.0, 5.0, 8.0],
        "predicted": [2.0, 4.0, 1.0, 3.0, 7.0],
        "benchmark": [2.0, 3.0, 5.0, 2.0, 6.0],
    },
    # a zero actual, an exact prediction and a negative prediction
    "degenerate": {
        "actual": [0.0, 2.0, 3.0, 4.0, 5.0],
        "predicted": [1.0, 2.0, -1.0, 3.0, 6.0],
        "benchmark": [1.0, 3.0, 3.0, 5.0, 4.0],
    },
}
POLICIES = {
    "fail": ([], EvaluationPolicy()),
    "skip": (
        ["--on-zero-denominator", "skip", "--on-nonpositive-log", "skip"],
        EvaluationPolicy(ZeroDenominatorPolicy.SKIP, LogRatioPolicy.SKIP),
    ),
    "epsilon": (
        ["--epsilon", "smallest-nonzero", "--on-nonpositive-log", "skip"],
        EvaluationPolicy(ZeroDenominatorPolicy.EPSILON, LogRatioPolicy.SKIP),
    ),
}


def member_label(abbr, variant):
    return f"{abbr}:{variant}" if variant else abbr


def outcome(call):
    """The value's exact bits, or the type name of the error raised."""
    try:
        return call().value.hex()
    except MetricError as exc:
        return type(exc).__name__


def wrapper_call(defn, pair, bench, policy):
    """The call of a non-primary metric's named wrapper in ``derived``."""
    if defn.category is registry.Category.EXTENDED:
        return lambda: extended(pair, defn.abbreviation, policy)
    if defn.requires == "benchmark":
        return lambda: relative_named(pair, bench, defn.abbreviation, policy)
    return {
        "CoD": lambda: coefficient_of_determination(pair, policy),
        "MASE": lambda: mase(pair, HISTORY, policy),
    }[defn.abbreviation]


def cli_outcomes(tmp_path, data, flags):
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(data))
    history_path = tmp_path / "history.json"
    history_path.write_text(json.dumps(HISTORY))
    members = [member_label(abbr, variant) for abbr, variant in MEMBERS]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"suite_definitions": {"all": {"members": members}}}))
    out = tmp_path / "report.json"
    code = cli.main([
        "eval", "--input", str(data_path), "--benchmark", "benchmark",
        "--in-sample", str(history_path), "--config", str(config), "--suite", "all",
        "--out", str(out), *flags,
    ])
    assert code in (0, 1)
    entries = json.loads(out.read_text())["metrics"]
    return {
        (e["name"], e.get("variant")): e["error"]["type"] if "error" in e else float(e["value"]).hex()
        for e in entries
    }


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_every_route_gives_the_same_bits(tmp_path, dataset, policy_name):
    data = DATASETS[dataset]
    flags, policy = POLICIES[policy_name]
    pair = SeriesPair(data["actual"], data["predicted"])
    bench = SeriesPair(data["actual"], data["benchmark"])
    from_cli = cli_outcomes(tmp_path, data, flags)
    assert len(from_cli) == len(MEMBERS)

    mismatches = []
    for abbr, variant in MEMBERS:
        defn = registry.lookup(abbr)
        want = outcome(lambda: evaluate_metric(pair, abbr, policy, variant, bench, HISTORY)[0])
        suite = SuiteDefinition("one", (member_label(abbr, variant),))
        entry = evaluate_suite(pair, suite, policy, bench, HISTORY).entries[0]
        got = {
            "cli": from_cli[(abbr, variant)],
            "suite": entry.error.split(":")[0] if entry.error else entry.result.value.hex(),
        }
        if defn.category is registry.Category.PRIMARY:
            got["evaluate_named"] = outcome(
                lambda: registry.evaluate_named(pair, abbr, policy, variant)
            )
        else:
            got["wrapper"] = outcome(wrapper_call(defn, pair, bench, policy))
        mismatches += [(abbr, variant, route, value, want)
                       for route, value in got.items() if value != want]
    assert mismatches == []

    if dataset == "clean":
        assert all(not v.isalpha() for v in from_cli.values()), from_cli
    else:
        assert any(v.isalpha() for v in from_cli.values())
        assert not all(v.isalpha() for v in from_cli.values())


def library_routes(defn, variant, pair, bench, policy):
    """Every library call that evaluates ``defn`` as ``variant``, by route."""
    abbr = defn.abbreviation
    suite = SuiteDefinition("one", (member_label(abbr, variant),))
    routes = {
        "evaluate_metric": lambda: evaluate_metric(pair, abbr, policy, variant, bench, HISTORY),
        "evaluate_suite": lambda: evaluate_suite(pair, suite, policy, bench, HISTORY),
    }
    if defn.category is registry.Category.PRIMARY:
        routes["evaluate_named"] = lambda: registry.evaluate_named(pair, abbr, policy, variant)
    elif variant is None:
        routes["wrapper"] = wrapper_call(defn, pair, bench, policy)
    return routes


def counting(monkeypatch):
    """Record the name of each ``registry.lookup`` and the (abbreviation,
    variant) of each ``registry.check`` from here on."""
    looked, checked = [], []
    lookup, check = registry.lookup, registry.check

    def counted_lookup(name):
        looked.append(name)
        return lookup(name)

    def counted_check(defn, variant=None, *args):
        checked.append((defn.abbreviation, variant))
        return check(defn, variant, *args)

    monkeypatch.setattr(registry, "lookup", counted_lookup)
    monkeypatch.setattr(registry, "check", counted_check)
    return looked, checked


@pytest.mark.parametrize("abbr, variant", MEMBERS, ids=[member_label(*m) for m in MEMBERS])
def test_evaluate_metric_checks_once(monkeypatch, abbr, variant):
    """Each library route looks the name up once and checks it once; the
    one other lookup is of a recipe's base, when the recipe runs."""
    data = DATASETS["clean"]
    pair = SeriesPair(data["actual"], data["predicted"])
    bench = SeriesPair(data["actual"], data["benchmark"])
    defn = registry.lookup(abbr)
    spec = registry.check(defn, variant, True, True)
    want = (sorted([abbr, *([spec.recipe.base] if spec.recipe else [])]), [(abbr, variant)])
    looked, checked = counting(monkeypatch)
    got = {}
    for route, call in library_routes(defn, variant, pair, bench, EvaluationPolicy()).items():
        looked.clear()
        checked.clear()
        call()
        got[route] = (sorted(looked), list(checked))
    assert got == {route: want for route in got}


def test_eval_looks_each_name_up_once_and_checks_each_entry_once(monkeypatch, tmp_path):
    data = DATASETS["clean"]
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(data))
    looked, checked = counting(monkeypatch)
    code = cli.main([
        "eval", "--input", str(data_path), "--benchmark", "benchmark",
        "-m", "MAE,RMAE,RAE", "--variant", "rae=option2", "--suite", "bias-accuracy",
        "--composition", "distance=D2 normalizer=N4 aggregator=G1",
        "--out", str(tmp_path / "report.json"),
    ])
    assert code == 0
    given = ["rae", "MAE", "RMAE", "RAE", "ME", "MAE", "RMSE"]
    bases = ["MAE", "SAD"]       # of RMAE and of RAE's option2 recipe
    assert sorted(looked) == sorted(given + bases)
    assert sorted(checked, key=str) == sorted(
        [("MAE", None), ("RMAE", None), ("RAE", "option2"), ("ME", None), ("RMSE", None)], key=str)


PAIR = SeriesPair(DATASETS["clean"]["actual"], DATASETS["clean"]["predicted"])
MISSING_INPUT = {
    "relative_named": lambda: relative_named(PAIR, None, "RMAE"),
    "relative_metric": lambda: relative_metric(PAIR, None),
    "evaluate_recipe RMAE": lambda: registry.evaluate_recipe(PAIR, registry.lookup("RMAE").recipe),
    "evaluate_metric RMAE": lambda: evaluate_metric(PAIR, "RMAE"),
    "mase": lambda: mase(PAIR, None),
    "evaluate_recipe MASE": lambda: registry.evaluate_recipe(PAIR, registry.lookup("MASE").recipe),
    "evaluate_metric MASE": lambda: evaluate_metric(PAIR, "MASE"),
    "evaluate_suite RMAE": lambda: evaluate_suite(PAIR, SuiteDefinition("rel", ("RMAE",))),
    "evaluate_suite MASE": lambda: evaluate_suite(PAIR, SuiteDefinition("scaled", ("MASE",))),
}


@pytest.mark.parametrize("route", sorted(MISSING_INPUT))
def test_a_missing_benchmark_or_history_is_the_same_error_on_every_route(route):
    with pytest.raises(MissingBenchmark):
        MISSING_INPUT[route]()


# the built-in suites by name, and config suites by their members
SUITES = {
    **{name: None for name in BUILTIN_SUITES},
    "repeated": ("MAE", "mae", "RMSE"),
    "variants": ("RAE", "RAE:option2"),
    "unknown": ("MAE", "MEA"),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_eval_and_evaluate_suite_agree_on_a_suite(capsys, tmp_path, name):
    """``metricgrid eval --suite`` and ``evaluate_suite`` give the same
    entries in the same order with the same bits, or the same error."""
    members = SUITES[name]
    extra = {name: SuiteDefinition(name, members)} if members else None
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(DATASETS["clean"]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"suite_definitions": {name: {"members": list(members)}}} if members else {}))
    out = tmp_path / "report.json"
    code = cli.main(["eval", "--input", str(data_path), "--config", str(config),
                     "--suite", name, "--out", str(out)])
    if name == "unknown":
        with pytest.raises(UnknownMetric) as exc:
            evaluate_suite(PAIR, name, extra_suites=extra)
        assert (code, capsys.readouterr().err) == (2, f"error: {exc.value}\n")
        return
    assert code == 0
    from_cli = [(e["name"], e.get("variant"), float(e["value"]).hex())
                for e in json.loads(out.read_text())["metrics"]]
    from_library = [(e.name, e.variant, e.result.value.hex())
                    for e in evaluate_suite(PAIR, name, extra_suites=extra).entries]
    assert from_cli == from_library
