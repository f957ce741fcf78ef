"""The points a policy touches, handled by index: the usable-value gather,
the default epsilon and the degenerate sets kept on the pair, the
geometric mean's blocked product, and the degenerate sets of a pair
longer than one block."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgrid import cli, derived, evaluator, registry, types
from metricgrid.errors import MetricError
from metricgrid.evaluator import SKIP_LOG_RATIO, SKIP_ZERO_DENOMINATOR, EPSILON_CORRECTED
from metricgrid.types import (
    GEOMETRIC_MEAN,
    NEAR_ZERO,
    Distance,
    EvaluationPolicy,
    LogRatioPolicy,
    NormKind,
    PointVector,
    SeriesPair,
    ZeroDenominatorPolicy,
    smallest_nonzero_actual,
)


class TestUsableValues:
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_the_mask_gather(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        values = rng.normal(size=n)
        usable = rng.random(n) < rng.random()
        got = PointVector(values, usable).usable_values()
        want = values[usable]
        assert got.tobytes() == want.tobytes()
        if not usable.all():
            assert not np.shares_memory(got, values)

    def test_all_true_is_the_values_themselves(self):
        values = np.arange(5.0)
        assert PointVector(values, np.ones(5, dtype=bool)).usable_values() is values
        pair = SeriesPair(values + 1, values)
        assert PointVector.every_point(values, pair).usable_values() is values

    def test_all_false_is_empty(self):
        got = PointVector(np.arange(5.0), np.zeros(5, dtype=bool)).usable_values()
        assert got.dtype == float and got.size == 0

    def test_a_single_true(self):
        usable = np.zeros(5, dtype=bool)
        usable[3] = True
        assert PointVector(np.arange(5.0), usable).usable_values().tolist() == [3.0]


class TestPairEpsilon:
    @pytest.mark.parametrize("actuals", [
        [0.0, 0.0],
        [-0.0, -0.0],
        [0.0, -0.0, 5e-324, 2.0],
        [5e-324, 1e-310],
        [-3.0, -1e-308, -7.0],
        [-2.0, 0.0, 3.0, -0.5],
        [4.0, 1.5, 9.0],
    ])
    def test_equals_the_scan(self, actuals):
        pair = SeriesPair(actuals, np.ones(len(actuals)))
        got = pair.smallest_nonzero_actual
        assert type(got) is float
        assert got == smallest_nonzero_actual(pair.actuals)

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_the_scan_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        a = rng.normal(0.0, 10.0 ** rng.integers(-300, 300), n)
        if seed % 2:
            a = np.abs(a) * (1 if seed % 4 == 1 else -1)
        a[rng.random(n) < rng.random() * (seed % 3 != 0)] = 0.0
        pair = SeriesPair(a, a)
        assert pair.smallest_nonzero_actual == smallest_nonzero_actual(pair.actuals)

    def test_an_epsilon_eval_scans_the_actuals_once(self, monkeypatch, tmp_path, capsys):
        calls = []

        def counted(actuals):
            calls.append(actuals.size)
            return smallest_nonzero_actual(actuals)

        monkeypatch.setattr(types, "smallest_nonzero_actual", counted)
        path = tmp_path / "zeros.csv"
        path.write_text("actual,predicted\n0,1\n2,2.5\n-4,-5\n0,3\n8,7\n")
        metrics = "MAPE,MdAPE,MARE,MNB,MSPE,RMSPE,NCSD"
        code = cli.main(["eval", "--input", str(path), "--metrics", metrics,
                         "--on-zero-denominator", "epsilon", "--epsilon", "smallest-nonzero"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [entry["name"] for entry in report["metrics"]] == metrics.split(",")
        corrected = [{"action": EPSILON_CORRECTED, "index": i} for i in (0, 3)]
        assert all(entry["actions"] == corrected for entry in report["metrics"])
        assert calls == [5]


def old_geometric_mean(v):
    """The geometric mean as ``np.prod`` over every point gave it."""
    with np.errstate(over="ignore", under="ignore"):
        product = float(np.prod(v))
    if np.finfo(float).tiny <= product < np.inf:
        return float(product ** (1.0 / v.size))
    return float(np.exp(np.mean(np.log(v))))


class TestBlockedProduct:
    @pytest.mark.parametrize("block", [1, 3, 1000, evaluator._BLOCK])
    @pytest.mark.parametrize("seed", range(5))
    def test_bits_equal_np_prod_in_the_normal_range(self, monkeypatch, block, seed):
        monkeypatch.setattr(evaluator, "_BLOCK", block)
        rng = np.random.default_rng(seed)
        v = np.exp(rng.normal(0.0, 1e-3, int(rng.integers(1, 3 * 4096))))
        want = np.prod(v)
        assert np.finfo(float).tiny <= want < np.inf
        assert evaluator._product(v) == want

    @pytest.mark.parametrize("block", [1, 3, 1000, evaluator._BLOCK])
    @pytest.mark.parametrize("scale", [1e3, 1e-3])
    def test_overflow_and_underflow_take_the_log_form(self, monkeypatch, block, scale):
        monkeypatch.setattr(evaluator, "_BLOCK", block)
        rng = np.random.default_rng(7)
        v = scale * np.exp(rng.normal(0.0, 1.0, 3 * 4096 + 7))
        with np.errstate(over="ignore", under="ignore"):
            product = evaluator._product(v)
            assert product == np.prod(v) == (math.inf if scale > 1 else 0.0)
        got = evaluator.aggregate(PointVector(v.copy(), np.ones(v.size, dtype=bool)), GEOMETRIC_MEAN)
        assert got == old_geometric_mean(v)

    def test_a_subnormal_running_product_goes_on(self, monkeypatch):
        monkeypatch.setattr(evaluator, "_BLOCK", 1)
        v = np.array([1e-300, 1e-10, 1e300, 1e10, 3.0])
        with np.errstate(under="ignore"):
            product = evaluator._product(v)
            assert product == np.prod(v) and 2.9 < product < 3.0
        got = evaluator.aggregate(PointVector(v, np.ones(v.size, dtype=bool)), GEOMETRIC_MEAN)
        assert got == old_geometric_mean(v)


# --- degenerate pair past one block -----------------------------------

N_LONG = 3 * evaluator._BLOCK + 7
LONG_POLICIES = {
    "skip": EvaluationPolicy(ZeroDenominatorPolicy.SKIP, LogRatioPolicy.SKIP),
    "epsilon": EvaluationPolicy(ZeroDenominatorPolicy.EPSILON, LogRatioPolicy.SKIP),
}
PAIR_ONLY = [
    (d.abbreviation, v)
    for d in registry.composed_definitions() if d.requires is None
    for v in (None, *d.variants)
]


def long_degenerate_pair():
    """A seeded pair from Python's own generator with zero and -0.0
    actuals, predictions of the other sign, exact predictions and
    predictions equal to minus the actual, in every block, the last (of 7
    points) too."""
    rng = random.Random(20261020)
    a = [rng.uniform(1.0, 100.0) for _ in range(N_LONG)]
    p = [x * rng.uniform(0.7, 1.3) for x in a]
    for i in range(N_LONG):
        r = rng.random()
        if r < 0.08:
            a[i] = 0.0
        elif r < 0.10:
            a[i] = -0.0
        elif r < 0.15:
            p[i] = -p[i]
        elif r < 0.18:
            a[i], p[i] = -a[i], -p[i]
        elif r < 0.20:
            p[i] = a[i]
        elif r < 0.22:
            p[i] = -a[i]
    a[-1], p[-2] = 0.0, -a[-2]
    return SeriesPair(a, p)


def expected_sets(pair, comp):
    """The points the log policy skips and those the normalizer's policy
    touches, worked out from A and P: a quotient P/A that is not
    positive, and a base within 1e-12 of zero."""
    a, p = pair.actuals, pair.predicted
    if comp.distance in (Distance.LOG_QUOTIENT, Distance.ABS_LOG_QUOTIENT):
        nonpositive = (a == 0) | (p == 0) | (np.signbit(a) != np.signbit(p))
        return np.flatnonzero(nonpositive), np.array([], dtype=int)
    spec = comp.normalizer
    bases = {
        NormKind.UNITARY: lambda: np.ones_like(a),
        NormKind.BY_ACTUALS: lambda: a,
        NormKind.BY_VARIABILITY: lambda: a - a.mean(),
        NormKind.BY_SUM: lambda: np.abs(a) + np.abs(p) if spec.absolute else a + p,
        NormKind.BY_MAX: lambda: np.maximum(a, p),
        NormKind.BY_MIN: lambda: np.minimum(a, p),
    }
    zero = np.flatnonzero(np.abs(bases[spec.kind]()) < NEAR_ZERO)
    return np.array([], dtype=int), zero


# (name, variant, policy) where the pipeline and the oracle are known to
# differ; the test holds that each still does, so a fix shows here
KNOWN_DISAGREEMENTS: set[tuple[str, str | None, str]] = set()


@pytest.fixture(scope="module")
def long_pair():
    return long_degenerate_pair()


def test_the_long_pair_spans_every_block(long_pair):
    a, p = long_pair.actuals, long_pair.predicted
    zero, minus = np.flatnonzero(a == 0), np.flatnonzero(a + p == 0)
    for start in range(0, N_LONG, evaluator._BLOCK):
        assert ((zero >= start) & (zero < start + evaluator._BLOCK)).any()
        assert ((minus >= start) & (minus < start + evaluator._BLOCK)).any()
    assert np.signbit(a[zero]).any() and not np.signbit(a[zero]).all()
    assert (a < 0).any() and (p < 0).any()


@pytest.mark.parametrize("policy_name", sorted(LONG_POLICIES))
@pytest.mark.parametrize("abbr, variant", PAIR_ONLY, ids=[f"{a}:{v}" for a, v in PAIR_ONLY])
def test_a_pair_past_one_block_agrees_with_the_oracle(long_pair, abbr, variant, policy_name):
    policy = LONG_POLICIES[policy_name]
    try:
        want = registry.direct_formula(abbr, long_pair, policy, variant)
    except MetricError as exc:
        with pytest.raises(type(exc)):
            registry.evaluate_named(long_pair, abbr, policy, variant)
        return
    result = registry.evaluate_named(long_pair, abbr, policy, variant)
    agrees = abs(result.value - want) <= 1e-12 * max(1.0, abs(want))
    assert agrees is ((abbr, variant, policy_name) not in KNOWN_DISAGREEMENTS)

    spec = registry.check(registry.lookup(abbr), variant)
    comp = spec.composition if spec.recipe is None else registry.lookup(spec.recipe.base).composition
    log_skipped, zero_base = expected_sets(long_pair, comp)
    runs = []
    if log_skipped.size:
        runs.append((SKIP_LOG_RATIO, log_skipped))
    if zero_base.size:
        runs.append((SKIP_ZERO_DENOMINATOR if policy_name == "skip" else EPSILON_CORRECTED, zero_base))
    skipped = log_skipped.size + (zero_base.size if policy_name == "skip" else 0)
    assert result.points_skipped == skipped
    assert [(label, idx.tolist()) for label, idx in result.actions.runs] == \
        [(label, idx.tolist()) for label, idx in runs]


# --- degenerate sets kept on the pair ---------------------------------

PAIR_SETS = ("near_zero_actuals", "abnormal_quotients", "nonpositive_quotients",
             "nonzero_actual_points", "positive_quotient_points")
SETS_METRICS = "MAPE,MdAPE,MARE,MNB,MSPE,RMSPE,NCSD,MdLAR,MdSA,MNAFE"
LOG_NAMES = {"MdLAR", "MdSA", "MNAFE"}

# zeros of both signs, nonzero values below NEAR_ZERO, subnormals, the
# edges of the normal range, and magnitudes whose quotients over- or
# underflow, of either sign
special_value = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-13, -1e-13,
    1e-12, -1e-12, 1.0, -1.0, 2.5, 1e300, -1e300, 1.7976931348623157e308, -1e308,
])
pair_value = st.one_of(special_value, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def degenerate_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    a = draw(st.lists(pair_value, min_size=n, max_size=n))
    p = draw(st.lists(pair_value, min_size=n, max_size=n))
    return SeriesPair(a, p)


def screened_sets(pair):
    """Each pair set as the screen it replaces works it out, from A and P
    at every point."""
    a, p = pair.actuals, pair.predicted
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        ratio = p / a
    nonzero = ~(np.abs(a) < NEAR_ZERO)
    positive = (a != 0) & (p != 0) & (np.signbit(a) == np.signbit(p))
    return {
        "near_zero_actuals": np.flatnonzero(~nonzero),
        "abnormal_quotients": np.flatnonzero(~((ratio >= np.finfo(float).tiny) & (ratio < np.inf))),
        "nonpositive_quotients": np.flatnonzero(~positive),
        "nonzero_actual_points": (nonzero, np.flatnonzero(nonzero)),
        "positive_quotient_points": (positive, np.flatnonzero(positive)),
    }


def cached_arrays(pair):
    """Every array the pair sets hold, built now if not yet."""
    out = []
    for name in PAIR_SETS:
        value = getattr(pair, name)
        out += [value] if isinstance(value, np.ndarray) else [value.mask, value.index]
    return out


def assert_sets_are_screens(pair):
    want = screened_sets(pair)
    for name in PAIR_SETS:
        got = getattr(pair, name)
        if isinstance(got, np.ndarray):
            assert got.dtype == np.intp and got.tolist() == want[name].tolist(), name
        else:
            mask, index = want[name]
            assert got.mask.dtype == bool and got.mask.tolist() == mask.tolist(), name
            assert got.index.dtype == np.intp and got.index.tolist() == index.tolist(), name


class TestPairSets:
    @given(degenerate_pairs())
    @settings(max_examples=200, deadline=None)
    def test_each_set_equals_its_screen(self, pair):
        assert_sets_are_screens(pair)
        assert set(pair.nonpositive_quotients) <= set(pair.abnormal_quotients)

    @given(degenerate_pairs())
    @settings(max_examples=50, deadline=None)
    def test_every_cached_array_refuses_writes(self, pair):
        for arr in cached_arrays(pair):
            with pytest.raises(ValueError):
                arr[...] = 0

    @given(degenerate_pairs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_derived_pair_builds_its_own_sets(self, pair, data):
        cached_arrays(pair)
        other = data.draw(st.lists(pair_value, min_size=pair.n, max_size=pair.n))
        others = [pair.with_predicted(other), pair.swapped()]
        k = data.draw(st.sampled_from([-1.0, 2.0, 1e-200, 1e200]))
        try:
            with np.errstate(over="ignore"):
                others.append(pair.scaled(k))
        except MetricError:
            pass                                # a product beyond the float range
        for new in others:
            assert not set(PAIR_SETS) & set(new.__dict__)
            assert_sets_are_screens(new)

    @pytest.mark.parametrize("zero, built", [
        ("skip", PAIR_SETS),
        # an epsilon corrects the near-zero actuals, so nothing skips them
        ("epsilon", tuple(name for name in PAIR_SETS if name != "nonzero_actual_points")),
    ])
    def test_an_eval_builds_each_pair_set_once(self, monkeypatch, tmp_path, capsys, zero, built):
        calls = []
        for name in PAIR_SETS:
            prop = SeriesPair.__dict__[name]

            def counted(pair, build=prop.func, name=name):
                calls.append(name)
                return build(pair)

            monkeypatch.setattr(prop, "func", counted)
        path = tmp_path / "degenerate.csv"
        path.write_text("actual,predicted\n0,1\n2,2.5\n-4,-5\n-0,3\n8,-7\n3,0\n1e-13,2\n")
        argv = ["eval", "--input", str(path), "--metrics", SETS_METRICS,
                "--on-zero-denominator", zero, "--on-nonpositive-log", "skip"]
        if zero == "epsilon":
            argv += ["--epsilon", "0.5"]        # the smallest |A|, 1e-13, would leave a zero base
        code = cli.main(argv)
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [entry["name"] for entry in report["metrics"]] == SETS_METRICS.split(",")
        skipped = {entry["name"]: entry["points_skipped"] for entry in report["metrics"]}
        assert skipped == {name: 4 if name in LOG_NAMES else 3 * (zero == "skip")
                           for name in SETS_METRICS.split(",")}
        assert sorted(calls) == sorted(built)

    def test_a_clean_pair_builds_none(self):
        """``extremes`` proves every set empty on a strictly positive pair,
        so no catalog name, under any policy, builds one."""
        pair = SeriesPair([1.0, 2.0, 3.0, 4.0, 6.0], [1.5, 2.5, 2.5, 4.5, 6.5])
        benchmark = pair.with_predicted([1.2, 1.8, 3.3, 3.9, 5.5])
        history = np.array([1.0, 3.0, 2.0, 4.0])
        policies = [EvaluationPolicy(zero, LogRatioPolicy.SKIP) for zero in ZeroDenominatorPolicy]
        evaluated = 0
        for d in registry.list_metrics():
            if not d.implemented:
                continue
            for variant in (None, *d.variants):
                for policy in policies:
                    derived.evaluate_metric(pair, d.abbreviation, policy, variant,
                                            benchmark=benchmark, in_sample=history)
                    evaluated += 1
        assert evaluated > 150
        for p in (pair, benchmark):
            assert not set(PAIR_SETS) & set(p.__dict__)
