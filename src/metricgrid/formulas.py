"""Direct closed-form implementations of every metric.

Each function writes its metric out the long way, straight from the
formula, without touching the staged pipeline in ``evaluator``.  The two
code paths are kept deliberately separate so they can cross-check each
other.  All functions take plain float arrays and return floats.

Signed quantities follow the convention error = actual - predicted.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AllPointsSkipped,
    GeometricMeanDomain,
    InsufficientData,
    LogDomain,
    NonpositiveLogRatio,
    ZeroDenominator,
)
from .types import (
    NEAR_ZERO,
    EvaluationPolicy,
    FAIL_FAST,
    LogRatioPolicy,
    ZeroDenominatorPolicy,
    smallest_nonzero_actual,
)


def _guarded(
    num: np.ndarray,
    base: np.ndarray,
    actuals: np.ndarray,
    policy: EvaluationPolicy,
    power: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """num / base**power with near-zero bases resolved per policy.

    A base is degenerate when |base| < 1e-12, before the power is taken;
    the epsilon policy adds its correction to the base, then raises it.
    Returns the quotient and a usability mask; skipped points hold 0.
    """
    bad = np.abs(base) < NEAR_ZERO
    if not bad.any():
        return num / base ** power, np.ones(num.size, dtype=bool)
    mode = policy.zero_denominator
    if mode is ZeroDenominatorPolicy.FAIL:
        raise ZeroDenominator(int(np.argmax(bad)))
    if mode is ZeroDenominatorPolicy.SKIP:
        mask = ~bad
        if not mask.any():
            raise AllPointsSkipped("skip policy removed every point (zero denominators)")
        return np.where(mask, num / np.where(bad, 1.0, base) ** power, 0.0), mask
    eps = policy.epsilon
    if eps is None:
        eps = smallest_nonzero_actual(actuals)
        if eps == 0.0:
            raise ZeroDenominator(message="epsilon correction impossible: every actual is zero")
    base = np.where(bad, base + eps, base)
    if (np.abs(base) < NEAR_ZERO).any():
        raise ZeroDenominator(int(np.argmax(np.abs(base) < NEAR_ZERO)))
    return num / base ** power, np.ones(num.size, dtype=bool)


def _log_ratio(
    a: np.ndarray,
    p: np.ndarray,
    policy: EvaluationPolicy,
) -> tuple[np.ndarray, np.ndarray]:
    """ln(P/A) and a usability mask, honoring the log-ratio policy.

    P/A is positive when neither value is zero and both have one sign.
    Where the quotient itself over- or underflows, ln|P| - ln|A| is used.
    """
    bad = (a == 0) | (p == 0) | (np.sign(a) != np.sign(p))
    if bad.any():
        if policy.nonpositive_log_ratio is LogRatioPolicy.FAIL:
            raise NonpositiveLogRatio(int(np.argmax(bad)))
        if bad.all():
            raise AllPointsSkipped("every point has a non-positive predicted/actual ratio")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        ratio = p / a
    spilled = ~bad & ((ratio < np.finfo(float).tiny) | np.isinf(ratio))
    direct = np.log(np.abs(np.where(spilled, p, 1.0))) - np.log(np.abs(np.where(spilled, a, 1.0)))
    return np.where(spilled, direct, np.log(np.where(bad | spilled, 1.0, ratio))), ~bad


def _finite_mean(x: np.ndarray) -> float:
    """np.mean(x); where its running sum leaves the floating-point range
    though the mean does not, the sum of x/n."""
    with np.errstate(over="ignore"):
        value = float(np.mean(x))
        if np.isfinite(value):
            return value
        return float(np.sum(x / x.size))


def _finite_median(x: np.ndarray) -> float:
    """np.median(x); where the mean of its two middle values leaves the
    floating-point range, twice the median of x/2."""
    with np.errstate(over="ignore"):
        value = float(np.median(x))
        if np.isfinite(value):
            return value
        return 2.0 * float(np.median(x / 2.0))


def _root_product(x: np.ndarray, root: int = 1) -> float:
    """The (root * n)-th root of the product of the n positive values in x.

    Where the product stays finite and normal this is its literal root;
    where it overflows or falls to a subnormal (too few digits) or zero,
    exp of the exactly rounded sum of logs divided by root * n.
    """
    with np.errstate(over="ignore", under="ignore"):
        product = np.prod(x)
    if np.finfo(float).tiny <= product < math.inf:
        return float(product ** (1.0 / (root * x.size)))
    return math.exp(math.fsum(np.log(x).tolist()) / (root * x.size))


def _mean(values: np.ndarray, mask: np.ndarray) -> float:
    return _finite_mean(values[mask])


def _sum(values: np.ndarray, mask: np.ndarray) -> float:
    return float(np.sum(values[mask]))


def _median(values: np.ndarray, mask: np.ndarray) -> float:
    return _finite_median(values[mask])


def _variability(a: np.ndarray, absolute: bool) -> np.ndarray:
    dev = a - np.mean(a)
    return np.abs(dev) if absolute else dev


# --- signed error (bias family) ------------------------------------------


def me(a, p, policy=FAIL_FAST):
    """Mean error."""
    return _finite_mean(a - p)


def md(a, p, policy=FAIL_FAST):
    """Manhattan distance: sum of signed errors."""
    return float(np.sum(a - p))


def mnb(a, p, policy=FAIL_FAST):
    """Mean normalized bias."""
    q, mask = _guarded(a - p, a, a, policy)
    return _mean(q, mask)


def mpe(a, p, policy=FAIL_FAST):
    """Mean percentage error."""
    return 100.0 * mnb(a, p, policy)


def fb(a, p, policy=FAIL_FAST):
    """Fractional bias."""
    q, mask = _guarded(2.0 * (a - p), a + p, a, policy)
    return _mean(q, mask)


# --- absolute error -------------------------------------------------------


def mae(a, p, policy=FAIL_FAST):
    """Mean absolute error."""
    return _finite_mean(np.abs(a - p))


def mdae(a, p, policy=FAIL_FAST):
    """Median absolute error."""
    return _finite_median(np.abs(a - p))


def maxae(a, p, policy=FAIL_FAST):
    """Maximum absolute error."""
    return float(np.max(np.abs(a - p)))


def sad(a, p, policy=FAIL_FAST):
    """Sum of absolute differences."""
    return float(np.sum(np.abs(a - p)))


def gmae(a, p, policy=FAIL_FAST):
    """Geometric mean absolute error, as the n-th root of the product
    (through the logs where the product leaves the double range)."""
    ae = np.abs(a - p)
    if (ae == 0).any():
        raise GeometricMeanDomain("geometric mean undefined: some absolute error is zero")
    return _root_product(ae)


def mare(a, p, policy=FAIL_FAST):
    """Mean absolute relative error."""
    q, mask = _guarded(np.abs(a - p), np.abs(a), a, policy)
    return _mean(q, mask)


def mape(a, p, policy=FAIL_FAST):
    """Mean absolute percentage error."""
    return 100.0 * mare(a, p, policy)


def mdape(a, p, policy=FAIL_FAST):
    """Median absolute percentage error."""
    q, mask = _guarded(np.abs(a - p), np.abs(a), a, policy)
    return 100.0 * _median(q, mask)


def rae(a, p, policy=FAIL_FAST, option=1):
    """Relative absolute error.

    Option 1 sums pointwise ratios |e|/|A - mean(A)|; option 2 is the
    ratio of sums sum|e| / sum|A - mean(A)|.
    """
    dev = _variability(a, absolute=True)
    if option == 2:
        den = float(np.sum(dev))
        if abs(den) < NEAR_ZERO:
            raise ZeroDenominator(message="sum of |A - mean(A)| is zero")
        return float(np.sum(np.abs(a - p)) / den)
    q, mask = _guarded(np.abs(a - p), dev, a, policy)
    return _sum(q, mask)


def mrae(a, p, policy=FAIL_FAST, option=1):
    """Mean relative absolute error (option 2: sum|e| / (n * sum|A - mean(A)|))."""
    if option == 2:
        den = float(a.size * np.sum(_variability(a, absolute=True)))
        if abs(den) < NEAR_ZERO:
            raise ZeroDenominator(message="sum of |A - mean(A)| is zero")
        return float(np.sum(np.abs(a - p)) / den)
    q, mask = _guarded(np.abs(a - p), _variability(a, absolute=True), a, policy)
    return _mean(q, mask)


def mdrae(a, p, policy=FAIL_FAST):
    """Median relative absolute error."""
    q, mask = _guarded(np.abs(a - p), _variability(a, absolute=True), a, policy)
    return _median(q, mask)


def gmrae(a, p, policy=FAIL_FAST, form="exp-mean-log"):
    """Geometric mean relative absolute error.

    The canonical form exponentiates the mean log ratio; the root-product
    form is the n-th root of the product, literal where the product stays
    within the double range.  Both need every ratio strictly positive.
    """
    q, mask = _guarded(np.abs(a - p), _variability(a, absolute=True), a, policy)
    v = q[mask]
    if (v <= 0).any():
        raise GeometricMeanDomain()
    if form == "root-product":
        return _root_product(v)
    return float(np.exp(_finite_mean(np.log(v))))


def whd(a, p, policy=FAIL_FAST):
    """Wave Hedges distance."""
    q, mask = _guarded(np.abs(a - p), np.maximum(a, p), a, policy)
    return _sum(q, mask)


def fae(a, p, policy=FAIL_FAST, variant=None):
    """Fractional absolute error."""
    den = np.abs(a) + np.abs(p) if variant == "absolute" else a + p
    q, mask = _guarded(2.0 * np.abs(a - p), den, a, policy)
    return _mean(q, mask)


def smape(a, p, policy=FAIL_FAST, variant=None):
    """Symmetric mean absolute percentage error.

    The mean-denominator variant divides by (A + P)/2, which is the same
    quantity written differently.
    """
    if variant == "mean-denominator":
        q, mask = _guarded(np.abs(a - p), (a + p) / 2.0, a, policy)
        return 100.0 * _mean(q, mask)
    return 100.0 * fae(a, p, policy, variant)


def smdape(a, p, policy=FAIL_FAST, variant=None):
    """Symmetric median absolute percentage error."""
    den = np.abs(a) + np.abs(p) if variant == "absolute" else a + p
    q, mask = _guarded(2.0 * np.abs(a - p), den, a, policy)
    return 100.0 * _median(q, mask)


def cm(a, p, policy=FAIL_FAST, variant=None):
    """Canberra metric."""
    den = np.abs(a) + np.abs(p) if variant == "absolute" else a + p
    q, mask = _guarded(np.abs(a - p), den, a, policy)
    return _sum(q, mask)


# --- squared error ----------------------------------------------------------


def mse(a, p, policy=FAIL_FAST):
    """Mean squared error."""
    return _finite_mean((a - p) ** 2)


def rmse(a, p, policy=FAIL_FAST):
    """Root mean squared error."""
    return float(np.sqrt(mse(a, p)))


def sse(a, p, policy=FAIL_FAST):
    """Sum of squared errors."""
    return float(np.sum((a - p) ** 2))


def ed(a, p, policy=FAIL_FAST):
    """Euclidean distance."""
    return float(np.sqrt(sse(a, p)))


def grmse(a, p, policy=FAIL_FAST):
    """Geometric root mean squared error: 2n-th root of the product of e^2."""
    sq = (a - p) ** 2
    if (sq == 0).any():
        raise GeometricMeanDomain("geometric mean undefined: some squared error is zero")
    return _root_product(sq, root=2)


def vsd(a, p, policy=FAIL_FAST):
    """Vicis symmetric distance."""
    q, mask = _guarded((a - p) ** 2, np.minimum(a, p), a, policy)
    return _sum(q, mask)


def ncsd(a, p, policy=FAIL_FAST):
    """Neyman chi-square distance."""
    q, mask = _guarded((a - p) ** 2, a, a, policy)
    return _sum(q, mask)


def squd(a, p, policy=FAIL_FAST):
    """Squared chi-square distance."""
    q, mask = _guarded((a - p) ** 2, a + p, a, policy)
    return _sum(q, mask)


def divd(a, p, policy=FAIL_FAST):
    """Divergence distance."""
    q, mask = _guarded(2.0 * (a - p) ** 2, a + p, a, policy, power=2)
    return _sum(q, mask)


def rse(a, p, policy=FAIL_FAST, option=1):
    """Relative squared error (option 2: ratio of sums)."""
    dev = a - np.mean(a)
    if option == 2:
        den = float(np.sum(dev ** 2))
        if abs(den) < NEAR_ZERO:
            raise ZeroDenominator(message="sum of (A - mean(A))^2 is zero")
        return float(np.sum((a - p) ** 2) / den)
    q, mask = _guarded((a - p) ** 2, dev, a, policy, power=2)
    return _sum(q, mask)


def rrse(a, p, policy=FAIL_FAST, option=1):
    """Root relative squared error."""
    return float(np.sqrt(rse(a, p, policy, option)))


def mspe(a, p, policy=FAIL_FAST):
    """Mean square percentage error."""
    q, mask = _guarded((a - p) ** 2, a, a, policy, power=2)
    return 100.0 * _mean(q, mask)


def mdspe(a, p, policy=FAIL_FAST):
    """Median square percentage error."""
    q, mask = _guarded((a - p) ** 2, a, a, policy, power=2)
    return 100.0 * _median(q, mask)


def rmspe(a, p, policy=FAIL_FAST, variant=None):
    """Root mean square percentage error.

    Default is the literal square root of MSPE; the conventional variant
    takes the root before scaling to percent.
    """
    if variant == "conventional":
        q, mask = _guarded((a - p) ** 2, a, a, policy, power=2)
        return 100.0 * float(np.sqrt(_mean(q, mask)))
    return float(np.sqrt(mspe(a, p, policy)))


def rmdspe(a, p, policy=FAIL_FAST, variant=None):
    """Root median square percentage error."""
    if variant == "conventional":
        q, mask = _guarded((a - p) ** 2, a, a, policy, power=2)
        return 100.0 * float(np.sqrt(_median(q, mask)))
    return float(np.sqrt(mdspe(a, p, policy)))


# --- log quotient -----------------------------------------------------------


def mdlar(a, p, policy=FAIL_FAST):
    """Median log accuracy ratio."""
    logs, mask = _log_ratio(a, p, policy)
    return _median(logs, mask)


def kld(a, p, policy=FAIL_FAST):
    """Kullback-Leibler divergence: sum of P * ln(P/A)."""
    logs, mask = _log_ratio(a, p, policy)
    return _sum(p * logs, mask)


def jd(a, p, policy=FAIL_FAST):
    """Jeffreys divergence: sum of (P - A) * ln(P/A)."""
    logs, mask = _log_ratio(a, p, policy)
    return _sum((p - a) * logs, mask)


# --- absolute log quotient (factor family) -----------------------------------


def mnafe(a, p, policy=FAIL_FAST):
    """Mean normalized absolute factor error."""
    logs, mask = _log_ratio(a, p, policy)
    return _mean(np.exp(np.abs(logs)) - 1.0, mask)


def mnfb(a, p, policy=FAIL_FAST):
    """Mean normalized factor bias.

    The sign factor (P-A)/|P-A| is taken as 0 when P equals A, so perfect
    points contribute nothing.
    """
    logs, mask = _log_ratio(a, p, policy)
    return _mean(np.sign(p - a) * (np.exp(np.abs(logs)) - 1.0), mask)


def mdsa(a, p, policy=FAIL_FAST):
    """Median symmetric accuracy."""
    logs, mask = _log_ratio(a, p, policy)
    return 100.0 * float(np.exp(_median(np.abs(logs), mask)) - 1.0)


# --- whole-series normalizations (extended family) ----------------------------


def nrmse_m(a, p, policy=FAIL_FAST):
    """RMSE normalized by the mean of actuals."""
    den = float(np.mean(a))
    if abs(den) < NEAR_ZERO:
        raise ZeroDenominator(message="mean of actuals is zero")
    return rmse(a, p) / den


def nrmse_sd(a, p, policy=FAIL_FAST):
    """RMSE normalized by the sample standard deviation of actuals."""
    if a.size < 2:
        raise InsufficientData("standard deviation needs at least 2 points")
    den = float(np.std(a, ddof=1))
    if den < NEAR_ZERO:
        raise ZeroDenominator(message="standard deviation of actuals is zero")
    return rmse(a, p) / den


def nrmse_mm(a, p, policy=FAIL_FAST):
    """RMSE normalized by the range of actuals."""
    den = float(np.max(a) - np.min(a))
    if den < NEAR_ZERO:
        raise ZeroDenominator(message="range of actuals is zero")
    return rmse(a, p) / den


def nmse(a, p, policy=FAIL_FAST):
    """MSE normalized by the sample variance of actuals."""
    if a.size < 2:
        raise InsufficientData("variance needs at least 2 points")
    den = float(np.var(a, ddof=1))
    if den < NEAR_ZERO:
        raise ZeroDenominator(message="variance of actuals is zero")
    return mse(a, p) / den


# --- composite (benchmark and history based) -----------------------------------


def cod(a, p, policy=FAIL_FAST):
    """Coefficient of determination."""
    if a.size < 2:
        raise InsufficientData("coefficient of determination needs at least 2 points")
    tss = float(np.sum((a - np.mean(a)) ** 2))
    if tss < NEAR_ZERO:
        raise ZeroDenominator(message="actuals are constant: total sum of squares is zero")
    return 1.0 - float(np.sum((p - a) ** 2)) / tss


def mase(a, p, insample, policy=FAIL_FAST):
    """Mean absolute scaled error.

    The scale is the mean absolute one-step change of the in-sample
    history, never of the evaluation window.
    """
    insample = np.asarray(insample, dtype=float)
    if insample.size < 2:
        raise InsufficientData("in-sample history needs at least 2 points")
    q = float(np.mean(np.abs(np.diff(insample))))
    if q < NEAR_ZERO:
        raise ZeroDenominator(message="in-sample history is constant: naive scale is zero")
    return mae(a, p) / q


def rmae(a, p, pb, policy=FAIL_FAST):
    """MAE relative to a benchmark prediction of the same actuals."""
    den = mae(a, pb)
    if den < NEAR_ZERO:
        raise ZeroDenominator(message="benchmark MAE is zero")
    return mae(a, p) / den


def relrmse(a, p, pb, policy=FAIL_FAST):
    """RMSE relative to a benchmark prediction of the same actuals."""
    den = rmse(a, pb)
    if den < NEAR_ZERO:
        raise ZeroDenominator(message="benchmark RMSE is zero")
    return rmse(a, p) / den


def lmr(a, p, pb, policy=FAIL_FAST):
    """Natural log of the RMSE ratio against a benchmark."""
    ratio = relrmse(a, p, pb, policy)
    if ratio <= 0:
        raise LogDomain(ratio)
    return float(np.log(ratio))


def rgrmse(a, p, pb, policy=FAIL_FAST):
    """GRMSE relative to a benchmark prediction of the same actuals."""
    den = grmse(a, pb)
    if den < NEAR_ZERO:
        raise ZeroDenominator(message="benchmark GRMSE is zero")
    return grmse(a, p) / den
