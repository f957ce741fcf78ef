"""Shared fixtures: the seeded random corpus used by equivalence tests."""

from __future__ import annotations

import numpy as np
import pytest

from metricgrid import SeriesPair, registry, validate_series_pair
from metricgrid.types import MetricComposition

CORPUS_SEED = 20250814
CORPUS_SIZE = 1000


def make_corpus(count: int = CORPUS_SIZE, seed: int = CORPUS_SEED) -> list[SeriesPair]:
    """Degenerate-free random pairs: values in [0.5, 10], lengths 2..64.

    Rejection keeps every denominator family well away from zero: errors
    stay nonzero (geometric means), deviations from the actuals' mean stay
    above 1e-3 (variability normalizers).  Positive values make the log
    and max/min families safe by construction.
    """
    rng = np.random.default_rng(seed)
    pairs: list[SeriesPair] = []
    while len(pairs) < count:
        n = int(rng.integers(2, 65))
        a = rng.uniform(0.5, 10.0, n)
        p = rng.uniform(0.5, 10.0, n)
        if np.abs(a - p).min() <= 1e-6:
            continue
        if np.abs(a - a.mean()).min() <= 1e-3:
            continue
        pairs.append(validate_series_pair(a, p))
    return pairs


@pytest.fixture(scope="session")
def corpus() -> list[SeriesPair]:
    return make_corpus()


@pytest.fixture(scope="session")
def small_corpus() -> list[SeriesPair]:
    return make_corpus(count=60, seed=CORPUS_SEED + 1)


def rel_close(got: float, want: float, tol: float = 1e-12) -> bool:
    """Relative closeness with an absolute floor of tol at magnitude 1."""
    return abs(got - want) <= tol * max(1.0, abs(want))


def catalog_compositions() -> list[tuple[str, MetricComposition]]:
    """Every composition in the catalog, entries and variants, labelled
    ``NAME`` or ``NAME:variant``."""
    out = []
    for d in registry.list_metrics():
        if d.composition is not None:
            out.append((d.abbreviation, d.composition))
        out += [(f"{d.abbreviation}:{v}", spec.composition)
                for v, spec in d.variants.items() if spec.composition is not None]
    return out
