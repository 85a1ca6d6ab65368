"""Shared test helpers."""

import numpy as np
import pytest
from scipy import special


def _admissible_reference_cdf(z, gamma: float):
    """CDF of the unit-shape density c_gamma / (1 + |z|^gamma), from scipy's betainc.

    W = |Z|^gamma is BetaPrime(1/gamma, 1 - 1/gamma), so P(|Z| > |z|) is a
    regularized incomplete beta function of w = |z|^gamma. Each side evaluates
    it where its argument stays away from 1: 1 - I_{w/(1+w)}(1/gamma, 1 - 1/gamma)
    for w <= 1 and I_{1/(1+w)}(1 - 1/gamma, 1/gamma) for w > 1, so neither the
    far tails nor the centre lose precision to cancellation.
    """
    z = np.asarray(z, dtype=float)
    a = 1.0 / gamma
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.abs(z) ** gamma
        tail = np.where(w <= 1.0, 1.0 - special.betainc(a, 1.0 - a, w / (1.0 + w)),
                        special.betainc(1.0 - a, a, 1.0 / (1.0 + w)))
    return np.where(z >= 0.0, 1.0 - 0.5 * tail, 0.5 * tail)


@pytest.fixture
def admissible_reference_cdf():
    """Independent CDF of the admissible family, callable as f(z, gamma)."""
    return _admissible_reference_cdf
