"""Noise samplers, densities, and the tabulated heavy-tail quantiles."""

import math

import numpy as np
import pytest
from scipy import integrate

from privcurator import (
    AdmissibleNoiseParams,
    DiscreteLaplaceParams,
    LaplaceParams,
    PreconditionError,
    RandomSource,
    admissible_cdf,
    admissible_pdf,
    admissible_quantile,
    dl_cdf,
    dl_pmf,
    laplace_cdf,
    laplace_pdf,
    sample_admissible,
    sample_discrete_laplace,
    sample_laplace,
)
from privcurator.noise import _table, admissible_constant


def test_param_validation():
    with pytest.raises(PreconditionError):
        LaplaceParams(0.0, 0.0)
    with pytest.raises(PreconditionError):
        LaplaceParams(math.inf, 1.0)
    with pytest.raises(PreconditionError):
        DiscreteLaplaceParams(1.0)
    with pytest.raises(PreconditionError):
        DiscreteLaplaceParams(0.0)
    with pytest.raises(PreconditionError):
        AdmissibleNoiseParams(1.0, 1.0)
    with pytest.raises(PreconditionError):
        AdmissibleNoiseParams(2.0, 0.0)


def test_random_source_reproducible_and_open_interval():
    a = RandomSource(5).uniforms(1000)
    b = RandomSource(5).uniforms(1000)
    assert np.array_equal(a, b)
    assert np.all((a > 0.0) & (a < 1.0))
    assert isinstance(RandomSource(5).uniforms(), float)
    # spawned children are deterministic and mutually distinct
    c1, c2 = RandomSource(5).spawn(2)
    d1, d2 = RandomSource(5).spawn(2)
    assert np.array_equal(c1.uniforms(100), d1.uniforms(100))
    assert not np.array_equal(c1.uniforms(100), c2.uniforms(100))


def test_laplace_sampler_and_densities():
    p = LaplaceParams(0.0, 2.0)
    x = sample_laplace(p, RandomSource(1))
    assert isinstance(x, float)
    draws = sample_laplace(p, RandomSource(1), 200_000)
    assert abs(np.median(draws)) < 0.02
    assert np.mean(np.abs(draws)) == pytest.approx(2.0, rel=0.02)
    assert laplace_pdf(0.0, LaplaceParams(0.0, 1.0)) == pytest.approx(0.5)
    assert laplace_cdf(0.0, p) == pytest.approx(0.5)
    xs = np.linspace(-30, 30, 10_001)
    assert np.trapezoid(laplace_pdf(xs, p), xs) == pytest.approx(1.0, abs=1e-4)


def test_discrete_laplace_matches_pmf():
    alpha = 0.5
    draws = sample_discrete_laplace(DiscreteLaplaceParams(alpha), RandomSource(3), 200_000)
    assert draws.dtype == np.int64
    for i in range(-4, 5):
        assert np.mean(draws == i) == pytest.approx(float(dl_pmf(i, alpha)), abs=0.005)
    one = sample_discrete_laplace(DiscreteLaplaceParams(alpha), RandomSource(3))
    assert isinstance(one, int)


def test_dl_pmf_cdf_consistency():
    alpha = 0.7
    ks = np.arange(-60, 61)
    pmf = dl_pmf(ks, alpha)
    assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-9)
    # cdf at k equals the running pmf sum
    cum = np.cumsum(pmf)
    assert np.allclose(dl_cdf(ks, alpha), cum, atol=1e-9)
    assert dl_pmf(3, alpha) == dl_pmf(-3, alpha)


def test_admissible_constant_closed_form():
    # independent reference: c = 1 / (2 * integral_0^inf dt / (1 + t^gamma)) by quadrature
    for g in (1.5, 2.0, 2.5, 3.0, 4.0, 6.0):
        half, _err = integrate.quad(
            lambda t, g: 1.0 / (1.0 + t**g), 0.0, np.inf, args=(g,), epsabs=1e-12, epsrel=1e-12
        )
        assert admissible_constant(g) == pytest.approx(1.0 / (2.0 * half), abs=1e-10)
    with pytest.raises(PreconditionError):
        admissible_constant(1.0)


def test_quantile_table_matches_analytic_cauchy():
    # gamma = 2 normally short-circuits to tan; force the table path
    table = _table(2.0)
    u = np.linspace(0.001, 0.999, 4001)
    exact = np.tan(np.pi * (u - 0.5))
    got = table.quantile(u)
    err = np.abs(got - exact) / np.maximum(1.0, np.abs(exact))
    assert float(np.max(err)) < 1e-9
    cdf_err = np.abs(table.cdf_at_z(exact) - u)
    assert float(np.max(cdf_err)) < 1e-12


def test_admissible_quantile_cdf_roundtrip():
    for g in (1.5, 3.0, 5.0):
        u = np.linspace(1e-6, 1 - 1e-6, 2001)
        z = admissible_quantile(u, g)
        assert np.all(np.diff(z) > 0)
        assert float(np.max(np.abs(admissible_cdf(z, g) - u))) < 1e-12
        # symmetric family: q(1 - u) = -q(u)
        mirrored = admissible_quantile(1.0 - u, g)
        assert np.allclose(mirrored, -z, rtol=1e-9, atol=1e-9)


def test_admissible_known_quantiles():
    # 97.5% point of the unit gamma=3 shape, cross-checked by quadrature elsewhere
    q = float(admissible_quantile(0.975, 3.0))
    assert q == pytest.approx(2.8516, abs=5e-3)
    assert float(admissible_quantile(0.5, 3.0)) == pytest.approx(0.0, abs=1e-12)
    assert float(admissible_quantile(0.975, 2.0)) == pytest.approx(math.tan(0.475 * math.pi))


def test_admissible_pdf_normalizes():
    xs = np.unique(np.concatenate((-np.geomspace(1e-3, 1e7, 4000),
                                   np.linspace(-1, 1, 401),
                                   np.geomspace(1e-3, 1e7, 4000))))
    for g in (2.0, 3.0):
        assert np.trapezoid(admissible_pdf(xs, g), xs) == pytest.approx(1.0, abs=1e-3)


def test_admissible_sampler_scale():
    p = AdmissibleNoiseParams(3.0, 12.0)
    draws = sample_admissible(p, RandomSource(9), 200_000)
    # E|Z| = 1 exactly for gamma = 3, so E|scaled| = scale
    assert np.mean(np.abs(draws)) == pytest.approx(12.0, rel=0.05)
    assert isinstance(sample_admissible(p, RandomSource(9)), float)

