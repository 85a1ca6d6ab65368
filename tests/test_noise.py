"""Noise samplers and densities."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from privcurator import (
    AdmissibleNoiseParams,
    DiscreteLaplaceParams,
    LaplaceParams,
    PreconditionError,
    RandomSource,
    admissible_pdf,
    dl_cdf,
    dl_pmf,
    laplace_cdf,
    laplace_pdf,
    sample_admissible,
    sample_discrete_laplace,
    sample_laplace,
)
from privcurator.noise import admissible_constant


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
    # numpy's SeedSequence would raise a bare ValueError
    with pytest.raises(PreconditionError, match="seed"):
        RandomSource(-1)


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
    assert integrate.trapezoid(laplace_pdf(xs, p), xs) == pytest.approx(1.0, abs=1e-4)


def test_discrete_laplace_matches_pmf():
    alpha = 0.5
    draws = sample_discrete_laplace(DiscreteLaplaceParams(alpha), RandomSource(3), 200_000)
    assert draws.dtype == np.int64
    for i in range(-4, 5):
        assert np.mean(draws == i) == pytest.approx(float(dl_pmf(i, alpha)), abs=0.005)
    one = sample_discrete_laplace(DiscreteLaplaceParams(alpha), RandomSource(3))
    assert isinstance(one, int)


def test_discrete_laplace_draws_match_the_two_call_formula():
    # the reference: two geometric draws from two consecutive uniform calls
    def two_calls(alpha, rng, size):
        log_alpha = math.log(alpha)
        g1 = np.floor(np.log1p(-rng.uniforms(size)) / log_alpha)
        g2 = np.floor(np.log1p(-rng.uniforms(size)) / log_alpha)
        return int(g1 - g2) if size is None else (g1 - g2).astype(np.int64)

    for alpha in (0.05, 0.5, 0.97):
        got_rng, ref_rng = RandomSource(17), RandomSource(17)
        for size in (None, 1, 2, 3, 10, None, 100, 101, 1000, (4, 5), 4097):
            got = sample_discrete_laplace(DiscreteLaplaceParams(alpha), got_rng, size)
            ref = two_calls(alpha, ref_rng, size)
            assert type(got) is type(ref)
            if size is None:
                assert got == ref
            else:
                assert got.dtype == np.int64 and got.shape == ref.shape
                assert np.array_equal(got, ref), (alpha, size)
        # both streams are at the same place afterwards
        assert got_rng.uniforms() == ref_rng.uniforms()


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


def test_admissible_reference_cdf_integrates_the_density(admissible_reference_cdf):
    # the test-side betainc CDF against quadrature of the library's density
    for g in (1.05, 1.5, 3.0, 5.0, 20.0, 100.0):
        for z in (0.3, 1.0, 2.5, 40.0):
            half, _err = integrate.quad(lambda t: float(admissible_pdf(t, g)), 0.0, z,
                                        epsabs=1e-13, epsrel=1e-13)
            assert float(admissible_reference_cdf(z, g)) == pytest.approx(0.5 + half, abs=1e-10)
            assert float(admissible_reference_cdf(-z, g)) == pytest.approx(0.5 - half, abs=1e-10)


def test_admissible_sampler_matches_reference_cdf(admissible_reference_cdf):
    for seed, g in enumerate((1.05, 1.5, 3.0, 5.0, 20.0, 100.0)):
        p = AdmissibleNoiseParams(g, 1.0)
        draws = sample_admissible(p, RandomSource(seed), 250_000)
        assert np.all(np.isfinite(draws))
        # a zero draw would release the exact value; a plain ratio of gamma
        # draws gives about 640 per 1e6 at gamma = 100
        assert not np.any(draws == 0.0)
        ks = stats.kstest(draws, lambda x: admissible_reference_cdf(x, g)).statistic
        assert ks < 0.005, (g, ks)
        one = sample_admissible(p, RandomSource(seed))
        assert isinstance(one, float)
        assert one == sample_admissible(p, RandomSource(seed))
        assert np.array_equal(draws, sample_admissible(p, RandomSource(seed), 250_000))


def test_cauchy_draws_keep_the_tan_transform():
    p = AdmissibleNoiseParams(2.0, 3.5)
    u = RandomSource(4).uniforms(10_000)
    draws = sample_admissible(p, RandomSource(4), 10_000)
    assert np.array_equal(draws, 3.5 * np.tan(np.pi * (u - 0.5)))
    u1 = RandomSource(4).uniforms()
    assert sample_admissible(p, RandomSource(4)) == 3.5 * np.tan(np.pi * (u1 - 0.5))


def test_admissible_pdf_normalizes():
    xs = np.unique(np.concatenate((-np.geomspace(1e-3, 1e7, 4000),
                                   np.linspace(-1, 1, 401),
                                   np.geomspace(1e-3, 1e7, 4000))))
    for g in (2.0, 3.0):
        assert integrate.trapezoid(admissible_pdf(xs, g), xs) == pytest.approx(1.0, abs=1e-3)


def test_admissible_sampler_scale():
    p = AdmissibleNoiseParams(3.0, 12.0)
    draws = sample_admissible(p, RandomSource(9), 200_000)
    # E|Z| = 1 exactly for gamma = 3, so E|scaled| = scale
    assert np.mean(np.abs(draws)) == pytest.approx(12.0, rel=0.05)
    assert isinstance(sample_admissible(p, RandomSource(9)), float)

