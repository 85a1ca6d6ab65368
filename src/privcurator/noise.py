"""Noise samplers: Laplace, discrete Laplace, and a heavy-tailed family.

Every sampler is a deterministic inverse-CDF transform of uniforms drawn from
an explicit RandomSource, so identical seeds reproduce identical sequences.

The heavy-tailed family has density c_gamma / (1 + |x|^gamma) for gamma > 1.
gamma = 2 is the standard Cauchy with an analytic inverse CDF; other gammas
use a tabulated CDF on a tangent grid, inverted with a linear-interpolation
seed and Newton polish.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

_TWO53 = float(1 << 53)
_GL5_NODES, _GL5_WEIGHTS = np.polynomial.legendre.leggauss(5)


@dataclass(frozen=True)
class LaplaceParams:
    """Location/scale of the double exponential density (1/2b) exp(-|x-mu|/b)."""

    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.location):
            raise PreconditionError("Laplace location must be finite")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise PreconditionError(f"Laplace scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class DiscreteLaplaceParams:
    """Two-sided geometric pmf Pr(N = i) = ((1-alpha)/(1+alpha)) alpha^|i|."""

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise PreconditionError(f"alpha must lie in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class AdmissibleNoiseParams:
    """Scale multiplier applied to a unit-shape draw with density ~ 1/(1+|z|^gamma)."""

    gamma: float
    scale: float

    def __post_init__(self) -> None:
        if not (self.gamma > 1.0 and math.isfinite(self.gamma)):
            raise PreconditionError(f"gamma must exceed 1, got {self.gamma}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise PreconditionError(f"scale must be positive, got {self.scale}")


class RandomSource:
    """Seeded deterministic uniform stream feeding the inverse-CDF samplers.

    Uniforms are dyadic points in the open interval (0, 1), so log and tan
    transforms never see an endpoint.
    """

    def __init__(self, seed: int | np.random.SeedSequence):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def uniforms(self, size: int | None = None):
        raw = self._gen.integers(1, 1 << 53, size=size)
        return raw / _TWO53

    def spawn(self, k: int) -> list["RandomSource"]:
        """Derive k independent child sources; deterministic given the seed."""
        return [RandomSource(s) for s in self._seq.spawn(k)]


# ---------------------------------------------------------------------------
# Laplace
# ---------------------------------------------------------------------------


def sample_laplace(p: LaplaceParams, rng: RandomSource, size: int | None = None):
    u = rng.uniforms(size)
    centered = u - 0.5
    draw = p.location - p.scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))
    return float(draw) if size is None else draw


def laplace_pdf(x, p: LaplaceParams):
    return np.exp(-np.abs(np.asarray(x, dtype=float) - p.location) / p.scale) / (2.0 * p.scale)


def laplace_cdf(x, p: LaplaceParams):
    z = (np.asarray(x, dtype=float) - p.location) / p.scale
    return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))


# ---------------------------------------------------------------------------
# discrete Laplace
# ---------------------------------------------------------------------------


def sample_discrete_laplace(p: DiscreteLaplaceParams, rng: RandomSource, size: int | None = None):
    # difference of two geometric inverse-CDF draws has exactly the target pmf
    log_alpha = math.log(p.alpha)
    g1 = np.floor(np.log1p(-rng.uniforms(size)) / log_alpha)
    g2 = np.floor(np.log1p(-rng.uniforms(size)) / log_alpha)
    draw = (g1 - g2).astype(np.int64) if size is not None else int(g1 - g2)
    return draw


def dl_pmf(i, alpha: float):
    scale = (1.0 - alpha) / (1.0 + alpha)
    return scale * alpha ** np.abs(np.asarray(i))


def dl_cdf(i, alpha: float):
    i = np.asarray(i, dtype=np.int64)
    upper = 1.0 - alpha ** (i.astype(float) + 1.0) / (1.0 + alpha)
    lower = alpha ** (-i.astype(float)) / (1.0 + alpha)
    return np.where(i >= 0, upper, lower)


# ---------------------------------------------------------------------------
# admissible heavy-tailed family
# ---------------------------------------------------------------------------


def admissible_constant(gamma: float) -> float:
    """Normalizing constant c_gamma of the density c/(1 + |z|^gamma), in closed form."""
    if not gamma > 1.0:
        raise PreconditionError(f"gamma must exceed 1, got {gamma}")
    return gamma * math.sin(math.pi / gamma) / (2.0 * math.pi)


class _QuantileTable:
    """Cumulative CDF of the unit-shape density on a tangent grid.

    With z = tan(theta) the half-line CDF integrand becomes
    (1 + tan^2 theta) / (1 + tan^gamma theta) on [0, pi/2], a finite interval.
    Segments are integrated with 16-point Gauss-Legendre. The substitution
    degenerates on the final segment, so everything past the last interior
    grid edge uses the analytic tail series of integral_z^inf dt/(1+t^gamma)
    instead, both for the CDF and for extreme quantiles; heavy tails
    (gamma < 2) lose no accuracy that way.
    """

    SEGMENTS = 4096

    def __init__(self, gamma: float):
        self.gamma = gamma
        self._c = admissible_constant(gamma)
        theta = np.linspace(0.0, np.pi / 2.0, self.SEGMENTS + 1)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        a = theta[:-1]
        b = theta[1:]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        seg = half * (self._integrand(pts) @ weights)

        self._z_edge = float(np.tan(theta[-2]))
        self._log_z_edge = math.log(self._z_edge)
        seg[-1] = float(self._tail_raw(self._log_z_edge))

        cum = np.concatenate(([0.0], np.cumsum(seg)))
        self.theta = theta
        self.cdf = 0.5 + self._c * cum
        self.cdf[-1] = 1.0

    def _integrand(self, theta):
        t = np.tan(theta)
        return (1.0 + t * t) / (1.0 + np.abs(t) ** self.gamma)

    def _tail_raw(self, log_z):
        """integral_z^inf dt/(1 + t^gamma) for z at or past the last grid edge.

        Alternating series in z^-gamma; at the grid edge the first omitted
        term is below 1e-20 of the sum. Powers are exponentials of negative
        arguments, so no magnitude of z can overflow.
        """
        g = self.gamma
        log_z = np.asarray(log_z, dtype=float)
        out = 0.0
        for k in (1, 2, 3, 4):
            term = np.exp((1.0 - k * g) * log_z) / (k * g - 1.0)
            out = out + (term if k % 2 == 1 else -term)
        return out

    def _cdf_at(self, theta):
        """Exact-to-quadrature CDF at theta below the last grid edge."""
        j = np.clip(np.searchsorted(self.theta, theta, side="right") - 1, 0, self.SEGMENTS - 1)
        anchor = self.theta[j]
        half = 0.5 * (theta - anchor)
        pts = anchor + half * (_GL5_NODES[:, None] + 1.0)
        local = half * (_GL5_WEIGHTS @ self._integrand(pts))
        return self.cdf[j] + self._c * local

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        uu = np.atleast_1d(u)
        w = np.where(uu >= 0.5, uu, 1.0 - uu)
        z = np.empty_like(w)

        tail = w > self.cdf[-2]
        if np.any(tail):
            z[tail] = self._tail_quantile(1.0 - w[tail])
        core = ~tail
        if np.any(core):
            wc = w[core]
            theta = np.interp(wc, self.cdf, self.theta)
            j = np.clip(np.searchsorted(self.cdf, wc, side="right") - 1, 0, self.SEGMENTS - 2)
            lo = self.theta[j]
            hi = self.theta[j + 1]
            theta = np.clip(theta, lo, hi)
            for _ in range(3):
                density = np.maximum(self._c * self._integrand(theta), 1e-300)
                theta = np.clip(theta - (self._cdf_at(theta) - wc) / density, lo, hi)
            z[core] = np.tan(theta)

        out = np.where(uu >= 0.5, z, -z)
        return float(out[0]) if scalar else out

    def _tail_quantile(self, q):
        # solve c * tail(z) = q by Newton in y = log z; the one-term inversion
        # starts within a few ppm, and the slope c z / (1 + z^gamma) is built
        # from exponentials whose arguments stay bounded
        g = self.gamma
        c = self._c
        q = np.asarray(q, dtype=float)
        y = np.log(c / ((g - 1.0) * q)) / (g - 1.0)
        for _ in range(3):
            h = c * self._tail_raw(y) - q
            slope = c / (np.exp(-y) + np.exp((g - 1.0) * y))
            y = y + h / slope
        return np.exp(y)

    def cdf_at_z(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        zz = np.atleast_1d(z)
        az = np.abs(zz)
        upper = np.empty_like(az)
        tail = az > self._z_edge
        if np.any(tail):
            upper[tail] = 1.0 - self._c * self._tail_raw(np.log(az[tail]))
        core = ~tail
        if np.any(core):
            upper[core] = self._cdf_at(np.arctan(az[core]))
        out = np.where(zz >= 0, upper, 1.0 - upper)
        return float(out[0]) if scalar else out


@functools.lru_cache(maxsize=16)
def _table(gamma: float) -> _QuantileTable:
    return _QuantileTable(gamma)


def admissible_quantile(u, gamma: float):
    """Quantile of the unit-shape draw; analytic for gamma = 2, tabulated otherwise."""
    if gamma == 2.0:
        z = np.tan(np.pi * (np.asarray(u, dtype=float) - 0.5))
        return float(z) if np.ndim(u) == 0 else z
    return _table(float(gamma)).quantile(u)


def admissible_cdf(z, gamma: float):
    if gamma == 2.0:
        c = 0.5 + np.arctan(np.asarray(z, dtype=float)) / np.pi
        return float(c) if np.ndim(z) == 0 else c
    return _table(float(gamma)).cdf_at_z(z)


def admissible_pdf(z, gamma: float):
    c = admissible_constant(float(gamma))
    return c / (1.0 + np.abs(np.asarray(z, dtype=float)) ** gamma)


def sample_admissible(p: AdmissibleNoiseParams, rng: RandomSource, size: int | None = None):
    u = rng.uniforms(size)
    draw = p.scale * admissible_quantile(u, p.gamma)
    return float(draw) if size is None else draw
