"""Noise samplers: Laplace, discrete Laplace, and a heavy-tailed family.

Every sampler is a deterministic transform of draws from an explicit
RandomSource, so identical seeds reproduce identical sequences. Laplace,
discrete Laplace and the gamma = 2 member of the heavy-tailed family invert
their CDFs in closed form.

The heavy-tailed family has density c_gamma / (1 + |x|^gamma) for gamma > 1.
Its CDF has no closed-form inverse for gamma != 2, so those draws are built
exactly from a ratio of two gamma variates (see sample_admissible).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

_TWO53 = float(1 << 53)


# The checks each parameter object makes of its noise parameter, also run on
# their own where a parameter is checked before any object is built
def _check_scale(scale: float, name: str = "scale") -> None:
    if not (scale > 0 and math.isfinite(scale)):
        raise PreconditionError(f"{name} must be positive, got {scale}")


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise PreconditionError(f"alpha must lie in (0, 1), got {alpha}")


@dataclass(frozen=True)
class LaplaceParams:
    """Location/scale of the double exponential density (1/2b) exp(-|x-mu|/b)."""

    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.location):
            raise PreconditionError("Laplace location must be finite")
        _check_scale(self.scale, "Laplace scale")


@dataclass(frozen=True)
class DiscreteLaplaceParams:
    """Two-sided geometric pmf Pr(N = i) = ((1-alpha)/(1+alpha)) alpha^|i|."""

    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class AdmissibleNoiseParams:
    """Scale multiplier applied to a unit-shape draw with density ~ 1/(1+|z|^gamma)."""

    gamma: float
    scale: float

    def __post_init__(self) -> None:
        if not (self.gamma > 1.0 and math.isfinite(self.gamma)):
            raise PreconditionError(f"gamma must exceed 1, got {self.gamma}")
        _check_scale(self.scale)


def _integer(name: str, value) -> int:
    """value as a plain int; a bool or a non-integral number is refused."""
    if isinstance(value, (bool, np.bool_)):
        raise PreconditionError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    """value as a float; a bool, a value that is not a real number and an int
    past the float range are refused."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise PreconditionError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise PreconditionError(f"{name} must be a real number in the float range") from None


class RandomSource:
    """Seeded deterministic stream of uniforms and log-gamma variates.

    Uniforms are dyadic points in the open interval (0, 1), so log and tan
    transforms never see an endpoint.
    """

    def __init__(self, seed: int | np.random.SeedSequence):
        # a bool or a non-integral seed is refused, so that no two different
        # seeds draw one stream (2.7 would draw seed 2's, True seed 1's)
        if not isinstance(seed, np.random.SeedSequence):
            seed = _integer("seed", seed)
            if seed < 0:
                raise PreconditionError(f"seed must be non-negative, got {seed}")
            seed = np.random.SeedSequence(seed)
        self._seq = seed
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def uniforms(self, size: int | None = None):
        raw = self._gen.integers(1, 1 << 53, size=size)
        return raw / _TWO53

    def log_gammas(self, shape: float, size: int | None = None):
        """log G for G ~ Gamma(shape, 1), as log G_{shape+1} + log(U) / shape.

        G_{shape+1} * U^(1/shape) is Gamma(shape) distributed. Taking it in log
        space keeps small shapes finite: about 600 in 1e6 Gamma(0.01) draws
        underflow to 0.0, while log(U) / 0.01 stays above -3.7e3.
        """
        log_g = np.log(self._gen.standard_gamma(shape + 1.0, size))
        return log_g + np.log(self.uniforms(size)) / shape

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
    if size is None:
        g1 = np.floor(np.log1p(-rng.uniforms()) / log_alpha)
        g2 = np.floor(np.log1p(-rng.uniforms()) / log_alpha)
        return int(g1 - g2)
    # One call for both halves: each bounded draw takes one raw 64-bit output,
    # so row 0 and row 1 are exactly what two consecutive calls would return.
    g = np.floor(np.log1p(-rng.uniforms((2, *np.atleast_1d(size)))) / log_alpha)
    return (g[0] - g[1]).astype(np.int64)


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


def admissible_pdf(z, gamma: float):
    c = admissible_constant(float(gamma))
    return c / (1.0 + np.abs(np.asarray(z, dtype=float)) ** gamma)


def sample_admissible(p: AdmissibleNoiseParams, rng: RandomSource, size: int | None = None):
    """Draw scale * Z with Z of density c_gamma / (1 + |z|^gamma).

    gamma = 2 is the Cauchy, drawn as tan(pi (u - 1/2)) from one uniform. For
    other gammas, W = |Z|^gamma has density ~ w^(1/gamma - 1) / (1 + w), which
    is BetaPrime(1/gamma, 1 - 1/gamma), the law of G1 / G2 for independent
    G1 ~ Gamma(1/gamma) and G2 ~ Gamma(1 - 1/gamma). So |Z| = (G1 / G2)^(1/gamma)
    exactly, and one more uniform picks the sign. The ratio is formed from
    log-gammas: both shapes are below 1, where a plain gamma draw can
    underflow to 0.0 and the release would then carry no noise at all.

    For gamma near 1 a draw can exceed the largest float and comes back as
    +-inf without a warning; the true mass beyond it is that large, and
    callers that publish a draw must refuse a non-finite one.
    """
    if p.gamma == 2.0:
        z = np.tan(np.pi * (rng.uniforms(size) - 0.5))
    else:
        a = 1.0 / p.gamma
        log_w = rng.log_gammas(a, size) - rng.log_gammas(1.0 - a, size)
        with np.errstate(over="ignore"):
            magnitude = np.exp(log_w / p.gamma)
        z = np.copysign(magnitude, rng.uniforms(size) - 0.5)
    draw = p.scale * z
    return float(draw) if size is None else draw
