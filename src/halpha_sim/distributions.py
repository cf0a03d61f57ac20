"""Count samplers for papers and citations, and the citation-aging curve.

Paper and citation counts are drawn from either a Poisson or a negative
binomial distribution, both parameterized by their mean so that switching
kinds never changes the expected value. The expected number of citations a
paper receives in a period depends on its age through a log-logistic curve
that rises to a configurable peak and then decays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError


class CountKind(str, Enum):
    """Supported count distributions."""

    POISSON = "poisson"
    NBINOMIAL = "nbinomial"


# Smallest negative binomial dispersion; numpy refuses a draw below about
# 1.4e-18 at a mean of 2**30, the largest the configs allow.
DISPERSION_MIN = 1e-12


def _validate_count_params(
    kind: CountKind,
    mean: float,
    dispersion: float | None,
    mean_name: str = "count mean",
    dispersion_name: str = "dispersion",
) -> None:
    """Reject a negative or non-finite mean, or a negative binomial without a finite
    dispersion of at least DISPERSION_MIN (its size parameter: Var = mean + mean**2 /
    dispersion). The names are those of the checked values in the error message."""
    if not 0 <= mean < math.inf:
        raise ConfigurationError(
            f"{mean_name} must be finite and nonnegative, got {mean}", mean_name
        )
    if kind is CountKind.NBINOMIAL:
        if dispersion is None or not DISPERSION_MIN <= dispersion < math.inf:
            raise ConfigurationError(
                f"{dispersion_name} must be finite and at least {DISPERSION_MIN} for the "
                f"negative binomial, got {dispersion}",
                dispersion_name,
            )


def draw_counts(
    kind: CountKind,
    means,
    rng: np.random.Generator,
    dispersion: float | None = None,
    size: int | None = None,
) -> np.ndarray:
    """Draw one count per entry of ``means`` (or ``size`` draws at a scalar mean).

    Negative binomial draws use n = dispersion, p = dispersion / (dispersion + mean),
    which gives E[X] = mean and Var[X] = mean + mean**2 / dispersion.
    """
    means = np.asarray(means, dtype=float)
    # min and max propagate NaN, so a NaN mean fails the first test
    if not (0 <= means.min(initial=0) and means.max(initial=0) < math.inf):
        raise ConfigurationError("count means must be finite and nonnegative")
    if kind is CountKind.POISSON:
        return rng.poisson(means, size=size)
    _validate_count_params(kind, 0.0, dispersion)
    k = float(dispersion)  # type: ignore[arg-type]
    return rng.negative_binomial(k, k / (k + means), size=size)


@dataclass(frozen=True)
class AgingCurve:
    """Expected citations per period as a function of paper age.

    The curve follows the shape of a log-logistic density with steepness
    ``speed`` (> 1 so an interior mode exists), rescaled so its mode sits at
    ``peak_period`` and its peak value is exactly ``max_mean``.
    """

    peak_period: float
    max_mean: float
    speed: float = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.peak_period < math.inf:
            raise ConfigurationError(
                f"peak_period must be finite and positive, got {self.peak_period}", "peak_period"
            )
        if not 0 <= self.max_mean < math.inf:
            raise ConfigurationError(
                f"max_mean must be finite and nonnegative, got {self.max_mean}", "max_mean"
            )
        if not 1 < self.speed < math.inf:
            raise ConfigurationError(
                "speed must be finite and exceed 1 for the curve to have an interior peak, "
                f"got {self.speed}",
                "speed",
            )

    @property
    def scale(self) -> float:
        """Log-logistic scale placing the density mode at ``peak_period``."""
        b = self.speed
        return self.peak_period * ((b + 1.0) / (b - 1.0)) ** (1.0 / b)


def _log_logistic_density(t: float, scale: float, shape: float) -> float:
    """Log-logistic pdf (beta/alpha) (t/alpha)^(beta-1) / (1 + (t/alpha)^beta)^2."""
    x = t / scale
    return (shape / scale) * x ** (shape - 1.0) / (1.0 + x**shape) ** 2


def expected_citations(age: float, curve: AgingCurve) -> float:
    """Expected citations for a paper of the given age (in whole periods, >= 1).

    Returns max_mean * f(age) / f(peak_period) where f is the log-logistic
    density; exactly max_mean at age == peak_period.
    """
    if age < 1:
        raise ValueError(f"paper age must be at least 1 period, got {age}")
    a, b = curve.scale, curve.speed
    return curve.max_mean * _log_logistic_density(age, a, b) / _log_logistic_density(
        curve.peak_period, a, b
    )

