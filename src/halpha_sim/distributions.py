"""Count samplers for papers and citations, and the citation-aging curve.

Paper and citation counts are drawn from either a Poisson or a negative
binomial distribution, both parameterized by their mean so that switching
kinds never changes the expected value. The expected number of citations a
paper receives in a period depends on its age through a log-logistic curve
that rises to a configurable peak and then decays.

Parameters are checked against (test, description) rules. The count rules
here are also those of the matching fields of ``SimulationConfig``, and
``draw_counts`` checks its own arguments with them.
"""

from __future__ import annotations

import math
from enum import Enum
from numbers import Real

import numpy as np

from .errors import ConfigurationError


class CountKind(str, Enum):
    """Supported count distributions."""

    POISSON = "poisson"
    NBINOMIAL = "nbinomial"


# Smallest negative binomial dispersion; numpy refuses a draw below about
# 1.4e-18 at a mean of 2**30, the largest the configs allow.
DISPERSION_MIN = 1e-12


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


# A rule is a (test, description) pair: a value is accepted when the test holds.
_KIND = (lambda v: isinstance(v, CountKind), "a CountKind (poisson or nbinomial)")
# None, a dispersion left unset, passes the test, so the description need not offer it.
_DISPERSION = (lambda v: v is None or _is_real(v) and DISPERSION_MIN <= v < math.inf,
               f"a finite number of at least {DISPERSION_MIN}")
_NB_DISPERSION = (lambda v: v is not None, "a number for the negative binomial")


def _check(name: str, value, rule) -> None:
    test, description = rule
    if not test(value):
        raise ConfigurationError(f"{name} must be {description}, got {value!r}", name)


def draw_counts(
    kind: CountKind,
    means,
    rng: np.random.Generator,
    dispersion: float | None = None,
    size: int | None = None,
) -> np.ndarray:
    """Draw one count per entry of ``means`` (or ``size`` draws at a scalar mean).

    Negative binomial draws use n = dispersion, p = dispersion / (dispersion + mean),
    which gives E[X] = mean and Var[X] = mean + mean**2 / dispersion; the
    dispersion must be at least DISPERSION_MIN.
    """
    means = np.asarray(means, dtype=float)
    # min and max propagate NaN, so a NaN mean fails the first test
    if not (0 <= means.min(initial=0) and means.max(initial=0) < math.inf):
        raise ConfigurationError("count means must be finite and nonnegative")
    if kind is not CountKind.POISSON:
        _check("kind", kind, _KIND)
        _check("dispersion", dispersion, _DISPERSION)
        _check("dispersion", dispersion, _NB_DISPERSION)
    return _sample_counts(kind, means, rng, dispersion, size)


def _sample_counts(kind, means, rng, dispersion=None, size=None) -> np.ndarray:
    """The draw of ``draw_counts``, for arguments it has already checked."""
    if kind is CountKind.POISSON:
        return rng.poisson(means, size=size)
    k = float(dispersion)  # type: ignore[arg-type]
    return rng.negative_binomial(k, k / (k + means), size=size)


def _log_logistic_density(t: float, scale: float, shape: float) -> float:
    """Log-logistic pdf (beta/alpha) (t/alpha)^(beta-1) / (1 + (t/alpha)^beta)^2."""
    x = t / scale
    return (shape / scale) * x ** (shape - 1.0) / (1.0 + x**shape) ** 2


def expected_citations(age: float, *, peak: float, max_mean: float, speed: float) -> float:
    """Expected citations for a paper of the given age (in whole periods, >= 1).

    The curve follows the shape of a log-logistic density f with steepness
    ``speed`` (> 1 so an interior mode exists), rescaled so its mode sits at
    ``peak`` and its peak value is exactly ``max_mean``: the result is
    max_mean * f(age) / f(peak).
    """
    if age < 1:
        raise ValueError(f"paper age must be at least 1 period, got {age}")
    scale = peak * ((speed + 1.0) / (speed - 1.0)) ** (1.0 / speed)  # puts f's mode at peak
    return max_mean * _log_logistic_density(age, scale, speed) / _log_logistic_density(
        peak, scale, speed
    )
