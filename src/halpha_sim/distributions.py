"""Count samplers for papers and citations, and the citation-aging curve.

Paper and citation counts are drawn from either a Poisson or a negative
binomial distribution, both parameterized by their mean so that switching
kinds never changes the expected value. The expected number of citations a
paper receives in a period depends on its age through a log-logistic curve
that rises to a configurable peak and then decays.

Parameters are checked against (test, description) rules. The count rules
here are also those of the matching fields in ``engine``'s rule table of
``SimulationConfig``, and ``draw_counts`` checks its own arguments with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real

import numpy as np

from .errors import ConfigurationError


class CountKind(str, Enum):
    """Supported count distributions."""

    POISSON = "poisson"
    NBINOMIAL = "nbinomial"


# Smallest negative binomial dispersion; numpy refuses a draw below about
# 1.4e-18 at a mean of 2**30, the largest the configs allow.
DISPERSION_MIN = 1e-12


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


# A rule is a (test, description) pair: a value is accepted when the test holds.
_KIND = (lambda v: isinstance(v, CountKind), "a CountKind (poisson or nbinomial)")
_NONNEGATIVE = (lambda v: _is_real(v) and 0 <= v < math.inf, "a finite nonnegative number")
_DISPERSION = (lambda v: v is None or _is_real(v) and math.isfinite(v), "a finite number or None")
_NB_DISPERSION = (lambda v: v is not None and v >= DISPERSION_MIN,  # once _DISPERSION holds
                  f"at least {DISPERSION_MIN} for the negative binomial")


def _check(name: str, value, rule) -> None:
    test, description = rule
    if not test(value):
        raise ConfigurationError(f"{name} must be {description}, got {value!r}", name)


def _check_fields(obj, rules: dict) -> None:
    """Check each field of ``obj`` against its rule in ``rules``, in order; a
    ConfigurationError names the first field that fails."""
    for name, rule in rules.items():
        _check(name, getattr(obj, name), rule)


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


# The rule of each AgingCurve field, checked in this order.
_AGING_RULES = {
    "peak_period": (lambda v: _is_real(v) and 0 < v < math.inf, "a finite positive number"),
    "max_mean": _NONNEGATIVE,
    "speed": (lambda v: _is_real(v) and 1 < v < math.inf, "a finite number above 1"),
}


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
        _check_fields(self, _AGING_RULES)

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

