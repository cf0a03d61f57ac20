"""Sampler moment checks and aging-curve properties.

Aging-curve values are checked against scipy's log-logistic (fisk) density,
an independent route to the same shape.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import fisk

from halpha_sim.cli import scenario_config
from halpha_sim.distributions import (
    DISPERSION_MIN,
    CountKind,
    _log_logistic_density,
    draw_counts,
    expected_citations,
)
from halpha_sim.errors import ConfigurationError

N_DRAWS = 100_000
# the default aging curve: peak 5 expected citations at age 3, steepness 2
CURVE = {"peak": 3.0, "max_mean": 5.0, "speed": 2.0}


def _scale(peak: float, speed: float) -> float:
    # a log-logistic density's mode is scale * ((speed - 1) / (speed + 1)) ** (1 / speed)
    return peak * ((speed + 1) / (speed - 1)) ** (1 / speed)


def test_poisson_moments():
    rng = np.random.default_rng(1234)
    draws = draw_counts(CountKind.POISSON, 10.0, rng, size=N_DRAWS)
    assert 9.9 <= draws.mean() <= 10.1
    assert 9.5 <= draws.var() <= 10.5


def test_poisson_zero_mean_is_degenerate():
    rng = np.random.default_rng(0)
    assert (draw_counts(CountKind.POISSON, 0.0, rng, size=1000) == 0).all()


def test_negative_binomial_moments():
    # Var = mean + mean^2 / dispersion = 10 + 100/2 = 60
    rng = np.random.default_rng(5678)
    draws = draw_counts(CountKind.NBINOMIAL, 10.0, rng, dispersion=2.0, size=N_DRAWS)
    assert 9.8 <= draws.mean() <= 10.2
    assert 55.0 <= draws.var() <= 65.0


@pytest.mark.parametrize(
    "kind, mean, dispersion",
    [
        (CountKind.POISSON, -1.0, None),
        (CountKind.NBINOMIAL, 10.0, None),
        (CountKind.NBINOMIAL, 10.0, 0.0),
        (CountKind.NBINOMIAL, 10.0, -2.0),
        (CountKind.POISSON, math.inf, None),
        (CountKind.POISSON, math.nan, None),
        (CountKind.NBINOMIAL, math.inf, 2.0),
        (CountKind.NBINOMIAL, math.nan, 2.0),
        (CountKind.NBINOMIAL, 10.0, 1e-300),  # below DISPERSION_MIN
        ("poisson", 10.0, None),  # a plain string is not a CountKind
    ],
)
def test_invalid_count_parameters(kind, mean, dispersion):
    with pytest.raises(ConfigurationError):
        draw_counts(kind, mean, np.random.default_rng(0), dispersion)
    baseline = scenario_config("baseline", master_seed=1)
    with pytest.raises(ConfigurationError):
        replace(baseline, paper_kind=kind, paper_mean=mean, paper_dispersion=dispersion)


def test_negative_binomial_draws_at_the_dispersion_floor_and_the_largest_mean():
    # 2**30 is the largest mean a config allows; numpy's own limit is near 1.4e-18
    draws = draw_counts(CountKind.NBINOMIAL, [0.0, 1.0, 2.0**30], np.random.default_rng(0),
                        DISPERSION_MIN, size=(50, 3))
    assert draws.min() >= 0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0])
@pytest.mark.parametrize("kind", list(CountKind))
def test_draw_counts_rejects_any_bad_mean_in_an_array(kind, bad):
    with pytest.raises(ConfigurationError):
        draw_counts(kind, [1.0, bad, 2.0], np.random.default_rng(0), 2.0)


@given(
    kind=st.sampled_from(list(CountKind)),
    mean=st.floats(0.0, 50.0),
    dispersion=st.floats(0.1, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100)
def test_samples_are_nonnegative_integers(kind, mean, dispersion, seed):
    rng = np.random.default_rng(seed)
    draws = draw_counts(kind, mean, rng, dispersion, size=20)
    assert draws.dtype.kind == "i"
    assert (draws >= 0).all()


def test_same_seed_same_draw_sequence():
    rng1, rng2 = np.random.default_rng(99), np.random.default_rng(99)
    seq1 = [draw_counts(CountKind.NBINOMIAL, 7.5, rng1, 3.0) for _ in range(200)]
    seq2 = [draw_counts(CountKind.NBINOMIAL, 7.5, rng2, 3.0) for _ in range(200)]
    assert seq1 == seq2


def test_curve_peak_value_is_exact():
    assert abs(expected_citations(3, **CURVE) - 5.0) <= 1e-12


def test_curve_value_at_age_ten():
    # independently computed: 5 * f(10) / f(3) with scale 3*sqrt(3), shape 2
    assert expected_citations(10, **CURVE) == pytest.approx(1.3392026784053566, rel=1e-9)


@pytest.mark.parametrize("peak", [1.0, 2.5, 3.0, 7.0])
@pytest.mark.parametrize("speed", [1.5, 2.0, 4.0])
def test_curve_matches_scipy_fisk(peak, speed):
    scale = _scale(peak, speed)
    ref = fisk.pdf(peak, speed, scale=scale)
    for age in range(1, 30):
        expected = 5.0 * fisk.pdf(age, speed, scale=scale) / ref
        got = expected_citations(age, peak=peak, max_mean=5.0, speed=speed)
        assert got == pytest.approx(expected, rel=1e-12)


def test_density_vanishes_at_origin():
    scale = _scale(CURVE["peak"], CURVE["speed"])
    values = [
        _log_logistic_density(t, scale, CURVE["speed"]) for t in (1e-3, 1e-6, 1e-9, 1e-12)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-12


def test_age_below_one_rejected():
    with pytest.raises(ValueError):
        expected_citations(0, **CURVE)


def test_speed_at_most_one_rejected():
    baseline = scenario_config("baseline", master_seed=1)
    for name, value in [
        ("citation_speed", 1.0),
        ("citation_peak", 0.0),
        ("citation_mean", -1.0),
        ("citation_peak", math.nan),
        ("citation_mean", math.nan),
        ("citation_speed", math.nan),
        ("citation_peak", math.inf),
        ("citation_mean", math.inf),
        ("citation_speed", math.inf),
    ]:
        with pytest.raises(ConfigurationError) as exc:
            replace(baseline, **{name: value})
        assert exc.value.fields == (name,)


def _assert_unimodal(curve: dict, max_age: int = 50) -> None:
    values = [expected_citations(a, **curve) for a in range(1, max_age + 1)]
    mode = int(np.argmax(values))
    # rises to the age nearest the peak, falls after; equality only right at
    # the argmax where two ages straddle a non-integer mode
    for i in range(mode):
        assert values[i] < values[i + 1] or (i == mode - 1 and values[i] == values[i + 1])
    for i in range(mode, max_age - 1):
        assert values[i] > values[i + 1] or (i == mode and values[i] == values[i + 1])
    assert abs((mode + 1) - curve["peak"]) <= 1.0


def test_unimodal_at_default_parameters():
    _assert_unimodal(CURVE)


@given(
    peak=st.floats(1.0, 20.0),
    speed=st.floats(1.2, 6.0),
    max_mean=st.floats(0.1, 50.0),
)
@settings(max_examples=80)
def test_unimodal_across_parameters(peak, speed, max_mean):
    _assert_unimodal({"peak": peak, "max_mean": max_mean, "speed": speed})


def test_citation_sampler_mean_at_peak():
    rng = np.random.default_rng(77)
    draws = draw_counts(CountKind.POISSON, expected_citations(3, **CURVE), rng, size=N_DRAWS)
    assert 4.9 <= draws.mean() <= 5.1


def test_citation_sampler_mean_at_age_ten():
    rng = np.random.default_rng(78)
    draws = draw_counts(CountKind.POISSON, expected_citations(10, **CURVE), rng, size=N_DRAWS)
    assert 1.30 <= draws.mean() <= 1.38


def test_citation_sampler_zero_max_mean():
    rng = np.random.default_rng(79)
    means = [expected_citations(a, **{**CURVE, "max_mean": 0.0}) for a in range(1, 50)]
    assert (draw_counts(CountKind.POISSON, means, rng) == 0).all()
