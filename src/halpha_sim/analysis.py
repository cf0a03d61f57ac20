"""Group construction, cross-run aggregation, and CSV export.

Agents are split per run into a low and a high group around the run's median
initial h (agents exactly at the median are excluded). Group means of
h-alpha are computed per run and period, then averaged across runs with
equal weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .engine import RunResult
from .errors import DataError, _outside_package


def split_groups(initial_h) -> tuple[np.ndarray, np.ndarray]:
    """Agent ids below and above the run median of initial h (the lower median
    for even counts): the low and the high group."""
    values = np.asarray(initial_h)
    if values.size == 0:
        raise ValueError("cannot split an empty population")
    median = int(np.sort(values)[(values.size - 1) // 2])
    low = np.flatnonzero(values < median)
    high = np.flatnonzero(values > median)
    if low.size == 0 and high.size == 0:
        warnings.warn(
            "every agent has the same initial h; low and high groups are empty",
            stacklevel=_outside_package(),
        )
    return low, high


@dataclass(frozen=True)
class ExperimentResult:
    """Cross-run h-alpha trajectories for the low and high groups.

    ``difference`` equals ``mean_h_alpha_high - mean_h_alpha_low`` at every
    period. Per-run group means are kept alongside the aggregate; entries are
    NaN for runs whose group is empty.
    """

    periods: np.ndarray  # (P,) period numbers
    mean_h_alpha_low: np.ndarray  # (P,)
    mean_h_alpha_high: np.ndarray  # (P,)
    difference: np.ndarray  # (P,)
    per_run_low: np.ndarray  # (R, P)
    per_run_high: np.ndarray  # (R, P)
    run_indices: np.ndarray  # (R,)


def _mean_over_runs(per_run: np.ndarray) -> np.ndarray:
    # nanmean without the all-NaN RuntimeWarning
    present = ~np.isnan(per_run)
    counts = present.sum(axis=0)
    totals = np.where(present, per_run, 0.0).sum(axis=0)
    return np.where(counts > 0, totals / np.maximum(counts, 1), np.nan)


def aggregate(runs: list[RunResult]) -> ExperimentResult:
    """Average per-run group means of h-alpha across runs, period by period.

    Each run's groups come from ``split_groups`` on its initial h, row 0 of
    its ``h`` column; they are fixed and never reassigned in later periods.
    The means read rows 1.. of each run's ``h_alpha`` column in place. Runs
    with different period counts are a DataError.
    """
    if not runs:
        raise DataError("no runs to aggregate")
    splits = [split_groups(run.h[0]) for run in runs]

    n_periods = len(runs[0].h_alpha) - 1
    for run in runs:
        if len(run.h_alpha) - 1 != n_periods:
            raise DataError(
                f"run {run.run_index} has {len(run.h_alpha) - 1} periods, expected {n_periods}"
            )

    per_run_low = np.full((len(runs), n_periods), np.nan)
    per_run_high = np.full((len(runs), n_periods), np.nan)
    for r, (run, (low, high)) in enumerate(zip(runs, splits)):
        h_alpha = run.h_alpha[1:]  # (P, n)
        if low.size:
            per_run_low[r] = h_alpha[:, low].mean(axis=1)
        if high.size:
            per_run_high[r] = h_alpha[:, high].mean(axis=1)

    mean_low = _mean_over_runs(per_run_low)
    mean_high = _mean_over_runs(per_run_high)
    return ExperimentResult(
        periods=np.arange(1, n_periods + 1),
        mean_h_alpha_low=mean_low,
        mean_h_alpha_high=mean_high,
        difference=mean_high - mean_low,
        per_run_low=per_run_low,
        per_run_high=per_run_high,
        run_indices=np.array([run.run_index for run in runs]),
    )


def _fmt(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.6f}"


def export_csv(result: ExperimentResult, per_run: bool = False) -> bytes:
    """Render trajectories as UTF-8 CSV with LF line endings.

    Aggregated form: ``period,group,mean_h_alpha`` with groups low, high,
    diff per period, values to six decimals (empty field for an empty
    group). With ``per_run`` a leading ``run`` column is added and one row
    triple is emitted per run and period.
    """
    header = "period,group,mean_h_alpha"
    blocks = zip(result.periods, result.mean_h_alpha_low, result.mean_h_alpha_high)
    if per_run:
        header = "run," + header
        blocks = (
            (f"{r},{period}", low, high)
            for r, lows, highs in zip(result.run_indices, result.per_run_low, result.per_run_high)
            for period, low, high in zip(result.periods, lows, highs)
        )
    lines = [header]
    for lead, low, high in blocks:
        lines += [f"{lead},low,{_fmt(low)}", f"{lead},high,{_fmt(high)}",
                  f"{lead},diff,{_fmt(high - low)}"]
    return ("\n".join(lines) + "\n").encode("utf-8")
