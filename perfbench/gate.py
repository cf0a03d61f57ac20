"""Output gate: decide whether one CLI experiment produced correct results.

An experiment fails when it breaks an invariant of its runs, when its CSV
files disagree with the runs the engine returned, when the per-run rows of a
shorter experiment with the same seed differ from its own, or when a
re-simulated run disagrees with the record-level oracle in ``model``. Each
check returns a list of problems; an empty list means the check passed.
Nothing here is timed.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

# A six-decimal CSV value is within half a unit in its last place of the
# exact mean; the extra 1e-9 absorbs summation-order differences in floats.
_TOL = 5e-7 + 1e-9
_MAX_PROBLEMS = 5


def per_run_path(out: Path) -> Path:
    """The per-run CSV the CLI writes next to ``out`` under ``--per-run``."""
    return out.with_name(out.stem + "_runs" + out.suffix)


def echo_path(out: Path) -> Path:
    """The resolved-config echo the CLI writes next to ``out``."""
    return Path(str(out) + ".config")


def check_runs(runs, config) -> list[str]:
    """Invariants of every run: 0 <= h-alpha <= h <= papers, h never falls,
    and each period's teams partition the round(share * n) publishers."""
    if runs is None:
        return ["the engine returned no runs"]
    if len(runs) != config.runs:
        return [f"{len(runs)} runs returned, {config.runs} configured"]
    n = config.n_agents
    publishers = min(n, math.floor(config.collab_share * n + 0.5))
    problems = []
    for i, run in enumerate(runs):
        if run.run_index != i:
            problems.append(f"run {i} is labelled {run.run_index}")
        if [pm.period for pm in run.periods] != list(range(1, config.periods + 1)):
            problems.append(f"run {i} does not hold periods 1..{config.periods}")
            continue
        h = np.stack([run.initial_h] + [pm.h for pm in run.periods])
        h_alpha = np.stack([pm.h_alpha for pm in run.periods])
        papers = np.stack([pm.paper_counts for pm in run.periods])
        if not ((h_alpha >= 0) & (h_alpha <= h[1:]) & (h[1:] <= papers)).all():
            problems.append(f"run {i}: 0 <= h_alpha <= h <= papers does not hold")
        if (np.diff(h, axis=0) < 0).any():
            problems.append(f"run {i}: h decreases")
        for pm in run.periods:
            members = np.sort(pm.teams[pm.teams >= 0])
            if (
                members.size != publishers
                or (members.size and (members[0] < 0 or members[-1] >= n))
                or (np.diff(members) == 0).any()
                or not (pm.teams >= 0).any(axis=1).all()
            ):
                problems.append(
                    f"run {i} period {pm.period}: teams do not partition {publishers} publishers"
                )
                break
        if len(problems) >= _MAX_PROBLEMS:
            break
    return problems


def group_means(runs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-run mean h-alpha of the agents below and above the run's lower
    median initial h, as (periods, low[R, P], high[R, P]); NaN for an empty group."""
    periods = np.array([pm.period for pm in runs[0].periods])
    low = np.full((len(runs), periods.size), np.nan)
    high = np.full((len(runs), periods.size), np.nan)
    for r, run in enumerate(runs):
        initial = np.asarray(run.initial_h)
        median = np.sort(initial)[(initial.size - 1) // 2]
        h_alpha = np.stack([pm.h_alpha for pm in run.periods])
        if (initial < median).any():
            low[r] = h_alpha[:, initial < median].mean(axis=1)
        if (initial > median).any():
            high[r] = h_alpha[:, initial > median].mean(axis=1)
    return periods, low, high


def _check_csv(name: str, data: bytes, header: str, expected: list) -> list[str]:
    """Compare CSV bytes against (leading fields, value) rows, value NaN for blank."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return [f"{name}: not UTF-8"]
    if "\r" in text or not text.endswith("\n"):
        return [f"{name}: line endings are not LF"]
    lines = text[:-1].split("\n")
    if lines[0] != header:
        return [f"{name}: header is {lines[0]!r}"]
    if len(lines) - 1 != len(expected):
        return [f"{name}: {len(lines) - 1} rows, expected {len(expected)}"]
    problems = []
    for row, (line, (lead, value)) in enumerate(zip(lines[1:], expected), start=2):
        got_lead, _, field = line.rpartition(",")
        if got_lead != lead:
            problems.append(f"{name} line {row}: {line!r} should start with {lead!r}")
        elif math.isnan(value):
            if field != "":
                problems.append(f"{name} line {row}: {field!r} should be blank")
        else:
            try:
                ok = abs(float(field) - value) <= _TOL and len(field.partition(".")[2]) == 6
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{name} line {row}: {field!r} should be {value:.7f}")
        if len(problems) >= _MAX_PROBLEMS:
            break
    return problems


def check_csvs(runs, aggregated: bytes, per_run: bytes) -> list[str]:
    """Both CSV files against group means computed here from the returned runs."""
    periods, low, high = group_means(runs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        mean_low, mean_high = np.nanmean(low, axis=0), np.nanmean(high, axis=0)
    rows = []
    for t, period in enumerate(periods):
        rows += [
            (f"{period},low", mean_low[t]),
            (f"{period},high", mean_high[t]),
            (f"{period},diff", mean_high[t] - mean_low[t]),
        ]
    problems = _check_csv("aggregated CSV", aggregated, "period,group,mean_h_alpha", rows)
    rows = []
    for r, run in enumerate(runs):
        for t, period in enumerate(periods):
            rows += [
                (f"{run.run_index},{period},low", low[r, t]),
                (f"{run.run_index},{period},high", high[r, t]),
                (f"{run.run_index},{period},diff", high[r, t] - low[r, t]),
            ]
    problems += _check_csv("per-run CSV", per_run, "run,period,group,mean_h_alpha", rows)
    return problems


def check_prefix(per_run: bytes, shorter: bytes) -> list[str]:
    """Per-run rows of a shorter experiment with the same seed must be a prefix."""
    long_lines = per_run.split(b"\n")
    short_lines = shorter.split(b"\n")[:-1]
    if len(short_lines) < 2 or long_lines[: len(short_lines)] != short_lines:
        return ["per-run rows differ from those of a shorter experiment with the same seed"]
    return []


def check_oracle(engine, model, config, runs, run_index: int, agents) -> list[str]:
    """Re-simulate one run layer by layer; its indices must match the run the
    CLI used, and the sampled agents' h and h-alpha must match ``model``."""
    state = engine.init_state(config, run_index)
    reference = runs[run_index]
    if not np.array_equal(state.current_h, reference.initial_h):
        return [f"run {run_index}: re-simulated initial h differs"]
    for pm in [None] + reference.periods:
        if pm is not None:
            got = engine.step_period(state, config)
            if not (np.array_equal(got.h, pm.h) and np.array_equal(got.h_alpha, pm.h_alpha)):
                return [f"run {run_index} period {pm.period}: re-simulated indices differ"]
        for agent in agents:
            agent = int(agent)
            pids = state.agent_papers[agent, : state.agent_paper_counts[agent]]
            cites = state.citations[pids].tolist()
            h = model.h_index(cites)
            h_alpha = model.h_alpha(
                agent, list(zip(pids.tolist(), cites, state.alpha_author[pids].tolist())), h
            )
            if (h, h_alpha) != (int(state.current_h[agent]), int(state.current_h_alpha[agent])):
                return [
                    f"run {run_index} period {state.period} agent {agent}: engine gives "
                    f"h={state.current_h[agent]} h_alpha={state.current_h_alpha[agent]}, "
                    f"model gives h={h} h_alpha={h_alpha}"
                ]
    return []
