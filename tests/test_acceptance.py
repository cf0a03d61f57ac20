"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (run pytest -s to see
them while green; failures carry the line in the assertion message).

All scenario experiments run at full scale (200 agents, 20 periods, 50 runs)
over 20 shared master seeds; invariants are tallied on the fly so run data
never has to be held across experiments.

Criterion 4 compares the diligence preset with its participation-matched
control (the same 60% publishing share with ``diligence_corr=0``): the preset
changes both who publishes and how many, and only the control isolates the
correlation. Criterion 9 checks the invariants the model has (h never falls,
each publisher gains exactly one paper per period) and re-derives h and
h-alpha from ``model`` on a re-simulated run; per-agent h-alpha dips are
legitimate (a credited paper at the h-core boundary can be overtaken while
h stays put) and are reported as a figure, each one confirmed by the oracle.
"""

import math
import os
from dataclasses import dataclass

import numpy as np
import pytest

from halpha_sim import model
from halpha_sim.analysis import aggregate, export_csv
from halpha_sim.cli import scenario_config
from halpha_sim.distributions import expected_citations
from halpha_sim.engine import init_state, run_experiment, step_period

SEEDS = list(range(20))
SCENARIOS = ("baseline", "boost", "diligence", "strategic")
# the diligence preset's publishing share without its correlation to initial h
DILIGENCE_CONTROL = "diligence_control"
EXPERIMENTS = {name: (name, {}) for name in SCENARIOS}
EXPERIMENTS[DILIGENCE_CONTROL] = ("diligence", {"diligence_corr": 0.0})


@dataclass
class Summary:
    first_diff: float
    final_diff: float
    low: np.ndarray
    high: np.ndarray
    medians: np.ndarray


@dataclass
class Violations:
    bounds: int = 0
    h_drops: int = 0
    paper_steps: int = 0
    partition: int = 0
    strategic: int = 0
    oracle: int = 0
    checked_records: int = 0
    # figures, not violations
    h_alpha_dips: int = 0
    oracle_records: int = 0
    oracle_dips: int = 0

    def total(self) -> int:
        return (
            self.bounds + self.h_drops + self.paper_steps
            + self.partition + self.strategic + self.oracle
        )


def check_invariants(runs, cfg, tally: Violations) -> None:
    expected_members = min(cfg.n_agents, math.floor(cfg.collab_share * cfg.n_agents + 0.5))
    for run in runs:
        h = np.stack([run.initial_h] + [pm.h for pm in run.periods])
        h_alpha = np.stack([pm.h_alpha for pm in run.periods])
        counts = np.stack([pm.paper_counts for pm in run.periods])
        tally.checked_records += h_alpha.size
        tally.bounds += int((h_alpha > h[1:]).sum() + (h[1:] > counts).sum())
        tally.h_drops += int((np.diff(h, axis=0) < 0).sum())
        tally.h_alpha_dips += int((np.diff(h_alpha, axis=0) < 0).sum())

        # each team member gains exactly one paper per period, everyone else none
        published = np.zeros_like(counts)
        pre_h = run.initial_h
        for t, pm in enumerate(run.periods):
            teams = pm.teams
            members = teams[teams >= 0]
            published[t, members] = 1
            ok_partition = (
                members.size == expected_members
                and np.unique(members).size == members.size
                and members.min(initial=0) >= 0
                and members.max(initial=0) < cfg.n_agents
            )
            tally.partition += 0 if ok_partition else 1
            if cfg.strategic and teams.shape[0] > 0:
                k = teams.shape[0]
                order = np.lexsort((members, -pre_h[members]))
                is_top = np.zeros(cfg.n_agents, dtype=bool)
                is_top[members[order[:k]]] = True
                safe = np.where(teams >= 0, teams, 0)
                per_team = np.where(teams >= 0, is_top[safe], False).sum(axis=1)
                tally.strategic += int((per_team != 1).sum())
            pre_h = pm.h
        tally.paper_steps += int((np.diff(counts, axis=0) != published[1:]).sum())


def _count_oracle_mismatches(state) -> int:
    """Agents whose paper table, h or h-alpha differs from the paper records.

    Each agent's papers are collected from the papers' author lists, not from
    the engine's per-agent table, and its indices are re-derived by ``model``.
    """
    authored = [[] for _ in range(state.n_agents)]
    for pid, row in enumerate(state.authors[: state.n_papers].tolist()):
        for agent in row:
            if agent >= 0:
                authored[agent].append(pid)
    mismatches = 0
    for agent, pids in enumerate(authored):
        table = state.agent_papers[agent, : state.agent_paper_counts[agent]]
        if sorted(table.tolist()) != pids:
            mismatches += 1
            continue
        triples = [(p, int(state.citations[p]), int(state.alpha_author[p])) for p in pids]
        h = model.h_index(c for _, c, _ in triples)
        h_alpha = model.h_alpha(agent, triples, h)
        if h != state.current_h[agent] or h_alpha != state.current_h_alpha[agent]:
            mismatches += 1
    return mismatches


def check_against_oracle(run, cfg, tally: Violations) -> None:
    """Re-simulate ``run`` and re-derive every agent's h and h-alpha from ``model``.

    The re-simulation must reproduce the run's indices and paper counts period
    by period, and each agent's indices must equal the record-level
    definitions on the papers it authored, so every h-alpha dip in the run is
    one that ``model`` confirms.
    """
    state = init_state(cfg, run.run_index)
    tally.oracle += _count_oracle_mismatches(state)
    tally.oracle_records += state.n_agents
    for pm in run.periods:
        before = state.current_h_alpha.copy()
        step_period(state, cfg)
        replayed = (
            np.array_equal(state.current_h, pm.h)
            and np.array_equal(state.current_h_alpha, pm.h_alpha)
            and np.array_equal(state.agent_paper_counts, pm.paper_counts)
        )
        tally.oracle += 0 if replayed else 1
        tally.oracle += _count_oracle_mismatches(state)
        tally.oracle_records += state.n_agents
        tally.oracle_dips += int((state.current_h_alpha < before).sum())


@pytest.fixture(scope="module")
def experiments():
    summaries: dict[tuple[str, int], Summary] = {}
    tally = Violations()
    for name, (preset, overrides) in EXPERIMENTS.items():
        for seed in SEEDS:
            cfg = scenario_config(preset, master_seed=seed, **overrides)
            runs = run_experiment(cfg)
            check_invariants(runs, cfg, tally)
            if seed == SEEDS[0] and name in SCENARIOS:
                check_against_oracle(runs[0], cfg, tally)
            result = aggregate(runs)
            summaries[(name, seed)] = Summary(
                first_diff=float(result.difference[0]),
                final_diff=float(result.difference[-1]),
                low=result.mean_h_alpha_low,
                high=result.mean_h_alpha_high,
                medians=result.median_initial_h,
            )
    return summaries, tally


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_baseline_median_initial_h(experiments):
    summaries, _ = experiments
    medians = np.concatenate([summaries[("baseline", s)].medians for s in SEEDS])
    overall = float(np.median(medians))
    report(1, "baseline median initial h in [6, 8]", 6.0 <= overall <= 8.0,
           f"median of per-run medians = {overall:.1f}")


def test_criterion_2_baseline_growing_gap(experiments):
    summaries, _ = experiments
    passes = 0
    for seed in SEEDS:
        s = summaries[("baseline", seed)]
        monotone = (np.diff(s.low) >= -1e-9).all() and (np.diff(s.high) >= -1e-9).all()
        if monotone and s.final_diff > s.first_diff:
            passes += 1
    report(2, "baseline gap widens with non-decreasing groups", passes >= 18,
           f"{passes}/20 seeds")


def test_criterion_3_boost_beats_baseline(experiments):
    summaries, _ = experiments
    passes = sum(
        summaries[("boost", s)].final_diff > summaries[("baseline", s)].final_diff
        for s in SEEDS
    )
    report(3, "boost final gap > baseline final gap", passes >= 18, f"{passes}/20 seeds")


def test_criterion_4_diligence_beats_participation_control(experiments):
    # The preset publishes 40% fewer papers than boost or baseline, so its
    # absolute gap sits below both; the control shares its volume and differs
    # only in diligence_corr, which isolates the mechanism the preset adds.
    summaries, _ = experiments
    passes = sum(
        summaries[("diligence", s)].final_diff > summaries[(DILIGENCE_CONTROL, s)].final_diff
        for s in SEEDS
    )
    means = ", ".join(
        f"{name} {np.mean([summaries[(name, s)].final_diff for s in SEEDS]):.2f}"
        for name in ("baseline", "boost", "diligence", DILIGENCE_CONTROL)
    )
    report(4, "diligence final gap > same-share control (diligence_corr=0) final gap",
           passes >= 16, f"{passes}/20 seeds; mean final gaps: {means}")


def test_criterion_5_strategic_gap_is_largest(experiments):
    summaries, _ = experiments
    passes = 0
    for seed in SEEDS:
        strategic = summaries[("strategic", seed)].final_diff
        others = [summaries[(sc, seed)].final_diff for sc in SCENARIOS if sc != "strategic"]
        if strategic > max(others):
            passes += 1
    report(5, "strategic final gap largest of all scenarios", passes >= 18,
           f"{passes}/20 seeds")


def test_criterion_6_h_index_brute_force_oracle():
    rng = np.random.default_rng(2718)
    mismatches = 0
    for _ in range(10_000):
        length = int(rng.integers(0, 51))
        citations = rng.integers(0, 101, size=length).tolist()
        best = 0
        for h in range(length + 1):
            if sum(1 for c in citations if c >= h) >= h:
                best = h
        if model.h_index(citations) != best:
            mismatches += 1
    report(6, "h-index matches brute force on 10^4 vectors", mismatches == 0,
           f"{mismatches} mismatches")


def test_criterion_7_aging_curve_anchor_and_unimodality():
    curve = {"peak": 3.0, "max_mean": 5.0, "speed": 2.0}
    anchor_ok = abs(expected_citations(3, **curve) - 5.0) <= 1e-12
    values = [expected_citations(a, **curve) for a in range(1, 51)]
    mode = int(np.argmax(values))
    unimodal = all(values[i] < values[i + 1] for i in range(mode)) and all(
        values[i] > values[i + 1] for i in range(mode, 49)
    )
    report(7, "aging curve anchor exact and unimodal over ages 1..50",
           anchor_ok and unimodal,
           f"peak value {expected_citations(3, **curve)!r}, argmax age {mode + 1}")


def test_criterion_8_threading_leaves_csv_bytes_identical(monkeypatch):
    cfg = scenario_config("baseline", master_seed=SEEDS[0])
    threaded = export_csv(aggregate(run_experiment(cfg)))  # a worker per usable core
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = export_csv(aggregate(run_experiment(cfg)))
    report(8, "1-worker and every-core runs give byte-identical CSV",
           serial == threaded, f"{len(serial)} bytes compared")


def test_criterion_9_invariant_suite(experiments):
    _, tally = experiments
    report(
        9,
        "bounds, h monotonicity, paper-count steps, partition, strategic, model oracle",
        tally.total() == 0,
        f"bounds={tally.bounds} h_drops={tally.h_drops} paper_steps={tally.paper_steps} "
        f"partition={tally.partition} strategic={tally.strategic} oracle={tally.oracle} "
        f"over {tally.checked_records} agent-period records; "
        f"h-alpha dips={tally.h_alpha_dips}; "
        f"oracle checked {tally.oracle_records} records of run 0, seed {SEEDS[0]} "
        f"per scenario, {tally.oracle_dips} h-alpha dips among them",
    )
