"""Engine behavior: initialization, selection, teams, citing, determinism.

The array-based engine is cross-checked against the record-by-record
definitions in ``model`` on full simulated states.
"""

import copy
import dataclasses
import gc
import math
import multiprocessing
import os
import sys
import threading
import time
import warnings
import weakref
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import rankdata, spearmanr

from halpha_sim import engine, model
from halpha_sim.analysis import aggregate, export_csv
from halpha_sim.cli import scenario_config
from halpha_sim.distributions import CountKind, expected_citations
from halpha_sim.engine import (
    COUNT_MAX,
    SimulationConfig,
    _recompute_indices,
    cite_papers,
    form_teams,
    init_state,
    publish,
    rank_normal_scores,
    run_experiment,
    select_collaborators,
    step_period,
)
from halpha_sim.errors import ConfigurationError, ConfigurationWarning, DataError
from halpha_sim.model import EXTERNAL_AUTHOR


def make_config(**overrides) -> SimulationConfig:
    defaults = dict(
        runs=2,
        n_agents=20,
        periods=5,
        coauthors_mean=3,
        paper_kind=CountKind.POISSON,
        paper_mean=5.0,
        citation_kind=CountKind.POISSON,
        citation_mean=5.0,
        citation_peak=3.0,
        citation_speed=2.0,
        alpha_share=0.33,
        master_seed=1234,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def quiet_config(**overrides) -> SimulationConfig:
    """No initial papers, no citation draws: a blank slate for surgery tests."""
    defaults = dict(
        n_agents=4,
        coauthors_mean=2,
        paper_mean=0.0,
        citation_mean=0.0,
    )
    defaults.update(overrides)
    return make_config(**defaults)


# --- configuration -----------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"runs": 0},
        {"n_agents": 0},
        {"periods": 0},
        {"coauthors_mean": 0},
        {"alpha_share": 1.2},
        {"collab_share": 0.0},
        {"collab_share": 1.1},
        {"diligence_correlation": -0.1},
        {"boost_size": -0.5},
        {"citation_kind": CountKind.NBINOMIAL},  # missing dispersion
        {"paper_kind": CountKind.NBINOMIAL},  # missing dispersion
        {"paper_mean": -1.0},
        {"master_seed": -1},
        {"master_seed": 2**64},
        {"boost_size": math.nan},
        {"paper_mean": math.nan},
        {"paper_kind": CountKind.NBINOMIAL, "paper_dispersion": math.nan},
        {"citation_kind": CountKind.NBINOMIAL, "citation_dispersion": math.nan},
        {"runs": math.nan},
        {"boost_size": math.inf},
        {"paper_mean": math.inf},
        {"paper_kind": CountKind.NBINOMIAL, "paper_dispersion": math.inf},
        {"citation_kind": CountKind.NBINOMIAL, "citation_dispersion": math.inf},
        {"n_agents": math.inf},
        # int32 limits: expected citations per paper and expected table size
        {"boost_size": 2**10 + 1},
        {"citation_mean": 2**30 / 10 * 1.01},  # periods 5: 10 ages
        {"n_agents": 2**30},
        {"paper_mean": 2**30 / 20},
        {"periods": 2**30},
        {"n_agents": 10**400},
        {"periods": 10**400},
        # types: integers are not floats or bools, kinds are CountKind members
        {"runs": 1.5},
        {"n_agents": 10.5},
        {"periods": True},
        {"master_seed": 1.5},
        {"paper_kind": "poisson"},
        {"citation_kind": "poisson", "citation_dispersion": 2.0},
        {"strategic": 1},
        {"alpha_share": "0.3"},
        # runs have the limit of agents and periods
        {"runs": 2**30 + 1},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ConfigurationError) as exc:
        make_config(**overrides)
    # the error names a field the case sets, or the one its setting makes invalid
    consequence = {"paper_kind": "paper_dispersion", "citation_kind": "citation_dispersion"}
    assert set(exc.value.fields) & {*overrides, *map(consequence.get, overrides)}


def test_config_accepts_numpy_scalars():
    as_numpy = make_config(n_agents=np.int64(20), runs=np.int64(1), alpha_share=np.float64(0.33))
    as_python = make_config(n_agents=20, runs=1, alpha_share=0.33)
    csv = [export_csv(aggregate(run_experiment(c)), per_run=True) for c in (as_numpy, as_python)]
    assert csv[0] == csv[1]


def test_every_config_field_has_exactly_one_rule():
    # every field declares one (test, description) rule in its metadata, so a
    # new field cannot skip validation
    fields = dataclasses.fields(SimulationConfig)
    rules = [f.metadata["rule"] for f in fields]
    assert all(callable(test) and isinstance(text, str) for test, text in rules)
    # and each rule rejects a value of no accepted type, naming its field
    for name in [f.name for f in fields]:
        with pytest.raises(ConfigurationError) as exc:
            make_config(**{name: object()})
        assert exc.value.fields == (name,)


@pytest.mark.parametrize("call", [
    lambda: make_config(citation_dispersion=2.0),
    lambda: scenario_config("baseline", 1, papers_dispersion=2.0),
    lambda: dataclasses.replace(make_config(paper_kind=CountKind.NBINOMIAL, paper_dispersion=2.0),
                                paper_kind=CountKind.POISSON),
], ids=["SimulationConfig", "scenario_config", "dataclasses.replace"])
def test_a_dispersion_of_poisson_counts_warns_from_the_caller(call):
    # accepted, since a JSON template may set it and no flag can unset it, but
    # the warning says it has no effect, on the line in this file that called
    with pytest.warns(UserWarning, match=r"dispersion has no effect when \w+ is poisson") as record:
        call()
    assert [w.filename for w in record] == [__file__]


def test_config_rejects_a_citation_mean_that_would_wrap_int32():
    # at 1e9 expected citations per period, 35 ages of draws exceed 2**31
    with pytest.raises(ConfigurationError, match=r"citation_mean \* \(periods \+ 5\)"):
        scenario_config("baseline", 3, agents=10, runs=1, periods=30, citations_mean=1e9)


@given(
    peak=st.floats(0.0, 1e308, exclude_min=True),
    speed=st.floats(1.0, 1e308, exclude_min=True),
    max_mean=st.floats(0.0, 1e7),
    periods=st.integers(1, 100),
)
@settings(max_examples=300)
def test_every_accepted_aging_curve_has_finite_means(peak, speed, max_mean, periods):
    # max_mean * (periods + 5) stays below 2**30, so only the curve can be rejected
    try:
        make_config(periods=periods, citation_mean=max_mean, citation_peak=peak,
                    citation_speed=speed)
    except ConfigurationError as exc:
        assert exc.fields == ("citation_speed", "citation_peak", "periods")
        return
    assert all(
        math.isfinite(expected_citations(a, peak=peak, max_mean=max_mean, speed=speed))
        for a in range(1, periods + 6)
    )


def test_config_accepts_the_int32_limits():
    make_config(boost_size=2**10, citation_mean=2**30 / 10)
    make_config(n_agents=2**30 // 10, paper_mean=5.0)


def test_config_warns_when_diligence_cannot_bind():
    with pytest.warns(UserWarning) as record:
        make_config(diligence_correlation=0.5, collab_share=1.0)
    # the warning points at the code that built the config, not the dataclass __init__
    assert [w.filename for w in record] == [__file__]


# --- initialization ----------------------------------------------------------


def test_init_baseline_has_200_agents():
    cfg = scenario_config("baseline", master_seed=3)
    state = init_state(cfg, 0)
    assert state.n_agents == 200
    assert state.current_h.shape == state.agent_paper_counts.shape == (200,)


def test_init_mean_initial_papers_near_ten():
    cfg = scenario_config("baseline", master_seed=5)
    per_agent = [init_state(cfg, i).n_papers / cfg.n_agents for i in range(50)]
    assert 9.5 <= float(np.mean(per_agent)) <= 10.5


def test_init_alpha_flag_share_near_setting():
    cfg = scenario_config("baseline", master_seed=7)
    own, total = 0, 0
    for i in range(50):
        state = init_state(cfg, i)
        own += int((state.alpha_author[: state.n_papers] != EXTERNAL_AUTHOR).sum())
        total += state.n_papers
    assert 0.30 <= own / total <= 0.36


def test_init_paper_ages_one_to_five():
    state = init_state(make_config(), 0)
    published = state.published_period[: state.n_papers]
    assert published.min() >= -5
    assert published.max() <= -1


def test_initial_h_frozen_during_run():
    # the one reader of the initial h in a run: diligence's scores, ranked once
    cfg = scenario_config("diligence", master_seed=13, periods=6)
    state = init_state(cfg, 0)
    frozen = state.diligence_z.copy()
    assert np.array_equal(frozen, rank_normal_scores(state.current_h))
    for _ in range(cfg.periods):
        step_period(state, cfg)
        assert np.array_equal(state.diligence_z, frozen)


# --- collaborator selection --------------------------------------------------


def test_select_all_when_share_is_one():
    cfg = make_config(n_agents=30)
    state = init_state(cfg, 0)
    selected = select_collaborators(state, cfg)
    assert sorted(selected.tolist()) == list(range(30))


def test_select_count_at_sixty_percent():
    cfg = scenario_config("diligence", master_seed=1)
    state = init_state(cfg, 0)
    assert len(select_collaborators(state, cfg)) == 120


def test_select_count_rounds_half_away():
    cfg = make_config(n_agents=5, collab_share=0.5)
    state = init_state(cfg, 0)
    assert len(select_collaborators(state, cfg)) == 3  # round(2.5) = 3


_POISSON_ROWS = np.random.default_rng(5).poisson(3.0, size=(6, 40))


@pytest.mark.parametrize(
    "values",
    [*_POISSON_ROWS, [7], [4, 4, 4, 4, 4], [1, 2, 2, 2, 9], [0.5, -1.25, 3.0]],
    ids=[*(f"poisson{i}" for i in range(6)), "n1", "all_equal", "tie_block", "distinct"],
)
def test_rank_normal_scores_match_scipy(values):
    values = np.asarray(values)
    scores = rank_normal_scores(values)
    expected = ndtri((rankdata(values, method="average") - 0.5) / values.size)
    assert scores.shape == values.shape
    assert np.allclose(scores, expected, rtol=4e-15, atol=1e-15)
    for v in np.unique(values):
        assert np.unique(scores[values == v]).size == 1  # equal inputs, equal scores


def test_diligence_latent_score_correlation_band():
    # the selection propensity tracks initial h at the configured strength
    cfg = scenario_config("diligence", master_seed=11)
    state = init_state(cfg, 0)
    rho = cfg.diligence_correlation
    initial_h = state.current_h  # at period 0
    z = rank_normal_scores(initial_h)
    rng = np.random.default_rng(123)
    corrs = []
    for _ in range(200):
        scores = rho * z + math.sqrt(1 - rho * rho) * rng.standard_normal(cfg.n_agents)
        corrs.append(spearmanr(scores, initial_h).statistic)
    assert 0.65 <= float(np.mean(corrs)) <= 0.95


def test_diligence_selection_favors_high_initial_h():
    cfg = scenario_config("diligence", master_seed=11)
    state = init_state(cfg, 0)
    initial_h = state.current_h  # at period 0
    freq = np.zeros(cfg.n_agents)
    for _ in range(200):
        freq[select_collaborators(state, cfg)] += 1
    hi = initial_h >= np.percentile(initial_h, 75)
    lo = initial_h <= np.percentile(initial_h, 25)
    assert freq[hi].mean() > 2 * freq[lo].mean()


# --- team formation ----------------------------------------------------------


def team_sizes(teams: np.ndarray) -> list[int]:
    return sorted((teams >= 0).sum(axis=1).tolist())


def test_form_teams_chunks_with_remainder():
    cfg = make_config(n_agents=200)
    state = init_state(cfg, 0)
    collaborators = np.arange(200)
    teams = form_teams(collaborators, cfg, state)
    assert teams.shape == (67, 3)
    sizes = team_sizes(teams)
    assert sizes == [2] + [3] * 66
    members = teams[teams >= 0]
    assert sorted(members.tolist()) == list(range(200))


def test_form_teams_single_collaborator():
    cfg = make_config()
    state = init_state(cfg, 0)
    teams = form_teams(np.array([13]), cfg, state)
    assert teams.shape == (1, 3)
    assert team_sizes(teams) == [1]
    assert teams[0, 0] == 13


def test_strategic_teams_separate_top_agents():
    cfg = quiet_config(n_agents=6, coauthors_mean=3, strategic=True)
    state = init_state(cfg, 0)
    state.current_h = np.array([9, 8, 7, 3, 2, 1])
    teams = form_teams(np.arange(6), cfg, state)
    assert teams.shape == (2, 3)
    for row in teams:
        members = set(row[row >= 0].tolist())
        assert len(members & {0, 1}) == 1
    assert sorted(teams[teams >= 0].tolist()) == list(range(6))


def test_strategic_solo_teams_when_coauthors_one():
    cfg = quiet_config(n_agents=4, coauthors_mean=1, strategic=True)
    state = init_state(cfg, 0)
    teams = form_teams(np.arange(4), cfg, state)
    assert teams.shape == (4, 1)
    assert sorted(teams[:, 0].tolist()) == list(range(4))


# --- publication -------------------------------------------------------------


def test_publish_credits_highest_h_member():
    cfg = quiet_config()
    state = init_state(cfg, 0)
    state.current_h = np.array([3, 9, 0, 0])
    publish(np.array([[0, 1]]), state, cfg)
    assert state.n_papers == 1
    assert state.alpha_author[0] == 1
    assert state.boost_anchor[0] == 9
    assert state.citations[0] == 0


def test_publish_breaks_h_ties_by_smaller_id():
    cfg = quiet_config()
    state = init_state(cfg, 0)
    state.current_h = np.array([5, 5, 0, 0])
    publish(np.array([[1, 0]]), state, cfg)
    assert state.alpha_author[0] == 0


def test_publish_solo_team_and_one_paper_per_team():
    cfg = make_config(n_agents=200)
    state = init_state(cfg, 0)
    before = state.n_papers
    teams = form_teams(np.arange(200), cfg, state)
    publish(teams, state, cfg)
    assert state.n_papers - before == 67

    cfg2 = quiet_config()
    state2 = init_state(cfg2, 0)
    publish(np.array([[2, -1]]), state2, cfg2)
    assert state2.alpha_author[0] == 2


# --- citations ---------------------------------------------------------------


def test_boost_pays_once_in_first_citation_period():
    cfg = quiet_config(boost_size=0.5)
    state = init_state(cfg, 0)
    state.current_h = np.array([11, 3, 0, 0])
    state.period += 1  # publish in period 1, as step_period does
    publish(np.array([[0, 1]]), state, cfg)
    state.period += 1
    cite_papers(state, cfg)  # age 1: round(11 * .5) = 6
    assert state.citations[0] == 6
    state.period += 1
    cite_papers(state, cfg)  # age 2: nothing further
    assert state.citations[0] == 6


def test_boost_zero_size_adds_nothing():
    cfg = quiet_config(boost_size=0.0)
    state = init_state(cfg, 0)
    state.current_h = np.array([11, 3, 0, 0])
    publish(np.array([[0, 1]]), state, cfg)
    state.period += 1
    cite_papers(state, cfg)
    assert state.citations[0] == 0


def test_self_citation_window_of_one_or_two():
    cfg = quiet_config(self_citation=True)
    state = init_state(cfg, 0)
    state.current_h = np.array([7, 9, 0, 0])
    state.period += 1  # publish in period 1, as step_period does
    publish(np.array([[0, -1], [1, -1]]), state, cfg)
    state.citations[0] = 6  # h 7 leads by 1: self-cited
    state.citations[1] = 6  # h 9 leads by 3: not self-cited
    state.period += 1
    cite_papers(state, cfg)
    assert state.citations[0] == 7
    assert state.citations[1] == 6


def test_cite_papers_raises_instead_of_wrapping():
    cfg = quiet_config(boost_size=0.5)
    state = init_state(cfg, 0)
    state.current_h = np.array([11, 3, 0, 0], dtype=np.int32)
    state.period += 1  # publish in period 1, as step_period does
    publish(np.array([[0, 1]]), state, cfg)
    state.citations[0] = COUNT_MAX - 5  # the age-1 boost of 6 would pass the int32 limit
    state.period += 1
    with pytest.raises(DataError, match="exceed"):
        cite_papers(state, cfg)
    assert state.citations[0] == COUNT_MAX - 5


def test_init_state_raises_instead_of_wrapping(monkeypatch):
    real, calls = engine.draw_counts, []

    def draw(kind, means, rng, dispersion=None, size=None):
        # the first draw gives the paper counts; every later one is citations
        calls.append(size)
        counts = real(kind, means, rng, dispersion, size)
        return counts if len(calls) == 1 else counts + 2**31

    monkeypatch.setattr(engine, "draw_counts", draw)
    with pytest.raises(DataError, match="exceed"):
        init_state(make_config(), 0)


def test_counts_at_the_citation_limit_stay_exact():
    cfg = make_config(
        runs=1, n_agents=10, periods=30, citation_mean=2**30 / 35,
        boost_size=2**10, self_citation=True, master_seed=3,
    )
    state = init_state(cfg, 0)
    for _ in range(cfg.periods):
        step_period(state, cfg)
    cites = state.citations[: state.n_papers]
    assert cites.max() > 2**27 and cites.min() >= 0
    _assert_state_matches_model(state)


@pytest.mark.parametrize(
    "n_agents, paper_mean, max_mean, narrowest",
    [
        (3, 400.0, 100.0, np.uint16),  # h rises past 255
        (1, 70000.0, 20000.0, np.uint32),  # one row wider than 65,535 slots
    ],
)
def test_indices_stay_exact_past_each_count_type(n_agents, paper_mean, max_mean, narrowest):
    # the index pass counts in the smallest type that holds the table width
    cfg = make_config(
        runs=1, n_agents=n_agents, paper_mean=paper_mean, citation_mean=max_mean
    )
    state = init_state(cfg, 0)
    for step in range(3):
        if step:
            step_period(state, cfg)
        assert np.min_scalar_type(state.agent_paper_counts.max()) == narrowest
        assert state.current_h.dtype == np.int32
        assert state.current_h_alpha.dtype == np.int64
        _assert_state_matches_model(state)


def test_new_papers_receive_no_citations_in_publication_period():
    cfg = make_config(runs=1, master_seed=88)
    state = init_state(cfg, 0)
    step_period(state, cfg)
    new = state.published_period[: state.n_papers] == 1
    assert new.any()
    assert (state.citations[: state.n_papers][new] == 0).all()


# --- periods and whole runs --------------------------------------------------


def test_step_period_counts_and_bounds():
    cfg = make_config(runs=1, periods=20)
    state = init_state(cfg, 0)
    initial_papers = state.n_papers
    metrics = [step_period(state, cfg) for _ in range(cfg.periods)]
    assert len(metrics) == 20
    teams_total = sum(pm.teams.shape[0] for pm in metrics)
    assert state.n_papers == initial_papers + teams_total
    for pm in metrics:
        assert (pm.h_alpha <= pm.h).all()
        assert (pm.h <= pm.paper_counts).all()


@pytest.mark.parametrize("overrides", [
    {"strategic": True},
    {"collab_share": 0.6},
    {"coauthors_mean": 50, "strategic": True},  # teams as wide as the 20 agents
    {"paper_mean": 0.0},
    {"collab_share": 0.01},  # round(0.2) is 0: no publisher in any period
], ids=["strategic", "share", "wide", "no_back_catalog", "no_publisher"])
def test_the_schedule_holds_the_period_each_paper_is_published_in(overrides):
    # init_state fixes the period of every paper id before any is published
    cfg = make_config(runs=1, **overrides)
    state = init_state(cfg, 0)
    schedule = state.published_period
    assert schedule.dtype == np.int32
    assert (schedule[: state.n_papers] < 0).all()
    back, teams = state.n_papers, engine._teams_per_period(cfg)
    assert (np.diff(schedule[back:]) >= 0).all()
    for period in range(1, cfg.periods + 1):
        first = state.n_papers
        step_period(state, cfg)
        assert (schedule[first : state.n_papers] == period).all()
        # so the papers cited next period, those published before it, lead the schedule
        cited = engine._cited(back, teams, period + 1)
        assert cited == np.count_nonzero(schedule[: state.n_papers] < period + 1)
    assert state.n_papers == schedule.size  # every scheduled paper was published
    # the draw thread reads both while the layers run: no one may write them
    for shared in (schedule, state.citation_means):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1


def test_h_never_decreases():
    # h is monotone because citations only accumulate; h_alpha is NOT, since a
    # core-boundary paper can be displaced by a faster-growing one (see
    # test_model.test_h_alpha_can_decrease_when_core_boundary_shifts).
    cfg = make_config(runs=1, periods=12, master_seed=4321)
    state = init_state(cfg, 0)
    previous_h = state.current_h.copy()
    for _ in range(cfg.periods):
        pm = step_period(state, cfg)
        assert (pm.h >= previous_h).all()
        previous_h = pm.h


def test_dynamic_alpha_recredits_solo_initial_papers():
    cfg = make_config(runs=1, alpha_share=0.0, dynamic_alpha=True, periods=1)
    state = init_state(cfg, 0)
    assert (state.alpha_author[: state.n_papers] == EXTERNAL_AUTHOR).all()
    step_period(state, cfg)
    owners = state.authors[: state.n_papers, 0]
    solo = (state.authors[: state.n_papers, 1:] < 0).all(axis=1)
    assert (state.alpha_author[: state.n_papers][solo] == owners[solo]).all()


def _assert_state_matches_model(state):
    for agent in range(state.n_agents):
        pids = state.agent_papers[agent, : state.agent_paper_counts[agent]]
        cites = state.citations[pids].tolist()
        triples = list(zip(pids.tolist(), cites, state.alpha_author[pids].tolist()))
        h = model.h_index(cites)
        assert state.current_h[agent] == h
        assert state.current_h_alpha[agent] == model.h_alpha(agent, triples, h)


def _members(row) -> list[int]:
    return [a for a in row.tolist() if a >= 0]


def _assert_credit_matches_model(state, first_new: int, h_before, dynamic_alpha: bool):
    # a new paper credits determine_alpha_author at the h its team had when it
    # published; under dynamic_alpha that credit is replaced in the same period
    for pid in range(first_new, state.n_papers):
        alpha = model.determine_alpha_author(_members(state.authors[pid]), h_before)
        assert state.boost_anchor[pid] == h_before[alpha]
        if not dynamic_alpha:
            assert state.alpha_author[pid] == alpha
    if dynamic_alpha:
        h = state.current_h.tolist()
        for pid in range(state.n_papers):
            assert state.alpha_author[pid] == model.determine_alpha_author(
                _members(state.authors[pid]), h
            )


def _assert_run_matches_model(cfg):
    state = init_state(cfg, 0)
    _assert_state_matches_model(state)
    for _ in range(cfg.periods):
        first_new, h_before = state.n_papers, state.current_h.tolist()
        step_period(state, cfg)
        _assert_state_matches_model(state)
        _assert_credit_matches_model(state, first_new, h_before, cfg.dynamic_alpha)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"strategic": True},
        {"dynamic_alpha": True},
        {"self_citation": True, "boost_size": 0.5},
        {"collab_share": 0.6, "diligence_correlation": 0.8},
        {
            "citation_kind": CountKind.NBINOMIAL,
            "citation_dispersion": 2.0,
            "paper_kind": CountKind.NBINOMIAL,
            "paper_dispersion": 3.0,
        },
        # no publishers: round(0.01 * 15) is 0, so every period forms no team
        {"collab_share": 0.01},
        {"collab_share": 0.01, "strategic": True},
    ],
)
def test_engine_indices_match_model(overrides):
    _assert_run_matches_model(
        make_config(runs=1, n_agents=15, periods=6, master_seed=777, **overrides)
    )


count_kinds = st.sampled_from([(CountKind.POISSON, None), (CountKind.NBINOMIAL, 1.5)])


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(
    n_agents=st.integers(1, 25),
    periods=st.integers(1, 8),
    coauthors=st.integers(1, 4),
    collab_share=st.floats(0.0, 1.0, exclude_min=True),
    paper_mean=st.floats(0.0, 8.0),
    max_mean=st.floats(0.0, 6.0),
    alpha_share=st.floats(0.0, 1.0),
    strategic=st.booleans(),
    dynamic_alpha=st.booleans(),
    self_citation=st.booleans(),
    boost_size=st.sampled_from([0.0, 0.4, 1.5]),
    papers=count_kinds,
    citations=count_kinds,
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_indices_match_model_on_random_configs(
    n_agents, periods, coauthors, collab_share, paper_mean, max_mean, alpha_share,
    strategic, dynamic_alpha, self_citation, boost_size, papers, citations, seed,
):
    cfg = make_config(
        runs=1,
        n_agents=n_agents,
        periods=periods,
        coauthors_mean=coauthors,
        collab_share=collab_share,
        paper_kind=papers[0],
        paper_dispersion=papers[1],
        paper_mean=paper_mean,
        citation_kind=citations[0],
        citation_dispersion=citations[1],
        citation_mean=max_mean,
        alpha_share=alpha_share,
        strategic=strategic,
        dynamic_alpha=dynamic_alpha,
        self_citation=self_citation,
        boost_size=boost_size,
        master_seed=seed,
    )
    _assert_run_matches_model(cfg)


def test_state_routes_empty_slots_to_a_sentinel_paper():
    state = init_state(make_config(master_seed=8), 0)
    capacity = state.published_period.size
    int32 = (state.citations, state.alpha_author, state.current_h, state.authors)
    assert all(a.dtype == np.int32 for a in int32)
    assert state.citations.size == state.alpha_author.size == capacity + 1
    assert state.citations[capacity] == -1
    assert state.alpha_author[capacity] == EXTERNAL_AUTHOR
    slot = np.arange(state.agent_papers.shape[1])
    empty = slot >= state.agent_paper_counts[:, None]
    assert empty.any() and (state.agent_papers[empty] == capacity).all()
    assert (state.agent_papers[~empty] < state.n_papers).all()


def test_recompute_indices_resolves_ties_at_h_by_paper_id():
    cfg = quiet_config(coauthors_mean=1)
    state = init_state(cfg, 0)
    # paper ids 0..7 go to agents 0, 2, 3, 0, 2, 0, 0, 0; agent 1 has none
    for teams in ([[0], [2], [3]], [[0], [2]], [[0]], [[0]], [[0]]):
        publish(np.array(teams), state, cfg)
    state.citations[:8] = [5, 0, 1, 3, 0, 3, 3, 1]
    # agent 0 holds 5, 3, 3, 3, 1 in paper-id order: h = 3, and the core takes
    # the first two of the three papers at 3. Paper 3 is not its own, so only
    # papers 0 and 5 count; papers 6 and 7 are its own but outside the core.
    state.alpha_author[3] = EXTERNAL_AUTHOR
    _recompute_indices(state)
    assert state.current_h.tolist() == [3, 0, 0, 1]
    assert state.current_h_alpha.tolist() == [2, 0, 0, 1]
    _assert_state_matches_model(state)


def test_recompute_indices_from_zero_matches_incremental_path():
    cfg = make_config(runs=1, n_agents=40, periods=12, master_seed=31)
    state = init_state(cfg, 0)
    for _ in range(8):
        step_period(state, cfg)
    fresh = copy.copy(state)
    fresh.current_h = np.zeros_like(state.current_h)
    _recompute_indices(fresh)
    assert state.current_h.max() >= 3
    assert np.array_equal(fresh.current_h, state.current_h)
    assert np.array_equal(fresh.current_h_alpha, state.current_h_alpha)


def test_used_paper_block_is_contiguous_and_layout_free():
    """The kernel reads ``agent_papers[:, :max count]``: one contiguous block in
    the slot-major table, a strided view in a row-major one. Only the speed of
    its gathers depends on that; a row-major copy gives the same indices."""
    cfg = make_config(runs=1, n_agents=40, periods=12, master_seed=31, dynamic_alpha=True)
    state = init_state(cfg, 0)

    def used(s):
        return s.agent_papers[:, : s.agent_paper_counts.max()]

    assert used(state).flags.f_contiguous
    for _ in range(8):
        step_period(state, cfg)
        assert used(state).flags.f_contiguous
    row_major = copy.deepcopy(state)
    row_major.agent_papers = np.ascontiguousarray(state.agent_papers)
    assert not used(row_major).flags.f_contiguous and not used(row_major).flags.c_contiguous
    for s in (state, row_major):
        s.current_h = np.zeros_like(s.current_h)
        _recompute_indices(s, recredit=True)
    assert state.current_h.max() >= 3
    assert np.array_equal(row_major.current_h, state.current_h)
    assert np.array_equal(row_major.current_h_alpha, state.current_h_alpha)
    assert np.array_equal(row_major.alpha_author, state.alpha_author)


def test_team_partition_every_period():
    cfg = make_config(runs=1, n_agents=50, periods=8, master_seed=31)
    state = init_state(cfg, 0)
    for _ in range(cfg.periods):
        pm = step_period(state, cfg)
        members = pm.teams[pm.teams >= 0]
        assert len(members) == 50
        assert len(np.unique(members)) == 50


def test_strategic_top_seeds_never_share_a_team():
    cfg = make_config(runs=1, n_agents=30, periods=8, master_seed=13, strategic=True)
    state = init_state(cfg, 0)
    pre_h = state.current_h.copy()
    for _ in range(cfg.periods):
        pm = step_period(state, cfg)
        members = pm.teams[pm.teams >= 0]
        k = pm.teams.shape[0]
        order = np.lexsort((members, -pre_h[members]))
        top = set(members[order[:k]].tolist())
        for row in pm.teams:
            team = set(row[row >= 0].tolist())
            assert len(team & top) == 1
        pre_h = pm.h.copy()


# --- determinism -------------------------------------------------------------


def _flatten(results):
    parts = []
    for run in results:
        parts.append(run.initial_h)
        for pm in run.periods:
            parts.extend([pm.h, pm.h_alpha, pm.paper_counts])
    return np.concatenate(parts)


def test_same_seed_reproduces_exactly():
    cfg = make_config(runs=3, master_seed=2024)
    assert np.array_equal(_flatten(run_experiment(cfg)), _flatten(run_experiment(cfg)))


def test_first_run_independent_of_run_count():
    one = make_config(runs=1, master_seed=555)
    four = make_config(runs=4, master_seed=555)
    first_of_one = run_experiment(one)[0]
    first_of_four = run_experiment(four)[0]
    assert np.array_equal(_flatten([first_of_one]), _flatten([first_of_four]))


def test_thread_count_does_not_change_results(monkeypatch):
    cfg = make_config(runs=6, master_seed=909)
    threaded = run_experiment(cfg)
    _cores(monkeypatch, 1)
    serial = run_experiment(cfg)
    assert [r.run_index for r in threaded] == list(range(6))
    assert np.array_equal(_flatten(serial), _flatten(threaded))
    assert export_csv(aggregate(serial)) == export_csv(aggregate(threaded))


def test_every_valid_worker_count_gives_the_same_results(monkeypatch):
    cfg = make_config(runs=3, master_seed=77)
    _cores(monkeypatch, 1)
    serial = run_experiment(cfg)
    for cores in (1, 2, 3):
        _cores(monkeypatch, cores)
        results = run_experiment(cfg)
        assert np.array_equal(_flatten(serial), _flatten(results))
        assert export_csv(aggregate(serial)) == export_csv(aggregate(results))


class _PoolSizes(list):
    """The worker count of each pool; ``returned`` holds what each worker's target returned."""

    def __init__(self):
        super().__init__()
        self.returned = []


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each pool run_experiment forks; its workers run here.

    The fork context's Process runs its target in this process when started,
    so the cap is checked by counting the workers rather than by forking
    them. A call's first worker runs the block that starts at run 0.
    """
    sizes = _PoolSizes()

    class RecordingProcess:
        def __init__(self, target, args):
            if args[2] == 0:  # (config, columns, first, stop, failures)
                sizes.append(0)
            sizes[-1] += 1
            self._run, self.exitcode = lambda: target(*args), None

        def start(self):
            sizes.returned.append(self._run())
            self.exitcode = 0

        def join(self):
            pass

        def is_alive(self):
            return False

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", RecordingProcess)
    return sizes


@pytest.mark.parametrize(("runs", "cores"), [(3, 64), (3, None), (50, None), (1, None)])
def test_no_more_workers_than_runs_or_cores(monkeypatch, pool_sizes, runs, cores):
    # cores None: this process's own CPU affinity
    monkeypatch.setattr(engine, "_can_fork", lambda: True)  # nothing forks: see pool_sizes
    if cores is not None:
        _cores(monkeypatch, cores)
    results = run_experiment(make_config(runs=runs, periods=2))
    assert [r.run_index for r in results] == list(range(runs))
    workers = min(runs, len(os.sched_getaffinity(0)))
    assert pool_sizes == ([workers] if workers > 1 else [])


def test_without_cpu_affinity_the_cpu_count_bounds_the_pool(monkeypatch, pool_sizes):
    monkeypatch.setattr(engine, "_can_fork", lambda: True)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS and Windows
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    cfg = make_config(runs=3, periods=2)
    assert len(run_experiment(cfg)) == 3
    assert pool_sizes == []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert len(run_experiment(cfg)) == 3
    assert pool_sizes == [2]


def test_runs_stay_in_process_where_the_fork_would_warn(monkeypatch, pool_sizes):
    # From Python 3.12 on, os.fork warns when this process has another thread;
    # under this suite's warning filter that warning would fail every pooled run.
    monkeypatch.setattr(engine, "_FORK_WARNS_ON_THREADS", False)
    assert engine._can_fork() == hasattr(os, "fork")
    monkeypatch.setattr(engine, "_FORK_WARNS_ON_THREADS", True)
    _cores(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not engine._can_fork()
        results = run_experiment(make_config(runs=3, periods=2))
    finally:
        release.set()
        thread.join()
    assert [r.run_index for r in results] == [0, 1, 2]
    assert pool_sizes == []


def test_period_rows_are_views_of_the_int32_columns(monkeypatch):
    cfg = make_config(runs=2, periods=4, strategic=True)
    _cores(monkeypatch, 1)
    for run in run_experiment(cfg):
        for name in ("h", "h_alpha", "paper_counts"):
            column = getattr(run, name)
            assert column.dtype == np.int32
            assert column.shape == (cfg.periods + 1, cfg.n_agents)
        assert run.teams.dtype == np.int32
        assert run.teams.shape == (cfg.periods, engine._teams_per_period(cfg), cfg.coauthors_mean)
        assert np.shares_memory(run.initial_h, run.h[0])
        assert [pm.period for pm in run.periods] == list(range(1, cfg.periods + 1))
        for i, pm in enumerate(run.periods):
            assert np.array_equal(pm.h, run.h[i + 1])
            pm.h[0], pm.h_alpha[0], pm.paper_counts[0], pm.teams[0, 0] = -5, -6, -7, -8
            assert (run.h[i + 1, 0], run.h_alpha[i + 1, 0], run.paper_counts[i + 1, 0],
                    run.teams[i, 0, 0]) == (-5, -6, -7, -8)


@pytest.mark.parametrize("cores", [2, 3])
def test_uneven_blocks_of_runs_give_the_serial_results(monkeypatch, cores):
    # 7 runs: blocks of 3 and 4, or of 2, 2 and 3, each written by its worker
    cfg = make_config(runs=7, master_seed=303, strategic=True)
    _cores(monkeypatch, 1)
    serial = run_experiment(cfg)
    _cores(monkeypatch, cores)
    pooled = run_experiment(cfg)
    assert [r.run_index for r in pooled] == list(range(7))
    assert np.array_equal(_flatten(pooled), _flatten(serial))
    assert all(np.array_equal(a.teams, b.teams) for a, b in zip(pooled, serial))
    assert export_csv(aggregate(pooled), True) == export_csv(aggregate(serial), True)


def test_pool_tasks_send_nothing_back(monkeypatch, pool_sizes):
    # each worker runs one block of runs into the shared columns and returns None
    monkeypatch.setattr(engine, "_can_fork", lambda: True)  # nothing forks: see pool_sizes
    _cores(monkeypatch, 2)
    cfg = make_config(runs=5, periods=3)
    results = run_experiment(cfg)
    assert pool_sizes == [2]
    assert pool_sizes.returned == [None, None]
    _cores(monkeypatch, 1)
    assert np.array_equal(_flatten(results), _flatten(run_experiment(cfg)))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
def test_of_two_failing_blocks_the_first_blocks_exception_is_raised(monkeypatch):
    # block 1 fails at once and block 0 later, so block 1's exception is sent first
    if not engine._can_fork():
        pytest.skip("this process cannot fork a pool without os.fork's warning")

    def failing(config, run_index, stop=None):
        if run_index == 0:
            time.sleep(0.2)
        raise DataError(f"block {run_index} failed")

    monkeypatch.setattr(engine, "init_state", failing)
    _cores(monkeypatch, 2)
    with pytest.raises(DataError, match="^block 0 failed$"):
        run_experiment(make_config(runs=2, periods=2))
    assert multiprocessing.active_children() == []  # every worker joined


# --- batches of runs ----------------------------------------------------------


@pytest.fixture
def batches(monkeypatch):
    """The table width of each run of every batch that init_state builds, as
    each run has it alone."""
    widths, build = [], engine.init_state

    def recording(config, run_index, stop=None):
        state = build(config, run_index, stop)
        runs = range(run_index, run_index + len(state.rngs))
        widths.append([build(config, i).agent_papers.shape[1] for i in runs])
        return state

    monkeypatch.setattr(engine, "init_state", recording)
    return widths


# back catalogs of different sizes, so the runs of a batch have different table widths
UNEVEN = dict(n_agents=30, periods=6, paper_kind=CountKind.NBINOMIAL, paper_mean=8.0,
              paper_dispersion=0.5)


@pytest.mark.parametrize("overrides", [
    {},
    {"strategic": True},
    {"collab_share": 0.6, "diligence_correlation": 0.8},
    {"dynamic_alpha": True, "self_citation": True, "boost_size": 0.5,
     "citation_kind": CountKind.NBINOMIAL, "citation_dispersion": 2.0},
], ids=["random", "strategic", "diligence", "update_alpha"])
def test_a_run_in_a_batch_has_the_rows_it_has_alone(monkeypatch, batches, overrides):
    cfg = make_config(runs=5, master_seed=77, **UNEVEN, **overrides)
    _cores(monkeypatch, 1)
    results = run_experiment(cfg)
    assert [len(batch) for batch in batches] == [5]
    alone = [init_state(cfg, i) for i in range(cfg.runs)]
    assert len({s.n_papers for s in alone}) > 1
    assert len({s.agent_papers.shape[1] for s in alone}) > 1
    for run, state in zip(results, alone):
        columns = (run.h, run.h_alpha, run.paper_counts)
        assert all(np.array_equal(c[0], a) for c, a in zip(
            columns, (state.current_h, state.current_h_alpha, state.agent_paper_counts)))
        for t in range(1, cfg.periods + 1):
            pm = step_period(state, cfg)
            assert all(np.array_equal(c[t], a) for c, a in zip(
                columns, (pm.h, pm.h_alpha, pm.paper_counts)))
            assert np.array_equal(run.teams[t - 1], pm.teams)


def test_the_batch_bound_sizes_batches_and_changes_no_number(monkeypatch, batches):
    # a batch takes the next run while its table stays within _BATCH_CELLS
    # cells (agent rows x widest table), and no further
    cfg = make_config(runs=7, master_seed=78, strategic=True, **UNEVEN)
    _cores(monkeypatch, 1)
    reference = None
    for bound in (1, 4 * cfg.n_agents * 40, engine._BATCH_CELLS):
        monkeypatch.setattr(engine, "_BATCH_CELLS", bound)
        batches.clear()
        results = run_experiment(cfg)
        if reference is None:
            reference = results
        assert np.array_equal(_flatten(results), _flatten(reference))
        assert all(np.array_equal(a.teams, b.teams) for a, b in zip(results, reference))
        assert sum(len(batch) for batch in batches) == cfg.runs
        for batch, following in zip(batches, batches[1:] + [None]):
            assert len(batch) == 1 or len(batch) * cfg.n_agents * max(batch) <= bound
            if following is not None:
                assert (len(batch) + 1) * cfg.n_agents * max(batch + following[:1]) > bound
    assert len(batches) < cfg.runs  # the default bound stacks runs


def test_the_batch_bound_counts_agent_rows_as_well_as_papers(monkeypatch, batches):
    # no back catalog and hardly a publisher: few papers, but each run's table
    # alone has more cells than the bound, so no two runs are stacked
    cfg = make_config(runs=3, n_agents=engine._BATCH_CELLS // 4 + 1, periods=4,
                      paper_mean=0.0, collab_share=0.001)
    _cores(monkeypatch, 1)
    run_experiment(cfg)
    assert [len(batch) for batch in batches] == [1, 1, 1]


def test_a_batch_is_built_as_its_runs_are_alone():
    # five runs of uneven back catalogs built as one batch: each run's rows and
    # papers are those it has alone, behind padding up to the longest catalog
    cfg = make_config(runs=5, master_seed=79, collab_share=0.6, diligence_correlation=0.8,
                      **UNEVEN)
    batch, n = init_state(cfg, 0, cfg.runs), cfg.n_agents
    alone = [init_state(cfg, i) for i in range(cfg.runs)]
    assert len(batch.rngs) == cfg.runs
    assert len({s.n_papers for s in alone}) > 1
    segment = batch.published_period.size // cfg.runs
    for r, state in enumerate(alone):
        rows = slice(r * n, (r + 1) * n)
        for name in ("current_h", "current_h_alpha", "agent_paper_counts", "diligence_z"):
            assert np.array_equal(getattr(batch, name)[rows], getattr(state, name))
        for i in range(n):
            own = state.agent_papers[i, : state.agent_paper_counts[i]]
            ours = batch.agent_papers[r * n + i, : batch.agent_paper_counts[r * n + i]]
            assert np.array_equal(batch.citations[ours], state.citations[own])
            assert np.array_equal(batch.published_period[ours], state.published_period[own])
            credited = batch.alpha_author[ours]
            assert np.array_equal(np.where(credited >= 0, credited - r * n, credited),
                                  state.alpha_author[own])
        assert np.array_equal(batch.segments(batch.published_period)[r, batch.back_width :],
                              state.published_period[state.n_papers :])
        padding = np.arange(r * segment, r * segment + batch.first_paper[r])
        assert padding.size == batch.back_width - state.n_papers
        assert (batch.authors[padding] == -1).all()
        assert (batch.alpha_author[padding] == EXTERNAL_AUTHOR).all()
        assert (batch.citations[padding] == 0).all()
        assert (batch.published_period[padding] == 0).all()
        assert not np.isin(padding, batch.agent_papers).any()
    assert (batch.first_paper > 0).any()


def _gains_match_the_model(monkeypatch, cfg):
    """Every draw zero, so a period's gain is the model's self-citation plus
    its boost, paper by paper, over a padded batch; leads of 0 to 5 are forced
    where they fit, on back-catalog papers and on team papers if there are
    any. Returns the state after period 3 and the gain of each cited paper."""
    state = init_state(cfg, 0, cfg.runs)
    assert len(state.rngs) == cfg.runs and (state.first_paper > 0).any()
    for _ in range(2):
        step_period(state, cfg)
    monkeypatch.setattr(engine, "draw_counts", lambda kind, means, *args, **kwargs: np.zeros(
        np.size(means), dtype=np.int64))
    state.period += 1  # period 3, as step_period does up to cite_papers
    publish(form_teams(select_collaborators(state, cfg), cfg, state), state, cfg)

    teams, segment = engine._teams_per_period(cfg), state.published_period.size // cfg.runs
    cited = engine._cited(state.back_width, teams, state.period)
    h, forced = state.current_h.tolist(), set()
    for r in range(cfg.runs):
        for pid in range(r * segment + state.first_paper[r], r * segment + cited):
            lead, top = pid % 6, max(h[a] for a in _members(state.authors[pid]))
            if top >= lead:
                state.citations[pid] = top - lead
                forced.add((lead, pid % segment < state.back_width))
    halves = (True, False) if teams else (True,)
    assert forced == {(lead, back) for lead in range(6) for back in halves}
    before = state.citations.copy()
    cite_papers(state, cfg)

    gains, padding = [], 0
    for pid in range(state.published_period.size):
        gain = int(state.citations[pid]) - int(before[pid])
        members = _members(state.authors[pid])
        if pid % segment >= cited:  # this period's papers are cited from the next
            assert gain == 0
            continue
        padding += not members
        expected = model.self_citation([h[a] for a in members], int(before[pid]))
        if state.published_period[pid] == state.period - 1:
            expected += model.boost(int(state.boost_anchor[pid]), cfg.boost_size)
        assert gain == expected, pid
        gains.append(gain)
    assert state.citations[-1] == -1  # the sentinel
    assert padding > 0
    assert 1 in gains  # self-citations paid
    return state, gains


def test_a_batch_gains_the_self_citations_and_boost_of_the_model(monkeypatch):
    # 17 publishers in teams of 3
    cfg = make_config(runs=5, master_seed=80, self_citation=True, boost_size=0.7,
                      collab_share=0.55, **UNEVEN)
    state, gains = _gains_match_the_model(monkeypatch, cfg)
    assert max(gains) > 1  # boosts paid
    assert (state.segments(state.authors)[:, state.back_width :, -1] == -1).any()  # a short team


@pytest.mark.parametrize("overrides", [
    {"coauthors_mean": 1, "collab_share": 0.55},
    {"collab_share": 0.01},
], ids=["one_coauthor", "zero_teams"])
def test_both_halves_of_the_self_citation_check_match_the_model(monkeypatch, overrides):
    # cite_papers checks the back catalog's column 0 and every column of the
    # team papers. One coauthor: both halves have one author column. No
    # publishers: the team half is empty, and every cited paper is back catalog.
    cfg = make_config(runs=5, master_seed=81, self_citation=True, boost_size=0.7,
                      **UNEVEN | overrides)
    state, gains = _gains_match_the_model(monkeypatch, cfg)
    teams = engine._teams_per_period(cfg)
    if cfg.coauthors_mean == 1:
        assert state.authors.shape[1] == 1 and teams > 0 and max(gains) > 1
    else:
        assert teams == 0 and state.n_papers == state.back_width


# --- the draw thread ----------------------------------------------------------


@pytest.fixture
def draw_threads(monkeypatch):
    """The _DrawThread of every run that draws on one."""
    entered, enter = [], engine._DrawThread.__enter__

    def recording_enter(self):
        entered.append(self)
        return enter(self)

    monkeypatch.setattr(engine._DrawThread, "__enter__", recording_enter)
    return entered


def _cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_runs_in_this_process_on_two_cores_draw_on_a_thread_that_is_joined(
    monkeypatch, draw_threads
):
    cfg = make_config(runs=3, master_seed=41, strategic=True)
    _cores(monkeypatch, 1)
    inline = run_experiment(cfg)
    assert draw_threads == []
    _cores(monkeypatch, 2)
    monkeypatch.setattr(engine, "_can_fork", lambda: False)  # the runs stay in this process
    monkeypatch.setattr(engine, "_BATCH_CELLS", 1)  # every run is a batch of one
    # tiny chunks and thread switches every few bytecodes: the hand-over is
    # stressed, and a draw taken out of order would change the results
    monkeypatch.setattr(engine, "_CHUNK", 3)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_experiment(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert len(draw_threads) == 3
    assert np.array_equal(_flatten(threaded), _flatten(inline))
    for a, b in zip(threaded, inline):
        assert all(np.array_equal(p.teams, q.teams) for p, q in zip(a.periods, b.periods))


def test_a_threaded_run_leaves_its_state_to_no_cycle(monkeypatch, draw_threads):
    # the draw thread stands in state.rngs but holds no reference to the
    # state: no cycle forms, and the state dies with the run, with no collection
    states, real = [], engine.init_state

    def recording(*args):
        state = real(*args)
        states.append(weakref.ref(state))
        return state

    monkeypatch.setattr(engine, "init_state", recording)
    monkeypatch.setattr(engine, "_CHUNK", 7)  # a run this small takes the thread
    _cores(monkeypatch, 2)
    gc.disable()
    try:
        run_experiment(make_config(runs=1, periods=4))
        assert len(draw_threads) == 1
        assert [ref() for ref in states] == [None]
    finally:
        gc.enable()


def test_the_draw_thread_is_joined_when_the_run_fails(monkeypatch, draw_threads):
    # many chunks per period, so the thread is still drawing, or waiting to hand
    # over a draw, when the run stops in its second index pass
    monkeypatch.setattr(engine, "_CHUNK", 4)
    real, passes = engine._recompute_indices, []

    def failing(state, recredit=False):
        passes.append(state.period)
        if len(passes) == 2:
            raise DataError("stopped in period 1")
        real(state, recredit)

    monkeypatch.setattr(engine, "_recompute_indices", failing)
    _cores(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(DataError, match="stopped in period 1"):
        run_experiment(make_config(runs=1, periods=8))
    assert threading.active_count() == before
    assert len(draw_threads) == 1


def test_the_draw_thread_calls_no_layer_function(monkeypatch, draw_threads):
    # a tracer wraps the layer functions and keeps one stack of open calls per
    # thread: every layer call stays on the calling thread, and cite_papers
    # gives every live paper its count through draw_counts on both paths
    layers = ("step_period", "select_collaborators", "form_teams", "publish", "cite_papers",
              "draw_counts", "_recompute_indices", "_reassign_alpha_authors")
    calls, open_calls = [], []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            open_calls.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_calls.pop()
            caller = open_calls[-1] if open_calls else None
            calls.append((name, threading.current_thread().name, caller, np.size(result)))
            return result

        return wrapped

    for name in layers:
        monkeypatch.setattr(engine, name, recording(name, getattr(engine, name)))
    monkeypatch.setattr(engine, "_CHUNK", 7)
    cfg = make_config(runs=1, periods=6, dynamic_alpha=True, self_citation=True,
                      citation_kind=CountKind.NBINOMIAL, citation_dispersion=2.0)

    def drawn(cores):
        _cores(monkeypatch, cores)
        calls.clear()
        results = run_experiment(cfg)
        assert {thread for _, thread, _, _ in calls} == {"MainThread"}
        cited = [n for name, _, caller, n in calls
                 if name == "draw_counts" and caller == "cite_papers"]
        return _flatten(results), sum(cited), len(cited)

    (one, live_one, calls_one), (two, live_two, calls_two) = drawn(1), drawn(2)
    assert len(draw_threads) == 1
    assert np.array_equal(one, two)
    assert live_two == live_one > 0
    assert calls_two == calls_one > cfg.periods  # in chunks of 7 papers on both paths


def test_the_draw_thread_stays_about_one_period_ahead(monkeypatch, draw_threads):
    # the counts the thread has drawn and the layers not yet taken are held in
    # memory: at each take they are at most one period's chunks and two more
    made, takes, gaps = [], [], []
    sample, draw, cite, index_pass = (engine._sample_counts, engine.draw_counts,
                                      engine.cite_papers, engine._recompute_indices)

    def sampling(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            made.append(None)
        return sample(*args, **kwargs)

    def citing(state, config):
        takes.append(0)
        cite(state, config)

    def drawing(*args, **kwargs):
        if takes:  # from cite_papers: init_state's draws come before its first call
            takes[-1] += 1
            gaps.append(len(made) - sum(takes))
        return draw(*args, **kwargs)

    def slow_pass(state, recredit=False):  # gives the thread time to draw ahead
        time.sleep(0.005)
        index_pass(state, recredit)

    for name, fn in [("_sample_counts", sampling), ("cite_papers", citing),
                     ("draw_counts", drawing), ("_recompute_indices", slow_pass)]:
        monkeypatch.setattr(engine, name, fn)
    monkeypatch.setattr(engine, "_CHUNK", 7)
    _cores(monkeypatch, 2)
    run_experiment(make_config(runs=1, periods=6))
    assert len(draw_threads) == 1
    assert len(made) == sum(takes) > len(takes) == 6  # several chunks per period
    assert max(gaps) <= max(takes) + 2


@pytest.mark.parametrize("cfg", [
    make_config(runs=2, n_agents=30, periods=6),
    make_config(runs=2, n_agents=30, periods=6, citation_kind=CountKind.NBINOMIAL,
                citation_dispersion=1.5, self_citation=True, boost_size=0.5),
    make_config(runs=2, n_agents=30, periods=6, strategic=True, dynamic_alpha=True),
], ids=["poisson", "nbinomial", "strategic"])
def test_the_chunk_size_does_not_change_a_run(monkeypatch, draw_threads, cfg):
    # every path draws its live papers' counts in chunks of _CHUNK; a chunk
    # draws one paper after the other, as one draw over all of them would
    _cores(monkeypatch, 1)

    def run(chunk):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        results = run_experiment(cfg)
        teams = [pm.teams for run in results for pm in run.periods]
        return _flatten(results), np.concatenate([t.ravel() for t in teams])

    default = run(engine._CHUNK)
    for chunk in (1, 3):
        assert all(np.array_equal(a, b) for a, b in zip(run(chunk), default))
    assert draw_threads == []  # in this process, with no draw thread


@st.composite
def _small_configs(draw) -> SimulationConfig:
    """A small config that mixes the mechanisms whose draws _DrawThread._draw lists."""
    share = draw(st.sampled_from([0.1, 0.5, 1.0]))  # 0.1 of at most 4 agents forms no team
    overrides = dict(
        runs=draw(st.integers(1, 3)), n_agents=draw(st.integers(1, 12)),
        periods=draw(st.integers(1, 4)), coauthors_mean=draw(st.integers(1, 4)),
        paper_mean=draw(st.sampled_from([0.0, 2.0, 6.0])), collab_share=share,
        # where the share rounds to every agent (1.0, or 0.5 of one agent) the
        # correlation has no effect: both paths must draw uniformly
        diligence_correlation=draw(st.sampled_from([0.0, 0.8])),
        strategic=draw(st.booleans()), self_citation=draw(st.booleans()),
        dynamic_alpha=draw(st.booleans()), boost_size=draw(st.sampled_from([0.0, 0.5])),
    )
    for kind, dispersion in (("paper_kind", "paper_dispersion"),
                             ("citation_kind", "citation_dispersion")):
        if draw(st.booleans()):
            overrides[kind] = CountKind.NBINOMIAL
            overrides[dispersion] = draw(st.sampled_from([0.5, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)  # that correlation warns
        return make_config(**overrides)


@settings(max_examples=30, deadline=None)
@given(cfg=_small_configs(), chunk=st.sampled_from([1, 2, 3, 7]))
def test_runs_on_the_draw_thread_write_what_inline_runs_write(cfg, chunk):
    # _DrawThread._draw restates the order in which the layers draw: for any mix
    # of mechanisms, a run that draws on the thread writes the same columns
    with pytest.MonkeyPatch.context() as mp:
        _cores(mp, 1)
        inline = run_experiment(cfg)
        entered, enter = [], engine._DrawThread.__enter__

        def recording_enter(self):
            entered.append(self)
            return enter(self)

        mp.setattr(engine._DrawThread, "__enter__", recording_enter)
        mp.setattr(engine, "_can_fork", lambda: False)  # the runs stay in this process
        mp.setattr(engine, "_BATCH_CELLS", 1)  # every run is a batch of one
        mp.setattr(engine, "_CHUNK", chunk)
        _cores(mp, 2)
        threaded = run_experiment(cfg)
    for a, b in zip(threaded, inline, strict=True):
        for column in ("h", "h_alpha", "paper_counts", "teams"):
            assert np.array_equal(getattr(a, column), getattr(b, column)), column
    if chunk == 1 and engine._teams_per_period(cfg) > 0 and cfg.periods > 1:
        assert len(entered) == cfg.runs  # each run's last period cites a paper


@pytest.mark.parametrize("helper, due", [
    ("_collaborator_count", "collaborators"),  # the thread draws one collaborator too many
    # period 1 cites the back catalog alone; in period 2 the thread cites one paper too many
    ("_teams_per_period", "citations"),
])
def test_a_draw_the_layer_did_not_ask_for_is_a_runtime_error(monkeypatch, helper, due):
    cfg = make_config(runs=1, periods=3, collab_share=0.5)
    state = init_state(cfg, 0)
    right = getattr(engine, helper)(cfg)
    monkeypatch.setattr(engine, helper, lambda config: right + 1)
    draws = engine._DrawThread(state, cfg)
    monkeypatch.undo()
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"sent {due} of size .* was due"), draws:
        state.rngs[0] = draws
        for _ in range(cfg.periods):
            step_period(state, cfg)
    assert threading.active_count() == before


def _last_cited(cfg) -> int:
    """The papers cited in the last period of run 0 of ``cfg``."""
    state = init_state(cfg, 0)
    return engine._cited(state.back_width, engine._teams_per_period(cfg), cfg.periods)


@pytest.mark.parametrize(("cores", "offset", "threaded"), [
    (2, 0, True), (2, 1, False), (1, 0, False), (1, -50, False),
], ids=["two_cores_at_a_chunk", "two_cores_below", "one_core_at", "one_core_above"])
def test_a_run_in_this_process_draws_on_the_thread_where_it_pays(
    monkeypatch, draw_threads, cores, offset, threaded
):
    # one rule: more than one usable core, and at least _CHUNK papers cited in
    # the last period; _CHUNK is set `offset` papers above that period's count
    cfg = make_config(runs=1, periods=4, master_seed=61)
    _cores(monkeypatch, 1)
    inline = _flatten(run_experiment(cfg))
    monkeypatch.setattr(engine, "_CHUNK", _last_cited(cfg) + offset)
    _cores(monkeypatch, cores)
    assert np.array_equal(_flatten(run_experiment(cfg)), inline)
    assert len(draw_threads) == threaded


@pytest.mark.parametrize(("n_agents", "periods", "threaded"), [
    (200, 20, False),  # the CLI's default scale: about 0.2 chunks
    (2000, 10, True),  # about 1.6 chunks
])
def test_the_default_scale_draws_inline_and_a_larger_run_on_the_thread(
    monkeypatch, draw_threads, n_agents, periods, threaded
):
    cfg = make_config(runs=1, n_agents=n_agents, periods=periods, paper_mean=10.0)
    assert (_last_cited(cfg) >= engine._CHUNK) == threaded
    _cores(monkeypatch, 2)
    run_experiment(cfg)
    assert len(draw_threads) == threaded


@pytest.mark.parametrize(("offset", "threaded"), [(0, 2), (1, 0)], ids=["at_a_chunk", "below"])
def test_pool_workers_draw_on_the_thread_by_the_same_rule(
    monkeypatch, pool_sizes, draw_threads, offset, threaded
):
    # the rule does not ask where the run executes; with no back catalog both
    # runs cite the same papers, 3 periods of 7 teams in the last one
    monkeypatch.setattr(engine, "_can_fork", lambda: True)  # nothing forks: see pool_sizes
    cfg = make_config(runs=2, periods=4, paper_mean=0.0, master_seed=62)
    _cores(monkeypatch, 1)
    inline = _flatten(run_experiment(cfg))
    assert _last_cited(cfg) == 21
    monkeypatch.setattr(engine, "_CHUNK", 21 + offset)
    _cores(monkeypatch, 2)
    assert np.array_equal(_flatten(run_experiment(cfg)), inline)
    assert pool_sizes == [2]
    assert len(draw_threads) == threaded


def test_only_a_batch_of_one_draws_on_the_thread(monkeypatch, batches, draw_threads):
    # with no back catalog each run cites 21 papers in its last period, one
    # chunk: runs that fit the bound share a batch and draw inline, and a
    # batch of one draws on the thread on two cores
    cfg = make_config(runs=3, periods=4, paper_mean=0.0, master_seed=62)
    _cores(monkeypatch, 1)
    inline = _flatten(run_experiment(cfg))
    assert [len(batch) for batch in batches] == [3]
    monkeypatch.setattr(engine, "_CHUNK", 21)
    monkeypatch.setattr(engine, "_can_fork", lambda: False)  # the runs stay in this process
    for cells, sizes, threads in ((engine._BATCH_CELLS, [3], 0), (1, [1, 1, 1], 3)):
        monkeypatch.setattr(engine, "_BATCH_CELLS", cells)
        for cores in (1, 2):
            _cores(monkeypatch, cores)
            batches.clear()
            draw_threads.clear()
            assert np.array_equal(_flatten(run_experiment(cfg)), inline)
            assert [len(batch) for batch in batches] == sizes
            assert len(draw_threads) == (threads if cores == 2 else 0)


def test_pool_workers_draw_inline(monkeypatch, pool_sizes, draw_threads):
    monkeypatch.setattr(engine, "_can_fork", lambda: True)  # nothing forks: see pool_sizes
    _cores(monkeypatch, 2)
    assert len(run_experiment(make_config(runs=2, periods=2))) == 2
    assert pool_sizes == [2]
    assert draw_threads == []
