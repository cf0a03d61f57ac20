"""Engine behavior: initialization, selection, teams, citing, determinism.

The array-based engine is cross-checked against the record-by-record
definitions in ``model`` on full simulated states.
"""

import copy
import dataclasses
import math
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
from halpha_sim.distributions import _AGING_RULES, AgingCurve, CountKind, expected_citations
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
from halpha_sim.errors import ConfigurationError, DataError
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
        aging=AgingCurve(3.0, 5.0, 2.0),
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
        aging=AgingCurve(3.0, 0.0, 2.0),
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
        {"aging": AgingCurve(3.0, 2**30 / 10 * 1.01, 2.0)},  # periods 5: 10 ages
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
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ConfigurationError) as exc:
        make_config(**overrides)
    # the error names a field the case sets, or the one its setting makes invalid
    consequence = {"paper_kind": "paper_dispersion", "citation_kind": "citation_dispersion",
                   "aging": "max_mean"}
    assert set(exc.value.fields) & {*overrides, *map(consequence.get, overrides)}


def test_config_accepts_numpy_scalars():
    as_numpy = make_config(n_agents=np.int64(20), runs=np.int64(1), alpha_share=np.float64(0.33))
    as_python = make_config(n_agents=20, runs=1, alpha_share=0.33)
    csv = [export_csv(aggregate(run_experiment(c)), per_run=True) for c in (as_numpy, as_python)]
    assert csv[0] == csv[1]


def test_every_config_field_has_exactly_one_rule():
    # the rule tables list every field once, in field order, so a new field
    # cannot skip validation
    assert list(engine._CONFIG_RULES) == [f.name for f in dataclasses.fields(SimulationConfig)]
    assert list(_AGING_RULES) == [f.name for f in dataclasses.fields(AgingCurve)]
    # and each rule rejects a value of no accepted type, naming its field
    for name in engine._CONFIG_RULES:
        with pytest.raises(ConfigurationError) as exc:
            make_config(**{name: object()})
        assert exc.value.fields == (name,)
    for name in _AGING_RULES:
        with pytest.raises(ConfigurationError) as exc:
            AgingCurve(**{"peak_period": 3.0, "max_mean": 5.0, name: object()})
        assert exc.value.fields == (name,)


def test_config_rejects_a_citation_mean_that_would_wrap_int32():
    # at 1e9 expected citations per period, 35 ages of draws exceed 2**31
    with pytest.raises(ConfigurationError, match=r"max_mean \* \(periods \+ 5\)"):
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
    curve = AgingCurve(peak, max_mean, speed)
    try:
        make_config(periods=periods, aging=curve)
    except ConfigurationError as exc:
        assert exc.fields == ("speed", "peak_period", "periods")
        return
    assert all(math.isfinite(expected_citations(a, curve)) for a in range(1, periods + 6))


def test_config_accepts_the_int32_limits():
    make_config(boost_size=2**10, aging=AgingCurve(3.0, 2**30 / 10, 2.0))
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
    assert state.initial_h.shape == state.agent_paper_counts.shape == (200,)


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
    cfg = make_config(runs=1)
    state = init_state(cfg, 0)
    frozen = state.initial_h.copy()
    for _ in range(cfg.periods):
        step_period(state, cfg)
    assert np.array_equal(state.initial_h, frozen)


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
    z = rank_normal_scores(state.initial_h)
    rng = np.random.default_rng(123)
    corrs = []
    for _ in range(200):
        scores = rho * z + math.sqrt(1 - rho * rho) * rng.standard_normal(cfg.n_agents)
        corrs.append(spearmanr(scores, state.initial_h).statistic)
    assert 0.65 <= float(np.mean(corrs)) <= 0.95


def test_diligence_selection_favors_high_initial_h():
    cfg = scenario_config("diligence", master_seed=11)
    state = init_state(cfg, 0)
    freq = np.zeros(cfg.n_agents)
    for _ in range(200):
        freq[select_collaborators(state, cfg)] += 1
    hi = state.initial_h >= np.percentile(state.initial_h, 75)
    lo = state.initial_h <= np.percentile(state.initial_h, 25)
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
        runs=1, n_agents=10, periods=30, aging=AgingCurve(3.0, 2**30 / 35, 2.0),
        boost_size=2**10, self_citation=True, master_seed=3,
    )
    state = init_state(cfg, 0)
    for _ in range(cfg.periods):
        step_period(state, cfg)
    cites = state.citations[: state.n_papers]
    assert cites.max() > 2**27 and cites.min() >= 0
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
        aging=AgingCurve(3.0, max_mean, 2.0),
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
    assert state.citations.dtype == state.alpha_author.dtype == state.current_h.dtype == np.int32
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


def test_thread_count_does_not_change_results():
    cfg = make_config(runs=6, master_seed=909)
    serial = run_experiment(cfg)
    threaded = run_experiment(cfg, max_workers=4)
    assert [r.run_index for r in threaded] == list(range(6))
    assert np.array_equal(_flatten(serial), _flatten(threaded))
    assert export_csv(aggregate(serial)) == export_csv(aggregate(threaded))


@pytest.mark.parametrize("max_workers", [0, -3, True, 1.5, "2"])
def test_run_experiment_rejects_a_bad_worker_count(max_workers):
    with pytest.raises(ConfigurationError, match="max_workers") as err:
        run_experiment(make_config(runs=2), max_workers=max_workers)
    assert err.value.fields == ("max_workers",)


def test_every_valid_worker_count_gives_the_same_results():
    cfg = make_config(runs=3, master_seed=77)
    serial = run_experiment(cfg, max_workers=None)
    for max_workers in (1, 2, np.int64(2)):
        results = run_experiment(cfg, max_workers=max_workers)
        assert np.array_equal(_flatten(serial), _flatten(results))
        assert export_csv(aggregate(serial)) == export_csv(aggregate(results))
