"""Discrete-time simulation engine.

Each run starts from a freshly initialized population whose members carry a
back catalog of papers, then advances period by period: a share of agents is
selected to collaborate, teams form and publish, every live paper draws
citations, and each agent's h and h-alpha are recomputed.

State is kept in flat numpy arrays (papers and per-agent paper tables) so a
whole period is a handful of vector operations; the pure functions in
``model`` define the same quantities record by record and are used to
cross-check this implementation in the test suite.

Determinism: run ``i`` draws from a generator seeded with
(master_seed, spawn_key=i), so results are independent of execution order
and of how many runs share the experiment.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .distributions import (
    _DISPERSION,
    _KIND,
    _NB_DISPERSION,
    _NONNEGATIVE,
    AgingCurve,
    CountKind,
    _check,
    _check_fields,
    _is_integer,
    _is_real,
    draw_counts,
    expected_citations,
)
from .errors import ConfigurationError, DataError
from .model import EXTERNAL_AUTHOR

# Pre-simulation papers are one to five periods old at initialization.
INITIAL_AGE_MAX = 5

# Citation counts, h values and credited authors are int32 in the state.
COUNT_MAX = 2**31 - 1
# Upper limit on a config's expected citations per paper and on its expected
# paper table size; the other half of the int32 range is headroom for the
# tails of the count distributions, which cite_papers and init_state check.
EXPECTED_MAX = 2**30
# Upper limit on boost_size: round(h * boost_size) stays exact in int64.
BOOST_SIZE_MAX = 2**10


_COUNT = (lambda v: _is_integer(v) and v >= 1, "an integer of at least 1")
_SHARE = (lambda v: _is_real(v) and 0 <= v <= 1, "a number in [0, 1]")
_SWITCH = (lambda v: isinstance(v, bool), "a boolean")

# The (test, description) rule of each SimulationConfig field, in field order,
# which is the order they are checked in. The citation mean is AgingCurve's.
_CONFIG_RULES = {
    "runs": _COUNT,
    "n_agents": _COUNT,
    "periods": _COUNT,
    "coauthors_mean": _COUNT,
    "paper_kind": _KIND,
    "paper_mean": _NONNEGATIVE,
    "citation_kind": _KIND,
    "aging": (lambda v: isinstance(v, AgingCurve), "an AgingCurve"),
    "alpha_share": _SHARE,
    "master_seed": (lambda v: _is_integer(v) and 0 <= v < 2**64, "an integer in [0, 2**64)"),
    "paper_dispersion": _DISPERSION,
    "citation_dispersion": _DISPERSION,
    "collab_share": (lambda v: _is_real(v) and 0 < v <= 1, "a number in (0, 1]"),
    "diligence_correlation": _SHARE,
    "strategic": _SWITCH,
    "self_citation": _SWITCH,
    "boost_size": (lambda v: _is_real(v) and 0 <= v <= BOOST_SIZE_MAX, "a number in [0, 2**10]"),
    "dynamic_alpha": _SWITCH,
}


@dataclass(frozen=True)
class SimulationConfig:
    """Every parameter of one experiment (shared by all of its runs). Construction
    checks each field's type and range and raises a ConfigurationError naming it."""

    runs: int
    n_agents: int
    periods: int
    coauthors_mean: int
    paper_kind: CountKind
    paper_mean: float
    citation_kind: CountKind
    aging: AgingCurve
    alpha_share: float
    master_seed: int
    paper_dispersion: float | None = None
    citation_dispersion: float | None = None
    collab_share: float = 1.0
    diligence_correlation: float = 0.0
    strategic: bool = False
    self_citation: bool = False
    boost_size: float = 0.0
    dynamic_alpha: bool = False

    def __post_init__(self) -> None:
        _check_fields(self, _CONFIG_RULES)
        for kind, dispersion in (("paper_kind", "paper_dispersion"),
                                 ("citation_kind", "citation_dispersion")):
            if getattr(self, kind) is CountKind.NBINOMIAL:
                _check(dispersion, getattr(self, dispersion), _NB_DISPERSION)
        # Expected table size and citations per paper; the first two terms
        # keep the products from overflowing a float.
        n, periods = self.n_agents, self.periods
        if not (n <= EXPECTED_MAX and periods <= EXPECTED_MAX
                and n * (self.paper_mean + periods) <= EXPECTED_MAX):
            raise ConfigurationError(
                "n_agents * (paper_mean + periods) must be at most 2**30, "
                f"got {n} * ({self.paper_mean} + {periods})",
                "n_agents", "paper_mean", "periods",
            )
        if not self.aging.max_mean * (periods + INITIAL_AGE_MAX) <= EXPECTED_MAX:
            raise ConfigurationError(
                f"max_mean * (periods + {INITIAL_AGE_MAX}) must be at most 2**30, "
                f"got {self.aging.max_mean} * ({periods} + {INITIAL_AGE_MAX})",
                "max_mean", "periods",
            )
        # Only the powers of age / scale can overflow, and they grow with age: a
        # finite mean at the oldest age is a finite mean at every age.
        oldest = periods + INITIAL_AGE_MAX
        try:
            finite = math.isfinite(expected_citations(oldest, self.aging))
        except ArithmeticError:  # an overflowing power, or a peak density of 0
            finite = False
        if not finite:
            raise ConfigurationError(
                "speed and peak_period must give a finite citation mean at age "
                f"periods + {INITIAL_AGE_MAX}, got {self.aging.speed} and "
                f"{self.aging.peak_period} at age {oldest}",
                "speed", "peak_period", "periods",
            )
        if self.diligence_correlation > 0 and self.collab_share >= 1.0:
            warnings.warn(
                "diligence_correlation has no effect when collab_share is 1 "
                "(every agent publishes every period)",
                stacklevel=3,
            )


@dataclass
class PeriodMetrics:
    """Per-period snapshot of one run: indices per agent, plus the teams formed."""

    period: int
    h: np.ndarray  # (n_agents,)
    h_alpha: np.ndarray  # (n_agents,)
    paper_counts: np.ndarray  # (n_agents,)
    teams: np.ndarray  # (n_teams, team width), -1 padded


@dataclass
class RunResult:
    """One complete run: frozen initial h values and all period snapshots."""

    run_index: int
    initial_h: np.ndarray
    periods: list[PeriodMetrics]


@dataclass
class SimulationState:
    """Array-backed state of a single run.

    Paper rows 0..n_papers-1 are valid; ``authors`` pads short teams with -1.
    ``agent_papers[i, :agent_paper_counts[i]]`` lists agent i's paper ids, and
    its empty slots hold the id ``capacity`` of a sentinel paper: entry
    ``capacity`` of ``citations`` is -1 and of ``alpha_author`` is
    ``EXTERNAL_AUTHOR``, so a gather through the table needs no mask and an
    empty slot is never in an h-core nor credited to an agent. ``citations``,
    ``alpha_author`` and ``current_h`` are int32 (capacity + 1 entries for
    the first two); the limits in ``SimulationConfig`` and the checks on drawn
    counts keep every value below ``COUNT_MAX``.

    ``agent_papers`` is stored slot-major (Fortran order): slot j of every
    agent is one contiguous column. ``_recompute_indices`` reads the used
    width ``agent_papers[:, :agent_paper_counts.max()]``, which is then one
    contiguous block instead of a strided view, and numpy gathers
    ``citations`` and ``alpha_author`` through a contiguous index array about
    twice as fast. Indexing is the same in either order.
    """

    period: int
    rng: np.random.Generator
    n_agents: int
    n_papers: int
    citations: np.ndarray
    published_period: np.ndarray
    alpha_author: np.ndarray
    boost_anchor: np.ndarray  # max author h at publication, frozen; 0 in the back catalog
    authors: np.ndarray
    agent_papers: np.ndarray
    agent_paper_counts: np.ndarray
    initial_h: np.ndarray
    current_h: np.ndarray
    current_h_alpha: np.ndarray
    citation_means: np.ndarray  # expected citations indexed by age
    diligence_z: np.ndarray | None = None


def rank_normal_scores(values) -> np.ndarray:
    """Map values to standard-normal scores by rank (ties share the average rank)."""
    values = np.asarray(values)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ranks = np.cumsum(counts) - (counts - 1) / 2  # average 1-based rank of each distinct value
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf((r - 0.5) / values.size) for r in ranks])[inverse]


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Generator for one run, derived solely from (master_seed, run_index)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,))
    return np.random.default_rng(seq)


def _collaborator_count(config: SimulationConfig) -> int:
    return min(config.n_agents, math.floor(config.collab_share * config.n_agents + 0.5))


def _team_width(config: SimulationConfig) -> int:
    """Columns of a team row: a team never holds more than the publishers."""
    return min(config.coauthors_mean, config.n_agents)


def _teams_per_period(config: SimulationConfig) -> int:
    return -(-_collaborator_count(config) // config.coauthors_mean)


def init_state(config: SimulationConfig, run_index: int) -> SimulationState:
    """Build the period-0 population for one run.

    Each agent draws its back-catalog size from the paper distribution; each
    of those papers is solo-attributed, one to five periods old, credited to
    its agent with probability alpha_share (otherwise to an outside
    collaborator), and carries citations accumulated age by age through the
    same aging-curve draws used in live periods.
    """
    rng = run_rng(config.master_seed, run_index)
    n = config.n_agents

    max_age = config.periods + INITIAL_AGE_MAX
    means = np.zeros(max_age + 1)
    means[1:] = [expected_citations(a, config.aging) for a in range(1, max_age + 1)]

    paper_counts = draw_counts(
        config.paper_kind, config.paper_mean, rng, config.paper_dispersion, size=n
    ).astype(np.int64)
    total_initial = int(paper_counts.sum())

    owner = np.repeat(np.arange(n, dtype=np.int64), paper_counts)
    ages = rng.integers(1, INITIAL_AGE_MAX + 1, size=total_initial)
    is_own_alpha = rng.random(total_initial) < config.alpha_share

    citations = np.zeros(total_initial, dtype=np.int64)
    for a in range(1, INITIAL_AGE_MAX + 1):
        old_enough = ages >= a
        cnt = int(old_enough.sum())
        if cnt:
            citations[old_enough] += draw_counts(
                config.citation_kind, means[a], rng, config.citation_dispersion, size=cnt
            )

    capacity = total_initial + config.periods * _teams_per_period(config)
    if capacity >= COUNT_MAX:  # the sentinel's id must fit too
        raise DataError(f"{capacity} papers exceed the table limit of {COUNT_MAX - 1}")

    state = SimulationState(
        period=0,
        rng=rng,
        n_agents=n,
        n_papers=total_initial,
        citations=np.zeros(capacity + 1, dtype=np.int32),
        published_period=np.zeros(capacity, dtype=np.int64),
        alpha_author=np.full(capacity + 1, EXTERNAL_AUTHOR, dtype=np.int32),
        boost_anchor=np.zeros(capacity, dtype=np.int64),
        authors=np.full((capacity, _team_width(config)), -1, dtype=np.int64),
        agent_papers=np.full(
            (n, int(paper_counts.max(initial=0)) + config.periods), capacity, dtype=np.int64,
            order="F",
        ),
        agent_paper_counts=paper_counts.copy(),
        initial_h=np.zeros(n, dtype=np.int32),
        current_h=np.zeros(n, dtype=np.int32),
        current_h_alpha=np.zeros(n, dtype=np.int64),
        citation_means=means,
    )
    state.citations[capacity] = -1
    state.citations[:total_initial] = _checked_counts(citations)
    state.published_period[:total_initial] = -ages
    state.alpha_author[:total_initial] = np.where(is_own_alpha, owner, EXTERNAL_AUTHOR)
    state.authors[:total_initial, 0] = owner

    starts = np.concatenate(([0], np.cumsum(paper_counts)[:-1]))
    slot = np.arange(total_initial) - np.repeat(starts, paper_counts)
    state.agent_papers[owner, slot] = np.arange(total_initial)

    _recompute_indices(state)
    state.initial_h = state.current_h.copy()

    if config.diligence_correlation > 0:
        state.diligence_z = rank_normal_scores(state.initial_h)
    return state


def select_collaborators(state: SimulationState, config: SimulationConfig) -> np.ndarray:
    """Pick the agents who publish this period.

    With no diligence correlation this is a uniform subset of
    round(collab_share * n) agents. Otherwise each agent gets a latent score
    rho * z + sqrt(1 - rho^2) * eps, where z is the rank-normal score of its
    initial h and eps is fresh standard-normal noise, and the top scorers are
    selected; rho is the diligence correlation.
    """
    count = _collaborator_count(config)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if config.diligence_correlation == 0:
        return state.rng.choice(config.n_agents, size=count, replace=False)
    rho = config.diligence_correlation
    eps = state.rng.standard_normal(config.n_agents)
    scores = rho * state.diligence_z + math.sqrt(1.0 - rho * rho) * eps
    return np.argsort(-scores, kind="stable")[:count].astype(np.int64)


def form_teams(
    collaborators: np.ndarray, config: SimulationConfig, state: SimulationState
) -> np.ndarray:
    """Partition collaborators into teams; one row per team, -1 padded.

    Random mode shuffles and chunks into groups of coauthors_mean, any
    remainder forming one smaller team. Strategic mode seeds each team with
    one of the top-h collaborators (ties to the smaller id) and deals the
    shuffled rest into the open slots.
    """
    m = len(collaborators)
    co = _team_width(config)
    k = -(-m // co)
    if not config.strategic:
        padded = np.full(k * co, -1, dtype=np.int64)
        padded[:m] = state.rng.permutation(collaborators)
        return padded.reshape(k, co)
    ids = np.asarray(collaborators, dtype=np.int64)
    order = np.lexsort((ids, -state.current_h[ids]))
    seeds = ids[order[:k]]
    rest = state.rng.permutation(ids[order[k:]])
    fill = np.full(k * (co - 1), -1, dtype=np.int64)
    fill[: rest.size] = rest
    return np.concatenate([seeds[:, None], fill.reshape(k, co - 1)], axis=1)


def publish(teams: np.ndarray, state: SimulationState, config: SimulationConfig) -> None:
    """Append one zero-citation paper per team, crediting the highest-h member."""
    k = teams.shape[0]
    ids = state.n_papers + np.arange(k)
    state.published_period[ids] = state.period
    state.alpha_author[ids], state.boost_anchor[ids] = _credited_authors(teams, state.current_h)
    state.authors[ids, : teams.shape[1]] = teams
    state.n_papers += k

    valid = teams >= 0
    members = teams[valid]
    paper_of_member = np.repeat(ids, valid.sum(axis=1))
    state.agent_papers[members, state.agent_paper_counts[members]] = paper_of_member
    state.agent_paper_counts[members] += 1


def cite_papers(state: SimulationState, config: SimulationConfig) -> None:
    """Give every paper at least one period old its citations for this period.

    On top of the age-dependent draw, a paper gains one self-citation when
    some author's current h exceeds its start-of-period citations by one or
    two (if enabled). With the boost on, a paper receives
    round(boost_anchor * boost_size) additional citations once, in its first
    citation period; papers from before the simulation never see it.
    """
    p = state.n_papers
    age = state.period - state.published_period[:p]
    live = age >= 1

    gained = np.zeros(p, dtype=np.int64)
    gained[live] = draw_counts(
        config.citation_kind,
        state.citation_means[age[live]],
        state.rng,
        config.citation_dispersion,
    )

    if config.self_citation:
        lead = _member_h(state.authors[:p], state.current_h) - state.citations[:p, None]
        near_core = ((lead == 1) | (lead == 2)).any(axis=1)  # padding leads by -1 or less
        gained[live & near_core] += 1

    if config.boost_size > 0:
        first = np.flatnonzero(age == 1)
        extra = np.floor(state.boost_anchor[first] * config.boost_size + 0.5)
        gained[first] += extra.astype(np.int64)

    gained += state.citations[:p]
    state.citations[:p] = _checked_counts(gained)


def _checked_counts(counts: np.ndarray) -> np.ndarray:
    """The citation counts, or a DataError if one would not fit in int32.

    The config limits keep expected counts at or below half of ``COUNT_MAX``;
    this catches the tail of a draw (a negative binomial's is unbounded).
    """
    if counts.max(initial=0) > COUNT_MAX:
        raise DataError(
            f"a paper's citation count would exceed {COUNT_MAX}; lower the citation "
            "mean or the boost size, or raise the dispersion"
        )
    return counts


def _recompute_indices(state: SimulationState, recredit: bool = False) -> None:
    """Raise every agent's current h, re-credit papers if ``recredit``, count h-alpha.

    h is raised from ``current_h``, which must not exceed the true h: it is 0
    in ``init_state``, and citations and paper sets only grow, so h never
    falls. An agent's h rises past k exactly when more than k of its papers
    have more than k citations. ``recredit`` (``--update-alpha``) credits
    every paper to its author with the highest new h before h-alpha is
    counted. The h-core is every paper above h plus the earliest papers at
    exactly h; a row lists paper ids in increasing order, so ties go to the
    smaller id, as in ``model.h_core``. The used block of the slot-major
    ``agent_papers`` is contiguous, so both gathers through it read one block.
    """
    n = state.n_agents
    papers = state.agent_papers[:, : state.agent_paper_counts.max()]
    cit = state.citations[papers]  # empty slots hold the sentinel: -1

    h = state.current_h.copy()
    rows, sub = np.arange(n), cit
    while rows.size:
        rises = (sub > h[rows, None]).sum(axis=1) > h[rows]
        rows, sub = rows[rises], sub[rises]
        h[rows] += 1
    state.current_h = h
    if recredit:
        _reassign_alpha_authors(state)

    # at most h papers lie above h, or h would be at least h + 1
    above = cit > h[:, None]
    at_h = cit == h[:, None]
    room = h - above.sum(axis=1)
    in_core = above | (at_h & (np.cumsum(at_h, axis=1, dtype=np.int32) <= room[:, None]))
    own_alpha = state.alpha_author[papers] == np.arange(n, dtype=np.int32)[:, None]
    state.current_h_alpha = (in_core & own_alpha).sum(axis=1)


def _member_h(rows: np.ndarray, current_h: np.ndarray) -> np.ndarray:
    """Current h of each agent in rows of -1-padded agent ids; padding reads -1."""
    return np.append(current_h, -1)[rows]


def _credited_authors(rows: np.ndarray, current_h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of -1-padded agent ids (at least one member per row), the
    member with the highest current h, ties to the smaller id, and that h:
    ``model.determine_alpha_author`` on every row at once."""
    member_h = _member_h(rows, current_h)
    # higher h first, then the smaller id; padding's key is -n, below every member's
    key = member_h.astype(np.int64) * (current_h.size + 1) - rows
    winner = (np.arange(rows.shape[0]), np.argmax(key, axis=1))
    return rows[winner], member_h[winner]


def _reassign_alpha_authors(state: SimulationState) -> None:
    """Re-credit every paper to its currently highest-h author (ties to smaller id)."""
    p = state.n_papers
    state.alpha_author[:p] = _credited_authors(state.authors[:p], state.current_h)[0]


def step_period(state: SimulationState, config: SimulationConfig) -> PeriodMetrics:
    """Advance one period: select, team up, publish, cite, then one index pass
    that raises h, re-credits every paper under ``dynamic_alpha`` and counts h-alpha."""
    state.period += 1
    collaborators = select_collaborators(state, config)
    teams = form_teams(collaborators, config, state)
    publish(teams, state, config)
    cite_papers(state, config)
    _recompute_indices(state, config.dynamic_alpha)
    return PeriodMetrics(
        period=state.period,
        h=state.current_h.copy(),
        h_alpha=state.current_h_alpha.copy(),
        paper_counts=state.agent_paper_counts.copy(),
        teams=teams,
    )


def _run_one(config: SimulationConfig, run_index: int) -> RunResult:
    state = init_state(config, run_index)
    metrics = [step_period(state, config) for _ in range(config.periods)]
    return RunResult(run_index=run_index, initial_h=state.initial_h.copy(), periods=metrics)


def run_experiment(config: SimulationConfig, max_workers: int | None = None) -> list[RunResult]:
    """Execute all runs of the experiment, in run-index order.

    Runs are independent and seeded from (master_seed, run_index), so the
    result is identical whether they execute serially or on a thread pool.
    ``max_workers`` is None or an integer of at least 1; 1 and None run serially.
    """
    if max_workers is not None:
        _check("max_workers", max_workers, _COUNT)
    if max_workers is not None and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(lambda i: _run_one(config, i), range(config.runs)))
    return [_run_one(config, i) for i in range(config.runs)]
