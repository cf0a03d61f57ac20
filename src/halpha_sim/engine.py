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
and of how many runs share the experiment. A state holds a batch of runs
stacked as one table (see ``SimulationState``), and each run keeps its own
generator in ``state.rngs``: the layers loop over the runs only for the calls
that draw from one, and make those calls in each run's own order. Every other
step is one vector operation over the batch. After ``init_state`` the draws
depend only on the config and the generator, never on h, so a second thread
can make a run's draws ahead of the layers, in the same order and with the
same results: a ``_DrawThread`` then stands in for the run's generator.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import warnings
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from itertools import islice
from numbers import Integral
from statistics import NormalDist

import numpy as np

from .distributions import (
    _DISPERSION,
    _KIND,
    _NB_DISPERSION,
    CountKind,
    _check,
    _is_real,
    _sample_counts,
    draw_counts,
    expected_citations,
)
from .errors import ConfigurationError, ConfigurationWarning, DataError, _outside_package
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
# Live papers per citation draw: each draw's temporaries stay small, and with
# a draw thread the layers can take a period's first chunks while it draws the rest.
_CHUNK = 2**14
# Cells (agent rows x allocated width) of the largest paper table a batch of
# several stacked runs may have: the bound on what init_state stacks.
_BATCH_CELLS = 2**16


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


_COUNT = (lambda v: _is_integer(v) and v >= 1, "an integer of at least 1")
_NONNEGATIVE = (lambda v: _is_real(v) and 0 <= v < math.inf, "a finite nonnegative number")
_SHARE = (lambda v: _is_real(v) and 0 <= v <= 1, "a number in [0, 1]")
_SWITCH = (lambda v: isinstance(v, bool), "a boolean")

# Each count distribution's kind and dispersion fields.
_KIND_DISPERSIONS = (("paper_kind", "paper_dispersion"), ("citation_kind", "citation_dispersion"))


def _param(name: str, default, rule, help: str):
    """A SimulationConfig field: its ``default``, and as metadata its external
    ``name`` (the CLI flag, with dashes, the JSON key and the config echo's
    key), its (test, description) ``rule`` and its ``help`` line."""
    return field(default=default, metadata={"name": name, "rule": rule, "help": help})


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """Every parameter of one experiment (shared by all of its runs), built by
    keyword, each declared once by ``_param``: the CLI derives its flags from
    these fields. The defaults are the ``baseline`` preset; ``master_seed``
    has none. Construction checks each field's rule and raises a
    ConfigurationError naming the first one at fault, in field order: the
    CLI's flag order, with the seed last.

    A paper's expected citations per period follow the aging curve of
    ``expected_citations``: they peak at ``citation_mean`` when the paper is
    ``citation_peak`` periods old, with steepness ``citation_speed``.
    """

    runs: int = _param(
        "runs", 50,
        (lambda v: _is_integer(v) and 1 <= v <= EXPECTED_MAX, "an integer in [1, 2**30]"),
        "number of independent runs to average over")
    n_agents: int = _param("agents", 200, _COUNT, "number of simulated agents")
    periods: int = _param("periods", 20, _COUNT, "number of collaboration periods")
    coauthors_mean: int = _param("coauthors", 3, _COUNT,
                                 "team size (last team per period may be smaller)")
    paper_kind: CountKind = _param("papers_dist", CountKind.POISSON, _KIND,
                                   "distribution of initial paper counts")
    paper_mean: float = _param("papers_mean", 10.0, _NONNEGATIVE,
                               "mean of the initial paper count distribution")
    paper_dispersion: float | None = _param(
        "papers_dispersion", None, _DISPERSION,
        "dispersion of the initial paper count distribution (nbinomial only)")
    citation_kind: CountKind = _param("citations_dist", CountKind.POISSON, _KIND,
                                      "distribution of per-period citation counts")
    citation_mean: float = _param("citations_mean", 5.0, _NONNEGATIVE,
                                  "maximum expected citations per period")
    citation_peak: float = _param(
        "citations_peak", 3.0, (lambda v: _is_real(v) and 0 < v < math.inf,
                                "a finite positive number"),
        "paper age (in periods) at which expected citations peak")
    citation_speed: float = _param(
        "citations_speed", 2.0, (lambda v: _is_real(v) and 1 < v < math.inf,
                                 "a finite number above 1"),
        "steepness of the citation aging curve (must exceed 1)")
    citation_dispersion: float | None = _param(
        "citations_dispersion", None, _DISPERSION,
        "dispersion of the citation count distribution (nbinomial only)")
    alpha_share: float = _param("alpha_share", 0.33, _SHARE,
                                "share of initial papers credited to their own agent")
    boost_size: float = _param(
        "boost_size", 0.0, (lambda v: _is_real(v) and 0 <= v <= BOOST_SIZE_MAX,
                            "a number in [0, 2**10]"),
        "one-time extra citations = round(max author h at publication * size); 0 disables")
    diligence_correlation: float = _param(
        "diligence_corr", 0.0, _SHARE, "correlation between publishing propensity and initial h")
    collab_share: float = _param(
        "diligence_share", 1.0, (lambda v: _is_real(v) and 0 < v <= 1, "a number in (0, 1]"),
        "share of agents who publish each period")
    strategic: bool = _param("strategic", False, _SWITCH,
                             "seed every team with a single top-h agent")
    self_citation: bool = _param(
        "self_citations", False, _SWITCH,
        "one extra citation when an author's h exceeds a paper's citations by 1 or 2")
    dynamic_alpha: bool = _param(
        "update_alpha", False, _SWITCH,
        "re-credit every paper to its currently highest-h author each period")
    master_seed: int = _param(
        "seed", MISSING,
        (lambda v: _is_integer(v) and 0 <= v < 2**64, "an integer in [0, 2**64)"),
        "master seed (drawn from system entropy if omitted)")

    def __post_init__(self) -> None:
        for f in fields(self):
            _check(f.name, getattr(self, f.name), f.metadata["rule"])
        for kind, dispersion in _KIND_DISPERSIONS:
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
        if not self.citation_mean * (periods + INITIAL_AGE_MAX) <= EXPECTED_MAX:
            raise ConfigurationError(
                f"citation_mean * (periods + {INITIAL_AGE_MAX}) must be at most 2**30, "
                f"got {self.citation_mean} * ({periods} + {INITIAL_AGE_MAX})",
                "citation_mean", "periods",
            )
        # Only the powers of age / scale can overflow, and they grow with age: a
        # finite mean at the oldest age is a finite mean at every age.
        oldest = periods + INITIAL_AGE_MAX
        try:
            finite = math.isfinite(expected_citations(
                oldest, peak=self.citation_peak, max_mean=self.citation_mean,
                speed=self.citation_speed,
            ))
        except ArithmeticError:  # an overflowing power, or a peak density of 0
            finite = False
        if not finite:
            raise ConfigurationError(
                "citation_speed and citation_peak must give a finite citation mean at age "
                f"periods + {INITIAL_AGE_MAX}, got {self.citation_speed} and "
                f"{self.citation_peak} at age {oldest}",
                "citation_speed", "citation_peak", "periods",
            )
        if self.diligence_correlation > 0 and not _diligent(self):
            warnings.warn(ConfigurationWarning(
                "diligence_correlation has no effect when collab_share * n_agents rounds to "
                "n_agents (every agent publishes every period)",
                "diligence_correlation", "collab_share", "n_agents",
            ), stacklevel=_outside_package())
        for kind, dispersion in _KIND_DISPERSIONS:
            if getattr(self, kind) is CountKind.POISSON and getattr(self, dispersion) is not None:
                warnings.warn(ConfigurationWarning(
                    f"{dispersion} has no effect when {kind} is poisson", dispersion, kind,
                ), stacklevel=_outside_package())


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
    """One complete run as int32 columns, one row per period.

    ``h``, ``h_alpha`` and ``paper_counts`` are ``(periods + 1, n_agents)``:
    row 0 is the population ``init_state`` built and row t is period t, so
    ``initial_h`` is ``h[0]``. ``teams`` is ``(periods, teams per period, team
    width)``, -1 padded: ``teams[t - 1]`` are the teams of period t.
    ``run_experiment`` allocates every run's columns before any run starts.
    """

    run_index: int
    h: np.ndarray
    h_alpha: np.ndarray
    paper_counts: np.ndarray
    teams: np.ndarray

    @property
    def initial_h(self) -> np.ndarray:
        return self.h[0]

    @property
    def periods(self) -> list[PeriodMetrics]:
        """Periods 1..periods as views of their rows: writing to a field writes the column."""
        return [
            PeriodMetrics(t, self.h[t], self.h_alpha[t], self.paper_counts[t], self.teams[t - 1])
            for t in range(1, len(self.h))
        ]


@dataclass
class SimulationState:
    """Array-backed state of a batch of runs, one or several stacked, as
    ``init_state`` builds it.

    Agent row ``r * n + i`` is agent i of the batch's run r (n agents per
    run). Paper ids ``r * S`` to ``(r + 1) * S - 1`` are run r's segment, S
    being ``published_period.size`` over the runs: its back catalog ends at
    column ``back_width`` of the segment and starts at column
    ``first_paper[r]``, and the columns from ``back_width`` on hold its
    scheduled papers, so every run publishes a period's papers in the same
    columns. Columns 0..n_papers-1 of every segment are in use. The columns
    ahead of a shorter back catalog are padding: no author, no citation,
    ``published_period`` 0, never in a table nor cited. A run alone has no
    padding, and its paper ids are its columns. Teams, authors and credited
    authors hold agent rows, and one sentinel serves the batch.

    ``authors`` pads short teams with -1. A back-catalog paper has one
    author, its owner, in column 0; its other columns, and all of padding's, are -1.
    It is int32, to halve its memory, and what numpy gathers through is cast
    to intp first, since a gather through an int32 index is about 3x slower:
    the authors of the team papers, and column 0 alone of the back catalog;
    and the ages ``cite_papers`` and ``_citation_draw`` take from ``published_period``.
    ``agent_papers[i, :agent_paper_counts[i]]`` lists agent row i's paper ids, and
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

    ``rngs`` holds each run's generator, which the layers draw the
    collaborator choice, the team shuffle and the citation counts from.
    ``_run_block`` may put a ``_DrawThread``, which draws the same numbers
    ahead of the layers, in the place of a lone run's generator.
    """

    period: int
    rngs: list[np.random.Generator | _DrawThread]
    n_agents: int  # agent rows: runs x agents per run
    n_papers: int  # columns in use in each run's segment
    back_width: int  # columns of a segment before its first scheduled paper
    first_paper: np.ndarray  # each run's first column: its padding
    citations: np.ndarray
    published_period: np.ndarray  # int32 schedule: each paper id's period; read-only
    alpha_author: np.ndarray
    boost_anchor: np.ndarray  # max author h at publication, frozen; 0 in the back catalog
    authors: np.ndarray
    agent_papers: np.ndarray
    agent_paper_counts: np.ndarray
    current_h: np.ndarray
    current_h_alpha: np.ndarray
    citation_means: np.ndarray  # expected citations indexed by age; read-only
    diligence_z: np.ndarray | None = None  # rank-normal scores of each run's initial h

    def segments(self, array: np.ndarray) -> np.ndarray:
        """A paper array without its sentinel, one row per run's segment."""
        runs = len(self.rngs)
        return array[: self.published_period.size].reshape(runs, -1, *array.shape[1:])


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


def _diligent(config: SimulationConfig) -> bool:
    """Whether diligence picks the publishers: a correlation above 0, and not every agent."""
    return config.diligence_correlation > 0 and _collaborator_count(config) < config.n_agents


def _team_width(config: SimulationConfig) -> int:
    """Columns of a team row: a team never holds more than the publishers."""
    return min(config.coauthors_mean, config.n_agents)


def _teams_per_period(config: SimulationConfig) -> int:
    return -(-_collaborator_count(config) // _team_width(config))  # form_teams' rows


def _cited(back: int, teams: int, period: int) -> int:
    """Papers cited in ``period`` >= 1 by a run of ``back`` back-catalog papers
    and ``teams`` teams a period: the prefix of its schedule before that
    period's teams. Its last period's count decides the draw thread (``_run_block``)."""
    return back + (period - 1) * teams


def init_state(config: SimulationConfig, run_index: int, stop: int | None = None
               ) -> SimulationState:
    """Build the period-0 population of run ``run_index`` and of the runs after
    it, before ``stop``, that fit in its batch (see ``SimulationState``); with
    no ``stop``, of run ``run_index`` alone.

    Each agent draws its back-catalog size from the paper distribution; each
    of those papers is solo-attributed, one to five periods old, credited to
    its agent with probability alpha_share (otherwise to an outside
    collaborator), and carries citations accumulated age by age through the
    same aging-curve draws used in live periods.

    Every run first draws its paper counts, which fix its table width and
    back catalog. The batch takes the next run while its paper table (agent
    rows x widest table) stays within ``_BATCH_CELLS`` cells. Each run then
    makes the rest of its draws from its own generator, in the order it
    would alone, and one index pass raises every agent's h from 0 to its
    initial h. When ``_diligent``, ``diligence_z`` holds that h's rank-normal
    scores within each run.
    """
    n, periods, teams = config.n_agents, config.periods, _teams_per_period(config)
    drawn, width = [], 0  # each run's generator, paper counts and their sum; the widest table
    for i in range(run_index, run_index + 1 if stop is None else stop):
        rng = run_rng(config.master_seed, i)
        counts = draw_counts(
            config.paper_kind, config.paper_mean, rng, config.paper_dispersion, size=n
        ).astype(np.int64)
        total = int(counts.sum())
        widest = max(width, int(counts.max(initial=0)) + periods)
        if drawn and (len(drawn) + 1) * n * widest > _BATCH_CELLS:
            break  # the next call draws this run's counts again
        drawn.append((rng, counts, total))
        width = widest

    runs, back = len(drawn), max(total for _, _, total in drawn)
    segment = back + periods * teams
    capacity = runs * segment
    if capacity >= COUNT_MAX:  # the sentinel's id must fit too
        raise DataError(f"{capacity} papers exceed the table limit of {COUNT_MAX - 1}")

    max_age = periods + INITIAL_AGE_MAX
    means = np.zeros(max_age + 1)
    curve = partial(expected_citations, peak=config.citation_peak,
                    max_mean=config.citation_mean, speed=config.citation_speed)
    means[1:] = [curve(a) for a in range(1, max_age + 1)]

    state = SimulationState(
        period=0,
        rngs=[rng for rng, _, _ in drawn],
        n_agents=runs * n,
        n_papers=back,
        back_width=back,
        first_paper=np.array([back - total for _, _, total in drawn], dtype=np.int64),
        citations=np.zeros(capacity + 1, dtype=np.int32),
        published_period=np.zeros(capacity, dtype=np.int32),
        alpha_author=np.full(capacity + 1, EXTERNAL_AUTHOR, dtype=np.int32),
        boost_anchor=np.zeros(capacity, dtype=np.int64),
        authors=np.full((capacity, _team_width(config)), -1, dtype=np.int32),
        agent_papers=np.full((runs * n, width), capacity, dtype=np.int64, order="F"),
        agent_paper_counts=np.concatenate([counts for _, counts, _ in drawn]),
        current_h=np.zeros(runs * n, dtype=np.int32),
        current_h_alpha=np.zeros(runs * n, dtype=np.int64),
        citation_means=means,
    )
    state.citations[capacity] = -1
    state.segments(state.published_period)[:, back:] = np.repeat(
        np.arange(1, periods + 1, dtype=np.int32), teams)

    for r, (rng, counts, total) in enumerate(drawn):
        ages = rng.integers(1, INITIAL_AGE_MAX + 1, size=total)
        is_own_alpha = rng.random(total) < config.alpha_share
        citations = np.zeros(total, dtype=np.int64)
        for a in range(1, INITIAL_AGE_MAX + 1):
            old_enough = ages >= a
            cnt = int(old_enough.sum())
            if cnt:
                citations[old_enough] += draw_counts(
                    config.citation_kind, means[a], rng, config.citation_dispersion, size=cnt
                )

        # the run's back catalog fills the end of its segment's first back_width columns
        papers = slice(r * segment + back - total, r * segment + back)
        owner = np.repeat(np.arange(r * n, (r + 1) * n), counts)  # agent rows
        state.citations[papers] = _checked_counts(citations)
        state.published_period[papers] = -ages
        state.alpha_author[papers] = np.where(is_own_alpha, owner, EXTERNAL_AUTHOR)
        state.authors[papers, 0] = owner
        slot = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        state.agent_papers[owner, slot] = np.arange(papers.start, papers.stop)

    _recompute_indices(state)
    if _diligent(config):  # ranks of the initial h within each run
        state.diligence_z = np.concatenate(
            [rank_normal_scores(h) for h in state.current_h.reshape(runs, n)])
    state.published_period.flags.writeable = False  # both read by the draw thread
    state.citation_means.flags.writeable = False
    return state


def select_collaborators(state: SimulationState, config: SimulationConfig) -> np.ndarray:
    """Pick the agents who publish this period, run by run: the agent rows of
    each run's publishers, one run after the other.

    Unless ``_diligent``, this is a uniform subset of
    round(collab_share * n) agents. Otherwise each agent gets a latent score
    rho * z + sqrt(1 - rho^2) * eps, where z is the rank-normal score of its
    initial h and eps is fresh standard-normal noise, and the top scorers are
    selected; rho is the diligence correlation.
    """
    count = _collaborator_count(config)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    n, runs = config.n_agents, len(state.rngs)
    first_row = np.arange(0, runs * n, n)[:, None]
    if not _diligent(config):
        chosen = np.stack([rng.choice(n, size=count, replace=False) for rng in state.rngs])
        return (chosen + first_row).ravel()
    rho = config.diligence_correlation
    eps = np.stack([rng.standard_normal(n) for rng in state.rngs])
    scores = rho * state.diligence_z.reshape(runs, n) + math.sqrt(1.0 - rho * rho) * eps
    return (np.argsort(-scores, axis=1, kind="stable")[:, :count] + first_row).ravel()


def form_teams(
    collaborators: np.ndarray, config: SimulationConfig, state: SimulationState
) -> np.ndarray:
    """Partition each run's collaborators into teams; one row per team, -1
    padded, a run's teams after the previous run's.

    Random mode shuffles and chunks into groups of coauthors_mean, any
    remainder forming one smaller team. Strategic mode seeds each team with
    one of the top-h collaborators (ties to the smaller id) and deals the
    shuffled rest into the open slots.
    """
    runs = len(state.rngs)
    ids = np.asarray(collaborators, dtype=np.int64).reshape(runs, -1)
    m = ids.shape[1]
    co = _team_width(config)
    k = -(-m // co)
    if not config.strategic:
        padded = np.full((runs, k * co), -1, dtype=np.int64)
        padded[:, :m] = [rng.permutation(row) for rng, row in zip(state.rngs, ids)]
        return padded.reshape(runs * k, co)
    # higher h first, then the smaller id, as in _credited_authors; keys are unique in a row
    key = state.current_h[ids].astype(np.int64) * (state.current_h.size + 1) - ids
    ranked = np.take_along_axis(ids, np.argsort(-key, axis=1), axis=1)
    fill = np.full((runs, k * (co - 1)), -1, dtype=np.int64)
    fill[:, : m - k] = [rng.permutation(row) for rng, row in zip(state.rngs, ranked[:, k:])]
    return np.concatenate([ranked[:, :k].reshape(-1, 1), fill.reshape(runs * k, co - 1)], axis=1)


def publish(teams: np.ndarray, state: SimulationState, config: SimulationConfig) -> None:
    """Append one zero-citation paper per team, crediting the highest-h member;
    each run's teams are the same count of rows in run order, as ``form_teams``
    gives them. They are the papers ``published_period`` holds for
    ``state.period``: call it once per period, after advancing ``state.period``,
    as ``step_period`` does."""
    runs = len(state.rngs)
    k = teams.shape[0] // runs
    segment = state.published_period.size // runs
    ids = (np.arange(runs)[:, None] * segment + state.n_papers + np.arange(k)).ravel()
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

    The live papers, a prefix of each run's schedule (``_cited``), are
    drawn run by run in ``_CHUNK``-paper chunks as in one draw, so the chunk
    size changes no number. Everything else is done over the whole batch.
    The self-citation check reads every author column of the team papers but
    only column 0 of the back catalog, which holds a back-catalog paper's one author.
    """
    born, teams = state.segments(state.published_period), _teams_per_period(config)
    b = min(state.n_papers, _cited(state.back_width, teams, state.period))
    born = born[:, :b]
    gained = np.zeros(born.shape, dtype=np.int64)
    for rng, column, row, out in zip(state.rngs, state.first_paper, born, gained):
        for start in range(column, b, _CHUNK):
            chunk = row[start : start + _CHUNK]
            out[start : start + chunk.size] = draw_counts(
                config.citation_kind,
                state.citation_means[(state.period - chunk).astype(np.intp)],  # see SimulationState
                rng,
                config.citation_dispersion,
            )

    citations = state.segments(state.citations)[:, :b]
    if config.self_citation:
        back, authors = state.back_width, state.segments(state.authors)
        below = np.append(state.current_h, -1).astype(np.int32) - 1  # padding's h is -1
        owners = authors[:, :back, 0].astype(np.intp)  # see SimulationState
        gained[:, :back] += _self_cited(below[owners], citations[:, :back])
        members = below[authors[:, back:b].astype(np.intp)]
        gained[:, back:] += _self_cited(members, citations[:, back:, None]).any(axis=-1)

    if config.boost_size > 0 and state.period > 1:  # the previous period's team papers
        first = slice(state.back_width + (state.period - 2) * teams, b)
        extra = np.floor(state.segments(state.boost_anchor)[:, first] * config.boost_size + 0.5)
        gained[:, first] += extra.astype(np.int64)

    gained += citations
    citations[...] = _checked_counts(gained)


def _self_cited(below: np.ndarray, citations: np.ndarray) -> np.ndarray:
    """Whether h exceeds the citations by 1 or 2: whether ``below - citations``,
    read as uint32, is at most 1, for int32 ``below`` = h - 1 in [-2, COUNT_MAX - 1]
    and int32 ``citations`` in [0, COUNT_MAX]. A negative difference reads 2**31
    or more. Only -2**31 - 1 (h -1, COUNT_MAX citations) wraps, to 2**31 - 1: false."""
    return (below - citations).view(np.uint32) <= 1


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
    smaller id, as in ``model.h_core``. Per-row counts are kept in the
    smallest unsigned type that holds the used width (uint8 up to 255 slots),
    and none can wrap: the papers above h, the running count of ties, h and
    ``h - above`` are each at most the row's paper count.
    """
    n = state.n_agents
    width = state.agent_paper_counts.max()
    count = np.min_scalar_type(width)
    papers = state.agent_papers[:, :width]
    cit = state.citations[papers]  # empty slots hold the sentinel: -1

    h = state.current_h.copy()
    while True:  # a row that did not rise cannot rise later: its h and citations are fixed
        above = cit > h[:, None]
        total = above.sum(axis=1, dtype=count)
        rises = total > h
        if not rises.any():
            break
        h += rises
    state.current_h = h
    if recredit:
        _reassign_alpha_authors(state)

    # at most h papers lie above h, or h would be at least h + 1
    at_h = cit == h[:, None]
    room = (h - total).astype(count)
    in_core = above | (at_h & (np.cumsum(at_h, axis=1, dtype=count) <= room[:, None]))
    own_alpha = state.alpha_author[papers] == np.arange(n, dtype=np.int32)[:, None]
    state.current_h_alpha = (in_core & own_alpha).sum(axis=1, dtype=count).astype(np.int64)


def _credited_authors(rows: np.ndarray, current_h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of -1-padded agent ids (at least one member per row), the
    member with the highest current h, ties to the smaller id, and that h:
    ``model.determine_alpha_author`` on every row at once."""
    member_h = np.append(current_h, -1)[rows]  # padding reads -1
    # higher h first, then the smaller id; padding's key is -n, below every member's
    key = member_h.astype(np.int64) * (current_h.size + 1) - rows
    winner = (np.arange(rows.shape[0]), np.argmax(key, axis=1))
    return rows[winner], member_h[winner]


def _reassign_alpha_authors(state: SimulationState) -> None:
    """Re-credit every paper to its currently highest-h author (ties to smaller id).

    A back-catalog paper has one author, its owner, so only the team papers
    go through ``_credited_authors``.
    """
    back, used = state.back_width, state.n_papers
    authors, alpha = state.segments(state.authors), state.segments(state.alpha_author)
    alpha[:, :back] = authors[:, :back, 0]  # padding has no author: EXTERNAL_AUTHOR
    # cast to intp: see SimulationState
    teams = authors[:, back:used].astype(np.intp).reshape(-1, authors.shape[2])
    alpha[:, back:used] = _credited_authors(teams, state.current_h)[0].reshape(len(alpha), -1)


def step_period(state: SimulationState, config: SimulationConfig) -> PeriodMetrics:
    """Advance one period: select, team up, publish, cite, then one index pass
    that raises h, re-credits every paper under ``dynamic_alpha`` and counts h-alpha.

    The metrics hold the batch's agent rows and teams, run after run.
    """
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


class _DrawThread:
    """A run's draws, made on a second thread about one period ahead of the layers.

    Built right after ``init_state``, from what the draws of a batch of one
    read: the run's generator, ``back_width`` and the read-only
    ``published_period`` and ``citation_means``. It keeps no reference to the
    state, so ``_run_block`` can put it in ``state.rngs`` in the generator's
    place and the state is still freed when the run ends, not when the cyclic
    garbage collector happens to run. Entered around the periods of the run,
    it starts a one-worker executor; on exit it shuts that down, which cancels
    the draws not yet started and joins the thread. It answers the five
    generator calls the layers and ``draw_counts`` make (``choice``,
    ``standard_normal``, ``permutation``, ``poisson`` and
    ``negative_binomial``) with the result of the next draw it submitted.
    ``_draw`` lists those draws on the calling thread, in the
    order the layers ask for them, and the worker makes them from the run's
    generator in that order, so every number is the same: a team shuffle is
    ``ids[rng.permutation(ids.size)]``, which equals ``rng.permutation(ids)``
    for 1-D ``ids``, and the citation counts come in the chunks of ``_CHUNK``
    live papers that ``cite_papers`` asks for, the prefix ``_cited`` gives.
    Each chunk's ages come from the schedule, as ``cite_papers`` works them
    out. The schedule and ``citation_means`` are read-only, and a draw reads
    no other array. An exception in a draw is
    raised again in the layer that takes it, and a draw of another kind or size
    than the layer asks for is a RuntimeError. About one period's draws are
    submitted at the start and one more at each take, which bounds how far
    ahead the worker gets.

    The worker calls no layer function, only the generator and
    ``_sample_counts``, so the checks in ``draw_counts`` stay on the calling
    thread, inside the layer.
    """

    def __init__(self, state: SimulationState, config: SimulationConfig) -> None:
        count, teams = _collaborator_count(config), _teams_per_period(config)
        back = state.back_width
        self._draws = self._draw(config, state.rngs[0], state.citation_means,
                                 state.published_period, back, count, teams)
        self._ahead = 2 + -(-_cited(back, teams, config.periods) // _CHUNK)

    def __enter__(self) -> _DrawThread:
        # here: importing the package, and a run that draws inline, need no thread pool
        from concurrent.futures import ThreadPoolExecutor

        self._pool = ThreadPoolExecutor(1, thread_name_prefix="halpha-draws")
        submit = self._pool.submit
        self._submitted = ((kind, size, submit(draw)) for kind, size, draw in self._draws)
        self._pending = deque(islice(self._submitted, self._ahead))
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(cancel_futures=True)

    @staticmethod
    def _draw(config, rng, citation_means, schedule, back, count, teams):
        """Every draw of periods 1..periods, in the order the layers take them,
        as (kind, size, draw): ``draw()`` makes it from the generator."""
        n = config.n_agents
        shuffled = count - teams if config.strategic else count
        for period in range(1, config.periods + 1):
            if count > 0:
                if not _diligent(config):
                    yield "collaborators", count, partial(rng.choice, n, size=count, replace=False)
                else:
                    yield "noise", n, partial(rng.standard_normal, n)
            yield "shuffled", shuffled, partial(rng.permutation, shuffled)
            cited = schedule[: _cited(back, teams, period)]
            for start in range(0, cited.size, _CHUNK):
                chunk = cited[start : start + _CHUNK]
                yield "citations", chunk.size, partial(
                    _citation_draw, config, citation_means, rng, period, chunk
                )

    def _take(self, kind: str, size: int) -> np.ndarray:
        self._pending.extend(islice(self._submitted, 1))
        got, got_size, future = self._pending.popleft() if self._pending else ("nothing", 0, None)
        if got != kind or got_size != size:
            raise RuntimeError(
                f"the draw thread sent {got} of size {got_size} where {kind} of size "
                f"{size} was due"
            )
        return future.result()

    # The generator calls of the layers and of draw_counts: each returns the
    # next draw the thread made, checked against the kind and size asked for.

    def choice(self, a, size=None, replace=True) -> np.ndarray:
        return self._take("collaborators", size)

    def standard_normal(self, size=None) -> np.ndarray:
        return self._take("noise", size)

    def permutation(self, x) -> np.ndarray:
        return x[self._take("shuffled", x.size)]

    def poisson(self, lam, size=None) -> np.ndarray:
        return self._take("citations", np.size(lam))

    def negative_binomial(self, n, p, size=None) -> np.ndarray:
        return self._take("citations", np.size(p))


def _citation_draw(config, citation_means, rng, period, born) -> np.ndarray:
    """The counts of the live papers published in ``born`` for ``period``, in
    the narrowest type that holds them: a period's counts wait for the layers."""
    means = citation_means[(period - born).astype(np.intp)]  # see SimulationState
    counts = _checked_counts(_sample_counts(config.citation_kind, means, rng,
                                            config.citation_dispersion))
    return counts.astype(np.min_scalar_type(counts.max()))


def _run_block(config: SimulationConfig, columns: list[np.ndarray], first: int,
               stop: int) -> None:
    """Simulate runs ``first`` to ``stop - 1`` in batches, each run's rows
    written into the result ``columns``.

    ``init_state`` builds each batch: consecutive runs while its paper table
    stays within ``_BATCH_CELLS`` cells. A batch of one run whose last period
    cites at least ``_CHUNK`` papers makes its draws on a ``_DrawThread`` when
    the process has more than one usable core (see ``run_experiment``), which
    stands in for its generator in ``state.rngs`` for the periods of the run.
    """
    n = config.n_agents
    while first < stop:
        state = init_state(config, first, stop)
        runs = len(state.rngs)
        h, h_alpha, paper_counts, teams = (column[first : first + runs] for column in columns)
        first_row = np.arange(0, runs * n, n)[:, None, None]
        h[:, 0], h_alpha[:, 0], paper_counts[:, 0] = (a.reshape(runs, n) for a in (
            state.current_h, state.current_h_alpha, state.agent_paper_counts))
        last = _cited(state.back_width, _teams_per_period(config), config.periods)
        threaded = runs == 1 and last >= _CHUNK and _usable_cores() > 1
        with (_DrawThread(state, config) if threaded
              else contextlib.nullcontext(state.rngs[0])) as draws:
            state.rngs[0] = draws
            for t in range(1, config.periods + 1):
                pm = step_period(state, config)
                h[:, t], h_alpha[:, t], paper_counts[:, t] = (
                    a.reshape(runs, n) for a in (pm.h, pm.h_alpha, pm.paper_counts)
                )
                members = pm.teams.reshape(teams[:, t - 1].shape)
                teams[:, t - 1] = np.where(members >= 0, members - first_row, -1)  # agent ids
        del state  # freed before the next batch is built
        first += runs


def _allocate_columns(config: SimulationConfig) -> list[np.ndarray]:
    """Every run's result columns (see ``RunResult``), zeroed, in one anonymous
    shared mapping, indexed by run first.

    A worker forked after this call writes its runs' rows into the pages the
    caller reads. A mapping the system cannot provide is a MemoryError.
    """
    import mmap  # here, as the pool's imports: importing the package needs none

    rows, teams = config.periods + 1, (_teams_per_period(config), _team_width(config))
    shapes = [(config.runs, rows, config.n_agents)] * 3 + [(config.runs, config.periods, *teams)]
    size = 4 * sum(math.prod(shape) for shape in shapes)  # int32
    try:
        mapping = mmap.mmap(-1, size)
    except (OSError, OverflowError):  # ENOMEM, or a size past what mmap takes
        raise MemoryError(
            f"out of memory: the results of {config.runs} runs take {size} bytes"
        ) from None
    columns, offset = [], 0
    for shape in shapes:
        columns.append(np.frombuffer(mapping, np.int32, math.prod(shape), offset).reshape(shape))
        offset += columns[-1].nbytes
    return columns


def _run_child(config, columns, first, stop, failures) -> None:
    """A forked worker: ``_run_block`` on the columns it inherited at the fork.
    An exception, an interrupt too, goes back on ``failures`` with the block's
    first run, and nothing else: at about 200 bytes each, the queue's 64 KiB
    pipe holds some 300 until the caller reads them after its joins."""
    try:
        _run_block(config, columns, first, stop)
    except BaseException as exc:
        failures.put((first, exc))


# From Python 3.12 on, os.fork warns when the forking process has threads
# besides the caller's, as a forked child can deadlock on a lock one of them
# held. numpy's BLAS starts such a thread at import on a multi-core host.
_FORK_WARNS_ON_THREADS = sys.version_info >= (3, 12)


def _usable_cores() -> int:
    """The cores this process may run on, from its CPU affinity where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether this process can fork a worker, and do so without os.fork's warning."""
    if not hasattr(os, "fork"):
        return False
    if not _FORK_WARNS_ON_THREADS:
        return True
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # the threads cannot be counted here, so the fork might warn
        return False


def run_experiment(config: SimulationConfig) -> list[RunResult]:
    """Execute all runs of the experiment, in run-index order.

    Every run's columns (see ``RunResult``) are allocated before any run
    starts, in one anonymous shared mapping; if that allocation fails, the
    call raises MemoryError and no run starts. Runs are independent and
    seeded from (master_seed, run_index), so the result is identical for any
    number of workers. The runs go to ``workers = min(runs, cores)`` worker
    processes, cores being those of this process's CPU affinity, forked from
    this one: worker w runs the contiguous block
    ``range(w * runs // workers, (w + 1) * runs // workers)``, writes their rows
    straight into the mapping and sends back only an exception. They run in
    this process instead when that count is 1, when the OS cannot fork, and on
    Python 3.12 or later when this process has more than one thread (os.fork
    would warn). The workers are forked and joined within the call; then the
    lowest failing block's exception fails it, and a worker that died without
    one (killed by the system when out of memory, say) is a MemoryError. An
    exception here, such as a SIGINT's KeyboardInterrupt, first kills every worker.

    A block, in this process or in a pool worker, simulates its runs in
    batches (``_run_block``): ``init_state`` stacks consecutive runs into one
    table within ``_BATCH_CELLS`` cells, so a period of a batch is one set of
    numpy calls. Every row depends only on its own run's papers and
    generator, so the batches change no number.

    A batch of one run whose last period cites at least ``_CHUNK`` papers
    makes its draws on a second thread, named ``halpha-draws_0``, when the
    process has more than one usable core (``_run_block``, ``_DrawThread``);
    other batches, and every run on one core, draw inline, which is faster
    there. The thread draws about one period ahead of the index pass, with the
    same results as inline draws, and is joined before the run ends, also
    when it fails.
    """
    workers = min(config.runs, _usable_cores())
    columns = _allocate_columns(config)
    if workers == 1 or not _can_fork():
        _run_block(config, columns, 0, config.runs)
    else:
        from multiprocessing import get_context  # here, not at import: a serial call needs none
        # fork, set explicitly: a worker starts with numpy imported and the columns
        # mapped, where spawn and forkserver (3.14's Linux default) import anew.
        fork = get_context("fork")
        failures = fork.SimpleQueue()
        bounds = [w * config.runs // workers for w in range(workers + 1)]
        pool = [fork.Process(target=_run_child, args=(config, columns, first, stop, failures))
                for first, stop in zip(bounds, bounds[1:])]
        try:
            for worker in pool:
                worker.start()
            for worker in pool:
                worker.join()
            # the (first run, exception) of each failed block, until the queue is empty
            failed = [failures.get() for _ in iter(failures.empty, True)]
            if failed:
                raise min(failed)[1]
            if any(worker.exitcode for worker in pool):
                raise MemoryError("a worker process died, for example killed by the system "
                                  "when out of memory")
        finally:
            for worker in pool:  # after an interrupt, say: none outlives the call
                if worker.is_alive():
                    worker.kill()
                    worker.join()
    return [RunResult(i, *(column[i] for column in columns)) for i in range(config.runs)]
