"""Core bibliometric model: the h / h-core / h-alpha math on plain values.

All functions here are pure and operate on plain values, so they double as
the reference definitions that the array-based engine is checked against.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

# Alpha-author id used for pre-simulation papers whose credited author is a
# collaborator outside the simulated population.
EXTERNAL_AUTHOR = -1


def h_index(citation_counts: Iterable[int]) -> int:
    """Largest h such that at least h of the counts are >= h."""
    h = 0
    for i, c in enumerate(sorted(citation_counts, reverse=True), start=1):
        if c >= i:
            h = i
        else:
            break
    return h


def h_core(papers: Sequence[tuple[int, int]], h: int) -> set[int]:
    """The ids of the h most-cited papers among (paper id, citations) pairs.

    Ties at the core boundary go to the smaller paper id. ``h`` must equal
    the h-index of the citation counts.
    """
    if h != h_index(c for _, c in papers):
        raise ValueError(f"h={h} is inconsistent with the given citation counts")
    ordered = sorted(papers, key=lambda p: (-p[1], p[0]))
    return {pid for pid, _ in ordered[:h]}


def h_alpha(agent_id: int, papers: Sequence[tuple[int, int, int]], h: int) -> int:
    """Number of h-core papers credited to this agent.

    ``papers`` holds (paper id, citations, alpha author id) triples for the
    agent's own papers.
    """
    core = h_core([(pid, c) for pid, c, _ in papers], h)
    return sum(1 for pid, _, alpha in papers if pid in core and alpha == agent_id)


def determine_alpha_author(author_ids: Sequence[int], current_h: Mapping[int, int]) -> int:
    """The co-author with the highest h; ties go to the smallest agent id."""
    if not author_ids:
        raise ValueError("a paper must have at least one author")
    return min(author_ids, key=lambda a: (-current_h[a], a))


def self_citation(author_h: Iterable[int], citations: int) -> int:
    """The self-citation a paper gains this period: 1 when some author's
    current h exceeds its start-of-period citations by 1 or 2, else 0."""
    return int(any(h - citations in (1, 2) for h in author_h))


def boost(anchor: int, size: float) -> int:
    """The citations a paper gains once, in its first citation period:
    ``anchor * size`` rounded half up, ``anchor`` being the highest author h
    when it was published."""
    return math.floor(anchor * size + 0.5)
