"""Agent-based simulator of publishing scientists and their h / h-alpha indices.

Agents start with a back catalog of papers, then collaborate, publish, and
collect citations over discrete periods. Each paper credits the co-author
with the highest h index, and the package tracks how the mean credited-paper
index (h-alpha) of agents with low versus high initial h diverges under
different collaboration and citation regimes.
"""

__version__ = "0.1.0"
