"""Agent-based simulator of publishing scientists and their h / h-alpha indices.

Agents start with a back catalog of papers, then collaborate, publish, and
collect citations over discrete periods. Each paper credits the co-author
with the highest h index, and the package tracks how the mean credited-paper
index (h-alpha) of agents with low versus high initial h diverges under
different collaboration and citation regimes.
"""

__version__ = "0.1.0"


def main(argv=None) -> int:
    """The ``halpha-sim`` command: ``cli.main`` in a process whose BLAS keeps one thread.

    numpy's BLAS starts its threads when numpy is imported, and the engine makes
    no BLAS call; a second thread only keeps the worker pool from forking on
    Python 3.12 and later (``engine._can_fork``). So the thread counts are set
    before the CLI imports numpy. A value set in the environment wins, and
    importing the package sets nothing: a Python caller owns its own BLAS.
    """
    import os

    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from . import cli

    return cli.main(argv)
