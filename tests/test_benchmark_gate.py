"""The benchmark's gate and tracer still read what the program provides.

``perfbench/gate.py`` checks each benchmark experiment through attributes of
the runs ``run_experiment`` returns (``run_index``, ``initial_h`` and each
period's ``period``, ``h``, ``h_alpha``, ``paper_counts`` and ``teams``), of
``step_period``'s result and of the simulation state (``agent_papers``,
``agent_paper_counts``, ``citations``, ``alpha_author``, ``current_h``,
``current_h_alpha``). ``perfbench/spans.py`` wraps the layer functions by
name. A change that renames any of these turns every benchmark experiment
into a failure, so both files run here on a small CLI experiment.
"""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

import halpha_sim
from halpha_sim import cli, engine, model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
spans = _load("spans")

ARGV = ["--scenario", "boost", "--agents", "30", "--runs", "3", "--periods", "6",
        "--update-alpha", "--self-citations", "--seed", "4", "--per-run"]


@pytest.fixture
def experiment(tmp_path, monkeypatch):
    """A CLI experiment's config, the runs its engine call returned, and its output path."""
    captured = []

    def capture(config):
        captured.append(engine.run_experiment(config))
        return captured[-1]

    monkeypatch.setattr(cli, "run_experiment", capture)
    out = tmp_path / "result.csv"
    argv = [*ARGV, "--out", str(out)]
    assert cli.main(argv) == 0
    config, _ = cli.parse_config(argv)
    return config, captured[0], out


def test_gate_accepts_a_cli_experiment(experiment):
    config, runs, out = experiment
    per_run = gate.per_run_path(out).read_bytes()
    assert gate.check_runs(runs, config) == []
    assert gate.check_csvs(runs, out.read_bytes(), per_run) == []
    assert "seed = 4\n" in gate.echo_path(out).read_text(encoding="utf-8")
    for run_index in range(config.runs):
        agents = np.arange(config.n_agents)
        assert gate.check_oracle(engine, model, config, runs, run_index, agents) == []


def test_gate_rejects_a_broken_run(experiment):
    config, runs, out = experiment
    runs[1].h[4] = -1  # period 4
    assert any("h decreases" in p for p in gate.check_runs(runs, config))
    runs[0].h_alpha[3] += 1  # period 3
    per_run = gate.per_run_path(out).read_bytes()
    assert gate.check_csvs(runs, out.read_bytes(), per_run) != []


def test_tracer_finds_every_layer(tmp_path, monkeypatch):
    # spans are recorded only in this process; with one usable core the runs stay in it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    tracer = spans.Tracer(halpha_sim)
    with tracer.installed():
        tracer.experiment += 1
        assert cli.main([*ARGV, "--out", str(tmp_path / "result.csv")]) == 0
    assert tracer.absent == set()
    summary = tracer.summary(1)
    # the 3 runs are one batch: step_period once per period for all of them
    assert summary["engine.step_period.calls"] == 6
    # init_state once for the batch, then once per period of it, update-alpha too
    assert summary["engine.recompute_indices.calls"] == 1 + 6
    assert summary["engine.recompute_indices.cells"] > 0
    assert summary["engine.cite_papers.live_papers"] > 0
