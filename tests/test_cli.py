"""Preset expansion, flag handling, exit codes, and output files."""

import contextlib
import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import halpha_sim
from halpha_sim import engine
from halpha_sim.cli import (
    _DISTS,
    DIST,
    FLOAT,
    INT,
    PARAMETERS,
    PRESETS,
    SWITCH,
    build_parser,
    config_echo_path,
    main,
    parse_config,
    per_run_path,
    run_and_report,
    scenario_config,
)
from halpha_sim.distributions import CountKind
from halpha_sim.engine import SimulationConfig
from halpha_sim.errors import ConfigurationError

FAST = ["--agents", "20", "--runs", "2", "--periods", "3", "--seed", "7"]


def test_baseline_preset_values():
    cfg = scenario_config("baseline", master_seed=1)
    assert cfg.runs == 50
    assert cfg.n_agents == 200
    assert cfg.periods == 20
    assert cfg.coauthors_mean == 3
    assert cfg.paper_kind is CountKind.POISSON
    assert cfg.paper_mean == 10.0
    assert cfg.paper_dispersion is None and cfg.citation_dispersion is None
    assert cfg.citation_kind is CountKind.POISSON
    assert cfg.citation_mean == 5.0
    assert cfg.citation_peak == 3.0
    assert cfg.citation_speed == 2.0
    assert cfg.alpha_share == 0.33
    assert cfg.collab_share == 1.0
    assert cfg.boost_size == 0.0
    assert not cfg.strategic and not cfg.self_citation and not cfg.dynamic_alpha


def test_the_config_defaults_are_the_baseline_preset():
    for seed in (0, 1, 2**64 - 1):
        assert SimulationConfig(master_seed=seed) == scenario_config("baseline", seed)


def test_every_config_field_but_the_seed_is_a_parameter_in_field_order():
    # a new field with a default cannot miss the CLI: its flag comes from the field
    fields = [f.name for f in dataclasses.fields(SimulationConfig)]
    assert [p.field for p in PARAMETERS] + ["master_seed"] == fields


def test_variant_presets_set_their_parameters():
    assert scenario_config("boost", master_seed=1).boost_size == 0.5
    diligence = scenario_config("diligence", master_seed=1)
    assert diligence.diligence_correlation == 0.8
    assert diligence.collab_share == 0.6
    assert scenario_config("strategic", master_seed=1).strategic is True


def test_preset_expansion_is_pure():
    presets = deepcopy(PRESETS)
    assert scenario_config("boost", master_seed=5, runs=3) == scenario_config(
        "boost", master_seed=5, runs=3
    )
    assert scenario_config("boost", master_seed=5).runs == 50
    assert PRESETS == presets


def test_scenario_config_rejects_unknown():
    with pytest.raises(ConfigurationError):
        scenario_config("turbo", master_seed=1)
    with pytest.raises(ConfigurationError):
        scenario_config("baseline", master_seed=1, warp_drive=9)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--scenario", "--runs", "--agents", "--periods", "--coauthors",
                 "--papers-dist", "--papers-mean", "--papers-dispersion",
                 "--citations-dist", "--citations-mean", "--citations-peak",
                 "--citations-speed", "--alpha-share", "--boost-size",
                 "--diligence-corr", "--diligence-share", "--strategic",
                 "--self-citations", "--update-alpha", "--seed", "--out", "--per-run"):
        assert flag in out


def test_missing_out_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "baseline", "--seed", "1"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--frobnicate", "--out", "x.csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha-share", "1.5"],
        ["--citations-speed", "0.5"],
        ["--runs", "0"],
        ["--diligence-share", "0"],
        ["--citations-dist", "nbinomial"],  # no dispersion given
        ["--citations-mean", "nan"],
        ["--boost-size", "inf"],
        ["--seed", str(2**64 + 1)],  # would alias seed 1 if wrapped to 64 bits
        ["--seed", "-1"],
        # citation counts are int32: these would wrap or overflow a draw
        ["--citations-mean", "1e9", "--agents", "10", "--periods", "30", "--runs", "1"],
        ["--citations-mean", "1e300"],
        ["--boost-size", "1e300"],
        # below the negative binomial's dispersion floor numpy rejects the draw
        ["--papers-dispersion", "1e-300", "--papers-dist", "nbinomial",
         "--agents", "10", "--runs", "1", "--periods", "3"],
        ["--citations-dispersion", "1e-300", "--citations-dist", "nbinomial",
         "--agents", "10", "--runs", "1", "--periods", "3"],
        # runs are at most 2**30, as agents and periods are; past 2**63 - 1 the
        # list of the pool's tasks could not even be built
        ["--runs", "9223372036854775808", "--agents", "2", "--periods", "1"],
        ["--citations-dispersion", "-3"],  # with poisson counts too
    ],
)
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), "--seed", "1", *flags])
    assert exc.value.code == 2
    # the message names the flag at fault, not the engine field behind it
    flag = {"--citations-dist": "--citations-dispersion"}.get(flags[0], flags[0])
    message = capsys.readouterr().err.split("error:", 1)[1]
    assert message.lstrip().startswith(flag)
    assert not re.search(r"\b(collab_share|master_seed|citation_mean|citation_dispersion)\b",
                         message)
    assert not out.exists()  # nothing ran, so no count was written


def test_of_several_bad_values_the_first_in_field_order_is_named(tmp_path, capsys):
    # periods comes before the aging curve's fields in SimulationConfig
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "x.csv"), "--seed", "1",
              "--periods", "0", "--citations-speed", "0.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "halpha-sim: error: --periods must be an integer of at least 1, got 0"
    )


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--" + p.name.replace("_", "-") for p in PARAMETERS
                                  if p.flag is FLOAT])
def test_float_flags_reject_non_finite_values(tmp_path, capsys, flag, value):
    # flags parse as plain floats; the config's rules reject these and name the flag
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "x.csv"), "--seed", "1", f"{flag}={value}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.split("error:", 1)[1].lstrip().startswith(f"{flag} ")


@pytest.mark.parametrize(("flag", "value"), [("--diligence-corr", "-1e-3"),
                                           ("--citations-mean", "-inf")])
def test_a_negative_number_in_its_own_argument_meets_the_rule(tmp_path, capsys, flag, value):
    # argparse alone takes -1e-3 and -inf for options ("expected one argument")
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), "--seed", "1", flag, value])
    assert exc.value.code == 2
    message = capsys.readouterr().err.split("error:", 1)[1].strip()
    assert message.startswith(f"{flag} must be ")
    assert message.endswith(f", got {float(value)}")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["papers", "citations"])
def test_a_dispersion_error_offers_only_what_a_flag_can_give(tmp_path, capsys, kind):
    # a flag cannot give None, the unset dispersion, so the error does not offer it
    flag = f"--{kind}-dispersion"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "x.csv"), "--seed", "1",
              f"--{kind}-dist", "nbinomial", flag, "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"halpha-sim: error: {flag} must be a finite number of at least 1e-12, got 0.0"
    )


@pytest.mark.parametrize(
    "curve",
    [
        ["--citations-speed", "400"],  # (1 + x**speed) ** 2 overflows
        ["--citations-speed", "1e300"],
        ["--citations-peak", "1e-300"],  # age / scale overflows a power
        ["--citations-peak", "1e308", "--citations-speed", "1.0000001"],  # scale inf: f(peak) 0
        ["--citations-peak", "5e-324"],  # age / scale is inf: the means are nan, no exception
    ],
)
def test_an_overflowing_aging_curve_is_a_usage_error(tmp_path, capsys, curve):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(out), "--seed", "1", "--agents", "10", "--periods", "3", "--runs", "1",
              *curve])
    assert exc.value.code == 2
    message = capsys.readouterr().err.split("error:", 1)[1]
    assert message.lstrip().startswith("--citations-speed and --citations-peak must ")
    assert not out.exists()


@pytest.mark.parametrize("scenario", [[], ["--strategic", "--update-alpha", "--self-citations"]])
def test_team_width_is_capped_at_the_population(tmp_path, capsys, scenario):
    # a team never holds more than the 10 agents, so any larger --coauthors
    # is the same experiment; 10**9 columns would ask for hundreds of GB
    flags = ["--agents", "10", "--seed", "3", "--per-run", *scenario]
    outputs = []
    for coauthors in ("10", "1000000000"):
        out = tmp_path / f"c{coauthors}.csv"
        assert main([*flags, "--coauthors", coauthors, "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), per_run_path(out).read_bytes()))
    assert outputs[0] == outputs[1]


def test_a_count_past_int32_in_a_draw_is_a_runtime_error(tmp_path, capsys):
    # within the config limits, but the negative binomial tail passes 2**31 - 1
    out = tmp_path / "x.csv"
    flags = ["--agents", "20", "--runs", "1", "--periods", "5", "--citations-dist", "nbinomial",
             "--citations-dispersion", "0.01", "--citations-mean", "1e8"]
    assert main(["--out", str(out), "--seed", "1", *flags]) == 1
    assert "error: a paper's citation count would exceed 2147483647" in capsys.readouterr().err
    assert not out.exists()


def test_a_count_past_int32_in_a_worker_is_a_runtime_error(tmp_path, capsys):
    # as above, over three runs: the DataError is raised in a worker process
    out = tmp_path / "x.csv"
    flags = ["--agents", "20", "--runs", "3", "--periods", "5", "--citations-dist", "nbinomial",
             "--citations-dispersion", "0.01", "--citations-mean", "1e8"]
    assert main(["--out", str(out), "--seed", "1", *flags]) == 1
    assert "error: a paper's citation count would exceed 2147483647" in capsys.readouterr().err
    assert not out.exists()


def test_a_table_past_the_limit_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    # init_state's paper-count draw gives the one run a back catalog of 2**31
    # papers: 2**31 + 35 with 5 periods of 7 teams
    real, calls = engine.draw_counts, []

    def draw(kind, means, rng, dispersion=None, size=None):
        calls.append(size)
        counts = real(kind, means, rng, dispersion, size)
        if len(calls) == 1:
            counts[:] = 2**31 // size
            counts[0] += 2**31 % size
        return counts

    monkeypatch.setattr(engine, "draw_counts", draw)
    out = tmp_path / "x.csv"
    flags = ["--agents", "20", "--runs", "1", "--periods", "5", "--seed", "1", "--out", str(out)]
    assert main(flags) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {2**31 + 35} papers exceed the table limit of {2**31 - 2}"]
    assert list(tmp_path.iterdir()) == []


def _cores(monkeypatch, n):
    """Make this process see n usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("runs, cores", [("1", 1), ("2", 2)], ids=["in_process", "worker"])
def test_an_experiment_too_large_for_memory_is_an_error_line(
    tmp_path, capsys, monkeypatch, runs, cores
):
    # numpy's MemoryError from init_state: on one core in this process, and
    # over two runs in a forked worker, as the DataError above
    def init_state(*args):
        raise MemoryError("Unable to allocate 763. MiB for an array with shape (100000000,)")

    monkeypatch.setattr(engine, "init_state", init_state)
    _cores(monkeypatch, cores)
    out = tmp_path / "x.csv"
    flags = ["--agents", "20", "--runs", runs, "--periods", "3", "--seed", "1"]
    assert main(["--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 763. MiB")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cores", [1, 2])
def test_results_too_large_to_allocate_are_an_error_line_before_any_run(
    tmp_path, capsys, monkeypatch, cores
):
    # every run's columns are allocated up front: 2**30 runs of 2**20 agents
    # need petabytes, refused at once on one core as on two
    started = []
    monkeypatch.setattr(engine, "init_state", lambda *args: started.append(args[1]))
    _cores(monkeypatch, cores)
    out = tmp_path / "x.csv"
    flags = ["--runs", "1073741824", "--agents", "1048576", "--periods", "1",
             "--papers-mean", "0", "--seed", "1"]
    assert main(["--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err
    assert started == []
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
def test_a_killed_pool_worker_is_an_error_line(tmp_path, capsys, monkeypatch):
    # as the system's out-of-memory killer ends a worker: SIGKILL, no exception
    if not engine._can_fork():
        pytest.skip("this process cannot fork a pool without os.fork's warning")
    parent, init_state = os.getpid(), engine.init_state

    def dying(*args):  # the worker whose block is runs 2 and 3
        if args[1] == 2 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return init_state(*args)

    monkeypatch.setattr(engine, "init_state", dying)
    _cores(monkeypatch, 2)
    out = tmp_path / "x.csv"
    flags = ["--agents", "20", "--runs", "4", "--periods", "3", "--seed", "1"]
    assert main(["--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died")
    assert "out of memory" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.skipif(os.name != "posix", reason="sends SIGINT to a child process")
def test_an_interrupt_is_one_error_line_and_exit_130(tmp_path):
    # Ctrl-C during a run: no traceback, no output files, no thread left behind
    out = tmp_path / "x.csv"
    script = (
        "import sys, threading\n"
        "from halpha_sim import cli\n"
        "print('ready', flush=True)\n"
        "status = cli.main(['--agents', '20000', '--periods', '200', '--runs', '1',\n"
        f"                   '--seed', '1', '--out', {str(out)!r}])\n"
        "print(*[t.name for t in threading.enumerate()], flush=True)\n"
        "sys.exit(status)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            assert proc.stdout.readline() == "ready\n"
            time.sleep(0.5)  # into the run
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
    assert proc.returncode == 130, stderr
    assert stderr == "error: interrupted\n"
    assert stdout == "MainThread\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(os.name != "posix", reason="sends SIGINT to a child process")
def test_an_interrupt_ends_the_pool_workers_at_once(tmp_path):
    # SIGINT to the command alone, as `kill -INT` sends it: its workers never
    # see the signal and are each seconds from the end of their block, yet the
    # command exits at once and leaves no process in its session. The command
    # runs as a user starts it, with no BLAS thread count in its environment.
    out = tmp_path / "x.csv"
    script = (
        "import os, sys\n"
        "import halpha_sim\n"
        "if hasattr(os, 'sched_getaffinity') and len(os.sched_getaffinity(0)) < 2:\n"
        "    sys.exit('no pool')\n"
        "fork = os.fork\n"
        "def announced_fork():  # the pool forks its workers: the run is in their blocks\n"
        "    print('ready', flush=True)\n"
        "    return fork()\n"
        "os.fork = announced_fork\n"
        "sys.exit(halpha_sim.main(['--agents', '20000', '--periods', '120', '--runs', '2',\n"
        f"                          '--seed', '1', '--out', {str(out)!r}]))\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", script],
        env=_command_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            if proc.stdout.readline() != "ready\n":
                pytest.skip("the child process cannot fork a pool")
            time.sleep(0.5)  # into the workers' blocks
            sent = time.monotonic()
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=120)
            took = time.monotonic() - sent
            assert proc.returncode == 130, stderr
            assert stderr == "error: interrupted\n"
            assert took < 1.0
            with pytest.raises(ProcessLookupError):  # no process left in the session's group
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--scenario", "baseline"],
    ["--scenario", "boost"],
    ["--scenario", "diligence"],
    ["--scenario", "strategic"],
    ["--scenario", "boost", "--update-alpha", "--self-citations",
     "--citations-dist", "nbinomial", "--citations-dispersion", "2"],
])
def test_a_run_on_the_draw_thread_writes_the_same_bytes(tmp_path, monkeypatch, flags):
    threads, enter = [], engine._DrawThread.__enter__

    def recording_enter(self):
        threads.append(self)
        return enter(self)

    monkeypatch.setattr(engine._DrawThread, "__enter__", recording_enter)

    def run(cores):
        _cores(monkeypatch, cores)
        out = tmp_path / f"{cores}.csv"
        argv = [*flags, "--agents", "60", "--runs", "1", "--periods", "12", "--seed", "5",
                "--per-run", "--out", str(out)]
        assert main(argv) == 0
        return out.read_bytes(), per_run_path(out).read_bytes()

    reference = run(1)  # one draw per period: fewer live papers than the default chunk
    # small chunks: a period's counts come in several, one across the back catalog's end
    monkeypatch.setattr(engine, "_CHUNK", 100)
    assert run(2) == reference
    assert len(threads) == 1  # the two-core run drew on the thread, the one-core run did not


def test_a_count_past_int32_on_the_draw_thread_is_the_same_runtime_error(
    tmp_path, capsys, monkeypatch
):
    # no back catalog, so init_state draws no citations and the first count
    # past 2**31 - 1 is drawn in a period: on the draw thread when there are two cores
    flags = ["--agents", "20", "--runs", "1", "--periods", "5", "--papers-mean", "0",
             "--citations-dist", "nbinomial", "--citations-dispersion", "0.01",
             "--citations-mean", "1e8", "--seed", "1"]
    raised_on, real = [], engine._checked_counts

    def checked(counts):
        try:
            return real(counts)
        except engine.DataError:
            raised_on.append(threading.current_thread().name)
            raise

    monkeypatch.setattr(engine, "_checked_counts", checked)
    monkeypatch.setattr(engine, "_CHUNK", 7)  # a run this small takes the thread
    outcomes = []
    for cores in (2, 1):
        _cores(monkeypatch, cores)
        before = threading.active_count()
        out = tmp_path / f"{cores}.csv"
        outcomes.append((main(["--out", str(out), *flags]), capsys.readouterr().err))
        assert threading.active_count() == before
        assert not out.exists()
    assert raised_on == ["halpha-draws_0", "MainThread"]
    assert outcomes[0] == outcomes[1]
    code, err = outcomes[0]
    assert code == 1
    assert err.startswith("error: a paper's citation count would exceed 2147483647")


def test_default_worker_count_writes_the_same_bytes_as_one_worker(tmp_path, monkeypatch):
    flags = ["--scenario", "boost", "--update-alpha", "--self-citations",
             "--citations-dist", "nbinomial", "--citations-dispersion", "2",
             "--agents", "40", "--runs", "4", "--periods", "8", "--seed", "11", "--per-run"]

    def run(name):
        out = tmp_path / f"{name}.csv"
        assert main([*flags, "--out", str(out)]) == 0
        return out.read_bytes(), per_run_path(out).read_bytes()

    pooled = run("pool")
    # one usable core: the runs execute in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run("one_core") == pooled


def test_run_writes_deterministic_outputs(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*FAST, "--out", str(out1)]) == 0
    assert main([*FAST, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    summary = capsys.readouterr().out
    assert "period=1 group=low" in summary
    assert f"wrote {out2}" in summary


def test_config_echo_reproduces_run(tmp_path):
    out = tmp_path / "run.csv"
    assert main([*FAST, "--out", str(out)]) == 0
    echo = config_echo_path(out).read_text(encoding="utf-8")
    assert 'scenario = "baseline"' in echo
    assert "seed = 7" in echo
    assert "agents = 20" in echo
    assert "runs = 2" in echo


def test_per_run_flag_writes_second_file(tmp_path):
    out = tmp_path / "run.csv"
    assert main([*FAST, "--out", str(out), "--per-run"]) == 0
    per_run = per_run_path(out)
    assert per_run.exists()
    assert per_run.read_bytes().startswith(b"run,period,group,mean_h_alpha\n")


def test_a_failed_write_leaves_the_earlier_outputs_as_they_were(tmp_path, capsys):
    # the three files are replaced together: o_runs.csv cannot be, as it is a
    # directory, so the earlier o.csv and its echo must still match each other
    out = tmp_path / "o.csv"
    assert main([*FAST, "--out", str(out)]) == 0
    before = out.read_bytes(), config_echo_path(out).read_bytes()
    per_run_path(out).mkdir()
    capsys.readouterr()
    assert main([*FAST, "--seed", "8", "--per-run", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {per_run_path(out)}: ")
    assert "Traceback" not in err
    assert (out.read_bytes(), config_echo_path(out).read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "o.csv.config", "o_runs.csv"]
    assert list(per_run_path(out).iterdir()) == []


def test_a_missing_output_directory_names_the_output_file(tmp_path, capsys):
    out = tmp_path / "missing" / "o.csv"
    assert main([*FAST, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert list(tmp_path.iterdir()) == []


def test_generated_seed_is_announced(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["--agents", "20", "--runs", "1", "--periods", "2", "--out", str(out)]) == 0
    assert "master seed drawn from system entropy" in capsys.readouterr().out


def test_config_file_overridden_by_flags(tmp_path):
    cfg_file = tmp_path / "params.json"
    cfg_file.write_text(json.dumps({"scenario": "boost", "runs": 4, "agents": 30}))
    config, options = parse_config(
        ["--config", str(cfg_file), "--runs", "2", "--periods", "3",
         "--seed", "5", "--out", str(tmp_path / "x.csv")]
    )
    assert options.scenario == "boost"
    assert config.boost_size == 0.5  # from preset named in the file
    assert config.n_agents == 30  # from file
    assert config.runs == 2  # flag beats file
    assert config.periods == 3


@pytest.mark.parametrize(
    "content",
    [b'{"banana": 1}', b"{", b"[1]", b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
    ids=["unknown-key", "truncated", "array", "not-utf8", "nested-too-deep"],
)
def test_bad_config_file_is_usage_error(tmp_path, capsys, content):
    cfg_file = tmp_path / "params.json"
    cfg_file.write_bytes(content)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg_file), "--out", str(out)])
    assert exc.value.code == 2
    assert f"config file {cfg_file}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_config_file_that_cannot_be_read_is_a_usage_error(tmp_path, capsys, kind):
    cfg_file = tmp_path / "params.json"
    if kind == "directory":
        cfg_file.mkdir()
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg_file), "--out", str(out)])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"error: cannot read config file {cfg_file}: " in errors[0]
    assert list(tmp_path.iterdir()) == ([cfg_file] if kind == "directory" else [])


@pytest.mark.parametrize(
    "entry",
    [
        {"strategic": "false"},
        {"strategic": 0},
        {"runs": 2.9},
        {"runs": 2.0},
        {"agents": True},
        {"papers_mean": "10"},
        {"alpha_share": None},
        {"citations_dispersion": "2"},
        {"papers_dist": "Poisson"},
        {"citations_dist": 1},
        {"seed": 7.5},
        {"seed": "7"},
        {"seed": True},
        {"seed": None},
        {"seed": 2**64},
        {"seed": -1},
        {"scenario": None},
        {"papers_dist": [1]},
        {"papers_dispersion": math.inf},  # Infinity in the file
        {"runs": "runs"},  # the value is reported as given, not as a flag
    ],
    ids=lambda entry: json.dumps(entry),
)
def test_config_file_values_are_type_checked(tmp_path, capsys, entry):
    cfg_file = tmp_path / "params.json"
    cfg_file.write_text(json.dumps({"runs": 1, "agents": 10, "periods": 2, "seed": 1, **entry}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg_file), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    ((key, value),) = entry.items()
    message = capsys.readouterr().err.split("error:", 1)[1].strip()
    assert message.startswith("--" + key.replace("_", "-") + " must be ")
    assert message.endswith(f", got {value!r}")


def test_config_file_accepts_null_dispersion_and_integral_floats(tmp_path):
    cfg_file = tmp_path / "params.json"
    cfg_file.write_text(json.dumps({"citations_dispersion": None, "papers_mean": 8}))
    config, _ = parse_config(["--config", str(cfg_file), "--seed", "1", "--out", "x.csv"])
    assert config.citation_dispersion is None
    assert config.paper_mean == 8


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Flags", 1)[1].split("\n\n", 2)[1]
    documented = re.findall(r"^\| `(--[a-z-]+)` \|", table, flags=re.MULTILINE)
    actions = [a for a in build_parser()._actions if a.dest != "help"]
    flags = [s for a in actions for s in a.option_strings]
    assert sorted(documented) == sorted(flags)
    assert len(documented) == len(set(documented))


def test_strategic_scenario_flag_reaches_engine(tmp_path):
    config, _ = parse_config(
        ["--scenario", "strategic", "--seed", "3", "--out", str(tmp_path / "s.csv")]
    )
    assert config.strategic is True


def test_cli_and_diligence_transform_load_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-side oracle only
    script = (
        "import sys\n"
        "from halpha_sim import cli, engine\n"
        "argv = ['--scenario', 'diligence', '--agents', '20', '--out', 'x.csv']\n"
        "config, _ = cli.parse_config(argv)\n"
        "assert engine.init_state(config, 0).diligence_z is not None\n"
        "assert 'scipy' not in sys.modules, [m for m in sys.modules if m.startswith('scipy')]\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# the thread counts the command sets for numpy's BLAS
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# a user's command and `python -m` each start the CLI with --help
COMMANDS = {
    "halpha-sim": ["-c", "import sys, halpha_sim; sys.exit(halpha_sim.main())", "--help"],
    "python -m halpha_sim.cli": ["-m", "halpha_sim.cli", "--help"],
}
# imported first by a child with its directory on PYTHONPATH: as the child
# exits, it prints its thread count and the environment variables it changed
REPORT_AT_EXIT = """\
import atexit, json, os
_start = dict(os.environ)
atexit.register(lambda: print(json.dumps({
    "threads": len(os.listdir("/proc/self/task")),
    "changed": {k: v for k, v in os.environ.items() if _start.get(k) != v},
})))
"""


def _command_env(**blas_threads) -> dict:
    """This process's environment with src/ on the path and no BLAS thread
    count but ``blas_threads``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    src = Path(__file__).resolve().parents[1] / "src"
    return {**env, "PYTHONPATH": str(src), **blas_threads}


def _report_at_exit(tmp_path, args, **blas_threads) -> dict:
    (tmp_path / "sitecustomize.py").write_text(REPORT_AT_EXIT, encoding="utf-8")
    env = _command_env(**blas_threads)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads in /proc/self/task")


@needs_proc
@pytest.mark.parametrize("args", COMMANDS.values(), ids=COMMANDS)
def test_the_command_runs_one_blas_thread(tmp_path, args):
    # numpy's BLAS starts a thread at import on a multi-core host, and from
    # Python 3.12 on a second thread keeps the worker pool from forking
    report = _report_at_exit(tmp_path, args)
    assert report == {"threads": 1, "changed": dict.fromkeys(BLAS_THREADS, "1")}


@needs_proc
@pytest.mark.parametrize("args", COMMANDS.values(), ids=COMMANDS)
def test_the_command_keeps_a_blas_thread_count_the_user_set(tmp_path, args):
    report = _report_at_exit(tmp_path, args, OPENBLAS_NUM_THREADS="2")
    assert report["changed"] == {"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@needs_proc
def test_importing_the_package_changes_no_environment_variable(tmp_path):
    # a Python caller owns its BLAS threads
    report = _report_at_exit(tmp_path, ["-c", "import halpha_sim, halpha_sim.cli"])
    assert report["changed"] == {}


def test_cli_start_up_imports_no_process_machinery():
    # the pool's modules are imported only by a run that uses them
    script = (
        "import sys\n"
        "from halpha_sim import cli\n"
        "cli.parse_config(['--out', 'x.csv'])\n"
        "loaded = [m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))]\n"
        "assert not loaded, loaded\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("call", [
    lambda: scenario_config("baseline", 1, diligence_corr=0.5),
    lambda: dataclasses.replace(scenario_config("baseline", 1), diligence_correlation=0.5),
], ids=["scenario_config", "dataclasses.replace"])
def test_the_diligence_warning_points_at_the_caller(call):
    # the line in this file that called into the package, not one inside it
    # or in the dataclass machinery between them
    with pytest.warns(UserWarning, match="diligence_correlation has no effect") as record:
        call()
    assert [w.filename for w in record] == [__file__]


_NO_DILIGENCE = ("--diligence-corr has no effect when --diligence-share * --agents rounds to "
                 "--agents (every agent publishes every period)")


@pytest.mark.parametrize(("flags", "warning"), [
    (["--diligence-corr", "0.5"], _NO_DILIGENCE),
    # floor(0.96 * 10 + 0.5) is 10: every agent publishes
    (["--agents", "10", "--diligence-share", "0.96", "--diligence-corr", "0.5"], _NO_DILIGENCE),
    (["--papers-dispersion", "2"], "--papers-dispersion has no effect when --papers-dist is poisson"),
    (["--citations-dispersion", "2"],
     "--citations-dispersion has no effect when --citations-dist is poisson"),
], ids=["diligence", "diligence_rounded", "papers_dispersion", "citations_dispersion"])
def test_the_cli_warns_in_flag_terms(tmp_path, capsys, flags, warning):
    # one stderr line naming the flags, and no Python warning; the value at
    # fault is the last flag, which the run without it leaves out
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*FAST, *flags, "--out", str(out)]) == 0
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == f"warning: {warning}\n"
    assert captured.out.endswith(f"wrote {out}\n") and "warning" not in captured.out
    # "no effect" holds to the byte: the same CSV as without the value
    assert main([*FAST, *flags[:-2], "--out", str(tmp_path / "plain.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "plain.csv").read_bytes()


@pytest.mark.parametrize("action", ["error", "ignore", "default"])
def test_a_warning_of_the_runs_is_one_line_whatever_the_filters(tmp_path, capsys, action):
    # every run of the three splits its agents into empty groups, and warns;
    # the CLI prints that once, in its own terms, as it prints a config warning
    flags = ["--papers-mean", "0", "--citations-mean", "0", "--runs", "3", "--agents", "10",
             "--periods", "2", "--seed", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert main([*flags, "--out", str(tmp_path / "e.csv")]) == 0
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: every agent has the same initial h; low and high groups are empty\n")
    # the same stdout as the run and report without main's handler
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_and_report(*parse_config([*flags, "--out", str(tmp_path / "e.csv")])) == 0
    assert capsys.readouterr() == (captured.out, "")


# Values no rule may be surprised by: the tiniest and largest finite floats,
# negative zero, and integers just past int32 and past 64 bits.
_EXTREME_INTS = [-1, 0, 1, 2**31 - 1, 2**31, 2**63, 2**64]
_EXTREME_FLOATS = [5e-324, 1.7976931348623157e308, -0.0, 0.0, 2.0**31, 2.0**64,
                   math.nan, math.inf, -math.inf, -1e-3]
_BY_KIND = {  # keyed by id: the kinds are dicts
    id(INT): st.one_of(st.sampled_from(_EXTREME_INTS), st.integers(1, 4), st.integers()),
    id(FLOAT): st.one_of(st.sampled_from(_EXTREME_FLOATS), st.floats(0, 1), st.floats(0, 4),
                       st.floats()),
    id(DIST): st.sampled_from(_DISTS),
    id(SWITCH): st.booleans(),
}
# The parameters that size a run, capped so that every example is small; the
# first three are given at their cap when not drawn.
_CAPS = {"runs": 2, "agents": 30, "periods": 6, "papers_mean": 20.0}


@st.composite
def _flags(draw) -> list[str]:
    """A few parameters, each with a value drawn by its kind, and the run's size."""
    values = {name: _CAPS[name] for name in ("runs", "agents", "periods")}
    for p in draw(st.lists(st.sampled_from(PARAMETERS), max_size=5, unique_by=lambda p: p.name)):
        value = draw(_BY_KIND[id(p.flag)])
        values[p.name] = min(value, _CAPS[p.name]) if p.name in _CAPS else value  # keeps nan
    argv = []
    for name, value in values.items():
        if value is not False:
            argv.append("--" + name.replace("_", "-"))
            argv += [] if value is True else [str(value)]  # a negative one, too
    return argv


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_flags(), seed=st.sampled_from([0, 1, 2**64 - 1]))
def test_every_parameter_value_is_accepted_or_rejected_cleanly(tmp_path, capsys, monkeypatch,
                                                                argv, seed):
    # exit 0; exit 2, a usage error; or exit 1 with an error line. Never a
    # traceback, and no warning that points into the package.
    _cores(monkeypatch, 1)  # the runs stay in this process: no pool per example
    package = os.path.dirname(halpha_sim.__file__) + os.sep
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main([*argv, f"--seed={seed}", "--out", str(tmp_path / "x.csv")])
        except SystemExit as exc:
            code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    # a value with no effect adds warning lines before the error line
    assert code != 1 or re.match(r"(warning: [^\n]*\n)*error: ", err), err
    assert "Traceback" not in err
    assert [(w.filename, w.lineno, str(w.message)) for w in caught
            if w.filename.startswith(package)] == []
