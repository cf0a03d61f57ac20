"""Preset expansion, flag handling, exit codes, and output files."""

import json
import math
import os
import re
import subprocess
import sys
from copy import deepcopy
from pathlib import Path

import pytest

from halpha_sim.cli import (
    FLOAT,
    PARAMETERS,
    PRESETS,
    build_parser,
    config_echo_path,
    main,
    parse_config,
    per_run_path,
    scenario_config,
)
from halpha_sim.distributions import CountKind
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
    assert cfg.aging.max_mean == 5.0
    assert cfg.aging.peak_period == 3.0
    assert cfg.alpha_share == 0.33
    assert cfg.collab_share == 1.0
    assert cfg.boost_size == 0.0
    assert not cfg.strategic and not cfg.self_citation and not cfg.dynamic_alpha


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
    assert message.lstrip().startswith(flag) or f"argument {flag}:" in message
    assert not re.search(r"\b(collab_share|master_seed|max_mean|citation_dispersion)\b", message)
    assert not out.exists()  # nothing ran, so no count was written


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--" + p.name.replace("_", "-") for p in PARAMETERS
                                  if p.flag is FLOAT])
def test_float_flags_reject_non_finite_values(tmp_path, capsys, flag, value):
    # flags parse as plain floats; the config's rules reject these and name the flag
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "x.csv"), "--seed", "1", f"{flag}={value}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.split("error:", 1)[1].lstrip().startswith(f"{flag} ")


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
