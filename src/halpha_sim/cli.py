"""Command-line front end: scenario presets, flags, and result files.

Every parameter is declared once, as a row of ``PARAMETERS``; its flag, its
JSON config key, its line in the config echo and its SimulationConfig field
all come from that row, and SimulationConfig checks its type and range.
Resolution order for every parameter: scenario preset defaults, then values
from an optional JSON config file, then command-line flags. The fully
resolved configuration is echoed next to the results so any run can be
reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import re
import secrets
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .analysis import _fmt, aggregate, export_csv
from .distributions import AgingCurve, CountKind
from .engine import SimulationConfig, run_experiment
from .errors import ConfigurationError, DataError


_DISTS = [k.value for k in CountKind]
INT = {"type": int}
FLOAT = {"type": float}  # the rules reject nan and the infinities
DIST = {"choices": _DISTS}
SWITCH = {"action": "store_true", "default": None}


@dataclass(frozen=True)
class Param:
    """One simulation parameter: its flag, JSON key and echo line are all ``name``
    (with dashes in the flag); ``field`` names where SimulationConfig keeps it,
    ``aging.<attr>`` for the citation aging curve."""

    name: str
    flag: dict  # argparse keyword arguments
    default: object
    field: str
    help: str


PARAMETERS = (
    Param("runs", INT, 50, "runs", "number of independent runs to average over"),
    Param("agents", INT, 200, "n_agents", "number of simulated agents"),
    Param("periods", INT, 20, "periods", "number of collaboration periods"),
    Param("coauthors", INT, 3, "coauthors_mean",
          "team size (last team per period may be smaller)"),
    Param("papers_dist", DIST, "poisson", "paper_kind", "distribution of initial paper counts"),
    Param("papers_mean", FLOAT, 10.0, "paper_mean",
          "mean of the initial paper count distribution"),
    Param("papers_dispersion", FLOAT, None, "paper_dispersion",
          "dispersion of the initial paper count distribution (nbinomial only)"),
    Param("citations_dist", DIST, "poisson", "citation_kind",
          "distribution of per-period citation counts"),
    Param("citations_mean", FLOAT, 5.0, "aging.max_mean",
          "maximum expected citations per period"),
    Param("citations_peak", FLOAT, 3.0, "aging.peak_period",
          "paper age (in periods) at which expected citations peak"),
    Param("citations_speed", FLOAT, 2.0, "aging.speed",
          "steepness of the citation aging curve (must exceed 1)"),
    Param("citations_dispersion", FLOAT, None, "citation_dispersion",
          "dispersion of the citation count distribution (nbinomial only)"),
    Param("alpha_share", FLOAT, 0.33, "alpha_share",
          "share of initial papers credited to their own agent"),
    Param("boost_size", FLOAT, 0.0, "boost_size",
          "one-time extra citations = round(max author h at publication * size); 0 disables"),
    Param("diligence_corr", FLOAT, 0.0, "diligence_correlation",
          "correlation between publishing propensity and initial h"),
    Param("diligence_share", FLOAT, 1.0, "collab_share",
          "share of agents who publish each period"),
    Param("strategic", SWITCH, False, "strategic", "seed every team with a single top-h agent"),
    Param("self_citations", SWITCH, False, "self_citation",
          "one extra citation when an author's h exceeds a paper's citations by 1 or 2"),
    Param("update_alpha", SWITCH, False, "dynamic_alpha",
          "re-credit every paper to its currently highest-h author each period"),
)

# Scenario presets: the baseline population (the table's defaults) plus the
# parameters of one mechanism; diligence needs two, the share of agents who
# publish and how strongly that selection tracks initial h.
PRESETS: dict[str, dict] = {
    "baseline": {},
    "boost": {"boost_size": 0.5},
    "diligence": {"diligence_corr": 0.8, "diligence_share": 0.6},
    "strategic": {"strategic": True},
}


def scenario_config(name: str, master_seed: int, **overrides) -> SimulationConfig:
    """Engine config for a named scenario, with optional parameter overrides.

    A distribution name (``"poisson"`` or ``"nbinomial"``) becomes its CountKind;
    every other value reaches SimulationConfig as given, which checks its type and
    range (an integer of at least 1 for ``runs``, ...).
    """
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigurationError(
            f"scenario must be one of {sorted(PRESETS)}, got {name!r}", "scenario"
        )
    unknown = set(overrides) - {p.name for p in PARAMETERS}
    if unknown:
        raise ConfigurationError(f"unknown parameters: {sorted(unknown)}")
    values = {**PRESETS[name], **overrides}
    fields, aging = {"master_seed": master_seed}, {}
    for p in PARAMETERS:
        value = values.get(p.name, p.default)
        if p.flag is DIST and value in _DISTS:
            value = CountKind(value)
        group, _, attr = p.field.rpartition(".")
        (aging if group else fields)[attr] = value
    return SimulationConfig(aging=AgingCurve(**aging), **fields)


# Keys of a JSON config file, and the flags that override them.
_KEYS = ["scenario", "seed"] + [p.name for p in PARAMETERS]

# The flag that sets each SimulationConfig and AgingCurve attribute, and the scenario.
_FLAG_OF = {p.field.rpartition(".")[2]: "--" + p.name.replace("_", "-") for p in PARAMETERS}
_FLAG_OF.update(master_seed="--seed", scenario="--scenario")


def _with_flags(exc: ConfigurationError) -> str:
    """The error message with the attributes it names replaced by their flags,
    except in the value it reports after ", got "."""
    if not exc.fields:
        return str(exc)
    names = re.compile(r"\b(" + "|".join(exc.fields) + r")\b")
    head, got, value = str(exc).partition(", got ")
    return names.sub(lambda m: _FLAG_OF.get(m[0], m[0]), head) + got + value


@dataclass(frozen=True)
class CliOptions:
    """Resolved non-engine options of one invocation."""

    scenario: str
    seed_generated: bool
    out: Path
    per_run: bool


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halpha-sim",
        description=(
            "Simulate collaborating, publishing, cited agents and export the "
            "mean h-alpha trajectories of the low and high initial-h groups."
        ),
    )
    add = parser.add_argument
    add("--scenario", choices=sorted(PRESETS), default=None,
        help="scenario preset supplying defaults (default: baseline)")
    add("--config", type=Path, default=None, metavar="FILE",
        help="JSON file with parameter overrides (flags win over the file)")
    for p in PARAMETERS:
        add("--" + p.name.replace("_", "-"), help=p.help, **p.flag)
    add("--seed", type=int, help="master seed (drawn from system entropy if omitted)")
    add("--out", type=Path, help="path of the aggregated CSV (required)")
    add("--per-run", action="store_true", default=None,
        help="also write per-run trajectories next to the aggregated CSV")
    return parser


def _load_config_file(parser: argparse.ArgumentParser, path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        parser.error(f"config file {path} cannot be read as UTF-8 JSON: {exc}")
    if not isinstance(raw, dict):
        parser.error(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(_KEYS)
    if unknown:
        parser.error(f"config file {path} has unknown keys: {sorted(unknown)}")
    return raw


def parse_config(argv=None) -> tuple[SimulationConfig, CliOptions]:
    """Resolve flags, config file, and preset into an engine config.

    Exits with status 2 (via argparse) on unknown flags or config file keys,
    mistyped or out-of-range values, or a missing output path.
    """
    parser = build_parser()
    ns = parser.parse_args(argv)
    values = _load_config_file(parser, ns.config) if ns.config is not None else {}
    if ns.out is None:
        parser.error("--out is required")

    values.update({k: getattr(ns, k) for k in _KEYS if getattr(ns, k) is not None})
    scenario = values.pop("scenario", "baseline")
    seed_generated = "seed" not in values
    seed = secrets.randbits(63) if seed_generated else values.pop("seed")

    try:
        config = scenario_config(scenario, seed, **values)
    except ConfigurationError as exc:
        parser.error(_with_flags(exc))
    options = CliOptions(
        scenario=scenario, seed_generated=seed_generated, out=ns.out, per_run=bool(ns.per_run)
    )
    return config, options


def per_run_path(out: Path) -> Path:
    """Path of the per-run CSV written next to the aggregated one."""
    return out.with_name(out.stem + "_runs" + out.suffix)


def config_echo_path(out: Path) -> Path:
    """Path of the resolved-config echo written next to the results."""
    return Path(str(out) + ".config")


def _render_echo(config: SimulationConfig, options: CliOptions) -> str:
    lines = [f"scenario = {json.dumps(options.scenario)}"]
    lines += [f"{p.name} = {json.dumps(attrgetter(p.field)(config))}" for p in PARAMETERS]
    lines.append(f"seed = {config.master_seed}")
    lines.append(f"out = {json.dumps(str(options.out))}")
    lines.append(f"per_run = {json.dumps(options.per_run)}")
    return "\n".join(lines) + "\n"


def run_and_report(config: SimulationConfig, options: CliOptions) -> int:
    """Run the experiment, write CSV and config echo, print the summary."""
    try:
        runs = run_experiment(config)
        result = aggregate(runs)
    except (ConfigurationError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        options.out.write_bytes(export_csv(result))
        if options.per_run:
            per_run_path(options.out).write_bytes(export_csv(result, per_run=True))
        config_echo_path(options.out).write_text(_render_echo(config, options), encoding="utf-8")
    except OSError as exc:
        target = getattr(exc, "filename", None) or options.out
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return 1

    if options.seed_generated:
        seed = config.master_seed
        print(f"master seed drawn from system entropy: {seed} (pass --seed {seed} to reproduce)")
    for t, period in enumerate(result.periods):
        print(f"period={period} group=low mean_h_alpha={_fmt(result.mean_h_alpha_low[t])}")
        print(f"period={period} group=high mean_h_alpha={_fmt(result.mean_h_alpha_high[t])}")
        print(f"period={period} group=diff mean_h_alpha={_fmt(result.difference[t])}")
    print(f"wrote {options.out}")
    return 0


def main(argv=None) -> int:
    config, options = parse_config(argv)
    return run_and_report(config, options)


if __name__ == "__main__":
    sys.exit(main())
