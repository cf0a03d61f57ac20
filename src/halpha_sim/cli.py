"""Command-line front end: scenario presets, flags, and result files.

Every parameter is declared once, as a field of ``SimulationConfig``, with
its default, its rule and its help line; its flag, its JSON config key and
its line in the config echo are all the field's external name, and
``PARAMETERS`` is derived from those fields. Resolution order for every
parameter: the field's default, then the scenario preset's values, then
values from an optional JSON config file, then command-line flags. The fully
resolved configuration is echoed next to the results so any run can be
reproduced exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import re
import secrets
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

from .analysis import _fmt, aggregate, export_csv
from .distributions import CountKind
from .engine import SimulationConfig, run_experiment
from .errors import ConfigurationError, DataError


_DISTS = [k.value for k in CountKind]
INT = {"type": int}
FLOAT = {"type": float}  # the rules reject nan and the infinities
DIST = {"choices": _DISTS}
SWITCH = {"action": "store_true", "default": None}
# The flag kind of each SimulationConfig field type.
_KIND_OF_TYPE = {"int": INT, "float": FLOAT, "float | None": FLOAT, "CountKind": DIST,
                 "bool": SWITCH}


@dataclass(frozen=True)
class Param:
    """One simulation parameter as the CLI sees its SimulationConfig ``field``:
    its flag, JSON key and echo line are all ``name`` (with dashes in the flag)."""

    name: str
    flag: dict  # argparse keyword arguments
    field: str
    help: str


# Every SimulationConfig field as a Param, in field order. The last,
# master_seed, is the --seed flag, which has its own place in the echo.
_FIELDS = tuple(
    Param(f.metadata["name"], _KIND_OF_TYPE[f.type], f.name, f.metadata["help"])
    for f in dataclasses.fields(SimulationConfig)
)
PARAMETERS, _SEED = _FIELDS[:-1], _FIELDS[-1]
_BY_NAME = {p.name: p for p in PARAMETERS}

# Scenario presets: the baseline population (SimulationConfig's defaults) plus
# the parameters of one mechanism; diligence needs two, the share of agents
# who publish and how strongly that selection tracks initial h.
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
    range (an integer of at least 1 for ``runs``, ...). A parameter neither the
    preset nor the overrides set keeps its SimulationConfig default.
    """
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigurationError(
            f"scenario must be one of {sorted(PRESETS)}, got {name!r}", "scenario"
        )
    unknown = set(overrides) - set(_BY_NAME)
    if unknown:
        raise ConfigurationError(f"unknown parameters: {sorted(unknown)}")
    fields = {}
    for key, value in {**PRESETS[name], **overrides}.items():
        p = _BY_NAME[key]
        fields[p.field] = CountKind(value) if p.flag is DIST and value in _DISTS else value
    return SimulationConfig(**fields, master_seed=master_seed)


# Keys of a JSON config file, and the flags that override them.
_KEYS = ["scenario", _SEED.name, *_BY_NAME]

# The flag that sets each SimulationConfig field, and the scenario.
_FLAG_OF = {p.field: "--" + p.name.replace("_", "-") for p in _FIELDS} | {"scenario": "--scenario"}


def _with_flags(exc: ConfigurationError | Warning) -> str:
    """The error or warning message with the attributes it names in ``fields``
    (if any) replaced by their flags, except in the value it reports after ", got "."""
    if not getattr(exc, "fields", ()):
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
    for p in _FIELDS:
        add(_FLAG_OF[p.field], help=p.help, **p.flag)
    add("--out", type=Path, help="path of the aggregated CSV (required)")
    add("--per-run", action="store_true", default=None,
        help="also write per-run trajectories next to the aggregated CSV")
    return parser


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_numbers(argv: list[str]) -> list[str]:
    """argv with each number that starts with '-' joined to the flag before it.

    argparse takes an argument such as ``-1e-3`` or ``-inf`` for an unknown
    option, so ``--diligence-corr -1e-3`` would fail with "expected one
    argument"; as ``--diligence-corr=-1e-3`` it reaches the parameter's rule.
    """
    joined: list[str] = []
    for arg in argv:
        if (joined and joined[-1].startswith("--") and "=" not in joined[-1]
                and arg.startswith("-") and _is_number(arg)):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


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
    mistyped or out-of-range values, or a missing output path. A value that
    has no effect is a ``ConfigurationWarning``, which ``main`` prints.
    """
    parser = build_parser()
    ns = parser.parse_args(_join_negative_numbers(sys.argv[1:] if argv is None else argv))
    values = _load_config_file(parser, ns.config) if ns.config is not None else {}
    if ns.out is None:
        parser.error("--out is required")

    values.update({k: getattr(ns, k) for k in _KEYS if getattr(ns, k) is not None})
    scenario = values.pop("scenario", "baseline")
    seed_generated = _SEED.name not in values
    seed = secrets.randbits(63) if seed_generated else values.pop(_SEED.name)

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
    lines += [f"{p.name} = {json.dumps(getattr(config, p.field))}" for p in PARAMETERS]
    lines.append(f"{_SEED.name} = {config.master_seed}")
    lines.append(f"out = {json.dumps(str(options.out))}")
    lines.append(f"per_run = {json.dumps(options.per_run)}")
    return "\n".join(lines) + "\n"


def _write_files(files: list[tuple[Path, bytes | str]]) -> None:
    """Write every (path, content) pair, or none of them.

    Each content goes to a temporary file in its path's directory (text as
    UTF-8), and all are moved into place with ``os.replace`` only once every
    one is written. On an error the temporary files are removed, the files
    already at those paths stay as they were, and the OSError names the path
    it concerns.
    """
    temporaries: list[Path] = []
    try:
        for path, content in files:
            temporary = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
            binary = isinstance(content, bytes)
            try:
                with open(temporary, "xb" if binary else "x",
                          encoding=None if binary else "utf-8") as fh:
                    temporaries.append(temporary)
                    fh.write(content)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from None
        # os.replace cannot put a file in a directory's place: fail before any move
        for path, _ in files:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for (path, _), temporary in zip(files, temporaries):
            os.replace(temporary, path)
    except BaseException:
        for temporary in temporaries:
            temporary.unlink(missing_ok=True)  # those moved into place are gone
        raise


def run_and_report(config: SimulationConfig, options: CliOptions) -> int:
    """Run the experiment, write CSV and config echo, print the summary.

    The output files are replaced together or not at all (``_write_files``).
    """
    try:
        runs = run_experiment(config)
        result = aggregate(runs)
    except (ConfigurationError, DataError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1

    files = [(options.out, export_csv(result))]
    if options.per_run:
        files.append((per_run_path(options.out), export_csv(result, per_run=True)))
    files.append((config_echo_path(options.out), _render_echo(config, options)))
    try:
        _write_files(files)
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
    """Run the CLI; an interrupt (Ctrl-C) is one error line and exit status 130.
    Every warning raised meanwhile, whatever the filters, is one ``warning:``
    line on stderr in flag terms, once per distinct message."""
    shown: set[str] = set()

    def show(message, *_) -> None:
        text = _with_flags(message)
        if text not in shown:
            shown.add(text)
            print(f"warning: {text}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        try:
            return run_and_report(*parse_config(argv))
        except KeyboardInterrupt:
            print("error: interrupted", file=sys.stderr)
            return 130


if __name__ == "__main__":
    sys.exit(main())
