"""halpha-sim benchmark: CLI experiments timed in one process, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

A run measures one workload. It first times set-up (a fresh interpreter
importing ``halpha_sim.cli`` and resolving the config) and peak memory in
child processes. It then runs one untimed round of the workload at
``DEFAULT_SEED``, whose CSV bytes must equal the references in
``golden.json``, and then times rounds of experiments through
``halpha_sim.cli.main`` until ``--seconds`` of experiment time have passed.
Each experiment's ``--seed`` is derived from the workload seed, the round and
the experiment's slot. Every experiment is checked by ``gate`` outside the
timed region; one that fails counts in ``failed``. Set-up times and the
experiment times of scaled workloads are given at the speed of a reference
host (see ``KERNEL_REFERENCE_S``).

``golden.json`` holds the sha256 of both CSV files of every warm-up
experiment, recorded when the benchmark was added. The CSV bytes for a given
config and seed are the program's contract, so a change that alters them
fails every run.

With ``--trace 1`` each round runs twice, once untraced and once with spans
around the calls into each layer (``spans``), alternating which goes first;
the run reports per-layer numbers and the tracing overhead instead of the
end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Machine and code
facts, the failures and (traced) the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 4
PREFIX_RUNS = 3
ORACLE_AGENTS = 12


@dataclass(frozen=True)
class Workload:
    """CLI flag sets run in order each round (--seed and --out are added per
    experiment), and whether their times are scaled by the calibration kernel."""

    flags: list[list[str]]
    scaled: bool


WORKLOADS: dict[str, Workload] = {
    # What users run and the acceptance suite repeats: small arrays, so the
    # fixed cost per period step, team formation, init and CSV export show.
    "presets": Workload(
        [["--scenario", s, "--per-run"] for s in ("baseline", "boost", "diligence", "strategic")],
        scaled=True,
    ),
    # Large arrays and a single run: the index kernel and citation draws
    # dominate; per-step overhead and run-level parallelism have nothing to act on.
    # Unscaled: no kernel tried (sorts, gathers and draws on arrays of this
    # size) slowed in step with it, and scaling only added the kernel's noise.
    "population": Workload(
        [["--scenario", "baseline", "--agents", "20000", "--periods", "40", "--runs", "1",
          "--per-run"]],
        scaled=False,
    ),
    # Alpha credit rewritten every period (indices recomputed twice), the
    # self-citation branch, and the costlier negative-binomial sampler.
    "dynamic": Workload(
        [["--scenario", "boost", "--update-alpha", "--self-citations",
          "--citations-dist", "nbinomial", "--citations-dispersion", "2", "--per-run"]],
        scaled=True,
    ),
}

# Scaled times are given at the speed of the reference host (2-core Xeon VM,
# Python 3.11.7, numpy 2.4.6). That host is shared: for tens of seconds at a
# time its speed swings by up to 1.5x, far beyond any bound worth gating on.
# A fixed numpy kernel shaped like a period step at the default 200 agents
# runs before and after each scaled call and slows in step with small-array,
# interpreter-bound work such as the default experiments and set-up; the
# call's time is multiplied by KERNEL_REFERENCE_S / (mean of the two kernel
# times). KERNEL_REFERENCE_S is the kernel's median time on that host.
KERNEL_REFERENCE_S = 0.040


def calibrate() -> float:
    """Seconds the calibration kernel takes."""
    rng = np.random.default_rng(0)
    table = rng.integers(0, 50, size=(200, 32))
    thresholds = np.arange(1, 33)
    start = time.perf_counter()
    for _ in range(150):
        (-np.sort(-table, axis=1) >= thresholds).sum(axis=1)
        np.take_along_axis(table, np.argsort(table, axis=1), axis=1)
        rng.poisson(3.0, size=3000)
        rng.permutation(200)
        sum(i * i for i in range(50))
    return time.perf_counter() - start


END_TO_END_UNITS = {
    "setup_s": "s",
    "experiment_s": "s",
    "agent_periods_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
_LAYER_UNITS = {
    "self_s": "s",
    "calls": "count",
    "papers": "count",
    "cells": "count",
    "draws": "count",
    "live_papers": "count",
    "bytes": "bytes",
    "ns_per_draw": "ns",
    "cpu_per_wall": "ratio",
    "self_share": "%",
    "overhead": "ratio",
}


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or _LAYER_UNITS[name.rsplit(".", 1)[1]]


class BenchError(RuntimeError):
    """The benchmark itself cannot go on; no result is printed."""


def experiment_seed(workload_seed: int, rnd: int, slot: int) -> int:
    """The CLI --seed of one experiment, a 63-bit function of its position."""
    digest = hashlib.sha256(f"{workload_seed}/{rnd}/{slot}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def workload_round(flags: list[list[str]], workload_seed: int, rnd: int) -> list:
    """(flags, seed) of each experiment in one round of a workload."""
    return [(f, experiment_seed(workload_seed, rnd, i)) for i, f in enumerate(flags)]


def golden_key(flags: list[str], seed: int) -> str:
    return " ".join(flags + ["--seed", str(seed)])


@dataclass
class Outcome:
    wall: float  # seconds inside cli.main
    agent_periods: int  # runs * agents * periods
    scale: float  # reference kernel time / kernel time around the call, or 1


class Bench:
    """Runs and checks the experiments of one workload."""

    def __init__(self, package, workload: Workload, work: Path, golden: dict, sink) -> None:
        self.cli, self.engine, self.model = package.cli, package.engine, package.model
        self.flags = workload.flags
        self.scaled = workload.scaled
        self.out = work / "result.csv"
        self.short_out = work / "prefix.csv"
        self.golden = golden
        self.sink = sink
        self.runs = None
        self.attempted = 0
        self.failures: list[dict] = []

    @contextlib.contextmanager
    def capturing(self):
        """Keep the runs each experiment's engine call returns, for the gate."""
        original = self.engine.run_experiment

        def capture(*args, **kwargs):
            self.runs = original(*args, **kwargs)
            return self.runs

        changed = spans.rebind(original, capture)
        try:
            yield
        finally:
            spans.restore(changed)

    def invoke(self, argv: list[str]) -> tuple[float, object]:
        """Time one cli.main call; returns (seconds, exit code or error text)."""
        self.runs = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # a crash in the program is a failed experiment
            code = f"raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - start, code

    def attempt(
        self, flags, seed: int, warm_up: bool = False, tracer=None, scaled: bool = False
    ) -> Outcome:
        """Run one experiment, bracketed by calibrations if ``scaled``, then check it."""
        argv = flags + ["--seed", str(seed), "--out", str(self.out)]
        if tracer is not None:
            tracer.experiment += 1
        before = calibrate() if scaled else 0.0
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            wall, code = self.invoke(argv)
        scale = 1.0
        if scaled:
            scale = 2 * KERNEL_REFERENCE_S / (before + calibrate())
        size = 0
        if code != 0:
            problems = [f"exit {code}"]
        else:
            try:
                problems, size = self.verify(flags, seed, argv, warm_up)
            except Exception as exc:  # output the gate cannot read is a failure
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failures.append({"experiment": golden_key(flags, seed), "problems": problems})
        return Outcome(wall, size, scale)

    def verify(self, flags, seed: int, argv, warm_up: bool) -> tuple[list[str], int]:
        runs, self.runs = self.runs, None
        config = self.cli.parse_config(argv)[0]
        size = config.runs * config.n_agents * config.periods
        problems = gate.check_runs(runs, config)
        if problems:
            return problems, size
        aggregated = self.out.read_bytes()
        per_run = gate.per_run_path(self.out).read_bytes()
        problems = gate.check_csvs(runs, aggregated, per_run)
        if f"seed = {seed}\n" not in gate.echo_path(self.out).read_text(encoding="utf-8"):
            problems.append("the config echo does not record the seed")
        want = self.golden.get(golden_key(flags, seed))
        if want is not None and want != {
            "csv": hashlib.sha256(aggregated).hexdigest(),
            "runs_csv": hashlib.sha256(per_run).hexdigest(),
        }:
            problems.append("CSV bytes differ from the reference recorded for this experiment")
        # Re-simulating one run costs 1/runs of the experiment, so single-run
        # experiments meet the oracle only in the warm-up round.
        if warm_up or config.runs > 1:
            rng = np.random.default_rng(seed)
            run_index = int(rng.integers(config.runs))
            agents = rng.choice(config.n_agents, min(ORACLE_AGENTS, config.n_agents), replace=False)
            problems += gate.check_oracle(self.engine, self.model, config, runs, run_index, agents)
        if config.runs > 1:
            shorter = min(PREFIX_RUNS, config.runs - 1)
            _, code = self.invoke(
                flags + ["--seed", str(seed), "--runs", str(shorter), "--out", str(self.short_out)]
            )
            if code != 0:
                problems.append(f"the {shorter}-run prefix experiment exited {code}")
            else:
                problems += gate.check_prefix(
                    per_run, gate.per_run_path(self.short_out).read_bytes()
                )
        return problems, size

    def measure(self, workload_seed: int, seconds: float, tracer=None) -> list[dict]:
        """Timed rounds until ``seconds`` of experiment time; each round maps
        traced (False/True) to its outcomes."""
        rounds, elapsed, rnd = [], 0.0, 0
        scaled = self.scaled and tracer is None
        while rnd == 0 or elapsed < seconds:
            experiments = workload_round(self.flags, workload_seed, rnd)
            # Traced rounds alternate which pass goes first.
            passes = (False,) if tracer is None else ((False, True), (True, False))[rnd % 2]
            result = {}
            for traced in passes:
                result[traced] = [
                    self.attempt(f, s, tracer=tracer if traced else None, scaled=scaled)
                    for f, s in experiments
                ]
                elapsed += sum(o.wall for o in result[traced])
            rounds.append(result)
            rnd += 1
        return rounds


def load_package(src: Path):
    """Import halpha_sim from ``src`` and nowhere else."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("halpha_sim")
    for name in ("cli", "engine", "model", "analysis", "distributions"):
        importlib.import_module(f"halpha_sim.{name}")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"halpha_sim was imported from {package.__file__}, not from {src}")
    return package


def probe(src: Path, argvs: list[list[str]], mode: str) -> tuple[float, dict]:
    """Run probe.py in a fresh interpreter; returns (set-up seconds, its report)."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(src), mode, json.dumps(argvs)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if any(code != 0 for code in report["codes"]):
        raise BenchError(f"probe experiments exited {report['codes']}")
    return report["ready"] - start, report


def setup_and_memory(src: Path, argvs: list[list[str]]) -> tuple[list[float], int]:
    """Set-up seconds at reference speed of SETUP_REPEATS fresh interpreters
    resolving the first experiment, and the peak RSS (KiB) of one running the round."""
    rss_kib = probe(src, argvs, "run")[1]["rss_kib"]
    before, setups = calibrate(), []
    for _ in range(SETUP_REPEATS):
        seconds = probe(src, argvs[:1], "setup")[0]
        after = calibrate()
        setups.append(seconds * 2 * KERNEL_REFERENCE_S / (before + after))
        before = after
    return setups, rss_kib


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def facts(package, workload: str, seed: int, src: Path) -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "workload_seed": seed,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "load_avg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "halpha_sim": getattr(package, "__version__", None),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g} .. {q3:.6g}"


def end_to_end(rounds: list[dict], setups: list[float], rss_kib: int) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, and a note on each one's samples."""
    timed = [r[False] for r in rounds]
    walls = [o.wall * o.scale for outcomes in timed for o in outcomes]
    rates = [
        sum(o.agent_periods for o in outcomes) / sum(o.wall * o.scale for o in outcomes)
        for outcomes in timed
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "experiment_s": statistics.median(walls),
        "agent_periods_per_s": statistics.median(rates),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    unscaled = statistics.median(o.wall for outcomes in timed for o in outcomes)
    notes = {
        "setup_s": f"median of {_spread(setups)} fresh interpreters",
        "experiment_s": f"median of {_spread(walls)} experiments; unscaled median {unscaled:.6g}",
        "agent_periods_per_s": f"median of {_spread(rates)} rounds",
        "peak_rss_mb": "one fresh interpreter running one round",
    }
    return metrics, notes


def per_layer(rounds: list[dict], tracer) -> tuple[dict, dict]:
    traced = [o for r in rounds for o in r[True]]
    untraced_wall = sum(o.wall for r in rounds for o in r[False])
    metrics = tracer.summary(len(traced))
    metrics["trace.overhead"] = sum(o.wall for o in traced) / untraced_wall - 1.0
    notes = {name: f"per traced experiment, {len(traced)} traced" for name in metrics}
    notes["trace.overhead"] = f"traced over untraced wall of the same {len(rounds)} rounds, minus 1"
    return metrics, notes


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="experiment time to measure, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    src = ROOT / "src"
    if not (src / "halpha_sim" / "__init__.py").is_file():
        print(f"error: no halpha_sim package under {src}", file=sys.stderr)
        return 2
    try:
        return _run(args, src, workloads[args.workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args, src: Path, workload: Workload) -> int:
    package = load_package(src)
    run_facts = facts(package, args.workload, args.seed, src)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        with open(os.devnull, "w") as sink:
            bench = Bench(package, workload, work, golden, sink)
            first = [f + ["--seed", str(s), "--out", str(work / f"probe{i}.csv")]
                     for i, (f, s) in enumerate(workload_round(workload.flags, args.seed, 0))]
            if not args.trace:
                setups, rss_kib = setup_and_memory(src, first)
            tracer = spans.Tracer(package) if args.trace else None
            with bench.capturing():
                # Warm-up round, checked against golden.json.
                for f, seed in workload_round(workload.flags, DEFAULT_SEED, 0):
                    bench.attempt(f, seed, warm_up=True)
                rounds = bench.measure(args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, notes = per_layer(rounds, tracer)
        tracer.write(stem.with_suffix(".spans.csv"))
    else:
        metrics, notes = end_to_end(rounds, setups, rss_kib)
    failed = len(bench.failures)
    absent = sorted(tracer.absent) if tracer else []
    stem.with_suffix(".json").write_text(json.dumps({
        "facts": run_facts, "metrics": metrics, "absent": absent, "failures": bench.failures,
    }, indent=1) + "\n", encoding="utf-8")

    print("# facts " + json.dumps(run_facts))
    if absent:
        print("# absent (reported as 0): " + ", ".join(absent))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}  ({notes[name]})")
    print(f"error_rate = {failed}/{bench.attempted} experiments")
    for failure in bench.failures[:5]:
        print(f"failed: {failure['experiment']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1
