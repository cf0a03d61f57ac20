"""Tests of the benchmark itself, at a tiny scale.

Run from the root of the repository: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import gate

TINY = {
    "presets": bench.Workload(
        [["--scenario", s, "--runs", "3", "--agents", "12", "--periods", "4", "--per-run"]
         for s in ("baseline", "strategic")],
        scaled=True,
    ),
    "population": bench.Workload(
        [["--agents", "60", "--periods", "3", "--runs", "1", "--per-run"]], scaled=True
    ),
}


@pytest.fixture
def package(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(bench, "SETUP_REPEATS", 2)
    return bench.load_package(bench.ROOT / "src")


def run_tiny(capsys, workload="presets", trace=0):
    code = bench.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0.01", "--trace", str(trace)], TINY
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def benchmark_json():
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(package, capsys, trace, section):
    code, result = run_tiny(capsys, trace=trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in benchmark_json()[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_traced_counts_follow_the_workload(package, capsys):
    _, result = run_tiny(capsys, workload="population", trace=1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["engine.init_state.calls"] == 1
    assert metrics["engine.step_period.calls"] == 3
    assert metrics["engine.recompute_indices.calls"] == 4
    assert metrics["engine.reassign_alpha_authors.papers"] == 0
    assert metrics["engine.cite_papers.live_papers"] > 0


def _corrupt_value_byte(out: Path) -> None:
    data = bytearray(out.read_bytes())
    at = data.index(b".", data.index(b"\n")) + 1  # first decimal of the first value
    data[at] = ord("0") + (data[at] - ord("0") + 5) % 10
    out.write_bytes(bytes(data))


def _swap_runs_0_and_1(out: Path) -> None:
    per_run = gate.per_run_path(out)
    header, *rows = per_run.read_text(encoding="utf-8").splitlines()
    values = {}
    for row in rows:
        run, rest = row.split(",", 1)
        values[(run, rest.rpartition(",")[0])] = rest.rpartition(",")[2]
    swapped = []
    for row in rows:
        run, rest = row.split(",", 1)
        key = rest.rpartition(",")[0]
        other = {"0": "1", "1": "0"}.get(run, run)
        swapped.append(f"{run},{key},{values[(other, key)]}")
    assert swapped != rows
    per_run.write_text("\n".join([header] + swapped) + "\n", encoding="utf-8")


@pytest.mark.parametrize("tamper", [_corrupt_value_byte, _swap_runs_0_and_1])
def test_tampered_output_counts_as_failed(package, capsys, monkeypatch, tamper):
    real_main = package.cli.main

    def tampering_main(argv):
        code = real_main(argv)
        tamper(Path(argv[argv.index("--out") + 1]))
        return code

    monkeypatch.setattr(package.cli, "main", tampering_main)
    code, result = run_tiny(capsys)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3


def test_golden_covers_every_warm_up_experiment():
    golden = json.loads(bench.GOLDEN.read_text(encoding="utf-8"))
    for workload in bench.WORKLOADS.values():
        for f, seed in bench.workload_round(workload.flags, bench.DEFAULT_SEED, 0):
            assert bench.golden_key(f, seed) in golden


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
