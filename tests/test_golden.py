"""Golden outputs: the exact bytes the CLI writes for fixed (config, seed) pairs.

Each case runs ``cli.main`` at a reduced size and pins the sha256 of the
aggregated CSV, the per-run CSV and the config echo (without its ``out``
line, which names a temporary path). Any change to the RNG draw order, the
group split, the CSV format or the echo changes a hash; a refactor that
keeps the behaviour must leave all of them as they are.
"""

import hashlib
import json

import numpy as np
import pytest

from halpha_sim.cli import config_echo_path, main, per_run_path

SMALL = ["--agents", "60", "--runs", "4", "--periods", "6", "--per-run"]

CONFIG_FILE = {
    "scenario": "diligence",
    "seed": 106,
    "runs": 4,
    "agents": 60,
    "periods": 6,
    "papers_dist": "nbinomial",
    "papers_mean": 8,
    "papers_dispersion": 3.0,
    "alpha_share": 0.5,
    "diligence_share": 0.75,
}

CASES = {
    "baseline": [*SMALL, "--scenario", "baseline", "--seed", "101"],
    "boost": [*SMALL, "--scenario", "boost", "--seed", "102"],
    "diligence": [*SMALL, "--scenario", "diligence", "--seed", "103"],
    "strategic": [*SMALL, "--scenario", "strategic", "--seed", str(2**64 - 1)],
    "dynamic": [
        *SMALL, "--update-alpha", "--self-citations", "--citations-dist", "nbinomial",
        "--citations-dispersion", "2", "--seed", "105",
    ],
    "strategic_dynamic": [
        *SMALL, "--strategic", "--update-alpha", "--self-citations", "--coauthors", "5",
        "--seed", "107",
    ],
    # tables about 340 slots wide: the index pass counts in uint16, not uint8
    "wide": [
        "--agents", "20", "--runs", "4", "--periods", "6", "--papers-mean", "300",
        "--citations-mean", "100", "--update-alpha", "--seed", "108", "--per-run",
    ],
    # round(0.001 * 60) is 0: no publisher, no team, zero-width team columns;
    # 3 runs split unevenly over two workers
    "zero_teams": [
        "--agents", "60", "--runs", "3", "--periods", "6", "--diligence-share", "0.001",
        "--seed", "109", "--per-run",
    ],
    # every aging-curve flag off its default, so each must reach its own field
    "curve": [
        "--citations-mean", "4", "--citations-peak", "2.5", "--citations-speed", "3.5",
        "--citations-dist", "nbinomial", "--citations-dispersion", "1.5",
        "--agents", "60", "--runs", "4", "--periods", "6", "--seed", "110", "--per-run",
    ],
    # one run whose last period cites about 1.6 chunks of papers: on two or more
    # cores it draws on the draw thread, on one core inline, with the same bytes
    "threaded": [
        "--agents", "2000", "--periods", "10", "--runs", "1", "--seed", "111", "--per-run",
    ],
    # 7 runs with back catalogs of uneven sizes: on one core one batch of 7
    # stacked runs, on two blocks of 3 and 4, with the same bytes
    "batched": [
        "--scenario", "boost", "--strategic", "--update-alpha", "--self-citations",
        "--papers-dist", "nbinomial", "--papers-dispersion", "0.5", "--agents", "40",
        "--runs", "7", "--periods", "6", "--seed", "112", "--per-run",
    ],
    "config_file": ["--per-run"],
}

# The numpy the hashes were recorded with. numpy keeps a Generator's stream
# fixed only within a release (NEP 19), so under another numpy a hash may
# change with no change to this code: a failure names both versions.
RECORDED_WITH_NUMPY = "2.4.6"

# (aggregated CSV, per-run CSV, config echo without the out line)
GOLDEN = {
    "batched": (
        "72bbc9fbc8195619b6ad320b6494fc69389fd37316ef758a33e05a7fea3f15b7",
        "bcf1d21bdbdb6b69f25da783815d950467bd1b8f78dcdf65cb86e818e431d92f",
        "acc9222ae66be840ae2cf0eb5968845e35c417fdcad557ffc73836101902b9da",
    ),
    "baseline": (
        "41043417f1b6bb93c350df97da4bc4ecc7a4636cfa61822da3aa453d409771b6",
        "f721ccc65c44b80b7bc7d848fff6ff9b66361c3e0f10c9e186de7b29d0b5d24d",
        "e0acc9abd879966d3457b36b5121924f303878a0bf03f39f573f339a5479e3dc",
    ),
    "boost": (
        "3417622436c93455b136680c5cfab479e27aa875dd59ddf0c118ea1f57b2c48f",
        "5a5c25558755ce938eefe79c47139b671c230d2a778d2c1d12c5f6e2c9adb654",
        "bec2d48485442d15802ca9734a87c7982aee3863e7d353097ba7ebb72acab512",
    ),
    "config_file": (
        "dad84fc55a0de4ac3ed0cf3133cba11223e330ce9b2a49c7e544daa557ff4d0b",
        "b3a18ac96ee01049dbffd25dd572997c83f6ed54bfd4f76a686a93781c720d2a",
        "3c9ff4adac2f97a60650322180275b43b378e997ae4f43814ac543f7a3456b88",
    ),
    "curve": (
        "3170e1a62c02869d0607a9b23331da95a594ad00df156bf4684c2ccb9a060a68",
        "34f12f96cb4042228744fb4e6218fc2c108eb684ead035b7a4a43468eb9ca242",
        "5eeb80db09377af2722683b5b59495f8620894ac70ed37e577bc88681f3e897a",
    ),
    "diligence": (
        "db44d35f21b81fc18394a2d1d727ad3dd9a2b42b8d3b14c2eec6a1e5fedbd553",
        "ec69e99955f008eee430ca27741203e6c85749c88be426f9f667b840afedbf0e",
        "4d4a5e6efc6b4173fc405ac84463972854db31684a1e79f5703139a868d1519d",
    ),
    "dynamic": (
        "4d6518a3f88b2472674cf064418dbfeb0fb81db31b4c5a52959ea05df6b2e893",
        "99ff38bced82b50a004b11a9a6dc87fbe7d8f4c36a263e5cafb7407d5bc3f1a0",
        "e70abfead1053816702058aab09b268dfcb7996c1b8dea1250d9ae72dafa5989",
    ),
    "strategic": (
        "7db54cda46b1313a90b9131405aa8b08efd72e5618665945f72073c72b596da2",
        "2f387e9ee11b6f9aeaffc22cd11e44d0bd91813ca8ed579f85bcf6e73fcbb714",
        "da9ca7c13287a27f25cff52c29be6a3924931da6124d5aac8964c1fa41c64bd2",
    ),
    "strategic_dynamic": (
        "cb2e4672dc81c6a293ed7376abd17e4e37d7cd898afc6a98f51801ac276e6a3f",
        "59e8e2d4400501d6daf5c2201b7b5a759d046b97212fe5ba75057a6089259729",
        "4dc5efcffda039582a0a40589f2943b859e4c57a64a88b30c42831056b275622",
    ),
    "threaded": (
        "819bed728c9d9d904767770eb756121136d93dcf6400e3c9b38a6ef1f98f6e19",
        "46e612c96982b17185da71e78ab27519182d6c6f77d66baee63576c9a299f47e",
        "5496ba58111b62d2dae2e591fb8032a0ece25037382aae391342a2f15227367f",
    ),
    "wide": (
        "6b5a7233d6301cc178bdb42eae9c13513e7e856bac2b577a869add97af36a9b3",
        "21fc0bb17661c9a327f97a6a28f31520d165dd73c694e84301792472a5b02896",
        "77bf0728e460b53d84188639c02a305027ce7d7932658f9a98c5e3bc141207b0",
    ),
    "zero_teams": (
        "a3e2b46f72a5c14f96c23b4e425141a9650020f8cba6c1d7e431a80c49d5cc80",
        "a437583801079291bb60e53daa0924354a02b88bda704908ab262029c9467439",
        "8828cf5c56eaa6085dda669fb468a2719fdd3868fd0d237ceaabd711cc6fa666",
    ),
}


def _digests(tmp_path, name: str) -> tuple[str, str, str]:
    argv = list(CASES[name])
    if name == "config_file":
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(CONFIG_FILE), encoding="utf-8")
        argv += ["--config", str(cfg)]
    out = tmp_path / f"{name}.csv"
    assert main([*argv, "--out", str(out)]) == 0
    echo = config_echo_path(out).read_text(encoding="utf-8").splitlines(keepends=True)
    echo = "".join(line for line in echo if not line.startswith("out = "))
    return tuple(
        hashlib.sha256(data).hexdigest()
        for data in (out.read_bytes(), per_run_path(out).read_bytes(), echo.encode("utf-8"))
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(tmp_path, capsys, name):
    assert _digests(tmp_path, name) == GOLDEN[name], (
        f"hashes recorded with numpy {RECORDED_WITH_NUMPY}, run with numpy {np.__version__}"
    )
