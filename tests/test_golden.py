"""Every output file of a fixed pipeline round, pinned by its sha256.

One in-process synth -> run -> train -> infer -> report round on the small
suite (smooth, deceptive and plateau, instance seed 0), and synth -> run on
the medium smooth and rugged benchmarks of seed 0, both at budget 500 with
master and training seed 0. The small suite covers the exhaustive fallback
and a stalled run's fill (plateau-small-0000), the medium one large SBO and
lattice fronts; it stops after `run`. The medium round runs again at
`--workers 2`, through the process pool, and must give the same digests.

The constants hold for numpy 2.4.6 with its bundled OpenBLAS, pinned to one
thread as the CLI pins it. A change that alters an output on purpose updates
the constant of each file it alters and says why; any other mismatch is a
change of behaviour.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dsekit.cli import main

BUDGET = "500"

GOLDEN = {
    "small": {
        "d/instances.jsonl": "56b24861b38391ede6a5ba881a82b9f03e7cfbf29db9e7ca5a6b99dd9e772af3",
        "d/runs.jsonl": "d32578b0e021ae8091ffa7e51977777e8c87de48ca187455212551adb6250355",
        "d/labels.jsonl": "3f5bf4e5e53da0681b85b986af95565cce2dacaf3ca972a6ef3448bbd5d3b597",
        "d/manifest.json": "c0e1edccddd7bfdff0c11cb4c7bc89d455ca3e66c0dc88a9d51454bfb947e3cb",
        "t/checkpoint.txt": "f4639ba02fc1edb4b00b792ddb4bf78571b006b22806b6c3a21366fc4b5bb347",
        "t/supervised_loss.csv": "b67297daed1b13d0923b569f763e82dff35021f028842f69c6fe8deabb3b1e05",
        "t/rl_reward.csv": "c815ce0426b9d1682235adaecc1d09573e7edf8a66c1cfaf36b6ff91881fbe66",
        "i/report.jsonl": "4b38b08dc6a78365144a9c99352875b74a24f698b258a79e5b69bfa46b0f9603",
        "r/accuracy.csv": "dddf45cf43b5ebf4a22ffa1c63ac203b5ca503a099d195d2aceaf18d31a5ad1d",
        "r/adrs_matrix.csv": "08a7ee6bdfb5615e89e9f75f980db508c054171f339030c82d3c829bbbbe8921",
        "r/runtime.csv": "8b206881aee69de993aa2c0a85fa103e9a8ccccf4c452d4c1c1fc95a27c61c28",
    },
    "medium": {
        "d/instances.jsonl": "640bb9e0f6cd8dbca2d2ea8860bb315b39e6db75a3cba1bfaa37005e9d15fd6a",
        "d/runs.jsonl": "1838198c7878f4c9ebb6b1ef5c3c13d80683e5be0fee92a19d38b77c1ce77d92",
        "d/labels.jsonl": "89c97f0b02b1108d9add98bc2cf5534d8ef41fd63a92c1defd530e09f1640bfe",
        "d/manifest.json": "bdc55e09aa4b6224f63e8780c88ec3924c55f90d21e990f4f8e1814cda313ece",
    },
}


def _round(root: Path, families: str, size: str, full: bool, workers: int = 1) -> dict[str, str]:
    d, t, i, r = (str(root / name) for name in "dtir")
    stages = [
        ["synth", "--families", families, "--seeds", "0", "--size", size, "--out", d],
        ["run", "--dataset", d, "--budget", BUDGET, "--master-seed", "0", "--workers", str(workers)],
    ]
    if full:
        stages += [
            ["train", "--dataset", d, "--seed", "0", "--out", t],
            ["infer", "--dataset", d, "--checkpoints", t, "--budget", BUDGET, "--out", i],
            ["report", "--runs", f"{d}/runs.jsonl", "--labels", f"{d}/labels.jsonl",
             "--report", f"{i}/report.jsonl", "--out", r],
        ]
    for argv in stages:
        assert main(argv) == 0, argv[0]
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.glob("*/*"))
    }


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, dict[str, str]]:
    small = _round(tmp_path_factory.mktemp("small"), "smooth,deceptive,plateau", "small", True)
    medium = _round(tmp_path_factory.mktemp("medium"), "smooth,rugged", "medium", False)
    medium_w2 = _round(tmp_path_factory.mktemp("medium-w2"), "smooth,rugged", "medium", False, workers=2)
    return {"small": small, "medium": medium, "medium-w2": medium_w2}


@pytest.mark.parametrize("suite", ["small", "medium", "medium-w2"])
def test_every_output_file_matches_its_pinned_digest(digests, suite):
    written, golden = digests[suite], GOLDEN[suite.removesuffix("-w2")]
    assert sorted(written) == sorted(golden), f"{suite}: unexpected set of output files"
    differ = [name for name, digest in golden.items() if written[name] != digest]
    assert not differ, f"{suite}: these files differ from their pinned digests: {differ}"
