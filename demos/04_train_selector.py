"""End-to-end: synthesize and label a small suite, train the selector, use it.

The suite is built with the `synth` and `run` commands, exactly as from the
shell, and loaded back with `dsekit.dataset.load`; training and recommendation
then go through the library API so each stage is visible. Takes several
seconds.
"""

import tempfile
from pathlib import Path

import numpy as np

from dsekit import cli
from dsekit.dataset import load
from dsekit.explorers import ExplorerId
from dsekit.selector import PpoAgent, pretrain_supervised, recommend, train_rl

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "suite"
    print("synthesizing and running 20 benchmarks ...")
    for argv in (
        ["synth", "--families", "smooth,rugged,deceptive,clustered", "--seeds", "0..4",
         "--size", "small", "--out", str(out)],
        ["run", "--dataset", str(out), "--budget", "150", "--master-seed", "0",
         "--workers", "2", "--split-fraction", "0.7"],
    ):
        if cli.main(argv) != 0:
            raise SystemExit(f"dsekit {argv[0]} failed")
    data = load(out)
    for name, digest in sorted(data.manifest.hashes.items()):
        print(f"  {name:16s} {digest}")

    features, labels, scores = data.matrices("train")
    print()
    print("train split:", features.shape[0], "instances,",
          features.shape[1], "features each")

    # Stage one: a supervised prior from features to best-explorer labels.
    head, losses = pretrain_supervised(features, labels, seed=0)
    print(f"supervised loss {losses[0]:.4f} -> {losses[-1]:.4f}")

    # Stage two: policy optimization against the regret reward.
    agent, rewards = train_rl(PpoAgent.init(head, seed=0), features, scores, seed=0)
    print(f"mean reward     {rewards[0]:.4f} -> {rewards[-1]:.4f}")

    # Ask the trained agent for a recommendation on the held-out split.
    held_features, held_labels, held_scores = data.matrices("inference")
    hits = 0
    chosen_adrs = []
    for row in range(held_features.shape[0]):
        choice, policy = recommend(agent, held_features[row][None, :])
        hits += int(choice.value == held_labels[row])
        chosen_adrs.append(held_scores[row, choice.value])
        sample = data.split("inference")[row]
        print(f"  {sample.benchmark_id:22s} pick={choice.name.lower():8s} "
              f"best={ExplorerId(int(held_labels[row])).name.lower():8s} "
              f"confidence={policy.max():.2f}")

    print()
    print(f"held-out picks matching the true best: {hits}/{held_features.shape[0]}")
    print(f"mean adrs of picks    {np.mean(chosen_adrs):.5f}")
    print(f"mean adrs, best fixed {held_scores.mean(axis=0).min():.5f}")
    print()
    print("At this toy scale one explorer tends to dominate and a dozen")
    print("training instances are not enough to beat it; the full-size run")
    print("(dsekit synth/run/train, 60 medium benchmarks) is where the")
    print("learned picks pull ahead. tests/test_acceptance.py measures that.")
