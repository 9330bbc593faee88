"""The acceptance gate: one test per advertised guarantee, at full scale.

Each test gathers its measurements first, prints a single visible verdict
line with the numbers, and only then asserts every condition separately, so
a red run still shows what was measured. The selector tests drive the
installed command-line interface end to end (suite synthesis, portfolio
runs, training, inference, reporting) in a temporary directory and re-run
the whole pipeline a second time to certify determinism; expect several
minutes of wall time for the full module.

Run it alone with:  python3 -m pytest tests/test_acceptance.py -v
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from dsekit.benchmarks import Family, synth_instance
from dsekit.cli import CHECKPOINT_FILE, RL_CURVE_FILE, SUPERVISED_CURVE_FILE, main
from dsekit.dataset import load, run_suite
from dsekit.explorers import Budget, ExplorerId, explore
from dsekit.nn import Mlp, cross_entropy, forward, log_softmax, mean_squared_error
from dsekit.pareto import DesignPoint, ObjectiveVector, adrs, pareto_filter
from dsekit.selector import N_EXPLORERS, gae, load_selector
from dsekit.surrogate import SurrogateModel

from oracles import (
    brute_force_pareto_indices,
    entropy_of,
    fresh_backward,
    grad_check,
    naive_adrs,
    naive_discounted_advantages,
    policy_loss_of,
)
from test_explorers import CountingModel
from test_nn import kink_free_case

ALL_FAMILY_NAMES = "smooth,rugged,deceptive,plateau,clustered"


def _verdict(capsys, index: int, name: str, ok: bool, detail: str) -> None:
    """One always-visible line per guarantee, even under captured output."""
    with capsys.disabled():
        print(f"\n[acceptance {index}/8] {name}: {'PASS' if ok else 'FAIL'}  ({detail})")


# -- 1: Pareto filtering and ADRS against brute force -------------------------------


def _random_objectives(rng: np.random.Generator, n: int, style: int) -> np.ndarray:
    """Point clouds that cover duplicates, exact zeros, and wide scales."""
    if style == 0:
        return rng.uniform(0.0, 10.0, size=(n, 2))
    if style == 1:  # coarse grid: many duplicate objective vectors, some zeros
        return rng.integers(0, 6, size=(n, 2)) * 0.5
    if style == 2:
        return rng.lognormal(mean=0.0, sigma=3.0, size=(n, 2))
    objs = rng.uniform(0.0, 1.0, size=(n, 2))
    objs[rng.random(size=(n, 2)) < 0.1] = 0.0
    return objs


def test_pareto_front_and_adrs_match_brute_force(capsys):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    front_mismatches = 0
    worst_gap = 0.0
    for case in range(200):
        n = int(rng.integers(1, 513))
        objs = _random_objectives(rng, n, case % 4)
        knob_pool = rng.integers(0, 3, size=(n, 3))
        points = [
            DesignPoint(
                tuple(int(k) for k in knob_pool[i]),
                ObjectiveVector(area=float(objs[i, 0]), latency=float(objs[i, 1])),
            )
            for i in range(n)
        ]
        front = pareto_filter(points)
        expected = [
            points[i] for i in brute_force_pareto_indices(objs, [p.knobs for p in points])
        ]
        if list(front.points) != expected:
            front_mismatches += 1
        subset = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        approx = pareto_filter([points[i] for i in subset])
        got = adrs(front, approx)
        want = naive_adrs(
            [(p.objectives.area, p.objectives.latency) for p in front.points],
            [(p.objectives.area, p.objectives.latency) for p in approx.points],
        )
        worst_gap = max(worst_gap, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = front_mismatches == 0 and worst_gap <= 1e-9 and elapsed < 10.0
    _verdict(
        capsys, 1, "pareto front + adrs vs brute force", ok,
        f"200 point clouds, {front_mismatches} front mismatches, "
        f"worst adrs gap {worst_gap:.2e}, {elapsed:.1f}s < 10s",
    )
    assert front_mismatches == 0
    assert worst_gap <= 1e-9
    assert elapsed < 10.0


# -- 2: gradient checks on all four training losses ---------------------------------


def _loss_closure(template, x, head):
    """Flat parameter vector -> (loss, flat gradient) through a small net."""

    def fn(vec):
        net = Mlp(template.dims, vec)
        logits, hidden = forward(net, x)
        loss, dlogits = head(logits)
        return loss, fresh_backward(net, x, hidden, dlogits)

    return fn


def _policy_case(rng):
    """A net, batch, and clipped-surrogate inputs with every kink at a safe margin.

    Probability ratios start at exactly 1 (inside the clip band) or 1.6 away
    from it (outside), so finite-difference steps of 1e-5 never cross a clip
    boundary, and the batch itself avoids hidden-unit kinks.
    """
    net, x = kink_free_case(rng, (7, 9, N_EXPLORERS), batch=6)
    logits, _ = forward(net, x)
    n = x.shape[0]
    actions = rng.integers(N_EXPLORERS, size=n)
    logp = log_softmax(logits)[np.arange(n), actions]
    shift = np.where(np.arange(n) % 2 == 0, 0.0, np.log(1.6))
    old_logp = logp - shift * rng.choice([-1.0, 1.0], size=n)
    advantages = rng.normal(size=n)
    advantages[np.abs(advantages) < 0.1] = 0.5
    return net, x, actions, old_logp, advantages


def test_training_loss_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = {"cross-entropy": 0.0, "policy": 0.0, "value": 0.0, "entropy": 0.0}
    for _ in range(100):
        net, x = kink_free_case(rng, (5, 8, 4))
        labels = rng.integers(4, size=x.shape[0])
        fn = _loss_closure(net, x, lambda z: cross_entropy(z, labels))
        worst["cross-entropy"] = max(worst["cross-entropy"], grad_check(fn, net.params))

        net, x, actions, old_logp, advantages = _policy_case(rng)
        fn = _loss_closure(
            net, x, lambda z: policy_loss_of(z, actions, old_logp, advantages)
        )
        worst["policy"] = max(worst["policy"], grad_check(fn, net.params))

        net, x = kink_free_case(rng, (5, 8, 1))
        target = rng.normal(size=(x.shape[0], 1))
        fn = _loss_closure(net, x, lambda z: mean_squared_error(z, target))
        worst["value"] = max(worst["value"], grad_check(fn, net.params))

        net, x = kink_free_case(rng, (5, 8, 4))
        fn = _loss_closure(net, x, entropy_of)
        worst["entropy"] = max(worst["entropy"], grad_check(fn, net.params))
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) <= 1e-4 and elapsed < 30.0
    detail = ", ".join(f"{name} {err:.1e}" for name, err in worst.items())
    _verdict(
        capsys, 2, "training-loss gradients", ok,
        f"100 configs each, worst rel err: {detail}, {elapsed:.1f}s < 30s",
    )
    for name, err in worst.items():
        assert err <= 1e-4, name
    assert elapsed < 30.0


# -- 3: no explorer wins everywhere on the fixed 25-benchmark suite -----------------


def test_no_single_explorer_wins_the_fixed_suite(capsys):
    instances = [
        synth_instance(family, seed, "medium") for family in Family for seed in range(5)
    ]
    start = time.perf_counter()
    portfolios = run_suite(instances, budget=500, master_seed=0, workers=4)
    elapsed = time.perf_counter() - start
    rows = np.array([p.adrs_values for p in portfolios])
    attains_min = rows <= rows.min(axis=1, keepdims=True)
    rows_won = attains_min.sum(axis=0)
    winners = sorted({p.argmin for p in portfolios})
    ok = int(rows_won.max()) < len(instances) and len(winners) >= 3 and elapsed < 300.0
    _verdict(
        capsys, 3, "no free lunch across explorers", ok,
        f"25 benchmarks, best single explorer wins {int(rows_won.max())}/25, "
        f"{len(winners)} distinct winners "
        f"({', '.join(w.name.lower() for w in winners)}), {elapsed:.0f}s < 300s",
    )
    assert int(rows_won.max()) < len(instances)
    assert len(winners) >= 3
    assert elapsed < 300.0


# -- 4..7: the full pipeline, driven through the command-line interface -------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Synthesize, run, train, infer, and report a 60-benchmark suite once."""
    root = tmp_path_factory.mktemp("acceptance")
    paths = SimpleNamespace(
        root=root,
        dataset=root / "dataset",
        train=root / "train",
        infer=root / "infer",
        report=root / "report",
    )
    timings: dict[str, float] = {}

    def step(name: str, argv: list[str]) -> None:
        start = time.perf_counter()
        code = main(argv)
        timings[name] = time.perf_counter() - start
        assert code == 0, f"{name} step exited with {code}"

    step(
        "synth",
        ["synth", "--families", ALL_FAMILY_NAMES, "--seeds", "0..11",
         "--size", "medium", "--out", str(paths.dataset)],
    )
    step(
        "run",
        ["run", "--dataset", str(paths.dataset), "--budget", "500",
         "--master-seed", "0", "--split-fraction", "0.67", "--workers", "4"],
    )
    step(
        "train",
        ["train", "--dataset", str(paths.dataset), "--seed", "0",
         "--out", str(paths.train)],
    )
    step(
        "infer",
        ["infer", "--dataset", str(paths.dataset), "--checkpoints", str(paths.train),
         "--budget", "500", "--out", str(paths.infer)],
    )
    step(
        "report",
        ["report", "--runs", str(paths.dataset / "runs.jsonl"),
         "--labels", str(paths.dataset / "labels.jsonl"),
         "--report", str(paths.infer / "report.jsonl"),
         "--out", str(paths.report)],
    )
    report = [
        json.loads(line)
        for line in (paths.infer / "report.jsonl").read_text().splitlines()
    ]
    return SimpleNamespace(
        paths=paths, timings=timings, data=load(paths.dataset), report=report
    )


def test_trained_selector_beats_every_fixed_explorer(pipeline, capsys):
    manifest = pipeline.data.manifest
    _features, labels, score_rows = pipeline.data.matrices("inference")
    assert len(manifest.train_ids) == 40
    assert len(manifest.inference_ids) == 20
    assert [r["benchmark_id"] for r in pipeline.report] == list(manifest.inference_ids)
    selected = np.array([r["selected_code"] for r in pipeline.report])
    selected_adrs = np.array([r["selected_adrs"] for r in pipeline.report])
    assert (selected_adrs == score_rows[np.arange(len(selected)), selected]).all()
    mean_selected = float(selected_adrs.mean())
    fixed_means = score_rows.mean(axis=0)
    best_fixed = float(fixed_means.min())
    top1 = float((selected == labels).mean())
    total = sum(pipeline.timings.values())
    ok = mean_selected <= best_fixed and top1 >= 0.5 and total < 900.0
    _verdict(
        capsys, 4, "selector vs best fixed explorer", ok,
        f"held-out mean adrs {mean_selected:.6f} <= best fixed "
        f"{ExplorerId(int(fixed_means.argmin())).name.lower()} {best_fixed:.6f}, "
        f"top-1 {top1:.2f} >= 0.5, pipeline {total:.0f}s < 900s",
    )
    assert mean_selected <= best_fixed
    assert top1 >= 0.5
    assert total < 900.0


def test_hybrid_policy_matches_or_beats_supervised_head(pipeline, capsys):
    checkpoint = (pipeline.paths.train / CHECKPOINT_FILE).read_text(encoding="utf-8")
    head = load_selector(checkpoint.splitlines())[0].head
    features, labels, _rows = pipeline.data.matrices("inference")
    supervised_picks = np.argmax(head.logits(features), axis=1)
    supervised_accuracy = float((supervised_picks == labels).mean())
    hybrid_picks = np.array([r["selected_code"] for r in pipeline.report])
    hybrid_accuracy = float((hybrid_picks == labels).mean())
    ok = hybrid_accuracy >= supervised_accuracy
    _verdict(
        capsys, 5, "hybrid vs supervised-only accuracy", ok,
        f"held-out top-1: hybrid {hybrid_accuracy:.2f} >= "
        f"supervised argmax {supervised_accuracy:.2f}",
    )
    assert hybrid_accuracy >= supervised_accuracy


# -- 6: advantage estimator closed forms --------------------------------------------


def test_advantage_estimator_matches_closed_forms(capsys):
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        rewards = (rng.normal(size=n) * rng.uniform(0.1, 10.0)).tolist()
        values = rng.normal(size=n).tolist()
        bootstrap = float(rng.normal())
        gamma = float(rng.uniform(0.5, 1.0))

        # smoothing 0: advantages collapse to one-step temporal differences
        adv, returns = gae(rewards, values, gamma=gamma, lam=0.0, bootstrap=bootstrap)
        next_values = values[1:] + [bootstrap]
        deltas = [rewards[t] + gamma * next_values[t] - values[t] for t in range(n)]
        worst = max(worst, float(np.abs(adv - np.array(deltas)).max()))
        worst = max(worst, float(np.abs(returns - (adv + np.array(values))).max()))

        # smoothing 1: advantages are full discounted returns minus the values
        adv, returns = gae(rewards, values, gamma=gamma, lam=1.0, bootstrap=bootstrap)
        tails = []
        for t in range(n):
            tail = bootstrap
            for k in reversed(range(t, n)):
                tail = rewards[k] + gamma * tail
            tails.append(tail - values[t])
        worst = max(worst, float(np.abs(adv - np.array(tails)).max()))
        worst = max(worst, float(np.abs(returns - (adv + np.array(values))).max()))

        # arbitrary smoothing against the direct double-sum oracle
        lam = float(rng.uniform())
        adv, _ = gae(rewards, values, gamma=gamma, lam=lam, bootstrap=bootstrap)
        naive = naive_discounted_advantages(rewards, values, bootstrap, gamma, lam)
        worst = max(worst, float(np.abs(adv - np.array(naive)).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(
        capsys, 6, "advantage estimator closed forms", ok,
        f"1000 episodes, worst abs gap {worst:.2e} <= 1e-12, {elapsed:.1f}s < 5s",
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


# -- 7: byte-identical reruns, serial vs parallel ------------------------------------


def test_pipeline_reruns_are_byte_identical(pipeline, capsys):
    rerun_dataset = pipeline.paths.root / "dataset-rerun"
    rerun_train = pipeline.paths.root / "train-rerun"
    start = time.perf_counter()
    assert main(
        ["synth", "--families", ALL_FAMILY_NAMES, "--seeds", "0..11",
         "--size", "medium", "--out", str(rerun_dataset)]
    ) == 0
    assert main(
        ["run", "--dataset", str(rerun_dataset), "--budget", "500",
         "--master-seed", "0", "--split-fraction", "0.67", "--workers", "1"]
    ) == 0
    assert main(
        ["train", "--dataset", str(rerun_dataset), "--seed", "0",
         "--out", str(rerun_train)]
    ) == 0
    elapsed = time.perf_counter() - start
    pairs = [
        (pipeline.paths.dataset / name, rerun_dataset / name)
        for name in ("instances.jsonl", "runs.jsonl", "labels.jsonl", "manifest.json")
    ] + [
        (pipeline.paths.train / name, rerun_train / name)
        for name in (CHECKPOINT_FILE, SUPERVISED_CURVE_FILE, RL_CURVE_FILE)
    ]
    differing = [first.name for first, second in pairs if first.read_bytes() != second.read_bytes()]
    ok = not differing and elapsed < 900.0
    _verdict(
        capsys, 7, "deterministic reruns (workers 1 vs 4)", ok,
        f"{len(pairs)} files byte-identical across independent reruns, "
        f"serial rerun {elapsed:.0f}s < 900s",
    )
    assert differing == []
    assert elapsed < 900.0


# -- 8: every explorer honors its evaluation budget ----------------------------------


def test_every_explorer_respects_the_evaluation_budget(capsys):
    rng = np.random.default_rng(808)
    start = time.perf_counter()
    families = list(Family)
    size_classes = ("small", "medium")
    budget_violations = 0
    count_mismatches = 0
    for _ in range(100):
        instance = synth_instance(
            families[int(rng.integers(len(families)))],
            int(rng.integers(50)),
            size_classes[int(rng.integers(2))],
        )
        explorer = ExplorerId(int(rng.integers(N_EXPLORERS)))
        budget = int(rng.integers(1, 2001))
        counting = CountingModel(SurrogateModel.from_instance(instance))
        result = explore(
            explorer, instance, counting, Budget(budget), seed=int(rng.integers(1 << 16))
        )
        if not 1 <= result.evaluations_used <= budget:
            budget_violations += 1
        if counting.calls != result.evaluations_used:
            count_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = budget_violations == 0 and count_mismatches == 0 and elapsed < 120.0
    _verdict(
        capsys, 8, "evaluation budget law", ok,
        f"100 random (benchmark, explorer, budget) triples, budgets 1..2000, "
        f"{budget_violations} over budget, {count_mismatches} count mismatches, "
        f"{elapsed:.0f}s < 120s",
    )
    assert budget_violations == 0
    assert count_mismatches == 0
    assert elapsed < 120.0
