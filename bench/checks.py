"""Output checks for one finished dsekit pipeline, computed apart from the program.

Each check re-derives what a pipeline file must say: brute-force dominance, a
double-loop ADRS against a reference front built here, the lowest-code argmin,
and an FNV-1a written here. Only the cost model (`SurrogateModel`) comes from
the program, because it defines the objectives the explorers were asked to
find. A check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The method's reference rule: spaces up to this size are scored against the
# true front found by full enumeration, larger ones against the union of the
# ten explorers' fronts.
EXHAUSTIVE_LIMIT = 4096
ADRS_TOLERANCE = 1e-9
ZERO_EPS = 1e-9
N_EXPLORERS = 10
COMPARED_FILES = (
    "instances.jsonl",
    "runs.jsonl",
    "labels.jsonl",
    "manifest.json",
    "sel/checkpoint.txt",
    "sel/supervised_loss.csv",
    "sel/rl_reward.csv",
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64_hex(data: bytes) -> str:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return f"{h:016x}"


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Outputs:
    """The files of one pipeline round: dataset, selector, infer and report."""

    root: Path
    budget: int
    instances: list[dict]
    runs: list[dict]
    labels: list[dict]
    manifest: dict
    checkpoint_header: dict[str, str]
    supervised_curve: list[dict]
    rl_curve: list[dict]
    report: list[dict]
    accuracy: list[dict]

    @staticmethod
    def load(root: Path, budget: int) -> "Outputs":
        header = (root / "sel" / "checkpoint.txt").read_text(encoding="utf-8").split("\n", 1)[0]
        return Outputs(
            root=root,
            budget=budget,
            instances=_jsonl(root / "instances.jsonl"),
            runs=_jsonl(root / "runs.jsonl"),
            labels=_jsonl(root / "labels.jsonl"),
            manifest=json.loads((root / "manifest.json").read_text(encoding="utf-8")),
            checkpoint_header=dict(t.split("=", 1) for t in header.split()[1:] if "=" in t),
            supervised_curve=_csv(root / "sel" / "supervised_loss.csv"),
            rl_curve=_csv(root / "sel" / "rl_reward.csv"),
            report=_jsonl(root / "inf" / "report.jsonl"),
            accuracy=_csv(root / "csv" / "accuracy.csv"),
        )

    def cards(self) -> dict[str, tuple[int, ...]]:
        return {r["id"]: tuple(int(k["cardinality"]) for k in r["schema"]) for r in self.instances}

    def models(self) -> dict:
        from dsekit.benchmarks import instance_from_record
        from dsekit.surrogate import SurrogateModel

        return {
            r["id"]: SurrogateModel.from_instance(instance_from_record(r)) for r in self.instances
        }


# -- Pareto and ADRS, written from the definitions ----------------------------


def _objectives(front: list[dict]) -> list[tuple[float, float]]:
    return [(float(p["area"]), float(p["latency"])) for p in front]


def nondominated(objs) -> list[tuple[float, float]]:
    """Distinct (area, latency) pairs that no other pair dominates, all pairs tested."""
    pts = np.array(sorted(set(objs)), dtype=float).reshape(-1, 2)
    keep = np.ones(len(pts), dtype=bool)
    for lo in range(0, len(pts), 512):
        block = pts[lo : lo + 512, None, :]
        no_worse = (pts[None, :, :] <= block).all(axis=2)
        better = (pts[None, :, :] < block).any(axis=2)
        keep[lo : lo + 512] = ~(no_worse & better).any(axis=1)
    return [tuple(p) for p in pts[keep].tolist()]


def adrs_naive(reference, approx) -> float:
    total = 0.0
    for ra, rl in reference:
        da = ra if ra > 0.0 else ZERO_EPS
        dl = rl if rl > 0.0 else ZERO_EPS
        total += min(max(0.0, (aa - ra) / da, (al - rl) / dl) for aa, al in approx)
    return total / len(reference)


def reference_fronts(out: Outputs) -> dict[str, list[tuple[float, float]]]:
    cards, models = out.cards(), out.models()
    fronts: dict[str, list] = {}
    for row in out.runs:
        fronts.setdefault(row["benchmark_id"], []).extend(_objectives(row["front"]))
    reference = {}
    for benchmark_id, card in cards.items():
        if math.prod(card) <= EXHAUSTIVE_LIMIT:
            evaluate = models[benchmark_id].evaluate_knobs
            objs = []
            for knobs in itertools.product(*(range(c) for c in card)):
                o = evaluate(knobs)
                objs.append((o.area, o.latency))
        else:
            objs = fronts.get(benchmark_id, [])
        reference[benchmark_id] = nondominated(objs) if objs else []
    return reference


# -- the checks -----------------------------------------------------------------


def check_fronts_nondominated(out: Outputs) -> list[str]:
    problems = []
    for row in out.runs:
        objs = _objectives(row["front"])
        for i, p in enumerate(objs):
            for j, q in enumerate(objs):
                if i != j and q[0] <= p[0] and q[1] <= p[1]:
                    problems.append(
                        f"{row['benchmark_id']}/{row['explorer_code']}: front point {p} "
                        f"dominated or duplicated by {q}"
                    )
    return problems


def check_fronts_in_schema(out: Outputs) -> list[str]:
    cards = out.cards()
    problems = []
    for row in out.runs:
        card = cards.get(row["benchmark_id"])
        if card is None:
            problems.append(f"runs.jsonl names unknown benchmark {row['benchmark_id']}")
            continue
        if not row["front"]:
            problems.append(f"{row['benchmark_id']}/{row['explorer_code']}: empty front")
        for p in row["front"]:
            knobs = p["knobs"]
            if len(knobs) != len(card) or any(
                not isinstance(k, int) or not 0 <= k < c for k, c in zip(knobs, card)
            ):
                problems.append(f"{row['benchmark_id']}: knobs {knobs} outside schema {card}")
    return problems


def check_fronts_objectives(out: Outputs) -> list[str]:
    models = out.models()
    problems = []
    for row in out.runs:
        model = models[row["benchmark_id"]]
        for p in row["front"]:
            fresh = model.evaluate_knobs(tuple(p["knobs"]))
            if (fresh.area, fresh.latency) != (p["area"], p["latency"]):
                problems.append(
                    f"{row['benchmark_id']}: stored {(p['area'], p['latency'])} for {p['knobs']}, "
                    f"model gives {(fresh.area, fresh.latency)}"
                )
    return problems


def check_adrs(out: Outputs) -> list[str]:
    reference = reference_fronts(out)
    problems = []
    for row in out.runs:
        ref = reference[row["benchmark_id"]]
        approx = _objectives(row["front"])
        if not ref or not approx:
            problems.append(f"{row['benchmark_id']}/{row['explorer_code']}: empty front")
            continue
        expected = adrs_naive(ref, approx)
        if abs(expected - row["adrs"]) > ADRS_TOLERANCE:
            problems.append(
                f"{row['benchmark_id']}/{row['explorer_code']}: ADRS {row['adrs']!r}, "
                f"recomputed {expected!r}"
            )
    return problems


def check_evaluations(out: Outputs) -> list[str]:
    return [
        f"{row['benchmark_id']}/{row['explorer_code']}: {row['evaluations_used']} evaluations "
        f"outside [1, {out.budget}]"
        for row in out.runs
        if not 1 <= row["evaluations_used"] <= out.budget
    ]


def check_small_spaces(out: Outputs) -> list[str]:
    sizes = {benchmark_id: math.prod(card) for benchmark_id, card in out.cards().items()}
    problems = []
    for row in out.runs:
        size = sizes[row["benchmark_id"]]
        if size <= out.budget and (row["evaluations_used"] != size or row["adrs"] != 0.0):
            problems.append(
                f"{row['benchmark_id']}/{row['explorer_code']}: space {size} fits the budget "
                f"but {row['evaluations_used']} evaluations, ADRS {row['adrs']!r}"
            )
    return problems


def check_labels(out: Outputs) -> list[str]:
    rows: dict[str, dict[int, float]] = {}
    for run in out.runs:
        rows.setdefault(run["benchmark_id"], {})[int(run["explorer_code"])] = run["adrs"]
    problems = []
    labelled = [label["benchmark_id"] for label in out.labels]
    if sorted(labelled) != sorted(r["id"] for r in out.instances):
        problems.append(f"labels cover {sorted(labelled)}, instances differ")
    for label in out.labels:
        row = label["adrs_row"]
        cells = rows.get(label["benchmark_id"], {})
        if sorted(cells) != list(range(N_EXPLORERS)) or row != [cells[c] for c in range(N_EXPLORERS)]:
            problems.append(f"{label['benchmark_id']}: label row differs from runs.jsonl")
            continue
        best = min(range(N_EXPLORERS), key=lambda c: (row[c], c))
        if label["label_code"] != best:
            problems.append(
                f"{label['benchmark_id']}: label {label['label_code']}, lowest-code argmin {best}"
            )
    return problems


def check_hashes(out: Outputs) -> list[str]:
    problems = []
    digests = {}
    for name in ("instances.jsonl", "runs.jsonl", "labels.jsonl"):
        digests[name] = fnv1a64_hex((out.root / name).read_bytes())
        stated = out.manifest["hashes"].get(name)
        if stated != digests[name]:
            problems.append(f"manifest hash of {name} is {stated}, file hashes to {digests[name]}")
    fingerprint = fnv1a64_hex("".join(digests.values()).encode("utf-8"))
    if out.checkpoint_header.get("fingerprint") != fingerprint:
        problems.append(
            f"checkpoint fingerprint {out.checkpoint_header.get('fingerprint')}, data files give {fingerprint}"
        )
    return problems


def check_training_curves(out: Outputs) -> list[str]:
    problems = []
    for rows, column, epochs_key in (
        (out.supervised_curve, "loss", "supervised_epochs"),
        (out.rl_curve, "mean_reward", "rl_epochs"),
    ):
        values = [float(r[column]) for r in rows]
        epochs = int(out.checkpoint_header.get(epochs_key, -1))
        if [int(r["epoch"]) for r in rows] != list(range(epochs)):
            problems.append(f"{column} curve has {len(rows)} rows, checkpoint says {epochs} epochs")
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{column} curve holds a non-finite value")
    loss = [float(r["loss"]) for r in out.supervised_curve]
    if len(loss) < 2 or not loss[-1] < loss[0]:
        problems.append(f"supervised loss does not descend: {loss[:1]} -> {loss[-1:]}")
    return problems


def check_report(out: Outputs) -> list[str]:
    label_rows = {label["benchmark_id"]: label["adrs_row"] for label in out.labels}
    problems = []
    if sorted(r["benchmark_id"] for r in out.report) != sorted(out.manifest["inference_ids"]):
        problems.append("report rows do not cover exactly the inference split")
    for r in out.report:
        row = r["adrs_row"]
        if row != label_rows.get(r["benchmark_id"]):
            problems.append(f"{r['benchmark_id']}: report row differs from labels.jsonl")
            continue
        regret = row[r["selected_code"]] - min(row)
        if r["selected_adrs"] != row[r["selected_code"]] or r["regret"] != regret or regret < 0.0:
            problems.append(
                f"{r['benchmark_id']}: regret {r['regret']!r}, selected - best gives {regret!r}"
            )
    return problems


def check_accuracy(out: Outputs) -> list[str]:
    expected: dict[str, list[int]] = {"overall": [0, 0]}
    for r in out.report:
        correct = int(r["regret"] == 0.0)
        for scope in ("overall", r["benchmark_id"].split("-")[0]):
            expected.setdefault(scope, [0, 0])
            expected[scope][0] += correct
            expected[scope][1] += 1
    stated = {row["scope"]: [int(row["correct"]), int(row["total"])] for row in out.accuracy}
    if stated != expected:
        return [f"accuracy.csv counts {stated}, zero-regret rows give {expected}"]
    return []


CHECKS = {
    "fronts_nondominated": check_fronts_nondominated,
    "fronts_in_schema": check_fronts_in_schema,
    "fronts_objectives": check_fronts_objectives,
    "adrs_reference": check_adrs,
    "evaluations_in_budget": check_evaluations,
    "small_spaces_exhaustive": check_small_spaces,
    "labels_argmin": check_labels,
    "hashes": check_hashes,
    "training_curves": check_training_curves,
    "report_regret": check_report,
    "accuracy_counts": check_accuracy,
}


def run_checks(root: Path, budget: int) -> dict[str, list[str]]:
    """Every check on one round directory; a crash counts as a problem."""
    try:
        out = Outputs.load(root, budget)
    except (OSError, ValueError, KeyError) as exc:
        return {name: [f"outputs unreadable: {exc!r}"] for name in CHECKS}
    results = {}
    for name, check in CHECKS.items():
        try:
            results[name] = check(out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            results[name] = [f"check crashed on malformed output: {exc!r}"]
    return results


def compare_files(left: Path, right: Path) -> list[str]:
    """Byte-identity of the files the determinism contract covers."""
    problems = []
    for name in COMPARED_FILES:
        a, b = left / name, right / name
        if not a.exists() or not b.exists() or a.read_bytes() != b.read_bytes():
            problems.append(f"{name} differs between {left.name} and {right.name}")
    return problems
