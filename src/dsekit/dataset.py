"""Dataset generation: portfolio runs over instance suites, labels, and files.

A generated dataset is four files in one directory. instances.jsonl holds the
benchmarks themselves, runs.jsonl one line per (benchmark, explorer) with the
score and the found front, labels.jsonl the per-benchmark winner, and
manifest.json the configuration echo, the train/inference split, and FNV-1a
content hashes of the other three. The manifest is written last, so a
directory with a manifest is complete, and every float is serialized with 17
significant digits, so loading reproduces generation bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .benchmarks import (
    BenchmarkInstance,
    Family,
    extract_features,
    instance_from_record,
    instance_to_record,
    synth_instance,
)
from .blas import use_one_blas_thread
from .explorers import (
    Budget,
    ExplorationResult,
    ExplorerId,
    PortfolioResult,
    explore,
    portfolio_seed,
    run_portfolio,
    score_results,
)
from .hashing import fnv1a64_hex, mix64
from .pareto import DesignPoint, ObjectiveVector, pareto_filter
from .surrogate import SurrogateModel

_SPLIT_TAG = 0xD5E7

INSTANCES_FILE = "instances.jsonl"
RUNS_FILE = "runs.jsonl"
LABELS_FILE = "labels.jsonl"
MANIFEST_FILE = "manifest.json"
DATA_FILES = (INSTANCES_FILE, RUNS_FILE, LABELS_FILE)

N_EXPLORERS = len(ExplorerId)


# -- canonical serialization -----------------------------------------------------


def canonical_json(value) -> str:
    """Deterministic JSON text with floats at 17 significant digits.

    The standard serializer renders floats with shortest-round-trip repr;
    this one pins the format instead so emitted bytes are stable across
    Python versions, which the manifest hashes rely on.
    """
    out: list[str] = []
    _emit(value, out)
    return "".join(out)


def _emit(value, out: list[str]) -> None:
    if value is None or isinstance(value, bool):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite number {value!r}")
        text = format(value, ".17g")
        out.append(text)
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key) + ":")
            _emit(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)) or isinstance(value, np.ndarray):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


# -- domain types -----------------------------------------------------------------


@dataclass(frozen=True)
class DatasetConfig:
    """What to synthesize and how to run it."""

    families: tuple[Family, ...] = tuple(Family)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    size_class: str = "medium"
    budget: int = 500
    master_seed: int = 0
    split_fraction: float = 0.69

    def __post_init__(self) -> None:
        if not self.families or not self.seeds:
            raise ValueError("config needs at least one family and one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("duplicate seeds would create duplicate benchmark ids")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError(f"split fraction must lie in (0,1), got {self.split_fraction}")
        Budget(self.budget)  # reuse its validation


@dataclass(frozen=True)
class PerformanceTable:
    """Per-benchmark scores for all ten explorers, with run costs."""

    adrs: dict[str, tuple[float, ...]]
    evaluations: dict[str, tuple[int, ...]]
    wall_seconds: dict[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        for benchmark_id, row in self.adrs.items():
            if len(row) != N_EXPLORERS:
                raise ValueError(f"incomplete score row for {benchmark_id}")
            if any(not math.isfinite(v) or v < 0.0 for v in row):
                raise ValueError(f"invalid score in row for {benchmark_id}")

    def row(self, benchmark_id: str) -> tuple[float, ...]:
        try:
            return self.adrs[benchmark_id]
        except KeyError:
            raise KeyError(f"no performance row for benchmark {benchmark_id}") from None

    def score(self, benchmark_id: str, explorer: ExplorerId) -> float:
        return self.row(benchmark_id)[ExplorerId(explorer).value]


@dataclass(frozen=True)
class LabeledSample:
    """One training example: benchmark features and its winning explorer."""

    benchmark_id: str
    features: tuple[float, ...]
    label: int
    adrs_row: tuple[float, ...]

    def __post_init__(self) -> None:
        row = self.adrs_row
        best = min(row)
        expected = min(i for i, v in enumerate(row) if v == best)
        if self.label != expected:
            raise ValueError(
                f"label {self.label} is not the lowest-code minimizer for {self.benchmark_id}"
            )


@dataclass(frozen=True)
class DatasetManifest:
    """Configuration echo, split, and content hashes of the data files."""

    master_seed: int
    budget: int
    size_class: str
    families: tuple[str, ...]
    seeds: tuple[int, ...]
    split_fraction: float
    train_ids: tuple[str, ...]
    inference_ids: tuple[str, ...]
    hashes: dict[str, str]

    def __post_init__(self) -> None:
        if set(self.train_ids) & set(self.inference_ids):
            raise ValueError("train and inference splits overlap")

    def to_record(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "budget": self.budget,
            "size_class": self.size_class,
            "families": list(self.families),
            "seeds": list(self.seeds),
            "split_fraction": self.split_fraction,
            "train_ids": list(self.train_ids),
            "inference_ids": list(self.inference_ids),
            "hashes": dict(self.hashes),
        }

    @staticmethod
    def from_record(record: dict) -> "DatasetManifest":
        return DatasetManifest(
            master_seed=int(record["master_seed"]),
            budget=int(record["budget"]),
            size_class=str(record["size_class"]),
            families=tuple(record["families"]),
            seeds=tuple(int(s) for s in record["seeds"]),
            split_fraction=float(record["split_fraction"]),
            train_ids=tuple(record["train_ids"]),
            inference_ids=tuple(record["inference_ids"]),
            hashes=dict(record["hashes"]),
        )


@dataclass(frozen=True)
class Dataset:
    """Everything a training or reporting stage needs, in memory."""

    instances: tuple[BenchmarkInstance, ...]
    features: dict[str, tuple[float, ...]]
    table: PerformanceTable
    samples: tuple[LabeledSample, ...]
    manifest: DatasetManifest

    def split(self, which: str) -> tuple[LabeledSample, ...]:
        ids = {"train": self.manifest.train_ids, "inference": self.manifest.inference_ids}[which]
        by_id = {s.benchmark_id: s for s in self.samples}
        return tuple(by_id[i] for i in ids)

    def matrices(self, which: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(features, labels, score rows) for one split, in manifest order."""
        samples = self.split(which)
        return (
            np.array([s.features for s in samples]),
            np.array([s.label for s in samples]),
            np.array([s.adrs_row for s in samples]),
        )


# -- generation --------------------------------------------------------------------


def instance_master_seed(master_seed: int, instance: BenchmarkInstance) -> int:
    """Portfolio seed for one instance, independent of suite composition."""
    return mix64(master_seed, instance.family.value, instance.seed)


def synth_suite(config: DatasetConfig) -> tuple[BenchmarkInstance, ...]:
    """All configured instances, family-major then seed-ascending."""
    return tuple(
        synth_instance(family, seed, config.size_class)
        for family in config.families
        for seed in sorted(config.seeds)
    )


def _explore_cell(
    instance: BenchmarkInstance, code: int, budget_evaluations: int, seed: int
) -> ExplorationResult:
    """One (benchmark, explorer) run; the unit of worker parallelism."""
    model = SurrogateModel.from_instance(instance)
    return explore(ExplorerId(code), instance, model, Budget(budget_evaluations), seed)


def run_suite(
    instances: Sequence[BenchmarkInstance],
    budget: int,
    master_seed: int,
    workers: int = 1,
) -> list[PortfolioResult]:
    """Portfolio results per instance, identical for any worker count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    portfolios: list[PortfolioResult] = []
    if workers == 1:
        for instance in instances:
            model = SurrogateModel.from_instance(instance)
            portfolios.append(
                run_portfolio(instance, model, Budget(budget), instance_master_seed(master_seed, instance))
            )
        return portfolios
    tasks = [
        (
            i,
            explorer,
            (
                instance,
                explorer.value,
                budget,
                portfolio_seed(instance_master_seed(master_seed, instance), explorer),
            ),
        )
        for i, instance in enumerate(instances)
        for explorer in ExplorerId
    ]
    cells: dict[tuple[int, int], ExplorationResult] = {}
    with ProcessPoolExecutor(max_workers=workers, initializer=use_one_blas_thread) as pool:
        futures = [
            (i, explorer, pool.submit(_explore_cell, *args)) for i, explorer, args in tasks
        ]
        for i, explorer, future in futures:
            try:
                cells[(i, explorer.value)] = future.result()
            except Exception as err:
                raise RuntimeError(
                    f"explorer {explorer.name} failed on {instances[i].id}"
                ) from err
    for i, instance in enumerate(instances):
        results = tuple(cells[(i, explorer.value)] for explorer in ExplorerId)
        model = SurrogateModel.from_instance(instance)
        portfolios.append(score_results(instance, model, results))
    return portfolios


def split_ids(
    instance_ids: Sequence[str], split_fraction: float, master_seed: int
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Seeded shuffle split; the train side gets floor(fraction * n) ids."""
    rng = np.random.default_rng(np.random.SeedSequence([_SPLIT_TAG, master_seed & (2**64 - 1)]))
    order = rng.permutation(len(instance_ids))
    n_train = int(math.floor(split_fraction * len(instance_ids)))
    train = tuple(sorted(instance_ids[i] for i in order[:n_train]))
    inference = tuple(sorted(instance_ids[i] for i in order[n_train:]))
    return train, inference


# -- persistence --------------------------------------------------------------------


def _instance_line(instance: BenchmarkInstance, size_class: str, features: Iterable[float]) -> dict:
    record = instance_to_record(instance, size_class)
    record["feature_vector"] = list(features)
    return record


def _run_line(benchmark_id: str, result: ExplorationResult) -> dict:
    return {
        "benchmark_id": benchmark_id,
        "explorer_code": result.explorer.value,
        "adrs": float(result.adrs),
        "evaluations_used": result.evaluations_used,
        "wall_seconds": float(result.wall_seconds),
        "front": [
            {
                "knobs": list(p.knobs),
                "area": p.objectives.area,
                "latency": p.objectives.latency,
            }
            for p in result.front.points
        ],
    }


def _label_line(benchmark_id: str, label: int, adrs_row: Sequence[float]) -> dict:
    return {
        "benchmark_id": benchmark_id,
        "label_code": int(label),
        "adrs_row": [float(v) for v in adrs_row],
    }


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_jsonl(path: Path, records: Iterable[dict]) -> str:
    """Write one canonical-JSON object per line; returns the content hash."""
    text = "".join(canonical_json(record) + "\n" for record in records)
    _write_atomic(path, text)
    return fnv1a64_hex(text.encode("utf-8"))


def persist_instances(
    out_dir: Path,
    instances: Sequence[BenchmarkInstance],
    size_class: str,
    feature_map: dict[str, tuple[float, ...]],
) -> str:
    """Write instances.jsonl; returns its content hash."""
    return write_jsonl(
        out_dir / INSTANCES_FILE,
        (_instance_line(inst, size_class, feature_map[inst.id]) for inst in instances),
    )


def read_instances(
    path: Path,
) -> tuple[tuple[BenchmarkInstance, ...], dict[str, tuple[float, ...]], list[dict]]:
    """Parse instances.jsonl into objects, features, and the raw records.

    A suite has unique benchmark ids and one size class; a file that breaks
    either is rejected with its path and line number.
    """
    if not path.exists():
        raise FileNotFoundError(f"dataset file missing: {path}")
    instances: list[BenchmarkInstance] = []
    feature_map: dict[str, tuple[float, ...]] = {}
    records: list[dict] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        record = json.loads(line)
        if record["id"] in feature_map:
            raise ValueError(f"{path}:{lineno}: duplicate benchmark id {record['id']!r}")
        if records and record["size_class"] != records[0]["size_class"]:
            raise ValueError(
                f"{path}:{lineno}: size class {record['size_class']!r} differs from "
                f"{records[0]['size_class']!r} on line 1; a suite has one size class"
            )
        instances.append(instance_from_record(record))
        feature_map[record["id"]] = tuple(float(v) for v in record["feature_vector"])
        records.append(record)
    return tuple(instances), feature_map, records


def persist_results(
    out_dir: Path,
    instances: Sequence[BenchmarkInstance],
    portfolios: Sequence[PortfolioResult],
    feature_map: dict[str, tuple[float, ...]],
    *,
    instances_hash: str,
    master_seed: int,
    budget: int,
    size_class: str,
    families: Sequence[str],
    seeds: Sequence[int],
    split_fraction: float,
) -> Dataset:
    """Write runs, labels, and the manifest; returns the in-memory dataset.

    Any failure removes the three files this call owns, so a directory that
    contains manifest.json is always complete.
    """
    out = Path(out_dir)
    hashes: dict[str, str] = {INSTANCES_FILE: instances_hash}
    try:
        hashes[RUNS_FILE] = write_jsonl(
            out / RUNS_FILE,
            (
                _run_line(inst.id, result)
                for inst, portfolio in zip(instances, portfolios)
                for result in portfolio.results
            ),
        )
        samples = tuple(
            LabeledSample(
                benchmark_id=inst.id,
                features=feature_map[inst.id],
                label=portfolio.argmin.value,
                adrs_row=portfolio.adrs_values,
            )
            for inst, portfolio in zip(instances, portfolios)
        )
        hashes[LABELS_FILE] = write_jsonl(
            out / LABELS_FILE, (_label_line(s.benchmark_id, s.label, s.adrs_row) for s in samples)
        )
        train_ids, inference_ids = split_ids(
            [inst.id for inst in instances], split_fraction, master_seed
        )
        manifest = DatasetManifest(
            master_seed=master_seed,
            budget=budget,
            size_class=size_class,
            families=tuple(families),
            seeds=tuple(seeds),
            split_fraction=split_fraction,
            train_ids=train_ids,
            inference_ids=inference_ids,
            hashes=hashes,
        )
        _write_atomic(out / MANIFEST_FILE, canonical_json(manifest.to_record()) + "\n")
    except BaseException:
        for name in (RUNS_FILE, LABELS_FILE, MANIFEST_FILE):
            (out / name).unlink(missing_ok=True)
        raise
    table = PerformanceTable(
        adrs={inst.id: p.adrs_values for inst, p in zip(instances, portfolios)},
        evaluations={
            inst.id: tuple(r.evaluations_used for r in p.results)
            for inst, p in zip(instances, portfolios)
        },
        wall_seconds={
            inst.id: tuple(r.wall_seconds for r in p.results)
            for inst, p in zip(instances, portfolios)
        },
    )
    return Dataset(
        instances=tuple(instances),
        features=feature_map,
        table=table,
        samples=samples,
        manifest=manifest,
    )


def generate(config: DatasetConfig, out_dir: str | Path, workers: int = 1) -> Dataset:
    """Synthesize, run, label, split, and persist one dataset directory.

    Any failure removes the files written so far; a directory containing
    manifest.json is therefore always a complete dataset.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        instances = synth_suite(config)
        feature_map = {
            inst.id: tuple(float(v) for v in extract_features(inst)) for inst in instances
        }
        instances_hash = persist_instances(out, instances, config.size_class, feature_map)
        portfolios = run_suite(instances, config.budget, config.master_seed, workers)
        return persist_results(
            out,
            instances,
            portfolios,
            feature_map,
            instances_hash=instances_hash,
            master_seed=config.master_seed,
            budget=config.budget,
            size_class=config.size_class,
            families=tuple(f.name.lower() for f in config.families),
            seeds=tuple(sorted(config.seeds)),
            split_fraction=config.split_fraction,
        )
    except BaseException:
        for name in DATA_FILES + (MANIFEST_FILE,):
            (out / name).unlink(missing_ok=True)
        raise


def dataset_fingerprint(manifest: DatasetManifest) -> str:
    """Stable digest of the three data files, stamped into checkpoints."""
    joined = "".join(manifest.hashes[name] for name in DATA_FILES)
    return fnv1a64_hex(joined.encode("utf-8"))


# -- loading ------------------------------------------------------------------------


def _read_verified(directory: Path, name: str, expected_hash: str) -> str:
    path = directory / name
    if not path.exists():
        raise FileNotFoundError(f"dataset file missing: {path}")
    text = path.read_text(encoding="utf-8")
    actual = fnv1a64_hex(text.encode("utf-8"))
    if actual != expected_hash:
        raise ValueError(
            f"dataset corrupted/stale: {name} hash {actual} does not match manifest {expected_hash}"
        )
    return text


def load(dataset_dir: str | Path) -> Dataset:
    """Rebuild a dataset from its directory, verifying every content hash."""
    directory = Path(dataset_dir)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(f"dataset manifest missing: {manifest_path}")
    manifest = DatasetManifest.from_record(json.loads(manifest_path.read_text(encoding="utf-8")))
    for name in DATA_FILES:
        if name not in manifest.hashes:
            raise ValueError(f"manifest lists no hash for {name}")
    texts = {name: _read_verified(directory, name, manifest.hashes[name]) for name in DATA_FILES}

    instances = []
    feature_map: dict[str, tuple[float, ...]] = {}
    for line in texts[INSTANCES_FILE].splitlines():
        record = json.loads(line)
        instances.append(instance_from_record(record))
        feature_map[record["id"]] = tuple(float(v) for v in record["feature_vector"])

    adrs_cells: dict[str, dict[int, float]] = {}
    evals_cells: dict[str, dict[int, int]] = {}
    wall_cells: dict[str, dict[int, float]] = {}
    for line in texts[RUNS_FILE].splitlines():
        record = json.loads(line)
        benchmark_id = record["benchmark_id"]
        code = int(record["explorer_code"])
        adrs_cells.setdefault(benchmark_id, {})[code] = float(record["adrs"])
        evals_cells.setdefault(benchmark_id, {})[code] = int(record["evaluations_used"])
        wall_cells.setdefault(benchmark_id, {})[code] = float(record["wall_seconds"])

    def dense(cells: dict[str, dict[int, float]], cast) -> dict[str, tuple]:
        out = {}
        for benchmark_id, row in cells.items():
            missing = [c for c in range(N_EXPLORERS) if c not in row]
            if missing:
                raise ValueError(
                    f"runs file incomplete: benchmark {benchmark_id} lacks explorer codes {missing}"
                )
            out[benchmark_id] = tuple(cast(row[c]) for c in range(N_EXPLORERS))
        return out

    table = PerformanceTable(
        adrs=dense(adrs_cells, float),
        evaluations=dense(evals_cells, int),
        wall_seconds=dense(wall_cells, float),
    )

    samples = []
    for line in texts[LABELS_FILE].splitlines():
        record = json.loads(line)
        benchmark_id = record["benchmark_id"]
        if benchmark_id not in feature_map:
            raise ValueError(f"labels reference unknown benchmark {benchmark_id}")
        samples.append(
            LabeledSample(
                benchmark_id=benchmark_id,
                features=feature_map[benchmark_id],
                label=int(record["label_code"]),
                adrs_row=tuple(float(v) for v in record["adrs_row"]),
            )
        )

    return Dataset(
        instances=tuple(instances),
        features=feature_map,
        table=table,
        samples=tuple(samples),
        manifest=manifest,
    )


def reconstruct_front(record: dict):
    """The stored front of one runs.jsonl record, as Pareto-layer objects."""
    points = tuple(
        DesignPoint(
            tuple(int(v) for v in entry["knobs"]),
            ObjectiveVector(area=float(entry["area"]), latency=float(entry["latency"])),
        )
        for entry in record["front"]
    )
    return pareto_filter(points)


__all__ = [
    "DATA_FILES",
    "INSTANCES_FILE",
    "LABELS_FILE",
    "MANIFEST_FILE",
    "RUNS_FILE",
    "Dataset",
    "DatasetConfig",
    "DatasetManifest",
    "LabeledSample",
    "PerformanceTable",
    "canonical_json",
    "dataset_fingerprint",
    "generate",
    "instance_master_seed",
    "load",
    "persist_instances",
    "persist_results",
    "read_instances",
    "reconstruct_front",
    "run_suite",
    "split_ids",
    "synth_suite",
    "write_jsonl",
]
