"""Datasets: portfolio runs over instance suites, labels, and their files.

A dataset is four files in one directory. `synth` writes instances.jsonl, the
benchmarks themselves. `run` adds runs.jsonl, one line per (benchmark,
explorer) with the score, the found front, the number of proposals and why
the run stopped; labels.jsonl, the per-benchmark winner; and manifest.json,
the configuration echo, the train/inference split, and FNV-1a content hashes
of the other three. The manifest is written last, so a directory with a
manifest is complete, and every float is serialized with 17 significant
digits, so `load` reproduces the run bit-exactly. `load` also checks every
stored front point against its benchmark's design space.

`run_suite` runs every (benchmark, explorer) cell through `explore` with the
benchmark's one surrogate model and then scores each benchmark. The worker
count decides only where cells run, so the files are identical for any count.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .benchmarks import (
    BenchmarkInstance,
    Family,
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

# The keys of a runs and a labels record that `check_runs_cover` reads
RUN_KEYS = ("benchmark_id", "explorer_code")
LABEL_KEYS = ("benchmark_id", "label_code", "adrs_row")


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
    """Which benchmark suite to synthesize."""

    families: tuple[Family, ...] = tuple(Family)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    size_class: str = "medium"

    def __post_init__(self) -> None:
        if not self.families or not self.seeds:
            raise ValueError("config needs at least one family and one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("duplicate seeds would create duplicate benchmark ids")


@dataclass(frozen=True)
class LabeledSample:
    """One training example: benchmark features and its winning explorer."""

    benchmark_id: str
    features: tuple[float, ...]
    label: int
    adrs_row: tuple[float, ...]


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
    """Everything a training or inference stage needs, in memory.

    `runs` holds the runs.jsonl records as parsed, after their hash matched
    the manifest.
    """

    instances: tuple[BenchmarkInstance, ...]
    runs: tuple[dict, ...]
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


# -- running -----------------------------------------------------------------------


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


def _explore_cell(task: tuple) -> ExplorationResult:
    """One (benchmark, explorer) run in a pool worker: `explore(*task)`.

    A function of its own rather than an alias, so that it calls whatever
    `explore` this module holds when the pool pickles it by name.
    """
    return explore(*task)


def run_suite(
    instances: Sequence[BenchmarkInstance],
    budget: int,
    master_seed: int,
    workers: int = 1,
) -> list[PortfolioResult]:
    """Portfolio results per instance, identical for any worker count.

    All cells run before any scoring: in process at one worker, in a pool of
    `workers` processes otherwise. Each benchmark's one model goes with its
    cells and is used again to score them.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    models = [SurrogateModel.from_instance(instance) for instance in instances]
    seeds = [instance_master_seed(master_seed, instance) for instance in instances]
    tasks = [
        (explorer, instance, model, Budget(budget), portfolio_seed(seed, explorer))
        for instance, model, seed in zip(instances, models, seeds)
        for explorer in ExplorerId
    ]
    if workers == 1:
        results = [explore(*task) for task in tasks]
    else:
        # imported here: one-worker runs and the other commands never need it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=use_one_blas_thread) as pool:
            results = list(pool.map(_explore_cell, tasks))
    n = len(ExplorerId)
    return [
        score_results(instance, model, tuple(results[i * n : (i + 1) * n]))
        for i, (instance, model) in enumerate(zip(instances, models))
    ]


def split_ids(
    benchmark_ids: Sequence[str], split_fraction: float, master_seed: int
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Seeded shuffle split; the train side gets floor(fraction * n) ids."""
    rng = np.random.default_rng(np.random.SeedSequence([_SPLIT_TAG, master_seed & (2**64 - 1)]))
    order = rng.permutation(len(benchmark_ids))
    n_train = int(math.floor(split_fraction * len(benchmark_ids)))
    train = tuple(sorted(benchmark_ids[i] for i in order[:n_train]))
    inference = tuple(sorted(benchmark_ids[i] for i in order[n_train:]))
    return train, inference


# -- persistence --------------------------------------------------------------------


def _instance_line(instance: BenchmarkInstance, size_class: str, features: Iterable[float]) -> dict:
    record = instance_to_record(instance, size_class)
    record["feature_vector"] = list(features)
    return record


def _run_line(benchmark_id: str, result: ExplorationResult, adrs_value: float) -> dict:
    return {
        "benchmark_id": benchmark_id,
        "explorer_code": result.explorer.value,
        "adrs": float(adrs_value),
        "evaluations_used": result.evaluations_used,
        "proposals": result.proposals,
        "stop_reason": result.stop_reason,
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


def read_jsonl(path: Path, text: str | None = None, keys: Sequence[str] = ()) -> list[dict]:
    """The JSON objects of a JSONL file, one per line; reads the file unless given its text.

    A line that is not a JSON object, or whose object lacks one of `keys`, is
    rejected with the path and line number.
    """
    if text is None:
        if not path.exists():
            raise FileNotFoundError(f"input file missing: {path}")
        text = path.read_text(encoding="utf-8")
    records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}:{lineno}: {err.msg} at column {err.colno}") from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object")
        for key in keys:
            if key not in record:
                raise ValueError(f"{path}:{lineno}: missing key {key!r}")
        records.append(record)
    return records


def read_instances(
    path: Path, text: str | None = None
) -> tuple[tuple[BenchmarkInstance, ...], dict[str, tuple[float, ...]], list[dict]]:
    """Parse instances.jsonl into objects, features, and the raw records.

    A suite has unique benchmark ids and one size class; a file that breaks
    either is rejected with its path and line number.
    """
    instances: list[BenchmarkInstance] = []
    feature_map: dict[str, tuple[float, ...]] = {}
    records = read_jsonl(path, text)
    for lineno, record in enumerate(records, 1):
        if record["id"] in feature_map:
            raise ValueError(f"{path}:{lineno}: duplicate benchmark id {record['id']!r}")
        if record["size_class"] != records[0]["size_class"]:
            raise ValueError(
                f"{path}:{lineno}: size class {record['size_class']!r} differs from "
                f"{records[0]['size_class']!r} on line 1; a suite has one size class"
            )
        instances.append(instance_from_record(record))
        feature_map[record["id"]] = tuple(float(v) for v in record["feature_vector"])
    return tuple(instances), feature_map, records


def _benchmark_id(record: dict, path: Path, lineno: int) -> str:
    benchmark_id = record["benchmark_id"]
    if type(benchmark_id) is not str:
        raise ValueError(f"{path}:{lineno}: benchmark_id must be a string, got {benchmark_id!r}")
    return benchmark_id


def check_runs_cover(
    runs: Iterable[dict], labels: Iterable[dict], runs_path: Path, labels_path: Path
) -> None:
    """Require one runs record of each of the ten explorers for every labelled benchmark,
    and each label's ten finite `adrs_row` values to have their first minimum at `label_code`.

    A `benchmark_id` that is not a string, an `explorer_code` that is not an
    integer in 0..9, a label that breaks the law above, a repeated (benchmark,
    explorer) in runs or a repeated benchmark in labels is rejected with its
    path and line number.
    """
    covered: set[tuple[str, int]] = set()
    for lineno, record in enumerate(runs, 1):
        benchmark_id, code = _benchmark_id(record, runs_path, lineno), record["explorer_code"]
        if type(code) is not int or not 0 <= code < len(ExplorerId):
            raise ValueError(
                f"{runs_path}:{lineno}: explorer_code must be an integer in 0..9, got {code!r}"
            )
        if (benchmark_id, code) in covered:
            raise ValueError(
                f"{runs_path}:{lineno}: repeated run of explorer code {code} on {benchmark_id}"
            )
        covered.add((benchmark_id, code))
    labelled: set[str] = set()
    for lineno, record in enumerate(labels, 1):
        benchmark_id = _benchmark_id(record, labels_path, lineno)
        if benchmark_id in labelled:
            raise ValueError(f"{labels_path}:{lineno}: repeated label of {benchmark_id}")
        labelled.add(benchmark_id)
        row = record["adrs_row"]
        if not (
            isinstance(row, list)
            and len(row) == len(ExplorerId)
            and all(type(v) in (int, float) and math.isfinite(v) for v in row)
        ):
            raise ValueError(
                f"{labels_path}:{lineno}: adrs_row of {benchmark_id} needs 10 finite numbers"
            )
        best = row.index(min(row))
        if type(record["label_code"]) is not int or record["label_code"] != best:
            raise ValueError(
                f"{labels_path}:{lineno}: label_code of {benchmark_id} is not {best}, "
                "the lowest index of the adrs_row minimum"
            )
        missing = [e.name.lower() for e in ExplorerId if (benchmark_id, e.value) not in covered]
        if missing:
            raise ValueError(
                f"{runs_path} has no run of {', '.join(missing)} on benchmark "
                f"{benchmark_id} named in {labels_path}:{lineno}"
            )


def _check_fronts_in_space(
    runs: Iterable[dict], instances: Sequence[BenchmarkInstance], runs_path: Path
) -> None:
    """Require every stored front point to lie in its benchmark's design space,
    with finite, non-negative numbers (not bools) as its area and latency."""
    schemas = {inst.id: inst.schema for inst in instances}
    for lineno, record in enumerate(runs, 1):
        schema = schemas.get(record["benchmark_id"])
        if schema is None:
            raise ValueError(f"{runs_path}:{lineno}: unknown benchmark {record['benchmark_id']}")
        for i, entry in enumerate(record["front"]):
            try:
                schema.validate_point(entry["knobs"])
                for key in ("area", "latency"):
                    value = entry.get(key)
                    if type(value) not in (int, float) or not 0.0 <= value < math.inf:
                        raise ValueError(f"{key} must be a finite number >= 0, got {value!r}")
            except ValueError as err:
                raise ValueError(
                    f"{runs_path}:{lineno}: front point {i} of {record['benchmark_id']}: {err}"
                ) from None


def persist_results(
    out_dir: Path,
    instances: Sequence[BenchmarkInstance],
    portfolios: Sequence[PortfolioResult],
    *,
    instances_hash: str,
    master_seed: int,
    budget: int,
    size_class: str,
    families: Sequence[str],
    seeds: Sequence[int],
    split_fraction: float,
) -> DatasetManifest:
    """Write runs, labels, and the manifest; returns the manifest.

    Any failure removes the three files this call owns, so a directory that
    contains manifest.json is always complete.
    """
    out = Path(out_dir)
    hashes: dict[str, str] = {INSTANCES_FILE: instances_hash}
    try:
        hashes[RUNS_FILE] = write_jsonl(
            out / RUNS_FILE,
            (
                _run_line(inst.id, result, value)
                for inst, portfolio in zip(instances, portfolios)
                for result, value in zip(portfolio.results, portfolio.adrs_values)
            ),
        )
        hashes[LABELS_FILE] = write_jsonl(
            out / LABELS_FILE,
            (
                _label_line(inst.id, portfolio.argmin.value, portfolio.adrs_values)
                for inst, portfolio in zip(instances, portfolios)
            ),
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
        _write_atomic(out / MANIFEST_FILE, canonical_json(asdict(manifest)) + "\n")
    except BaseException:
        for name in (RUNS_FILE, LABELS_FILE, MANIFEST_FILE):
            (out / name).unlink(missing_ok=True)
        raise
    return manifest


def dataset_fingerprint(manifest: DatasetManifest) -> str:
    """Stable digest of the three data files, stamped into checkpoints."""
    joined = "".join(manifest.hashes[name] for name in DATA_FILES)
    return fnv1a64_hex(joined.encode("utf-8"))


# -- loading ------------------------------------------------------------------------


def _read_verified(path: Path, expected_hash: str) -> str:
    if not path.exists():
        raise FileNotFoundError(f"dataset file missing: {path}")
    data = path.read_bytes()  # hashed as stored, like `run` hashes instances.jsonl
    actual = fnv1a64_hex(data)
    if actual != expected_hash:
        raise ValueError(
            f"dataset corrupted/stale: {path.name} hash {actual} does not match manifest {expected_hash}"
        )
    return data.decode("utf-8")


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
    paths = {name: directory / name for name in DATA_FILES}
    texts = {name: _read_verified(paths[name], manifest.hashes[name]) for name in DATA_FILES}

    instances, feature_map, _ = read_instances(paths[INSTANCES_FILE], texts[INSTANCES_FILE])
    runs = read_jsonl(paths[RUNS_FILE], texts[RUNS_FILE], RUN_KEYS + ("front",))
    labels = read_jsonl(paths[LABELS_FILE], texts[LABELS_FILE], LABEL_KEYS)
    check_runs_cover(runs, labels, paths[RUNS_FILE], paths[LABELS_FILE])

    samples = []
    for lineno, record in enumerate(labels, 1):
        benchmark_id = record["benchmark_id"]
        if benchmark_id not in feature_map:
            raise ValueError(
                f"{paths[LABELS_FILE]}:{lineno}: labels reference unknown benchmark {benchmark_id}"
            )
        samples.append(
            LabeledSample(
                benchmark_id=benchmark_id,
                features=feature_map[benchmark_id],
                label=int(record["label_code"]),
                adrs_row=tuple(float(v) for v in record["adrs_row"]),
            )
        )
    _check_fronts_in_space(runs, instances, paths[RUNS_FILE])

    return Dataset(instances=instances, runs=tuple(runs), samples=tuple(samples), manifest=manifest)


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
    "LABEL_KEYS",
    "MANIFEST_FILE",
    "RUNS_FILE",
    "RUN_KEYS",
    "Dataset",
    "DatasetConfig",
    "DatasetManifest",
    "LabeledSample",
    "canonical_json",
    "check_runs_cover",
    "dataset_fingerprint",
    "instance_master_seed",
    "load",
    "persist_instances",
    "persist_results",
    "read_instances",
    "read_jsonl",
    "reconstruct_front",
    "run_suite",
    "split_ids",
    "synth_suite",
    "write_jsonl",
]
