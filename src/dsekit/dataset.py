"""Datasets: portfolio runs over instance suites, labels, and their files.

A dataset is four files in one directory. `synth` writes instances.jsonl, the
benchmarks themselves, one `instance_line` per benchmark. `run` adds
runs.jsonl, one line per (benchmark, explorer) with the score, the found
front, the number of proposals and why the run stopped; labels.jsonl, the
per-benchmark winner; and manifest.json, the configuration echo, the
train/inference split, and FNV-1a content hashes of the other three. `run`
describes the dataset once, in a `DatasetManifest` that hashes the
instances.jsonl bytes it parsed; `persist_results` adds the hashes of the
two files it writes. The manifest is written last, so a directory with a
manifest is complete, and every float is serialized with 17 significant
digits, so `load` reproduces the run bit-exactly. `load` also checks every
stored front point against its benchmark's design space, and keys the
instances and samples it returns by benchmark id.

Each input file is read once, by `read_text`, which matches its bytes to the
manifest's hash when there is one; `read_jsonl` and `read_instances` parse
that text. Each input file has a field table, and every record is checked
against it where the file is read.

`run_suite` runs every (benchmark, explorer) cell through `explore` with the
benchmark's one surrogate model and then scores each benchmark. The worker
count decides only where cells run, so the files are identical for any count.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import signal
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .benchmarks import (
    FEATURE_DIM,
    SIZE_CLASSES,
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
from .pareto import DesignPoint, ObjectiveVector, ParetoFront, pareto_filter
from .surrogate import SurrogateModel

_SPLIT_TAG = 0xD5E7

INSTANCES_FILE = "instances.jsonl"
RUNS_FILE = "runs.jsonl"
LABELS_FILE = "labels.jsonl"
MANIFEST_FILE = "manifest.json"
DATA_FILES = (INSTANCES_FILE, RUNS_FILE, LABELS_FILE)

# The most worker processes `run_suite` takes: its pool starts them all at once.
MAX_WORKERS = 128


# -- field tables -------------------------------------------------------------------

# A field table maps each key a record must hold to a test and the words for what it wants.
Fields = dict[str, tuple[Callable[[object], bool], str]]


def _is_finite(value) -> bool:
    """A JSON number (not a bool) that a float holds finitely."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _one_of(names: Sequence[str]) -> tuple[Callable[[object], bool], str]:
    """A field-table entry for exactly one of these strings."""
    return (lambda v: type(v) is str and v in names, "one of " + ", ".join(names))


def _list_of(test: Callable[[object], bool], count: int | None = None) -> Callable[[object], bool]:
    """A test for a list of values that pass `test`, exactly `count` of them if given."""
    return lambda v: isinstance(v, list) and count in (None, len(v)) and all(map(test, v))


_STRING = (lambda v: type(v) is str, "a string")
_INTEGER = (lambda v: type(v) is int, "an integer")
_NUMBER = (_is_finite, "a finite number")
_NON_NEGATIVE = (lambda v: _is_finite(v) and v >= 0, "a finite number >= 0")
_LIST = (lambda v: isinstance(v, list), "a list")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_STRINGS = (_list_of(_STRING[0]), "a list of strings")
_INTEGERS = (_list_of(_INTEGER[0]), "a list of integers")
_CODE = (lambda v: type(v) is int and 0 <= v < len(ExplorerId), "an integer in 0..9")
_ROW = (_list_of(_is_finite, len(ExplorerId)), "10 finite numbers")
_HASHES = (lambda v: _OBJECT[0](v) and all(map(_STRING[0], v.values())), "an object of strings")
_SIZE_CLASS = _one_of(tuple(SIZE_CLASSES))
_FAMILY = _one_of(tuple(family.name.lower() for family in Family))  # as `synth` writes it

INSTANCE_FIELDS: Fields = {
    "id": _STRING,
    "family": _FAMILY,
    "seed": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "size_class": _SIZE_CLASS,
    "schema": (_list_of(_OBJECT[0]), "a list of objects"),
    "graph": _OBJECT,
    "feature_vector": (_list_of(_is_finite, FEATURE_DIM), f"{FEATURE_DIM} finite numbers"),
}
RUN_FIELDS: Fields = {
    "benchmark_id": _STRING,
    "explorer_code": _CODE,
    "adrs": _NON_NEGATIVE,
    "wall_seconds": _NUMBER,
    "front": _LIST,
}
FRONT_POINT_FIELDS: Fields = {"knobs": _INTEGERS, "area": _NON_NEGATIVE, "latency": _NON_NEGATIVE}
LABEL_FIELDS: Fields = {"benchmark_id": _STRING, "label_code": _CODE, "adrs_row": _ROW}
REPORT_FIELDS: Fields = {
    "benchmark_id": _STRING,
    "adrs_row": _ROW,
    "selected_code": _CODE,
    "selected_adrs": _NUMBER,
}
MANIFEST_FIELDS: Fields = {
    "master_seed": _INTEGER,
    "budget": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "size_class": _SIZE_CLASS,
    "families": _STRINGS,
    "seeds": _INTEGERS,
    "split_fraction": (lambda v: _is_finite(v) and 0 < v < 1, "a number between 0 and 1"),
    "train_ids": _STRINGS,
    "inference_ids": _STRINGS,
    "hashes": _HASHES,
}


def _check_fields(record, fields: Fields) -> None:
    """Raise, in one line, on a record that is not an object or breaks its field table."""
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    for key, (test, wanted) in fields.items():
        if key not in record:
            raise ValueError(f"missing key {key!r}")
        if not test(record[key]):
            raise ValueError(f"{key} must be {wanted}, got {reprlib.repr(record[key])}")


# -- canonical serialization -----------------------------------------------------


def canonical_json(value) -> str:
    """Deterministic JSON text with floats at 17 significant digits.

    Takes `dict` (string keys), `list`, `tuple`, `str`, `int` and finite
    `float`, matched by exact type, so a bool, None or a numpy scalar is
    refused. The standard serializer renders floats with shortest-round-trip
    repr; this one pins the format instead so emitted bytes are stable across
    Python versions, which the manifest hashes rely on.
    """
    out: list[str] = []
    _emit(value, out)
    return "".join(out)


def _emit(value, out: list[str]) -> None:
    kind = type(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite number {value!r}")
        out.append(format(value, ".17g"))
    elif kind is int:
        out.append(str(value))
    elif kind is str:
        out.append(json.dumps(value))
    elif kind is dict:
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if type(key) is not str:
                raise TypeError(f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key) + ":")
            _emit(item, out)
        out.append("}")
    elif kind in (list, tuple):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")


# -- domain types -----------------------------------------------------------------


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


@dataclass(frozen=True)
class Dataset:
    """Everything a training or inference stage needs, in memory.

    `instances` and `samples` are keyed by benchmark id, in the order of
    instances.jsonl and labels.jsonl. `front_entries` holds each benchmark's
    stored front points as read, in runs.jsonl order, every one of them
    already checked; `fronts` builds one benchmark's fronts from them for the
    caller that asks.
    """

    instances: dict[str, BenchmarkInstance]
    front_entries: dict[str, list[list[dict]]]
    samples: dict[str, LabeledSample]
    manifest: DatasetManifest

    def fronts(self, benchmark_id: str) -> list[ParetoFront]:
        """The benchmark's stored fronts, in runs.jsonl order."""
        # an integral float, such as the clamp value 100.0, is stored as an integer
        return [
            pareto_filter(
                DesignPoint(tuple(e["knobs"]), ObjectiveVector(float(e["area"]), float(e["latency"])))
                for e in entries
            )
            for entries in self.front_entries[benchmark_id]
        ]

    def split(self, which: str) -> tuple[LabeledSample, ...]:
        ids = {"train": self.manifest.train_ids, "inference": self.manifest.inference_ids}[which]
        return tuple(self.samples[i] for i in ids)

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


def synth_suite(
    families: Sequence[Family], seeds: Sequence[int], size_class: str
) -> tuple[BenchmarkInstance, ...]:
    """One instance per (family, seed), family-major then seed-ascending."""
    return tuple(
        synth_instance(family, seed, size_class) for family in families for seed in sorted(seeds)
    )


def _explore_cell(task: tuple) -> ExplorationResult:
    """One (benchmark, explorer) run in a pool worker: `explore(*task)`.

    A function of its own rather than an alias, so that it calls whatever
    `explore` this module holds when the pool pickles it by name.
    """
    return explore(*task)


def _init_worker() -> None:
    """Pool worker set-up: one BLAS thread, and SIGINT left to the parent,
    which cancels the pending cells and waits for the running ones."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    use_one_blas_thread()


def run_suite(
    instances: Sequence[BenchmarkInstance],
    budget: int,
    master_seed: int,
    workers: int = 1,
) -> list[PortfolioResult]:
    """Portfolio results per instance, identical for any worker count.

    All cells run before any scoring: in process at one worker, in a pool of
    `workers` processes, but no more than cells, otherwise. Each benchmark's
    one model goes with its cells and is used again to score them. When the
    pool's wait is interrupted, or a cell fails, the cells not yet started are
    cancelled.
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in 1..{MAX_WORKERS}, got {workers}")
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

        processes = min(workers, len(tasks))
        with ProcessPoolExecutor(max_workers=processes, initializer=_init_worker) as pool:
            try:
                # The submission forks every worker. A SIGINT there could kill a
                # worker before it ignores SIGINT, be swallowed by a fork hook or
                # orphan a worker, so a handler holds it until the submission is
                # done. Blocking it in this thread is not enough: OpenBLAS's
                # thread then takes it, and Python still raises it in this one.
                held = []
                previous = signal.signal(signal.SIGINT, lambda *_: held.append(True))
                try:
                    cells = pool.map(_explore_cell, tasks)
                finally:
                    signal.signal(signal.SIGINT, previous)
                if held:
                    signal.raise_signal(signal.SIGINT)
                results = list(cells)
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
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


def instance_line(instance: BenchmarkInstance, features: Iterable[float]) -> dict:
    """One instances.jsonl record: the instance and its feature vector."""
    record = instance_to_record(instance)
    record["feature_vector"] = [float(v) for v in features]
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


def write_atomic(path: Path, text: str) -> None:
    """Write the text to a temporary file, then rename it over the path."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_jsonl(path: Path, records: Iterable[dict]) -> str:
    """Write one canonical-JSON object per line; returns the content hash."""
    text = "".join(canonical_json(record) + "\n" for record in records)
    write_atomic(path, text)
    return fnv1a64_hex(text.encode("utf-8"))


def read_text(path: Path, expected_hash: str | None = None) -> str:
    """A file's UTF-8 text, its bytes first matched to a hash from the manifest
    beside it if given; errors name the file, and a mismatch names the manifest too."""
    if not path.exists():
        raise FileNotFoundError(f"input file missing: {path}")
    data = path.read_bytes()  # hashed as stored
    actual = None if expected_hash is None else fnv1a64_hex(data)
    if actual != expected_hash:
        raise ValueError(
            f"dataset corrupted/stale: {path} hash {actual} does not match "
            f"{path.with_name(MANIFEST_FILE)} hash {expected_hash}"
        )
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


def read_jsonl(path: Path, text: str, fields: Fields) -> list[dict]:
    """The JSON objects of a JSONL file's text, one per line. A line that is not
    an object that passes `fields` is rejected with its path and number."""
    records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            record = json.loads(line)
            _check_fields(record, fields)
        except ValueError as err:
            if isinstance(err, json.JSONDecodeError):
                err = f"{err.msg} at column {err.colno}"
            raise ValueError(f"{path}:{lineno}: {err}") from None
        records.append(record)
    return records


def read_instances(
    path: Path, text: str
) -> tuple[tuple[BenchmarkInstance, ...], dict[str, tuple[float, ...]]]:
    """Parse the text of instances.jsonl into instances and their features by id.

    A suite has unique benchmark ids and one size class, and every record
    must make an instance; a line that breaks one is named by path and number.
    """
    instances: list[BenchmarkInstance] = []
    feature_map: dict[str, tuple[float, ...]] = {}
    records = read_jsonl(path, text, INSTANCE_FIELDS)
    for lineno, record in enumerate(records, 1):
        if record["id"] in feature_map:
            raise ValueError(f"{path}:{lineno}: duplicate benchmark id {record['id']!r}")
        if record["size_class"] != records[0]["size_class"]:
            raise ValueError(
                f"{path}:{lineno}: size class {record['size_class']!r} differs from "
                f"{records[0]['size_class']!r} on line 1; a suite has one size class"
            )
        try:
            instances.append(instance_from_record(record))
        except (LookupError, TypeError, ValueError, ArithmeticError) as err:
            reason = f"missing key {err}" if isinstance(err, KeyError) else err
            raise ValueError(f"{path}:{lineno}: {reason}") from None
        feature_map[record["id"]] = tuple(float(v) for v in record["feature_vector"])
    return tuple(instances), feature_map


def check_runs_cover(
    runs: Iterable[dict], labels: Iterable[dict], runs_path: Path, labels_path: Path
) -> None:
    """Require one runs record of each of the ten explorers for every labelled benchmark,
    with its `adrs` equal to the label's `adrs_row` entry, and each label's
    `adrs_row` to have its first minimum at `label_code`; a repeated record is
    rejected too. Takes records that passed their field tables.
    """
    covered: dict[tuple[str, int], tuple[int, float]] = {}  # -> (line, adrs)
    for lineno, record in enumerate(runs, 1):
        benchmark_id, code = record["benchmark_id"], record["explorer_code"]
        if (benchmark_id, code) in covered:
            raise ValueError(
                f"{runs_path}:{lineno}: repeated run of explorer code {code} on {benchmark_id}"
            )
        covered[benchmark_id, code] = (lineno, record["adrs"])
    labelled: set[str] = set()
    for lineno, record in enumerate(labels, 1):
        benchmark_id, row = record["benchmark_id"], record["adrs_row"]
        if benchmark_id in labelled:
            raise ValueError(f"{labels_path}:{lineno}: repeated label of {benchmark_id}")
        labelled.add(benchmark_id)
        best = row.index(min(row))
        if record["label_code"] != best:
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
        for code, value in enumerate(row):
            run_line, run_adrs = covered[benchmark_id, code]
            if run_adrs != value:
                raise ValueError(
                    f"{runs_path}:{run_line}: adrs {run_adrs!r} of explorer code {code} on "
                    f"{benchmark_id} is not its adrs_row entry {value!r} in {labels_path}:{lineno}"
                )


def _check_fronts(
    runs: Iterable[dict], instances: dict[str, BenchmarkInstance], runs_path: Path
) -> dict[str, list[list[dict]]]:
    """Each benchmark's stored front entries in file order, every point checked
    against FRONT_POINT_FIELDS and its benchmark's design space: the one check
    it gets. `Dataset.fronts` builds the fronts of the benchmarks asked for."""
    entries: dict[str, list[list[dict]]] = {}
    for lineno, record in enumerate(runs, 1):
        benchmark_id = record["benchmark_id"]
        if benchmark_id not in instances:
            raise ValueError(f"{runs_path}:{lineno}: unknown benchmark {benchmark_id}")
        cards = instances[benchmark_id].schema.cardinalities
        for i, entry in enumerate(record["front"]):
            try:
                _check_fields(entry, FRONT_POINT_FIELDS)
                knobs = entry["knobs"]
                if len(knobs) != len(cards):
                    raise ValueError(
                        f"point has {len(knobs)} knob settings, schema defines {len(cards)}"
                    )
                for k, (setting, card) in enumerate(zip(knobs, cards)):
                    if not 0 <= setting < card:
                        raise ValueError(f"knob index {k} setting {setting} outside [0, {card - 1}]")
            except ValueError as err:
                raise ValueError(
                    f"{runs_path}:{lineno}: front point {i} of {benchmark_id}: {err}"
                ) from None
        entries.setdefault(benchmark_id, []).append(record["front"])
    return entries


def persist_results(
    out_dir: Path,
    instances: Sequence[BenchmarkInstance],
    portfolios: Sequence[PortfolioResult],
    manifest: DatasetManifest,
) -> DatasetManifest:
    """Write runs, labels, and the manifest; returns the manifest as written.

    `manifest` holds everything but the hashes of the two files written here,
    which are added to its `hashes`. Any failure removes the three files this
    call owns, so a directory that contains manifest.json is always complete.
    """
    out = Path(out_dir)
    try:
        runs_hash = write_jsonl(
            out / RUNS_FILE,
            (
                _run_line(inst.id, result, value)
                for inst, portfolio in zip(instances, portfolios)
                for result, value in zip(portfolio.results, portfolio.adrs_values)
            ),
        )
        labels_hash = write_jsonl(
            out / LABELS_FILE,
            (
                _label_line(inst.id, portfolio.argmin.value, portfolio.adrs_values)
                for inst, portfolio in zip(instances, portfolios)
            ),
        )
        hashes = {**manifest.hashes, RUNS_FILE: runs_hash, LABELS_FILE: labels_hash}
        manifest = replace(manifest, hashes=hashes)
        write_atomic(out / MANIFEST_FILE, canonical_json(asdict(manifest)) + "\n")
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


def _read_manifest(manifest_path: Path) -> DatasetManifest:
    """A manifest.json that is an object passing MANIFEST_FIELDS and hashes each data file."""
    text = read_text(manifest_path)
    try:
        record = json.loads(text)
        _check_fields(record, MANIFEST_FIELDS)
    except ValueError as err:
        raise ValueError(f"{manifest_path}: {err}") from None
    values = {key: record[key] for key in MANIFEST_FIELDS}
    manifest = DatasetManifest(**{k: tuple(v) if type(v) is list else v for k, v in values.items()})
    for name in DATA_FILES:
        if name not in manifest.hashes:
            raise ValueError(f"{manifest_path}: lists no hash for {name}")
    return manifest


def manifest_hashes(directory: Path) -> dict[str, str]:
    """The data-file hashes of the manifest in a directory; empty when it holds none."""
    path = directory / MANIFEST_FILE
    return _read_manifest(path).hashes if path.exists() else {}


def load(dataset_dir: str | Path) -> Dataset:
    """Rebuild a dataset from its directory, verifying every content hash."""
    directory = Path(dataset_dir)
    manifest_path = directory / MANIFEST_FILE
    manifest = _read_manifest(manifest_path)
    paths = {name: directory / name for name in DATA_FILES}
    texts = {name: read_text(paths[name], manifest.hashes[name]) for name in DATA_FILES}

    instance_list, feature_map = read_instances(paths[INSTANCES_FILE], texts[INSTANCES_FILE])
    instances = {instance.id: instance for instance in instance_list}
    runs = read_jsonl(paths[RUNS_FILE], texts[RUNS_FILE], RUN_FIELDS)
    labels = read_jsonl(paths[LABELS_FILE], texts[LABELS_FILE], LABEL_FIELDS)
    check_runs_cover(runs, labels, paths[RUNS_FILE], paths[LABELS_FILE])

    samples: dict[str, LabeledSample] = {}
    for lineno, record in enumerate(labels, 1):
        benchmark_id = record["benchmark_id"]
        if benchmark_id not in feature_map:
            raise ValueError(
                f"{paths[LABELS_FILE]}:{lineno}: labels reference unknown benchmark "
                f"{benchmark_id}, not in {paths[INSTANCES_FILE]}"
            )
        features, row = feature_map[benchmark_id], tuple(float(v) for v in record["adrs_row"])
        samples[benchmark_id] = LabeledSample(benchmark_id, features, record["label_code"], row)
    if sorted(manifest.train_ids + manifest.inference_ids) != sorted(samples):
        raise ValueError(
            f"{manifest_path}: train_ids and inference_ids must together name each "
            f"benchmark of {paths[LABELS_FILE]} once"
        )
    front_entries = _check_fronts(runs, instances, paths[RUNS_FILE])

    return Dataset(instances, front_entries, samples, manifest)


__all__ = [
    "DATA_FILES",
    "INSTANCES_FILE",
    "LABELS_FILE",
    "LABEL_FIELDS",
    "MANIFEST_FILE",
    "MAX_WORKERS",
    "REPORT_FIELDS",
    "RUNS_FILE",
    "RUN_FIELDS",
    "Dataset",
    "DatasetManifest",
    "LabeledSample",
    "canonical_json",
    "check_runs_cover",
    "dataset_fingerprint",
    "instance_line",
    "instance_master_seed",
    "load",
    "manifest_hashes",
    "persist_results",
    "read_instances",
    "read_jsonl",
    "read_text",
    "run_suite",
    "split_ids",
    "synth_suite",
    "write_atomic",
    "write_jsonl",
]
