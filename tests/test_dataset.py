"""Tests for dataset running, persistence, and integrity checking."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from dsekit import cli
from dsekit.benchmarks import Family, extract_features
from dsekit.dataset import (
    DATA_FILES,
    INSTANCES_FILE,
    LABEL_FIELDS,
    LABELS_FILE,
    MANIFEST_FILE,
    MAX_WORKERS,
    RUN_FIELDS,
    RUNS_FILE,
    DatasetManifest,
    canonical_json,
    check_runs_cover,
    instance_line,
    instance_master_seed,
    load,
    persist_results,
    read_jsonl,
    run_suite,
    split_ids,
    synth_suite,
    write_jsonl,
)
from dsekit.explorers import ExplorerId
from dsekit.hashing import fnv1a64_hex
from dsekit.pareto import DesignPoint, ObjectiveVector, pareto_filter

# the `synth_suite` arguments of TINY_SYNTH: families, seeds and size class
TINY = ((Family.SMOOTH, Family.CLUSTERED), (0, 1), "small")
TINY_SYNTH = ["synth", "--families", "smooth,clustered", "--seeds", "0..1", "--size", "small"]
BUDGET = 60
MASTER_SEED = 0


def synth_and_run(out, workers=1):
    """The tiny suite through the `synth` and `run` commands, then loaded."""
    assert cli.main(TINY_SYNTH + ["--out", str(out)]) == 0
    run = ["run", "--dataset", str(out), "--budget", str(BUDGET), "--workers", str(workers)]
    assert cli.main(run) == 0
    return load(out)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "tiny"
    return synth_and_run(out), out


def persist_tiny(out):
    """The tiny suite through the library calls that `synth` and `run` make."""
    families, seeds, size_class = TINY
    instances = synth_suite(families, seeds, size_class)
    feature_map = {inst.id: tuple(float(v) for v in extract_features(inst)) for inst in instances}
    instances_hash = write_jsonl(
        out / INSTANCES_FILE,
        (instance_line(inst, feature_map[inst.id]) for inst in instances),
    )
    train_ids, inference_ids = split_ids([inst.id for inst in instances], 0.69, MASTER_SEED)
    manifest = DatasetManifest(
        master_seed=MASTER_SEED,
        budget=BUDGET,
        size_class=size_class,
        families=("smooth", "clustered"),
        seeds=seeds,
        split_fraction=0.69,
        train_ids=train_ids,
        inference_ids=inference_ids,
        hashes={INSTANCES_FILE: instances_hash},
    )
    portfolios = run_suite(instances, BUDGET, MASTER_SEED)
    manifest = persist_results(out, instances, portfolios, manifest)
    return instances, feature_map, portfolios, manifest


class TestCanonicalJson:
    def test_float_17g_round_trip(self):
        values = [1 / 3, 1e-300, -0.1, 2.0**-52, math.pi]
        text = canonical_json(values)
        assert [float(v) for v in json.loads(text)] == values

    def test_deterministic_bytes(self):
        record = {"a": [1, 2.5, "x"], "b": {"nested": (-0.0, 7)}}
        assert canonical_json(record) == canonical_json(record)
        assert canonical_json(record) == '{"a":[1,2.5,"x"],"b":{"nested":[-0,7]}}'

    @pytest.mark.parametrize(
        "value,name",
        [(np.float64(0.25), "float64"), (np.int64(3), "int64"), (np.zeros(2), "ndarray"),
         (True, "bool"), (None, "NoneType")],
    )
    def test_only_plain_values_are_taken(self, value, name):
        with pytest.raises(TypeError, match=f"cannot serialize {name}$"):
            canonical_json({"records": [{"v": value}]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"bad": float("nan")})

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json({"bad": object()})


class TestSplit:
    def test_twenty_nine_instances_split_twenty_nine(self):
        ids = [f"b{i:02d}" for i in range(29)]
        train, inference = split_ids(ids, 0.69, master_seed=0)
        assert len(train) == 20 and len(inference) == 9
        assert not set(train) & set(inference)
        assert sorted(train + inference) == sorted(ids)

    def test_split_is_seeded(self):
        ids = [f"b{i:02d}" for i in range(29)]
        assert split_ids(ids, 0.69, 0) == split_ids(ids, 0.69, 0)
        assert split_ids(ids, 0.69, 0) != split_ids(ids, 0.69, 1)


class TestReadJsonl:
    def test_bad_json_named_by_file_and_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n{"a": \n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            read_jsonl(path, path.read_text(), {})

    def test_line_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: expected a JSON object"):
            read_jsonl(path, '{"a": 1}\n[1, 2]\n', {})


def jsonl(records) -> str:
    return "".join(json.dumps(record) + "\n" for record in records)


class TestSamples:
    """Runs and labels records as `load` and `report` take them: through
    `read_jsonl` with the file's field table, then `check_runs_cover`."""

    RUNS = [
        {"benchmark_id": "b", "explorer_code": code, "adrs": 0.5, "wall_seconds": 0.5, "front": []}
        for code in range(10)
    ]

    @classmethod
    def check(cls, runs, labels):
        check_runs_cover(
            read_jsonl("runs.jsonl", jsonl(runs), RUN_FIELDS),
            read_jsonl("labels.jsonl", jsonl(labels), LABEL_FIELDS),
            "runs.jsonl",
            "labels.jsonl",
        )

    @classmethod
    def check_label(cls, label_code, adrs_row, runs=RUNS):
        cls.check(runs, [{"benchmark_id": "b", "label_code": label_code, "adrs_row": adrs_row}])

    def test_label_law_enforced(self):
        row = [0.5, 0.1, 0.1, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
        runs = [dict(run, adrs=value) for run, value in zip(self.RUNS, row)]
        self.check_label(1, row, runs)  # lowest-code minimizer is fine
        with pytest.raises(ValueError, match="^labels.jsonl:1: label_code of b is not 1, the lowest index"):
            self.check_label(2, row)
        for mistyped in (True, 1.0):
            message = f"^labels.jsonl:1: label_code must be an integer in 0..9, got {mistyped}$"
            with pytest.raises(ValueError, match=message):
                self.check_label(mistyped, row)

    @pytest.mark.parametrize(
        "row",
        [[0.5] * 9, [0.5] * 11, [0.5] * 9 + [math.inf], [0.5] * 9 + ["0.5"], [0.5] * 9 + [True], 0.5],
        ids=["nine", "eleven", "inf", "string", "bool", "number"],
    )
    def test_adrs_row_needs_ten_finite_values(self, row):
        with pytest.raises(ValueError, match="^labels.jsonl:1: adrs_row must be 10 finite numbers, got "):
            self.check_label(0, row)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("explorer_code", -1, "explorer_code must be an integer in 0..9, got -1"),
            ("explorer_code", 10, "explorer_code must be an integer in 0..9, got 10"),
            ("explorer_code", False, "explorer_code must be an integer in 0..9, got False"),
            ("explorer_code", 3.0, "explorer_code must be an integer in 0..9, got 3.0"),
            ("benchmark_id", ["b"], re.escape("benchmark_id must be a string, got ['b']")),
            ("adrs", -0.5, re.escape("adrs must be a finite number >= 0, got -0.5")),
            (
                "adrs",
                0.25,
                "adrs 0.25 of explorer code 3 on b is not its adrs_row entry 0.5 in labels.jsonl:1",
            ),
        ],
    )
    def test_runs_name_an_explorer_of_a_named_benchmark(self, key, value, message):
        runs = [dict(record) for record in self.RUNS]
        runs[3][key] = value
        labels = [{"benchmark_id": "b", "label_code": 0, "adrs_row": [0.5] * 10}]
        with pytest.raises(ValueError, match=f"^runs.jsonl:4: {message}$"):
            self.check(runs, labels)

    def test_labels_name_a_benchmark_by_string(self):
        labels = [{"benchmark_id": 7, "label_code": 0, "adrs_row": [0.5] * 10}]
        with pytest.raises(ValueError, match="^labels.jsonl:1: benchmark_id must be a string, got 7$"):
            self.check(self.RUNS, labels)


class TestPersistAndLoad:
    def test_files_and_round_trip(self, tiny_dataset, tmp_path):
        instances, feature_map, portfolios, manifest = persist_tiny(tmp_path)
        _, out = tiny_dataset
        for name in DATA_FILES + (MANIFEST_FILE,):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name
        loaded = load(tmp_path)
        assert loaded.manifest == manifest
        assert loaded.instances == {inst.id: inst for inst in instances}
        assert list(loaded.samples) == [i.id for i in instances]
        for sample, portfolio in zip(loaded.samples.values(), portfolios):
            assert sample.features == feature_map[sample.benchmark_id]
            assert sample.label == portfolio.argmin.value
            assert sample.adrs_row == portfolio.adrs_values
        runs = read_jsonl(tmp_path / RUNS_FILE, (tmp_path / RUNS_FILE).read_text(), RUN_FIELDS)
        assert [(r["benchmark_id"], r["explorer_code"], r["adrs"]) for r in runs] == [
            (inst.id, result.explorer.value, value)
            for inst, portfolio in zip(instances, portfolios)
            for result, value in zip(portfolio.results, portfolio.adrs_values)
        ]
        assert loaded.front_entries.keys() == {inst.id for inst in instances}
        for inst, portfolio in zip(instances, portfolios):
            assert loaded.fronts(inst.id) == [result.front for result in portfolio.results]

    def test_split_sizes_and_disjointness(self, tiny_dataset):
        dataset, _ = tiny_dataset
        manifest = dataset.manifest
        assert len(manifest.train_ids) == math.floor(0.69 * 4)
        assert len(manifest.inference_ids) == 4 - len(manifest.train_ids)
        assert not set(manifest.train_ids) & set(manifest.inference_ids)

    def test_labels_match_argmin(self, tiny_dataset):
        dataset, _ = tiny_dataset
        for sample in dataset.samples.values():
            row = np.array(sample.adrs_row)
            assert sample.label == int(np.argmin(row))

    def test_matrices_shapes(self, tiny_dataset):
        dataset, _ = tiny_dataset
        features, labels, rows = dataset.matrices("train")
        assert features.shape == (2, 24)
        assert labels.shape == (2,)
        assert rows.shape == (2, 10)

    def test_regeneration_is_identical(self, tiny_dataset, tmp_path):
        dataset, _ = tiny_dataset
        again = synth_and_run(tmp_path / "again")
        assert again.manifest.hashes == dataset.manifest.hashes

    def test_fronts_round_trip(self, tiny_dataset):
        dataset, out = tiny_dataset
        first = json.loads((out / RUNS_FILE).read_text().splitlines()[0])
        front = dataset.fronts(first["benchmark_id"])[0]
        assert len(front.points) >= 1
        assert first["explorer_code"] == 0
        assert front == pareto_filter(
            DesignPoint(tuple(p["knobs"]), ObjectiveVector(p["area"], p["latency"])) for p in first["front"]
        )

    def test_failure_leaves_no_files(self, tmp_path, monkeypatch):
        import dsekit.dataset as ds

        write_jsonl = ds.write_jsonl

        def fail_on_labels(path, records):
            if path.name == LABELS_FILE:
                raise OSError("disk full")
            return write_jsonl(path, records)

        monkeypatch.setattr(ds, "write_jsonl", fail_on_labels)
        with pytest.raises(OSError, match="disk full"):
            persist_tiny(tmp_path)
        assert (tmp_path / INSTANCES_FILE).exists()
        for name in (RUNS_FILE, LABELS_FILE, MANIFEST_FILE):
            assert not (tmp_path / name).exists(), name


class TestLoadIntegrity:
    def make_copy(self, out, tmp_path):
        import shutil

        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        return copy

    def test_tampering_detected(self, tiny_dataset, tmp_path):
        _, out = tiny_dataset
        copy = self.make_copy(out, tmp_path)
        text = (copy / LABELS_FILE).read_text()
        (copy / LABELS_FILE).write_text(text.replace("label_code", "label_kode", 1))
        with pytest.raises(ValueError, match="corrupted/stale"):
            load(copy)

    def test_a_stale_hash_names_the_file_and_its_manifest(self, tiny_dataset, tmp_path):
        """Either may be the edited one: here it is the manifest's hash."""
        _, out = tiny_dataset
        copy = self.make_copy(out, tmp_path)
        manifest = json.loads((copy / MANIFEST_FILE).read_text())
        manifest["hashes"][LABELS_FILE] = "0" * 16
        (copy / MANIFEST_FILE).write_text(json.dumps(manifest))
        stale = re.escape(f"dataset corrupted/stale: {copy / LABELS_FILE} hash ")
        listed = re.escape(f" does not match {copy / MANIFEST_FILE} hash {'0' * 16}")
        with pytest.raises(ValueError, match=f"^{stale}[0-9a-f]{{16}}{listed}$"):
            load(copy)

    def test_missing_file_named(self, tiny_dataset, tmp_path):
        _, out = tiny_dataset
        copy = self.make_copy(out, tmp_path)
        (copy / RUNS_FILE).unlink()
        with pytest.raises(FileNotFoundError, match="runs.jsonl"):
            load(copy)

    def test_missing_manifest_named(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load(tmp_path / "nowhere")

    def rewrite_with_matching_hash(self, copy, name, lines):
        text = "".join(lines)
        (copy / name).write_text(text)
        manifest = json.loads((copy / MANIFEST_FILE).read_text())
        manifest["hashes"][name] = fnv1a64_hex(text.encode("utf-8"))
        (copy / MANIFEST_FILE).write_text(json.dumps(manifest))

    def test_runs_missing_a_labelled_cell_rejected(self, tiny_dataset, tmp_path):
        _, out = tiny_dataset
        copy = self.make_copy(out, tmp_path)
        lines = (copy / RUNS_FILE).read_text().splitlines(keepends=True)
        dropped = json.loads(lines[13])
        self.rewrite_with_matching_hash(copy, RUNS_FILE, lines[:13] + lines[14:])
        with pytest.raises(ValueError, match=f"no run of .* on benchmark {dropped['benchmark_id']}"):
            load(copy)

    def test_label_rows_are_checked_where_they_enter(self, tiny_dataset, tmp_path):
        _, out = tiny_dataset
        copy = self.make_copy(out, tmp_path)
        lines = (copy / LABELS_FILE).read_text().splitlines(keepends=True)
        cut = json.loads(lines[2])
        cut["adrs_row"] = cut["adrs_row"][:9]
        self.rewrite_with_matching_hash(copy, LABELS_FILE, lines[:2] + [json.dumps(cut) + "\n"])
        pattern = f"{re.escape(str(copy / LABELS_FILE))}:3: adrs_row must be 10 finite numbers, got "
        with pytest.raises(ValueError, match=pattern):
            load(copy)
        del cut["adrs_row"]
        self.rewrite_with_matching_hash(copy, LABELS_FILE, lines[:2] + [json.dumps(cut) + "\n"])
        with pytest.raises(ValueError, match=":3: missing key 'adrs_row'$"):
            load(copy)

    def test_mixed_size_classes_named_by_line(self, tiny_dataset, tmp_path):
        _, out = tiny_dataset
        copy = self.make_copy(out, tmp_path)
        lines = (copy / INSTANCES_FILE).read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace('"size_class":"small"', '"size_class":"medium"', 1)
        self.rewrite_with_matching_hash(copy, INSTANCES_FILE, lines)
        pattern = f"{re.escape(str(copy / INSTANCES_FILE))}:3: size class 'medium' differs"
        with pytest.raises(ValueError, match=pattern):
            load(copy)

    def test_label_of_an_unknown_benchmark_named_by_line(self, tiny_dataset, tmp_path):
        _, out = tiny_dataset
        copy = self.make_copy(out, tmp_path)
        lines = (copy / LABELS_FILE).read_text().splitlines(keepends=True)
        ghost = lines[1].replace("smooth-small-0001", "ghost-small-0001")
        runs = (copy / RUNS_FILE).read_text().splitlines(keepends=True)
        ghost_runs = [line.replace("smooth-small-0001", "ghost-small-0001") for line in runs[10:20]]
        self.rewrite_with_matching_hash(copy, RUNS_FILE, runs + ghost_runs)
        self.rewrite_with_matching_hash(copy, LABELS_FILE, lines + [ghost])
        pattern = f"{re.escape(str(copy / LABELS_FILE))}:{len(lines) + 1}: .*unknown benchmark"
        with pytest.raises(ValueError, match=pattern):
            load(copy)

    def test_run_of_an_unknown_benchmark_named_by_line(self, tiny_dataset, tmp_path):
        _, out = tiny_dataset
        copy = self.make_copy(out, tmp_path)
        runs = (copy / RUNS_FILE).read_text().splitlines(keepends=True)
        ghost = runs[0].replace("smooth-small-0000", "ghost-small-0000")
        self.rewrite_with_matching_hash(copy, RUNS_FILE, runs + [ghost])
        pattern = f"{re.escape(str(copy / RUNS_FILE))}:{len(runs) + 1}: unknown benchmark ghost-small-0000"
        with pytest.raises(ValueError, match=pattern):
            load(copy)


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """The `max_workers` of every pool `run_suite` asks for; its cells then run in process."""
    import concurrent.futures

    sizes: list[int] = []

    class InlinePool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


class TestWorkerCount:
    def test_the_pool_has_no_more_processes_than_cells(self, pool_sizes):
        suite = synth_suite(*TINY)[:1]
        pooled = run_suite(suite, 5, MASTER_SEED, workers=MAX_WORKERS)
        assert pool_sizes == [len(ExplorerId)]
        assert pooled == run_suite(suite, 5, MASTER_SEED)

    @pytest.mark.parametrize("workers", [0, MAX_WORKERS + 1])
    def test_a_count_outside_the_bounds_is_refused(self, pool_sizes, workers):
        with pytest.raises(ValueError, match=f"workers must be in 1..{MAX_WORKERS}, got {workers}"):
            run_suite(synth_suite(*TINY)[:1], 5, MASTER_SEED, workers=workers)
        assert pool_sizes == []


    def test_an_interrupted_pool_cancels_the_cells_not_yet_started(self, monkeypatch):
        import concurrent.futures

        shutdowns = []

        class InterruptedPool:
            def __init__(self, max_workers, initializer):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                raise KeyboardInterrupt

            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InterruptedPool)
        with pytest.raises(KeyboardInterrupt):
            run_suite(synth_suite(*TINY)[:1], 5, MASTER_SEED, workers=2)
        assert shutdowns == [True]


class TestSeedDerivation:
    def test_per_instance_seed_ignores_suite_composition(self):
        suite = synth_suite(*TINY)
        solo = run_suite(suite[:1], BUDGET, MASTER_SEED)
        full = run_suite(suite, BUDGET, MASTER_SEED)
        assert solo[0] == full[0]

    def test_master_seed_changes_runs(self):
        suite = synth_suite(*TINY)[:1]
        a = run_suite(suite, 40, master_seed=0)
        b = run_suite(suite, 40, master_seed=1)
        assert a != b

    def test_worker_count_does_not_change_results(self, tiny_dataset, tmp_path):
        dataset, _ = tiny_dataset
        parallel = synth_and_run(tmp_path / "par", workers=2)
        assert parallel.manifest.hashes == dataset.manifest.hashes

    def test_seed_formula_uses_family_and_instance_seed(self):
        suite = synth_suite(*TINY)
        seeds = {instance_master_seed(0, inst) for inst in suite}
        assert len(seeds) == len(suite)
