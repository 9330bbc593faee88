"""End-to-end checks of the command-line pipeline and its file artifacts."""

from __future__ import annotations

import collections
import contextlib
import json
import math
import os
import reprlib
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dsekit import cli, dataset
from dsekit.cli import (
    ACCURACY_FILE,
    ADRS_MATRIX_FILE,
    CHECKPOINT_FILE,
    EXPLORER_NAMES,
    REPORT_FILE,
    RL_CURVE_FILE,
    RUNTIME_FILE,
    SUPERVISED_CURVE_FILE,
    main,
)
from dsekit.dataset import MAX_WORKERS, dataset_fingerprint, load
from dsekit.explorers import ExplorerId
from dsekit.hashing import fnv1a64_hex

SYNTH = ["synth", "--families", "smooth,clustered", "--seeds", "0..1", "--size", "small"]
FAMILY_NAMES = "smooth, rugged, deceptive, plateau, clustered"
SRC = Path(__file__).resolve().parent.parent / "src"


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> dict[str, Path]:
    """One full synth -> run -> train -> infer -> report pass on a tiny suite."""
    root = tmp_path_factory.mktemp("cli")
    d, t, i, r = root / "d", root / "t", root / "i", root / "r"
    assert main(SYNTH + ["--out", str(d)]) == 0
    assert main(["run", "--dataset", str(d), "--budget", "60", "--workers", "1"]) == 0
    assert main(["train", "--dataset", str(d), "--seed", "0", "--out", str(t)]) == 0
    assert main(["infer", "--dataset", str(d), "--checkpoints", str(t), "--budget", "60", "--out", str(i)]) == 0
    assert (
        main(
            [
                "report",
                "--runs", str(d / "runs.jsonl"),
                "--labels", str(d / "labels.jsonl"),
                "--report", str(i / REPORT_FILE),
                "--out", str(r),
            ]
        )
        == 0
    )
    return {"d": d, "t": t, "i": i, "r": r}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--families", "smooth,bogus", "unknown family: 'bogus'"),
            ("--families", "smooth,smooth", "duplicate family names"),
            ("--families", ",", "no families given"),
            ("--seeds", "0..x", "bad seed token '0..x'"),
            ("--seeds", "1,1", "duplicate seeds"),
            ("--seeds", "0..2,2", "duplicate seeds"),
        ],
    )
    def test_a_bad_synth_suite_flag_exits_2_in_one_usage_line(
        self, tmp_path, capsys, flag, value, message
    ):
        """The flag's own parser is the one check of the suite it names."""
        assert main(["synth", flag, value, "--out", str(tmp_path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
        assert errors == [f"dsekit synth: error: argument {flag}: {message}"]
        assert not (tmp_path / "instances.jsonl").exists()

    def test_budget_zero_exits_2(self, tmp_path):
        assert main(["run", "--dataset", str(tmp_path), "--budget", "0"]) == 2

    def test_bad_split_fraction_exits_2(self, tmp_path):
        assert main(["run", "--dataset", str(tmp_path), "--split-fraction", "1.5"]) == 2

    def test_workers_above_the_ceiling_exits_2(self, tmp_path, capsys):
        """Refused while parsing, before any pool could start."""
        argv = ["run", "--dataset", str(tmp_path), "--workers", str(MAX_WORKERS + 1)]
        assert main(argv) == 2
        assert f"--workers: must be <= {MAX_WORKERS}, got {MAX_WORKERS + 1}" in capsys.readouterr().err
        assert cli.build_parser().parse_args(argv[:-1] + [str(MAX_WORKERS)]).workers == MAX_WORKERS

    def test_help_exits_0_and_lists_defaults(self, capsys):
        assert main(["run", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--budget" in out and "500" in out and "--workers" in out


class TestRuntimeErrors:
    def test_missing_dataset_dir_exits_1_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["run", "--dataset", str(missing), "--budget", "5"]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_train_on_dataset_missing_labels_exits_1(self, pipeline, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("instances.jsonl", "runs.jsonl", "manifest.json"):
            (broken / name).write_bytes((pipeline["d"] / name).read_bytes())
        assert main(["train", "--dataset", str(broken), "--out", str(tmp_path / "t")]) == 1
        assert "labels.jsonl" in capsys.readouterr().err

    def test_infer_rejects_checkpoint_from_other_dataset(self, pipeline, tmp_path, capsys):
        doctored = tmp_path / CHECKPOINT_FILE
        text = (pipeline["t"] / CHECKPOINT_FILE).read_text()
        fingerprint = text.split("fingerprint=")[1].split()[0]
        doctored.write_text(text.replace(f"fingerprint={fingerprint}", "fingerprint=" + "0" * 16, 1))
        code = main(
            ["infer", "--dataset", str(pipeline["d"]), "--checkpoints", str(doctored), "--out", str(tmp_path / "i")]
        )
        assert code == 1
        assert "fingerprint" in capsys.readouterr().err

    def _infer_on_edited_checkpoint(self, pipeline, tmp_path, edit):
        """Run infer on a copy of the trained checkpoint after edit(lines, mlp_starts)."""
        lines = (pipeline["t"] / CHECKPOINT_FILE).read_text().splitlines()
        edit(lines, [n for n, line in enumerate(lines) if line.startswith("mlp ")])
        doctored = tmp_path / CHECKPOINT_FILE
        doctored.write_text("\n".join(lines) + "\n")
        return main(
            ["infer", "--dataset", str(pipeline["d"]), "--checkpoints", str(doctored),
             "--out", str(tmp_path / "i")]
        )

    def test_infer_rejects_a_non_finite_checkpoint_value(self, pipeline, tmp_path, capsys):
        def nan_in_actor_w2(lines, mlps):
            w2 = next(n for n in range(mlps[1], mlps[2]) if lines[n].startswith("w2 "))
            lines[w2 + 1] = " ".join(["nan"] + lines[w2 + 1].split()[1:])

        assert self._infer_on_edited_checkpoint(pipeline, tmp_path, nan_in_actor_w2) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and CHECKPOINT_FILE in err
        assert "actor network: section 'w2' row 0 column 0 is nan" in err
        assert not (tmp_path / "i" / REPORT_FILE).exists()

    def test_infer_rejects_a_head_with_the_wrong_output_count(self, pipeline, tmp_path, capsys):
        def head_with_nine_outputs(lines, mlps):
            head = range(mlps[0], mlps[1])
            lines[mlps[0]] = lines[mlps[0]].rsplit(" ", 1)[0] + " 9"
            w2 = next(n for n in head if lines[n].startswith("w2 "))
            b2 = next(n for n in head if lines[n].startswith("b2 "))
            lines[b2] = "b2 1 9"
            lines[b2 + 1] = " ".join(lines[b2 + 1].split()[:9])
            del lines[w2 + 10]
            lines[w2] = lines[w2].replace("w2 10 ", "w2 9 ")

        assert self._infer_on_edited_checkpoint(pipeline, tmp_path, head_with_nine_outputs) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and CHECKPOINT_FILE in err
        assert "head network is 24-256-9, wants 24-*-10" in err
        assert not (tmp_path / "i" / REPORT_FILE).exists()

    def test_infer_rejects_a_header_hidden_width_unlike_the_networks(
        self, pipeline, tmp_path, capsys
    ):
        def header_says_128(lines, mlps):
            assert lines[0].endswith(" hidden=256")
            lines[0] = lines[0].replace(" hidden=256", " hidden=128")

        assert self._infer_on_edited_checkpoint(pipeline, tmp_path, header_says_128) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and CHECKPOINT_FILE in err
        assert "header says hidden=128, the head network has 256 hidden units" in err
        assert not (tmp_path / "i" / REPORT_FILE).exists()

    @pytest.mark.parametrize("seeds,fraction,sides", [("0", "0.69", "0 train / 1"), ("0..3", "0.2", "0 train / 4")])
    def test_run_refuses_a_split_with_an_empty_side_before_exploring(
        self, tmp_path, capsys, monkeypatch, seeds, fraction, sides
    ):
        d = tmp_path / "d"
        assert main(["synth", "--families", "plateau", "--seeds", seeds, "--size", "small", "--out", str(d)]) == 0
        capsys.readouterr()
        explored = []
        monkeypatch.setattr(cli, "run_suite", lambda *args: explored.append(args))
        assert main(["run", "--dataset", str(d), "--budget", "5", "--split-fraction", fraction]) == 1
        assert not explored
        err = capsys.readouterr().err
        count = len(read_jsonl(d / "instances.jsonl"))
        assert err.startswith(f"error: --split-fraction {fraction} splits {count} benchmarks into {sides} ")
        assert err.count("\n") == 1
        assert [p.name for p in d.iterdir()] == ["instances.jsonl"]

    def test_run_rejects_a_suite_mixing_size_classes(self, tmp_path, capsys):
        small, medium, mixed = tmp_path / "s", tmp_path / "m", tmp_path / "mixed"
        for out, size in ((small, "small"), (medium, "medium")):
            assert main(["synth", "--families", "smooth,plateau", "--seeds", "0", "--size", size, "--out", str(out)]) == 0
        mixed.mkdir()
        (mixed / "instances.jsonl").write_bytes(
            (small / "instances.jsonl").read_bytes() + (medium / "instances.jsonl").read_bytes()
        )
        assert main(["run", "--dataset", str(mixed), "--budget", "5"]) == 1
        err = capsys.readouterr().err
        assert f"{mixed / 'instances.jsonl'}:3:" in err and "size class" in err
        assert not (mixed / "manifest.json").exists()

    def test_run_rejects_a_repeated_benchmark_id(self, pipeline, tmp_path, capsys):
        repeated = tmp_path / "repeated"
        repeated.mkdir()
        lines = (pipeline["d"] / "instances.jsonl").read_text().splitlines(keepends=True)
        (repeated / "instances.jsonl").write_text("".join(lines + lines[:1]))
        assert main(["run", "--dataset", str(repeated), "--budget", "5"]) == 1
        err = capsys.readouterr().err
        assert f"{repeated / 'instances.jsonl'}:{len(lines) + 1}:" in err and "duplicate" in err
        assert not (repeated / "manifest.json").exists()

    def test_run_names_the_line_of_a_truncated_instances_file(self, pipeline, tmp_path, capsys):
        cut = tmp_path / "cut"
        cut.mkdir()
        text = (pipeline["d"] / "instances.jsonl").read_bytes()[:3000]
        (cut / "instances.jsonl").write_bytes(text)
        assert main(["run", "--dataset", str(cut), "--budget", "5"]) == 1
        last_line = text.count(b"\n") + 1
        assert f"{cut / 'instances.jsonl'}:{last_line}:" in capsys.readouterr().err
        assert not (cut / "manifest.json").exists()

    def test_train_rejects_a_repeated_benchmark_id_behind_matching_hashes(
        self, pipeline, tmp_path, capsys
    ):
        repeated = tmp_path / "repeated"
        shutil.copytree(pipeline["d"], repeated, ignore=shutil.ignore_patterns("sel"))
        lines = (repeated / "instances.jsonl").read_text().splitlines(keepends=True)
        text = "".join(lines + lines[:1])
        (repeated / "instances.jsonl").write_text(text)
        manifest = json.loads((repeated / "manifest.json").read_text())
        manifest["hashes"]["instances.jsonl"] = fnv1a64_hex(text.encode("utf-8"))
        (repeated / "manifest.json").write_text(json.dumps(manifest))
        assert main(["train", "--dataset", str(repeated), "--out", str(tmp_path / "t")]) == 1
        err = capsys.readouterr().err
        assert f"{repeated / 'instances.jsonl'}:{len(lines) + 1}:" in err and "duplicate" in err
        assert not (tmp_path / "t" / CHECKPOINT_FILE).exists()

    def test_failed_checkpoint_write_keeps_the_old_checkpoint(self, pipeline, tmp_path, monkeypatch):
        out = tmp_path / "t"
        out.mkdir()
        old = (pipeline["t"] / CHECKPOINT_FILE).read_bytes()
        (out / CHECKPOINT_FILE).write_bytes(old)

        def save_half_then_fail(fh, *args, **kwargs):
            fh.write("selector-checkpoint truncated\n")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "save_selector", save_half_then_fail)
        assert main(["train", "--dataset", str(pipeline["d"]), "--seed", "0", "--out", str(out)]) == 1
        assert (out / CHECKPOINT_FILE).read_bytes() == old

    def test_train_and_infer_reject_a_front_point_outside_the_design_space(
        self, tmp_path, capsys
    ):
        d, t = tmp_path / "d", tmp_path / "t"
        synth = ["synth", "--families", "smooth,clustered", "--seeds", "0..1", "--size", "medium"]
        assert main(synth + ["--out", str(d)]) == 0
        assert main(["run", "--dataset", str(d), "--budget", "20"]) == 0
        assert main(["train", "--dataset", str(d), "--out", str(t)]) == 0
        lines = (d / "runs.jsonl").read_text().splitlines(keepends=True)
        lineno, record = next(
            (n, json.loads(line))
            for n, line in enumerate(lines, 1)
            if json.loads(line)["benchmark_id"] == "clustered-medium-0000"
        )
        record["front"][0]["knobs"][0] = 99
        lines[lineno - 1] = json.dumps(record) + "\n"
        text = "".join(lines)
        (d / "runs.jsonl").write_text(text)
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["hashes"]["runs.jsonl"] = fnv1a64_hex(text.encode("utf-8"))
        (d / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()

        assert main(["train", "--dataset", str(d), "--out", str(tmp_path / "t2")]) == 1
        err = capsys.readouterr().err
        assert f"{d / 'runs.jsonl'}:{lineno}:" in err and "knob index 0 setting 99" in err
        code = main(
            ["infer", "--dataset", str(d), "--checkpoints", str(t), "--budget", "20",
             "--out", str(tmp_path / "i")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{d / 'runs.jsonl'}:{lineno}:" in err and "knob index 0 setting 99" in err
        assert not (tmp_path / "i" / REPORT_FILE).exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda p, cards: p.update(area="0.5"), "area must be a finite number >= 0, got '0.5'"),
            (lambda p, cards: p.update(latency=True), "latency must be a finite number >= 0, got True"),
            (lambda p, cards: p.update(area=math.nan), "area must be a finite number >= 0, got nan"),
            (lambda p, cards: p.update(latency=-1.0), "latency must be a finite number >= 0, got -1.0"),
            (lambda p, cards: p.update(area=math.inf), "area must be a finite number >= 0, got inf"),
            (lambda p, cards: p["knobs"].__setitem__(0, True), "knobs must be a list of integers, got {knobs}"),
            (lambda p, cards: p["knobs"].__setitem__(0, 1.0), "knobs must be a list of integers, got {knobs}"),
            (lambda p, cards: p["knobs"].__setitem__(0, cards[0]), "knob index 0 setting {c} outside [0, {top}]"),
            (lambda p, cards: p["knobs"].__setitem__(0, -1), "knob index 0 setting -1 outside [0, {top}]"),
            (lambda p, cards: p["knobs"].pop(), "point has {short} knob settings, schema defines {n}"),
        ],
        ids=["area_str", "latency_bool", "area_nan", "latency_negative", "area_inf",
             "knob_bool", "knob_float", "knob_past_the_top", "knob_negative", "knobs_short"],
    )
    def test_train_names_the_line_of_a_mistyped_front_point(
        self, pipeline, tmp_path, capsys, edit, message
    ):
        """`load` is the one check of a stored point: its field table, then its design space."""
        d = tmp_path / "d"
        shutil.copytree(pipeline["d"], d)
        lines = (d / "runs.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[3])
        cards = next(
            [knob["cardinality"] for knob in instance["schema"]]
            for instance in read_jsonl(d / "instances.jsonl")
            if instance["id"] == record["benchmark_id"]
        )
        point = record["front"][1]
        edit(point, cards)
        lines[3] = json.dumps(record) + "\n"
        text = "".join(lines)
        (d / "runs.jsonl").write_text(text)
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["hashes"]["runs.jsonl"] = fnv1a64_hex(text.encode("utf-8"))
        (d / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["train", "--dataset", str(d), "--out", str(tmp_path / "t")]) == 1
        err = capsys.readouterr().err
        reason = message.format(
            knobs=reprlib.repr(point["knobs"]), c=cards[0], top=cards[0] - 1,
            n=len(cards), short=len(cards) - 1,
        )
        assert err == (
            f"error: {d / 'runs.jsonl'}:4: front point 1 of {record['benchmark_id']}: {reason}\n"
        )
        assert not (tmp_path / "t").exists()

    def test_report_rejects_runs_missing_a_labelled_cell(self, pipeline, tmp_path, capsys):
        lines = (pipeline["d"] / "runs.jsonl").read_text().splitlines(keepends=True)
        dropped = json.loads(lines[3])
        runs = tmp_path / "runs.jsonl"
        runs.write_text("".join(lines[:3] + lines[4:]))
        code = main(
            [
                "report",
                "--runs", str(runs),
                "--labels", str(pipeline["d"] / "labels.jsonl"),
                "--report", str(pipeline["i"] / REPORT_FILE),
                "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(runs) in err and dropped["benchmark_id"] in err
        assert EXPLORER_NAMES[dropped["explorer_code"]] in err
        assert not (tmp_path / "r" / RUNTIME_FILE).exists()

    @pytest.mark.parametrize("flag", ["runs", "labels", "report"])
    def test_report_rejects_a_repeated_record(self, pipeline, tmp_path, capsys, flag):
        inputs = {
            "runs": pipeline["d"] / "runs.jsonl",
            "labels": pipeline["d"] / "labels.jsonl",
            "report": pipeline["i"] / REPORT_FILE,
        }
        lines = inputs[flag].read_text().splitlines(keepends=True)
        inputs[flag] = tmp_path / inputs[flag].name
        inputs[flag].write_text("".join(lines[:1] + lines))
        args = [arg for name, path in inputs.items() for arg in (f"--{name}", str(path))]
        assert main(["report", *args, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert f"{inputs[flag]}:2: repeated" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("explorer_code", -1),
            ("explorer_code", 99),
            ("explorer_code", True),
            ("explorer_code", "x"),
            ("wall_seconds", "x"),
            ("wall_seconds", float("nan")),
            ("benchmark_id", [1]),
        ],
        ids=["code-1", "code99", "code_bool", "code_str", "seconds_str", "seconds_nan", "id_list"],
    )
    def test_report_names_the_line_of_a_mistyped_runs_value(self, pipeline, tmp_path, capsys, key, value):
        lines = (pipeline["d"] / "runs.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        record[key] = value
        lines[2] = json.dumps(record) + "\n"
        runs = tmp_path / "runs.jsonl"
        runs.write_text("".join(lines))
        code = main(
            [
                "report",
                "--runs", str(runs),
                "--labels", str(pipeline["d"] / "labels.jsonl"),
                "--report", str(pipeline["i"] / REPORT_FILE),
                "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{runs}:3: {key} must be" in err
        assert not (tmp_path / "r").exists()

    def test_report_names_a_report_file_that_is_not_utf8(self, pipeline, tmp_path, capsys):
        data = (pipeline["i"] / REPORT_FILE).read_bytes()
        report = tmp_path / REPORT_FILE
        report.write_bytes(data[:40] + b"\xff" + data[40:])
        d = pipeline["d"]
        assert run_report(d / "runs.jsonl", d / "labels.jsonl", report, tmp_path / "r") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report}: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_report_names_the_line_of_a_truncated_runs_file(self, pipeline, tmp_path, capsys):
        text = (pipeline["d"] / "runs.jsonl").read_bytes()
        text = text[: len(text) // 2]
        runs = tmp_path / "runs.jsonl"
        runs.write_bytes(text)
        code = main(
            [
                "report",
                "--runs", str(runs),
                "--labels", str(pipeline["d"] / "labels.jsonl"),
                "--report", str(pipeline["i"] / REPORT_FILE),
                "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 1
        last_line = text.count(b"\n") + 1
        assert f"{runs}:{last_line}:" in capsys.readouterr().err
        assert not (tmp_path / "r" / RUNTIME_FILE).exists()

    @pytest.mark.parametrize("name", ["runs.jsonl", "labels.jsonl"])
    def test_report_refuses_a_file_its_manifest_disowns(self, pipeline, tmp_path, capsys, name):
        """A data file edited beside its manifest fails `report` as it fails `load`."""
        d = tmp_path / "d"
        shutil.copytree(pipeline["d"], d)
        lines = (d / name).read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        if name == "runs.jsonl":
            record["evaluations_used"] -= 1
        else:
            record["adrs_row"][0] += 0.25
        (d / name).write_text("".join([json.dumps(record) + "\n", *lines[1:]]))
        out = tmp_path / "r"
        assert run_report(d / "runs.jsonl", d / "labels.jsonl", pipeline["i"] / REPORT_FILE, out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: dataset corrupted/stale: {d / name} hash ") and err.count("\n") == 1
        assert not out.exists()
        with pytest.raises(ValueError, match="corrupted/stale"):
            load(d)

    def test_report_reads_a_labels_file_outside_the_manifests_directory_unchecked(self, pipeline, tmp_path):
        """Only the files in the manifest's directory are vouched for: the same
        labels, copied elsewhere, give the same tables."""
        labels = tmp_path / "elsewhere" / "labels.jsonl"
        labels.parent.mkdir()
        shutil.copy(pipeline["d"] / "labels.jsonl", labels)
        out = tmp_path / "r"
        assert run_report(pipeline["d"] / "runs.jsonl", labels, pipeline["i"] / REPORT_FILE, out) == 0
        for name in (ADRS_MATRIX_FILE, ACCURACY_FILE, RUNTIME_FILE):
            assert (out / name).read_bytes() == (pipeline["r"] / name).read_bytes()


def rehashed_copy(pipeline, root: Path, name: str, edit) -> Path:
    """A copy of the pipeline's dataset with edit(records) applied to one data file,
    whose manifest hash is updated so that only the edit is wrong."""
    d = root / "d"
    shutil.copytree(pipeline["d"], d)
    records = read_jsonl(d / name)
    edit(records)
    text = "".join(json.dumps(record) + "\n" for record in records)
    (d / name).write_text(text)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["hashes"][name] = fnv1a64_hex(text.encode("utf-8"))
    (d / "manifest.json").write_text(json.dumps(manifest))
    return d


def train_and_infer_fail(pipeline, d: Path, root: Path, capsys) -> list[str]:
    """Run train and infer on dataset d; both must exit 1. Their stderr, one per command."""
    capsys.readouterr()
    errors = []
    for argv in (
        ["train", "--dataset", str(d), "--out", str(root / "t")],
        ["infer", "--dataset", str(d), "--checkpoints", str(pipeline["t"]), "--out", str(root / "i")],
    ):
        assert main(argv) == 1
        errors.append(capsys.readouterr().err)
    assert not (root / "t" / CHECKPOINT_FILE).exists()
    assert not (root / "i" / REPORT_FILE).exists()
    return errors


class TestInputChecks:
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: m.update(train_ids=["nope"]), "must together name each benchmark of"),
            (lambda m: m.update(inference_ids=[1]), "inference_ids must be a list of strings, got [1]"),
            (lambda m: m.update(train_ids="smooth-small-0000"), "train_ids must be a list of strings"),
            (lambda m: m["train_ids"].pop(0), "must together name each"),
            (lambda m: m["train_ids"].append(m["train_ids"][0]), "must together name each"),
            (lambda m: m["inference_ids"].append(m["train_ids"][0]), "must together name each"),
            (lambda m: m.pop("budget"), "missing key 'budget'"),
            (lambda m: m["hashes"].pop("runs.jsonl"), "lists no hash for runs.jsonl"),
        ],
        ids=["unknown_id", "int_id", "string_split", "unnamed", "repeated", "overlap", "no_budget", "no_hash"],
    )
    def test_a_bad_manifest_is_named_in_one_line(self, pipeline, tmp_path, capsys, edit, message):
        d = tmp_path / "d"
        shutil.copytree(pipeline["d"], d)
        manifest = json.loads((d / "manifest.json").read_text())
        edit(manifest)
        (d / "manifest.json").write_text(json.dumps(manifest))
        for err in train_and_infer_fail(pipeline, d, tmp_path, capsys):
            assert err.count("\n") == 1
            assert err.startswith(f"error: {d / 'manifest.json'}: ") and message in err

    @pytest.mark.parametrize(
        "split,features",
        [
            ("train_ids", [0.5] * 5),
            ("inference_ids", [0.5] * 5),
            ("train_ids", [0.5] * 23 + [True]),
            ("inference_ids", [0.5] * 23 + [float("nan")]),
            ("train_ids", [0.5] * 23 + ["0.5"]),
            ("train_ids", {"values": [0.5] * 24}),
        ],
        ids=["short_train_row", "short_inference_row", "bool", "nan", "string", "object"],
    )
    def test_a_malformed_feature_vector_is_named_by_line(
        self, pipeline, tmp_path, capsys, split, features
    ):
        target = json.loads((pipeline["d"] / "manifest.json").read_text())[split][0]
        lineno = next(
            n for n, record in enumerate(read_jsonl(pipeline["d"] / "instances.jsonl"), 1)
            if record["id"] == target
        )

        def edit(records):
            records[lineno - 1]["feature_vector"] = features

        d = rehashed_copy(pipeline, tmp_path, "instances.jsonl", edit)
        want = (
            f"error: {d / 'instances.jsonl'}:{lineno}: feature_vector must be 24 finite numbers, "
            f"got {reprlib.repr(features)}\n"
        )
        assert train_and_infer_fail(pipeline, d, tmp_path, capsys) == [want, want]
        assert main(["run", "--dataset", str(d), "--budget", "5"]) == 1
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda r: r.pop("schema"), "missing key 'schema'"),
            (lambda r: r.update(family="nope"), f"family must be one of {FAMILY_NAMES}, got 'nope'"),
            (lambda r: r.update(seed="x"), "seed must be an integer >= 0, got 'x'"),
            (lambda r: r.update(seed=-1), "seed must be an integer >= 0, got -1"),
            (lambda r: r.update(graph={"nodes": [], "edges": []}), "graph needs 8..512 nodes, got 0"),
            (lambda r: r["schema"][0].pop("levels"), "missing key 'levels'"),
            (lambda r: r["graph"]["edges"][0].__setitem__(0, "x"), "edge ('x', "),
        ],
        ids=["no_schema", "unknown_family", "string_seed", "negative_seed", "empty_graph",
             "knob_without_levels", "string_edge"],
    )
    def test_run_names_the_line_of_a_bad_instance_record(self, pipeline, tmp_path, capsys, edit, message):
        records = read_jsonl(pipeline["d"] / "instances.jsonl")
        edit(records[1])
        d = tmp_path / "d"
        d.mkdir()
        (d / "instances.jsonl").write_text("".join(json.dumps(record) + "\n" for record in records))
        assert main(["run", "--dataset", str(d), "--budget", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {d / 'instances.jsonl'}:2: {message}") and err.count("\n") == 1
        assert not (d / "manifest.json").exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda r: r["schema"][0].update(cardinality=str(r["schema"][0]["cardinality"])),
             "needs an integer cardinality >= 2, got '"),
            (lambda r: r["schema"][0].update(cardinality=float(r["schema"][0]["cardinality"])),
             "needs an integer cardinality >= 2, got "),
            (lambda r: r["schema"][0]["levels"].__setitem__(-1, r["schema"][0]["levels"][-1] + 0.5),
             "levels must be integers, got ("),
            (lambda r: r["schema"][0]["levels"].__setitem__(1, bool(r["schema"][0]["levels"][1])),
             "levels must be integers, got ("),
            (lambda r: r["graph"]["edges"][0].__setitem__(1, r["graph"]["edges"][0][1] + 0.7),
             "references a missing node"),
            (lambda r: r["graph"]["nodes"].reverse(), "each node must be [its position, type]"),
            (lambda r: r["graph"]["nodes"][1].__setitem__(0, 1.0), "each node must be [its position, type]"),
            (lambda r: r["schema"][0].update(name=5), "knob name must be a non-empty string, got 5"),
            (lambda r: r["schema"][0].update(name=""), "knob name must be a non-empty string, got ''"),
            (lambda r: r["schema"][1].update(name=["x"]), "knob name must be a non-empty string, got ['x']"),
        ],
        ids=["string_cardinality", "float_cardinality", "float_level", "bool_level",
             "float_edge_end", "nodes_out_of_order", "float_node_index", "int_name", "empty_name",
             "list_name"],
    )
    def test_run_refuses_an_instance_value_it_would_have_coerced(
        self, pipeline, tmp_path, capsys, edit, message
    ):
        """Each edit used to be coerced by int() or a sort into the clean record's instance."""
        records = read_jsonl(pipeline["d"] / "instances.jsonl")
        edit(records[0])
        d = tmp_path / "d"
        d.mkdir()
        (d / "instances.jsonl").write_text("".join(json.dumps(record) + "\n" for record in records))
        assert main(["run", "--dataset", str(d), "--budget", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {d / 'instances.jsonl'}:1: ") and err.count("\n") == 1
        assert message in err
        assert not (d / "manifest.json").exists()

    def test_a_manifest_that_is_not_an_object_is_named(self, pipeline, tmp_path, capsys):
        d = tmp_path / "d"
        shutil.copytree(pipeline["d"], d)
        (d / "manifest.json").write_text("5\n")
        want = f"error: {d / 'manifest.json'}: expected a JSON object\n"
        assert train_and_infer_fail(pipeline, d, tmp_path, capsys) == [want, want]

    def test_train_names_a_labels_file_that_is_not_utf8(self, pipeline, tmp_path, capsys):
        d = tmp_path / "d"
        shutil.copytree(pipeline["d"], d)
        data = (d / "labels.jsonl").read_bytes()
        data = data[:40] + b"\xff" + data[40:]
        (d / "labels.jsonl").write_bytes(data)
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["hashes"]["labels.jsonl"] = fnv1a64_hex(data)
        (d / "manifest.json").write_text(json.dumps(manifest))
        for err in train_and_infer_fail(pipeline, d, tmp_path, capsys):
            assert err.startswith(f"error: {d / 'labels.jsonl'}: 'utf-8' codec can't decode byte 0xff")
            assert err.count("\n") == 1

    def test_train_refuses_to_write_a_checkpoint_infer_would_refuse(self, pipeline, tmp_path, capsys):
        target = json.loads((pipeline["d"] / "manifest.json").read_text())["train_ids"][0]

        def edit(records):
            record = next(r for r in records if r["id"] == target)
            record["feature_vector"][3] = 1e308

        d = rehashed_copy(pipeline, tmp_path, "instances.jsonl", edit)
        capsys.readouterr()
        assert main(["train", "--dataset", str(d), "--out", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err == (
            f"error: {d / 'instances.jsonl'}: train split feature max_cardinality overflows "
            "the scaler: mean 5e+307, std inf\n"
        )
        assert not (tmp_path / "t" / CHECKPOINT_FILE).exists()

    def test_run_refuses_a_family_name_synth_does_not_write(self, tmp_path, capsys):
        """`--families` takes a name in any case and spacing; instances.jsonl only as `synth` writes it."""
        d = tmp_path / "d"
        synth = ["synth", "--families", " SMOOTH,Plateau", "--seeds", "0", "--size", "small"]
        assert main(synth + ["--out", str(d)]) == 0
        records = read_jsonl(d / "instances.jsonl")
        assert [record["family"] for record in records] == ["smooth", "plateau"]
        records[0]["family"] = " SMOOTH"
        (d / "instances.jsonl").write_text("".join(json.dumps(record) + "\n" for record in records))
        capsys.readouterr()
        assert main(["run", "--dataset", str(d), "--budget", "5"]) == 1
        assert capsys.readouterr().err == (
            f"error: {d / 'instances.jsonl'}:1: family must be one of {FAMILY_NAMES}, got ' SMOOTH'\n"
        )
        assert not (d / "manifest.json").exists()

    def test_run_refuses_a_size_class_the_design_space_does_not_fit(self, tmp_path, capsys):
        """A medium suite relabelled small: the first line is named with its size and the range."""
        d = tmp_path / "d"
        synth = ["synth", "--families", "smooth,plateau", "--seeds", "0", "--size", "medium"]
        assert main(synth + ["--out", str(d)]) == 0
        records = read_jsonl(d / "instances.jsonl")
        for record in records:
            record["size_class"] = "small"
        (d / "instances.jsonl").write_text("".join(json.dumps(record) + "\n" for record in records))
        size = math.prod(knob["cardinality"] for knob in records[0]["schema"])
        capsys.readouterr()
        assert main(["run", "--dataset", str(d), "--budget", "5"]) == 1
        assert capsys.readouterr().err == (
            f"error: {d / 'instances.jsonl'}:1: design space size {size} is outside "
            "size class 'small', [100, 1000]\n"
        )
        assert not (d / "manifest.json").exists()


def test_importing_the_cli_leaves_the_explorer_algorithms_unloaded():
    code = "import sys, dsekit.cli; print('dsekit.explorers.algorithms' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60, check=True)
    assert done.stdout == b"False\n"


# imports everything, says so, then runs the command line on its arguments
_READY_THEN_MAIN = "import sys; from dsekit import cli; print('ready', flush=True); sys.exit(cli.main(sys.argv[1:]))"


# sends itself a SIGINT before each fork, then runs the command line on its arguments
_SIGINT_AT_FORK_THEN_MAIN = (
    "import os, signal, sys; from dsekit import cli; "
    "os.register_at_fork(before=lambda: os.kill(os.getpid(), signal.SIGINT)); "
    "sys.exit(cli.main(sys.argv[1:]))"
)


class TestInterrupt:
    def test_sigint_before_the_command_starts_is_one_line(self, monkeypatch, capsys):
        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "use_one_blas_thread", interrupted)
        assert main(["run", "--dataset", "unread"]) == 130
        assert capsys.readouterr() == ("", "interrupted\n")

    def test_sigint_while_the_pool_forks_ends_run_as_any_sigint(self, tmp_path):
        """A SIGINT that reaches the parent while it forks its workers, before
        they ignore it, used to be swallowed by a fork hook (run completed) or
        to kill a worker, or leave one behind."""
        d = tmp_path / "d"
        assert main(["synth", "--families", "deceptive", "--seeds", "0..1", "--size", "small",
                     "--out", str(d)]) == 0
        out, err = tmp_path / "out", tmp_path / "err"
        argv = ["run", "--dataset", str(d), "--budget", "20", "--workers", "2"]
        with out.open("wb") as stdout, err.open("wb") as stderr:
            run = subprocess.Popen(
                [sys.executable, "-c", _SIGINT_AT_FORK_THEN_MAIN, *argv],
                stdout=stdout,
                stderr=stderr,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                start_new_session=True,
            )
        try:
            code = run.wait(timeout=120)
            with pytest.raises(ProcessLookupError):  # no process is left in its group
                os.killpg(run.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(run.pid, signal.SIGKILL)
        assert (code, err.read_bytes(), out.read_bytes()) == (130, b"interrupted\n", b"")
        assert [p.name for p in d.iterdir()] == ["instances.jsonl"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigint_ends_run_with_one_line_no_files_and_no_processes(self, tmp_path, workers):
        d = tmp_path / "d"
        assert main(["synth", "--families", "deceptive,plateau", "--seeds", "0..7", "--size", "small",
                     "--out", str(d)]) == 0
        run = subprocess.Popen(
            [sys.executable, "-c", _READY_THEN_MAIN, "run", "--dataset", str(d), "--workers", str(workers)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            start_new_session=True,  # its own process group, which the signal goes to
        )
        try:
            assert run.stdout.readline() == b"ready\n"
            time.sleep(0.5)  # well inside the portfolio runs, which take several seconds
            os.killpg(run.pid, signal.SIGINT)
            out, err = run.communicate(timeout=120)
        finally:
            run.kill()
        assert (run.returncode, err, out) == (130, b"interrupted\n", b"")
        assert [p.name for p in d.iterdir()] == ["instances.jsonl"]
        with pytest.raises(ProcessLookupError):  # no process is left in its group
            os.killpg(run.pid, 0)


class TestSynth:
    def test_line_count_contract(self, tmp_path):
        out = tmp_path / "suite"
        assert main(["synth", "--families", "smooth,rugged", "--seeds", "0..4", "--size", "small", "--out", str(out)]) == 0
        assert len((out / "instances.jsonl").read_text().splitlines()) == 10

    def test_repeat_invocation_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(SYNTH + ["--out", str(a)]) == 0
        assert main(SYNTH + ["--out", str(b)]) == 0
        assert (a / "instances.jsonl").read_bytes() == (b / "instances.jsonl").read_bytes()


class TestRunAndTrainArtifacts:
    def test_workers_do_not_change_any_file(self, pipeline, tmp_path):
        other = tmp_path / "d2"
        assert main(SYNTH + ["--out", str(other)]) == 0
        assert main(["run", "--dataset", str(other), "--budget", "60", "--workers", "2"]) == 0
        for name in ("instances.jsonl", "runs.jsonl", "labels.jsonl", "manifest.json"):
            assert (other / name).read_bytes() == (pipeline["d"] / name).read_bytes(), name

    def test_manifest_hashes_the_instances_bytes_run_parsed(self, tmp_path, monkeypatch):
        """Instances rewritten while the portfolio runs leave the manifest stale."""
        d = tmp_path / "d"
        assert main(SYNTH + ["--out", str(d)]) == 0
        real_run_suite = cli.run_suite

        def respaced_then_run(*args):
            path = d / "instances.jsonl"
            path.write_text("".join(json.dumps(record) + "\n" for record in read_jsonl(path)))
            return real_run_suite(*args)

        monkeypatch.setattr(cli, "run_suite", respaced_then_run)
        assert main(["run", "--dataset", str(d), "--budget", "5"]) == 0
        with pytest.raises(ValueError, match="^dataset corrupted/stale: .*instances.jsonl hash"):
            load(d)

    def test_each_command_reads_each_input_file_once(self, tmp_path, monkeypatch):
        """Every read goes through `read_text`, which `cli` imports by name."""
        reads: collections.Counter[Path] = collections.Counter()
        real_read_text = dataset.read_text

        def counted(path, *args):
            reads[path] += 1
            return real_read_text(path, *args)

        monkeypatch.setattr(dataset, "read_text", counted)
        monkeypatch.setattr(cli, "read_text", counted)
        d, t, i = tmp_path / "d", tmp_path / "t", tmp_path / "i"

        def reads_of(argv: list[str]) -> dict[Path, int]:
            reads.clear()
            assert main(argv) == 0
            return dict(reads)

        assert main(SYNTH + ["--out", str(d)]) == 0
        assert reads_of(["run", "--dataset", str(d), "--budget", "5"]) == {d / "instances.jsonl": 1}
        data = {d / name: 1 for name in ("manifest.json", "instances.jsonl", "runs.jsonl", "labels.jsonl")}
        assert reads_of(["train", "--dataset", str(d), "--out", str(t)]) == data
        infer = ["infer", "--dataset", str(d), "--checkpoints", str(t), "--budget", "5", "--out", str(i)]
        assert reads_of(infer) == data
        report = ["report", "--runs", str(d / "runs.jsonl"), "--labels", str(d / "labels.jsonl")]
        report += ["--report", str(i / REPORT_FILE), "--out", str(tmp_path / "r")]
        del data[d / "instances.jsonl"]
        assert reads_of(report) == {**data, i / REPORT_FILE: 1}

    def test_curve_files_have_pinned_epoch_counts(self, pipeline):
        supervised = (pipeline["t"] / SUPERVISED_CURVE_FILE).read_text().splitlines()
        reward = (pipeline["t"] / RL_CURVE_FILE).read_text().splitlines()
        assert supervised[0] == "epoch,loss" and len(supervised) == 1 + 250
        assert reward[0] == "epoch,mean_reward" and len(reward) == 1 + 1000

    def test_train_accepts_a_suite_written_with_crlf_line_ends(self, pipeline, tmp_path):
        crlf = tmp_path / "crlf"
        crlf.mkdir()
        text = (pipeline["d"] / "instances.jsonl").read_bytes()
        (crlf / "instances.jsonl").write_bytes(text.replace(b"\n", b"\r\n"))
        assert main(["run", "--dataset", str(crlf), "--budget", "5"]) == 0
        assert main(["train", "--dataset", str(crlf), "--out", str(tmp_path / "t")]) == 0

    def test_checkpoint_is_stamped_with_dataset_fingerprint(self, pipeline):
        header = (pipeline["t"] / CHECKPOINT_FILE).read_text().splitlines()[0]
        ds = load(pipeline["d"])
        assert f"fingerprint={dataset_fingerprint(ds.manifest)}" in header


class TestInfer:
    def test_report_covers_inference_split_with_valid_rows(self, pipeline):
        ds = load(pipeline["d"])
        rows = read_jsonl(pipeline["i"] / REPORT_FILE)
        assert [r["benchmark_id"] for r in rows] == list(ds.manifest.inference_ids)
        for row in rows:
            assert list(row) == [
                "benchmark_id", "adrs_row", "selected_code", "selected_name", "selected_adrs",
                "fresh_adrs", "best_code", "best_name", "regret",
            ]
            assert len(row["adrs_row"]) == len(ExplorerId)
            assert row["selected_adrs"] == row["adrs_row"][row["selected_code"]]
            assert row["regret"] >= 0.0
            assert row["regret"] == row["selected_adrs"] - min(row["adrs_row"])
            assert row["fresh_adrs"] >= 0.0
            # the best explorer is the first minimum of the row, as in labels.jsonl
            assert row["best_code"] == row["adrs_row"].index(min(row["adrs_row"]))
            assert row["best_name"] == EXPLORER_NAMES[row["best_code"]]
            assert row["selected_name"] == EXPLORER_NAMES[row["selected_code"]]


def toy_row(best: int) -> list[float]:
    """An ADRS row whose one minimum is at code `best`."""
    row = [1.0] * len(ExplorerId)
    row[best] = 0.5
    return row


# three benchmarks whose picks are right, wrong and right
TOY_LABELS = [
    {"benchmark_id": "smooth-small-0000", "label_code": 5, "adrs_row": toy_row(5)},
    {"benchmark_id": "smooth-small-0001", "label_code": 4, "adrs_row": toy_row(4)},
    {"benchmark_id": "rugged-small-0000", "label_code": 5, "adrs_row": toy_row(5)},
]
TOY_REPORT = [
    {"benchmark_id": "smooth-small-0000", "selected_code": 5, "regret": 0.0},
    {"benchmark_id": "smooth-small-0001", "selected_code": 0, "regret": 0.5},
    {"benchmark_id": "rugged-small-0000", "selected_code": 5, "regret": 0.0},
]
for _label, _row in zip(TOY_LABELS, TOY_REPORT):
    _row["adrs_row"] = _label["adrs_row"]
    _row["selected_adrs"] = _label["adrs_row"][_row["selected_code"]]


def run_report(runs: Path, labels: Path, report: Path, out: Path) -> int:
    return main(
        ["report", "--runs", str(runs), "--labels", str(labels), "--report", str(report), "--out", str(out)]
    )


def write_toy_files(root: Path, report: list[dict]) -> tuple[Path, Path, Path]:
    """The toy labels, their runs and the given report rows, as report's three inputs."""
    root.mkdir()
    runs = [
        {"benchmark_id": record["benchmark_id"], "explorer_code": c, "wall_seconds": 0.25, "adrs": 0.0, "evaluations_used": 1, "front": []}
        for record in TOY_LABELS
        for c in range(len(ExplorerId))
    ]
    for name, rows in (("labels.jsonl", TOY_LABELS), ("report.jsonl", report), ("runs.jsonl", runs)):
        (root / name).write_text("".join(json.dumps(r) + "\n" for r in rows))
    return root / "runs.jsonl", root / "labels.jsonl", root / "report.jsonl"


def report_on_toy_files(root: Path, report: list[dict]) -> Path:
    """`report` on the toy files with these report rows; its output directory."""
    out = root / "out"
    assert run_report(*write_toy_files(root, report), out) == 0
    return out


class TestReport:
    def test_accuracy_matches_hand_count_on_toy_files(self, tmp_path):
        out = report_on_toy_files(tmp_path / "toy", TOY_REPORT)
        accuracy = (out / ACCURACY_FILE).read_text().splitlines()
        assert accuracy[0] == "scope,correct,total,accuracy"
        assert accuracy[1] == "overall,2,3,0.666667"
        assert "rugged,1,1,1" in accuracy and "smooth,1,2,0.5" in accuracy

        runtime = (out / RUNTIME_FILE).read_text().splitlines()
        assert runtime[0] == "explorer,modelled_wall_seconds"
        assert [line.split(",")[0] for line in runtime[1:]] == list(EXPLORER_NAMES)
        assert all(line.split(",")[1] == "0.75" for line in runtime[1:])

        matrix = (out / ADRS_MATRIX_FILE).read_text().splitlines()
        assert matrix[0].split(",") == ["benchmark_id", *EXPLORER_NAMES, "best"]
        assert len(matrix) == 1 + 3
        assert matrix[1].endswith(",sbo")

    def test_accuracy_reads_the_labels_row_not_the_regret(self, tmp_path):
        edited = [dict(record, regret=0.0) for record in TOY_REPORT]
        honest = report_on_toy_files(tmp_path / "honest", TOY_REPORT)
        doctored = report_on_toy_files(tmp_path / "doctored", edited)
        for name in (ACCURACY_FILE, ADRS_MATRIX_FILE, RUNTIME_FILE):
            assert (doctored / name).read_bytes() == (honest / name).read_bytes(), name

    @pytest.mark.parametrize("code", [10, -1, "5", 5.0, None])
    def test_a_selected_code_outside_the_explorers_is_named_by_line(self, tmp_path, capsys, code):
        report = [dict(record) for record in TOY_REPORT]
        report[1]["selected_code"] = code
        runs, labels, report_path = write_toy_files(tmp_path / "toy", report)
        assert run_report(runs, labels, report_path, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {report_path}:2: selected_code must be an integer in 0..9")
        assert not (tmp_path / "out").exists()

    def test_a_labels_row_of_nine_values_is_named_by_line(self, pipeline, tmp_path, capsys):
        lines = (pipeline["d"] / "labels.jsonl").read_text().splitlines(keepends=True)
        cut = json.loads(lines[1])
        cut["adrs_row"] = cut["adrs_row"][:9]
        labels = tmp_path / "labels.jsonl"
        labels.write_text("".join([lines[0], json.dumps(cut) + "\n", *lines[2:]]))
        out = tmp_path / "r"
        assert run_report(pipeline["d"] / "runs.jsonl", labels, pipeline["i"] / REPORT_FILE, out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {labels}:2: adrs_row must be 10 finite numbers, got [")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_a_record_missing_a_key_is_named_by_file_line_and_key(self, pipeline, tmp_path, capsys):
        lines = (pipeline["d"] / "runs.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[4])
        del record["wall_seconds"]
        runs = tmp_path / "runs.jsonl"
        runs.write_text("".join([*lines[:4], json.dumps(record) + "\n", *lines[5:]]))
        out = tmp_path / "r"
        assert run_report(runs, pipeline["d"] / "labels.jsonl", pipeline["i"] / REPORT_FILE, out) == 1
        assert capsys.readouterr().err == f"error: {runs}:5: missing key 'wall_seconds'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,edit,message",
        [
            ("adrs_row", lambda r: r["adrs_row"].__setitem__(3, r["adrs_row"][3] + 0.25),
             "adrs_row of {id} differs from {labels}"),
            ("adrs_row", lambda r: r["adrs_row"].__setitem__(0, True),
             "adrs_row must be 10 finite numbers, got [True, "),
            ("selected_adrs", lambda r: r.__setitem__("selected_adrs", r["selected_adrs"] + 0.25),
             "selected_adrs of {id} is not adrs_row["),
            ("selected_adrs", lambda r: r.__setitem__("selected_adrs", str(r["selected_adrs"])),
             "selected_adrs must be a finite number, got '"),
        ],
        ids=["row_entry", "row_bool", "selected_moved", "selected_str"],
    )
    def test_a_report_row_unlike_its_labels_row_is_named_by_line(
        self, pipeline, tmp_path, capsys, key, edit, message
    ):
        lines = (pipeline["i"] / REPORT_FILE).read_text().splitlines(keepends=True)
        record = json.loads(lines[-1])
        edit(record)
        report = tmp_path / REPORT_FILE
        report.write_text("".join([*lines[:-1], json.dumps(record) + "\n"]))
        out = tmp_path / "r"
        labels = pipeline["d"] / "labels.jsonl"
        assert run_report(pipeline["d"] / "runs.jsonl", labels, report, out) == 1
        err = capsys.readouterr().err
        expected = message.format(id=record["benchmark_id"], labels=labels)
        assert err.startswith(f"error: {report}:{len(lines)}: {expected}") and err.count("\n") == 1
        assert not out.exists()

    def test_valid_report_rows_give_the_same_tables(self, pipeline, tmp_path):
        """Reading the labels' values back from the report rows changes no output byte."""
        out = tmp_path / "r"
        d = pipeline["d"]
        assert run_report(d / "runs.jsonl", d / "labels.jsonl", pipeline["i"] / REPORT_FILE, out) == 0
        for name in (ACCURACY_FILE, ADRS_MATRIX_FILE, RUNTIME_FILE):
            assert (out / name).read_bytes() == (pipeline["r"] / name).read_bytes(), name

    def test_runtime_totals_equal_sum_of_wall_seconds(self, pipeline):
        runs = read_jsonl(pipeline["d"] / "runs.jsonl")
        expected = sum(r["wall_seconds"] for r in runs)
        lines = (pipeline["r"] / RUNTIME_FILE).read_text().splitlines()[1:]
        totals = [float(line.split(",")[1]) for line in lines]
        assert sum(totals) == pytest.approx(expected, rel=1e-4)

    def test_adrs_matrix_rows_match_labels(self, pipeline):
        labels = read_jsonl(pipeline["d"] / "labels.jsonl")
        lines = (pipeline["r"] / ADRS_MATRIX_FILE).read_text().splitlines()
        assert len(lines) == 1 + len(labels)
        for line, record in zip(lines[1:], labels):
            cells = line.split(",")
            assert cells[0] == record["benchmark_id"]
            assert cells[-1] == EXPLORER_NAMES[record["label_code"]]
