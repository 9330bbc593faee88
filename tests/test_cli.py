"""End-to-end checks of the command-line pipeline and its file artifacts."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dsekit import cli
from dsekit.cli import (
    ACCURACY_FILE,
    ADRS_MATRIX_FILE,
    CHECKPOINT_FILE,
    EXPLORER_NAMES,
    REPORT_FILE,
    RL_CURVE_FILE,
    RUNTIME_FILE,
    SUPERVISED_CURVE_FILE,
    ReportRow,
    main,
)
from dsekit.dataset import dataset_fingerprint, load
from dsekit.explorers import ExplorerId

SYNTH = ["synth", "--families", "smooth,clustered", "--seeds", "0..1", "--size", "small"]


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
    def test_unknown_family_exits_2_naming_token(self, tmp_path, capsys):
        assert main(["synth", "--families", "smooth,bogus", "--out", str(tmp_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_bad_seed_token_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--seeds", "0..x", "--out", str(tmp_path)]) == 2
        assert "0..x" in capsys.readouterr().err

    def test_budget_zero_exits_2(self, tmp_path):
        assert main(["run", "--dataset", str(tmp_path), "--budget", "0"]) == 2

    def test_bad_split_fraction_exits_2(self, tmp_path):
        assert main(["run", "--dataset", str(tmp_path), "--split-fraction", "1.5"]) == 2

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

    def test_curve_files_have_pinned_epoch_counts(self, pipeline):
        supervised = (pipeline["t"] / SUPERVISED_CURVE_FILE).read_text().splitlines()
        reward = (pipeline["t"] / RL_CURVE_FILE).read_text().splitlines()
        assert supervised[0] == "epoch,loss" and len(supervised) == 1 + 250
        assert reward[0] == "epoch,mean_reward" and len(reward) == 1 + 1000

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
            assert len(row["adrs_row"]) == len(ExplorerId)
            assert row["selected_adrs"] == row["adrs_row"][row["selected_code"]]
            assert row["regret"] >= 0.0
            assert row["regret"] == row["selected_adrs"] - min(row["adrs_row"])
            assert row["fresh_adrs"] >= 0.0

    def test_report_row_invariants_enforced(self):
        row = tuple(float(k + 1) for k in range(len(ExplorerId)))
        with pytest.raises(ValueError, match="regret"):
            ReportRow(
                benchmark_id="x",
                adrs_row=row,
                selected=ExplorerId.SA,
                selected_adrs=row[1],
                fresh_adrs=0.0,
                best=ExplorerId.NSGA2,
                regret=0.5,
            )
        with pytest.raises(ValueError, match="minimizer"):
            ReportRow(
                benchmark_id="x",
                adrs_row=row,
                selected=ExplorerId.SA,
                selected_adrs=row[1],
                fresh_adrs=0.0,
                best=ExplorerId.SA,
                regret=1.0,
            )


class TestReport:
    def test_accuracy_matches_hand_count_on_toy_files(self, tmp_path):
        n = len(ExplorerId)
        labels = [
            {"benchmark_id": "smooth-small-0000", "label_code": 5, "adrs_row": [1.0] * n},
            {"benchmark_id": "smooth-small-0001", "label_code": 4, "adrs_row": [1.0] * n},
            {"benchmark_id": "rugged-small-0000", "label_code": 5, "adrs_row": [1.0] * n},
        ]
        report = [
            {"benchmark_id": "smooth-small-0000", "selected_code": 5, "regret": 0.0},
            {"benchmark_id": "smooth-small-0001", "selected_code": 0, "regret": 0.3},
            {"benchmark_id": "rugged-small-0000", "selected_code": 5, "regret": 0.0},
        ]
        runs = [
            {"benchmark_id": record["benchmark_id"], "explorer_code": c, "wall_seconds": 0.25, "adrs": 0.0, "evaluations_used": 1, "front": []}
            for record in labels
            for c in range(n)
        ]
        for name, rows in (("labels.jsonl", labels), ("report.jsonl", report), ("runs.jsonl", runs)):
            (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "out"
        assert (
            main(
                [
                    "report",
                    "--runs", str(tmp_path / "runs.jsonl"),
                    "--labels", str(tmp_path / "labels.jsonl"),
                    "--report", str(tmp_path / "report.jsonl"),
                    "--out", str(out),
                ]
            )
            == 0
        )
        accuracy = (out / ACCURACY_FILE).read_text().splitlines()
        assert accuracy[0] == "scope,correct,total,accuracy"
        assert accuracy[1] == "overall,2,3,0.666667"
        assert "rugged,1,1,1" in accuracy and "smooth,1,2,0.5" in accuracy

        runtime = (out / RUNTIME_FILE).read_text().splitlines()
        assert runtime[0] == "explorer,total_wall_seconds"
        assert [line.split(",")[0] for line in runtime[1:]] == list(EXPLORER_NAMES)
        assert all(line.split(",")[1] == "0.75" for line in runtime[1:])

        matrix = (out / ADRS_MATRIX_FILE).read_text().splitlines()
        assert matrix[0].split(",") == ["benchmark_id", *EXPLORER_NAMES, "best"]
        assert len(matrix) == 1 + 3
        assert matrix[1].endswith(",sbo")

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
