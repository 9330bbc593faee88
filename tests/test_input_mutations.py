"""A mutated input file either still reads, or fails in one line that names it.

Hypothesis edits one line of one file of a real round: it deletes a key, swaps
a value for one of another type, puts NaN, infinity or 1e308 in a number,
drops the line, or cuts the file inside it. `load` (with the manifest
re-hashed for an edited data file) and `report` must then succeed, or raise a
ValueError or FileNotFoundError whose message is one line naming the edited
file. Any other exception fails the test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dsekit import cli
from dsekit.cli import REPORT_FILE, main
from dsekit.dataset import DATA_FILES, LABELS_FILE, MANIFEST_FILE, RUNS_FILE, load
from dsekit.hashing import fnv1a64_hex

SYNTH = ["synth", "--families", "smooth,clustered", "--seeds", "0..1", "--size", "small"]
MUTATIONS = ("delete_key", "swap_type", "bad_number", "drop_line", "cut_line")
OTHER_TYPES = ("x", 7, 0.5, True, None, [], {})


@pytest.fixture(scope="module")
def round_dir(tmp_path_factory) -> Path:
    """A synth, run, train and infer round whose five files share one directory."""
    root = tmp_path_factory.mktemp("round")
    d, t, i = root / "d", root / "t", root / "i"
    assert main(SYNTH + ["--out", str(d)]) == 0
    assert main(["run", "--dataset", str(d), "--budget", "20"]) == 0
    assert main(["train", "--dataset", str(d), "--out", str(t)]) == 0
    infer = ["infer", "--dataset", str(d), "--checkpoints", str(t), "--budget", "20"]
    assert main(infer + ["--out", str(i)]) == 0
    shutil.copy(i / REPORT_FILE, d / REPORT_FILE)
    return d


def spots(value) -> list[tuple[object, object]]:
    """Every (container, key) pair in a parsed JSON value, outermost first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [spot for key, item in items for spot in [(value, key), *spots(item)]]


def mutate(data, text: str) -> str:
    """The text with one drawn mutation applied to one drawn line."""
    lines = text.splitlines(keepends=True)
    n = data.draw(st.integers(0, len(lines) - 1), label="line")
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    if kind == "drop_line":
        return "".join(lines[:n] + lines[n + 1 :])
    if kind == "cut_line":
        cut = data.draw(st.integers(0, len(lines[n]) - 1), label="cut")
        return "".join(lines[:n]) + lines[n][:cut]
    record = json.loads(lines[n])
    where = spots(record)
    if kind == "delete_key":
        where = [(c, k) for c, k in where if isinstance(c, dict)]
    elif kind == "bad_number":
        where = [(c, k) for c, k in where if type(c[k]) in (int, float)]
    container, key = data.draw(st.sampled_from(where), label="spot")
    if kind == "delete_key":
        del container[key]
    elif kind == "swap_type":
        others = [v for v in OTHER_TYPES if type(v) is not type(container[key])]
        container[key] = data.draw(st.sampled_from(others), label="value")
    else:
        container[key] = data.draw(st.sampled_from((math.nan, math.inf, 1e308)), label="value")
    lines[n] = json.dumps(record) + "\n"
    return "".join(lines)


def fails_cleanly(path: Path, call) -> str | None:
    """Run call(); None if it succeeds, else its one-line message, which names path."""
    try:
        call()
    except (ValueError, FileNotFoundError) as err:
        message = str(err)
        assert "\n" not in message and str(path) in message, message
        return message
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_of_a_mutated_file(round_dir, data):
    name = data.draw(st.sampled_from(DATA_FILES + (MANIFEST_FILE,)), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for each in DATA_FILES + (MANIFEST_FILE,):
            shutil.copy(round_dir / each, d / each)
        text = mutate(data, (d / name).read_text())
        (d / name).write_text(text)
        if name != MANIFEST_FILE:
            manifest = json.loads((d / MANIFEST_FILE).read_text())
            manifest["hashes"][name] = fnv1a64_hex(text.encode("utf-8"))
            (d / MANIFEST_FILE).write_text(json.dumps(manifest))
        fails_cleanly(d / name, lambda: load(d))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_report_on_a_mutated_file(round_dir, data):
    name = data.draw(st.sampled_from((RUNS_FILE, LABELS_FILE, REPORT_FILE)), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {each: round_dir / each for each in (RUNS_FILE, LABELS_FILE, REPORT_FILE)}
        paths[name] = Path(tmp) / name
        paths[name].write_text(mutate(data, (round_dir / name).read_text()))
        argv = [
            "report",
            "--runs", str(paths[RUNS_FILE]),
            "--labels", str(paths[LABELS_FILE]),
            "--report", str(paths[REPORT_FILE]),
            "--out", str(Path(tmp) / "out"),
        ]
        # `main` prints any exception; its own body shows which one was raised
        args = cli.build_parser().parse_args(argv)
        message = fails_cleanly(paths[name], lambda: args.func(args))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
        printed = (0, "") if message is None else (1, f"error: {message}\n")
        assert (code, stderr.getvalue()) == printed
