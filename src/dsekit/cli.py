"""Command-line pipeline: synthesize suites, run portfolios, train, infer, report.

Five subcommands cover the whole workflow. `synth` writes a benchmark suite,
`run` executes the ten-explorer portfolio over it and labels every benchmark,
`train` fits the two-stage selector on the train split, `infer` recommends an
explorer per held-out benchmark and re-executes the pick with a fresh seed,
and `report` turns the data files into three CSV tables. Exit codes follow
the usual convention: 0 success, 1 runtime failure, 2 usage error, and 130
after an interrupt (SIGINT); an error or an interrupt prints one line on
stderr. Every command is deterministic: identical flags and inputs give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

import numpy as np

from .benchmarks import Family, extract_features
from .blas import use_one_blas_thread
from .dataset import (
    INSTANCES_FILE,
    LABEL_FIELDS,
    LABELS_FILE,
    MAX_WORKERS,
    REPORT_FIELDS,
    RUN_FIELDS,
    RUNS_FILE,
    DatasetManifest,
    LabeledSample,
    check_runs_cover,
    dataset_fingerprint,
    instance_line,
    instance_master_seed,
    load,
    manifest_hashes,
    persist_results,
    read_instances,
    read_jsonl,
    read_text,
    run_suite,
    split_ids,
    synth_suite,
    write_atomic,
    write_jsonl,
)
from .explorers import EXHAUSTIVE_REFERENCE_LIMIT, Budget, ExplorerId, explore, portfolio_seed
from .hashing import fnv1a64_hex, mix64
from .pareto import adrs, pareto_filter
from .selector import PpoAgent, load_selector, pretrain_supervised, recommend, save_selector, train_rl
from .surrogate import SurrogateModel, exhaustive_front

CHECKPOINT_FILE = "checkpoint.txt"
SUPERVISED_CURVE_FILE = "supervised_loss.csv"
RL_CURVE_FILE = "rl_reward.csv"
REPORT_FILE = "report.jsonl"
ADRS_MATRIX_FILE = "adrs_matrix.csv"
ACCURACY_FILE = "accuracy.csv"
RUNTIME_FILE = "runtime.csv"

EXPLORER_NAMES = tuple(e.name.lower() for e in ExplorerId)
N_EXPLORERS = len(ExplorerId)

# Salt so the re-execution seed in `infer` never collides with the seed the
# same (benchmark, explorer) cell used during `run`.
_FRESH_RUN_TAG = 0x1F3B


# -- flag parsing --------------------------------------------------------------------


def _families_arg(text: str) -> tuple[Family, ...]:
    names = [token for token in text.split(",") if token.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no families given")
    try:
        families = tuple(Family.from_name(name) for name in names)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if len(set(families)) != len(families):
        raise argparse.ArgumentTypeError("duplicate family names")
    return families


def _seeds_arg(text: str) -> tuple[int, ...]:
    seeds: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        lo, sep, hi = token.partition("..")
        try:
            if sep:
                start, stop = int(lo), int(hi)
                if start > stop:
                    raise ValueError
                seeds.extend(range(start, stop + 1))
            else:
                seeds.append(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad seed token {token!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    if any(s < 0 for s in seeds):
        raise argparse.ArgumentTypeError("seeds must be non-negative")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError("duplicate seeds")
    return tuple(seeds)


def _positive_int(text: str, most: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    if most is not None and value > most:
        raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
    return value


def _fraction_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {value}")
    return value


# -- output helpers ------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)
    write_atomic(path, text)


def _report_line(sample: LabeledSample, selected: ExplorerId, fresh_adrs: float) -> dict:
    """One held-out benchmark: the full ADRS row, the pick, and its regret."""
    row, best = sample.adrs_row, ExplorerId(sample.label)
    return {
        "benchmark_id": sample.benchmark_id,
        "adrs_row": list(row),
        "selected_code": selected.value,
        "selected_name": selected.name.lower(),
        "selected_adrs": row[selected.value],
        "fresh_adrs": fresh_adrs,
        "best_code": best.value,
        "best_name": best.name.lower(),
        "regret": row[selected.value] - row[best.value],
    }


# -- commands ------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    instances = synth_suite(args.families, args.seeds, args.size)
    digest = write_jsonl(
        out / INSTANCES_FILE,
        (instance_line(inst, extract_features(inst)) for inst in instances),
    )
    print(f"wrote {len(instances)} instances to {out / INSTANCES_FILE} (hash {digest})")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    dataset = Path(args.dataset)
    instances_path = dataset / INSTANCES_FILE
    text = read_text(instances_path)
    instances, _ = read_instances(instances_path, text)
    if not instances:
        raise ValueError(f"no instances in {instances_path}")
    train_ids, inference_ids = split_ids(
        [inst.id for inst in instances], args.split_fraction, args.master_seed
    )
    if not train_ids or not inference_ids:
        raise ValueError(
            f"--split-fraction {args.split_fraction} splits {len(instances)} benchmarks into "
            f"{len(train_ids)} train / {len(inference_ids)} inference; each side needs at least one"
        )
    manifest = DatasetManifest(
        master_seed=args.master_seed,
        budget=args.budget,
        size_class=instances[0].size_class,
        families=tuple(dict.fromkeys(inst.family.name.lower() for inst in instances)),
        seeds=tuple(sorted({inst.seed for inst in instances})),
        split_fraction=args.split_fraction,
        train_ids=train_ids,
        inference_ids=inference_ids,
        # the bytes parsed above: the file may change while the portfolio runs
        hashes={INSTANCES_FILE: fnv1a64_hex(text.encode("utf-8"))},
    )
    portfolios = run_suite(instances, args.budget, args.master_seed, args.workers)
    persist_results(dataset, instances, portfolios, manifest)
    print(
        f"ran {N_EXPLORERS} explorers on {len(instances)} benchmarks "
        f"(budget {args.budget}); split {len(train_ids)} train / {len(inference_ids)} inference"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    ds = load(args.dataset)
    features, labels, scores = ds.matrices("train")
    try:
        head, supervised_curve = pretrain_supervised(features, labels, seed=args.seed)
    except OverflowError as err:  # from the feature scaler, before any training
        raise ValueError(f"{Path(args.dataset) / INSTANCES_FILE}: train split {err}") from None
    agent = PpoAgent.init(head, seed=args.seed)
    agent, reward_curve = train_rl(agent, features, scores, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint = io.StringIO()
    save_selector(checkpoint, agent, fingerprint=dataset_fingerprint(ds.manifest), seed=args.seed)
    write_atomic(out / CHECKPOINT_FILE, checkpoint.getvalue())
    _write_csv(
        out / SUPERVISED_CURVE_FILE,
        ("epoch", "loss"),
        [(str(i), _fmt(v)) for i, v in enumerate(supervised_curve)],
    )
    _write_csv(
        out / RL_CURVE_FILE,
        ("epoch", "mean_reward"),
        [(str(i), _fmt(v)) for i, v in enumerate(reward_curve)],
    )
    print(
        f"trained on {len(labels)} benchmarks: supervised loss "
        f"{supervised_curve[0]:.4f} -> {supervised_curve[-1]:.4f}, "
        f"mean reward {reward_curve[0]:.4f} -> {reward_curve[-1]:.4f}; "
        f"checkpoint in {out}"
    )
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    ds = load(args.dataset)
    checkpoint = Path(args.checkpoints)
    if checkpoint.is_dir():
        checkpoint = checkpoint / CHECKPOINT_FILE
    if not checkpoint.exists():
        raise FileNotFoundError(f"checkpoint missing: {checkpoint}")
    try:
        agent, settings = load_selector(checkpoint.read_text(encoding="utf-8").splitlines())
    except ValueError as exc:
        raise ValueError(f"{checkpoint}: {exc}") from None
    fingerprint = dataset_fingerprint(ds.manifest)
    if settings.get("fingerprint") != fingerprint:
        raise ValueError(
            "checkpoint was trained on a different dataset "
            f"(checkpoint fingerprint {settings.get('fingerprint')}, dataset {fingerprint})"
        )

    rows: list[dict] = []
    for benchmark_id in ds.manifest.inference_ids:
        sample, instance = ds.samples[benchmark_id], ds.instances[benchmark_id]
        choice, _ = recommend(agent, np.array(sample.features))

        model = SurrogateModel.from_instance(instance)
        fresh_seed = portfolio_seed(
            mix64(instance_master_seed(ds.manifest.master_seed, instance), _FRESH_RUN_TAG),
            choice,
        )
        fresh = explore(choice, instance, model, Budget(args.budget), fresh_seed)
        if instance.schema.space_size() <= EXHAUSTIVE_REFERENCE_LIMIT:
            reference = exhaustive_front(model)
        else:
            fronts = ds.fronts(benchmark_id)
            reference = pareto_filter([p for front in fronts for p in front.points])
        rows.append(_report_line(sample, choice, adrs(reference, fresh.front)))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(out / REPORT_FILE, rows)

    matrix = np.array([row["adrs_row"] for row in rows])
    mean_selected = float(np.mean([row["selected_adrs"] for row in rows]))
    best_fixed = int(np.argmin(matrix.mean(axis=0)))
    print(
        f"recommended on {len(rows)} held-out benchmarks: mean selected ADRS "
        f"{mean_selected:.6f} vs best fixed explorer {EXPLORER_NAMES[best_fixed]} "
        f"{float(matrix.mean(axis=0)[best_fixed]):.6f}; report in {out / REPORT_FILE}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    runs_path, labels_path, report_path = Path(args.runs), Path(args.labels), Path(args.report)
    # a manifest beside the runs file must vouch for it, and for the labels beside it
    hashes = manifest_hashes(runs_path.parent)
    beside = labels_path.parent.resolve() == runs_path.parent.resolve()
    runs_text = read_text(runs_path, hashes.get(RUNS_FILE))
    labels_text = read_text(labels_path, hashes.get(LABELS_FILE) if beside else None)
    labels_rows = read_jsonl(labels_path, labels_text, LABEL_FIELDS)
    runs_rows = read_jsonl(runs_path, runs_text, RUN_FIELDS)
    report_rows = read_jsonl(report_path, read_text(report_path), REPORT_FIELDS)
    if not report_rows:  # an empty labels file leaves every reported benchmark unknown
        raise ValueError(f"{args.report}: no records")
    check_runs_cover(runs_rows, labels_rows, runs_path, labels_path)
    rows = {record["benchmark_id"]: record["adrs_row"] for record in labels_rows}
    reported: set[str] = set()
    counts: dict[str, list[int]] = {"overall": [0, 0]}
    for lineno, record in enumerate(report_rows, 1):
        benchmark_id, code = record["benchmark_id"], record["selected_code"]
        if benchmark_id not in rows:
            raise ValueError(
                f"{args.report}:{lineno}: unknown benchmark {benchmark_id}, not in {args.labels}"
            )
        if benchmark_id in reported:
            raise ValueError(f"{args.report}:{lineno}: repeated report of {benchmark_id}")
        reported.add(benchmark_id)
        row = rows[benchmark_id]
        if record["adrs_row"] != row:
            raise ValueError(
                f"{args.report}:{lineno}: adrs_row of {benchmark_id} differs from {args.labels}"
            )
        if record["selected_adrs"] != row[code]:
            raise ValueError(
                f"{args.report}:{lineno}: selected_adrs of {benchmark_id} is not "
                f"adrs_row[{code}], {row[code]!r}"
            )
        # a pick is correct when it scored the row's minimum; `regret` is not read
        correct = int(row[code] == min(row))
        for scope in ("overall", benchmark_id.split("-")[0]):
            counts.setdefault(scope, [0, 0])
            counts[scope][0] += correct
            counts[scope][1] += 1
    totals = [0.0] * N_EXPLORERS
    for record in runs_rows:
        totals[record["explorer_code"]] += float(record["wall_seconds"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    matrix_rows = [
        (
            record["benchmark_id"],
            *(_fmt(v) for v in record["adrs_row"]),
            EXPLORER_NAMES[record["label_code"]],
        )
        for record in labels_rows
    ]
    _write_csv(out / ADRS_MATRIX_FILE, ("benchmark_id", *EXPLORER_NAMES, "best"), matrix_rows)
    accuracy_rows = [
        (scope, str(c), str(t), _fmt(c / t))
        for scope, (c, t) in sorted(counts.items(), key=lambda kv: (kv[0] != "overall", kv[0]))
    ]
    _write_csv(out / ACCURACY_FILE, ("scope", "correct", "total", "accuracy"), accuracy_rows)

    _write_csv(
        out / RUNTIME_FILE,
        ("explorer", "modelled_wall_seconds"),
        [(name, _fmt(t)) for name, t in zip(EXPLORER_NAMES, totals)],
    )
    print(f"wrote {ADRS_MATRIX_FILE}, {ACCURACY_FILE}, {RUNTIME_FILE} to {out}")
    return 0


# -- wiring --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsekit",
        description="Design-space exploration portfolio with a learned per-benchmark selector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name,
            help=help_text,
            description=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        p.set_defaults(func=func)
        return p

    p = add("synth", "Synthesize a benchmark suite into instances.jsonl.", cmd_synth)
    p.add_argument(
        "--families",
        type=_families_arg,
        default="smooth,rugged,deceptive,plateau,clustered",
        metavar="LIST",
        help="comma-separated family names",
    )
    p.add_argument(
        "--seeds",
        type=_seeds_arg,
        default="0..5",
        metavar="LIST",
        help="comma-separated seeds; a..b spans are inclusive",
    )
    p.add_argument(
        "--size",
        choices=("small", "medium", "large"),
        default="medium",
        help="design-space size class",
    )
    p.add_argument("--out", required=True, metavar="DIR", help="dataset directory to create")

    p = add("run", "Run the ten-explorer portfolio and label every benchmark.", cmd_run)
    p.add_argument("--dataset", required=True, metavar="DIR", help="directory with instances.jsonl")
    p.add_argument("--budget", type=_positive_int, default=500, help="evaluations per explorer")
    p.add_argument("--master-seed", type=int, default=0, help="seed all run seeds derive from")
    p.add_argument("--workers", type=lambda text: _positive_int(text, MAX_WORKERS), default=1,
                   help=f"parallel worker processes, at most {MAX_WORKERS}")
    p.add_argument(
        "--split-fraction",
        type=_fraction_arg,
        default=0.69,
        help="fraction of benchmarks assigned to the train split",
    )

    p = add("train", "Train the supervised head and the PPO refinement.", cmd_train)
    p.add_argument("--dataset", required=True, metavar="DIR", help="directory with a complete dataset")
    p.add_argument("--seed", type=int, default=0, help="training seed")
    p.add_argument("--out", required=True, metavar="DIR", help="directory for checkpoint and curves")

    p = add("infer", "Recommend an explorer per held-out benchmark and re-run the pick.", cmd_infer)
    p.add_argument("--dataset", required=True, metavar="DIR", help="directory with a complete dataset")
    p.add_argument(
        "--checkpoints",
        required=True,
        metavar="PATH",
        help="checkpoint file or the train output directory",
    )
    p.add_argument("--budget", type=_positive_int, default=500, help="evaluations for the re-run")
    p.add_argument("--out", required=True, metavar="DIR", help="directory for report.jsonl")

    p = add("report", "Summarize data files into three CSV tables.", cmd_report)
    p.add_argument("--runs", required=True, metavar="FILE", help="runs.jsonl path")
    p.add_argument("--labels", required=True, metavar="FILE", help="labels.jsonl path")
    p.add_argument("--report", required=True, metavar="FILE", help="report.jsonl path from infer")
    p.add_argument("--out", required=True, metavar="DIR", help="directory for the CSV tables")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        use_one_blas_thread()
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse already printed the usage message
            return int(exc.code or 0)
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()


__all__ = [
    "ACCURACY_FILE",
    "ADRS_MATRIX_FILE",
    "CHECKPOINT_FILE",
    "EXPLORER_NAMES",
    "REPORT_FILE",
    "RL_CURVE_FILE",
    "RUNTIME_FILE",
    "SUPERVISED_CURVE_FILE",
    "build_parser",
    "cmd_infer",
    "cmd_report",
    "cmd_run",
    "cmd_synth",
    "cmd_train",
    "entry",
    "main",
]
