"""Per-layer tracing of one dsekit pipeline stage.

    python3 bench/tracing.py TRACE_JSON <dsekit command and flags>

Rebinds, in this process only, the names through which each dsekit layer
calls the next (`cli` -> `dataset` -> `explorers` -> `surrogate`, `pareto`,
`hashing`, `selector`) to timing wrappers, then runs `dsekit.cli.main` on the
remaining arguments and writes the aggregated spans, counters and one record
per `explore` call to TRACE_JSON. The program's files are not touched, so the
stage writes the same bytes it writes untraced.

A span's `self_s` is its duration minus the surrogate evaluations made inside
it, which is how explorer and scoring self time are defined. Surrogate
evaluations are too many to record as spans; they only add to a running total.

Worker processes of `run --workers N` get the same wrappers (forked from this
process, or re-installed by `_traced_cell` under other start methods). Each
cell hands its own trace back to the parent on the result object, where the
scoring wrapper folds it in before `score_results` copies the result.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_clock = time.perf_counter
_CELL_TRACE = "_bench_cell_trace"


class Tracer:
    """In-memory spans, counters and explore-cell records of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [total_s, self_s, calls]
        self.counts: dict[str, int] = {}
        self.cells: list[dict] = []
        self.surrogate_s = 0.0
        self.surrogate_evals = 0
        self.proposals = 0
        self.memo_hits = 0

    def add_span(self, name: str, total: float, self_s: float) -> None:
        entry = self.spans.setdefault(name, [0.0, 0.0, 0])
        entry[0] += total
        entry[1] += self_s
        entry[2] += 1

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def state(self) -> dict:
        counts = dict(self.counts)
        counts["surrogate.evals"] = self.surrogate_evals
        counts["explorers.proposals"] = self.proposals
        counts["explorers.memo_hits"] = self.memo_hits
        spans = {name: list(v) for name, v in self.spans.items()}
        spans["surrogate.eval"] = [self.surrogate_s, self.surrogate_s, self.surrogate_evals]
        return {"spans": spans, "counts": counts, "cells": list(self.cells)}

    def merge(self, state: dict) -> None:
        """Fold in a worker cell's trace: time and counts it spent elsewhere."""
        spans = dict(state["spans"])
        total_s, _, _ = spans.pop("surrogate.eval")
        for name, (total, self_s, calls) in spans.items():
            entry = self.spans.setdefault(name, [0.0, 0.0, 0])
            entry[0] += total
            entry[1] += self_s
            entry[2] += calls
        counts = dict(state["counts"])
        self.surrogate_s += total_s
        self.surrogate_evals += counts.pop("surrogate.evals")
        self.proposals += counts.pop("explorers.proposals")
        self.memo_hits += counts.pop("explorers.memo_hits")
        for name, n in counts.items():
            self.count(name, n)
        self.cells.extend(state["cells"])


TRACER = Tracer()
_ORIGINAL: dict[str, object] = {}


def span(name: str, fn):
    """Wrap fn so each call adds one span to TRACER."""

    def wrapped(*args, **kwargs):
        surrogate0 = TRACER.surrogate_s
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            total = _clock() - t0
            TRACER.add_span(name, total, total - (TRACER.surrogate_s - surrogate0))

    return wrapped


def _epochs(name: str, fn):
    """Span for a training loop that also counts the epochs its curve reports."""
    timed = span(name, fn)

    def wrapped(*args, **kwargs):
        model, curve = timed(*args, **kwargs)
        TRACER.count(name + "_epochs", len(curve))
        return model, curve

    return wrapped


def _evaluate_knobs(fn):
    def wrapped(self, knobs):
        t0 = _clock()
        out = fn(self, knobs)
        TRACER.surrogate_s += _clock() - t0
        TRACER.surrogate_evals += 1
        return out

    return wrapped


def _evaluator_evaluate(fn):
    def wrapped(self, knobs):
        TRACER.proposals += 1
        if self.seen(knobs):
            TRACER.memo_hits += 1
        return fn(self, knobs)

    return wrapped


def _explore(fn):
    def wrapped(explorer, instance, model, budget, seed, *args, **kwargs):
        surrogate0, evals0 = TRACER.surrogate_s, TRACER.surrogate_evals
        proposals0, hits0 = TRACER.proposals, TRACER.memo_hits
        t0 = _clock()
        result = fn(explorer, instance, model, budget, seed, *args, **kwargs)
        seconds = _clock() - t0
        TRACER.cells.append(
            {
                "benchmark_id": instance.id,
                "explorer": result.explorer.name.lower(),
                "seconds": seconds,
                "self_s": seconds - (TRACER.surrogate_s - surrogate0),
                "surrogate_evals": TRACER.surrogate_evals - evals0,
                "proposals": TRACER.proposals - proposals0,
                "memo_hits": TRACER.memo_hits - hits0,
                "evaluations": result.evaluations_used,
                "space": instance.schema.space_size(),
                "budget": budget.max_evaluations,
                "modelled_s": result.wall_seconds,
            }
        )
        return result

    return wrapped


def _fnv(fn):
    timed = span("hashing.fnv", fn)

    def wrapped(data):
        TRACER.count("hashing.fnv_bytes", len(data))
        return timed(data)

    return wrapped


def _traced_cell(*args):
    """Worker-side stand-in for `dataset._explore_cell`."""
    install()
    TRACER.reset()  # drop whatever a forked worker inherited from its parent
    result = _ORIGINAL["explore_cell"](*args)
    object.__setattr__(result, _CELL_TRACE, TRACER.state())
    TRACER.reset()
    return result


def _merging_score_results(fn):
    scored = span("scoring", fn)

    def wrapped(instance, model, results, *args, **kwargs):
        for result in results:
            state = result.__dict__.pop(_CELL_TRACE, None)
            if state is not None:
                TRACER.merge(state)
        return scored(instance, model, results, *args, **kwargs)

    return wrapped


def install() -> None:
    """Rebind the layer boundaries to traced wrappers; idempotent."""
    if _ORIGINAL:
        return
    from dsekit import cli, dataset, hashing, pareto, surrogate
    from dsekit.explorers import base
    from dsekit.surrogate import SurrogateModel

    _ORIGINAL["explore_cell"] = dataset._explore_cell
    SurrogateModel.evaluate_knobs = _evaluate_knobs(SurrogateModel.evaluate_knobs)
    SurrogateModel.from_instance = classmethod(
        span("surrogate.build", SurrogateModel.from_instance.__func__)
    )
    base.BudgetedEvaluator.evaluate = _evaluator_evaluate(base.BudgetedEvaluator.evaluate)
    for module in (base, dataset, cli):
        module.explore = _explore(module.explore)
    for module in (pareto, base, dataset, surrogate):
        module.pareto_filter = span("pareto.filter", module.pareto_filter)
    for module in (base, cli):
        module.adrs = span("pareto.adrs", module.adrs)
    hashing.fnv1a64 = _fnv(hashing.fnv1a64)
    base.score_results = span("scoring", base.score_results)
    dataset.score_results = _merging_score_results(dataset.score_results)
    dataset._explore_cell = _traced_cell

    cli.synth_suite = span("benchmarks.synth", cli.synth_suite)
    cli.extract_features = span("benchmarks.features", cli.extract_features)
    cli.run_suite = span("dataset.run_suite", cli.run_suite)
    cli.persist_results = span("dataset.persist", cli.persist_results)
    cli.load = span("dataset.load", cli.load)
    cli.pretrain_supervised = _epochs("selector.supervised", cli.pretrain_supervised)
    cli.train_rl = _epochs("selector.rl", cli.train_rl)
    cli.save_selector = span("selector.save", cli.save_selector)
    cli.load_selector = span("selector.load", cli.load_selector)
    cli.recommend = span("selector.recommend", cli.recommend)
    # In `infer` these two build the ADRS reference for the fresh re-run.
    cli.exhaustive_front = span("infer.reference", cli.exhaustive_front)
    cli.pareto_filter = span("infer.reference", span("pareto.filter", cli.pareto_filter))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracing.py TRACE_JSON <dsekit command> [flags]", file=sys.stderr)
        return 2
    trace_path, cli_args = Path(argv[0]), argv[1:]
    install()
    from dsekit import cli

    TRACER.reset()
    t0 = _clock()
    code = cli.main(cli_args)
    state = TRACER.state()
    state["main_s"] = _clock() - t0
    trace_path.write_text(json.dumps(state), encoding="utf-8")
    return code


if __name__ == "__main__":
    # Run through the importable module, not __main__, so that pool workers
    # can unpickle `tracing._traced_cell` under any start method.
    import tracing

    sys.exit(tracing.main(sys.argv[1:]))
