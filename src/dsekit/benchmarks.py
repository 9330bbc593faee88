"""Synthetic benchmark synthesis: knob schemas, operation graphs, features.

Instances are generated deterministically from (family, seed, size class),
and each one keeps its size class. Each landscape family biases both the
tuning-knob layout and the operation graph shape, so the fixed-length
feature vector carries enough signal to recover the family (and with it,
which explorer tends to win). `instance_from_record` rebuilds an instance
from its `instance_to_record` form and checks it where it enters: the knobs,
the graph by `validate_graph`, and a design-space size inside its size class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from operator import add
from typing import Iterator, Sequence

import numpy as np


class Family(Enum):
    """Landscape family of the synthetic cost surface."""

    SMOOTH = 0
    RUGGED = 1
    DECEPTIVE = 2
    PLATEAU = 3
    CLUSTERED = 4

    @classmethod
    def from_name(cls, name: str) -> "Family":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown family: {name!r}") from None


KNOB_KINDS = ("unroll", "pipeline", "partition")
NODE_TYPES = ("arith", "mem-load", "mem-store", "branch", "phi", "loop-header", "call", "pragma")
SIZE_CLASSES = {
    "small": (100, 1_000),
    "medium": (10_000, 100_000),
    "large": (1_000_000, 10_000_000),
}
FEATURE_DIM = 24
FEATURE_NAMES = (
    "log10_space_size",
    "knob_count",
    "mean_cardinality",
    "max_cardinality",
    "unroll_knobs",
    "pipeline_knobs",
    "partition_knobs",
    "node_count",
    "edge_count",
    *(f"type_frac_{t}" for t in NODE_TYPES),
    "max_control_depth",
    "mean_out_degree",
    "agg_mean_peak",
    "agg_mean_spread",
    "agg_max_mean",
    "agg_max_peak",
    "agg_max_spread",
)

_MAX_KNOBS = 12
_MAX_CARDINALITY = 16
_SPACE_MIN, _SPACE_MAX = 100, 10_000_000
_SYNTH_TAG = 0x5B3C


@dataclass(frozen=True)
class Knob:
    """One tunable directive: a named kind with an ordered ladder of levels."""

    name: str
    kind: str
    cardinality: int
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"knob name must be a non-empty string, got {self.name!r}")
        if self.kind not in KNOB_KINDS:
            raise ValueError(f"unknown knob kind: {self.kind!r}")
        name, card, levels = self.name, self.cardinality, self.levels
        if type(card) is not int or card < 2:
            raise ValueError(f"knob {name!r} needs an integer cardinality >= 2, got {card!r}")
        if len(levels) != card:
            raise ValueError(f"knob {name!r} has {len(levels)} levels for cardinality {card}")
        if any(type(v) is not int for v in levels):
            raise ValueError(f"knob {name!r} levels must be integers, got {levels}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"knob {name!r} levels must be strictly increasing")


@dataclass(frozen=True)
class KnobSchema:
    """The cartesian design space spanned by a tuple of knobs."""

    knobs: tuple[Knob, ...]

    def __post_init__(self) -> None:
        if not (2 <= len(self.knobs) <= _MAX_KNOBS):
            raise ValueError(f"schema needs 2..{_MAX_KNOBS} knobs, got {len(self.knobs)}")
        size = math.prod(k.cardinality for k in self.knobs)
        if not (_SPACE_MIN <= size <= _SPACE_MAX):
            raise ValueError(f"design space size {size} outside [{_SPACE_MIN}, {_SPACE_MAX}]")

    @cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(k.cardinality for k in self.knobs)

    def space_size(self) -> int:
        return math.prod(self.cardinalities)

    def iter_points(self) -> Iterator[tuple[int, ...]]:
        """All knob-index vectors in lexicographic order."""
        return itertools.product(*(range(c) for c in self.cardinalities))


def random_knobs(rng: np.random.Generator, cards: tuple[int, ...]) -> tuple[int, ...]:
    """One uniform point of the space with these knob cardinalities.

    One vector draw consumes the generator exactly like one scalar draw per
    knob in axis order (pinned by tests/test_explorers.py).
    """
    return tuple(rng.integers(0, cards).tolist())


@dataclass(frozen=True)
class OperationGraph:
    """A control/data flow multigraph over typed operation nodes.

    Nodes are identified by index into ``node_types``. Control edges form a
    DAG by construction; pragma nodes hang off exactly one loop header and
    the rest of the graph stays connected without them.
    """

    node_types: tuple[str, ...]
    edges: tuple[tuple[int, int, str], ...]

    def __post_init__(self) -> None:
        n = len(self.node_types)
        if not (8 <= n <= 512):
            raise ValueError(f"graph needs 8..512 nodes, got {n}")
        for t in self.node_types:
            if t not in NODE_TYPES:
                raise ValueError(f"unknown node type: {t!r}")
        for s, d, kind in self.edges:
            if not (type(s) is type(d) is int and 0 <= s < n and 0 <= d < n):
                raise ValueError(f"edge ({s!r}, {d!r}) references a missing node")
            if kind not in ("control", "data"):
                raise ValueError(f"unknown edge kind: {kind!r}")

    @property
    def node_count(self) -> int:
        return len(self.node_types)


def validate_graph(graph: OperationGraph) -> None:
    """Enforce the structural contract on pipeline graphs.

    Every pragma node hangs off exactly one loop header, and the graph stays
    connected once pragma nodes are removed. Applied to every generated or
    deserialized graph; hand-built degenerate graphs used purely for feature
    probing may skip it.
    """
    types = graph.node_types
    neighbors: dict[int, set[int]] = {i: set() for i in range(len(types))}
    for s, d, _ in graph.edges:
        neighbors[s].add(d)
        neighbors[d].add(s)
    for i, t in enumerate(types):
        if t == "pragma" and (len(neighbors[i]) != 1 or types[min(neighbors[i])] != "loop-header"):
            raise ValueError(f"pragma node {i} must attach to exactly one loop-header")
    keep = [i for i, t in enumerate(types) if t != "pragma"]
    if not keep:
        raise ValueError("graph needs non-pragma nodes")
    seen, stack = {keep[0]}, [keep[0]]
    while stack:
        for nxt in neighbors[stack.pop()]:
            if nxt not in seen and types[nxt] != "pragma":
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(keep):
        raise ValueError("graph must stay connected once pragma nodes are removed")


@dataclass(frozen=True)
class BenchmarkInstance:
    """One synthetic benchmark: identity, design space, graph, family, seed, size class."""

    id: str
    schema: KnobSchema
    graph: OperationGraph
    family: Family
    seed: int
    size_class: str


# --- instance synthesis -----------------------------------------------------

# Kind weights: (unroll, pipeline, partition) for binary knobs, and
# (unroll, partition) for wider ladders.
_KNOB_STYLE = {
    Family.SMOOTH: dict(k_shift=0, binary=(0.30, 0.55, 0.15), wide=(0.78, 0.22)),
    Family.RUGGED: dict(k_shift=0, binary=(0.34, 0.33, 0.33), wide=(0.50, 0.50)),
    Family.DECEPTIVE: dict(k_shift=0, binary=(0.40, 0.40, 0.20), wide=(0.62, 0.38)),
    Family.PLATEAU: dict(k_shift=0, binary=(0.12, 0.70, 0.18), wide=(0.25, 0.75)),
    Family.CLUSTERED: dict(k_shift=1, binary=(0.25, 0.35, 0.40), wide=(0.45, 0.55)),
}

_KNOB_COUNTS = {"small": (2, 4), "medium": (4, 7), "large": (6, 10)}

# Graph shape: node-count target, chain fan-out, loop nest depth, body block
# size, and the draw mix over (arith, mem-load, mem-store, branch, phi).
_GRAPH_STYLE = {
    Family.SMOOTH: dict(nodes=(40, 120), chains=(1, 1), depth=(1, 2), body=(7, 14),
                        mix=(0.66, 0.12, 0.07, 0.06, 0.09)),
    Family.RUGGED: dict(nodes=(90, 200), chains=(1, 2), depth=(2, 3), body=(8, 16),
                        mix=(0.34, 0.12, 0.08, 0.26, 0.20)),
    Family.DECEPTIVE: dict(nodes=(110, 260), chains=(1, 1), depth=(4, 6), body=(4, 9),
                           mix=(0.47, 0.16, 0.11, 0.14, 0.12)),
    Family.PLATEAU: dict(nodes=(60, 160), chains=(1, 1), depth=(2, 3), body=(9, 18),
                         mix=(0.25, 0.34, 0.26, 0.08, 0.07)),
    Family.CLUSTERED: dict(nodes=(140, 320), chains=(3, 5), depth=(1, 3), body=(6, 12),
                           mix=(0.46, 0.15, 0.11, 0.14, 0.14)),
}

_BODY_TYPES = ("arith", "mem-load", "mem-store", "branch", "phi")
_NODE_HARD_CAP = 490


def synth_instance(family: Family, seed: int, size_class: str) -> BenchmarkInstance:
    """Deterministically synthesize one benchmark instance."""
    if size_class not in SIZE_CLASSES:
        raise ValueError(f"unknown size class: {size_class!r}")
    rng = np.random.default_rng(
        np.random.SeedSequence([_SYNTH_TAG, family.value, int(seed), _size_code(size_class)])
    )
    schema = _synth_schema(rng, family, size_class)
    graph = _synth_graph(rng, family, len(schema.knobs))
    validate_graph(graph)
    ident = f"{family.name.lower()}-{size_class}-{int(seed):04d}"
    return BenchmarkInstance(
        id=ident, schema=schema, graph=graph, family=family, seed=int(seed), size_class=size_class
    )


def _size_code(size_class: str) -> int:
    return list(SIZE_CLASSES).index(size_class)


def _synth_schema(rng: np.random.Generator, family: Family, size_class: str) -> KnobSchema:
    lo, hi = SIZE_CLASSES[size_class]
    style = _KNOB_STYLE[family]
    k_lo, k_hi = _KNOB_COUNTS[size_class]
    k_hi = min(_MAX_KNOBS, k_hi + style["k_shift"])
    k = int(rng.integers(k_lo, k_hi + 1))
    target = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    cards = []
    for _ in range(k):
        base = target ** (1.0 / k) * math.exp(rng.uniform(-0.45, 0.45))
        cards.append(min(_MAX_CARDINALITY, max(2, int(round(base)))))
    _repair_product(cards, lo, hi)
    knobs = []
    for i, card in enumerate(cards):
        if card == 2:
            kind = KNOB_KINDS[_weighted_choice(rng, style["binary"])]
        else:
            kind = _KNOB_KIND_WIDE[_weighted_choice(rng, style["wide"])]
        if kind == "pipeline":
            levels = tuple(range(card)) if card != 2 else (0, 1)
        else:
            levels = tuple(2**j for j in range(card))
        knobs.append(Knob(name=f"{kind}{i}", kind=kind, cardinality=card, levels=levels))
    return KnobSchema(tuple(knobs))


_KNOB_KIND_WIDE = ("unroll", "partition")


def _weighted_choice(rng: np.random.Generator, weights: Sequence[float]) -> int:
    # a left fold from int 0, as builtin sum was before Python 3.12 compensated it
    u = rng.random() * reduce(add, weights, 0)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def _repair_product(cards: list[int], lo: int, hi: int) -> None:
    """Nudge cardinalities until their product lands in [lo, hi].

    Decrements shrink the product by at most 2x and increments grow it by at
    most 1.5x, while lo..hi spans a full decade, so the loop cannot oscillate.
    """
    for _ in range(400):
        prod = math.prod(cards)
        if prod > hi:
            i = max(range(len(cards)), key=lambda j: (cards[j], j))
            if cards[i] > 2:
                cards[i] -= 1
            elif len(cards) > 2:
                cards.pop()
            else:
                break
        elif prod < lo:
            i = min(range(len(cards)), key=lambda j: (cards[j], j))
            if cards[i] < _MAX_CARDINALITY:
                cards[i] += 1
            elif len(cards) < _MAX_KNOBS:
                cards.append(2)
            else:
                break
        else:
            return
    raise ValueError(f"could not fit design space into [{lo}, {hi}]")


class _GraphBuilder:
    def __init__(self, rng: np.random.Generator, style: dict):
        self.rng = rng
        self.style = style
        self.types: list[str] = []
        self.edges: list[tuple[int, int, str]] = []
        self.headers: list[int] = []

    def add(self, node_type: str) -> int:
        self.types.append(node_type)
        return len(self.types) - 1

    def connect(self, src: int, dst: int, kind: str = "control") -> None:
        self.edges.append((src, dst, kind))

    def body_node(self, prev: int) -> int:
        """Append one body operation after prev, wiring in data edges."""
        rng = self.rng
        t = _BODY_TYPES[_weighted_choice(rng, self.style["mix"])]
        node = self.add(t)
        self.connect(prev, node)
        n_src = {"arith": int(rng.integers(1, 3)), "mem-load": int(rng.integers(0, 2)),
                 "mem-store": 1, "branch": 1, "phi": 2}[t]
        for _ in range(n_src):
            if node > 0:
                self.connect(int(rng.integers(0, node)), node, "data")
        return node

    def nest(self, prev: int, depth: int) -> int:
        """Append a loop nest of the given depth; return its tail node."""
        rng = self.rng
        header = self.add("loop-header")
        self.connect(prev, header)
        self.headers.append(header)
        body_lo, body_hi = self.style["body"]
        body_n = int(rng.integers(body_lo, body_hi + 1))
        nest_pos = int(rng.integers(0, body_n)) if depth > 1 else -1
        cur = header
        for j in range(body_n):
            if len(self.types) >= _NODE_HARD_CAP:
                break
            cur = self.nest(cur, depth - 1) if j == nest_pos else self.body_node(cur)
        return cur


def _synth_graph(rng: np.random.Generator, family: Family, n_knobs: int) -> OperationGraph:
    style = _GRAPH_STYLE[family]
    builder = _GraphBuilder(rng, style)
    target = int(rng.integers(style["nodes"][0], style["nodes"][1] + 1))
    target = min(target, _NODE_HARD_CAP - n_knobs)
    entry = builder.add("arith")
    tails = []
    n_chains = int(rng.integers(style["chains"][0], style["chains"][1] + 1))
    for _ in range(n_chains):
        if n_chains > 1:
            call = builder.add("call")
            builder.connect(entry, call)
            tails.append(call)
        else:
            tails.append(entry)
    chain = 0
    while len(builder.types) < target:
        depth = int(rng.integers(style["depth"][0], style["depth"][1] + 1))
        tails[chain] = builder.nest(tails[chain], depth)
        chain = (chain + 1) % n_chains
    for _ in range(n_knobs):
        header = builder.headers[int(rng.integers(0, len(builder.headers)))]
        pragma = builder.add("pragma")
        builder.connect(header, pragma, "data")
    return OperationGraph(tuple(builder.types), tuple(builder.edges))


# --- feature extraction -----------------------------------------------------


def extract_features(instance: BenchmarkInstance) -> np.ndarray:
    """24-component numeric summary of one instance.

    Order: log10 design-space size; knob count; mean and max cardinality;
    per-kind knob counts (unroll, pipeline, partition); node count; edge
    count; the normalized 8-bin node-type histogram; max control-path depth;
    mean out-degree; and five statistics of a 2-round neighbor-aggregation
    readout. Every component is invariant to node relabeling and edge order.
    """
    schema, graph = instance.schema, instance.graph
    cards = schema.cardinalities
    kind_counts = [sum(1 for k in schema.knobs if k.kind == kind) for kind in KNOB_KINDS]
    type_index = np.array([NODE_TYPES.index(t) for t in graph.node_types], dtype=np.int64)
    histogram = np.bincount(type_index, minlength=len(NODE_TYPES)) / graph.node_count
    values = [
        math.log10(schema.space_size()),
        float(len(schema.knobs)),
        sum(cards) / len(cards),
        float(max(cards)),
        *(float(c) for c in kind_counts),
        float(graph.node_count),
        float(len(graph.edges)),
        *histogram.tolist(),
        float(_max_control_depth(graph)),
        len(graph.edges) / graph.node_count,
        *_neighbor_readout(graph, type_index),
    ]
    features = np.array(values, dtype=float)
    if features.shape != (FEATURE_DIM,) or not np.all(np.isfinite(features)):
        raise AssertionError("internal error: malformed feature vector")
    return features


def _max_control_depth(graph: OperationGraph) -> int:
    """Longest path, in edges, through the control subgraph (a DAG)."""
    n = graph.node_count
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for s, d, kind in graph.edges:
        if kind == "control":
            succ[s].append(d)
            indeg[d] += 1
    depth = [0] * n
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while queue:
        cur = queue.pop()
        seen += 1
        for nxt in succ[cur]:
            depth[nxt] = max(depth[nxt], depth[cur] + 1)
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    if seen != n:
        raise ValueError("control edges must form a DAG")
    return max(depth)


def _neighbor_readout(graph: OperationGraph, type_index: np.ndarray) -> list[float]:
    """Five order-invariant statistics from 2 rounds of neighbor aggregation.

    Aggregation runs on integer counts (exact under any summation order) and
    per-node normalization plus sorted reductions keep the floating-point
    results bit-identical under node relabeling.
    """
    n = len(type_index)
    state = np.zeros((n, len(NODE_TYPES)), dtype=np.int64)
    state[np.arange(n), type_index] = 1
    if graph.edges:
        src = np.array([e[0] for e in graph.edges], dtype=np.int64)
        dst = np.array([e[1] for e in graph.edges], dtype=np.int64)
    else:
        src = dst = np.zeros(0, dtype=np.int64)
    for _ in range(2):
        nxt = state.copy()
        np.add.at(nxt, dst, state[src])
        np.add.at(nxt, src, state[dst])
        state = nxt
    dist = state / state.sum(axis=1, keepdims=True)
    mean_embed = np.sort(dist, axis=0).sum(axis=0) / n
    max_embed = dist.max(axis=0)
    return [
        float(mean_embed.max()),
        float(mean_embed.std()),
        float(max_embed.mean()),
        float(max_embed.max()),
        float(max_embed.std()),
    ]


# --- serialization ----------------------------------------------------------


def instance_to_record(instance: BenchmarkInstance) -> dict:
    """Plain-data form of an instance for JSONL persistence."""
    return {
        "id": instance.id,
        "family": instance.family.name.lower(),
        "seed": instance.seed,
        "size_class": instance.size_class,
        "schema": [
            {"name": k.name, "kind": k.kind, "cardinality": k.cardinality, "levels": list(k.levels)}
            for k in instance.schema.knobs
        ],
        "graph": {
            "nodes": [[i, t] for i, t in enumerate(instance.graph.node_types)],
            "edges": [[s, d, kind] for s, d, kind in instance.graph.edges],
        },
    }


def instance_from_record(record: dict) -> BenchmarkInstance:
    """Rebuild an instance from its JSONL record, as `instance_to_record` writes it;
    the design space must lie in the record's size class."""
    knobs = tuple(
        Knob(name=k["name"], kind=k["kind"], cardinality=k["cardinality"],
             levels=tuple(k["levels"]))
        for k in record["schema"]
    )
    nodes = record["graph"]["nodes"]
    if not all(type(index) is int and index == i for i, (index, _) in enumerate(nodes)):
        raise ValueError("each node must be [its position, type], in order")
    graph = OperationGraph(
        node_types=tuple(t for _, t in nodes),
        edges=tuple((s, d, kind) for s, d, kind in record["graph"]["edges"]),
    )
    validate_graph(graph)
    instance = BenchmarkInstance(
        id=record["id"],
        schema=KnobSchema(knobs),
        graph=graph,
        family=Family.from_name(record["family"]),
        seed=record["seed"],
        size_class=record["size_class"],
    )
    size, (lo, hi) = instance.schema.space_size(), SIZE_CLASSES[instance.size_class]
    if not lo <= size <= hi:
        raise ValueError(
            f"design space size {size} is outside size class {instance.size_class!r}, [{lo}, {hi}]"
        )
    return instance
