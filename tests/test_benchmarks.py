"""Tests for synthetic instance generation and feature extraction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dsekit.benchmarks import (
    FEATURE_DIM,
    FEATURE_NAMES,
    KNOB_KINDS,
    NODE_TYPES,
    SIZE_CLASSES,
    BenchmarkInstance,
    Family,
    Knob,
    KnobSchema,
    OperationGraph,
    extract_features,
    instance_from_record,
    instance_to_record,
    synth_instance,
    validate_graph,
)
from dsekit.selector import FeatureScaler

ALL_FAMILIES = list(Family)


def make_schema(cards=(10, 10, 10)):
    knobs = tuple(
        Knob(name=f"unroll{i}", kind="unroll", cardinality=c, levels=tuple(2**j for j in range(c)))
        for i, c in enumerate(cards)
    )
    return KnobSchema(knobs)


def chain_graph(n=10):
    types = ["loop-header"] + ["arith"] * (n - 1)
    edges = [(i, i + 1, "control") for i in range(n - 1)]
    return OperationGraph(tuple(types), tuple(edges))


class TestKnobSchema:
    def test_rejects_single_knob(self):
        with pytest.raises(ValueError, match="2..12 knobs"):
            KnobSchema((make_schema().knobs[0],))

    def test_rejects_tiny_space(self):
        knobs = tuple(
            Knob(name=f"pipeline{i}", kind="pipeline", cardinality=2, levels=(0, 1))
            for i in range(3)
        )
        with pytest.raises(ValueError, match="design space size"):
            KnobSchema(knobs)

    def test_rejects_non_increasing_levels(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Knob(name="u", kind="unroll", cardinality=3, levels=(1, 4, 4))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown knob kind"):
            Knob(name="u", kind="tiling", cardinality=2, levels=(0, 1))

    def test_iter_points_is_lexicographic(self):
        schema = make_schema((10, 10))
        pts = list(schema.iter_points())
        assert len(pts) == 100
        assert pts[0] == (0, 0) and pts[1] == (0, 1) and pts[-1] == (9, 9)


class TestOperationGraph:
    def test_pragma_must_attach_to_one_header(self):
        types = ("loop-header",) + ("arith",) * 7 + ("pragma",)
        edges = tuple((i, i + 1, "control") for i in range(7))
        graph = OperationGraph(types, edges)  # pragma floats free
        with pytest.raises(ValueError, match="pragma node 8"):
            validate_graph(graph)

    def test_disconnected_graph_rejected(self):
        types = ("arith",) * 8
        graph = OperationGraph(types, ((0, 1, "control"),))
        with pytest.raises(ValueError, match="connected"):
            validate_graph(graph)

    def test_too_small_graph_rejected(self):
        with pytest.raises(ValueError, match="8..512 nodes"):
            OperationGraph(("arith",) * 7, ())


class TestSynthInstance:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("size_class", list(SIZE_CLASSES))
    def test_space_size_within_class_bounds(self, family, size_class):
        """Every generated design space fits its size class."""
        lo, hi = SIZE_CLASSES[size_class]
        for seed in range(8):
            inst = synth_instance(family, seed, size_class)
            size = inst.schema.space_size()
            assert lo <= size <= hi
            assert 2 <= len(inst.schema.knobs) <= 12
            assert 8 <= inst.graph.node_count <= 512

    def test_smooth_small_example(self):
        inst = synth_instance(Family.SMOOTH, 1, "small")
        assert 100 <= inst.schema.space_size() <= 1000

    def test_deterministic(self):
        """The same (family, seed, size class) always yields the same instance."""
        a = synth_instance(Family.DECEPTIVE, 11, "medium")
        b = synth_instance(Family.DECEPTIVE, 11, "medium")
        assert a == b
        assert instance_to_record(a, "medium") == instance_to_record(b, "medium")

    def test_distinct_seeds_differ(self):
        a = synth_instance(Family.RUGGED, 0, "small")
        b = synth_instance(Family.RUGGED, 1, "small")
        assert instance_to_record(a, "small") != instance_to_record(b, "small")

    def test_unknown_size_class(self):
        with pytest.raises(ValueError, match="unknown size class"):
            synth_instance(Family.SMOOTH, 0, "huge")

    def test_record_roundtrip(self):
        inst = synth_instance(Family.CLUSTERED, 3, "small")
        back = instance_from_record(instance_to_record(inst, "small"))
        assert back == inst


class TestExtractFeatures:
    def test_dimension_and_names(self):
        assert len(FEATURE_NAMES) == FEATURE_DIM == 24
        inst = synth_instance(Family.SMOOTH, 0, "small")
        feats = extract_features(inst)
        assert feats.shape == (FEATURE_DIM,)
        assert np.all(np.isfinite(feats))

    def test_log_space_size_component(self):
        """|DS| = 1000 puts exactly 3.0 in the first component."""
        inst = BenchmarkInstance(
            id="t", schema=make_schema((10, 10, 10)), graph=chain_graph(), family=Family.SMOOTH, seed=0
        )
        feats = extract_features(inst)
        assert feats[0] == 3.0
        assert feats[1] == 3.0  # knob count
        assert feats[2] == 10.0 and feats[3] == 10.0

    def test_isolated_nodes_degenerate_graph(self):
        """All-arith edgeless graph: histogram is a point mass, no depth, no edges."""
        graph = OperationGraph(("arith",) * 9, ())
        inst = BenchmarkInstance(
            id="d", schema=make_schema((10, 10)), graph=graph, family=Family.SMOOTH, seed=0
        )
        feats = extract_features(inst)
        hist = feats[9:17]
        assert hist[0] == 1.0 and np.all(hist[1:] == 0.0)
        assert feats[8] == 0.0  # edge count
        assert feats[17] == 0.0  # control depth
        assert feats[18] == 0.0  # mean out-degree

    def test_kind_counts(self):
        knobs = (
            Knob("unroll0", "unroll", 4, (1, 2, 4, 8)),
            Knob("pipeline1", "pipeline", 2, (0, 1)),
            Knob("partition2", "partition", 16, tuple(2**j for j in range(16))),
            Knob("partition3", "partition", 4, (1, 2, 4, 8)),
        )
        inst = BenchmarkInstance(
            id="k", schema=KnobSchema(knobs), graph=chain_graph(), family=Family.SMOOTH, seed=0
        )
        feats = extract_features(inst)
        assert list(feats[4:7]) == [1.0, 1.0, 2.0]

    def test_permutation_invariance_exact(self):
        """Relabeling nodes and shuffling edges leaves every component bit-identical."""
        rng = np.random.default_rng(5)
        for family in ALL_FAMILIES:
            inst = synth_instance(family, 2, "small")
            graph = inst.graph
            n = graph.node_count
            perm = rng.permutation(n)
            new_types = [""] * n
            for old, new in enumerate(perm):
                new_types[new] = graph.node_types[old]
            new_edges = [(int(perm[s]), int(perm[d]), k) for s, d, k in graph.edges]
            rng.shuffle(new_edges)
            relabeled = BenchmarkInstance(
                id=inst.id,
                schema=inst.schema,
                graph=OperationGraph(tuple(new_types), tuple(new_edges)),
                family=inst.family,
                seed=inst.seed,
            )
            assert np.array_equal(extract_features(inst), extract_features(relabeled))

    def test_feature_determinism(self):
        inst = synth_instance(Family.PLATEAU, 4, "medium")
        assert np.array_equal(extract_features(inst), extract_features(inst))


@pytest.fixture(scope="module")
def family_features():
    return {
        family: np.array(
            [extract_features(synth_instance(family, seed, "medium")) for seed in range(100)]
        )
        for family in ALL_FAMILIES
    }


class TestFamilySignal:
    def test_centroids_separated(self, family_features):
        """Family centroids stay pairwise >= 0.5 apart in normalized feature space."""
        stacked = np.vstack(list(family_features.values()))
        normed = FeatureScaler.fit(stacked).apply(stacked)
        centroids = [normed[i * 100:(i + 1) * 100].mean(axis=0) for i in range(len(ALL_FAMILIES))]
        for i in range(len(centroids)):
            for j in range(i + 1, len(centroids)):
                dist = float(np.linalg.norm(centroids[i] - centroids[j]))
                assert dist >= 0.5, f"{ALL_FAMILIES[i]} vs {ALL_FAMILIES[j]}: {dist:.3f}"

    def test_nearest_centroid_accuracy(self):
        """A nearest-centroid classifier recovers the family on held-out instances."""
        train = {
            f: np.array([extract_features(synth_instance(f, s, "medium")) for s in range(20)])
            for f in ALL_FAMILIES
        }
        test = {
            f: np.array([extract_features(synth_instance(f, s, "medium")) for s in range(100, 120)])
            for f in ALL_FAMILIES
        }
        scaler = FeatureScaler.fit(np.vstack(list(train.values())))
        centroids = {f: scaler.apply(m).mean(axis=0) for f, m in train.items()}
        correct = total = 0
        for f, matrix in test.items():
            for row in scaler.apply(matrix):
                predicted = min(centroids, key=lambda g: float(np.linalg.norm(row - centroids[g])))
                correct += predicted is f
                total += 1
        assert correct / total >= 0.8

