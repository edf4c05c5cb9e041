"""Unit tests for RNG streams and confidence intervals."""

from __future__ import annotations

import numpy as np
import pytest

from itertools import combinations

from repro.exceptions import SimulationError
from repro.simulation import (
    RandomStreams,
    StreamingMoments,
    batch_means,
    confidence_interval,
    required_samples,
    t_critical,
)


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(42).stream("failures").random(5)
        b = RandomStreams(42).stream("failures").random(5)
        assert np.allclose(a, b)

    def test_different_streams_differ(self):
        streams = RandomStreams(42)
        a = streams.stream("failures").random(5)
        b = streams.stream("repairs").random(5)
        assert not np.allclose(a, b)

    def test_stream_independent_of_creation_order(self):
        first = RandomStreams(7)
        first.stream("a")
        draw_after_other = first.stream("b").random(3)
        second = RandomStreams(7)
        draw_direct = second.stream("b").random(3)
        assert np.allclose(draw_after_other, draw_direct)

    def test_spawn_child_differs_from_parent(self):
        parent = RandomStreams(3)
        child = parent.spawn_child()
        assert not np.allclose(parent.stream("x").random(4), child.stream("x").random(4))

    def test_grandchild_differs_from_child(self):
        # Regression: children used to be derived from a flat per-instance
        # counter that discarded the parent's spawn_key, so a grandchild's
        # streams were bit-identical to the first child's.
        child = RandomStreams(42).spawn_child()
        grandchild = RandomStreams(42).spawn_child().spawn_child()
        assert not np.allclose(child.stream("x").random(5), grandchild.stream("x").random(5))

    def test_spawn_tree_pairwise_distinct(self):
        # Two-level, four-wide spawn tree: every node's draws must be
        # pairwise distinct (and distinct from the root's).
        root = RandomStreams(42)
        children = [root.spawn_child() for _ in range(4)]
        grandchildren = [child.spawn_child(j) for child in children for j in range(4)]
        draws = [node.stream("montecarlo").random(8) for node in [root] + children + grandchildren]
        for a, b in combinations(draws, 2):
            assert not np.allclose(a, b)

    def test_spawn_child_explicit_index_is_order_independent(self):
        first = RandomStreams(9).spawn_child(3).stream("x").random(4)
        other = RandomStreams(9)
        other.spawn_child(0)
        other.spawn_child(1)
        again = other.spawn_child(3).stream("x").random(4)
        assert np.allclose(first, again)

    def test_mixed_explicit_and_implicit_spawns_do_not_collide(self):
        # Implicit spawns allocate from a disjoint index range, so neither
        # call order can hand out the same family twice.
        parent = RandomStreams(42)
        implicit_first = parent.spawn_child()
        pinned = parent.spawn_child(0)
        assert implicit_first.spawn_key != pinned.spawn_key
        other = RandomStreams(42)
        pinned_first = other.spawn_child(0)
        implicit = other.spawn_child()
        assert implicit.spawn_key != pinned_first.spawn_key
        assert not np.allclose(
            pinned_first.stream("x").random(4), implicit.stream("x").random(4)
        )

    def test_spawn_child_same_explicit_index_is_same_family(self):
        parent = RandomStreams(6)
        assert np.allclose(
            parent.spawn_child(3).stream("x").random(4),
            parent.spawn_child(3).stream("x").random(4),
        )

    def test_spawn_child_invalid_index_rejected(self):
        with pytest.raises(SimulationError):
            RandomStreams(0).spawn_child(-1)
        with pytest.raises(SimulationError):
            RandomStreams(0).spawn_child(1 << 31)

    def test_implicit_child_differs_from_explicit_grandchild(self):
        # Regression: spawn-key elements must each fit one 32-bit word —
        # numpy flattens larger elements into several words, which made an
        # implicit child (old base 2**32 -> words (0, 1)) bit-identical to
        # the explicit grandchild at path (0, 1).
        implicit = RandomStreams(42).spawn_child()
        grandchild = RandomStreams(42).spawn_child(0).spawn_child(1)
        assert not np.allclose(
            implicit.stream("x").random(5), grandchild.stream("x").random(5)
        )

    def test_spawn_key_records_lineage(self):
        root = RandomStreams(5)
        assert root.spawn_key == ()
        assert root.spawn_child(2).spawn_key == (2,)
        assert root.spawn_child(2).spawn_child(7).spawn_key == (2, 7)

    def test_empty_name_rejected(self):
        with pytest.raises(SimulationError):
            RandomStreams(0).stream("")

    def test_known_streams_listing(self):
        streams = RandomStreams(0)
        streams.stream("b")
        streams.stream("a")
        assert streams.known_streams() == ["a", "b"]


class TestConfidence:
    def test_interval_contains_true_mean_for_normal_samples(self, rng):
        samples = rng.normal(10.0, 2.0, size=2000)
        interval = confidence_interval(samples, confidence=0.99)
        assert interval.contains(10.0)
        assert interval.lower < interval.mean < interval.upper
        assert interval.n_samples == 2000

    def test_half_width_shrinks_with_samples(self, rng):
        small = confidence_interval(rng.normal(0, 1, 100), 0.95)
        large = confidence_interval(rng.normal(0, 1, 10_000), 0.95)
        assert large.half_width < small.half_width

    def test_t_critical_monotone_in_confidence(self):
        assert t_critical(0.99, 30) > t_critical(0.95, 30)

    def test_t_critical_validation(self):
        with pytest.raises(SimulationError):
            t_critical(1.5, 30)
        with pytest.raises(SimulationError):
            t_critical(0.95, 1)

    def test_confidence_interval_needs_two_samples(self):
        with pytest.raises(SimulationError):
            confidence_interval([1.0])

    def test_required_samples_scales_with_precision(self):
        loose = required_samples(1.0, 0.1, confidence=0.95)
        tight = required_samples(1.0, 0.01, confidence=0.95)
        assert tight > loose
        assert required_samples(0.0, 0.1) == 2

    def test_required_samples_cap(self):
        with pytest.raises(SimulationError):
            required_samples(100.0, 1e-9, max_samples=1000)

    def test_batch_means_shape(self):
        batches = batch_means(list(range(100)), n_batches=10)
        assert batches.shape == (10,)
        assert batches.mean() == pytest.approx(np.mean(range(100)), rel=0.05)

    def test_batch_means_validation(self):
        with pytest.raises(SimulationError):
            batch_means([1, 2, 3], n_batches=10)

    def test_relative_half_width(self, rng):
        interval = confidence_interval(rng.normal(5.0, 0.1, 500))
        assert interval.relative_half_width() < 0.01


class TestStreamingMoments:
    def test_merged_variance_matches_pooled(self, rng):
        chunks = [rng.normal(3.0, 1.5, size=n) for n in (1, 17, 400, 2, 1000)]
        moments = StreamingMoments()
        for chunk in chunks:
            moments.merge(StreamingMoments.from_samples(chunk))
        pooled = np.concatenate(chunks)
        assert moments.n == pooled.size
        assert moments.mean == pytest.approx(float(np.mean(pooled)), abs=1e-12)
        assert moments.variance() == pytest.approx(float(np.var(pooled, ddof=1)), abs=1e-12)

    def test_merge_order_invariant(self, rng):
        chunks = [rng.normal(size=n) for n in (10, 100, 3)]
        forward = StreamingMoments()
        for chunk in chunks:
            forward.merge(StreamingMoments.from_samples(chunk))
        backward = StreamingMoments()
        for chunk in reversed(chunks):
            backward.merge(StreamingMoments.from_samples(chunk))
        assert forward.mean == pytest.approx(backward.mean, abs=1e-12)
        assert forward.variance() == pytest.approx(backward.variance(), abs=1e-12)

    def test_interval_matches_confidence_interval(self, rng):
        samples = rng.normal(10.0, 2.0, size=500)
        direct = confidence_interval(samples, confidence=0.99)
        streamed = StreamingMoments.from_samples(samples).interval(confidence=0.99)
        assert streamed.mean == pytest.approx(direct.mean, abs=1e-12)
        assert streamed.half_width == pytest.approx(direct.half_width, abs=1e-12)
        assert streamed.n_samples == direct.n_samples

    def test_merge_with_empty_is_identity(self, rng):
        moments = StreamingMoments.from_samples(rng.normal(size=50))
        mean, m2 = moments.mean, moments.m2
        moments.merge(StreamingMoments())
        assert (moments.mean, moments.m2) == (mean, m2)
        empty = StreamingMoments()
        empty.merge(StreamingMoments.from_samples([1.0, 2.0]))
        assert empty.n == 2

    def test_too_few_samples_rejected(self):
        with pytest.raises(SimulationError):
            StreamingMoments.from_samples([1.0]).interval()
        with pytest.raises(SimulationError):
            StreamingMoments.from_samples([1.0]).variance()
        with pytest.raises(SimulationError):
            StreamingMoments.from_samples([1.0, float("nan")])
