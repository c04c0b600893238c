"""Tests for deterministic randomness management (repro.rng)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.rng import derive, derive_many, ensure_rng, seed_of, spawn, spawn_lazy


class TestEnsureRng:
    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1 << 30, size=5)
        b = ensure_rng(42).integers(0, 1 << 30, size=5)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = ensure_rng(1).integers(0, 1 << 30, size=8)
        b = ensure_rng(2).integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        gen = ensure_rng(seq)
        assert isinstance(gen, np.random.Generator)

    def test_none_gives_fresh_entropy(self):
        a = ensure_rng(None).integers(0, 1 << 62)
        b = ensure_rng(None).integers(0, 1 << 62)
        # Collision probability is negligible; equality means broken seeding.
        assert a != b


class TestSeedOf:
    def test_none_is_zero(self):
        assert seed_of(None) == 0

    def test_int_is_itself(self):
        assert seed_of(7) == 7
        assert seed_of(np.int64(7)) == 7 and type(seed_of(np.int64(7))) is int

    @pytest.mark.parametrize(
        "rng", [np.random.default_rng(1), np.random.SeedSequence(1), 1.5]
    )
    def test_anything_else_rejected(self, rng):
        with pytest.raises(ParameterError, match="seed-like"):
            seed_of(rng)


class TestSpawn:
    def test_children_are_independent_streams(self):
        children = spawn(ensure_rng(3), 4)
        draws = [c.integers(0, 1 << 62) for c in children]
        assert len(set(draws)) == 4

    def test_spawn_deterministic_given_parent_seed(self):
        a = [g.integers(0, 1 << 30) for g in spawn(ensure_rng(9), 3)]
        b = [g.integers(0, 1 << 30) for g in spawn(ensure_rng(9), 3)]
        assert a == b

    def test_spawn_zero_children(self):
        assert spawn(ensure_rng(0), 0) == []

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(0), -1)


class TestSpawnLazy:
    def test_bit_identical_to_spawn(self):
        eager = [g.integers(0, 1 << 30, size=4) for g in spawn(ensure_rng(9), 5)]
        lazy = [f().integers(0, 1 << 30, size=4) for f in spawn_lazy(ensure_rng(9), 5)]
        for a, b in zip(eager, lazy):
            assert np.array_equal(a, b)

    def test_access_order_irrelevant(self):
        """Stream-to-index assignment is fixed no matter which factory
        runs first (all child seed sequences spawn together then)."""
        eager = [int(g.integers(0, 1 << 62)) for g in spawn(ensure_rng(4), 4)]
        factories = spawn_lazy(ensure_rng(4), 4)
        out = {}
        for i in (3, 0, 2, 1):
            out[i] = int(factories[i]().integers(0, 1 << 62))
        assert [out[i] for i in range(4)] == eager

    def test_nothing_derived_until_first_call(self):
        parent = ensure_rng(2)
        factories = spawn_lazy(parent, 100)
        assert parent.bit_generator.seed_seq.n_children_spawned == 0
        factories[0]()
        assert parent.bit_generator.seed_seq.n_children_spawned == 100

    def test_zero_and_negative(self):
        assert spawn_lazy(ensure_rng(0), 0) == []
        with pytest.raises(ValueError):
            spawn_lazy(ensure_rng(0), -1)


class TestDerive:
    def test_same_labels_same_stream(self):
        a = derive(7, "exp", 3).integers(0, 1 << 30, size=4)
        b = derive(7, "exp", 3).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)

    def test_different_labels_differ(self):
        a = derive(7, "exp", 3).integers(0, 1 << 30, size=4)
        b = derive(7, "exp", 4).integers(0, 1 << 30, size=4)
        assert not np.array_equal(a, b)

    def test_label_order_matters(self):
        a = derive(7, "a", "b").integers(0, 1 << 30, size=4)
        b = derive(7, "b", "a").integers(0, 1 << 30, size=4)
        assert not np.array_equal(a, b)

    def test_derive_independent_of_parent_consumption(self):
        # Deriving from an int seed must not depend on any generator state.
        first = derive(11, "x").integers(0, 1 << 30)
        _ = derive(11, "y").integers(0, 1 << 30)
        again = derive(11, "x").integers(0, 1 << 30)
        assert first == again

    def test_pinned_reference_streams(self):
        """Freeze the label->stream mapping across refactors.

        Every chunk-keyed trial in the repo re-derives its generator from
        ``derive(base_seed, *labels, chunk)``; if these pinned values ever
        change, previously recorded experiment numbers silently stop being
        reproducible.  Values recorded from the original per-trial FNV
        implementation.
        """
        assert list(derive(7, "exp", 3).integers(0, 1 << 30, size=4)) == [
            709069902, 247421871, 287192989, 215155484
        ]
        assert list(derive(0).integers(0, 1 << 30, size=3)) == [
            546054688, 414514874, 288749062
        ]
        assert list(derive(11, "x", 17).integers(0, 1 << 30, size=3)) == [
            930135804, 866458352, 401286331
        ]


class TestDeriveMany:
    def test_matches_looped_derive(self):
        """derive_many(seed, *labels, count) == [derive(seed, *labels, i)]."""
        for start, count in [(0, 7), (3, 5), (95, 20), (0, 1)]:
            gens = derive_many(13, "grid", "a", count=count, start=start)
            assert len(gens) == count
            for offset, gen in enumerate(gens):
                expected = derive(13, "grid", "a", start + offset)
                assert np.array_equal(
                    gen.integers(0, 1 << 30, size=3),
                    expected.integers(0, 1 << 30, size=3),
                )

    def test_digit_boundary_indices(self):
        """The vectorised FNV must handle index widths 9->10, 99->100."""
        for start in (8, 97, 998):
            gens = derive_many(5, "edge", count=4, start=start)
            for offset, gen in enumerate(gens):
                expected = derive(5, "edge", start + offset)
                assert gen.integers(0, 1 << 62) == expected.integers(0, 1 << 62)

    def test_count_zero(self):
        assert derive_many(0, "x", count=0) == []

    def test_count_negative_raises(self):
        with pytest.raises(ValueError):
            derive_many(0, "x", count=-1)
