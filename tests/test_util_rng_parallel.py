"""Tests for RNG plumbing and the parallel map helper."""

import pytest

from repro.util.parallel import parallel_map
from repro.util.rngutil import rng_from_seed, spawn_rngs


def _square(x):
    return x * x


class TestRng:
    def test_seeded_generators_reproduce(self):
        a = rng_from_seed(42).random(5)
        b = rng_from_seed(42).random(5)
        assert (a == b).all()

    def test_spawned_streams_differ(self):
        r1, r2 = spawn_rngs(7, 2)
        assert r1.random() != r2.random()

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn_rngs(3, 4)]
        b = [g.random() for g in spawn_rngs(3, 4)]
        assert a == b

    def test_spawn_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_spawn_zero_is_empty(self):
        assert spawn_rngs(1, 0) == []


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_preserves_order(self):
        assert parallel_map(_square, range(10), workers=1) == [x * x for x in range(10)]

    def test_process_pool_path(self):
        assert parallel_map(_square, list(range(8)), workers=2) == [
            x * x for x in range(8)
        ]

    def test_single_item_never_spawns(self):
        assert parallel_map(_square, [5], workers=8) == [25]

    def test_derived_chunksize_preserves_order(self):
        items = list(range(64))
        assert parallel_map(_square, items, workers=2) == [x * x for x in items]

    def test_serial_path_draws_one_item_per_call(self):
        """A generator is consumed lazily: each item is drawn just before
        its call, so large items are never all alive at once."""
        drawn = []

        def items():
            for x in range(4):
                drawn.append(x)
                yield x

        def fn(x):
            assert drawn == list(range(x + 1))
            return x * x

        assert parallel_map(fn, items(), workers=1) == [0, 1, 4, 9]

    def test_pool_path_takes_a_generator_in_order(self):
        items = (x for x in range(23))
        assert parallel_map(_square, items, workers=2) == [x * x for x in range(23)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_error_reaches_caller(self, workers):
        with pytest.raises(ValueError, match="negative item -3"):
            parallel_map(_reject_negative, [1, -3, 2], workers=workers)


def _reject_negative(x):
    if x < 0:
        raise ValueError(f"negative item {x}")
    return x
