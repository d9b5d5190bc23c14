import numpy as np

from gaitadapt.numerics import make_rng, seed_stream


class TestSeedStreams:
    def test_same_path_same_draws(self):
        a = seed_stream(123, 4, 5).standard_normal(1000)
        b = seed_stream(123, 4, 5).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_different_paths_diverge(self):
        a = seed_stream(123, 4, 5).standard_normal(1000)
        b = seed_stream(123, 4, 6).standard_normal(1000)
        c = seed_stream(123, 5, 4).standard_normal(1000)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_different_seeds_diverge(self):
        a = seed_stream(1, 0).standard_normal(100)
        b = seed_stream(2, 0).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_make_rng_reproducible(self):
        assert np.array_equal(make_rng(9).random(64), make_rng(9).random(64))

