import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitadapt.numerics import (
    DegenerateInputError,
    cosine_similarity,
    make_rng,
    seed_stream,
)


finite_vec = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=1, max_size=32,
).map(np.asarray)


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


class TestCosine:
    def test_orthogonal_is_zero(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_parallel_is_one(self):
        v = np.array([0.3, -1.2, 0.7])
        assert cosine_similarity(v, 5.0 * v) == pytest.approx(1.0, abs=1e-12)

    def test_45_degrees(self):
        got = cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_similarity(np.zeros(3), np.ones(3))

    @given(finite_vec, finite_vec)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        n = min(a.size, b.size)
        a, b = a[:n], b[:n]
        if np.linalg.norm(a) <= 1e-6 or np.linalg.norm(b) <= 1e-6:
            return
        c = cosine_similarity(a, b)
        assert abs(c - cosine_similarity(b, a)) < 1e-12
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
