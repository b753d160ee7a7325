"""Initializer tests."""

import numpy as np
import pytest

from repro.nn.initializers import gaussian_init


def test_gaussian_default_uses_he_scale():
    init = gaussian_init(np.random.default_rng(0))
    weights = init((3, 3, 64, 128))
    expected_std = np.sqrt(2.0 / (3 * 3 * 64))
    assert weights.std() == pytest.approx(expected_std, rel=0.05)


def test_gaussian_explicit_std():
    init = gaussian_init(np.random.default_rng(0), std=0.3)
    weights = init((100, 100))
    assert weights.std() == pytest.approx(0.3, rel=0.05)


def test_deterministic_given_generator():
    a = gaussian_init(np.random.default_rng(1))((5, 5))
    b = gaussian_init(np.random.default_rng(1))((5, 5))
    np.testing.assert_array_equal(a, b)
