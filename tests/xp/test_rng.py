"""Seeded randomness is drawn host-side, so devices cannot change the values."""

import numpy as np

from repro.xp import KNOWN_DEVICES, get_namespace


def test_random_normal_bit_identical_across_devices():
    reference = None
    for device in KNOWN_DEVICES:
        xp = get_namespace(device)
        draws = xp.to_host(xp.random_normal(1234, (4, 5)))
        if reference is None:
            reference = draws
        else:
            assert np.array_equal(draws, reference), device


def test_random_normal_matches_the_host_generator_exactly():
    xp = get_namespace("fake_gpu")
    draws = xp.to_host(xp.random_normal(7, (16,)))
    assert np.array_equal(draws, np.random.default_rng(7).standard_normal(16))


def test_random_normal_accepts_a_live_generator():
    xp = get_namespace("fake_gpu")
    first = xp.to_host(xp.random_normal(np.random.default_rng(3), (2,)))
    second = xp.to_host(xp.random_normal(np.random.default_rng(3), (2,)))
    assert np.array_equal(first, second)


def test_random_normal_dtype_follows_the_namespace(xp=None):
    assert get_namespace("cpu").random_normal(0, (2,)).dtype == np.float64
    single = get_namespace("cpu", dtype="complex64")
    assert single.random_normal(0, (2,)).dtype == np.float32
