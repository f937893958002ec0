"""Splittable key derivation and generator streams."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ued_forge import rng as R


def test_key_from_seed_deterministic_and_distinct():
    assert R.key_from_seed(0) == R.key_from_seed(0)
    keys = {R.key_from_seed(s) for s in range(200)}
    assert len(keys) == 200
    for k in keys:
        assert 0 <= k < 1 << 128


def test_split_children_distinct_and_prefix_stable():
    k = R.key_from_seed(42)
    kids = R.split(k, 5)
    assert len(set(kids)) == 5
    assert k not in kids
    assert R.split(k, 2) == kids[:2]
    assert R.split(k, 5) == kids


def test_fold_in_varies_with_data():
    k = R.key_from_seed(7)
    folded = {R.fold_in(k, i) for i in range(100)}
    assert len(folded) == 100
    assert R.fold_in(k, 3) == R.fold_in(k, 3)
    # negative indices are legal and distinct
    assert R.fold_in(k, -1) not in folded


def test_fold_in_and_split_streams_disjoint():
    k = R.key_from_seed(9)
    assert R.fold_in(k, 0) != R.split(k, 1)[0]


def test_generator_reproducible():
    k = R.key_from_seed(123)
    a = R.generator(k).random(8)
    b = R.generator(k).random(8)
    assert np.array_equal(a, b)


def test_generator_streams_differ_across_keys():
    k = R.key_from_seed(5)
    k1, k2 = R.split(k)
    a = R.generator(k1).random(4)
    b = R.generator(k2).random(4)
    assert not np.array_equal(a, b)


def test_no_collisions_across_derivation_fuzz():
    seen = set()
    for seed in range(40):
        k = R.key_from_seed(seed)
        for i in range(20):
            f = R.fold_in(k, i)
            seen.add(f)
            for c in R.split(f, 3):
                seen.add(c)
    assert len(seen) == 40 * 20 * 4


def test_generator_accepts_large_keys():
    huge = (1 << 128) - 1
    g = R.generator(huge)
    assert 0.0 <= g.random() < 1.0


def reference_key_from_seed(seed):
    data = b"ued-forge-seed" + seed.to_bytes(16, "little", signed=True)
    return int.from_bytes(hashlib.blake2b(data, digest_size=16).digest(), "little")


@given(st.integers(-(1 << 127), (1 << 127) - 1))
def test_key_from_seed_keeps_every_valid_key(seed):
    assert R.key_from_seed(seed) == reference_key_from_seed(seed)


def test_key_from_seed_takes_numpy_integers():
    assert R.key_from_seed(np.int64(-5)) == R.key_from_seed(-5)
    assert R.key_from_seed(np.uint8(200)) == R.key_from_seed(200)


def test_key_from_seed_rejects_non_integral_seeds():
    for seed in (1.5, 1.0, True, False, np.bool_(True), np.float64(3), "1", None, 1j):
        with pytest.raises(TypeError, match="seed must be an integer"):
            R.key_from_seed(seed)


def test_key_from_seed_rejects_seeds_out_of_range():
    for seed in (1 << 127, -(1 << 127) - 1, 1 << 128, -(1 << 200)):
        with pytest.raises(ValueError, match="seed must lie in"):
            R.key_from_seed(seed)
    for seed in ((1 << 127) - 1, -(1 << 127)):  # the ends of the range
        assert R.key_from_seed(seed) == reference_key_from_seed(seed)
