"""Splittable, counter-based random number generation.

Randomness is passed around as explicit 128-bit *keys*. A key can be split
into independent child keys, folded with an integer (e.g. a cycle index) to
derive a fresh key, or turned into a numpy ``Generator`` backed by the
counter-based Philox bit generator. Because keys are plain integers they are
trivial to checkpoint, and derived streams never depend on how much
randomness was consumed elsewhere, so results are independent of evaluation
order and thread count.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

Key = int

_KEY_BITS = 128
_KEY_BYTES = _KEY_BITS // 8

# Domain tags keep split/fold derivations from ever colliding.
_TAG_SPLIT = b"s"
_TAG_FOLD = b"f"


def key_from_seed(seed: int) -> Key:
    """Derive a root key from a user-facing integer seed in [-2**127, 2**127).

    Raises ``TypeError`` for a bool or a non-integral seed and ``ValueError``
    for one out of range."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}")
    seed = int(seed)
    if not -(1 << 127) <= seed < 1 << 127:
        raise ValueError(f"seed must lie in [-2**127, 2**127), got {seed}")
    data = b"ued-forge-seed" + seed.to_bytes(16, "little", signed=True)
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=_KEY_BYTES).digest(), "little"
    )


def _derive(key: Key, tag: bytes, index: int) -> Key:
    data = (
        int(key).to_bytes(_KEY_BYTES, "little")
        + tag
        + int(index).to_bytes(16, "little", signed=True)
    )
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=_KEY_BYTES).digest(), "little"
    )


def split(key: Key, n: int = 2) -> list[Key]:
    """Split a key into ``n`` independent child keys."""
    return [_derive(key, _TAG_SPLIT, i) for i in range(n)]


def fold_in(key: Key, data: int) -> Key:
    """Combine a key with an integer (loop index, seed, ...) into a new key."""
    return _derive(key, _TAG_FOLD, data)


def is_key(value) -> bool:
    """Whether ``value`` is a key: an int (not a bool) in [0, 2**128)."""
    return type(value) is int and 0 <= value < 1 << _KEY_BITS


def generator(key: Key) -> np.random.Generator:
    """A numpy Generator over the Philox counter-based bit generator."""
    return np.random.Generator(np.random.Philox(key=key & ((1 << _KEY_BITS) - 1)))
