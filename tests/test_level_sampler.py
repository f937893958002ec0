"""Replay buffer: prioritization weights, insertion, eviction, staleness,
and the text checkpoint format."""

import re

import numpy as np
import pytest

from ued_forge import rng as R
from ued_forge.level_sampler import (
    BufferError,
    SamplerConfig,
    buffer_from_text,
    buffer_to_text,
    insert_batch,
    load_buffer,
    new_buffer,
    sample_levels,
    sampling_weights,
    save_buffer,
    update_batch,
)
from ued_forge.maze import generate_random_level


def levels_n(key, n, w=5, h=5):
    return [generate_random_level(R.generator(R.fold_in(key, i)), w, h, 3) for i in range(n)]


def filled(key, scores, capacity=None):
    lv = levels_n(key, len(scores))
    return insert_batch(new_buffer(capacity or len(scores)), lv, scores), lv


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def test_rank_weights_closed_form():
    # ranks for scores (1.0, 0.1, 0.5) are (1, 3, 2); with temperature 1 the
    # weights are 1/rank normalized: (6/11, 2/11, 3/11). Equality holds to
    # one float64 ulp (the reference is computed in a different order).
    buf, _ = filled(R.key_from_seed(1), [1.0, 0.1, 0.5])
    w = sampling_weights(buf, SamplerConfig(temperature=1.0, staleness_coeff=0.0))
    assert np.max(np.abs(w - np.array([6 / 11, 2 / 11, 3 / 11]))) < 1e-15


def test_rank_weights_temperature():
    buf, _ = filled(R.key_from_seed(2), [0.2, 0.9, 0.4])
    beta = 0.3
    w = sampling_weights(buf, SamplerConfig(temperature=beta, staleness_coeff=0.0))
    ranks = np.array([3, 1, 2], dtype=np.float64)
    ref = (1.0 / ranks) ** (1.0 / beta)
    ref /= ref.sum()
    assert np.allclose(w, ref, rtol=0, atol=1e-15)


def test_rank_ties_resolve_to_earlier_slot():
    buf, _ = filled(R.key_from_seed(3), [0.5, 0.7, 0.5])
    w = sampling_weights(buf, SamplerConfig(temperature=1.0, staleness_coeff=0.0))
    # ranks: slot1 -> 1; tie between slots 0 and 2 -> 2 and 3 in slot order
    ref = np.array([1 / 2, 1 / 1, 1 / 3])
    ref /= ref.sum()
    assert np.allclose(w, ref, rtol=0, atol=1e-15)
    assert w[0] > w[2]


def test_staleness_weights_hand_case():
    buf, _ = filled(R.key_from_seed(4), [0.3, 0.3, 0.3])
    # counters: entries inserted at counter 1; touch slots 1,2 at counter 2
    buf = update_batch(buf, [1, 2], [0.3, 0.3])
    # staleness = counter - last_touched = [1, 0, 0] -> pure staleness picks slot 0
    w = sampling_weights(buf, SamplerConfig(temperature=1.0, staleness_coeff=1.0))
    assert np.allclose(w, [1.0, 0.0, 0.0], atol=1e-15)


def test_staleness_uniform_when_all_fresh():
    buf, _ = filled(R.key_from_seed(5), [0.1, 0.2, 0.3, 0.4])
    w = sampling_weights(buf, SamplerConfig(temperature=1.0, staleness_coeff=1.0))
    assert np.allclose(w, np.full(4, 0.25), atol=1e-15)


def test_mixed_weights_hand_case():
    # rho = 0.3: P = 0.7 * rank part + 0.3 * staleness part
    buf, _ = filled(R.key_from_seed(6), [1.0, 0.1, 0.5])
    buf = update_batch(buf, [0], [1.0])  # slot 0 fresh, slots 1,2 stale by 1
    cfg = SamplerConfig(temperature=1.0, staleness_coeff=0.3)
    rank_part = np.array([6 / 11, 2 / 11, 3 / 11])
    stale_part = np.array([0.0, 0.5, 0.5])
    ref = 0.7 * rank_part + 0.3 * stale_part
    assert np.allclose(sampling_weights(buf, cfg), ref, atol=1e-15)


def test_weights_empty_buffer_raises():
    with pytest.raises(BufferError):
        sampling_weights(new_buffer(4), SamplerConfig())


# ---------------------------------------------------------------------------
# Insertion, eviction, dedup, updates
# ---------------------------------------------------------------------------

def test_insert_appends_until_capacity():
    lv = levels_n(R.key_from_seed(7), 3)
    buf = insert_batch(new_buffer(5), lv[:2], [0.1, 0.2])
    assert buf.size == 2
    buf = insert_batch(buf, lv[2:], [0.3])
    assert buf.size == 3
    assert list(buf.scores[:3]) == [0.1, 0.2, 0.3]
    assert buf.levels[2] == lv[2]


def test_eviction_needs_strict_improvement():
    buf, lv = filled(R.key_from_seed(8), [0.5, 0.2, 0.8])
    newcomers = levels_n(R.key_from_seed(9), 2)
    # equal to the minimum: rejected
    buf2 = insert_batch(buf, [newcomers[0]], [0.2])
    assert buf2.levels == buf.levels
    # strictly better: replaces the argmin slot (slot 1)
    buf3 = insert_batch(buf, [newcomers[1]], [0.3])
    assert buf3.levels[1] == newcomers[1]
    assert buf3.scores[1] == 0.3
    assert buf3.levels[0] == lv[0] and buf3.levels[2] == lv[2]


def test_eviction_argmin_tie_picks_lowest_slot():
    buf, lv = filled(R.key_from_seed(10), [0.2, 0.2, 0.9])
    nc = levels_n(R.key_from_seed(11), 1)[0]
    buf2 = insert_batch(buf, [nc], [0.5])
    assert buf2.levels[0] == nc  # slot 0, not slot 1
    assert buf2.levels[1] == lv[1]


def test_dedup_updates_in_place():
    buf, lv = filled(R.key_from_seed(12), [0.5, 0.2, 0.8], capacity=5)
    buf2 = insert_batch(buf, [lv[1]], [0.9], [{"max_return": 0.7}])
    assert buf2.size == 3  # no growth
    assert buf2.scores[1] == 0.9
    assert buf2.extras[1] == {"max_return": 0.7}


def test_dedup_within_one_batch():
    lv = levels_n(R.key_from_seed(13), 1)
    buf = insert_batch(new_buffer(4), [lv[0], lv[0]], [0.1, 0.6])
    assert buf.size == 1
    assert buf.scores[0] == 0.6  # second occurrence updated the first


def test_insert_rejects_nonfinite_scores():
    lv = levels_n(R.key_from_seed(14), 1)
    with pytest.raises(ValueError):
        insert_batch(new_buffer(3), lv, [np.nan])
    with pytest.raises(ValueError):
        insert_batch(new_buffer(3), lv, [np.inf])


def test_update_batch_bounds_and_last_write_wins():
    buf, _ = filled(R.key_from_seed(15), [0.1, 0.2, 0.3])
    with pytest.raises(BufferError):
        update_batch(buf, [3], [0.5])
    with pytest.raises(BufferError):
        update_batch(buf, [-1], [0.5])
    buf2 = update_batch(buf, [1, 1], [0.7, 0.9])
    assert buf2.scores[1] == 0.9
    assert buf2.last_touched[1] == buf2.episode_counter


def test_counters_advance_once_per_batch_op():
    buf, _ = filled(R.key_from_seed(16), [0.1, 0.2])
    c0 = buf.episode_counter
    buf = update_batch(buf, [0], [0.5])
    assert buf.episode_counter == c0 + 1
    buf, _, _ = sample_levels(buf, SamplerConfig(), R.generator(1), 4)
    assert buf.episode_counter == c0 + 2


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_levels_refreshes_staleness():
    buf, _ = filled(R.key_from_seed(17), [0.9, 0.1, 0.4])
    buf2, idx, lv = sample_levels(buf, SamplerConfig(), R.generator(2), 6)
    assert len(idx) == 6 and len(lv) == 6
    for i, l in zip(idx, lv):
        assert buf2.levels[i] == l
        assert buf2.last_touched[i] == buf2.episode_counter


def test_sample_levels_matches_weights_statistically():
    buf, _ = filled(R.key_from_seed(18), [0.9, 0.1, 0.4, 0.7, 0.2])
    cfg = SamplerConfig(temperature=0.5, staleness_coeff=0.2)
    w = sampling_weights(buf, cfg)
    _, idx, _ = sample_levels(buf, cfg, R.generator(3), 40_000)
    emp = np.bincount(idx, minlength=5) / 40_000
    assert 0.5 * np.abs(emp - w).sum() < 0.02


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(temperature=0.0),
        dict(temperature=-1.0),
        dict(staleness_coeff=-0.1),
        dict(staleness_coeff=1.5),
    ],
)
def test_sampler_config_validation(kwargs):
    with pytest.raises((ValueError, BufferError)):
        SamplerConfig(**kwargs)


# ---------------------------------------------------------------------------
# Checkpoint text format
# ---------------------------------------------------------------------------

def random_buffer(key, capacity, n, with_extras=True):
    gen = R.generator(key)
    lv = levels_n(R.fold_in(key, 1), n)
    scores = [float(s) for s in gen.normal(0, 10, n)]
    extras = None
    if with_extras:
        extras = [
            {"max_return": float(gen.normal())} if gen.random() < 0.7 else {}
            for _ in range(n)
        ]
    buf = insert_batch(new_buffer(capacity), lv, scores, extras)
    if n and gen.random() < 0.5:
        k = int(gen.integers(1, n + 1))
        buf = update_batch(buf, list(range(k)), [float(s) for s in gen.normal(0, 2, k)])
    return buf


def test_buffer_text_round_trip_fuzz():
    for i in range(60):
        key = R.fold_in(R.key_from_seed(22), i)
        n = int(R.generator(key).integers(0, 8))
        buf = random_buffer(R.fold_in(key, 2), 8, n)
        text = buffer_to_text(buf)
        again = buffer_from_text(text)
        assert buffer_to_text(again) == text
        assert again.size == buf.size
        assert again.capacity == buf.capacity
        assert again.episode_counter == buf.episode_counter
        assert np.array_equal(again.scores[:n], buf.scores[:n])
        assert np.array_equal(again.last_touched[:n], buf.last_touched[:n])
        assert again.levels == buf.levels
        assert again.extras == buf.extras


def test_buffer_round_trip_extreme_floats():
    lv = levels_n(R.key_from_seed(23), 4)
    scores = [1e-300, -1e300, 3.141592653589793, -0.0]
    buf = insert_batch(new_buffer(4), lv, scores)
    text = buffer_to_text(buf)
    again = buffer_from_text(text)
    assert buffer_to_text(again) == text
    # -0.0 must survive with its sign
    assert np.signbit(again.scores[3])


def test_buffer_file_round_trip(tmp_path):
    buf = random_buffer(R.key_from_seed(24), 6, 5)
    path = tmp_path / "buf.txt"
    save_buffer(buf, path)
    again = load_buffer(path)
    assert buffer_to_text(again) == buffer_to_text(buf)


def test_load_buffer_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "buffer.txt"
    path.write_bytes(b"\xff\xfe#G\n")
    with pytest.raises(BufferError, match="UTF-8"):
        load_buffer(path)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: "not a buffer\n" + t,
        lambda t: t.replace("capacity", "capazity", 1),
        lambda t: t + "entry trailing garbage\n",
        lambda t: t.replace("score", "scrOe", 1),
        # Fields the writer never writes, which once loaded and then failed
        # in insert_batch, in sample_levels, or wrote NaN into metrics.
        lambda t: "ued-forge-buffer v1\ncapacity 0\nsize 0\nepisode_counter 0\n",
        lambda t: "ued-forge-buffer v1\ncapacity 4\nsize 0\nepisode_counter -1\n",
        lambda t: re.sub(r"last_touched \d+", "last_touched 99", t, count=1),
        lambda t: re.sub(r"last_touched \d+", "last_touched -1", t, count=1),
        lambda t: re.sub(r"score \S+", "score nan", t, count=1),
        lambda t: re.sub(r"score \S+", "score -inf", t, count=1),
    ],
)
def test_buffer_from_text_rejects_malformed(mangle):
    buf = random_buffer(R.key_from_seed(25), 4, 3)
    with pytest.raises(BufferError):
        buffer_from_text(mangle(buffer_to_text(buf)))


def test_buffer_round_trip_non_finite_extras():
    # insert_batch accepts any extra value, so the text format must too.
    lv = levels_n(R.key_from_seed(26), 3)
    extras = [{"max_return": np.nan}, {"max_return": np.inf}, {"max_return": -np.inf}]
    text = buffer_to_text(insert_batch(new_buffer(3), lv, [1.0, 2.0, 3.0], extras))
    assert buffer_to_text(buffer_from_text(text)) == text


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: re.sub(r"capacity \S+", "capacity x", t, count=1),
        lambda t: re.sub(r"score \S+", "score x", t, count=1),
    ],
    ids=["capacity_x", "score_x"],
)
def test_buffer_from_text_bad_number_is_buffer_error(mangle):
    text = buffer_to_text(random_buffer(R.key_from_seed(25), 4, 3))
    with pytest.raises(BufferError):
        buffer_from_text(mangle(text))
