"""Evaluation sweeps, aggregate statistics, and the two reference policies."""

import numpy as np
import pytest

from ued_forge import rng as R
from ued_forge.evaluation import (
    evaluate,
    holdout_levels,
    holdout_names,
    interquartile_mean,
    network_policy,
    oracle_policy,
    run_episode,
)
from ued_forge.maze import MazeEnv, parse_level, shortest_path_distances
from ued_forge.rl_core import NetConfig, _features, forward, init_params, log_softmax


def student_params(seed=0, view=5):
    cfg = NetConfig(image_shape=(view, view, 3), extra_dim=4, n_actions=3, hidden=8)
    return init_params(R.generator(R.key_from_seed(seed)), cfg)


# ---------------------------------------------------------------------------
# Interquartile mean
# ---------------------------------------------------------------------------

def test_iqm_hand_case():
    assert interquartile_mean([0.0, 0.0, 0.5, 1.0]) == pytest.approx(0.25)


def test_iqm_unsorted_input():
    assert interquartile_mean([1.0, 0.0, 0.5, 0.0]) == pytest.approx(0.25)


def test_iqm_small_n_keeps_everything():
    # n < 4 drops nothing
    assert interquartile_mean([2.0]) == 2.0
    assert interquartile_mean([1.0, 3.0]) == 2.0
    assert interquartile_mean([1.0, 2.0, 6.0]) == 3.0


def test_iqm_drops_extremes():
    # n = 8 drops 2 from each end
    vals = [100.0, -50.0, 1.0, 2.0, 3.0, 4.0, 99.0, -99.0]
    assert interquartile_mean(vals) == pytest.approx(2.5)


def test_iqm_empty_raises():
    with pytest.raises(ValueError):
        interquartile_mean([])


# ---------------------------------------------------------------------------
# Episodes and policies
# ---------------------------------------------------------------------------

STRAIGHT = parse_level("G....\n.....\n.....\n.....\n^....\n")


def test_oracle_episode_reward_matches_distance():
    env = MazeEnv(max_steps=20, view_size=3)
    dist = int(shortest_path_distances(STRAIGHT)[4, 0])
    assert dist == 4
    ret, solved = run_episode(env, oracle_policy(), STRAIGHT, R.generator(1))
    assert solved
    assert ret == pytest.approx(1.0 - 0.9 * dist / 20)


def test_oracle_times_out_on_unreachable_goal():
    level = parse_level("G#...\n##...\n.....\n.....\n^....\n")
    env = MazeEnv(max_steps=8, view_size=3)
    ret, solved = run_episode(env, oracle_policy(), level, R.generator(1))
    assert not solved and ret == 0.0


def test_greedy_policy_ignores_rng():
    env = MazeEnv(max_steps=10, view_size=5)
    pol = network_policy(student_params(), env, sample=False)
    r1 = run_episode(env, pol, STRAIGHT, R.generator(1))
    r2 = run_episode(env, pol, STRAIGHT, R.generator(99))
    assert r1 == r2


def test_sampled_policy_uses_rng():
    env = MazeEnv(max_steps=30, view_size=5)
    pol = network_policy(student_params(), env, sample=True)
    state, obs = env.reset_to_level(STRAIGHT, R.generator(1))
    gen = R.generator(7)
    actions = {pol(state, obs, gen) for _ in range(50)}
    assert len(actions) > 1  # near-uniform net: all actions show up


def test_sampled_policy_matches_numpy_inverse_cdf():
    # The closure's running sum must pick what np.cumsum and np.searchsorted
    # pick from the same uniform; the untrained net is near-uniform, so scale
    # its weights up to reach uneven probabilities too.
    env = MazeEnv(max_steps=30, view_size=5)
    for scale in (1.0, 300.0):
        base = student_params(3)
        theta = base.flat().copy()
        base.config.views(theta)["wp"][...] *= np.float32(scale)
        params = base.with_flat(theta)
        pol = network_policy(params, env, sample=True)
        state, obs = env.reset_to_level(STRAIGHT, R.generator(1))
        image, extra = env.encode_observation(obs)
        logits, _ = forward(params, _features(image[None], extra[None], np.float32))
        cdf = np.cumsum(np.exp(log_softmax(logits.astype(np.float64))[0]))
        gen, ref = R.generator(7), R.generator(7)
        for _ in range(200):
            a = int(np.searchsorted(cdf, ref.random() * cdf[-1], side="right"))
            assert pol(state, obs, gen) == min(a, cdf.size - 1)


# ---------------------------------------------------------------------------
# evaluate()
# ---------------------------------------------------------------------------

def test_evaluate_oracle_solves_holdouts():
    env = MazeEnv(max_steps=250, view_size=5)
    for name in holdout_names():
        levels = holdout_levels(name)
        report = evaluate(env, oracle_policy(), levels, episodes=2,
                          key=R.key_from_seed(0))
        assert report.solve_rate_mean == 1.0, name
        assert np.all(report.mean_returns > 0)


def test_holdout_names_and_missing():
    assert "easy_9x9" in holdout_names()
    assert "eval_13x13" in holdout_names()
    with pytest.raises(ValueError):
        holdout_levels("nope")


def test_evaluate_deterministic_in_key():
    env = MazeEnv(max_steps=20, view_size=5)
    levels = holdout_levels("easy_9x9")[:3]

    def traced_evaluate(key):
        inner = network_policy(student_params(), env, sample=True)
        trace = []

        def policy(state, obs, rng):
            a = inner(state, obs, rng)
            trace.append(a)
            return a

        report = evaluate(env, policy, levels, episodes=4, key=key)
        return report, trace

    a, trace_a = traced_evaluate(R.key_from_seed(5))
    b, trace_b = traced_evaluate(R.key_from_seed(5))
    assert np.array_equal(a.solve_rates, b.solve_rates)
    assert np.array_equal(a.mean_returns, b.mean_returns)
    assert trace_a == trace_b
    _, trace_c = traced_evaluate(R.key_from_seed(6))
    assert trace_a != trace_c


def test_evaluate_aggregates_consistent():
    env = MazeEnv(max_steps=250, view_size=5)
    levels = holdout_levels("eval_13x13")
    rep = evaluate(env, oracle_policy(), levels, episodes=1, key=R.key_from_seed(2))
    assert rep.n_levels == len(levels) and rep.n_episodes == 1
    assert rep.return_mean == pytest.approx(rep.mean_returns.mean())
    assert rep.return_iqm == pytest.approx(interquartile_mean(rep.mean_returns))
    lines = rep.summary_lines()
    assert len(lines) == rep.n_levels + 3
    assert "aggregate" in lines[rep.n_levels]


def test_evaluate_input_validation():
    env = MazeEnv(max_steps=10)
    with pytest.raises(ValueError):
        evaluate(env, oracle_policy(), [], episodes=2)
    with pytest.raises(ValueError):
        evaluate(env, oracle_policy(), [STRAIGHT], episodes=0)
