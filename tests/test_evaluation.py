"""Evaluation sweeps, aggregate statistics, and the two reference policies."""

import bisect
import itertools
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ued_forge import evaluation
from ued_forge import rng as R
from ued_forge.evaluation import (
    EvalReport,
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
from test_maze_batch import levels as mixed_size_levels


def student_params(seed=0, view=5, dtype="float32"):
    cfg = NetConfig(image_shape=(view, view, 3), extra_dim=4, n_actions=3, hidden=8, dtype=dtype)
    return init_params(R.generator(R.key_from_seed(seed)), cfg)


def scaled(params, scale):
    """``params`` with the policy head multiplied by ``scale``: uneven
    probabilities at 300, actions of probability 0 at 1e5."""
    theta = params.flat().copy()
    params.config.views(theta)["wp"][...] *= scale
    return params.with_flat(theta)


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
    state = env.reset_to_level(STRAIGHT, R.generator(1))
    obs = env.observe(state)
    gen = R.generator(7)
    actions = {pol(state, obs, gen) for _ in range(50)}
    assert len(actions) > 1  # near-uniform net: all actions show up


def test_sampled_policy_matches_numpy_inverse_cdf():
    # The closure's running sum must pick what np.cumsum and np.searchsorted
    # pick from the same uniform; the untrained net is near-uniform, so scale
    # its weights up to reach uneven probabilities too.
    env = MazeEnv(max_steps=30, view_size=5)
    for scale in (1.0, 300.0):
        params = scaled(student_params(3), np.float32(scale))
        pol = network_policy(params, env, sample=True)
        state = env.reset_to_level(STRAIGHT, R.generator(1))
        obs = env.observe(state)
        image, extra = obs
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


def test_holdout_levels_takes_names_not_paths():
    # Each of these names a packaged file through a path; only bare names load.
    here = os.path.dirname(evaluation.__file__)
    for name in ("../holdouts/easy_9x9", "./easy_9x9", os.path.join(here, "holdouts", "easy_9x9"),
                 "easy_9x9.txt", ""):
        with pytest.raises(ValueError, match="no holdout set"):
            holdout_levels(name)


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
    calls = []

    def policy(state, obs, rng):
        calls.append(state)
        return 2

    for episodes, error in ((0, ValueError), (-1, ValueError), (np.int64(0), ValueError),
                            (True, TypeError), (False, TypeError), (np.bool_(True), TypeError),
                            (2.5, TypeError), (2.0, TypeError), (np.float64(2), TypeError),
                            ("2", TypeError), (None, TypeError)):
        with pytest.raises(error, match="episodes"):
            evaluate(env, policy, [STRAIGHT], episodes=episodes)
    assert calls == []  # raised before any episode ran
    report = evaluate(env, policy, [STRAIGHT], episodes=np.int64(2))
    assert report.n_episodes == 2 and len(calls) == 2 * 4


@pytest.mark.parametrize("key, error", [(1.5, TypeError), (True, TypeError), ("a", TypeError),
                                        (-1, ValueError), (2 ** 128, ValueError)],
                         ids=["float", "bool", "str", "negative", "too_wide"])
def test_evaluate_rejects_bad_keys(key, error):
    # 1.5 and True once evaluated as key 1; the others ended in a bare
    # OverflowError or ValueError from the key derivation.
    with pytest.raises(error, match="key"):
        evaluate(MazeEnv(max_steps=10), oracle_policy(), [STRAIGHT], key=key)


def test_evaluate_takes_numpy_integer_keys():
    env = MazeEnv(max_steps=20)
    policy = network_policy(student_params(), env, sample=True)
    a, b = (evaluate(env, policy, [STRAIGHT], episodes=3, key=k) for k in (np.uint64(7), 7))
    assert np.array_equal(a.mean_returns, b.mean_returns)


# ---------------------------------------------------------------------------
# The network policy's per-level memo
# ---------------------------------------------------------------------------

def uncached_network_policy(params, env, sample=False):
    """``network_policy`` before the memo: one forward and one CDF per call."""

    def policy(state, obs, rng):
        image, extra = obs
        logits, _ = forward(params, _features(image[None], extra[None], np.float32))
        if not sample:
            return int(np.argmax(logits[0]))
        probs = np.exp(log_softmax(logits.astype(np.float64))[0]).tolist()
        cdf = list(itertools.accumulate(probs))
        u = rng.random() * cdf[-1]
        return min(sum(c <= u for c in cdf), len(cdf) - 1)

    return policy


def traced(policy, trace):
    def wrapper(state, obs, rng):
        action = policy(state, obs, rng)
        trace.append(action)
        return action

    return wrapper


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("holdout", ["easy_9x9", "eval_13x13"])
def test_memoized_policy_equals_uncached(holdout, dtype):
    env = MazeEnv(max_steps=40)
    levels = holdout_levels(holdout)[:3]
    for sample in (False, True):
        for scale in (1, 300):
            params = scaled(student_params(4, dtype=dtype), scale)
            runs = []
            for make in (network_policy, uncached_network_policy):
                trace = []
                report = evaluate(env, traced(make(params, env, sample), trace), levels,
                                  episodes=3, key=R.key_from_seed(9))
                runs.append((report.solve_rates.tobytes(), report.mean_returns.tobytes(),
                             report.return_mean, trace))
            assert runs[0] == runs[1], (holdout, dtype, sample, scale)


@pytest.mark.parametrize("sample", [False, True])
def test_forward_runs_once_per_distinct_observation_of_a_level(monkeypatch, sample):
    calls = []

    def counted_forward(params, feat):
        calls.append(feat.shape[0])
        return forward(params, feat)

    monkeypatch.setattr(evaluation, "forward", counted_forward)
    env = MazeEnv(max_steps=60)
    a, b = holdout_levels("easy_9x9")[:2]
    visits = []  # the distinct observations of each run of calls on one level

    def recording(policy):
        def wrapper(state, obs, rng):
            if not visits or visits[-1][0] is not state.level:
                visits.append((state.level, set()))
            image, extra = obs
            visits[-1][1].add(image.tobytes() + extra.tobytes())
            return policy(state, obs, rng)

        return wrapper

    # A, B, A: the second visit to A computes its observations again.
    evaluate(env, recording(network_policy(student_params(), env, sample)), [a, b, a],
             episodes=3, key=R.key_from_seed(2))
    assert [level for level, _ in visits] == [a, b, a]
    assert calls == [1] * sum(len(seen) for _, seen in visits)
    assert len(calls) < 0.5 * 3 * 3 * 60  # far fewer than the steps taken


def test_bisect_right_matches_searchsorted_with_zero_probability_actions():
    # Repeated CDF values: the draw skips actions of probability 0, as
    # np.searchsorted(side="right") and the running count do.
    cdf = list(itertools.accumulate([0.0, 0.25, 0.0, 0.0, 0.75, 0.0]))
    for u in [0.0, 0.1, 0.25, 0.5, 0.99, 1.0, *R.generator(3).random(200).tolist()]:
        expected = int(np.searchsorted(cdf, u, side="right"))
        assert bisect.bisect_right(cdf, u) == expected == sum(c <= u for c in cdf)
    # And through the closure, on a net whose probabilities underflow to 0
    # (here CDF [0, 1, 1]), with uniforms that include an exact 0.
    env = MazeEnv(max_steps=30, view_size=5)
    params = scaled(student_params(0), np.float32(1e5))
    state = env.reset_to_level(STRAIGHT, R.generator(1))
    obs = env.observe(state)
    image, extra = obs
    logits, _ = forward(params, _features(image[None], extra[None], np.float32))
    cdf = np.cumsum(np.exp(log_softmax(logits.astype(np.float64))[0]))
    assert cdf[0] == 0 and np.any(np.diff(cdf) == 0)
    uniforms = [0.0, 0.5, *R.generator(7).random(100).tolist()]
    gen = SimpleNamespace(random=iter(uniforms).__next__)
    pol = network_policy(params, env, sample=True)
    for u in uniforms:
        a = int(np.searchsorted(cdf, u * cdf[-1], side="right"))
        assert pol(state, obs, gen) == min(a, cdf.size - 1)


# ---------------------------------------------------------------------------
# The per-level observation memo of evaluate
# ---------------------------------------------------------------------------

def reference_run_episode(env, policy, level, rng):
    """``run_episode`` before the observation memo: every state it acts in
    is observed afresh."""
    state = env.reset_to_level(level, rng)
    total = 0.0
    while True:
        action = policy(state, env.observe(state), rng)
        state, reward, done = env.step(state, action, rng)
        total += float(reward)
        if done:
            return total, bool(reward > 0)


def reference_evaluate(env, policy, levels, episodes, key):
    """``evaluate`` before the observation memo, on :func:`reference_run_episode`."""
    solve = np.zeros(len(levels), dtype=np.float64)
    rets = np.zeros(len(levels), dtype=np.float64)
    for i, (level, k_level) in enumerate(zip(levels, R.split(key, len(levels)))):
        for k_ep in R.split(k_level, episodes):
            ret, ok = reference_run_episode(env, policy, level, R.generator(k_ep))
            rets[i] += ret
            solve[i] += ok
    solve /= episodes
    rets /= episodes
    return EvalReport(
        n_levels=len(levels), n_episodes=episodes, solve_rates=solve, mean_returns=rets,
        solve_rate_mean=float(solve.mean()), solve_rate_iqm=interquartile_mean(solve),
        return_mean=float(rets.mean()), return_iqm=interquartile_mean(rets),
    )


def report_bytes(report):
    return (report.n_levels, report.n_episodes, report.solve_rates.tobytes(),
            report.mean_returns.tobytes(), report.solve_rate_mean, report.solve_rate_iqm,
            report.return_mean, report.return_iqm, report.summary_lines())


POLICIES = ["greedy/1", "greedy/300", "sampled/1", "sampled/300", "oracle"]


def make_policy(name, env):
    if name == "oracle":
        return oracle_policy()
    mode, scale = name.split("/")
    params = scaled(student_params(4, view=env.view_size), np.float32(scale))
    return network_policy(params, env, sample=mode == "sampled")


def recording(policy, received):
    """``policy`` appending each (state, observation bytes) it is given."""

    def wrapper(state, obs, rng):
        image, extra = obs
        received.append((state, image.tobytes() + extra.tobytes()))
        return policy(state, obs, rng)

    return wrapper


def assert_sweeps_match(env, levels, episodes, key):
    for name in POLICIES:
        runs = []
        for sweep in (evaluate, reference_evaluate):
            received = []
            report = sweep(env, recording(make_policy(name, env), received), levels,
                           episodes, key)
            runs.append((report_bytes(report), received))
        assert runs[0][0] == runs[1][0], name
        assert runs[0][1] == runs[1][1], name


@settings(max_examples=40, deadline=None)
@given(levels=st.lists(mixed_size_levels(), min_size=1, max_size=4),
       view_size=st.sampled_from([3, 5]), max_steps=st.integers(1, 30),
       episodes=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_memoized_sweep_equals_reference_on_mixed_levels(levels, view_size, max_steps,
                                                          episodes, seed):
    # Repeats one level object too, back to back and apart.
    levels = levels + levels[:1] + levels[-1:]
    env = MazeEnv(max_steps=max_steps, view_size=view_size)
    assert_sweeps_match(env, levels, episodes, R.key_from_seed(seed))


@pytest.mark.parametrize("holdout", ["easy_9x9", "eval_13x13"])
def test_memoized_sweep_equals_reference_on_holdouts(holdout):
    assert_sweeps_match(MazeEnv(max_steps=80), holdout_levels(holdout), 2, R.key_from_seed(11))


def test_run_episode_equals_reference():
    env = MazeEnv(max_steps=60)
    for level in holdout_levels("easy_9x9")[:4]:
        for name in POLICIES:
            runs = []
            for play in (run_episode, reference_run_episode):
                received = []
                runs.append((play(env, recording(make_policy(name, env), received), level,
                                  R.generator(3)), received))
            assert runs[0] == runs[1], name


def test_memoized_views_are_read_only():
    env = MazeEnv(max_steps=30)
    seen = []

    def policy(state, obs, rng):
        seen.append(obs)
        with pytest.raises(ValueError, match="read-only"):
            obs.image[0, 0, 0] = 5.0
        return int(rng.integers(3))

    evaluate(env, policy, holdout_levels("easy_9x9")[:2], episodes=2)
    run_episode(env, policy, STRAIGHT, R.generator(0))
    assert len(seen) > 10 and not any(obs.image.flags.writeable for obs in seen)
    assert len({id(obs) for obs in seen}) < len(seen)  # episodes share observations


@pytest.mark.parametrize("sample", [False, True])
def test_observe_runs_once_per_distinct_position_of_a_level(monkeypatch, sample):
    events = []  # ("reset", level) or ("observe", level, (pos, dir)), in call order
    observe, reset = MazeEnv.observe, MazeEnv.reset_to_level

    def counted_observe(self, state):
        events.append(("observe", state.level, (state.agent_pos, state.agent_dir)))
        return observe(self, state)

    def counted_reset(self, level, rng=None):
        events.append(("reset", level))
        state = reset(self, level, rng)
        assert events[-1] == ("reset", level)  # a reset observes nothing
        return state

    monkeypatch.setattr(MazeEnv, "observe", counted_observe)
    monkeypatch.setattr(MazeEnv, "reset_to_level", counted_reset)
    env = MazeEnv(max_steps=60)
    a, b = holdout_levels("easy_9x9")[:2]
    episodes, steps = 3, []
    evaluate(env, recording(network_policy(student_params(), env, sample), steps),
             [a, b, a], episodes=episodes, key=R.key_from_seed(2))
    visits = []  # per run of events on one level: resets and observations
    for kind, level, *at in events:
        if not visits or visits[-1][0] is not level:
            visits.append((level, [0], []))
        if kind == "reset":
            visits[-1][1][0] += 1
        else:
            visits[-1][2].append(at[0])
    assert [level for level, _, _ in visits] == [a, b, a]
    for level, (resets,), observed in visits:
        assert resets == episodes
        assert len(observed) == len(set(observed))  # each (pos, dir) at most once
        # The memo starts empty on each visit: the start is observed again.
        assert observed[0] == (level.agent_pos, level.agent_dir)
    assert sum(len(observed) for _, _, observed in visits) < 0.5 * len(steps)
