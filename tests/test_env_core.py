"""Auto-reset wrapper semantics around episode boundaries."""

import numpy as np
import pytest

from ued_forge import rng as R
from ued_forge.env_core import AutoReplayWrapper, AutoResetWrapper, StepResult
from ued_forge.maze import (
    DOWN,
    MazeEnv,
    MazeLevel,
    generate_random_level,
    parse_level,
)


def goal_ahead_level():
    # Agent one forward move from the goal.
    return parse_level("v..\nG..\n...\n")


def test_step_result_unpacks_in_order():
    r = StepResult("s", 0.5, True)
    state, reward, done = r
    assert (state, reward, done) == ("s", 0.5, True)
    assert r.state == "s" and r.reward == 0.5 and r.done
    assert StepResult._fields == ("state", "reward", "done")


def test_auto_replay_resets_to_same_level():
    env = AutoReplayWrapper(MazeEnv(max_steps=10))
    level = goal_ahead_level()
    state = env.reset_to_level(level, None)
    assert state.level == level
    gen = R.generator(R.key_from_seed(0))
    res = env.step(state, 2, gen)  # forward onto the goal
    assert res.done
    assert res.reward > 0.9
    # the post-step state is a fresh episode on the identical level
    assert res.state.level == level
    assert res.state.inner.timestep == 0
    assert res.state.inner.agent_pos == level.agent_pos
    assert res.state.inner.agent_dir == level.agent_dir
    # so its observation is the reset state's, not the terminal one's
    obs = env.observe(res.state)
    fresh_obs = env.observe(env.reset_to_level(level, None))
    assert np.array_equal(obs.image, fresh_obs.image)
    assert np.array_equal(obs.extras, fresh_obs.extras)


def test_auto_replay_passthrough_before_done():
    env = AutoReplayWrapper(MazeEnv(max_steps=10))
    level = goal_ahead_level()
    state = env.reset_to_level(level, None)
    res = env.step(state, 0, R.generator(1))  # turn, not done
    assert not res.done
    assert res.reward == 0.0
    assert res.state.level == level
    assert res.state.inner.timestep == 1


def test_auto_reset_draws_new_level():
    def source(gen):
        return generate_random_level(gen, 5, 5, 3)

    env = AutoResetWrapper(MazeEnv(max_steps=10), source)
    level = goal_ahead_level()
    state = env.reset_to_level(level, None)
    gen = R.generator(R.key_from_seed(4))
    probe = R.generator(R.key_from_seed(4))
    res = env.step(state, 2, gen)
    assert res.done and res.reward > 0.9
    expected = source(probe)  # same stream -> the level the wrapper drew
    assert res.state.level == expected
    assert res.state.inner.timestep == 0


def test_auto_reset_timeout_also_resets():
    def source(gen):
        return generate_random_level(gen, 5, 5, 0)

    env = AutoResetWrapper(MazeEnv(max_steps=2), source)
    level = parse_level("v..\n...\nG..\n")  # goal two ahead, timeout at 2
    state = env.reset_to_level(level, None)
    gen = R.generator(R.key_from_seed(8))
    res = env.step(state, 0, gen)
    assert not res.done
    res = env.step(res.state, 0, gen)
    assert res.done
    assert res.reward == 0.0
    assert res.state.level != level


def test_wrappers_delegate_actions_and_encoding():
    base = MazeEnv()
    wrapped = AutoReplayWrapper(base)
    assert wrapped.num_actions == base.num_actions
    level = goal_ahead_level()
    img, extra = wrapped.observe(wrapped.reset_to_level(level, None))
    assert img.shape == (5, 5, 3)
    assert extra.shape == (4,)
    assert extra[DOWN] == 1.0


def test_each_wrapper_defines_its_own_step():
    # The benchmark's tracer patches each wrapper class's own ``step``.
    assert "step" in AutoResetWrapper.__dict__
    assert "step" in AutoReplayWrapper.__dict__
