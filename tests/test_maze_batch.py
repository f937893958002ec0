"""The array forms of the maze envs against the per-env reference: MazeBatch
rows against MazeEnv.step/observe, MazeEditorBatch rows against
MazeEditorEnv.step/observe, and rollouts through the batch against rollouts
of the same envs stepped one by one. Also the env contract that makes those
one thing: ``observe(state)`` is the observation reset and step return."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ued_forge import rng as R
from ued_forge.env_core import (
    AutoReplayWrapper,
    AutoResetWrapper,
    EnvError,
    UnderspecifiedEnv,
)
from ued_forge.maze import (
    A_FORWARD,
    A_LEFT,
    ECH_AGENT,
    ECH_EMPTY,
    ECH_GOAL,
    ECH_WALL,
    EditorState,
    MazeEditorEnv,
    MazeEnv,
    MazeLevel,
    generate_random_level,
    parse_level,
)
from ued_forge.rl_core import NetConfig, init_params, rollout
from test_maze import reference_view


@st.composite
def levels(draw, max_side=7):
    """Any valid level up to ``max_side`` a side, 1-row and 1-column ones
    included, with walls anywhere but under the agent and the goal."""
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(2 if width == 1 else 1, max_side))
    n = width * height
    agent, goal = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    walls = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    walls[[agent, goal]] = False
    return MazeLevel(width, height, walls.reshape(height, width), divmod(agent, width),
                     draw(st.integers(0, 3)), divmod(goal, width))


def assert_rows_match(batch, env, states):
    images, extras = batch.encode()
    assert images.shape[0] == extras.shape[0] == len(states)
    for e, state in enumerate(states):
        assert batch.state(e) == state
        obs = env.observe(state)
        expected = reference_view(state.level, state.agent_pos, state.agent_dir, env.view_size)
        assert np.array_equal(obs.view, expected)
        assert np.array_equal(images[e], obs.view)
        assert np.array_equal(extras[e], np.eye(4, dtype=np.float32)[state.agent_dir])


@settings(max_examples=200, deadline=None)
@given(
    start=st.lists(levels(), min_size=1, max_size=4),
    resets=st.lists(levels(max_side=9), min_size=1, max_size=3),
    view_size=st.sampled_from([1, 3, 5, 7]),
    max_steps=st.integers(1, 8),
    data=st.data(),
)
def test_batch_rows_match_env_step(start, resets, view_size, max_steps, data):
    env = MazeEnv(max_steps=max_steps, view_size=view_size)
    states = [env.reset_to_level(level)[0] for level in start]
    batch = env.batch(states)
    n_resets = 0
    for _ in range(data.draw(st.integers(1, 20))):
        assert_rows_match(batch, env, states)
        actions = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(states),
                                              max_size=len(states))))
        ends = batch.step(actions)
        for e, state in enumerate(states):
            res = env.step(state, int(actions[e]))
            assert ends[e] == res.done
            if not res.done:
                states[e] = res.state
                continue
            # An ended row is left as it was; the caller replaces it.
            assert batch.state(e) == state
            states[e] = env.reset_to_level(resets[n_resets % len(resets)])[0]
            n_resets += 1
            batch.set_state(e, states[e])
    assert_rows_match(batch, env, states)


def test_batch_marks_complete_rows_and_bad_actions():
    env = MazeEnv(max_steps=5, view_size=3)
    start = env.reset_to_level(parse_level(">G.\n"))[0]
    done = env.step(start, A_FORWARD).state  # on the goal, facing a free cell
    batch = env.batch([start, done, start, start])
    assert batch.step(np.array([A_LEFT, A_FORWARD, 3, -1])).tolist() == [False, True, True, True]


@st.composite
def editor_states(draw, env):
    """A canvas of ``env``'s size at any edit index of any budget, complete
    episodes included."""
    n = env.width * env.height
    agent, goal = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    walls = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    walls[[agent, goal]] = False
    level = MazeLevel(env.width, env.height, walls.reshape(env.height, env.width),
                      divmod(agent, env.width), draw(st.integers(0, 3)), divmod(goal, env.width))
    budget = draw(st.integers(0, 4))
    return EditorState(level, draw(st.integers(0, budget + 2)), budget)


def reference_editor_view(state):
    """The editor observation, encoded, derived without the batch."""
    level = state.level
    cls = np.where(level.walls, ECH_WALL, ECH_EMPTY)
    cls[level.goal_pos] = ECH_GOAL
    cls[level.agent_pos] = ECH_AGENT
    progress = np.array([state.edit_index / (state.budget + 2)], dtype=np.float32)
    return np.eye(4, dtype=np.float32)[cls], progress


def assert_editor_rows_match(batch, env, states):
    images, extras = batch.encode()
    assert images.shape[0] == extras.shape[0] == len(states)
    for e, state in enumerate(states):
        assert batch.state(e) == state
        image, extra = reference_editor_view(state)
        for got in ((images[e], extras[e]), env.encode_observation(env.observe(state))):
            assert got[0].dtype == image.dtype and got[0].tobytes() == image.tobytes()
            assert got[1].dtype == extra.dtype and got[1].tobytes() == extra.tobytes()


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from([(1, 2), (2, 1), (3, 3), (4, 2), (5, 5)]), data=st.data())
def test_editor_batch_rows_match_env_step(shape, data):
    env = MazeEditorEnv(width=shape[0], height=shape[1], wall_budget=3)
    n_cells = env.num_actions
    states = data.draw(st.lists(editor_states(env), min_size=1, max_size=4))
    batch = env.batch(states)
    gen = R.generator(R.key_from_seed(data.draw(st.integers(0, 99))))
    for _ in range(data.draw(st.integers(1, 12))):
        assert_editor_rows_match(batch, env, states)
        # Invalid actions, and placements and toggles on the agent and goal cells.
        actions = np.array([data.draw(st.one_of(
            st.integers(-2, n_cells + 1),
            st.sampled_from([s.level.agent_pos[0] * env.width + s.level.agent_pos[1],
                             s.level.goal_pos[0] * env.width + s.level.goal_pos[1]])))
            for s in states])
        ends = batch.step(actions)
        for e, state in enumerate(states):
            a = int(actions[e])
            edit, budget = state.edit_index, state.budget
            assert ends[e] == (edit < 2 or edit + 1 >= budget + 2 or not 0 <= a < n_cells)
            if not ends[e]:
                res = env.step(state, a, None)  # a wall toggle draws nothing
                assert not res.done
                states[e] = res.state
                continue
            # A masked row is left as it was; the caller steps it.
            assert batch.state(e) == state
            if edit >= budget + 2 or not 0 <= a < n_cells:
                with pytest.raises(EnvError):
                    env.step(state, a, gen)
                states[e] = EditorState(state.level, 0, budget)
            else:
                res = env.step(state, a, gen)
                assert res.done == (edit + 1 >= budget + 2)
                states[e] = res.state
            batch.set_state(e, states[e])
    assert_editor_rows_match(batch, env, states)


class PerEnv(UnderspecifiedEnv):
    """``env`` without its batch form: rollouts step it env by env."""

    def __init__(self, env):
        self.env = env

    @property
    def num_actions(self):
        return self.env.num_actions

    def reset_to_level(self, level, rng):
        return self.env.reset_to_level(level, rng)

    def step(self, state, action, rng):
        return self.env.step(state, action, rng)

    def observe(self, state):
        return self.env.observe(state)

    def encode_observation(self, obs):
        return self.env.encode_observation(obs)


def mixed_size_level(gen):
    width, height = (int(v) for v in gen.integers(2, 9, size=2))
    return generate_random_level(gen, width, height, max_walls=width * height // 3)


def assert_observe_gives(env, state, obs):
    """``env``'s encoding of ``observe(state)`` is that of ``obs``, byte for byte."""
    for got, want in zip(env.encode_observation(env.observe(state)), env.encode_observation(obs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def play_checking_observe(env, levels, n_steps, data):
    """Reset ``env`` to each level and step it ``n_steps`` times (a bare env
    only until its episode ends): every observation that ``reset_to_level``
    and ``step`` return must be ``observe`` of the state they return."""
    wrapped = isinstance(env, (AutoReplayWrapper, AutoResetWrapper))
    gen = R.generator(R.key_from_seed(data.draw(st.integers(0, 99))))
    n_ends = 0
    for level in levels:
        state, obs = env.reset_to_level(level, gen)
        assert_observe_gives(env, state, obs)
        for _ in range(n_steps):
            res = env.step(state, data.draw(st.integers(0, env.num_actions - 1)), gen)
            assert_observe_gives(env, res.state, res.observation)
            state, n_ends = res.state, n_ends + res.done
            if res.done and not wrapped:
                break
    assert n_ends >= len(levels)  # a wrapped env observed post-reset states too


@settings(max_examples=100, deadline=None)
@given(start=st.lists(levels(), min_size=1, max_size=3), view_size=st.sampled_from([1, 3, 5]),
       max_steps=st.integers(1, 6), wrapper=st.sampled_from(["none", "replay", "reset"]),
       data=st.data())
def test_maze_observe_is_what_reset_and_step_return(start, view_size, max_steps, wrapper, data):
    maze = MazeEnv(max_steps=max_steps, view_size=view_size)
    env = {"none": maze, "replay": AutoReplayWrapper(maze),
           "reset": AutoResetWrapper(maze, mixed_size_level)}[wrapper]
    play_checking_observe(env, start, max_steps + 3, data)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from([(1, 2), (2, 1), (3, 3), (4, 2)]), wrapped=st.booleans(),
       data=st.data())
def test_editor_observe_is_what_reset_and_step_return(shape, wrapped, data):
    editor = MazeEditorEnv(width=shape[0], height=shape[1], wall_budget=3)
    canvases = [s.level for s in data.draw(st.lists(editor_states(editor), min_size=1,
                                                    max_size=3))]
    env = AutoReplayWrapper(editor) if wrapped else editor
    play_checking_observe(env, canvases, editor.episode_steps + 2, data)


def rollout_both_ways(env, levels, seed, n_steps=60):
    """The same rollout through ``env``'s batch and through ``PerEnv(env)``."""
    cfg = NetConfig(image_shape=(env.env.view_size,) * 2 + (3,), extra_dim=4, n_actions=3,
                    hidden=8)
    params = init_params(R.generator(R.key_from_seed(seed)), cfg)
    outs = []
    for stepped in (env, PerEnv(env)):
        states = [stepped.reset_to_level(level, R.generator(k))[0]
                  for level, k in zip(levels, R.split(R.key_from_seed(seed + 100), len(levels)))]
        [traj], [final] = rollout(stepped, [params], states, n_steps,
                                  [R.key_from_seed(seed + 200)])
        outs.append((traj, final))
    return outs


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("wrapper", ["reset", "replay"])
def test_rollout_through_batch_matches_per_env(seed, wrapper):
    maze = MazeEnv(max_steps=9, view_size=[3, 5, 1][seed])
    env = (AutoResetWrapper(maze, mixed_size_level) if wrapper == "reset"
           else AutoReplayWrapper(maze))
    gen = R.generator(R.key_from_seed(seed + 300))
    levels = [mixed_size_level(gen) for _ in range(6)]
    (batched, b_states), (single, s_states) = rollout_both_ways(env, levels, seed)
    for field in ("features", "actions", "log_probs", "values", "rewards", "dones",
                  "bootstrap_values"):
        assert np.array_equal(getattr(batched, field), getattr(single, field)), field
    assert batched.dones.sum() > len(levels)  # several episode ends per env
    assert b_states == s_states


def test_rollout_of_no_envs_is_empty():
    env = AutoReplayWrapper(MazeEnv(view_size=3))
    cfg = NetConfig(image_shape=(3, 3, 3), extra_dim=4, n_actions=3, hidden=8)
    params = init_params(R.generator(R.key_from_seed(0)), cfg)
    for n_steps in (0, 3):
        for stepped in (env, PerEnv(env)):
            [traj], [states] = rollout(stepped, [params], [], n_steps, [R.key_from_seed(1)])
            assert traj.features.shape == (3 * 3 * 3 + 4, n_steps, 0)
            assert traj.actions.shape == (n_steps, 0) and traj.bootstrap_values.shape == (0,)
            assert states == []


def test_rollout_rejects_stepping_a_complete_episode():
    # Without a wrapper nothing resets an ended episode; its next step fails.
    env = MazeEnv(max_steps=2, view_size=3)
    level = generate_random_level(R.generator(R.key_from_seed(5)), 5, 5, 3)
    cfg = NetConfig(image_shape=(3, 3, 3), extra_dim=4, n_actions=3, hidden=8)
    params = init_params(R.generator(R.key_from_seed(0)), cfg)
    state, _ = env.reset_to_level(level)
    with pytest.raises(EnvError, match="already complete"):
        rollout(env, [params], [state], 3, [R.key_from_seed(1)])
