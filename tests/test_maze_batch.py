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
    Observation,
    UnderspecifiedEnv,
)
from ued_forge.maze import (
    A_FORWARD,
    A_LEFT,
    A_RIGHT,
    ECH_AGENT,
    ECH_EMPTY,
    ECH_GOAL,
    ECH_WALL,
    EditorState,
    MazeEditorEnv,
    MazeEnv,
    MazeLevel,
    empty_level,
    generate_random_level,
    parse_level,
    shortest_path_distances,
)
from ued_forge.rl_core import NetConfig, PpoConfig, init_params, rollout
from ued_forge.ued import UedConfig, train
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
    return MazeLevel(walls.reshape(height, width), divmod(agent, width),
                     draw(st.integers(0, 3)), divmod(goal, width))


def assert_rows_match(batch, env, states):
    images, extras = batch.encode()
    assert images.shape[0] == extras.shape[0] == len(states)
    for e, state in enumerate(states):
        assert batch.state(e) == state
        obs = env.observe(state)
        expected = reference_view(state.level, state.agent_pos, state.agent_dir, env.view_size)
        assert np.array_equal(obs.image, expected)
        assert np.array_equal(images[e], obs.image)
        assert np.array_equal(extras[e], np.eye(4, dtype=np.float32)[state.agent_dir])
        assert np.array_equal(extras[e], obs.extras)


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
    states = [env.reset_to_level(level) for level in start]
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
            states[e] = env.reset_to_level(resets[n_resets % len(resets)])
            n_resets += 1
            batch.set_state(e, states[e])
    assert_rows_match(batch, env, states)


def test_batch_marks_complete_rows_and_bad_actions():
    env = MazeEnv(max_steps=5, view_size=3)
    start = env.reset_to_level(parse_level(">G.\n"))
    done = env.step(start, A_FORWARD).state  # on the goal, facing a free cell
    batch = env.batch([start, done, start, start])
    assert batch.step(np.array([A_LEFT, A_FORWARD, 3, -1])).tolist() == [False, True, True, True]


def rotated(level):
    """``level`` turned 90° clockwise with its agent: cell (r, c) goes to
    (c, height - 1 - r), and each facing to the next one clockwise."""
    def turn(rc):
        return rc[1], level.height - 1 - rc[0]
    return MazeLevel(np.rot90(level.walls, -1).copy(), turn(level.agent_pos),
                     (level.agent_dir + 1) % 4, turn(level.goal_pos))


def mirrored(level):
    """``level`` flipped left to right: facing right and facing left swap."""
    def flip(rc):
        return rc[0], level.width - 1 - rc[1]
    return MazeLevel(level.walls[:, ::-1].copy(), flip(level.agent_pos),
                     -level.agent_dir % 4, flip(level.goal_pos))


# Name: (level transform, distance-field transform, action map, view transform).
SYMMETRIES = {
    "rotated": (rotated, lambda d: np.rot90(d, -1), (A_LEFT, A_RIGHT, A_FORWARD),
                lambda image: image),
    "mirrored": (mirrored, lambda d: d[:, ::-1], (A_RIGHT, A_LEFT, A_FORWARD),
                 lambda image: image[:, ::-1]),
}


@settings(max_examples=60, deadline=None)
@given(
    start=st.lists(levels(max_side=13), min_size=1, max_size=3),
    symmetry=st.sampled_from(sorted(SYMMETRIES)),
    view_size=st.sampled_from([1, 3, 5, 7]),
    max_steps=st.integers(1, 12),
    data=st.data(),
)
def test_symmetric_levels_play_alike(start, symmetry, view_size, max_steps, data):
    # A rotated level's distance field is the original's rotated, and the
    # same actions give the same views, rewards and dones; a mirrored level
    # the same with left and right swapped and every view mirrored. Each
    # original and its image are rows of one mixed-size batch.
    transform, move_field, act, move_view = SYMMETRIES[symmetry]
    images = [transform(level) for level in start]
    for level, image in zip(start, images):
        assert np.array_equal(shortest_path_distances(image),
                              move_field(shortest_path_distances(level)))
    env = MazeEnv(max_steps=max_steps, view_size=view_size)
    n, played = len(start), start + images
    states = [env.reset_to_level(level) for level in played]
    batch = env.batch(states)
    for _ in range(data.draw(st.integers(1, 16))):
        views, _ = batch.encode()
        for e in range(n):
            assert np.array_equal(views[n + e], move_view(views[e]))
            assert np.array_equal(env.observe(states[n + e]).image,
                                  move_view(env.observe(states[e]).image))
        actions = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        ends = batch.step(np.array(actions + [act[a] for a in actions]))
        for e, a in enumerate(actions):
            res, twin = env.step(states[e], a), env.step(states[n + e], act[a])
            assert (twin.reward, twin.done) == (res.reward, res.done)
            assert ends[e] == ends[n + e] == res.done
            if res.done:
                for i in (e, n + e):
                    states[i] = env.reset_to_level(played[i])
                    batch.set_state(i, states[i])
            else:
                states[e], states[n + e] = res.state, twin.state


@st.composite
def editor_states(draw, env):
    """A canvas of ``env``'s size at any edit index, complete episodes
    included."""
    n = env.width * env.height
    agent, goal = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    walls = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    walls[[agent, goal]] = False
    level = MazeLevel(walls.reshape(env.height, env.width), divmod(agent, env.width),
                      draw(st.integers(0, 3)), divmod(goal, env.width))
    return EditorState(level, draw(st.integers(0, env.episode_steps)))


def reference_editor_view(env, state):
    """The editor observation, encoded, derived without the batch."""
    level = state.level
    cls = np.where(level.walls, ECH_WALL, ECH_EMPTY)
    cls[level.goal_pos] = ECH_GOAL
    cls[level.agent_pos] = ECH_AGENT
    progress = np.array([state.edit_index / (env.wall_budget + 2)], dtype=np.float32)
    return np.eye(4, dtype=np.float32)[cls], progress


def assert_editor_rows_match(batch, env, states):
    images, extras = batch.encode()
    assert images.shape[0] == extras.shape[0] == len(states)
    for e, state in enumerate(states):
        assert batch.state(e) == state
        image, extra = reference_editor_view(env, state)
        for got in ((images[e], extras[e]), env.observe(state)):
            assert got[0].dtype == image.dtype and got[0].tobytes() == image.tobytes()
            assert got[1].dtype == extra.dtype and got[1].tobytes() == extra.tobytes()


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from([(1, 2), (2, 1), (3, 3), (4, 2), (5, 5)]), data=st.data())
def test_editor_batch_rows_match_env_step(shape, data):
    env = MazeEditorEnv(width=shape[0], height=shape[1],
                        wall_budget=data.draw(st.integers(0, 4)))
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
            edit, budget = state.edit_index, env.wall_budget
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
                states[e] = EditorState(state.level, 0)
            else:
                res = env.step(state, a, gen)
                assert res.done == (edit + 1 >= budget + 2)
                states[e] = res.state
            batch.set_state(e, states[e])
    assert_editor_rows_match(batch, env, states)


@pytest.mark.parametrize("make_env", [
    lambda: MazeEnv(max_steps=10),
    lambda: MazeEditorEnv(width=5, height=5, wall_budget=3),
    lambda: AutoReplayWrapper(MazeEnv(max_steps=10)),
    lambda: AutoResetWrapper(MazeEditorEnv(width=5, height=5, wall_budget=3),
                             lambda gen: empty_level(5, 5)),
], ids=["maze", "editor", "replay", "reset"])
def test_observe_is_its_row_of_the_batch_encoding(make_env):
    env = make_env()
    gen = R.generator(R.key_from_seed(5))
    state = env.reset_to_level(generate_random_level(gen, 5, 5, max_walls=6), gen)
    for _ in range(4):
        obs = env.observe(state)
        assert type(obs) is Observation
        images, extras = env.batch([state]).encode()
        for got, row in zip(obs, (images[0], extras[0])):
            assert got.dtype == row.dtype and got.shape == row.shape
            assert got.tobytes() == row.tobytes()
        state = env.step(state, int(gen.integers(env.num_actions)), gen).state


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


def mixed_size_level(gen):
    width, height = (int(v) for v in gen.integers(2, 9, size=2))
    return generate_random_level(gen, width, height, max_walls=width * height // 3)


def count_observes(monkeypatch):
    """Count every ``observe`` call of both maze envs, by class name."""
    counts = {"MazeEnv": 0, "MazeEditorEnv": 0}
    for cls in (MazeEnv, MazeEditorEnv):
        def counted(self, state, _observe=cls.observe, _name=cls.__name__):
            counts[_name] += 1
            return _observe(self, state)
        monkeypatch.setattr(cls, "observe", counted)
    return counts


@pytest.mark.parametrize("wrapper", ["none", "replay", "reset"])
def test_reset_and_step_observe_nothing(monkeypatch, wrapper):
    counts = count_observes(monkeypatch)
    gen = R.generator(R.key_from_seed(7))
    n_ends = 0
    for env, level in ((MazeEnv(max_steps=4, view_size=3), parse_level(">.G\n...\n")),
                       (MazeEditorEnv(4, 3, wall_budget=2), parse_level(">..G\n....\n....\n"))):
        if wrapper == "replay":
            env = AutoReplayWrapper(env)
        elif wrapper == "reset":
            env = AutoResetWrapper(env, lambda _, level=level: level)
        state = env.reset_to_level(level, gen)
        for t in range(12):
            res = env.step(state, (t * 5) % env.num_actions, gen)
            assert len(res) == 3
            state, n_ends = res.state, n_ends + res.done
            if res.done and wrapper == "none":
                break
    assert (n_ends == 2) if wrapper == "none" else (n_ends >= 6)  # wrapped envs reset
    assert counts == {"MazeEnv": 0, "MazeEditorEnv": 0}


def test_dr_rollout_observes_nothing(tmp_path, monkeypatch):
    counts = count_observes(monkeypatch)
    cfg = UedConfig(algorithm="dr", width=5, height=5, max_walls=4, view_size=3,
                    max_episode_steps=6, hidden=4,
                    ppo=PpoConfig(rollout_steps=16, n_envs=4, epochs=1))
    result = train(cfg, seed=3, out_dir=str(tmp_path), max_cycles=2)
    assert sum(entry["n_episodes"] for entry in result.metrics) >= 8  # episodes reset
    assert counts == {"MazeEnv": 0, "MazeEditorEnv": 0}


def rollout_both_ways(env, levels, seed, n_steps=60):
    """The same rollout through ``env``'s batch and through ``PerEnv(env)``."""
    cfg = NetConfig(image_shape=(env.env.view_size,) * 2 + (3,), extra_dim=4, n_actions=3,
                    hidden=8)
    params = init_params(R.generator(R.key_from_seed(seed)), cfg)
    outs = []
    for stepped in (env, PerEnv(env)):
        states = [stepped.reset_to_level(level, R.generator(k))
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
    state = env.reset_to_level(level)
    with pytest.raises(EnvError, match="already complete"):
        rollout(env, [params], [state], 3, [R.key_from_seed(1)])
