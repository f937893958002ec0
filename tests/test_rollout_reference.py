"""Rollouts against the loop they replaced: every env stepped through
``env.step``, one row at a time. The rollout key splits into an action key,
whose generator gives all (env, step) action uniforms in one draw, and an env
key, split once more into each env's own generator for ``env.step``. Row
groups and array forms must leave every byte of the trajectory and every
final state as that loop makes them."""

from dataclasses import replace

import numpy as np
import pytest

from ued_forge import rng as R
from ued_forge.env_core import AutoReplayWrapper, AutoResetWrapper, WrappedState
from ued_forge.maze import (
    EditorState,
    MazeEditorEnv,
    MazeEnv,
    MazeState,
    empty_level,
    generate_random_level,
    parse_level,
)
from ued_forge.rl_core import (
    NetConfig,
    _features,
    forward,
    init_params,
    log_softmax,
    rollout,
)
from test_maze_batch import PerEnv, mixed_size_level
from test_rl_core import traj_of

FIELDS = ("features", "actions", "log_probs", "values", "rewards", "dones",
          "bootstrap_values")


def reference_rollout(env, params, states, observations, n_steps, key):
    """The rollout loop with every env stepped through ``env.step`` on its
    own env stream, and its action uniforms from a separate action stream."""
    n, cfg = len(states), params.config
    k_act, k_env = R.split(key)
    uniforms = R.generator(k_act).random((n, n_steps))
    gens = [R.generator(k) for k in R.split(k_env, n)]
    states, observations = list(states), list(observations)
    images = np.zeros((n_steps, n) + tuple(cfg.image_shape), dtype=np.float32)
    extras = np.zeros((n_steps, n, cfg.extra_dim), dtype=np.float32)
    actions = np.zeros((n_steps, n), dtype=np.int64)
    log_probs = np.zeros((n_steps, n), dtype=np.float64)
    values = np.zeros((n_steps, n), dtype=np.float64)
    rewards = np.zeros((n_steps, n), dtype=np.float32)
    dones = np.zeros((n_steps, n), dtype=np.bool_)

    def encode():
        img = np.zeros((n,) + tuple(cfg.image_shape), dtype=np.float32)
        ext = np.zeros((n, cfg.extra_dim), dtype=np.float32)
        for e, obs in enumerate(observations):
            img[e], ext[e] = env.encode_observation(obs)
        return img, ext

    for t in range(n_steps):
        img, ext = encode()
        images[t] = img
        extras[t] = ext
        logits, vals = forward(params, _features(img, ext, np.float32))
        values[t] = vals
        logp = log_softmax(logits.astype(np.float64))
        u = uniforms[:, t]
        cdf = np.cumsum(np.exp(logp), axis=1)
        a = np.minimum((cdf <= (u * cdf[:, -1])[:, None]).sum(axis=1), logp.shape[1] - 1)
        actions[t] = a
        log_probs[t] = logp[np.arange(n), a]
        for e in range(n):
            res = env.step(states[e], int(a[e]), gens[e])
            states[e], observations[e] = res.state, res.observation
            rewards[t, e] = res.reward
            dones[t, e] = res.done

    _, bootstrap = forward(params, _features(*encode(), np.float32))
    traj = traj_of(
        images, extras, actions=actions, log_probs=log_probs, values=values, rewards=rewards,
        dones=dones, bootstrap_values=np.asarray(bootstrap, dtype=np.float64))
    return traj, states


def assert_same(got, want):
    (traj, states), (ref, ref_states) = got, want
    for field in FIELDS:
        a, b = getattr(traj, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert states == ref_states


MAX_STEPS = 9
WALLED_OFF = parse_level("^#G\n")  # ends only by timing out


def maze_starts(n_steps, gen):
    """Maze states: one that times out at step 0, one that times out at the
    last step (its goal is walled off) and fresh episodes on random levels."""
    levels = [WALLED_OFF, WALLED_OFF] + [mixed_size_level(gen) for _ in range(4)]
    steps = [MAX_STEPS - 1, -n_steps % MAX_STEPS, 0, 0, 0, 0]
    return [MazeState(lv, lv.agent_pos, lv.agent_dir, t) for lv, t in zip(levels, steps)]


def editor_starts(env, n_steps, gen, wrapped):
    """Editor states: fresh canvases, and rows whose final edit falls on the
    first and on the last step. Without a wrapper nothing restarts an
    episode, so no row may run out of edits first."""
    canvases = [empty_level(env.width, env.height)] + [
        generate_random_level(gen, env.width, env.height, 4) for _ in range(3)]
    last = env.episode_steps - 1
    edits = [0, 0, -n_steps % env.episode_steps, last if wrapped or n_steps <= 1 else 0]
    return [EditorState(c, i, env.wall_budget) for c, i in zip(canvases, edits)]


def case(name, n_steps, seed):
    """(env, params, starting states, starting observations) for ``name``."""
    gen = R.generator(R.key_from_seed(seed + 50))
    maze = MazeEnv(max_steps=MAX_STEPS, view_size=3)
    if name in ("reset", "replay", "per_env"):
        env = (AutoReplayWrapper(maze) if name == "replay"
               else AutoResetWrapper(maze, mixed_size_level))
        inner = maze_starts(n_steps, gen)
        states = [WrappedState(s, s.level) for s in inner]
        observations = [maze.observe(s) for s in inner]
        cfg = NetConfig(image_shape=(3, 3, 3), extra_dim=4, n_actions=3, hidden=8)
        if name == "per_env":
            env = PerEnv(env)
    else:
        editor = MazeEditorEnv(width=4, height=3, wall_budget=4)
        wrapped = name == "editor_replay"
        inner = editor_starts(editor, n_steps, gen, wrapped)
        observations = [editor.observe(s) for s in inner]
        env, states = ((AutoReplayWrapper(editor), [WrappedState(s, s.level) for s in inner])
                       if wrapped else (editor, inner))
        cfg = NetConfig(image_shape=(3, 4, 4), extra_dim=1, n_actions=12, hidden=8)
    return env, init_params(R.generator(R.key_from_seed(seed)), cfg), states, observations


@pytest.mark.parametrize("n_steps", [0, 1, 3, 40])
@pytest.mark.parametrize("name", ["reset", "replay", "per_env", "editor", "editor_replay"])
def test_rollout_matches_scalar_draw_reference(name, n_steps):
    if name == "editor":
        n_steps = min(n_steps, MazeEditorEnv(width=4, height=3, wall_budget=4).episode_steps)
    env, params, states, observations = case(name, n_steps, seed=n_steps)
    key = R.key_from_seed(7 + n_steps)
    [traj], [final] = rollout(env, [params], states, n_steps, [key])
    want = reference_rollout(env, params, states, observations, n_steps, key)
    assert_same((traj, final), want)
    if n_steps in (1, 3):  # an unwrapped editor row cannot end at step 0 and go on
        assert want[0].dones[-1].any()
        assert want[0].dones[0].any() or (name == "editor" and n_steps > 1)


@pytest.mark.parametrize("n_steps", [0, 1, 3, 40])
@pytest.mark.parametrize("name", ["reset", "editor_replay", "per_env"])
def test_two_policy_rollout_matches_two_rollouts(name, n_steps):
    env, p0, states, observations = case(name, n_steps, seed=1)
    p1 = init_params(R.generator(R.key_from_seed(2)), p0.config)
    keys = [R.key_from_seed(3), R.key_from_seed(4)]
    trajs, finals = rollout(env, [p0, p1], states * 2, n_steps, keys)
    assert len(trajs) == len(finals) == 2
    for traj, final, params, key in zip(trajs, finals, (p0, p1), keys):
        [single], [single_final] = rollout(env, [params], states, n_steps, [key])
        assert_same((traj, final), (single, single_final))
        assert_same((single, single_final),
                    reference_rollout(env, params, states, observations, n_steps, key))
        # The update reads each group's (F, T, n) block as one (F, T*n) matrix.
        assert traj.features.flags.c_contiguous and traj.actions.flags.c_contiguous


def test_rollout_rejects_unequal_groups():
    env, params, states, _ = case("replay", 3, seed=0)
    with pytest.raises(ValueError, match="group"):
        rollout(env, [params, params], states[:5], 3, [1, 2])
    with pytest.raises(ValueError, match="group"):
        rollout(env, [params, params], states, 3, [1])


@pytest.mark.parametrize("per_env", [False, True])
def test_actions_depend_on_neither_env_draws_nor_group_size(per_env):
    """Under a uniform policy (zero weights) the actions are the action
    stream alone: a level source that draws k more uniforms per reset moves
    none of them, and a rollout of the first m rows acts as those rows do in
    a rollout of all of them."""
    n_steps, maze = 40, MazeEnv(max_steps=MAX_STEPS, view_size=3)
    inner = maze_starts(n_steps, R.generator(R.key_from_seed(5)))
    states = [WrappedState(s, s.level) for s in inner]
    cfg = NetConfig(image_shape=(3, 3, 3), extra_dim=4, n_actions=3, hidden=8)
    params = init_params(R.generator(R.key_from_seed(0)), cfg)
    params = replace(params, theta=np.zeros_like(params.theta))

    def run(k, m):
        def level_source(gen):
            gen.random(k)
            return mixed_size_level(gen)
        env = AutoResetWrapper(maze, level_source)
        [traj], [final] = rollout(PerEnv(env) if per_env else env, [params], states[:m],
                                  n_steps, [R.key_from_seed(9)])
        return traj, final

    (traj, final), (traj_k, final_k) = run(0, len(states)), run(5, len(states))
    assert traj.dones.sum(axis=0).min() >= 2 and final != final_k  # the env draws differ
    assert traj.actions.tobytes() == traj_k.actions.tobytes()
    for m in (1, 3):
        assert run(0, m)[0].actions.tobytes() == traj.actions[:, :m].tobytes()
