"""Actor-critic internals: init, forward/backward against finite
differences, GAE against a naive reference, rollouts, Adam, PPO, and the
binary checkpoint format."""

import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ued_forge import rl_core
from ued_forge import rng as R
from ued_forge.env_core import AutoReplayWrapper
from ued_forge.maze import MazeEnv, parse_level
from ued_forge.rl_core import (
    ADAM_BETA1,
    ADAM_BETA2,
    ActorCriticParams,
    CheckpointError,
    NetConfig,
    PpoConfig,
    Trajectory,
    TrainingDivergedError,
    _backward,
    _features,
    _forward_cached,
    _im2col,
    _ppo_loss_grads,
    adam_step,
    annealed_lr,
    clip_grads,
    compute_gae,
    episode_returns,
    forward,
    global_grad_norm,
    init_params,
    load_params,
    log_softmax,
    max_episode_discounted_returns,
    normalize_advantages,
    params_from_bytes,
    params_to_bytes,
    ppo_update,
    rollout,
    save_params,
)
from test_maze_batch import PerEnv

MLP64 = NetConfig(image_shape=(3, 3, 2), extra_dim=2, n_actions=3,
                  hidden=6, torso="mlp", dtype="float64")
CONV64 = NetConfig(image_shape=(4, 4, 2), extra_dim=2, n_actions=3,
                   hidden=5, torso="conv", conv_filters=3, dtype="float64")


def make_params(cfg, seed=0):
    return init_params(R.generator(R.key_from_seed(seed)), cfg)


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-12)


# ---------------------------------------------------------------------------
# Initialization and forward pass
# ---------------------------------------------------------------------------

def test_init_orthogonal_torso():
    p = make_params(MLP64)
    w1 = p.layers["w1"]
    # gain sqrt(2): columns orthogonal with squared norm 2
    gram = w1.T @ w1
    assert np.allclose(gram, 2.0 * np.eye(w1.shape[1]), atol=1e-12)


def test_init_head_scales_and_zero_biases():
    p = make_params(MLP64)
    assert np.allclose(p.layers["wp"].T @ p.layers["wp"],
                       1e-4 * np.eye(MLP64.n_actions), atol=1e-12)
    assert np.allclose(p.layers["wv"].T @ p.layers["wv"], [[1.0]], atol=1e-12)
    for k in ("b1", "b2", "bp", "bv"):
        assert np.all(p.layers[k] == 0)
    assert p.adam_t == 0 and p.updates == 0


def test_init_deterministic():
    a, b = make_params(CONV64, 7), make_params(CONV64, 7)
    for k in a.layers:
        assert np.array_equal(a.layers[k], b.layers[k])


def test_param_vector_round_trip():
    p = make_params(CONV64)
    vec = p.flat()
    assert vec.size == p.n_params
    q = p.with_flat(vec * 2.0)
    assert np.allclose(q.flat(), vec * 2.0)
    assert np.allclose(p.flat(), vec)  # original untouched


@pytest.mark.parametrize("cfg", [MLP64, CONV64], ids=["mlp", "conv"])
def test_params_are_read_only_views_of_one_vector(cfg):
    for p in (make_params(cfg), params_from_bytes(params_to_bytes(make_params(cfg)))):
        for vec in (p.theta, p.m, p.v):
            with pytest.raises(ValueError):
                vec[0] = 1.0
        for k, layer in p.layers.items():
            assert np.shares_memory(layer, p.flat()), k
            with pytest.raises(ValueError):
                layer *= 2.0
        with pytest.raises(TypeError):
            p.layers["wp"] = p.layers["wp"] * 2.0
        with pytest.raises(ValueError):
            p.with_flat(p.flat()[:-1])


@pytest.mark.parametrize(
    "change",
    [{"hidden": 0}, {"n_actions": 0}, {"conv_filters": 0}, {"extra_dim": -1},
     {"image_shape": (3, 0, 2)}, {"dtype": "int8"}, {"torso": "xyz"}, {"hidden": "x"}],
)
def test_net_config_rejects_bad_fields(change):
    with pytest.raises((TypeError, ValueError)):
        replace(MLP64, **change)


def test_forward_shapes_and_validation():
    p = make_params(MLP64)
    n_feat = 3 * 3 * 2 + 2
    logits, values = forward(p, np.zeros((5, n_feat)))
    assert logits.shape == (5, 3) and values.shape == (5,)
    for width in (n_feat - 1, n_feat + 1):
        with pytest.raises(ValueError, match=rf"\(B, {n_feat}\)"):
            forward(p, np.zeros((5, width)))


def test_forward_zero_input_uniform_policy():
    # zero biases and zero input: logits all equal, policy uniform
    p = make_params(MLP64)
    logits, _ = forward(p, np.zeros((2, 3 * 3 * 2 + 2)))
    assert np.allclose(logits, logits[:, :1], atol=1e-12)


def test_log_softmax_properties():
    gen = R.generator(11)
    logits = gen.normal(0, 5, (8, 4))
    lp = log_softmax(logits)
    assert np.allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)
    shifted = log_softmax(logits + 123.0)
    assert np.allclose(lp, shifted, atol=1e-9)
    big = log_softmax(np.array([[0.0, 1e4]]))
    assert np.all(np.isfinite(big))


# ---------------------------------------------------------------------------
# Gradients vs central finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [MLP64, CONV64], ids=["mlp", "conv"])
def test_backward_matches_fd_per_layer(cfg):
    assert make_params(cfg).n_params <= 1000
    gen = R.generator(R.key_from_seed(42))
    p = make_params(cfg, 3)
    img = gen.normal(0, 1, (6,) + cfg.image_shape)
    ext = gen.normal(0, 1, (6, cfg.extra_dim))
    feat = _features(img, ext, np.float64)
    wl = gen.normal(0, 1, (6, cfg.n_actions))
    wv = gen.normal(0, 1, 6)

    def loss_of(vec):
        logits, values, _ = _forward_cached(p.with_flat(vec), feat)
        return float((wl * logits).sum() + (wv * values).sum())

    _, _, cache = _forward_cached(p, feat)
    grad = _backward(p, cache, wl, wv)
    fd = cfg.views(fd_grad(loss_of, p.flat()))
    for name, g in cfg.views(grad).items():
        err = rel_err(g, fd[name])
        assert err < 1e-6, f"layer {name}: rel err {err:.2e}"
    logits, values = forward(p, feat[:0])
    assert logits.shape == (0, cfg.n_actions) and values.shape == (0,)


def random_batch(cfg, gen, b=24):
    img = gen.normal(0, 1, (b,) + cfg.image_shape)
    ext = gen.normal(0, 1, (b, cfg.extra_dim))
    acts = gen.integers(0, cfg.n_actions, b)
    old_logp = np.log(gen.uniform(0.2, 0.8, b))
    old_values = gen.normal(0, 1, b)
    adv = gen.normal(0, 1, b)
    targets = gen.normal(0, 1, b)
    return _features(img, ext, np.float64), acts, old_logp, old_values, adv, targets


@pytest.mark.parametrize("cfg", [MLP64, CONV64], ids=["mlp", "conv"])
def test_ppo_loss_grads_match_fd(cfg):
    gen = R.generator(R.key_from_seed(5))
    p = make_params(cfg, 9)
    # spread the policy out so clip branches are exercised
    p = p.with_flat(p.flat() + gen.normal(0, 0.3, p.n_params))
    batch = random_batch(cfg, gen)
    ppo = PpoConfig(clip=0.2, vf_coeff=0.5, ent_coeff=0.01)

    def loss_of(vec):
        stats, _ = _ppo_loss_grads(p.with_flat(vec), batch, ppo)
        return stats["total_loss"]

    _, grad = _ppo_loss_grads(p, batch, ppo)
    assert rel_err(grad, fd_grad(loss_of, p.flat())) < 1e-4


@pytest.mark.parametrize("value_clip", [True, False], ids=["clipped", "unclipped"])
def test_ppo_loss_value_clip_branch_matches_fd(value_clip):
    gen = R.generator(R.key_from_seed(6))
    p = make_params(MLP64, 2)
    feat, acts, old_logp, _, adv, targets = random_batch(MLP64, gen)
    _, values = forward(p, feat)
    # old values far below current: clipped branch active for half the batch
    old_values = values - np.where(np.arange(len(values)) % 2 == 0, 1.0, 0.0)
    batch = (feat, acts, old_logp, old_values, adv, targets)
    ppo = PpoConfig(ent_coeff=0.0, value_clip=value_clip)

    def loss_of(vec):
        stats, _ = _ppo_loss_grads(p.with_flat(vec), batch, ppo)
        return stats["total_loss"]

    _, grad = _ppo_loss_grads(p, batch, ppo)
    assert rel_err(grad, fd_grad(loss_of, p.flat())) < 1e-4


# ---------------------------------------------------------------------------
# GAE
# ---------------------------------------------------------------------------

def naive_gae(rewards, values, dones, bootstrap, gamma, lam):
    """Direct double-sum reference: A_t = sum_l (gamma*lam)^l * delta_{t+l},
    truncated at the first done at or after t."""
    t_len, n = rewards.shape
    adv = np.zeros((t_len, n))
    for e in range(n):
        for t in range(t_len):
            acc = 0.0
            for l in range(t, t_len):
                v_next = bootstrap[e] if l == t_len - 1 else values[l + 1, e]
                nonterm = 0.0 if dones[l, e] else 1.0
                delta = rewards[l, e] + gamma * nonterm * v_next - values[l, e]
                acc += (gamma * lam) ** (l - t) * delta
                if dones[l, e]:
                    break
            adv[t, e] = acc
    return adv


def traj_of(images, extras, **rest):
    """A Trajectory whose feature block holds copies of the (T, N, ...)
    ``images`` and ``extras``; ``rest`` are its other fields."""
    t, n, *shape = images.shape
    flat = np.concatenate([images.reshape(t, n, math.prod(shape)), extras], axis=2)
    return Trajectory(np.ascontiguousarray(np.moveaxis(flat, 2, 0)), **rest)


def traj_from_arrays(rewards, values, dones, bootstrap):
    t_len, n = rewards.shape
    return traj_of(
        np.zeros((t_len, n, 1)),
        np.zeros((t_len, n, 0)),
        actions=np.zeros((t_len, n), dtype=np.int64),
        log_probs=np.zeros((t_len, n)),
        values=values,
        rewards=rewards,
        dones=dones,
        bootstrap_values=bootstrap,
    )


def test_gae_matches_naive_reference_fuzz():
    worst = 0.0
    for i in range(500):
        gen = R.generator(R.fold_in(R.key_from_seed(77), i))
        t_len, n = 50, int(gen.integers(1, 4))
        rewards = gen.normal(0, 1, (t_len, n))
        values = gen.normal(0, 1, (t_len, n))
        dones = gen.random((t_len, n)) < 0.1
        bootstrap = gen.normal(0, 1, n)
        gamma = float(gen.uniform(0.9, 1.0))
        lam = float(gen.uniform(0.8, 1.0))
        adv, targets = compute_gae(
            traj_from_arrays(rewards, values, dones, bootstrap), gamma, lam)
        ref = naive_gae(rewards, values, dones, bootstrap, gamma, lam)
        worst = max(worst, np.abs(adv - ref).max())
        assert np.allclose(targets, adv + values, atol=1e-12)
    assert worst < 1e-10


def test_gae_constant_reward_no_dones():
    # undiscounted-ish sanity: V=0, r=1, gamma=lam=1 -> A_t = T - t (+bootstrap 0)
    t_len = 5
    rewards = np.ones((t_len, 1))
    values = np.zeros((t_len, 1))
    dones = np.zeros((t_len, 1), dtype=bool)
    adv, _ = compute_gae(traj_from_arrays(rewards, values, dones, np.zeros(1)), 1.0, 1.0)
    assert np.allclose(adv[:, 0], [5, 4, 3, 2, 1])


# ---------------------------------------------------------------------------
# Episode bookkeeping
# ---------------------------------------------------------------------------

def test_episode_returns_hand_case():
    rewards = np.array([[0.0, 0.2], [0.5, 0.0], [0.0, 0.0], [0.7, -0.1]])
    dones = np.array([[False, True], [True, False], [False, False], [True, True]])
    stats = episode_returns(traj_from_arrays(rewards, np.zeros((4, 2)), dones, np.zeros(2)))
    assert np.allclose(stats.returns, [0.5, 0.7, 0.2, -0.1])
    assert list(stats.solved) == [True, True, True, False]
    assert list(stats.env_ids) == [0, 0, 1, 1]
    assert stats.n_incomplete == 0


def test_episode_returns_trailing_partial():
    rewards = np.array([[1.0], [0.3], [0.2]])
    dones = np.array([[True], [False], [False]])
    stats = episode_returns(traj_from_arrays(rewards, np.zeros((3, 1)), dones, np.zeros(1)))
    assert np.allclose(stats.returns, [1.0])
    assert stats.n_incomplete == 1


def test_max_discounted_returns_hand_case():
    gamma = 0.5
    rewards = np.array([[0.0, 0.0], [1.0, 0.0], [0.8, 0.0], [0.0, 0.0]])
    dones = np.array([[False, False], [True, False], [True, False], [False, False]])
    best = max_episode_discounted_returns(
        traj_from_arrays(rewards, np.zeros((4, 2)), dones, np.zeros(2)), gamma)
    # env 0: episodes [0, 1] -> 0.5 and [0.8] -> 0.8; env 1: none -> 0.0
    assert np.allclose(best, [0.8, 0.0])


def _loop_episode_returns(rewards, dones, gamma):
    """Reference: walk each env column and split it at its done flags."""
    returns, env_ids, n_incomplete = [], [], 0
    for e in range(rewards.shape[1]):
        start = 0
        for end in np.flatnonzero(dones[:, e]):
            seg = rewards[start:end + 1, e].astype(np.float64)
            weights = 1.0 if gamma is None else gamma ** np.arange(seg.size)
            returns.append(float((seg * weights).sum()))
            env_ids.append(e)
            start = end + 1
        n_incomplete += start < rewards.shape[0]
    return np.array(returns), np.array(env_ids, dtype=np.int64), n_incomplete


@pytest.mark.parametrize("gamma", [None, 0.9])
def test_episode_returns_match_loop_reference(gamma):
    gen = np.random.default_rng(7)
    for _ in range(50):
        t_len, n = int(gen.integers(1, 30)), int(gen.integers(1, 6))
        rewards = np.where(gen.random((t_len, n)) < 0.4,
                           gen.normal(size=(t_len, n)), 0.0).astype(np.float32)
        dones = gen.random((t_len, n)) < 0.25
        traj = traj_from_arrays(rewards, np.zeros((t_len, n)), dones, np.zeros(n))
        stats = episode_returns(traj, gamma)
        returns, env_ids, n_incomplete = _loop_episode_returns(rewards, dones, gamma)
        # Summation order differs from the loop's, so allow float64 rounding.
        assert np.allclose(stats.returns, returns, rtol=1e-12, atol=1e-12)
        assert stats.env_ids.tolist() == env_ids.tolist()
        assert stats.n_incomplete == n_incomplete
        best = max_episode_discounted_returns(traj, gamma)
        for e in range(n):
            mine = returns[env_ids == e]
            assert np.isclose(best[e], mine.max() if mine.size else 0.0, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------

ROLL_LEVEL = parse_level(
    ">....\n"
    ".##..\n"
    ".#G..\n"
    ".#...\n"
    ".....\n"
)


def fresh_roll_setup(n_envs=4, seed=0):
    env = AutoReplayWrapper(MazeEnv(max_steps=12, view_size=3))
    cfg = NetConfig(image_shape=(3, 3, 3), extra_dim=4, n_actions=3, hidden=8)
    params = init_params(R.generator(R.key_from_seed(seed)), cfg)
    states = [env.reset_to_level(ROLL_LEVEL, R.generator(k))
              for k in R.split(R.key_from_seed(1000 + seed), n_envs)]
    return env, params, states


def test_rollout_deterministic_and_thread_invariant():
    key = R.key_from_seed(3)
    outs = []
    for _ in range(3):
        env, params, states = fresh_roll_setup()
        [traj], _ = rollout(env, [params], states, 20, [key])
        outs.append(traj)
    for field in ("features", "actions", "log_probs", "values",
                  "rewards", "dones", "bootstrap_values"):
        a = getattr(outs[0], field)
        assert np.array_equal(a, getattr(outs[1], field))
        assert np.array_equal(a, getattr(outs[2], field))


def test_rollout_key_changes_actions():
    env, params, states = fresh_roll_setup()
    [t1], _ = rollout(env, [params], list(states), 20, [R.key_from_seed(4)])
    env2, params2, states2 = fresh_roll_setup()
    [t2], _ = rollout(env2, [params2], states2, 20, [R.key_from_seed(5)])
    assert not np.array_equal(t1.actions, t2.actions)


def test_rollout_records_match_recompute():
    # A rollout's forward pass reads each step's strided (F, N) slice of the
    # block; a contiguous copy of that slice must give the same bits.
    for per_env in (False, True):
        env, params, states = fresh_roll_setup()
        stepped = PerEnv(env) if per_env else env
        [traj], _ = rollout(stepped, [params], states, 15, [R.key_from_seed(6)])
        for t in range(15):
            logits, values = forward(params, np.ascontiguousarray(traj.features[:, t].T))
            assert np.array_equal(traj.values[t], values)
            lp = log_softmax(logits.astype(np.float64))
            idx = np.arange(traj.n_envs)
            assert np.array_equal(traj.log_probs[t], lp[idx, traj.actions[t]])


def test_rollout_episodes_reset_on_done():
    env, params, states = fresh_roll_setup()
    [traj], _ = rollout(env, [params], states, 30, [R.key_from_seed(7)])
    # max_steps=12 forces at least two dones per env in 30 steps
    assert traj.dones.any(axis=0).all()
    # after every done the env was reset, so no reward follows a terminal
    # state without a fresh episode; just check dones are not sticky
    for e in range(traj.n_envs):
        d = np.flatnonzero(traj.dones[:, e])
        assert np.all(np.diff(d) > 1) or len(d) <= 1


# ---------------------------------------------------------------------------
# Optimizer pieces
# ---------------------------------------------------------------------------

def test_normalize_advantages():
    gen = R.generator(13)
    x = gen.normal(3, 7, 100)
    z = normalize_advantages(x)
    assert abs(z.mean()) < 1e-10
    assert abs(z.std() - 1.0) < 1e-6
    assert np.all(normalize_advantages(np.zeros(8)) == 0)


def test_grad_norm_and_clip():
    cfg = NetConfig(image_shape=(1,), extra_dim=0, n_actions=1, hidden=1, dtype="float64")
    grad = np.zeros(cfg.n_params)
    cfg.views(grad)["w1"][:] = 3.0
    cfg.views(grad)["bv"][:] = 4.0
    assert global_grad_norm(cfg, grad) == pytest.approx(5.0)
    clipped = clip_grads(cfg, grad, 0.5)
    assert global_grad_norm(cfg, clipped) == pytest.approx(0.5)
    assert np.allclose(cfg.views(clipped)["w1"], [0.3])
    untouched = clip_grads(cfg, grad, 10.0)
    assert np.array_equal(cfg.views(untouched)["w1"], cfg.views(grad)["w1"])


def test_adam_step_hand_computed():
    cfg = NetConfig(image_shape=(1,), extra_dim=0, n_actions=2, hidden=2,
                    dtype="float64")
    p = make_params(cfg)
    lr, eps = 0.1, 1e-8
    q = adam_step(p, np.ones(p.n_params), lr, eps)
    # t=1: m_hat = g, v_hat = g^2 -> step = lr * g / (|g| + eps)
    assert np.allclose(q.theta, p.theta - lr * 1.0 / (1.0 + eps), atol=1e-12)
    assert np.allclose(q.m, 0.1 * np.ones_like(q.m))
    assert np.allclose(q.v, 0.001 * np.ones_like(q.v))
    assert q.adam_t == 1 and p.adam_t == 0


def test_annealed_lr_schedule():
    cfg = PpoConfig(lr=1e-3, anneal_lr=True)
    assert annealed_lr(cfg, 0, 100) == pytest.approx(1e-3)
    assert annealed_lr(cfg, 50, 100) == pytest.approx(5e-4)
    assert annealed_lr(cfg, 100, 100) == 0.0
    const = PpoConfig(lr=1e-3, anneal_lr=False)
    assert annealed_lr(const, 99, 100) == 1e-3


# ---------------------------------------------------------------------------
# PPO updates
# ---------------------------------------------------------------------------

def rollout_for_update(seed=0, t_len=16):
    env, params, states = fresh_roll_setup(seed=seed)
    [traj], _ = rollout(env, [params], states, t_len, [R.key_from_seed(seed)])
    return params, traj


def test_ppo_update_fixed_point():
    # zero advantages, targets equal to current values, no entropy bonus:
    # every gradient is exactly zero and parameters must not move
    params, traj = rollout_for_update()
    adv = np.zeros_like(traj.values)
    targets = traj.values.copy()
    ppo = PpoConfig(ent_coeff=0.0, epochs=3)
    new_params, stats = ppo_update(params, traj, adv, targets, ppo)
    for k in params.layers:
        assert np.array_equal(new_params.layers[k], params.layers[k])
    assert stats["policy_loss"] == pytest.approx(0.0, abs=1e-12)
    assert new_params.updates == params.updates + 1


def test_ppo_update_entropy_moves_params():
    params, traj = rollout_for_update()
    adv = np.zeros_like(traj.values)
    ppo = PpoConfig(ent_coeff=0.01, epochs=1)
    new_params, _ = ppo_update(params, traj, adv, traj.values.copy(), ppo)
    moved = any(not np.array_equal(new_params.layers[k], params.layers[k])
                for k in params.layers)
    assert moved


def test_ppo_update_first_epoch_kl_near_zero():
    params, traj = rollout_for_update(seed=2)
    adv, targets = compute_gae(traj, 0.995, 0.98)
    ppo = PpoConfig(epochs=1, lr=1e-3)
    _, stats = ppo_update(params, traj, adv, targets, ppo)
    # the first epoch evaluates the unchanged policy: ratio = 1 exactly
    assert stats["approx_kl"] == pytest.approx(0.0, abs=1e-7)
    assert stats["clip_fraction"] == 0.0


def test_ppo_update_improves_surrogate_reward():
    params, traj = rollout_for_update(seed=3, t_len=32)
    adv, targets = compute_gae(traj, 0.99, 0.95)
    ppo = PpoConfig(epochs=5, lr=5e-3, ent_coeff=0.0)
    new_params, _ = ppo_update(params, traj, adv, targets, ppo)
    b = traj.n_steps * traj.n_envs
    feat = traj.features.reshape(-1, b).T
    acts = traj.actions.reshape(b)
    znorm = normalize_advantages(adv.astype(np.float64)).reshape(b)

    def mean_weighted_logp(p):
        logits, _ = forward(p, feat)
        lp = log_softmax(logits.astype(np.float64))
        return float((znorm * lp[np.arange(b), acts]).mean())

    assert mean_weighted_logp(new_params) > mean_weighted_logp(params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ppo_update_diverged_raises():
    params, traj = rollout_for_update()
    adv, targets = compute_gae(traj, 0.99, 0.95)
    bad = np.full_like(targets, np.inf)
    with pytest.raises(TrainingDivergedError):
        ppo_update(params, traj, adv, bad, PpoConfig())


# The PPO update as it was before the per-update workspace: every epoch
# allocates each of its arrays anew, and every (B, ·) array is row-major.
# ppo_update stores its activations feature-major, so its matrix products and
# batch sums round differently; it must match this reference to within a few
# units in the last place of its dtype.

def _ref_forward(params, feat):
    cfg, p, dt = params.config, params.layers, params.config.np_dtype
    b = feat.shape[0]
    feat = np.ascontiguousarray(feat, dtype=dt)
    cache = {}
    if cfg.torso == "conv":
        n_img = math.prod(cfg.image_shape)
        cols = _im2col(feat[:, :n_img].reshape((b,) + cfg.image_shape))
        cols = cols.reshape(b, math.prod(cols.shape[1:3]), cols.shape[-1])
        a0 = np.tanh(cols @ p["ck"].reshape(-1, cfg.conv_filters) + p["cb"])
        cache.update(cols=cols, a0=a0)
        feat = np.concatenate([a0.reshape(b, -1), feat[:, n_img:]], axis=1)
    h1 = np.tanh(feat @ p["w1"] + p["b1"])
    h2 = np.tanh(h1 @ p["w2"] + p["b2"])
    cache.update(feat=feat, h1=h1, h2=h2)
    return h2 @ p["wp"] + p["bp"], (h2 @ p["wv"] + p["bv"])[:, 0], cache


def _ref_backward(params, cache, dlogits, dvalues):
    cfg, p = params.config, params.layers
    h2, h1, feat = cache["h2"], cache["h1"], cache["feat"]
    grads = {"wp": h2.T @ dlogits, "bp": dlogits.sum(axis=0),
             "wv": h2.T @ dvalues[:, None], "bv": dvalues.sum(axis=0, keepdims=True)}
    dh2 = dlogits @ p["wp"].T + dvalues[:, None] @ p["wv"].T
    dz2 = dh2 * (1.0 - h2 * h2)
    grads["w2"] = h1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    dz1 = (dz2 @ p["w2"].T) * (1.0 - h1 * h1)
    grads["w1"] = feat.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    if cfg.torso == "conv":
        dfeat = dz1 @ p["w1"].T
        n_conv = feat.shape[1] - cfg.extra_dim
        dz0 = dfeat[:, :n_conv].reshape(cache["a0"].shape) * (1.0 - cache["a0"] ** 2)
        grads["ck"] = np.einsum("bpk,bpf->kf", cache["cols"], dz0).reshape(p["ck"].shape)
        grads["cb"] = dz0.sum(axis=(0, 1))
    return grads


def _ref_loss_grads(params, batch, config):
    feat, acts, old_logp, old_values, adv, targets = batch
    dt = params.config.np_dtype
    b = feat.shape[0]
    eps = config.clip
    logits, vals, cache = _ref_forward(params, feat)
    z = logits - logits.max(axis=1, keepdims=True)
    logp_all = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    pi = np.exp(logp_all)
    rows = np.arange(b)
    ratio = np.exp(logp_all[rows, acts] - old_logp)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    pg_loss = -np.minimum(unclipped, clipped).mean()
    entropy_per = -(pi * logp_all).sum(axis=1)
    entropy = entropy_per.mean()
    v_clip = old_values + np.clip(vals - old_values, -eps, eps)
    l_raw = (vals - targets) ** 2
    l_clip = (v_clip - targets) ** 2
    value_loss = 0.5 * np.maximum(l_raw, l_clip).mean()
    total = pg_loss + config.vf_coeff * value_loss - config.ent_coeff * entropy
    in_band = (ratio >= 1.0 - eps) & (ratio <= 1.0 + eps)
    dratio = np.where(unclipped <= clipped, adv, np.where(in_band, adv, 0.0))
    dlogp_a = (-(1.0 / b) * dratio * ratio).astype(dt)
    one_hot = np.zeros_like(logp_all)
    one_hot[rows, acts] = 1.0
    dlogits = dlogp_a[:, None] * (one_hot - pi)
    dH = -pi * (logp_all + entropy_per[:, None])
    dlogits -= (config.ent_coeff / b) * dH
    v_band = np.abs(vals - old_values) <= eps
    dvals = np.where(l_raw >= l_clip, vals - targets, np.where(v_band, v_clip - targets, 0.0))
    dvalues = (config.vf_coeff / b) * dvals
    grads = _ref_backward(params, cache, dlogits.astype(dt), dvalues.astype(dt))
    grad = np.concatenate([grads[k].ravel() for k in params.config.param_shapes()])
    stats = {
        "policy_loss": float(pg_loss),
        "value_loss": float(value_loss),
        "entropy": float(entropy),
        "approx_kl": float(((ratio - 1.0) - np.log(ratio)).mean()),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > eps)),
        "total_loss": float(total),
    }
    return stats, grad


def _ref_ppo_update(params, traj, advantages, targets, config, lr):
    dt = params.config.np_dtype
    b = traj.n_steps * traj.n_envs
    adv = normalize_advantages(np.asarray(advantages, dtype=np.float64))
    batch = (traj.features.reshape(-1, b).T, traj.actions.reshape(b),
             traj.log_probs.reshape(b).astype(dt), traj.values.reshape(b).astype(dt),
             adv.reshape(b).astype(dt), np.asarray(targets, dtype=np.float64).reshape(b).astype(dt))
    stats = {}
    for _ in range(config.epochs):
        stats, grad = _ref_loss_grads(params, batch, config)
        params = adam_step(params, clip_grads(params.config, grad, config.max_grad_norm), lr,
                           config.adam_eps)
    return replace(params, updates=params.updates + 1), stats


def synthetic_traj(params, seed, t_len=32, n=8):
    """A trajectory whose log-probs and values are near the policy's own, so
    that an update crosses both sides of the ratio and value clips."""
    cfg = params.config
    gen = R.generator(R.key_from_seed(seed))
    img = gen.normal(0, 1, (t_len, n) + cfg.image_shape).astype(np.float32)
    ext = gen.normal(0, 1, (t_len, n, cfg.extra_dim)).astype(np.float32)
    logits, values = forward(params, _features(img.reshape((-1,) + cfg.image_shape),
                                               ext.reshape(-1, cfg.extra_dim), np.float32))
    acts = gen.integers(0, cfg.n_actions, t_len * n)
    logp = log_softmax(logits.astype(np.float64))[np.arange(t_len * n), acts]
    return traj_of(
        img, ext, actions=acts.reshape(t_len, n),
        log_probs=(logp + gen.normal(0, 0.1, logp.size)).reshape(t_len, n),
        values=(values + gen.normal(0, 0.3, values.size)).reshape(t_len, n),
        rewards=gen.normal(0, 1, (t_len, n)).astype(np.float32),
        dones=gen.random((t_len, n)) < 0.1,
        bootstrap_values=gen.normal(0, 1, n),
    )


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("cfg", [MLP64, CONV64], ids=["mlp", "conv"])
def test_ppo_update_matches_allocating_reference(cfg, dtype):
    # Two back-to-back updates on different trajectories of one shape: an
    # input or temporary that outlived its update would change the second.
    # The bounds hold the measured 1.5e-15 (float64) and 5.3e-6 (float32).
    tol = {"float32": 5e-5, "float64": 1e-12}[dtype]
    params = ref = make_params(replace(cfg, dtype=dtype), 8)
    ppo = PpoConfig(epochs=3, ent_coeff=0.01)
    for seed in (1, 2):
        traj = synthetic_traj(params, seed)
        adv, targets = compute_gae(traj, 0.99, 0.95)
        params, stats = ppo_update(params, traj, adv, targets, ppo, lr=3e-2)
        ref, ref_stats = _ref_ppo_update(ref, traj, adv, targets, ppo, lr=3e-2)
        assert stats.keys() == ref_stats.keys()
        for k in stats:
            assert rel_err(np.float64(stats[k]), np.float64(ref_stats[k])) <= tol, k
        assert 0.0 < stats["clip_fraction"] < 1.0
        assert (params.adam_t, params.updates) == (ref.adam_t, ref.updates)
        for a, b in ((params.theta, ref.theta), (params.m, ref.m), (params.v, ref.v)):
            a, b = params.config.views(a), params.config.views(b)
            for k in a:
                assert a[k].dtype == b[k].dtype and rel_err(a[k], b[k]) <= tol, k


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_ppo_update_reads_the_rollout_block_in_place(monkeypatch, dtype):
    env, params, states = fresh_roll_setup()
    params = make_params(replace(params.config, dtype=dtype))
    [traj], _ = rollout(env, [params], states, 16, [R.key_from_seed(0)])
    b = traj.n_steps * traj.n_envs
    assert traj.features.shape == (3 * 3 * 3 + 4, 16, 4)
    made, original = [], rl_core._ppo_workspace

    def spy(*args):
        made.append(original(*args))
        return made[-1]

    monkeypatch.setattr(rl_core, "_ppo_workspace", spy)
    adv, targets = compute_gae(traj, 0.99, 0.95)
    ppo_update(params, traj, adv, targets, PpoConfig(epochs=2))
    [work] = made
    feat_t = work["feat"].T  # the (F, B) matrix the products read
    assert feat_t.flags.c_contiguous
    assert np.array_equal(feat_t, traj.features.reshape(-1, b))
    # Read in place when the dtypes agree; cast once for a float64 net.
    assert np.shares_memory(feat_t, traj.features) == (dtype == "float32")


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("torso", ["mlp", "conv"])
def test_ppo_update_on_rollout_block_matches_rebuilt_copies(torso, dtype):
    env, params, states = fresh_roll_setup()
    params = make_params(replace(params.config, torso=torso, conv_filters=2, dtype=dtype))
    [traj], _ = rollout(env, [params], states, 16, [R.key_from_seed(1)])
    adv, targets = compute_gae(traj, 0.99, 0.95)
    ppo = PpoConfig(epochs=3, lr=1e-2)
    copied = replace(traj, features=traj.features.copy())
    got, got_stats = ppo_update(params, traj, adv, targets, ppo)
    want, want_stats = ppo_update(params, copied, adv, targets, ppo)
    assert got_stats == want_stats
    for a, b in ((got.theta, want.theta), (got.m, want.m), (got.v, want.v)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("cfg", [MLP64, CONV64], ids=["mlp", "conv"])
def test_forward_layout_guard(cfg, dtype):
    # A single row gives the same bytes in either layout, so `evaluate` and
    # `ued-forge eval` reports do not move with it. The logits come back
    # C-contiguous at every batch size, the layout callers reduce over.
    params = make_params(replace(cfg, dtype=dtype), 3)
    gen = R.generator(R.key_from_seed(4))
    for b in (1, 2, 33):
        img = gen.normal(0, 1, (b,) + cfg.image_shape).astype(np.float32)
        ext = gen.normal(0, 1, (b, cfg.extra_dim)).astype(np.float32)
        feat = _features(img, ext, np.float32)
        logits, values = forward(params, feat)
        assert logits.flags.c_contiguous and logits.dtype == values.dtype == np.dtype(dtype)
        if b == 1:
            ref_logits, ref_values, _ = _ref_forward(params, feat)
            assert logits.tobytes() == ref_logits.tobytes()
            assert values.tobytes() == ref_values.tobytes()


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def trained_params(seed):
    params, traj = rollout_for_update(seed=seed)
    adv, targets = compute_gae(traj, 0.995, 0.98)
    params, _ = ppo_update(params, traj, adv, targets, PpoConfig(epochs=2))
    return params


def test_checkpoint_round_trip_preserves_everything():
    p = trained_params(4)
    data = params_to_bytes(p)
    q = params_from_bytes(data)
    assert q.config == p.config
    assert q.adam_t == p.adam_t and q.updates == p.updates
    assert np.array_equal(q.theta, p.theta)
    assert np.array_equal(q.m, p.m)
    assert np.array_equal(q.v, p.v)
    assert params_to_bytes(q) == data


def test_checkpoint_file_round_trip(tmp_path):
    p = trained_params(5)
    path = tmp_path / "net.bin"
    save_params(p, path)
    q = load_params(path)
    assert params_to_bytes(q) == params_to_bytes(p)


def test_checkpoint_rejects_corruption():
    data = params_to_bytes(make_params(MLP64))
    with pytest.raises(ValueError):
        params_from_bytes(b"XXNET001" + data[8:])
    with pytest.raises(ValueError):
        params_from_bytes(data[:-4])
    with pytest.raises(ValueError):
        params_from_bytes(data + b"\x00\x00")
    with pytest.raises(ValueError, match="floats"):
        params_from_bytes(data + b"\0" * 4)


def _with_header(data: bytes, edit) -> bytes:
    (head_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12:12 + head_len])
    edit(header)
    head = json.dumps(header).encode()
    return data[:8] + struct.pack("<I", len(head)) + head + data[12 + head_len:]


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d[:10],
        lambda d: _with_header(d, lambda h: h.pop("config")),
        lambda d: _with_header(d, lambda h: h["config"].pop("extra_dim")),
        lambda d: _with_header(d, lambda h: h["config"].update(dropout=0.1)),
        lambda d: _with_header(d, lambda h: h["params"].update(w2=[3, 12])),
        lambda d: _with_header(d, lambda h: h["config"].update(hidden=3)),
        lambda d: _with_header(d, lambda h: h.update(adam_t="x")),
        lambda d: _with_header(d, lambda h: h.update(updates=-1)),
        lambda d: _with_header(d, lambda h: h["config"].update(dtype="int8")),
        lambda d: d[:8] + struct.pack("<I", 200_000) + b"[" * 100_000 + b"]" * 100_000,
    ],
    ids=["short_header", "no_config", "no_extra_dim", "extra_config_key", "w2_shape",
         "config_hidden", "adam_t_str", "updates_negative", "dtype_int8", "deep_json"],
)
def test_params_from_bytes_raises_checkpoint_error(mangle):
    data = params_to_bytes(make_params(MLP64))
    with pytest.raises(CheckpointError):
        params_from_bytes(mangle(data))
    assert issubclass(CheckpointError, ValueError)


_VALID_CKPT = params_to_bytes(make_params(MLP64))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8,
)
_HEADER_PATHS = [("version",), ("adam_t",), ("updates",), ("params",), ("params", "w1"),
                 ("params", "bv"), ("config",)] + [("config", f) for f in
                                                  ("image_shape", "extra_dim", "n_actions",
                                                   "hidden", "torso", "conv_filters", "dtype")]


def _set_path(header, path, value):
    for key in path[:-1]:
        header = header[key]
    header[path[-1]] = value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # fuzzed body bytes may be NaNs
@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.builds(lambda i, junk: _VALID_CKPT[:i] + junk + _VALID_CKPT[i + len(junk):],
              st.integers(0, len(_VALID_CKPT)), st.binary(min_size=1, max_size=8)),
    st.builds(lambda path, value: _with_header(_VALID_CKPT, lambda h: _set_path(h, path, value)),
              st.sampled_from(_HEADER_PATHS), _JSON),
))
def test_params_from_bytes_fuzz(data):
    # Any bytes either decode to a checkpoint that re-encodes to a valid one,
    # or raise CheckpointError: no bare ValueError, TypeError or IndexError.
    try:
        params = params_from_bytes(data)
    except CheckpointError:
        return
    assert params_from_bytes(params_to_bytes(params)).config == params.config
