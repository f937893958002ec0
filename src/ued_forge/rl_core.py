"""Actor-critic network with hand-written backprop, GAE, PPO, and rollouts.

The network is deliberately small: the observation image is flattened (or
passed through an optional 3x3 conv torso), concatenated with the extra
feature vector, pushed through two tanh layers of width 32, and split into a
policy head (logits) and a value head. Forward and backward passes are plain
numpy, written out explicitly so they can be verified against central finite
differences; Adam and global gradient-norm clipping are implemented here
too.

Training math follows clipped-surrogate PPO: per update, advantages are
normalized to zero mean / unit variance over the batch, the policy maximizes
``min(ratio * A, clip(ratio) * A)``, the value head minimizes a clipped
squared error, and an entropy bonus is subtracted. Epochs run over the full
batch (single minibatch). All parameters live in float32 by default;
instantiate with ``dtype="float64"`` for high-precision gradient checking.

Rollouts step a batch of environments for a fixed number of steps, sampling
actions from the policy. Each environment owns an independent random stream
derived by key splitting, so a trajectory depends only on its key. One loop
serves every env: each step encodes all observations, runs one forward pass,
samples every action at once by inverse CDF (one uniform per env) and
advances the env's array form (:meth:`UnderspecifiedEnv.batch`). The rows
whose episode ends, and every row of an env without an array form, step
through the env's own ``step``, so auto-resetting wrappers still pay the
terminal reward and draw the next level from that env's stream.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from . import rng as rng_mod
from .env_core import UnderspecifiedEnv

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999


class TrainingDivergedError(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


def check_field_types(obj) -> None:
    """Raise TypeError unless every int, float, bool or str field of the
    dataclass ``obj`` holds a value of that kind (``X | None`` allows None).
    A bool is not accepted as a number."""
    for f in fields(obj):
        kind, optional, _ = f.type.partition(" | None")
        expected = _FIELD_KINDS.get(kind)
        value = getattr(obj, f.name)
        if expected is None or (optional and value is None):
            continue
        if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
            raise TypeError(f"{f.name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.995
    gae_lambda: float = 0.98
    rollout_steps: int = 256
    epochs: int = 5
    clip: float = 0.2
    n_envs: int = 32
    lr: float = 1e-4
    anneal_lr: bool = True
    adam_eps: float = 1e-5
    max_grad_norm: float = 0.5
    value_clip: bool = True
    vf_coeff: float = 0.5
    ent_coeff: float = 1e-3

    def __post_init__(self):
        check_field_types(self)
        for name in ("gamma", "gae_lambda"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("rollout_steps", "epochs", "n_envs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("clip", "lr", "adam_eps", "max_grad_norm"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("vf_coeff", "ent_coeff"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")


def annealed_lr(config: PpoConfig, update_index: int, total_updates: int) -> float:
    """Linear schedule: lr0 * (1 - u / U_total); constant when anneal is off."""
    if not config.anneal_lr:
        return config.lr
    return config.lr * (1.0 - update_index / total_updates)


@dataclass(frozen=True)
class NetConfig:
    image_shape: tuple[int, ...]
    extra_dim: int
    n_actions: int
    hidden: int = 32
    torso: str = "mlp"  # "mlp" | "conv"
    conv_filters: int = 16
    dtype: str = "float32"

    def __post_init__(self):
        if self.torso not in ("mlp", "conv"):
            raise ValueError(f"unknown torso {self.torso!r}")
        if self.torso == "conv" and len(self.image_shape) != 3:
            raise ValueError("conv torso needs an (H, W, C) image shape")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def param_names(self) -> list[str]:
        names = []
        if self.torso == "conv":
            names += ["ck", "cb"]
        return names + ["w1", "b1", "w2", "b2", "wp", "bp", "wv", "bv"]


@dataclass
class ActorCriticParams:
    """Network weights plus Adam moments and step counters.

    Treated as immutable: optimizer steps return a new instance.
    """

    config: NetConfig
    layers: dict[str, np.ndarray]
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    adam_t: int = 0
    updates: int = 0

    def flat(self) -> np.ndarray:
        return np.concatenate(
            [self.layers[k].ravel() for k in self.config.param_names()]
        )

    def with_flat(self, vec: np.ndarray) -> "ActorCriticParams":
        layers, i = {}, 0
        for k in self.config.param_names():
            n = self.layers[k].size
            layers[k] = vec[i:i + n].reshape(self.layers[k].shape).astype(
                self.config.np_dtype
            )
            i += n
        return replace(self, layers=layers)

    @property
    def n_params(self) -> int:
        return sum(a.size for a in self.layers.values())


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float):
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def init_params(rng: np.random.Generator, config: NetConfig) -> ActorCriticParams:
    dt = config.np_dtype
    h = config.hidden
    layers = {}
    if config.torso == "conv":
        _, _, c = config.image_shape
        k_in = 9 * c
        layers["ck"] = _orthogonal(rng, k_in, config.conv_filters, np.sqrt(2)).reshape(
            3, 3, c, config.conv_filters
        )
        layers["cb"] = np.zeros(config.conv_filters)
        img_h, img_w, _ = config.image_shape
        feat_dim = img_h * img_w * config.conv_filters + config.extra_dim
    else:
        feat_dim = int(np.prod(config.image_shape)) + config.extra_dim
    layers["w1"] = _orthogonal(rng, feat_dim, h, np.sqrt(2))
    layers["b1"] = np.zeros(h)
    layers["w2"] = _orthogonal(rng, h, h, np.sqrt(2))
    layers["b2"] = np.zeros(h)
    layers["wp"] = _orthogonal(rng, h, config.n_actions, 0.01)
    layers["bp"] = np.zeros(config.n_actions)
    layers["wv"] = _orthogonal(rng, h, 1, 1.0)
    layers["bv"] = np.zeros(1)
    layers = {k: a.astype(dt) for k, a in layers.items()}
    zeros = {k: np.zeros_like(a) for k, a in layers.items()}
    return ActorCriticParams(
        config=config,
        layers=layers,
        m=zeros,
        v={k: np.zeros_like(a) for k, a in layers.items()},
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray) -> np.ndarray:
    # 3x3 patches with same padding; x is (B, H, W, C) -> (B, H, W, 9C).
    b, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = [xp[:, i:i + h, j:j + w, :] for i in range(3) for j in range(3)]
    return np.concatenate(cols, axis=3)


def _col2im(dcols: np.ndarray, shape) -> np.ndarray:
    b, h, w, c = shape
    dxp = np.zeros((b, h + 2, w + 2, c), dtype=dcols.dtype)
    for idx, (i, j) in enumerate((i, j) for i in range(3) for j in range(3)):
        dxp[:, i:i + h, j:j + w, :] += dcols[..., idx * c:(idx + 1) * c]
    return dxp[:, 1:-1, 1:-1, :]


def _forward_cached(params: ActorCriticParams, images, extras):
    cfg = params.config
    dt = cfg.np_dtype
    p = params.layers
    b = images.shape[0]
    images = np.ascontiguousarray(images, dtype=dt)
    extras = np.ascontiguousarray(extras, dtype=dt)
    cache = {"images": images, "extras": extras}
    if cfg.torso == "conv":
        cols = _im2col(images)
        flat_cols = cols.reshape(b, -1, cols.shape[-1])
        z0 = flat_cols @ p["ck"].reshape(-1, cfg.conv_filters) + p["cb"]
        a0 = np.tanh(z0)
        cache["cols"] = cols
        cache["a0"] = a0
        feat = np.concatenate([a0.reshape(b, -1), extras], axis=1)
    else:
        feat = np.concatenate([images.reshape(b, -1), extras], axis=1)
    h1 = np.tanh(feat @ p["w1"] + p["b1"])
    h2 = np.tanh(h1 @ p["w2"] + p["b2"])
    logits = h2 @ p["wp"] + p["bp"]
    values = (h2 @ p["wv"] + p["bv"])[:, 0]
    cache.update(feat=feat, h1=h1, h2=h2)
    return logits, values, cache


def forward(params: ActorCriticParams, images: np.ndarray, extras: np.ndarray):
    """Policy logits and state values for a batch of encoded observations."""
    expected = tuple(params.config.image_shape)
    if tuple(images.shape[1:]) != expected:
        raise ValueError(f"image batch shape {images.shape[1:]} != {expected}")
    if extras.shape[1:] != (params.config.extra_dim,):
        raise ValueError(
            f"extra batch dim {extras.shape[1:]} != ({params.config.extra_dim},)"
        )
    logits, values, _ = _forward_cached(params, images, extras)
    return logits, values


def _backward(params: ActorCriticParams, cache, dlogits, dvalues):
    cfg = params.config
    p = params.layers
    h2, h1, feat = cache["h2"], cache["h1"], cache["feat"]
    grads = {}
    grads["wp"] = h2.T @ dlogits
    grads["bp"] = dlogits.sum(axis=0)
    grads["wv"] = h2.T @ dvalues[:, None]
    grads["bv"] = dvalues.sum(axis=0, keepdims=True)
    dh2 = dlogits @ p["wp"].T + dvalues[:, None] @ p["wv"].T
    dz2 = dh2 * (1.0 - h2 * h2)
    grads["w2"] = h1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    dh1 = dz2 @ p["w2"].T
    dz1 = dh1 * (1.0 - h1 * h1)
    grads["w1"] = feat.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    if cfg.torso == "conv":
        b = feat.shape[0]
        dfeat = dz1 @ p["w1"].T
        n_conv = feat.shape[1] - cfg.extra_dim
        da0 = dfeat[:, :n_conv].reshape(cache["a0"].shape)
        dz0 = da0 * (1.0 - cache["a0"] ** 2)
        flat_cols = cache["cols"].reshape(b, -1, cache["cols"].shape[-1])
        grads["ck"] = np.einsum("bpk,bpf->kf", flat_cols, dz0).reshape(p["ck"].shape)
        grads["cb"] = dz0.sum(axis=(0, 1))
    return grads


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Trajectories and GAE
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Fixed-length batched rollout record, time-major (T, N, ...)."""

    images: np.ndarray
    extras: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    bootstrap_values: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_envs(self) -> int:
        return self.rewards.shape[1]


def compute_gae(traj: Trajectory, gamma: float, lam: float):
    """GAE advantages and value targets (float64).

    delta_t = r_t + gamma * (1 - done_t) * V_{t+1} - V_t and
    A_t = delta_t + gamma * lam * (1 - done_t) * A_{t+1}; done flags zero the
    bootstrap across episode boundaries. Targets are A + V.
    """
    rewards = traj.rewards.astype(np.float64)
    values = traj.values.astype(np.float64)
    t_len, n = rewards.shape
    adv = np.zeros((t_len, n), dtype=np.float64)
    last = np.zeros(n, dtype=np.float64)
    v_next = traj.bootstrap_values.astype(np.float64)
    for t in range(t_len - 1, -1, -1):
        nonterm = 1.0 - traj.dones[t].astype(np.float64)
        delta = rewards[t] + gamma * nonterm * v_next - values[t]
        last = delta + gamma * lam * nonterm * last
        adv[t] = last
        v_next = values[t]
    return adv, adv + values


@dataclass
class EpisodeStats:
    """Completed episodes found in a trajectory, in (env, time) order."""

    returns: np.ndarray  # sum of rewards per completed episode (float64)
    solved: np.ndarray   # terminal reward > 0
    env_ids: np.ndarray  # which env column each episode came from
    n_incomplete: int    # trailing partial episodes (one per env, at most)


def episode_returns(traj: Trajectory, gamma: float | None = None) -> EpisodeStats:
    """Split every env column at its done flags into episodes.

    ``gamma=None`` sums each completed episode's rewards; otherwise step k of
    an episode is weighted by ``gamma ** k``, discounting from its first step.
    """
    n_envs, n_steps = traj.n_envs, traj.n_steps
    rewards = traj.rewards.T.astype(np.float64).ravel()
    dones = traj.dones.T.ravel()
    # An episode starts at each column's first step and after each done.
    is_start = np.zeros(rewards.size + 1, dtype=np.bool_)
    is_start[np.arange(n_envs) * n_steps] = True
    is_start[np.flatnonzero(dones) + 1] = True
    starts = np.flatnonzero(is_start[:-1])
    ends = np.append(starts, rewards.size)[1:] - 1
    weighted = rewards
    if gamma is not None:
        step = np.arange(rewards.size) - starts[np.cumsum(is_start[:-1]) - 1]
        weighted = rewards * gamma ** step
    sums = np.add.reduceat(weighted, starts) if starts.size else weighted
    complete = dones[ends]
    return EpisodeStats(
        returns=sums[complete],
        solved=rewards[ends[complete]] > 0,
        env_ids=np.repeat(np.arange(n_envs), n_steps)[ends[complete]],
        n_incomplete=int((~complete).sum()),
    )


def max_episode_discounted_returns(traj: Trajectory, gamma: float | None) -> np.ndarray:
    """Best completed-episode return per env (0 with no episode), discounted
    by ``gamma`` as in :func:`episode_returns`."""
    stats = episode_returns(traj, gamma)
    best = np.full(traj.n_envs, -np.inf)
    np.maximum.at(best, stats.env_ids, stats.returns)
    best[np.bincount(stats.env_ids, minlength=traj.n_envs) == 0] = 0.0
    return best


# ---------------------------------------------------------------------------
# Rollout collection
# ---------------------------------------------------------------------------

class _EnvRows:
    """The batch protocol of :meth:`UnderspecifiedEnv.batch` for an env
    without a batch form: every row steps through ``env.step``."""

    def __init__(self, env: UnderspecifiedEnv, states, observations, cfg: NetConfig):
        self.env = env
        self.states = list(states)
        self.observations = list(observations)
        self.cfg = cfg

    def encode(self):
        n = len(self.states)
        img = np.zeros((n,) + tuple(self.cfg.image_shape), dtype=np.float32)
        ext = np.zeros((n, self.cfg.extra_dim), dtype=np.float32)
        for e, obs in enumerate(self.observations):
            img[e], ext[e] = self.env.encode_observation(obs)
        return img, ext

    def step(self, actions):
        return np.ones(len(self.states), dtype=np.bool_)

    def state(self, e):
        return self.states[e]

    def set_state(self, e, state, observation):
        self.states[e] = state
        self.observations[e] = observation

    def observation(self, e):
        return self.observations[e]


def rollout(
    env: UnderspecifiedEnv,
    params: ActorCriticParams,
    states: list,
    observations: list,
    n_steps: int,
    key: rng_mod.Key,
):
    """Step N envs for ``n_steps``, sampling actions from the policy.

    Returns (Trajectory, final states, final observations). Each env consumes
    its own split of ``key``: one uniform per step for its action, then
    whatever ``env.step`` draws.
    """
    n = len(states)
    cfg = params.config
    gens = [rng_mod.generator(k) for k in rng_mod.split(key, n)]
    batch = env.batch(states)
    if batch is None:
        batch = _EnvRows(env, states, observations, cfg)

    images = np.zeros((n_steps, n) + tuple(cfg.image_shape), dtype=np.float32)
    extras = np.zeros((n_steps, n, cfg.extra_dim), dtype=np.float32)
    actions = np.zeros((n_steps, n), dtype=np.int64)
    log_probs = np.zeros((n_steps, n), dtype=np.float64)
    values = np.zeros((n_steps, n), dtype=np.float64)
    rewards = np.zeros((n_steps, n), dtype=np.float32)
    dones = np.zeros((n_steps, n), dtype=np.bool_)
    rows = np.arange(n)

    for t in range(n_steps):
        img, ext = batch.encode()
        images[t] = img
        extras[t] = ext
        logits, vals = forward(params, img, ext)
        values[t] = vals
        logp = log_softmax(logits.astype(np.float64))
        # Inverse-CDF sampling: the action is the number of cumulative
        # probabilities at or below u times their total.
        u = np.array([g.random() for g in gens])
        cdf = np.cumsum(np.exp(logp), axis=1)
        a = np.minimum((cdf <= (u * cdf[:, -1])[:, None]).sum(axis=1), logp.shape[1] - 1)
        actions[t] = a
        log_probs[t] = logp[rows, a]
        # Rows the batch did not advance (episode ends, and every row of an
        # env without a batch form) step through the env itself.
        for e in np.flatnonzero(batch.step(a)):
            res = env.step(batch.state(e), int(a[e]), gens[e])
            batch.set_state(e, res.state, res.observation)
            rewards[t, e] = res.reward
            dones[t, e] = res.done

    if n_steps > 0 or n > 0:
        _, bootstrap = forward(params, *batch.encode())
    else:
        bootstrap = np.zeros(0)
    traj = Trajectory(
        images=images,
        extras=extras,
        actions=actions,
        log_probs=log_probs,
        values=values,
        rewards=rewards,
        dones=dones,
        bootstrap_values=np.asarray(bootstrap, dtype=np.float64),
    )
    return traj, [batch.state(e) for e in rows], [batch.observation(e) for e in rows]


# ---------------------------------------------------------------------------
# PPO update
# ---------------------------------------------------------------------------

def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    mean = adv.mean()
    std = adv.std()
    return (adv - mean) / (std + 1e-8)


def global_grad_norm(grads: dict) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def clip_grads(grads: dict, max_norm: float) -> dict:
    norm = global_grad_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        return {k: g * scale for k, g in grads.items()}
    return grads


def adam_step(params: ActorCriticParams, grads: dict, lr: float, eps: float):
    t = params.adam_t + 1
    dt = params.config.np_dtype
    layers, m, v = {}, {}, {}
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for k, p in params.layers.items():
        g = grads[k].astype(dt)
        mk = ADAM_BETA1 * params.m[k] + (1 - ADAM_BETA1) * g
        vk = ADAM_BETA2 * params.v[k] + (1 - ADAM_BETA2) * g * g
        layers[k] = p - dt.type(lr) * (mk / bc1) / (np.sqrt(vk / bc2) + eps)
        m[k] = mk
        v[k] = vk
    return replace(params, layers=layers, m=m, v=v, adam_t=t)


def _ppo_loss_grads(params, batch, config: PpoConfig):
    """One full-batch loss evaluation: stats plus parameter gradients."""
    images, extras, acts, old_logp, old_values, adv, targets = batch
    dt = params.config.np_dtype
    b = images.shape[0]
    eps = config.clip

    logits, vals, cache = _forward_cached(params, images, extras)
    logp_all = log_softmax(logits)
    pi = np.exp(logp_all)
    rows = np.arange(b)
    logp_a = logp_all[rows, acts]
    ratio = np.exp(logp_a - old_logp)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    pg_loss = -np.minimum(unclipped, clipped).mean()

    entropy_per = -(pi * logp_all).sum(axis=1)
    entropy = entropy_per.mean()

    if config.value_clip:
        v_clip = old_values + np.clip(vals - old_values, -eps, eps)
        l_raw = (vals - targets) ** 2
        l_clip = (v_clip - targets) ** 2
        value_loss = 0.5 * np.maximum(l_raw, l_clip).mean()
    else:
        value_loss = 0.5 * ((vals - targets) ** 2).mean()

    total = pg_loss + config.vf_coeff * value_loss - config.ent_coeff * entropy
    approx_kl = float(((ratio - 1.0) - np.log(ratio)).mean())

    # d(policy objective)/d ratio, honoring the active min/clip branch.
    use_unclipped = unclipped <= clipped
    in_band = (ratio >= 1.0 - eps) & (ratio <= 1.0 + eps)
    dratio = np.where(use_unclipped, adv, np.where(in_band, adv, 0.0))
    dlogp_a = (-(1.0 / b) * dratio * ratio).astype(dt)
    one_hot = np.zeros_like(logp_all)
    one_hot[rows, acts] = 1.0
    dlogits = dlogp_a[:, None] * (one_hot - pi)
    # Entropy bonus: subtracting ent_coeff * H flips the sign of dH/dlogits.
    dH = -pi * (logp_all + entropy_per[:, None])
    dlogits -= (config.ent_coeff / b) * dH

    if config.value_clip:
        use_raw = l_raw >= l_clip
        v_band = np.abs(vals - old_values) <= eps
        dvals = np.where(use_raw, vals - targets, np.where(v_band, v_clip - targets, 0.0))
    else:
        dvals = vals - targets
    dvalues = (config.vf_coeff / b) * dvals

    grads = _backward(params, cache, dlogits.astype(dt), dvalues.astype(dt))
    stats = {
        "policy_loss": float(pg_loss),
        "value_loss": float(value_loss),
        "entropy": float(entropy),
        "approx_kl": approx_kl,
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > eps)),
        "total_loss": float(total),
    }
    return stats, grads


def ppo_update(
    params: ActorCriticParams,
    traj: Trajectory,
    advantages: np.ndarray,
    targets: np.ndarray,
    config: PpoConfig,
    lr: float | None = None,
):
    """Clipped-surrogate PPO over ``config.epochs`` full-batch passes.

    Returns (new params, stats from the final epoch). ``lr`` defaults to the
    un-annealed config value; training loops pass the annealed rate.
    """
    if lr is None:
        lr = config.lr
    dt = params.config.np_dtype
    t_len, n = traj.rewards.shape
    b = t_len * n
    img = traj.images.reshape((b,) + tuple(params.config.image_shape))
    ext = traj.extras.reshape(b, -1)
    acts = traj.actions.reshape(b)
    old_logp = traj.log_probs.reshape(b).astype(dt)
    old_values = traj.values.reshape(b).astype(dt)
    adv = normalize_advantages(np.asarray(advantages, dtype=np.float64))
    batch = (
        img,
        ext,
        acts,
        old_logp,
        old_values,
        adv.reshape(b).astype(dt),
        np.asarray(targets, dtype=np.float64).reshape(b).astype(dt),
    )

    stats = {}
    for _ in range(config.epochs):
        stats, grads = _ppo_loss_grads(params, batch, config)
        if not np.isfinite(stats["total_loss"]):
            raise TrainingDivergedError(f"non-finite loss: {stats}")
        grads = clip_grads(grads, config.max_grad_norm)
        if not all(np.all(np.isfinite(g)) for g in grads.values()):
            raise TrainingDivergedError("non-finite gradient")
        params = adam_step(params, grads, lr, config.adam_eps)
    params = replace(params, updates=params.updates + 1)
    return params, stats


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
# Binary layout: 8-byte magic "UFNET001", little-endian u32 header length,
# JSON header (net config, counters, parameter names/shapes, sorted keys),
# then one flat little-endian float32 blob per parameter in header order,
# followed by the Adam first moments and second moments in the same order.

_NET_MAGIC = b"UFNET001"


def params_to_bytes(params: ActorCriticParams) -> bytes:
    cfg = params.config
    names = cfg.param_names()
    header = {
        "version": 1,
        "config": {
            "image_shape": list(cfg.image_shape),
            "extra_dim": cfg.extra_dim,
            "n_actions": cfg.n_actions,
            "hidden": cfg.hidden,
            "torso": cfg.torso,
            "conv_filters": cfg.conv_filters,
            "dtype": cfg.dtype,
        },
        "adam_t": params.adam_t,
        "updates": params.updates,
        "params": {k: list(params.layers[k].shape) for k in names},
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blobs = [params.layers[k] for k in names]
    blobs += [params.m[k] for k in names]
    blobs += [params.v[k] for k in names]
    body = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in blobs)
    return _NET_MAGIC + struct.pack("<I", len(head)) + head + body


class CheckpointError(ValueError):
    """Malformed network checkpoint bytes."""


def params_from_bytes(data: bytes) -> ActorCriticParams:
    """Decode :func:`params_to_bytes` output; raises :class:`CheckpointError`
    on any malformed input."""
    try:
        return _decode_params(data)
    except (struct.error, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad network checkpoint: {exc}") from exc


def _decode_params(data: bytes) -> ActorCriticParams:
    if data[:8] != _NET_MAGIC:
        raise ValueError("not a network checkpoint (bad magic)")
    (head_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12:12 + head_len].decode("utf-8"))
    if header.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {header.get('version')}")
    c = header["config"]
    cfg = NetConfig(
        image_shape=tuple(c["image_shape"]),
        extra_dim=c["extra_dim"],
        n_actions=c["n_actions"],
        hidden=c["hidden"],
        torso=c["torso"],
        conv_filters=c["conv_filters"],
        dtype=c["dtype"],
    )
    names = cfg.param_names()
    offset = 12 + head_len
    dt = cfg.np_dtype

    def take(shape):
        nonlocal offset
        n = int(np.prod(shape))
        arr = np.frombuffer(data, dtype="<f4", count=n, offset=offset)
        offset += 4 * n
        return arr.reshape(shape).astype(dt)

    shapes = {k: tuple(header["params"][k]) for k in names}
    layers = {k: take(shapes[k]) for k in names}
    m = {k: take(shapes[k]) for k in names}
    v = {k: take(shapes[k]) for k in names}
    if offset != len(data):
        raise ValueError("trailing bytes in network checkpoint")
    return ActorCriticParams(
        config=cfg, layers=layers, m=m, v=v,
        adam_t=header["adam_t"], updates=header["updates"],
    )


def save_params(params: ActorCriticParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


def load_params(path) -> ActorCriticParams:
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())
