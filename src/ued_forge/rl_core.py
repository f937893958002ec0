"""Actor-critic network with hand-written backprop, GAE, PPO, and rollouts.

The network is deliberately small. Its one input is a (B, F) feature matrix:
each row is an observation's flattened image followed by its extra feature
vector (:func:`_features`, F = prod(image_shape) + extra_dim). The image
part goes straight on (or through an optional 3x3 conv torso), then through
two tanh layers of width 32, split into a policy head (logits) and a value
head. Forward and backward passes are plain numpy, written out explicitly so
they can be verified against central finite differences; Adam and global
gradient-norm clipping are implemented here too.

Training math follows clipped-surrogate PPO: per update, advantages are
normalized to zero mean / unit variance over the batch, the policy maximizes
``min(ratio * A, clip(ratio) * A)``, the value head minimizes a clipped
squared error, and an entropy bonus is subtracted. Epochs run over the full
batch (single minibatch). All parameters live in float32 by default;
instantiate with ``dtype="float64"`` for high-precision gradient checking.

The parameters, their gradient and both Adam moments are each one flat
vector, laid out in the checkpoint order of :meth:`NetConfig.param_shapes`;
:meth:`NetConfig.views` gives each parameter as a view of such a vector.
Adam, clipping and the finite check are whole-vector operations, and the
backward pass writes each gradient straight into its view.
An update allocates one workspace (:func:`_ppo_workspace`) for all its epochs:
the inputs that every epoch reads are built once, and every (B, hidden) or
(B, n_actions) temporary is written into it in place.

Batch activations and their gradients are stored feature-major, (features,
B): each matrix product is written in that orientation (``w1.T @ featT``) and
every other line works on the (B, features) view ``.T``, so sums over the
batch or a row's actions run along contiguous memory. A single row rounds as
in row-major order, and :func:`forward` returns C-contiguous logits. The
observations are written once, feature-major too: a rollout fills one
(F, T, N) block per policy, each step's forward pass reads its (F, N) slice
in place, and the update reads its (F, T*N) reshape as the batch features.

Rollouts step a batch of environments for a fixed number of steps, sampling
actions from the policy. A rollout key splits into an action stream, which
gives every env's action uniforms up front, and an env stream, which gives
each env the only generator its ``env.step`` draws from; so no action
depends on what an env drew, and a trajectory depends only on its key. One
loop serves every env: each step encodes all observations into the block,
runs one forward pass per policy on its slice, samples every action at once
by inverse CDF (one uniform per env) and advances the env's array form
(:meth:`UnderspecifiedEnv.batch`). The rows whose episode ends, and every
row of an env without an array form, step through the env's own ``step``,
so auto-resetting wrappers still pay the terminal reward and draw the next
level from that row's env stream. Several policies can share one rollout,
each acting on its own group of rows (the PAIRED students on the same
levels). A rollout starts from states alone and returns each group's
trajectory and final states.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field, fields, replace
from types import MappingProxyType

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
        check_field_types(self)
        if self.torso not in ("mlp", "conv"):
            raise ValueError(f"unknown torso {self.torso!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if min(self.hidden, self.n_actions, self.conv_filters, *self.image_shape) < 1:
            raise ValueError("image_shape, hidden, n_actions and conv_filters must be >= 1")
        if self.extra_dim < 0:
            raise ValueError("extra_dim must be non-negative")
        if self.torso == "conv" and len(self.image_shape) != 3:
            raise ValueError("conv torso needs an (H, W, C) image shape")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def param_shapes(self) -> dict[str, tuple]:
        """The shape of each parameter, in checkpoint order."""
        h, n_act = self.hidden, self.n_actions
        shapes = {}
        if self.torso == "conv":
            img_h, img_w, c = self.image_shape
            shapes.update(ck=(3, 3, c, self.conv_filters), cb=(self.conv_filters,))
            feat_dim = img_h * img_w * self.conv_filters + self.extra_dim
        else:
            feat_dim = math.prod(self.image_shape) + self.extra_dim
        return {**shapes, "w1": (feat_dim, h), "b1": (h,), "w2": (h, h), "b2": (h,),
                "wp": (h, n_act), "bp": (n_act,), "wv": (h, 1), "bv": (1,)}

    @property
    def n_params(self) -> int:
        return sum(math.prod(s) for s in self.param_shapes().values())

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter as a view of the flat vector ``vec``, in checkpoint order."""
        out, i = {}, 0
        for k, shape in self.param_shapes().items():
            n = math.prod(shape)
            out[k] = vec[i:i + n].reshape(shape)
            i += n
        return out


@dataclass(frozen=True)
class ActorCriticParams:
    """Network weights plus Adam moments and step counters.

    ``theta`` (the weights), ``m`` and ``v`` (the Adam moments) are flat
    vectors of ``config.n_params`` entries in checkpoint order, and read-only:
    optimizer steps return a new instance. ``layers`` maps each parameter
    name to its view of ``theta``, built once here.
    """

    config: NetConfig
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    adam_t: int = 0
    updates: int = 0
    layers: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.config.n_params
        if not self.theta.shape == self.m.shape == self.v.shape == (n,):
            raise ValueError(f"theta, m and v must each have shape ({n},)")
        for a in (self.theta, self.m, self.v):
            a.setflags(write=False)
        object.__setattr__(self, "layers", MappingProxyType(self.config.views(self.theta)))

    def flat(self) -> np.ndarray:
        return self.theta

    def with_flat(self, vec: np.ndarray) -> "ActorCriticParams":
        return replace(self, theta=vec.astype(self.config.np_dtype))

    @property
    def n_params(self) -> int:
        return self.theta.size


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float):
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


# Orthogonal-init gains of the weight matrices; the other parameters start at 0.
_GAINS = {"ck": math.sqrt(2), "w1": math.sqrt(2), "w2": math.sqrt(2), "wp": 0.01, "wv": 1.0}


def init_params(rng: np.random.Generator, config: NetConfig) -> ActorCriticParams:
    theta = np.concatenate([
        _orthogonal(rng, math.prod(shape[:-1]), shape[-1], _GAINS[k]).ravel()
        if k in _GAINS else np.zeros(math.prod(shape))
        for k, shape in config.param_shapes().items()
    ]).astype(config.np_dtype)
    return ActorCriticParams(config, theta, np.zeros_like(theta), np.zeros_like(theta))


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray) -> np.ndarray:
    # 3x3 patches with same padding; x is (B, H, W, C) -> (B, H, W, 9C).
    b, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = [xp[:, i:i + h, j:j + w, :] for i in range(3) for j in range(3)]
    return np.concatenate(cols, axis=3)


def _features(x, extras, dt, out=None):
    """Each row of ``x`` flattened, followed by its extras, in dtype ``dt`` or
    into ``out``: for encoded observations, the network's (B, F) input."""
    b = x.shape[0]  # explicit sizes, so that a batch of zero rows reshapes too
    return np.concatenate([x.reshape(b, math.prod(x.shape[1:])), extras], axis=1,
                          dtype=dt if out is None else None, out=out, casting="unsafe")


def _forward_cached(params: ActorCriticParams, feat, work=None):
    """Logits, values and the activations :func:`_backward` needs, for the
    (B, F) features ``feat``. ``work`` (from :func:`_ppo_workspace`) holds
    the output arrays and the torso's input in the net's dtype; without it
    every array is new."""
    cfg = params.config
    p = params.layers
    w = work or {}
    cache = {}
    if cfg.torso == "conv":
        n_img = math.prod(cfg.image_shape)
        images = w["images"] if w else np.ascontiguousarray(feat[:, :n_img], dtype=cfg.np_dtype)
        cols = _im2col(images.reshape(len(feat), *cfg.image_shape))
        cols = cols.reshape(cols.shape[0], math.prod(cols.shape[1:3]), cols.shape[-1])
        a0 = np.tanh(cols @ p["ck"].reshape(-1, cfg.conv_filters) + p["cb"])
        cache.update(cols=cols, a0=a0)
        feat = _features(a0, feat[:, n_img:], cfg.np_dtype)
    else:
        feat = w["feat"] if w else feat.astype(cfg.np_dtype, copy=False)
    h1 = np.matmul(p["w1"].T, feat.T, out=w["h1"].T if w else None).T
    h1 += p["b1"]
    np.tanh(h1, out=h1)
    h2 = np.matmul(p["w2"].T, h1.T, out=w["h2"].T if w else None).T
    h2 += p["b2"]
    np.tanh(h2, out=h2)
    logits = np.matmul(p["wp"].T, h2.T, out=w["logits"].T if w else None).T
    logits += p["bp"]
    values = (h2 @ p["wv"] + p["bv"])[:, 0]
    cache.update(feat=feat, h1=h1, h2=h2)
    return logits, values, cache


def forward(params: ActorCriticParams, feat: np.ndarray):
    """Policy logits and state values for the (B, F) features of a batch of
    encoded observations (see :func:`_features`)."""
    n_feat = math.prod(params.config.image_shape) + params.config.extra_dim
    if feat.ndim != 2 or feat.shape[1] != n_feat:
        raise ValueError(f"feature batch shape {feat.shape} != (B, {n_feat})")
    logits, values, _ = _forward_cached(params, feat)
    return np.ascontiguousarray(logits), values


def _backward(params: ActorCriticParams, cache, dlogits, dvalues, work=None):
    """The flat gradient of every parameter; the cached ``h1`` and ``h2`` are overwritten."""
    cfg = params.config
    p = params.layers
    w = work or {}
    h2, h1, feat = cache["h2"], cache["h1"], cache["feat"]
    grad = np.empty_like(params.theta)
    g = cfg.views(grad)
    np.matmul(h2.T, dlogits, out=g["wp"])
    dlogits.sum(axis=0, out=g["bp"])
    np.matmul(h2.T, dvalues[:, None], out=g["wv"])
    dvalues.sum(axis=0, keepdims=True, out=g["bv"])
    heads = np.concatenate([p["wp"], p["wv"]], axis=1)  # both heads in one product
    dheads = np.concatenate([dlogits.T, dvalues[None]])
    dz2 = np.matmul(heads, dheads, out=w["dh2"].T if w else None).T
    dz2 *= np.subtract(1.0, np.multiply(h2, h2, out=h2), out=h2)  # tanh'(z2) = 1 - h2 * h2
    np.matmul(h1.T, dz2, out=g["w2"])
    dz2.sum(axis=0, out=g["b2"])
    dz1 = np.matmul(p["w2"], dz2.T, out=h2.T).T  # h2 is spent
    dz1 *= np.subtract(1.0, np.multiply(h1, h1, out=h1), out=h1)
    np.matmul(feat.T, dz1, out=g["w1"])
    dz1.sum(axis=0, out=g["b1"])
    if cfg.torso == "conv":
        dfeat = dz1 @ p["w1"].T
        n_conv = feat.shape[1] - cfg.extra_dim
        da0 = dfeat[:, :n_conv].reshape(cache["a0"].shape)
        dz0 = da0 * (1.0 - cache["a0"] ** 2)
        np.einsum("bpk,bpf->kf", cache["cols"], dz0, out=g["ck"].reshape(-1, cfg.conv_filters))
        dz0.sum(axis=(0, 1), out=g["cb"])
    return grad


def log_softmax(logits: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Row-wise log-softmax into ``out``, with ``scratch`` for the exponentials."""
    z = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    z -= np.log(np.exp(z, out=scratch).sum(axis=1, keepdims=True))
    return z


# ---------------------------------------------------------------------------
# Trajectories and GAE
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Fixed-length batched rollout record, time-major (T, N, ...).

    The observations are one feature-major block ``features``, (F, T, N):
    feature f of env n at step t, in the layout of :func:`_features`.
    ``features[:, t].T`` is the (N, F) network input of step t, and the
    (F, T*N) reshape is the transposed (B, F) input that :func:`ppo_update`
    reads in place.
    """

    features: np.ndarray
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
    nonterm = 1.0 - traj.dones.astype(np.float64)
    v_next = np.concatenate([values[1:], traj.bootstrap_values.astype(np.float64)[None]])
    delta = rewards + gamma * nonterm * v_next - values
    carry = gamma * lam * nonterm
    adv = np.zeros_like(values)
    last = np.zeros(values.shape[1])
    for t in range(len(values) - 1, -1, -1):
        last = delta[t] + carry[t] * last
        adv[t] = last
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
    without one: each row steps through ``env.step``, encoded at ``cfg``'s shapes."""

    def __init__(self, env: UnderspecifiedEnv, states, cfg: NetConfig):
        self.env = env
        self.states = list(states)
        self.cfg = cfg

    def encode(self):
        n = len(self.states)
        img = np.zeros((n,) + tuple(self.cfg.image_shape), dtype=np.float32)
        ext = np.zeros((n, self.cfg.extra_dim), dtype=np.float32)
        for e, state in enumerate(self.states):
            img[e], ext[e] = self.env.encode_observation(self.env.observe(state))
        return img, ext

    def step(self, actions):
        return np.ones(len(self.states), dtype=np.bool_)

    def state(self, e):
        return self.states[e]

    def set_state(self, e, state):
        self.states[e] = state


def rollout(env: UnderspecifiedEnv, params: list[ActorCriticParams], states: list,
            n_steps: int, keys: list[rng_mod.Key]):
    """Step N envs for ``n_steps``, each row acting on the policy of its group.

    ``params`` and ``keys`` are equal-length sequences of G policies and
    their keys, and the states form G equal, contiguous groups. Returns (list
    of G trajectories, list of G final-state lists). Each group acts and
    draws exactly as a rollout of its own states would: its key splits into
    an action key and an env key, env ``i`` of the group samples its action
    at step ``t`` with the uniform ``generator(action key).random((n,
    n_steps))[i, t]``, and ``env.step`` draws only from
    ``generator(split(env key, n)[i])``. Observations come from the states,
    through ``env.batch`` or ``env.observe``.
    """
    policies, keys = list(params), list(keys)
    if not policies or len(keys) != len(policies) or len(states) % len(policies):
        raise ValueError(f"{len(states)} states do not split into equal groups for "
                         f"{len(policies)} policies with {len(keys)} keys")
    n_groups, n_all = len(policies), len(states)
    n = n_all // n_groups
    groups = [slice(g * n, (g + 1) * n) for g in range(n_groups)]
    cfg = policies[0].config
    streams = [rng_mod.split(group_key) for group_key in keys]  # (action key, env key)
    uniforms = np.concatenate([rng_mod.generator(k_act).random((n, n_steps))
                               for k_act, _ in streams])
    gens = [rng_mod.generator(k) for _, k_env in streams for k in rng_mod.split(k_env, n)]
    batch = env.batch(states)
    if batch is None:
        batch = _EnvRows(env, states, cfg)

    # Group-major, so that each group's trajectory is a contiguous view; each
    # group's observations are one feature-major (F, T, n) block.
    lead = (n_groups, n_steps, n)
    n_feat = math.prod(cfg.image_shape) + cfg.extra_dim
    features = np.zeros((n_groups, n_feat, n_steps, n), dtype=np.float32)
    actions = np.zeros(lead, dtype=np.int64)
    log_probs = np.zeros(lead, dtype=np.float64)
    values = np.zeros(lead, dtype=np.float64)
    rewards = np.zeros(lead, dtype=np.float32)
    dones = np.zeros(lead, dtype=np.bool_)
    logits = np.zeros((n_all, cfg.n_actions), dtype=np.float64)
    rows = np.arange(n_all)

    for t in range(n_steps):
        img, ext = batch.encode()
        for g, rows_g in enumerate(groups):
            feat = _features(img[rows_g], ext[rows_g], None, out=features[g, :, t].T)
            logits[rows_g], values[g, t] = forward(policies[g], feat)
        logp = log_softmax(logits)
        # Inverse-CDF sampling: the action is the number of cumulative
        # probabilities at or below u times their total.
        cdf = np.cumsum(np.exp(logp), axis=1)
        a = np.minimum((cdf <= (uniforms[:, t] * cdf[:, -1])[:, None]).sum(axis=1),
                       logp.shape[1] - 1)
        actions[:, t] = a.reshape(n_groups, n)
        log_probs[:, t] = logp[rows, a].reshape(n_groups, n)
        # Rows the batch did not advance (episode ends, and every row of an
        # env without a batch form) step through the env itself.
        ends = batch.step(a)
        for e in np.flatnonzero(ends):
            res = env.step(batch.state(e), int(a[e]), gens[e])
            batch.set_state(e, res.state)
            g, i = divmod(e, n)
            rewards[g, t, i] = res.reward
            dones[g, t, i] = res.done

    feat = _features(*batch.encode(), np.float32)
    trajs = [Trajectory(features[g], actions[g], log_probs[g], values[g], rewards[g], dones[g],
                        np.asarray(forward(policies[g], feat[rows_g])[1], dtype=np.float64))
             for g, rows_g in enumerate(groups)]
    final = [batch.state(e) for e in rows]
    return trajs, [final[rows_g] for rows_g in groups]


# ---------------------------------------------------------------------------
# PPO update
# ---------------------------------------------------------------------------

def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    mean = adv.mean()
    std = adv.std()
    return (adv - mean) / (std + 1e-8)


def global_grad_norm(config: NetConfig, grad: np.ndarray) -> float:
    """The L2 norm of a flat gradient: a sum of squares per parameter in its
    own dtype, the sums added in float64."""
    return float(np.sqrt(sum(float((g * g).sum()) for g in config.views(grad).values())))


def clip_grads(config: NetConfig, grad: np.ndarray, max_norm: float) -> np.ndarray:
    norm = global_grad_norm(config, grad)
    return grad * (max_norm / norm) if norm > max_norm else grad


def adam_step(params: ActorCriticParams, grad: np.ndarray, lr: float, eps: float):
    t = params.adam_t + 1
    dt = params.config.np_dtype
    g = grad.astype(dt)
    m = ADAM_BETA1 * params.m + (1 - ADAM_BETA1) * g
    v = ADAM_BETA2 * params.v + (1 - ADAM_BETA2) * g * g
    bc1, bc2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    theta = params.theta - dt.type(lr) * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return replace(params, theta=theta, m=m, v=v, adam_t=t)


def _ppo_workspace(cfg: NetConfig, feat, acts) -> dict:
    """The arrays every epoch of one PPO update reuses: the inputs that do not
    change between epochs (the torso's input and the action one-hot), and
    one array per (B, hidden) or (B, n_actions) temporary, written in place.
    Each (B, ·) array is stored feature-major, (·, B), and handed out as its
    view ``.T``. ``feat`` is the batch's (B, F) observation features; a
    rollout trajectory's block already has that layout, so the ``mlp`` torso
    reads it in place, and copies only other layouts or dtypes. The ``conv``
    torso gets one contiguous copy of the images for every epoch's im2col."""
    b, dt = len(acts), cfg.np_dtype
    work = {k: np.empty((cfg.hidden, b), dt).T for k in ("h1", "h2", "dh2")}
    for k in ("logits", "logp", "pi", "tmp_a", "dlogits"):
        work[k] = np.empty((cfg.n_actions, b), dt).T
    work["one_hot"] = np.zeros((cfg.n_actions, b), dt).T
    work["one_hot"][np.arange(b), acts] = 1.0
    if cfg.torso == "mlp":
        work["feat"] = np.asfortranarray(feat, dtype=dt)
    else:
        work["images"] = np.ascontiguousarray(feat[:, :math.prod(cfg.image_shape)], dtype=dt)
    return work


def _ppo_loss_grads(params, batch, config: PpoConfig, work=None):
    """One full-batch loss evaluation: stats plus parameter gradients.
    ``work`` is the :func:`_ppo_workspace` of this batch (a new one if None)."""
    feat, acts, old_logp, old_values, adv, targets = batch
    dt = params.config.np_dtype
    b = len(feat)
    eps = config.clip
    w = work if work is not None else _ppo_workspace(params.config, feat, acts)

    logits, vals, cache = _forward_cached(params, feat, w)
    logp_all = log_softmax(logits, out=w["logp"], scratch=w["pi"])
    pi = np.exp(logp_all, out=w["pi"])
    logp_a = logp_all[np.arange(b), acts]
    ratio = np.exp(logp_a - old_logp)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    pg_loss = -np.minimum(unclipped, clipped).mean()

    entropy_per = -np.multiply(pi, logp_all, out=w["tmp_a"]).sum(axis=1)
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
    dlogits = np.subtract(w["one_hot"], pi, out=w["dlogits"])
    dlogits *= dlogp_a[:, None]
    # Entropy bonus: subtracting ent_coeff * H adds ent_coeff * pi * (logp + H)
    # to dlogits, the negative of dH/dlogits.
    ent_grad = np.add(logp_all, entropy_per[:, None], out=w["tmp_a"])
    ent_grad *= pi
    ent_grad *= config.ent_coeff / b
    dlogits += ent_grad

    if config.value_clip:
        use_raw = l_raw >= l_clip
        v_band = np.abs(vals - old_values) <= eps
        dvals = np.where(use_raw, vals - targets, np.where(v_band, v_clip - targets, 0.0))
    else:
        dvals = vals - targets
    dvalues = (config.vf_coeff / b) * dvals

    grad = _backward(params, cache, dlogits, dvalues.astype(dt), w)
    stats = {
        "policy_loss": float(pg_loss),
        "value_loss": float(value_loss),
        "entropy": float(entropy),
        "approx_kl": approx_kl,
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > eps)),
        "total_loss": float(total),
    }
    return stats, grad


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
    cfg, dt = params.config, params.config.np_dtype
    b = traj.n_steps * traj.n_envs
    feat = traj.features.reshape(-1, b).T
    acts = traj.actions.reshape(b)
    old_logp = traj.log_probs.reshape(b).astype(dt)
    old_values = traj.values.reshape(b).astype(dt)
    adv = normalize_advantages(np.asarray(advantages, dtype=np.float64)).reshape(b).astype(dt)
    targets = np.asarray(targets, dtype=np.float64).reshape(b).astype(dt)
    batch = (feat, acts, old_logp, old_values, adv, targets)
    work = _ppo_workspace(cfg, feat, acts)

    stats = {}
    for _ in range(config.epochs):
        stats, grad = _ppo_loss_grads(params, batch, config, work)
        if not np.isfinite(stats["total_loss"]):
            raise TrainingDivergedError(f"non-finite loss: {stats}")
        grad = clip_grads(params.config, grad, config.max_grad_norm)
        if not np.isfinite(grad).all():
            raise TrainingDivergedError("non-finite gradient")
        params = adam_step(params, grad, lr, config.adam_eps)
    params = replace(params, updates=params.updates + 1)
    return params, stats


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
# Binary layout: 8-byte magic "UFNET001", little-endian u32 header length,
# JSON header (net config, counters, parameter names/shapes, sorted keys),
# then three flat little-endian float32 vectors: the parameters, the Adam
# first moments and the second moments, each in header order.

_NET_MAGIC = b"UFNET001"


def params_to_bytes(params: ActorCriticParams) -> bytes:
    cfg = params.config
    header = {
        "version": 1,
        "config": asdict(cfg),
        "adam_t": params.adam_t,
        "updates": params.updates,
        "params": {k: list(s) for k, s in cfg.param_shapes().items()},
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = np.concatenate([params.theta, params.m, params.v]).astype("<f4").tobytes()
    return _NET_MAGIC + struct.pack("<I", len(head)) + head + body


class CheckpointError(ValueError):
    """Malformed network checkpoint bytes."""


def params_from_bytes(data: bytes) -> ActorCriticParams:
    """Decode :func:`params_to_bytes` output; raises :class:`CheckpointError`
    on any malformed input."""
    try:
        return _decode_params(data)
    except (struct.error, AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"bad network checkpoint: {exc}") from exc


def _decode_params(data: bytes) -> ActorCriticParams:
    if data[:8] != _NET_MAGIC:
        raise ValueError("not a network checkpoint (bad magic)")
    (head_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12:12 + head_len].decode("utf-8"))
    if header.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {header.get('version')}")
    c = header["config"]
    if set(c) != {f.name for f in fields(NetConfig)}:
        raise ValueError(f"network config fields {sorted(c)} do not match NetConfig")
    cfg = NetConfig(**{**c, "image_shape": tuple(c["image_shape"])})
    if header["params"] != {k: list(s) for k, s in cfg.param_shapes().items()}:
        raise ValueError(f"parameter shapes {header['params']} do not match the network config")
    for name in ("adam_t", "updates"):
        if type(header[name]) is not int or header[name] < 0:
            raise ValueError(f"{name} must be a non-negative int, got {header[name]!r}")
    body = np.frombuffer(data, dtype="<f4", offset=12 + head_len)
    if body.size != 3 * cfg.n_params:
        raise ValueError(f"checkpoint holds {body.size} floats, expected 3 x {cfg.n_params}")
    theta, m, v = body.reshape(3, cfg.n_params).astype(cfg.np_dtype)
    return ActorCriticParams(cfg, theta, m, v, adam_t=header["adam_t"], updates=header["updates"])


def save_params(params: ActorCriticParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


def load_params(path) -> ActorCriticParams:
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())
