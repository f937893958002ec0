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
in row-major order, and :func:`forward` returns C-contiguous logits.

Rollouts step a batch of environments for a fixed number of steps, sampling
actions from the policy. Each environment owns an independent random stream
derived by key splitting, so a trajectory depends only on its key. One loop
serves every env: each step encodes all observations, runs one forward pass
per policy, samples every action at once by inverse CDF (one uniform per
env) and advances the env's array form (:meth:`UnderspecifiedEnv.batch`).
The rows whose episode ends, and every row of an env without an array form,
step through the env's own ``step``, so auto-resetting wrappers still pay
the terminal reward and draw the next level from that env's stream. Several
policies can share one rollout, each acting on its own group of rows (the
PAIRED students on the same levels). A rollout returns the trajectory and
the final states; only an env without an array form needs the starting
observations.
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
    """Each row of ``x`` flattened, followed by its extras, in dtype ``dt`` or into ``out``."""
    b = x.shape[0]  # explicit sizes, so that a batch of zero rows reshapes too
    return np.concatenate([x.reshape(b, math.prod(x.shape[1:])), extras], axis=1,
                          dtype=dt if out is None else None, out=out, casting="unsafe")


def _forward_cached(params: ActorCriticParams, images, extras, work=None):
    """Logits, values and the activations :func:`_backward` needs. ``work``
    (from :func:`_ppo_workspace`) holds the output arrays and the ``mlp``
    features; without it every array is new."""
    cfg = params.config
    p = params.layers
    w = work or {}
    cache = {}
    if cfg.torso == "conv":
        cols = _im2col(np.ascontiguousarray(images, dtype=cfg.np_dtype))
        cols = cols.reshape(cols.shape[0], math.prod(cols.shape[1:3]), cols.shape[-1])
        a0 = np.tanh(cols @ p["ck"].reshape(-1, cfg.conv_filters) + p["cb"])
        cache.update(cols=cols, a0=a0)
        feat = _features(a0, extras, cfg.np_dtype)
    else:
        feat = w["feat"] if "feat" in w else _features(images, extras, cfg.np_dtype)
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
    without a batch form: every row steps through ``env.step``."""

    def __init__(self, env: UnderspecifiedEnv, states, observations, cfg: NetConfig):
        if observations is None:
            raise ValueError(f"{type(env).__name__} has no batch form, so rollout "
                             "needs the starting observations")
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


def rollout(
    env: UnderspecifiedEnv,
    params: ActorCriticParams,
    states: list,
    observations: list | None,
    n_steps: int,
    key: rng_mod.Key,
):
    """Step N envs for ``n_steps``, sampling actions from the policy.

    Returns (Trajectory, final states). ``observations`` are the states'
    starting observations; they may be None when ``env`` has a batch form,
    which encodes the states itself. Each env consumes its own split of
    ``key``: one uniform per step for its action, then whatever ``env.step``
    draws. ``params`` and ``key`` may also be sequences of G policies and
    keys: the states then form G equal, contiguous groups, each acting and
    drawing exactly as a rollout of its own states would, and the result is
    (list of G trajectories, list of G final-state lists).
    """
    grouped = not isinstance(params, ActorCriticParams)
    policies, keys = (list(params), list(key)) if grouped else ([params], [key])
    if not policies or len(keys) != len(policies) or len(states) % len(policies):
        raise ValueError(f"{len(states)} states do not split into equal groups for "
                         f"{len(policies)} policies with {len(keys)} keys")
    n_groups, n_all = len(policies), len(states)
    n = n_all // n_groups
    groups = [slice(g * n, (g + 1) * n) for g in range(n_groups)]
    cfg = policies[0].config
    gens = [rng_mod.generator(k) for group_key in keys for k in rng_mod.split(group_key, n)]
    batch = env.batch(states)
    if batch is None:
        batch = _EnvRows(env, states, observations, cfg)

    # Group-major, so that each group's trajectory is a contiguous view.
    lead = (n_groups, n_steps, n)
    images = np.zeros(lead + tuple(cfg.image_shape), dtype=np.float32)
    extras = np.zeros(lead + (cfg.extra_dim,), dtype=np.float32)
    actions = np.zeros(lead, dtype=np.int64)
    log_probs = np.zeros(lead, dtype=np.float64)
    values = np.zeros(lead, dtype=np.float64)
    rewards = np.zeros(lead, dtype=np.float32)
    dones = np.zeros(lead, dtype=np.bool_)
    logits = np.zeros((n_all, cfg.n_actions), dtype=np.float64)
    rows = np.arange(n_all)
    # A row the batch stepped draws the rest of its uniforms in one call,
    # which gives the doubles of one call per step (Philox). Before the row
    # steps through ``env.step``, its generator goes back to the block's start
    # and redraws the part used, so ``env.step`` finds it where it would.
    uniforms = np.zeros((n_steps, n_all))
    block = [None] * n_all  # (first step, generator state) of a row's block
    draw_one, draw_block = list(range(n_all)), []

    for t in range(n_steps):
        img, ext = batch.encode()
        images[:, t] = img.reshape(images.shape[:1] + images.shape[2:])
        extras[:, t] = ext.reshape(extras.shape[:1] + extras.shape[2:])
        for g, rows_g in enumerate(groups):
            logits[rows_g], values[g, t] = forward(policies[g], img[rows_g], ext[rows_g])
        logp = log_softmax(logits)
        for e in draw_one:
            uniforms[t, e] = gens[e].random()
        for e in draw_block:
            block[e] = (t, gens[e].bit_generator.state)
            uniforms[t:, e] = gens[e].random(n_steps - t)
        # Inverse-CDF sampling: the action is the number of cumulative
        # probabilities at or below u times their total.
        cdf = np.cumsum(np.exp(logp), axis=1)
        a = np.minimum((cdf <= (uniforms[t] * cdf[:, -1])[:, None]).sum(axis=1),
                       logp.shape[1] - 1)
        actions[:, t] = a.reshape(n_groups, n)
        log_probs[:, t] = logp[rows, a].reshape(n_groups, n)
        # Rows the batch did not advance (episode ends, and every row of an
        # env without a batch form) step through the env itself.
        ends = batch.step(a)
        draw_block = [e for e in draw_one if not ends[e]]
        draw_one = np.flatnonzero(ends).tolist()
        for e in draw_one:
            if block[e] is not None:
                first, block_state = block[e]
                gens[e].bit_generator.state = block_state
                gens[e].random(t + 1 - first)
                block[e] = None
            res = env.step(batch.state(e), int(a[e]), gens[e])
            batch.set_state(e, res.state, res.observation)
            g, i = divmod(e, n)
            rewards[g, t, i] = res.reward
            dones[g, t, i] = res.done

    img, ext = batch.encode()
    trajs = [Trajectory(images[g], extras[g], actions[g], log_probs[g], values[g], rewards[g],
                        dones[g], np.asarray(forward(policies[g], img[rows_g], ext[rows_g])[1],
                                             dtype=np.float64))
             for g, rows_g in enumerate(groups)]
    final = [batch.state(e) for e in rows]
    if not grouped:
        return trajs[0], final
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


def _ppo_workspace(cfg: NetConfig, images, extras, acts) -> dict:
    """The arrays every epoch of one PPO update reuses: the inputs that do not
    change between epochs (the ``mlp`` features and the action one-hot), and
    one array per (B, hidden) or (B, n_actions) temporary, written in place.
    Each is stored feature-major, (features, B), and handed out as its
    (B, features) view ``.T``; the features go there straight from the inputs."""
    b, dt = len(acts), cfg.np_dtype
    work = {k: np.empty((cfg.hidden, b), dt).T for k in ("h1", "h2", "dh2")}
    for k in ("logits", "logp", "pi", "tmp_a", "dlogits"):
        work[k] = np.empty((cfg.n_actions, b), dt).T
    work["one_hot"] = np.zeros((cfg.n_actions, b), dt).T
    work["one_hot"][np.arange(b), acts] = 1.0
    if cfg.torso == "mlp":
        feat = np.empty((cfg.param_shapes()["w1"][0], b), dt).T
        work["feat"] = _features(images, extras, dt, out=feat)
    return work


def _ppo_loss_grads(params, batch, config: PpoConfig, work=None):
    """One full-batch loss evaluation: stats plus parameter gradients.
    ``work`` is the :func:`_ppo_workspace` of this batch (a new one if None)."""
    images, extras, acts, old_logp, old_values, adv, targets = batch
    dt = params.config.np_dtype
    b = images.shape[0]
    eps = config.clip
    w = work if work is not None else _ppo_workspace(params.config, images, extras, acts)

    logits, vals, cache = _forward_cached(params, images, extras, w)
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
    dt = params.config.np_dtype
    b = traj.n_steps * traj.n_envs
    img = traj.images.reshape((b,) + tuple(params.config.image_shape))
    ext = traj.extras.reshape(b, -1)
    acts = traj.actions.reshape(b)
    old_logp = traj.log_probs.reshape(b).astype(dt)
    old_values = traj.values.reshape(b).astype(dt)
    adv = normalize_advantages(np.asarray(advantages, dtype=np.float64)).reshape(b).astype(dt)
    targets = np.asarray(targets, dtype=np.float64).reshape(b).astype(dt)
    batch = (img, ext, acts, old_logp, old_values, adv, targets)
    work = _ppo_workspace(params.config, img, ext, acts)

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
