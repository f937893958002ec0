"""Curriculum training loops over a level-replay buffer.

Five algorithms share one chassis:

* ``dr``: domain randomization; every cycle rolls out on freshly generated
  levels and trains on them. No buffer.
* ``plr``: prioritized level replay. A two-node meta automaton decides each
  cycle between generating new levels and replaying high-regret ones from
  the buffer; both kinds of cycle train the policy.
* ``plr_robust``: same automaton, but gradient updates happen only on
  replayed levels; new levels are rolled out just to score them.
* ``accel``: robust replay plus an edit step. After a replay cycle the
  automaton can mutate the just-replayed levels, score the mutants, and
  insert them; mutation cycles never train.
* ``paired``: a level-editor adversary builds levels one edit at a time; an
  antagonist and a protagonist both train on the built levels, and the
  adversary trains on the regret signal (best antagonist return minus mean
  protagonist return) delivered on its final edit.

The meta automaton has two nodes. From node A it replays with probability
``p`` and generates otherwise; from node B it mutates with probability
``q``, else replays with probability ``p``. The node is B exactly after a
replay, so with q = 1 every replay is followed by a mutation. Until the
buffer reaches its fill threshold, cycles are forced to generate new levels
without consuming a random draw.

Levels are scored either by positive-value-loss (mean clipped GAE advantage)
or by a maximum-Monte-Carlo gap (mean of ``max(0, R_max - V(s))`` with
``R_max`` the best discounted return ever observed on that level); scores
drive the buffer's rank-based replay distribution.

Every cycle is plan, one student rollout, then learn. Each algorithm's
``plan(state, key) -> (state, job, learn)`` over a shared :class:`RunState`
picks the levels (or env states) and the policies to roll out, the ``job``.
``_run_cycle`` runs it, computes each policy's GAE and banks the cycle's
env steps, all in that one place; ``learn`` then scores, trains and stores.
One driver runs every algorithm's cycles. It draws each cycle's randomness as
``fold_in(run_key, cycle)``, so a run checkpointed mid-stream resumes on
the exact random sequence. Metrics are emitted as one JSON object per cycle
with sorted keys; identical seeds give byte-identical metrics and
checkpoints.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import rng as rng_mod
from .env_core import AutoReplayWrapper, AutoResetWrapper, WrappedState
from .level_sampler import (
    BufferError,
    LevelBuffer,
    SamplerConfig,
    buffer_from_text,
    buffer_to_text,
    insert_batch,
    new_buffer,
    sample_levels,
    update_batch,
)
from .maze import (
    LevelError,
    MazeEditorEnv,
    MazeEnv,
    MazeState,
    empty_level,
    format_level,
    generate_random_level,
    mutate_level,
    parse_level,
)
from .rl_core import (
    ActorCriticParams,
    NetConfig,
    PpoConfig,
    Trajectory,
    annealed_lr,
    check_field_types,
    compute_gae,
    episode_returns,
    init_params,
    max_episode_discounted_returns,
    params_from_bytes,
    params_to_bytes,
    ppo_update,
    rollout,
)

ALGORITHMS = ("dr", "plr", "plr_robust", "accel", "paired")
SCORING = ("pvl", "maxmc")

OP_NEW = "new"
OP_REPLAY = "replay"
OP_MUTATE = "mutate"

NODE_A = "a"
NODE_B = "b"


class UedError(Exception):
    pass


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UedConfig:
    """Everything that defines a training run except the seed."""

    algorithm: str = "dr"
    scoring: str = "maxmc"
    total_env_steps: int = 245_760_000
    width: int = 13
    height: int = 13
    max_walls: int = 25
    view_size: int = 5
    max_episode_steps: int = 250
    n_edits: int = 20
    wall_budget: int = 20
    buffer_capacity: int = 4000
    replay_prob: float | None = None    # default 0.8 for accel, 0.5 otherwise
    mutation_prob: float | None = None  # default 1.0 for accel, 0.0 otherwise
    temperature: float = 0.3
    staleness_coeff: float = 0.3
    min_fill_ratio: float = 0.5
    hidden: int = 32
    torso: str = "mlp"
    conv_filters: int = 16
    adversary_conv_filters: int = 128
    adversary_ent_coeff: float = 5e-2
    discounted_regret: bool = False
    ppo: PpoConfig = field(default_factory=PpoConfig)

    def __post_init__(self):
        check_field_types(self)
        if not isinstance(self.ppo, PpoConfig):
            raise TypeError(f"ppo must be a PpoConfig, got {self.ppo!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.scoring not in SCORING:
            raise ValueError(f"unknown scoring {self.scoring!r}")
        for name in ("total_env_steps", "buffer_capacity", "n_edits", "max_episode_steps",
                     "hidden", "conv_filters", "adversary_conv_filters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.torso not in ("mlp", "conv"):
            raise ValueError(f"unknown torso {self.torso!r}")
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be at least 1")
        if not 0 <= self.max_walls < self.width * self.height - 2:
            raise ValueError(f"max_walls must be in [0, {self.width * self.height - 2})")
        if self.view_size < 1 or self.view_size % 2 == 0:
            raise ValueError("view_size must be odd and at least 1")
        if self.wall_budget < 0:
            raise ValueError("wall_budget must be non-negative")
        for name in ("replay_prob", "mutation_prob", "min_fill_ratio", "staleness_coeff"):
            p = getattr(self, name)
            if p is not None and not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")

    @property
    def resolved_replay_prob(self) -> float:
        if self.replay_prob is not None:
            return self.replay_prob
        return 0.8 if self.algorithm == "accel" else 0.5

    @property
    def resolved_mutation_prob(self) -> float:
        if self.mutation_prob is not None:
            return self.mutation_prob
        return 1.0 if self.algorithm == "accel" else 0.0

    @property
    def robust(self) -> bool:
        """Train only on replayed levels (never on fresh or mutated ones)."""
        return self.algorithm in ("plr_robust", "accel")


def ued_config_from_dict(data: dict) -> UedConfig:
    """Build a config from plain JSON data, rejecting unknown keys.

    ``ppo.minibatches`` is accepted with its one supported value, 1, and
    dropped, so run states written while PPO had that field still load.
    """
    try:
        if not isinstance(data, dict):
            raise UedError(f"config must be an object, got {type(data).__name__}")
        kwargs = dict(data)
        ppo_data = kwargs.pop("ppo", None)
        for key in kwargs:
            if key not in UedConfig.__dataclass_fields__:
                raise UedError(f"unknown config key: {key}")
        if ppo_data is not None:
            if not isinstance(ppo_data, dict):
                raise UedError(f"config ppo must be an object, got {type(ppo_data).__name__}")
            ppo_data = dict(ppo_data)
            minibatches = ppo_data.pop("minibatches", 1)
            if type(minibatches) is not int or minibatches != 1:
                raise UedError("ppo.minibatches must be 1 (PPO runs on the full batch)")
            for key in ppo_data:
                if key not in PpoConfig.__dataclass_fields__:
                    raise UedError(f"unknown config key: ppo.{key}")
            kwargs["ppo"] = PpoConfig(**ppo_data)
        return UedConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise UedError(str(exc)) from exc


def ued_config_to_dict(config: UedConfig) -> dict:
    return asdict(config)


def _sampler_config(config: UedConfig) -> SamplerConfig:
    return SamplerConfig(
        temperature=config.temperature, staleness_coeff=config.staleness_coeff
    )


def student_net_config(config: UedConfig) -> NetConfig:
    v = config.view_size
    return NetConfig(
        image_shape=(v, v, 3),
        extra_dim=4,
        n_actions=3,
        hidden=config.hidden,
        torso=config.torso,
        conv_filters=config.conv_filters,
    )


def adversary_net_config(config: UedConfig) -> NetConfig:
    return NetConfig(
        image_shape=(config.height, config.width, 4),
        extra_dim=1,
        n_actions=config.width * config.height,
        hidden=config.hidden,
        torso=config.torso,
        conv_filters=config.adversary_conv_filters,
    )


# ---------------------------------------------------------------------------
# Meta automaton and accounting
# ---------------------------------------------------------------------------

def meta_policy_next(
    node: str, replay_prob: float, mutation_prob: float, rng: np.random.Generator
) -> tuple[str, str]:
    """One transition of the two-node cycle automaton.

    Returns (operation, next node). Consumes exactly one uniform draw. The
    next node is B exactly when the operation is a replay.
    """
    if node not in (NODE_A, NODE_B):
        raise UedError(f"unknown automaton node {node!r}")
    u = rng.random()
    if node == NODE_A:
        op = OP_REPLAY if u < replay_prob else OP_NEW
    else:
        if u < mutation_prob:
            op = OP_MUTATE
        elif u < mutation_prob + (1.0 - mutation_prob) * replay_prob:
            op = OP_REPLAY
        else:
            op = OP_NEW
    return op, (NODE_B if op == OP_REPLAY else NODE_A)


def steps_per_cycle(config: UedConfig) -> int:
    """Environment steps banked by one training cycle.

    Students step ``n_envs * rollout_steps`` per rollout; the paired setup
    runs two students per iteration and does not count editor steps.
    """
    per = config.ppo.n_envs * config.ppo.rollout_steps
    return 2 * per if config.algorithm == "paired" else per


def planned_cycles(config: UedConfig) -> int:
    return math.ceil(config.total_env_steps / steps_per_cycle(config))


def dry_run_env_steps(config: UedConfig, n_cycles: int | None = None) -> dict:
    """The cycles and env steps of a run, without touching an environment.

    With ``n_cycles`` given, that many cycles of ``steps_per_cycle`` steps,
    with no budget cap (``train`` also stops at the budget); otherwise the
    cycles ``train`` runs to reach the step budget.
    """
    cycles = planned_cycles(config) if n_cycles is None else max(n_cycles, 0)
    return {"cycles": cycles, "env_steps": cycles * steps_per_cycle(config)}


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def score_pvl(advantages: np.ndarray) -> np.ndarray:
    """Positive-value-loss: per env column, mean over steps of max(0, A_t)."""
    adv = np.asarray(advantages, dtype=np.float64)
    return np.maximum(adv, 0.0).mean(axis=0)


def score_maxmc(values: np.ndarray, max_returns: np.ndarray) -> np.ndarray:
    """Monte-Carlo gap: per env column, mean of max(0, R_max - V_t)."""
    vals = np.asarray(values, dtype=np.float64)
    gaps = np.asarray(max_returns, dtype=np.float64)[None, :] - vals
    return np.maximum(gaps, 0.0).mean(axis=0)


def _score_trajectory(
    config: UedConfig,
    traj: Trajectory,
    advantages: np.ndarray,
    prior_max: np.ndarray | None,
):
    """Scores plus per-level extras for buffer bookkeeping."""
    if config.scoring == "pvl":
        return score_pvl(advantages), [{} for _ in range(traj.n_envs)]
    best = max_episode_discounted_returns(traj, config.ppo.gamma)
    if prior_max is not None:
        best = np.maximum(best, np.asarray(prior_max, dtype=np.float64))
    scores = score_maxmc(traj.values, best)
    return scores, [{"max_return": float(b)} for b in best]


# ---------------------------------------------------------------------------
# Run state and shared cycle plumbing
# ---------------------------------------------------------------------------

@dataclass
class RunState:
    """Everything a training cycle reads and a run checkpoint stores, as
    ``load_run_state`` returns it.

    ``params`` is the evaluated policy (the protagonist under ``paired``).
    ``env_states`` is set only for ``dr``; ``buffer``, ``node`` and
    ``last_replayed`` (None before the first replay) only for the replay
    algorithms; ``antagonist`` and ``adversary`` only for ``paired``.
    """

    params: ActorCriticParams
    cycle: int = 0
    env_steps: int = 0
    updates: int = 0
    env_states: list | None = None
    buffer: LevelBuffer | None = None
    node: str | None = None
    last_replayed: tuple | None = None
    antagonist: ActorCriticParams | None = None
    adversary: ActorCriticParams | None = None


def _episode_metrics(traj: Trajectory) -> dict:
    stats = episode_returns(traj)
    n = int(stats.returns.size)
    return {
        "n_episodes": n,
        "mean_return": float(stats.returns.mean()) if n else 0.0,
        "solve_rate": float(stats.solved.mean()) if n else 0.0,
    }


def _train_metrics(stats: dict) -> dict:
    return {
        "policy_loss": float(stats["policy_loss"]),
        "value_loss": float(stats["value_loss"]),
        "entropy": float(stats["entropy"]),
        "approx_kl": float(stats["approx_kl"]),
    }


def _lr_for_cycle(config: UedConfig, cycle: int) -> float:
    return annealed_lr(config.ppo, cycle, planned_cycles(config))


def _train_student(config: UedConfig, state: RunState, traj, adv, targets):
    """One PPO update of ``state.params`` at this cycle's learning rate."""
    lr = _lr_for_cycle(config, state.cycle)
    params, stats = ppo_update(state.params, traj, adv, targets, config.ppo, lr)
    metrics = {"trained": True, "lr": lr, **_train_metrics(stats)}
    return replace(state, params=params, updates=state.updates + 1), metrics


# ---------------------------------------------------------------------------
# Cycles: plan(state, key) -> (state, job, learn), run by _run_cycle
# ---------------------------------------------------------------------------

def _run_cycle(config: UedConfig, state: RunState, job, learn):
    """Run the cycle's one student rollout, ``job = (env, policies, states,
    keys)`` with one equal group of states per policy, and bank its env
    steps. Returns ``learn(state, played, finals)``: ``played`` holds each
    group's (trajectory, GAE advantages, value targets), ``finals`` its
    final states."""
    env, policies, states, keys = job
    trajs, finals = rollout(env, policies, states, config.ppo.rollout_steps, keys)
    played = [(traj, *compute_gae(traj, config.ppo.gamma, config.ppo.gae_lambda))
              for traj in trajs]
    state = replace(state, env_steps=state.env_steps + len(states) * config.ppo.rollout_steps)
    return learn(state, played, finals)


def _level_job(env, policies: list, levels, keys: list):
    """The rollout job of ``policies`` on ``levels``: for each policy, one env
    reset per level, which draws nothing, and the second half of its key's
    split for its rollout."""
    states = [env.reset_to_level(level, None) for _ in policies for level in levels]
    return env, policies, states, [rng_mod.split(key)[1] for key in keys]


def _plan_levels(config: UedConfig, env, state: RunState, op: str, key: rng_mod.Key):
    """Plan one replay-family cycle of operation ``op`` on the student.

    ``new`` generates levels, ``replay`` samples them from the buffer and
    ``mutate`` edits the last replayed ones. ``learn`` scores the levels,
    trains on them under ``replay`` (and ``new`` unless the algorithm is
    robust), then updates the replayed slots or inserts the levels.
    """
    k_levels, k_roll = rng_mod.split(key)
    indices = None
    if op == OP_NEW:
        levels = [generate_random_level(rng_mod.generator(k), config.width, config.height,
                                        config.max_walls)
                  for k in rng_mod.split(k_levels, config.ppo.n_envs)]
    elif op == OP_REPLAY:
        buffer, indices, levels = sample_levels(
            state.buffer, _sampler_config(config), rng_mod.generator(k_levels),
            config.ppo.n_envs,
        )
        state = replace(state, buffer=buffer)
    else:
        if not state.last_replayed:
            raise UedError("mutation requested before any replay cycle")
        levels = [mutate_level(level, rng_mod.generator(k), config.n_edits)
                  for level, k in zip(state.last_replayed,
                                      rng_mod.split(k_levels, len(state.last_replayed)))]

    def learn(state: RunState, played, finals):
        [(traj, adv, targets)] = played
        prior = None
        if indices is not None and config.scoring == "maxmc":
            prior = np.array([state.buffer.extras[i].get("max_return", 0.0) for i in indices],
                             dtype=np.float64)
        scores, extras = _score_trajectory(config, traj, adv, prior_max=prior)
        entry = {"cycle_type": op, "trained": False, **_episode_metrics(traj)}
        if op == OP_REPLAY or (op == OP_NEW and not config.robust):
            state, trained = _train_student(config, state, traj, adv, targets)
            entry.update(trained)
        if indices is None:
            state = replace(state, buffer=insert_batch(state.buffer, levels, scores, extras))
        else:
            state = replace(state, buffer=update_batch(state.buffer, indices, scores, extras),
                            last_replayed=tuple(levels))
        size = state.buffer.size
        mean_score = float(state.buffer.scores[:size].mean()) if size else 0.0
        return state, {**entry, "buffer_size": size, "mean_buffer_score": mean_score}

    return state, _level_job(env, [state.params], levels, [k_roll]), learn


def on_new_levels(config: UedConfig, env, state: RunState, key: rng_mod.Key):
    """Generate, roll out, score, and insert a batch of fresh levels.

    Trains on them unless the algorithm is replay-only ("robust").
    """
    return _run_cycle(config, *_plan_levels(config, env, state, OP_NEW, key))


def on_replay_levels(config: UedConfig, env, state: RunState, key: rng_mod.Key):
    """Replay buffered levels, always train, and refresh their scores."""
    return _run_cycle(config, *_plan_levels(config, env, state, OP_REPLAY, key))


def on_mutate_levels(config: UedConfig, env, state: RunState, key: rng_mod.Key):
    """Mutate the most recently replayed levels, score, insert. Never trains."""
    return _run_cycle(config, *_plan_levels(config, env, state, OP_MUTATE, key))


def _student_maze(config: UedConfig) -> MazeEnv:
    return MazeEnv(max_steps=config.max_episode_steps, view_size=config.view_size)


def _dr_env(config: UedConfig) -> AutoResetWrapper:
    """The ``dr`` student env: a maze that resets to a fresh random level."""
    def fresh_level(gen):
        return generate_random_level(gen, config.width, config.height, config.max_walls)
    return AutoResetWrapper(_student_maze(config), fresh_level)


def _dr_plan(config: UedConfig):
    """Roll out on the persistent env batch, train, and keep its final states."""
    env = _dr_env(config)

    def learn(state: RunState, played, finals):
        [(traj, adv, targets)] = played
        state, trained = _train_student(config, state, traj, adv, targets)
        entry = {"cycle_type": OP_NEW, **trained, **_episode_metrics(traj)}
        return replace(state, env_states=finals[0]), entry

    def plan(state: RunState, key: rng_mod.Key):
        return state, (env, [state.params], state.env_states, [key]), learn

    return plan


def _replay_plan(config: UedConfig):
    """The automaton picks each cycle's operation; ``_plan_levels`` plans it."""
    env = AutoReplayWrapper(_student_maze(config))
    p = config.resolved_replay_prob
    q = config.resolved_mutation_prob
    # At least one level even at min_fill_ratio 0: an empty buffer cannot be replayed.
    fill_target = max(config.min_fill_ratio * config.buffer_capacity, 1)

    def plan(state: RunState, key: rng_mod.Key):
        k_decide, k_op = rng_mod.split(key)
        if state.buffer.size < fill_target:
            # Below the fill threshold every cycle generates; the
            # automaton draw is not consumed.
            op, node = OP_NEW, NODE_A
        else:
            op, node = meta_policy_next(state.node, p, q, rng_mod.generator(k_decide))
        return _plan_levels(config, env, replace(state, node=node), op, k_op)

    return plan


def _regret(pro_traj: Trajectory, ant_traj: Trajectory, gamma: float | None):
    """Per env: best antagonist return minus mean protagonist return, each 0
    for an env without a completed episode."""
    pro = episode_returns(pro_traj, gamma)
    counts = np.bincount(pro.env_ids, minlength=pro_traj.n_envs)
    pro_mean = np.array(
        [float(np.mean(r)) if r.size else 0.0
         for r in np.split(pro.returns, np.cumsum(counts)[:-1])],
        dtype=np.float64,
    )
    return max_episode_discounted_returns(ant_traj, gamma) - pro_mean


def _paired_plan(config: UedConfig):
    """The adversary builds the levels; both students play them in one
    rollout, and all three networks learn from it."""
    student_env = AutoReplayWrapper(_student_maze(config))
    editor_env = MazeEditorEnv(
        width=config.width, height=config.height, wall_budget=config.wall_budget
    )
    adv_ppo = replace(config.ppo, ent_coeff=config.adversary_ent_coeff)
    n = config.ppo.n_envs
    canvas = empty_level(config.width, config.height)
    regret_gamma = config.ppo.gamma if config.discounted_regret else None

    def plan(state: RunState, key: rng_mod.Key):
        k_ed, k_pro_roll, k_ant_roll = rng_mod.split(key, 3)

        # Adversary builds one level per env, one edit per step.
        ed_states = [editor_env.reset_to_level(canvas, None) for _ in range(n)]
        [ed_traj], [ed_states] = rollout(
            editor_env, [state.adversary], ed_states, editor_env.episode_steps, [k_ed]
        )
        levels = [s.level for s in ed_states]

        def learn(state: RunState, played, finals):
            (pro_traj, pro_adv, pro_tgt), (ant_traj, ant_adv, ant_tgt) = played
            lr = _lr_for_cycle(config, state.cycle)
            regret = _regret(pro_traj, ant_traj, regret_gamma)
            protagonist, pro_stats = ppo_update(state.params, pro_traj, pro_adv, pro_tgt,
                                                config.ppo, lr)
            antagonist, ant_stats = ppo_update(state.antagonist, ant_traj, ant_adv, ant_tgt,
                                               config.ppo, lr)

            # Regret lands as the reward on the adversary's final edit.
            ed_rewards = ed_traj.rewards.copy()
            ed_rewards[-1, :] = regret.astype(np.float32)
            regret_traj = replace(ed_traj, rewards=ed_rewards)
            ed_adv, ed_tgt = compute_gae(regret_traj, adv_ppo.gamma, adv_ppo.gae_lambda)
            adversary, adv_stats = ppo_update(state.adversary, regret_traj, ed_adv, ed_tgt,
                                              adv_ppo, lr)

            entry = {"cycle_type": "paired", "trained": True, "lr": lr,
                     "mean_regret": float(regret.mean())}
            for name, stats in (("protagonist", pro_stats), ("antagonist", ant_stats),
                                ("adversary", adv_stats)):
                entry.update({f"{name}_{k}": v for k, v in _train_metrics(stats).items()})
            entry.update(_episode_metrics(pro_traj))
            entry.update({f"antagonist_{k}": v for k, v in _episode_metrics(ant_traj).items()})
            state = replace(state, params=protagonist, antagonist=antagonist,
                            adversary=adversary, updates=state.updates + 3)
            return state, entry

        job = _level_job(student_env, [state.params, state.antagonist], levels,
                         [k_pro_roll, k_ant_roll])
        return state, job, learn

    return plan


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def metrics_line(entry: dict) -> str:
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


@dataclass
class TrainResult(RunState):
    """The state a run ended in, plus the metrics lines of this call."""

    metrics: list = field(default_factory=list)


def _run_networks(config: UedConfig) -> dict:
    """The networks a run holds: ``RunState`` field name to net config, in
    master-key order. Each is saved as ``<name>.bin``."""
    nets = {"params": student_net_config(config)}
    if config.algorithm == "paired":
        nets.update(antagonist=nets["params"], adversary=adversary_net_config(config))
    return nets


def _master_keys(config: UedConfig, master: rng_mod.Key) -> list:
    """The run's top-level keys: one per network, the ``dr`` env key, ``k_run``."""
    return rng_mod.split(master, len(_run_networks(config)) + (config.algorithm == "dr") + 1)


def init_run_state(config: UedConfig, master: rng_mod.Key) -> RunState:
    """The state before cycle 0: fresh networks, plus the ``dr`` env batch
    or an empty replay buffer."""
    nets = _run_networks(config)
    keys = _master_keys(config, master)
    state = RunState(**{name: init_params(rng_mod.generator(k), net_config)
                        for (name, net_config), k in zip(nets.items(), keys)})
    if config.algorithm == "dr":
        env = _dr_env(config)
        env_states = []
        for k in rng_mod.split(keys[len(nets)], config.ppo.n_envs):
            gen = rng_mod.generator(k)
            env_states.append(env.reset_to_level(env.level_source(gen), gen))
        return replace(state, env_states=env_states)
    if config.algorithm == "paired":
        return state
    return replace(state, buffer=new_buffer(config.buffer_capacity), node=NODE_A)


def _open_metrics(out_dir: str | None, cycle: int):
    """``metrics.jsonl`` in ``out_dir``, keeping the lines of cycles up to
    ``cycle`` (where a resumed run starts), each with its newline, and open
    to append after them."""
    if out_dir is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "metrics.jsonl")
    kept = []
    if cycle and os.path.exists(path):
        with open(path, "rb") as fh:
            for line in fh:
                try:
                    text = line.decode("utf-8")
                    if json.loads(text)["cycle"] <= cycle:
                        kept.append(text.rstrip("\r\n") + "\n")
                except (KeyError, TypeError, ValueError, RecursionError) as exc:
                    # A last line cut mid-write (no newline, no JSON) is past every checkpoint.
                    if line.endswith(b"\n") or isinstance(exc, (KeyError, TypeError)):
                        raise UedError(f"cannot extend {path}: {exc}") from exc
    fh = open(path, "w", encoding="utf-8", newline="\n")
    fh.writelines(kept)
    return fh


def _drive(config: UedConfig, master: rng_mod.Key, state: RunState, out_dir,
           cycle_callback, max_cycles) -> TrainResult:
    """Run cycles until the step budget is reached, or until ``max_cycles``
    cycles of this call if that comes first. With ``out_dir``, checkpoint
    the last completed cycle, also when a cycle or ``cycle_callback`` raises."""
    k_run = _master_keys(config, master)[-1]
    plan = {"dr": _dr_plan, "paired": _paired_plan}.get(config.algorithm, _replay_plan)(config)
    log = _open_metrics(out_dir, state.cycle)
    metrics_log = []
    try:
        while state.env_steps < config.total_env_steps and (
            max_cycles is None or len(metrics_log) < max_cycles
        ):
            done, entry = _run_cycle(config, *plan(state, rng_mod.fold_in(k_run, state.cycle)))
            done = replace(done, cycle=state.cycle + 1)
            entry = {
                "algorithm": config.algorithm,
                "cycle": done.cycle,
                "env_steps": done.env_steps,
                "updates": done.updates,
                **entry,
            }
            metrics_log.append(entry)
            if log is not None:
                log.write(metrics_line(entry) + "\n")
                log.flush()
            # Advance after the line is written: a resume drops lines past its cycle.
            state = done
            if cycle_callback is not None:
                cycle_callback(entry, state.params)
    finally:
        if log is not None:
            log.close()
        if out_dir is not None:
            _save_run(out_dir, config, master, state)
    return TrainResult(**vars(state), metrics=metrics_log)


def train(
    config: UedConfig,
    seed: int,
    out_dir: str | None = None,
    cycle_callback: Callable | None = None,
    max_cycles: int | None = None,
) -> TrainResult:
    """Run the configured algorithm from scratch.

    Stops at the step budget, or after ``max_cycles`` cycles of this call if
    that comes first (the budget stays in the config, so a saved run state
    resumes toward the same target).
    """
    master = rng_mod.key_from_seed(seed)
    return _drive(config, master, init_run_state(config, master), out_dir,
                  cycle_callback, max_cycles)


# ---------------------------------------------------------------------------
# Run-state checkpoints (exact resume)
# ---------------------------------------------------------------------------

_STATE_VERSION = 1
_COUNTERS = ("cycle", "env_steps", "updates")  # the RunState ints a run state stores


def _unb64(text: str, net_config: NetConfig, name: str) -> ActorCriticParams:
    """The network ``name`` of a run state, which must have ``net_config``."""
    try:
        params = params_from_bytes(base64.b64decode(text.encode("ascii")))
    except (AttributeError, ValueError) as exc:  # not text, not ASCII, not base64, bad bytes
        raise UedError(f"bad {name} network: {exc}") from exc
    if params.config != net_config:
        raise UedError(f"{name} network config {params.config} does not match the run config")
    return params


def _maze_state_to_dict(ws: WrappedState) -> dict:
    inner: MazeState = ws.inner
    return {
        "level": format_level(ws.level),
        "inner_level": format_level(inner.level),
        "agent_pos": list(inner.agent_pos),
        "agent_dir": inner.agent_dir,
        "timestep": inner.timestep,
    }


def _check_level_sizes(levels, config: UedConfig, what: str) -> None:
    for lv in levels:
        if (lv.width, lv.height) != (config.width, config.height):
            raise UedError(f"{what} level is {lv.width}x{lv.height}, "
                           f"config is {config.width}x{config.height}")


def _maze_state_from_dict(d: dict, config: UedConfig) -> WrappedState:
    """One ``dr`` env state, checked against ``config``: both levels have its
    size, and the agent stands on a floor cell other than the goal, facing
    0..3, before the time limit."""
    level, inner_level = parse_level(d["level"]), parse_level(d["inner_level"])
    _check_level_sizes((level, inner_level), config, "env state")
    pos, direction, t = d["agent_pos"], d["agent_dir"], d["timestep"]
    if not (isinstance(pos, list) and len(pos) == 2 and all(
            isinstance(v, int) and not isinstance(v, bool) for v in (*pos, direction, t))):
        raise UedError(f"env state needs integer agent_pos, agent_dir, timestep: {d!r}")
    if not 0 <= t < config.max_episode_steps:
        raise UedError(f"env state timestep {t} outside [0, {config.max_episode_steps})")
    pos = tuple(pos)
    # Raises LevelError unless the agent where the state puts it makes a valid level.
    replace(inner_level, agent_pos=pos, agent_dir=direction)
    return WrappedState(inner=MazeState(inner_level, pos, direction, t), level=level)


def _save_run(out_dir: str, config: UedConfig, master: rng_mod.Key, state: RunState):
    """Write ``state.json``, which alone resumes the run, and each network
    (``<name>.bin``) and the buffer (``buffer.txt``) that the state holds as
    a file of its own. Each is serialized once, for both places."""
    payload = {"version": _STATE_VERSION, "config": ued_config_to_dict(config),
               "master_key": master, **{name: getattr(state, name) for name in _COUNTERS}}
    files = {}
    for name in _run_networks(config):
        files[f"{name}.bin"] = params_to_bytes(getattr(state, name))
        payload[name] = base64.b64encode(files[f"{name}.bin"]).decode("ascii")
    if state.env_states is not None:
        payload["env_states"] = [_maze_state_to_dict(s) for s in state.env_states]
    if state.buffer is not None:
        payload["buffer"] = buffer_to_text(state.buffer)
        files["buffer.txt"] = payload["buffer"].encode("utf-8")
        payload["node"] = state.node
        payload["last_replayed"] = (
            None if state.last_replayed is None
            else [format_level(lv) for lv in state.last_replayed]
        )
    files["state.json"] = (json.dumps(payload, sort_keys=True, separators=(",", ":"))
                           + "\n").encode("ascii")
    # Each file is replaced whole, state.json last: a failed save leaves the last state.
    for file_name, data in files.items():
        path = os.path.join(out_dir, file_name)
        with open(path + ".tmp", "wb") as fh:
            fh.write(data)
        os.replace(path + ".tmp", path)


def load_run_state(path) -> tuple[UedConfig, rng_mod.Key, RunState]:
    """The config, master key and ``RunState`` of a run-state checkpoint,
    each field checked as it is decoded."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise UedError(f"run state is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UedError("run state must be a JSON object")
    if payload.get("version") != _STATE_VERSION:
        raise UedError(f"unsupported run state version {payload.get('version')}")

    def get(name):
        if name not in payload:
            raise UedError(f"run state missing field {name!r}")
        return payload[name]

    config, master = ued_config_from_dict(get("config")), get("master_key")
    if not rng_mod.is_key(master):
        raise UedError(f"master_key must be an int in [0, 2**128), got {master!r}")
    counts = {name: get(name) for name in _COUNTERS}
    for name, value in counts.items():
        if type(value) is not int or value < 0:
            raise UedError(f"{name} must be a non-negative int, got {value!r}")
    nets = _run_networks(config)
    state = RunState(**counts, **{name: _unb64(get(name), net, name) for name, net in nets.items()})
    if state.env_steps != state.cycle * steps_per_cycle(config):
        raise UedError(f"env_steps {state.env_steps} != cycle * {steps_per_cycle(config)}")
    if state.updates != sum(getattr(state, name).updates for name in nets):
        raise UedError(f"updates {state.updates} is not the sum of its networks' updates")
    if config.algorithm == "dr":
        try:
            state.env_states = [_maze_state_from_dict(d, config) for d in get("env_states")]
        except (AttributeError, KeyError, TypeError, LevelError) as exc:
            raise UedError(f"bad env state: {exc}") from exc
        if len(state.env_states) != config.ppo.n_envs:
            raise UedError(f"run state has {len(state.env_states)} env states, "
                           f"config has n_envs {config.ppo.n_envs}")
    elif config.algorithm != "paired":
        state.node = get("node")
        if state.node not in (NODE_A, NODE_B):
            raise UedError(f"unknown automaton node {state.node!r}")
        try:
            state.buffer = buffer_from_text(get("buffer"))
            last = get("last_replayed")
            state.last_replayed = None if last is None else tuple(map(parse_level, last))
        except (AttributeError, TypeError, BufferError, LevelError) as exc:
            raise UedError(f"bad buffer or last_replayed levels: {exc}") from exc
        if state.buffer.capacity != config.buffer_capacity:
            raise UedError(f"buffer capacity {state.buffer.capacity} does not match "
                           f"config buffer_capacity {config.buffer_capacity}")
        _check_level_sizes(state.buffer.levels, config, "buffer")
        if state.last_replayed is not None and len(state.last_replayed) != config.ppo.n_envs:
            raise UedError(f"run state has {len(state.last_replayed)} last_replayed levels, "
                           f"config has n_envs {config.ppo.n_envs}")
        _check_level_sizes(state.last_replayed or (), config, "last_replayed")
    return config, master, state


def resume_run(state_path, out_dir=None, cycle_callback=None,
               max_cycles=None) -> TrainResult:
    """Continue a saved run toward its original step budget.

    Every per-cycle key is folded from the stored master key and cycle
    index, so the continuation reproduces an uninterrupted run exactly.
    Resuming into the run's own directory keeps the metrics lines up to the
    checkpoint's cycle and appends after them.
    """
    return _drive(*load_run_state(state_path), out_dir, cycle_callback, max_cycles)
