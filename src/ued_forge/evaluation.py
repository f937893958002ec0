"""Policy evaluation on fixed level sets.

Runs E episodes per level (default 10), records undiscounted returns and
whether the goal was reached, and aggregates across levels with both the
plain mean and the interquartile mean (mean of the middle half, with
floor(n/4) values dropped from each end).

Policies are callables ``action = policy(state, observation, rng)``, where
the observation is ``MazeEnv.observe(state)``'s ``Observation(image,
extras)``. Episodes (:func:`run_episode`) step with ``MazeEnv.step`` and share
each level's read-only observations through a per-level memo. The network
policy acts greedily by default (argmax logits, lowest index on ties) or
samples when asked, from logits computed once per distinct observation of the
current level (exact: the net is read-only and has no memory); the oracle
follows shortest-path distances, the natural skyline.
"""

from __future__ import annotations

import bisect
import itertools
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import rng as rng_mod
from .maze import (
    MazeEnv,
    MazeLevel,
    greedy_oracle_action,
    load_levels,
    shortest_path_distances,
)
from .rl_core import ActorCriticParams, _features, forward, log_softmax

_HOLDOUT_DIR = os.path.join(os.path.dirname(__file__), "holdouts")


def holdout_names() -> list[str]:
    return sorted(
        f[:-4] for f in os.listdir(_HOLDOUT_DIR) if f.endswith(".txt")
    )


def holdout_levels(name: str) -> list[MazeLevel]:
    """Packaged evaluation set by name (see :func:`holdout_names`)."""
    names = holdout_names()
    if name not in names:
        raise ValueError(f"no holdout set {name!r}; have {names}")
    return load_levels(os.path.join(_HOLDOUT_DIR, name + ".txt"))


def interquartile_mean(values) -> float:
    """Mean of the middle 50%: drop floor(n/4) values from each sorted end."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("interquartile_mean of empty sequence")
    k = arr.size // 4
    return float(arr[k:arr.size - k].mean())


def network_policy(params: ActorCriticParams, env, sample: bool = False):
    """Policy closure over a trained network.

    Greedy argmax unless ``sample``; sampling consumes one uniform draw per
    step from the provided generator. Each distinct observation's argmax or
    CDF is memoized by its bytes (exact: ``params`` are read-only and a B = 1
    forward repeats its bits) and by object, per level: ≤ 4·H·W entries each.
    ``env`` is not read: observations arrive encoded.
    """
    level, memo, seen = None, {}, {}

    def policy(state, obs, rng: np.random.Generator) -> int:
        nonlocal level, memo, seen
        if state.level is not level:
            level, memo, seen = state.level, {}, {}
        held, out = seen.get(id(obs), (None, None))  # held keeps id(obs) unique
        if held is not obs:
            image, extra = obs
            key = image.tobytes() + extra.tobytes()
            out = memo.get(key)
            if out is None:
                logits, _ = forward(params, _features(image[None], extra[None], np.float32))
                if not sample:
                    out = memo[key] = int(np.argmax(logits[0]))
                else:  # a running sum in Python adds in np.cumsum's order
                    probs = np.exp(log_softmax(logits.astype(np.float64))[0]).tolist()
                    out = memo[key] = list(itertools.accumulate(probs))
            if len(seen) >= 4 * level.height * level.width:
                seen.clear()
            seen[id(obs)] = obs, out
        if not sample:
            return out
        return min(bisect.bisect_right(out, rng.random() * out[-1]), len(out) - 1)

    return policy


def oracle_policy():
    """Shortest-path follower over the distances of the last level seen; on a
    level whose goal is unreachable it turns in place until timeout."""
    level = dist = None

    def policy(state, obs, rng) -> int:
        nonlocal level, dist
        if state.level is not level:
            level, dist = state.level, shortest_path_distances(state.level)
        if dist[state.agent_pos] <= 0:
            return 1  # turn right; nothing better exists here
        return greedy_oracle_action(dist, state.agent_pos, state.agent_dir)

    return policy


@dataclass(frozen=True)
class EvalReport:
    n_levels: int
    n_episodes: int
    solve_rates: np.ndarray   # per level
    mean_returns: np.ndarray  # per level
    solve_rate_mean: float
    solve_rate_iqm: float
    return_mean: float
    return_iqm: float

    def summary_lines(self) -> list[str]:
        lines = [
            f"level {i:03d}  solve_rate {self.solve_rates[i]:.3f}"
            f"  mean_return {self.mean_returns[i]:.4f}"
            for i in range(self.n_levels)
        ]
        lines.append(
            f"aggregate over {self.n_levels} levels, {self.n_episodes} episodes each:"
        )
        lines.append(
            f"  solve_rate  mean {self.solve_rate_mean:.4f}  iqm {self.solve_rate_iqm:.4f}"
        )
        lines.append(
            f"  mean_return mean {self.return_mean:.4f}  iqm {self.return_iqm:.4f}"
        )
        return lines


def run_episode(env: MazeEnv, policy, level: MazeLevel, rng: np.random.Generator,
                memo: dict | None = None):
    """One episode from reset to done. Returns (undiscounted return, solved).

    ``memo`` maps (agent_pos, agent_dir) to its read-only observation on
    ``level``; pass one dict to all of a level's episodes to share them.
    """
    memo = {} if memo is None else memo
    state = env.reset_to_level(level, rng)
    total = 0.0
    while True:
        obs = memo.get((state.agent_pos, state.agent_dir))
        if obs is None:
            obs = memo[state.agent_pos, state.agent_dir] = env.observe(state)
            obs.image.setflags(write=False)  # extras is a row of a read-only table
        state, reward, done = env.step(state, policy(state, obs, rng))
        total += float(reward)
        if done:
            return total, bool(reward > 0)


def evaluate(
    env: MazeEnv,
    policy,
    levels,
    episodes: int = 10,
    key: rng_mod.Key = 0,
) -> EvalReport:
    """Episode sweep: every level gets ``episodes`` seeded runs."""
    levels = list(levels)
    if not levels:
        raise ValueError("no levels to evaluate")
    if isinstance(episodes, bool) or not isinstance(episodes, numbers.Integral):
        raise TypeError(f"episodes must be an integer, not {type(episodes).__name__}")
    if episodes < 1:
        raise ValueError("episodes must be at least 1")
    if isinstance(key, bool) or not isinstance(key, numbers.Integral):
        raise TypeError(f"key must be an integer, not {type(key).__name__}")
    if not rng_mod.is_key(int(key)):
        raise ValueError(f"key must lie in [0, 2**128), got {key}")
    solve = np.zeros(len(levels), dtype=np.float64)
    rets = np.zeros(len(levels), dtype=np.float64)
    for i, (level, k_level) in enumerate(zip(levels, rng_mod.split(key, len(levels)))):
        memo = {}  # this level's observations, shared by its episodes
        for k_ep in rng_mod.split(k_level, episodes):
            ret, ok = run_episode(env, policy, level, rng_mod.generator(k_ep), memo)
            rets[i] += ret
            solve[i] += ok
    solve /= episodes
    rets /= episodes
    return EvalReport(
        n_levels=len(levels),
        n_episodes=episodes,
        solve_rates=solve,
        mean_returns=rets,
        solve_rate_mean=float(solve.mean()),
        solve_rate_iqm=interquartile_mean(solve),
        return_mean=float(rets.mean()),
        return_iqm=interquartile_mean(rets),
    )
