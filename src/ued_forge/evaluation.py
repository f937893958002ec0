"""Policy evaluation on fixed level sets.

Runs E episodes per level (default 10), records undiscounted returns and
whether the goal was reached, and aggregates across levels with both the
plain mean and the interquartile mean (mean of the middle half, with
floor(n/4) values dropped from each end).

Policies are callables ``action = policy(state, observation, rng)``. The
network policy acts greedily by default (argmax logits, lowest index on
ties) or samples when asked; the oracle policy follows precomputed
shortest-path distances and is the natural skyline for solvable mazes.
"""

from __future__ import annotations

import itertools
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
    path = os.path.join(_HOLDOUT_DIR, name + ".txt")
    if not os.path.isfile(path):
        raise ValueError(f"no holdout set {name!r}; have {holdout_names()}")
    return load_levels(path)


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
    step from the provided generator.
    """

    def policy(state, obs, rng: np.random.Generator) -> int:
        image, extra = env.encode_observation(obs)
        logits, _ = forward(params, _features(image[None], extra[None], np.float32))
        if not sample:
            return int(np.argmax(logits[0]))
        probs = np.exp(log_softmax(logits.astype(np.float64))[0]).tolist()
        # Inverse CDF: a running sum in Python adds in np.cumsum's order, and
        # costs less than numpy calls on a few floats.
        cdf = list(itertools.accumulate(probs))
        u = rng.random() * cdf[-1]
        return min(sum(c <= u for c in cdf), len(cdf) - 1)

    return policy


def oracle_policy():
    """Shortest-path follower; distances are computed once per level.

    On a level whose goal is unreachable it turns in place until timeout.
    """
    cache: dict = {}

    def policy(state, obs, rng) -> int:
        key = state.level.key()
        if key not in cache:
            cache[key] = shortest_path_distances(state.level)
        if cache[key][state.agent_pos] <= 0:
            return 1  # turn right; nothing better exists here
        return greedy_oracle_action(cache[key], state.agent_pos, state.agent_dir)

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


def run_episode(env: MazeEnv, policy, level: MazeLevel, rng: np.random.Generator):
    """One episode from reset to done. Returns (undiscounted return, solved)."""
    state, obs = env.reset_to_level(level, rng)
    total = 0.0
    while True:
        action = policy(state, obs, rng)
        state, obs, reward, done = env.step(state, action, rng)
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
    if episodes < 1:
        raise ValueError("episodes must be at least 1")
    solve = np.zeros(len(levels), dtype=np.float64)
    rets = np.zeros(len(levels), dtype=np.float64)
    for i, (level, k_level) in enumerate(zip(levels, rng_mod.split(key, len(levels)))):
        for k_ep in rng_mod.split(k_level, episodes):
            ret, ok = run_episode(env, policy, level, rng_mod.generator(k_ep))
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
