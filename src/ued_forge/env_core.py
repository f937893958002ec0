"""Underspecified-environment interface and auto-resetting wrappers.

An underspecified environment has no built-in level distribution: instead of
``reset()`` it exposes ``reset_to_level(level, rng)``, leaving the choice of
levels entirely to the caller (a training algorithm, an evaluation loop, a
curriculum). ``step`` and ``reset_to_level`` are pure given an explicit RNG
state: calling them with equal inputs and generators at equal state yields
identical outputs, which is what makes batched rollouts reproducible
regardless of how they are parallelized. An observation is ``observe(state)``,
so a caller that keeps states needs no observations beside them.

Fixed-length rollouts need episodes to restart mid-rollout, so two wrappers
are provided:

* ``AutoReplayWrapper`` resets to the level that was just played.
* ``AutoResetWrapper`` resets to a fresh level drawn from a caller-supplied
  source.

Both follow the terminal-transition convention: when the inner episode ends,
the returned ``StepResult`` carries the *terminal* reward and ``done=True``
together with the *post-reset* state and observation, so no terminal reward
is ever lost inside a fixed-length rollout and value bootstrapping can key
off the done flag alone.

An env may also offer an array form of many states (``batch``), which
rollouts step as a whole, reading row ``e`` with ``state(e)`` and replacing
it with ``set_state(e, state)``; both wrappers pass their inner env's through.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np


class EnvError(Exception):
    """Contract violation: invalid action, malformed level, bad state."""


class StepResult(NamedTuple):
    state: Any
    observation: Any
    reward: float
    done: bool


class UnderspecifiedEnv(ABC):
    """Environment without an implicit level distribution.

    Implementations must be pure: no internal mutable state, all randomness
    drawn from the generator passed in. ``num_actions`` is the size of the
    discrete action space; levels are opaque to this interface. The
    observation ``reset_to_level`` and ``step`` return is ``observe(state)``.
    """

    @property
    @abstractmethod
    def num_actions(self) -> int: ...

    @abstractmethod
    def reset_to_level(
        self, level: Any, rng: np.random.Generator
    ) -> tuple[Any, Any]:
        """Initial (state, observation) for the episode induced by ``level``."""

    @abstractmethod
    def step(
        self, state: Any, action: int, rng: np.random.Generator
    ) -> StepResult: ...

    @abstractmethod
    def observe(self, state: Any) -> Any: ...

    def encode_observation(self, obs: Any) -> tuple[np.ndarray, np.ndarray]:
        """Split an observation into (image, extra-features) for a policy net.

        Library plumbing used by the RL layer; not part of the core contract.
        """
        raise NotImplementedError

    def batch(self, states: list):
        """Array form of ``states`` for stepping them together, or None (the
        default) when the env has none. Library plumbing like
        :meth:`encode_observation`. A batch holds one row per state and has:

        * ``encode() -> (images, extras)``: every row's encoded observation;
        * ``step(actions) -> mask``: applies one action per row, except on
          the rows in the returned mask, whose episode that action ends;
          those stay as they were, for the caller to step with :meth:`step`;
        * ``state(e)`` and ``set_state(e, state)`` to read and replace row
          ``e``.

        A batch encodes each row from its state, as :meth:`observe` does.
        Both maze envs have a batch form; for an env without one, a rollout
        steps every row through :meth:`step`.
        """
        return None


@dataclass(frozen=True)
class WrappedState:
    """State of a wrapped env: the inner state plus the level to replay."""

    inner: Any
    level: Any


class _WrappedBatch:
    """Batch form of a level-resetting wrapper: the inner env's batch plus
    each row's level."""

    def __init__(self, inner, levels: list):
        self.inner = inner
        self.levels = levels
        self.encode = inner.encode
        self.step = inner.step

    def state(self, e: int) -> WrappedState:
        return WrappedState(inner=self.inner.state(e), level=self.levels[e])

    def set_state(self, e: int, state: WrappedState) -> None:
        self.inner.set_state(e, state.inner)
        self.levels[e] = state.level


class _LevelResetWrapper(UnderspecifiedEnv):
    """What both auto-resetting wrappers share. Each defines its own ``step``
    over :meth:`_step`, because the benchmark traces each wrapper's own
    ``step``."""

    env: UnderspecifiedEnv

    @property
    def num_actions(self) -> int:
        return self.env.num_actions

    def reset_to_level(self, level, rng):
        state, obs = self.env.reset_to_level(level, rng)
        return WrappedState(inner=state, level=level), obs

    def observe(self, state: WrappedState):
        return self.env.observe(state.inner)

    def encode_observation(self, obs):
        return self.env.encode_observation(obs)

    def batch(self, states):
        inner = self.env.batch([s.inner for s in states])
        return None if inner is None else _WrappedBatch(inner, [s.level for s in states])

    def _step(self, state: WrappedState, action: int, rng: np.random.Generator,
              next_level: Callable[[np.random.Generator], Any]) -> StepResult:
        """Step the inner env; when its episode ends, keep the terminal
        reward and reset to ``next_level(rng)``."""
        inner_res = self.env.step(state.inner, action, rng)
        if not inner_res.done:
            return StepResult(
                WrappedState(inner=inner_res.state, level=state.level),
                inner_res.observation,
                inner_res.reward,
                False,
            )
        level = next_level(rng)
        fresh_state, fresh_obs = self.env.reset_to_level(level, rng)
        return StepResult(
            WrappedState(inner=fresh_state, level=level), fresh_obs, inner_res.reward, True
        )


class AutoReplayWrapper(_LevelResetWrapper):
    """On episode end, immediately reset to the previously played level."""

    def __init__(self, env: UnderspecifiedEnv):
        self.env = env

    def step(self, state: WrappedState, action: int, rng: np.random.Generator):
        return self._step(state, action, rng, lambda _: state.level)


class AutoResetWrapper(_LevelResetWrapper):
    """On episode end, reset to a fresh level drawn from ``level_source``."""

    def __init__(
        self,
        env: UnderspecifiedEnv,
        level_source: Callable[[np.random.Generator], Any],
    ):
        self.env = env
        self.level_source = level_source

    def step(self, state: WrappedState, action: int, rng: np.random.Generator):
        return self._step(state, action, rng, self.level_source)
