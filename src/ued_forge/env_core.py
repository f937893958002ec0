"""Underspecified-environment interface and auto-resetting wrappers.

An underspecified environment has no built-in level distribution: instead of
``reset()`` it exposes ``reset_to_level(level, rng)``, leaving the choice of
levels entirely to the caller (a training algorithm, an evaluation loop, a
curriculum). ``step`` and ``reset_to_level`` are pure given an explicit RNG
state: calling them with equal inputs and generators at equal state yields
identical outputs, which is what makes batched rollouts reproducible
regardless of how they are parallelized. Both take and return states only:
an observation is ``observe(state)``, computed when a caller asks for it, as
an :class:`Observation` of (image, extras) arrays ready for a policy net.

Fixed-length rollouts need episodes to restart mid-rollout, so two wrappers
are provided:

* ``AutoReplayWrapper`` resets to the level that was just played.
* ``AutoResetWrapper`` resets to a fresh level drawn from a caller-supplied
  source.

Both follow the terminal-transition convention: when the inner episode ends,
the returned ``StepResult`` carries the *terminal* reward and ``done=True``
together with the *post-reset* state, so no terminal reward
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
    reward: float
    done: bool


class Observation(NamedTuple):
    """One state's observation: one row of a batch's ``encode()``."""

    image: np.ndarray
    extras: np.ndarray


class UnderspecifiedEnv(ABC):
    """Environment without an implicit level distribution.

    Implementations must be pure: no internal mutable state, all randomness
    drawn from the generator passed in. ``num_actions`` is the size of the
    discrete action space; levels are opaque to this interface.
    Observations come only from ``observe(state)``.
    """

    @property
    @abstractmethod
    def num_actions(self) -> int: ...

    @abstractmethod
    def reset_to_level(self, level: Any, rng: np.random.Generator) -> Any:
        """Initial state of the episode induced by ``level``."""

    @abstractmethod
    def step(self, state: Any, action: int, rng: np.random.Generator) -> StepResult:
        """(next state, reward, done) after ``action`` in ``state``."""

    @abstractmethod
    def observe(self, state: Any) -> Observation:
        """(image, extras) that a policy sees in ``state``."""

    def batch(self, states: list):
        """Array form of ``states`` for stepping them together, or None (the
        default) when the env has none. A batch holds one row per state and has:

        * ``encode() -> (images, extras)``: every row's observation;
        * ``step(actions) -> mask``: applies one action per row, except on
          the rows in the returned mask, whose episode that action ends;
          those stay as they were, for the caller to step with :meth:`step`;
        * ``state(e)`` and ``set_state(e, state)`` to read and replace row
          ``e``.

        Row ``e`` of ``encode()`` equals ``observe(state(e))``.
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
        return WrappedState(inner=self.env.reset_to_level(level, rng), level=level)

    def observe(self, state: WrappedState):
        return self.env.observe(state.inner)

    def batch(self, states):
        inner = self.env.batch([s.inner for s in states])
        return None if inner is None else _WrappedBatch(inner, [s.level for s in states])

    def _step(self, state: WrappedState, action: int, rng: np.random.Generator,
              next_level: Callable[[np.random.Generator], Any]) -> StepResult:
        """Step the inner env; when its episode ends, keep the terminal
        reward and reset to ``next_level(rng)``."""
        inner, reward, done = self.env.step(state.inner, action, rng)
        if done:
            level = next_level(rng)
            inner = self.env.reset_to_level(level, rng)
        else:
            level = state.level
        return StepResult(WrappedState(inner=inner, level=level), reward, done)


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
