"""Span tracer for the benchmark's traced run.

The package itself carries no instrumentation, so the traced run wraps the
public functions and methods of each layer from the outside, for the length
of the traced run only. A function imported with ``from ... import`` lives
on in the importing module's namespace, so a wrapper replaces every module
attribute of the package that holds the original object; that is where a
caller looks the name up at call time. Methods are replaced on their class.

Each span records calls, wall time and self time (wall time minus the time
covered by spans it encloses). Spans nest through one stack: the package
steps environments on one thread.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import Counter
from contextlib import contextmanager

import ued_forge

# Every traced entry point, as <module>.<qualified name>; the module names
# the layer.
SPANS = (
    "maze.MazeEnv.step",
    "maze.MazeEnv.observe",
    "maze.MazeEnv.reset_to_level",
    "maze.generate_random_level",
    "maze.mutate_level",
    "maze.MazeEditorEnv.step",
    "maze.shortest_path_distances",
    "maze.greedy_oracle_action",
    "env_core.AutoResetWrapper.step",
    "env_core.AutoReplayWrapper.step",
    "rl_core.rollout",
    "rl_core.forward",
    "rl_core.ppo_update",
    "rl_core.compute_gae",
    "rl_core.episode_returns",
    "rl_core.max_episode_discounted_returns",
    "rl_core.params_to_bytes",
    "rl_core.params_from_bytes",
    "level_sampler.insert_batch",
    "level_sampler.sample_levels",
    "level_sampler.update_batch",
    "level_sampler.buffer_to_text",
    "level_sampler.buffer_from_text",
    "ued.score_maxmc",
    "ued.score_pvl",
    "ued.load_run_state",
    "evaluation.evaluate",
    "evaluation.run_episode",
    "rng.generator",
    "rng.split",
)

# Spans the package does not expose as one callable: the training cycle
# (time between two cycle callbacks) and the evaluation policy closure.
CYCLE = "ued.cycle"
POLICY = "evaluation.policy"


def span_names() -> list[str]:
    return list(SPANS) + [CYCLE, POLICY]


def _package_modules():
    mods = [ued_forge]
    for info in pkgutil.iter_modules(ued_forge.__path__):
        mods.append(importlib.import_module(f"ued_forge.{info.name}"))
    return mods


class Tracer:
    """Spans and counters, kept in memory until the run reports them."""

    def __init__(self):
        self.spans: dict[str, list] = {name: [0, 0.0, 0.0] for name in span_names()}
        self.counters: Counter = Counter()
        self.top_level_s = 0.0  # wall time of spans not enclosed by another
        self._stack: list[float] = []  # child time of each open span
        self._last_cycle = None

    def wrap(self, name: str, fn, note=None):
        """``fn`` with its calls recorded as span ``name``; ``note(args,
        result)`` runs after the span closes, to update counters."""
        stats = self.spans[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level_s += elapsed
            if note is not None:
                note(args, result)
            return result

        return traced

    # -- training cycles ---------------------------------------------------

    def start_cycles(self) -> None:
        """Forget the previous cycle boundary (a new train call begins)."""
        self._last_cycle = None

    def cycle_boundary(self, now: float) -> None:
        """Close the cycle that ended at ``now``. Its self time is the part
        of the cycle no other span covers: the training loop's own cost."""
        if self._last_cycle is not None:
            then, top_then = self._last_cycle
            stats = self.spans[CYCLE]
            elapsed = now - then
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += elapsed - (self.top_level_s - top_then)
        self._last_cycle = (now, self.top_level_s)

    # -- installation ------------------------------------------------------

    def _notes(self):
        c = self.counters

        def auto_reset(args, result):
            c["env_core.auto_resets"] += bool(result.done)

        def forward_rows(args, result):
            c["rl_core.forward.rows"] += len(args[1])

        def inserted(args, result):
            before, offered = args[0], args[1]
            kept = len(result.levels) - len(before.levels)
            kept += sum(a is not b for a, b in zip(before.levels, result.levels))
            c["level_sampler.insert_batch.offered"] += len(offered)
            c["level_sampler.insert_batch.kept"] += kept

        def text_out(args, result):
            c["level_sampler.buffer_to_text.bytes"] += len(result.encode())

        def text_in(args, result):
            c["level_sampler.buffer_from_text.bytes"] += len(args[0].encode())

        return {
            "env_core.AutoResetWrapper.step": auto_reset,
            "env_core.AutoReplayWrapper.step": auto_reset,
            "rl_core.forward": forward_rows,
            "level_sampler.insert_batch": inserted,
            "level_sampler.buffer_to_text": text_out,
            "level_sampler.buffer_from_text": text_in,
        }

    @contextmanager
    def installed(self):
        """Wrap every entry point in :data:`SPANS`; restore them on exit."""
        modules = _package_modules()
        notes = self._notes()
        undo = []
        try:
            for name in SPANS:
                mod_name, qualname = name.split(".", 1)
                module = importlib.import_module(f"ued_forge.{mod_name}")
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    undo.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(name, original, notes.get(name)))
                    continue
                original = getattr(module, qualname)
                traced = self.wrap(name, original, notes.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, attr, original))
                            setattr(mod, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
