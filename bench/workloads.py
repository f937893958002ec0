"""The benchmark's four workloads, each a closed loop with one caller.

``dr``, ``accel`` and ``paired`` train at the paper configuration (13x13,
T=256, N=32, default ``PpoConfig``) through ``train`` and ``resume_run``;
``eval`` runs ``evaluate`` with a network policy and the oracle on the
packaged holdouts. See README.md in this directory for why each was chosen.

A run has three phases. The warm-up is untimed: it pays the one-time costs
(import, init, env reset, a first cycle or level) and yields one ``setup_s``
sample. The timed phase runs a fixed number of operations (training cycles,
or holdout levels evaluated), sized to take about the requested number of
seconds. The finish phase times the checkpoint write and the resume. Every
operation's outputs are checked; a failed check counts the operation as
failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import ued_forge as uf
from ued_forge.ued import student_net_config

from tracer import Tracer

WORKLOADS = ("dr", "accel", "paired", "eval")

HOLDOUTS = ("easy_9x9", "eval_13x13")
EVAL_EPISODES = 10

MIN_TIMED_OPS = 12  # op_ms.tail needs more than ten samples
# Seconds per operation on the reference machine (2 vCPUs, OpenBLAS, numpy
# 2.4), set a little above the measured ones: a dr or accel cycle takes
# 0.45-0.6 s, a paired cycle 1.1-1.3 s and an eval level 0.15-0.25 s.
NOMINAL_OP_S = {"dr": 0.6, "accel": 0.6, "paired": 0.8, "eval": 0.25}
FINISH_SAMPLES = 21  # checkpoint writes and reads, each a few milliseconds
EVAL_FINISH_SAMPLES = 51  # a student checkpoint takes well under 1 ms


@dataclass
class Checks:
    """Operations attempted and the problems of each one that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def op(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Timed:
    """What the timed phase measured."""

    op_s: list          # wall time of each timed operation
    env_steps: int      # env steps inside the timed window
    window_s: float     # wall time of the timed window


@dataclass
class Finish:
    """Best-of-n timings: a neighbour's burst inflates any single repeat of
    an operation this short, so the fastest repeat is the steady estimate."""

    checkpoint_s: float
    resume_s: float
    note: str


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------

def train_config(workload: str, tiny: bool = False) -> uf.UedConfig:
    """The paper configuration for ``workload``, or a tiny one for self-tests."""
    kw = {"algorithm": workload}
    if tiny:
        kw.update(
            width=7, height=7, max_walls=6, max_episode_steps=20, wall_budget=4,
            n_edits=3, buffer_capacity=64, hidden=8,
            ppo=uf.PpoConfig(rollout_steps=16, n_envs=4, epochs=1),
        )
    config = uf.UedConfig(**kw)
    if workload == "accel":
        # One cycle of fresh levels fills the buffer to its replay threshold,
        # so the automaton reaches its stationary mix from cycle 2 instead of
        # after a 63-cycle fill transient.
        return uf.UedConfig(**{**kw, "min_fill_ratio": config.ppo.n_envs / config.buffer_capacity})
    return config


def timed_ops(workload: str, seconds: float) -> int:
    """Operations in a timed phase of ``seconds``. The work is fixed rather
    than timed, so a seed always gives the same run, the same output files
    and the same call counts; it lasts about ``seconds`` on 2 vCPUs."""
    return max(MIN_TIMED_OPS, round(seconds / NOMINAL_OP_S[workload]))


def _entry_problems(entry: dict, config: uf.UedConfig) -> list:
    problems = []
    expected = entry["cycle"] * uf.steps_per_cycle(config)
    if entry["env_steps"] != expected:
        problems.append(f"cycle {entry['cycle']}: env_steps {entry['env_steps']} != {expected}")
    for key, value in entry.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"cycle {entry['cycle']}: {key} is {value}")
        if key.endswith("solve_rate") and not 0.0 <= value <= 1.0:
            problems.append(f"cycle {entry['cycle']}: {key} {value} outside [0, 1]")
    return problems


def _train(config, seed, out_dir, max_cycles, on_cycle=None):
    """One ``train`` call. Returns (result, callback stamps, entries)."""
    stamps, entries = [], []

    def callback(entry, params):
        stamps.append(time.perf_counter())
        entries.append(entry)
        if on_cycle is not None:
            on_cycle(entry)

    result = uf.train(config, seed, out_dir=out_dir, cycle_callback=callback,
                      max_cycles=max_cycles)
    return result, stamps, entries


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TrainingWorkload:
    """``dr``, ``accel`` or ``paired``: train, checkpoint, resume."""

    op_name = "cycle"

    def __init__(self, name, seed, workdir, checks, tiny=False):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.config = train_config(name, tiny)
        self.digests = {}
        self._runs = 0
        self._last = None  # (state.json path, TrainResult) of the last timed run

    def describe(self) -> str:
        c = self.config
        return (f"algorithm={c.algorithm} {c.width}x{c.height} T={c.ppo.rollout_steps} "
                f"N={c.ppo.n_envs} steps_per_cycle={uf.steps_per_cycle(c)} "
                f"buffer_capacity={c.buffer_capacity} min_fill_ratio={c.min_fill_ratio}")

    def _fresh_dir(self, tag: str) -> str:
        self._runs += 1
        path = os.path.join(self.workdir, f"{tag}{self._runs}")
        os.makedirs(path)
        return path

    def setup(self, t0: float) -> float:
        """Untimed warm-up: a one-cycle ``train`` call. Returns seconds from
        ``t0`` to its end."""
        _, _, entries = _train(self.config, self.seed, None, 1)
        self.checks.op(_entry_problems(entries[0], self.config))
        return time.perf_counter() - t0

    def timed(self, seconds: float, tracer: Tracer | None = None) -> Timed:
        """One ``train`` call of ``timed_ops(seconds)`` cycles plus a first,
        untimed one: the window runs from the first cycle callback to the
        last. Its output files are the run's determinism witness."""
        n_cycles = timed_ops(self.name, seconds) + 1
        out_dir = self._fresh_dir("run")
        on_cycle = None
        if tracer is not None:
            tracer.start_cycles()

            def on_cycle(entry):
                tracer.cycle_boundary(time.perf_counter())
                tracer.counters[f"ued.cycles.{entry['cycle_type']}"] += 1

        result, stamps, entries = _train(
            self.config, self.seed, out_dir, n_cycles, on_cycle
        )
        expected = n_cycles * uf.steps_per_cycle(self.config)
        for i, entry in enumerate(entries, 1):
            problems = _entry_problems(entry, self.config)
            if i == n_cycles and result.env_steps != expected:
                problems.append(f"train returned env_steps {result.env_steps} != {expected}")
            self.checks.op(problems)
        digests = {
            name: _sha256(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))
            if name != "state.json"
        }
        if self.digests and digests != self.digests:
            # The traced run repeats the untraced one; wrapping must change nothing.
            self.checks.op(["a repeated run wrote different files"])
        self.digests = digests
        self._last = (os.path.join(out_dir, "state.json"), result)
        return Timed(
            op_s=list(np.diff(stamps)),
            env_steps=entries[-1]["env_steps"] - entries[0]["env_steps"],
            window_s=stamps[-1] - stamps[0],
        )

    def finish(self) -> Finish:
        """Checkpoint and resume timings for the last timed run's checkpoint.

        A resume with ``max_cycles=0`` into ``out_dir=None`` only reads the
        checkpoint (``resume_s``). The same resume into a fresh directory
        reads it and writes it out again; the difference between the best
        times of the two is the checkpoint write (``checkpoint_s``). The
        files written must equal the run's own byte for byte. Resumes
        never go into the run's own directory: ``resume_run`` reopens
        ``metrics.jsonl`` there for writing, which truncates the run's log.
        """
        state_path, ended = self._last
        run_dir = os.path.dirname(state_path)
        rewrite_s, resume_s = [], []
        for _ in range(FINISH_SAMPLES):
            start = time.perf_counter()
            loaded = uf.resume_run(state_path, out_dir=None, max_cycles=0)
            resume_s.append(time.perf_counter() - start)
            self.checks.op(_resume_problems(loaded, ended))

            out_dir = self._fresh_dir("rewrite")
            start = time.perf_counter()
            uf.resume_run(state_path, out_dir=out_dir, max_cycles=0)
            rewrite_s.append(time.perf_counter() - start)
            problems = [
                f"rewritten {name} differs" for name in sorted(os.listdir(run_dir))
                if name != "metrics.jsonl"
                and _sha256(os.path.join(out_dir, name)) != _sha256(os.path.join(run_dir, name))
            ]
            self.checks.op(problems)
            shutil.rmtree(out_dir)
        return Finish(
            checkpoint_s=min(rewrite_s) - min(resume_s),
            resume_s=min(resume_s),
            note=f"best of {FINISH_SAMPLES}",
        )


def _resume_problems(loaded, ended) -> list:
    """The counters and state ``resume_run`` loaded against the run's end."""
    problems = []
    for name in ("env_steps", "updates"):
        if getattr(loaded, name) != getattr(ended, name):
            problems.append(f"resumed {name} {getattr(loaded, name)} != {getattr(ended, name)}")
    if not np.array_equal(loaded.params.flat(), ended.params.flat()):
        problems.append("resumed parameters differ")
    if ended.buffer is not None and (
        loaded.buffer.size != ended.buffer.size
        or not np.array_equal(loaded.buffer.scores, ended.buffer.scores)
    ):
        problems.append("resumed buffer differs")
    return problems


# ---------------------------------------------------------------------------
# Evaluation workload
# ---------------------------------------------------------------------------

def _counted(policy, steps: list):
    """``policy`` counting its calls into ``steps[0]``: one call per env step."""

    def counted(state, obs, rng):
        steps[0] += 1
        return policy(state, obs, rng)

    return counted


def _report_steps(report, episodes: int, max_steps: int) -> float:
    """Env steps implied by a report: a solved episode of t steps returns
    1 - 0.9 t / max_steps, an unsolved one lasts max_steps and returns 0."""
    solved = report.solve_rates * episodes
    solved_steps = (solved - report.mean_returns * episodes) * max_steps / 0.9
    return float(np.sum(solved_steps + (episodes - solved) * max_steps))


class EvalWorkload:
    """``eval``: a fixed untrained student and the oracle on both holdouts.

    One operation evaluates one holdout level with the sampled network
    policy and then with a fresh oracle policy (as each ``ued-forge eval``
    invocation builds one), ``EVAL_EPISODES`` episodes each. A round is
    every level of both holdouts; the timed phase runs whole rounds, so
    every run times the same mix of levels.
    """

    op_name = "level"

    def __init__(self, name, seed, workdir, checks, tiny=False):
        self.name = name
        self.checks = checks
        self.workdir = workdir
        self.episodes = 1 if tiny else EVAL_EPISODES
        per_holdout = 2 if tiny else None
        self.levels = [lv for h in HOLDOUTS for lv in uf.holdout_levels(h)[:per_holdout]]
        self.env = uf.MazeEnv()
        k_params, k_eval = uf.split(uf.key_from_seed(seed))
        self.params = uf.init_params(uf.generator(k_params), student_net_config(uf.UedConfig()))
        self.keys = [uf.fold_in(k_eval, j) for j in range(len(self.levels))]
        self.first_round = [None] * len(self.levels)
        self.digests = {}

    def describe(self) -> str:
        sizes = ", ".join(f"{h}={len(uf.holdout_levels(h))}" for h in HOLDOUTS)
        return (f"levels {sizes} (using {len(self.levels)}), episodes={self.episodes}, "
                f"max_steps={self.env.max_steps}, network_policy(sample=True) and oracle_policy()")

    def _op(self, j: int, tracer: Tracer | None = None) -> int:
        """Evaluate level ``j`` with both policies; returns env steps taken."""
        level, key = self.levels[j], self.keys[j]
        reports, problems, total = [], [], 0
        for policy in (uf.network_policy(self.params, self.env, sample=True), uf.oracle_policy()):
            if tracer is not None:
                policy = tracer.wrap("evaluation.policy", policy)
            steps = [0]
            report = uf.evaluate(self.env, _counted(policy, steps), [level],
                                 episodes=self.episodes, key=key)
            reports.append(report)
            total += steps[0]
            if not np.all((report.solve_rates >= 0.0) & (report.solve_rates <= 1.0)):
                problems.append(f"level {j}: solve rate outside [0, 1]")
            implied = _report_steps(report, self.episodes, self.env.max_steps)
            if abs(implied - steps[0]) > 0.5:
                problems.append(f"level {j}: returns imply {implied} steps, policy took {steps[0]}")
        if reports[1].solve_rate_mean != 1.0:
            problems.append(f"level {j}: oracle solve rate {reports[1].solve_rate_mean}")
        outcome = [[r.solve_rates.tolist(), r.mean_returns.tolist()] for r in reports]
        if self.first_round[j] is None:
            self.first_round[j] = outcome
        elif outcome != self.first_round[j]:
            problems.append(f"level {j}: evaluation differs from the first round")
        self.checks.op(problems)
        return total

    def setup(self, t0: float) -> float:
        """Untimed warm-up: one level."""
        self._op(0)
        return time.perf_counter() - t0

    def timed(self, seconds: float, tracer: Tracer | None = None) -> Timed:
        rounds = math.ceil(timed_ops(self.name, seconds) / len(self.levels))
        op_s, steps = [], 0
        start = time.perf_counter()
        for _ in range(rounds):
            for j in range(len(self.levels)):
                t = time.perf_counter()
                steps += self._op(j, tracer)
                op_s.append(time.perf_counter() - t)
        window = time.perf_counter() - start
        self.digests["eval_reports"] = hashlib.sha256(
            json.dumps(self.first_round).encode()
        ).hexdigest()
        return Timed(op_s=op_s, env_steps=steps, window_s=window)

    def finish(self) -> Finish:
        """Write the evaluated student with ``save_params`` and read it back
        with ``load_params``, as ``ued-forge eval --ckpt`` does."""
        path = os.path.join(self.workdir, "student.bin")
        checkpoint_s, resume_s = [], []
        for _ in range(EVAL_FINISH_SAMPLES):
            start = time.perf_counter()
            uf.save_params(self.params, path)
            checkpoint_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            loaded = uf.load_params(path)
            resume_s.append(time.perf_counter() - start)
            same = np.array_equal(loaded.flat(), self.params.flat())
            self.checks.op([] if same else ["student checkpoint does not round-trip"])
        return Finish(
            checkpoint_s=min(checkpoint_s),
            resume_s=min(resume_s),
            note=f"best of {EVAL_FINISH_SAMPLES}",
        )


def make_workload(name, seed, workdir, checks, tiny=False):
    cls = EvalWorkload if name == "eval" else TrainingWorkload
    return cls(name, seed, workdir, checks, tiny)
