"""Training orchestration: cycle automaton, scoring, the three cycle
operations, step accounting, run-state checkpoints, and resume."""

import base64
import collections
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from ued_forge import level_sampler, rl_core, ued
from ued_forge import rng as R
from ued_forge.env_core import AutoReplayWrapper
from ued_forge.level_sampler import buffer_from_text, buffer_to_text, new_buffer
from ued_forge.maze import MazeEnv, format_level, parse_level
from ued_forge.rl_core import PpoConfig, episode_returns, init_params, params_to_bytes
from ued_forge.ued import (
    NODE_A,
    NODE_B,
    OP_MUTATE,
    OP_NEW,
    OP_REPLAY,
    RunState,
    TrainResult,
    UedConfig,
    UedError,
    dry_run_env_steps,
    load_run_state,
    meta_policy_next,
    metrics_line,
    on_mutate_levels,
    on_new_levels,
    on_replay_levels,
    planned_cycles,
    resume_run,
    score_maxmc,
    score_pvl,
    steps_per_cycle,
    student_net_config,
    train,
    ued_config_from_dict,
    ued_config_to_dict,
)
from test_rl_core import traj_from_arrays

TINY_PPO = PpoConfig(rollout_steps=8, n_envs=4, epochs=1, lr=1e-3)


def tiny_config(**kw):
    base = dict(
        algorithm="dr", width=5, height=5, max_walls=4, view_size=3,
        max_episode_steps=10, wall_budget=3, n_edits=3, buffer_capacity=8,
        hidden=4, total_env_steps=8 * TINY_PPO.n_envs * TINY_PPO.rollout_steps,
        ppo=TINY_PPO,
    )
    base.update(kw)
    return UedConfig(**base)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        UedConfig(algorithm="dqn")
    with pytest.raises(ValueError):
        UedConfig(scoring="tdling")
    with pytest.raises(ValueError):
        UedConfig(replay_prob=1.2)
    with pytest.raises(ValueError):
        UedConfig(total_env_steps=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(min_fill_ratio=-0.2),
        dict(min_fill_ratio=1.5),
        dict(temperature=0.0),
        dict(staleness_coeff=1.5),
        dict(width="a"),
        dict(discounted_regret=1),
        dict(replay_prob=True),
        dict(ppo={"n_envs": 4}),
    ],
)
def test_config_rejects_bad_fields(kwargs):
    with pytest.raises((TypeError, ValueError)):
        UedConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_envs=0),
        dict(rollout_steps=0),
        dict(epochs=0),
        dict(gamma="x"),
        dict(gamma=1.5),
        dict(gae_lambda=-0.1),
        dict(lr=0.0),
        dict(clip=float("nan")),
        dict(ent_coeff=-1e-3),
        dict(n_envs=4.0),
        dict(anneal_lr="yes"),
    ],
)
def test_ppo_config_rejects_bad_fields(kwargs):
    with pytest.raises((TypeError, ValueError)):
        PpoConfig(**kwargs)


def test_config_from_dict_accepts_numbers_for_floats():
    cfg = ued_config_from_dict({"temperature": 1, "ppo": {"gamma": 1, "lr": 1}})
    assert cfg.temperature == 1 and cfg.ppo.gamma == 1


def test_resolved_probabilities():
    assert UedConfig(algorithm="plr").resolved_replay_prob == 0.5
    assert UedConfig(algorithm="plr").resolved_mutation_prob == 0.0
    assert UedConfig(algorithm="accel").resolved_replay_prob == 0.8
    assert UedConfig(algorithm="accel").resolved_mutation_prob == 1.0
    assert UedConfig(algorithm="accel", replay_prob=0.3).resolved_replay_prob == 0.3
    assert UedConfig(algorithm="dr").robust is False
    assert UedConfig(algorithm="plr").robust is False
    assert UedConfig(algorithm="plr_robust").robust is True
    assert UedConfig(algorithm="accel").robust is True


def test_config_dict_round_trip():
    cfg = tiny_config(algorithm="accel", scoring="pvl")
    again = ued_config_from_dict(ued_config_to_dict(cfg))
    assert again == cfg


def test_config_rejects_unknown_keys_by_name():
    with pytest.raises(UedError, match="unknown config key: walls"):
        ued_config_from_dict({"walls": 3})
    with pytest.raises(UedError, match=r"unknown config key: ppo\.momentum"):
        ued_config_from_dict({"ppo": {"momentum": 0.9}})


def test_config_from_dict_wraps_value_errors():
    with pytest.raises(UedError):
        ued_config_from_dict({"algorithm": "nope"})


# ---------------------------------------------------------------------------
# Cycle automaton
# ---------------------------------------------------------------------------

class ScriptedRng:
    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def test_meta_policy_from_idle_node():
    # below replay_prob: replay, move to the follow-up node
    assert meta_policy_next(NODE_A, 0.5, 1.0, ScriptedRng([0.49])) == (OP_REPLAY, NODE_B)
    assert meta_policy_next(NODE_A, 0.5, 1.0, ScriptedRng([0.51])) == (OP_NEW, NODE_A)


def test_meta_policy_from_post_replay_node():
    # u < q: mutate, back to the idle node
    assert meta_policy_next(NODE_B, 0.5, 0.3, ScriptedRng([0.29])) == (OP_MUTATE, NODE_A)
    # q <= u < q + (1-q)p: replay again, stay
    assert meta_policy_next(NODE_B, 0.5, 0.3, ScriptedRng([0.64])) == (OP_REPLAY, NODE_B)
    # otherwise: new
    assert meta_policy_next(NODE_B, 0.5, 0.3, ScriptedRng([0.66])) == (OP_NEW, NODE_A)


def test_meta_policy_mutation_always_follows_replay():
    # q = 1: from the post-replay node every draw mutates
    op, node = meta_policy_next(NODE_B, 0.8, 1.0, ScriptedRng([0.999]))
    assert (op, node) == (OP_MUTATE, NODE_A)


def test_meta_policy_single_draw_and_bad_node():
    rng = ScriptedRng([0.1])
    meta_policy_next(NODE_A, 0.5, 0.5, rng)
    assert rng.draws == []
    with pytest.raises(UedError):
        meta_policy_next("c", 0.5, 0.5, ScriptedRng([0.1]))


# ---------------------------------------------------------------------------
# Step accounting
# ---------------------------------------------------------------------------

def test_steps_per_cycle():
    cfg = tiny_config()
    assert steps_per_cycle(cfg) == 32
    assert steps_per_cycle(tiny_config(algorithm="paired")) == 64


def test_planned_cycles_rounds_up():
    assert planned_cycles(tiny_config(total_env_steps=33)) == 2
    assert planned_cycles(tiny_config(total_env_steps=32)) == 1


def test_dry_run_stops_at_budget():
    cfg = tiny_config(total_env_steps=100)
    out = dry_run_env_steps(cfg)
    assert out == {"cycles": 4, "env_steps": 128}
    fixed = dry_run_env_steps(cfg, n_cycles=10)
    assert fixed == {"cycles": 10, "env_steps": 320}


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def test_score_pvl_hand_case():
    adv = np.array([[1.0, 0.5], [-1.0, -2.0], [3.0, 0.1]])
    assert np.allclose(score_pvl(adv), [4.0 / 3.0, 0.2])


def test_score_maxmc_hand_case():
    values = np.array([[0.5, 1.0], [0.9, 0.2]])
    max_returns = np.array([0.8, 0.4])
    # col 0: mean(max(0, .3), max(0, -.1)) = .15; col 1: mean(0, .2) = .1
    assert np.allclose(score_maxmc(values, max_returns), [0.15, 0.1])


def test_episode_returns_per_env_discounting():
    rewards = np.array([[0.0, 0.3], [1.0, 0.0], [0.5, 0.0]])
    dones = np.array([[False, True], [True, False], [True, False]])
    traj = traj_from_arrays(rewards, np.zeros((3, 2)), dones, np.zeros(2))
    undisc = episode_returns(traj)
    assert undisc.returns.tolist() == [1.0, 0.5, 0.3]
    assert undisc.env_ids.tolist() == [0, 0, 1]
    disc = episode_returns(traj, 0.5)
    assert np.allclose(disc.returns, [0.5, 0.5, 0.3])
    assert disc.env_ids.tolist() == [0, 0, 1]


# ---------------------------------------------------------------------------
# Cycle operations
# ---------------------------------------------------------------------------

def op_setup(**kw):
    cfg = tiny_config(**kw)
    env = AutoReplayWrapper(MazeEnv(max_steps=cfg.max_episode_steps,
                                    view_size=cfg.view_size))
    params = init_params(R.generator(R.key_from_seed(0)), student_net_config(cfg))
    state = RunState(params=params, buffer=new_buffer(cfg.buffer_capacity))
    return cfg, env, state


def test_on_new_levels_trains_and_inserts():
    cfg, env, state = op_setup(algorithm="plr")
    new_state, entry = on_new_levels(cfg, env, state, R.key_from_seed(1))
    assert entry["cycle_type"] == "new" and entry["trained"] is True
    assert new_state.buffer.size == entry["buffer_size"] == cfg.ppo.n_envs
    assert new_state.updates == 1
    assert new_state.env_steps == cfg.ppo.n_envs * cfg.ppo.rollout_steps
    assert params_to_bytes(new_state.params) != params_to_bytes(state.params)


def test_on_new_levels_robust_skips_training():
    cfg, env, state = op_setup(algorithm="plr_robust")
    new_state, entry = on_new_levels(cfg, env, state, R.key_from_seed(1))
    assert entry["trained"] is False
    assert new_state.updates == 0
    assert params_to_bytes(new_state.params) == params_to_bytes(state.params)
    # still scored and stored
    assert new_state.buffer.size == entry["buffer_size"] == cfg.ppo.n_envs


def test_on_replay_levels_always_trains():
    cfg, env, state = op_setup(algorithm="plr_robust")
    state, _ = on_new_levels(cfg, env, state, R.key_from_seed(1))
    before = params_to_bytes(state.params)
    new_state, entry = on_replay_levels(cfg, env, state, R.key_from_seed(2))
    assert entry["cycle_type"] == "replay" and entry["trained"] is True
    assert new_state.updates == state.updates + 1
    assert params_to_bytes(new_state.params) != before
    assert new_state.last_replayed is not None
    assert len(new_state.last_replayed) == cfg.ppo.n_envs
    # replayed slots were re-touched
    assert new_state.buffer.episode_counter > state.buffer.episode_counter
    assert entry["buffer_size"] == state.buffer.size


def test_on_mutate_levels_never_trains():
    cfg, env, state = op_setup(algorithm="accel", buffer_capacity=16)
    state, _ = on_new_levels(cfg, env, state, R.key_from_seed(1))
    state, _ = on_replay_levels(cfg, env, state, R.key_from_seed(2))
    before = params_to_bytes(state.params)
    new_state, entry = on_mutate_levels(cfg, env, state, R.key_from_seed(3))
    assert entry["cycle_type"] == "mutate" and entry["trained"] is False
    assert params_to_bytes(new_state.params) == before
    assert new_state.updates == state.updates
    assert entry["buffer_size"] == new_state.buffer.size >= state.buffer.size


def test_mutation_before_any_replay_raises():
    cfg, env, state = op_setup(algorithm="accel")
    state, _ = on_new_levels(cfg, env, state, R.key_from_seed(1))
    with pytest.raises(UedError, match="before any replay"):
        on_mutate_levels(cfg, env, state, R.key_from_seed(2))


def test_maxmc_prior_max_survives_weak_replay():
    # a level whose stored best return came from a lucky episode keeps that
    # benchmark when the policy later fails on it
    cfg, env, state = op_setup(algorithm="plr", max_episode_steps=6)
    state, _ = on_new_levels(cfg, env, state, R.key_from_seed(4))
    prior = [e.get("max_return", 0.0) for e in state.buffer.extras]
    state2, _ = on_replay_levels(cfg, env, state, R.key_from_seed(5))
    for i in range(state2.buffer.size):
        got = state2.buffer.extras[i].get("max_return", 0.0)
        assert got >= prior[i] - 1e-12


# ---------------------------------------------------------------------------
# Full loops
# ---------------------------------------------------------------------------

def run_metrics(res: TrainResult):
    return [metrics_line(m) for m in res.metrics]


def test_dr_loop_accounting_matches_dry_run():
    cfg = tiny_config()
    res = train(cfg, seed=0)
    plan = dry_run_env_steps(cfg)
    assert res.env_steps == plan["env_steps"]
    assert len(res.metrics) == plan["cycles"]
    assert res.updates == plan["cycles"]  # dr trains every cycle
    assert all(m["cycle_type"] == "new" for m in res.metrics)
    assert res.buffer is None


def test_dr_lr_anneals_over_cycles():
    res = train(tiny_config(), seed=0)
    lrs = [m["lr"] for m in res.metrics]
    assert lrs[0] == pytest.approx(TINY_PPO.lr)
    assert all(b < a for a, b in zip(lrs, lrs[1:]))


def test_fill_gating_forces_initial_news():
    # capacity 8, fill ratio 0.5 -> cycle 0 must generate (buffer empty),
    # afterwards the buffer holds >= 4 and the automaton takes over
    cfg = tiny_config(algorithm="plr", replay_prob=1.0)
    res = train(cfg, seed=0)
    assert res.metrics[0]["cycle_type"] == "new"
    assert all(m["cycle_type"] == "replay" for m in res.metrics[1:])


def test_zero_fill_ratio_generates_before_replaying():
    # A fill target of 0 once let cycle 0 replay the empty buffer, which
    # raised a bare BufferError.
    cfg = tiny_config(algorithm="plr", replay_prob=1.0, min_fill_ratio=0.0)
    res = train(cfg, seed=0)
    assert res.metrics[0]["cycle_type"] == "new"
    assert all(m["cycle_type"] == "replay" for m in res.metrics[1:])


def test_accel_alternates_replay_and_mutate():
    cfg = tiny_config(algorithm="accel", replay_prob=1.0, mutation_prob=1.0)
    res = train(cfg, seed=0)
    kinds = [m["cycle_type"] for m in res.metrics]
    assert kinds[0] == "new"
    assert kinds[1:] == ["replay", "mutate"] * (len(kinds[1:]) // 2) + (
        ["replay"] if len(kinds[1:]) % 2 else [])
    # robust: only replay cycles update the policy
    assert res.updates == kinds.count("replay")


def test_replay_loop_returns_buffer_and_metrics_fields():
    res = train(tiny_config(algorithm="plr"), seed=1)
    assert res.buffer is not None and res.buffer.size > 0
    for m in res.metrics:
        for key in ("algorithm", "cycle", "env_steps", "updates",
                    "cycle_type", "buffer_size", "mean_buffer_score",
                    "n_episodes", "solve_rate"):
            assert key in m, key
        json.loads(metrics_line(m))  # serializable


def test_paired_loop_shapes():
    cfg = tiny_config(algorithm="paired", total_env_steps=4 * 64)
    res = train(cfg, seed=0)
    assert len(res.metrics) == 4
    assert res.env_steps == 4 * 64  # two students per cycle
    assert res.updates == 12  # protagonist, antagonist, adversary each cycle
    assert res.antagonist is not None and res.adversary is not None
    for m in res.metrics:
        assert m["cycle_type"] == "paired"
        assert np.isfinite(m["mean_regret"])
        for prefix in ("protagonist_", "antagonist_", "adversary_"):
            assert any(k.startswith(prefix) for k in m)


def test_metrics_are_deterministic_for_seed():
    cfg = tiny_config(algorithm="accel")
    a = run_metrics(train(cfg, seed=3))
    b = run_metrics(train(cfg, seed=3))
    assert a == b
    c = run_metrics(train(cfg, seed=4))
    assert a != c


# ---------------------------------------------------------------------------
# Run directories, run state, resume
# ---------------------------------------------------------------------------

def test_out_dir_contents(tmp_path):
    out = tmp_path / "run"
    res = train(tiny_config(algorithm="plr"), seed=0, out_dir=str(out))
    assert (out / "params.bin").is_file()
    assert (out / "buffer.txt").is_file()
    assert (out / "state.json").is_file()
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert lines == run_metrics(res)


@pytest.mark.parametrize("algorithm", ["dr", "accel", "paired"])
def test_resume_matches_uninterrupted(tmp_path, algorithm):
    steps = 6 * steps_per_cycle(tiny_config(algorithm=algorithm))
    cfg = tiny_config(algorithm=algorithm, total_env_steps=steps)
    full = train(cfg, seed=5)

    part_dir = tmp_path / "part"
    train(cfg, seed=5, out_dir=str(part_dir), max_cycles=3)
    resumed = resume_run(part_dir / "state.json")

    assert run_metrics(resumed) == run_metrics(full)[3:]
    assert params_to_bytes(resumed.params) == params_to_bytes(full.params)
    assert resumed.env_steps == full.env_steps


def test_resume_into_same_dir_continues_metrics(tmp_path):
    cfg = tiny_config(algorithm="accel", total_env_steps=5 * steps_per_cycle(tiny_config()))
    full, run = tmp_path / "full", tmp_path / "run"
    train(cfg, seed=5, out_dir=str(full))
    train(cfg, seed=5, out_dir=str(run), max_cycles=3)
    early = tmp_path / "state_cycle3.json"
    early.write_bytes((run / "state.json").read_bytes())

    resume_run(run / "state.json", out_dir=str(run))
    assert (run / "metrics.jsonl").read_bytes() == (full / "metrics.jsonl").read_bytes()
    # Lines past the checkpoint's cycle are replaced, not duplicated.
    resume_run(early, out_dir=str(run))
    assert (run / "metrics.jsonl").read_bytes() == (full / "metrics.jsonl").read_bytes()
    for name in ("params.bin", "buffer.txt", "state.json"):
        assert (run / name).read_bytes() == (full / name).read_bytes()


class Interrupt(Exception):
    pass


@pytest.mark.parametrize("algorithm", ["dr", "accel", "paired"])
def test_interrupted_run_resumes_exactly(tmp_path, algorithm):
    cfg = tiny_config(algorithm=algorithm,
                      total_env_steps=6 * steps_per_cycle(tiny_config(algorithm=algorithm)))
    full, run = tmp_path / "full", tmp_path / "run"
    train(cfg, seed=5, out_dir=str(full))

    def interrupt(entry, params):
        if entry["cycle"] == 3:
            raise Interrupt

    with pytest.raises(Interrupt):
        train(cfg, seed=5, out_dir=str(run), cycle_callback=interrupt)
    assert load_run_state(run / "state.json")["cycle"] == 3
    resume_run(run / "state.json", out_dir=str(run))
    assert sorted(os.listdir(run)) == sorted(os.listdir(full))
    for name in os.listdir(full):
        assert (run / name).read_bytes() == (full / name).read_bytes(), name


# Resume at every cycle: each algorithm (both scorings for the replay ones)
# runs RESUME_CYCLES cycles over a 6-level buffer, small enough that new and
# mutated levels start replacing buffered ones within the run. The fast pass
# (-m "not smoke") runs two cycles of each run, spread over the grid; the
# rest carry the smoke marker.
RESUME_CYCLES = 12
RESUME_RUNS = [("dr", "maxmc"), ("paired", "maxmc")] + [
    (algorithm, scoring) for algorithm in ("plr", "plr_robust", "accel")
    for scoring in ued.SCORING]
RESUME_GRID = [
    pytest.param(algorithm, scoring, cycle,
                 marks=() if cycle in (3 * i % RESUME_CYCLES, (3 * i + 7) % RESUME_CYCLES)
                 else pytest.mark.smoke)
    for i, (algorithm, scoring) in enumerate(RESUME_RUNS) for cycle in range(RESUME_CYCLES)]


def resume_config(algorithm, scoring):
    cfg = tiny_config(algorithm=algorithm, scoring=scoring, buffer_capacity=6)
    return replace(cfg, total_env_steps=RESUME_CYCLES * steps_per_cycle(cfg))


def run_files(out):
    return {name: (out / name).read_bytes() for name in os.listdir(out)}


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """``run(algorithm, scoring)``: the files of the whole run, trained once."""
    runs = {}

    def run(algorithm, scoring):
        if (algorithm, scoring) not in runs:
            out = tmp_path_factory.mktemp(f"{algorithm}-{scoring}")
            train(resume_config(algorithm, scoring), seed=7, out_dir=str(out))
            runs[algorithm, scoring] = run_files(out)
        return runs[algorithm, scoring]

    return run


@pytest.mark.parametrize("algorithm, scoring, cycle", RESUME_GRID)
def test_resume_at_every_cycle(tmp_path, uninterrupted, algorithm, scoring, cycle):
    part, rest = tmp_path / "part", tmp_path / "rest"
    train(resume_config(algorithm, scoring), seed=7, out_dir=str(part), max_cycles=cycle)
    resume_run(part / "state.json", out_dir=str(rest))
    got = run_files(rest)
    got["metrics.jsonl"] = (part / "metrics.jsonl").read_bytes() + got["metrics.jsonl"]
    full = uninterrupted(algorithm, scoring)
    assert sorted(got) == sorted(full)
    for name in full:
        assert got[name] == full[name], name


@pytest.mark.parametrize("algorithm, scoring", RESUME_RUNS[2:])
def test_resume_runs_fill_and_replace_the_buffer(uninterrupted, algorithm, scoring):
    entries = [json.loads(line) for line in
               uninterrupted(algorithm, scoring)["metrics.jsonl"].splitlines()]
    # An insert after the buffer is full must replace buffered levels.
    assert any(e["cycle_type"] != OP_REPLAY and before["buffer_size"] == 6
               for before, e in zip(entries, entries[1:]))


def counting(calls, fn):
    """``fn``, counting its calls by name in ``calls``."""
    def wrapped(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("algorithm, n_rollouts, n_gaes",
                         [("dr", 1, 1), ("plr", 1, 1), ("plr_robust", 1, 1),
                          ("accel", 1, 1), ("paired", 2, 3)])
def test_each_cycle_rolls_out_once_and_banks_its_steps(monkeypatch, algorithm,
                                                       n_rollouts, n_gaes):
    # One student rollout a cycle (paired adds its editor's), one GAE per
    # trajectory, and every metrics line carries the steps of its cycles.
    calls = collections.Counter()
    for name in ("rollout", "compute_gae"):
        monkeypatch.setattr(ued, name, counting(calls, getattr(ued, name)))
    per_cycle = []

    def callback(entry, params):
        per_cycle.append((calls["rollout"], calls["compute_gae"]))
        calls.clear()

    cfg = tiny_config(algorithm=algorithm)
    res = train(cfg, seed=3, cycle_callback=callback)
    assert per_cycle == [(n_rollouts, n_gaes)] * len(res.metrics)
    assert [m["env_steps"] for m in res.metrics] == [
        m["cycle"] * steps_per_cycle(cfg) for m in res.metrics]
    assert [m["cycle"] for m in res.metrics] == list(range(1, len(res.metrics) + 1))
    if algorithm == "accel":
        assert {m["cycle_type"] for m in res.metrics} == {OP_NEW, OP_REPLAY, OP_MUTATE}


@pytest.mark.parametrize("algorithm, n_nets, n_buffers",
                         [("dr", 1, 0), ("accel", 1, 1), ("paired", 3, 0)])
def test_save_serializes_each_network_and_the_buffer_once(tmp_path, monkeypatch, algorithm,
                                                          n_nets, n_buffers):
    run, again = tmp_path / "run", tmp_path / "again"
    train(tiny_config(algorithm=algorithm), seed=2, out_dir=str(run), max_cycles=4)
    calls = collections.Counter()
    # Patch the serializers where they are defined and where ued imports them.
    for module, name in ((rl_core, "params_to_bytes"), (ued, "params_to_bytes"),
                         (level_sampler, "buffer_to_text"), (ued, "buffer_to_text")):
        monkeypatch.setattr(module, name, counting(calls, getattr(module, name)))
    resume_run(run / "state.json", out_dir=str(again), max_cycles=0)
    monkeypatch.undo()
    assert calls == collections.Counter(params_to_bytes=n_nets, buffer_to_text=n_buffers)
    for name in os.listdir(run):
        if name != "metrics.jsonl":
            assert (again / name).read_bytes() == (run / name).read_bytes(), name


def test_failed_save_keeps_the_previous_state(tmp_path, monkeypatch):
    cfg = tiny_config(total_env_steps=5 * steps_per_cycle(tiny_config()))
    full, run = train(cfg, seed=6), tmp_path / "run"
    train(cfg, seed=6, out_dir=str(run), max_cycles=2)
    assert sorted(os.listdir(run)) == ["metrics.jsonl", "params.bin", "state.json"]
    saved = (run / "state.json").read_bytes()

    dumps = json.dumps

    def failing_dumps(obj, **kw):
        if isinstance(obj, dict) and "master_key" in obj:  # the run state only
            raise RuntimeError("serialisation failed")
        return dumps(obj, **kw)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    with pytest.raises(RuntimeError, match="serialisation"):
        resume_run(run / "state.json", out_dir=str(run), max_cycles=1)
    monkeypatch.undo()
    assert (run / "state.json").read_bytes() == saved
    resumed = resume_run(run / "state.json", out_dir=str(tmp_path / "rest"))
    assert run_metrics(resumed) == run_metrics(full)[2:]
    assert params_to_bytes(resumed.params) == params_to_bytes(full.params)


def _with_minibatches(state_path, value, dest):
    """``state_path`` rewritten with ``ppo.minibatches``, as run states were
    written while PpoConfig had that field."""
    payload = json.loads(state_path.read_text())
    payload["config"]["ppo"]["minibatches"] = value
    dest.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return dest


def test_old_run_state_with_minibatches_resumes(tmp_path):
    cfg = tiny_config(algorithm="plr", total_env_steps=5 * steps_per_cycle(tiny_config()))
    full = train(cfg, seed=4)
    train(cfg, seed=4, out_dir=str(tmp_path / "part"), max_cycles=3)
    old = _with_minibatches(tmp_path / "part" / "state.json", 1, tmp_path / "old.json")
    assert load_run_state(old)["config"] == cfg
    resumed = resume_run(old)
    assert run_metrics(resumed) == run_metrics(full)[3:]
    assert params_to_bytes(resumed.params) == params_to_bytes(full.params)

    # Only the int 1: a bool is not a number, and the field takes an int.
    for value in (4, True, 1.0):
        bad = _with_minibatches(tmp_path / "part" / "state.json", value, tmp_path / "bad.json")
        with pytest.raises(UedError, match="minibatches"):
            load_run_state(bad)


def test_load_run_state_round_trip(tmp_path):
    out = tmp_path / "run"
    cfg = tiny_config(algorithm="accel")
    res = train(cfg, seed=2, out_dir=str(out), max_cycles=4)
    state = load_run_state(out / "state.json")
    assert state["config"] == cfg
    assert params_to_bytes(state["params"]) == params_to_bytes(res.params)
    assert state["cycle"] == 4


def test_run_state_rejects_bad_file(tmp_path):
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(UedError):
        load_run_state(bad)


def test_run_state_rejects_deeply_nested_json(tmp_path):
    bad = tmp_path / "state.json"
    bad.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(UedError, match="not valid JSON"):
        load_run_state(bad)


def test_resume_rejects_deeply_nested_metrics_line(tmp_path):
    run = tmp_path / "run"
    train(tiny_config(), seed=3, out_dir=str(run), max_cycles=1)
    (run / "metrics.jsonl").write_text("[" * 100000 + "]" * 100000 + "\n")
    with pytest.raises(UedError, match="cannot extend"):
        resume_run(run / "state.json", out_dir=str(run))


def _agent_on_wall(env_state):
    rows = env_state["inner_level"].split("\n")
    r, c = next((r, c) for r, row in enumerate(rows) for c, ch in enumerate(row) if ch == ".")
    rows[r] = rows[r][:c] + "#" + rows[r][c + 1:]
    return {"inner_level": "\n".join(rows), "agent_pos": [r, c]}


def _agent_on_goal(env_state):
    rows = env_state["inner_level"].split("\n")
    return {"agent_pos": next([r, row.index("G")] for r, row in enumerate(rows) if "G" in row)}


def _first_env_state(change):
    """Payload mangler that updates the first env state with ``change(it)``."""
    def mangle(payload):
        first, *rest = payload["env_states"]
        return {**payload, "env_states": [{**first, **change(first)}, *rest]}
    return mangle


@pytest.mark.parametrize(
    "mangle",
    [
        lambda payload: [1, 2],
        _first_env_state(lambda d: {"agent_dir": 7}),
        _first_env_state(lambda d: {"timestep": 500}),
        _first_env_state(lambda d: {"agent_pos": [99, 99]}),
        _first_env_state(_agent_on_wall),
        _first_env_state(_agent_on_goal),
        _first_env_state(lambda d: {"level": "^.G\n"}),
        _first_env_state(lambda d: {"agent_dir": "up"}),
        _first_env_state(lambda d: {"level": 5}),
        _first_env_state(lambda d: {"inner_level": None}),
        lambda payload: {**payload, "env_states": payload["env_states"][1:]},
        lambda payload: {k: v for k, v in payload.items() if k != "env_states"},
    ],
    ids=["json_list", "agent_dir_7", "timestep_500", "agent_pos_99", "agent_on_wall",
         "agent_on_goal", "level_size", "agent_dir_str", "level_int", "inner_level_null",
         "env_count", "no_env_states"],
)
def test_load_run_state_rejects_bad_env_states(tmp_path, mangle):
    train(tiny_config(), seed=3, out_dir=str(tmp_path / "run"), max_cycles=1)
    payload = json.loads((tmp_path / "run" / "state.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mangle(payload)))
    with pytest.raises(UedError):
        load_run_state(bad)


@pytest.mark.parametrize("field", ["last_replayed", "buffer"])
def test_load_run_state_rejects_wrong_size_levels(tmp_path, field):
    train(tiny_config(algorithm="accel"), seed=2, out_dir=str(tmp_path / "run"), max_cycles=4)
    payload = json.loads((tmp_path / "run" / "state.json").read_text())
    assert payload["buffer"] and payload["last_replayed"]
    small = parse_level("^.G\n#..\n...\n")
    if field == "last_replayed":
        payload["last_replayed"][0] = format_level(small)
    else:
        buf = buffer_from_text(payload["buffer"])
        payload["buffer"] = buffer_to_text(replace(buf, levels=(small, *buf.levels[1:])))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(UedError, match=f"{field} level is 3x3"):
        load_run_state(bad)


def _other_net(payload):
    """``params`` replaced by the student network of a wider hidden layer."""
    cfg = ued_config_from_dict({**payload["config"], "hidden": 8})
    params = init_params(R.generator(1), student_net_config(cfg))
    return {"params": base64.b64encode(params_to_bytes(params)).decode("ascii")}


@pytest.mark.parametrize(
    "algorithm, change",
    [
        ("accel", {"params": 5}),
        ("accel", {"params": "ünïcode"}),
        ("accel", {"params": "abc"}),
        ("accel", _other_net),
        ("paired", {"antagonist": 5}),
        ("paired", {"adversary": ["x"]}),
        ("paired", lambda payload: {"adversary": payload["params"]}),
        ("accel", {"buffer": 5}),
        ("accel", lambda payload: {"buffer": buffer_to_text(
            replace(buffer_from_text(payload["buffer"]), capacity=16))}),
        ("accel", {"last_replayed": 5}),
        ("accel", {"last_replayed": [5]}),
        # A mutate cycle rolls out one env per level but books n_envs envs.
        ("accel", lambda payload: {"last_replayed": payload["last_replayed"][:1]}),
        ("accel", {"last_replayed": []}),
        ("accel", {"node": "c"}),
        ("accel", {"cycle": -4}),
        ("accel", {"cycle": "x"}),
        ("accel", {"env_steps": 1.5}),
        ("accel", {"updates": True}),
        ("accel", {"master_key": "k"}),
        ("accel", {"master_key": -1}),
        ("accel", {"master_key": 2 ** 128}),
    ],
    ids=["params_int", "params_non_ascii", "params_bad_base64", "params_other_config",
         "antagonist_int", "adversary_list", "adversary_student_net", "buffer_int",
         "buffer_capacity", "last_replayed_int", "last_replayed_int_list",
         "last_replayed_one", "last_replayed_empty", "node",
         "cycle_negative", "cycle_str", "env_steps_float", "updates_bool", "master_key_str", "master_key_negative",
         "master_key_too_wide"],
)
def test_load_run_state_rejects_bad_fields(tmp_path, algorithm, change):
    # Each of these once loaded with an untyped error, or loaded and then
    # failed (or ran on) at resume.
    train(tiny_config(algorithm=algorithm), seed=2, out_dir=str(tmp_path / "run"), max_cycles=4)
    payload = json.loads((tmp_path / "run" / "state.json").read_text())
    update = change(payload) if callable(change) else change
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**payload, **update}))
    with pytest.raises(UedError):
        load_run_state(bad)


@pytest.mark.parametrize("extras", ["extras 1\nextra max_return nan",
                                    "extras 1\nextra max_return inf",
                                    "extras 2\nextra max_return 0.5\nextra max_return 0.25",
                                    "extras -3"],
                         ids=["nan", "inf", "repeated", "negative"])
def test_resume_rejects_bad_buffer_extras(tmp_path, extras):
    # A non-finite extra once loaded and failed at the first replay with a
    # bare ValueError; a repeated one loaded as one and saved as "extras 1";
    # a negative count loaded as none and saved as "extras 0".
    train(tiny_config(algorithm="plr"), seed=2, out_dir=str(tmp_path / "run"), max_cycles=3)
    payload = json.loads((tmp_path / "run" / "state.json").read_text())
    payload["buffer"], n = re.subn(r"extras 1\nextra max_return \S+", extras,
                                   payload["buffer"], count=1)
    assert n == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(UedError, match="extra"):
        resume_run(bad, out_dir=str(tmp_path / "rest"))


@pytest.mark.parametrize("algorithm, field", [("accel", "buffer"), ("accel", "node"),
                                              ("paired", "antagonist"), ("paired", "adversary")])
def test_load_run_state_requires_algorithm_fields(tmp_path, algorithm, field):
    train(tiny_config(algorithm=algorithm), seed=2, out_dir=str(tmp_path / "run"), max_cycles=2)
    payload = json.loads((tmp_path / "run" / "state.json").read_text())
    del payload[field]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(UedError, match=f"missing field '{field}'"):
        load_run_state(bad)


def test_thread_env_var_does_not_change_results(tmp_path):
    # The package reads no UED_FORGE_THREADS; setting it must change nothing.
    cfg = tiny_config(algorithm="plr")
    old = os.environ.get("UED_FORGE_THREADS")
    try:
        os.environ["UED_FORGE_THREADS"] = "1"
        a = train(cfg, seed=6)
        os.environ["UED_FORGE_THREADS"] = "3"
        b = train(cfg, seed=6)
    finally:
        if old is None:
            os.environ.pop("UED_FORGE_THREADS", None)
        else:
            os.environ["UED_FORGE_THREADS"] = old
    assert run_metrics(a) == run_metrics(b)
    assert params_to_bytes(a.params) == params_to_bytes(b.params)
