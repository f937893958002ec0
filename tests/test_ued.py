"""Training orchestration: cycle automaton, scoring, the three cycle
operations, step accounting, run-state checkpoints, and resume."""

import base64
import json
import os
from dataclasses import replace

import numpy as np
import pytest

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
    assert new_state.buffer.size == cfg.ppo.n_envs
    assert new_state.updates == 1
    assert new_state.env_steps == cfg.ppo.n_envs * cfg.ppo.rollout_steps
    assert params_to_bytes(new_state.params) != params_to_bytes(state.params)


def test_on_new_levels_robust_skips_training():
    cfg, env, state = op_setup(algorithm="plr_robust")
    new_state, entry = on_new_levels(cfg, env, state, R.key_from_seed(1))
    assert entry["trained"] is False
    assert new_state.updates == 0
    assert params_to_bytes(new_state.params) == params_to_bytes(state.params)
    assert new_state.buffer.size == cfg.ppo.n_envs  # still scored and stored


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


def test_on_mutate_levels_never_trains():
    cfg, env, state = op_setup(algorithm="accel", buffer_capacity=16)
    state, _ = on_new_levels(cfg, env, state, R.key_from_seed(1))
    state, _ = on_replay_levels(cfg, env, state, R.key_from_seed(2))
    before = params_to_bytes(state.params)
    new_state, entry = on_mutate_levels(cfg, env, state, R.key_from_seed(3))
    assert entry["cycle_type"] == "mutate" and entry["trained"] is False
    assert params_to_bytes(new_state.params) == before
    assert new_state.updates == state.updates
    assert new_state.buffer.size >= state.buffer.size


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

    bad = _with_minibatches(tmp_path / "part" / "state.json", 4, tmp_path / "bad.json")
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
        lambda payload: {**payload, "env_states": payload["env_states"][1:]},
        lambda payload: {k: v for k, v in payload.items() if k != "env_states"},
    ],
    ids=["json_list", "agent_dir_7", "timestep_500", "agent_pos_99", "agent_on_wall",
         "agent_on_goal", "level_size", "agent_dir_str", "env_count", "no_env_states"],
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
         "buffer_capacity", "last_replayed_int", "last_replayed_int_list", "node",
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
