"""Readers of outside bytes under random input: level text, buffer text, the
run config and run-state checkpoints. Each may fail only with its own typed
error (``LevelError``, ``BufferError``, ``UedError``), never with a bare
``ValueError``, ``TypeError``, ``AttributeError`` or ``IndexError``."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ued_forge.level_sampler import BufferError, buffer_from_text
from ued_forge.maze import LevelError, format_level, parse_level
from ued_forge.rl_core import PpoConfig
from ued_forge.ued import (UedConfig, UedError, _save_run, load_run_state, train,
                           ued_config_from_dict)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)
LEVEL_CHARS = "#.G^>v<"


def _grid(draw_chars, width, height):
    return "\n".join("".join(draw_chars[r * width:(r + 1) * width]) for r in range(height))


@st.composite
def level_texts(draw):
    """Rectangular grids of level characters (with an occasional stray one),
    so that some parse and most fail in one specific way."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    chars = draw(st.lists(st.sampled_from(LEVEL_CHARS + "x \n"), min_size=width * height,
                          max_size=width * height))
    return _grid(chars, width, height) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(level_texts(), st.text(max_size=40)))
def test_parse_level_fuzz(text):
    try:
        level = parse_level(text)
    except LevelError:
        return
    assert format_level(parse_level(format_level(level))) == format_level(level)


# One small run of each kind supplies real checkpoint text to mangle.
def _tiny(algorithm):
    ppo = PpoConfig(rollout_steps=8, n_envs=4, epochs=1, lr=1e-3)
    return UedConfig(algorithm=algorithm, width=5, height=5, max_walls=4, view_size=3,
                     max_episode_steps=10, wall_budget=3, n_edits=3, buffer_capacity=8,
                     hidden=4, total_env_steps=4 * 32, ppo=ppo)


@pytest.fixture(scope="module")
def run_states(tmp_path_factory):
    states = {}
    for algorithm in ("dr", "accel", "paired"):
        out = tmp_path_factory.mktemp(algorithm)
        train(_tiny(algorithm), seed=3, out_dir=str(out), max_cycles=3)
        states[algorithm] = json.loads((out / "state.json").read_text())
    return states


@st.composite
def mangled_lines(draw, text):
    """``text`` with one line dropped, replaced or cut short, or one
    character inserted."""
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["drop", "replace", "cut", "insert"]))
    if how == "drop":
        del lines[i]
    elif how == "replace":
        lines[i] = draw(st.one_of(st.text(max_size=12), st.sampled_from(
            ["capacity -1", "size 99", "size -1", "entry score x last_touched 0 extras 0",
             "entry score 1 last_touched 0 extras 9", "extra a", "", "G^"])))
    elif how == "cut":
        lines[i] = lines[i][:draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    else:
        j = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:j] + draw(st.characters()) + lines[i][j:]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_buffer_from_text_fuzz(run_states, data):
    text = data.draw(st.one_of(mangled_lines(run_states["accel"]["buffer"]),
                               st.text(max_size=60)))
    try:
        buffer_from_text(text)
    except BufferError:
        pass


UED_KEYS = sorted(UedConfig.__dataclass_fields__)
PPO_KEYS = sorted(PpoConfig.__dataclass_fields__) + ["minibatches"]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_ued_config_from_dict_fuzz(run_states, data):
    config = dict(run_states[data.draw(st.sampled_from(sorted(run_states)))]["config"])
    for _ in range(data.draw(st.integers(1, 3))):
        key = data.draw(st.sampled_from(UED_KEYS + ["bogus"]))
        # An earlier draw may have dropped "ppo" or made it a non-object.
        if key == "ppo" and isinstance(config.get("ppo"), dict) and data.draw(st.booleans()):
            ppo = dict(config["ppo"])
            ppo[data.draw(st.sampled_from(PPO_KEYS + ["bogus"]))] = data.draw(JSON)
            config["ppo"] = ppo
        elif data.draw(st.integers(0, 4)) == 0:
            config.pop(key, None)
        else:
            config[key] = data.draw(JSON)
    try:
        assert isinstance(ued_config_from_dict(config), UedConfig)
    except UedError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_run_state_fuzz(run_states, tmp_path_factory, data):
    payload = json.loads(json.dumps(run_states[data.draw(st.sampled_from(sorted(run_states)))]))
    target = payload
    if data.draw(st.integers(0, 3)) == 0:
        target = payload["config"]
    key = data.draw(st.sampled_from(sorted(target) + ["bogus"]))
    if data.draw(st.integers(0, 4)) == 0:
        target.pop(key, None)
    elif key == "buffer" and data.draw(st.booleans()):
        target[key] = data.draw(mangled_lines(target[key]))
    else:
        target[key] = data.draw(JSON)
    path = os.path.join(tmp_path_factory.getbasetemp(), "fuzz_state.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    try:
        config, master, state = load_run_state(path)
    except UedError:
        return
    for name in ("cycle", "env_steps", "updates"):
        assert type(getattr(state, name)) is int and getattr(state, name) >= 0
    assert type(master) is int and 0 <= master < 2 ** 128
    # What loads saves, loads again, and saves the same bytes.
    saves = []
    for _ in range(2):
        out = tmp_path_factory.mktemp("fuzz_save")
        _save_run(str(out), config, master, state)
        saves.append({f.name: f.read_bytes() for f in out.iterdir()})
        config, master, state = load_run_state(out / "state.json")
    assert saves[0] == saves[1]
