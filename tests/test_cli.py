"""Command-line interface: argument handling, exit codes, output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ued_forge import rng as R
from ued_forge.cli import main
from ued_forge.maze import load_levels, parse_level, save_levels
from ued_forge.rl_core import init_params, params_to_bytes
from ued_forge.ued import adversary_net_config, ued_config_from_dict

TINY = {
    "algorithm": "dr",
    "width": 5,
    "height": 5,
    "max_walls": 3,
    "view_size": 3,
    "max_episode_steps": 8,
    "hidden": 4,
    "total_env_steps": 64,
    "ppo": {"rollout_steps": 8, "n_envs": 4, "epochs": 1},
}


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def write_level_file(tmp_path, name="levels.txt"):
    levels = [
        parse_level("G....\n.....\n.....\n.....\n^....\n"),
        parse_level(".#G..\n.#.#.\n.#.#.\n.#.#.\n>..#.\n"),
    ]
    path = tmp_path / name
    save_levels(levels, path)
    return str(path), levels


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_run_directory(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    assert (out / "metrics.jsonl").is_file()
    assert (out / "params.bin").is_file()
    assert (out / "state.json").is_file()
    assert "done:" in capsys.readouterr().out


def test_train_streams_metrics_without_out(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    assert main(["train", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    body = [json.loads(l) for l in lines if l.startswith("{")]
    assert len(body) == 2  # 64 steps / 32 per cycle
    assert body[0]["cycle"] == 1


def test_train_out_over_a_file_is_one_error_line(tmp_path, capsys):
    # An --out that names a file once ended in a FileExistsError traceback.
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write run files:")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_train_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(TINY, wals=3))
    assert main(["train", "--config", cfg]) == 2
    assert "unknown config key: wals" in capsys.readouterr().err


def test_train_unknown_ppo_key_is_config_error(tmp_path, capsys):
    bad = dict(TINY)
    bad["ppo"] = dict(TINY["ppo"], lr_decay=0.5)
    cfg = write_config(tmp_path, bad)
    assert main(["train", "--config", cfg]) == 2
    assert "ppo.lr_decay" in capsys.readouterr().err


def test_train_bad_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{algorithm: dr")
    assert main(["train", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_train_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"algorithm": "\xff"}')
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid JSON")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_train_deeply_nested_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["train", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_train_missing_config_file(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "none.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("as_pairs", ["config", "ppo"])
def test_train_config_of_pairs_is_config_error(tmp_path, capsys, as_pairs):
    # A JSON array of [key, value] pairs is not a config object.
    if as_pairs == "config":
        pairs = list(TINY.items())
    else:
        pairs = dict(TINY, ppo=list(TINY["ppo"].items()))
    out = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, pairs), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be an object" in err and err.count("\n") == 1
    assert not out.exists()


def test_train_invalid_value_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(TINY, algorithm="sgd"))
    assert main(["train", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "change",
    [{"width": "a"}, {"ppo": {"n_envs": 0}}, {"ppo": {"gamma": "x"}},
     {"width": 0}, {"view_size": 4}, {"max_walls": -3}, {"max_episode_steps": 0},
     {"algorithm": "paired", "wall_budget": -1},
     {"hidden": -2}, {"hidden": 0}, {"torso": "xyz"}, {"torso": "conv", "conv_filters": 0},
     {"algorithm": "paired", "torso": "conv", "adversary_conv_filters": -1}],
)
def test_train_bad_field_fails_before_training(tmp_path, capsys, change):
    bad = dict(TINY)
    for key, value in change.items():
        bad[key] = dict(TINY[key], **value) if key == "ppo" else value
    assert main(["train", "--config", write_config(tmp_path, bad),
                 "--out", str(tmp_path / "run")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


OUT_OF_RANGE_SEEDS = [str(1 << 128), str(1 << 127), str(-(1 << 127) - 1)]


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
def test_train_rejects_seed_out_of_range(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, TINY)
    assert main(["train", "--config", cfg, "--seed", seed, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: --seed")
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_oracle(tmp_path, capsys):
    path, levels = write_level_file(tmp_path)
    assert main(["eval", "--ckpt", "oracle", "--levels", path,
                 "--episodes", "2"]) == 0
    out = capsys.readouterr().out
    assert f"aggregate over {len(levels)} levels" in out
    assert "solve_rate  mean 1.0000" in out


def test_eval_trained_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    path, _ = write_level_file(tmp_path)
    rc = main(["eval", "--ckpt", str(out / "params.bin"), "--levels", path,
               "--episodes", "1", "--sample", "--seed", "3"])
    assert rc == 0
    assert "aggregate" in capsys.readouterr().out


def test_eval_bad_checkpoint(tmp_path, capsys):
    # Garbage bytes, and a well-formed network that is not a maze student:
    # the PAIRED adversary of the TINY run.
    adversary = init_params(R.generator(0), adversary_net_config(ued_config_from_dict(TINY)))
    path, _ = write_level_file(tmp_path)
    for data, message in ((b"not a checkpoint", "cannot load checkpoint"),
                          (params_to_bytes(adversary), "not a maze student network")):
        bad = tmp_path / "params.bin"
        bad.write_bytes(data)
        assert main(["eval", "--ckpt", str(bad), "--levels", path]) == 1
        assert message in capsys.readouterr().err


def test_eval_missing_levels(tmp_path, capsys):
    assert main(["eval", "--ckpt", "oracle",
                 "--levels", str(tmp_path / "none.txt")]) == 1
    assert "cannot load levels" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "render"])
def test_levels_that_are_not_utf8_fail_to_load(tmp_path, capsys, command):
    path = tmp_path / "levels.txt"
    path.write_bytes(b"\xff\xfe#G\n")
    extra = ["--ckpt", "oracle"] if command == "eval" else ["--out", str(tmp_path / "x")]
    assert main([command, "--levels", str(path), *extra]) == 1
    assert "cannot load levels" in capsys.readouterr().err


def test_eval_rejects_zero_episodes(tmp_path, capsys):
    path, _ = write_level_file(tmp_path)
    assert main(["eval", "--ckpt", "oracle", "--levels", path,
                 "--episodes", "0"]) == 2


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
def test_eval_rejects_seed_out_of_range(tmp_path, capsys, seed):
    path, _ = write_level_file(tmp_path)
    assert main(["eval", "--ckpt", "oracle", "--levels", path, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --seed") and captured.out == ""


def test_seeds_at_the_ends_of_the_range_run(tmp_path, capsys):
    path, _ = write_level_file(tmp_path)
    for seed in (str((1 << 127) - 1), str(-(1 << 127))):
        assert main(["eval", "--ckpt", "oracle", "--levels", path, "--episodes", "1",
                     "--seed", seed]) == 0
    assert "aggregate" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def test_render_writes_ppm_files(tmp_path, capsys):
    path, levels = write_level_file(tmp_path)
    out = tmp_path / "imgs"
    assert main(["render", "--levels", path, "--out", str(out),
                 "--cell-px", "4"]) == 0
    files = sorted(out.glob("*.ppm"))
    assert [f.name for f in files] == ["level_000.ppm", "level_001.ppm"]
    head = files[0].read_bytes()[:2]
    assert head == b"P6"


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_a_file"])
def test_render_out_over_a_file_is_one_error_line(tmp_path, capsys, sub):
    # These once ended in a FileExistsError or NotADirectoryError traceback.
    path, _ = write_level_file(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["render", "--levels", path, "--out", str(taken / sub)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write images:")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_render_rejects_bad_cell_px(tmp_path):
    path, _ = write_level_file(tmp_path)
    assert main(["render", "--levels", path, "--out", str(tmp_path / "x"),
                 "--cell-px", "0"]) == 2
    # A bad flag is a configuration error even when the level file is missing.
    assert main(["render", "--levels", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path / "x"), "--cell-px", "0"]) == 2


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

def test_console_script_help_via_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ued_forge.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    for sub in ("train", "eval", "render"):
        assert sub in proc.stdout
