"""Command-line front end: train, eval, render.

Exit codes: 0 on success, 1 when a run fails (divergence, bad checkpoint),
2 for configuration errors (bad flags, malformed or unknown config keys).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .evaluation import evaluate, network_policy, oracle_policy
from .maze import LevelError, MazeEnv, load_levels, render_level, write_ppm
from .rl_core import CheckpointError, TrainingDivergedError, load_params
from .rng import key_from_seed
from .ued import UedError, metrics_line, train, ued_config_from_dict


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ued-forge",
        description="Curriculum training on procedurally built mazes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training configuration")
    p_train.add_argument("--config", required=True, help="JSON run configuration")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument(
        "--out", default=None,
        help="output directory (metrics.jsonl, params.bin, state.json); "
        "metrics go to stdout when omitted",
    )

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on level files")
    p_eval.add_argument(
        "--ckpt", required=True,
        help="network checkpoint path, or the literal 'oracle'",
    )
    p_eval.add_argument("--levels", required=True, nargs="+", help="level text files")
    p_eval.add_argument("--episodes", type=int, default=10)
    p_eval.add_argument(
        "--sample", action="store_true",
        help="sample actions from the policy instead of acting greedily",
    )
    p_eval.add_argument("--seed", type=int, default=0)

    p_render = sub.add_parser("render", help="render level files to PPM images")
    p_render.add_argument("--levels", required=True, nargs="+", help="level text files")
    p_render.add_argument("--out", required=True, help="output directory")
    p_render.add_argument("--cell-px", type=int, default=8)
    return parser


def _bad_seed(seed: int) -> bool:
    """Whether ``seed`` is out of range for :func:`key_from_seed`, saying so."""
    try:
        key_from_seed(seed)
    except ValueError as exc:
        print(f"error: --seed: {exc}", file=sys.stderr)
        return True
    return False


def _cmd_train(args) -> int:
    if _bad_seed(args.seed):
        return 2
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        config = ued_config_from_dict(raw)
    except UedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    callback = None
    if args.out is None:
        def callback(entry, params):
            print(metrics_line(entry))

    try:
        result = train(config, args.seed, out_dir=args.out, cycle_callback=callback)
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 1
    except UedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write run files: {exc}", file=sys.stderr)
        return 1
    print(
        f"done: algorithm={config.algorithm} env_steps={result.env_steps} "
        f"updates={result.updates} cycles={len(result.metrics)}"
    )
    return 0


def _load_level_files(paths):
    """Every level in ``paths``, or None after saying why there are none."""
    try:
        levels = [level for path in paths for level in load_levels(path)]
    except (OSError, LevelError) as exc:
        print(f"error: cannot load levels: {exc}", file=sys.stderr)
        return None
    if not levels:
        print("error: no levels found", file=sys.stderr)
        return None
    return levels


def _cmd_eval(args) -> int:
    if _bad_seed(args.seed):
        return 2
    if args.episodes < 1:
        print("error: --episodes must be at least 1", file=sys.stderr)
        return 2
    levels = _load_level_files(args.levels)
    if levels is None:
        return 1

    if args.ckpt == "oracle":
        env = MazeEnv()
        policy = oracle_policy()
    else:
        try:
            params = load_params(args.ckpt)
        except (OSError, CheckpointError) as exc:
            print(f"error: cannot load checkpoint: {exc}", file=sys.stderr)
            return 1
        cfg = params.config
        view = cfg.image_shape[0] if cfg.image_shape else 0
        if (tuple(cfg.image_shape) != (view, view, 3) or view % 2 == 0
                or cfg.extra_dim != 4 or cfg.n_actions != 3):
            print(f"error: checkpoint is not a maze student network (image {cfg.image_shape}, "
                  f"extra_dim {cfg.extra_dim}, {cfg.n_actions} actions)", file=sys.stderr)
            return 1
        env = MazeEnv(view_size=view)
        policy = network_policy(params, env, sample=args.sample)

    report = evaluate(
        env, policy, levels, episodes=args.episodes, key=key_from_seed(args.seed)
    )
    for line in report.summary_lines():
        print(line)
    return 0


def _cmd_render(args) -> int:
    if args.cell_px < 1:
        print("error: --cell-px must be at least 1", file=sys.stderr)
        return 2
    levels = _load_level_files(args.levels)
    if levels is None:
        return 1
    try:
        os.makedirs(args.out, exist_ok=True)
        for i, level in enumerate(levels):
            path = os.path.join(args.out, f"level_{i:03d}.ppm")
            write_ppm(render_level(level, cell_px=args.cell_px), path)
            print(path)
    except OSError as exc:
        print(f"error: cannot write images: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "eval":
        return _cmd_eval(args)
    return _cmd_render(args)


if __name__ == "__main__":
    sys.exit(main())
