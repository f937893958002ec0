"""Acceptance suite: ten go/no-go checks covering the oracles, the numeric
core, the cycle machinery, determinism, and desk-scale training runs.

Each test prints one [PASS]/[FAIL] line on the real stdout so the verdicts
survive pytest's capture. The smoke-run thresholds in criterion 8 were fixed
after a one-time baseline: seeds 0, 1, 2 (run 2026-08-22, lr 5e-4, sampled
10-episode evaluation) all reached a 1.0 solve rate on the easy holdout, so
the 0.8 bar leaves a wide margin; seed 0 is the frozen acceptance seed.
"""

import os
import sys
import time

import numpy as np
import pytest

from test_maze import dijkstra_distances
from test_rl_core import fd_grad, naive_gae, rel_err, traj_from_arrays

from ued_forge import rng as R
from ued_forge.evaluation import evaluate, holdout_levels, network_policy
from ued_forge.level_sampler import (
    SamplerConfig,
    buffer_from_text,
    buffer_to_text,
    insert_batch,
    new_buffer,
    sample_levels,
    sampling_weights,
    update_batch,
)
from ued_forge.maze import (
    MazeEnv,
    format_level,
    generate_random_level,
    mutate_level,
    parse_level,
    shortest_path_distances,
)
from ued_forge.rl_core import (
    NetConfig,
    PpoConfig,
    _backward,
    _features,
    _forward_cached,
    _ppo_loss_grads,
    adam_step,
    compute_gae,
    init_params,
    params_from_bytes,
    params_to_bytes,
)
from ued_forge.ued import (
    NODE_A,
    OP_MUTATE,
    OP_NEW,
    OP_REPLAY,
    UedConfig,
    dry_run_env_steps,
    meta_policy_next,
    metrics_line,
    train,
)


VERDICTS = []


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. Shortest-path oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_01_bfs_matches_dijkstra():
    """1000 random 13x13 levels: BFS distances equal a heap-based
    uniform-cost search, cell for cell, in under 5 seconds."""
    levels = [
        generate_random_level(R.generator(R.fold_in(R.key_from_seed(1001), i)),
                              13, 13, 25)
        for i in range(1000)
    ]
    t0 = time.time()
    mismatches = 0
    for level in levels:
        if not np.array_equal(shortest_path_distances(level),
                              dijkstra_distances(level)):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 5.0
    report(1, ok,
           f"BFS vs Dijkstra on 1000 random 13x13 levels: {mismatches} "
           f"mismatches, {elapsed:.2f}s (< 5s)")


# ---------------------------------------------------------------------------
# 2. GAE equivalence
# ---------------------------------------------------------------------------

def test_criterion_02_gae_matches_naive_double_sum():
    """500 random trajectories (T=50, random dones): recursive advantages
    equal the direct double-sum definition within 1e-10."""
    worst = 0.0
    for i in range(500):
        gen = R.generator(R.fold_in(R.key_from_seed(1002), i))
        n = int(gen.integers(1, 5))
        rewards = gen.normal(0, 1, (50, n))
        values = gen.normal(0, 1, (50, n))
        dones = gen.random((50, n)) < float(gen.uniform(0.02, 0.2))
        bootstrap = gen.normal(0, 1, n)
        gamma = float(gen.uniform(0.9, 1.0))
        lam = float(gen.uniform(0.8, 1.0))
        traj = traj_from_arrays(rewards, values, dones, bootstrap)
        adv, _ = compute_gae(traj, gamma, lam)
        ref = naive_gae(rewards, values, dones, bootstrap, gamma, lam)
        worst = max(worst, float(np.abs(adv - ref).max()))
    report(2, worst < 1e-10,
           f"GAE vs naive double-sum on 500 trajectories: max abs diff "
           f"{worst:.2e} (< 1e-10)")


# ---------------------------------------------------------------------------
# 3. Gradient checks
# ---------------------------------------------------------------------------

def test_criterion_03_gradients_match_finite_differences():
    """Per-layer backprop and the full PPO loss agree with central finite
    differences (rel err < 1e-4) on randomized nets under 1k parameters."""
    worst = 0.0
    checked_layers = 0
    for index, cfg in enumerate((
        NetConfig(image_shape=(3, 3, 2), extra_dim=2, n_actions=3,
                  hidden=6, torso="mlp", dtype="float64"),
        NetConfig(image_shape=(4, 4, 2), extra_dim=2, n_actions=3,
                  hidden=5, torso="conv", conv_filters=3, dtype="float64"),
    )):
        gen = R.generator(R.fold_in(R.key_from_seed(1003), index))
        params = init_params(gen, cfg)
        assert params.n_params <= 1000
        params = params.with_flat(params.flat() + gen.normal(0, 0.3, params.n_params))
        img = gen.normal(0, 1, (6,) + cfg.image_shape)
        ext = gen.normal(0, 1, (6, cfg.extra_dim))
        feat = _features(img, ext, np.float64)
        wl = gen.normal(0, 1, (6, cfg.n_actions))
        wv = gen.normal(0, 1, 6)

        def layer_loss(vec):
            logits, values, _ = _forward_cached(params.with_flat(vec), feat)
            return float((wl * logits).sum() + (wv * values).sum())

        _, _, cache = _forward_cached(params, feat)
        grad = _backward(params, cache, wl, wv)
        fd = cfg.views(fd_grad(layer_loss, params.flat()))
        for name, g in cfg.views(grad).items():
            worst = max(worst, rel_err(g, fd[name]))
            checked_layers += 1

        # full PPO objective, clip branches included
        b = 24
        batch = (
            _features(gen.normal(0, 1, (b,) + cfg.image_shape),
                      gen.normal(0, 1, (b, cfg.extra_dim)), np.float64),
            gen.integers(0, cfg.n_actions, b),
            np.log(gen.uniform(0.2, 0.8, b)),
            gen.normal(0, 1, b),
            gen.normal(0, 1, b),
            gen.normal(0, 1, b),
        )
        ppo = PpoConfig(clip=0.2, vf_coeff=0.5, ent_coeff=0.01)

        def ppo_loss(vec):
            stats, _ = _ppo_loss_grads(params.with_flat(vec), batch, ppo)
            return stats["total_loss"]

        _, grad = _ppo_loss_grads(params, batch, ppo)
        worst = max(worst, rel_err(grad, fd_grad(ppo_loss, params.flat())))

    report(3, worst < 1e-4,
           f"finite-difference check over {checked_layers} layers plus the "
           f"PPO loss on both torsos: max rel err {worst:.2e} (< 1e-4)")


# ---------------------------------------------------------------------------
# 4. Sampler distribution
# ---------------------------------------------------------------------------

def test_criterion_04_sampler_frequencies():
    """Empirical slot frequencies over 1e5 draws stay within total-variation
    0.01 of sampling_weights for 20 fuzzed configurations, and the
    closed-form rank weights [6/11, 2/11, 3/11] come out exactly."""
    worst_tv = 0.0
    for i in range(20):
        key = R.fold_in(R.key_from_seed(1004), i)
        gen = R.generator(key)
        n = int(gen.integers(2, 21))
        levels = [
            generate_random_level(R.generator(R.fold_in(key, 100 + j)), 5, 5, 3)
            for j in range(n)
        ]
        buf = insert_batch(new_buffer(n), levels,
                           [float(s) for s in gen.normal(0, 5, n)])
        for _ in range(int(gen.integers(0, 4))):  # age a random subset
            k = int(gen.integers(1, n + 1))
            idx = list(gen.choice(n, size=k, replace=False))
            buf = update_batch(buf, idx, [float(buf.scores[j]) for j in idx])
        cfg = SamplerConfig(temperature=float(gen.uniform(0.1, 2.0)),
                            staleness_coeff=float(gen.uniform(0.0, 1.0)))
        expected = sampling_weights(buf, cfg)
        _, indices, _ = sample_levels(buf, cfg, gen, 100_000)
        emp = np.bincount(indices, minlength=n) / 100_000
        worst_tv = max(worst_tv, 0.5 * float(np.abs(emp - expected).sum()))

    closed_buf = insert_batch(
        new_buffer(3),
        [generate_random_level(R.generator(R.fold_in(R.key_from_seed(1004), j)),
                               5, 5, 3) for j in (900, 901, 902)],
        [1.0, 0.1, 0.5],
    )
    got = sampling_weights(closed_buf,
                           SamplerConfig(temperature=1.0, staleness_coeff=0.0))
    # agreement to one unit in the last place; the reference fractions are
    # evaluated in a different operation order
    closed_diff = float(np.abs(got - np.array([6 / 11, 2 / 11, 3 / 11])).max())
    ok = worst_tv < 0.01 and closed_diff <= 2.0 ** -52
    report(4, ok,
           f"20 fuzzed configs, 1e5 draws each: worst TV {worst_tv:.4f} "
           f"(< 0.01); closed-form weights off by {closed_diff:.1e} (<= 1 ulp)")


# ---------------------------------------------------------------------------
# 5. Cycle automaton law
# ---------------------------------------------------------------------------

def test_criterion_05_meta_policy_frequencies():
    """Simulated operation frequencies match the stationary law of the
    two-node automaton within 0.01 over 1e5 steps, for three (p, q) pairs;
    with q=1 every replay is immediately followed by a mutation."""
    worst = 0.0
    follows = True
    for p, q in ((0.5, 0.0), (0.8, 1.0), (0.3, 0.5)):
        gen = R.generator(R.fold_in(R.key_from_seed(1005), int(p * 10 + q * 100)))
        node = NODE_A
        ops = []
        for _ in range(100_000):
            op, node = meta_policy_next(node, p, q, gen)
            ops.append(op)
        counts = {op: ops.count(op) / len(ops)
                  for op in (OP_NEW, OP_REPLAY, OP_MUTATE)}
        # stationary distribution: P(post-replay node) = p / (1 + p q)
        b = p / (1.0 + p * q)
        expected = {OP_REPLAY: b, OP_MUTATE: b * q, OP_NEW: 1.0 - b - b * q}
        worst = max(worst, max(abs(counts[k] - expected[k]) for k in counts))
        if q == 1.0:
            for t, op in enumerate(ops[:-1]):
                if op == OP_REPLAY and ops[t + 1] != OP_MUTATE:
                    follows = False
    ok = worst < 0.01 and follows
    report(5, ok,
           f"automaton frequencies over 1e5 steps, three (p, q) settings: "
           f"worst abs dev {worst:.4f} (< 0.01); mutation follows replay "
           f"under q=1: {follows}")


# ---------------------------------------------------------------------------
# 6. Step accounting
# ---------------------------------------------------------------------------

def test_criterion_06_dry_run_accounting():
    """Dry-run accounting (no environments touched): 30,000 cycles at
    T=256, N=32 give exactly 245,760,000 env steps for a single student and
    exactly twice that for the paired setup."""
    single = UedConfig(algorithm="dr",
                       ppo=PpoConfig(rollout_steps=256, n_envs=32))
    paired = UedConfig(algorithm="paired",
                       ppo=PpoConfig(rollout_steps=256, n_envs=32))
    got_single = dry_run_env_steps(single, n_cycles=30_000)
    got_paired = dry_run_env_steps(paired, n_cycles=30_000)
    # the default budget reproduces the same run length in the other direction
    by_budget = dry_run_env_steps(single)
    ok = (got_single == {"cycles": 30_000, "env_steps": 245_760_000}
          and got_paired["env_steps"] == 491_520_000
          and by_budget == got_single)
    report(6, ok,
           f"30,000-cycle dry run: single student {got_single['env_steps']:,} "
           f"steps, paired {got_paired['env_steps']:,} (exactly 2x)")


# ---------------------------------------------------------------------------
# 7. Replay-only training never updates on fresh levels
# ---------------------------------------------------------------------------

def test_criterion_07_robust_parameters_frozen_on_new_cycles():
    """50 seeded replay-only cycles: parameter bytes are unchanged across
    every cycle that generated fresh levels."""
    ppo = PpoConfig(rollout_steps=16, n_envs=8, epochs=1, lr=1e-3)
    cfg = UedConfig(algorithm="plr_robust", width=7, height=7, max_walls=6,
                    view_size=3, max_episode_steps=16, hidden=8,
                    buffer_capacity=16, total_env_steps=50 * 16 * 8, ppo=ppo)
    snaps = []

    def callback(entry, params):
        snaps.append((entry["cycle_type"], params_to_bytes(params)))

    res = train(cfg, seed=7, cycle_callback=callback)
    from ued_forge.ued import init_run_state
    initial = params_to_bytes(
        init_run_state(cfg, R.key_from_seed(7)).params)

    kinds = [k for k, _ in snaps]
    frozen = all(
        snap == (initial if i == 0 else snaps[i - 1][1])
        for i, (kind, snap) in enumerate(snaps) if kind == "new"
    )
    moved = any(kind == "replay" and snaps[i][1] != (initial if i == 0 else snaps[i - 1][1])
                for i, (kind, _) in enumerate(snaps))
    ok = (len(snaps) == 50 and kinds.count("new") >= 5
          and kinds.count("replay") >= 5 and frozen and moved)
    report(7, ok,
           f"50-cycle replay-only run: {kinds.count('new')} fresh-level "
           f"cycles all left parameters bit-identical "
           f"({kinds.count('replay')} replay cycles trained); "
           f"updates={res.updates}")


# ---------------------------------------------------------------------------
# 8. Desk-scale smoke training
# ---------------------------------------------------------------------------

SMOKE_EVAL_KEY = R.key_from_seed(1000)


def smoke_config(algorithm):
    return UedConfig(algorithm=algorithm, width=9, height=9, max_walls=10,
                     total_env_steps=2_000_000, ppo=PpoConfig(lr=5e-4))


def smoke_solve_rate(params):
    env = MazeEnv(max_steps=250, view_size=5)
    report_ = evaluate(env, network_policy(params, env, sample=True),
                       holdout_levels("easy_9x9"), episodes=10,
                       key=SMOKE_EVAL_KEY)
    return report_.solve_rate_mean


@pytest.fixture(scope="module")
def dr_smoke():
    t0 = time.time()
    res = train(smoke_config("dr"), seed=0)
    return smoke_solve_rate(res.params), time.time() - t0


@pytest.mark.smoke
def test_criterion_08a_dr_smoke(dr_smoke):
    """2e6 env steps of uniform level generation on 9x9 mazes solve at
    least 80% of the 10-level easy holdout (sampled 10-episode eval)."""
    solve, elapsed = dr_smoke
    ok = solve >= 0.8 and elapsed < 900
    report("8a", ok,
           f"uniform-generation smoke run (seed 0, 2e6 steps, "
           f"{elapsed / 60:.1f} min < 15): easy-holdout solve rate "
           f"{solve:.2f} (>= 0.8; baseline 1.00)")


@pytest.mark.smoke
def test_criterion_08b_plr_smoke(dr_smoke):
    """Prioritized replay under the same budget lands within 0.1 of (or
    above) the uniform-generation solve rate."""
    dr_solve, _ = dr_smoke
    t0 = time.time()
    res = train(smoke_config("plr"), seed=0)
    elapsed = time.time() - t0
    solve = smoke_solve_rate(res.params)
    ok = solve >= dr_solve - 0.1 and elapsed < 900
    report("8b", ok,
           f"replay smoke run (seed 0, {elapsed / 60:.1f} min < 15): solve "
           f"rate {solve:.2f} vs uniform {dr_solve:.2f} (within 0.1 or above)")


@pytest.mark.smoke
def test_criterion_08c_paired_smoke():
    """200 adversary iterations finish with finite losses and nonzero mean
    regret over iterations 51..200."""
    cfg = UedConfig(algorithm="paired", total_env_steps=200 * 2 * 256 * 32,
                    ppo=PpoConfig(lr=5e-4))
    t0 = time.time()
    res = train(cfg, seed=0)
    elapsed = time.time() - t0
    loss_keys = [k for k in res.metrics[0]
                 if k.endswith(("policy_loss", "value_loss", "entropy"))]
    finite = all(np.isfinite(m[k]) for m in res.metrics for k in loss_keys)
    late_regret = float(np.mean([m["mean_regret"] for m in res.metrics[50:]]))
    ok = (len(res.metrics) == 200 and finite and late_regret != 0.0
          and elapsed < 900)
    report("8c", ok,
           f"adversarial smoke run (seed 0, 200 iterations, "
           f"{elapsed / 60:.1f} min < 15): losses finite={finite}, mean "
           f"regret after iteration 50 = {late_regret:.4f} (nonzero)")


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

def test_criterion_09_all_algorithms_deterministic():
    """Each algorithm, same seed, run three times (twice with
    UED_FORGE_THREADS=1, once with 4, which the package ignores): metrics
    streams and final checkpoints are byte-identical."""
    ppo = PpoConfig(rollout_steps=8, n_envs=4, epochs=1, lr=1e-3)

    def run(algorithm, threads):
        old = os.environ.get("UED_FORGE_THREADS")
        os.environ["UED_FORGE_THREADS"] = str(threads)
        try:
            cfg = UedConfig(algorithm=algorithm, width=5, height=5,
                            max_walls=4, view_size=3, max_episode_steps=10,
                            wall_budget=3, n_edits=3, buffer_capacity=8,
                            hidden=4, total_env_steps=8 * 4 * 8, ppo=ppo)
            res = train(cfg, seed=11)
        finally:
            if old is None:
                os.environ.pop("UED_FORGE_THREADS", None)
            else:
                os.environ["UED_FORGE_THREADS"] = old
        blob = [params_to_bytes(res.params)]
        for extra in (res.antagonist, res.adversary):
            if extra is not None:
                blob.append(params_to_bytes(extra))
        if res.buffer is not None:
            blob.append(buffer_to_text(res.buffer).encode())
        return [metrics_line(m) for m in res.metrics], b"".join(blob)

    algorithms = ("dr", "plr", "plr_robust", "accel", "paired")
    stable = []
    for algorithm in algorithms:
        runs = [run(algorithm, t) for t in (1, 1, 4)]
        stable.append(all(r == runs[0] for r in runs[1:]))
    ok = all(stable)
    report(9, ok,
           "seeded twice plus a rerun with UED_FORGE_THREADS=4 (ignored): "
           "metrics and checkpoints byte-identical for " + ", ".join(
               f"{a}={'yes' if s else 'NO'}" for a, s in zip(algorithms, stable)))


# ---------------------------------------------------------------------------
# 10. Format round trips
# ---------------------------------------------------------------------------

def test_criterion_10_format_round_trips():
    """1000 fuzzed instances (700 levels, 150 buffers, 150 networks):
    write -> read -> write yields byte-identical second output."""
    failures = 0
    base = R.key_from_seed(1010)

    for i in range(700):
        gen = R.generator(R.fold_in(base, i))
        w = int(gen.integers(3, 14))
        h = int(gen.integers(3, 14))
        level = generate_random_level(gen, w, h, int(gen.integers(0, w * h // 2)))
        if gen.random() < 0.5:
            level = mutate_level(level, gen, int(gen.integers(1, 30)))
        text = format_level(level)
        if format_level(parse_level(text)) != text:
            failures += 1

    for i in range(150):
        key = R.fold_in(base, 10_000 + i)
        gen = R.generator(key)
        n = int(gen.integers(0, 11))
        levels = [
            generate_random_level(R.generator(R.fold_in(key, j)), 6, 6, 4)
            for j in range(n)
        ]
        extras = [
            {"max_return": float(gen.normal(0, 100))} if gen.random() < 0.6 else {}
            for _ in range(n)
        ]
        buf = insert_batch(new_buffer(max(1, n + int(gen.integers(0, 3)))), levels,
                           [float(s) for s in gen.normal(0, 1e3, n)], extras)
        if n and gen.random() < 0.5:
            k = int(gen.integers(1, n + 1))
            buf = update_batch(buf, list(range(k)),
                               [float(s) for s in gen.normal(0, 2, k)])
        text = buffer_to_text(buf)
        if buffer_to_text(buffer_from_text(text)) != text:
            failures += 1

    for i in range(150):
        gen = R.generator(R.fold_in(base, 20_000 + i))
        torso = "conv" if gen.random() < 0.5 else "mlp"
        cfg = NetConfig(
            image_shape=(int(gen.integers(3, 6)), int(gen.integers(3, 6)), 2),
            extra_dim=int(gen.integers(0, 4)),
            n_actions=int(gen.integers(2, 6)),
            hidden=int(gen.integers(2, 9)),
            torso=torso,
            conv_filters=int(gen.integers(2, 5)),
            dtype="float64" if gen.random() < 0.3 else "float32",
        )
        params = init_params(gen, cfg)
        if gen.random() < 0.5:
            params = adam_step(params, gen.normal(0, 1, params.n_params), 1e-3, 1e-8)
        data = params_to_bytes(params)
        if params_to_bytes(params_from_bytes(data)) != data:
            failures += 1

    report(10, failures == 0,
           f"write->read->write on 700 levels, 150 buffers, 150 network "
           f"checkpoints: {failures} of 1000 instances differed")
