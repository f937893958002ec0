"""Curriculum training for maze navigation, in plain numpy.

The pieces, bottom up: a splittable counter-based RNG (:mod:`.rng`), the
level-parameterized environment interface and auto-reset wrappers
(:mod:`.env_core`), the maze navigation and maze editor environments with
generation, mutation, a shortest-path oracle, rendering, and a text level
format (:mod:`.maze`), a score-prioritized level buffer
(:mod:`.level_sampler`), a small actor-critic trained with hand-written
PPO/GAE (:mod:`.rl_core`), the curriculum training loops
(:mod:`.ued`), and fixed-level evaluation (:mod:`.evaluation`). The
``ued-forge`` console script fronts training, evaluation, and rendering.
"""

from .env_core import (
    AutoReplayWrapper,
    AutoResetWrapper,
    EnvError,
    Observation,
    StepResult,
    UnderspecifiedEnv,
    WrappedState,
)
from .evaluation import (
    EvalReport,
    evaluate,
    holdout_levels,
    holdout_names,
    interquartile_mean,
    network_policy,
    oracle_policy,
    run_episode,
)
from .level_sampler import (
    BufferError,
    LevelBuffer,
    SamplerConfig,
    buffer_from_text,
    buffer_to_text,
    insert_batch,
    load_buffer,
    new_buffer,
    sample_levels,
    sampling_weights,
    save_buffer,
    update_batch,
)
from .maze import (
    A_FORWARD,
    A_LEFT,
    A_RIGHT,
    UNREACHABLE,
    LevelError,
    MazeEditorEnv,
    MazeEnv,
    MazeLevel,
    MazeState,
    empty_level,
    format_level,
    format_levels,
    generate_random_level,
    greedy_oracle_action,
    is_solvable,
    load_levels,
    mutate_level,
    parse_level,
    parse_levels,
    render_level,
    save_levels,
    shortest_path_distances,
    write_ppm,
)
from .rl_core import (
    ActorCriticParams,
    NetConfig,
    PpoConfig,
    Trajectory,
    TrainingDivergedError,
    annealed_lr,
    compute_gae,
    episode_returns,
    forward,
    init_params,
    load_params,
    max_episode_discounted_returns,
    params_from_bytes,
    params_to_bytes,
    ppo_update,
    rollout,
    save_params,
)
from .rng import Key, fold_in, generator, key_from_seed, split
from .ued import (
    RunState,
    TrainResult,
    UedConfig,
    UedError,
    dry_run_env_steps,
    load_run_state,
    meta_policy_next,
    on_mutate_levels,
    on_new_levels,
    on_replay_levels,
    planned_cycles,
    resume_run,
    score_maxmc,
    score_pvl,
    steps_per_cycle,
    train,
    ued_config_from_dict,
)

__version__ = "0.1.0"
