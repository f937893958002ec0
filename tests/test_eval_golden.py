"""Golden digests of ``evaluate``: per-level results on both holdouts.

A fixed untrained student (sampled and greedy) and the oracle each sweep
every level of both packaged holdouts. The SHA-256 of the report's
``solve_rates`` and ``mean_returns`` bytes is pinned per case, so a change
to how evaluation steps, samples or batches its episodes fails here unless
every draw and every return stays the same. The platform caveat of
``test_golden`` holds: these were recorded on OpenBLAS's SkylakeX kernel.
The greedy student solves no level and the sampled one none of
``eval_13x13``, so those digests pin all-zero reports; the sampled
``easy_9x9`` and oracle cases pin varied returns.
"""

import hashlib
import json

from test_golden import platform
from ued_forge import rng as R
from ued_forge.evaluation import evaluate, holdout_levels, network_policy, oracle_policy
from ued_forge.maze import MazeEnv
from ued_forge.rl_core import init_params
from ued_forge.ued import UedConfig, student_net_config

SEED = 1
EPISODES = 3

GOLDEN = {
    "easy_9x9/greedy":
        "b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4",
    "easy_9x9/oracle":
        "ed3f8f96f92cd14a38a49d2356073fc3dde395f99ff404b94067490535a4c1e2",
    "easy_9x9/sampled":
        "1c186fbbefd3718834e64415a48b2aa79860279da69703de158559bc78c78fae",
    "eval_13x13/greedy":
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
    "eval_13x13/oracle":
        "c7aeeff90f4d92df0edb923fe165ff0f5fb290d37c5bb2d2d1381bfe794d7c71",
    "eval_13x13/sampled":
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
}


def make_policy(case: str, env: MazeEnv):
    if case == "oracle":
        return oracle_policy()
    params = init_params(R.generator(R.key_from_seed(SEED)), student_net_config(UedConfig()))
    return network_policy(params, env, sample=case == "sampled")


def report_digests() -> dict:
    env = MazeEnv()
    out = {}
    for holdout in ("easy_9x9", "eval_13x13"):
        for case in ("greedy", "oracle", "sampled"):
            report = evaluate(env, make_policy(case, env), holdout_levels(holdout),
                              episodes=EPISODES, key=R.key_from_seed(SEED))
            out[f"{holdout}/{case}"] = hashlib.sha256(
                report.solve_rates.tobytes() + report.mean_returns.tobytes()).hexdigest()
    return out


def test_eval_golden_digests():
    got = report_digests()
    assert got == GOLDEN, f"on {platform()}:\n" + json.dumps(got, indent=4, sort_keys=True)


if __name__ == "__main__":
    print(json.dumps(report_digests(), indent=4, sort_keys=True))
