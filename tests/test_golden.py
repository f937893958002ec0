"""Golden digests: each algorithm's run files at a tiny configuration.

Every case trains 3 cycles into one directory and resumes the saved run
into a fresh directory for the remaining 2 cycles of its budget. The
SHA-256 of every file written is pinned, so a refactor that changes any
number, any metrics line or any checkpoint byte fails here. On a mismatch
the assertion message lists the observed digests.
"""

import hashlib
import json
import os

import pytest

from ued_forge.rl_core import PpoConfig
from ued_forge.ued import UedConfig, resume_run, steps_per_cycle, train

SEED = 1

GOLDEN = {
    "accel": {
        "part/buffer.txt":
            "7b322a5dfedbbc29e7a62ecc9e63a6ab3cc1cddbc82724b1073c8883a7ea978d",
        "part/metrics.jsonl":
            "46795ff88dd01a4438642a6aadcf5a68c1279c1f0e6513f94f6b8ac5549add8c",
        "part/params.bin":
            "53c7d5651b14856e710de1ad09f5c3b6888ed73c995dd145ee3ffad1eebfc8bd",
        "part/state.json":
            "f55858f59b71e0f7ab2e2da65706ef270438b91d2e262622b7ccdde63016eb1f",
        "rest/buffer.txt":
            "34da57c30961c1f93201a8847bec7e7fb5ea06a283c2afa445e38d39a4c0c2c9",
        "rest/metrics.jsonl":
            "16c203f9eef3c2f9ed79e2c8e70e4a13aa6993e41874c65bb3762afddead8060",
        "rest/params.bin":
            "6b8e00c69b596baa326dd692a33cd560f369ee562bd6c10bc36a9003f9421248",
        "rest/state.json":
            "c73984db1d693b7f1c56565717e8727d29e216801a1c6ea20fe7f42302d6c06e",
    },
    "dr": {
        "part/metrics.jsonl":
            "4d23106898f7b8dba2cf3fdb6236c79e1c0c6676419d04db195e4cb954b586a1",
        "part/params.bin":
            "dea3aaf0f16e86d4bda8725d785cf1c44d34ec482a0d7dc8e235c4a29420d988",
        "part/state.json":
            "8ef1433ce31d54fded5e85025532a147429abad8123323dd0393d90e99e0119b",
        "rest/metrics.jsonl":
            "1b8adbc38fbde6ccc2d6a7a241e9de62ab39e26316eadc8adbada33f56b604d2",
        "rest/params.bin":
            "0d91141438d0b8d10986ce3ed87126b0e3460e603c53fd1c9e6f5bdbff55dbfe",
        "rest/state.json":
            "5b4e0c90b1eaa7452507dae6204f2b253e0301173ad74f31edae47d86f2767ab",
    },
    "paired": {
        "part/adversary.bin":
            "a38c74f29041661dee8405febbf0101091b5d62e7fe2ae2dd82cbf6cdda1e1e6",
        "part/antagonist.bin":
            "d28f937d3d4bf9a8ac005afca6824187d68fbc7c5a44ff509d9b823a40db0ffa",
        "part/metrics.jsonl":
            "330adfa8f2b70f5b20f4f6fda849ac366a7210fd5ff4255773109cacb2bbfeb9",
        "part/params.bin":
            "83ad60542d9f372fa43fbbf6f8b1b0892d3c787d2748be9f355d7fdb4f76d427",
        "part/state.json":
            "4550e368fc2d1ad75790761c93b5bde47bc5e2f0bf3568c1d798678be5bbc3ac",
        "rest/adversary.bin":
            "5d0934ea6a56db40b6906d3bd744dd31803f6d71f714101a436edf7f893e97f8",
        "rest/antagonist.bin":
            "56460bf122e45a519ca897a6921b7339f1ebf30be9921f453f50758dfa048811",
        "rest/metrics.jsonl":
            "cc2b33a36c28596e59efb1ba5b0c30ef36cd24f522c6299f120a3a816bee3cb9",
        "rest/params.bin":
            "fbc6a15852c6b70fc736ed5095d67d008b3413ab98dbf946ae2035e72d4c19d7",
        "rest/state.json":
            "1c057d46fc348a58bbc6e33cd57a1d94cc812fdc60e7f071818904cfe0d33e6c",
    },
    "plr": {
        "part/buffer.txt":
            "b818606755d47b8938fa72fcd37c602c8e146ae189043c6af4bf952774de93d4",
        "part/metrics.jsonl":
            "3b908bb750b52c858f25d25be6e76d3a8658151d9cc3969431b9109dea7134ca",
        "part/params.bin":
            "098c1c5841915f2c900e55cc581ecbbb86fbc6fe94613e9bbe6d91368da949f1",
        "part/state.json":
            "b973f19cdb14aedd4b6f9c052c84ffb040e057972cc3240d3deeb0743b1b4448",
        "rest/buffer.txt":
            "038d1a3eea7f179d05f423cf2364675d8805076daa45990a6ba748fe1ac48728",
        "rest/metrics.jsonl":
            "559645d1c5b053db7db44fdc0f9541fcdcd149db92ca67ca33836a352987c0c2",
        "rest/params.bin":
            "9ede68ed2d6e6715d08d9f3160fc11693cb4d8825e321ee49d4de3084ebd6735",
        "rest/state.json":
            "76ac04b39d7998b10cb8d8d91e1f8ecc106da58687548032b272b42ccb5c7820",
    },
    "plr_pvl": {
        "part/buffer.txt":
            "99c96ad8013241af9bf20c30a326928dfb7ab789c2032ddde424386ad7937b49",
        "part/metrics.jsonl":
            "74fb9e5b4474af0d00193e61375fd22757f427616051e08853b3ca6dfc828daf",
        "part/params.bin":
            "e641a3d977aa5370cb6f35f9b1ac93e6efda099e1b4ca9190b1ee7a7d5373e06",
        "part/state.json":
            "db3a57bbae39639616f043c30bd7a6c9613b2922eafda47e84a94f1b0ab0b486",
        "rest/buffer.txt":
            "460cab7da50d27b2055ee482551c2b56396105c32e35cf30c2e5003a63b08ce6",
        "rest/metrics.jsonl":
            "4bcdd4bd5e5dfe3a550ffef6dd7eb6b6bc325cebd15065551a6aae6f9b7ae31f",
        "rest/params.bin":
            "1e5fbf8d5a012ea624bd726f2b00ecec3a5ca80274affdfa8210e798a7805762",
        "rest/state.json":
            "38be044512fbac9fb2c81dd5a82b9f715ae2a2c7c2ca72f7b0c0986bb514f285",
    },
    "plr_robust": {
        "part/buffer.txt":
            "7b322a5dfedbbc29e7a62ecc9e63a6ab3cc1cddbc82724b1073c8883a7ea978d",
        "part/metrics.jsonl":
            "bf76fc2ad1489a70d0b016085c379915264b347173b274d562ad71d9fafbcaf6",
        "part/params.bin":
            "53c7d5651b14856e710de1ad09f5c3b6888ed73c995dd145ee3ffad1eebfc8bd",
        "part/state.json":
            "be08c127212c68759250c8e7d099dd6a712298f22920ff64db20324c174b8154",
        "rest/buffer.txt":
            "6a16bea04a13935c926666e78dcdad509d273e4952867a0fe4b6cfbbb5cb0f14",
        "rest/metrics.jsonl":
            "2926baab74df5a510e2de30d4f8184f4785ef3d2bff3e18c14af67d73a4a4f07",
        "rest/params.bin":
            "95ef29770c92ce2827906186689d0ce16779838ed0ea67352eba0f9555f85c70",
        "rest/state.json":
            "a83176b8f0315553b68e490f48e6901de453ee0b9859b79de352d54b5ba2bdce",
    },
}


def golden_config(case: str) -> UedConfig:
    kw = dict(
        algorithm="plr" if case == "plr_pvl" else case,
        scoring="pvl" if case == "plr_pvl" else "maxmc",
        width=5, height=5, max_walls=4, view_size=3, max_episode_steps=10,
        wall_budget=3, n_edits=3, buffer_capacity=8, hidden=4,
        ppo=PpoConfig(rollout_steps=8, n_envs=4, epochs=1, lr=1e-3),
    )
    cfg = UedConfig(**kw)
    return UedConfig(**kw, total_env_steps=5 * steps_per_cycle(cfg))


def _digests(out_dir, tag) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[f"{tag}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_case(case: str, root) -> dict:
    cfg = golden_config(case)
    part, rest = os.path.join(root, "part"), os.path.join(root, "rest")
    train(cfg, seed=SEED, out_dir=part, max_cycles=3)
    resume_run(os.path.join(part, "state.json"), out_dir=rest)
    return {**_digests(part, "part"), **_digests(rest, "rest")}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(tmp_path, case):
    got = run_case(case, str(tmp_path))
    assert got == GOLDEN[case], json.dumps(got, indent=4, sort_keys=True)
