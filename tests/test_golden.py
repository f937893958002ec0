"""Golden digests: each algorithm's run files at a tiny configuration.

Every case trains 3 cycles into one directory and resumes the saved run
into a fresh directory for the remaining 2 cycles of its budget. The
SHA-256 of every file written is pinned, so a refactor that changes any
number, any metrics line or any checkpoint byte fails here. On a mismatch
the assertion message lists the observed digests and the platform: the
digests were recorded on OpenBLAS's SkylakeX (AVX-512) kernel, and another
BLAS kernel family or numpy SIMD level rounds differently.
"""

import ctypes
import glob
import hashlib
import json
import os

import numpy as np
import pytest

from ued_forge.rl_core import PpoConfig
from ued_forge.ued import UedConfig, resume_run, steps_per_cycle, train

SEED = 1

GOLDEN = {
    "accel": {
        "part/buffer.txt":
            "238e27482ae2451afbc2b67b01a6ba4313f1e22c616e91597de1905e8ea1e49c",
        "part/metrics.jsonl":
            "3322a4d8e2ce08d6980c98e11fae45e544917bbe498544b84d4849a35b8f355f",
        "part/params.bin":
            "fa84d2ffd3c781ceafbe7b1c2a9cc318e6f42322342a3c32a4deed8fbb397e00",
        "part/state.json":
            "ce815f94ffeff89834dc89ca62029309a44414762b24182d93394c0b7f018fd8",
        "rest/buffer.txt":
            "8c15e3ffd285d69b9c9daa7204feb89b571326868405c37a83c7ffd9458939c1",
        "rest/metrics.jsonl":
            "700f6539954d960fae8307e46a7e34396ddaf21fc7e838f175f163bbb3228b17",
        "rest/params.bin":
            "986cbd39837c3ced6005b07a188364ae4c165e6500db1b2aa576044a4532dc28",
        "rest/state.json":
            "04df16442d98b367f2480073199ca64bd12940c871ce7e3745248b4469af1c7d",
    },
    "dr": {
        "part/metrics.jsonl":
            "1eb16e550b16cb0f8a9a72b8ea6abc411c881a76c0e5ca82dae72e45fdf46fac",
        "part/params.bin":
            "8713f6625f17bb9c68bc968bdeae1f02649249c84e553e778e99c8d3d2dab6da",
        "part/state.json":
            "8a0c2f7060c007b27aecde0493d214f0a10f3a74f9a8a53e16d06e3a670a1896",
        "rest/metrics.jsonl":
            "f2c23d2ab60c701f0fa64e6cec0d270703760435981ac8f16ef42e8d72149a67",
        "rest/params.bin":
            "23a0fc55cddda4802c411c44949c357bca7e0b05e5f9c69b3c94f7b25fc4a8cf",
        "rest/state.json":
            "620195481f0963b656898e93ff131e6fd6ef9504e2d2b876d6c13e6be6b23d82",
    },
    "paired": {
        "part/adversary.bin":
            "6ff08ce3cda6ed8470eb6c4a599041bf50ff95ff0ff481e289dcbffba20974f1",
        "part/antagonist.bin":
            "bd59e9c92c28d3c42a171fa487ad6e4617b5c9d84e64b098b2bc403a783e780c",
        "part/metrics.jsonl":
            "2357c2cbaf5e9c636a1519b11ab83ef705ede4b56bdce7e0693a5963c9d65a36",
        "part/params.bin":
            "269348e47b78b7c66577201578c4d15b43c863866407ce2f8652f8e9db4cd5df",
        "part/state.json":
            "2aac81aee47cdfca6d38b22e593846ca347859cb9a85940c14474edace46222f",
        "rest/adversary.bin":
            "e69299f58de2733da3f7b1a43ee9fdcbf0de44ab270416918f0afd764019d297",
        "rest/antagonist.bin":
            "00e55a9a232fa7ade972036784de6863e109efe240437ba347cefa2346dfb4fc",
        "rest/metrics.jsonl":
            "bbc5b29c95a474b2d63f1e1eff776cfcdbe6d4e51b7a375728013ba8841b34a7",
        "rest/params.bin":
            "466cf3ab7a3e59f64b4f8c1a40f632c602ab3a0970f036cac0e75067eadd0c88",
        "rest/state.json":
            "781c02f891af831c731ebbbd5cba976e7be6f09c31fc73d873308b66e8537cad",
    },
    "plr": {
        "part/buffer.txt":
            "4df67c26fa3478ea1f8f0219179d4891d5f0fc1fd3e2a37e7be4f8f88cb2172a",
        "part/metrics.jsonl":
            "c64fcf45f88bbfc93a47da09feb36730fba91ba516b7378ddd81b376493b1625",
        "part/params.bin":
            "9ce07a1b5bca1f0361b68e2cccaa3a310fa0fbe0aa02d4e8c1c4474f3812b03f",
        "part/state.json":
            "851ce1d69aa125d0f4acd6eee396ae61244dd79335669effd2da5d6d4d7d1d55",
        "rest/buffer.txt":
            "d257213089a111c1bf232a529dc5d399d737c2e0cf34b3844d4ae11e0e678e2a",
        "rest/metrics.jsonl":
            "de3570d0f3634b46368908551756d992189bf00826ceb8448b951cd9f4ea951e",
        "rest/params.bin":
            "c281c2e018ae98baf4582135af57eb823cccf193e008518f5f6c4410360bcc1f",
        "rest/state.json":
            "d61b404df322bdbb37d5066b28fcd631dc8e5091c08caa49f331306de029e97a",
    },
    "plr_pvl": {
        "part/buffer.txt":
            "a42ad2a641a4efcbdac5e09e84d935c4f683316838e1cf9d84c793243ea44e43",
        "part/metrics.jsonl":
            "ac7c6c406619adde1e1692ac013a115e0c81077afea727b5dfdca275ec25486f",
        "part/params.bin":
            "82ca448b4f14b93472ca44ff10bfe09aa54a1a8bf4e665c3f801d65c3766e5a1",
        "part/state.json":
            "6c14bc524bd49d8f24a63c5677dea12b84f82c3dbae29925e5b7361d97eb1f51",
        "rest/buffer.txt":
            "c0d3b69b5cbfbd5a386c88fb7d29763273b98831eb75ef62dcbfaa54a72fa427",
        "rest/metrics.jsonl":
            "04c06f9a9bb9b50122f45846f52c0a5e397e75154edb784397031b0b0f7782b3",
        "rest/params.bin":
            "39e473f1a84152dc51f4ce1a7bff0f23063037114cfb651dab57cf0cfd40bb5a",
        "rest/state.json":
            "07523f83f9df635df569b6062bccac240bf0990a0e5c8b1c470d02987beb2230",
    },
    "plr_robust": {
        "part/buffer.txt":
            "238e27482ae2451afbc2b67b01a6ba4313f1e22c616e91597de1905e8ea1e49c",
        "part/metrics.jsonl":
            "67f44181b1a202751339895e8997951bad6dc09f97521f07df78b40a23d7e276",
        "part/params.bin":
            "fa84d2ffd3c781ceafbe7b1c2a9cc318e6f42322342a3c32a4deed8fbb397e00",
        "part/state.json":
            "a80160f7bb9ce52131a46b1002377bd32a603f2702841873a1932c4181c78e6d",
        "rest/buffer.txt":
            "138f540063511600c4eee54d949c8bb91985ae2f7ad2fa3cca90cc3bf7e71d32",
        "rest/metrics.jsonl":
            "ec246da47981b28911b07dde13ce89f40428d23626c7efeb5476b784dd07f636",
        "rest/params.bin":
            "f5d9e195ed121e22b2024403b28b5bfc3b689017e972f7c038f0b413271b7415",
        "rest/state.json":
            "d213443c1ec51cbcf6930b900fd6a7262622b944dd83c88473a0a4c0fafb9cc3",
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


def platform() -> str:
    """OpenBLAS's runtime kernel and numpy's active SIMD targets."""
    core = "unknown"
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    simd = " ".join(k for k, on in __cpu_features__.items() if on)
    return f"OpenBLAS core {core}; numpy SIMD {simd}"


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(tmp_path, case):
    got = run_case(case, str(tmp_path))
    assert got == GOLDEN[case], (
        f"on {platform()}:\n" + json.dumps(got, indent=4, sort_keys=True))
