"""Golden digests: each algorithm's run files at a tiny configuration and
at the paper's size.

Every tiny case trains 3 cycles into one directory and resumes the saved run
into a fresh directory for the remaining 2 cycles of its budget. Every
paper-size case trains 4 cycles of the default config (13x13, T = 256,
N = 32, hidden 32) into one directory, which pins B = 8,192 products, the
13x13 canvas, the 5x5 view and the 169-action adversary. The full-buffer
case resumes that ``accel`` run from a full 4,000-level buffer. The
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

from ued_forge import rng
from ued_forge.level_sampler import LevelBuffer, buffer_from_text, buffer_to_text
from ued_forge.maze import generate_random_level
from ued_forge.rl_core import PpoConfig
from ued_forge.ued import UedConfig, resume_run, steps_per_cycle, train

SEED = 1
PAPER_SEED = 2

GOLDEN = {
    "accel": {
        "part/buffer.txt":
            "f872023cac99617b990edf68f5dda742ef70ec16abb383d41a6dba3152c37228",
        "part/metrics.jsonl":
            "53d8f139adf6fcf0ec754658f31c1bc05559ce728a2ee5bca1ab3da89f5b240d",
        "part/params.bin":
            "af746d1bdc88df7dd00bafc601de385e08375bffdde5eba6a87db126a46f74ac",
        "part/state.json":
            "b3f6969006a6b58356b403db894346a5e203fd4bf0c7438c68c4dc846b61b49b",
        "rest/buffer.txt":
            "6e8540c35b7edb174b856771c7c8a6c78498ad14f6ddcd25d593f2bafc437194",
        "rest/metrics.jsonl":
            "1dc4434d4722e66f01613fd661d4243a96f00a1b32b6bdc2f69ff4fd7d2bd3ca",
        "rest/params.bin":
            "e74ebd8a6521f2b434f851031e9d332cd76bd996dac3072666dbbbab83a0407f",
        "rest/state.json":
            "190dc4f6fd38b26ee9ed407317c5bc7db529db8fd1e8731eadd6b94d61097e8f",
    },
    "dr": {
        "part/metrics.jsonl":
            "fe903b2204eca582fa4315efff7c132977f461913fa4f37c7c17ac56aca81877",
        "part/params.bin":
            "944e9366919ca253dcf05ab6d1b6e8067250a35fbbfeb994189d17974c3a8ab7",
        "part/state.json":
            "e06077d55b463ce975be6df5e35cccb5ec5c672752cc322b1bb9325217f3695a",
        "rest/metrics.jsonl":
            "f356f7dfeb3870157b37dd58b755feac9810f94db7184ec1cabf6341bc54deb9",
        "rest/params.bin":
            "5782529c82103a62c8ca7ad3a8f1a41f48a1331b3b2a89a0be0b29d5603e7540",
        "rest/state.json":
            "d0c90e904bd327a4cecc85c60b60871236f665abd90090a77d68f4de859b2330",
    },
    "paired": {
        "part/adversary.bin":
            "e3305221cfdeb17a4b87e8309dd4560a6f67d2afee528755c6b5beb6f21a0eb5",
        "part/antagonist.bin":
            "eae4d8ea4bb429b9aa0cb7c1272e841cbc8c9c31b478e3f23a4132f465094ea0",
        "part/metrics.jsonl":
            "c0bdea27eeadc5dfcae2e9c687b7ced602100c2d72bcdebe1428bce9ab216ddf",
        "part/params.bin":
            "17cee9e9d596d79fa632b67d5a16283f11222d7e138bd0192fc9638990a1ddff",
        "part/state.json":
            "2b855441d0641bcee3cbb3e7f1165208586f1ca76d53dab16de5bca133376af6",
        "rest/adversary.bin":
            "41d6a104a4d3f3d6bbb83aef2632600e375813b0c522adf62be15cf0d5929565",
        "rest/antagonist.bin":
            "ce96ffa4f7bc13e1c9c29005de728c341865401c6e8b96870de7877576433872",
        "rest/metrics.jsonl":
            "801e4a7f5933c5e6af7688abe4a144db2dcaa2c2c19c323b02c71cda72871e9d",
        "rest/params.bin":
            "31acca24108718f22147bf87ebc5892fc93da4be4f59e55f3c31559f22ca8b89",
        "rest/state.json":
            "532798115b45fc37fd69f724da86452017944dd2f0a2534efb38fd4f7437166c",
    },
    "plr": {
        "part/buffer.txt":
            "c797b257099891cd561983fb7cdd83c579f9c4acd3c19b5cf4fb364416aa8183",
        "part/metrics.jsonl":
            "ed767fc2ef3b1489fdbf434676ac01fa7df06c44a943fdd817b95d9c695fdf42",
        "part/params.bin":
            "230f9d6ec6e916165994b892fe6d72731543d245cea5921bafce698924c59161",
        "part/state.json":
            "3daccdd10ca34c396cca7bb40099701048e84e843f9a2ba41f42ccf2a9a0bd14",
        "rest/buffer.txt":
            "5ca7f30bc720ee3f2be22ce68e2ca891304523c39429294c78773eb979b2df41",
        "rest/metrics.jsonl":
            "84ffbf72135970faad75c84cfe5fe023e07e3a59d77eb1819dd565f046640ea8",
        "rest/params.bin":
            "4fff9c6d4f9e3902e6cc36461eff1f0c9f6ca767d859b3726e923fb11872d876",
        "rest/state.json":
            "585ba8e0c71c339067398b7edd0223bea2499bb3628a4dd3932576d6020c0b20",
    },
    "plr_pvl": {
        "part/buffer.txt":
            "9a5496cacf7391d57e8c7d3cadf3b5148a0a911d04da5c7af61ec9a002b063fe",
        "part/metrics.jsonl":
            "0abc7344b02fa414bbff3a36e5189e69326e889263812e701228c061c8a67c69",
        "part/params.bin":
            "230f9d6ec6e916165994b892fe6d72731543d245cea5921bafce698924c59161",
        "part/state.json":
            "ed8f25630fe383d80c6eb6702c11d9cdd491f04ded6ab7b3793175b74e901eb3",
        "rest/buffer.txt":
            "39735f8fea7ebb78c21c57f1748c1f14abc88760687ef5597d71b5b610c27b1a",
        "rest/metrics.jsonl":
            "1803a00bbcf47c2b5d1c0e27edc5dc2329b960aceff893ac64b8d2a51c85ad21",
        "rest/params.bin":
            "cb32562d8a04653411c9d09f133b1297cf51917b843fc646ee407c836f5652ab",
        "rest/state.json":
            "eb7972ec0c250ce21bedab856bda9c50a9d63f8828407d8f6432e49e283b9e01",
    },
    "plr_robust": {
        "part/buffer.txt":
            "f872023cac99617b990edf68f5dda742ef70ec16abb383d41a6dba3152c37228",
        "part/metrics.jsonl":
            "33da9b4e63754c8b093e36814b0c29998d8630daab33c637223dc7d61f7a9faf",
        "part/params.bin":
            "af746d1bdc88df7dd00bafc601de385e08375bffdde5eba6a87db126a46f74ac",
        "part/state.json":
            "8c3280b2908e6bdc09e950cb81da604f2b7ffb4ea148c649e1ae09fc26e10a7c",
        "rest/buffer.txt":
            "75d47444f0c1a59210745c4d3b3ad0f7dd7a73ba1f070d225e27f65951766106",
        "rest/metrics.jsonl":
            "e30df7e00ed8bca3a8b148bd8315e574c882e9682ac6a9a5c5fa2cb2e4987556",
        "rest/params.bin":
            "28677624b281d001061dd45fa6837356c01200a5d2f895ce819d2bc4754e0f08",
        "rest/state.json":
            "1e005831c7105f3d9dcb1fea7b982aee168766731c3da51007bda63d89d99633",
    },
}

# The default (paper-size) config trained for 4 cycles into one directory.
# At PAPER_SEED, plr runs new, replay, replay, new and accel runs new,
# replay, mutate, new, so replay and mutation both train on B = 8,192.
PAPER_GOLDEN = {
    "accel": {
        "buffer.txt":
            "f3266701cc6d448c663c4c70270fca62fa117e1cea4de6c023e1cf0a3d9f5b65",
        "metrics.jsonl":
            "d442f8d0ac7d6354d7c56dbb9b6677912044d90556ed4c8d09057193cc4ab440",
        "params.bin":
            "616cebe0567edbbdfd3b23393e322b28a35a87dd997602f30bb0279bc5814112",
        "state.json":
            "641605e6cdc67819f689aaa03779b45e77a03f945f7993aa1807518568de65b5",
    },
    "dr": {
        "metrics.jsonl":
            "d4880566f3f626ddd89b8230271c5789e34c4d38652ac2dc94d8494cc1829a40",
        "params.bin":
            "d0e425651e862f3d0988c88fce3595297fc25399d50015b64b27678f139988d7",
        "state.json":
            "cb33d9085b0ff879313d97ad78d728783ac379b0b17868a905c43fba4299511e",
    },
    "paired": {
        "adversary.bin":
            "dc20aacf09a207e8cf6c3d23ddf2a4d702f609b4384a722cb7952d88472aff38",
        "antagonist.bin":
            "0f92f225ff8b7c18df7c0e75f5cf86fa7edd87c97d713076d54442756c503597",
        "metrics.jsonl":
            "b5fd600d381f6bae1b31856bbdbaf727c7fcfe440018dc902b31179c9c9962d2",
        "params.bin":
            "943f6985512a076a48e83f6dbe2ad4c555caf0797e7843746bd7007fb40ae5e4",
        "state.json":
            "80236c46ca0de345ac69b858d03c4fae5ca88e2683c3654ab5011a3bae50e40c",
    },
    "plr": {
        "buffer.txt":
            "b588727ac32d8112489bfe9c9c42f3827f965423c7be0e6416b8a6de14c99dfe",
        "metrics.jsonl":
            "a0c001e051430c53e89bb616a31d56cf6109b1b8da88b1f83fe8531891dc6e40",
        "params.bin":
            "220e02fa4329c63f1835bf6d9a8c87adec099a3a5e275c5d8b2db1819625921b",
        "state.json":
            "abf9e34be56e26a43c064f18dd0588c1ec1f604e359f437fba6fb84934c2e2a3",
    },
    "plr_robust": {
        "buffer.txt":
            "7076039dacb1ca6833552b2901d9bbd692ab87299ea5aa07dc29102121402ebf",
        "metrics.jsonl":
            "73c498a3d315196d0f25c4fe6d851487de21d24ded18e159afc835de0e810cca",
        "params.bin":
            "825a134a092a864b7731ed8842c869e2ec44633635e85f7ab8214d404ef6ddec",
        "state.json":
            "a9ae22c41d5be62bdc6bb6fe9690803ee4b311e36c2822395293e19d3f0552fd",
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


def _digests(out_dir, prefix="") -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[prefix + name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_case(case: str, root) -> dict:
    cfg = golden_config(case)
    part, rest = os.path.join(root, "part"), os.path.join(root, "rest")
    train(cfg, seed=SEED, out_dir=part, max_cycles=3)
    resume_run(os.path.join(part, "state.json"), out_dir=rest)
    return {**_digests(part, "part/"), **_digests(rest, "rest/")}


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


def paper_config(algorithm: str) -> UedConfig:
    """The default config, with the buffer counted full enough to replay
    after one cycle's 32 levels."""
    return UedConfig(algorithm=algorithm, min_fill_ratio=32 / 4000)


@pytest.mark.parametrize("algorithm", sorted(PAPER_GOLDEN))
def test_paper_size_golden_digests(tmp_path, algorithm):
    train(paper_config(algorithm), seed=PAPER_SEED, out_dir=str(tmp_path), max_cycles=4)
    got = _digests(str(tmp_path))
    assert got == PAPER_GOLDEN[algorithm], (
        f"on {platform()}:\n" + json.dumps(got, indent=4, sort_keys=True))


# The paper-size accel run of PAPER_GOLDEN, its buffer swapped for a full one
# of 4,000 distinct random levels at seeded scores and max_return extras, then
# resumed for 5 cycles (new, new, new, replay, mutate), so that both insert
# paths replace minimum-score entries of a full buffer.
FULL_BUFFER_CYCLES = 5
FULL_BUFFER_GOLDEN = {
    "buffer.txt":
        "80f7ac60181c13aa40ed8c8c889cb1ea5132820d7b4c77307827314062f901fb",
    "metrics.jsonl":
        "d9c9e0110b9059bfcf7af957c140747f295a708b3afa3f5b987a7d948c1c5c80",
    "params.bin":
        "b30ac742c6c221a1c3c76ce59b0f223f77b08a1279ff9b8eb54a07364c097dc2",
    "state.json":
        "e60febab2f97ebfeeacb7b4910162c9d06a553ad238ca6d8a3224e1bf8802ca1",
}


def full_buffer(capacity: int, episode_counter: int) -> LevelBuffer:
    """``capacity`` distinct random 13x13 levels, never touched, with seeded
    scores and ``max_return`` extras."""
    gen = rng.generator(rng.key_from_seed(PAPER_SEED))
    levels = {}
    while len(levels) < capacity:
        level = generate_random_level(gen, 13, 13, 25)
        levels.setdefault(level.key(), level)
    return LevelBuffer(capacity=capacity, levels=tuple(levels.values()),
                       scores=gen.random(capacity),
                       last_touched=np.zeros(capacity, dtype=np.int64),
                       extras=tuple({"max_return": float(r)} for r in gen.random(capacity)),
                       episode_counter=episode_counter)


def test_full_buffer_golden_digests(tmp_path):
    part, rest = tmp_path / "part", tmp_path / "rest"
    train(paper_config("accel"), seed=PAPER_SEED, out_dir=str(part), max_cycles=4)
    payload = json.loads((part / "state.json").read_text())
    seeded = full_buffer(4000, buffer_from_text(payload["buffer"]).episode_counter)
    payload["buffer"] = buffer_to_text(seeded)
    full = tmp_path / "full.json"
    full.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    res = resume_run(full, out_dir=str(rest), max_cycles=FULL_BUFFER_CYCLES)
    assert [m["cycle_type"] for m in res.metrics] == ["new"] * 3 + ["replay", "mutate"]
    kept = {level.key() for level in seeded.levels}
    assert res.buffer.size == 4000
    assert sum(level.key() not in kept for level in res.buffer.levels) > 0
    got = _digests(str(rest))
    assert got == FULL_BUFFER_GOLDEN, (
        f"on {platform()}:\n" + json.dumps(got, indent=4, sort_keys=True))
