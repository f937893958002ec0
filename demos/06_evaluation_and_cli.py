"""
Evaluation sweeps and the command line
======================================

Fixed level sets, seeded episodes, mean and interquartile-mean aggregates.
The same machinery backs `ued-forge eval`.
"""

import subprocess
import sys

from ued_forge import MazeEnv, evaluate, oracle_policy
from ued_forge.evaluation import holdout_levels, holdout_names
from ued_forge.rng import key_from_seed

print("packaged holdout sets:", holdout_names())

env = MazeEnv(max_steps=250, view_size=5)
levels = holdout_levels("eval_13x13")

# the oracle is the skyline: it solves every solvable level optimally
report = evaluate(env, oracle_policy(), levels, episodes=3, key=key_from_seed(0))
for line in report.summary_lines():
    print(line)

# the same sweep via the CLI; a trained checkpoint path works in place of
# 'oracle', and --sample switches the network policy off greedy argmax
from ued_forge.evaluation import _HOLDOUT_DIR  # packaged level files live here

cmd = [sys.executable, "-m", "ued_forge.cli", "eval",
       "--ckpt", "oracle",
       "--levels", f"{_HOLDOUT_DIR}/easy_9x9.txt",
       "--episodes", "2"]
print("\n$", " ".join(cmd[1:]))
out = subprocess.run(cmd, capture_output=True, text=True)
if out.returncode != 0:
    sys.exit(f"ued-forge eval exited with {out.returncode}:\n{out.stderr}")
print(out.stdout.strip())

# training and rendering follow the same shape:
#   ued-forge train --config run.json --seed 0 --out runs/plr
#   ued-forge render --levels runs/plr/buffer.txt --out imgs --cell-px 8
