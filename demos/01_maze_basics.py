"""
Mazes from text, stepped by hand
================================

Parse a level, query the shortest-path oracle, walk the agent to the goal,
and dump a PPM image of the layout.
"""

import numpy as np

from ued_forge import (
    A_FORWARD,
    MazeEnv,
    format_level,
    generate_random_level,
    greedy_oracle_action,
    parse_level,
    render_level,
    shortest_path_distances,
    write_ppm,
)
from ued_forge.rng import generator, key_from_seed

LEVEL_TEXT = (
    ".....G\n"
    ".####.\n"
    ".#....\n"
    ".#.###\n"
    ".#....\n"
    ">....#\n"
)

level = parse_level(LEVEL_TEXT)
print("level, as stored:")
print(format_level(level))

# distance-to-goal for every floor cell; -1 marks walls and unreachable cells
dist = shortest_path_distances(level)
print("distance field:")
print(dist)
print("start is", dist[level.agent_pos], "moves from the goal")

# the oracle picks left/right/forward from the distance field; follow it
env = MazeEnv(max_steps=50, view_size=5)
rng = generator(key_from_seed(0))
state = env.reset_to_level(level, rng)
total, steps = 0.0, 0
while True:
    action = greedy_oracle_action(dist, state.agent_pos, state.agent_dir)
    state, reward, done = env.step(state, action, rng)
    total += reward
    steps += 1
    if done:
        break
print(f"oracle finished in {steps} steps, return {total:.3f}")

# observations are egocentric: a view_size x view_size window of one-hot
# cell classes plus a 4-long extra vector (direction one-hot), computed
# from a state when asked for
image, extra = env.observe(state)
print("observation image", image.shape, "extras", extra)

# random level generation draws wall count, then wall cells, then the rest
fresh = generate_random_level(generator(key_from_seed(7)), 9, 9, max_walls=12)
print("a random 9x9 level:")
print(format_level(fresh))

write_ppm(render_level(fresh, cell_px=16), "random_level.ppm")
print("wrote random_level.ppm")
