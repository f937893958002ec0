"""Maze mechanics: observations, movement, rewards, BFS, generation,
mutation, the text format, rendering, and the editor environment."""

import heapq
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ued_forge import rng as R
from ued_forge.env_core import EnvError
from ued_forge.maze import (
    A_FORWARD,
    A_LEFT,
    A_RIGHT,
    CH_EMPTY,
    CH_GOAL,
    CH_WALL,
    DOWN,
    LEFT,
    RIGHT,
    UP,
    EditorState,
    LevelError,
    MazeEditorEnv,
    MazeEnv,
    MazeLevel,
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

FWD = {UP: (-1, 0), RIGHT: (0, 1), DOWN: (1, 0), LEFT: (0, -1)}


def rand_level(key, width=13, height=13, max_walls=25):
    return generate_random_level(R.generator(key), width, height, max_walls)


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

def reference_view(level, agent_pos, agent_dir, view_size):
    """Independent re-derivation: the agent sits mid-column of the rear row
    looking along the rows; each view cell maps to
    agent + forward_steps * fwd + right_steps * right."""
    fwd = FWD[agent_dir]
    right = FWD[(agent_dir + 1) % 4]
    view = np.zeros((view_size, view_size, 3), dtype=np.float32)
    for vr in range(view_size):
        for vc in range(view_size):
            f = (view_size - 1) - vr
            s = vc - view_size // 2
            r = agent_pos[0] + f * fwd[0] + s * right[0]
            c = agent_pos[1] + f * fwd[1] + s * right[1]
            if not (0 <= r < level.height and 0 <= c < level.width):
                cls = CH_WALL
            elif (r, c) == level.goal_pos:
                cls = CH_GOAL
            elif level.walls[r, c]:
                cls = CH_WALL
            else:
                cls = CH_EMPTY
            view[vr, vc, cls] = 1.0
    return view


def test_observation_hand_case_facing_up():
    level = parse_level("#..\n.^.\n..G\n")
    env = MazeEnv(view_size=5)
    state = env.reset_to_level(level, None)
    obs = env.observe(state)
    assert np.array_equal(obs.extras, np.eye(4, dtype=np.float32)[UP])
    # agent at view (4, 2); wall (0,0) is one step forward, one left -> (3, 1)
    assert obs.image[4, 2, CH_EMPTY] == 1.0
    assert obs.image[3, 1, CH_WALL] == 1.0
    # goal is behind the agent: nowhere in the forward view
    assert obs.image[:, :, CH_GOAL].sum() == 0.0
    # everything left of column 0 or beyond row 0 of the world reads as wall
    assert obs.image[4, 0, CH_WALL] == 1.0  # (1, -1) out of bounds
    assert obs.image[0, 2, CH_WALL] == 1.0  # (-3, 1) out of bounds


def test_observation_hand_case_facing_right():
    level = parse_level("#..\n.>.\n..G\n")
    env = MazeEnv(view_size=5)
    obs = env.observe(env.reset_to_level(level, None))
    assert np.array_equal(obs.extras, np.eye(4, dtype=np.float32)[RIGHT])
    # goal (2,2): one forward step, one right step -> view (3, 3)
    assert obs.image[3, 3, CH_GOAL] == 1.0
    # wall (0,0): one back... not visible; one-hot must still be a partition
    assert np.array_equal(obs.image.sum(axis=2), np.ones((5, 5), np.float32))


def test_observation_matches_reference_on_fuzzed_levels():
    env = MazeEnv(view_size=5)
    for i in range(80):
        level = rand_level(R.fold_in(R.key_from_seed(21), i), 7, 6, 12)
        state = env.reset_to_level(level, None)
        obs = env.observe(state)
        expected = reference_view(level, level.agent_pos, level.agent_dir, 5)
        assert np.array_equal(obs.image, expected), f"level {i}"
        assert np.array_equal(obs.extras, np.eye(4, dtype=np.float32)[level.agent_dir])


def test_encoded_observation_tables_are_read_only():
    # A write into the extras once changed every later encoding of that
    # direction, MazeBatch.encode included.
    env = MazeEnv(view_size=3)
    state = env.reset_to_level(parse_level(">.G\n"), None)
    _, extra = env.observe(state)
    with pytest.raises(ValueError, match="read-only"):
        extra[:] = 7
    _, extras = env.batch([state]).encode()
    assert extras.tolist() == [[0.0, 1.0, 0.0, 0.0]]


def test_observation_one_hot_partition():
    env = MazeEnv()
    for i in range(20):
        level = rand_level(R.fold_in(R.key_from_seed(33), i))
        obs = env.observe(env.reset_to_level(level, None))
        assert np.array_equal(
            obs.image.sum(axis=2), np.ones((5, 5), dtype=np.float32)
        )


# ---------------------------------------------------------------------------
# Movement and rewards
# ---------------------------------------------------------------------------

def test_rotation_actions():
    level = parse_level("...\n.^.\n..G\n")
    env = MazeEnv()
    state = env.reset_to_level(level, None)
    s_left = env.step(state, A_LEFT, None).state
    assert s_left.agent_dir == LEFT and s_left.agent_pos == (1, 1)
    s_right = env.step(state, A_RIGHT, None).state
    assert s_right.agent_dir == RIGHT
    # four rights come back around
    s = state
    for _ in range(4):
        s = env.step(s, A_RIGHT, None).state
    assert s.agent_dir == state.agent_dir


def test_forward_blocked_by_wall_and_border():
    env = MazeEnv()
    level = parse_level("#..\n^..\n..G\n")
    state = env.reset_to_level(level, None)
    res = env.step(state, A_FORWARD, None)  # wall ahead
    assert res.state.agent_pos == (1, 0)
    assert res.state.timestep == 1  # the step still costs time
    level2 = parse_level("<..\n...\n..G\n")
    state2 = env.reset_to_level(level2, None)
    res2 = env.step(state2, A_FORWARD, None)  # border ahead
    assert res2.state.agent_pos == (0, 0)


def test_goal_reward_formula():
    level = parse_level("v..\nG..\n...\n")
    env = MazeEnv(max_steps=250)
    state = env.reset_to_level(level, None)
    res = env.step(state, A_FORWARD, None)
    assert res.done
    assert res.reward == pytest.approx(1.0 - 0.9 * (1 / 250), abs=0)
    # with a detour the timestep grows and the reward shrinks
    state = env.reset_to_level(level, None)
    mid = env.step(state, A_LEFT, None)
    mid = env.step(mid.state, A_RIGHT, None)
    res2 = env.step(mid.state, A_FORWARD, None)
    assert res2.done
    assert res2.reward == pytest.approx(1.0 - 0.9 * (3 / 250), abs=0)
    assert res2.reward < res.reward


def test_timeout_gives_zero_reward():
    level = parse_level("^..\n...\nG..\n")
    env = MazeEnv(max_steps=3)
    state = env.reset_to_level(level, None)
    for i in range(3):
        res = env.step(state, A_LEFT, None)
        state = res.state
    assert res.done and res.reward == 0.0
    assert state.timestep == 3


def test_step_after_done_raises():
    level = parse_level("v..\nG..\n...\n")
    env = MazeEnv(max_steps=5)
    state = env.reset_to_level(level, None)
    res = env.step(state, A_FORWARD, None)
    assert res.done
    with pytest.raises(EnvError):
        env.step(res.state, A_FORWARD, None)


def test_reaching_goal_exactly_at_horizon_still_pays():
    # goal reached on the final allowed step: goal reward wins over timeout
    level = parse_level("v..\nG..\n...\n")
    env = MazeEnv(max_steps=1)
    state = env.reset_to_level(level, None)
    res = env.step(state, A_FORWARD, None)
    assert res.done
    assert res.reward == pytest.approx(1.0 - 0.9 * (1 / 1), abs=0)


def test_invalid_action_raises():
    env = MazeEnv()
    level = parse_level("^.G\n...\n...\n")
    state = env.reset_to_level(level, None)
    with pytest.raises(EnvError):
        env.step(state, 3, None)


def test_maze_env_rejects_max_steps_below_one():
    # Such an env would reset, and then refuse every step as complete.
    with pytest.raises(ValueError, match="max_steps"):
        MazeEnv(max_steps=0)


# ---------------------------------------------------------------------------
# BFS distances and the greedy oracle
# ---------------------------------------------------------------------------

def dijkstra_distances(level):
    """Brute-force alternative: heap-based uniform-cost search from the goal."""
    h, w = level.height, level.width
    dist = np.full((h, w), -1, dtype=np.int32)
    pq = [(0, level.goal_pos)]
    seen = set()
    while pq:
        d, (r, c) = heapq.heappop(pq)
        if (r, c) in seen:
            continue
        seen.add((r, c))
        dist[r, c] = d
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and not level.walls[nr, nc] \
                    and (nr, nc) not in seen:
                heapq.heappush(pq, (d + 1, (nr, nc)))
    return dist


def test_bfs_hand_cases():
    level = parse_level("^..\n...\n..G\n")
    d = shortest_path_distances(level)
    expected = np.array([[4, 3, 2], [3, 2, 1], [2, 1, 0]], dtype=np.int32)
    assert np.array_equal(d, expected)

    blocked = parse_level("^#G\n.#.\n.#.\n")
    db = shortest_path_distances(blocked)
    assert db[0, 2] == 0
    assert db[0, 0] == -1 and db[2, 0] == -1  # left side sealed off
    assert db[0, 1] == -1  # walls are unreachable by definition
    assert not is_solvable(blocked)


def test_bfs_matches_dijkstra_small_fuzz():
    for i in range(60):
        level = rand_level(R.fold_in(R.key_from_seed(77), i), 7, 7, 20)
        assert np.array_equal(shortest_path_distances(level), dijkstra_distances(level))


def test_oracle_reaches_goal_in_optimal_forward_moves():
    env = MazeEnv(max_steps=250)
    checked = 0
    for i in range(120):
        level = rand_level(R.fold_in(R.key_from_seed(99), i), 9, 9, 20)
        dist = shortest_path_distances(level)
        if dist[level.agent_pos] < 1:
            continue
        checked += 1
        state = env.reset_to_level(level, None)
        forwards = 0
        while True:
            a = greedy_oracle_action(dist, state.agent_pos, state.agent_dir)
            forwards += a == A_FORWARD
            res = env.step(state, a, None)
            state = res.state
            if res.done:
                assert res.reward > 0, "oracle must solve solvable levels"
                break
        assert forwards == dist[level.agent_pos]
    assert checked > 60


def test_oracle_rejects_goal_or_unreachable_cell():
    level = parse_level("^#G\n.#.\n.#.\n")
    dist = shortest_path_distances(level)
    with pytest.raises(ValueError):
        greedy_oracle_action(dist, (0, 0), UP)  # unreachable start
    with pytest.raises(ValueError):
        greedy_oracle_action(dist, (0, 2), UP)  # already on the goal


# ---------------------------------------------------------------------------
# Generation and mutation
# ---------------------------------------------------------------------------

def test_generate_random_level_invariants():
    dirs = set()
    for i in range(300):
        level = rand_level(R.fold_in(R.key_from_seed(5), i), 9, 7, 15)
        assert level.width == 9 and level.height == 7
        assert int(level.walls.sum()) <= 15
        assert level.agent_pos != level.goal_pos
        assert not level.walls[level.agent_pos]
        assert not level.walls[level.goal_pos]
        dirs.add(level.agent_dir)
    assert dirs == {0, 1, 2, 3}


def test_generate_wall_count_spans_range():
    counts = set()
    for i in range(400):
        level = rand_level(R.fold_in(R.key_from_seed(6), i), 6, 6, 5)
        counts.add(int(level.walls.sum()))
    assert counts == set(range(6))  # 0..max_walls inclusive


def test_generate_rejects_bad_max_walls():
    with pytest.raises(ValueError):
        generate_random_level(R.generator(1), 3, 3, 7)  # needs 2 free cells


def test_mutate_level_invariants():
    for i in range(200):
        key = R.fold_in(R.key_from_seed(8), i)
        base = rand_level(R.fold_in(key, 0), 8, 8, 12)
        mutant = mutate_level(base, R.generator(R.fold_in(key, 1)), n_edits=6)
        assert mutant.width == base.width and mutant.height == base.height
        assert mutant.agent_pos != mutant.goal_pos
        assert not mutant.walls[mutant.agent_pos]
        assert not mutant.walls[mutant.goal_pos]


def test_mutate_level_changes_something_eventually():
    base = rand_level(R.key_from_seed(10), 8, 8, 10)
    changed = 0
    for i in range(50):
        mutant = mutate_level(base, R.generator(R.fold_in(3, i)), n_edits=8)
        changed += mutant != base
    assert changed > 40


def test_mutate_deterministic_for_fixed_stream():
    base = rand_level(R.key_from_seed(11), 8, 8, 10)
    a = mutate_level(base, R.generator(R.key_from_seed(12)), n_edits=20)
    b = mutate_level(base, R.generator(R.key_from_seed(12)), n_edits=20)
    assert a == b


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def test_format_hand_case():
    level = parse_level(".G.\n#^#\n...\n")
    assert level.goal_pos == (0, 1)
    assert level.agent_pos == (1, 1)
    assert level.agent_dir == UP
    assert level.walls[1, 0] and level.walls[1, 2]
    assert format_level(level) == ".G.\n#^#\n...\n"


def test_agent_chars_cover_directions():
    for ch, direction in zip("^>v<", (UP, RIGHT, DOWN, LEFT)):
        level = parse_level(f"{ch}.G\n...\n")
        assert level.agent_dir == direction


def test_text_round_trip_fuzz():
    for i in range(150):
        level = rand_level(R.fold_in(R.key_from_seed(13), i), 6, 9, 18)
        text = format_level(level)
        again = parse_level(text)
        assert again == level
        assert format_level(again) == text


@pytest.mark.parametrize(
    "bad",
    [
        "",                      # empty
        "^.G\n..\n",             # ragged
        "..G\n...\n",            # no agent
        "^.>\nG..\n",            # two agents
        "^..\n...\n",            # no goal
        "^GG\n...\n",            # two goals
        "^.G\n..x\n",            # unknown character
    ],
)
def test_parse_level_rejects_malformed(bad):
    with pytest.raises(LevelError):
        parse_level(bad)


def floor(text):
    """Bool walls from rows of ``#`` and ``.``, one string per row."""
    return np.array([[ch == "#" for ch in row] for row in text.split()])


@pytest.mark.parametrize(
    "walls, agent_pos, agent_dir, goal_pos, message",
    [
        (np.zeros(6, dtype=np.bool_), (0, 0), UP, (0, 1), "walls must be 2-D bool"),
        (np.zeros((2, 3), dtype=np.int8), (0, 0), UP, (0, 1), "walls must be 2-D bool"),
        (np.zeros((0, 3), dtype=np.bool_), (0, 0), UP, (0, 1), "non-positive dimensions 3x0"),
        (floor("... ..."), (2, 0), UP, (0, 1), r"agent position \(2, 0\) out of bounds"),
        (floor("... ..."), (0, -1), UP, (0, 1), r"agent position \(0, -1\) out of bounds"),
        (floor("... ..."), (0, 0), UP, (0, 3), r"goal position \(0, 3\) out of bounds"),
        (floor(".#. ..."), (0, 1), UP, (1, 1), r"agent position \(0, 1\) is a wall cell"),
        (floor(".#. ..."), (1, 1), UP, (0, 1), r"goal position \(0, 1\) is a wall cell"),
        (floor("... ..."), (1, 2), UP, (1, 2), "agent and goal positions coincide"),
        (floor("... ..."), (0, 0), 4, (0, 1), "agent_dir 4 outside 0..3"),
        (floor("... ..."), (0, 0), -1, (0, 1), "agent_dir -1 outside 0..3"),
    ],
    ids=["walls_1d", "walls_int", "walls_empty", "agent_row", "agent_col", "goal_col",
         "agent_on_wall", "goal_on_wall", "same_cell", "dir_4", "dir_minus_1"],
)
def test_level_construction_rejects_each_fault(walls, agent_pos, agent_dir, goal_pos, message):
    with pytest.raises(LevelError, match=message):
        MazeLevel(walls, agent_pos, agent_dir, goal_pos)


def test_level_takes_its_size_from_its_walls():
    level = MazeLevel(floor("... ..."), (0, 0), RIGHT, (1, 2))
    assert (level.width, level.height) == (3, 2)
    assert not level.walls.flags.writeable
    # No replace can build an invalid level, or give a size its walls lack.
    walls = level.walls.copy()
    walls[level.agent_pos] = True
    with pytest.raises(LevelError, match=r"agent position \(0, 0\) is a wall cell"):
        replace(level, walls=walls)
    with pytest.raises(LevelError, match=r"goal position \(1, 2\) out of bounds"):
        replace(level, walls=floor(".. .."))
    with pytest.raises(ValueError, match="width"):
        replace(level, width=5)
    assert (replace(level, walls=floor("... ... ...")).height, level.height) == (3, 2)


def reference_parse_level(text: str) -> MazeLevel:
    """The cell-by-cell scan that ``parse_level`` replaced, kept as its reference."""
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines:
        raise LevelError("empty level text")
    width = len(lines[0])
    height = len(lines)
    walls = np.zeros((height, width), dtype=np.bool_)
    agent_pos = agent_dir = goal_pos = None
    for r, line in enumerate(lines):
        if len(line) != width:
            raise LevelError(f"ragged row {r}: expected width {width}, got {len(line)}")
        for c, ch in enumerate(line):
            if ch == "#":
                walls[r, c] = True
            elif ch == ".":
                pass
            elif ch == "G":
                if goal_pos is not None:
                    raise LevelError("duplicate goal")
                goal_pos = (r, c)
            elif ch in "^>v<":
                if agent_pos is not None:
                    raise LevelError("duplicate agent")
                agent_pos = (r, c)
                agent_dir = "^>v<".index(ch)
            else:
                raise LevelError(f"bad character {ch!r} at row {r}, col {c}")
    if agent_pos is None:
        raise LevelError("missing agent")
    if goal_pos is None:
        raise LevelError("missing goal")
    return MazeLevel(walls, agent_pos, agent_dir, goal_pos)


def _parse_outcome(parse, text):
    try:
        level = parse(text)
    except LevelError as exc:
        return "LevelError", str(exc)
    assert all(type(v) is int for v in (*level.agent_pos, level.agent_dir, *level.goal_pos))
    return "level", level.key()


@settings(max_examples=250, deadline=None)
@given(data=st.data(), width=st.integers(1, 7), height=st.integers(1, 7))
def test_parse_level_matches_cell_scan(data, width, height):
    # A valid level's text, then at most one character substituted, deleted
    # or inserted: the byte parse must return the same level or raise the
    # same message as the reference scan.
    cells = [data.draw(st.sampled_from(".#")) for _ in range(width * height)]
    if width * height >= 2:
        agent, goal = data.draw(st.lists(st.integers(0, width * height - 1), min_size=2,
                                         max_size=2, unique=True))
        cells[agent], cells[goal] = data.draw(st.sampled_from("^>v<")), "G"
    text = "".join("".join(cells[r * width:(r + 1) * width]) + "\n" for r in range(height))
    i = data.draw(st.integers(0, len(text)))
    ch = data.draw(st.sampled_from(list(".#G^>v<\n") + ["x", "?", "é", "\r", " ", "\x00", "🙂"]))
    edit = data.draw(st.sampled_from(["none", "substitute", "delete", "insert"]))
    if edit == "substitute":
        text = text[:i] + ch + text[i + 1:]
    elif edit == "delete":
        text = text[:i] + text[i + 1:]
    elif edit == "insert":
        text = text[:i] + ch + text[i:]
    assert _parse_outcome(parse_level, text) == _parse_outcome(reference_parse_level, text)


def test_multi_level_round_trip(tmp_path):
    levels = [rand_level(R.fold_in(R.key_from_seed(14), i), 5, 5, 6) for i in range(7)]
    text = format_levels(levels)
    assert parse_levels(text) == levels
    path = tmp_path / "levels.txt"
    save_levels(levels, path)
    assert load_levels(path) == levels
    assert path.read_text(encoding="utf-8") == text


def test_load_levels_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "levels.txt"
    path.write_bytes(b"\xff\xfe#G\n")
    with pytest.raises(LevelError, match="UTF-8"):
        load_levels(path)


def test_parse_levels_single_block():
    text = "^.G\n...\n"
    assert parse_levels(text) == [parse_level(text)]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_render_shapes_and_palette():
    level = parse_level(".G.\n#^#\n...\n")
    img = render_level(level, cell_px=8)
    assert img.shape == (24, 24, 3)
    assert img.dtype == np.uint8
    colors = {tuple(c) for c in img.reshape(-1, 3)}
    assert (0, 204, 0) in colors      # goal
    assert (204, 0, 0) in colors      # agent
    assert (127, 127, 127) in colors  # wall
    assert (0, 0, 0) in colors        # floor
    assert colors <= {(0, 204, 0), (204, 0, 0), (127, 127, 127), (0, 0, 0)}
    # goal cell is a solid block
    assert np.all(img[0:8, 8:16] == (0, 204, 0))
    # agent cell mixes triangle and floor
    agent_cell = img[8:16, 8:16]
    assert ((agent_cell == (204, 0, 0)).all(axis=2)).any()
    assert ((agent_cell == (0, 0, 0)).all(axis=2)).any()


def test_render_agent_triangle_rotates():
    base = parse_level("^.G\n...\n")
    imgs = {}
    for ch in "^>v<":
        level = parse_level(f"{ch}.G\n...\n")
        imgs[ch] = render_level(level, cell_px=9)
    up, right = imgs["^"][0:9, 0:9], imgs[">"][0:9, 0:9]
    assert not np.array_equal(up, right)
    # rotating the up sprite a quarter turn clockwise gives the right sprite
    assert np.array_equal(np.rot90(up, k=-1), right)


def test_write_ppm(tmp_path):
    level = parse_level(".G\n^.\n")
    img = render_level(level, cell_px=4)
    path = tmp_path / "maze.ppm"
    write_ppm(img, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n8 8\n255\n")
    header_len = len(b"P6\n8 8\n255\n")
    assert len(raw) == header_len + 8 * 8 * 3
    body = np.frombuffer(raw[header_len:], dtype=np.uint8).reshape(8, 8, 3)
    assert np.array_equal(body, img)


# ---------------------------------------------------------------------------
# Editor environment
# ---------------------------------------------------------------------------

def test_editor_episode_structure():
    env = MazeEditorEnv(width=5, height=5, wall_budget=3)
    assert env.num_actions == 25
    assert env.episode_steps == 5
    state = env.reset_to_level(empty_level(5, 5), None)
    obs = env.observe(state)
    assert obs.image.shape == (5, 5, 4)
    assert obs.extras[0] == 0.0
    gen = R.generator(R.key_from_seed(15))
    done_flags = []
    for i in range(5):
        res = env.step(state, (i * 7) % 25, gen)
        state = res.state
        done_flags.append(res.done)
        assert res.reward == 0.0
    assert done_flags == [False, False, False, False, True]
    with pytest.raises(EnvError):
        env.step(state, 0, gen)


def test_editor_goal_then_agent_then_walls():
    env = MazeEditorEnv(width=4, height=4, wall_budget=2)
    state = env.reset_to_level(empty_level(4, 4), None)
    gen = R.generator(R.key_from_seed(16))
    res = env.step(state, 5, gen)  # goal to (1,1)
    assert res.state.level.goal_pos == (1, 1)
    res = env.step(res.state, 10, gen)  # agent to (2,2)
    assert res.state.level.agent_pos == (2, 2)
    res = env.step(res.state, 3, gen)  # wall on (0,3)
    assert res.state.level.walls[0, 3]
    res = env.step(res.state, 3, gen)  # toggle it back off
    assert not res.state.level.walls[0, 3]
    assert res.done


def test_editor_placement_clears_wall_and_collisions_resample():
    env = MazeEditorEnv(width=4, height=4, wall_budget=2)
    canvas = parse_level("#..G\n....\n....\n^...\n")
    state = env.reset_to_level(canvas, None)
    gen = R.generator(R.key_from_seed(17))
    res = env.step(state, 0, gen)  # goal onto the wall cell clears it
    assert res.state.level.goal_pos == (0, 0)
    assert not res.state.level.walls[0, 0]
    # agent placement targeting the goal cell must land elsewhere
    res = env.step(res.state, 0, gen)
    assert res.state.level.agent_pos != (0, 0)
    # wall toggles on agent or goal cells are ignored
    agent_cell = res.state.level.agent_pos[0] * 4 + res.state.level.agent_pos[1]
    res2 = env.step(res.state, agent_cell, gen)
    assert not res2.state.level.walls[res.state.level.agent_pos]


def test_editor_observation_classes_and_progress():
    env = MazeEditorEnv(width=4, height=4, wall_budget=2)
    canvas = parse_level("#..G\n....\n....\n^...\n")
    state = env.reset_to_level(canvas, None)
    obs = env.observe(state)
    assert obs.image[0, 0, 1] == 1.0  # wall channel
    assert obs.image[0, 3, 2] == 1.0  # goal channel
    assert obs.image[3, 0, 3] == 1.0  # agent channel
    assert obs.image[1, 1, 0] == 1.0  # empty channel
    assert np.array_equal(obs.image.sum(axis=2), np.ones((4, 4), np.float32))
    gen = R.generator(R.key_from_seed(18))
    res = env.step(state, 6, gen)
    assert env.observe(res.state).extras[0] == pytest.approx(1 / 4)


@pytest.mark.parametrize("width, height", [(0, 5), (5, 0), (-1, -2), (1, 1)])
def test_editor_rejects_a_canvas_without_two_cells(width, height):
    with pytest.raises(ValueError, match="width and height"):
        MazeEditorEnv(width=width, height=height)


def test_editor_rejects_a_negative_wall_budget():
    with pytest.raises(ValueError, match="wall_budget"):
        MazeEditorEnv(wall_budget=-3)
    assert MazeEditorEnv(wall_budget=0).episode_steps == 2


def test_editor_rejects_wrong_canvas_size():
    env = MazeEditorEnv(width=5, height=5, wall_budget=2)
    with pytest.raises(LevelError):
        env.reset_to_level(empty_level(4, 4), None)
    with pytest.raises(LevelError, match="canvas is 4x4"):
        env.step(EditorState(empty_level(4, 4), 2), 3, R.generator(1))


def test_empty_level_is_valid_and_solvable():
    level = empty_level(6, 4)
    assert level.width == 6 and level.height == 4
    assert not level.walls.any()
    assert is_solvable(level)
