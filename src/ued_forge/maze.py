"""Grid-maze environments, level generation/mutation, and level tooling.

Two environments share the :class:`~ued_forge.env_core.UnderspecifiedEnv`
contract:

* :class:`MazeEnv` — a partially observable navigation task. A level fixes
  the wall layout, the agent's start cell/direction, and the goal cell. The
  agent turns left/right or moves forward; reaching the goal at step ``t``
  pays ``1 - 0.9 * t / max_steps`` and ends the episode; running out of time
  ends it with reward 0. The 250-step limit and the reward shape follow the
  usual gridworld convention; both are configurable.
* :class:`MazeEditorEnv` — constructs a maze one atomic edit at a time
  (used by adversary policies that *design* levels). Edit 0 places the goal,
  edit 1 places the agent (direction drawn uniformly), and every subsequent
  edit toggles a wall; edits targeting the agent/goal cells are no-ops in
  the wall phase. Rewards are always 0 here; training drivers inject any
  level-quality signal externally.

Observations are agent-centric: a ``view_size x view_size`` one-hot window
(channels: empty / wall-or-out-of-bounds / goal) rotated so the facing
direction points up, with the agent on the middle column of the rear row,
plus the absolute direction. This is a self-contained stand-in for the
classic gridworld encoding; exactly one channel is active per cell. A view
is one gather from the level's class grid, which is framed by enough wall
cells that no read needs a bounds check.

:class:`MazeBatch` is the array form of :class:`MazeEnv` that rollouts step:
N episodes as flat arrays (one-hot canvas, agent cell, direction, timestep,
goal), observed by one gather and advanced by one table lookup per row for
the turn or move. An action that ends an episode leaves its row as it was,
for :meth:`MazeEnv.step` (through any wrapper) to finish and reset.
:class:`MazeEditorBatch` is the array form of :class:`MazeEditorEnv`: it
toggles walls for all rows at once and leaves the placement edits and each
episode's final edit to :meth:`MazeEditorEnv.step`.

Also here: uniform level generation, atomic mutation, a breadth-first
shortest-path field (the oracle used for solvability and greedy optimal
play), deterministic RGB rendering to PPM, and a plain-text level format::

    #####
    #.>G#
    #####

``#`` wall, ``.`` floor, ``G`` goal, and one of ``^ > v <`` for the agent
facing up/right/down/left. Files may hold several levels separated by one
blank line (UTF-8, LF).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .env_core import EnvError, StepResult, UnderspecifiedEnv

# Directions, clockwise from up. _FORWARD[d] is the (row, col) step.
UP, RIGHT, DOWN, LEFT = 0, 1, 2, 3
_FORWARD = ((-1, 0), (0, 1), (1, 0), (0, -1))

# Actions.
A_LEFT, A_RIGHT, A_FORWARD = 0, 1, 2

# Observation channels.
CH_EMPTY, CH_WALL, CH_GOAL = 0, 1, 2

# Editor observation channels.
ECH_EMPTY, ECH_WALL, ECH_GOAL, ECH_AGENT = 0, 1, 2, 3

UNREACHABLE = -1

AGENT_CHARS = "^>v<"

_EYE3 = np.eye(3, dtype=np.float32)
_EYE4 = np.eye(4, dtype=np.float32)


class LevelError(EnvError):
    """Malformed level: invariant violation or unparseable text."""


@dataclass(frozen=True, eq=False)
class MazeLevel:
    """Free parameters of one maze instance.

    ``walls`` is a read-only bool array of shape ``(height, width)``;
    positions are ``(row, col)`` tuples. The agent and goal always sit on
    distinct floor cells.
    """

    width: int
    height: int
    walls: np.ndarray
    agent_pos: tuple[int, int]
    agent_dir: int
    goal_pos: tuple[int, int]
    # Padded class grids by border width, built on first observation.
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.walls.setflags(write=False)

    def key(self) -> tuple:
        """Hashable identity: bit-identical walls + agent + dir + goal."""
        return (
            self.width,
            self.height,
            self.walls.tobytes(),
            self.agent_pos,
            self.agent_dir,
            self.goal_pos,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, MazeLevel) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


def validate_level(level: MazeLevel) -> None:
    """Raise :class:`LevelError` unless ``level`` satisfies its invariants."""
    w, h = level.width, level.height
    if w <= 0 or h <= 0:
        raise LevelError(f"non-positive dimensions {w}x{h}")
    if level.walls.shape != (h, w) or level.walls.dtype != np.bool_:
        raise LevelError(
            f"walls must be bool ({h}, {w}), got {level.walls.dtype} {level.walls.shape}"
        )
    for name, (r, c) in (("agent", level.agent_pos), ("goal", level.goal_pos)):
        if not (0 <= r < h and 0 <= c < w):
            raise LevelError(f"{name} position {(r, c)} out of bounds")
        if level.walls[r, c]:
            raise LevelError(f"{name} position {(r, c)} is a wall cell")
    if level.agent_pos == level.goal_pos:
        raise LevelError("agent and goal positions coincide")
    if not 0 <= level.agent_dir < 4:
        raise LevelError(f"agent_dir {level.agent_dir} outside 0..3")


@dataclass(frozen=True)
class MazeState:
    level: MazeLevel
    agent_pos: tuple[int, int]
    agent_dir: int
    timestep: int


@dataclass(frozen=True)
class MazeObservation:
    """Forward-facing one-hot window plus the absolute facing direction."""

    view: np.ndarray  # (V, V, 3) float32, one-hot per cell
    direction: int


@lru_cache(maxsize=None)
def _view_offsets(view_size: int, row_len: int) -> np.ndarray:
    """(4, V, V) offsets from the agent's cell to each view cell, one table
    per facing direction, in a row-major grid whose rows hold ``row_len``
    cells. View row 0 is farthest ahead; the agent sits at (V-1, V//2)."""
    v = view_size
    vr, vc = np.mgrid[0:v, 0:v]
    fwd_steps = (v - 1) - vr
    right_steps = vc - v // 2
    tables = []
    for direction in range(4):
        fr, fc = _FORWARD[direction]
        rr, rc = _FORWARD[(direction + 1) % 4]
        drow = fwd_steps * fr + right_steps * rr
        dcol = fwd_steps * fc + right_steps * rc
        tables.append(drow * row_len + dcol)
    table = np.stack(tables)
    table.setflags(write=False)
    return table


def _class_grid(level: MazeLevel, border: int) -> np.ndarray:
    """``level`` as observation classes (``CH_*``), framed by ``border``
    wall cells on every side; cached on the level."""
    grid = level._grids.get(border)
    if grid is None:
        b = border
        grid = np.full((level.height + 2 * b, level.width + 2 * b), CH_WALL, dtype=np.uint8)
        grid[b:-b, b:-b] = np.where(level.walls, CH_WALL, CH_EMPTY)
        grid[level.goal_pos[0] + b, level.goal_pos[1] + b] = CH_GOAL
        grid.setflags(write=False)
        level._grids[border] = grid
    return grid


class MazeEnv(UnderspecifiedEnv):
    """Goal navigation over :class:`MazeLevel` instances.

    Actions: 0 turn left, 1 turn right, 2 move forward (blocked moves are
    no-ops). Dynamics and the initial state are deterministic, so the
    ``rng`` arguments are accepted but never consumed.
    """

    def __init__(self, max_steps: int = 250, view_size: int = 5):
        if view_size % 2 == 0 or view_size < 1:
            raise ValueError("view_size must be odd and positive")
        if max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        self.max_steps = max_steps
        self.view_size = view_size
        # Wide enough for the view and for a forward move off the level.
        self.border = max(view_size - 1, 1)

    @property
    def num_actions(self) -> int:
        return 3

    def reset_to_level(self, level: MazeLevel, rng=None):
        validate_level(level)
        state = MazeState(
            level=level,
            agent_pos=level.agent_pos,
            agent_dir=level.agent_dir,
            timestep=0,
        )
        return state, self.observe(state)

    def step(self, state: MazeState, action: int, rng=None) -> StepResult:
        if not 0 <= action < 3:
            raise EnvError(f"invalid maze action {action}")
        if state.timestep >= self.max_steps or state.agent_pos == state.level.goal_pos:
            raise EnvError("episode already complete; reset before stepping")
        pos, d = state.agent_pos, state.agent_dir
        if action == A_LEFT:
            d = (d - 1) % 4
        elif action == A_RIGHT:
            d = (d + 1) % 4
        else:
            level = state.level
            r = pos[0] + _FORWARD[d][0]
            c = pos[1] + _FORWARD[d][1]
            if 0 <= r < level.height and 0 <= c < level.width and not level.walls[r, c]:
                pos = (r, c)
        t = state.timestep + 1
        new_state = MazeState(state.level, pos, d, t)
        if pos == state.level.goal_pos:
            reward, done = 1.0 - 0.9 * (t / self.max_steps), True
        elif t >= self.max_steps:
            reward, done = 0.0, True
        else:
            reward, done = 0.0, False
        return StepResult(new_state, self.observe(new_state), reward, done)

    def observe(self, state: MazeState) -> MazeObservation:
        b = self.border
        grid = _class_grid(state.level, b)
        row_len = grid.shape[1]
        r, c = state.agent_pos
        view = _view_offsets(self.view_size, row_len)[state.agent_dir]
        cls = grid.take((r + b) * row_len + c + b + view)
        return MazeObservation(view=_EYE3.take(cls, axis=0), direction=state.agent_dir)

    def encode_observation(self, obs: MazeObservation):
        return obs.view, _EYE4[obs.direction]

    def batch(self, states) -> MazeBatch:
        return MazeBatch(self, states)


class MazeBatch:
    """Episodes of one :class:`MazeEnv` stepped together as arrays.

    Row ``e`` holds one episode: its level's padded class grid, one-hot, in
    row ``e`` of the float32 canvas ``cells`` (N, rows * row_len, 3), sized
    to the largest level; the agent's and the goal's cell (``at``, ``goal``)
    as indices into the flattened canvas; the direction, the timestep and the
    timestep that ends the episode (``dir``, ``t``, ``t_end``; ``t_end`` is 0
    for a row loaded at its goal). A view or a forward move reads at most
    ``env.border`` cells off the level, so every read stays inside the
    level's own padded grid: it needs no bounds check, and cells a larger
    level left past that grid are never read. See
    :meth:`UnderspecifiedEnv.batch` for the protocol.
    """

    # Indexed by direction * 3 + action: the direction after the action.
    _TURNED = np.array([(d + turn) % 4 for d in range(4) for turn in (-1, 1, 0)])

    def __init__(self, env: MazeEnv, states):
        self.env = env
        self._load(list(states))

    def _load(self, states: list) -> None:
        grids = [_class_grid(s.level, self.env.border) for s in states]
        self.rows = max((g.shape[0] for g in grids), default=0)
        self.row_len = max((g.shape[1] for g in grids), default=0)
        n = len(states)
        self.cells = np.tile(_EYE3[CH_WALL], (n, self.rows * self.row_len, 1))
        self._flat = self.cells.reshape(-1, 3)
        self._base = np.arange(n) * self.rows * self.row_len
        self._view = _view_offsets(self.env.view_size, self.row_len)
        # The canvas offset a step tries, by direction * 3 + action.
        ahead = (-self.row_len, 1, self.row_len, -1)
        self._moved = np.array([(0, 0, ahead[d]) for d in range(4)]).ravel()
        self.levels = [None] * n
        self.at, self.dir, self.t, self.t_end, self.goal = (
            np.zeros(n, dtype=np.intp) for _ in range(5))
        for e, state in enumerate(states):
            self.set_state(e, state)

    def _cell(self, e: int, rc: tuple[int, int]) -> int:
        b = self.env.border
        return self._base[e] + (rc[0] + b) * self.row_len + rc[1] + b

    def encode(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's observation as (images (N, V, V, 3), extras (N, 4))."""
        idx = np.take(self._view, self.dir, axis=0)
        idx += self.at[:, None, None]
        return np.take(self._flat, idx, axis=0), np.take(_EYE4, self.dir, axis=0)

    def step(self, actions: np.ndarray) -> np.ndarray:
        """Apply one action per row. Returns the mask of rows whose episode
        this action ends (goal reached or time up), which are left as they
        were; rows already complete or given an invalid action are in it
        too, so that :meth:`MazeEnv.step` rejects them."""
        actions = np.asarray(actions)
        k = self.dir * 3 + actions  # out of range only with an invalid action
        ahead = self.at + np.take(self._moved, k, mode="clip")
        at = np.where(self._flat[ahead, CH_WALL] > 0, self.at, ahead)
        t = self.t + 1
        ends = ((at == self.goal) | (t >= self.t_end)
                | (actions < 0) | (actions > A_FORWARD))
        live = ~ends
        np.copyto(self.at, at, where=live)
        np.copyto(self.dir, np.take(self._TURNED, k, mode="clip"), where=live)
        np.copyto(self.t, t, where=live)
        return ends

    def state(self, e: int) -> MazeState:
        b = self.env.border
        r, c = divmod(int(self.at[e] - self._base[e]), self.row_len)
        return MazeState(self.levels[e], (r - b, c - b), int(self.dir[e]), int(self.t[e]))

    def set_state(self, e: int, state: MazeState) -> None:
        """Load ``state`` into row ``e``."""
        level = state.level
        if level is not self.levels[e]:
            grid = _class_grid(level, self.env.border)
            h, w = grid.shape
            if h > self.rows or w > self.row_len:
                states = [self.state(i) for i in range(len(self.levels))]
                states[e] = state
                return self._load(states)
            self.cells[e].reshape(self.rows, self.row_len, 3)[:h, :w] = _EYE3[grid]
            self.levels[e] = level
            self.goal[e] = self._cell(e, level.goal_pos)
        self.at[e] = self._cell(e, state.agent_pos)
        self.dir[e] = state.agent_dir
        self.t[e] = state.timestep
        self.t_end[e] = 0 if state.agent_pos == level.goal_pos else self.env.max_steps


# ---------------------------------------------------------------------------
# Level generation and mutation
# ---------------------------------------------------------------------------

def empty_level(width: int = 13, height: int = 13) -> MazeLevel:
    """Wall-free level with the agent top-left and the goal bottom-right.

    Mostly useful as an editor canvas; both placements get overwritten by
    the first two edits.
    """
    if width * height < 2:
        raise LevelError("level needs at least two cells")
    walls = np.zeros((height, width), dtype=np.bool_)
    return MazeLevel(width, height, walls, (0, 0), UP, (height - 1, width - 1))


def generate_random_level(
    rng: np.random.Generator,
    width: int = 13,
    height: int = 13,
    max_walls: int = 25,
) -> MazeLevel:
    """Uniform random level: wall count uniform on [0, max_walls], then wall
    cells without replacement, then agent/goal on distinct free cells.

    Solvability is NOT guaranteed.
    """
    n_cells = width * height
    if not 0 <= max_walls < n_cells - 2:
        raise ValueError(f"max_walls {max_walls} outside [0, {n_cells - 2})")
    n_walls = int(rng.integers(0, max_walls + 1))
    walls = np.zeros((height, width), dtype=np.bool_)
    if n_walls:
        wall_cells = rng.choice(n_cells, size=n_walls, replace=False)
        walls.ravel()[wall_cells] = True
    free = np.flatnonzero(~walls.ravel())
    agent_cell, goal_cell = rng.choice(free, size=2, replace=False)
    return MazeLevel(
        width=width,
        height=height,
        walls=walls,
        agent_pos=(int(agent_cell) // width, int(agent_cell) % width),
        agent_dir=int(rng.integers(0, 4)),
        goal_pos=(int(goal_cell) // width, int(goal_cell) % width),
    )


def mutate_level(
    level: MazeLevel, rng: np.random.Generator, n_edits: int
) -> MazeLevel:
    """Apply ``n_edits`` atomic edits, each uniform over {toggle wall, move
    goal, move agent}. Wall toggles landing on the agent/goal cell re-sample
    the cell; moves land on uniform free cells, so level invariants hold.
    """
    walls = level.walls.copy()
    agent_pos, agent_dir, goal_pos = level.agent_pos, level.agent_dir, level.goal_pos
    w, h = level.width, level.height
    n_cells = w * h
    for _ in range(n_edits):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            while True:
                cell = int(rng.integers(0, n_cells))
                rc = (cell // w, cell % w)
                if rc != agent_pos and rc != goal_pos:
                    break
            walls[rc] = not walls[rc]
        elif kind == 1:
            candidates = np.flatnonzero(~walls.ravel())
            candidates = candidates[candidates != agent_pos[0] * w + agent_pos[1]]
            cell = int(rng.choice(candidates))
            goal_pos = (cell // w, cell % w)
        else:
            candidates = np.flatnonzero(~walls.ravel())
            candidates = candidates[candidates != goal_pos[0] * w + goal_pos[1]]
            cell = int(rng.choice(candidates))
            agent_pos = (cell // w, cell % w)
            agent_dir = int(rng.integers(0, 4))
    return MazeLevel(w, h, walls, agent_pos, agent_dir, goal_pos)


# ---------------------------------------------------------------------------
# Shortest paths
# ---------------------------------------------------------------------------

def shortest_path_distances(level: MazeLevel) -> np.ndarray:
    """Move-count distance to the goal from every cell, by breadth-first
    search over 4-connected floor cells (rotations are not counted).

    Wall cells and cells disconnected from the goal get :data:`UNREACHABLE`.
    """
    h, w = level.height, level.width
    dist = np.full((h, w), UNREACHABLE, dtype=np.int32)
    dist[level.goal_pos] = 0
    queue = deque([level.goal_pos])
    walls = level.walls
    while queue:
        r, c = queue.popleft()
        d = dist[r, c] + 1
        for dr, dc in _FORWARD:
            nr, nc = r + dr, c + dc
            if 0 <= nr < h and 0 <= nc < w and not walls[nr, nc] and dist[nr, nc] < 0:
                dist[nr, nc] = d
                queue.append((nr, nc))
    return dist


def is_solvable(level: MazeLevel) -> bool:
    return shortest_path_distances(level)[level.agent_pos] != UNREACHABLE


def greedy_oracle_action(
    distances: np.ndarray, agent_pos: tuple[int, int], agent_dir: int
) -> int:
    """Action of the greedy distance-descending policy.

    Moves forward whenever the cell ahead is one move closer to the goal,
    otherwise turns toward the first descending neighbour (direction order
    up/right/down/left; 180-degree turns go right). Reaches the goal of any
    solvable level in exactly ``distances[agent_pos]`` forward moves.
    """
    h, w = distances.shape
    d_here = distances[agent_pos]
    if d_here <= 0:
        raise ValueError("oracle called on goal cell or unreachable cell")

    def dist_ahead(direction):
        r = agent_pos[0] + _FORWARD[direction][0]
        c = agent_pos[1] + _FORWARD[direction][1]
        if 0 <= r < h and 0 <= c < w and distances[r, c] == d_here - 1:
            return True
        return False

    if dist_ahead(agent_dir):
        return A_FORWARD
    for target in range(4):
        if dist_ahead(target):
            turn = (target - agent_dir) % 4
            return A_LEFT if turn == 3 else A_RIGHT
    raise ValueError("no descending neighbour; distance field inconsistent")


# ---------------------------------------------------------------------------
# Editor environment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EditorState:
    """A level under construction plus the edit cursor."""

    level: MazeLevel
    edit_index: int
    budget: int


@dataclass(frozen=True)
class EditorObservation:
    """Whole-board one-hot view plus normalized construction progress."""

    grid: np.ndarray  # (H, W, 4) float32: empty/wall/goal/agent
    progress: float


class MazeEditorEnv(UnderspecifiedEnv):
    """Builds a maze via atomic edits; actions index cells (row-major).

    Episodes last ``wall_budget + 2`` edits: goal placement, agent placement
    (direction uniform), then wall toggles. Placements clear any wall on the
    target cell; a placement colliding with the other special cell re-samples
    the cell uniformly, and wall toggles on the agent/goal cells are no-ops.
    The level provided to ``reset_to_level`` is the starting canvas.
    """

    def __init__(self, width: int = 13, height: int = 13, wall_budget: int = 20):
        if min(width, height) < 1 or width * height < 2:
            raise ValueError("width and height must be at least 1, with at least 2 cells")
        if wall_budget < 0:
            raise ValueError("wall_budget must be non-negative")
        self.width = width
        self.height = height
        self.wall_budget = wall_budget

    @property
    def num_actions(self) -> int:
        return self.width * self.height

    @property
    def episode_steps(self) -> int:
        return self.wall_budget + 2

    def reset_to_level(self, level: MazeLevel, rng=None):
        validate_level(level)
        state = EditorState(level=level, edit_index=0, budget=self.wall_budget)
        return state, self.observe(state)

    def step(self, state: EditorState, action: int, rng: np.random.Generator):
        if not 0 <= action < self.num_actions:
            raise EnvError(f"editor action {action} out of range")
        if state.edit_index >= state.budget + 2:
            raise EnvError("editor episode already complete")
        level = state.level
        w = level.width
        target = (action // w, action % w)
        if state.edit_index < 2:
            # Edit 0 places the goal, edit 1 the agent, each off the other.
            other = level.agent_pos if state.edit_index == 0 else level.goal_pos
            if target == other:
                target = self._resample_cell(rng, exclude=other)
            walls = level.walls.copy()
            walls[target] = False
            placed = ({"goal_pos": target} if state.edit_index == 0
                      else {"agent_pos": target, "agent_dir": int(rng.integers(0, 4))})
            level = replace(level, walls=walls, **placed)
        elif target != level.agent_pos and target != level.goal_pos:
            walls = level.walls.copy()
            walls[target] = not walls[target]
            level = replace(level, walls=walls)
        new_state = EditorState(
            level=level, edit_index=state.edit_index + 1, budget=state.budget
        )
        done = new_state.edit_index >= state.budget + 2
        return StepResult(new_state, self.observe(new_state), 0.0, done)

    def _resample_cell(self, rng: np.random.Generator, exclude: tuple[int, int]):
        n_cells = self.width * self.height
        excluded = exclude[0] * self.width + exclude[1]
        while True:
            cell = int(rng.integers(0, n_cells))
            if cell != excluded:
                return (cell // self.width, cell % self.width)

    def observe(self, state: EditorState) -> EditorObservation:
        grid, _ = MazeEditorBatch(self, [state]).encode()
        return EditorObservation(grid=grid[0], progress=state.edit_index / (state.budget + 2))

    def encode_observation(self, obs: EditorObservation):
        return obs.grid, np.array([obs.progress], dtype=np.float32)

    def batch(self, states) -> MazeEditorBatch:
        return MazeEditorBatch(self, states)


class MazeEditorBatch:
    """Levels of one :class:`MazeEditorEnv` under construction, as arrays:
    flat walls (N, H*W), goal and agent cells, agent direction, edit index
    and budget per row. Wall toggles step as whole-array ops. Placement
    edits (which draw from the generator), an episode's final edit, complete
    rows and invalid actions are left for :meth:`MazeEditorEnv.step`, the
    one placement rule. See :meth:`UnderspecifiedEnv.batch` for the protocol.
    """

    def __init__(self, env: MazeEditorEnv, states):
        self.env = env
        n = len(states)
        self.walls = np.zeros((n, env.num_actions), dtype=np.bool_)
        self.goal, self.agent, self.dir, self.edit, self.budget = (
            np.zeros(n, dtype=np.intp) for _ in range(5))
        for e, state in enumerate(states):
            self.set_state(e, state)

    def encode(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's observation as (images (N, H, W, 4), extras (N, 1))."""
        cls = self.walls.astype(np.uint8)  # ECH_EMPTY is 0, ECH_WALL is 1
        rows = np.arange(len(cls))
        cls[rows, self.goal] = ECH_GOAL
        cls[rows, self.agent] = ECH_AGENT  # over the goal, if they share a cell
        images = np.take(_EYE4, cls, axis=0).reshape(len(cls), self.env.height, self.env.width, 4)
        return images, (self.edit / (self.budget + 2)).astype(np.float32)[:, None]

    def step(self, actions: np.ndarray) -> np.ndarray:
        """Toggle one wall per row, except on the rows in the returned mask
        (see the class docstring), which are left as they were."""
        actions = np.asarray(actions)
        ends = ((self.edit < 2) | (self.edit + 1 >= self.budget + 2)
                | (actions < 0) | (actions >= self.walls.shape[1]))
        live = ~ends
        toggled = np.flatnonzero(live & (actions != self.agent) & (actions != self.goal))
        self.walls[toggled, actions[toggled]] ^= True
        self.edit += live
        return ends

    def state(self, e: int) -> EditorState:
        w, h = self.env.width, self.env.height
        level = MazeLevel(w, h, self.walls[e].reshape(h, w).copy(), divmod(int(self.agent[e]), w),
                          int(self.dir[e]), divmod(int(self.goal[e]), w))
        return EditorState(level, int(self.edit[e]), int(self.budget[e]))

    def set_state(self, e: int, state: EditorState) -> None:
        """Load ``state`` into row ``e``."""
        level, env = state.level, self.env
        if (level.width, level.height) != (env.width, env.height):
            raise LevelError(f"canvas is {level.width}x{level.height}, editor is "
                             f"{env.width}x{env.height}")
        (gr, gc), (ar, ac), w = level.goal_pos, level.agent_pos, level.width
        self.walls[e] = level.walls.ravel()
        self.goal[e], self.agent[e], self.dir[e] = gr * w + gc, ar * w + ac, level.agent_dir
        self.edit[e], self.budget[e] = state.edit_index, state.budget


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

COLOR_FLOOR = (0, 0, 0)
COLOR_WALL = (127, 127, 127)
COLOR_GOAL = (0, 204, 0)
COLOR_AGENT = (204, 0, 0)


@lru_cache(maxsize=None)
def _triangle_mask(cell_px: int, direction: int) -> np.ndarray:
    # Upward triangle: apex on the top row, base on the bottom row.
    r, c = np.mgrid[0:cell_px, 0:cell_px]
    center = (cell_px - 1) / 2.0
    mask = np.abs(c - center) <= (r + 1) / 2.0
    mask = np.rot90(mask, k=(-direction) % 4)
    mask.setflags(write=False)
    return mask


def render_level(level: MazeLevel, cell_px: int = 8) -> np.ndarray:
    """Deterministic RGB raster, shape (height*cell_px, width*cell_px, 3)."""
    if cell_px <= 0:
        raise ValueError("cell_px must be positive")
    img = np.zeros((level.height, level.width, 3), dtype=np.uint8)
    img[:] = COLOR_FLOOR
    img[level.walls] = COLOR_WALL
    img[level.goal_pos] = COLOR_GOAL
    img = np.repeat(np.repeat(img, cell_px, axis=0), cell_px, axis=1)
    ar, ac = level.agent_pos
    tile = img[ar * cell_px:(ar + 1) * cell_px, ac * cell_px:(ac + 1) * cell_px]
    tile[_triangle_mask(cell_px, level.agent_dir)] = COLOR_AGENT
    return img


def write_ppm(pixels: np.ndarray, path) -> None:
    """Write an (H, W, 3) uint8 buffer as binary PPM (P6)."""
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(pixels.tobytes())


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def format_level(level: MazeLevel) -> str:
    """Grid text for one level; one row per line, LF endings."""
    grid = np.full((level.height, level.width + 1), ord("\n"), dtype=np.uint8)
    grid[:, :-1] = np.where(level.walls, ord("#"), ord("."))
    grid[level.goal_pos] = ord("G")
    grid[level.agent_pos] = ord(AGENT_CHARS[level.agent_dir])
    return grid.tobytes().decode("ascii")


_LEVEL_BYTES = (".#G" + AGENT_CHARS).encode("ascii")
# Byte table that writes every agent character as "A", so one find locates
# the agent whichever way it faces.
_AGENT_AS_A = bytes.maketrans(AGENT_CHARS.encode("ascii"), b"A" * len(AGENT_CHARS))


def parse_level(text: str) -> MazeLevel:
    """Inverse of :func:`format_level`; raises :class:`LevelError` on bad
    characters, ragged rows, or missing/duplicate agent/goal, naming the
    fault that a row-by-row, cell-by-cell scan meets first."""
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines:
        raise LevelError("empty level text")
    width, height = len(lines[0]), len(lines)
    even = next((r for r, ln in enumerate(lines) if len(ln) != width), height)
    # The rows above the first ragged one, one byte per cell: a non-ASCII
    # character becomes one "?", a bad byte, so byte i is cell divmod(i, width).
    raw = "".join(lines[:even]).encode("ascii", "replace")
    agents = raw.translate(_AGENT_AS_A)
    agent, goal = agents.find(b"A"), raw.find(b"G")
    # Each fault's first cell, out of range when it has none; a scan meets
    # the lowest first.
    faults = {
        len(raw) - len(raw.lstrip(_LEVEL_BYTES)): None,
        agents.find(b"A", agent + 1): "duplicate agent",
        raw.find(b"G", goal + 1): "duplicate goal",
    }
    first = min((i for i in faults if 0 <= i < len(raw)), default=None)
    if first is not None:
        r, c = divmod(first, width)
        raise LevelError(faults[first] or f"bad character {lines[r][c]!r} at row {r}, col {c}")
    if even < height:
        raise LevelError(f"ragged row {even}: expected width {width}, got {len(lines[even])}")
    if agent < 0:
        raise LevelError("missing agent")
    if goal < 0:
        raise LevelError("missing goal")
    walls = np.frombuffer(raw, np.uint8).reshape(height, width) == ord("#")
    level = MazeLevel(width, height, walls, divmod(agent, width),
                      AGENT_CHARS.index(chr(raw[agent])), divmod(goal, width))
    validate_level(level)
    return level


def format_levels(levels) -> str:
    """Multi-level text: levels separated by a single blank line."""
    return "\n".join(format_level(level) for level in levels)


def parse_levels(text: str) -> list[MazeLevel]:
    blocks = [b for b in text.split("\n\n") if b.strip() != ""]
    if not blocks:
        raise LevelError("no levels in text")
    return [parse_level(b) for b in blocks]


def load_levels(path) -> list[MazeLevel]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_levels(fh.read())
        except UnicodeDecodeError as exc:
            raise LevelError(f"level file is not UTF-8 text: {exc}") from exc


def save_levels(levels, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_levels(levels))
