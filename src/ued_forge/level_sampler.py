"""Rolling prioritized buffer of levels with score/staleness sampling.

The buffer associates each stored level with a score (a regret estimate),
the touch-counter value at which it was last inserted, updated, or sampled,
and a small dict of named real-valued auxiliary fields (e.g. the best return
ever achieved on the level). Sampling mixes two distributions::

    P = (1 - staleness_coeff) * P_score + staleness_coeff * P_stale

``P_score`` is rank-based: the highest score gets rank 1 (ties go to the
lower slot index) and weight ``(1/rank) ** (1/temperature)``. ``P_stale`` is
proportional to the time since each entry was last touched, or uniform when
every entry was touched in the current batch. Every operation is pure: it
returns a new buffer and leaves its inputs untouched, so identical inputs
(including generator states) always produce identical results.

The counter advances once per insert/update/sample batch, not once per
entry, so "staleness" counts batch-granular touch events.

Buffers serialize to a line-oriented UTF-8 text format (see
:func:`buffer_to_text`) that reproduces byte-identical files on a
write/read/write round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .maze import LevelError, format_level, parse_level


class BufferError(Exception):
    """Invalid buffer operation: empty buffer, bad index, length mismatch."""


@dataclass(frozen=True)
class SamplerConfig:
    temperature: float = 0.3
    staleness_coeff: float = 0.3

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 0.0 <= self.staleness_coeff <= 1.0:
            raise ValueError("staleness_coeff must be in [0, 1]")


@dataclass(frozen=True)
class LevelBuffer:
    capacity: int
    levels: tuple = ()
    scores: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    last_touched: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    extras: tuple = ()
    episode_counter: int = 0

    def __post_init__(self):
        self.scores.setflags(write=False)
        self.last_touched.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.levels)

    def staleness(self) -> np.ndarray:
        return self.episode_counter - self.last_touched


def new_buffer(capacity: int) -> LevelBuffer:
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    return LevelBuffer(capacity=capacity)


def sampling_weights(buffer: LevelBuffer, config: SamplerConfig) -> np.ndarray:
    """Sampling distribution over occupied slots; sums to 1."""
    n = buffer.size
    if n == 0:
        raise BufferError("cannot compute weights of an empty buffer")
    # Rank 1 = highest score; ties broken by lower slot index.
    order = np.lexsort((np.arange(n), -buffer.scores))
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.arange(1, n + 1)
    w_score = (1.0 / ranks) ** (1.0 / config.temperature)
    p_score = w_score / w_score.sum()
    stale = buffer.staleness().astype(np.float64)
    total = stale.sum()
    p_stale = stale / total if total > 0 else np.full(n, 1.0 / n)
    rho = config.staleness_coeff
    return (1.0 - rho) * p_score + rho * p_stale


def sample_levels(
    buffer: LevelBuffer,
    config: SamplerConfig,
    rng: np.random.Generator,
    n: int,
) -> tuple[LevelBuffer, np.ndarray, list]:
    """Draw ``n`` slots with replacement from :func:`sampling_weights`.

    Returns (buffer with refreshed staleness, slot indices, levels).
    """
    weights = sampling_weights(buffer, config)
    indices = rng.choice(buffer.size, size=n, replace=True, p=weights)
    counter = buffer.episode_counter + 1
    last_touched = buffer.last_touched.copy()
    last_touched[indices] = counter
    new = replace(buffer, last_touched=last_touched, episode_counter=counter)
    return new, indices, [buffer.levels[i] for i in indices]


def _checked(n, what, scores, extras):
    """Finite float64 scores and an extras list of finite values, both of
    length ``n``."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if extras is None:
        extras = [{}] * n
    if not all(math.isfinite(v) for extra in extras for v in extra.values()):
        raise ValueError("extras must be finite")
    if not n == len(scores) == len(extras):
        raise BufferError(
            f"length mismatch: {n} {what}, {len(scores)} scores, {len(extras)} extras"
        )
    return scores, extras


def insert_batch(
    buffer: LevelBuffer, levels, scores, extras=None
) -> LevelBuffer:
    """Insert candidates in order. While the buffer has room they are
    appended; once full, a candidate replaces the current minimum-score
    entry only if its score is strictly greater (argmin ties resolve to the
    lowest slot). A candidate equal to a stored level updates that entry in
    place instead.
    """
    scores, extras = _checked(len(levels), "levels", scores, extras)
    counter = buffer.episode_counter + 1
    size = buffer.size
    pad = min(buffer.capacity - size, len(levels))
    slot_levels = list(buffer.levels) + [None] * pad
    slot_extras = list(buffer.extras) + [None] * pad
    slot_scores = np.append(buffer.scores, np.zeros(pad))
    slot_touched = np.append(buffer.last_touched, np.zeros(pad, np.int64))
    key_to_slot = {lvl.key(): i for i, lvl in enumerate(buffer.levels)}

    for level, score, extra in zip(levels, scores, extras):
        key = level.key()
        j = key_to_slot.get(key)
        if j is None:
            if size < buffer.capacity:
                j, size = size, size + 1
            else:
                j = int(np.argmin(slot_scores))
                if not score > slot_scores[j]:
                    continue
                del key_to_slot[slot_levels[j].key()]
            key_to_slot[key] = j
            slot_levels[j] = level
        slot_scores[j], slot_touched[j], slot_extras[j] = score, counter, dict(extra)

    return replace(buffer, levels=tuple(slot_levels[:size]), scores=slot_scores[:size],
                   last_touched=slot_touched[:size], extras=tuple(slot_extras[:size]),
                   episode_counter=counter)


def update_batch(
    buffer: LevelBuffer, indices, scores, extras=None
) -> LevelBuffer:
    """Overwrite scores/extras at occupied slots and refresh their staleness.
    Duplicate indices in one batch: the last write wins."""
    indices = np.asarray(indices, dtype=np.int64)
    scores, extras = _checked(len(indices), "indices", scores, extras)
    if indices.size and (indices.min() < 0 or indices.max() >= buffer.size):
        raise BufferError(
            f"index out of range for buffer of size {buffer.size}"
        )
    counter = buffer.episode_counter + 1
    slot_scores = buffer.scores.copy()
    slot_touched = buffer.last_touched.copy()
    slot_extras = list(buffer.extras)
    for i, score, extra in zip(indices, scores, extras):
        slot_scores[i], slot_touched[i], slot_extras[i] = score, counter, dict(extra)
    return replace(buffer, scores=slot_scores, last_touched=slot_touched,
                   extras=tuple(slot_extras), episode_counter=counter)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
#   ued-forge-buffer v1
#   capacity <int>
#   size <int>
#   episode_counter <int>
#
#   entry score <float-repr> last_touched <int> extras <count>
#   extra <name> <float-repr>     (one line per extra, names sorted)
#   <level rows in the maze text format>
#
# Entries are separated by single blank lines; floats use Python repr (which
# round-trips exactly), so write -> read -> write is byte-identical.

_MAGIC = "ued-forge-buffer v1"


def buffer_to_text(buffer: LevelBuffer) -> str:
    lines = [
        _MAGIC,
        f"capacity {buffer.capacity}",
        f"size {buffer.size}",
        f"episode_counter {buffer.episode_counter}",
    ]
    for level, score, touched, extra in zip(
        buffer.levels, buffer.scores, buffer.last_touched, buffer.extras
    ):
        lines.append("")
        lines.append(
            f"entry score {float(score)!r} last_touched {int(touched)} "
            f"extras {len(extra)}"
        )
        for name in sorted(extra):
            lines.append(f"extra {name} {float(extra[name])!r}")
        lines.append(format_level(level).rstrip("\n"))
    return "\n".join(lines) + "\n"


def buffer_from_text(text: str) -> LevelBuffer:
    """Parse :func:`buffer_to_text` output; raises :class:`BufferError` on
    any malformed input."""
    try:
        return _parse_buffer(text)
    except ValueError as exc:
        raise BufferError(f"bad buffer checkpoint: {exc}") from exc


def _parse_buffer(text: str) -> LevelBuffer:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def expect(i, prefix):
        if i >= len(lines) or not lines[i].startswith(prefix):
            raise BufferError(f"bad buffer checkpoint at line {i + 1}: expected {prefix!r}")
        return lines[i][len(prefix):]

    if not lines or lines[0] != _MAGIC:
        raise BufferError("bad buffer checkpoint: missing header")
    capacity = int(expect(1, "capacity "))
    size = int(expect(2, "size "))
    episode_counter = int(expect(3, "episode_counter "))
    if capacity < 1:
        raise BufferError(f"checkpoint capacity {capacity} is below 1")
    if size < 0:
        raise BufferError(f"checkpoint size {size} is negative")
    if episode_counter < 0:
        raise BufferError(f"checkpoint episode_counter {episode_counter} is negative")

    levels, scores, touched, extras = [], [], [], []
    i = 4
    for _ in range(size):
        if expect(i, "") != "":
            raise BufferError(f"expected blank line at line {i + 1}")
        i += 1
        head = expect(i, "entry score ").split()
        if len(head) != 5 or head[1] != "last_touched" or head[3] != "extras":
            raise BufferError(f"bad entry header at line {i + 1}")
        scores.append(float(head[0]))
        touched.append(int(head[2]))
        n_extra = int(head[4])
        if n_extra < 0:
            raise BufferError(f"negative extras count at line {i + 1}")
        i += 1
        extra = {}
        for _ in range(n_extra):
            parts = expect(i, "extra ").split()
            if len(parts) != 2:
                raise BufferError(f"bad extra line at line {i + 1}")
            if parts[0] in extra:
                raise BufferError(f"repeated extra {parts[0]!r} at line {i + 1}")
            extra[parts[0]] = float(parts[1])
            if not math.isfinite(extra[parts[0]]):
                raise BufferError(f"non-finite extra at line {i + 1}")
            i += 1
        extras.append(extra)
        start = i
        while i < len(lines) and lines[i] != "":
            i += 1
        try:
            levels.append(parse_level("\n".join(lines[start:i])))
        except LevelError as exc:
            raise BufferError(f"bad level text near line {start + 1}: {exc}") from exc
    if i != len(lines):
        raise BufferError("trailing data in buffer checkpoint")

    buf = LevelBuffer(
        capacity=capacity,
        levels=tuple(levels),
        scores=np.array(scores, dtype=np.float64),
        last_touched=np.array(touched, dtype=np.int64),
        extras=tuple(extras),
        episode_counter=episode_counter,
    )
    if buf.size > capacity:
        raise BufferError("checkpoint size exceeds capacity")
    if len(set(levels)) < len(levels):
        raise BufferError("checkpoint holds one level in two entries")
    if not np.all(np.isfinite(buf.scores)):
        raise BufferError("checkpoint has a non-finite score")
    if buf.size and not 0 <= buf.last_touched.min() <= buf.last_touched.max() <= episode_counter:
        raise BufferError(f"checkpoint has last_touched outside [0, {episode_counter}]")
    return buf


def save_buffer(buffer: LevelBuffer, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buffer_to_text(buffer))


def load_buffer(path) -> LevelBuffer:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return buffer_from_text(fh.read())
        except UnicodeDecodeError as exc:
            raise BufferError(f"bad buffer checkpoint: not UTF-8 text: {exc}") from exc
