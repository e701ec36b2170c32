"""Synthetic environments, panoramic observations, and templated instructions.

Environments are geometric random graphs: nodes sampled uniformly in a box,
edges between all pairs closer than a connection radius, rooms assigned by
nearest spatial cluster center, and 1-3 objects per node.  Panoramas give
each node K views on a fixed heading/elevation grid; a view pointed at an
out-neighbor shows that neighbor's latent vector plus its room one-hot, any
other view shows a shared background latent.  Instructions are filled-in
templates naming the rooms along the ground-truth path and one object at the
goal.

Every generator is a pure function of (params, seed): rerunning with the
same seed reproduces output bit for bit.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .artifacts import check_record, write_json
from .errors import GenerationFailure, InvalidArgument, SchemaError
from . import geometry
from .geometry import TWO_PI
from .navgraph import NavGraph, NavNode, build_graph, check_route, memo
from .rng import substream

ROOM_WORDS = ("kitchen", "hallway", "bedroom", "bathroom",
              "office", "lounge", "garage", "balcony")
OBJECT_WORDS = ("lamp", "sofa", "table", "sink",
                "mirror", "plant", "shelf", "television")
FILLER_WORDS = (
    "walk", "through", "the", "then", "stop", "near", "turn", "left",
    "right", "go", "past", "toward", "enter", "exit", "room", "door",
    "wall", "floor", "ahead", "behind", "to", "a", "and", "at",
    "by", "down", "up", "into", "next", "area", "corner", "along",
    "continue", "until", "reach", "you", "will", "see", "your", "front",
)
SPECIAL_WORDS = ("<pad>", "<bos>", "<eos>")

PAD, BOS, EOS = 0, 1, 2
ROOM_BASE = len(SPECIAL_WORDS)
OBJECT_BASE = ROOM_BASE + len(ROOM_WORDS)
FILLER_BASE = OBJECT_BASE + len(OBJECT_WORDS)
VOCAB_SIZE = FILLER_BASE + len(FILLER_WORDS)

ROOM_COUNT = len(ROOM_WORDS)
OBJECT_COUNT = len(OBJECT_WORDS)

_WORDS = SPECIAL_WORDS + ROOM_WORDS + OBJECT_WORDS + FILLER_WORDS
_WORD_TO_ID = {w: i for i, w in enumerate(_WORDS)}
# the class of each token id: a room or object word is a location or object
# cue, the one fact the key detail reads from an instruction
TOKEN_CLASSES = (("other",) * ROOM_BASE + ("room",) * ROOM_COUNT
                 + ("object",) * OBJECT_COUNT + ("other",) * len(FILLER_WORDS))


def word_token(word: str) -> int:
    try:
        return _WORD_TO_ID[word]
    except KeyError:
        raise InvalidArgument(f"unknown word {word!r}") from None


def token_class(token_id: int) -> str:
    if not 0 <= token_id < VOCAB_SIZE:
        raise InvalidArgument(f"token id {token_id} out of vocabulary")
    return TOKEN_CLASSES[token_id]


def vocab_table() -> list[dict]:
    return [{"id": i, "word": _WORDS[i], "class": token_class(i)}
            for i in range(VOCAB_SIZE)]


def save_vocab(path) -> None:
    write_json(path, vocab_table())


# ------------------------------------------------------------------- views


@dataclass(frozen=True)
class ViewGrid:
    """Fixed panoramic sampling grid: headings x elevations, heading-major.

    At least one heading column, an int; at least one elevation, each
    finite, in [-pi/2, pi/2] and distinct by value (0.0 and -0.0 repeat),
    stored as a float, a zero as +0.0: equal grids have bit-equal angles.
    """
    n_headings: int = 12
    elevations: tuple[float, ...] = (-math.pi / 6, 0.0, math.pi / 6)

    def __post_init__(self):
        n = self.n_headings
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise InvalidArgument(f"view grid needs an int n_headings >= 1, got {n!r}")
        if not self.elevations:
            raise InvalidArgument("view grid needs >=1 elevation")
        for e in self.elevations:
            if not (isinstance(e, numbers.Real) and math.isfinite(e)
                    and -math.pi / 2 <= e <= math.pi / 2):
                raise InvalidArgument(f"view grid elevation {e!r} is not a finite "
                                      "angle in [-pi/2, pi/2]")
        if len(set(self.elevations)) != len(self.elevations):
            raise InvalidArgument(f"view grid repeats an elevation: {self.elevations}")
        object.__setattr__(self, "elevations",
                           tuple(float(e) + 0.0 for e in self.elevations))

    @property
    def k(self) -> int:
        return self.n_headings * len(self.elevations)

    def angles(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-view (headings, elevations), each of length k."""
        head = np.arange(self.n_headings) * (TWO_PI / self.n_headings)
        ne = len(self.elevations)
        return np.repeat(head, ne), np.tile(np.array(self.elevations), self.n_headings)


@dataclass(frozen=True, eq=False)
class LatentTable:
    """A world's read-only ``(V + 1, feature_dim)`` appearance rows: row
    ``graph.index[n]`` is node n's latent then its room one-hot, the last
    row the background latent then zeros."""
    seed: int
    rows: np.ndarray


@dataclass(frozen=True, eq=False)
class EnvBundle:
    """Everything needed to run an agent in one environment; it compares
    and hashes by identity, as its graph does.

    Its panoramas' noise terms (``noise_term``, when sigma > 0) are kept in
    its memo slot ``"draws"``, never on it, so a pickled copy fills its own.
    """
    graph: NavGraph
    latents: LatentTable
    sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise InvalidArgument(f"sigma must be finite and >= 0, got {self.sigma}")
        self.latents.rows.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)   # an unpickled copy's rows arrive writeable


def make_latents(graph: NavGraph, feature_dim: int, seed: int) -> LatentTable:
    """The world's appearance rows, each node's latent drawn from the stream
    tagged ("latent", node) of ``seed`` and the background's from
    ("latent", "background")."""
    if feature_dim <= ROOM_COUNT:
        raise InvalidArgument(f"feature dim must exceed {ROOM_COUNT}, got {feature_dim}")
    nodes, free = graph.nodes, feature_dim - ROOM_COUNT
    rows = np.zeros((len(nodes) + 1, feature_dim))
    for i, n in enumerate(nodes):   # graph.index order
        if not 0 <= nodes[n].room < ROOM_COUNT:   # it indexes the room one-hot
            raise InvalidArgument(f"node {n}: room {nodes[n].room} is "
                                  f"outside [0, {ROOM_COUNT})")
        rows[i, :free] = substream(seed, "latent", n).standard_normal(free)
        rows[i, free + nodes[n].room] = 1.0
    rows[-1, :free] = substream(seed, "latent", "background").standard_normal(free)
    rows.flags.writeable = False
    return LatentTable(seed=seed, rows=rows)


def noise_term(env: EnvBundle, node: int, k: int) -> np.ndarray:
    """``env.sigma`` times the ``(k, feature_dim)`` Gaussian noise of a
    k-view panorama at a node, made once per bundle (its slot ``"draws"``)
    from the stream tagged ("obs-noise", node, k) of the latent table's seed."""
    draws = memo(env, "draws", None, dict)
    term = draws.get((node, k))
    if term is None:
        noise = substream(env.latents.seed, "obs-noise", node, k).standard_normal(
            (k, env.latents.rows.shape[1]))
        term = draws[(node, k)] = env.sigma * noise
        term.flags.writeable = False
    return term


def render_observation(env: EnvBundle, node: int, grid: ViewGrid) -> np.ndarray:
    """Panorama at a node of ``env``'s world: the ``(grid.k, feature_dim)``
    visual vectors of its views, in the grid's order.

    A view shows the out-neighbor whose edge heading is nearest the view
    heading (ties to the lower id) when that is within half a heading bin +
    1e-12; otherwise the shared background.  Only a bracket column whose
    offset ``min(a, 2*pi - a)``, ``a = |heading - column|``, is within half a
    bin + 1e-9 is scored by ``angular_distance``; the offset is within about
    1e-15 of it, so a skipped column could not show the edge.  Elevation
    never affects assignment.  Noise is Gaussian, applied to the visual
    block only, and depends only on (table seed, node, k).  The rows come
    from the latent table and the noise from the bundle's memo; the
    assignment runs on every call.
    """
    graph = env.graph
    if node not in graph.nodes:
        raise InvalidArgument(f"unknown node {node}")
    n = grid.n_headings
    columns, step, half_bin = geometry.grid_columns(n), TWO_PI / n, math.pi / n
    distance, poses, reach = geometry.angular_distance, graph.poses, half_bin + 1e-9

    best: dict[int, tuple[float, int]] = {}   # per column: its nearest edge in reach
    for nbr in graph.neighbors(node):
        h = poses[node, nbr].heading
        j = math.floor(h / step) % n
        for c in ((j, (j + 1) % n) if n > 1 else (j,)):
            a = abs(h - columns[c])
            if a <= reach or TWO_PI - a <= reach:
                d = distance(h, columns[c])
                if c not in best or (d, nbr) < best[c]:
                    best[c] = (d, nbr)
    shown = [len(graph.nodes)] * n   # per column: the background row
    for c, (d, nbr) in best.items():
        if d <= half_bin + 1e-12:
            shown[c] = graph.index[nbr]
    ne = len(grid.elevations)   # every elevation row of column c shows column c's row
    visual = env.latents.rows[shown if ne == 1 else np.repeat(shown, ne)]
    if env.sigma > 0:
        visual = visual + noise_term(env, node, grid.k)
    return visual


# ------------------------------------------------------------- environments


@dataclass(frozen=True)
class EnvParams:
    node_count: int
    connection_radius: float
    extent: float
    feature_dim: int = 32
    sigma: float = 0.1
    seed: int = 0


_MAX_ENV_ATTEMPTS = 50


def _connected(n: int, adjacency: dict[int, list[int]]) -> bool:
    """Whether a search from node 0 over the undirected lists reaches all n."""
    seen, stack = {0}, [0]
    while stack:
        for v in adjacency[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def generate_environment(p: EnvParams) -> NavGraph:
    """Seeded geometric random graph, resampled until it is connected and
    no two nodes coincide.

    Each node i screens the nodes j > i at once by squared distance,
    against the radius widened by a 1e-9 relative margin; each pair the
    screen keeps is then decided exactly, in (i, j) order, by
    ``np.linalg.norm(pos[i] - pos[j]) <= connection_radius``.  The margin
    is about a million times the last-bit gap between a numpy sum of
    squares and the norm's BLAS dot, so every pair the screen drops is
    farther than the radius, and the graphs are those of a norm call per
    pair.  The screen holds O(node_count) memory per row.
    """
    if p.node_count < 2:
        raise InvalidArgument("node_count must be >= 2")
    if not all(math.isfinite(v) and v > 0 for v in (p.connection_radius, p.extent)):
        raise InvalidArgument("connection_radius and extent must be finite and > 0")
    if not (math.isfinite(p.sigma) and p.sigma >= 0):
        raise InvalidArgument(f"sigma must be finite and >= 0, got {p.sigma}")
    if p.feature_dim <= ROOM_COUNT:
        raise InvalidArgument(
            f"feature dim must exceed {ROOM_COUNT}, got {p.feature_dim}")

    # a product, not ** 2, so that a radius near the float limit screens
    # against inf instead of raising OverflowError
    wide = p.connection_radius * (1 + 1e-9)
    screen = wide * wide
    for attempt in range(_MAX_ENV_ATTEMPTS):
        rng = substream(p.seed, "env", attempt)
        pos = np.column_stack([
            rng.uniform(0.0, p.extent, size=p.node_count),
            rng.uniform(0.0, p.extent, size=p.node_count),
            rng.uniform(0.0, 3.0, size=p.node_count),
        ])
        pairs = []
        adjacency: dict[int, list[int]] = {i: [] for i in range(p.node_count)}
        degenerate = False
        for i in range(p.node_count - 1):
            near = np.square(pos[i + 1:] - pos[i]).sum(axis=1) <= screen
            for j in (np.flatnonzero(near) + (i + 1)).tolist():
                d = float(np.linalg.norm(pos[i] - pos[j]))
                if d == 0.0:
                    degenerate = True
                if d <= p.connection_radius:
                    pairs.append((i, j))
                    adjacency[i].append(j)
                    adjacency[j].append(i)
        if degenerate or not _connected(p.node_count, adjacency):
            continue

        n_rooms = int(rng.integers(4, ROOM_COUNT + 1))
        centers = rng.uniform(0.0, p.extent, size=(n_rooms, 2))
        rooms = np.linalg.norm(centers[None] - pos[:, None, :2], axis=2).argmin(1).tolist()
        objects = [tuple(sorted(int(o) for o in rng.choice(
            OBJECT_COUNT, size=int(rng.integers(1, 4)), replace=False)))
            for _ in range(p.node_count)]

        nodes = [NavNode(i, tuple(float(c) for c in pos[i]), rooms[i], objects[i])
                 for i in range(p.node_count)]
        edges = [e for (u, v) in pairs for e in ((u, v), (v, u))]
        return build_graph(nodes, edges)

    raise GenerationFailure(
        f"no connected layout in {_MAX_ENV_ATTEMPTS} attempts "
        f"(node_count={p.node_count}, radius={p.connection_radius}, extent={p.extent})")


# ------------------------------------------------------------- instructions


def generate_instruction(graph: NavGraph, gt_path, seed: int) -> tuple[int, ...]:
    """Token ids of a template instruction, ``<bos>`` to ``<eos>``, naming
    traversed rooms and one goal object.

    Consecutive path nodes sharing a room yield one mention.  The goal
    object is a seeded choice among the goal node's objects.  Even a
    single-node path names the goal's room, so every instruction carries at
    least one location and one object cue (``TOKEN_CLASSES``).
    """
    check_route(graph, gt_path, "gt")

    goal = gt_path[-1]
    goal_objects = graph.nodes[goal].objects
    if not goal_objects:
        raise GenerationFailure(f"goal node {goal} has no objects to reference")
    obj = int(substream(seed, "instr", goal).choice(sorted(goal_objects)))

    rooms: list[int] = []
    for n in gt_path:
        r = graph.nodes[n].room
        if not rooms or rooms[-1] != r:
            rooms.append(r)

    words: list[str] = []
    for i, r in enumerate(rooms):
        words.extend(["walk" if i == 0 else "then", "through", "the", ROOM_WORDS[r]])
    words.extend(["then", "stop", "near", "the", OBJECT_WORDS[obj]])

    return (BOS, *(word_token(w) for w in words), EOS)


# ---------------------------------------------------------------- episodes


@dataclass(frozen=True)
class Episode:
    """A reference route (supervision) and its instruction's token ids
    (model input)."""
    gt_path: tuple[int, ...]
    tokens: tuple[int, ...]

    @property
    def start(self) -> int:
        return self.gt_path[0]


EPISODE_MODES = ("shortest", "detour")


_MIN_HOPS = 3
_MAX_HOPS = 12
_MAX_EPISODE_ATTEMPTS = 300


def make_episode(graph: NavGraph, seed: int, mode: str = "shortest") -> Episode:
    """Sample a start/goal pair 3-12 edges apart and build its instruction.

    mode 'shortest' uses the minimum-length route; mode 'detour' inserts one
    random off-route waypoint, keeping the result free of repeated nodes so
    it remains a followable supervision target.
    """
    if mode not in EPISODE_MODES:
        raise InvalidArgument(f"unknown episode mode {mode!r}")
    ids = graph.node_ids()
    rng = substream(seed, "episode", mode)
    for _ in range(_MAX_EPISODE_ATTEMPTS):
        start, goal = (int(x) for x in rng.choice(ids, size=2))
        if start == goal:
            continue
        base = graph.shortest_path(start, goal)
        if base is None or not (_MIN_HOPS <= len(base) - 1 <= _MAX_HOPS):
            continue
        if mode == "shortest":
            path = base
        else:
            waypoint_pool = [n for n in ids if n not in base]
            if not waypoint_pool:
                continue
            w = int(rng.choice(waypoint_pool))
            first = graph.shortest_path(start, w)
            second = graph.shortest_path(w, goal)
            if first is None or second is None:
                continue
            path = first + second[1:]
            if len(set(path)) != len(path) or len(path) - 1 > 2 * _MAX_HOPS:
                continue
        if not graph.nodes[path[-1]].objects:
            continue
        return Episode(gt_path=tuple(path),
                       tokens=generate_instruction(graph, path, seed))
    raise GenerationFailure(
        f"no start/goal pair {_MIN_HOPS}-{_MAX_HOPS} edges apart after "
        f"{_MAX_EPISODE_ATTEMPTS} attempts")


# ------------------------------------------------------------- file formats


# an episode file's entry: its keys, the only ones, and their types
EPISODE_KEYS = {"gt_path": [int], "tokens": [int]}


def episode_to_dict(ep: Episode) -> dict:
    return {"gt_path": list(ep.gt_path), "tokens": list(ep.tokens)}


def episode_from_dict(data: dict) -> Episode:
    check_record(data, EPISODE_KEYS, "episode")
    extra = sorted(data.keys() - EPISODE_KEYS.keys())
    if extra:
        raise SchemaError(f"episode: unknown key {extra[0]!r}; regenerate the "
                          "data directory with `oikg gen`")
    tokens, gt_path = data["tokens"], data["gt_path"]
    if not tokens:
        raise SchemaError("tokens must be non-empty")
    for t in tokens:
        if not 0 <= t < VOCAB_SIZE:
            raise SchemaError(f"token id {t} out of vocabulary")
    if not gt_path:
        raise SchemaError("gt_path must be non-empty")
    if len(set(gt_path)) != len(gt_path):
        raise SchemaError("gt_path revisits a node")
    return Episode(gt_path=tuple(gt_path), tokens=tuple(tokens))
