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

from .artifacts import write_json
from .errors import GenerationFailure, InvalidArgument, SchemaError
from .geometry import TWO_PI, bracketing_columns
from .navgraph import NavGraph, NavNode, build_graph, check_route
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


def word_token(word: str) -> int:
    try:
        return _WORD_TO_ID[word]
    except KeyError:
        raise InvalidArgument(f"unknown word {word!r}") from None


def token_class(token_id: int) -> str:
    if ROOM_BASE <= token_id < OBJECT_BASE:
        return "room"
    if OBJECT_BASE <= token_id < FILLER_BASE:
        return "object"
    if 0 <= token_id < VOCAB_SIZE:
        return "other"
    raise InvalidArgument(f"token id {token_id} out of vocabulary")


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


@dataclass(frozen=True)
class LatentTable:
    """Per-node appearance vectors; room one-hot fills the trailing dims."""
    seed: int
    feature_dim: int   # the vectors' width plus ROOM_COUNT
    node: dict[int, np.ndarray]
    background: np.ndarray


@dataclass(frozen=True)
class EnvBundle:
    """Everything needed to run an agent in one environment."""
    graph: NavGraph
    latents: LatentTable
    sigma: float = 0.0


def make_latents(graph: NavGraph, feature_dim: int, seed: int) -> LatentTable:
    if feature_dim <= ROOM_COUNT:
        raise InvalidArgument(f"feature dim must exceed {ROOM_COUNT}, got {feature_dim}")
    free = feature_dim - ROOM_COUNT
    node = {n: substream(seed, "latent", n).standard_normal(free)
            for n in graph.node_ids()}
    background = substream(seed, "latent", "background").standard_normal(free)
    return LatentTable(seed=seed, feature_dim=feature_dim, node=node,
                       background=background)


def render_observation(graph: NavGraph, node: int, latents: LatentTable,
                       sigma: float, grid: ViewGrid) -> np.ndarray:
    """Panorama at a node: the ``(grid.k, feature_dim)`` visual vectors of
    its views, in the grid's order.

    A view shows the out-neighbor whose edge heading is nearest the view
    heading when that is within half a heading bin; otherwise the shared
    background.  Elevation never affects assignment, so all elevation rows
    of a heading column agree before noise.  Noise is Gaussian, applied to
    the visual block only, and depends only on (table seed, node).
    """
    if node not in graph.nodes:
        raise InvalidArgument(f"unknown node {node}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidArgument(f"sigma must be finite and >= 0, got {sigma}")
    dim = latents.feature_dim
    half_bin = math.pi / grid.n_headings

    # an edge can only be seen in the columns bracketing its heading: per
    # column, the nearest such edge, ties to the lowest neighbour id
    best: dict[int, tuple[float, int]] = {}
    for nbr in graph.neighbors(node):
        for d, j in bracketing_columns(graph.edge_pose(node, nbr).heading,
                                       grid.n_headings):
            if j not in best or (d, nbr) < best[j]:
                best[j] = (d, nbr)
    ne = len(grid.elevations)
    background = np.concatenate([latents.background, np.zeros(ROOM_COUNT)])
    visual = np.empty((grid.k, dim))
    for j in range(grid.n_headings):
        d, nbr = best.get(j, (math.inf, None))
        row = background
        if d <= half_bin + 1e-12:
            onehot = np.zeros(ROOM_COUNT)
            onehot[graph.nodes[nbr].room] = 1.0
            row = np.concatenate([latents.node[nbr], onehot])
        visual[j * ne:(j + 1) * ne] = row  # every elevation row of column j
    if sigma > 0:
        noise = substream(latents.seed, "obs-noise", node, grid.k).standard_normal(
            (grid.k, dim))
        visual = visual + sigma * noise
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
    # union-find over the undirected connection set
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, nbrs in adjacency.items():
        for v in nbrs:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return len({find(i) for i in range(n)}) == 1


def generate_environment(p: EnvParams) -> NavGraph:
    """Seeded geometric random graph, resampled until connected."""
    if p.node_count < 2:
        raise InvalidArgument("node_count must be >= 2")
    if not all(math.isfinite(v) and v > 0 for v in (p.connection_radius, p.extent)):
        raise InvalidArgument("connection_radius and extent must be finite and > 0")
    if not (math.isfinite(p.sigma) and p.sigma >= 0):
        raise InvalidArgument(f"sigma must be finite and >= 0, got {p.sigma}")
    if p.feature_dim <= ROOM_COUNT:
        raise InvalidArgument(
            f"feature dim must exceed {ROOM_COUNT}, got {p.feature_dim}")

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
        for i in range(p.node_count):
            for j in range(i + 1, p.node_count):
                d = float(np.linalg.norm(pos[i] - pos[j]))
                if d <= p.connection_radius:
                    if d == 0.0:
                        degenerate = True
                    pairs.append((i, j))
                    adjacency[i].append(j)
                    adjacency[j].append(i)
        if degenerate or not _connected(p.node_count, adjacency):
            continue

        n_rooms = int(rng.integers(4, ROOM_COUNT + 1))
        centers = rng.uniform(0.0, p.extent, size=(n_rooms, 2))
        rooms = [int(np.argmin(np.linalg.norm(centers - pos[i, :2], axis=1)))
                 for i in range(p.node_count)]
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


@dataclass(frozen=True)
class Instruction:
    tokens: tuple[int, ...]
    location_mask: tuple[bool, ...]
    object_mask: tuple[bool, ...]
    text: str


def generate_instruction(graph: NavGraph, gt_path, seed: int) -> Instruction:
    """Template instruction naming traversed rooms and one goal object.

    Consecutive path nodes sharing a room yield one mention.  The goal
    object is a seeded choice among the goal node's objects.  Even a
    single-node path names the goal's room, so every instruction carries at
    least one location and one object cue.
    """
    gt_path = tuple(int(n) for n in gt_path)
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

    tokens = [BOS] + [word_token(w) for w in words] + [EOS]
    loc_mask = [token_class(t) == "room" for t in tokens]
    obj_mask = [token_class(t) == "object" for t in tokens]
    return Instruction(tokens=tuple(tokens),
                       location_mask=tuple(loc_mask),
                       object_mask=tuple(obj_mask),
                       text=" ".join(words))


# ---------------------------------------------------------------- episodes


@dataclass(frozen=True)
class Episode:
    """A reference route (supervision) and its instruction (model input)."""
    gt_path: tuple[int, ...]
    instruction: Instruction

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
                       instruction=generate_instruction(graph, path, seed))
    raise GenerationFailure(
        f"no start/goal pair {_MIN_HOPS}-{_MAX_HOPS} edges apart after "
        f"{_MAX_EPISODE_ATTEMPTS} attempts")


# ------------------------------------------------------------- file formats


def episode_to_dict(ep: Episode) -> dict:
    return {
        "start": ep.start,
        "gt_path": list(ep.gt_path),
        "tokens": list(ep.instruction.tokens),
        "loc_mask": list(ep.instruction.location_mask),
        "obj_mask": list(ep.instruction.object_mask),
        "text": ep.instruction.text,
    }


def episode_from_dict(data: dict) -> Episode:
    required = ("start", "gt_path", "tokens", "loc_mask", "obj_mask", "text")
    if not isinstance(data, dict) or any(k not in data for k in required):
        raise SchemaError(f"episode must contain {required}")
    try:
        tokens = [int(t) for t in data["tokens"]]
        loc = [bool(b) for b in data["loc_mask"]]
        obj = [bool(b) for b in data["obj_mask"]]
        gt_path = [int(n) for n in data["gt_path"]]
        start = int(data["start"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad episode value: {exc}") from exc
    if not (len(tokens) == len(loc) == len(obj)):
        raise SchemaError("masks must match token count")
    for t in tokens:
        if not 0 <= t < VOCAB_SIZE:
            raise SchemaError(f"token id {t} out of vocabulary")
    if any(a and b for a, b in zip(loc, obj)):
        raise SchemaError("location and object masks overlap")
    if not gt_path:
        raise SchemaError("gt_path must be non-empty")
    if start != gt_path[0]:
        raise SchemaError("start must equal first gt_path node")
    instr = Instruction(tokens=tuple(tokens), location_mask=tuple(loc),
                        object_mask=tuple(obj), text=str(data["text"]))
    return Episode(gt_path=tuple(gt_path), instruction=instr)

