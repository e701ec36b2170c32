"""Directed navigation graphs and frontier-based exploration state.

A graph is a set of nodes with 3-D positions plus directed edges; edge
length is the Euclidean distance between endpoints, so all weights are
strictly positive.  Shortest paths break length ties by lexicographically
smallest node-id sequence, which makes every routing query reproducible.

Environment files store undirected connections; the loader materialises
each connection as two directed edges.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .artifacts import check_record, has_type, read_json, write_json
from .errors import IllegalAction, InvalidArgument, SchemaError
from .geometry import RelativePose, relative_pose

STOP = -1  # action sentinel: terminate at the current node

INF = float("inf")


def slot_action(order, slot: int) -> int:
    """The action of a score slot: the frontier nodes in ``order``, then STOP."""
    return order[slot] if slot < len(order) else STOP


def action_slot(order, action: int) -> int:
    """The score slot of an action; ``slot_action``'s inverse."""
    return len(order) if action == STOP else order.index(action)


@dataclass(frozen=True)
class NavNode:
    id: int
    pos: tuple[float, float, float]
    room: int
    objects: tuple[int, ...]


class NavGraph:
    """Immutable node/edge container with cached distance maps.

    The distance cache is not pickled; a copy, such as a worker process's,
    fills its own.
    """

    def __init__(self, nodes: dict[int, NavNode],
                 adjacency: dict[int, tuple[int, ...]],
                 poses: dict[tuple[int, int], RelativePose]):
        self.nodes = nodes
        self.adjacency = adjacency
        self.poses = poses
        self.index = {n: i for i, n in enumerate(nodes)}   # node id -> row number
        self._dist_cache: dict[int, dict[int, float]] = {}

    def __getstate__(self) -> dict:
        return {"nodes": self.nodes, "adjacency": self.adjacency, "poses": self.poses}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        if node_id not in self.nodes:
            raise InvalidArgument(f"unknown node {node_id}")
        return self.adjacency[node_id]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.poses

    def edge_pose(self, u: int, v: int) -> RelativePose:
        try:
            return self.poses[(u, v)]
        except KeyError:
            raise InvalidArgument(f"no edge {u}->{v}") from None

    # ------------------------------------------------------------- routing

    def _search(self, src: int, allowed: set[int] | None = None, dst: int | None = None):
        """Dijkstra from src: the settled distances and dst's route (None
        unless dst settles).  Entries are (distance, route), so equal-length
        routes pop in id-sequence order; a push longer than the best pushed
        to its node could never settle first, so it is dropped."""
        dist: dict[int, float] = {}
        best = {src: 0.0}
        heap = [(0.0, (src,))]
        while heap:
            d, route = heapq.heappop(heap)
            u = route[-1]
            if u in dist:
                continue
            dist[u] = d
            if u == dst:
                return dist, route
            for v in self.adjacency[u]:
                if v in dist or (allowed is not None and v not in allowed):
                    continue
                nd = d + self.poses[(u, v)].length
                if nd <= best.get(v, INF):
                    best[v] = nd
                    heapq.heappush(heap, (nd, route + (v,)))
        return dist, None

    def _dist_from(self, src: int) -> dict[int, float]:
        """Distances from src of the nodes it reaches, cached (nodes/edges never change)."""
        cached = self._dist_cache.get(src)
        if cached is None:
            if src not in self.nodes:
                raise InvalidArgument(f"unknown node {src}")
            cached = self._dist_cache[src] = self._search(src)[0]
        return cached

    def geodesic(self, src: int, dst: int) -> float:
        """Shortest-route length from src to dst; +inf when unreachable."""
        if dst not in self.nodes:
            raise InvalidArgument(f"unknown node {dst}")
        return self._dist_from(src).get(dst, INF)

    def shortest_path(self, src: int, dst: int,
                      allowed: set[int] | None = None) -> list[int] | None:
        """Minimum-length node sequence from src to dst, or None if unreachable.

        Among equal-length routes the lexicographically smallest id sequence
        wins (well defined because edge lengths are strictly positive, so
        optimal routes never revisit a node).  ``allowed`` optionally
        restricts intermediate and destination nodes to a subset.
        """
        if src not in self.nodes or dst not in self.nodes:
            raise InvalidArgument(f"unknown endpoint in {src}->{dst}")
        if allowed is not None and (src not in allowed or dst not in allowed):
            return None
        route = self._search(src, allowed, dst)[1]
        return None if route is None else list(route)


def build_graph(nodes: Iterable[NavNode], edges: Iterable[tuple[int, int]]) -> NavGraph:
    """Assemble and validate a directed graph.

    Rejects duplicate node ids, self loops, duplicate edges, edges touching
    unknown nodes, and non-finite positions.  Connected nodes may not share
    a position (the edge would have no direction).
    """
    node_map: dict[int, NavNode] = {}
    for n in nodes:
        if n.id in node_map:
            raise InvalidArgument(f"duplicate node id {n.id}")
        if len(n.pos) != 3 or not all(math.isfinite(c) for c in n.pos):
            raise InvalidArgument(f"node {n.id}: position must be 3 finite coordinates")
        node_map[n.id] = n

    adjacency: dict[int, list[int]] = {i: [] for i in node_map}
    poses: dict[tuple[int, int], RelativePose] = {}
    for u, v in edges:
        u, v = int(u), int(v)
        if u not in node_map or v not in node_map:
            raise InvalidArgument(f"edge ({u},{v}) references unknown node")
        if u == v:
            raise InvalidArgument(f"self loop at node {u}")
        if (u, v) in poses:
            raise InvalidArgument(f"duplicate edge ({u},{v})")
        poses[(u, v)] = relative_pose(node_map[u].pos, node_map[v].pos)
        adjacency[u].append(v)

    return NavGraph(node_map,
                    {i: tuple(sorted(nbrs)) for i, nbrs in adjacency.items()},
                    poses)


def path_length(graph: NavGraph, path: Sequence[int]) -> float:
    """Total Euclidean length of an edge-consecutive node sequence."""
    if not path:
        raise InvalidArgument("empty path")
    total = 0.0
    for u, v in zip(path, path[1:]):
        total += graph.edge_pose(u, v).length
    return total


def check_route(graph: NavGraph, path, what: str) -> None:
    """InvalidArgument unless the ``what`` route is non-empty, of known
    nodes, and each hop an edge."""
    if not path:
        raise InvalidArgument(f"{what} path is empty")
    for n in path:
        if n not in graph.nodes:
            raise InvalidArgument(f"{what} path references unknown node {n}")
    for u, v in zip(path, path[1:]):
        if not graph.has_edge(u, v):
            raise InvalidArgument(f"{what} path hop {u}->{v} is not an edge")


class PathGraph:
    """Exploration state for one episode: visited set, route, and frontier.

    ``visited`` is the set of decision nodes; ``route`` is the full
    executed trajectory including pass-through nodes used to reach a
    non-adjacent frontier choice.  The frontier is every unvisited node
    adjacent to the visited set.
    """

    def __init__(self, graph: NavGraph, start: int):
        if start not in graph.nodes:
            raise InvalidArgument(f"unknown start node {start}")
        self.graph = graph
        self.current = start
        self.visited: set[int] = {start}
        self.route: list[int] = [start]
        self.terminal = False
        self._frontier: set[int] = set(graph.neighbors(start)) - self.visited

    def frontier(self) -> list[int]:
        """Candidate movement targets, sorted by node id."""
        return [] if self.terminal else sorted(self._frontier)

    def advance(self, chosen: int) -> list[int]:
        """Move to a frontier node; returns the traversed segment (current excluded).

        A choice that is not adjacent to the current node is reached through
        the shortest route inside the explored region (visited plus the
        chosen node).
        """
        if self.terminal:
            raise IllegalAction("episode already terminated")
        if chosen == STOP:
            self.terminal = True
            return []
        if chosen not in self._frontier:
            raise IllegalAction(f"node {chosen} is not on the frontier")
        if self.graph.has_edge(self.current, chosen):
            segment = [chosen]
        else:
            route = self.graph.shortest_path(self.current, chosen,
                                             allowed=self.visited | {chosen})
            if route is None:
                raise IllegalAction(f"no route through explored region to {chosen}")
            segment = route[1:]
        self.route.extend(segment)
        self.current = chosen
        self.visited.add(chosen)
        self._frontier.discard(chosen)
        self._frontier |= set(self.graph.neighbors(chosen)) - self.visited
        return segment


# ------------------------------------------------------------- file formats


def graph_to_dict(graph: NavGraph) -> dict:
    """Environment dict with undirected connection pairs.

    Every directed edge must have its reverse; each pair is emitted once as
    [low, high].
    """
    pairs = set()
    for (u, v) in graph.poses:
        if not graph.has_edge(v, u):
            raise InvalidArgument(f"edge {u}->{v} has no reverse; cannot store as connections")
        pairs.add((min(u, v), max(u, v)))
    return {
        "nodes": [
            {"id": n.id, "pos": [float(c) for c in n.pos],
             "room": n.room, "objects": list(n.objects)}
            for n in (graph.nodes[i] for i in graph.node_ids())
        ],
        "edges": [list(p) for p in sorted(pairs)],
    }


# an environment file's node entry: its keys and their types
NODE_KEYS = {"id": int, "pos": [float], "room": int, "objects": [int]}


def save_environment(path, graph: NavGraph) -> None:
    write_json(path, graph_to_dict(graph))


def graph_from_dict(data: dict) -> NavGraph:
    check_record(data, {"nodes": list, "edges": list}, "environment")
    nodes = []
    for i, entry in enumerate(data["nodes"]):
        check_record(entry, NODE_KEYS, f"node entry at index {i}")
        nodes.append(NavNode(id=entry["id"],
                             pos=tuple(float(c) for c in entry["pos"]),
                             room=entry["room"], objects=tuple(entry["objects"])))
    for i, pair in enumerate(data["edges"]):
        if not (has_type(pair, [int]) and len(pair) == 2):
            raise SchemaError(f"edge entry at index {i}: expected [from, to] node ids")
    # a connection is two directed edges, so one stored twice is a duplicate edge
    edges = [e for u, v in data["edges"] for e in ((u, v), (v, u))]
    try:
        return build_graph(nodes, edges)
    except InvalidArgument as exc:
        raise SchemaError(str(exc)) from exc


def load_environment(path) -> NavGraph:
    data = read_json(path)
    try:
        return graph_from_dict(data)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
