"""Rollouts, recovery labels, loss mixing, and the training loop."""

import json
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_model import record_calls

from oikg import artifacts, model, nn, training
from oikg.errors import InvalidArgument, InvalidState, NumericFailure
from oikg.model import TINY_CONFIG, EpisodeCache, build_params
from oikg.navgraph import STOP, NavNode, PathGraph, build_graph
from oikg.rng import substream
from oikg.synthenv import (Episode, EnvParams, generate_environment,
                           generate_instruction, make_episode, make_latents)
from oikg.training import (EnvBundle, RolloutRecord, StepRecord, TrainConfig,
                           check_routes, episode_loss, evaluate_policy,
                           greedy_rollout, pseudo_label, random_policy,
                           recovery_label, rollout, rollout_teacher,
                           sample_policy, teacher_policy, train,
                           write_training_log)

MCFG = TINY_CONFIG
REFERENCE = Path(__file__).resolve().parents[1] / "benches" / "reference.json"


def state_dict(store) -> dict:
    """A copy of every parameter's values, by name."""
    return {name: store[name].data.copy() for name in store.names()}


def graph_from(points, pairs, directed=()):
    nodes = [NavNode(i, tuple(map(float, p)), i % 8, (i % 8,))
             for i, p in points]
    edges = [e for u, v in pairs for e in ((u, v), (v, u))] + list(directed)
    return build_graph(nodes, edges)


def episode_for(graph, gt, seed=0):
    return Episode(gt_path=tuple(gt), instruction=generate_instruction(graph, gt, seed))


def teacher_accuracy(records) -> float:
    """Fraction of supervised steps whose argmax equals the supervision."""
    steps = [s for rec in records for s in rec.steps]
    assert steps, "no steps to score"
    return sum(1.0 for s in steps if s.predicted == s.supervision) / len(steps)


@pytest.fixture(scope="module")
def world():
    g = generate_environment(EnvParams(node_count=14, connection_radius=4.0,
                                       extent=11.0, feature_dim=MCFG.vis_dim,
                                       seed=5))
    lat = make_latents(g, MCFG.vis_dim, seed=5)
    return EnvBundle(g, lat, sigma=0.0)


@pytest.fixture()
def params():
    return build_params(MCFG, seed=0)


def test_config_validation():
    TrainConfig(lam=0.0)
    TrainConfig(lam=1.0)
    with pytest.raises(InvalidArgument):
        TrainConfig(lam=-0.1)
    with pytest.raises(InvalidArgument):
        TrainConfig(lam=1.1)
    with pytest.raises(InvalidArgument):
        TrainConfig(t_max=0)
    for lr in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(InvalidArgument, match="lr"):
            TrainConfig(lr=lr)
    with pytest.raises(InvalidArgument):
        TrainConfig(batch_size=0)


# ------------------------------------------------------------ teacher side


def test_teacher_record_structure(world, params):
    ep = make_episode(world.graph, seed=2)
    rec = rollout_teacher(world, ep, params, MCFG)
    gt = ep.gt_path
    assert len(rec.steps) == len(gt)
    assert tuple(s.supervision for s in rec.steps) == gt[1:] + (STOP,)
    assert rec.route == gt  # reference routes never need detours
    assert [s.node for s in rec.steps] == list(gt)
    for s in rec.steps:
        assert float(s.loss.data) > 0.0


def test_teacher_single_node_route(world, params):
    n = world.graph.node_ids()[0]
    ep = episode_for(world.graph, (n,))
    rec = rollout_teacher(world, ep, params, MCFG)
    assert len(rec.steps) == 1
    assert rec.steps[0].supervision == STOP
    assert rec.route == (n,)


def test_teacher_guards(world, params):
    ep = make_episode(world.graph, seed=2)
    check_routes([(world, ep)], len(ep.gt_path))
    with pytest.raises(InvalidArgument):
        check_routes([(world, ep)], len(ep.gt_path) - 1)


def make_fake_record(margins):
    """One record per margin: 2 candidates, gt slot 0 leading by margin."""
    rec = RolloutRecord()
    for m in margins:
        scores = nn.Tensor(np.array([m, 0.0]))
        rec.steps.append(StepRecord(node=0, order=(7,), logits=scores.data,
                                    predicted=7, supervision=7,
                                    loss=nn.cross_entropy(scores, 0)))
    return rec


def test_perfect_margin_means_zero_loss():
    rec = make_fake_record([50.0, 50.0, 50.0])
    assert float(rec.mean_loss().data) < 1e-20


def test_mean_loss_averages_own_length():
    rec = make_fake_record([0.0, 0.0])  # each step: ln 2
    assert float(rec.mean_loss().data) == pytest.approx(np.log(2.0), abs=1e-12)
    with pytest.raises(InvalidArgument):
        RolloutRecord().mean_loss()


def test_episode_loss_arithmetic(world, params):
    ep = make_episode(world.graph, seed=3)

    def mixed(lam):
        return episode_loss(world, ep, params, MCFG, substream(0, "mix"), 8, lam)

    _, tfm, sfm = mixed(0.2)
    assert tfm != sfm
    assert float(mixed(1.0)[0].data) == tfm
    assert float(mixed(0.0)[0].data) == sfm
    with pytest.raises(InvalidArgument):
        mixed(1.5)


def test_episode_loss_linear_in_lambda(world, params):
    """The mix of the two walks' mean losses, each walk as run on its own."""
    ep = make_episode(world.graph, seed=3)
    tf = rollout_teacher(world, ep, params, MCFG)
    sf = rollout(world, ep, 8, sample_policy(substream(0, "lin")), params, MCFG,
                 label=recovery_label)
    tfm = float(tf.mean_loss().data)
    sfm = float(sf.mean_loss().data)
    for lam in (0.0, 0.2, 0.5, 1.0):
        got, tf_got, sf_got = episode_loss(world, ep, params, MCFG,
                                           substream(0, "lin"), 8, lam)
        assert (tf_got, sf_got) == (tfm, sfm)
        assert float(got.data) == lam * tfm + (1.0 - lam) * sfm  # bitwise


# ----------------------------------------------------------- pseudo labels


def star_world():
    # hub 0; leaves 1 (with side link to 2), 2, 3
    return graph_from([(0, (0, 0, 0)), (1, (2, 0, 0)), (2, (2, 2, 0)),
                       (3, (-2, 0, 0))],
                      [(0, 1), (0, 2), (0, 3), (1, 2)])


def test_pseudo_label_on_path(world):
    ep = make_episode(world.graph, seed=4)
    pg = PathGraph(world.graph, ep.start)
    for nxt in ep.gt_path[1:]:
        slot = pseudo_label(pg, ep, world.graph)
        frontier = pg.frontier()
        assert frontier[slot] == nxt
        pg.advance(nxt)
    assert pseudo_label(pg, ep, world.graph) == len(pg.frontier())  # STOP


def test_pseudo_label_deviation_recovery():
    # gt 0 -> 1 -> 2; agent wandered to 3; nearest unvisited gt node is 1
    # and the first hop back is through 0's neighbor 1 directly
    g = graph_from([(0, (0, 0, 0)), (1, (2, 0, 0)), (2, (4, 0, 0)),
                    (3, (0, 2, 0)), (4, (2, 2, 0)), (5, (4, 2, 0))],
                   [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (4, 1)])
    ep = episode_for(g, (0, 1, 2))
    pg = PathGraph(g, 0)
    pg.advance(3)
    slot = pseudo_label(pg, ep, g)
    frontier = pg.frontier()  # unvisited neighbors of {0, 3}
    assert frontier[slot] == 1
    pg.advance(4)  # deviate further; now 1 reachable via 4 -> 1
    slot = pseudo_label(pg, ep, g)
    assert pg.frontier()[slot] == 1


def test_pseudo_label_goal_reached_stop():
    g = star_world()
    ep = episode_for(g, (0, 1))
    pg = PathGraph(g, 0)
    pg.advance(1)
    assert pseudo_label(pg, ep, g) == len(pg.frontier())


def test_pseudo_label_restricted_frontier_fallback():
    # hub 0; the agent left the route (0, 2, 4) for 1.  The nearest
    # unvisited route node is 4, off the frontier, and its shortest route
    # 1 -> 0 -> 3 -> 4 starts at visited 0, so the label falls back to the
    # frontier node nearest 4: 3, neither the first hop nor the target
    g = graph_from([(0, (0, 0, 0)), (1, (2, 0, 0)), (2, (-2, 6, 0)),
                    (3, (-2, 0, 0)), (4, (-4, 0, 0))],
                   [(0, 1), (0, 2), (0, 3), (2, 4), (3, 4)])
    ep = episode_for(g, (0, 2, 4))
    pg = PathGraph(g, 0)
    pg.advance(1)
    assert pg.frontier() == [2, 3]
    assert g.shortest_path(1, 4) == [1, 0, 3, 4]
    assert pg.frontier()[pseudo_label(pg, ep, g)] == 3


def test_pseudo_label_stranded_stop():
    # pure star: the agent passed the goal 3 and then visited every other
    # node, so the frontier is empty away from the goal
    g = graph_from([(0, (0, 0, 0)), (1, (2, 0, 0)), (2, (0, 2, 0)),
                    (3, (-2, 0, 0))],
                   [(0, 1), (0, 2), (0, 3)])
    ep = episode_for(g, (0, 3))
    pg = PathGraph(g, 0)
    for node in (3, 1, 2):
        pg.advance(node)
    assert pg.frontier() == [] and pg.current != 3
    assert pseudo_label(pg, ep, g) == 0  # only the STOP slot exists


def test_pseudo_label_unreachable_raises():
    # one-way edge into a dead end: 0 -> 1; gt goal 2 unreachable from 1
    g = graph_from([(0, (0, 0, 0)), (1, (2, 0, 0)), (2, (0, 2, 0))],
                   [(0, 2)], directed=[(0, 1)])
    ep = episode_for(g, (0, 2))
    pg = PathGraph(g, 0)
    pg.advance(1)
    with pytest.raises(InvalidState):
        pseudo_label(pg, ep, g)


def floyd_warshall(graph):
    ids = graph.node_ids()
    n = len(ids)
    assert ids == list(range(n))
    d = np.full((n, n), np.inf)
    d[np.arange(n), np.arange(n)] = 0.0
    for (u, v), pose in graph.poses.items():
        d[u, v] = pose.length
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def oracle_label(pg, gt, graph, d):
    """Independent recovery-label derivation from all-pairs distances."""
    tol = 1e-9
    frontier = pg.frontier()
    cur = pg.current
    unvis = [n for n in gt if n not in pg.visited]
    if unvis:
        dmin = min(d[cur, n] for n in unvis)
        n_star = next(n for n in gt if n in unvis and d[cur, n] <= dmin + tol)
    else:
        n_star = gt[-1]
    if cur == n_star:
        return len(frontier)
    if np.isinf(d[cur, n_star]):
        return None
    hops = [v for v in graph.neighbors(cur)
            if abs(graph.poses[(cur, v)].length + d[v, n_star]
                   - d[cur, n_star]) <= tol]
    hop = min(hops)
    if hop in frontier:
        return frontier.index(hop)
    if not frontier:
        return len(frontier)
    best = min(frontier, key=lambda f: (d[f, n_star], f))
    return frontier.index(best)


def reachable_states(graph, start):
    """Every distinct (visited set, current node) exploration state."""
    seen = set()
    states = []
    queue = deque([(start,)])
    while queue:
        seq = queue.popleft()
        pg = PathGraph(graph, seq[0])
        for a in seq[1:]:
            pg.advance(a)
        key = (frozenset(pg.visited), pg.current)
        if key in seen:
            continue
        seen.add(key)
        states.append(pg)
        for f in pg.frontier():
            queue.append(seq + (f,))
    return states


def test_pseudo_label_exhaustive_oracle():
    total = 0
    for g_seed in range(4):
        g = generate_environment(EnvParams(node_count=7,
                                           connection_radius=5.0,
                                           extent=8.0, feature_dim=9,
                                           seed=g_seed))
        d = floyd_warshall(g)
        rng = substream(g_seed, "sweep-gt")
        ids = g.node_ids()
        for _ in range(2):
            a, b = rng.choice(len(ids), size=2, replace=False)
            gt = tuple(g.shortest_path(int(ids[a]), int(ids[b])))
            ep = episode_for(g, gt)
            for pg in reachable_states(g, gt[0]):
                want = oracle_label(pg, gt, g, d)
                assert want is not None
                assert pseudo_label(pg, ep, g) == want
                total += 1
    assert total > 200


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), nodes=st.integers(3, 9),
       waypoints=st.lists(st.integers(0, 8), min_size=1, max_size=4),
       moves=st.lists(st.integers(0, 63), max_size=12))
def test_pseudo_label_is_total(seed, nodes, waypoints, moves):
    """On any connected world, any reference route through it (shortest
    legs between waypoints, so nodes may repeat) and any walk of legal
    frontier moves from its start, every state gets a label that is a slot
    of frontier + [STOP]."""
    g = generate_environment(EnvParams(node_count=nodes, connection_radius=5.0,
                                       extent=8.0, feature_dim=9, seed=seed))
    stops = [w % nodes for w in waypoints]
    gt = [stops[0]]
    for a, b in zip(stops, stops[1:]):
        gt += g.shortest_path(a, b)[1:]
    ep = episode_for(g, gt)
    pg = PathGraph(g, gt[0])
    for m in moves + [None]:
        frontier = pg.frontier()
        label = pseudo_label(pg, ep, g)
        assert type(label) is int and 0 <= label <= len(frontier)
        if m is None or not frontier:
            break
        pg.advance(frontier[m % len(frontier)])


# ------------------------------------------------------------ student side


def test_student_rollout_deterministic_and_bounded(world, params):
    ep = make_episode(world.graph, seed=6)
    a = rollout(world, ep, 6, sample_policy(substream(9, "s")), params, MCFG,
                label=recovery_label)
    b = rollout(world, ep, 6, sample_policy(substream(9, "s")), params, MCFG,
                label=recovery_label)
    assert a.route == b.route
    assert [s.supervision for s in a.steps] == [s.supervision for s in b.steps]
    assert np.array_equal(a.steps[0].logits, b.steps[0].logits)
    assert 1 <= len(a.steps) <= 6
    # terminal at sampled STOP or after t_max steps
    assert a.steps[-1].action == STOP or len(a.steps) == 6
    for s in a.steps:
        assert s.supervision in tuple(s.order) + (STOP,)
    c = rollout(world, ep, 6, sample_policy(substream(10, "s")), params, MCFG,
                label=recovery_label)
    assert isinstance(c.route, tuple)


# --------------------------------------------------------------- evaluation


def test_greedy_rollout_and_evaluate(world, params):
    eps = [make_episode(world.graph, seed=s) for s in (2, 3)]
    route = greedy_rollout(world, eps[0], params, MCFG, t_max=5)
    assert route[0] == eps[0].start
    rows, summary = evaluate_policy([(world, e) for e in eps], params, MCFG, 5)
    assert sorted(rows) == ["ep000", "ep001"]
    assert summary["count"] == 2


def test_greedy_eval_never_computes_recovery_labels(world, params,
                                                   monkeypatch):
    def refuse(*args):
        raise AssertionError("greedy evaluation computed a recovery label")

    monkeypatch.setattr(training, "pseudo_label", refuse)
    ep = make_episode(world.graph, seed=2)
    rec = rollout(world, ep, 5, training.greedy_policy, params, MCFG)
    assert all(s.supervision is None and s.loss is None for s in rec.steps)
    assert [s.action for s in rec.steps] == [s.predicted for s in rec.steps]
    evaluate_policy([(world, ep)], params, MCFG, 5)


def test_rollout_without_params_runs_no_model(world, monkeypatch):
    def refuse(*args):
        raise AssertionError("model or renderer ran without params")

    monkeypatch.setattr(training, "forward_step", refuse)
    monkeypatch.setattr(model, "render_observation", refuse)
    ep = make_episode(world.graph, seed=4)
    oracle = rollout(world, ep, 30, teacher_policy(ep), label=recovery_label)
    assert oracle.route == ep.gt_path
    assert [s.action for s in oracle.steps] == list(ep.gt_path[1:]) + [STOP]
    # on the reference route the recovery label is the reference next hop
    assert [s.supervision for s in oracle.steps] == \
        [s.action for s in oracle.steps]
    a = rollout(world, ep, 6, random_policy(substream(1, "r")))
    b = rollout(world, ep, 6, random_policy(substream(1, "r")))
    assert a.route == b.route and 1 <= len(a.steps) <= 6
    for s in a.steps:
        assert s.logits is None and s.predicted is None
        assert s.action in list(s.order) + [STOP]


def test_rollout_renders_each_node_once_per_episode(world, params,
                                                    monkeypatch):
    renders = []
    render = model.render_observation

    def counted(graph, node, *args):
        renders.append(node)
        return render(graph, node, *args)

    monkeypatch.setattr(model, "render_observation", counted)
    ep = make_episode(world.graph, seed=6)
    cache = EpisodeCache()
    tf = rollout_teacher(world, ep, params, MCFG, cache=cache)
    sf = rollout(world, ep, 8, sample_policy(substream(9, "s")), params, MCFG,
                 cache, label=recovery_label)
    visited = {s.node for rec in (tf, sf) for s in rec.steps}
    assert len(tf.steps) + len(sf.steps) > len(visited)  # some steps revisit
    assert sorted(renders) == sorted(visited)
    renders.clear()  # the episode loss walks the same routes on one cache
    episode_loss(world, ep, params, MCFG, substream(9, "s"), 8, 0.2)
    assert sorted(renders) == sorted(visited)


def test_greedy_rollout_renders_once_per_step(world, params, monkeypatch):
    """A walk never revisits a node, so greedy evaluation, one cache per
    episode, renders one panorama per decision step, at that step's node."""
    renders = []
    render = model.render_observation

    def counted(graph, node, *args):
        renders.append(node)
        return render(graph, node, *args)

    monkeypatch.setattr(model, "render_observation", counted)
    steps = 0
    for seed in (2, 3, 6):
        renders.clear()
        with nn.no_tape():
            rec = rollout(world, make_episode(world.graph, seed=seed), 8,
                          training.greedy_policy, params, MCFG)
        assert renders == [s.node for s in rec.steps]
        steps += len(rec.steps)
    assert steps > 3  # some walk takes more than one step


def test_second_greedy_pass_reads_candidate_geometry_from_memo(params, monkeypatch):
    """Greedy evaluation fills the world's candidate memo: a second pass
    over the same episodes makes no ``relative_pose``, ``trig_embed`` or
    ``nearest_column`` call, and takes the same routes.  Rendering is not
    memoized, so each episode still renders as many panoramas as on the
    first pass.  That count is kept on purpose: the benchmark tracer
    requires render calls in every traced pass, and its passes repeat
    episodes."""
    g = generate_environment(EnvParams(node_count=14, connection_radius=4.0,
                                       extent=11.0, feature_dim=MCFG.vis_dim, seed=5))
    env = EnvBundle(g, make_latents(g, MCFG.vis_dim, seed=5), sigma=0.0)
    episodes = [make_episode(g, seed=s) for s in range(6)]
    calls = {name: record_calls(monkeypatch, model, name)
             for name in ("relative_pose", "trig_embed", "nearest_column",
                          "render_observation")}

    def greedy_pass():
        routes, counts = [], []
        for ep in episodes:
            before = {name: len(log) for name, log in calls.items()}
            routes.append(training.greedy_rollout(env, ep, params, MCFG, 8))
            counts.append({name: len(log) - before[name] for name, log in calls.items()})
        return routes, counts

    routes, first = greedy_pass()
    assert sum(c["relative_pose"] for c in first) > 0   # some candidate is not adjacent
    assert sum(c["nearest_column"] for c in first) > 0
    again, second = greedy_pass()
    assert again == routes
    for name in ("relative_pose", "trig_embed", "nearest_column"):
        assert [c[name] for c in second] == [0] * len(episodes), name
    assert [c["render_observation"] for c in second] == \
        [c["render_observation"] for c in first]
    assert all(c["render_observation"] > 0 for c in second)


def test_key_detail_computed_once_per_episode(world, params, monkeypatch):
    """A teacher and a student rollout sharing one cache compute the key
    detail once, and the cache keeps its one read-only array.  Greedy
    evaluation computes it once per episode."""
    calls = []
    extract = model.extract_key_detail

    def counted(*args):
        calls.append(extract(*args))
        return calls[-1]

    monkeypatch.setattr(model, "extract_key_detail", counted)
    ep = make_episode(world.graph, seed=6)
    cache = EpisodeCache()
    tf = rollout_teacher(world, ep, params, MCFG, cache=cache)
    sf = rollout(world, ep, 8, sample_policy(substream(9, "s")), params, MCFG,
                 cache, label=recovery_label)
    assert len(calls) == 1 and len(tf.steps + sf.steps) > 1
    assert cache.key_detail is calls[0][0] and cache.key_detail.shape == (MCFG.dim,)
    with pytest.raises(ValueError):
        cache.key_detail[0] = 0.0
    calls.clear()
    episode_loss(world, ep, params, MCFG, substream(9, "s"), 8, 0.2)
    assert len(calls) == 1
    calls.clear()
    eps = [make_episode(world.graph, seed=s) for s in (2, 3, 6)]
    evaluate_policy([(world, e) for e in eps], params, MCFG, 6)
    assert len(calls) == len(eps)


def test_greedy_eval_builds_no_tape(world, params, monkeypatch):
    scores = []
    forward = training.forward_step

    def spy(*args, **kwargs):
        feats, action = forward(*args, **kwargs)
        scores.append(feats.scores)
        return feats, action

    ep = make_episode(world.graph, seed=3)
    taped = rollout(world, ep, 6, training.greedy_policy, params, MCFG)
    monkeypatch.setattr(training, "forward_step", spy)
    assert greedy_rollout(world, ep, params, MCFG, 6) == list(taped.route)
    assert len(scores) == len(taped.steps)
    for s, want in zip(scores, taped.steps):
        np.testing.assert_array_equal(s.data, want.logits)
        assert not s.requires_grad and s._parents == ()
    evaluate_policy([(world, ep)], params, MCFG, 6)
    assert all(s._parents == () for s in scores)


# ----------------------------------------------------------- training loop


def test_train_zero_iterations_no_change(world, params):
    before = state_dict(params)
    ep = make_episode(world.graph, seed=2)
    log = train([(world, ep)], params, TrainConfig(iterations=0), MCFG)
    assert log == []
    after = state_dict(params)
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_train_deterministic(world, tmp_path):
    eps = [make_episode(world.graph, seed=s) for s in (2, 3, 4)]
    data = [(world, e) for e in eps]
    cfg = TrainConfig(lam=0.2, t_max=8, lr=3e-3, iterations=4, batch_size=2,
                      seed=11, eval_every=2)
    logs, finals = [], []
    for run in ("a", "b"):
        p = build_params(MCFG, seed=0)
        logs.append(train(data, p, cfg, MCFG))
        finals.append(state_dict(p))
        artifacts.save_checkpoint(tmp_path / f"{run}.ckpt", p)
    assert logs[0] == logs[1]
    assert all(np.array_equal(finals[0][k], finals[1][k]) for k in finals[0])
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    # eval columns filled only on eval iterations
    assert logs[0][0]["eval_SR"] == "" and logs[0][1]["eval_SR"] != ""


def test_train_log_format(world, params, tmp_path):
    ep = make_episode(world.graph, seed=2)
    cfg = TrainConfig(t_max=8, lr=3e-3, iterations=2, batch_size=1, seed=1)
    log = train([(world, ep)], params, cfg, MCFG)
    path = tmp_path / "log.csv"
    write_training_log(path, log, comment="config_hash=0123")
    lines = path.read_text().strip().split("\n")
    assert lines[:2] == ["# config_hash=0123", "iteration,tf_loss,sf_loss,total_loss,"
                         "grad_norm,eval_SR,eval_SPL,eval_nDTW"]
    assert len(lines) == 4
    first = lines[2].split(",")
    assert first[0] == "1"
    assert float(first[3]) > 0.0
    assert first[5] == ""  # no eval ran


def test_train_changes_params_and_learns(world):
    p = build_params(MCFG, seed=0)
    before = state_dict(p)
    ep = make_episode(world.graph, seed=2)
    cfg = TrainConfig(lam=0.2, t_max=10, lr=3e-3, iterations=150,
                      batch_size=1, seed=1)
    log = train([(world, ep)], p, cfg, MCFG)
    assert any(not np.array_equal(before[k], state_dict(p)[k]) for k in before)
    rec = rollout_teacher(world, ep, p, MCFG)
    assert teacher_accuracy([rec]) == 1.0
    assert greedy_rollout(world, ep, p, MCFG, 10) == list(ep.gt_path)
    assert log[-1]["total_loss"] < log[0]["total_loss"]


def test_train_with_evaluations_learns_as_without(world):
    """Evaluation inside and before train turns the tape off only for itself."""
    data = [(world, make_episode(world.graph, seed=s)) for s in (2, 3)]
    runs = []
    for eval_every in (0, 1):
        p = build_params(MCFG, seed=0)
        evaluate_policy(data, p, MCFG, 5)
        cfg = TrainConfig(lam=0.2, t_max=8, lr=3e-3, iterations=3,
                          batch_size=2, seed=1, eval_every=eval_every)
        log = train(data, p, cfg, MCFG)
        runs.append(([row["total_loss"] for row in log], state_dict(p)))
    (loss_a, state_a), (loss_b, state_b) = runs
    assert loss_a == loss_b
    assert all(np.array_equal(state_a[k], state_b[k]) for k in state_a)
    assert not np.array_equal(state_b["graph.edge.w"],
                              build_params(MCFG, seed=0)["graph.edge.w"].data)


def test_overfit_losses_bitwise_equal_benchmark_reference():
    """The first 30 iterations of the overfit run (test_a05's setup) give the
    benchmark's recorded losses exactly: restructuring the tape must not
    change the arithmetic.  Reads the reference file, never writes it."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert ref["seed"] == 0
    want = ref["workloads"]["overfit_tiny"][:30]
    g = generate_environment(EnvParams(node_count=14, connection_radius=4.0,
                                       extent=11.0, feature_dim=MCFG.vis_dim,
                                       seed=11))
    env = EnvBundle(g, make_latents(g, MCFG.vis_dim, seed=11))
    data = [(env, make_episode(g, seed=i)) for i in range(20)]
    cfg = TrainConfig(lam=0.2, t_max=15, lr=3e-3, iterations=30,
                      batch_size=4, seed=0)
    log = train(data, build_params(MCFG, seed=0), cfg, MCFG)
    assert [row["total_loss"] for row in log] == want


def test_train_non_finite_aborts_with_dump(world):
    """A non-finite loss at iteration 1 raises before any optimizer step:
    the store keeps the values the CLI dumps to abort.ckpt."""
    p = build_params(MCFG, seed=0)
    name = p.names()[0]
    p.params[name].data[...] = np.nan
    before = state_dict(p)
    ep = make_episode(world.graph, seed=2)
    cfg = TrainConfig(t_max=6, iterations=3, batch_size=1, seed=1)
    with pytest.raises(NumericFailure, match="iteration 1"):
        train([(world, ep)], p, cfg, MCFG)
    after = state_dict(p)
    assert after.keys() == before.keys()
    for key, arr in after.items():
        np.testing.assert_array_equal(arr, before[key])


def test_train_non_finite_gradient_fails_at_its_step(world, monkeypatch):
    ep = make_episode(world.graph, seed=2)
    cfg = TrainConfig(t_max=6, iterations=3, batch_size=1, seed=1)
    after_first = build_params(MCFG, seed=0)
    train([(world, ep)], after_first,
          TrainConfig(t_max=6, iterations=1, batch_size=1, seed=1), MCFG)

    p = build_params(MCFG, seed=0)
    real_backward = nn.backward
    calls = []

    def poisoned_backward(loss):
        real_backward(loss)
        calls.append(1)
        if len(calls) == 2:  # iteration 2: finite loss, inf gradient
            grad = next(t.grad for t in p.params.values() if t.grad is not None)
            grad.flat[0] = np.inf

    monkeypatch.setattr(nn, "backward", poisoned_backward)
    with pytest.raises(NumericFailure, match="iteration 2"):
        train([(world, ep)], p, cfg, MCFG)
    assert len(calls) == 2
    left = state_dict(p)   # what the CLI dumps to abort.ckpt
    want = state_dict(after_first)
    assert left.keys() == want.keys()
    for name, arr in left.items():
        assert np.all(np.isfinite(arr))
        np.testing.assert_array_equal(arr, want[name])


def test_train_checks_every_route_before_compute(world, params, monkeypatch):
    """A route longer than t_max fails before any step, even in an episode
    the batches would never draw."""
    def refuse(*args):
        raise AssertionError("a step ran before the routes were checked")

    monkeypatch.setattr(training, "forward_step", refuse)
    short, long = (make_episode(world.graph, seed=s) for s in (2, 6))
    assert len(short.gt_path) < len(long.gt_path)
    cfg = TrainConfig(t_max=len(long.gt_path) - 1, iterations=0)
    with pytest.raises(InvalidArgument, match="exceeds t_max"):
        train([(world, short), (world, long)], params, cfg, MCFG)


def test_train_requires_data(world, params):
    with pytest.raises(InvalidArgument):
        train([], params, TrainConfig(iterations=1), MCFG)
