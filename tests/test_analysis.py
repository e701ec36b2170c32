"""Probes, estimators, and the ablation harness."""

import math
import signal
import time
from itertools import repeat
from types import SimpleNamespace

import numpy as np
import pytest

from tape_ops import cue_masks, mul, oracle_extract_key_detail, sub
from test_model import flag_label, frozen_memo, memo_slot

from oikg import analysis, model, nn
from oikg import training
from oikg.analysis import (GRID_LABELS, AblationRow, GradStats, detail_probe,
                           grad_probe, grad_second_moment, make_probe,
                           mi_plugin, pathway_filter, quantize_series,
                           run_ablation, sign_test, teacher_probe,
                           time_forward_steps, variant_config,
                           vln_loss_builder, write_ablation_csv)
from oikg.artifacts import write_json
from oikg.errors import InvalidArgument
from oikg.model import TINY_CONFIG, EpisodeCache, build_params
from oikg.navgraph import NavNode, build_graph
from oikg.rng import substream
from oikg.synthenv import (Episode, EnvParams, generate_environment,
                           generate_instruction, make_episode, make_latents)
from oikg.training import (EnvBundle, TrainConfig, recovery_label, rollout,
                           rollout_teacher, sample_policy, train)

MCFG = TINY_CONFIG


@pytest.fixture(scope="module")
def world():
    g = generate_environment(EnvParams(node_count=14, connection_radius=4.0,
                                       extent=11.0, feature_dim=MCFG.vis_dim,
                                       seed=5))
    lat = make_latents(g, MCFG.vis_dim, seed=5)
    env = EnvBundle(g, lat, sigma=0.0)
    return [(env, make_episode(g, seed=s)) for s in (2, 3)]


# ------------------------------------------------------------- grad probe


def linear_regression_builder(seed):
    # L = (w*x - y)^2 with x = 1, y = 0, w = 1 -> dL/dw = 2, norm^2 = 4
    store = nn.ParamStore()
    w = store.add("w", np.float64(1.0))
    diff = sub(mul(w, nn.Tensor(np.float64(1.0))),
                  nn.Tensor(np.float64(0.0)))
    return store, mul(diff, diff)


def every_parameter(name):
    return True


def test_grad_second_moment_linear_regression():
    stats = grad_second_moment(linear_regression_builder, (0, 1, 2), every_parameter)
    assert abs(np.mean(stats.samples) - 4.0) <= 1e-8
    assert stats.samples == (4.0, 4.0, 4.0)
    assert len(stats.samples) == 3 and stats.failures == 0


def test_grad_second_moment_zero_loss_limit():
    def builder(seed):
        store = nn.ParamStore()
        w = store.add("w", np.zeros(2))
        loss = nn.cross_entropy(nn.add(nn.Tensor(np.array([50.0, 0.0])), w), 0)
        return store, loss

    stats = grad_second_moment(builder, (0, 1), every_parameter)
    assert np.mean(stats.samples) < 1e-20


def test_grad_second_moment_guards_and_failures():
    with pytest.raises(InvalidArgument):
        grad_second_moment(linear_regression_builder, (0,), every_parameter)

    def flaky(seed):
        store = nn.ParamStore()
        w = store.add("w", np.float64(np.nan if seed == 1 else 1.0))
        return store, mul(w, w)

    with pytest.warns(UserWarning, match="non-finite"):
        stats = grad_second_moment(flaky, (0, 1, 2), every_parameter)
    assert stats.failures == 1 and len(stats.samples) == 2


def test_pathway_filter_restricts_names():
    assert pathway_filter("obs.ang.w")
    assert pathway_filter("graph.stop")
    assert not pathway_filter("txt.embed")

    def builder(seed):
        store = nn.ParamStore()
        a = store.add("obs.w", np.float64(1.0))
        b = store.add("txt.w", np.float64(1.0))
        return store, nn.add(mul(a, a), mul(nn.scale(b, 3.0), b))

    stats = grad_second_moment(builder, (0, 1), pathway_filter)
    assert np.mean(stats.samples) == pytest.approx(4.0, abs=1e-12)  # txt.w excluded


def test_vln_builder_deterministic(world):
    build = vln_loss_builder(world, MCFG, lam=0.2, t_max=6)
    _, l1 = build(0)
    _, l2 = build(0)
    assert float(l1.data) == float(l2.data)
    stats = grad_second_moment(build, seeds=(0, 1), param_filter=pathway_filter)
    mean_sq_norm = np.mean(stats.samples)
    assert mean_sq_norm > 0.0 and math.isfinite(mean_sq_norm)
    with pytest.raises(InvalidArgument):
        vln_loss_builder([], MCFG, lam=0.2, t_max=6)
    with pytest.raises(InvalidArgument):  # routes are checked before any seed
        vln_loss_builder(world, MCFG, lam=0.2,
                         t_max=max(len(ep.gt_path) for _, ep in world) - 1)


def test_vln_builder_matches_inline_composition(world):
    """The builder's loss and every gradient equal, bit for bit, a teacher
    walk, a student walk on the same cache and their mix written out here."""
    lam, t_max, seed = 0.3, 6, 3
    store, loss = vln_loss_builder(world, MCFG, lam=lam, t_max=t_max)(seed)
    params = build_params(MCFG, seed)
    rng = substream(seed, "probe-student")
    total = None
    for env, ep in world:
        cache = EpisodeCache()
        tf = rollout_teacher(env, ep, params, MCFG, cache).mean_loss()
        sf = rollout(env, ep, t_max, sample_policy(rng), params, MCFG, cache,
                     label=recovery_label).mean_loss()
        mixed = nn.add(nn.scale(tf, lam), nn.scale(sf, 1.0 - lam))
        total = mixed if total is None else nn.add(total, mixed)
    want = nn.scale(total, 1.0 / len(world))
    assert loss.data.tobytes() == want.data.tobytes()
    nn.backward(loss)
    nn.backward(want)
    assert store.names() == params.names()
    for name in params.names():
        got, ref = store[name].grad, params[name].grad
        assert (got is None) == (ref is None), name
        if ref is not None:
            assert got.tobytes() == ref.tobytes(), name


# ----------------------------------------------------- mutual information


def test_mi_copy_case():
    rng = substream(1, "mi-copy")
    x = rng.integers(0, 2, size=100000)
    assert mi_plugin(x, x) == pytest.approx(math.log(2.0), abs=0.01)


def test_mi_independent_bits():
    rng = substream(2, "mi-indep")
    x = rng.integers(0, 2, size=100000)
    y = rng.integers(0, 2, size=100000)
    assert 0.0 <= mi_plugin(x, y) <= 0.01


def test_mi_constant_and_symmetry():
    rng = substream(3, "mi-sym")
    x = rng.integers(0, 4, size=500)
    assert mi_plugin(x, [7] * 500) == 0.0
    y = rng.integers(0, 3, size=500)
    assert mi_plugin(x, y) == pytest.approx(mi_plugin(y, x), abs=1e-12)
    assert mi_plugin(x, y) >= 0.0


def test_mi_guards():
    with pytest.raises(InvalidArgument):
        mi_plugin([1, 2], [1])
    with pytest.raises(InvalidArgument):
        mi_plugin([], [])


def test_quantize_series():
    assert quantize_series([[0.0], [1.0]], bins=2) == [0, 1]
    # constant dimension maps everything to bin 0
    assert quantize_series([[5.0, 0.0], [5.0, 1.0]], bins=2) == [0, 2]
    syms = quantize_series(substream(4, "q").normal(size=(100, 2)), bins=8)
    assert all(0 <= s < 64 for s in syms)
    with pytest.raises(InvalidArgument):
        quantize_series([[1.0]], bins=1)
    with pytest.raises(InvalidArgument):
        quantize_series(np.zeros((0, 2)), bins=2)


def test_cue_series_constant_without_details(world):
    mcfg = variant_config(MCFG, "MG--")
    params = build_params(mcfg, seed=0)
    _, xs, ys = teacher_probe(world, params, mcfg)
    assert len(set(xs)) == 1  # disabled details give a constant cue
    assert mi_plugin(xs, ys) == 0.0
    assert len(xs) == sum(len(ep.gt_path) for _, ep in world)
    full = build_params(MCFG, seed=0)
    _, xs_full, ys_full = teacher_probe(world, full, MCFG)
    assert len(xs_full) == len(xs) and ys_full == ys


@pytest.mark.parametrize("label", ["MGLO", "MGL-", "MG--"])
def test_cue_series_matches_key_detail_oracle(world, label):
    """The MI probe's cue series, rebuilt from each episode's tokens by the
    key-detail oracle over their ``cue_masks``: the key detail's first
    CUE_DIMS entries (zeros with both detail cues off), once per route
    node, quantized over the whole series."""
    mcfg = variant_config(MCFG, label)
    params = build_params(mcfg, seed=0)
    cues = []
    for _, ep in world:
        if mcfg.loc_detail or mcfg.obj_detail:
            with nn.no_tape():
                f_k, _ = oracle_extract_key_detail(
                    model.encode_instruction(ep.tokens, params, mcfg),
                    *cue_masks(ep.tokens), params, mcfg)
            cue = f_k[:analysis.CUE_DIMS]
        else:
            cue = np.zeros(analysis.CUE_DIMS)
        cues += [cue] * len(ep.gt_path)
    want = quantize_series(cues, bins=analysis.CUE_BINS)
    assert teacher_probe(world, params, mcfg)[1] == want
    assert (len(set(want)) > 1) == (label != "MG--")


# ------------------------------------------------------------- alignment


def test_alignment_uniform_baseline():
    g = build_graph([NavNode(0, (0.0, 0.0, 0.0), 0, (0,)),
                     NavNode(1, (2.0, 0.0, 0.0), 1, (1,)),
                     NavNode(2, (0.0, 2.0, 0.0), 2, (2,)),
                     NavNode(3, (-2.0, 0.0, 0.0), 3, (3,))],
                    [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)])
    lat = make_latents(g, MCFG.vis_dim, seed=0)
    ep = Episode(gt_path=(0,), tokens=generate_instruction(g, (0,), 0))
    params = build_params(MCFG, seed=0)
    for name in params.names():
        params.params[name].data[...] = 0.0
    score, _, _ = teacher_probe([(EnvBundle(g, lat), ep)], params, MCFG)
    assert score == pytest.approx(-math.log(4.0), abs=1e-12)


def test_alignment_matches_teacher_losses(world):
    params = build_params(MCFG, seed=0)
    losses = []
    for env, ep in world:
        rec = rollout_teacher(env, ep, params, MCFG)
        losses.extend(float(s.loss.data) for s in rec.steps)
    assert teacher_probe(world, params, MCFG)[0] == \
        pytest.approx(-np.mean(losses), abs=1e-12)
    with pytest.raises(InvalidArgument):
        teacher_probe([], params, MCFG)


def test_alignment_improves_with_training(world):
    params = build_params(MCFG, seed=0)
    before = teacher_probe(world, params, MCFG)[0]
    cfg = TrainConfig(lam=0.2, t_max=8, lr=3e-3, iterations=60, batch_size=2,
                      seed=1)
    train(world, params, cfg, MCFG)
    assert teacher_probe(world, params, MCFG)[0] > before


# ------------------------------------------------------------- sign test


def test_sign_test_values():
    assert sign_test([1, 1, 1, 1, 1]) == pytest.approx(2.0 / 32.0, abs=1e-15)
    assert sign_test([1, -1, 1, -1]) == 1.0
    assert sign_test([0.0, 0.0, 1.0]) == pytest.approx(1.0)  # zeros dropped
    assert sign_test([]) == 1.0
    assert sign_test([-2, -3, -4]) == pytest.approx(0.25, abs=1e-15)


def test_make_probe_and_json(tmp_path):
    probe = make_probe("demo", "A", "B", [1.0, 2.0, 3.0], [0.5, 2.5, 1.0])
    assert probe["variant_a"] == "A" and probe["variant_b"] == "B"
    assert probe["samples"]["a"] == [1.0, 2.0, 3.0]
    assert probe["mean_diff"] == pytest.approx(np.mean([0.5, -0.5, 2.0]))
    assert 0.0 < probe["sign_test_p"] <= 1.0
    p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
    write_json(p1, probe)
    write_json(p2, probe)
    assert p1.read_bytes() == p2.read_bytes()
    with pytest.raises(InvalidArgument):
        make_probe("demo", "A", "B", [1.0], [])


def test_grad_probe_structure(world):
    probe = grad_probe(world, seeds=(0, 1), base_mcfg=MCFG, lam=0.2, t_max=5)
    assert probe["variant_a"] == "MG--" and probe["variant_b"] == "----"
    assert len(probe["samples"]["a"]) == 2
    assert math.isfinite(probe["mean_diff"])
    assert probe["failures"] == {"a": 0, "b": 0}
    again = grad_probe(world, seeds=(0, 1), base_mcfg=MCFG, lam=0.2, t_max=5)
    assert again == probe


UNTRAINED = TrainConfig(iterations=0)   # the detail probe scores at initialization


def test_detail_probe_structure(world):
    probe = detail_probe(world, seeds=(0, 1), base_mcfg=MCFG, train_cfg=UNTRAINED)
    assert probe["variant_a"] == "MGLO" and probe["variant_b"] == "MG--"
    assert len(probe["samples"]["a"]) == 2
    assert len(probe["mi_cue_action"]["a"]) == 2
    assert all(v == 0.0 for v in probe["mi_cue_action"]["b"])


def test_detail_probe_walks_each_route_once(world, monkeypatch):
    """One forward step per teacher-forced decision: each seed and variant
    walks every reference route once, for the score and the cue series."""
    calls = []
    forward = training.forward_step

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward_step", counted)
    detail_probe(world, seeds=(0, 1, 2), base_mcfg=MCFG, train_cfg=UNTRAINED)
    assert len(calls) == 3 * 2 * sum(len(ep.gt_path) for _, ep in world)


# -------------------------------------------------------------- variants


def test_variant_config_labels():
    full = variant_config(MCFG, "MGLO")
    assert (full.decouple, full.geo_embed, full.loc_detail, full.obj_detail) \
        == (True, True, True, True)
    none = variant_config(MCFG, "----")
    assert (none.decouple, none.geo_embed, none.loc_detail, none.obj_detail) \
        == (False, False, False, False)
    assert flag_label(variant_config(MCFG, "M-L-")) == "M-L-"
    for label in GRID_LABELS:
        assert flag_label(variant_config(MCFG, label)) == label
    with pytest.raises(InvalidArgument):
        variant_config(MCFG, "XGLO")
    with pytest.raises(InvalidArgument):
        variant_config(MCFG, "MGL")


# -------------------------------------------------------------- ablation


def test_time_forward_steps(world):
    params = build_params(MCFG, seed=0)
    ms = time_forward_steps(world, params, MCFG, t_max=4, min_steps=5)
    assert ms > 0.0 and math.isfinite(ms)
    with pytest.raises(InvalidArgument):
        time_forward_steps(world, params, MCFG, t_max=4, min_steps=0)


def noisy_eval_set():
    """Eight episodes in a fresh noisy 30-node world, its memos empty."""
    g = generate_environment(EnvParams(node_count=30, connection_radius=3.5,
                                       extent=10.0, feature_dim=MCFG.vis_dim,
                                       seed=3))
    env = EnvBundle(g, make_latents(g, MCFG.vis_dim, seed=3), sigma=0.1)
    return env, [(env, make_episode(g, seed=s)) for s in range(8)]


def test_time_forward_steps_times_only_warm_passes(monkeypatch):
    """The untimed pass walks every route the timed passes walk, so the
    timed passes add no noise draw to the bundle's memo, no candidate to
    the graph's, and no panorama, candidate row or OGI output to the
    store's untaped memo.  The eval set's pass is longer than 50 steps, so a
    50-step warm-up would have left routes for the timed loop to fill."""
    _, data = noisy_eval_set()
    probe = build_params(MCFG, seed=0)   # a store of its own: the timed one starts empty
    with nn.no_tape():
        assert sum(len(rollout(env, ep, 15, training.greedy_policy, probe,
                               MCFG).steps) for env, ep in data) > 50

    env, data = noisy_eval_set()
    params = build_params(MCFG, seed=0)

    def memo_entries():
        inputs = memo_slot(env.graph, ("inputs", MCFG.view_grid.n_headings))
        memo = frozen_memo(params) or {"panorama": {}, "ogi": {}, "rows": {}}
        rows = memo["rows"].get(env.graph)
        return (len(env._draws),
                0 if inputs is None else int(np.count_nonzero(inputs[1][1])),
                len(memo["panorama"]),
                0 if rows is None else int(np.count_nonzero(rows[1])),
                sum(len(calls) for calls in memo["ogi"].values()))

    seen = []

    def clock():
        seen.append(memo_entries())
        return time.perf_counter()

    monkeypatch.setattr(analysis, "time", SimpleNamespace(perf_counter=clock))
    time_forward_steps(data, params, MCFG, t_max=15, min_steps=1)
    assert min(seen[-2]) > 0
    assert seen[-2] == seen[-1] == memo_entries()


def test_time_forward_steps_empty_data_raises():
    # a regression used to spin forever; the alarm turns a hang into a failure
    def hang(signum, frame):
        raise AssertionError("time_forward_steps hung on empty data")

    params = build_params(MCFG, seed=0)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        with pytest.raises(InvalidArgument):
            time_forward_steps([], params, MCFG, t_max=4, min_steps=5)
        with pytest.raises(InvalidArgument):
            time_forward_steps(iter([]), params, MCFG, t_max=4, min_steps=5)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_run_ablation_deterministic(world, tmp_path):
    tcfg = TrainConfig(lam=0.2, t_max=6, lr=3e-3, iterations=2, batch_size=1,
                       seed=0)
    grid = ("----", "MGLO")
    runs = [run_ablation(world, world, tcfg, MCFG, seeds=(0,), grid=grid,
                         min_timing_steps=3, jobs=1) for _ in range(2)]
    rows, sidecar, step_ms = runs[0]
    assert [r.label for r in rows] == list(grid)
    assert all(not r.failed for r in rows)
    assert sidecar["MGLO"]["0"].keys() == {"TL", "NE", "SR", "SPL"}
    assert rows == runs[1][0] and sidecar == runs[1][1]
    assert list(step_ms) == list(grid)
    assert all(ms > 0.0 and math.isfinite(ms) for ms in step_ms.values())

    path = tmp_path / "ablation.csv"
    write_ablation_csv(path, rows, comment="config_hash=0123")
    lines = path.read_text().strip().split("\n")
    assert lines[:2] == ["# config_hash=0123",
                         "variant,MED,GE,LD,OD,TL,NE,SR,SPL,failed"]
    assert len(lines) == 4
    assert lines[2].startswith("----,0,0,0,0,")
    assert lines[3].startswith("MGLO,1,1,1,1,")


def test_ablation_csv_flag_columns_read_off_the_label(tmp_path):
    path = tmp_path / "ablation.csv"
    rows = [AblationRow(label=label, tl=1.0, ne=2.0, sr=0.5, spl=0.25)
            for label in ("M-L-", "-G-O")]
    write_ablation_csv(path, rows, comment="c")
    lines = path.read_text().splitlines()
    assert lines[0] == "# c" and lines[2:] == [
        "M-L-,1,0,1,0,1.00,2.00,50.00,25.00,0",
        "-G-O,0,1,0,1,1.00,2.00,50.00,25.00,0"]


class FakePool:
    """A process pool that records the workers asked of it and maps in
    this process, so that no worker starts."""

    started: list = []

    def __init__(self, max_workers):
        FakePool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, units, workers", [
    (1, 5, None), (2, 5, 2), (64, 3, 3), (64, 1, None), (64, 0, None)])
def test_map_units_starts_at_most_one_worker_per_unit(monkeypatch, jobs, units,
                                                      workers):
    """A pool starts all of its workers up front, so ``map_units`` asks
    for at most one per unit, and for none when one process is enough."""
    monkeypatch.setattr(FakePool, "started", [])
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", FakePool)
    assert analysis.map_units(jobs, pow, range(units), repeat(2)) == [
        i * i for i in range(units)]
    assert FakePool.started == ([] if workers is None else [workers])


def test_map_units_rejects_fewer_than_one_job(monkeypatch):
    monkeypatch.setattr(FakePool, "started", [])
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", FakePool)
    for jobs in (0, -2):
        with pytest.raises(InvalidArgument):
            analysis.map_units(jobs, pow, range(3), repeat(2))
    assert FakePool.started == []


def route_cache_size_then_query(graph, src, dst) -> int:
    """The number of routed sources the graph held, before it routes one."""
    size = len(graph._dist_cache)
    graph.geodesic(src, dst)
    return size


def test_map_units_sends_each_worker_its_units_as_one_chunk(world):
    """Two workers, four units sharing one graph: each chunk of two arrives
    as one pickled object, so its second unit sees the route its first one
    cached; a unit pickled on its own would always see an empty cache."""
    graph = world[0][0].graph
    got = analysis.map_units(2, route_cache_size_then_query, [graph] * 4,
                             range(4), repeat(graph.node_ids()[-1]))
    assert got == [0, 1, 0, 1]


def test_run_ablation_single_row(world):
    tcfg = TrainConfig(t_max=6, lr=3e-3, iterations=1, batch_size=1, seed=0)
    rows, _, _ = run_ablation(world, world, tcfg, MCFG, seeds=(0,),
                              grid=("----",), min_timing_steps=3, jobs=1)
    assert len(rows) == 1
    assert rows[0].label == "----"


def test_run_ablation_divergence_marks_row(world):
    tcfg = TrainConfig(t_max=6, lr=1e200, iterations=3, batch_size=1, seed=0)
    with pytest.warns(UserWarning, match="diverged"), \
            np.errstate(over="ignore", invalid="ignore"):
        rows, _, step_ms = run_ablation(world, world, tcfg, MCFG, seeds=(0,),
                                        grid=("M---", "----"),
                                        min_timing_steps=3, jobs=1)
    assert [r.failed for r in rows] == [True, True]
    assert math.isnan(rows[0].sr)
    assert step_ms == {"M---": None, "----": None}


def test_run_ablation_guards(world):
    tcfg = TrainConfig(iterations=1)
    with pytest.raises(InvalidArgument):
        run_ablation(world, world, tcfg, MCFG, seeds=(), grid=GRID_LABELS,
                     min_timing_steps=3, jobs=1)


def test_run_ablation_checks_every_label_before_compute(world, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained before the grid was checked")

    monkeypatch.setattr(analysis, "train", no_training)
    for grid in (("MGLO", "XYZW"), ("MG--", "MG--"), ("----", "MGLO", "----")):
        with pytest.raises(InvalidArgument):
            run_ablation(world, world, TrainConfig(iterations=1), MCFG, seeds=(0,),
                         grid=grid, min_timing_steps=3, jobs=1)
