"""Shipping gate: one check per release criterion, budgets and tolerances
pinned inline.

Covers the oracle layer (angles, warping), elementwise gradient exactness,
ablation bypass identities, an overfit run, the generalization harness,
metric unit fixtures, recovery-supervision equivalence, estimator
calibration, and byte-level artifact determinism.
"""

import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from test_analysis import every_parameter, linear_regression_builder
from test_cli import GEN_ARGS, tree_hashes
from test_metrics import chain_graph, enumerate_dtw, graph_from, random_walk
from test_model import (env_of, frozen_gradient_fixture, record_calls,
                        record_param_reads)
from test_training import (episode_for, floyd_warshall, oracle_label,
                           reachable_states, teacher_accuracy)

from oikg import metrics, model, nn
from oikg.analysis import (GRID_LABELS, grad_second_moment, mi_plugin,
                           run_ablation, sign_test, write_ablation_csv)
from oikg.cli import main
from oikg.geometry import angular_distance
from oikg.model import TINY_CONFIG, build_params
from oikg.navgraph import PathGraph
from oikg.rng import substream
from oikg.synthenv import (EnvParams, generate_environment, make_episode,
                           make_latents)
from oikg.training import (EnvBundle, TrainConfig, evaluate_policy,
                           pseudo_label, rollout_teacher, train)


def dtw_world():
    # irregular hexagon-ish graph: varied geodesics for warping fuzz
    return graph_from(
        [(0, (0.0, 0.0, 0.0)), (1, (2.0, 0.0, 0.0)), (2, (2.0, 1.5, 0.0)),
         (3, (0.0, 2.0, 0.0)), (4, (4.0, 1.0, 0.0)), (5, (3.0, 3.0, 0.0))],
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (2, 4), (2, 5), (4, 5)])


def test_a01_angular_distance_matches_bruteforce():
    t0 = time.monotonic()
    rng = substream(101, "angular-pairs")
    pairs = rng.uniform(-10 * math.pi, 10 * math.pi, size=(100_000, 2))
    k = np.arange(-11, 12)
    oracle = np.abs(pairs[:, :1] - pairs[:, 1:] + 2 * math.pi * k).min(axis=1)
    got = np.array([angular_distance(a, b) for a, b in pairs])
    assert np.max(np.abs(got - oracle)) <= 1e-12
    assert time.monotonic() - t0 < 5.0


def test_a02_dtw_dynamic_program_matches_enumeration():
    t0 = time.monotonic()
    g = dtw_world()
    rng = substream(102, "dtw-pairs")
    for _ in range(1000):
        r = metrics.EpisodeResult(g, random_walk(g, rng), random_walk(g, rng))
        enum = enumerate_dtw(r)
        assert abs(metrics.dtw_cost(r) - enum) <= 1e-9
        want = math.exp(-enum / (3.0 * len(r.gt_path)))
        assert abs(metrics.ndtw(r) - want) <= 1e-9
    hand = metrics.EpisodeResult(chain_graph([3.0]), (0,), (0, 1))
    assert abs(metrics.ndtw(hand) - math.exp(-0.5)) <= 1e-9
    assert time.monotonic() - t0 < 30.0


def test_a03_every_parameter_gradient_matches_finite_differences():
    t0 = time.monotonic()
    graph, latents, tokens, params = frozen_gradient_fixture()

    def make_loss():
        pg = PathGraph(graph, start=0)
        feats, _ = model.forward_step(pg, env_of(graph, latents), tokens,
                                      params, TINY_CONFIG, model.EpisodeCache())
        return nn.cross_entropy(feats.scores, pg.frontier().index(1))

    nn.backward(make_loss())
    grads = {n: (params[n].grad.copy() if params[n].grad is not None
                 else np.zeros_like(params[n].data)) for n in params.names()}
    h = 1e-4
    for name in params.names():
        flat = params[name].data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = float(make_loss().data)
            flat[idx] = orig - h
            lm = float(make_loss().data)
            flat[idx] = orig
            numeric = (lp - lm) / (2 * h)
            err = (abs(numeric - gflat[idx])
                   / max(abs(numeric), abs(gflat[idx]), 1e-8))
            assert err <= 1e-4, f"{name}[{idx}]: {gflat[idx]} vs {numeric}"
    assert time.monotonic() - t0 < 60.0


def test_a04_flag_bypasses_are_exact(monkeypatch):
    graph, latents, tokens, _ = frozen_gradient_fixture()
    rng = substream(104, "pe-sweep")

    def step(cfg, params):
        """Parameter names one decision step reads, and its episode cache."""
        reads = record_param_reads(monkeypatch)
        cache = model.EpisodeCache()
        model.forward_step(PathGraph(graph, start=0), env_of(graph, latents),
                           tokens, params, cfg, cache)
        monkeypatch.undo()
        return set(reads), cache

    # geometric embedding off: the positional term is exactly zero, so with
    # a zeroed edge projection every candidate row is zero
    cfg = replace(TINY_CONFIG, geo_embed=False)
    params = build_params(cfg, seed=0)
    params["graph.edge.w"].data[:] = 0.0
    params["graph.edge.b"].data[:] = 0.0
    headings = rng.uniform(-math.pi, math.pi, size=64)
    star = graph_from([(0, (0.0, 0.0, 0.0))] + [
        (i + 1, (math.cos(h), math.sin(h), 0.0)) for i, h in enumerate(headings)],
        [(0, i + 1) for i in range(len(headings))])
    f_g, _ = model.build_candidates(PathGraph(star, start=0), params, cfg)
    assert f_g.shape == (65, cfg.dim) and not f_g.data[:-1].any()
    views = record_calls(monkeypatch, model, "nearest_column")
    reads, _ = step(cfg, params)
    assert views == [] and not {n for n in reads if n.startswith("graph.pe.")}

    # both detail channels off: enhancement is the bitwise identity
    cfg = replace(TINY_CONFIG, loc_detail=False, obj_detail=False)
    params = build_params(cfg, seed=0)
    enhance = record_calls(monkeypatch, model, "enhance_and_score")
    blocks = record_calls(monkeypatch, nn, "residual_stack")
    detail = record_calls(monkeypatch, model, "extract_key_detail")
    reads, cache = step(cfg, params)
    assert cache.key_detail is None and detail == []
    [((f_c, *_), _)] = enhance
    [*_, ((f_e, *_), _)] = blocks  # the scoring head comes last
    assert f_e is f_c  # the cross-modal rows, untouched
    assert not {n for n in reads if n.startswith(("kd.", "enh."))}

    # everything off: only the coupled pipeline runs
    cfg = replace(TINY_CONFIG, decouple=False, geo_embed=False,
                  loc_detail=False, obj_detail=False)
    reads, _ = step(cfg, build_params(cfg, seed=0))
    assert {"obs.coupled.w", "obs.coupled.b"} <= reads
    assert not {n for n in reads
                if n.startswith(("obs.ang.", "obs.vis.", "obs.fuse.",
                                 "graph.pe.", "kd.", "enh."))}


@pytest.mark.slow
def test_a05_overfit_twenty_episodes():
    t0 = time.monotonic()
    g = generate_environment(EnvParams(node_count=14, connection_radius=4.0,
                                       extent=11.0,
                                       feature_dim=TINY_CONFIG.vis_dim,
                                       seed=11))
    env = EnvBundle(g, make_latents(g, TINY_CONFIG.vis_dim, seed=11))
    data = [(env, make_episode(g, seed=i)) for i in range(20)]
    params = build_params(TINY_CONFIG, seed=0)
    cfg = TrainConfig(lam=0.2, t_max=15, lr=3e-3, iterations=2000,
                      batch_size=4, seed=0)
    train(data, params, cfg, TINY_CONFIG)
    records = [rollout_teacher(e, ep, params, TINY_CONFIG) for e, ep in data]
    assert teacher_accuracy(records) >= 0.95
    _, summary = evaluate_policy(data, params, TINY_CONFIG, t_max=15)
    assert summary["SR"] == 1.0
    assert time.monotonic() - t0 < 600.0


@pytest.mark.slow
def test_a06_generalization_harness_and_grid_report(tmp_path):
    def world(seed):
        g = generate_environment(EnvParams(node_count=14,
                                           connection_radius=4.0, extent=11.0,
                                           feature_dim=TINY_CONFIG.vis_dim,
                                           seed=seed))
        return EnvBundle(g, make_latents(g, TINY_CONFIG.vis_dim, seed=seed))

    seen, unseen = world(21), world(22)
    train_data = [(seen, make_episode(seen.graph, seed=i)) for i in range(200)]
    eval_data = [(unseen, make_episode(unseen.graph, seed=i))
                 for i in range(50)]
    tcfg = TrainConfig(lam=0.2, t_max=15, lr=3e-3, iterations=150,
                       batch_size=2, seed=0)
    rows, sidecar, _ = run_ablation(train_data, eval_data, tcfg, TINY_CONFIG,
                                    seeds=range(5), grid=GRID_LABELS,
                                    min_timing_steps=50, jobs=1)
    assert [r.label for r in rows] == list(GRID_LABELS)
    out = tmp_path / "ablation.csv"
    write_ablation_csv(out, rows, comment="config_hash=a06")
    lines = out.read_text().strip().split("\n")
    assert lines[:2] == ["# config_hash=a06",
                         "variant,MED,GE,LD,OD,TL,NE,SR,SPL,failed"]
    assert len(lines) == 2 + len(GRID_LABELS)

    # directional report; the sign is not asserted at this scale
    diffs = [sidecar["MGLO"][str(s)]["SR"] - sidecar["----"][str(s)]["SR"]
             for s in range(5)]
    margin, p = float(np.mean(diffs)), sign_test(diffs)
    (tmp_path / "report.json").write_text(json.dumps(
        {"mean_sr_margin": margin, "sign_test_p": p,
         "per_seed_diff": diffs}, sort_keys=True))
    print(f"full vs coupled: mean SR margin {margin:+.4f}, "
          f"sign test p {p:.4f}")
    assert 0.0 <= p <= 1.0


def test_a07_metric_units_and_invariants():
    g = graph_from([(0, (0.0, 0.0, 0.0)), (1, (5.0, 0.0, 0.0)),
                    (2, (10.0, 0.0, 0.0)), (3, (5.0, 1.25, 0.0))],
                   [(0, 1), (1, 2), (1, 3)])
    r = metrics.EpisodeResult(g, (0, 1, 3, 1, 2), (0, 1, 2))
    assert metrics.trajectory_length(r) == 12.5
    assert metrics.success(r) == 1.0
    assert abs(metrics.spl(r) - 0.8) <= 1e-12

    # success is inclusive exactly at the radius
    hit = metrics.EpisodeResult(chain_graph([1.5, 1.5]), (0,), (0, 1, 2))
    assert metrics.navigation_error(hit) == 3.0
    assert metrics.success(hit) == 1.0
    miss = metrics.EpisodeResult(chain_graph([1.5, 1.5000001]), (0,),
                                 (0, 1, 2))
    assert metrics.success(miss) == 0.0

    w = dtw_world()
    rng = substream(107, "metric-fuzz")
    for _ in range(300):
        fr = metrics.EpisodeResult(w, random_walk(w, rng),
                                   random_walk(w, rng))
        assert metrics.evaluate(fr).sdtw == metrics.success(fr) * metrics.ndtw(fr)
        assert metrics.spl(fr) <= metrics.success(fr)


def test_a08_recovery_labels_match_bruteforce_exhaustively():
    total = 0
    for node_count in (4, 6, 8, 10):
        for g_seed in range(4):
            g = generate_environment(EnvParams(node_count=node_count,
                                               connection_radius=6.0,
                                               extent=8.0, seed=g_seed))
            d = floyd_warshall(g)
            rng = substream(g_seed, "deviation-sweep", node_count)
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
    assert total >= 20000  # every reachable deviation state was swept


def test_a09_estimator_calibration():
    stats = grad_second_moment(linear_regression_builder, (0, 1, 2), every_parameter)
    assert abs(np.mean(stats.samples) - 4.0) <= 1e-8

    n = 100_000
    rng = substream(109, "mi-bits")
    x = rng.integers(0, 2, size=n)
    assert abs(mi_plugin(x, x) - math.log(2.0)) <= 0.01
    assert mi_plugin(x, rng.integers(0, 2, size=n)) <= 0.01


def test_a10_cli_artifacts_are_byte_identical(tmp_path):
    trees = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        gen, tr, ev = root / "gen", root / "train", root / "eval"
        assert main(["gen", "--out", str(gen)] + GEN_ARGS) == 0
        assert main(["train", "--data", str(gen), "--out", str(tr),
                     "--iters", "3", "--batch", "1", "--seed", "2"]) == 0
        assert main(["eval", "--data", str(gen), "--out", str(ev),
                     "--ckpt", str(tr / "params.ckpt"), "--seed", "1"]) == 0
        trees.append({k: hashlib.sha256(v).hexdigest()
                      for k, v in tree_hashes(root).items()})
    assert trees[0] == trees[1]
