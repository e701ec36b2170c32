"""Empirical probes and the component-ablation harness.

grad_second_moment estimates E||grad L||^2 over seeded re-initializations;
mi_plugin is the discrete plug-in mutual-information estimator; the
alignment score is the mean log-probability the model assigns to reference
actions.  None of the directional comparisons are hard-asserted: probes
report per-seed samples, a mean difference, and an exact sign-test p-value
so the direction stays an observation, not a baked-in assumption.
"""

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import nn
from .artifacts import write_csv
from .errors import InvalidArgument, NumericFailure
from .model import EpisodeCache, ModelConfig, build_params
from .rng import substream
from .training import (TrainConfig, check_routes, episode_loss,
                       evaluate_policy, greedy_policy, rollout,
                       rollout_teacher, train)

GRID_LABELS = ("----", "M---", "MG--", "MGL-", "MGLO")
FLAG_NAMES = ("MED", "GE", "LD", "OD")   # the flags of a label's four characters
PATHWAY_PREFIXES = ("obs.", "graph.")
# the key-detail cue of the MI probe: its first CUE_DIMS entries, each
# binned into CUE_BINS uniform bins
CUE_BINS = 8
CUE_DIMS = 2


@dataclass(frozen=True)
class GradStats:
    samples: tuple
    failures: int


@dataclass(frozen=True)
class AblationRow:
    label: str      # the variant's four-character flag label, e.g. 'MG--'
    tl: float
    ne: float
    sr: float
    spl: float
    failed: bool = False


# ---------------------------------------------------------- gradient probe


def grad_second_moment(loss_builder, seeds, param_filter) -> GradStats:
    """Squared gradient norms over seeded trials.

    loss_builder(seed) must return (ParamStore, scalar loss Tensor) built
    from a fresh initialization.  param_filter restricts the norm to
    matching parameter names.  Non-finite samples are dropped with a
    warning and counted as failures.
    """
    seeds = tuple(seeds)
    if len(seeds) < 2:
        raise InvalidArgument("need at least 2 seeds")
    samples = []
    failures = 0
    for seed in seeds:
        store, loss = loss_builder(seed)
        store.zero_grad()
        nn.backward(loss)
        total = 0.0
        for name in filter(param_filter, store.names()):
            g = store.params[name].grad
            if g is not None:
                total += float(np.sum(g * g))
        if math.isfinite(total):
            samples.append(total)
        else:
            failures += 1
            warnings.warn(f"non-finite gradient sample for seed {seed}, excluded")
    if not samples:
        raise NumericFailure("all gradient samples were non-finite")
    return GradStats(samples=tuple(samples), failures=failures)


def pathway_filter(name: str) -> bool:
    """Parameters on the observation/graph feature pathways."""
    return name.startswith(PATHWAY_PREFIXES)


def vln_loss_builder(data, mcfg: ModelConfig, lam: float, t_max: int):
    """Builder running one mixed-forcing loss over the batch per seed."""
    data = list(data)
    if not data:
        raise InvalidArgument("empty episode batch")
    check_routes(data, t_max)

    def build(seed):
        params = build_params(mcfg, seed)
        rng = substream(seed, "probe-student")
        return params, nn.mean([episode_loss(env, ep, params, mcfg, rng, t_max, lam)[0]
                                for env, ep in data])

    return build


# --------------------------------------------------- mutual information


def mi_plugin(x_samples, y_samples) -> float:
    """Plug-in estimate of I(X; Y) in nats from paired discrete samples."""
    xs = list(x_samples)
    ys = list(y_samples)
    if len(xs) != len(ys):
        raise InvalidArgument(f"length mismatch: {len(xs)} vs {len(ys)}")
    if not xs:
        raise InvalidArgument("empty sample series")
    n = len(xs)
    joint: dict = {}
    px: dict = {}
    py: dict = {}
    for x, y in zip(xs, ys):
        joint[(x, y)] = joint.get((x, y), 0) + 1
        px[x] = px.get(x, 0) + 1
        py[y] = py.get(y, 0) + 1
    mi = 0.0
    for (x, y), c in sorted(joint.items()):
        p_xy = c / n
        mi += p_xy * math.log(p_xy * n * n / (px[x] * py[y]))
    return max(0.0, mi)


def quantize_series(values, bins: int):
    """Row vectors to discrete symbols: uniform per-dimension binning."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidArgument("expected a non-empty (n, d) array")
    if bins < 2:
        raise InvalidArgument("bins must be >= 2")
    lo = arr.min(axis=0)
    span = arr.max(axis=0) - lo
    span[span == 0.0] = 1.0
    idx = np.clip((arr - lo) / span * bins, 0, bins - 1).astype(int)
    weights = bins ** np.arange(arr.shape[1])
    return [int(v) for v in idx @ weights]


# ------------------------------------------------------- alignment probe


def teacher_probe(data, params, mcfg: ModelConfig):
    """One teacher-forced walk of each reference route, without a tape.

    Returns (alignment score, cues, actions): the score is the mean
    log-probability of the reference actions; cues and actions are the
    paired per-step series of the MI probe.  An episode's cue, repeated for
    each of its steps, is the first CUE_DIMS entries of the key detail its
    walk's cache holds, quantized over the whole series (constant zero when
    the detail stages are disabled, making the MI exactly zero)."""
    losses, cues, actions = [], [], []
    for env, ep in data:
        cache = EpisodeCache()
        with nn.no_tape():
            rec = rollout_teacher(env, ep, params, mcfg, cache)
        cue = (np.zeros(CUE_DIMS) if cache.key_detail is None
               else cache.key_detail[:CUE_DIMS])
        cues += [cue] * len(rec.steps)
        for s in rec.steps:
            losses.append(float(s.loss.data))
            actions.append(int(s.action))
    if not losses:
        raise InvalidArgument("no supervised steps")
    return (-float(np.mean(losses)),
            quantize_series(np.stack(cues), CUE_BINS), actions)


# ----------------------------------------------------------- sign testing


def sign_test(diffs) -> float:
    """Exact two-sided binomial sign test; zero differences are dropped."""
    pos = sum(1 for d in diffs if d > 0)
    neg = sum(1 for d in diffs if d < 0)
    n = pos + neg
    if n == 0:
        return 1.0
    k = min(pos, neg)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def make_probe(name: str, label_a: str, label_b: str, samples_a,
               samples_b) -> dict:
    """Paired-comparison report; direction is reported, never asserted."""
    a = [float(v) for v in samples_a]
    b = [float(v) for v in samples_b]
    if len(a) != len(b) or not a:
        raise InvalidArgument("probe needs equal-length non-empty samples")
    diffs = [x - y for x, y in zip(a, b)]
    return {"probe": name,
            "definition": "artifact-defined surrogate quantity",
            "variant_a": label_a,
            "variant_b": label_b,
            "samples": {"a": a, "b": b},
            "mean_diff": float(np.mean(diffs)),
            "sign_test_p": sign_test(diffs)}


# ------------------------------------------------------- variant handling


def variant_config(base: ModelConfig, label: str) -> ModelConfig:
    """Four-character flag label (e.g. 'MG--') to a configured variant."""
    if len(label) != 4 or any(c not in (want, "-")
                              for c, want in zip(label, "MGLO")):
        raise InvalidArgument(f"bad variant label {label!r}")
    return replace(base, decouple=label[0] == "M", geo_embed=label[1] == "G",
                   loc_detail=label[2] == "L", obj_detail=label[3] == "O")


def check_grid(base: ModelConfig, grid) -> tuple:
    """The grid's labels as a tuple, once each is a variant label and none
    repeats, since a repeated cell would train twice and write two rows."""
    grid = tuple(grid)
    for label in grid:
        variant_config(base, label)
    if len(set(grid)) != len(grid):
        raise InvalidArgument(f"grid repeats a label: {','.join(grid)}")
    return grid


def grad_probe(data, seeds, base_mcfg: ModelConfig, lam: float,
               t_max: int) -> dict:
    """Squared gradient norm on the observation/graph pathways: decoupled
    geometric variant vs coupled baseline, paired by seed."""
    a = grad_second_moment(vln_loss_builder(data, variant_config(base_mcfg, "MG--"),
                                            lam, t_max), seeds, pathway_filter)
    b = grad_second_moment(vln_loss_builder(data, variant_config(base_mcfg, "----"),
                                            lam, t_max), seeds, pathway_filter)
    probe = make_probe("grad_second_moment", "MG--", "----", a.samples,
                       b.samples)
    probe["failures"] = {"a": a.failures, "b": b.failures}
    return probe


def detail_probe(data, seeds, base_mcfg: ModelConfig, train_cfg: TrainConfig) -> dict:
    """Alignment score on `data` with vs without key-detail stages, each
    seed's model first trained on `data` for ``train_cfg.iterations``
    (zero: scored at initialization)."""
    samples_a, samples_b = [], []
    mi_a, mi_b = [], []
    for seed in seeds:
        scores = {}
        for key, label in (("a", "MGLO"), ("b", "MG--")):
            mcfg = variant_config(base_mcfg, label)
            params = build_params(mcfg, seed)
            train(data, params, replace(train_cfg, seed=seed), mcfg)
            scores[key], xs, ys = teacher_probe(data, params, mcfg)
            (mi_a if key == "a" else mi_b).append(mi_plugin(xs, ys))
        samples_a.append(scores["a"])
        samples_b.append(scores["b"])
    probe = make_probe("alignment_score", "MGLO", "MG--", samples_a, samples_b)
    probe["mi_cue_action"] = {"a": mi_a, "b": mi_b}
    return probe


# -------------------------------------------------------- ablation harness


def time_forward_steps(data, params, mcfg: ModelConfig, t_max: int,
                       min_steps: int) -> float:
    """Wall-clock milliseconds per decision step of greedy rollouts, run
    whole and without a tape, as greedy evaluation runs: one untimed pass
    over `data`, then whole passes timed until at least `min_steps` steps
    have run.  Each pass walks a fresh copy of `params`, made off the
    clock, so it fills its own untaped memo (``model._frozen``) as an
    evaluation of new parameters does.  The world's memos stay warm: the
    untimed pass made the noise terms and candidate inputs of its routes."""
    data = list(data)
    if min_steps < 1 or t_max < 1:
        raise InvalidArgument("min_steps and t_max must be >= 1")
    if not data:
        raise InvalidArgument("no episodes to time")
    state = {name: t.data for name, t in params.params.items()}

    def fresh_copy() -> nn.ParamStore:
        store = nn.init_params([(name, a.shape) for name, a in state.items()], seed=0)
        store.load_state(state)
        return store

    def greedy_pass(store) -> int:
        return sum(len(rollout(env, ep, t_max, greedy_policy, store,
                               mcfg).steps) for env, ep in data)

    with nn.no_tape():
        greedy_pass(fresh_copy())
        steps = seconds = 0
        while steps < min_steps:
            store = fresh_copy()
            start = time.perf_counter()
            steps += greedy_pass(store)
            seconds += time.perf_counter() - start
    return seconds / steps * 1000.0


def map_units(jobs: int, fn, *iterables) -> list:
    """list(map(fn, *iterables)), spread over at most `jobs` worker
    processes and never more than one per unit, since a pool starts all of
    its workers up front; results keep input order either way.  The units
    go out as one chunk per worker, pickled as one object, so a chunk's
    units share one copy of a common world and its caches.  It lives here,
    not in `training`, so that importing the training code does not load
    the process-pool modules (about 2 MB of resident memory)."""
    if jobs < 1:
        raise InvalidArgument(f"jobs must be >= 1, got {jobs}")
    units = list(zip(*iterables))
    workers = min(jobs, len(units))
    if workers <= 1:
        return [fn(*args) for args in units]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*units),
                             chunksize=math.ceil(len(units) / workers)))


def run_ablation_cell(label: str, train_data, eval_data, tcfg: TrainConfig,
                      base_mcfg: ModelConfig, seeds, min_timing_steps: int):
    """One grid cell: train/evaluate a variant over every seed.

    Returns (AblationRow, per-seed metric dict, ms per greedy step of the
    first seed's model); divergence on any seed yields a failed row with
    the metrics gathered so far in the sidecar, and no step time.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise InvalidArgument("need at least one seed")
    mcfg = variant_config(base_mcfg, label)
    per_seed: dict = {}
    timing_params = None
    for seed in seeds:
        params = build_params(mcfg, seed)
        try:
            train(train_data, params, replace(tcfg, seed=seed), mcfg)
            _, summary = evaluate_policy(eval_data, params, mcfg, tcfg.t_max)
        except NumericFailure as err:
            warnings.warn(f"variant {label} seed {seed} diverged: {err}")
            return (AblationRow(label=label, tl=math.nan, ne=math.nan,
                                sr=math.nan, spl=math.nan, failed=True),
                    per_seed, None)
        per_seed[str(seed)] = {k: summary[k] for k in ("TL", "NE", "SR", "SPL")}
        if timing_params is None:
            timing_params = params
    mean = {k: float(np.mean([per_seed[str(s)][k] for s in seeds]))
            for k in ("TL", "NE", "SR", "SPL")}
    ms = time_forward_steps(eval_data, timing_params, mcfg, tcfg.t_max,
                            min_steps=min_timing_steps)
    return (AblationRow(label=label, tl=mean["TL"], ne=mean["NE"],
                        sr=mean["SR"], spl=mean["SPL"]), per_seed, ms)


def run_ablation(train_data, eval_data, tcfg: TrainConfig,
                 base_mcfg: ModelConfig, seeds, grid, min_timing_steps: int,
                 jobs: int):
    """Train/evaluate each variant with identical seeds and budget.

    The grid is checked (``check_grid``) before any compute; cells run
    over `jobs` worker processes without changing any result.  Returns
    (rows, sidecar, step_ms): the deterministic rows, the per-seed eval
    metrics by label, and the wall-clock ms per greedy step by label
    (``time_forward_steps``).  A diverging variant yields a failed row and
    a step time of None, and the grid continues.
    """
    grid = check_grid(base_mcfg, grid)
    cells = map_units(jobs, run_ablation_cell, grid, repeat(train_data),
                      repeat(eval_data), repeat(tcfg), repeat(base_mcfg),
                      repeat(tuple(seeds)), repeat(min_timing_steps))
    rows = [row for row, _, _ in cells]
    sidecar = {label: per_seed for label, (_, per_seed, _) in zip(grid, cells)}
    step_ms = {label: ms for label, (_, _, ms) in zip(grid, cells)}
    return rows, sidecar, step_ms


def write_ablation_csv(path, rows, comment: str) -> None:
    """Flag columns, read off the label, then TL, NE, SR, SPL (x100) and
    whether the variant failed."""
    write_csv(path, ["variant", *FLAG_NAMES, "TL", "NE", "SR", "SPL", "failed"],
              ([r.label, *(int(c != "-") for c in r.label),
                f"{r.tl:.2f}", f"{r.ne:.2f}", f"{r.sr * 100.0:.2f}",
                f"{r.spl * 100.0:.2f}", int(r.failed)]
               for r in rows),
              comment=comment)
