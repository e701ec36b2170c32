"""Mixed teacher/student-forcing training loop.

Per episode the loss is lam * TF + (1 - lam) * SF where TF supervises the
model along the reference route and SF supervises self-sampled rollouts
with recovery labels pointing at the nearest unvisited reference node.
Both rollouts share one autograd graph per episode so cached encodings
receive gradient from both terms; ``episode_loss`` is the one place that
builds this loss.  ``rollout`` is the package's only episode walk; callers
differ in the policy that acts and the label that supervises.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .artifacts import write_csv
from .errors import InvalidArgument, InvalidState, NumericFailure
from .metrics import EpisodeResult, aggregate, evaluate
from .model import EpisodeCache, ModelConfig, forward_step
from .navgraph import STOP, NavGraph, PathGraph, action_slot, slot_action
from .rng import substream
from .synthenv import EnvBundle, Episode

LOG_COLUMNS = ("iteration", "tf_loss", "sf_loss", "total_loss", "grad_norm",
               "eval_SR", "eval_SPL", "eval_nDTW")
CLIP_NORM = 5.0  # global gradient-norm bound of every optimizer step


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.2
    t_max: int = 15
    lr: float = 1e-3
    iterations: int = 20000
    batch_size: int = 4
    seed: int = 0
    eval_every: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidArgument(f"lam must be in [0, 1], got {self.lam}")
        if self.t_max < 1:
            raise InvalidArgument("t_max must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidArgument(f"lr must be finite and > 0, got {self.lr}")
        if self.iterations < 0 or self.batch_size < 1 or self.eval_every < 0:
            raise InvalidArgument("bad iteration/batch/eval settings")


@dataclass
class StepRecord:
    """One decision.  predicted is the model's argmax, supervision the
    label, action the executed move (the sample under student forcing).
    logits is the scores array (None when no model ran); only loss holds
    the step's graph.  The episode's key detail is its cache's."""
    node: int
    order: tuple
    logits: np.ndarray | None
    predicted: int | None
    supervision: int | None
    loss: nn.Tensor | None
    action: int = STOP


@dataclass
class RolloutRecord:
    steps: list = field(default_factory=list)
    route: tuple = ()

    def mean_loss(self) -> nn.Tensor:
        if not self.steps:
            raise InvalidArgument("empty rollout record")
        return nn.mean([s.loss for s in self.steps])


def rollout(env: EnvBundle, episode: Episode, t_max: int, choose, params=None,
            mcfg: ModelConfig | None = None, cache: EpisodeCache | None = None,
            label=None) -> RolloutRecord:
    """Walk one episode: run the model if `params` is given, act on
    `choose(t, step)`, and if `label` is given record `label(pg, episode,
    step)` as supervision (with its cross-entropy loss when the model ran).
    Ends at STOP or after t_max steps.  `cache` (a new one if not given)
    holds the episode's fixed encodings, its key detail among them, and
    each node's panorama, rendered on its first visit.  Helpers are module
    globals looked up at call time, so wrappers see every step."""
    pg = PathGraph(env.graph, episode.start)
    cache = cache if cache is not None else EpisodeCache()
    rec = RolloutRecord()
    for t in range(t_max):
        step = StepRecord(node=pg.current, order=pg.frontier(), logits=None,
                          predicted=None, supervision=None, loss=None)
        scores = None
        if params is not None:
            feats, step.predicted = forward_step(
                pg, env, episode.tokens, params, mcfg, cache)
            scores = feats.scores
            step.logits = scores.data
        step.action = choose(t, step)
        if label is not None:
            step.supervision = label(pg, episode, step)
            if scores is not None:
                step.loss = nn.cross_entropy(
                    scores, action_slot(step.order, step.supervision))
        rec.steps.append(step)
        pg.advance(step.action)
        if pg.terminal:
            break
    rec.route = tuple(pg.route)
    return rec


# ---------------------------------------------------------------- policies


def teacher_policy(episode: Episode):
    """Reference next hop, then STOP (teacher forcing and the oracle agent)."""
    gt = episode.gt_path

    def choose(t, step):
        target = gt[t + 1] if t + 1 < len(gt) else STOP
        if target != STOP and target not in step.order:
            raise InvalidState(f"reference action {target} missing from "
                               f"frontier at node {step.node}")
        return target
    return choose


def sample_policy(rng: np.random.Generator):
    """Sample from the softmax of the model's scores (student forcing)."""
    def choose(t, step):
        scores = step.logits   # finite: select_action checked them
        p = np.exp(scores - np.maximum.reduce(scores, axis=None))
        p /= np.add.reduce(p, axis=None)
        return slot_action(step.order, int(rng.choice(p.size, p=p)))
    return choose


def greedy_policy(t, step):
    """The model's argmax."""
    return step.predicted


def random_policy(rng: np.random.Generator):
    """Uniform over frontier + STOP."""
    def choose(t, step):
        return slot_action(step.order, int(rng.integers(len(step.order) + 1)))
    return choose


# ------------------------------------------------------------------ labels


def teacher_label(pg: PathGraph, episode: Episode, step: StepRecord) -> int:
    """Teacher forcing supervises the reference hop it executes."""
    return step.action


def recovery_label(pg: PathGraph, episode: Episode, step: StepRecord) -> int:
    """The recovery pseudo-label of the current state, as an action."""
    return slot_action(step.order, pseudo_label(pg, episode, pg.graph))


# ------------------------------------------------------ supervised rollouts


def check_routes(data, t_max: int) -> None:
    """Every reference route of the (EnvBundle, Episode) pairs fits in t_max
    decisions: a teacher-forced walk takes one per route node, the last one
    STOP.  Checked before any compute, whichever episodes are drawn."""
    for _, ep in data:
        if len(ep.gt_path) > t_max:
            raise InvalidArgument(f"reference route length {len(ep.gt_path)} "
                                  f"exceeds t_max {t_max}")


def rollout_teacher(env: EnvBundle, episode: Episode, params,
                    mcfg: ModelConfig,
                    cache: EpisodeCache | None = None) -> RolloutRecord:
    """Walk the reference route, supervising each decision with its next hop
    and the final decision with STOP."""
    return rollout(env, episode, len(episode.gt_path), teacher_policy(episode),
                   params, mcfg, cache, label=teacher_label)


def pseudo_label(pg: PathGraph, episode: Episode, env: NavGraph) -> int:
    """Recovery supervision after deviation, as a slot into frontier + [STOP].

    The target n* is the unvisited reference node nearest by geodesic
    (ties: earliest route position), or the goal once all are visited; the
    label is the first hop of the shortest route to n*.  A first hop
    outside the frontier falls back to the frontier node nearest n*; with
    no frontier at all only STOP remains.
    """
    frontier = pg.frontier()
    gt = episode.gt_path
    goal = gt[-1]
    unvisited = [n for n in gt if n not in pg.visited]
    if unvisited:
        n_star = min(unvisited,
                     key=lambda n: (env.geodesic(pg.current, n), gt.index(n)))
    else:
        n_star = goal
    if pg.current == n_star:
        return len(frontier)
    path = env.shortest_path(pg.current, n_star)
    if path is None:
        raise InvalidState(
            f"recovery target {n_star} unreachable from node {pg.current}")
    hop = path[1]
    if hop in frontier:
        return frontier.index(hop)
    if not frontier:
        return len(frontier)
    best = min(frontier, key=lambda f: (env.geodesic(f, n_star), f))
    return frontier.index(best)


def episode_loss(env: EnvBundle, episode: Episode, params, mcfg: ModelConfig,
                 rng: np.random.Generator, t_max: int, lam: float,
                 panoramas: dict | None = None):
    """The mixed-forcing loss of one episode, lam * mean(TF) + (1 - lam) *
    mean(SF).  The teacher walk and the
    student walk (sampled with `rng`, at most t_max steps, supervised by the
    recovery label) share one EpisodeCache, over `panoramas`, when given,
    the embeddings shared by one graph's episodes.  Returns (loss, TF mean,
    SF mean), the means as floats."""
    if not 0.0 <= lam <= 1.0:
        raise InvalidArgument(f"lam must be in [0, 1], got {lam}")
    cache = EpisodeCache(panoramas)
    tf = rollout_teacher(env, episode, params, mcfg, cache).mean_loss()
    sf = rollout(env, episode, t_max, sample_policy(rng), params, mcfg, cache,
                 label=recovery_label).mean_loss()
    return (nn.add(nn.scale(tf, lam), nn.scale(sf, 1.0 - lam)),
            float(tf.data), float(sf.data))


# -------------------------------------------------------------- evaluation


def greedy_rollout(env: EnvBundle, episode: Episode, params,
                   mcfg: ModelConfig, t_max: int) -> list[int]:
    """Trajectory executed by always taking the argmax action; no tape is
    built, since nothing backpropagates through an evaluation."""
    with nn.no_tape():
        return list(rollout(env, episode, t_max, greedy_policy, params, mcfg).route)


def evaluate_policy(data, params, mcfg: ModelConfig, t_max: int):
    """Greedy rollout on every (EnvBundle, Episode) pair.

    Returns (rows, summary): per-episode MetricRows keyed ep000-style, and
    their aggregate.
    """
    rows = {}
    for i, (env, ep) in enumerate(data):
        route = greedy_rollout(env, ep, params, mcfg, t_max)
        rows[f"ep{i:03d}"] = evaluate(EpisodeResult(env.graph, tuple(route),
                                                    ep.gt_path))
    return rows, aggregate(rows.values())


# ----------------------------------------------------------------- training


def write_training_log(path, rows, comment: str) -> None:
    write_csv(path, LOG_COLUMNS,
              ([row[c] if isinstance(row[c], (str, int))
                else repr(float(row[c])) for c in LOG_COLUMNS] for row in rows),
              comment=comment)


def train(data, params, cfg: TrainConfig, mcfg: ModelConfig) -> list:
    """Optimize params in place over (EnvBundle, Episode) pairs.

    Returns the log rows (one dict per iteration; eval_every evaluates on
    the training pairs).  A non-finite score, loss or gradient norm raises
    NumericFailure before the optimizer step, so ``params`` still holds
    the previous iteration's values; a non-finite score in the eval_every
    evaluation raises after it, so ``params`` holds that iteration's.
    """
    data = list(data)
    if not data:
        raise InvalidArgument("no training data")
    check_routes(data, cfg.t_max)
    batch_rng = substream(cfg.seed, "train-batch")
    student_rng = substream(cfg.seed, "train-student")
    log: list = []

    for it in range(1, cfg.iterations + 1):
        idx = batch_rng.integers(len(data), size=cfg.batch_size)
        params.zero_grad()
        try:
            total, panoramas = None, {}   # drop the last iteration's graph and map
            losses, tf_vals, sf_vals = [], [], []
            for j in idx:
                env, ep = data[int(j)]
                loss, tf, sf = episode_loss(env, ep, params, mcfg, student_rng,
                                            cfg.t_max, cfg.lam, panoramas)
                losses.append(loss)
                tf_vals.append(tf)
                sf_vals.append(sf)
            total = nn.mean(losses)
            total_val = float(total.data)
            if not math.isfinite(total_val):
                raise NumericFailure(f"non-finite loss {total_val}")
            nn.backward(total)
            grad_norm = nn.clip_global_norm(params, CLIP_NORM)
        except NumericFailure as err:
            raise NumericFailure(f"iteration {it}: {err}") from err
        nn.optimizer_step(params, cfg.lr)

        row = {"iteration": it,
               "tf_loss": float(np.mean(tf_vals)),
               "sf_loss": float(np.mean(sf_vals)),
               "total_loss": total_val,
               "grad_norm": grad_norm,
               "eval_SR": "", "eval_SPL": "", "eval_nDTW": ""}
        if cfg.eval_every > 0 and it % cfg.eval_every == 0:
            try:
                _, summary = evaluate_policy(data, params, mcfg, cfg.t_max)
            except NumericFailure as err:
                raise NumericFailure(f"iteration {it} evaluation: {err}") from err
            row["eval_SR"] = repr(summary["SR"])
            row["eval_SPL"] = repr(summary["SPL"])
            row["eval_nDTW"] = repr(summary["nDTW"])
        log.append(row)
    return log
