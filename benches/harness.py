"""The oikg benchmark: three workloads driven through the public library API.

Run it from the repository root (``benches/README.md`` has the details):

    python3 benches/run.py --workload overfit_tiny --seed 0 --seconds 30 --trace 0

Load is one process, one thread and one client in a closed loop: the next op
starts when the previous one returns.  ``--trace 0`` prints the end-to-end
metrics of an untraced run; ``--trace 1`` prints the per-layer metrics of a
traced run.  The last line of standard output is always the JSON result.

A shared host's speed drifts by tens of percent within seconds.  A fixed
calibration kernel runs between ops and, every ``CAL_PERIOD``, inside them;
each end-to-end time is scaled by the kernel's speed over it, so it reads
as milliseconds on a machine on which the kernel takes ``CAL_REF_MS``.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from oikg import metrics, synthenv, training
from oikg.model import TINY_CONFIG, ModelConfig, build_params
from oikg.rng import substream
from oikg.training import EnvBundle, TrainConfig

from tracing import WALK, Patch, TraceError, Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"
PERF = time.perf_counter

SETUP_REPEATS = 9
WARM_OPS = 2
WORLDS = 4
LOSS_RTOL = 1e-9

# A fixed reference speed: ``calibrate()`` took 1.1-2.6 ms (median 1.9) on
# the 2-core Xeon VM the benchmark was defined on.  Scaled op times are
# milliseconds on a machine on which it takes CAL_REF_MS.
CAL_REF_MS = 2.2
CAL_PERIOD = 0.05          # seconds of op time between calibrations inside an op
_CAL_RNG = np.random.default_rng(1234)
_CAL_A = _CAL_RNG.standard_normal((32, 32)) / 8.0
_CAL_V = _CAL_RNG.standard_normal(32)


def calibrate() -> float:
    """Seconds taken by a fixed kernel of the program's kind of work: small
    numpy products and Python dict and loop overhead.  It never touches
    ``oikg``, so a change to the program cannot move it."""
    t0 = PERF()
    x = _CAL_V
    for _ in range(400):
        x = np.tanh(_CAL_A @ x)
        _ = {i: i * i for i in range(20)}
    return PERF() - t0


class OpTimer:
    """Times ops and measures the machine's speed over each of them.

    ``calibrate`` runs at every ``stop`` and, through ``tick``, inside an op
    once ``CAL_PERIOD`` has passed since the last calibration.  An op's
    duration leaves out the calibrations inside it; its speed is the mean of
    those and of the calibrations that bracket it.
    """

    def __init__(self):
        self.durations: list = []      # seconds per op
        self.cal_means: list = []      # mean calibration seconds per op
        self._last_cal = calibrate()
        self.start()

    def start(self) -> None:
        self._window = [self._last_cal]
        self._spent = 0.0
        self._start = self._last = PERF()

    def tick(self) -> None:
        now = PERF()
        if now - self._last >= CAL_PERIOD:
            self._window.append(calibrate())
            self._last = PERF()
            self._spent += self._last - now

    def stop(self) -> None:
        self.durations.append(PERF() - self._start - self._spent)
        self._last_cal = calibrate()
        self._window.append(self._last_cal)
        self.cal_means.append(statistics.fmean(self._window))

    def scaled_ms(self) -> list:
        """Each op in ms at the speed on which ``calibrate`` takes ``CAL_REF_MS``."""
        return [d * CAL_REF_MS / c for d, c in zip(self.durations, self.cal_means)]


def derived_seed(seed: int, *tags) -> int:
    """The seed derivation ``oikg gen`` uses for its worlds and latents."""
    return int(substream(seed, *tags).integers(0, 2 ** 31 - 1))


@dataclass
class Inputs:
    data: list                 # [(EnvBundle, Episode)]
    mcfg: ModelConfig
    param_seed: int
    params: object             # ParamStore; eval reuses it, training rebuilds it per pass


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_s: float           # sets the op count: round(seconds * ops_per_s)
    train_cfg: TrainConfig | None = None
    t_max: int = 0

    @property
    def trains(self) -> bool:
        return self.train_cfg is not None

    @property
    def walk(self) -> str:
        """Where the traced run counts tape nodes: backward never runs in eval."""
        return "loss" if self.trains else "scores"

    def ops(self, seconds: float) -> int:
        """Ops in one measured pass.  The count depends on the run length
        only, never on the machine, so two commits time the same ops."""
        return max(2, round(seconds * self.ops_per_s))


def _overfit_tiny(seed: int) -> Inputs:
    # test_a05's setup; world/latent seed 11 at the default seed
    g = synthenv.generate_environment(synthenv.EnvParams(
        node_count=14, connection_radius=4.0, extent=11.0,
        feature_dim=TINY_CONFIG.vis_dim, sigma=0.0, seed=11 + seed))
    env = EnvBundle(g, synthenv.make_latents(g, TINY_CONFIG.vis_dim, seed=11 + seed))
    data = [(env, synthenv.make_episode(g, seed=i)) for i in range(20)]
    return Inputs(data, TINY_CONFIG, seed, build_params(TINY_CONFIG, seed))


def _train_full(seed: int) -> Inputs:
    # The world of `oikg gen --seed SEED --mode detour --feature-dim 32` and
    # three more from the same generator settings, ten detour episodes each.
    # One world's geometry sets the route lengths of every op, so with a
    # single world the op times swing from seed to seed.
    mcfg = ModelConfig()
    data = []
    for k in range(WORLDS):
        tag, split = ("gen", "seen") if k == 0 else ("bench-full", k)
        g = synthenv.generate_environment(synthenv.EnvParams(
            node_count=30, connection_radius=3.5, extent=10.0,
            feature_dim=mcfg.vis_dim, sigma=0.1,
            seed=derived_seed(seed, f"{tag}-env", split)))
        env = EnvBundle(g, synthenv.make_latents(
            g, mcfg.vis_dim, derived_seed(seed, f"{tag}-latent", split)), sigma=0.1)
        data += [(env, synthenv.make_episode(g, seed=i, mode="detour"))
                 for i in range(40 // WORLDS)]
    return Inputs(data, mcfg, seed, build_params(mcfg, seed))


def _eval_wide(seed: int) -> Inputs:
    # 100 nodes at the 30-node world's density: extent 10 * sqrt(100 / 30),
    # in four worlds of ten detour episodes, as in _train_full.
    # The agent is the untrained seed-0 draw at every workload seed: about
    # four in ten other draws STOP within a few steps, which would turn this
    # into a short-episode workload.
    data = []
    for k in range(WORLDS):
        g = synthenv.generate_environment(synthenv.EnvParams(
            node_count=100, connection_radius=3.5, extent=10.0 * math.sqrt(100 / 30),
            feature_dim=TINY_CONFIG.vis_dim, sigma=0.1,
            seed=derived_seed(seed, "bench-wide-env", k)))
        env = EnvBundle(g, synthenv.make_latents(
            g, TINY_CONFIG.vis_dim, derived_seed(seed, "bench-wide-latent", k)), sigma=0.1)
        data += [(env, synthenv.make_episode(g, seed=i, mode="detour"))
                 for i in range(40 // WORLDS)]
    return Inputs(data, TINY_CONFIG, 0, build_params(TINY_CONFIG, 0))


WORKLOADS = {
    "overfit_tiny": (Workload("overfit_tiny", 6.5, TrainConfig(
        lam=0.2, t_max=15, lr=3e-3, iterations=0, batch_size=4)), _overfit_tiny),
    "train_full": (Workload("train_full", 3.4, TrainConfig(
        lam=0.2, t_max=30, lr=1e-3, iterations=0, batch_size=2)), _train_full),
    "eval_wide": (Workload("eval_wide", 17.0, t_max=30), _eval_wide),
}

# Layers each workload must exercise; a traced run that sees zero calls to
# one of them fails instead of silently dropping the layer from the report.
COMMON_LAYERS = (
    "model.forward_step", "model.decouple_observation", "model.build_candidates",
    "model.observation_graph_interaction", "model.encode_instruction",
    "model.extract_key_detail", "model.cross_modal_fusion",
    "model.enhance_and_score", "synthenv.render_observation",
    "geometry.angular_distance", "navgraph.PathGraph.advance",
    "navgraph.NavGraph.shortest_path")
TRAIN_LAYERS = ("training.train", "training.pseudo_label", "nn.backward",
                "nn.clip_global_norm", "nn.optimizer_step")
EVAL_LAYERS = ("training.evaluate_policy", "metrics.evaluate")
SETUP_LAYERS = ("synthenv.generate_environment", "synthenv.make_episode")

MODEL_STAGES = ("decouple_observation", "build_candidates",
                "observation_graph_interaction", "encode_instruction",
                "extract_key_detail", "cross_modal_fusion", "enhance_and_score")


# ------------------------------------------------------------------ passes


@dataclass
class PassResult:
    timer: OpTimer
    steps: list                # decision steps per op
    attempted: int
    failed: int
    outputs: list              # total loss per iteration, or route per episode

    @property
    def wall(self) -> float:
        """Seconds spent in ops, without the calibrations."""
        return sum(self.timer.durations)


def _failure(what: str) -> None:
    print(f"FAILED OP: {what}", file=sys.stderr)


def _check_losses(log: list, reference: list | None) -> int:
    """Failed iterations: non-finite values, gaps, or reference mismatch."""
    failed = 0
    for k, row in enumerate(log, start=1):
        bad = row["iteration"] != k or not all(
            math.isfinite(row[c]) for c in ("tf_loss", "sf_loss", "total_loss", "grad_norm"))
        if not bad and reference is not None and k <= len(reference):
            ref = reference[k - 1]
            bad = abs(row["total_loss"] - ref) > LOSS_RTOL * abs(ref)
        if bad:
            _failure(f"iteration {k}: {row}")
            failed += 1
    return failed


def _check_episode(env, ep, route, rows, summary, reference) -> bool:
    """Legal route from the episode start, rows re-aggregating to the summary,
    and, on the reference seed, the reference route."""
    graph = env.graph
    legal = bool(route) and route[0] == ep.start and all(
        graph.has_edge(u, v) for u, v in zip(route, route[1:]))
    ok = (legal and list(rows) == ["ep000"]
          and metrics.aggregate(rows.values()) == summary
          and (reference is None or route == reference))
    if not ok:
        _failure(f"episode from {ep.start}: route {route}, summary {summary}")
    return ok


def _stop_after(timer: OpTimer, steps: list):
    """Ends an op when ``optimizer_step`` returns and starts the next."""
    def make(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            timer.stop()
            steps.append(0)
            timer.start()
            return result
        return wrapper
    return make


def _count_into(steps: list, timer: OpTimer):
    def make(original):
        def wrapper(*args, **kwargs):
            steps[-1] += 1
            timer.tick()
            return original(*args, **kwargs)
        return wrapper
    return make


def _capture_routes(routes: list):
    def make(original):
        def wrapper(result, *args, **kwargs):
            routes.append(list(result.executed_path))
            return original(result, *args, **kwargs)
        return wrapper
    return make


def train_pass(wl: Workload, inp: Inputs, n_ops: int, reference) -> PassResult:
    """n_ops iterations of one ``train`` call from freshly built parameters.

    Op boundaries come from a hook on the return of ``nn.optimizer_step``; a
    second hook counts ``forward_step`` calls and lets the timer calibrate.
    """
    params = build_params(inp.mcfg, inp.param_seed)
    cfg = replace(wl.train_cfg, iterations=n_ops, seed=inp.param_seed)
    steps: list = [0]
    with Patch() as hooks:
        timer = OpTimer()
        hooks.wrap("oikg.nn", "optimizer_step", _stop_after(timer, steps))
        hooks.wrap("oikg.model", "forward_step", _count_into(steps, timer))
        timer.start()
        try:
            log = training.train(inp.data, params, cfg, inp.mcfg)
        except Exception:
            traceback.print_exc()
            log = None
    done = len(timer.durations)
    if log is None:
        # the log of every iteration of the call is lost with the error
        return PassResult(timer, steps[:done], done + 1, done + 1, [])
    return PassResult(timer, steps[:-1], n_ops,
                      _check_losses(log, reference), [row["total_loss"] for row in log])


def eval_pass(wl: Workload, inp: Inputs, n_ops: int, reference) -> PassResult:
    """n_ops greedy episodes, one ``evaluate_policy`` call each, cycling
    through the episode pool; ``metrics.evaluate`` hands over each route."""
    steps, routes, executed = [0], [], []
    failed = 0
    timer = OpTimer()
    with Patch() as hooks:
        hooks.wrap("oikg.model", "forward_step", _count_into(steps, timer))
        hooks.wrap("oikg.metrics", "evaluate", _capture_routes(routes))
        for i in range(n_ops):
            env, ep = inp.data[i % len(inp.data)]
            routes.clear()
            timer.start()
            try:
                rows, summary = training.evaluate_policy([(env, ep)], inp.params,
                                                         inp.mcfg, wl.t_max)
            except Exception:
                traceback.print_exc()
                rows = None
            timer.stop()
            steps.append(0)
            executed.append(routes[0] if len(routes) == 1 else None)
            ref = None if reference is None else reference[i % len(reference)]
            if rows is None or len(routes) != 1 or not _check_episode(
                    env, ep, routes[0], rows, summary, ref):
                failed += 1
    return PassResult(timer, steps[:-1], n_ops, failed, executed)


def run_pass(wl, inp, n_ops, reference) -> PassResult:
    return (train_pass if wl.trains else eval_pass)(wl, inp, n_ops, reference)


def setup(wl: Workload, build, seed: int, tracer: Tracer | None = None,
          variant: int = 0) -> Inputs:
    """Build the inputs and run warm-up ops.

    Warm-up fills the lazy per-graph route caches; training warms on its
    own parameter copy so every measured pass starts from iteration 1.
    ``variant`` picks the warm-up's episodes and, in training, the draw of
    that copy, whose untrained policy sets how long its rollouts run; so
    repeated set-ups time several of each.
    """
    with tracer if tracer is not None else contextlib.nullcontext():
        inp = build(seed)
    if wl.trains:
        training.train(inp.data, build_params(inp.mcfg, inp.param_seed + variant),
                       replace(wl.train_cfg, iterations=WARM_OPS,
                               seed=inp.param_seed + variant), inp.mcfg)
    else:
        first = variant * WARM_OPS % len(inp.data)
        training.evaluate_policy(inp.data[first:first + WARM_OPS], inp.params,
                                 inp.mcfg, wl.t_max)
    return inp


# ----------------------------------------------------------------- reports


def machine() -> dict:
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    try:
        blas = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 only prints
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas_config": blas,
            "threads_env": {v: os.environ.get(v) for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def load_reference(name: str, seed: int):
    if not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return ref["workloads"][name] if ref["seed"] == seed else None


def end_to_end(wl, inp, seconds, setups, reference) -> tuple[dict, PassResult]:
    res = run_pass(wl, inp, wl.ops(seconds), reference)
    ms = res.timer.scaled_ms()
    deciles = statistics.quantiles(ms, n=10)
    metrics_out = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (deciles[8], "ms"),
        "decision_steps_per_s": (sum(res.steps) * 1e3 / sum(ms), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics_out, res


def per_layer(wl, inp, seconds, setup_tracer, reference) -> tuple[dict, list, dict]:
    """Two traced passes between two untraced ones, all of the same ops from
    the same start; every count must repeat exactly.  Bracketing the traced
    passes keeps a slow drift in machine speed out of the overhead figure."""
    n_ops = max(2, wl.ops(seconds) // 4)
    plain = [run_pass(wl, inp, n_ops, reference)]
    passes, tracers = [], []
    for _ in range(2):
        tracer = Tracer(wl.walk)
        with tracer:
            passes.append(run_pass(wl, inp, n_ops, reference))
        tracers.append(tracer)
    plain.append(run_pass(wl, inp, n_ops, reference))
    a, b = tracers
    if a.fingerprint() != b.fingerprint() or any(
            p.steps != plain[0].steps for p in passes + plain):
        raise TraceError(f"counts differ between runs of one seed: "
                         f"{a.fingerprint()} vs {b.fingerprint()}; steps per op "
                         f"{[p.steps for p in plain + passes]}")
    expected = COMMON_LAYERS + (TRAIN_LAYERS if wl.trains else EVAL_LAYERS)
    missing = [n for n in expected if a.counts[n] == 0]
    missing += [n for n in SETUP_LAYERS if setup_tracer.counts[n] == 0]
    if missing:
        raise TraceError(f"layers recorded no calls on {wl.name}: {missing}")

    incl, own = a.totals()
    calls = a.counts
    steps = calls["model.forward_step"]
    walk_s = incl[WALK]
    wall = passes[0].wall - walk_s     # op time without the tracer's own tape walks

    def ms_step(seconds):
        return seconds * 1e3 / steps

    def ms_op(seconds):
        return seconds * 1e3 / n_ops

    setup_incl, _ = setup_tracer.totals()
    out = {
        "trace_overhead_frac": (sum(sum(p.timer.scaled_ms()) for p in passes)
                                / sum(sum(p.timer.scaled_ms()) for p in plain) - 1.0, "ratio"),
        "model.forward_step.calls_per_op": (steps / n_ops, "count"),
        "nn.tape_nodes_per_step": (a.tape_nodes / steps, "count"),
        "nn.backward.ms_per_op": (ms_op(incl["nn.backward"]), "ms"),
        "training.backward_share": (incl["nn.backward"] / wall, "ratio"),
        "nn.optimizer_step.ms_per_op": (ms_op(incl["nn.optimizer_step"]), "ms"),
        "nn.clip_global_norm.ms_per_op": (ms_op(incl["nn.clip_global_norm"]), "ms"),
        "training.optimizer_share": (
            (incl["nn.optimizer_step"] + incl["nn.clip_global_norm"]) / wall, "ratio"),
        "model.forward_step.ms_p50": (
            statistics.median(a.durations("model.forward_step")) * 1e3, "ms"),
        "training.forward_share": (incl["model.forward_step"] / wall, "ratio"),
    }
    for stage in MODEL_STAGES:
        out[f"model.{stage}.self_ms_per_step"] = (ms_step(own[f"model.{stage}"]), "ms")
    out.update({
        "model.candidates_per_step": (a.candidates / steps, "count"),
        "model.obs_cache_hit_ratio": (
            1.0 - calls["model.decouple_observation"] / steps, "ratio"),
        "synthenv.render_observation.ms_per_step": (
            ms_step(incl["synthenv.render_observation"]), "ms"),
        "synthenv.render_observation.calls_per_step": (
            calls["synthenv.render_observation"] / steps, "count"),
        "synthenv.render_distinct_ratio": (
            len(a.rendered) / calls["synthenv.render_observation"], "ratio"),
        "geometry.angular_distance.calls_per_step": (
            calls["geometry.angular_distance"] / steps, "count"),
        "navgraph.PathGraph.advance.ms_per_step": (
            ms_step(incl["navgraph.PathGraph.advance"]), "ms"),
        "navgraph.NavGraph.shortest_path.calls_per_step": (
            calls["navgraph.NavGraph.shortest_path"] / steps, "count"),
        "training.pseudo_label.ms_per_step": (
            ms_step(incl["training.pseudo_label"]), "ms"),
        "metrics.evaluate.ms_per_op": (ms_op(incl["metrics.evaluate"]), "ms"),
        "synthenv.generate_environment.s": (
            setup_incl["synthenv.generate_environment"]
            / setup_tracer.counts["synthenv.generate_environment"], "s"),
        "synthenv.make_episode.ms": (
            setup_incl["synthenv.make_episode"] * 1e3
            / setup_tracer.counts["synthenv.make_episode"], "ms"),
    })
    self_ms = sorted(((name, s * 1e3 / n_ops) for name, s in own.items()
                      if name != WALK), key=lambda kv: -kv[1])
    detail = {"ops_per_pass": n_ops, "fingerprint": a.fingerprint(),
              "self_ms_per_op": dict(self_ms),
              "spans": [[n, round(s - a.spans[0][1], 7), round(e - a.spans[0][1], 7), p]
                        for n, s, e, p in a.spans]}
    return out, plain + passes, detail


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    wl, build = WORKLOADS[args.workload]
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True, default=str))
    reference = load_reference(wl.name, args.seed)

    if args.trace:
        setup_tracer = Tracer(wl.walk)
        inp = setup(wl, build, args.seed, setup_tracer)
        values, passes, detail = per_layer(wl, inp, args.seconds, setup_tracer, reference)
    else:
        # the warm-up ops, most of a set-up, differ by episode, so the repeats
        # vary them; the last is the traced run's, which the measured pass follows
        setups = OpTimer()
        for variant in reversed(range(SETUP_REPEATS)):
            setups.start()
            inp = setup(wl, build, args.seed, variant=variant)
            setups.stop()
        values, res = end_to_end(wl, inp, args.seconds,
                                 [ms / 1e3 for ms in setups.scaled_ms()], reference)
        passes = [res]
        detail = {"op_ms": res.timer.scaled_ms(),
                  "op_ms_raw": [d * 1e3 for d in res.timer.durations],
                  "cal_ms": [c * 1e3 for c in res.timer.cal_means],
                  "steps_per_op": res.steps, "setup_s_raw": setups.durations,
                  "setup_cal_ms": [c * 1e3 for c in setups.cal_means]}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"{wl.name} seed {args.seed} trace {args.trace}: {attempted} ops "
          f"({passes[0].attempted} per pass), one closed-loop client, BLAS 1 thread, "
          f"reference {'checked' if reference is not None else 'absent for this seed'}")
    for name, (value, unit) in values.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(f"  {'failed_ops_frac':48s} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    if args.trace:
        print("  self time per op, largest first:")
        for name, ms in list(detail["self_ms_per_op"].items())[:8]:
            print(f"    {name:46s} {ms:12.3f} ms")
    else:
        print(f"  unscaled op_ms_p50 {statistics.median(detail['op_ms_raw']):.3f} ms; "
              f"calibration median {statistics.median(detail['cal_ms']):.3f} ms "
              f"(reference {CAL_REF_MS} ms)")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=info, detail=detail)
    out_file = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0
