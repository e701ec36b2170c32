"""Command surface: gen, train, eval, ablate, probe.

All state flows through files.  Every command is driven by one root seed
through named substreams, so rerunning a command with the same parameters
reproduces its output tree byte for byte (per-step timing columns are the
one wall-clock exception).  Outputs land under --out, optionally rooted at
the OIKG_OUT environment variable; the effective parameter set is archived
as config.json with a content hash that the other outputs embed.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import nn
from .analysis import (GRID_LABELS, detail_probe, grad_probe,
                       run_ablation_cell, variant_config, write_ablation_csv,
                       write_probe_json)
from .errors import (GenerationFailure, IncompatibleCheckpoint,
                     InvalidArgument, InvalidState, NumericFailure, OikgError,
                     SchemaError, ShapeError)
from .metrics import EpisodeResult, aggregate, evaluate, write_results_csv
from .model import TINY_CONFIG, ModelConfig, build_params
from .navgraph import load_environment, save_environment
from .rng import substream
from .synthenv import (EnvParams, episode_from_dict, episode_to_dict,
                       generate_environment, make_episode, make_latents,
                       save_vocab)
from .training import (EnvBundle, TrainConfig, greedy_policy, random_policy,
                       recovery_label, rollout, teacher_policy, train,
                       write_training_log)

FLAG_NAMES = ("MED", "GE", "LD", "OD")
SPLITS = ("train", "val_seen", "val_unseen")

DEFAULTS = {
    "gen": {"nodes": 30, "radius": 3.5, "extent": 10.0, "feature_dim": 10,
            "sigma": 0.1, "episodes": 40, "val_episodes": 0,
            "mode": "shortest", "seed": 0},
    "train": {"iters": 200, "lam": 0.2, "lr": 1e-3, "batch": 2, "t_max": 0,
              "seed": 0, "flags": "MED,GE,LD,OD", "model": "tiny",
              "swap_lambda": False, "eval_every": 0},
    "eval": {"agent": "model", "split": "val_seen", "t_max": 30, "seed": 0,
             "flags": "MED,GE,LD,OD", "model": "tiny", "ckpt": "", "jobs": 1},
    "ablate": {"iters": 60, "seeds": 3, "t_max": 0, "batch": 2, "lr": 3e-3,
               "lam": 0.2, "timing_steps": 1000, "model": "tiny",
               "grid": "all", "jobs": 1},
    "probe": {"which": "all", "seeds": 5, "t_max": 0, "lam": 0.2,
              "train_iters": 0, "model": "tiny", "probe_episodes": 4,
              "lr": 3e-3, "batch": 2},
}

# keys that describe where a run lives rather than what it computes; they
# stay out of the archived config so reruns in new directories hash alike
NON_SEMANTIC_KEYS = ("out", "data", "ckpt", "config", "jobs")


def _dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def archive_config(out: Path, command: str, cfg: dict) -> str:
    clean = {k: v for k, v in cfg.items() if k not in NON_SEMANTIC_KEYS}
    clean["command"] = command
    h = config_hash(clean)
    record = dict(clean)
    record["config_hash"] = h
    _dump_json(out / "config.json", record)
    return h


def _resolve_out(path_str: str) -> Path:
    root = os.environ.get("OIKG_OUT")
    p = Path(path_str)
    if root and not p.is_absolute():
        p = Path(root) / p
    p.mkdir(parents=True, exist_ok=True)
    return p


def _flags_label(spec: str) -> str:
    names = [t for t in spec.replace(" ", "").split(",") if t]
    unknown = [n for n in names if n not in FLAG_NAMES]
    if unknown:
        raise InvalidArgument(f"unknown flags {unknown}; choose from {FLAG_NAMES}")
    chosen = set(names)
    return "".join(c if n in chosen else "-"
                   for c, n in zip("MGLO", FLAG_NAMES))


def _model_config(cfg: dict) -> ModelConfig:
    base = TINY_CONFIG if cfg["model"] == "tiny" else ModelConfig()
    return variant_config(base, _flags_label(cfg["flags"]))


def _guard_feature_dim(gen_cfg: dict, mcfg: ModelConfig) -> None:
    if gen_cfg["feature_dim"] != mcfg.vis_dim:
        raise SchemaError(
            f"environment feature dim {gen_cfg['feature_dim']} does not match "
            f"model visual dim {mcfg.vis_dim}; regenerate with --feature-dim "
            f"{mcfg.vis_dim} or pick a matching --model")


def _derived_seed(seed: int, *tags) -> int:
    return int(substream(seed, *tags).integers(0, 2 ** 31 - 1))


def _load_split(data_dir: str, split: str):
    """(EnvBundle, episodes, archived gen config) for one split."""
    if split not in SPLITS:
        raise InvalidArgument(f"unknown split {split!r}")
    base = Path(data_dir)
    gen_cfg = _load_json(base / "config.json")
    env_file = "env_unseen.json" if split == "val_unseen" else "env.json"
    graph = load_environment(base / env_file)
    latent_seed = (gen_cfg["latent_seed_unseen"] if split == "val_unseen"
                   else gen_cfg["latent_seed_seen"])
    latents = make_latents(graph, gen_cfg["feature_dim"], latent_seed)
    env = EnvBundle(graph, latents, sigma=gen_cfg["sigma"])
    raw = _load_json(base / f"episodes_{split}.json")
    episodes = [episode_from_dict(d) for d in raw["episodes"]]
    return env, episodes, gen_cfg


def _default_t_max(cfg: dict, gen_cfg: dict) -> int:
    if cfg["t_max"] > 0:
        return cfg["t_max"]
    return 30 if gen_cfg["mode"] == "detour" else 15


# ------------------------------------------------------------------- gen


def cmd_gen(cfg: dict) -> None:
    out = _resolve_out(cfg["out"])
    n_val = cfg["val_episodes"] or max(1, cfg["episodes"] // 5)
    envs = {}
    for name in ("seen", "unseen"):
        envs[name] = generate_environment(
            EnvParams(node_count=cfg["nodes"], connection_radius=cfg["radius"],
                      extent=cfg["extent"], feature_dim=cfg["feature_dim"],
                      sigma=cfg["sigma"],
                      seed=_derived_seed(cfg["seed"], "gen-env", name)))
    splits = {
        "train": [make_episode(envs["seen"], seed=i, mode=cfg["mode"])
                  for i in range(cfg["episodes"])],
        "val_seen": [make_episode(envs["seen"], seed=cfg["episodes"] + j,
                                  mode=cfg["mode"]) for j in range(n_val)],
        "val_unseen": [make_episode(envs["unseen"], seed=j, mode=cfg["mode"])
                       for j in range(n_val)],
    }
    save_environment(out / "env.json", envs["seen"])
    save_environment(out / "env_unseen.json", envs["unseen"])
    save_vocab(out / "vocab.json")
    for split, eps in splits.items():
        _dump_json(out / f"episodes_{split}.json",
                   {"episodes": [episode_to_dict(e) for e in eps]})
    record = dict(cfg)
    record["latent_seed_seen"] = _derived_seed(cfg["seed"], "gen-latent", "seen")
    record["latent_seed_unseen"] = _derived_seed(cfg["seed"], "gen-latent",
                                                 "unseen")
    archive_config(out, "gen", record)


# ----------------------------------------------------------------- train


def cmd_train(cfg: dict) -> None:
    out = _resolve_out(cfg["out"])
    env, episodes, gen_cfg = _load_split(cfg["data"], "train")
    mcfg = _model_config(cfg)
    _guard_feature_dim(gen_cfg, mcfg)
    tcfg = TrainConfig(lam=cfg["lam"], t_max=_default_t_max(cfg, gen_cfg),
                       lr=cfg["lr"], iterations=cfg["iters"],
                       batch_size=cfg["batch"], seed=cfg["seed"],
                       swap_lambda=cfg["swap_lambda"],
                       eval_every=cfg["eval_every"])
    params = build_params(mcfg, cfg["seed"])
    data = [(env, ep) for ep in episodes]
    rows = train(data, params, tcfg, mcfg, out_dir=str(out))
    h = archive_config(out, "train", cfg)
    write_training_log(out / "train_log.csv", rows,
                       comment=f"config_hash={h}")


# ------------------------------------------------------------------ eval


def _trace_line(t: int, step) -> str:
    entry = {"t": t, "node": step.node, "frontier": step.order,
             "pseudo_label": step.supervision, "action": step.action}
    if step.logits is not None:
        entry["scores"] = [float(v) for v in step.logits.data]
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def _eval_unit(payload):
    idx, env, ep, params, mcfg, t_max, agent, seed = payload
    if agent == "model":
        choose = greedy_policy
    elif agent == "oracle":
        choose = teacher_policy(ep)
    else:
        choose = random_policy(substream(seed, "random-agent", idx))
    rec = rollout(env, ep, t_max, choose, params, mcfg, label=recovery_label)
    row = evaluate(EpisodeResult(env.graph, rec.route, ep.gt_path))
    return idx, row, [_trace_line(t, s) for t, s in enumerate(rec.steps)]


def _map_units(jobs: int, fn, payloads):
    if jobs <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, payloads))


def cmd_eval(cfg: dict) -> None:
    out = _resolve_out(cfg["out"])
    env, episodes, gen_cfg = _load_split(cfg["data"], cfg["split"])
    mcfg = _model_config(cfg)
    agent = cfg["agent"]
    params = None
    if agent == "model":
        if not cfg["ckpt"]:
            raise InvalidArgument("--ckpt is required for the model agent")
        _guard_feature_dim(gen_cfg, mcfg)
        params = build_params(mcfg, 0)
        params.load_state(nn.load_checkpoint(cfg["ckpt"]))
    h = archive_config(out, "eval", cfg)
    t_max = cfg["t_max"]
    payloads = [(i, env, ep, params, mcfg, t_max, agent, cfg["seed"])
                for i, ep in enumerate(episodes)]
    results = _map_units(cfg["jobs"], _eval_unit, payloads)
    rows = {f"ep{idx:03d}": row for idx, row, _ in results}
    write_results_csv(out / "results.csv", rows, comment=f"config_hash={h}")
    summary = aggregate(rows.values())
    summary.update({"config_hash": h, "agent": agent, "split": cfg["split"]})
    _dump_json(out / "summary.json", summary)
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    for idx, _, lines in sorted(results):
        (traces / f"ep{idx:03d}.jsonl").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------- ablate


def _ablate_unit(payload):
    label, train_data, eval_data, tcfg, mcfg, seeds, timing_steps = payload
    row, per_seed = run_ablation_cell(label, train_data, eval_data, tcfg,
                                      mcfg, seeds, timing_steps)
    return label, row, per_seed


def cmd_ablate(cfg: dict) -> None:
    out = _resolve_out(cfg["out"])
    env, train_eps, gen_cfg = _load_split(cfg["data"], "train")
    _, eval_eps, _ = _load_split(cfg["data"], "val_seen")
    base = TINY_CONFIG if cfg["model"] == "tiny" else ModelConfig()
    _guard_feature_dim(gen_cfg, base)
    grid = GRID_LABELS if cfg["grid"] == "all" else tuple(cfg["grid"].split(","))
    for label in grid:
        variant_config(base, label)  # validate before spending compute
    tcfg = TrainConfig(lam=cfg["lam"], t_max=_default_t_max(cfg, gen_cfg),
                       lr=cfg["lr"], iterations=cfg["iters"],
                       batch_size=cfg["batch"], seed=0)
    seeds = tuple(range(cfg["seeds"]))
    train_data = [(env, ep) for ep in train_eps]
    eval_data = [(env, ep) for ep in eval_eps]
    payloads = [(label, train_data, eval_data, tcfg, base, seeds,
                 cfg["timing_steps"]) for label in grid]
    cells = _map_units(cfg["jobs"], _ablate_unit, payloads)
    h = archive_config(out, "ablate", cfg)
    rows = [row for _, row, _ in cells]
    write_ablation_csv(out / "ablation.csv", rows, comment=f"config_hash={h}")
    _dump_json(out / "ablation_seeds.json",
               {"config_hash": h,
                "cells": {label: per_seed for label, _, per_seed in cells}})


# ----------------------------------------------------------------- probe


def cmd_probe(cfg: dict) -> None:
    out = _resolve_out(cfg["out"])
    env, episodes, gen_cfg = _load_split(cfg["data"], "train")
    base = TINY_CONFIG if cfg["model"] == "tiny" else ModelConfig()
    _guard_feature_dim(gen_cfg, base)
    data = [(env, ep) for ep in episodes[:cfg["probe_episodes"]]]
    seeds = tuple(range(cfg["seeds"]))
    t_max = _default_t_max(cfg, gen_cfg)
    h = archive_config(out, "probe", cfg)
    if cfg["which"] in ("grad", "all"):
        probe = grad_probe(data, seeds, base, lam=cfg["lam"], t_max=t_max)
        probe["config_hash"] = h
        write_probe_json(out / "probe_grad.json", probe)
    if cfg["which"] in ("detail", "all"):
        tcfg = (TrainConfig(lam=cfg["lam"], t_max=t_max, lr=cfg["lr"],
                            iterations=cfg["train_iters"],
                            batch_size=cfg["batch"], seed=0)
                if cfg["train_iters"] > 0 else None)
        probe = detail_probe(data, data, seeds, base, train_cfg=tcfg)
        probe["config_hash"] = h
        write_probe_json(out / "probe_detail.json", probe)


# ------------------------------------------------------------- plumbing


def build_parser() -> argparse.ArgumentParser:
    sup = argparse.SUPPRESS
    p = argparse.ArgumentParser(
        prog="oikg",
        description="Synthetic navigation pipeline: generate worlds, train "
                    "the agent, evaluate, and run ablations/probes.")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate environments and episode splits")
    g.add_argument("--out", required=True)
    g.add_argument("--config", default=sup)
    g.add_argument("--nodes", type=int, default=sup)
    g.add_argument("--radius", type=float, default=sup)
    g.add_argument("--extent", type=float, default=sup)
    g.add_argument("--feature-dim", type=int, default=sup,
                   help="observation feature size; must match the model's "
                        "visual dim (tiny: 10, full: 32)")
    g.add_argument("--sigma", type=float, default=sup)
    g.add_argument("--episodes", type=int, default=sup)
    g.add_argument("--val-episodes", type=int, default=sup,
                   help="per-split validation episode count (0: episodes/5)")
    g.add_argument("--mode", choices=("shortest", "detour"), default=sup)
    g.add_argument("--seed", type=int, default=sup)

    t = sub.add_parser("train", help="train an agent on generated data")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", default=sup)
    t.add_argument("--iters", type=int, default=sup)
    t.add_argument("--lambda", dest="lam", type=float, default=sup,
                   help="teacher-forcing weight in the mixed loss")
    t.add_argument("--lr", type=float, default=sup)
    t.add_argument("--batch", type=int, default=sup)
    t.add_argument("--t-max", type=int, default=sup,
                   help="step cap per episode (0: 15, or 30 for detour data)")
    t.add_argument("--seed", type=int, default=sup)
    t.add_argument("--flags", default=sup,
                   help="comma subset of MED,GE,LD,OD")
    t.add_argument("--model", choices=("tiny", "full"), default=sup)
    t.add_argument("--swap-lambda", action="store_true", default=sup)
    t.add_argument("--eval-every", type=int, default=sup)

    e = sub.add_parser("eval", help="evaluate an agent, writing metrics and traces")
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--config", default=sup)
    e.add_argument("--ckpt", default=sup)
    e.add_argument("--agent", choices=("model", "oracle", "random"),
                   default=sup)
    e.add_argument("--split", choices=SPLITS, default=sup)
    e.add_argument("--t-max", type=int, default=sup)
    e.add_argument("--seed", type=int, default=sup)
    e.add_argument("--flags", default=sup)
    e.add_argument("--model", choices=("tiny", "full"), default=sup)
    e.add_argument("--jobs", type=int, default=sup)

    a = sub.add_parser("ablate", help="train/evaluate the component grid")
    a.add_argument("--data", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--config", default=sup)
    a.add_argument("--iters", type=int, default=sup)
    a.add_argument("--seeds", type=int, default=sup,
                   help="number of seeds (0..N-1) per grid cell")
    a.add_argument("--t-max", type=int, default=sup)
    a.add_argument("--batch", type=int, default=sup)
    a.add_argument("--lr", type=float, default=sup)
    a.add_argument("--lambda", dest="lam", type=float, default=sup)
    a.add_argument("--timing-steps", type=int, default=sup)
    a.add_argument("--model", choices=("tiny", "full"), default=sup)
    a.add_argument("--grid", default=sup,
                   help="'all' or comma list of labels like MG--,MGLO")
    a.add_argument("--jobs", type=int, default=sup)

    r = sub.add_parser("probe", help="gradient / key-detail probes")
    r.add_argument("--data", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--config", default=sup)
    r.add_argument("--which", choices=("grad", "detail", "all"), default=sup)
    r.add_argument("--seeds", type=int, default=sup)
    r.add_argument("--t-max", type=int, default=sup)
    r.add_argument("--lambda", dest="lam", type=float, default=sup)
    r.add_argument("--train-iters", type=int, default=sup)
    r.add_argument("--lr", type=float, default=sup)
    r.add_argument("--batch", type=int, default=sup)
    r.add_argument("--model", choices=("tiny", "full"), default=sup)
    r.add_argument("--probe-episodes", type=int, default=sup)

    return p


def merge_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    given = {k: v for k, v in vars(args).items() if k != "cmd"}
    merged = dict(DEFAULTS[args.cmd])
    cfg_path = given.pop("config", None)
    if cfg_path is not None:
        loaded = _load_json(cfg_path)
        allowed = set(merged) | {"out", "data", "ckpt"}
        unknown = sorted(set(loaded) - allowed)
        if unknown:
            raise InvalidArgument(
                f"unknown config fields {unknown} for command {args.cmd!r}")
        merged.update(loaded)
    merged.update(given)
    return merged


_HANDLERS = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval,
             "ablate": cmd_ablate, "probe": cmd_probe}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        cfg = merge_config(args)
        _HANDLERS[args.cmd](cfg)
        return 0
    except NumericFailure as err:
        print(f"oikg: numeric failure: {err}", file=sys.stderr)
        return 4
    except (InvalidArgument, ShapeError) as err:
        print(f"oikg: usage error: {err}", file=sys.stderr)
        return 2
    except (SchemaError, IncompatibleCheckpoint, GenerationFailure,
            InvalidState, OikgError, OSError, json.JSONDecodeError,
            KeyError) as err:
        print(f"oikg: data error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
