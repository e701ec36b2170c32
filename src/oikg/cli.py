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
import os
import sys
from pathlib import Path

from . import nn
from .analysis import (FLAG_NAMES, GRID_LABELS, check_grid, detail_probe,
                       grad_probe, map_units, run_ablation, variant_config,
                       write_ablation_csv)
from .artifacts import (canonical_json, load_checkpoint, read_json,
                        save_checkpoint, write_json)
from .errors import (GenerationFailure, IncompatibleCheckpoint,
                     InvalidArgument, InvalidState, NumericFailure, OikgError,
                     SchemaError, ShapeError)
from .metrics import EpisodeResult, aggregate, evaluate, write_results_csv
from .model import TINY_CONFIG, ModelConfig, build_params
from .navgraph import check_route, load_environment, save_environment
from .rng import substream
from .synthenv import (EPISODE_MODES, ROOM_COUNT, EnvBundle, EnvParams,
                       episode_from_dict, episode_to_dict, generate_environment,
                       make_episode, make_latents, save_vocab)
from .training import (TrainConfig, check_routes, greedy_policy,
                       random_policy, recovery_label, rollout, teacher_policy,
                       train, write_training_log)

SPLITS = ("train", "val_seen", "val_unseen")
MODEL_PRESETS = {"tiny": TINY_CONFIG, "full": ModelConfig()}

# the allowed values of the enumerated settings, checked for flags and
# config-file values alike
CHOICES = {
    "mode": EPISODE_MODES,
    "model": tuple(MODEL_PRESETS),
    "agent": ("model", "oracle", "random"),
    "split": SPLITS,
    "which": ("grad", "detail", "all"),
}

# keys of the `gen` config.json that the other commands read, with their types
GEN_KEYS = {"feature_dim": int, "sigma": float, "mode": str,
            "latent_seed_seen": int, "latent_seed_unseen": int}

# each command's settings, the one declaration of its flags: a key becomes
# --key-with-dashes (lam becomes --lambda), typed by its default, and
# CHOICES limit the values
DEFAULTS = {
    "gen": {"nodes": 30, "radius": 3.5, "extent": 10.0, "feature_dim": 10,
            "sigma": 0.1, "episodes": 40, "val_episodes": 0,
            "mode": "shortest", "seed": 0},
    "train": {"iters": 200, "lam": 0.2, "lr": 1e-3, "batch": 2, "t_max": 0,
              "seed": 0, "flags": "MED,GE,LD,OD", "model": "tiny",
              "eval_every": 0},
    "eval": {"ckpt": "", "agent": "model", "split": "val_seen", "t_max": 30,
             "seed": 0, "flags": "MED,GE,LD,OD", "model": "tiny", "jobs": 1},
    "ablate": {"iters": 60, "seeds": 3, "t_max": 0, "batch": 2, "lr": 3e-3,
               "lam": 0.2, "timing_steps": 1000, "model": "tiny",
               "grid": "all", "jobs": 1},
    "probe": {"which": "all", "seeds": 5, "t_max": 0, "lam": 0.2,
              "train_iters": 0, "lr": 3e-3, "batch": 2, "model": "tiny",
              "probe_episodes": 4},
}

COMMAND_HELP = {
    "gen": "generate environments and episode splits",
    "train": "train an agent on generated data",
    "eval": "evaluate an agent, writing metrics and traces",
    "ablate": "train/evaluate the component grid",
    "probe": "gradient / key-detail probes",
}

SETTING_HELP = {
    "feature_dim": "observation feature size; must match the model's visual "
                   "dim (tiny: 10, full: 32)",
    "val_episodes": "per-split validation episode count (0: episodes/5)",
    "lam": "teacher-forcing weight in the mixed loss",
    "t_max": "step cap per episode (0: 15, or 30 for detour data)",
    "flags": "comma subset of MED,GE,LD,OD",
    "seeds": "number of seeds (0..N-1) per variant",
    "grid": "'all' or comma list of labels like MG--,MGLO",
}

# keys that describe where a run lives rather than what it computes; they
# stay out of the archived config so reruns in new directories hash alike
NON_SEMANTIC_KEYS = ("out", "data", "ckpt", "config", "jobs")


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()[:16]


def archive_config(out: Path, command: str, cfg: dict) -> str:
    clean = {k: v for k, v in cfg.items() if k not in NON_SEMANTIC_KEYS}
    clean["command"] = command
    h = config_hash(clean)
    record = dict(clean)
    record["config_hash"] = h
    write_json(out / "config.json", record)
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
    return variant_config(MODEL_PRESETS[cfg["model"]],
                          _flags_label(cfg["flags"]))


def _train_config(cfg: dict, t_max: int, iterations: int) -> TrainConfig:
    """TrainConfig from a command's settings.  Only `train` sets seed and
    eval_every; the other commands keep their defaults."""
    extra = {k: cfg[k] for k in ("seed", "eval_every") if k in cfg}
    return TrainConfig(lam=cfg["lam"], t_max=t_max, lr=cfg["lr"],
                       iterations=iterations, batch_size=cfg["batch"], **extra)


def _guard_feature_dim(gen_cfg: dict, mcfg: ModelConfig) -> None:
    if gen_cfg["feature_dim"] != mcfg.vis_dim:
        raise SchemaError(
            f"environment feature dim {gen_cfg['feature_dim']} does not match "
            f"model visual dim {mcfg.vis_dim}; regenerate with --feature-dim "
            f"{mcfg.vis_dim} or pick a matching --model")


def _derived_seed(seed: int, *tags) -> int:
    return int(substream(seed, *tags).integers(0, 2 ** 31 - 1))


def _has_type(value, kind: type) -> bool:
    """Whether a JSON value fits a setting of type `kind`: never a bool,
    and an int also where `kind` is float, if a float can hold it."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    return not isinstance(value, bool) and isinstance(value, kind)


def _read_record(path, keys: dict) -> dict:
    """A JSON object from a data file holding every key in `keys` with a
    value of the type it maps to; anything else is a data error naming the
    first key missing or mistyped."""
    record = read_json(path)
    if not isinstance(record, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    for key, kind in keys.items():
        if key not in record:
            raise SchemaError(f"{path}: missing key {key!r}")
        if not _has_type(record[key], kind):
            raise SchemaError(f"{path}: key {key!r} has a value of the wrong type")
    return record


def _load_split(data_dir: str, split: str):
    """(EnvBundle, episodes, archived gen config) for one split, once the
    config's values are in range and every episode's route lies in the
    split's graph; anything else is a data error."""
    base = Path(data_dir)
    gen_path = base / "config.json"
    gen_cfg = _read_record(gen_path, GEN_KEYS)
    if not 0 <= gen_cfg["sigma"] <= sys.float_info.max:  # also NaN
        raise SchemaError(f"{gen_path}: sigma must be finite and >= 0")
    if gen_cfg["feature_dim"] <= ROOM_COUNT:
        raise SchemaError(f"{gen_path}: feature_dim must exceed {ROOM_COUNT}")
    if gen_cfg["mode"] not in CHOICES["mode"]:
        raise SchemaError(f"{gen_path}: mode must be one of {CHOICES['mode']}")
    env_file = "env_unseen.json" if split == "val_unseen" else "env.json"
    graph = load_environment(base / env_file)
    latent_seed = (gen_cfg["latent_seed_unseen"] if split == "val_unseen"
                   else gen_cfg["latent_seed_seen"])
    latents = make_latents(graph, gen_cfg["feature_dim"], latent_seed)
    env = EnvBundle(graph, latents, sigma=gen_cfg["sigma"])
    path = base / f"episodes_{split}.json"
    raw = _read_record(path, {"episodes": list})
    if not raw["episodes"]:
        raise InvalidArgument(f"{path}: the {split} split has no episodes")
    episodes = []
    for i, d in enumerate(raw["episodes"]):
        try:
            episodes.append(episode_from_dict(d))
            check_route(graph, episodes[-1].gt_path, "gt")
        except (SchemaError, InvalidArgument) as exc:
            raise SchemaError(f"{path}: episode {i}: {exc}") from exc
    return env, episodes, gen_cfg


def _default_t_max(cfg: dict, gen_cfg: dict) -> int:
    if cfg["t_max"] < 0:
        raise InvalidArgument("--t-max must be >= 0 (0: the default)")
    if cfg["t_max"] > 0:
        return cfg["t_max"]
    return 30 if gen_cfg["mode"] == "detour" else 15


# ------------------------------------------------------------------- gen


def cmd_gen(cfg: dict) -> None:
    if cfg["episodes"] < 0 or cfg["val_episodes"] < 0:
        raise InvalidArgument("episode counts must be >= 0")
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
    out = _resolve_out(cfg["out"])
    save_environment(out / "env.json", envs["seen"])
    save_environment(out / "env_unseen.json", envs["unseen"])
    save_vocab(out / "vocab.json")
    for split, eps in splits.items():
        write_json(out / f"episodes_{split}.json",
                   {"episodes": [episode_to_dict(e) for e in eps]})
    record = dict(cfg)
    record["latent_seed_seen"] = _derived_seed(cfg["seed"], "gen-latent", "seen")
    record["latent_seed_unseen"] = _derived_seed(cfg["seed"], "gen-latent",
                                                 "unseen")
    archive_config(out, "gen", record)


# ----------------------------------------------------------------- train


def cmd_train(cfg: dict) -> None:
    env, episodes, gen_cfg = _load_split(cfg["data"], "train")
    mcfg = _model_config(cfg)
    _guard_feature_dim(gen_cfg, mcfg)
    tcfg = _train_config(cfg, _default_t_max(cfg, gen_cfg), cfg["iters"])
    data = [(env, ep) for ep in episodes]
    check_routes(data, tcfg.t_max)
    params = build_params(mcfg, cfg["seed"])
    out = _resolve_out(cfg["out"])
    h = archive_config(out, "train", cfg)
    try:
        rows = train(data, params, tcfg, mcfg)
    except NumericFailure:
        save_checkpoint(out / "abort.ckpt", params)  # the pre-step values
        raise
    save_checkpoint(out / "params.ckpt", params)
    write_training_log(out / "train_log.csv", rows,
                       comment=f"config_hash={h}")


# ------------------------------------------------------------------ eval


def _trace_line(t: int, step) -> str:
    entry = {"t": t, "node": step.node, "frontier": step.order,
             "pseudo_label": step.supervision, "action": step.action}
    if step.logits is not None:
        entry["scores"] = [float(v) for v in step.logits]
    return canonical_json(entry)


def _eval_unit(payload):
    idx, env, ep, params, mcfg, t_max, agent, seed = payload
    if agent == "model":
        choose = greedy_policy
    elif agent == "oracle":
        choose = teacher_policy(ep)
    else:
        choose = random_policy(substream(seed, "random-agent", idx))
    with nn.no_tape():
        rec = rollout(env, ep, t_max, choose, params, mcfg, label=recovery_label)
    row = evaluate(EpisodeResult(env.graph, rec.route, ep.gt_path))
    return idx, row, [_trace_line(t, s) for t, s in enumerate(rec.steps)]


def cmd_eval(cfg: dict) -> None:
    env, episodes, gen_cfg = _load_split(cfg["data"], cfg["split"])
    mcfg = _model_config(cfg)
    agent = cfg["agent"]
    if cfg["t_max"] < 1 or cfg["jobs"] < 1:
        raise InvalidArgument("--t-max and --jobs must be >= 1")
    params = None
    if agent == "model":
        if not cfg["ckpt"]:
            raise InvalidArgument("--ckpt is required for the model agent")
        _guard_feature_dim(gen_cfg, mcfg)
        params = build_params(mcfg, 0)
        params.load_state(load_checkpoint(cfg["ckpt"]))
    out = _resolve_out(cfg["out"])
    h = archive_config(out, "eval", cfg)
    t_max = cfg["t_max"]
    payloads = [(i, env, ep, params, mcfg, t_max, agent, cfg["seed"])
                for i, ep in enumerate(episodes)]
    results = map_units(cfg["jobs"], _eval_unit, payloads)
    rows = {f"ep{idx:03d}": row for idx, row, _ in results}
    write_results_csv(out / "results.csv", rows, comment=f"config_hash={h}")
    summary = aggregate(rows.values())
    summary.update({"config_hash": h, "agent": agent, "split": cfg["split"]})
    write_json(out / "summary.json", summary)
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    for idx, _, lines in sorted(results):
        (traces / f"ep{idx:03d}.jsonl").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------- ablate


def cmd_ablate(cfg: dict) -> None:
    env, train_eps, gen_cfg = _load_split(cfg["data"], "train")
    _, eval_eps, _ = _load_split(cfg["data"], "val_seen")
    base = MODEL_PRESETS[cfg["model"]]
    _guard_feature_dim(gen_cfg, base)
    grid = check_grid(base, GRID_LABELS if cfg["grid"] == "all"
                      else cfg["grid"].split(","))
    if min(cfg["seeds"], cfg["timing_steps"], cfg["jobs"]) < 1:
        raise InvalidArgument("--seeds, --timing-steps and --jobs must be >= 1")
    tcfg = _train_config(cfg, _default_t_max(cfg, gen_cfg), cfg["iters"])
    train_data = [(env, ep) for ep in train_eps]
    check_routes(train_data, tcfg.t_max)
    out = _resolve_out(cfg["out"])
    h = archive_config(out, "ablate", cfg)
    rows, sidecar = run_ablation(
        train_data, [(env, ep) for ep in eval_eps], tcfg,
        base, seeds=range(cfg["seeds"]), grid=grid,
        min_timing_steps=cfg["timing_steps"], jobs=cfg["jobs"])
    write_ablation_csv(out / "ablation.csv", rows, comment=f"config_hash={h}")
    write_json(out / "ablation_seeds.json", {"config_hash": h, "cells": sidecar})


# ----------------------------------------------------------------- probe


def cmd_probe(cfg: dict) -> None:
    env, episodes, gen_cfg = _load_split(cfg["data"], "train")
    base = MODEL_PRESETS[cfg["model"]]
    _guard_feature_dim(gen_cfg, base)
    data = [(env, ep) for ep in episodes[:cfg["probe_episodes"]]]
    seeds = tuple(range(cfg["seeds"]))
    t_max = _default_t_max(cfg, gen_cfg)
    tcfg = _train_config(cfg, t_max, cfg["train_iters"])  # checks --lambda too
    if cfg["probe_episodes"] < 1:
        raise InvalidArgument("--probe-episodes must select at least one episode")
    check_routes(data, t_max)
    need = 2 if cfg["which"] in ("grad", "all") else 1  # the grad probe pairs seeds
    if len(seeds) < need:
        raise InvalidArgument(f"--which {cfg['which']} needs --seeds >= {need}")
    out = _resolve_out(cfg["out"])
    h = archive_config(out, "probe", cfg)
    probes = {}
    if cfg["which"] in ("grad", "all"):
        probes["grad"] = grad_probe(data, seeds, base, lam=cfg["lam"],
                                    t_max=t_max)
    if cfg["which"] in ("detail", "all"):
        probes["detail"] = detail_probe(data, seeds, base, tcfg)
    for name, probe in probes.items():
        probe["config_hash"] = h
        write_json(out / f"probe_{name}.json", probe)


# ------------------------------------------------------------- plumbing


def _flag(key: str) -> str:
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


def _path_keys(cmd: str) -> tuple:
    """The required flags naming where a run reads its data and writes."""
    return ("out",) if cmd == "gen" else ("data", "out")


def build_parser() -> argparse.ArgumentParser:
    sup = argparse.SUPPRESS
    p = argparse.ArgumentParser(
        prog="oikg",
        description="Synthetic navigation pipeline: generate worlds, train "
                    "the agent, evaluate, and run ablations/probes.")
    sub = p.add_subparsers(dest="cmd", required=True)
    for cmd, settings in DEFAULTS.items():
        s = sub.add_parser(cmd, help=COMMAND_HELP[cmd])
        for key in _path_keys(cmd):
            s.add_argument(_flag(key), required=True)
        s.add_argument("--config", default=sup)
        for key, default in settings.items():
            s.add_argument(_flag(key), dest=key, default=sup, type=type(default),
                           choices=CHOICES.get(key), help=SETTING_HELP.get(key))
    return p


def merge_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags.  A config-file field must
    name one of the command's flags and pass that flag's type and choice
    checks; an int given for a float setting becomes a float, as it would
    from the flag."""
    given = {k: v for k, v in vars(args).items() if k != "cmd"}
    merged = dict(DEFAULTS[args.cmd])
    cfg_path = given.pop("config", None)
    if cfg_path is not None:
        loaded = read_json(cfg_path)
        if not isinstance(loaded, dict):
            raise InvalidArgument(f"config file {cfg_path} is not a JSON object")
        kinds = dict.fromkeys(_path_keys(args.cmd), str) | {
            k: type(v) for k, v in DEFAULTS[args.cmd].items()}
        unknown = sorted(set(loaded) - set(kinds))
        if unknown:
            raise InvalidArgument(
                f"unknown config fields {unknown} for command {args.cmd!r}")
        for key, value in loaded.items():
            if not _has_type(value, kinds[key]):
                raise InvalidArgument(
                    f"config field {key!r} needs a value of type "
                    f"{kinds[key].__name__}, got {value!r}")
            if key in CHOICES and value not in CHOICES[key]:
                raise InvalidArgument(
                    f"invalid {key} {value!r}; choose from {CHOICES[key]}")
            merged[key] = kinds[key](value)
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
            InvalidState, OikgError, OSError) as err:
        print(f"oikg: data error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
