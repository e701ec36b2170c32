"""Command-line surface: files, exit codes, determinism."""

import contextlib
import json
import re
import shutil

import numpy as np
import pytest

from tape_ops import cue_masks
from test_analysis import FakePool
from test_model import record_calls
from test_training import state_dict

from oikg import analysis, artifacts, cli, training
from oikg.artifacts import canonical_json
from oikg.analysis import variant_config
from oikg.cli import main
from oikg.metrics import EpisodeResult  # noqa: F401  (re-export sanity)
from oikg.model import TINY_CONFIG, build_params
from oikg.navgraph import STOP, load_environment, path_length
from oikg.synthenv import BOS, episode_from_dict, vocab_table

GEN_ARGS = ["--nodes", "14", "--radius", "4.0", "--extent", "11.0",
            "--episodes", "4", "--val-episodes", "2", "--sigma", "0",
            "--seed", "7"]


# the command-line surface, pinned: each command's flags with the setting
# each one sets and the type its value parses to
PATH_FLAGS = {"--data": ("data", str), "--out": ("out", str),
              "--config": ("config", str)}
SURFACE = {
    "gen": {"--nodes": ("nodes", int), "--radius": ("radius", float),
            "--extent": ("extent", float), "--feature-dim": ("feature_dim", int),
            "--sigma": ("sigma", float), "--episodes": ("episodes", int),
            "--val-episodes": ("val_episodes", int), "--mode": ("mode", str),
            "--seed": ("seed", int)},
    "train": {"--iters": ("iters", int), "--lambda": ("lam", float),
              "--lr": ("lr", float), "--batch": ("batch", int),
              "--t-max": ("t_max", int), "--seed": ("seed", int),
              "--flags": ("flags", str), "--model": ("model", str),
              "--eval-every": ("eval_every", int)},
    "eval": {"--ckpt": ("ckpt", str), "--agent": ("agent", str),
             "--split": ("split", str), "--t-max": ("t_max", int),
             "--seed": ("seed", int), "--jobs": ("jobs", int)},
    "ablate": {"--iters": ("iters", int), "--seeds": ("seeds", int),
               "--t-max": ("t_max", int), "--batch": ("batch", int),
               "--lr": ("lr", float), "--lambda": ("lam", float),
               "--timing-steps": ("timing_steps", int),
               "--model": ("model", str), "--grid": ("grid", str),
               "--jobs": ("jobs", int)},
    "probe": {"--which": ("which", str), "--seeds": ("seeds", int),
              "--t-max": ("t_max", int), "--lambda": ("lam", float),
              "--train-iters": ("train_iters", int), "--lr": ("lr", float),
              "--batch": ("batch", int), "--model": ("model", str),
              "--probe-episodes": ("probe_episodes", int)},
}


def path_args(cmd):
    return ["--out", "o"] if cmd == "gen" else ["--data", "d", "--out", "o"]


def tree_hashes(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "d1"
    assert main(["gen", "--out", str(d)] + GEN_ARGS) == 0
    return d


@pytest.fixture(scope="module")
def default_data(tmp_path_factory):
    """`gen` at its defaults: 30 nodes, training routes of 4-5 nodes."""
    d = tmp_path_factory.mktemp("data") / "default"
    assert main(["gen", "--out", str(d)]) == 0
    return d


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory, data_dir):
    t = tmp_path_factory.mktemp("train") / "t1"
    assert main(["train", "--data", str(data_dir), "--out", str(t),
                 "--iters", "2", "--batch", "1", "--seed", "3"]) == 0
    return t


# -------------------------------------------------------------------- gen


def test_gen_outputs_and_rerun_identical(data_dir, tmp_path):
    names = {"config.json", "env.json", "env_unseen.json", "vocab.json",
             "episodes_train.json", "episodes_val_seen.json",
             "episodes_val_unseen.json"}
    assert {p.name for p in data_dir.iterdir()} == names
    again = tmp_path / "d2"
    assert main(["gen", "--out", str(again)] + GEN_ARGS) == 0
    assert tree_hashes(data_dir) == tree_hashes(again)
    cfg = json.loads((data_dir / "config.json").read_text())
    assert "config_hash" in cfg and cfg["command"] == "gen"
    train_eps = json.loads((data_dir / "episodes_train.json").read_text())
    assert len(train_eps["episodes"]) == 4


def test_gen_detour_inequality(tmp_path):
    d = tmp_path / "det"
    assert main(["gen", "--out", str(d), "--nodes", "14", "--radius", "4.0",
                 "--extent", "11.0", "--episodes", "3", "--val-episodes", "1",
                 "--mode", "detour", "--seed", "1"]) == 0
    g = load_environment(d / "env.json")
    eps = [episode_from_dict(e) for e in
           json.loads((d / "episodes_train.json").read_text())["episodes"]]
    for ep in eps:
        gt = ep.gt_path
        assert path_length(g, gt) >= g.geodesic(gt[0], gt[-1]) - 1e-9


def test_gen_usage_errors(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "x"), "--bogus"]) == 2
    assert main(["gen", "--out", str(tmp_path / "x"), "--mode", "spiral"]) == 2
    assert main(["gen"]) == 2  # --out required
    assert main(["spelunk"]) == 2  # unknown command
    for bad in (["--episodes", "-1"], ["--val-episodes", "-2"],
                ["--feature-dim", "3"], ["--sigma", "nan"], ["--sigma", "inf"],
                ["--extent", "inf"], ["--extent", "nan"], ["--radius", "nan"],
                ["--radius", "inf"]):
        out = tmp_path / "y"
        assert main(["gen", "--out", str(out)] + bad) == 2
        assert not out.exists()


def test_gen_unwritable_path(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert main(["gen", "--out", str(blocker / "sub")] + GEN_ARGS) == 3


def test_oikg_out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("OIKG_OUT", str(tmp_path))
    assert main(["gen", "--out", "rooted"] + GEN_ARGS) == 0
    assert (tmp_path / "rooted" / "env.json").exists()


# ------------------------------------------------------------------ train


def test_train_outputs(ckpt_dir):
    assert (ckpt_dir / "params.ckpt").exists()
    log = (ckpt_dir / "train_log.csv").read_text().strip().split("\n")
    cfg = json.loads((ckpt_dir / "config.json").read_text())
    assert log[0] == f"# config_hash={cfg['config_hash']}"
    assert log[1].startswith("iteration,tf_loss,sf_loss,")
    assert len(log) == 4  # comment + header + 2 iterations


def test_train_zero_iters_keeps_init(data_dir, tmp_path):
    out = tmp_path / "t0"
    assert main(["train", "--data", str(data_dir), "--out", str(out),
                 "--iters", "0", "--seed", "5"]) == 0
    header, saved = artifacts.load_checkpoint(out / "params.ckpt", cli.CKPT_KEYS)
    cfg = json.loads((out / "config.json").read_text())
    assert {k: header[k] for k in cli.CKPT_KEYS} == {k: cfg[k] for k in cli.CKPT_KEYS}
    init = state_dict(build_params(TINY_CONFIG, 5))
    assert set(saved) == set(init)
    assert all(np.array_equal(saved[k], init[k]) for k in init)


def test_train_missing_data(tmp_path):
    out = tmp_path / "o"
    assert main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(out)]) == 3
    assert not out.exists()


def test_train_bad_lambda(data_dir, tmp_path):
    out = tmp_path / "o"
    assert main(["train", "--data", str(data_dir),
                 "--out", str(out), "--lambda", "1.5"]) == 2
    assert not out.exists()


def test_train_numeric_failure_leaves_config_beside_abort(data_dir, tmp_path,
                                                          capsys):
    """A diverging run exits 4 and leaves its pre-step parameters in
    abort.ckpt beside the config.json that produced them, and nothing else."""
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--data", str(data_dir), "--out", str(out),
                     "--lr", "1e100"]) == 4
    assert "numeric failure" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["abort.ckpt", "config.json"]
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["command"] == "train" and cfg["lr"] == 1e100
    header, state = artifacts.load_checkpoint(out / "abort.ckpt", cli.CKPT_KEYS)
    assert header["config_hash"] == cfg["config_hash"]
    assert all(np.all(np.isfinite(a)) for a in state.values())


def test_eval_accepts_an_abort_checkpoint(data_dir, tmp_path):
    """abort.ckpt carries the same header as params.ckpt, so eval builds
    the model a diverging run stopped at (here MG--) and loads it.  Its
    finite but huge weights overflow the scores, so eval exits 4 at that
    step and writes no NaN into any file."""
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--data", str(data_dir), "--out", str(out),
                     "--lr", "1e100", "--flags", "MED,GE"]) == 4
        ev = tmp_path / "e"
        assert main(["eval", "--data", str(data_dir), "--out", str(ev),
                     "--ckpt", str(out / "abort.ckpt")]) == 4
    cfg = json.loads((ev / "config.json").read_text())
    train_cfg = json.loads((out / "config.json").read_text())
    assert cfg["ckpt_config_hash"] == train_cfg["config_hash"]
    assert not any(b"NaN" in p.read_bytes() for p in ev.rglob("*") if p.is_file())


def test_config_file_merge_and_override(data_dir, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"iters": 3, "batch": 1}))
    out1 = tmp_path / "o1"
    assert main(["train", "--data", str(data_dir), "--out", str(out1),
                 "--config", str(cfg)]) == 0
    rows = (out1 / "train_log.csv").read_text().strip().split("\n")
    assert len(rows) == 2 + 3  # comment + header + iters from config file
    out2 = tmp_path / "o2"
    assert main(["train", "--data", str(data_dir), "--out", str(out2),
                 "--config", str(cfg), "--iters", "1"]) == 0
    rows = (out2 / "train_log.csv").read_text().strip().split("\n")
    assert len(rows) == 2 + 1  # explicit flag wins
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"iters": 1, "warp_drive": True}))
    assert main(["train", "--data", str(data_dir),
                 "--out", str(tmp_path / "o3"), "--config", str(bad)]) == 2


@pytest.mark.parametrize("cmd", sorted(SURFACE))
def test_cli_surface_is_pinned(cmd, capsys):
    flags = dict(PATH_FLAGS, **SURFACE[cmd])
    if cmd == "gen":
        del flags["--data"]
    assert main([cmd, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed - {"--help"} == set(flags)
    parser = cli.build_parser()
    for flag, (dest, kind) in flags.items():
        if flag in PATH_FLAGS:
            argv, want = [flag, "p"], "p"
        else:
            want = cli.DEFAULTS[cmd][dest]
            argv = [flag, str(want)]
        given = vars(parser.parse_args([cmd] + path_args(cmd) + argv))
        assert type(given[dest]) is kind and given[dest] == want
    assert {dest: kind for dest, kind in SURFACE[cmd].values()} == {
        key: type(default) for key, default in cli.DEFAULTS[cmd].items()}


def _other_values(cmd, key):
    """Values of a setting other than its default, of the setting's own
    type; an int where the setting is a float."""
    default = cli.DEFAULTS[cmd][key]
    if key in cli.CHOICES:
        return [v for v in cli.CHOICES[key] if v != default]
    if isinstance(default, str):
        return ["x" + default]
    if isinstance(default, float):
        return [default + 1.5, 2]
    return [default + 3]


@pytest.mark.parametrize("cmd, key", [(cmd, key) for cmd in cli.DEFAULTS
                                      for key in cli.DEFAULTS[cmd]])
def test_flag_and_config_file_merge_alike(tmp_path, cmd, key):
    parser = cli.build_parser()
    cfg = tmp_path / "c.json"
    flag, = (f for f, (dest, _) in SURFACE[cmd].items() if dest == key)
    for value in _other_values(cmd, key):
        by_flag = cli.merge_config(parser.parse_args(
            [cmd] + path_args(cmd) + [flag, str(value)]))
        cfg.write_text(json.dumps({key: value}))
        by_file = cli.merge_config(parser.parse_args(
            [cmd] + path_args(cmd) + ["--config", str(cfg)]))
        assert by_flag[key] == value and by_flag[key] != cli.DEFAULTS[cmd][key]
        assert canonical_json(by_file) == canonical_json(by_flag)


@pytest.mark.parametrize("argv", [
    ["gen", "--seed", str(2 ** 64)], ["gen", "--seed", "-5"],
    ["train", "--iters", "1", "--seed", "-1"],
    ["eval", "--agent", "random", "--seed", str(2 ** 64)],
], ids=["gen_2_64", "gen_negative", "train_negative", "eval_2_64"])
def test_seed_flag_outside_64_bits_rejected_before_out(data_dir, tmp_path, argv):
    """A root seed outside [0, 2**64) is a usage error, not folded into that
    range: `gen --seed 2**64` would otherwise write `--seed 0`'s world."""
    out = tmp_path / "o"
    data = [] if argv[0] == "gen" else ["--data", str(data_dir)]
    assert main(argv[:1] + data + ["--out", str(out)] + argv[1:]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, content", [
    (["eval"], {"agent": "oracel"}),
    (["probe"], {"which": "grads"}),
    (["train"], {"model": "huge"}),
    (["train"], ["iters"]),
    (["train"], {"iters": "3"}),
    (["train"], {"batch": 1.5}),
    (["train"], {"lr": True}),
    (["train"], {"iters": True}),
    (["train"], {"ckpt": "x"}),
    (["train"], {"lr": 10 ** 400}),
    (["train", "--iters", "1"], {"seed": -1}),
    (["eval", "--agent", "random"], {"seed": 2 ** 64}),
], ids=["agent", "which", "model", "not_an_object", "str_for_int",
        "float_for_int", "bool_for_float", "bool_for_int", "flag_of_another_command",
        "int_too_large_for_float", "seed_negative", "seed_2_64"])
def test_config_file_values_are_checked_like_flags(data_dir, tmp_path, argv,
                                                   content):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(content))
    out = tmp_path / "o"
    assert main(argv[:1] + ["--data", str(data_dir), "--out", str(out),
                            "--config", str(cfg)] + argv[1:]) == 2
    assert not out.exists()


def test_bare_key_error_is_not_a_data_error(monkeypatch, tmp_path):
    def buggy(cfg):
        raise KeyError("not a data key")

    monkeypatch.setitem(cli._HANDLERS, "gen", buggy)
    with pytest.raises(KeyError):
        main(["gen", "--out", str(tmp_path / "g")])


@pytest.fixture
def edited_copy(tmp_path):
    """`edited_copy(data_dir, name, edit)`: a copy of a data directory in
    which `edit(record)` has changed the JSON file `name` in place."""
    def make(data_dir, name, edit):
        copy = tmp_path / "data"
        shutil.copytree(data_dir, copy)
        record = json.loads((copy / name).read_text())
        edit(record)
        (copy / name).write_text(json.dumps(record))
        return copy
    return make


@pytest.mark.parametrize("name, key", [
    ("config.json", "latent_seed_seen"),
    ("episodes_val_seen.json", "episodes"),
])
def test_data_file_missing_key_is_a_data_error(data_dir, edited_copy, tmp_path,
                                               capsys, name, key):
    copy = edited_copy(data_dir, name, lambda record: record.pop(key))
    assert main(["eval", "--data", str(copy), "--out", str(tmp_path / "e"),
                 "--agent", "oracle"]) == 3
    assert repr(key) in capsys.readouterr().err


def _edit_episodes(record):
    record["episodes"] = 5


def _edit_edge(record):
    record["edges"][0] = [0, "x"]


def _edit_feature_dim(record):
    record["feature_dim"] = "x"


def _edit_sigma(record):
    record["sigma"] = 10 ** 400   # an int no float can hold


def _string_tokens(record):
    ep = record["episodes"][0]
    ep["tokens"] = [str(t) for t in ep["tokens"]]


def _true_token(record):
    record["episodes"][0]["tokens"][1] = True


def _float_route_entry(record):
    record["episodes"][0]["gt_path"][-1] += 0.5   # int() would truncate it back


def _old_format(record):
    """Every episode as the older format wrote it: its start, text and cue
    masks beside the route and the tokens."""
    words = [row["word"] for row in vocab_table()]
    for ep in record["episodes"]:
        loc, obj = cue_masks(ep["tokens"])
        ep.update(start=ep["gt_path"][0], loc_mask=loc, obj_mask=obj,
                  text=" ".join(words[t] for t in ep["tokens"][1:-1]))


def _bos_cue(record):
    """The older format, with the first episode's location mask flagging
    only its <bos> token."""
    _old_format(record)
    ep = record["episodes"][0]
    ep["loc_mask"] = [t == BOS for t in ep["tokens"]]


def _empty_tokens(record):
    record["episodes"][0]["tokens"] = []


# an episode entry the schema rejects whatever its values' types: an edit,
# and the fault the error names
EPISODE_FAULTS = [(_old_format, "episode 0: episode: unknown key 'loc_mask'"),
                  (_bos_cue, "episode 0: episode: unknown key 'loc_mask'"),
                  (_empty_tokens, "episode 0: tokens must be non-empty")]


def _string_endpoint(record):
    record["edges"][0][1] = str(record["edges"][0][1])


def _float_endpoint(record):
    record["edges"][0][1] += 0.5   # int() would truncate it back


def _half_room(record):
    record["nodes"][0]["room"] += 0.5


def _room_99(record):
    record["nodes"][0]["room"] = 99


def _room_minus_1(record):
    record["nodes"][0]["room"] = -1


def _huge_coordinate(record):
    record["nodes"][0]["pos"][0] = 10 ** 400   # an int no float can hold


@pytest.mark.parametrize("name, edit, entry", [
    ("episodes_val_seen.json", _edit_episodes, "'episodes'"),
    ("env.json", _edit_edge, "edge entry at index 0"),
    ("config.json", _edit_feature_dim, "'feature_dim'"),
    ("config.json", _edit_sigma, "'sigma'"),
    ("episodes_val_seen.json", _string_tokens, "episode 0: episode: key 'tokens'"),
    ("episodes_val_seen.json", _true_token, "episode 0: episode: key 'tokens'"),
    ("episodes_val_seen.json", _float_route_entry, "episode 0: episode: key 'gt_path'"),
    *(("episodes_val_seen.json", edit, entry) for edit, entry in EPISODE_FAULTS),
    ("env.json", _string_endpoint, "edge entry at index 0"),
    ("env.json", _float_endpoint, "edge entry at index 0"),
    ("env.json", _half_room, "node entry at index 0: key 'room'"),
    ("env.json", _room_99, "node 0: room 99"),
    ("env.json", _room_minus_1, "node 0: room -1"),
    ("env.json", _huge_coordinate, "node entry at index 0: key 'pos'"),
])
def test_data_file_wrong_value_type_is_a_data_error(data_dir, edited_copy, tmp_path,
                                                    capsys, name, edit, entry):
    """A data file value of the wrong JSON type, a room outside the room
    one-hot, or an episode entry with a key beside its route and tokens or
    with no tokens, is a data error naming the file and the entry, found
    before --out is created."""
    copy = edited_copy(data_dir, name, edit)
    out = tmp_path / "e"
    assert main(["eval", "--data", str(copy), "--out", str(out),
                 "--agent", "oracle"]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert name in err and entry in err


@pytest.mark.parametrize("argv", [["train", "--iters", "1"], ["eval", "--agent", "oracle"]],
                         ids=["train", "eval_oracle"])
@pytest.mark.parametrize("key, value", [
    ("sigma", -1), ("sigma", float("nan")), ("feature_dim", 5), ("mode", "foo"),
    ("latent_seed_seen", -1), ("latent_seed_unseen", 2 ** 64)],
    ids=["sigma_negative", "sigma_nan", "feature_dim_5", "mode_foo",
         "latent_seed_seen_negative", "latent_seed_unseen_2_64"])
def test_data_config_value_out_of_range_rejected_before_out(data_dir, edited_copy,
                                                           tmp_path, capsys,
                                                           argv, key, value):
    """A `gen` config.json value of the right type but outside its range is
    a data error, found before --out is created."""
    copy = edited_copy(data_dir, "config.json",
                       lambda record: record.update({key: value}))
    out = tmp_path / "o"
    assert main(argv[:1] + ["--data", str(copy), "--out", str(out)] + argv[1:]) == 3
    assert not out.exists()
    assert "config.json" in capsys.readouterr().err


def _unknown_node(route, graph):
    return route[:-1] + [999]


def _unknown_start(route, graph):
    return [999] + route[1:]


def _non_edge_hop(route, graph):
    start = route[0]
    far = min(n for n in graph.node_ids()
              if n != start and not graph.has_edge(start, n))
    return [start, far]


def _revisit(route, graph):
    return route + [route[-2]]   # back along the last hop


@pytest.mark.parametrize("argv, split", [
    (["train", "--iters", "1"], "train"),
    (["eval", "--agent", "oracle"], "val_seen"),
    (["eval", "--agent", "oracle", "--split", "val_unseen"], "val_unseen"),
], ids=["train", "eval", "eval_unseen"])
@pytest.mark.parametrize("edit", [_unknown_node, _unknown_start, _non_edge_hop,
                                  _revisit],
                         ids=["unknown_node", "unknown_start", "non_edge_hop",
                              "revisit"])
def test_episode_route_off_its_graph_rejected_before_out(data_dir, edited_copy,
                                                         tmp_path, capsys,
                                                         argv, split, edit):
    """Every episode's route is checked against its split's graph, and for
    a node it visits twice, before --out is created, whichever episodes a
    run would draw."""
    graph = load_environment(data_dir / ("env_unseen.json" if split == "val_unseen"
                                         else "env.json"))
    name = f"episodes_{split}.json"
    last = len(json.loads((data_dir / name).read_text())["episodes"]) - 1

    def edit_last(record):
        ep = record["episodes"][last]
        ep["gt_path"] = edit(ep["gt_path"], graph)

    copy = edited_copy(data_dir, name, edit_last)
    out = tmp_path / "o"
    assert main(argv[:1] + ["--data", str(copy), "--out", str(out)] + argv[1:]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert name in err and f"episode {last}" in err


@pytest.mark.parametrize("argv, split", [
    (["train", "--iters", "1"], "train"),
    (["eval", "--agent", "model"], "val_seen"),
], ids=["train", "eval_model"])
@pytest.mark.parametrize("edit, entry", EPISODE_FAULTS,
                         ids=["old_format", "bos_cue", "empty_tokens"])
def test_episode_entry_fault_rejected_before_out(data_dir, ckpt_dir, edited_copy,
                                                 tmp_path, capsys, argv, split,
                                                 edit, entry):
    """The episode faults that oracle eval rejects
    (``test_data_file_wrong_value_type_is_a_data_error``) stop training and
    model eval too, before --out is created: the model never reads a cue
    that the tokens do not carry, nor an empty instruction."""
    name = f"episodes_{split}.json"
    copy = edited_copy(data_dir, name, edit)
    out = tmp_path / "o"
    ckpt = ["--ckpt", str(ckpt_dir / "params.ckpt")] if argv[0] == "eval" else []
    assert main(argv[:1] + ["--data", str(copy), "--out", str(out)] + argv[1:] + ckpt) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert name in err and entry in err


# ------------------------------------------------------------------- eval


def test_eval_oracle_upper_bound(data_dir, tmp_path):
    out = tmp_path / "e"
    assert main(["eval", "--data", str(data_dir), "--out", str(out),
                 "--agent", "oracle"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["SR"] == 1.0 and summary["SPL"] == 1.0
    assert summary["nDTW"] == 1.0
    assert summary["display"]["SR"] == "100.00"
    assert summary["config_hash"]
    csv_text = (out / "results.csv").read_text()
    assert csv_text.startswith(f"# config_hash={summary['config_hash']}\n")


def test_eval_random_reproducible(data_dir, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["eval", "--data", str(data_dir), "--out", str(out),
                     "--agent", "random", "--seed", "4"]) == 0
        outs.append(out)
    assert tree_hashes(outs[0]) == tree_hashes(outs[1])


def test_eval_jobs_invariant(data_dir, ckpt_dir, tmp_path):
    outs = []
    for name, jobs in (("j1", "1"), ("j2", "2")):
        out = tmp_path / name
        assert main(["eval", "--data", str(data_dir), "--out", str(out),
                     "--ckpt", str(ckpt_dir / "params.ckpt"),
                     "--jobs", jobs]) == 0
        outs.append(out)
    assert tree_hashes(outs[0]) == tree_hashes(outs[1])


def test_jobs_start_at_most_one_worker_per_unit(data_dir, tmp_path, monkeypatch):
    """A ``--jobs`` far above the unit count asks the pool for one worker
    per episode or grid cell; the fake pool starts none."""
    monkeypatch.setattr(FakePool, "started", [])
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", FakePool)
    assert main(["eval", "--data", str(data_dir), "--out", str(tmp_path / "e"),
                 "--agent", "oracle", "--jobs", "64"]) == 0
    assert main(["ablate", "--data", str(data_dir), "--out", str(tmp_path / "a"),
                 "--iters", "1", "--seeds", "1", "--batch", "1",
                 "--timing-steps", "3", "--grid=----,MGLO", "--jobs", "64"]) == 0
    assert FakePool.started == [2, 2]


def test_eval_traces_structure(data_dir, ckpt_dir, tmp_path):
    out = tmp_path / "tr"
    assert main(["eval", "--data", str(data_dir), "--out", str(out),
                 "--ckpt", str(ckpt_dir / "params.ckpt"),
                 "--split", "val_unseen"]) == 0
    files = sorted((out / "traces").iterdir())
    assert [f.name for f in files] == ["ep000.jsonl", "ep001.jsonl"]
    lines = [json.loads(s) for s in files[0].read_text().splitlines()]
    for t, entry in enumerate(lines):
        assert entry["t"] == t
        assert entry["action"] in entry["frontier"] + [STOP]
        assert entry["pseudo_label"] in entry["frontier"] + [STOP]
        assert len(entry["scores"]) == len(entry["frontier"]) + 1


def test_eval_requires_ckpt(data_dir, tmp_path):
    out = tmp_path / "e"
    assert main(["eval", "--data", str(data_dir), "--out", str(out)]) == 2
    assert not out.exists()


def forge_checkpoint(path, store, header):
    """A checkpoint of ``store`` under ``header``'s model and flags."""
    artifacts.save_checkpoint(path, store, {"config_hash": "0" * 16, **header})
    return path


def test_eval_incompatible_checkpoint(data_dir, ckpt_dir, tmp_path, capsys):
    """The model comes from the checkpoint alone: eval takes no --flags or
    --model, and a header that disagrees with its blocks, or names no
    known preset or flag set, is a data error before --out exists."""
    ckpt = ["--ckpt", str(ckpt_dir / "params.ckpt")]
    for flag, value in (("--flags", "MED,GE"), ("--model", "full")):
        assert main(["eval", "--data", str(data_dir), "--out", str(tmp_path / "e"),
                     flag, value] + ckpt) == 2
        assert not (tmp_path / "e").exists()
    tiny = build_params(TINY_CONFIG, 0)   # MGLO blocks
    full = build_params(cli.MODEL_PRESETS["full"], 0)
    for name, store, header, err in (
            ("mg", tiny, {"model": "tiny", "flags": "MED,GE"}, "parameter name mismatch"),
            ("full", tiny, {"model": "full", "flags": "MED,GE,LD,OD"}, "mismatch"),
            # blocks and header agree, but not with the data's feature dim
            ("full_model", full, {"model": "full", "flags": "MED,GE,LD,OD"},
             "shape mismatch for 'obs.vis.w'"),
            ("huge", tiny, {"model": "huge", "flags": "MED,GE,LD,OD"}, "'huge'"),
            ("label", tiny, {"model": "tiny", "flags": "MG--"}, "unknown flags")):
        out = tmp_path / name
        bad = forge_checkpoint(tmp_path / f"{name}.ckpt", store, header)
        assert main(["eval", "--data", str(data_dir), "--out", str(out),
                     "--ckpt", str(bad)]) == 3
        assert err in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def wide_data(tmp_path_factory):
    """The GEN_ARGS worlds with 32-wide panoramas in place of 10."""
    d = tmp_path_factory.mktemp("data") / "wide"
    assert main(["gen", "--out", str(d), "--feature-dim", "32"] + GEN_ARGS) == 0
    return d


@pytest.mark.parametrize("flags, block, shape", [
    ("MED,GE,LD,OD", "obs.vis.w", (10, 32)),
    ("GE,LD,OD", "obs.coupled.w", (4 + 10, 32)),
], ids=["decoupled", "coupled"])
def test_full_model_reads_the_data_width(data_dir, wide_data, tmp_path, capsys,
                                         flags, block, shape):
    """The full preset trains on 10-wide data, its visual block as wide as
    the panoramas; its checkpoint on 32-wide data is a data error naming
    that block, raised before --out exists."""
    run = tmp_path / "t"
    assert main(["train", "--data", str(data_dir), "--out", str(run),
                 "--model", "full", "--flags", flags, "--iters", "1"]) == 0
    _, state = artifacts.load_checkpoint(run / "params.ckpt", cli.CKPT_KEYS)
    assert state[block].shape == shape
    out = tmp_path / "e"
    assert main(["eval", "--data", str(wide_data), "--out", str(out),
                 "--ckpt", str(run / "params.ckpt")]) == 3
    assert f"shape mismatch for '{block}'" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_and_probe_full_model_on_narrow_data(data_dir, tmp_path):
    """ablate and probe build the full preset at the data's 10-wide panoramas."""
    assert main(["ablate", "--data", str(data_dir), "--out", str(tmp_path / "a"),
                 "--model", "full", "--grid=MGLO", "--seeds", "1", "--iters", "1",
                 "--timing-steps", "1"]) == 0
    assert main(["probe", "--data", str(data_dir), "--out", str(tmp_path / "p"),
                 "--model", "full", "--which", "grad", "--seeds", "2",
                 "--probe-episodes", "1"]) == 0


def test_eval_hash_names_its_checkpoint(data_dir, ckpt_dir, tmp_path):
    """Two evals alike but for their checkpoints, from two train runs,
    archive different config hashes, each recording its run's hash."""
    other = tmp_path / "t2"
    assert main(["train", "--data", str(data_dir), "--out", str(other),
                 "--iters", "2", "--batch", "1", "--seed", "4"]) == 0
    hashes = []
    for run in (ckpt_dir, other):
        out = tmp_path / f"e_{run.name}"
        assert main(["eval", "--data", str(data_dir), "--out", str(out),
                     "--ckpt", str(run / "params.ckpt")]) == 0
        cfg = json.loads((out / "config.json").read_text())
        train_cfg = json.loads((run / "config.json").read_text())
        assert cfg["ckpt_config_hash"] == train_cfg["config_hash"]
        assert json.loads((out / "summary.json").read_text())["config_hash"] == \
            cfg["config_hash"]
        hashes.append(cfg["config_hash"])
    assert hashes[0] != hashes[1]


def test_eval_rejects_checkpoint_with_enhance_query_key(data_dir, ckpt_dir,
                                                       tmp_path, capsys):
    # checkpoints from before the single-key reduction carry enh.wq/enh.wk
    header, state = artifacts.load_checkpoint(ckpt_dir / "params.ckpt", cli.CKPT_KEYS)
    store = build_params(TINY_CONFIG, 0)
    store.load_state(state)
    store.add("enh.wq", np.zeros((TINY_CONFIG.dim, TINY_CONFIG.dim)))
    store.add("enh.wk", np.zeros((TINY_CONFIG.dim, TINY_CONFIG.dim)))
    old = forge_checkpoint(tmp_path / "old.ckpt", store, header)
    assert main(["eval", "--data", str(data_dir), "--out", str(tmp_path / "e"),
                 "--ckpt", str(old)]) == 3
    assert "extra ['enh.wk', 'enh.wq']" in capsys.readouterr().err


@pytest.mark.parametrize("flags, label, dead", [("MED,GE,LD", "MGL-", "kd.obj.w"),
                                               ("OD", "---O", "kd.loc.w")])
def test_eval_rejects_one_cue_checkpoint_with_disabled_cue_weight(
        data_dir, tmp_path, capsys, flags, label, dead):
    # one-cue checkpoints from before the disabled cue's weight was dropped
    # carry that weight, which never learned
    store = build_params(variant_config(TINY_CONFIG, label), 0)
    store.add(dead, np.zeros((TINY_CONFIG.dim, TINY_CONFIG.dim)))
    old = forge_checkpoint(tmp_path / "old.ckpt", store,
                           {"model": "tiny", "flags": flags})
    assert main(["eval", "--data", str(data_dir), "--out", str(tmp_path / "e"),
                 "--ckpt", str(old)]) == 3
    assert f"extra ['{dead}']" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_eval_rejects_non_finite_checkpoint_before_out(data_dir, ckpt_dir, tmp_path,
                                                       capsys, bad):
    """A checkpoint holding a NaN or an infinity is a data error naming its
    block, raised before --out exists; it once ran and wrote traces whose
    NaN scores are not JSON."""
    header, state = artifacts.load_checkpoint(ckpt_dir / "params.ckpt", cli.CKPT_KEYS)
    store = build_params(TINY_CONFIG, 0)
    store.load_state(state)
    store["sel.mlp.w1"].data[1, 2] = bad
    ckpt = forge_checkpoint(tmp_path / "bad.ckpt", store, header)
    out = tmp_path / "e"
    assert main(["eval", "--data", str(data_dir), "--out", str(out),
                 "--ckpt", str(ckpt)]) == 3
    assert "'sel.mlp.w1'" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------- artifacts


class WriteFailure(Exception):
    pass


def rows_failing_after(n):
    for i in range(n):
        yield [str(i), "x" * 4096]
    raise WriteFailure("cut part-way")


class HalfStore:
    """A store whose second parameter cannot be read: a checkpoint write
    fails after its magic, before its header."""
    def __init__(self):
        self.params = {"a": build_params(TINY_CONFIG, 0)["sel.mlp.w1"]}

    def names(self):
        return ["a", "b"]


FAILING_WRITERS = {
    "csv": (lambda p: artifacts.write_csv(p, ["i", "pad"], rows_failing_after(50),
                                          comment="c"), WriteFailure),
    "checkpoint": (lambda p: artifacts.save_checkpoint(p, HalfStore(), {}), KeyError),
    # a lone surrogate cannot be encoded, after 64 kB of text that can
    "text": (lambda p: artifacts.write_text(p, "x" * 65536 + "\ud800"),
             UnicodeEncodeError),
    "json": (lambda p: artifacts.write_json(p, {"ok": 1, "not JSON": object()}),
             TypeError),
}


@pytest.mark.parametrize("writer", sorted(FAILING_WRITERS))
@pytest.mark.parametrize("previous", [None, b"previous artifact\n"],
                         ids=["no-file", "previous-file"])
def test_failed_write_leaves_previous_file_or_none(tmp_path, writer, previous):
    """A writer that fails part-way leaves the artifact's previous bytes, or
    no file, never a prefix, and no temporary file beside it."""
    write, error = FAILING_WRITERS[writer]
    path = tmp_path / "artifact"
    if previous is not None:
        path.write_bytes(previous)
    with pytest.raises(error):
        write(path)
    if previous is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == previous


# ------------------------------------------------------------ ablate/probe


def test_ablate_subset_grid(data_dir, tmp_path):
    out = tmp_path / "a"
    assert main(["ablate", "--data", str(data_dir), "--out", str(out),
                 "--iters", "1", "--seeds", "1", "--batch", "1",
                 "--timing-steps", "3", "--grid=M---,MGLO"]) == 0
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert lines[1] == "variant,MED,GE,LD,OD,TL,NE,SR,SPL,failed"
    assert lines[2].startswith("M---,1,0,0,0,")
    assert lines[3].startswith("MGLO,1,1,1,1,")
    sidecar = json.loads((out / "ablation_seeds.json").read_text())
    assert set(sidecar["cells"]) == {"M---", "MGLO"}
    assert set(sidecar["cells"]["MGLO"]["0"]) == {"TL", "NE", "SR", "SPL"}


def test_ablate_loads_the_seen_world_once(data_dir, tmp_path, monkeypatch):
    """`ablate` reads env.json and draws the world's latents once: its
    train and val_seen episodes run in one bundle, sharing its caches."""
    loads = record_calls(monkeypatch, cli, "load_environment")
    draws = record_calls(monkeypatch, cli, "make_latents")
    runs = record_calls(monkeypatch, cli, "run_ablation")
    assert main(["ablate", "--data", str(data_dir), "--out", str(tmp_path / "a"),
                 "--iters", "1", "--seeds", "1", "--batch", "1",
                 "--timing-steps", "3", "--grid=MGLO"]) == 0
    assert len(loads) == len(draws) == 1
    (args, _), = runs
    train_data, eval_data = args[:2]
    assert eval_data and {id(env) for env, _ in train_data + eval_data} == \
        {id(train_data[0][0])}
    assert train_data[0][0].graph is loads[0][1]


def ablate_run(data_dir, out, jobs, *extra):
    """A two-cell `ablate` into ``out``; its files' bytes by relative path,
    its timing.json apart."""
    assert main(["ablate", "--data", str(data_dir), "--out", str(out),
                 "--iters", "1", "--seeds", "2", "--batch", "1",
                 "--timing-steps", "3", "--grid=----,MGLO", "--jobs", jobs,
                 *extra]) == 0
    files = tree_hashes(out)
    assert set(files) == {"ablation.csv", "ablation_seeds.json", "config.json",
                          "timing.json"}
    return {name: data for name, data in files.items() if name != "timing.json"}


def test_ablate_jobs_invariant(data_dir, tmp_path):
    assert (ablate_run(data_dir, tmp_path / "j1", "1")
            == ablate_run(data_dir, tmp_path / "j2", "2"))


def test_ablate_rerun_identical(data_dir, tmp_path):
    assert (ablate_run(data_dir, tmp_path / "a", "1")
            == ablate_run(data_dir, tmp_path / "b", "1"))


@pytest.mark.parametrize("lr", ["3e-3", "1e200"], ids=["trained", "diverged"])
def test_ablate_timing_sidecar(data_dir, tmp_path, lr):
    """timing.json maps each grid label to its ms per greedy step, a finite
    positive float, or null for a failed cell, under the run's hash."""
    out = tmp_path / "a"
    failed = lr == "1e200"
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.warns(UserWarning, match="diverged") if failed \
            else contextlib.nullcontext():
        ablate_run(data_dir, out, "1", "--lr", lr)
    timing = json.loads((out / "timing.json").read_text())
    assert timing["config_hash"] == json.loads(
        (out / "config.json").read_text())["config_hash"]
    assert list(timing) == ["config_hash", "step_ms"]
    assert list(timing["step_ms"]) == ["----", "MGLO"]
    for ms in timing["step_ms"].values():
        if failed:
            assert ms is None
        else:
            assert isinstance(ms, float) and 0.0 < ms < float("inf")


@pytest.mark.parametrize("argv", [
    *(["train", "--iters", "1", "--t-max", "4", "--seed", str(seed)]
      for seed in range(6)),
    ["ablate", "--iters", "1", "--seeds", "1", "--t-max", "4",
     "--timing-steps", "3", "--grid", "MGLO"],
    ["probe", "--which", "detail", "--seeds", "1", "--t-max", "3"],
], ids=[*(f"train_seed{seed}" for seed in range(6)), "ablate", "probe"])
def test_route_longer_than_t_max_rejected_before_out(default_data, tmp_path,
                                                     argv):
    """Every reference route is checked, whichever episodes a seed draws."""
    out = tmp_path / "o"
    assert main(argv[:1] + ["--data", str(default_data), "--out", str(out)]
                + argv[1:]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["ablate", "--seeds", "0"],
    ["ablate", "--timing-steps", "0", "--iters", "1", "--seeds", "1",
     "--grid", "MGLO"],
    ["eval", "--agent", "oracle", "--t-max", "0"],
    ["eval", "--agent", "oracle", "--t-max", "-3"],
    ["train", "--iters", "1", "--t-max", "-1"],
    ["eval", "--agent", "oracle", "--jobs", "0"],
    ["ablate", "--jobs", "0", "--iters", "1", "--seeds", "1", "--grid", "MGLO"],
    ["train", "--iters", "1", "--lr", "nan"],
    ["train", "--iters", "1", "--lr", "inf"],
    ["ablate", "--iters", "1", "--seeds", "1", "--grid", "MGLO", "--lr", "nan"],
    ["probe", "--train-iters", "2", "--lr", "inf"],
    ["ablate", "--iters", "1", "--seeds", "1", "--grid=MG--,MG--"],
    ["ablate", "--iters", "1", "--seeds", "1", "--grid=----,MGLO,----"],
], ids=["ablate_no_seeds", "ablate_no_timing_steps", "eval_t_max_0",
        "eval_t_max_negative", "train_t_max_negative", "eval_jobs_0",
        "ablate_jobs_0", "train_lr_nan", "train_lr_inf", "ablate_lr_nan",
        "probe_lr_inf", "ablate_grid_repeats", "ablate_grid_repeats_apart"])
def test_settings_rejected_before_out(data_dir, tmp_path, argv):
    out = tmp_path / "o"
    assert main(argv[:1] + ["--data", str(data_dir), "--out", str(out)]
                + argv[1:]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, empty", [
    (["train", "--iters", "1"], "train"),
    (["ablate", "--iters", "1", "--seeds", "1", "--grid", "MGLO"], "train"),
    (["ablate", "--iters", "1", "--seeds", "1", "--grid", "MGLO"], "val_seen"),
    (["eval", "--agent", "oracle"], "val_seen"),
], ids=["train", "ablate_empty_train", "ablate_empty_val_seen", "eval"])
def test_empty_split_rejected_before_out(data_dir, tmp_path, argv, empty):
    """An episode split with no episodes is a usage error, found before
    --out is created: the train split of `gen --episodes 0`, or a val_seen
    split whose episode list is empty."""
    data = tmp_path / "d"
    if empty == "train":
        assert main(["gen", "--out", str(data)] + GEN_ARGS + ["--episodes", "0"]) == 0
    else:
        shutil.copytree(data_dir, data)
        (data / "episodes_val_seen.json").write_text('{"episodes":[]}\n')
    out = tmp_path / "o"
    assert main(argv[:1] + ["--data", str(data), "--out", str(out)] + argv[1:]) == 2
    assert not out.exists()


def test_ablate_bad_grid_label(data_dir, tmp_path):
    out = tmp_path / "a"
    assert main(["ablate", "--data", str(data_dir),
                 "--out", str(out), "--grid", "XYZW"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("bad", [["--seeds", "1"], ["--probe-episodes", "0"],
                                 ["--probe-episodes", "-1"], ["--lambda", "2"],
                                 ["--which", "detail", "--seeds", "0"]],
                         ids=["one_seed", "no_episodes", "negative_episodes",
                              "lambda_above_1", "detail_no_seeds"])
def test_probe_rejects_settings_before_writing(data_dir, tmp_path, bad):
    out = tmp_path / "p"
    assert main(["probe", "--data", str(data_dir), "--out", str(out),
                 "--seeds", "2", "--probe-episodes", "2", "--t-max", "6"]
                + bad) == 2
    assert not out.exists()


def test_probe_creates_out_before_any_probe(data_dir, tmp_path, monkeypatch):
    """An --out that cannot be created fails (exit 3) before any compute."""
    calls = []
    monkeypatch.setattr(cli, "grad_probe", lambda *a, **k: calls.append("grad"))
    monkeypatch.setattr(cli, "detail_probe", lambda *a, **k: calls.append("detail"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["probe", "--data", str(data_dir), "--out", str(blocker / "p"),
                 "--seeds", "2", "--probe-episodes", "2", "--which", "all"]) == 3
    assert calls == []


def test_probe_outputs(data_dir, tmp_path):
    out = tmp_path / "p"
    assert main(["probe", "--data", str(data_dir), "--out", str(out),
                 "--seeds", "2", "--probe-episodes", "2", "--t-max", "6",
                 "--which", "all"]) == 0
    grad = json.loads((out / "probe_grad.json").read_text())
    assert grad["variant_a"] == "MG--" and grad["variant_b"] == "----"
    assert len(grad["samples"]["a"]) == 2
    assert 0.0 <= grad["sign_test_p"] <= 1.0
    detail = json.loads((out / "probe_detail.json").read_text())
    assert detail["probe"] == "alignment_score"
    assert detail["config_hash"] == grad["config_hash"]


def test_detail_probe_one_forward_step_per_teacher_step(default_data, tmp_path,
                                                       monkeypatch):
    """Five seeds, two variants and four 4-node routes: 160 teacher-forced
    decisions, each scored and cued by the one walk that takes it."""
    calls = []
    forward = training.forward_step

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward_step", counted)
    assert main(["probe", "--data", str(default_data), "--out", str(tmp_path / "p"),
                 "--which", "detail", "--seeds", "5"]) == 0
    assert len(calls) == 160
