"""The program boundaries the benchmark tracer (benches/tracing.py) wraps.

The tracer patches functions from outside the program, so renaming or
deleting one breaks only the benchmark.  These checks keep such a break in
the fast test loop.
"""

import importlib.util
import sys
from pathlib import Path

from test_model import env_of, tiny_graph

from oikg import model, nn
from oikg import synthenv as se
from oikg.navgraph import PathGraph

BENCHES = Path(__file__).resolve().parents[1] / "benches"
TRACING = BENCHES / "tracing.py"


def load_tracing():
    """``benches/tracing.py`` as a new module, loaded with bytecode writing
    off, so no ``benches/__pycache__`` file is left behind."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def files_under(root: Path) -> dict:
    """Every file below root, with its size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in root.rglob("*") if p.is_file()}


def test_every_traced_layer_resolves():
    before = files_under(BENCHES)
    tracing = load_tracing()
    for _, module, attr in tracing.SPAN_LAYERS + tracing.COUNT_LAYERS:
        sites, _ = tracing.binding_sites(module, attr)  # TraceError if gone
        assert sites, f"{module}.{attr} is bound nowhere"
    assert files_under(BENCHES) == before


def test_traced_step_exposes_scores_and_tape():
    assert hasattr(nn.Tensor(0.0), "_parents")
    before = files_under(BENCHES)
    tracing = load_tracing()
    cfg = model.TINY_CONFIG
    graph = tiny_graph()
    latents = se.make_latents(graph, feature_dim=cfg.vis_dim, seed=3)
    tokens = se.generate_instruction(graph, [0, 1, 3], seed=0)
    params = model.build_params(cfg, seed=0)
    with tracing.Tracer("scores") as tracer:
        feats, _ = model.forward_step(PathGraph(graph, start=0),
                                      env_of(graph, latents), tokens, params, cfg,
                                      model.EpisodeCache())
    assert feats.scores.shape == (3,)
    assert tracer.counts["model.forward_step"] == 1
    assert tracer.tape_nodes > 1  # walked back from the step's scores
    assert files_under(BENCHES) == before


def test_traced_pass_checks_pass_on_every_workload(monkeypatch):
    """Each benchmark workload, set up under a tracer and run through the
    traced pass's checks at its smallest pass (2 ops), records a call in
    every layer it must (else ``TraceError``), repeats its counts between
    runs and fails no op.  The harness is read from ``benches/``, with that
    directory on the import path for this test only, and nothing is written
    there."""
    before = files_under(BENCHES)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHES))
    for name in ("tracing", "bench_harness"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.util.spec_from_file_location("bench_harness", BENCHES / "harness.py")
    harness = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_harness", harness)
    spec.loader.exec_module(harness)
    try:
        for name, (wl, build) in sorted(harness.WORKLOADS.items()):
            setup_tracer = harness.Tracer(wl.walk)
            inp = harness.setup(wl, build, 0, setup_tracer)
            assert wl.ops(1e-6) == 2
            _, passes, detail = harness.per_layer(
                wl, inp, 1e-6, setup_tracer, harness.load_reference(name, 0))
            assert detail["ops_per_pass"] == 2
            assert sum(p.failed for p in passes) == 0, name
    finally:
        sys.modules.pop("tracing", None)
    assert files_under(BENCHES) == before
