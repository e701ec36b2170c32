"""The program boundaries the benchmark tracer (benches/tracing.py) wraps.

The tracer patches functions from outside the program, so renaming or
deleting one breaks only the benchmark.  These checks keep such a break in
the fast test loop.
"""

import importlib.util
from pathlib import Path

from test_model import env_of, tiny_graph

from oikg import model, nn
from oikg import synthenv as se
from oikg.navgraph import PathGraph

TRACING = Path(__file__).resolve().parents[1] / "benches" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    for _, module, attr in tracing.SPAN_LAYERS + tracing.COUNT_LAYERS:
        sites, _ = tracing.binding_sites(module, attr)  # TraceError if gone
        assert sites, f"{module}.{attr} is bound nowhere"


def test_traced_step_exposes_scores_and_tape():
    assert hasattr(nn.Tensor(0.0), "_parents")
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
