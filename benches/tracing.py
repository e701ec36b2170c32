"""Layer instrumentation applied from outside the program.

``Patch`` swaps attributes of the library's modules and classes for
wrappers and puts every original back on exit.  ``Tracer`` uses it to wrap
the public function at each layer boundary: a wrapper records a span (name,
start, end, parent) and a call count, keeping everything in memory.  Nothing
under ``src/`` is edited; a function is wrapped at every ``oikg`` module that
binds it, so calls made through ``from .x import f`` names are seen too.
"""

import importlib
import sys
import time
from collections import Counter

PERF = time.perf_counter

# (display name, module, attribute).  A dotted attribute names a method of a
# class; a module-level function is wrapped at every oikg module binding it.
SPAN_LAYERS = (
    ("training.train", "oikg.training", "train"),
    ("training.evaluate_policy", "oikg.training", "evaluate_policy"),
    ("training.pseudo_label", "oikg.training", "pseudo_label"),
    ("model.forward_step", "oikg.model", "forward_step"),
    ("model.decouple_observation", "oikg.model", "decouple_observation"),
    ("model.build_candidates", "oikg.model", "build_candidates"),
    ("model.observation_graph_interaction", "oikg.model", "observation_graph_interaction"),
    ("model.encode_instruction", "oikg.model", "encode_instruction"),
    ("model.extract_key_detail", "oikg.model", "extract_key_detail"),
    ("model.cross_modal_fusion", "oikg.model", "cross_modal_fusion"),
    ("model.enhance_and_score", "oikg.model", "enhance_and_score"),
    ("synthenv.render_observation", "oikg.synthenv", "render_observation"),
    ("synthenv.generate_environment", "oikg.synthenv", "generate_environment"),
    ("synthenv.make_episode", "oikg.synthenv", "make_episode"),
    ("navgraph.PathGraph.advance", "oikg.navgraph", "PathGraph.advance"),
    ("navgraph.NavGraph.shortest_path", "oikg.navgraph", "NavGraph.shortest_path"),
    ("nn.backward", "oikg.nn", "backward"),
    ("nn.clip_global_norm", "oikg.nn", "clip_global_norm"),
    ("nn.optimizer_step", "oikg.nn", "optimizer_step"),
    ("metrics.evaluate", "oikg.metrics", "evaluate"),
)

# Called tens of thousands of times per op: counted, never spanned.
COUNT_LAYERS = (
    ("geometry.angular_distance", "oikg.geometry", "angular_distance"),
)

# Spans the tracer adds for its own bookkeeping; they are not layers.
WALK = "trace.tape_walk"


class TraceError(RuntimeError):
    """The library no longer has a boundary the trace depends on."""


def binding_sites(module: str, attr: str) -> tuple[list, str]:
    """(owners, name): every object through which the library reaches the
    function or method ``module.attr``, and the attribute name on them."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, name):
        raise TraceError(f"{module}.{attr} is missing; the trace cannot see this layer")
    if path:
        return [owner], name
    func = getattr(owner, name)
    return [m for key, m in sorted(sys.modules.items())
            if (key == "oikg" or key.startswith("oikg.")) and m is not None
            and getattr(m, name, None) is func], name


class Patch:
    """Attribute swaps that are undone, in reverse order, on exit."""

    def __init__(self):
        self._saved: list = []

    def wrap(self, module: str, attr: str, make_wrapper) -> None:
        sites, attr = binding_sites(module, attr)
        wrapper = make_wrapper(getattr(sites[0], attr))
        for site in sites:
            self._saved.append((site, attr, getattr(site, attr)))
            setattr(site, attr, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for site, attr, original in reversed(self._saved):
            setattr(site, attr, original)
        for site, attr, original in self._saved:
            if getattr(site, attr) is not original:
                raise TraceError(f"{site.__name__}.{attr} was not restored")
        self._saved.clear()
        return False


def tape_size(root) -> int:
    """Distinct tensors reachable from root through ``_parents``, root included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer(Patch):
    """Spans and counts at every layer boundary in SPAN_LAYERS/COUNT_LAYERS.

    ``walk`` picks where tape nodes are counted: ``"loss"`` walks the graph
    handed to ``nn.backward`` (training), ``"scores"`` walks each decision
    step's scores (inference, where backward never runs).
    """

    def __init__(self, walk: str):
        super().__init__()
        if walk not in ("loss", "scores"):
            raise ValueError(f"unknown walk {walk!r}")
        self.walk = walk
        self.spans: list = []      # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.tape_nodes = 0
        self.candidates = 0
        self.rendered: set = set()
        self._stack: list = []

    def __enter__(self):
        import oikg.nn
        if not hasattr(oikg.nn.Tensor(0.0), "_parents"):
            raise TraceError("oikg.nn.Tensor has no _parents; tape nodes cannot be counted")
        for name, module, attr in SPAN_LAYERS:
            self.wrap(module, attr, self._spanner(name))
        for name, module, attr in COUNT_LAYERS:
            self.wrap(module, attr, self._counter(name))
        return self

    def _open(self, name: str) -> list:
        rec = [name, PERF(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = PERF()
        self._stack.pop()

    def _walk(self, root) -> None:
        rec = self._open(WALK)
        try:
            self.tape_nodes += tape_size(root)
        finally:
            self._close(rec)

    def _spanner(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                if name == "nn.backward" and self.walk == "loss":
                    self._walk(args[0])
                rec = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(rec)
                self.counts[name] += 1
                if name == "model.build_candidates":
                    self.candidates += result[0].shape[0]
                elif name == "synthenv.render_observation":
                    self.rendered.add((id(args[0]), args[1]))
                elif name == "model.forward_step" and self.walk == "scores":
                    self._walk(result[0].scores)
                return result
            return wrapper
        return make

    def _counter(self, name: str):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    # ------------------------------------------------------------ reports

    def totals(self) -> tuple[Counter, Counter]:
        """(inclusive seconds, self seconds) per span name."""
        incl: Counter = Counter()
        child: list = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            own[name] += end - start - c
        return incl, own

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def fingerprint(self) -> dict:
        """Every count the report rests on; two runs of one seed must agree."""
        return {"calls": dict(sorted(self.counts.items())),
                "tape_nodes": self.tape_nodes,
                "candidates": self.candidates,
                "rendered_distinct": len(self.rendered)}
