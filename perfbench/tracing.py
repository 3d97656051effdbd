"""Per-layer spans and counts for the bgg modules, recorded from outside.

`Tracer.install` replaces the public functions of each bgg module, and a
few named methods, with wrappers.  A wrapper opens a span when the call
enters a layer from another layer (or from the benchmark), and always for
the tracked functions in `TRACKED`; calls inside one layer pass straight
through.  Spans are not stored one by one: each one's duration is added
to its parent's child time when it closes, so a span's self time (its
duration minus the time its child spans cover) is summed per name and per
layer as the run goes.

Counts are recorded at the wrapped calls (`*.calls`) or computed from the
objects the calls return (the post hooks below); `METRICS` marks which.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("weyl", "parabolic", "orbits", "penrose", "verma", "geometry", "render", "cli")


def _post_hasse(tracer, args, hd):
    by_length = Counter(nd.length for nd in hd.nodes)
    c = tracer.counts
    c["parabolic.hasse_nodes"] += len(hd.nodes)
    c["parabolic.hasse_edges"] += len(hd.edges)
    c["parabolic.hasse_pairs_tested"] += sum(
        size * by_length.get(ell + 1, 0) for ell, size in by_length.items()
    )
    p = hd.parabolic
    tracer.distinct.add(repr((p.n, tuple(p.crossed), tuple(hd.base))))
    if any(frame[1] == "orbits" for frame in tracer.stack):
        c["orbits.hasse_nodes_scanned"] += len(hd.nodes)


def _post_orbit(tracer, args, diagram):
    tracer.counts["orbits.nodes_kept"] += len(diagram.nodes)
    for arrow in diagram.arrows:
        tracer.counts[f"orbits.arrows.{arrow.kind}"] += 1


def _post_weight_space(tracer, args, basis):
    gv = args[0]
    tracer.counts["verma.weight_space.basis_size"] += len(basis)
    tracer.last_basis_size = len(basis)
    cap = getattr(gv, "cap", None)
    if cap is not None:
        tracer.counts["verma.weight_space.words_enumerated"] += len(
            gv.module.basis
        ) * math.comb(len(gv.letters) + cap, cap)


def _post_elimination(tracer, args, kernel_dim):
    tracer.counts["verma.elimination.rank"] += tracer.last_basis_size - kernel_dim


def _post_point(tracer, args, result):
    tracer.counts["geometry.points"] += 1


def _post_render(tracer, args, text):
    tracer.counts["render.bytes_out"] += len(text.encode())


# "module.attr" or "module.Class.method" -> (span name or None, post hook).
# A span name gives the call a span of its own wherever it is called from.
TRACKED = {
    "weyl.length": ("weyl.length", None),
    "weyl.as_reflection": ("weyl.as_reflection", None),
    "parabolic.hasse_diagram": ("parabolic.hasse_diagram", _post_hasse),
    "parabolic.order_bound": ("parabolic.order_bound", None),
    "orbits.singular_orbit": ("orbits.singular_orbit", _post_orbit),
    "orbits.regular_orbit_projection": ("orbits.regular_orbit_projection", _post_orbit),
    "penrose.e1_page": ("penrose.e1_page", None),
    "verma.LieData.__init__": ("verma.lie_data", None),
    "verma.GeneralizedVerma.weight_space": ("verma.weight_space", _post_weight_space),
    "verma.GeneralizedVerma.act": ("verma.act", None),
    "verma.GeneralizedVerma.maximal_vector_dimension": ("verma.elimination", _post_elimination),
    "verma.GeneralizedVerma.check_maximal": ("verma.check_maximal", None),
    "geometry.isotropy_check": (None, _post_point),
    "render.to_tikz": (None, _post_render),
    "render.to_dot": (None, _post_render),
    "render.to_json": (None, _post_render),
}


class Tracer:
    """Aggregated spans and counts; `state()` is JSON and `merge` adds one in."""

    def __init__(self):
        # frame: [span name, layer, start, time covered by child spans]
        self.stack = [[None, None, 0.0, 0.0]]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.distinct = set()
        self.last_basis_size = 0
        self.cli = {"import_s": [], "main_s": 0.0, "stdout_bytes": 0, "traceback_count": 0}
        self._restore = []

    # -- installation

    def _wrap(self, layer, name, fn, post):
        stack, calls, self_s, clock = self.stack, self.calls, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            boundary = stack[-1][1] != layer
            if name is None and not boundary:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(self, args, result)
                return result
            if boundary:
                calls[layer] += 1
            if name is not None:
                calls[name] += 1
            frame = [name or layer, layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[2]
                stack.pop()
                own = duration - frame[3]
                self_s[frame[0]] += own
                if name is not None:
                    self_s[layer] += own
                stack[-1][3] += duration
            if post is not None:
                start = clock()
                post(self, args, result)
                stack[-1][3] += clock() - start  # hook time is nobody's self time
            return result

        return wrapper

    def _replace(self, owner, attr, layer, name, post):
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, name, original, post))

    def install(self):
        """Wrap every public function of each layer and the tracked methods."""
        for layer in LAYERS:
            mod = importlib.import_module(f"bgg.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name, post = TRACKED.get(f"{layer}.{attr}", (None, None))
                self._replace(mod, attr, layer, name, post)
        for dotted, (name, post) in TRACKED.items():
            layer, *path = dotted.split(".")
            owner = importlib.import_module(f"bgg.{layer}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            if owner is None or path[-1] not in vars(owner):
                print(f"perfbench: not traced, missing: bgg.{dotted}", file=sys.stderr)
            elif len(path) == 2:
                self._replace(owner, path[-1], layer, name, post)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation

    def state(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "distinct": sorted(self.distinct),
            "cli": self.cli,
        }

    def merge(self, state: dict) -> None:
        self.calls.update(state["calls"])
        for key, value in state["self_s"].items():
            self.self_s[key] += value
        self.counts.update(state["counts"])
        self.distinct.update(state["distinct"])
        cli = state["cli"]
        self.cli["import_s"] += cli["import_s"]
        for key in ("main_s", "stdout_bytes", "traceback_count"):
            self.cli[key] += cli[key]

    def metrics(self, interpreter_s: float = 0.0, overhead_ratio: float = 0.0) -> dict:
        calls, own, counts = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "weyl.calls": calls["weyl"],
            "weyl.self_s": own["weyl"],
            "weyl.length.calls": calls["weyl.length"],
            "weyl.length.self_s": own["weyl.length"],
            "weyl.as_reflection.calls": calls["weyl.as_reflection"],
            "parabolic.hasse_diagram.calls": calls["parabolic.hasse_diagram"],
            "parabolic.hasse_diagram.self_s": own["parabolic.hasse_diagram"],
            "parabolic.self_s": own["parabolic"],
            "parabolic.order_bound.calls": calls["parabolic.order_bound"],
            "parabolic.hasse_nodes": counts["parabolic.hasse_nodes"],
            "parabolic.hasse_edges": counts["parabolic.hasse_edges"],
            "parabolic.hasse_pairs_tested": counts["parabolic.hasse_pairs_tested"],
            "parabolic.edge_hit_ratio": ratio(
                counts["parabolic.hasse_edges"], counts["parabolic.hasse_pairs_tested"]
            ),
            "parabolic.distinct_ratio": ratio(
                len(self.distinct), calls["parabolic.hasse_diagram"]
            ),
            "orbits.singular_orbit.self_s": own["orbits.singular_orbit"],
            "orbits.regular_orbit_projection.self_s": own["orbits.regular_orbit_projection"],
            "orbits.self_s": own["orbits"],
            "orbits.kept_ratio": ratio(
                counts["orbits.nodes_kept"], counts["orbits.hasse_nodes_scanned"]
            ),
            "orbits.arrows.standard": counts["orbits.arrows.standard"],
            "orbits.arrows.identity": counts["orbits.arrows.identity"],
            "orbits.arrows.suppressed": counts["orbits.arrows.suppressed"],
            "penrose.self_s": own["penrose"],
            "penrose.e1_page.calls": calls["penrose.e1_page"],
            "verma.lie_data.calls": calls["verma.lie_data"],
            "verma.lie_data.self_s": own["verma.lie_data"],
            "verma.weight_space.self_s": own["verma.weight_space"],
            "verma.weight_space.basis_size": counts["verma.weight_space.basis_size"],
            "verma.weight_space.words_enumerated": counts["verma.weight_space.words_enumerated"],
            "verma.weight_space.hit_ratio": ratio(
                counts["verma.weight_space.basis_size"],
                counts["verma.weight_space.words_enumerated"],
            ),
            "verma.act.calls": calls["verma.act"],
            "verma.act.self_s": own["verma.act"],
            "verma.elimination.self_s": own["verma.elimination"],
            "verma.elimination.rank": counts["verma.elimination.rank"],
            "verma.check_maximal.self_s": own["verma.check_maximal"],
            "verma.self_s": own["verma"],
            "geometry.self_s": own["geometry"],
            "geometry.points": counts["geometry.points"],
            "render.self_s": own["render"],
            "render.bytes_out": counts["render.bytes_out"],
            "cli.interpreter_s": interpreter_s,
            "cli.import_s": (
                statistics.median(self.cli["import_s"]) if self.cli["import_s"] else 0.0
            ),
            "cli.main_s": self.cli["main_s"],
            "cli.self_s": own["cli"],
            "cli.stdout_bytes": self.cli["stdout_bytes"],
            "cli.traceback_count": self.cli["traceback_count"],
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in METRICS}


# name, unit, better, how the value is obtained.  Times and calls are per
# traced run; "computed" counts are derived from the returned objects.
METRICS = [
    ("weyl.calls", "count", "lower", "calls entering the weyl layer"),
    ("weyl.self_s", "s", "lower", "span"),
    ("weyl.length.calls", "count", "lower", "recorded"),
    ("weyl.length.self_s", "s", "lower", "span"),
    ("weyl.as_reflection.calls", "count", "lower", "recorded"),
    ("parabolic.hasse_diagram.calls", "count", "lower", "recorded"),
    ("parabolic.hasse_diagram.self_s", "s", "lower", "span"),
    ("parabolic.self_s", "s", "lower", "span"),
    ("parabolic.order_bound.calls", "count", "lower", "recorded"),
    ("parabolic.hasse_nodes", "count", "lower", "computed: nodes of returned diagrams"),
    ("parabolic.hasse_edges", "count", "lower", "computed: edges of returned diagrams"),
    ("parabolic.hasse_pairs_tested", "count", "lower", "computed: sum of |L_l|*|L_l+1|"),
    ("parabolic.edge_hit_ratio", "ratio", "higher", "computed: edges / pairs tested"),
    ("parabolic.distinct_ratio", "ratio", "higher", "computed: distinct (n, crossed, base) / calls"),
    ("orbits.singular_orbit.self_s", "s", "lower", "span"),
    ("orbits.regular_orbit_projection.self_s", "s", "lower", "span"),
    ("orbits.self_s", "s", "lower", "span"),
    ("orbits.kept_ratio", "ratio", "higher", "computed: orbit nodes / Hasse nodes scanned"),
    ("orbits.arrows.standard", "count", "lower", "computed: sentinel, must not change"),
    ("orbits.arrows.identity", "count", "lower", "computed: sentinel, must not change"),
    ("orbits.arrows.suppressed", "count", "lower", "computed: sentinel, must not change"),
    ("penrose.self_s", "s", "lower", "span"),
    ("penrose.e1_page.calls", "count", "lower", "recorded"),
    ("verma.lie_data.calls", "count", "lower", "recorded"),
    ("verma.lie_data.self_s", "s", "lower", "span"),
    ("verma.weight_space.self_s", "s", "lower", "span"),
    ("verma.weight_space.basis_size", "count", "lower", "computed: length of returned bases"),
    ("verma.weight_space.words_enumerated", "count", "lower", "computed: |F| * C(L + cap, cap)"),
    ("verma.weight_space.hit_ratio", "ratio", "higher", "computed: basis size / words enumerated"),
    ("verma.act.calls", "count", "lower", "recorded"),
    ("verma.act.self_s", "s", "lower", "span"),
    ("verma.elimination.self_s", "s", "lower", "span: maximal_vector_dimension minus children"),
    ("verma.elimination.rank", "count", "lower", "computed: basis size - kernel dimension"),
    ("verma.check_maximal.self_s", "s", "lower", "span"),
    ("verma.self_s", "s", "lower", "span"),
    ("geometry.self_s", "s", "lower", "span"),
    ("geometry.points", "count", "lower", "recorded: isotropy_check calls"),
    ("render.self_s", "s", "lower", "span"),
    ("render.bytes_out", "bytes", "lower", "computed: UTF-8 size of returned text"),
    ("cli.interpreter_s", "s", "lower", "median bare `python -c pass`"),
    ("cli.import_s", "s", "lower", "median import of bgg.cli per traced child"),
    ("cli.main_s", "s", "lower", "sum of bgg.cli.main wall time"),
    ("cli.self_s", "s", "lower", "span"),
    ("cli.stdout_bytes", "bytes", "lower", "recorded by the parent"),
    ("cli.traceback_count", "count", "lower", "recorded by the parent"),
    ("trace.overhead_ratio", "ratio", "lower", "traced loop wall / untraced loop wall"),
]
