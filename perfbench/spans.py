"""In-memory spans around switchlab's public functions, for the traced run.

The modules of ``switchlab`` call one another through names bound at import
time (``from .router import route``), so a wrapper must replace a function at
every module that holds it -- the defining module and each import site --
for calls between modules to be seen. ``traced`` does that for the functions
in ``TRACED`` and puts the originals back on exit; nothing in ``src/``
changes. Each call records a span (name, start, end, parent span, step id);
a layer's self time is its span's duration minus that of its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

PACKAGE = "switchlab"
MODULES = ("tensor_core", "router", "switch_layer", "parallel_sim", "trainer", "cli")

# Wrapped functions, keyed by the module that defines them.
TRACED = {
    "trainer": (
        "batch_for_step", "train_step", "model_fwd", "model_bwd",
        "masked_cross_entropy", "adam_update", "evaluate",
    ),
    "switch_layer": (
        "attention_fwd", "attention_bwd", "dense_ffn_fwd", "dense_ffn_bwd",
        "switch_ffn_fwd", "switch_ffn_bwd", "moe_topk_ffn_fwd", "moe_topk_ffn_bwd",
    ),
    "router": ("route", "build_dispatch_combine", "ntlb_reroute"),
    "tensor_core": ("softmax", "softmax_backward"),
    "parallel_sim": ("run_sharded_switch_layer",),
    "cli": ("save_checkpoint", "load_checkpoint", "restore_model"),
}
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# The benchmark's own span around one step (or one eval iteration).
STEP_SPAN = "bench.step"


def strategy_label(strategy: str) -> str:
    """Mesh strategy as a metric-name part ('+' is not allowed in names)."""
    return strategy.replace("+", "-")


@dataclass
class Span:
    id: int
    name: str
    start: int  # time.perf_counter_ns()
    end: int
    parent: int | None
    step: int | None
    tag: str | None = None


@dataclass
class Tracer:
    """Spans and counters of one traced run, kept in memory until written out."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    step: int | None = None
    _stack: list[Span] = field(default_factory=list)

    def open(self, name: str, tag: str | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, self.step, tag)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextlib.contextmanager
    def step_span(self, step: int):
        """The root span of one step; later spans carry ``step`` until the next."""
        self.step = step
        s = self.open(STEP_SPAN)
        try:
            yield s
        finally:
            self.close(s)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _count_route(tracer: Tracer, args, kwargs, result) -> None:
    plan = result[0]
    tracer.counters["router.kept_tokens"] += int((~plan.dropped).sum())
    tracer.counters["router.routed_tokens"] += plan.num_tokens


def _count_dispatch(tracer: Tracer, args, kwargs, result) -> None:
    plan = args[0] if args else kwargs["plan"]
    tracer.counters["switch_layer.kept_slots"] += int((~plan.dropped).sum())
    tracer.counters["switch_layer.slots"] += plan.num_experts * plan.capacity


def _mesh_tag(args, kwargs) -> str:
    mesh = args[2] if len(args) > 2 else kwargs["mesh"]
    return strategy_label(mesh.strategy)


# Counts read from what a call receives or returns, and span tags.
_COUNTERS = {"router.route": _count_route, "router.build_dispatch_combine": _count_dispatch}
_TAGS = {"parallel_sim.run_sharded_switch_layer": _mesh_tag}


def _wrap(tracer: Tracer, name: str, fn):
    count = _COUNTERS.get(name)
    tag = _TAGS.get(name)

    def traced_call(*args, **kwargs):
        span = tracer.open(name, tag(args, kwargs) if tag else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every call of a ``TRACED`` function through ``tracer`` while open."""
    sites = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    patched = []
    try:
        for mod, fns in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{mod}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = _wrap(tracer, f"{mod}.{fn_name}", original)
                for site in sites:
                    if getattr(site, fn_name, None) is original:
                        setattr(site, fn_name, wrapper)
                        patched.append((site, fn_name, original))
        yield tracer
    finally:
        for site, fn_name, original in reversed(patched):
            setattr(site, fn_name, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children (ns)."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _roots(spans: list[Span]) -> dict[int, int]:
    """Span id -> id of its outermost ancestor."""
    parent = {s.id: s.parent for s in spans}
    root = {}
    for s in spans:
        r = s.id
        while parent[r] is not None:
            r = parent[r]
        root[s.id] = r
    return root


def step_tree_errors(spans: list[Span]) -> list[str]:
    """Consistency of each step's span tree; an empty list means it holds.

    Within a ``STEP_SPAN`` tree every child must lie inside its parent's
    interval, carry the same step id, and the self times of all spans of the
    tree must sum to the root's duration exactly (integer nanoseconds, so the
    tolerance is zero).
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    root = _roots(spans)
    sums: dict[int, int] = defaultdict(int)
    errors = []
    for s in spans:
        sums[root[s.id]] += own[s.id]
        if s.parent is not None:
            p = by_id[s.parent]
            if not (p.start <= s.start <= s.end <= p.end) or p.step != s.step:
                errors.append(f"span {s.id} {s.name} escapes parent {p.id} {p.name}")
    for r, total in sums.items():
        s = by_id[r]
        if s.name == STEP_SPAN and total != s.end - s.start:
            errors.append(
                f"step {s.step}: self times sum to {total} ns, root spans {s.end - s.start} ns"
            )
    return errors


@dataclass
class LayerStats:
    self_ms: float  # median over the steps that call it of its summed self time
    calls: float  # mean calls per step


def layer_stats(spans: list[Span], key=lambda s: s.name) -> dict[str, LayerStats]:
    """Per-step self time and call count of every span name, or other key.

    ``key`` may return None to leave a span out. Spans outside a step (step
    id None) are ignored; a span between steps, such as a checkpoint save,
    belongs to the step it follows.
    """
    own = self_times(spans)
    n_steps = max(sum(s.name == STEP_SPAN for s in spans), 1)
    per_step: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        k = key(s)
        if k is None or s.step is None:
            continue
        per_step[k][s.step] += own[s.id]
        calls[k] += 1
    return {
        k: LayerStats(statistics.median(v.values()) / 1e6, calls[k] / n_steps)
        for k, v in per_step.items()
    }
