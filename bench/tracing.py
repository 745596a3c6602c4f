"""In-memory span tracer for the benchmark's traced run.

The tracer times calls into the public functions of every coopdiff module
from outside the package: it replaces each function where its caller looks
it up (a module global, a class attribute, or a callable handed to the
trainers and samplers) with a wrapper that records a span. Nothing inside
``src`` knows about it, and the end-to-end timing runs never install it.

A span holds a name, start and end (``perf_counter_ns``), the index of the
enclosing span (-1 at the top) and the request id of the operation it
belongs to (an update or chunk index, ``"setup"`` or ``"post"``). A span's
self time is its duration minus the durations of its direct children;
spans are strictly nested because the benchmark is single-threaded.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from coopdiff import checkpoint, control, nn, optimize, scores, sde, tape
from coopdiff.harness import experiment

# (owner, attribute, span name): each function is wrapped where the hot
# path looks it up. ``optimize`` and ``control`` import these by name, so
# the wrapper has to replace their module globals, not the defining module.
PATCHES = (
    (optimize, "coupled_rollout", "optimize.rollout"),
    (optimize, "aggregate", "aggregation.aggregate"),
    (control, "aggregate", "aggregation.aggregate"),
    (optimize, "tweedie", "scores.tweedie"),
    (control, "tweedie", "scores.tweedie"),
    (optimize, "tweedie_guidance", "control.guidance"),
    (optimize, "state_guidance", "control.state_guidance"),
    (optimize, "eval_control", "control.eval_control"),
    (optimize, "em_step", "sde.em_step"),
    (optimize, "adam_step", "optim.adam"),
    (sde.NoiseStream, "normal", "sde.noise_draw"),
    (nn.Mlp, "__call__", "nn.mlp"),
    (control, "time_features", "nn.time_features"),
    (scores, "time_features", "nn.time_features"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
)

# Set-up steps: recorded even while the tracer is inactive, so that their
# spans are inclusive times of the whole asset build step.
SETUP_PATCHES = (
    (experiment, "generate_shapes", "harness.shapes_gen"),
    (experiment, "train_classifier", "harness.classifier_fit"),
    (experiment, "train_score_model", "harness.score_fit"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "error")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.error = None

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def graph_size(root) -> tuple[int, int, int]:
    """(nodes, vjps, value bytes) of the tape graph reachable from ``root``."""
    seen = {id(root)}
    stack = [root]
    nodes = vjps = nbytes = 0
    while stack:
        node = stack.pop()
        nodes += 1
        vjps += len(node.vjps)
        nbytes += node.value.nbytes
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes, vjps, nbytes


class Tracer:
    """Collects spans while ``active``; ``request`` tags the current op."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.graphs: list[tuple] = []   # (request, nodes, vjps, bytes)
        self.active = False
        self.request = None
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span, error: BaseException | None = None) -> None:
        span.end = self.clock()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            self.close(span, err)
            raise
        self.close(span)
        return result

    def wrap(self, name: str, fn, always: bool = False):
        """``fn`` recording a span per call while the tracer is active."""

        def traced(*args, **kwargs):
            if not (self.active or always):
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _inside(self, prefix: str) -> bool:
        return any(self.spans[i].name.startswith(prefix) for i in self._stack)

    def wrap_backward(self, fn):
        """``tape.backward`` split into the objective's backward pass and
        the guidance sub-tapes; objective graphs are sized before the pass."""

        def traced(root):
            if not self.active:
                return fn(root)
            if self._inside("control."):
                name = "tape.subtape_backward"
            else:
                name = "tape.backward"
                self.graphs.append((self.request, *graph_size(root)))
            return self.call(name, fn, root)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in PATCHES + SETUP_PATCHES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                always = (owner, attr, name) in SETUP_PATCHES
                setattr(owner, attr, self.wrap(name, original, always=always))
            saved.append((tape, "backward", tape.backward))
            tape.backward = self.wrap_backward(tape.backward)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Per span: duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def summarize(spans: list[Span], requests) -> dict:
    """name -> {calls, self_s, total_s, errors} over spans of ``requests``."""
    requests = set(requests)
    out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                     "total_s": 0.0, "errors": 0})
    for span, own in zip(spans, self_times(spans)):
        if span.request not in requests:
            continue
        row = out[span.name]
        row["calls"] += 1
        row["self_s"] += own * 1e-9
        row["total_s"] += (span.end - span.start) * 1e-9
        row["errors"] += span.error is not None
    return out


def layer_metrics(tracer: Tracer, traced_ops: list) -> dict:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json.

    Counts and times are per traced operation, except ``harness.*`` (per
    set-up) and ``checkpoint.*`` (per run); tape graph sizes are per
    backward pass of the objective.
    """
    n = max(len(traced_ops), 1)
    ops = summarize(tracer.spans, traced_ops)
    setup = summarize(tracer.spans, ["setup"])
    whole = summarize(tracer.spans, traced_ops + ["setup", "post"])

    def per_op(name, key):
        return ops[name][key] / n if name in ops else 0.0

    graphs = [g for g in tracer.graphs if g[0] in set(traced_ops)]
    nodes = sum(g[1] for g in graphs)
    backward_s = ops["tape.backward"]["self_s"] if "tape.backward" in ops else 0.0
    metrics = {
        "tape.backward_s": per_op("tape.backward", "self_s"),
        "tape.subtape_backward_s": per_op("tape.subtape_backward", "self_s"),
        "tape.nodes": nodes / len(graphs) if graphs else 0.0,
        "tape.vjps": sum(g[2] for g in graphs) / len(graphs) if graphs else 0.0,
        "tape.us_per_node": backward_s / nodes * 1e6 if nodes else 0.0,
        "tape.graph_mb": sum(g[3] for g in graphs) / len(graphs) / 1e6 if graphs else 0.0,
        "nn.mlp_calls": per_op("nn.mlp", "calls"),
        "nn.mlp_s": per_op("nn.mlp", "self_s"),
        "nn.time_features_calls": per_op("nn.time_features", "calls"),
        "nn.time_features_s": per_op("nn.time_features", "self_s"),
        "scores.score_calls": per_op("scores.score", "calls"),
        "scores.score_s": per_op("scores.score", "self_s"),
        "scores.tweedie_s": per_op("scores.tweedie", "self_s"),
        "control.guidance_calls": per_op("control.guidance", "calls"),
        "control.guidance_s": per_op("control.guidance", "self_s"),
        "control.guidance_total_s": per_op("control.guidance", "total_s"),
        "control.state_guidance_s": per_op("control.state_guidance", "self_s"),
        "control.state_guidance_total_s": per_op("control.state_guidance", "total_s"),
        "control.eval_control_s": per_op("control.eval_control", "self_s"),
        "costs.psi_calls": per_op("costs.psi", "calls"),
        "costs.psi_s": per_op("costs.psi", "self_s"),
        "aggregation.aggregate_calls": per_op("aggregation.aggregate", "calls"),
        "aggregation.aggregate_s": per_op("aggregation.aggregate", "self_s"),
        "sde.em_step_s": per_op("sde.em_step", "self_s"),
        "sde.noise_draws": per_op("sde.noise_draw", "calls"),
        "sde.noise_draw_s": per_op("sde.noise_draw", "self_s"),
        "optim.adam_s": per_op("optim.adam", "self_s"),
        "optimize.rollout_s": per_op("optimize.rollout", "total_s"),
        "optimize.rollout_self_s": per_op("optimize.rollout", "self_s"),
        "optimize.diverged": per_op("optimize.rollout", "errors"),
        "harness.shapes_gen_s": setup["harness.shapes_gen"]["total_s"],
        "harness.classifier_fit_s": setup["harness.classifier_fit"]["total_s"],
        "harness.score_fit_s": setup["harness.score_fit"]["total_s"],
        "checkpoint.save_calls": float(whole["checkpoint.save"]["calls"]),
        "checkpoint.save_s": whole["checkpoint.save"]["self_s"],
        "trace.spans_per_op": sum(r["calls"] for r in ops.values()) / n,
    }
    return metrics
