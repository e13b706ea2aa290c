"""Per-layer tracing by wrapping tvk's public functions from outside.

``Tracer.install`` replaces module attributes and class methods of the
package with timing wrappers, and ``uninstall`` puts the originals back;
untraced rounds run with no wrapper in place. A function imported by name
into another module (``training`` imports ``backward``, ``network``
imports the geometry conversions) is replaced everywhere it is looked up.
Ops that return a tensor with a VJP get that VJP wrapped too, so backward
passes are attributed to the op that built them.

Spans (name, start, end, parent, round) stay in memory; ``write`` stores
them once at the end. A layer's self time is its span minus the time of
its child spans.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict

from tvk import (autodiff, baseline, container, geometry, losses, metrics,
                 network, synthdata, training)

STAGES = ("boot_flow", "boot_dm", "iter_flow", "iter_dm", "refine")
KINDS = ("x", "y", "sq", "up")
PHASES = ("p1", "p2", "p3")
PARTS = ("forward", "loss", "backward", "optimizer", "other")

TIME_METRICS = (
    ["synthdata.generate_scene", "synthdata.render_pair",
     "container.write", "container.read",
     "geometry.flow_from_depth_motion", "geometry.depth_from_flow_motion"]
    + [f"autodiff.{s}.{k}.{d}" for s in STAGES for k in KINDS
       for d in ("fwd", "vjp")]
    + ["autodiff.other.fwd", "autodiff.other.vjp", "autodiff.backward",
       "autodiff.adam",
       "network.bootstrap", "network.iterative", "network.refine",
       "network.to_predictions",
       "losses.total_loss", "losses.grad_loss", "losses.other"]
    + [f"training.{p}.{part}" for p in PHASES for part in PARTS]
    + ["baseline.sample", "baseline.ransac", "baseline.eight_point",
       "baseline.decompose", "baseline.refine", "metrics"])
COUNT_METRICS = {  # name -> unit
    "synthdata.pairs": "count", "container.mb": "MB",
    "autodiff.graph_nodes": "count", "autodiff.conv_gmac": "GMAC",
    "training.steps": "count", "baseline.eight_point_calls": "count",
    "baseline.lm_iterations": "count"}


def time_metric_name(span_name: str) -> str:
    return "metrics.s" if span_name == "metrics" else span_name + "_s"


def _part(span_name: str):
    """Which part of a training step a span belongs to, if any."""
    if span_name.startswith("network."):
        return "forward"
    if span_name.startswith("losses."):
        return "loss"
    if span_name == "autodiff.backward":
        return "backward"
    if span_name == "autodiff.adam":
        return "optimizer"
    return None


def _conv_label(op: str, w) -> str:
    stage = (w.name or "").split(".", 1)[0]
    if stage not in STAGES:
        return "autodiff.other"
    kh, kw = w.data.shape[2:]
    kind = "up" if op == "upconv" else "x" if kh == 1 else "y" if kw == 1 \
        else "sq"
    return f"autodiff.{stage}.{kind}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.round = 0
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counts[self.round][name] += value

    def wrap(self, fn, label, after=None):
        """``fn`` timed as a span; ``label`` is a name or a function of the
        call's arguments, ``after(result, *args)`` runs once it returns."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.round]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installing wrappers ---------------------------------------------------

    def _replace_function(self, fn, wrapper):
        """Swap ``fn`` for ``wrapper`` in every tvk module that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "tvk" or modname.startswith("tvk.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _function(self, module, name, label, after=None):
        fn = getattr(module, name)
        self._replace_function(fn, self.wrap(fn, label, after))

    def _method(self, cls, name, label, after=None):
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, label, after))
        else:
            new = self.wrap(raw, label, after)
        setattr(cls, name, new)
        self._undo.append((cls, name, raw))

    def _public_functions(self, module):
        return [n for n, v in vars(module).items()
                if inspect.isfunction(v) and not n.startswith("_")
                and v.__module__ == module.__name__]

    def _graph_op(self, label):
        """After-hook for an op: count its node and wrap its VJP."""
        def after(out, *args, **kwargs):
            if any(out is a for a in args):
                return  # a pass-through op returns its input node
            if isinstance(out, autodiff.Tensor) and out._vjp is not None:
                self.count("autodiff.graph_nodes", 1)
                out._vjp = self.wrap(out._vjp, label(*args) + ".vjp")
        return after

    def install(self) -> None:
        def file_mb(_result, path, *args, **kwargs):
            self.count("container.mb", os.path.getsize(path) / 1e6)

        self._function(synthdata, "generate_scene", "synthdata.generate_scene")
        self._function(synthdata, "render_pair", "synthdata.render_pair",
                       lambda *a, **k: self.count("synthdata.pairs", 1))
        self._function(container, "write_container", "container.write",
                       file_mb)
        for name in ("read_all", "load_arrays"):
            self._function(container, name, "container.read", file_mb)
        for name in ("flow_from_depth_motion", "depth_from_flow_motion"):
            self._function(geometry, name, f"geometry.{name}")

        def conv_label(op):
            return lambda x, w, *a, **k: _conv_label(op, w)

        def gmac(op):
            def after(out, x, w, *a, **k):
                N, _, H, W = (out.data if op == "conv" else x.data).shape
                O, C, kh, kw = w.data.shape
                self.count("autodiff.conv_gmac", N * O * C * kh * kw * H * W / 1e9)
                self._graph_op(conv_label(op))(out, x, w)
            return after

        other = lambda *a, **k: "autodiff.other"  # noqa: E731
        for name in self._public_functions(autodiff):
            if name == "conv2d":
                self._function(autodiff, name, lambda x, w, *a, **k:
                               _conv_label("conv", w) + ".fwd", gmac("conv"))
            elif name == "upconv2d":
                self._function(autodiff, name, lambda x, w, *a, **k:
                               _conv_label("upconv", w) + ".fwd", gmac("upconv"))
            elif name == "backward":
                self._function(autodiff, name, "autodiff.backward")
            elif name not in ("constant", "fanin_uniform", "gradcheck_vjp"):
                self._function(autodiff, name, "autodiff.other.fwd",
                               self._graph_op(other))
        self._method(autodiff.Adam, "step", "autodiff.adam")

        for name, label in (("bootstrap_tensors", "network.bootstrap"),
                            ("iterative_tensors", "network.iterative"),
                            ("refine_tensors", "network.refine"),
                            ("tensors_to_predictions",
                             "network.to_predictions")):
            self._method(network.TwoViewNet, name, label)

        for name in self._public_functions(losses):
            label = name if name in ("total_loss", "grad_loss") else "other"
            self._function(losses, name, f"losses.{label}")

        for p in PHASES:
            self._method(training.Trainer, f"phase{p[1]}", f"training.{p}")

        self._function(baseline, "sample_correspondences", "baseline.sample")
        self._function(baseline, "ransac_essential", "baseline.ransac")
        self._function(baseline, "eight_point", "baseline.eight_point",
                       lambda *a, **k: self.count(
                           "baseline.eight_point_calls", 1))
        self._function(baseline, "decompose_essential", "baseline.decompose")
        self._function(baseline, "refine_motion", "baseline.refine",
                       lambda res, *a, **k: self.count(
                           "baseline.lm_iterations", res.iterations))

        for name in self._public_functions(metrics):
            self._function(metrics, name, "metrics")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- results -------------------------------------------------------------

    def per_round(self) -> dict[int, dict[str, float]]:
        """Self time per span name, parts of training phases and counts,
        for each traced round."""
        n = len(self.spans)
        child = [0.0] * n
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        rounds: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        phase_of = [None] * n
        in_part = [False] * n
        for i, (name, t0, t1, parent, rnd) in enumerate(self.spans):
            r = rounds[rnd]
            r[time_metric_name(name)] += (t1 - t0) - child[i]
            phase = phase_of[parent] if parent >= 0 else None
            above = in_part[parent] if parent >= 0 else False
            if name.startswith("training."):
                phase, above = name.split(".")[1], False
                r[name + ".total"] += t1 - t0
            if name == "autodiff.adam" and phase is not None:
                r["training.steps"] += 1
            part = _part(name)
            if phase is not None and part is not None and not above:
                r[f"training.{phase}.{part}_s"] += t1 - t0
            phase_of[i] = phase
            in_part[i] = above or part is not None
        for rnd, counts in self.counts.items():
            rounds[rnd].update(counts)
        for r in rounds.values():
            for p in PHASES:
                total = r.pop(f"training.{p}.total", 0.0)
                if total:
                    r[f"training.{p}.other_s"] = total - sum(
                        r[f"training.{p}.{part}_s"] for part in PARTS[:-1])
        return {rnd: dict(r) for rnd, r in rounds.items()}

    def layer_metrics(self, rounds: list[int]) -> dict[str, dict]:
        """Median over the given rounds of every per-layer metric."""
        per = self.per_round()
        names = {time_metric_name(n): "s" for n in TIME_METRICS}
        names.update(COUNT_METRICS)
        return {name: {"value": statistics.median(
                    per.get(r, {}).get(name, 0.0) for r in rounds),
                       "unit": unit}
                for name, unit in names.items()}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "round"],
                       "spans": self.spans}, f)
