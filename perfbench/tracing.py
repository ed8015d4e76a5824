"""Span tracing of mvdet's public calls, installed from outside the package.

While a ``Tracer`` is installed, every module attribute of mvdet that is one
of the traced public functions is replaced by a wrapper that records a span
(name, start, end, parent span) into an in-memory list.  Patching by object
identity catches both the benchmark's own calls and the package's internal
calls through imported names (``decoder.sample_multiview_many`` is the same
function object as ``featcore.sample_multiview_many``).  ``Mlp.jacobian`` is
recorded as the span ``decoder.mlp_jacobian``.  ``Mlp.__call__`` is recorded
as a mark (a timestamp, not a span): the decoder stage boundaries are
cut at the marks of each layer's offset and feed-forward nets.

A span's busy time is its duration minus the durations of its child spans
(its self time).  Nothing is patched while no tracer is installed, so the
untraced run executes the package exactly as shipped.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

from mvdet import augment, camgeo, decoder, featcore, matching, metrics, synth
from workloads import ref_spread_m

MODULES = (camgeo, featcore, decoder, matching, metrics, augment, synth)


# name -> (function, note).  A note extracts a small record from the call
# after its span has closed; heavier counters are derived after the operation.
TRACED = {
    "camgeo.project_points": (camgeo.project_points, lambda a, k, r: len(r[1])),
    "camgeo.classify_regions": (camgeo.classify_regions, lambda a, k, r: len(a[0])),
    "camgeo.load_rig": (camgeo.load_rig, None),
    "featcore.sample_multiview_many": (
        featcore.sample_multiview_many,
        lambda a, k, r: (a[2], a[1], r[1], a[0].camera_count * a[0].level_count),
    ),
    "featcore.bilinear_sample_many": (featcore.bilinear_sample_many, lambda a, k, r: len(r[1])),
    "featcore.bilinear_grad": (featcore.bilinear_grad, None),
    "featcore.load_pyramid": (featcore.load_pyramid, lambda a, k, r: a[0]),
    "featcore.save_pyramid": (featcore.save_pyramid, lambda a, k, r: r),
    "decoder.decoder_forward": (decoder.decoder_forward, lambda a, k, r: r[1]),
    "decoder.self_attention": (decoder.self_attention, None),
    "decoder.decode_predictions": (decoder.decode_predictions, None),
    "decoder.grad_check": (decoder.grad_check, None),
    "matching.match_cost": (matching.match_cost, None),
    "matching.hungarian": (matching.hungarian, None),
    "matching.focal_loss": (matching.focal_loss, None),
    "matching.l1_reg_loss": (matching.l1_reg_loss, None),
    "matching.set_loss": (matching.set_loss, None),
    "metrics.evaluate_region_split": (metrics.evaluate_region_split, None),
    "metrics.evaluate": (metrics.evaluate, None),
    "metrics.ap_at_threshold": (metrics.ap_at_threshold, None),
    "metrics.match_detections": (metrics.match_detections, None),
    "metrics.tp_errors": (metrics.tp_errors, None),
    "augment.apply_transform": (augment.apply_transform, None),
    "synth.render_pyramid": (synth.render_pyramid, None),
    "synth.gen_objects": (synth.gen_objects, None),
    "synth.perturb_predictions": (synth.perturb_predictions, None),
}
# Functions whose note is a size: the metric suffix it is reported under.
COUNTED = {
    "camgeo.project_points": "points",
    "camgeo.classify_regions": "boxes",
    "featcore.bilinear_sample_many": "positions",
}

LAYERS = 6
STAGES = ("self_attention", "ref_decode", "graph_predict", "aggregate_reduce", "ffn")

# Per-layer metric names and units, in report order, as BENCHMARK.json lists
# them.  Times are busy (self) seconds per operation; every other value is an
# exact count or share.
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")) as _fh:
    LAYER_METRICS = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}


class Tracer:
    """Collects spans and marks of traced groups (setup repetitions and
    operations).  A span is (name, start, end, parent index, note); parent -1
    is the group's root."""

    def __init__(self):
        self.spans: list = []
        self.marks: list = []
        self.groups: list = []  # (kind, index, first span, end span, first mark, end mark, start, end)
        self._stack = [-1]

    def _wrap(self, fn, name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, t0, clock(), stack[-2], None)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (name, t0, t1, stack[-1], note(args, kwargs, result) if note else None)
            return result

        return traced

    @contextmanager
    def group(self, kind: str, index: int):
        """Install the wrappers for one setup repetition or operation."""
        originals = []
        for name, (fn, note) in TRACED.items():
            wrapper = self._wrap(fn, name, note)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        originals.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        mlp_call, mlp_jacobian = decoder.Mlp.__call__, decoder.Mlp.jacobian
        marks, clock = self.marks, time.perf_counter

        def marked_call(mlp, x):
            marks.append((clock(), id(mlp)))
            return mlp_call(mlp, x)

        decoder.Mlp.__call__ = marked_call
        decoder.Mlp.jacobian = self._wrap(mlp_jacobian, "decoder.mlp_jacobian", None)
        first_span, first_mark = len(self.spans), len(self.marks)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            decoder.Mlp.__call__, decoder.Mlp.jacobian = mlp_call, mlp_jacobian
            for mod, attr, value in reversed(originals):
                setattr(mod, attr, value)
            self.groups.append(
                (kind, index, first_span, len(self.spans), first_mark, len(self.marks), start, end)
            )

    def write(self, path: str) -> None:
        """One line per span: group kind, group index, span id, parent id,
        name, start and end in seconds from the group start."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("group\tindex\tspan\tparent\tname\tstart_s\tend_s\n")
            for kind, index, lo, hi, _, _, start, _ in self.groups:
                for i in range(lo, hi):
                    name, t0, t1, parent, _ = self.spans[i]
                    fh.write(f"{kind}\t{index}\t{i}\t{parent}\t{name}\t{t0 - start:.9f}\t{t1 - start:.9f}\n")

    # -- derived per-group values -------------------------------------------

    def group_values(self, group, mlp_roles: dict) -> dict:
        """Busy times, counts and shares of one group."""
        kind, index, lo, hi, mlo, mhi, start, end = group
        spans = self.spans[lo:hi]
        child_time = [0.0] * len(spans)
        out: dict = {"trace.accounted_s": 0.0}
        for name, t0, t1, parent, _ in spans:
            if parent >= lo:
                child_time[parent - lo] += t1 - t0
            else:
                out["trace.accounted_s"] += t1 - t0

        def add(key, value):
            out[key] = out.get(key, 0) + value

        pairs = attempted = 0
        node_sets = []
        for i, (name, t0, t1, parent, note) in enumerate(spans):
            add(f"{name}.s", t1 - t0 - child_time[i])
            add(f"{name}.calls", 1)
            if note is None:
                continue
            if name in COUNTED:
                add(f"{name}.{COUNTED[name]}", note)
            elif name == "featcore.sample_multiview_many":
                points, rig, counts, pairs_per_point = note
                points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
                add(f"{name}.points", len(points))
                pairs += int(counts.sum())
                attempted += len(points) * pairs_per_point
                node_sets.append((points, rig))
            elif name in ("featcore.load_pyramid", "featcore.save_pyramid"):
                add(f"{name}.bytes", _pyramid_bytes(note))
            elif name == "decoder.decoder_forward":
                for li, refs in enumerate(note):
                    out[f"decoder.ref_spread_m.layer{li}"] = ref_spread_m(refs)
                self._stages(spans, lo, i, self.marks[mlo:mhi], mlp_roles, add)
        if attempted:
            out["featcore.visible_pair_frac"] = pairs / attempted
        if node_sets:
            seen = np.concatenate([camgeo.visible_counts(p, rig) for p, rig in node_sets])
            out["featcore.node_cameras.0"] = float(np.mean(seen == 0))
            out["featcore.node_cameras.1"] = float(np.mean(seen == 1))
            out["featcore.node_cameras.2plus"] = float(np.mean(seen >= 2))
        return out

    @staticmethod
    def _stages(spans, lo, fwd, marks, mlp_roles, add):
        """Cut one decoder_forward span into layers and stages.

        A layer runs from its self-attention call to the next layer's (or
        the end of the pass); within it, reference decoding ends at the
        offset net's call, graph prediction at the sampling call, and
        aggregation (minus sampling) at the feed-forward net's call.
        """
        _, f0, f1, _, _ = spans[fwd]
        attn = [s for s in spans if s[3] == lo + fwd and s[0] == "decoder.self_attention"]
        sampled = [s for s in spans if s[3] == lo + fwd and s[0] == "featcore.sample_multiview_many"]
        cuts = {"offset_net": [], "ffn": []}
        for t, key in marks:
            role = mlp_roles.get(key)
            if role in cuts and f0 <= t <= f1:
                cuts[role].append(t)
        for li, (_, a0, a1, _, _) in enumerate(attn):
            layer_end = attn[li + 1][1] if li + 1 < len(attn) else f1
            off, ffn = cuts["offset_net"][li], cuts["ffn"][li]
            _, s0, s1, _, _ = sampled[li]
            add("decoder.ref_decode.s", off - a1)
            add("decoder.graph_predict.s", s0 - off)
            add("decoder.aggregate_reduce.s", ffn - s1)
            add("decoder.ffn.s", layer_end - ffn)
            add(f"decoder.layer{li}.s", layer_end - a0)


def _pyramid_bytes(manifest_path) -> int:
    base = os.path.dirname(os.path.abspath(manifest_path))
    return sum(os.path.getsize(os.path.join(base, f)) for f in os.listdir(base) if f.endswith(".gdt3"))


def layer_report(tracer: Tracer, mlp_roles: dict, extras: dict, untraced: list, traced: list):
    """Per-layer metrics of a traced run, and its time accounting.

    Busy times are the median over traced operations; counts and shares come
    from the first traced operation, so they repeat exactly for one seed.
    Names never seen in an operation fall back to the setup repetitions
    (for example the pyramid rendering of scene-decode).  A name the workload
    never calls is reported as its measured value, 0: every traced run
    reports every per-layer metric, and a zero there marks the workload as
    a control for that layer.

    The accounting compares, operation by operation, the untraced time with
    the traced time (the difference is the tracing overhead) and with the
    time the traced operation's top-level spans cover (``accounted_s``);
    ``span_coverage`` is that covered time over the traced time.
    """
    per_kind: dict = {"op": [], "setup": []}
    for group in tracer.groups:
        per_kind[group[0]].append(tracer.group_values(group, mlp_roles))
    values = {}
    for name, unit in LAYER_METRICS.items():
        for kind in ("op", "setup"):
            seen = [g[name] for g in per_kind[kind] if name in g]
            if seen:
                values[name] = statistics.median(seen) if unit == "s" else per_kind[kind][0].get(name, 0)
                break
        else:
            values[name] = 0
    values.update(extras)
    values["trace.untraced_op_s.p50"] = statistics.median(untraced)
    values["trace.traced_op_s.p50"] = statistics.median(traced)
    accounted = [g["trace.accounted_s"] for g in per_kind["op"]]
    accounting = {
        "overhead_s": statistics.median(t - u for t, u in zip(traced, untraced)),
        "untraced_minus_accounted_s": statistics.median(u - a for u, a in zip(untraced, accounted)),
        "span_coverage": statistics.median(a / t for a, t in zip(accounted, traced)),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    return metrics, accounting
