"""Span recorder for the traced benchmark run.

The recorder wraps public functions of every ``msfusion`` module, and the
CLI's ``_cmd_*`` subcommand bodies, with a timing shim from outside the
library (the ``TARGETS`` table): each name is replaced in every
``msfusion`` module namespace that binds it, so calls between modules and
calls from the CLI are both seen. Two methods are patched on their class.
Everything is restored by :meth:`Recorder.restore`.

A span is ``[name, start_ns, end_ns, parent_index, op_id, capture]``. The
capture is whatever the target's capture function returned: O(1) facts
such as lengths and shapes, or references to small objects that are turned
into counts after the op, outside every span.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, OP, CAPTURE = range(6)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _side(args, kwargs, out):
    return {"variant": f"s{_arg(args, kwargs, 0, 'vis').shape[-1]}"}


def _strip_macs(args, kwargs, out):
    x, k = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "kernel")
    kh, kw = k.shape[-2:]
    return {"macs": out.size * kh * kw, "bytes": 8 * (x.size + out.size + k.size)}


def _conv_macs(args, kwargs, out):
    x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "weight")
    _, fan_in, kh, kw = w.shape
    return {"macs": out.size * fan_in * kh * kw, "bytes": 8 * (x.size + out.size + w.size)}


def _pointwise_macs(args, kwargs, out):
    x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "weight")
    return {"macs": out.size * w.shape[1], "bytes": 8 * (x.size + out.size + w.size)}


def _temporal_macs(args, kwargs, out):
    vis, mlp2 = _arg(args, kwargs, 0, "vis"), _arg(args, kwargs, 4, "mlp2_weight")
    # The merged (C, 2S, FP) tensor times the (FP, FP) map: C * 2S * FP^2,
    # which is 2 * vis.size * FP; bytes are both inputs, both outputs, map.
    return {"macs": 2 * vis.size * mlp2.shape[0], "bytes": 8 * (4 * vis.size + mlp2.size)}


def _strategy(args, kwargs, out):
    vis, ir = _arg(args, kwargs, 0, "vis"), _arg(args, kwargs, 1, "ir")
    cfg = _arg(args, kwargs, 2, "cfg")
    return {"variant": cfg.strategy, "in": len(vis) + len(ir), "out": len(out)}


def _in_out(args, kwargs, out):
    return {"in": len(_arg(args, kwargs, 0, "dets")), "out": len(out)}


def _out_len(args, kwargs, out):
    return {"out": len(out)}


def _deferred(args, kwargs, out):
    return {"deferred": (args, kwargs, out)}


def _ciou_pairs(args, kwargs, out):
    return {"pairs": len(_arg(args, kwargs, 0, "dets")) * len(_arg(args, kwargs, 1, "gts"))}


def _reference(args, kwargs, out):
    return {"thermal": out.reference_modality == "ir"}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute, span name, capture). A dotted attribute is a method
# patched on its class. ``iou`` and ``ciou`` are called too often to wrap.
TARGETS = (
    ("msfusion.fusion", "fusion_forward", "fusion.fusion_forward", _side),
    ("msfusion.fusion", "dws_conv", "fusion.dws_conv", None),
    ("msfusion.fusion", "cascade_strip_mix", "fusion.cascade_strip_mix", None),
    ("msfusion.fusion", "gated_strip_mix", "fusion.gated_strip_mix", None),
    ("msfusion.fusion", "channel_mix", "fusion.channel_mix", None),
    ("msfusion.fusion", "temporal_fuse", "fusion.temporal_fuse", _temporal_macs),
    ("msfusion.fusion", "temporal_adaptive_conv", "fusion.temporal_adaptive_conv", None),
    ("msfusion.fusion", "strip_conv", "fusion.strip_conv", _strip_macs),
    ("msfusion.fusion", "conv2d_same", "fusion.conv2d_same", _conv_macs),
    ("msfusion.fusion", "pointwise_affine", "fusion.pointwise_affine", _pointwise_macs),
    ("msfusion.fusion", "global_response_norm", "fusion.global_response_norm", None),
    ("msfusion.fusion", "gelu", "fusion.gelu", None),
    ("msfusion.fusion", "FusionWeights.validate", "fusion.validate", None),
    ("msfusion.containers", "load_tensors", "containers.load_tensors", _file_bytes),
    ("msfusion.containers", "save_tensors", "containers.save_tensors", _file_bytes),
    ("msfusion.geometry", "nms", "geometry.nms", _in_out),
    ("msfusion.postprocess", "run_strategy", "postprocess.run_strategy", _strategy),
    ("msfusion.postprocess", "fuse_scale", "postprocess.fuse_scale", _deferred),
    ("msfusion.evaluation", "log_average_miss_rate", "evaluation.log_average_miss_rate", None),
    ("msfusion.evaluation", "miss_rate_curve", "evaluation.miss_rate_curve", _out_len),
    ("msfusion.evaluation", "match_frame", "evaluation.match_frame", _deferred),
    ("msfusion.evaluation", "apply_setting", "evaluation.apply_setting", None),
    ("msfusion.balance", "modality_alignment_loss", "balance.modality_alignment_loss", None),
    ("msfusion.balance", "reliability", "balance.reliability", _reference),
    ("msfusion.balance", "best_ciou_scores", "balance.best_ciou_scores", _ciou_pairs),
    ("msfusion.balance", "roi_align", "balance.roi_align", None),
    ("msfusion.balance", "cosine_matrix", "balance.cosine_matrix", None),
    ("msfusion.balance", "relation_matrix", "balance.relation_matrix", None),
    ("msfusion.balance", "kl_loss", "balance.kl_loss", None),
    ("msfusion.ingest", "ingest_detections", "ingest.ingest_detections", _out_len),
    ("msfusion.ingest", "load_manifest", "ingest.load_manifest", None),
    ("msfusion.ingest", "Manifest.load_records", "ingest.load_records", None),
    ("msfusion.ingest", "parse_annotation_text", "ingest.parse_annotation_text", None),
    ("msfusion.ingest", "attach_detections", "ingest.attach_detections", None),
    ("msfusion.ingest", "group_by_frame", "ingest.group_by_frame", None),
    ("msfusion.ingest", "serialize_detections", "ingest.serialize_detections", None),
    ("msfusion.ingest", "format_results", "ingest.format_results", None),
    ("msfusion.cli", "_cmd_forward", "cli.forward", None),
    ("msfusion.cli", "_cmd_fuse", "cli.fuse", None),
    ("msfusion.cli", "_cmd_eval", "cli.eval", None),
    ("msfusion.cli", "_cmd_reliability", "cli.reliability", None),
    ("msfusion.cli", "_cmd_kl_loss", "cli.kl_loss", None),
)


class Recorder:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn, capture):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if capture is not None:
                span[CAPTURE] = capture(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every target in every ``msfusion`` namespace binding it.

        Targets the library no longer defines are listed in ``missing``;
        their metrics read 0.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "msfusion"]
        missing = []
        for module_name, attr, span_name, capture in TARGETS:
            owner = sys.modules[module_name]
            *cls_name, name = attr.split(".")
            if cls_name:
                owner = getattr(owner, cls_name[0], None)
            original = getattr(owner, "__dict__", {}).get(name)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, original, capture)
            for namespace in [owner] if cls_name else modules:
                if namespace.__dict__.get(name) is original:
                    self._patched.append((namespace, name, original))
                    setattr(namespace, name, wrapper)
        self.missing = missing

    def restore(self) -> None:
        """Put every original object back, in reverse patch order."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path: Path) -> None:
        """Write spans as JSON lines (captures reduced to plain counts)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, capture in self.spans:
                plain = {
                    k: v for k, v in (capture or {}).items() if isinstance(v, (int, str, bool))
                }
                fh.write(json.dumps([name, start, end, parent, op, plain]) + "\n")


def self_times(spans: list[list], base: int = 0) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children count once).

    ``spans`` may be a slice of a longer record starting at index ``base``;
    parent indices always refer to the full record.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        children[span[PARENT] - base].append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[idx]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _resolve_deferred(span) -> dict:
    """Counts for captures that keep references until the op has ended."""
    capture = span[CAPTURE]
    if not capture or "deferred" not in capture:
        return capture or {}
    args, kwargs, out = capture["deferred"]
    if span[NAME] == "postprocess.fuse_scale":
        vis, ir = _arg(args, kwargs, 0, "vis"), _arg(args, kwargs, 1, "ir")
        cfg = _arg(args, kwargs, 2, "cfg")
        kept_v: dict[str, int] = defaultdict(int)
        kept_t: dict[str, int] = defaultdict(int)
        for d in vis:
            kept_v[d.frame_id] += d.score >= cfg.conf_threshold_v
        for d in ir:
            kept_t[d.frame_id] += d.score >= cfg.conf_threshold_t
        tested = sum(n * kept_t.get(f, 0) for f, n in kept_v.items())
        return {"tested": tested, "fused": len(out)}
    # evaluation.match_frame
    flags = [flag for _, flag in out.outcomes]
    return {
        "tp": out.tp,
        "fp": out.fp,
        "misses": out.misses,
        "ignored": flags.count("ignored"),
        "outcomes": len(flags),
    }


def op_summary(spans: list[list], base: int = 0) -> dict:
    """Per-name totals of one op (``spans`` as for :func:`self_times`):
    inclusive ns, self ns, calls and the sum of every numeric capture
    field; variants are kept per name too."""
    selfs = self_times(spans, base)
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for span, self_ns in zip(spans, selfs):
        capture = span[CAPTURE] = _resolve_deferred(span)
        keys = [span[NAME]]
        if "variant" in capture:
            keys.append(f"{span[NAME]}.{capture['variant']}")
        for key in keys:
            entry = totals[key]
            entry["incl_ns"] += span[END] - span[START]
            entry["self_ns"] += self_ns
            entry["calls"] += 1
            for field, value in capture.items():
                if isinstance(value, (bool, int)) and field != "variant":
                    entry[field] += int(value)
    return {k: dict(v) for k, v in totals.items()}


def _get(summary: dict, name: str, field: str) -> float:
    return float(summary.get(name, {}).get(field, 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _seconds(summary, name):
    return _get(summary, name, "incl_ns") / 1e9


def _self_seconds(summary, name):
    return _get(summary, name, "self_ns") / 1e9


# Spans whose captures carry computed MACs and bytes.
_KERNELS = ("fusion.strip_conv", "fusion.conv2d_same", "fusion.pointwise_affine", "fusion.temporal_fuse")


def layer_metrics(summary: dict, nonfinite: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one op as name -> (value, unit).

    ``nonfinite`` is counted by the benchmark outside spans: non-finite
    values in the op's fusion outputs.
    """
    s, c = "s", "count"
    m: dict[str, tuple[float, str]] = {}
    for side in ("s80", "s40", "s20"):
        m[f"fusion.fusion_forward.{side}_s"] = (_seconds(summary, f"fusion.fusion_forward.{side}"), s)
    for block in ("dws_conv", "cascade_strip_mix", "gated_strip_mix", "channel_mix",
                  "temporal_fuse", "temporal_adaptive_conv"):
        m[f"fusion.{block}_s"] = (_seconds(summary, f"fusion.{block}"), s)
    for leaf in ("strip_conv", "conv2d_same", "pointwise_affine", "global_response_norm",
                 "gelu", "validate"):
        m[f"fusion.{leaf}.self_s"] = (_self_seconds(summary, f"fusion.{leaf}"), s)
    m["fusion.conv2d_same.calls"] = (_get(summary, "fusion.conv2d_same", "calls"), c)
    m["fusion.nonfinite"] = (float(nonfinite), c)
    macs = sum(_get(summary, n, "macs") for n in _KERNELS)
    fusion_s = _seconds(summary, "fusion.fusion_forward") + _seconds(
        summary, "fusion.temporal_adaptive_conv"
    )
    m["fusion.macs"] = (macs, "computed_MAC")
    m["fusion.bytes"] = (sum(_get(summary, n, "bytes") for n in _KERNELS), "computed_B")
    m["fusion.gmacs_per_s"] = (_ratio(macs / 1e9, fusion_s), "computed_GMAC/s")

    m["containers.load_tensors_s"] = (_seconds(summary, "containers.load_tensors"), s)
    m["containers.save_tensors_s"] = (_seconds(summary, "containers.save_tensors"), s)
    m["containers.bytes_read"] = (_get(summary, "containers.load_tensors", "bytes"), "B")
    m["containers.bytes_written"] = (_get(summary, "containers.save_tensors", "bytes"), "B")

    nms_in = _get(summary, "geometry.nms", "in")
    nms_kept = _get(summary, "geometry.nms", "out")
    m["geometry.nms_s"] = (_seconds(summary, "geometry.nms"), s)
    m["geometry.nms.calls"] = (_get(summary, "geometry.nms", "calls"), c)
    m["geometry.nms.in"] = (nms_in, c)
    m["geometry.nms.kept"] = (nms_kept, c)
    m["geometry.nms.kept_ratio"] = (_ratio(nms_kept, nms_in), "ratio")

    for strategy in ("vis", "ir", "both", "algo1"):
        m[f"postprocess.run_strategy.{strategy}_s"] = (
            _seconds(summary, f"postprocess.run_strategy.{strategy}"), s)
    tested = _get(summary, "postprocess.fuse_scale", "tested")
    fused = _get(summary, "postprocess.fuse_scale", "fused")
    m["postprocess.fuse_scale_s"] = (_seconds(summary, "postprocess.fuse_scale"), s)
    m["postprocess.fuse_scale.pairs_tested"] = (tested, c)
    m["postprocess.fuse_scale.pairs_fused"] = (fused, c)
    m["postprocess.fuse_scale.fused_ratio"] = (_ratio(fused, tested), "ratio")
    m["postprocess.dets_in"] = (_get(summary, "postprocess.run_strategy", "in"), c)
    m["postprocess.dets_out"] = (_get(summary, "postprocess.run_strategy", "out"), c)

    m["evaluation.log_average_miss_rate_s"] = (
        _seconds(summary, "evaluation.log_average_miss_rate"), s)
    m["evaluation.miss_rate_curve.self_s"] = (
        _self_seconds(summary, "evaluation.miss_rate_curve"), s)
    m["evaluation.match_frame_s"] = (_seconds(summary, "evaluation.match_frame"), s)
    m["evaluation.apply_setting_s"] = (_seconds(summary, "evaluation.apply_setting"), s)
    m["evaluation.match_frame.calls"] = (_get(summary, "evaluation.match_frame", "calls"), c)
    m["evaluation.outcomes"] = (_get(summary, "evaluation.match_frame", "outcomes"), c)
    m["evaluation.thresholds"] = (_get(summary, "evaluation.miss_rate_curve", "out"), c)
    for field in ("tp", "fp", "ignored", "misses"):
        m[f"evaluation.{field}"] = (_get(summary, "evaluation.match_frame", field), c)

    for fn in ("modality_alignment_loss", "reliability", "best_ciou_scores", "roi_align",
               "cosine_matrix", "relation_matrix", "kl_loss"):
        m[f"balance.{fn}_s"] = (_seconds(summary, f"balance.{fn}"), s)
    m["balance.best_ciou_scores.calls"] = (_get(summary, "balance.best_ciou_scores", "calls"), c)
    m["balance.best_ciou_scores.pairs"] = (_get(summary, "balance.best_ciou_scores", "pairs"), c)
    m["balance.roi_align.calls"] = (_get(summary, "balance.roi_align", "calls"), c)
    m["balance.thermal_reference_ratio"] = (
        _ratio(_get(summary, "balance.reliability", "thermal"),
               _get(summary, "balance.reliability", "calls")), "ratio")

    for fn in ("ingest_detections", "load_manifest", "load_records", "parse_annotation_text",
               "attach_detections", "group_by_frame", "serialize_detections", "format_results"):
        m[f"ingest.{fn}_s"] = (_seconds(summary, f"ingest.{fn}"), s)
    m["ingest.detection_lines"] = (_get(summary, "ingest.ingest_detections", "out"), c)
    m["ingest.annotation_files"] = (_get(summary, "ingest.parse_annotation_text", "calls"), c)

    for cmd in ("forward", "fuse", "eval", "reliability", "kl_loss"):
        m[f"cli.{cmd}_s"] = (_seconds(summary, f"cli.{cmd}"), s)
        m[f"cli.{cmd}.self_s"] = (_self_seconds(summary, f"cli.{cmd}"), s)
    return m


def median_metrics(per_op: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    """Median over ops of each per-layer metric."""
    return {
        name: (statistics.median(op[name][0] for op in per_op), unit)
        for name, (_, unit) in per_op[0].items()
    }
