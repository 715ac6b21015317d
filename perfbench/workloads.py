"""The benchmark's three workloads: the op each one times, and the checks
run on its outputs outside the timed region.

Ops drive the real CLI in-process through ``msfusion.cli.main``. Library
functions are looked up on their module at call time, so the traced run
sees the patched versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import generate
from timing import StepTimer
from msfusion import cli, containers, fusion
from msfusion.containers import load_tensors  # untraced binding, for checks
from msfusion.evaluation import STANDARD_SETTINGS, GroundTruthBox, apply_setting, match_frame
from msfusion.geometry import SCALES, BBox, Detection

TADA_TENSORS = (
    "tada_base_weight",
    "tada_base_bias",
    "tada_conv1_weight",
    "tada_conv1_bias",
    "tada_conv2_weight",
    "tada_conv2_bias",
    "tada_fc_weight",
    "tada_fc_bias",
)
# CLI defaults the fuse and eval checks recompute with the oracles.
CONF_V = CONF_T = 0.2
IOU_THRES = 0.5
NMS_THRES = 0.45
EVAL_SETTINGS = ("reasonable", "all")
SPLITS = ("all", "day", "night")
SAMPLED_FRAMES = 40

class OpFailed(Exception):
    """A subcommand exited nonzero."""


def run_cli(*argv) -> str:
    """Run one subcommand in-process; return its stdout, raise on nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"msfusion {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_detections(path: Path) -> list[Detection]:
    """Detection dump parsed by the benchmark itself, not by ``ingest``."""
    dets = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        fid, modality, scale, *nums = line.split()
        x0, y0, x1, y1, score = map(float, nums)
        dets.append(Detection(BBox(x0, y0, x1, y1), score, modality, scale, fid))
    return dets


def read_annotations(path: Path) -> list[GroundTruthBox]:
    occlusion = ("none", "partial", "heavy")
    gts = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        label, x, y, w, h, occ, *_ = line.split()
        x, y, w, h = map(float, (x, y, w, h))
        gts.append(GroundTruthBox(BBox(x, y, x + w, y + h), occlusion[int(occ)], label != "person"))
    return gts


def _as_rows(dets) -> list[tuple]:
    return [
        (d.frame_id, d.scale_id, d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max, d.score)
        for d in dets
    ]


def _greedy_strategy_ref(oracles, vis, ir, strategy):
    """run_strategy_ref with its NMS replaced by a greedy walk over
    ``iou_ref``: the same suppression rule (IoU strictly above the
    threshold against an earlier kept box, stable score order) at
    O(n * kept) instead of nms_ref's full n x n overlap matrix, which takes
    tens of seconds on the ~5,000 fused boxes of a crowded frame."""
    if strategy == "algo1":
        pooled = []
        for scale in sorted({d.scale_id for d in vis} | {d.scale_id for d in ir}):
            vs = [d for d in vis if d.scale_id == scale]
            ts = [d for d in ir if d.scale_id == scale]
            for frame, _, _, hull, conf in oracles.fuse_scale_ref(vs, ts, CONF_V, CONF_T, IOU_THRES):
                pooled.append(Detection(hull, conf, "fused", scale, frame))
    else:
        pooled = {"vis": list(vis), "ir": list(ir), "both": list(vis) + list(ir)}[strategy]
    grouped: dict[str, list[Detection]] = {}
    for d in pooled:
        grouped.setdefault(d.frame_id, []).append(d)
    out = []
    for frame in sorted(grouped):
        dets = grouped[frame]
        kept: list[Detection] = []
        for i in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)):
            if all(oracles.iou_ref(dets[i].box, k.box) <= NMS_THRES for k in kept):
                kept.append(dets[i])
        out.extend(kept)
    return out


def _check_strategy(reference, raw, fused_path, strategy, frames, errors):
    """Fuse output on ``frames`` must equal ``reference(vis, ir, strategy)``
    exactly, order included."""
    chosen = set(frames)
    vis = [d for d in raw if d.frame_id in chosen and d.modality == "vis"]
    ir = [d for d in raw if d.frame_id in chosen and d.modality == "ir"]
    expected = reference(vis, ir, strategy)
    got = [d for d in read_detections(fused_path) if d.frame_id in chosen]
    if _as_rows(got) != _as_rows(expected):
        errors.append(
            f"fuse --strategy {strategy}: {len(got)} detections on sampled frames "
            f"differ from the oracle's {len(expected)}"
        )


def _check_reliability(oracles, raw, gts_by_frame, report_path, n_top, errors):
    """Recompute r_v / r_t from ciou_ref for every frame given, and the
    thermal percentage from the report's own lines."""
    lines = report_path.read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines:
        if not line.startswith("#"):
            fid, scale, r_v, r_t, ref = line.split("\t")
            rows[(fid, scale)] = (float(r_v), float(r_t), ref)
    thermal = [float(x.split("=")[1]) for x in lines if x.startswith("# thermal_percent")]
    share = 100.0 * sum(r[2] == "ir" for r in rows.values()) / max(len(rows), 1)
    if len(thermal) != 1 or not math.isclose(thermal[0], share, abs_tol=1e-9):
        errors.append(f"reliability: thermal_percent {thermal} vs {share} from its rows")

    def top_mean(dets, gts):
        scores = sorted((max(oracles.ciou_ref(d.box, g) for g in gts) for d in dets), reverse=True)
        k = min(n_top, len(scores))
        return sum(scores[:k]) / k if k else 0.0

    by_frame: dict[str, list[Detection]] = {}
    for d in raw:
        by_frame.setdefault(d.frame_id, []).append(d)
    for fid, gts in gts_by_frame.items():
        boxes = [g.box for g in gts if not g.ignore]
        if not boxes:
            continue
        for scale in SCALES:
            dets = [d for d in by_frame.get(fid, []) if d.scale_id == scale]
            vis = [d for d in dets if d.modality == "vis"]
            ir = [d for d in dets if d.modality == "ir"]
            overlaps = any(oracles.iou_ref(d.box, b) > 0.0 for d in vis + ir for b in boxes)
            row = rows.get((fid, scale))
            if not overlaps:
                if row is not None:
                    errors.append(f"reliability: unexpected row for {fid} {scale}")
                continue
            r_v, r_t = top_mean(vis, boxes), top_mean(ir, boxes)
            if (
                row is None
                or not math.isclose(row[0], r_v, rel_tol=1e-9, abs_tol=1e-12)
                or not math.isclose(row[1], r_t, rel_tol=1e-9, abs_tol=1e-12)
                or row[2] != ("ir" if r_t > r_v else "vis")
            ):
                errors.append(f"reliability: {fid} {scale} gives {row}, oracle ({r_v}, {r_t})")


class Workload:
    """One op over pre-generated inputs, plus the checks on its outputs."""

    name = ""
    steps: tuple[str, ...] = ()

    def __init__(self, files: dict, seed: int):
        self.files = files
        self.seed = seed
        self.frames_per_op = files["frames_per_op"]

    def op(self, timer: StepTimer) -> dict:
        """Run one op, every part of it inside a ``timer`` step; return the
        outputs that stay in memory."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run every code path of the op once before timing starts."""
        self.op(StepTimer())

    def output_files(self) -> list[Path]:
        raise NotImplementedError

    def digests(self, arrays: dict) -> dict[str, str]:
        """Fingerprint of everything the op produced, for the repeat check."""
        out = {p.name: _digest(p.read_bytes()) for p in self.output_files()}
        out.update({k: _digest(np.ascontiguousarray(v).tobytes()) for k, v in arrays.items()})
        return out

    def nonfinite(self, arrays: dict) -> int:
        return 0

    def check(self, oracles) -> list[str]:
        """Oracle checks on the files the last op wrote; returns errors."""
        raise NotImplementedError


class PyramidForward(Workload):
    name = "pyramid_forward"
    steps = ("forward_s", "tada_load_s", "tada_s")

    def op(self, timer, scales=("s80", "s40", "s20")):
        arrays = {}
        for scale in scales:
            f = self.files["scales"][scale]
            with timer.step("forward_s"):
                run_cli("forward", "--weights", f["weights"], "--input", f["input"],
                        "--out", f["fused"])
            with timer.step("tada_load_s"):
                fused = containers.load_tensors(f["fused"], containers.TENSORS_MAGIC)
                weights = containers.load_tensors(f["weights"], containers.WEIGHTS_MAGIC)
                tada = [weights[name] for name in TADA_TENSORS]
            for modality in ("vis", "ir"):
                with timer.step("tada_s"):
                    arrays[f"tada_{scale}_{modality}"] = fusion.temporal_adaptive_conv(
                        fused[modality], *tada
                    )
        return arrays

    def warm_up(self):
        # The smallest scale runs every code path of the op in a tenth of its time.
        self.op(StepTimer(), scales=("s20",))

    def output_files(self):
        return [f["fused"] for f in self.files["scales"].values()]

    def nonfinite(self, arrays):
        bad = sum(int(np.count_nonzero(~np.isfinite(a))) for a in arrays.values())
        for path in self.output_files():
            for tensor in load_tensors(path).values():
                bad += int(np.count_nonzero(~np.isfinite(tensor)))
        return bad

    def check(self, oracles):
        f = self.files["scales"]["s20"]
        inputs = load_tensors(f["input"])
        weights = load_tensors(f["weights"])
        got = load_tensors(f["fused"])
        ref_vis, ref_ir = oracles.reference_forward(
            inputs["vis"], inputs["ir"], weights, generate.CHANNELS
        )
        errors = []
        for name, ref in (("vis", ref_vis), ("ir", ref_ir)):
            diff = float(np.max(np.abs(got[name] - ref)))
            if not np.allclose(got[name], ref, rtol=1e-5, atol=1e-5):
                errors.append(f"forward s20 {name}: max |diff| {diff:.3g} vs reference_forward")
        return errors


class KaistCorpus(Workload):
    name = "kaist_corpus"
    steps = ("fuse_s", "eval_s", "reliability_s")

    def op(self, timer):
        f = self.files
        settings = [arg for s in EVAL_SETTINGS for arg in ("--setting", s)]
        with timer.step("fuse_s"):
            run_cli("fuse", "--detections", f["detections"], "--strategy", "algo1",
                    "--out", f["fused"])
        with timer.step("eval_s"):
            run_cli("eval", "--detections", f["fused"], "--manifest", f["manifest"], *settings,
                    "--out", f["eval"])
        with timer.step("reliability_s"):
            run_cli("reliability", "--detections", f["detections"], "--manifest", f["manifest"],
                    "--out", f["reliability"])
        return {}

    def warm_up(self):
        # fuse alone loads the library's ingest and post-processing paths and
        # the input files into the page cache in a sixth of the op's time;
        # eval and reliability keep no lazy state to warm.
        run_cli("fuse", "--detections", self.files["detections"], "--strategy", "algo1",
                "--out", self.files["fused"])

    def output_files(self):
        return [self.files["fused"], self.files["eval"], self.files["reliability"]]

    def check(self, oracles):
        f = self.files
        errors: list[str] = []
        root = f["manifest"].parent
        frames = json.loads(f["manifest"].read_text(encoding="utf-8"))["frames"]
        gts = {fr["frame_id"]: read_annotations(root / fr["annotations"]) for fr in frames}
        tod = {fr["frame_id"]: fr["time_of_day"] for fr in frames}
        rng = np.random.default_rng([self.seed, 1])
        sample = sorted(rng.choice(sorted(gts), size=SAMPLED_FRAMES, replace=False).tolist())
        raw = read_detections(f["detections"])
        def reference(vis, ir, strategy):
            return oracles.run_strategy_ref(
                vis, ir, strategy, CONF_V, CONF_T, IOU_THRES, NMS_THRES
            )

        _check_strategy(reference, raw, f["fused"], "algo1", sample, errors)

        fused = read_detections(f["fused"])
        for fid in sample:
            dets = [d for d in fused if d.frame_id == fid]
            for name in EVAL_SETTINGS:
                setting = STANDARD_SETTINGS[name]
                evaluated, ignored = apply_setting(gts[fid], setting)
                res = match_frame(dets, evaluated, ignored, setting.match_iou)
                ref = oracles.match_frame_ref(dets, evaluated, ignored, setting.match_iou)
                if (res.tp, res.fp, res.misses) != ref:
                    errors.append(f"match_frame {fid} {name}: {res.tp, res.fp, res.misses} vs {ref}")

        rows = [
            line.split("\t")
            for line in f["eval"].read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#") and not line.startswith("setting\t")
        ]
        expected = []
        for name in EVAL_SETTINGS:
            setting = STANDARD_SETTINGS[name]
            for split in SPLITS:
                num_gt = sum(
                    setting.admits(g)
                    for fid, boxes in gts.items()
                    if split == "all" or tod[fid] == split
                    for g in boxes
                )
                expected.append((name, split, str(num_gt)))
        got = [(r[0], r[1], r[4]) for r in rows]
        if got != expected:
            errors.append(f"eval rows {got} vs expected settings/splits/num_gt {expected}")
        for r in rows:
            if not 0.0 <= float(r[3]) <= 100.0:
                errors.append(f"eval: miss rate {r[3]} out of range")

        _check_reliability(
            oracles, raw, {fid: gts[fid] for fid in sample}, f["reliability"], 300, errors
        )
        return errors


class CrowdFrames(Workload):
    name = "crowd_frames"
    steps = ("fuse_s", "kl_loss_s", "reliability_s")

    def op(self, timer):
        f = self.files
        for strategy, out in f["fused"].items():
            with timer.step("fuse_s"):
                run_cli("fuse", "--detections", f["detections"], "--strategy", strategy,
                        "--out", out)
        with timer.step("kl_loss_s"):
            run_cli("kl-loss", "--features", f["features"], "--detections", f["detections"],
                    "--annotations", f["annotations"], "--scale", "s80",
                    "--n-top", generate.CROWD["n_top"], "--out", f["kl"])
        with timer.step("reliability_s"):
            run_cli("reliability", "--detections", f["detections"], "--manifest", f["manifest"],
                    "--out", f["reliability"])
        return {}

    def output_files(self):
        return [*self.files["fused"].values(), self.files["kl"], self.files["reliability"]]

    def check(self, oracles):
        f = self.files
        errors: list[str] = []
        raw = read_detections(f["detections"])
        frames = [f["frame_id"]]
        for strategy, out in f["fused"].items():
            _check_strategy(
                lambda v, i, s: _greedy_strategy_ref(oracles, v, i, s),
                raw, out, strategy, frames, errors,
            )

        gts = read_annotations(f["annotations"])
        boxes = [g.box for g in gts if not g.ignore]
        maps = load_tensors(f["features"])
        vis = [d for d in raw if d.scale_id == "s80" and d.modality == "vis"]
        ir = [d for d in raw if d.scale_id == "s80" and d.modality == "ir"]
        n_top = generate.CROWD["n_top"]
        r_v, r_t, loss = oracles.alignment_loss_ref(
            vis, ir, boxes, maps["vis"], maps["ir"], n_top, 8.0
        )
        report = dict(
            line.split(" = ", 1) for line in f["kl"].read_text(encoding="utf-8").splitlines()
        )
        for key, ref in (("kl_loss", loss), ("r_v", r_v), ("r_t", r_t)):
            if not math.isclose(float(report[key]), ref, rel_tol=1e-6, abs_tol=1e-6):
                errors.append(f"kl-loss {key} {report[key]} vs alignment_loss_ref {ref}")

        _check_reliability(
            oracles, raw, {f["frame_id"]: gts}, f["reliability"], 300, errors
        )
        return errors


WORKLOADS = {w.name: w for w in (PyramidForward, KaistCorpus, CrowdFrames)}
