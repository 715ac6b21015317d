"""Seeded synthetic inputs for the three benchmark workloads.

Every file is a pure function of (workload, seed): the same seed gives
byte-identical files. Numbers are written with fixed decimal places and
tensors through ``msfusion.containers.save_tensors``, the format the CLI
reads. Nothing here is timed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Paper scales: feature-map side and box stride for each detection head.
PYRAMID_SIDES = {"s80": 80, "s40": 40, "s20": 20}
FRAMES = 3
CHANNELS = 64
PATCH_SIZE = 4
CASCADE_GROUPS = 4
IMAGE_W, IMAGE_H = 640, 512
SCALES = ("s80", "s40", "s20")
MODALITIES = ("vis", "ir")

KAIST = {
    "groups": 200,
    "frames_per_group": 3,
    "frame_stride": 2,
    "night_every": 3,  # every third group is night: 2:1 day:night
    "persons_per_frame": (2, 6),  # inclusive range, mean 4
    "ignore_share": 0.1,
    "height_px": (20.0, 200.0),
    "hits_per_person": 1.2,  # Poisson mean per modality and scale
    "false_pos": 6.0,  # Poisson mean per modality and scale
}

CROWD = {
    "persons": 25,
    "candidates": 8,  # per person, modality and scale
    "false_pos": 50,  # per modality and scale
    "height_px": (60.0, 200.0),
    "n_top": 300,
    "feature_side": 80,  # s80 map of a 640 x 512 frame at stride 8
}

WORKLOADS = ("pyramid_forward", "kaist_corpus", "crowd_frames")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def fusion_weight_tensors(rng: np.random.Generator, side: int) -> dict[str, np.ndarray]:
    """Weights for one 64-channel fusion block on a (3, 64, side, side) map,
    forward and TAda tensors, with the layout ``FusionWeights.validate``
    expects (depthwise 11x11 channel mix, 4 cascade groups, patch size 4)."""
    c, half = CHANNELS, CHANNELS // 2
    fp = FRAMES * (side // PATCH_SIZE) ** 2
    two_s = 2 * PATCH_SIZE**2
    reduce = c // 4

    def w(*shape: int) -> np.ndarray:
        return rng.standard_normal(shape) * 0.1

    def b(*shape: int) -> np.ndarray:
        return rng.standard_normal(shape) * 0.01

    return {
        "dws_depth_vis": w(c, 3, 3),
        "dws_point_vis": w(c, c),
        "dws_point_bias_vis": b(c),
        "dws_depth_ir": w(c, 3, 3),
        "dws_point_ir": w(c, c),
        "dws_point_bias_ir": b(c),
        "mlp1_weight": w(c, c),
        "mlp1_bias": b(c),
        "cascade_row_kernels": w(CASCADE_GROUPS, 1, 5),
        "cascade_col_kernels": w(CASCADE_GROUPS, 5, 1),
        "local_height_kernel": w(5, 7),
        "local_width_kernel": w(7, 5),
        "gate_w1": w(half, half),
        "gate_b1": b(half),
        "gate_w2": w(half, half),
        "gate_b2": b(half),
        "gate_proj_weight": w(3),
        "gate_proj_bias": b(3),
        "merge_weight": w(c, c),
        "merge_bias": b(c),
        "mix_conv_weight": w(c, 1, 11, 11),
        "mix_conv_bias": b(c),
        "grn_gamma": w(c),
        "grn_beta": b(c),
        "mix_mlp_w1": w(c, c),
        "mix_mlp_b1": b(c),
        "mix_mlp_w2": w(c, c),
        "mix_mlp_b2": b(c),
        "temporal_ln_gamma": 1.0 + b(two_s),
        "temporal_ln_beta": b(two_s),
        "mlp2_weight": w(fp, fp) / np.sqrt(fp / 10.0),
        "mlp2_bias": b(fp),
        "tada_base_weight": w(c, c, 3, 3),
        "tada_base_bias": b(c),
        "tada_conv1_weight": w(reduce, c, 3),
        "tada_conv1_bias": b(reduce),
        "tada_conv2_weight": w(reduce, reduce, 3),
        "tada_conv2_bias": b(reduce),
        "tada_fc_weight": w(c, reduce),
        "tada_fc_bias": b(c),
        "patch_size": np.float64(PATCH_SIZE),
    }


def _person_box(rng, heights):
    # Log-uniform height, pedestrian aspect 0.41, anywhere in the frame.
    lo, hi = heights
    h = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    w = 0.41 * h
    return rng.uniform(0.0, IMAGE_W - w), rng.uniform(0.0, IMAGE_H - h), w, h


def _jitter(rng, box, spread):
    x, y, w, h = box
    x2 = x + rng.normal(0.0, spread * w)
    y2 = y + rng.normal(0.0, spread * h)
    w2 = max(w * float(np.exp(rng.normal(0.0, spread))), 2.0)
    h2 = max(h * float(np.exp(rng.normal(0.0, spread))), 4.0)
    x0 = min(max(x2, 0.0), IMAGE_W - 2.0)
    y0 = min(max(y2, 0.0), IMAGE_H - 4.0)
    return x0, y0, min(x0 + w2, float(IMAGE_W)), min(y0 + h2, float(IMAGE_H))


def _det_line(frame_id, modality, scale, corners, score):
    x0, y0, x1, y1 = corners
    return f"{frame_id} {modality} {scale} {x0:.2f} {y0:.2f} {x1:.2f} {y1:.2f} {score:.6f}"


def _annotation_text(labels) -> str:
    lines = ["% bbGt version=3"]
    for label, (x, y, w, h), occ in labels:
        lines.append(f"{label} {x:.2f} {y:.2f} {w:.2f} {h:.2f} {occ} 0 0 0 0 0 0")
    return "\n".join(lines) + "\n"


def _write_manifest(path: Path, frames, groups=None, stride=None, per_group=None):
    payload = {
        "frames": [
            {"frame_id": fid, "time_of_day": tod, "annotations": f"annotations/{fid}.txt"}
            for fid, tod in frames
        ],
        "annotation_scale": [1.0, 1.0],
    }
    if groups:
        payload["sequence"] = {
            "frames_per_group": per_group,
            "stride": stride,
            "groups": groups,
        }
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _scored(rng, a, b):
    return float(np.clip(rng.beta(a, b), 0.0, 1.0))


def gen_pyramid(seed: int, out: Path) -> dict:
    from msfusion.containers import TENSORS_MAGIC, WEIGHTS_MAGIC, save_tensors

    rng = _rng("pyramid_forward", seed)
    files = {}
    for scale, side in PYRAMID_SIDES.items():
        weights = out / f"weights_{scale}.bin"
        inputs = out / f"input_{scale}.bin"
        save_tensors(weights, fusion_weight_tensors(rng, side), WEIGHTS_MAGIC)
        shape = (FRAMES, CHANNELS, side, side)
        save_tensors(
            inputs,
            {"vis": rng.standard_normal(shape), "ir": rng.standard_normal(shape)},
            TENSORS_MAGIC,
        )
        files[scale] = {"weights": weights, "input": inputs, "fused": out / f"fused_{scale}.bin"}
    return {"scales": files, "frames_per_op": FRAMES}


def gen_kaist(seed: int, out: Path) -> dict:
    rng = _rng("kaist_corpus", seed)
    k = KAIST
    (out / "annotations").mkdir(parents=True, exist_ok=True)
    frames, groups, det_lines = [], [], []
    for g in range(k["groups"]):
        tod = "night" if g % k["night_every"] == k["night_every"] - 1 else "day"
        base = g * 10 * k["frame_stride"]
        group = []
        for i in range(k["frames_per_group"]):
            fid = f"{base + i * k['frame_stride']:06d}"
            group.append(fid)
            frames.append((fid, tod))
            lo, hi = k["persons_per_frame"]
            labels, persons = [], []
            for _ in range(int(rng.integers(lo, hi + 1))):
                box = _person_box(rng, k["height_px"])
                occ = int(rng.choice(3, p=[0.7, 0.2, 0.1]))
                ignore = rng.random() < k["ignore_share"]
                labels.append(("people" if ignore else "person", box, occ))
                if not ignore:
                    persons.append(box)
            (out / "annotations" / f"{fid}.txt").write_text(
                _annotation_text(labels), encoding="utf-8"
            )
            for modality in MODALITIES:
                weak = modality == "vis" and tod == "night"
                for scale in SCALES:
                    for box in persons:
                        for _ in range(int(rng.poisson(k["hits_per_person"]))):
                            score = _scored(rng, 3, 3) if weak else _scored(rng, 6, 2)
                            det_lines.append(
                                _det_line(fid, modality, scale, _jitter(rng, box, 0.08), score)
                            )
                    for _ in range(int(rng.poisson(k["false_pos"]))):
                        box = _person_box(rng, k["height_px"])
                        det_lines.append(
                            _det_line(fid, modality, scale, _jitter(rng, box, 0.0), _scored(rng, 2, 5))
                        )
        groups.append(group)
    manifest = out / "manifest.json"
    _write_manifest(manifest, frames, groups, k["frame_stride"], k["frames_per_group"])
    raw = out / "detections.txt"
    raw.write_text("\n".join(det_lines) + "\n", encoding="utf-8")
    return {
        "manifest": manifest,
        "detections": raw,
        "fused": out / "fused.txt",
        "eval": out / "eval.txt",
        "reliability": out / "reliability.txt",
        "frames_per_op": len(frames),
        "detection_lines": len(det_lines),
    }


def gen_crowd(seed: int, out: Path) -> dict:
    from msfusion.containers import TENSORS_MAGIC, save_tensors

    rng = _rng("crowd_frames", seed)
    c = CROWD
    (out / "annotations").mkdir(parents=True, exist_ok=True)
    fid = "000000"
    persons = [_person_box(rng, c["height_px"]) for _ in range(c["persons"])]
    labels = [("person", box, int(rng.choice(3, p=[0.6, 0.3, 0.1]))) for box in persons]
    annotations = out / "annotations" / f"{fid}.txt"
    annotations.write_text(_annotation_text(labels), encoding="utf-8")
    det_lines = []
    for modality in MODALITIES:
        for scale in SCALES:
            for box in persons:
                for _ in range(c["candidates"]):
                    det_lines.append(
                        _det_line(fid, modality, scale, _jitter(rng, box, 0.1), _scored(rng, 5, 2))
                    )
            for _ in range(c["false_pos"]):
                box = _person_box(rng, (20.0, 200.0))
                det_lines.append(
                    _det_line(fid, modality, scale, _jitter(rng, box, 0.0), _scored(rng, 2, 5))
                )
    raw = out / "detections.txt"
    raw.write_text("\n".join(det_lines) + "\n", encoding="utf-8")
    manifest = out / "manifest.json"
    _write_manifest(manifest, [(fid, "day")])
    features = out / "features.bin"
    shape = (FRAMES, CHANNELS, c["feature_side"], c["feature_side"])
    save_tensors(
        features,
        {"vis": rng.standard_normal(shape), "ir": rng.standard_normal(shape)},
        TENSORS_MAGIC,
    )
    return {
        "frame_id": fid,
        "detections": raw,
        "annotations": annotations,
        "manifest": manifest,
        "features": features,
        "fused": {s: out / f"fused_{s}.txt" for s in ("vis", "ir", "both", "algo1")},
        "kl": out / "kl.txt",
        "reliability": out / "reliability.txt",
        "frames_per_op": 1,
        "detection_lines": len(det_lines),
    }


GENERATORS = {"pyramid_forward": gen_pyramid, "kaist_corpus": gen_kaist, "crowd_frames": gen_crowd}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of ``workload`` for ``seed`` under ``out`` and return
    their paths together with the output paths the op writes."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, out)
