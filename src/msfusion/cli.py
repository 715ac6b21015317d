"""Command-line surface tying the library modules into runnable workflows.

Subcommands: ``fuse`` (strategy post-processing of a detection dump),
``eval`` (MR tables from detections plus annotations), ``kl-loss``
(single-scale alignment loss from feature tensors, detections and ground
truth), ``reliability`` (thermal reliability percentage over a corpus),
``forward`` (fusion block forward pass over tensor files), and
``gen-weights`` (deterministic seeded weights for testing).

Detection dumps are read into one ``DetectionTable`` and carried as columns
through every subcommand: per-modality, per-scale and per-frame subsets are
row selections, and ``fuse`` writes its output rows straight from the
columns, so no ``Detection`` object is built for an input line.

Each subcommand takes only the flags it acts on; ``--config`` names a
``key = value`` file of ``RunConfig`` defaults. A flag's dest is its config
key, so the given flags are written over the file's mapping and both reach
``RunConfig`` through ``run_config_from_mapping``. ``fuse`` and ``eval``
echo in their output header only the keys that their own flags set, so a
key a shared config file sets for another subcommand is checked, not echoed.

Exit codes: 0 on success, 1 on bad input or I/O failure (a ``ValueError``
or ``OSError``, as a one-line diagnostic on stderr), 2 on usage errors. Any
other exception is a bug, and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .balance import (
    _InputError,
    corpus_reliability,
    modality_alignment_loss,
    thermal_reliability_percentage,
)
from .containers import TENSORS_MAGIC, load_tensors, save_tensors
from .evaluation import STANDARD_SETTINGS, SPLITS, evaluate_matrix
from .fusion import FusionWeights, _InputSizeError, fusion_forward
from .geometry import SCALES
from .ingest import (
    RunConfig,
    attach_detections,
    format_results,
    ingest_detections,
    load_config,
    load_manifest,
    parse_annotation_text,
    read_text,
    run_config_from_mapping,
    serialize_detections,
)
from .postprocess import STRATEGIES, run_strategy


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--out", help="output file path")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    # The config file's mapping with the given flags written over it: a
    # flag's dest is its config key, and str() of a float round-trips.
    mapping = load_config(args.config) if args.config else {}
    try:
        run_config_from_mapping(mapping)
    except ValueError as err:  # a bad file value names the file
        raise ValueError(f"{args.config}: {err}") from None
    keys = RunConfig().echo()
    for key, value in vars(args).items():
        if key in keys and value is not None:
            mapping[key] = ",".join(value) if key == "settings" else str(value)
    return run_config_from_mapping(mapping)


def _header(cfg: RunConfig, args: argparse.Namespace) -> dict[str, str]:
    # The subcommand and the config keys that are dests of its own flags.
    return {"command": args.command, **{k: v for k, v in cfg.echo().items() if k in vars(args)}}


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_pair(path: str) -> dict[str, np.ndarray]:
    # The "vis" and "ir" maps of a tensor file (load_tensors rejects
    # non-finite values); a missing one, maps of two shapes, or maps that
    # are not (F, C, H, W) with every axis non-empty raise, naming the file.
    tensors = load_tensors(path, TENSORS_MAGIC)
    for name in ("vis", "ir"):
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
    shape = tensors["vis"].shape
    if shape != tensors["ir"].shape:
        raise ValueError(f"{path}: shape mismatch: vis {shape} vs ir {tensors['ir'].shape}")
    if len(shape) != 4 or 0 in shape:
        raise ValueError(f"{path}: expected (F, C, H, W) maps, no axis empty, got shape {shape}")
    return tensors


def _cmd_fuse(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    dets = ingest_detections(args.detections)
    kept = run_strategy(dets.subset(modality="vis"), dets.subset(modality="ir"), cfg.postprocess)
    _emit(serialize_detections(kept, _header(cfg, args)), args.out)
    if args.out:
        print(f"wrote {len(kept)} detections to {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    truths = load_manifest(args.manifest).load_ground_truths()
    truths = attach_detections(truths, ingest_detections(args.detections), args.label)
    splits = [args.split] if args.split else list(SPLITS)
    settings = {name: STANDARD_SETTINGS[name] for name in cfg.settings}
    table = evaluate_matrix(truths, [args.label], settings, splits)
    rows = [(*key, mr, num_gt) for key, (mr, num_gt) in table.items()]
    text = format_results(rows, _header(cfg, args))
    _emit(text, args.out)
    if args.out:
        sys.stdout.write(text)
    return 0


def _cmd_kl_loss(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    features = _load_pair(args.features)
    dets = ingest_detections(args.detections)
    frames = list(dets.frame_ids)
    frame_id = args.frame_id
    if frame_id is None:
        if len(frames) != 1:
            shown = ", ".join(frames[:3]) + (", ..." if len(frames) > 3 else "")
            raise ValueError(
                f"detections cover {len(frames)} frames ({shown}); "
                f"pass --frame-id to pick one"
            )
        frame_id = frames[0]
    scale = args.scale
    stride = args.stride if args.stride is not None else cfg.scale_strides[scale]
    where = f"frame {frame_id!r} at scale {scale}"
    vis = dets.subset(frame_id=frame_id, modality="vis", scale_id=scale)
    ir = dets.subset(frame_id=frame_id, modality="ir", scale_id=scale)
    if not (vis or ir):
        raise ValueError(
            f"{args.detections}: no reference detections: no vis or ir detection of {where}"
        )
    gts = [
        g.box
        for g in parse_annotation_text(read_text(args.annotations), args.annotations)
        if not g.ignore
    ]
    if not gts:
        raise ValueError(f"{args.annotations}: no reference objects: all ignored, for {where}")
    try:
        report, loss = modality_alignment_loss(
            vis, ir, gts, features["vis"], features["ir"], n_top=cfg.n_top, stride=stride
        )
    except _InputError as err:  # name its file, and the frame and scale unless it does
        paths = {"detections": args.detections, "truths": args.annotations}
        path = paths.get(err.source, args.features)
        suffix = f", for {where}" if err.frame_id is None else ""
        raise ValueError(f"{path}: {err}{suffix}") from None
    lines = [
        f"frame_id = {frame_id}",
        f"scale = {scale}",
        f"stride = {stride!r}",
        f"n_top = {cfg.n_top}",
        f"r_v = {report.r_v!r}",
        f"r_t = {report.r_t!r}",
        f"reference = {report.reference_modality}",
        f"n_used = {report.n_used}",
        f"kl_loss = {loss!r}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    if args.out:
        print(f"kl_loss = {loss!r}")
    return 0


def _cmd_reliability(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    manifest = load_manifest(args.manifest)
    truths = manifest.load_ground_truths()
    dets = ingest_detections(args.detections)
    try:
        reports = corpus_reliability(dets, truths, cfg.n_top)
    except _InputError as err:  # name the dump, or the annotations of the box's frame
        frame = manifest.frame_ids.index(err.frame_id)
        source = manifest.annotation_path(frame) if err.source == "truths" else args.detections
        raise ValueError(f"{source}: {err}") from None
    if all(report is None for _, _, report in reports):
        raise ValueError(
            f"no valid instances: no vis or ir detection of {args.detections} "
            f"overlaps a ground truth of {args.manifest}"
        )
    lines = [
        f"{frame_id}\t{scale}\t{report.r_v!r}\t{report.r_t!r}\t{report.reference_modality}"
        for frame_id, scale, report in reports
        if report is not None
    ]
    thermal = thermal_reliability_percentage(report for _, _, report in reports)
    lines.append(f"# thermal_percent = {thermal!r}")
    lines.append(f"# visible_percent = {100.0 - thermal!r}")
    _emit("\n".join(lines) + "\n", args.out)
    print(f"thermal reliability: {thermal:.2f}% over "
          f"{sum(report is not None for _, _, report in reports)} valid instances")
    return 0


def _cmd_forward(args: argparse.Namespace) -> int:
    weights = FusionWeights.load(args.weights)
    tensors = _load_pair(args.input)
    # Handed over, not shared, so the forward can free the maps after dws.
    # _load_pair has checked the maps, so an error is the weights', or, where
    # a size of the input takes part, both files'.
    try:
        fused_vis, fused_ir = fusion_forward(tensors.pop("vis"), tensors.pop("ir"), weights)
    except _InputSizeError as err:
        raise ValueError(f"{args.weights} does not fit {args.input}: {err}") from None
    except ValueError as err:
        raise ValueError(f"{args.weights}: {err}") from None
    save_tensors(args.out, {"vis": fused_vis, "ir": fused_ir}, TENSORS_MAGIC)
    print(f"wrote fused tensors {tuple(fused_vis.shape)} to {args.out}")
    return 0


def _cmd_gen_weights(args: argparse.Namespace) -> int:
    weights = FusionWeights.seeded(
        args.frames, args.channels, args.height, args.width, args.patch_size,
        args.cascade_groups, seed=args.seed,
    )
    weights.save(args.out)
    print(f"wrote {len(weights.tensors)} weight tensors to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msfusion",
        description="Deterministic multispectral fusion, alignment-loss, "
        "post-processing, and miss-rate tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="run an output strategy over a detection dump")
    p.add_argument("--detections", required=True)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--iou-thres", type=float, dest="iou_thres")
    p.add_argument("--conf-thres-v", type=float, dest="conf_thres_v")
    p.add_argument("--conf-thres-t", type=float, dest="conf_thres_t")
    p.add_argument("--nms-thres", type=float, dest="nms_thres")
    _add_common(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("eval", help="log-average miss-rate table")
    p.add_argument("--detections", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--setting", action="append", dest="settings", choices=sorted(STANDARD_SETTINGS)
    )
    p.add_argument("--split", choices=SPLITS)
    p.add_argument("--label", default="default", help="strategy label for the rows")
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("kl-loss", help="single-scale modality alignment loss")
    p.add_argument("--features", required=True, help="tensor file with vis/ir maps")
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True, help="bbGt file for the frame")
    p.add_argument("--frame-id", dest="frame_id")
    p.add_argument("--scale", choices=SCALES, default="s80")
    p.add_argument("--stride", type=float, help="override the per-scale box stride")
    p.add_argument("--n-top", type=int, dest="n_top")
    _add_common(p)
    p.set_defaults(func=_cmd_kl_loss)

    p = sub.add_parser("reliability", help="thermal reliability percentage")
    p.add_argument("--detections", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--n-top", type=int, dest="n_top")
    _add_common(p)
    p.set_defaults(func=_cmd_reliability)

    p = sub.add_parser("forward", help="fusion block forward pass on tensor files")
    p.add_argument("--weights", required=True)
    p.add_argument("--input", required=True, help="tensor file with vis/ir inputs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("gen-weights", help="deterministic seeded weights file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=3)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--height", type=int, default=16)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--patch-size", type=int, dest="patch_size", default=4)
    p.add_argument("--cascade-groups", type=int, dest="cascade_groups", default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_weights)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # bad input: one-line diagnostic, nonzero exit
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
