"""Dataset and detection file ingestion, run configuration, results output.

Formats handled here:

* annotations: bbGt text, one file per frame; header ``% bbGt version=3``,
  body lines ``label x y w h occlusion ...`` with pixel units and occlusion
  codes 0/1/2 for none/partial/heavy. Labels other than ``person`` become
  ignore regions.
* detections: one per line, ``frame_id modality scale_id x_min y_min x_max
  y_max score``; ``#`` lines are comments. ``ingest_detections`` reads a
  dump into a ``DetectionTable`` in one pass, a chunk of lines at a time:
  it splits the lines into tokens, fills the columns, converts numbers
  with Python ``float`` and lets the table validate the rows with array
  operations. A bad line fails with the message
  ``parse_detection_line`` gives for it, naming the file and line.
  ``serialize_detections`` writes rows straight from the columns, and
  ``group_by_frame`` returns per-frame tables for a table, so no
  ``Detection`` object is built on the way; ``parse_detection_line``
  builds one per call, and a table builds one per row it is indexed or
  iterated for. Rows keep file order; the table's frame ids are sorted.
* manifest: JSON listing frames (id, time of day, file paths) and optional
  sequence grouping (frames per group and stride).
* run config: UTF-8 ``key = value`` lines.
* results: UTF-8 header block of ``# key = value`` lines followed by
  tab-separated rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .evaluation import STANDARD_SETTINGS, TIMES_OF_DAY, FrameRecord, GroundTruthBox
from .geometry import (
    MODALITIES,
    SCALES,
    BBox,
    Detection,
    DetectionTable,
    as_table,
)
from .postprocess import PostprocessConfig

ANNOTATION_HEADER = "% bbGt version=3"
_OCCLUSION_CODES = {0: "none", 1: "partial", 2: "heavy"}
_OCCLUSION_NAMES = {v: k for k, v in _OCCLUSION_CODES.items()}
_MODALITY_ALIASES = {
    "vis": "vis",
    "visible": "vis",
    "rgb": "vis",
    "ir": "ir",
    "thermal": "ir",
    "t": "ir",
    "fused": "fused",
}
_MODALITY_ALIAS_CODES = {alias: MODALITIES.index(m) for alias, m in _MODALITY_ALIASES.items()}
_SCALE_CODES = {scale: k for k, scale in enumerate(SCALES)}

DEFAULT_SCALE_STRIDES = {"s80": 8.0, "s40": 16.0, "s20": 32.0}


@dataclass(frozen=True)
class RunConfig:
    """Every tunable knob of the pipeline, with overridable defaults."""

    n_top: int = 300
    postprocess: PostprocessConfig = field(default_factory=PostprocessConfig)
    settings: tuple[str, ...] = ("reasonable",)
    scale_strides: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_SCALE_STRIDES)
    )

    def __post_init__(self) -> None:
        if self.n_top < 1:
            raise ValueError(f"n_top must be >= 1, got {self.n_top}")
        for name in self.settings:
            if name not in STANDARD_SETTINGS:
                raise ValueError(f"unknown eval setting {name!r}")
        for scale, stride in self.scale_strides.items():
            if not (math.isfinite(stride) and stride > 0.0):
                raise ValueError(f"stride_{scale} must be positive and finite, got {stride}")

    def echo(self) -> dict[str, str]:
        """Flat key/value view for provenance headers."""
        out = {
            "n_top": str(self.n_top),
            "conf_thres_v": repr(self.postprocess.conf_threshold_v),
            "conf_thres_t": repr(self.postprocess.conf_threshold_t),
            "iou_thres": repr(self.postprocess.iou_thres),
            "nms_thres": repr(self.postprocess.nms_threshold),
            "strategy": self.postprocess.strategy,
            "settings": ",".join(self.settings),
        }
        for scale in SCALES:
            out[f"stride_{scale}"] = repr(float(self.scale_strides[scale]))
        return out


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a ``key = value`` config file into a string mapping."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def run_config_from_mapping(mapping: Mapping[str, str]) -> RunConfig:
    """Build a RunConfig from string key/value pairs, applying defaults."""
    base = RunConfig()
    known = {
        "n_top",
        "conf_thres_v",
        "conf_thres_t",
        "iou_thres",
        "nms_thres",
        "strategy",
        "settings",
        "stride_s80",
        "stride_s40",
        "stride_s20",
    }
    unknown = set(mapping) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    def get(key: str, default, kind=float):
        if key not in mapping:
            return default
        try:
            return kind(mapping[key])
        except ValueError:
            raise ValueError(f"{key}: expected {kind.__name__}, got {mapping[key]!r}") from None

    post = PostprocessConfig(
        conf_threshold_v=get("conf_thres_v", base.postprocess.conf_threshold_v),
        conf_threshold_t=get("conf_thres_t", base.postprocess.conf_threshold_t),
        iou_thres=get("iou_thres", base.postprocess.iou_thres),
        nms_threshold=get("nms_thres", base.postprocess.nms_threshold),
        strategy=get("strategy", base.postprocess.strategy, str),
    )
    settings = tuple(
        s.strip() for s in get("settings", ",".join(base.settings), str).split(",") if s.strip()
    )
    strides = {
        scale: get(f"stride_{scale}", DEFAULT_SCALE_STRIDES[scale]) for scale in SCALES
    }
    return RunConfig(
        n_top=get("n_top", base.n_top, int),
        postprocess=post,
        settings=settings,
        scale_strides=strides,
    )


def parse_annotation_text(
    text: str,
    source: str = "<string>",
    scale_x: float = 1.0,
    scale_y: float = 1.0,
) -> list[GroundTruthBox]:
    """Parse one bbGt annotation body; coordinates are multiplied by the
    scale factors (used to undo dataset-level resizing)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("% bbGt version"):
        raise ValueError(f"{source}: missing bbGt header")
    gts: list[GroundTruthBox] = []
    for lineno, raw in enumerate(lines[1:], 2):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 6:
            raise ValueError(f"{source}:{lineno}: expected 'label x y w h occ ...'")
        label = tokens[0]
        try:
            x, y, w, h = (float(v) for v in tokens[1:5])
            occ_code = int(tokens[5])
        except ValueError:
            raise ValueError(f"{source}:{lineno}: malformed numeric fields") from None
        if w < 0 or h < 0:
            raise ValueError(f"{source}:{lineno}: negative box size")
        if occ_code not in _OCCLUSION_CODES:
            raise ValueError(f"{source}:{lineno}: occlusion code must be 0, 1, or 2")
        try:
            box = BBox(x * scale_x, y * scale_y, (x + w) * scale_x, (y + h) * scale_y)
        except ValueError as err:
            raise ValueError(f"{source}:{lineno}: {err}") from None
        gts.append(
            GroundTruthBox(
                box=box,
                occlusion=_OCCLUSION_CODES[occ_code],
                ignore=label != "person",
            )
        )
    return gts


def _fmt(value: float) -> str:
    # repr of a builtin float round-trips exactly and avoids numpy scalar reprs
    return repr(float(value))


def serialize_annotations(gts: Iterable[GroundTruthBox]) -> str:
    """Inverse of :func:`parse_annotation_text` (unit scale factors)."""
    lines = [ANNOTATION_HEADER]
    for gt in gts:
        label = "person" if not gt.ignore else "ignore"
        lines.append(
            f"{label} {_fmt(gt.box.x_min)} {_fmt(gt.box.y_min)} "
            f"{_fmt(gt.box.width)} {_fmt(gt.box.height)} {_OCCLUSION_NAMES[gt.occlusion]}"
        )
    return "\n".join(lines) + "\n"


def ingest_annotations(
    path: str | Path,
    fmt: str = "kaist_txt",
    time_of_day: str = "day",
    scale_x: float = 1.0,
    scale_y: float = 1.0,
) -> list[FrameRecord]:
    """Read bbGt annotation files into frame records.

    ``path`` is a single file or a directory of ``.txt`` files; frame ids
    come from file stems. Time-of-day tags normally come from a manifest;
    the default here applies when files are ingested directly.
    """
    if fmt != "kaist_txt":
        raise ValueError(f"unknown annotation format {fmt!r}")
    path = Path(path)
    files = sorted(path.glob("*.txt")) if path.is_dir() else [path]
    if not files:
        raise ValueError(f"{path}: no annotation files found")
    records = []
    for file in files:
        gts = parse_annotation_text(
            file.read_text(encoding="utf-8"), str(file), scale_x, scale_y
        )
        records.append(
            FrameRecord(frame_id=file.stem, time_of_day=time_of_day, gts=gts)
        )
    return records


def normalize_modality(token: str) -> str:
    try:
        return _MODALITY_ALIASES[token.lower()]
    except KeyError:
        raise ValueError(f"unknown modality {token!r}") from None


def parse_detection_line(line: str, source: str = "<string>", lineno: int = 0) -> Detection:
    tokens = line.split()
    if len(tokens) != 8:
        raise ValueError(
            f"{source}:{lineno}: expected 'frame_id modality scale_id "
            f"x_min y_min x_max y_max score'"
        )
    frame_id, modality_token, scale_id = tokens[0], tokens[1], tokens[2]
    if scale_id not in SCALES:
        raise ValueError(f"{source}:{lineno}: unknown scale_id {scale_id!r}")
    try:
        x_min, y_min, x_max, y_max, score = (float(v) for v in tokens[3:])
    except ValueError:
        raise ValueError(f"{source}:{lineno}: malformed numeric fields") from None
    try:
        return Detection(
            box=BBox(x_min, y_min, x_max, y_max),
            score=score,
            modality=normalize_modality(modality_token),
            scale_id=scale_id,
            frame_id=frame_id,
        )
    except ValueError as err:
        raise ValueError(f"{source}:{lineno}: {err}") from None


# Lines tokenized at a time: bounds the live token strings, which take
# several times the memory of the columns they fill.
_INGEST_CHUNK = 4096


def _table_from_lines(raw_lines: list[str]) -> DetectionTable:
    # Raises ValueError, naming no line, when any data line is malformed.
    frame_code: dict[str, int] = {}  # in order of first appearance
    values, frames, modalities, scales = [], [], [], []
    for start in range(0, len(raw_lines), _INGEST_CHUNK):
        rows = [
            tokens
            for tokens in map(str.split, raw_lines[start : start + _INGEST_CHUNK])
            if tokens and not tokens[0].startswith("#")
        ]
        if any(len(tokens) != 8 for tokens in rows):
            raise ValueError("wrong token count")
        if not rows:
            continue
        frame, modality, scale, *numbers = zip(*rows)
        values.append(np.array([list(map(float, column)) for column in numbers]))
        frames += [frame_code.setdefault(f, len(frame_code)) for f in frame]
        modalities += [_MODALITY_ALIAS_CODES.get(m.lower(), -1) for m in modality]
        scales += [_SCALE_CODES.get(s, -1) for s in scale]
    numbers = np.concatenate(values, axis=1) if values else np.empty((5, 0))
    frame_ids = sorted(frame_code)
    rank = np.empty(len(frame_ids), dtype=np.intp)
    rank[[frame_code[f] for f in frame_ids]] = np.arange(len(frame_ids))
    return DetectionTable(
        np.ascontiguousarray(numbers[:4].T),
        numbers[4],
        rank[np.array(frames, dtype=np.intp)],
        frame_ids,
        modalities,
        scales,
    )


def ingest_detections(path: str | Path) -> DetectionTable:
    """Read a detection dump into a table; duplicates are kept (suppression
    is NMS's job). A malformed line raises the ``ValueError`` that
    ``parse_detection_line`` raises for it, naming the file and line."""
    raw_lines = Path(path).read_text(encoding="utf-8").splitlines()
    try:
        return _table_from_lines(raw_lines)
    except ValueError:
        # The line parser applies the same rules line by line, so it raises
        # the first bad line's own error.
        for lineno, raw in enumerate(raw_lines, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                parse_detection_line(line, str(path), lineno)
        raise


def serialize_detections(
    dets: Iterable[Detection], header: Mapping[str, str] | None = None
) -> str:
    """Render detections in the line format accepted by ingest_detections."""
    table = as_table(dets)
    lines = [f"# {key} = {value}" for key, value in (header or {}).items()]
    frame_ids = table.frame_ids
    # repr of a builtin float round-trips exactly (see _fmt).
    lines.extend(
        f"{frame_ids[f]} {MODALITIES[m]} {SCALES[s]} {x0!r} {y0!r} {x1!r} {y1!r} {score!r}"
        for f, m, s, (x0, y0, x1, y1), score in zip(
            table.frame_codes.tolist(),
            table.modality_codes.tolist(),
            table.scale_codes.tolist(),
            table.corners.tolist(),
            table.scores.tolist(),
        )
    )
    return "\n".join(lines) + "\n"


def group_by_frame(dets: Sequence[Detection]) -> dict[str, Sequence[Detection]]:
    """Detections per frame id, frames in order of first appearance. A
    table gives per-frame tables; other sequences give lists of their own
    detection objects."""
    table = as_table(dets)
    groups = sorted(table.by_frame(), key=lambda group: group[1][0])
    if isinstance(dets, DetectionTable):
        return {frame: dets.take(rows) for frame, rows in groups}
    return {frame: [dets[i] for i in rows.tolist()] for frame, rows in groups}


@dataclass(frozen=True)
class ManifestFrame:
    frame_id: str
    time_of_day: str
    annotations: str | None = None
    detections: str | None = None

    def __post_init__(self) -> None:
        if self.time_of_day not in TIMES_OF_DAY:
            raise ValueError(
                f"frame {self.frame_id!r}: unknown time_of_day {self.time_of_day!r}"
            )


@dataclass(frozen=True)
class Manifest:
    """Frame registry with optional fixed-stride sequence grouping."""

    frames: tuple[ManifestFrame, ...]
    frames_per_group: int | None = None
    stride: int | None = None
    groups: tuple[tuple[str, ...], ...] = ()
    annotation_scale: tuple[float, float] = (1.0, 1.0)
    root: Path = Path(".")

    def __post_init__(self) -> None:
        ids = [f.frame_id for f in self.frames]
        if len(ids) != len(set(ids)):
            raise ValueError("manifest frame_ids must be unique")
        known = set(ids)
        for group in self.groups:
            if self.frames_per_group is not None and len(group) != self.frames_per_group:
                raise ValueError(
                    f"sequence group {group} does not have "
                    f"{self.frames_per_group} members"
                )
            missing = [fid for fid in group if fid not in known]
            if missing:
                raise ValueError(f"sequence group references unknown frames {missing}")
            if self.stride is not None and len(group) > 1:
                try:
                    numeric = [int(fid) for fid in group]
                except ValueError:
                    raise ValueError(
                        f"sequence group {group} needs numeric frame ids to "
                        f"check the stride"
                    ) from None
                deltas = {b - a for a, b in zip(numeric, numeric[1:])}
                if deltas != {self.stride}:
                    raise ValueError(
                        f"sequence group {group} is not spaced by stride {self.stride}"
                    )

    def current_frames(self) -> list[str]:
        """Last frame of each sequence group (the detected frame); all
        frames when no grouping is declared."""
        if self.groups:
            return [group[-1] for group in self.groups]
        return [f.frame_id for f in self.frames]

    def load_records(self) -> list[FrameRecord]:
        """Ingest the referenced annotation files into frame records."""
        sx, sy = self.annotation_scale
        records = []
        for frame in self.frames:
            gts: list[GroundTruthBox] = []
            if frame.annotations is not None:
                file = self.root / frame.annotations
                gts = parse_annotation_text(
                    file.read_text(encoding="utf-8"), str(file), sx, sy
                )
            records.append(
                FrameRecord(
                    frame_id=frame.frame_id, time_of_day=frame.time_of_day, gts=gts
                )
            )
        return records


def load_manifest(path: str | Path) -> Manifest:
    """Read a manifest JSON file; any malformed content raises a
    ``ValueError`` that names the file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid manifest JSON ({err})") from None
    try:
        return _manifest_from_payload(payload, path.parent)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from None


def _manifest_from_payload(payload, root: Path) -> Manifest:
    # Structural errors raise ValueError; a wrongly typed leaf (a number
    # where a list belongs, say) surfaces as TypeError from the conversion.
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    frames = []
    for k, entry in enumerate(payload.get("frames", [])):
        if not isinstance(entry, dict) or "frame_id" not in entry:
            raise ValueError(f"frames[{k}]: expected an object with a 'frame_id'")
        frame_id = str(entry["frame_id"])
        for key in ("annotations", "detections"):
            value = entry.get(key)
            if value is not None and not isinstance(value, str):
                raise ValueError(
                    f"frame {frame_id!r}: {key} must be a file path string, got {value!r}"
                )
        frames.append(
            ManifestFrame(
                frame_id=frame_id,
                time_of_day=str(entry.get("time_of_day", "day")),
                annotations=entry.get("annotations"),
                detections=entry.get("detections"),
            )
        )
    sequence = payload.get("sequence", {})
    if not isinstance(sequence, dict):
        raise ValueError(f"sequence: expected an object, got {sequence!r}")
    scale = payload.get("annotation_scale", [1.0, 1.0])
    if not isinstance(scale, list) or len(scale) != 2:
        raise ValueError(f"annotation_scale: expected [scale_x, scale_y], got {scale!r}")
    return Manifest(
        frames=tuple(frames),
        frames_per_group=sequence.get("frames_per_group"),
        stride=sequence.get("stride"),
        groups=tuple(tuple(str(f) for f in g) for g in sequence.get("groups", [])),
        annotation_scale=(float(scale[0]), float(scale[1])),
        root=root,
    )


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    payload: dict = {
        "frames": [
            {
                "frame_id": f.frame_id,
                "time_of_day": f.time_of_day,
                **({"annotations": f.annotations} if f.annotations else {}),
                **({"detections": f.detections} if f.detections else {}),
            }
            for f in manifest.frames
        ],
        "annotation_scale": list(manifest.annotation_scale),
    }
    if manifest.groups:
        payload["sequence"] = {
            "frames_per_group": manifest.frames_per_group,
            "stride": manifest.stride,
            "groups": [list(g) for g in manifest.groups],
        }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def attach_detections(
    records: Sequence[FrameRecord],
    dets: Sequence[Detection],
    source: str,
) -> list[FrameRecord]:
    """Return records with ``dets`` grouped by frame under key ``source``."""
    by_frame = group_by_frame(dets)
    out = []
    for record in records:
        detections = dict(record.detections)
        detections[source] = by_frame.get(record.frame_id, [])
        out.append(replace(record, detections=detections))
    return out


def format_results(
    rows: Sequence[tuple[str, str, str, float | None, int]],
    header: Mapping[str, str],
) -> str:
    """Render the results table: header block, column names, one row per
    (setting, split, strategy) with the MR percent and evaluated-gt count."""
    lines = [f"# {key} = {value}" for key, value in header.items()]
    lines.append("setting\tsplit\tstrategy\tmr_percent\tnum_gt")
    for setting, split, strategy, mr, num_gt in rows:
        mr_text = "n/a" if mr is None else f"{mr:.6f}"
        lines.append(f"{setting}\t{split}\t{strategy}\t{mr_text}\t{num_gt}")
    return "\n".join(lines) + "\n"
