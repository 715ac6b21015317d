"""Dataset and detection file ingestion, run configuration, results output.

Formats handled here:

* annotations: bbGt text, one file per frame; header ``% bbGt version=3``,
  body lines ``label x y w h occlusion ...`` with pixel units and occlusion
  codes 0/1/2 for none/partial/heavy. Labels other than ``person`` become
  ignore regions.
* detections: one per line, ``frame_id modality scale_id x_min y_min x_max
  y_max score``; ``#`` lines are comments. A line's tokens are split on
  any whitespace (``str.split``), and a line is a comment when its first
  token starts with ``#``. ``ingest_detections`` has two paths:

  - the fast form, read in one vectorized pass per chunk of about 256 KB
    (ending at a line break): tokens are separated by spaces and tabs
    only, lines end in ``\n`` or ``\r\n`` (reading turns ``\r\n`` and a
    lone ``\r`` into ``\n``), and every data line has exactly eight
    tokens. numpy finds each line's token count and its comment lines
    over the chunk's bytes, or its code points when the chunk is not
    ASCII; ``chunk.split()`` gives the tokens, and ``np.array(column,
    dtype=float64)`` converts each numeric column, parsing each token as
    Python ``float`` does (``1_0``, ``+1``, ``infinity``, non-ASCII
    digits). The table then validates the rows with array operations.
  - ``parse_detection_line``, line by line, for any other file: one
    holding other whitespace or line breaks (``\v``, ``\f``,
    ``\x1c``-``\x1f``, ``\x85``, ``\xa0``, ``\u2028``, ...) or any token or
    row the fast form cannot read. It builds the table, or raises the
    first bad line's own error, naming the file and line.

  Both paths give the same table bit for bit. ``serialize_detections``
  writes rows straight from the columns and rejects a frame id the format
  cannot carry; ``group_by_frame`` returns per-frame tables for a table,
  so no ``Detection`` object is built on the way. ``parse_detection_line``
  builds one per call, and a table builds one per row it is indexed or
  iterated for. Rows keep file order; the table's frame ids are sorted.
* manifest: JSON listing frames (id, time of day, annotation path) and
  optional sequence grouping (frames per group and stride, positive
  integers, and a list of frame id lists).
* run config: UTF-8 ``key = value`` lines, one key per ``RunConfig.echo``
  entry; the CLI writes its flags into the same mapping.
* results: UTF-8 header block of ``# key = value`` lines followed by
  tab-separated rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import compress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .balance import DEFAULT_TOP_N
from .evaluation import STANDARD_SETTINGS, TIMES_OF_DAY, FrameRecord, GroundTruthBox
from .geometry import (
    _SCALE_CODES,
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

DEFAULT_SCALE_STRIDES = {"s80": 8.0, "s40": 16.0, "s20": 32.0}


@dataclass(frozen=True)
class RunConfig:
    """Every tunable knob of the pipeline, with defaults that a config
    file (and, where a subcommand reads the knob, a flag) overrides."""

    n_top: int = DEFAULT_TOP_N
    postprocess: PostprocessConfig = field(default_factory=PostprocessConfig)
    settings: tuple[str, ...] = ("reasonable",)
    scale_strides: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_SCALE_STRIDES)
    )

    def __post_init__(self) -> None:
        if self.n_top < 1:
            raise ValueError(f"n_top must be >= 1, got {self.n_top}")
        if not self.settings:
            raise ValueError("settings: expected at least one eval setting")
        for name in self.settings:
            if name not in STANDARD_SETTINGS:
                raise ValueError(f"unknown eval setting {name!r}")
        for scale, stride in self.scale_strides.items():
            if not (math.isfinite(stride) and stride > 0.0):
                raise ValueError(f"stride_{scale} must be positive and finite, got {stride}")

    def echo(self) -> dict[str, str]:
        """Flat key/value view for provenance headers; its keys are the
        config keys, and ``run_config_from_mapping`` reads it back."""
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
    unknown = set(mapping) - set(base.echo())
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
    time_of_day: str = "day",
    scale_x: float = 1.0,
    scale_y: float = 1.0,
) -> list[FrameRecord]:
    """Read bbGt annotation files into frame records.

    ``path`` is a single file or a directory of ``.txt`` files; frame ids
    come from file stems. Time-of-day tags normally come from a manifest;
    the default here applies when files are ingested directly.
    """
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


# Characters read per vectorized pass, ending at a line break: bounds the
# live token strings, which take several times the memory of the columns
# they fill.
_CHUNK_CHARS = 1 << 18

# Character classes of the fast form, by code point (128 stands for every
# non-ASCII one that is not whitespace): 0 part of a token, 1 a separator
# (space or tab), 2 a line break (\n; reading translates \r\n and \r), 3
# any other whitespace, which sends the file to the line parser.
_CLASSES = np.zeros(129, dtype=np.uint8)
_CLASSES[[ord(" "), ord("\t")]] = 1
_CLASSES[ord("\n")] = 2
_CLASSES[[ord(c) for c in "\v\f\r\x1c\x1d\x1e\x1f"]] = 3
_CLASS_TABLE = _CLASSES[:128].tobytes() + bytes(128)  # for bytes.translate


def _chunk_tokens(chunk: str) -> list[str]:
    # The tokens of a chunk's data lines, in order. Raises ValueError,
    # naming no line, when the chunk is not in the fast form: whitespace
    # other than space, tab and line breaks, or a data line without exactly
    # eight tokens.
    if chunk.isascii():
        raw = chunk.encode("ascii")
        codes = np.frombuffer(raw, dtype=np.uint8)
        classes = np.frombuffer(raw.translate(_CLASS_TABLE), dtype=np.uint8)
    else:
        codes = np.frombuffer(chunk.encode("utf-32-le"), dtype=np.uint32)
        if any(chr(c).isspace() for c in np.unique(codes[codes > 127]).tolist()):
            raise ValueError("whitespace outside the fast form")
        classes = _CLASSES[np.minimum(codes, 128)]
    if (classes == 3).any():
        raise ValueError("whitespace outside the fast form")
    # A token starts where a token character follows a separator or line
    # break; the chunk is read as if a line break preceded it.
    token = classes == 0
    starts = np.flatnonzero(token[1:] > token[:-1]) + 1
    if token.size and token[0]:
        starts = np.concatenate(([0], starts))
    # Line k holds the starts before its line break and after line k - 1's.
    line_ends = np.append(np.flatnonzero(classes == 2), len(codes))
    first = np.searchsorted(starts, line_ends)
    count = np.diff(first, prepend=0)
    first = first - count
    comment = np.zeros(len(count), dtype=bool)
    comment[count > 0] = codes[starts[first[count > 0]]] == ord("#")
    if ((count != 0) & (count != 8) & ~comment).any():
        raise ValueError("wrong token count")
    tokens = chunk.split()
    if comment.any():
        tokens = list(compress(tokens, np.repeat(~comment, count).tolist()))
    return tokens


def _encode(tokens: list[str], code_of) -> np.ndarray:
    # Integer codes of string tokens; ``code_of`` runs once per distinct token.
    lookup = {token: code_of(token) for token in set(tokens)}
    return np.fromiter(map(lookup.__getitem__, tokens), dtype=np.intp, count=len(tokens))


def _table_from_text(text: str) -> DetectionTable:
    # The fast form read one chunk at a time. Raises ValueError, naming no
    # line, when the text is not in the fast form or any row fails.
    frame_code: dict[str, int] = {}  # provisional; ranked in sorted order below
    numbers, frames, modalities, scales = [], [], [], []
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        tokens = _chunk_tokens(text[start:end])
        start = end
        if not tokens:
            continue
        numbers.append(np.array([tokens[k::8] for k in range(3, 8)], dtype=np.float64))
        frames.append(_encode(tokens[0::8], lambda f: frame_code.setdefault(f, len(frame_code))))
        modalities.append(
            _encode(tokens[1::8], lambda m: _MODALITY_ALIAS_CODES.get(m.lower(), -1))
        )
        scales.append(_encode(tokens[2::8], lambda s: _SCALE_CODES.get(s, -1)))
    if not numbers:
        return DetectionTable(np.empty((0, 4)), np.empty(0), [], [], [], [])
    values = np.concatenate(numbers, axis=1)
    frame_ids = sorted(frame_code)
    rank = np.empty(len(frame_ids), dtype=np.intp)
    rank[[frame_code[f] for f in frame_ids]] = np.arange(len(frame_ids))
    return DetectionTable(
        np.ascontiguousarray(values[:4].T),
        values[4],
        rank[np.concatenate(frames)],
        frame_ids,
        np.concatenate(modalities),
        np.concatenate(scales),
    )


def ingest_detections(path: str | Path) -> DetectionTable:
    """Read a detection dump into a table; duplicates are kept (suppression
    is NMS's job). A malformed line raises the ``ValueError`` that
    ``parse_detection_line`` raises for it, naming the file and line.

    A dump in the fast form is read in vectorized passes (see the module
    docstring); any other dump, and any dump with a failing row, goes to
    ``parse_detection_line`` line by line, which builds the table or
    raises the first bad line's own error.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        return _table_from_text(text)
    except ValueError:
        dets = [
            parse_detection_line(line, str(path), lineno)
            for lineno, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and not line.startswith("#")
        ]
        return DetectionTable.from_detections(dets)


def serialize_detections(
    dets: Iterable[Detection], header: Mapping[str, str] | None = None
) -> str:
    """Render detections in the line format accepted by ingest_detections.

    A frame id the format cannot carry raises ``ValueError`` naming it: an
    empty one, one holding whitespace, or one starting with ``#`` (its line
    would read back as a comment)."""
    table = as_table(dets)
    lines = [f"# {key} = {value}" for key, value in (header or {}).items()]
    frame_ids = table.frame_ids
    for frame_id in (frame_ids[code] for code in np.unique(table.frame_codes).tolist()):
        if frame_id.split() != [frame_id] or frame_id.startswith("#"):
            raise ValueError(f"frame id {frame_id!r} cannot be written as a detection line")
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
        if not all(math.isfinite(s) and s > 0.0 for s in self.annotation_scale):
            raise ValueError(
                "annotation_scale: expected two positive finite numbers, "
                f"got {list(self.annotation_scale)}"
            )
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
    """Read a manifest JSON file; any malformed content, an unknown key
    included, raises a ``ValueError`` that names the file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid manifest JSON ({err})") from None
    try:
        return _manifest_from_payload(payload, path.parent)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from None


def _reject_unknown_keys(block: dict, known: tuple[str, ...], where: str) -> None:
    # A misspelt key would otherwise drop its data without an error.
    for key in block:
        if key not in known:
            raise ValueError(f"{where}unknown key {key!r}")


def _manifest_from_payload(payload, root: Path) -> Manifest:
    # Structural errors raise ValueError; a wrongly typed leaf (a number
    # where a list belongs, say) surfaces as TypeError from the conversion.
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    _reject_unknown_keys(payload, ("frames", "sequence", "annotation_scale"), "")
    frames = []
    for k, entry in enumerate(payload.get("frames", [])):
        if not isinstance(entry, dict) or "frame_id" not in entry:
            raise ValueError(f"frames[{k}]: expected an object with a 'frame_id'")
        frame_id = str(entry["frame_id"])
        _reject_unknown_keys(
            entry, ("frame_id", "time_of_day", "annotations"), f"frame {frame_id!r}: "
        )
        annotations = entry.get("annotations")
        if annotations is not None and not isinstance(annotations, str):
            raise ValueError(
                f"frame {frame_id!r}: annotations must be a file path string, "
                f"got {annotations!r}"
            )
        frames.append(
            ManifestFrame(
                frame_id=frame_id,
                time_of_day=str(entry.get("time_of_day", "day")),
                annotations=annotations,
            )
        )
    sequence = payload.get("sequence", {})
    if not isinstance(sequence, dict):
        raise ValueError(f"sequence: expected an object, got {sequence!r}")
    _reject_unknown_keys(sequence, ("frames_per_group", "stride", "groups"), "sequence: ")
    for key in ("frames_per_group", "stride"):
        value = sequence.get(key)
        # bool is an int subclass; JSON true is not a size.
        if value is not None and (type(value) is not int or value < 1):
            raise ValueError(f"sequence.{key}: expected a positive integer, got {value!r}")
    groups = sequence.get("groups", [])
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        raise ValueError(f"sequence.groups: expected a list of frame id lists, got {groups!r}")
    scale = payload.get("annotation_scale", [1.0, 1.0])
    if not isinstance(scale, list) or len(scale) != 2:
        raise ValueError(f"annotation_scale: expected [scale_x, scale_y], got {scale!r}")
    return Manifest(
        frames=tuple(frames),
        frames_per_group=sequence.get("frames_per_group"),
        stride=sequence.get("stride"),
        groups=tuple(tuple(str(f) for f in g) for g in groups),
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
