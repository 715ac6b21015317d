"""Dataset and detection file ingestion, run configuration, results output.

Formats handled here:

* text: every text input (annotations, detection dumps, manifests, config
  files) is read as UTF-8 with universal newlines; a byte that is not
  UTF-8 raises a ``ValueError`` naming the file and line.
* annotations: bbGt text, one file per frame; a header line starting
  ``% bbGt version`` (``% bbGt version=3``), then body lines ``label x y w
  h occlusion ...`` with pixel units and occlusion codes 0/1/2 for
  none/partial/heavy; tokens after the sixth are ignored and blank lines
  skipped. Labels other than ``person`` become ignore regions. A row's box
  is ``(x * sx, y * sy, (x + w) * sx, (y + h) * sy)`` for the scale
  factors (the manifest's ``annotation_scale``). One per-line parser
  reads every body: ``parse_annotation_text`` gives one body's boxes in
  pixel units (factors 1), and ``Manifest.load_ground_truths`` reads a
  corpus's files in manifest order, one at a time, into the columns of
  one ``GroundTruthTable``. A bad line raises a ``ValueError`` naming the
  file and line, so the first bad file raises before a later file is
  opened. The files are few rows each, so reading them costs more than
  parsing them; ``load_records`` builds its ``FrameRecord`` list from the
  table.
* detections: one per line, ``frame_id modality scale_id x_min y_min x_max
  y_max score``; ``#`` lines are comments. A line's tokens are split on
  any whitespace (``str.split``), and a line is a comment when its first
  token starts with ``#``. ``ingest_detections`` has two paths:

  - ``np.loadtxt``, one call for the whole dump, into a structured array:
    the frame id as a Python string, modality and scale as byte strings
    one byte wider than the longest valid token (so a longer token stays
    invalid when cut to the field), and five float64 fields. Comment lines
    are cut out first, and ``loadtxt`` splits the rest on whitespace and
    parses each number with ``PyOS_string_to_double``, the routine
    ``float`` uses. Each string column becomes integer codes: its run
    heads (the rows where its value changes) are sorted into the distinct
    values, and the rows take their run's code. The corners and scores are
    copied out, so the table holds none of the rows, and the table then
    validates them with array operations.
  - ``parse_detection_line``, line by line, for any dump that ``loadtxt``
    would not read exactly as it does: one holding a non-ASCII character,
    a NUL (a numpy string field drops it from a token's end, so ``vis\x00``
    would read as ``vis``), whitespace other than space, tab and ``\n``
    (``\v``, ``\f``, ``\x1c``-``\x1f``: mostly line breaks to
    ``str.splitlines`` but separators to ``loadtxt``), a token ``loadtxt``
    rejects but ``float`` reads (``1_0``), or any row that fails. It
    builds the table, or raises the first bad line's own error, naming the
    file and line. It is slower: a 37,725-line dump reads in about 0.39 s
    against about 0.036 s through ``loadtxt`` (best of 5 on a shared
    2-core VM, reading included).

  Both paths give the same table bit for bit. ``serialize_detections``
  writes rows straight from the columns and rejects a frame id the format
  cannot carry; ``group_by_frame`` returns per-frame tables for a table,
  so no ``Detection`` object is built on the way. ``parse_detection_line``
  builds one per call, and a table builds one per row it is indexed or
  iterated for. Rows keep file order; the table's frame ids are sorted.
* manifest: JSON listing frames (id, time of day, annotation path) and
  optional sequence grouping (frames per group and stride, positive
  integers, and a list of frame id lists); frame ids are JSON strings and
  ``annotation_scale`` is two JSON numbers. ``Manifest`` holds the frames
  as columns. The sequence block is checked against the frames when the
  manifest loads, and not kept: ``eval`` and ``reliability`` score every
  listed frame.
* run config: UTF-8 ``key = value`` lines, one key per ``RunConfig.echo``
  entry, each at most once; the CLI writes its flags into the same
  mapping.
* results: UTF-8 header block of ``# key = value`` lines followed by
  tab-separated rows; a strategy label holding a tab or a line break
  raises.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .balance import DEFAULT_TOP_N
from .evaluation import (
    STANDARD_SETTINGS,
    TIMES_OF_DAY,
    FrameRecord,
    GroundTruthBox,
    GroundTruthTable,
)
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

_OCCLUSION_CODES = {0: "none", 1: "partial", 2: "heavy"}
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
        missing = [scale for scale in SCALES if scale not in self.scale_strides]
        unknown = [scale for scale in self.scale_strides if scale not in SCALES]
        if missing or unknown:
            raise ValueError(f"scale_strides: missing {missing}, unknown {unknown}")
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


def _read_bytes(path: str | Path) -> bytes:
    # A file's bytes in one read sized by fstat; a file that reports no
    # size (a pipe, say) is read to its end.
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        if size:
            return os.read(fd, size)
        return b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
    except OSError as err:  # reading a directory, say: name the file
        err.filename = str(path)
        raise
    finally:
        os.close(fd)


def _newlines(text: str) -> str:
    # Universal newlines, as text-mode reading gives them.
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's content with universal newlines; a byte that is
    not UTF-8 raises a ``ValueError`` naming the file and line."""
    data = _read_bytes(path)
    try:
        return _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        lineno = _newlines(data[: err.start].decode("utf-8")).count("\n") + 1
        raise ValueError(f"{path}:{lineno}: invalid UTF-8 ({err.reason})") from None


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a ``key = value`` config file into a string mapping; a key
    given twice raises, naming both lines."""
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        mapping[key] = value
    return mapping


def run_config_from_mapping(mapping: Mapping[str, str]) -> RunConfig:
    """Build a RunConfig from string key/value pairs over the defaults' ``echo``."""
    values = RunConfig().echo()
    unknown = set(mapping) - set(values)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values.update(mapping)

    def get(key: str, kind=float):
        try:
            return kind(values[key])
        except ValueError:
            raise ValueError(f"{key}: expected {kind.__name__}, got {values[key]!r}") from None

    post = PostprocessConfig(
        conf_threshold_v=get("conf_thres_v"),
        conf_threshold_t=get("conf_thres_t"),
        iou_thres=get("iou_thres"),
        nms_threshold=get("nms_thres"),
        strategy=get("strategy", str),
    )
    settings = tuple(s.strip() for s in get("settings", str).split(",") if s.strip())
    strides = {scale: get(f"stride_{scale}") for scale in SCALES}
    return RunConfig(
        n_top=get("n_top", int),
        postprocess=post,
        settings=settings,
        scale_strides=strides,
    )


def _annotation_rows(
    text: str, source: str, scale_x: float, scale_y: float
) -> Iterable[tuple[float, float, float, float, int, bool]]:
    # (x_min, y_min, x_max, y_max, occlusion code, ignore) of each box of
    # one bbGt body, in line order; a bad line raises, naming source and line.
    lines = text.splitlines()
    if not lines or not lines[0].startswith("% bbGt version"):
        raise ValueError(f"{source}: missing bbGt header")
    for lineno, raw in enumerate(lines[1:], 2):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) < 6:
            raise ValueError(f"{source}:{lineno}: expected 'label x y w h occ ...'")
        try:
            x, y, w, h = float(tokens[1]), float(tokens[2]), float(tokens[3]), float(tokens[4])
            occ_code = int(tokens[5])
        except ValueError:
            raise ValueError(f"{source}:{lineno}: malformed numeric fields") from None
        if w < 0 or h < 0:
            raise ValueError(f"{source}:{lineno}: negative box size")
        if occ_code not in _OCCLUSION_CODES:
            raise ValueError(f"{source}:{lineno}: occlusion code must be 0, 1, or 2")
        x0, y0, x1, y1 = x * scale_x, y * scale_y, (x + w) * scale_x, (y + h) * scale_y
        # The check BBox makes, as chained comparisons; BBox words the error.
        if not (-math.inf < x0 <= x1 < math.inf and -math.inf < y0 <= y1 < math.inf):
            try:
                BBox(x0, y0, x1, y1)
            except ValueError as err:
                raise ValueError(f"{source}:{lineno}: {err}") from None
        yield x0, y0, x1, y1, occ_code, tokens[0] != "person"


def parse_annotation_text(text: str, source: str = "<string>") -> list[GroundTruthBox]:
    """Parse one bbGt annotation body, in pixel units; a corpus applies its
    manifest's ``annotation_scale`` through ``Manifest.load_ground_truths``."""
    return [
        GroundTruthBox(BBox(x0, y0, x1, y1), _OCCLUSION_CODES[occ_code], ignore)
        for x0, y0, x1, y1, occ_code, ignore in _annotation_rows(text, source, 1.0, 1.0)
    ]


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


# Characters that send a dump to the line parser: NUL, which numpy string
# fields drop from a token's end ("vis\x00" would read as "vis"), and ASCII
# whitespace other than space, tab and "\n": most of it breaks lines for
# str.splitlines but separates tokens for loadtxt. Reading has already
# turned "\r\n" and "\r" into "\n".
_LINE_PARSER_CHARS = "\x00\v\f\x1c\x1d\x1e\x1f"

# One detection line as loadtxt reads it. The frame id is a Python string,
# as long as it is; modality and scale are byte fields one byte wider than
# the longest valid token, so a longer token, cut to the field, is still no
# valid token.
_ROW_DTYPE = np.dtype([
    ("frame", object),
    ("modality", f"S{1 + max(map(len, _MODALITY_ALIASES))}"),
    ("scale", f"S{1 + max(map(len, SCALES))}"),
    ("corners", np.float64, 4),
    ("score", np.float64),
])


def _distinct(column: np.ndarray) -> tuple[list, np.ndarray]:
    # A column's distinct values, sorted, and each row's index into them.
    # Only the run heads (the rows where the value changes) are sorted.
    heads = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    values, which = np.unique(column[heads], return_inverse=True)
    return values.tolist(), np.repeat(which, np.diff(heads, append=len(column)))


def _codes(column: np.ndarray, code_of) -> np.ndarray:
    # Each row's code: ``code_of`` of its decoded value, once per distinct value.
    values, which = _distinct(column)
    return np.array([code_of(value.decode()) for value in values], dtype=np.intp)[which]


def _table_from_text(text: str) -> DetectionTable:
    # Detection text read by one loadtxt call. Raises ValueError, naming no
    # line, when the text is outside what loadtxt reads exactly as the line
    # parser would, or any row fails.
    if not text.isascii() or any(c in text for c in _LINE_PARSER_CHARS):
        raise ValueError("text outside what loadtxt reads")
    if "#" in text:  # drop comment lines; a "#" inside a data line stays
        text = "\n".join(line for line in text.split("\n") if not line.lstrip().startswith("#"))
    if not text or text.isspace():
        return DetectionTable(np.empty((0, 4)), np.empty(0), [], [], [], [])
    # loadtxt parses each number with the routine float() uses, but without
    # float()'s underscore handling: "1_0" fails here and falls back. Fed
    # bytes, it holds a smaller copy of the text than it would fed a str.
    rows = np.loadtxt(io.BytesIO(text.encode()), dtype=_ROW_DTYPE, comments=None, ndmin=1)
    frame_ids, frame_codes = _distinct(rows["frame"])
    modality_codes = _codes(rows["modality"], lambda m: _MODALITY_ALIAS_CODES.get(m.lower(), -1))
    scale_codes = _codes(rows["scale"], lambda s: _SCALE_CODES.get(s, -1))
    corners, scores = rows["corners"].copy(), rows["score"].copy()  # the table keeps no row
    return DetectionTable(corners, scores, frame_codes, frame_ids, modality_codes, scale_codes)


def ingest_detections(path: str | Path) -> DetectionTable:
    """Read a detection dump into a table; duplicates are kept (suppression
    is NMS's job). A malformed line raises the ``ValueError`` that
    ``parse_detection_line`` raises for it, naming the file and line.

    A dump in the fast form is read by one ``np.loadtxt`` call and coded
    in vectorized passes (see the module docstring); any other dump, and
    any dump with a failing row, goes to ``parse_detection_line`` line by
    line, which builds the table or raises the first bad line's own error.
    """
    text = read_text(path)
    try:
        return _table_from_text(text)
    except ValueError:
        dets = [
            parse_detection_line(line, str(path), lineno)
            for lineno, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and not line.startswith("#")
        ]
        return DetectionTable.from_detections(dets)


def _annotation_columns(
    paths: Sequence[str | Path], scale_x: float, scale_y: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # (file index, corners, occlusion code, ignore flag) of every box of
    # the bbGt files, in file order, then line order. Files are read one
    # at a time, so the first bad file raises before a later one is opened.
    rows: list[tuple[float, float, float, float, int, bool]] = []
    counts = []
    for path in paths:
        before = len(rows)
        rows.extend(_annotation_rows(read_text(path), str(path), scale_x, scale_y))
        counts.append(len(rows) - before)
    table = np.array(rows, dtype=np.float64).reshape(-1, 6)
    return (
        np.repeat(np.arange(len(paths)), counts),
        np.ascontiguousarray(table[:, :4]),
        table[:, 4].astype(np.intp),
        table[:, 5].astype(bool),
    )


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
    # repr of a builtin float round-trips exactly and avoids numpy scalar reprs.
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
class Manifest:
    """A frame registry as columns: ``frame_ids``, ``times_of_day`` and
    ``annotations`` (a path relative to ``root``, or None) hold one entry
    per frame, in manifest order."""

    frame_ids: tuple[str, ...]
    times_of_day: tuple[str, ...]
    annotations: tuple[str | None, ...]
    annotation_scale: tuple[float, float] = (1.0, 1.0)
    root: Path = Path(".")

    def __post_init__(self) -> None:
        if not len(self.frame_ids) == len(self.times_of_day) == len(self.annotations):
            raise ValueError("manifest columns differ in length")
        if not all(math.isfinite(s) and s > 0.0 for s in self.annotation_scale):
            raise ValueError(
                "annotation_scale: expected two positive finite numbers, "
                f"got {list(self.annotation_scale)}"
            )
        seen: set[str] = set()
        for frame_id, time_of_day in zip(self.frame_ids, self.times_of_day):
            if frame_id in seen:
                raise ValueError(f"manifest frame_ids must be unique, {frame_id!r} repeats")
            seen.add(frame_id)
            if time_of_day not in TIMES_OF_DAY:
                raise ValueError(f"frame {frame_id!r}: unknown time_of_day {time_of_day!r}")

    def load_ground_truths(self) -> GroundTruthTable:
        """Read the referenced annotation files into one table of columns,
        frames in manifest order."""
        annotated = [k for k, name in enumerate(self.annotations) if name is not None]
        paths = [self.annotations[k] for k in annotated]
        # os.path.join is several times cheaper than a Path join per frame;
        # the root "." adds no prefix, as in a Path join.
        root = os.fspath(self.root)
        if root != ".":
            paths = [os.path.join(root, name) for name in paths]
        file, corners, occlusion, ignore = _annotation_columns(paths, *self.annotation_scale)
        return GroundTruthTable(
            self.frame_ids,
            self.times_of_day,
            np.array(annotated, dtype=np.intp)[file],
            corners,
            occlusion,
            ignore,
        )

    def load_records(self) -> list[FrameRecord]:
        """Ingest the referenced annotation files into frame records."""
        return self.load_ground_truths().records()


def load_manifest(path: str | Path) -> Manifest:
    """Read a manifest JSON file; any malformed content, an unknown key
    included, raises a ``ValueError`` that names the file."""
    path = Path(path)
    try:
        payload = json.loads(read_text(path))
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
    # The sequence block is checked against the frames here, then dropped.
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    _reject_unknown_keys(payload, ("frames", "sequence", "annotation_scale"), "")
    frame_ids, times_of_day, annotations = [], [], []
    for k, entry in enumerate(payload.get("frames", [])):
        if not isinstance(entry, dict) or "frame_id" not in entry:
            raise ValueError(f"frames[{k}]: expected an object with a 'frame_id'")
        frame_id = entry["frame_id"]
        if not isinstance(frame_id, str):
            raise ValueError(f"frames[{k}]: frame_id must be a string, got {frame_id!r}")
        _reject_unknown_keys(
            entry, ("frame_id", "time_of_day", "annotations"), f"frame {frame_id!r}: "
        )
        name = entry.get("annotations")
        if name is not None and not isinstance(name, str):
            raise ValueError(
                f"frame {frame_id!r}: annotations must be a file path string, got {name!r}"
            )
        frame_ids.append(frame_id)
        times_of_day.append(entry.get("time_of_day", "day"))
        annotations.append(name)
    sequence = payload.get("sequence", {})
    if not isinstance(sequence, dict):
        raise ValueError(f"sequence: expected an object, got {sequence!r}")
    _reject_unknown_keys(sequence, ("frames_per_group", "stride", "groups"), "sequence: ")
    per_group, stride = sequence.get("frames_per_group"), sequence.get("stride")
    for key, value in (("frames_per_group", per_group), ("stride", stride)):
        # bool is an int subclass; JSON true is not a size.
        if value is not None and (type(value) is not int or value < 1):
            raise ValueError(f"sequence.{key}: expected a positive integer, got {value!r}")
    groups = sequence.get("groups", [])
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        raise ValueError(f"sequence.groups: expected a list of frame id lists, got {groups!r}")
    for k, group in enumerate(groups):
        for member in group:
            if not isinstance(member, str):
                raise ValueError(f"sequence.groups[{k}]: frame id {member!r} must be a string")
    scale = payload.get("annotation_scale", [1.0, 1.0])
    if not isinstance(scale, list) or len(scale) != 2:
        raise ValueError(f"annotation_scale: expected [scale_x, scale_y], got {scale!r}")
    for s in scale:
        # JSON numbers only: float() would read the string "2", and bool is
        # an int subclass.
        if type(s) not in (int, float):
            raise ValueError(f"annotation_scale: {s!r} is not a JSON number")
    try:
        scale_x, scale_y = float(scale[0]), float(scale[1])
    except OverflowError:  # an integer beyond the float range
        raise ValueError("annotation_scale: expected two positive finite numbers") from None
    manifest = Manifest(
        tuple(frame_ids), tuple(times_of_day), tuple(annotations), (scale_x, scale_y), root
    )
    known = set(frame_ids)
    for group in map(tuple, groups):
        if per_group is not None and len(group) != per_group:
            raise ValueError(f"sequence group {group} does not have {per_group} members")
        missing = [fid for fid in group if fid not in known]
        if missing:
            raise ValueError(f"sequence group references unknown frames {missing}")
        if stride is not None and len(group) > 1:
            try:
                numeric = [int(fid) for fid in group]
            except ValueError:
                raise ValueError(
                    f"sequence group {group} needs numeric frame ids to check the stride"
                ) from None
            if {b - a for a, b in zip(numeric, numeric[1:])} != {stride}:
                raise ValueError(f"sequence group {group} is not spaced by stride {stride}")
    return manifest


def attach_detections(
    records: Sequence[FrameRecord] | GroundTruthTable,
    dets: Sequence[Detection],
    source: str,
) -> list[FrameRecord] | GroundTruthTable:
    """Return records with ``dets`` grouped by frame under key ``source``;
    a ``GroundTruthTable`` gets the table of ``dets`` as that source."""
    if isinstance(records, GroundTruthTable):
        return replace(records, detections={**records.detections, source: as_table(dets)})
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
        # No tab, and no line boundary that str.splitlines would split at.
        if "\t" in strategy or strategy.splitlines() not in ([], [strategy]):
            raise ValueError(
                f"strategy label {strategy!r} cannot be written in a results row: "
                f"it holds a tab or a line break"
            )
        mr_text = "n/a" if mr is None else f"{mr:.6f}"
        lines.append(f"{setting}\t{split}\t{strategy}\t{mr_text}\t{num_gt}")
    return "\n".join(lines) + "\n"
