"""Log-average miss-rate evaluation for pedestrian detection.

A setting selects which ground truths are evaluated (height window and
occlusion tiers); the rest become ignore regions. Detections are matched
greedily in score order, the confidence threshold is swept to trace the
(FPPI, miss rate) curve, and the metric is the geometric mean of the miss
rates sampled at nine FPPI reference points log-spaced in [1e-2, 1].

A corpus travels as one ``GroundTruthTable``: its frames, and its ground
truths as columns (frame index, corners, occlusion code, ignore flag),
plus the ``DetectionTable`` of each detection source. ``ingest`` reads
a corpus's bbGt files straight into one, line by line with the parser
``parse_annotation_text`` uses, which raises its own ``file:line``
errors. The list API (``FrameRecord`` and ``GroundTruthBox`` lists) is
converted once on entry by ``as_truths``, detections included, each row
on its record's frame; one join by frame id then maps detections to
frames, here and in ``balance.corpus_reliability``. A setting's evaluated
ground truths are ``EvalSetting.mask``, array comparisons that decide as
``admits`` does for each box.

Matching runs a whole corpus at once, on flat columns. The detections are
sorted stably by (frame, -score); ``geometry.segment_pairs`` lists each
frame's (detection, ground truth) pairs, ground truths in record order;
one ``iou_pairs`` call (bitwise equal to the scalar ``iou``) scores them
all. Then the matching runs as a wavefront: round r takes the r-th
detection of every frame that has an evaluated pair at or above the match
IoU, all at once, and each takes the untaken evaluated ground truth of
highest IoU, equal IoUs going to the first in record order. A detection
left without one is ignored when it reaches an ignored ground truth at the
match IoU, and a false positive otherwise. So the rounds number the most
candidates any one frame holds, and a frame's outcome is that of the
greedy score-ordered loop. ``match_frame`` is the one-frame case. The
threshold sweep sorts the outcomes once and reads true- and false-positive
counts off cumulative sums, so a curve costs O(N log N) in the number of
outcomes. ``evaluate_matrix`` matches every frame that a requested split
covers, under every strategy, in one pass per setting, and each (split,
strategy) cell reads its frames off that pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .geometry import (
    BBox,
    Detection,
    DetectionTable,
    _codes,
    as_table,
    boxes_array,
    check_corners,
    iou_pairs,
    segment_pairs,
)

OCCLUSION_LEVELS = ("none", "partial", "heavy")
TIMES_OF_DAY = ("day", "night")
SPLITS = ("all", "day", "night")

MISS_RATE_FLOOR = 1e-10
FPPI_REFERENCE_POINTS = tuple(np.logspace(-2.0, 0.0, 9))


@dataclass(frozen=True)
class GroundTruthBox:
    """One annotated pedestrian with its occlusion tier and ignore flag."""

    box: BBox
    occlusion: str = "none"
    ignore: bool = False

    def __post_init__(self) -> None:
        if self.occlusion not in OCCLUSION_LEVELS:
            raise ValueError(f"unknown occlusion {self.occlusion!r}")

    @property
    def height(self) -> float:
        return self.box.height


def _check_match_iou(match_iou: float, where: str = "") -> None:
    # Outside [0, 1], or NaN, no pair or every pair would be a hit.
    if not 0.0 <= match_iou <= 1.0:
        raise ValueError(f"{where}match_iou must be in [0, 1], got {match_iou}")


@dataclass(frozen=True)
class EvalSetting:
    """Which ground truths count: height window, occlusion tiers, match IoU.

    Bounds are inclusive unless the matching *_inclusive flag is False;
    a None bound is unconstrained.
    """

    name: str
    min_height: float | None = None
    max_height: float | None = None
    min_inclusive: bool = True
    max_inclusive: bool = True
    allowed_occlusion: frozenset = frozenset(OCCLUSION_LEVELS)
    match_iou: float = 0.5

    def __post_init__(self) -> None:
        # Each check rejects a setting that would silently score nothing.
        where = f"setting {self.name!r}"
        _check_match_iou(self.match_iou, f"{where}: ")
        for key in ("min_height", "max_height"):
            value = getattr(self, key)
            if value is not None and np.isnan(value):
                raise ValueError(f"{where}: {key} is NaN")
        unknown = sorted(set(self.allowed_occlusion) - set(OCCLUSION_LEVELS))
        if unknown:
            raise ValueError(f"{where}: unknown occlusion tiers {unknown}")
        if (
            self.min_height is not None
            and self.max_height is not None
            and not self.min_height < self.max_height
        ):
            raise ValueError(f"empty height window in setting {self.name!r}")

    def admits(self, gt: GroundTruthBox) -> bool:
        if gt.ignore or gt.occlusion not in self.allowed_occlusion:
            return False
        h = gt.height
        if self.min_height is not None:
            if h < self.min_height or (not self.min_inclusive and h == self.min_height):
                return False
        if self.max_height is not None:
            if h > self.max_height or (not self.max_inclusive and h == self.max_height):
                return False
        return True

    def mask(self, truths: "GroundTruthTable") -> np.ndarray:
        """Which rows of ``truths`` the setting admits, as ``admits`` decides
        for each ground truth, with heights ``y_max - y_min``."""
        allowed = np.array([level in self.allowed_occlusion for level in OCCLUSION_LEVELS])
        keep = allowed[truths.occlusion] & ~truths.ignore
        h = truths.corners[:, 3] - truths.corners[:, 1]
        if self.min_height is not None:
            keep &= h >= self.min_height if self.min_inclusive else h > self.min_height
        if self.max_height is not None:
            keep &= h <= self.max_height if self.max_inclusive else h < self.max_height
        return keep


_UNOCCLUDED = frozenset({"none"})

STANDARD_SETTINGS: dict[str, EvalSetting] = {
    # Non- or partially occluded pedestrians taller than 55 pixels.
    "reasonable": EvalSetting(
        "reasonable",
        min_height=55.0,
        min_inclusive=False,
        allowed_occlusion=frozenset({"none", "partial"}),
    ),
    "all": EvalSetting("all"),
    # Height ranges consider unoccluded pedestrians only.
    "near": EvalSetting(
        "near", min_height=115.0, min_inclusive=False, allowed_occlusion=_UNOCCLUDED
    ),
    "medium": EvalSetting(
        "medium", min_height=45.0, max_height=115.0, allowed_occlusion=_UNOCCLUDED
    ),
    "far": EvalSetting(
        "far", max_height=45.0, max_inclusive=False, allowed_occlusion=_UNOCCLUDED
    ),
    # Occlusion tiers, independent of height.
    "none": EvalSetting("none", allowed_occlusion=_UNOCCLUDED),
    "partial": EvalSetting("partial", allowed_occlusion=frozenset({"partial"})),
    "heavy": EvalSetting("heavy", allowed_occlusion=frozenset({"heavy"})),
}


@dataclass
class FrameRecord:
    """One evaluation unit: ground truths plus detections per source."""

    frame_id: str
    time_of_day: str = "day"
    gts: list[GroundTruthBox] = field(default_factory=list)
    detections: dict[str, Sequence[Detection]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time_of_day not in TIMES_OF_DAY:
            raise ValueError(f"unknown time_of_day {self.time_of_day!r}")


@dataclass(frozen=True, eq=False)
class GroundTruthTable:
    """A corpus as columns: its frames, their ground truths and detections.

    ``frame_ids`` (unique) and ``times_of_day`` list the frames. Row i of the
    ground-truth columns is a box of frame ``frame[i]`` (non-decreasing;
    rows of a frame in record order) with corners ``corners[i]`` ((N, 4)
    float64, valid ``BBox`` corners), occlusion ``OCCLUSION_LEVELS[
    occlusion[i]]`` and ignore flag ``ignore[i]``. ``detections`` maps each
    source to a ``DetectionTable``, whose rows one join by frame id maps to
    the frames, leaving out rows of frames not listed (``from_records`` puts
    each record's rows on its frame). The columns are read, never written.

    The constructor checks that the frame ids are unique and, with array
    operations, the ground-truth columns: equal lengths, ``frame``
    non-decreasing in [0, len(frame_ids)), occlusion codes in range, boolean
    ignore flags, valid corners, and every time of day in ``TIMES_OF_DAY``.
    A ``ValueError`` names the column, or for bad corners the row (``row i:``,
    as ``DetectionTable`` names its rows). The detection tables check themselves.
    """

    frame_ids: tuple[str, ...]
    times_of_day: tuple[str, ...]
    frame: np.ndarray
    corners: np.ndarray
    occlusion: np.ndarray
    ignore: np.ndarray
    detections: Mapping[str, DetectionTable] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n_frames = len(self.frame_ids)
        if len(set(self.frame_ids)) != n_frames:
            repeated = next(f for f in self.frame_ids if self.frame_ids.count(f) > 1)
            raise ValueError(f"frame ids must be unique, {repeated!r} repeats")
        if n_frames != len(self.times_of_day):
            raise ValueError(f"{n_frames} frame ids but {len(self.times_of_day)} times of day")
        unknown = sorted(set(self.times_of_day) - set(TIMES_OF_DAY))
        if unknown:
            raise ValueError(f"unknown times of day {unknown}")
        n = len(check_corners(self.corners))
        frame = _codes(self.frame, n, n_frames, "frame")
        if np.any(frame[1:] < frame[:-1]):
            raise ValueError("frame must be non-decreasing")
        _codes(self.occlusion, n, len(OCCLUSION_LEVELS), "occlusion")
        ignore = np.asarray(self.ignore)
        if ignore.shape != (n,) or ignore.dtype != bool:
            raise ValueError(
                f"ignore: expected {n} booleans, got shape {ignore.shape} of {ignore.dtype}"
            )

    @classmethod
    def from_records(cls, records: Sequence[FrameRecord]) -> "GroundTruthTable":
        """The ground truths of ``records``, and per source one table of the
        records' detections, every row moved onto its record's frame."""
        gts = [g for r in records for g in r.gts]
        tables: dict[str, list[DetectionTable]] = {}
        for r in records:
            for source, dets in r.detections.items():
                t = as_table(dets)
                columns = t.corners, t.scores, np.zeros(len(t), dtype=np.intp), (r.frame_id,)
                moved = DetectionTable(*columns, t.modality_codes, t.scale_codes)
                tables.setdefault(source, []).append(moved)
        return cls(
            tuple(r.frame_id for r in records),
            tuple(r.time_of_day for r in records),
            np.repeat(np.arange(len(records)), [len(r.gts) for r in records]),
            boxes_array(g.box for g in gts),
            np.array([OCCLUSION_LEVELS.index(g.occlusion) for g in gts], dtype=np.intp),
            np.array([g.ignore for g in gts], dtype=bool),
            {source: DetectionTable.concat(moved) for source, moved in tables.items()},
        )

    def records(self) -> list[FrameRecord]:
        """One ``FrameRecord`` per frame, holding its ground truths."""
        gts = [
            GroundTruthBox(BBox(*corners), OCCLUSION_LEVELS[occlusion], ignore)
            for corners, occlusion, ignore in zip(
                self.corners.tolist(), self.occlusion.tolist(), self.ignore.tolist()
            )
        ]
        bounds = np.searchsorted(self.frame, np.arange(len(self.frame_ids) + 1)).tolist()
        return [
            FrameRecord(frame_id, time_of_day, gts[lo:hi])
            for frame_id, time_of_day, lo, hi in zip(
                self.frame_ids, self.times_of_day, bounds, bounds[1:]
            )
        ]


def as_truths(records: Sequence[FrameRecord] | GroundTruthTable) -> GroundTruthTable:
    """``records`` itself when it is a table, else the table of its ground
    truths and detections (``GroundTruthTable.from_records``)."""
    if isinstance(records, GroundTruthTable):
        return records
    return GroundTruthTable.from_records(records)


def apply_setting(
    gts: Sequence[GroundTruthBox], setting: EvalSetting
) -> tuple[list[GroundTruthBox], list[GroundTruthBox]]:
    """Partition ground truths into (evaluated, ignored) under a setting."""
    gts = list(gts)
    admitted = setting.mask(as_truths([FrameRecord("", gts=gts)])).tolist()
    return [g for g, a in zip(gts, admitted) if a], [g for g, a in zip(gts, admitted) if not a]


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching outcome for one frame.

    ``outcomes`` holds (score, flag) per detection in descending score
    order with flag in {"tp", "fp", "ignored"}; tp + misses equals the
    number of evaluated ground truths.
    """

    tp: int
    fp: int
    misses: int
    outcomes: tuple[tuple[float, str], ...]


# Outcome codes of the corpus matcher; each indexes its ``MatchResult`` flag.
_TP, _FP, _IGNORED = range(3)
_FLAGS = ("tp", "fp", "ignored")


def _match_frames(
    det_frame: np.ndarray,
    det_corners: np.ndarray,
    det_scores: np.ndarray,
    gt_frame: np.ndarray,
    gt_corners: np.ndarray,
    gt_evaluated: np.ndarray,
    match_iou: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The greedy matching of every frame's detections against its ground
    # truths (evaluated or ignored), as (frame index, score, outcome code)
    # per detection, in (frame, -score) order. Ground truths keep their
    # row order. See the module docstring for the wavefront.
    order = np.lexsort((-det_scores, det_frame))  # stable: ties keep row order
    det_frame, corners, scores = det_frame[order], det_corners[order], det_scores[order]
    det, gt = segment_pairs(det_frame, gt_frame)
    overlap = iou_pairs(corners[det], gt_corners[gt])
    hit = overlap >= match_iou
    is_evaluated = gt_evaluated[gt]
    outcome = np.full(len(scores), _FP, dtype=np.intp)
    outcome[det[hit & ~is_evaluated]] = _IGNORED
    # A candidate is a detection with an evaluated pair over the threshold;
    # its round is its rank among its frame's candidates.
    live = hit & is_evaluated
    det, gt, overlap = det[live], gt[live], overlap[live]
    candidates, pair_candidate = np.unique(det, return_inverse=True)
    frame = det_frame[candidates]
    rank = np.arange(len(candidates)) - np.searchsorted(frame, frame)
    pair_round = rank[pair_candidate]
    # Rounds in order; within one, each detection's pairs best overlap
    # first, equal overlaps in ground-truth order (the sort is stable).
    by_round = np.lexsort((-overlap, det, pair_round))
    det, gt, pair_round = det[by_round], gt[by_round], pair_round[by_round]
    bounds = np.searchsorted(pair_round, np.arange(rank.max(initial=-1) + 2))
    taken = np.zeros(len(gt_corners), dtype=bool)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        free = ~taken[gt[lo:hi]]
        d, g = det[lo:hi][free], gt[lo:hi][free]
        # Each detection takes its first free pair; the round's detections
        # belong to distinct frames, so they never contend.
        first = np.ones(len(d), dtype=bool)
        np.not_equal(d[1:], d[:-1], out=first[1:])
        taken[g[first]] = True
        outcome[d[first]] = _TP
    return det_frame, scores, outcome


def match_frame(
    dets: Sequence[Detection],
    evaluated_gts: Sequence[GroundTruthBox],
    ignored_gts: Sequence[GroundTruthBox],
    match_iou: float = 0.5,
) -> MatchResult:
    """Greedy score-ordered matching of detections to ground truths.

    Each detection takes the highest-IoU unmatched evaluated ground truth
    with IoU >= match_iou (a true positive); failing that it may match an
    ignored ground truth under the same IoU rule (ignored gts absorb any
    number of detections and the detection counts as neither tp nor fp);
    otherwise it is a false positive. Unmatched evaluated ground truths are
    misses. This is the corpus matcher run on one frame. A ``match_iou``
    outside [0, 1], or NaN, raises ``ValueError``.
    """
    _check_match_iou(match_iou)
    table = as_table(dets)
    gts = [*evaluated_gts, *ignored_gts]
    _, scores, outcome = _match_frames(
        np.zeros(len(table), dtype=np.intp),
        table.corners,
        table.scores,
        np.zeros(len(gts), dtype=np.intp),
        boxes_array(g.box for g in gts),
        np.arange(len(gts)) < len(evaluated_gts),
        match_iou,
    )
    tp = int(np.count_nonzero(outcome == _TP))
    return MatchResult(
        tp=tp,
        fp=int(np.count_nonzero(outcome == _FP)),
        misses=len(evaluated_gts) - tp,
        outcomes=tuple(zip(scores.tolist(), [_FLAGS[k] for k in outcome.tolist()])),
    )


def _frame_index(truths: GroundTruthTable, table: DetectionTable) -> np.ndarray:
    # The one join of detections to frames: each row's frame index, -1 if unlisted.
    lookup = {frame_id: i for i, frame_id in enumerate(truths.frame_ids)}
    code_frame = np.array([lookup.get(f, -1) for f in table.frame_ids], dtype=np.intp)
    return code_frame[table.frame_codes]


def _detection_columns(
    truths: GroundTruthTable, source: str | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (frame index, corners, scores) of the listed frames' detections of
    # ``source`` (None: the one source), rows of a frame in their order.
    if source is None:
        if len(truths.detections) != 1:
            raise ValueError(f"ambiguous detection source, have {sorted(truths.detections)}")
        (source,) = truths.detections
    table = as_table(truths.detections.get(source, ()))
    frame = _frame_index(truths, table)
    listed = frame >= 0
    return frame[listed], table.corners[listed], table.scores[listed]


def _curve(
    scores: np.ndarray,
    outcome: np.ndarray,
    n_frames: int,
    total_gt: int,
) -> tuple[np.ndarray, np.ndarray]:
    # The (FPPI, miss rate) points of matched frames' outcomes over a
    # threshold sweep, as two columns.
    if total_gt == 0:
        raise ValueError("empty setting")
    thresholds = np.unique(scores)[::-1]
    # One stable sort plus cumulative counts: the outcomes scoring at least
    # a threshold are those after its left insertion point.
    order = np.argsort(scores, kind="stable")
    below = np.searchsorted(scores[order], thresholds, side="left")
    tp_below = np.concatenate(([0], np.cumsum(outcome[order] == _TP)))
    fp_below = np.concatenate(([0], np.cumsum(outcome[order] == _FP)))
    tps = tp_below[-1] - tp_below[below]
    fps = fp_below[-1] - fp_below[below]
    return fps / n_frames, 1.0 - tps / total_gt


def miss_rate_curve(
    records: Sequence[FrameRecord] | GroundTruthTable,
    setting: EvalSetting,
    source: str | None = None,
) -> list[tuple[float, float]]:
    """Trace (FPPI, miss rate) pairs over a descending threshold sweep.

    The sweep visits each distinct detection score; a point keeps
    detections scoring at least the threshold. Returns the points in sweep order.
    """
    truths = as_truths(records)
    if not truths.frame_ids:
        raise ValueError("empty setting")
    evaluated = setting.mask(truths)
    _, scores, outcome = _match_frames(
        *_detection_columns(truths, source),
        truths.frame,
        truths.corners,
        evaluated,
        setting.match_iou,
    )
    total_gt = int(np.count_nonzero(evaluated))
    fppi, miss = _curve(scores, outcome, len(truths.frame_ids), total_gt)
    return list(zip(fppi.tolist(), miss.tolist()))


def _log_average(fppi: np.ndarray, miss: np.ndarray) -> float:
    # Log-average miss rate in percent of a curve given as its FPPI and
    # miss-rate columns (see log_average_miss_rate).
    if not len(fppi):
        sampled = np.ones(len(FPPI_REFERENCE_POINTS))
    else:
        # Monotone staircase: best (lowest) miss rate per achieved FPPI.
        order = np.lexsort((miss, fppi))
        fppi, best = fppi[order], miss[order]
        first = np.ones(len(fppi), dtype=bool)
        np.not_equal(fppi[1:], fppi[:-1], out=first[1:])
        fppi, best = fppi[first], best[first]
        # Each reference takes the largest achieved FPPI not above it.
        at = np.searchsorted(fppi, FPPI_REFERENCE_POINTS, side="right") - 1
        sampled = np.where(at >= 0, best[at], miss.max())
    if not sampled.any():
        return 0.0
    floored = np.maximum(sampled, MISS_RATE_FLOOR)
    return float(np.exp(np.mean(np.log(floored))) * 100.0)


def log_average_miss_rate(
    records: Sequence[FrameRecord] | GroundTruthTable,
    setting: EvalSetting,
    source: str | None = None,
) -> float:
    """Log-average miss rate in percent.

    The miss rate is sampled at nine FPPI points log-spaced in [1e-2, 1]:
    for each reference the miss rate at the largest achieved FPPI not above
    it, or the curve's highest miss rate when no point qualifies. The
    result is exp(mean(ln(miss rates))) * 100 with rates floored at 1e-10;
    an all-zero sample (perfect detector) reports exactly 0.
    """
    points = miss_rate_curve(records, setting, source)
    return _log_average(*np.array(points, dtype=np.float64).reshape(-1, 2).T)


def evaluate_matrix(
    records: Sequence[FrameRecord] | GroundTruthTable,
    strategies: Sequence[str],
    settings: Mapping[str, EvalSetting] | None = None,
    splits: Sequence[str] = SPLITS,
) -> dict[tuple[str, str, str], tuple[float | None, int]]:
    """Full MR grid over (setting, split, strategy), keyed in that order.

    Each cell is (MR percent, evaluated ground truths). Day and night rows
    evaluate only matching frames. A cell with no evaluated ground truth
    has MR None (rendered n/a); any other failure, an ambiguous detection
    source included, raises.

    Each setting runs the corpus matcher once per strategy, over every
    frame that a requested split covers, and each cell reads its split's
    frames off those matches (the curve counts do not depend on the order
    of the outcomes, so every cell equals its own
    ``log_average_miss_rate``). Every strategy's detection source is
    resolved, so an ambiguous one raises whichever splits are asked for.
    A split not in ``SPLITS`` raises ``ValueError``.
    """
    unknown = [split for split in splits if split not in SPLITS]
    if unknown:
        raise ValueError(f"unknown split {unknown[0]!r}, expected one of {SPLITS}")
    settings = dict(settings) if settings is not None else dict(STANDARD_SETTINGS)
    truths = as_truths(records)
    n = len(truths.frame_ids)
    member = {
        split: np.array([split in ("all", t) for t in truths.times_of_day], dtype=bool)
        for split in splits
    }
    covered = np.zeros(n, dtype=bool)
    for frames in member.values():
        covered |= frames
    detections = []  # each strategy's detections of the covered frames
    for strategy in strategies:
        frame, corners, scores = _detection_columns(truths, strategy)
        keep = covered[frame]
        detections.append((frame[keep], corners[keep], scores[keep]))
    rows = covered[truths.frame]
    gt_frame, gt_corners = truths.frame[rows], truths.corners[rows]
    table: dict[tuple[str, str, str], tuple[float | None, int]] = {}
    for setting_name, setting in settings.items():
        evaluated = setting.mask(truths)
        n_gt = np.bincount(truths.frame[evaluated], minlength=n)
        matches = [
            _match_frames(*columns, gt_frame, gt_corners, evaluated[rows], setting.match_iou)
            for columns in detections
        ]
        for split in splits:
            n_frames = int(np.count_nonzero(member[split]))
            num_gt = int(n_gt[member[split]].sum())
            for strategy, (frame, scores, outcome) in zip(strategies, matches):
                mr = None
                if num_gt:
                    cell = member[split][frame]
                    mr = _log_average(*_curve(scores[cell], outcome[cell], n_frames, num_gt))
                table[(setting_name, split, strategy)] = (mr, num_gt)
    return table
