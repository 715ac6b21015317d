"""Log-average miss-rate evaluation for pedestrian detection.

A setting selects which ground truths are evaluated (height window and
occlusion tiers); the rest become ignore regions. Detections are matched
greedily in score order, the confidence threshold is swept to trace the
(FPPI, miss rate) curve, and the metric is the geometric mean of the miss
rates sampled at nine FPPI reference points log-spaced in [1e-2, 1].

Matching runs a whole corpus at once. The detections are sorted stably by
(frame, -score); ``geometry.segment_pairs`` lists each frame's (detection,
ground truth) pairs, the evaluated ground truths before the ignored ones,
each in record order; one ``iou_pairs`` call (bitwise equal to the scalar
``iou``) scores them all. Then the matching runs as a wavefront: round r
takes the r-th detection of every frame that has an evaluated pair at or
above the match IoU, all at once, and each takes the untaken evaluated
ground truth of highest IoU, equal IoUs going to the first in record
order. A detection left without one is ignored when it reaches an
ignored ground truth at the match IoU, and a false positive otherwise.
So the rounds number the most candidates any one frame holds, and a
frame's outcome is that of the greedy score-ordered loop. ``match_frame``
is the one-frame case. A frame's detections may be a list or a
``DetectionTable``, whose columns are read directly. The threshold sweep
sorts the outcomes once and reads true- and false-positive counts off
cumulative sums, so a curve costs O(N log N) in the number of outcomes.
``evaluate_matrix`` matches every frame of every strategy in one pass per
setting, and its day and night cells reuse the matches of the whole set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .geometry import BBox, Detection, as_table, boxes_array, iou_pairs, segment_pairs

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


def apply_setting(
    gts: Sequence[GroundTruthBox], setting: EvalSetting
) -> tuple[list[GroundTruthBox], list[GroundTruthBox]]:
    """Partition ground truths into (evaluated, ignored) under a setting."""
    evaluated: list[GroundTruthBox] = []
    ignored: list[GroundTruthBox] = []
    for g in gts:
        (evaluated if setting.admits(g) else ignored).append(g)
    return evaluated, ignored


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
    frames: Sequence[
        tuple[Sequence[Detection], Sequence[GroundTruthBox], Sequence[GroundTruthBox]]
    ],
    match_iou: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The greedy matching of every (detections, evaluated, ignored) frame,
    # as (frame index, score, outcome code) per detection, in (frame,
    # -score) order. See the module docstring for the wavefront.
    tables = [as_table(dets) for dets, _, _ in frames]
    det_frame = np.repeat(np.arange(len(frames)), [len(t) for t in tables])
    corners = np.concatenate([t.corners for t in tables] + [np.empty((0, 4))])
    scores = np.concatenate([t.scores for t in tables] + [np.empty(0)])
    order = np.lexsort((-scores, det_frame))  # stable: ties keep row order
    det_frame, corners, scores = det_frame[order], corners[order], scores[order]
    boxes, evaluated = [], []
    for _, ev, ig in frames:
        boxes += [g.box for g in (*ev, *ig)]
        evaluated += [True] * len(ev) + [False] * len(ig)
    gt_frame = np.repeat(np.arange(len(frames)), [len(ev) + len(ig) for _, ev, ig in frames])
    det, gt = segment_pairs(det_frame, gt_frame)
    overlap = iou_pairs(corners[det], boxes_array(boxes)[gt])
    hit = overlap >= match_iou
    is_evaluated = np.array(evaluated, dtype=bool)[gt]
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
    taken = np.zeros(len(boxes), dtype=bool)
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
    misses. This is the corpus matcher run on one frame.
    """
    _, scores, outcome = _match_frames([(dets, evaluated_gts, ignored_gts)], match_iou)
    tp = int(np.count_nonzero(outcome == _TP))
    return MatchResult(
        tp=tp,
        fp=int(np.count_nonzero(outcome == _FP)),
        misses=len(evaluated_gts) - tp,
        outcomes=tuple(zip(scores.tolist(), [_FLAGS[k] for k in outcome.tolist()])),
    )


def _select_detections(record: FrameRecord, source: str | None) -> Sequence[Detection]:
    if source is None:
        if len(record.detections) != 1:
            raise ValueError(
                f"frame {record.frame_id}: ambiguous detection source, "
                f"have {sorted(record.detections)}"
            )
        return next(iter(record.detections.values()))
    return record.detections.get(source, [])


def _curve(
    scores: np.ndarray,
    outcome: np.ndarray,
    n_frames: int,
    total_gt: int,
    score_sweep: Sequence[float] | None,
) -> list[tuple[float, float]]:
    # The (FPPI, miss rate) points of matched frames' outcomes over a
    # threshold sweep.
    if total_gt == 0:
        raise ValueError("empty setting")
    if score_sweep is None:
        thresholds = np.unique(scores)[::-1]
    else:
        thresholds = sorted(set(score_sweep), reverse=True)
    # One stable sort plus cumulative counts: the outcomes scoring at least
    # a threshold are those after its left insertion point.
    order = np.argsort(scores, kind="stable")
    below = np.searchsorted(scores[order], thresholds, side="left")
    tp_below = np.concatenate(([0], np.cumsum(outcome[order] == _TP)))
    fp_below = np.concatenate(([0], np.cumsum(outcome[order] == _FP)))
    tps = (tp_below[-1] - tp_below[below]).tolist()
    fps = (fp_below[-1] - fp_below[below]).tolist()
    return [(fp / n_frames, 1.0 - tp / total_gt) for tp, fp in zip(tps, fps)]


def miss_rate_curve(
    records: Sequence[FrameRecord],
    setting: EvalSetting,
    source: str | None = None,
    score_sweep: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """Trace (FPPI, miss rate) pairs over a descending threshold sweep.

    The sweep visits each distinct detection score (or the given
    ``score_sweep``); a point keeps detections scoring at least the
    threshold. Returns the points in sweep order.
    """
    if not records:
        raise ValueError("empty setting")
    frames = [(_select_detections(r, source), *apply_setting(r.gts, setting)) for r in records]
    _, scores, outcome = _match_frames(frames, setting.match_iou)
    total_gt = sum(len(evaluated) for _, evaluated, _ in frames)
    return _curve(scores, outcome, len(records), total_gt, score_sweep)


def _log_average(points: Sequence[tuple[float, float]]) -> float:
    # Log-average miss rate in percent of a curve (see log_average_miss_rate).
    if not points:
        sampled = [1.0] * len(FPPI_REFERENCE_POINTS)
    else:
        # Monotone staircase: best (lowest) miss rate per achieved FPPI.
        best_at: dict[float, float] = {}
        for fppi, miss in points:
            if fppi not in best_at or miss < best_at[fppi]:
                best_at[fppi] = miss
        staircase = sorted(best_at.items())
        highest_miss = max(miss for _, miss in points)
        sampled = []
        for ref in FPPI_REFERENCE_POINTS:
            feasible = [miss for fppi, miss in staircase if fppi <= ref]
            sampled.append(feasible[-1] if feasible else highest_miss)
    if all(m == 0.0 for m in sampled):
        return 0.0
    floored = np.maximum(np.asarray(sampled, dtype=np.float64), MISS_RATE_FLOOR)
    return float(np.exp(np.mean(np.log(floored))) * 100.0)


def log_average_miss_rate(
    records: Sequence[FrameRecord],
    setting: EvalSetting,
    source: str | None = None,
    score_sweep: Sequence[float] | None = None,
) -> float:
    """Log-average miss rate in percent.

    The miss rate is sampled at nine FPPI points log-spaced in [1e-2, 1]:
    for each reference the miss rate at the largest achieved FPPI not above
    it, or the curve's highest miss rate when no point qualifies. The
    result is exp(mean(ln(miss rates))) * 100 with rates floored at 1e-10;
    an all-zero sample (perfect detector) reports exactly 0.
    """
    return _log_average(miss_rate_curve(records, setting, source, score_sweep))


def evaluate_matrix(
    records: Sequence[FrameRecord],
    strategies: Sequence[str],
    settings: Mapping[str, EvalSetting] | None = None,
    splits: Sequence[str] = SPLITS,
) -> dict[tuple[str, str, str], tuple[float | None, int]]:
    """Full MR grid over (setting, split, strategy), keyed in that order.

    Each cell is (MR percent, evaluated ground truths). Day and night rows
    evaluate only matching frames. A cell with no evaluated ground truth
    has MR None (rendered n/a); any other failure raises.

    Each setting runs the corpus matcher once, over every frame of every
    strategy that a cell with evaluated ground truth needs: the cells of
    every split read the same matches (the curve counts do not depend on
    the order of the outcomes, so every cell equals its own
    ``log_average_miss_rate``).
    """
    settings = dict(settings) if settings is not None else dict(STANDARD_SETTINGS)
    table: dict[tuple[str, str, str], tuple[float | None, int]] = {}
    for setting_name, setting in settings.items():
        split_gts = [apply_setting(r.gts, setting) for r in records]
        n_gt = np.array([len(evaluated) for evaluated, _ in split_gts], dtype=np.intp)
        members = {
            split: np.array([split == "all" or r.time_of_day == split for r in records], dtype=bool)
            for split in splits
        }
        num_gt = {split: int(n_gt[members[split]].sum()) for split in splits}
        # The records some cell with evaluated ground truth reads, matched
        # once under each strategy.
        needed = np.zeros(len(records), dtype=bool)
        for split in splits:
            if num_gt[split]:
                needed |= members[split]
        needed = np.flatnonzero(needed)
        frames = [
            (_select_detections(records[i], strategy), *split_gts[i])
            for strategy in strategies
            for i in needed.tolist()
        ]
        frame, scores, outcome = _match_frames(frames, setting.match_iou)
        record = np.tile(needed, len(strategies))[frame]
        strategy_index = np.repeat(np.arange(len(strategies)), len(needed))[frame]
        for split in splits:
            n_frames = int(np.count_nonzero(members[split]))
            for k, strategy in enumerate(strategies):
                mr = None
                if num_gt[split]:
                    cell = (strategy_index == k) & members[split][record]
                    points = _curve(scores[cell], outcome[cell], n_frames, num_gt[split], None)
                    mr = _log_average(points)
                table[(setting_name, split, strategy)] = (mr, num_gt[split])
    return table
