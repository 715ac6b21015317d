"""Log-average miss-rate evaluation for pedestrian detection.

A setting selects which ground truths are evaluated (height window and
occlusion tiers); the rest become ignore regions. Detections are matched
greedily in score order, the confidence threshold is swept to trace the
(FPPI, miss rate) curve, and the metric is the geometric mean of the miss
rates sampled at nine FPPI reference points log-spaced in [1e-2, 1].

Matching scores each frame's detections against its ground truths with one
``iou_matrix`` (bitwise equal to the scalar ``iou``). The threshold sweep
sorts the outcomes once and reads true- and false-positive counts off
cumulative sums, so a curve costs O(N log N) in the number of outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .geometry import BBox, Detection, boxes_array, iou_matrix

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
    detections: dict[str, list[Detection]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time_of_day not in TIMES_OF_DAY:
            raise ValueError(f"unknown time_of_day {self.time_of_day!r}")


def apply_setting(
    gts: Sequence[GroundTruthBox], setting: EvalSetting
) -> tuple[list[GroundTruthBox], list[GroundTruthBox]]:
    """Partition ground truths into (evaluated, ignored) under a setting."""
    evaluated = [g for g in gts if setting.admits(g)]
    ignored = [g for g in gts if not setting.admits(g)]
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
    misses.
    """
    ordered = sorted(dets, key=lambda d: -d.score)
    n_eval = len(evaluated_gts)
    both = iou_matrix(
        boxes_array(d.box for d in ordered),
        boxes_array(g.box for g in (*evaluated_gts, *ignored_gts)),
    )
    overlap = both[:, :n_eval]
    # Masking taken ground truths only lowers a row, so a detection with
    # no candidate now never gets one.
    candidate = (overlap >= match_iou).any(axis=1).tolist()
    absorbed = (both[:, n_eval:] >= match_iou).any(axis=1).tolist()
    outcomes: list[tuple[float, str]] = []
    tp = fp = 0
    for k, det in enumerate(ordered):
        if candidate[k]:
            # Taken ground truths are masked to -inf, so the first-index
            # argmax is the best untaken one, ties going to the lower index.
            best = int(overlap[k].argmax())
            if overlap[k, best] >= match_iou:
                overlap[:, best] = -np.inf
                tp += 1
                outcomes.append((det.score, "tp"))
                continue
        if absorbed[k]:
            outcomes.append((det.score, "ignored"))
        else:
            fp += 1
            outcomes.append((det.score, "fp"))
    return MatchResult(
        tp=tp, fp=fp, misses=len(evaluated_gts) - tp, outcomes=tuple(outcomes)
    )


def _select_detections(record: FrameRecord, source: str | None) -> list[Detection]:
    if source is None:
        if len(record.detections) != 1:
            raise ValueError(
                f"frame {record.frame_id}: ambiguous detection source, "
                f"have {sorted(record.detections)}"
            )
        return next(iter(record.detections.values()))
    return record.detections.get(source, [])


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
    total_gt = 0
    outcomes: list[tuple[float, str]] = []
    for record in records:
        evaluated, ignored = apply_setting(record.gts, setting)
        total_gt += len(evaluated)
        result = match_frame(
            _select_detections(record, source), evaluated, ignored, setting.match_iou
        )
        outcomes.extend(result.outcomes)
    if total_gt == 0:
        raise ValueError("empty setting")
    if score_sweep is None:
        thresholds = sorted({score for score, _ in outcomes}, reverse=True)
    else:
        thresholds = sorted(set(score_sweep), reverse=True)
    # One stable sort plus cumulative counts: the outcomes scoring at least
    # a threshold are those after its left insertion point.
    scores = np.array([score for score, _ in outcomes], dtype=np.float64)
    is_tp = np.array([flag == "tp" for _, flag in outcomes], dtype=bool)
    is_fp = np.array([flag == "fp" for _, flag in outcomes], dtype=bool)
    order = np.argsort(scores, kind="stable")
    below = np.searchsorted(scores[order], thresholds, side="left")
    tp_below = np.concatenate(([0], np.cumsum(is_tp[order])))
    fp_below = np.concatenate(([0], np.cumsum(is_fp[order])))
    tps = (tp_below[-1] - tp_below[below]).tolist()
    fps = (fp_below[-1] - fp_below[below]).tolist()
    n_frames = len(records)
    return [(fp / n_frames, 1.0 - tp / total_gt) for tp, fp in zip(tps, fps)]


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
    points = miss_rate_curve(records, setting, source, score_sweep)
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
    """
    settings = dict(settings) if settings is not None else dict(STANDARD_SETTINGS)
    table: dict[tuple[str, str, str], tuple[float | None, int]] = {}
    for setting_name, setting in settings.items():
        for split in splits:
            if split == "all":
                subset = list(records)
            else:
                subset = [r for r in records if r.time_of_day == split]
            num_gt = sum(len(apply_setting(r.gts, setting)[0]) for r in subset)
            for strategy in strategies:
                mr = log_average_miss_rate(subset, setting, strategy) if num_gt else None
                table[(setting_name, split, strategy)] = (mr, num_gt)
    return table
