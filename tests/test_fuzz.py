"""Boundary parsers under fuzzed input: each call either parses or raises a
ValueError. Any other exception (KeyError, TypeError, IndexError, ...) is a
missing check at the boundary. Also differential tests of the columnar and
corpus kernels against the per-line and per-segment code they batch, and of
the depthwise correlation against its loop."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from msfusion import evaluation, ingest
from msfusion.balance import ReliabilityReport, corpus_reliability, reliability
from msfusion.containers import TENSORS_MAGIC, load_tensors, save_tensors
from msfusion.evaluation import FrameRecord, GroundTruthBox
from msfusion.fusion import strip_conv
from msfusion.geometry import (
    BBox,
    Detection,
    DetectionTable,
    boxes_array,
    ciou_matrix,
    iou_matrix,
    nms,
    segment_pairs,
)
from msfusion.ingest import (
    ingest_detections,
    load_config,
    load_manifest,
    parse_annotation_text,
    parse_detection_line,
    run_config_from_mapping,
)
from oracles import loop_strip_conv, match_frame_ref, match_outcomes_ref, nms_ref

FILE_FIXTURE = settings(
    max_examples=75, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# Tokens near the formats' edges: labels, codes, non-finite and huge numbers.
tokens = st.one_of(
    st.sampled_from(
        ["person", "ignore", "vis", "ir", "t", "fused", "s80", "s40", "s20", "0", "1",
         "2", "-1", "3", "0.5", "1.5", "nan", "inf", "-inf", "1e400", "x", "%", "#"]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.text(max_size=4),
)
lines = st.lists(tokens, max_size=9).map(" ".join)


def parses_or_raises_value_error(call, *args):
    try:
        call(*args)
    except ValueError:
        pass


@given(st.one_of(lines, st.text()))
@settings(max_examples=150)
def test_parse_detection_line(line):
    parses_or_raises_value_error(parse_detection_line, line, "dets.txt", 1)


# Detection dump lines: mostly valid, with every way a line can fail. Frame
# ids that differ only by trailing NULs are distinct frames (numpy string
# arrays would merge them); non-ASCII ids and an inline "#" stay in a token.
# Number tokens include the spellings Python float accepts beyond the plain
# decimal form. OTHER_SPACE is the whitespace that str.split and splitlines
# break on besides space, tab and "\n": a file holding any takes the line
# parser. Reading turns "\r\n" and a lone "\r" into "\n".
number_tokens = st.one_of(
    st.floats(-5.0, 50.0).map(repr),
    st.sampled_from(["0", "1", "0.5", "-0.0", "-0", "+1", "1e400", "1e5000", "nan", "inf",
                     "-inf", "infinity", "1_0", "1__0", "0x10", "\u0661", "\u0663.\u0665",
                     "\uff11", "0.5#", "x", ""]),
)
OTHER_SPACE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028",
               "\u2029", "\u3000"]
detection_lines = st.one_of(
    st.tuples(
        st.sampled_from(["f", "f\x00", "f\x00\x00", "a", "000001", "\x00", "\u00e9", "\u5e27",
                         "a#b"]),
        st.sampled_from(["vis", "ir", "VIS", "Thermal", "rgb", "t", "fused", "x"]),
        st.sampled_from(["s80", "s40", "s20", "s77", "S80"]),
        st.tuples(*[number_tokens] * 4),
        st.one_of(st.floats(0.0, 1.0).map(repr), number_tokens),
        st.one_of(st.sampled_from([" ", "  ", "\t", " \t "]),
                  st.sampled_from(OTHER_SPACE).map(" {} ".format)),
    ).map(lambda t: t[5].join([*t[:3], *t[3], t[4]])),
    st.sampled_from(["", "   ", "# comment", "  # indented comment", "#x y z", "f vis s80 0 0 1",
                     "#"]),
    lines,
)
# Valid lines in the fast form, with corners in order and scores in [0, 1].
valid_lines = st.tuples(
    st.sampled_from(["f", "f\x00", "a", "000001", "\u00e9", "\u5e27", "a#b"]),
    st.sampled_from(["vis", "ir", "Thermal", "rgb", "fused"]),
    st.sampled_from(["s80", "s40", "s20"]),
    st.one_of(
        st.tuples(*[st.floats(0.0, 20.0)] * 4).map(
            lambda t: [repr(v) for v in (*map(min, t[:2], t[2:]), *map(max, t[:2], t[2:]))]
        ),
        st.sampled_from([["-0", "+0", "1_0", "\u0661\u0662"], ["0.5", "-0.0", "1e1", "\uff11"]]),
    ),
    st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(["1", "+0.5", "-0", "1e-320"])),
    st.sampled_from([" ", "  ", "\t", " \t "]),
).map(lambda t: t[5].join([*t[:3], *t[3], t[4]]))
clean_lines = st.one_of(valid_lines, st.sampled_from(["", "  ", "# c", "\t#x y z", "#"]))
dump_bodies = st.one_of(
    st.lists(st.tuples(clean_lines, st.sampled_from(["\n", "\r\n"])), max_size=12),
    st.lists(
        st.tuples(detection_lines, st.sampled_from(["\n", "\r\n", "\r", *OTHER_SPACE])),
        max_size=12,
    ),
)
TABLE_COLUMNS = ("corners", "scores", "frame_codes", "modality_codes", "scale_codes")


@given(dump_bodies, st.booleans())
# Rows the fast form would misread if it split lines or tokens as the line
# parser does not: a row broken over two lines, and other whitespace inside
# a token whose extra token the chunk's comment line then drops.
@example(body=[("f vis s80 0", "\n"), ("0 1 1 0.5", "\n")], last_break=True)
@example(body=[("#", "\n"), ("f\x0bvis s80 0 0 1 1 0.5 1", "\n")], last_break=True)
@example(body=[("#", "\n"), ("f\u2028vis s80 0 0 1 1 0.5 1", "\n")], last_break=True)
@FILE_FIXTURE
def test_ingest_detections_matches_line_parser(tmp_path, monkeypatch, body, last_break):
    # The columnar reader returns exactly what parse_detection_line gives on
    # each data line, in order and bit for bit, or fails with the first
    # failing line's error. Sixteen-character chunks make frames and errors
    # cross chunk boundaries.
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", 16)
    path = tmp_path / "dets.txt"
    text = "".join(line + end for line, end in body)
    path.write_bytes((text if last_break or not body else text[: -len(body[-1][1])]).encode())
    expected, error = [], None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            expected.append(parse_detection_line(line, str(path), lineno))
        except ValueError as err:
            error = str(err)
            break
    if error is not None:
        with pytest.raises(ValueError) as err:
            ingest_detections(path)
        assert str(err.value) == error
        return
    table = ingest_detections(path)
    assert list(table) == expected
    assert [frame for frame, _ in table.by_frame()] == sorted({d.frame_id for d in expected})
    # Bit for bit, so that -0.0 and 0.0 differ.
    want = DetectionTable.from_detections(expected)
    assert table.frame_ids == want.frame_ids
    for column in TABLE_COLUMNS:
        got, ref = getattr(table, column), getattr(want, column)
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


@given(
    st.sampled_from(["% bbGt version=3", "% bbGt version", "", "person 0 0 1 1 0"]),
    st.lists(st.one_of(lines, st.text()), max_size=6),
)
@settings(max_examples=150)
def test_parse_annotation_text(header, body):
    parses_or_raises_value_error(parse_annotation_text, "\n".join([header, *body]), "a.txt")


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["day", "night", "dusk", "000001", "000003", "a.txt"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["frame_id", "time_of_day", "x"]), inner, max_size=3),
    max_leaves=12,
)
frame_entries = st.fixed_dictionaries(
    {"frame_id": json_values},
    optional={
        "time_of_day": json_values,
        "annotations": json_values,
        "detections": json_values,
    },
)
manifests = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {},
        optional={
            "frames": st.one_of(st.lists(frame_entries, max_size=3), json_values),
            "sequence": st.one_of(
                st.fixed_dictionaries(
                    {},
                    optional={
                        "frames_per_group": json_values,
                        "stride": json_values,
                        "groups": json_values,
                    },
                ),
                json_values,
            ),
            "annotation_scale": json_values,
        },
    ),
)


@given(st.one_of(manifests.map(json.dumps), st.text()))
@FILE_FIXTURE
def test_load_manifest(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text, encoding="utf-8")
    parses_or_raises_value_error(load_manifest, path)


config_keys = st.sampled_from(
    ["n_top", "conf_thres_v", "conf_thres_t", "iou_thres", "nms_thres", "strategy",
     "settings", "stride_s80", "stride_s40", "stride_s20", "beta"]
)
config_lines = st.one_of(
    st.tuples(config_keys, tokens).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=12),
)


@given(st.lists(config_lines, max_size=6))
@FILE_FIXTURE
def test_load_config_then_run_config(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(body), encoding="utf-8")
    parses_or_raises_value_error(lambda: run_config_from_mapping(load_config(path)))


shapes = st.lists(st.integers(0, 3), max_size=3).map(tuple)
containers = st.dictionaries(
    st.text(max_size=4),
    shapes.map(lambda s: np.arange(int(np.prod(s)), dtype=float).reshape(s)),
    max_size=3,
)


@given(
    containers,
    st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=4),
    st.integers(0, 200),
    st.binary(max_size=24),
)
@FILE_FIXTURE
def test_load_tensors(tmp_path, tensors, flips, cut, tail):
    # A valid container with bytes flipped, cut short or padded.
    path = tmp_path / "t.sftn"
    save_tensors(path, tensors, TENSORS_MAGIC)
    raw = bytearray(path.read_bytes())
    for position, value in flips:
        if position < len(raw):
            raw[position] = value
    path.write_bytes(bytes(raw[: max(len(raw) - cut, 0)]) + tail)
    parses_or_raises_value_error(load_tensors, path)


@pytest.mark.parametrize("magic", [TENSORS_MAGIC, b"SFWT0001"])
@given(st.binary(max_size=64))
@FILE_FIXTURE
def test_load_tensors_arbitrary_bytes(tmp_path, magic, body):
    path = tmp_path / "t.bin"
    path.write_bytes(magic + body)
    parses_or_raises_value_error(load_tensors, path)


# Differential tests of the corpus kernels against their per-segment loops.
# Boxes come from a few shapes whose pairwise IoUs include exactly 1/2 and
# 1/3, scores from a few values so ties are common, and frame ids include
# ones that differ only by trailing NULs.
SHAPES = [(0, 0, 10, 10), (0, 0, 10, 5), (5, 0, 15, 10), (0, 5, 10, 10), (0, 0, 5, 10),
          (20, 20, 30, 40), (2, 1, 9, 12)]
FRAME_IDS = ["a", "a\x00", "a\x00\x00", "b", "000001"]
corpus_boxes = st.one_of(
    st.sampled_from(SHAPES),
    st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(1, 12), st.integers(1, 12))
    .map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3])),
)
corpus_dets = st.lists(
    st.tuples(
        st.sampled_from(FRAME_IDS + ["absent"]),
        st.sampled_from(["vis", "ir", "fused"]),
        st.sampled_from(["s80", "s40", "s20"]),
        corpus_boxes,
        st.sampled_from([0.5, 0.7, 0.9, 1.0]),
    ).map(lambda t: Detection(BBox(*t[3]), t[4], t[1], t[2], t[0])),
    max_size=30,
)


def _old_reliability(vis, ir, gts, n_top):
    # Reference arithmetic for one instance: a ciou_matrix row maximum per
    # detection and the .mean() of each modality's sorted top slice.
    def top_mean(dets):
        if not dets:
            return 0.0, 0
        scores = ciou_matrix(boxes_array(d.box for d in dets), boxes_array(gts)).max(axis=1)
        k = min(n_top, scores.size)
        return float(np.sort(scores)[::-1][:k].mean()), k

    (r_v, k_v), (r_t, k_t) = top_mean(vis), top_mean(ir)
    return ReliabilityReport(r_v, r_t, "ir" if r_t > r_v else "vis", k_t if r_t > r_v else k_v)


def _reliability_loop(dets, records, n_top, score):
    # Reference loop over instances in record order, then scale order; an
    # instance whose detections overlap no ground truth (IoU > 0) is None.
    out = []
    for record in records:
        gts = [g.box for g in record.gts if not g.ignore]
        if not gts:
            continue
        for scale in ("s80", "s40", "s20"):
            vis = [d for d in dets if (d.frame_id, d.scale_id, d.modality) == (record.frame_id, scale, "vis")]
            ir = [d for d in dets if (d.frame_id, d.scale_id, d.modality) == (record.frame_id, scale, "ir")]
            corners = boxes_array([d.box for d in vis + ir])
            if not (iou_matrix(corners, boxes_array(gts)) > 0.0).any():
                out.append((record.frame_id, scale, None))
            else:
                out.append((record.frame_id, scale, score(vis, ir, gts, n_top)))
    return out


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as err:
        return f"ValueError: {err}"


@given(
    corpus_dets,
    st.lists(
        st.tuples(
            st.lists(st.tuples(corpus_boxes, st.booleans()), max_size=3),
            st.sampled_from(["day", "night"]),
        ),
        max_size=len(FRAME_IDS),
    ),
    st.permutations(FRAME_IDS),
    st.sampled_from([1, 2, 3, 300]),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_corpus_reliability_matches_the_per_instance_loop(dets, frames, ids, n_top, flat):
    if flat and dets:  # a zero-width box: skipped unless its instance is scored
        d = dets[0]
        dets[0] = Detection(BBox(d.box.x_min, d.box.y_min, d.box.x_min, d.box.y_max),
                            d.score, d.modality, d.scale_id, d.frame_id)
    records = [
        FrameRecord(frame_id, tod, [GroundTruthBox(BBox(*b), "none", ignore) for b, ignore in gts])
        for frame_id, (gts, tod) in zip(ids, frames)
    ]
    got = _outcome(corpus_reliability, DetectionTable.from_detections(dets), records, n_top)
    assert got == _outcome(_reliability_loop, dets, records, n_top, reliability)
    assert got == _outcome(_reliability_loop, dets, records, n_top, _old_reliability)
    if not isinstance(got, str):  # the kernel takes a list as well as a table
        assert got == corpus_reliability(dets, records, n_top)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(FRAME_IDS), corpus_boxes, st.sampled_from([0.5, 0.7, 0.9])
        ).map(lambda t: Detection(BBox(*t[1]), t[2], "vis", "s80", t[0])),
        max_size=30,
    ),
    st.sampled_from([0.0, 1.0 / 3.0, 0.45, 0.5, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_per_frame_nms_matches_nms_ref_frame_by_frame(dets, threshold):
    expected = []
    for frame in sorted({d.frame_id for d in dets}):
        expected += nms_ref([d for d in dets if d.frame_id == frame], threshold)
    kept = nms(dets, threshold)
    assert [id(d) for d in kept] == [id(d) for d in expected]
    assert nms(DetectionTable.from_detections(dets), threshold) == expected


segment_codes = st.lists(st.integers(0, 5), max_size=12)


@given(segment_codes, segment_codes)
@example([], [])
@example([0, 2], [])  # one side empty
@example([], [1, 1])
@example([4, 0], [1, 2, 1])  # codes on one side only
@example([2, 0, 2, 1], [1, 2, 0, 2])  # unsorted seg_a and seg_b
@example([3, 3, 3], [3, 3])  # a single segment
@settings(max_examples=200)
def test_segment_pairs_match_the_double_loop(seg_a, seg_b):
    expected = [
        (i, j) for i in range(len(seg_a)) for j in range(len(seg_b)) if seg_a[i] == seg_b[j]
    ]
    rows_a, rows_b = segment_pairs(seg_a, seg_b)
    assert list(zip(rows_a.tolist(), rows_b.tolist())) == expected


_SQUARE, _HALF, _THIRD = (0, 0, 10, 10), (0, 0, 10, 5), (5, 0, 15, 10)  # IoU 1/2 and 1/3
matcher_frames = st.lists(
    st.tuples(
        st.lists(st.tuples(corpus_boxes, st.sampled_from([0.5, 0.7, 0.9, 1.0])), max_size=7),
        st.lists(st.tuples(corpus_boxes, st.booleans()), max_size=4),  # (box, ignored)
        st.booleans(),  # detections as a table
    ),
    max_size=6,
)


@given(matcher_frames, st.sampled_from([0.0, 1.0 / 3.0, 0.5, 1.0]))
@example([([], [(_SQUARE, False)], False), ([(_SQUARE, 0.5)], [], True)], 0.5)  # no dets, no gts
@example([([(_SQUARE, 0.9), (_SQUARE, 0.9)], [(_SQUARE, True)], False)], 0.5)  # ignored only
@example([([(_HALF, 0.7), (_THIRD, 0.7), (_HALF, 0.7)],
           [(_SQUARE, False), (_SQUARE, False), (_THIRD, True)], True)], 1.0 / 3.0)
@example([([(_THIRD, 0.9), (_HALF, 0.8)], [(_SQUARE, False), ((10, 0, 20, 10), False)], False),
          ([(_HALF, 0.5)], [(_SQUARE, False)], False)], 1.0 / 3.0)
@settings(max_examples=300, deadline=None)
def test_corpus_matcher_matches_the_per_frame_reference(frames, match_iou):
    # The wavefront over all frames gives each frame the outcomes of the
    # greedy per-frame reference, in that frame's descending score order.
    # Boxes come from shapes with IoUs of exactly 1/2 and 1/3, scores from
    # a few values, so ties and exact thresholds are common.
    inputs = []
    for k, (dets, gts, as_table) in enumerate(frames):
        dets = [Detection(BBox(*box), score, "vis", "s80", f"{k}") for box, score in dets]
        evaluated = [GroundTruthBox(BBox(*box)) for box, ignored in gts if not ignored]
        ignored = [GroundTruthBox(BBox(*box), ignore=True) for box, ignored in gts if ignored]
        dets = DetectionTable.from_detections(dets) if as_table else dets
        inputs.append((dets, evaluated, ignored))
    frame, scores, outcome = evaluation._match_frames(inputs, match_iou)
    for k, (dets, evaluated, ignored) in enumerate(inputs):
        want = match_outcomes_ref(list(dets), evaluated, ignored, match_iou)
        rows = frame == k
        got = list(zip(scores[rows].tolist(), [evaluation._FLAGS[o] for o in outcome[rows]]))
        assert got == want
        result = evaluation.match_frame(dets, evaluated, ignored, match_iou)
        assert result.outcomes == tuple(want)
        assert (result.tp, result.fp, result.misses) == match_frame_ref(
            list(dets), evaluated, ignored, match_iou
        )


odd_sides = st.integers(0, 5).map(lambda k: 2 * k + 1)


@given(
    st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 9), st.integers(1, 9)),
    odd_sides,
    odd_sides,
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example((1, 2, 3, 4), 11, 11, True, 0)  # map smaller than the kernel
@example((2, 1, 6, 5), 5, 5, False, 1)  # 25 taps: the smallest FFT kernel
@example((2, 1, 6, 5), 3, 7, True, 2)  # 21 taps: the largest einsum kernel
@settings(max_examples=60, deadline=None)
def test_strip_conv_matches_the_loop_on_both_sides_of_the_fft_threshold(
    shape, kh, kw, per_channel, seed
):
    # Kernels from 1x1 to 11x11, so below and above the 25 taps at which
    # _depthwise switches from the sliding-window einsum to the FFT.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    kernel = rng.standard_normal((shape[1],) * per_channel + (kh, kw))
    np.testing.assert_allclose(
        strip_conv(x, kernel), loop_strip_conv(x, kernel), rtol=0, atol=1e-10
    )
