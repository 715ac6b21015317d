"""Boundary parsers under fuzzed input: each call either parses or raises a
ValueError. Any other exception (KeyError, TypeError, IndexError, ...) is a
missing check at the boundary. Also differential tests of the columnar and
corpus kernels against the per-line and per-segment code they batch, and of
the depthwise and grouped correlations against their loops."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from msfusion import evaluation, geometry
from msfusion.balance import ReliabilityReport, corpus_reliability, reliability
from msfusion.containers import TENSORS_MAGIC, load_tensors, save_tensors
from msfusion.evaluation import (
    FPPI_REFERENCE_POINTS,
    OCCLUSION_LEVELS,
    STANDARD_SETTINGS,
    EvalSetting,
    FrameRecord,
    GroundTruthBox,
    GroundTruthTable,
)
from msfusion.fusion import conv2d_same, strip_conv
from msfusion.geometry import (
    BBox,
    Detection,
    DetectionTable,
    boxes_array,
    nms,
    segment_pairs,
)
from msfusion.ingest import (
    Manifest,
    ingest_detections,
    load_config,
    load_manifest,
    parse_annotation_text,
    parse_detection_line,
    run_config_from_mapping,
)
from oracles import (
    ciou_ref,
    iou_ref,
    log_average_ref,
    loop_conv2d,
    loop_strip_conv,
    match_frame_ref,
    match_outcomes_ref,
    nms_ref,
    parse_annotation_ref,
    walk_nms_ref,
)

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
# arrays would merge them); non-ASCII ids and an inline "#" stay in a token;
# ids run from 1 to 17 characters, wider than the reader's first guess.
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
                         "a#b", "set00_V000_I01225"]),
        st.sampled_from(["vis", "ir", "VIS", "Thermal", "rgb", "t", "fused", "x", "visibles"]),
        st.sampled_from(["s80", "s40", "s20", "s77", "S80", "s800"]),
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
    st.sampled_from(
        ["f", "f\x00", "a", "000001", "\u00e9", "\u5e27", "a#b", "set00_V000_I01225"]
    ),
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
# a token whose extra token the dump's comment line then drops.
@example(body=[("f vis s80 0", "\n"), ("0 1 1 0.5", "\n")], last_break=True)
@example(body=[("#", "\n"), ("f\x0bvis s80 0 0 1 1 0.5 1", "\n")], last_break=True)
@example(body=[("#", "\n"), ("f\u2028vis s80 0 0 1 1 0.5 1", "\n")], last_break=True)
# A non-ASCII frame id: the fast form reads ASCII only, so the line parser
# reads this dump.
@example(body=[("\u5e27 vis s80 0 0 1 1 0.5", "\n"), ("f ir s40 0 0 1 1 0.25", "\n")],
         last_break=True)
# loadtxt's traps. A "#" inside a data line next to a comment line: read
# with comments, loadtxt would cut "0.5#x" to 0.5.
@example(body=[("# c", "\n"), ("f vis s80 0 0 1 1 0.5#x", "\n")], last_break=True)
# Frame ids that differ by a trailing NUL, which a numpy string field drops.
@example(body=[("f vis s80 0 0 1 1 0.5", "\n"), ("f\x00 ir s40 0 0 1 1 0.25", "\n")],
         last_break=True)
# "1_0" is 10.0 to float() but fails loadtxt, so the line parser reads it.
@example(body=[("f vis s80 0 0 1 1 0.5", "\n"), ("g ir s40 0 0 1_0 1 0.25", "\n")],
         last_break=True)
# One very long frame id among short rows: the frame field holds it whole.
@example(body=[*[("f vis s80 0 0 1 1 0.5", "\n")] * 10,
               ("x" * 3000 + " ir s40 0 0 1 1 0.25", "\n"), ("g vis s20 0 0 1 1 0.5", "\n")],
         last_break=False)
@example(body=[("f vis s80 0 0 1 1 0.5", "\n"), ("x" * 300 + " ir s40 0 0 1 1 0.25", "\n"),
               ("g vis s20 0 0 1 1 0.5", "\n")], last_break=True)
# Tokens one character longer than a valid modality or scale, which a
# string field one character narrower would cut to a valid one.
@example(body=[("f visibles s80 0 0 1 1 0.5", "\n")], last_break=True)
@example(body=[("f vis s800 0 0 1 1 0.5", "\n")], last_break=True)
# A vertical tab and a line separator, token separators to loadtxt but
# line breaks to the line parser; and a line of blanks, which loadtxt
# skips (a dump of blanks only would make it warn).
@example(body=[("f vis s80 0 0\x0b1 1 0.5", "\n")], last_break=True)
@example(body=[("f vis s80 0 0\u20281 1 0.5", "\n")], last_break=True)
@example(body=[(" " * 30, "\n"), ("f vis s80 0 0 1 1 0.5", "\n")], last_break=True)
@FILE_FIXTURE
def test_ingest_detections_matches_line_parser(tmp_path, body, last_break):
    # The columnar reader returns exactly what parse_detection_line gives on
    # each data line, in order and bit for bit, or fails with the first
    # failing line's error.
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


# bbGt files for the columnar reader: mostly well-formed rows (ASCII,
# space and tab separators, "\n" or "\r\n" breaks, occlusion 0, 1 or 2),
# with every way a row or file can differ. Number tokens include the
# spellings Python float accepts beyond the plain decimal form and sums that
# overflow; occlusion tokens include ones int() reads ("01", "+1") and ones
# it does not ("1.0"). Files may hold other whitespace or line breaks (a
# lone "\r", "\v", "\x85"), a BOM, no header or a non-ASCII label.
ann_numbers = st.one_of(
    st.floats(-5.0, 60.0).map(repr),
    st.sampled_from(["0", "-0.0", "+1", "1_0", "1e3", "nan", "inf", "-inf", "-1", "1e308",
                     "1.5e308", "x", "\u0661"]),
)
ann_labels = st.sampled_from(["person", "people", "ignore", "person?", "p\u00e9rson", "%"])
ann_separators = st.sampled_from([" ", "  ", "\t", " \t "])
ann_rows = st.tuples(
    ann_labels,
    st.tuples(*[ann_numbers] * 4),
    st.sampled_from(["0", "1", "2", "01", "+1", "1.0", "3", "-1"]),
    st.lists(st.sampled_from(["0", "1", "x", "\u00e9"]), max_size=6),  # trailing tokens
    ann_separators,
).map(lambda t: t[4].join([t[0], *t[1], t[2], *t[3]]))
plain_ann_rows = st.tuples(
    st.sampled_from(["person", "people", "ignore"]),
    st.tuples(*[st.floats(0.0, 600.0)] * 4).map(lambda t: [repr(v) for v in t]),
    st.sampled_from(["0", "1", "2"]),
    st.lists(st.sampled_from(["0", "1", "-5.5"]), max_size=6),
    ann_separators,
).map(lambda t: t[4].join([t[0], *t[1], t[2], *t[3]]))
ann_short_rows = st.lists(st.sampled_from(["person", "1", "0", "x"]), min_size=1, max_size=5)
ann_files = st.one_of(
    st.tuples(
        st.sampled_from(["% bbGt version=3", "% bbGt version"]),
        st.lists(
            st.tuples(
                st.one_of(plain_ann_rows, st.sampled_from(["", "   ", "\t"])),
                st.sampled_from(["\n", "\r\n"]),
            ),
            max_size=6,
        ),
        st.booleans(),
    ),
    st.tuples(
        st.sampled_from(["% bbGt version=3", "% bbGt version=3 \u00e9", "\ufeff% bbGt version=3",
                         "person 0 0 1 1 0", ""]),
        st.lists(
            st.tuples(
                st.one_of(plain_ann_rows, ann_rows, ann_short_rows.map(" ".join),
                          st.sampled_from(["", " "])),
                st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85"]),
            ),
            max_size=6,
        ),
        st.booleans(),
    ),
)
ANN_SCALES = [(1.0, 1.0), (2.0, 0.5), (0.1, 3.0), (1e300, 1.0)]


@given(st.lists(ann_files, min_size=1, max_size=4), st.sampled_from(ANN_SCALES))
@example([("% bbGt version=3", [("person 1 2 3 4 0", "\r\n"), ("\t", "\n")], True),
          ("% bbGt version=3", [("person\t+1 1_0 1e3 5 01 x y", "\n")], False)], (2.0, 0.5))
@example([("% bbGt version=3", [("person 1e308 0 1e308 5 0", "\n")], True)], (1.0, 1.0))
@example([("% bbGt version=3", [("person 1e20 0 -1 5 0", "\n")], True)], (1.0, 1.0))  # x + w == x
@example([("% bbGt version=3", [("person 10.7 0 33.1 5 0", "\n")], True)], (0.1, 3.0))  # (x + w) * sx
@example([("% bbGt version=3", [("person 1 2 3 4 0", "\x0b"), ("person 5 6 7 8 1", "\n")], True)],
         (1.0, 1.0))  # a line break other than "\n" and "\r\n"
@example([("% bbGt version=3", [], False), ("\ufeff% bbGt version=3", [], True)], (1.0, 1.0))
@example([("% bbGt version=3", [("p\u00e9rson 1 2 3 4 2", "\n")], True),
          ("% bbGt version=3", [("person 1 2 3 4 1.0", "\n")], True)], (1.0, 1.0))
@example([("% bbGt version=3", [("person 1 2 3 4 3", "\n")], True),
          ("% bbGt version=3", [("person 1 2 nan 4 0", "\n")], True)], (1.0, 1.0))
@example([("% bbGt version=3", [("person 1 2 3", "\n"), ("x", "\r")], True)], (1.0, 1.0))
@example([("% bbGt version=3", [("person? 1 2 3 4 0", "\n"), ("people 1 2 3 4 1", "\n")], True),
          ("% bbGt version=3", [("person 1 2 3 -4 0", "\n")], True)], (1.0, 1.0))
@FILE_FIXTURE
def test_annotation_columns_match_parse_annotation_text(tmp_path, files, scale):
    # The columnar reader gives each file's records exactly as the
    # independent parse_annotation_ref gives them, bit for bit, or fails
    # with the first failing file's own error; parse_annotation_text, which
    # reads pixel units, agrees with the reference at scale 1 file by file.
    folder = tmp_path / "ann"
    folder.mkdir(exist_ok=True)
    for old in folder.glob("*.txt"):
        old.unlink()
    expected, error = [], None
    for k, (header, body, last_break) in enumerate(files):
        path = folder / f"{k}.txt"
        text = "".join(line + end for line, end in [(header, "\n"), *body])
        path.write_bytes((text if last_break else text[:-1]).encode())
        if error is None:
            body = path.read_text(encoding="utf-8")
            try:
                gts = parse_annotation_ref(body, str(path), *scale)
                expected.append(FrameRecord(str(k), "day", gts))
            except ValueError as err:
                error = str(err)
            try:
                unscaled = parse_annotation_ref(body, str(path))
            except ValueError as err:
                with pytest.raises(ValueError) as again:
                    parse_annotation_text(body, str(path))
                assert str(again.value) == str(err)
            else:
                assert parse_annotation_text(body, str(path)) == unscaled
    manifest = Manifest(
        tuple(str(k) for k in range(len(files))),
        ("day",) * len(files),
        tuple(f"{k}.txt" for k in range(len(files))),
        annotation_scale=scale,
        root=folder,
    )
    if error is not None:
        with pytest.raises(ValueError) as err:
            manifest.load_ground_truths()
        assert str(err.value) == error
        return
    records = manifest.load_records()
    assert records == expected
    got, want = GroundTruthTable.from_records(records), GroundTruthTable.from_records(expected)
    for column in ("frame", "corners", "occlusion", "ignore"):
        a, b = getattr(got, column), getattr(want, column)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


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


@st.composite
def valid_manifests(draw):
    """A manifest payload that loads, and the columns it loads as: string
    or numeric frame ids, with or without a sequence block that agrees
    with them."""
    n = draw(st.integers(0, 6))
    numeric = draw(st.booleans())
    if numeric:
        first, stride = draw(st.integers(0, 10**6)), draw(st.integers(1, 3))
        ids = [f"{first + k * stride:06d}" for k in range(n)]
    else:
        ids = draw(st.lists(st.text(max_size=6), min_size=n, max_size=n, unique=True))
    frames, times, annotations = [], [], []
    for frame_id in ids:
        entry = {"frame_id": frame_id}
        time_of_day = draw(st.sampled_from([None, "day", "night"]))
        if time_of_day is not None:
            entry["time_of_day"] = time_of_day
        name = draw(st.one_of(st.just("absent"), st.none(), st.text(max_size=8)))
        if name != "absent":
            entry["annotations"] = name
        frames.append(entry)
        times.append(time_of_day or "day")
        annotations.append(None if name == "absent" else name)
    payload = {"frames": frames}
    if draw(st.booleans()):
        per_group = draw(st.integers(1, 3))
        starts = range(0, n - per_group + 1, per_group)
        sequence = {"groups": [ids[k : k + per_group] for k in starts]}
        if draw(st.booleans()):
            sequence["frames_per_group"] = per_group
        if numeric and draw(st.booleans()):
            sequence["stride"] = stride
        payload["sequence"] = sequence
    scale = (1.0, 1.0)
    if draw(st.booleans()):
        positive = st.one_of(st.integers(1, 4), st.floats(1e-3, 1e3))
        scale = (draw(positive), draw(positive))
        payload["annotation_scale"] = list(scale)
    columns = (tuple(ids), tuple(times), tuple(annotations), tuple(map(float, scale)))
    return payload, columns


# Each example loads one manifest drawn to load, which must give its
# columns, and one drawn from the error paths, which parses or raises a
# ValueError.
@given(valid_manifests(), st.one_of(manifests.map(json.dumps), st.text()))
@FILE_FIXTURE
def test_load_manifest(tmp_path, valid, text):
    payload, columns = valid
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    m = load_manifest(path)
    assert (m.frame_ids, m.times_of_day, m.annotations, m.annotation_scale) == columns
    assert m.root == tmp_path
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
    # Reference arithmetic for one instance from the scalar oracle: each
    # detection's best ciou_ref and the mean of each modality's sorted top
    # slice. A modality with detections raises on a box without an aspect
    # ratio among them or the ground truths.
    def top_mean(dets):
        if not dets:
            return 0.0, 0
        if any(min(b.width, b.height) <= 0.0 for b in [d.box for d in dets] + gts):
            raise ValueError("degenerate aspect ratio")
        scores = sorted((max(ciou_ref(d.box, g) for g in gts) for d in dets), reverse=True)
        k = min(n_top, len(scores))
        return sum(scores[:k]) / k, k

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
            if not any(iou_ref(d.box, g) > 0.0 for d in vis + ir for g in gts):
                out.append((record.frame_id, scale, None))
            else:
                out.append((record.frame_id, scale, score(vis, ir, gts, n_top)))
    return out


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as err:
        return f"ValueError: {err}"


def _close_to_reference(got, ref):
    # The same instances and errors as the reference, and reliabilities
    # within 1e-12 of it; the reference modality and n_used must agree
    # except at a near tie, which rounding may tip either way.
    if isinstance(ref, str):
        return isinstance(got, str) and got.startswith(ref)
    if isinstance(got, str) or [i[:2] for i in got] != [i[:2] for i in ref]:
        return False
    for (_, _, a), (_, _, b) in zip(got, ref):
        if (a is None) != (b is None):
            return False
        if a is None:
            continue
        if abs(a.r_v - b.r_v) > 1e-12 or abs(a.r_t - b.r_t) > 1e-12:
            return False
        if abs(b.r_t - b.r_v) > 1e-12 and (a.reference_modality, a.n_used) != (
            b.reference_modality, b.n_used
        ):
            return False
    return True


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
    assert _close_to_reference(got, _outcome(_reliability_loop, dets, records, n_top, _old_reliability))
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


def _boxes(rng, n, span, flat=0.0):
    # n boxes on a span x span canvas, corners rounded to whole pixels so
    # that IoUs often land on the thresholds; a ``flat`` share has no area.
    x0, y0 = np.round(rng.uniform(0, span, (2, n)))
    w, h = np.round(rng.uniform(1, 40, (2, n)))
    w[rng.random(n) < flat] = 0.0
    return np.stack([x0, y0, x0 + w, y0 + h], axis=1)


def _disjoint(n):
    # n pairwise disjoint 10 x 10 boxes. Walked in row order, every block
    # keeps all its rows, so the block size doubles each time.
    i = np.arange(n)
    return np.stack([i % 40 * 20.0, i // 40 * 20.0, i % 40 * 20.0 + 10, i // 40 * 20.0 + 10], 1)


def _doubling_then_halving():
    # 112 disjoint rows (blocks of 16, 32 and 64 keep all), then 300
    # disjoint boxes twice each with a tied score: every later block keeps
    # exactly half, so the size halves from 128 down to the minimum.
    boxes, scores = _disjoint(412), np.linspace(1.0, 0.0, 412)
    corners = np.concatenate([boxes[:112], np.repeat(boxes[112:], 2, axis=0)])
    scores = np.concatenate([scores[:112], np.repeat(scores[112:], 2)])
    return corners, scores, np.zeros(len(scores), dtype=np.intp)


def _nms_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    kind, _, n = name.partition("-")
    n = int(n or 0)
    one = np.zeros(n, dtype=np.intp)
    if kind == "random":  # tied scores, some flat boxes
        return _boxes(rng, n, 150, flat=0.1), np.round(rng.random(n), 1), one
    if kind == "disjoint":
        return _disjoint(n), np.linspace(1.0, 0.0, n), one
    if kind == "sparse":  # most rows kept: the block size climbs to the cap
        return _boxes(rng, n, 1500), rng.random(n), one
    if kind == "copies":  # every row but the first is suppressed below threshold 1
        return np.tile([[3.0, 4.0, 30.0, 60.0]], (n, 1)), np.full(n, 0.5), one
    if kind == "flat":  # zero-area boxes never overlap anything
        return _boxes(rng, n, 60, flat=1.0), np.round(rng.random(n), 1), one
    if kind == "halving":
        return _doubling_then_halving()
    if kind == "frames":  # the largest frame is walked in blocks after the wavefront
        counts = [5, 300, 3, 6]
        segments = np.repeat(np.arange(len(counts)), counts)
        rng.shuffle(segments)
        return _boxes(rng, len(segments), 400), np.round(rng.random(len(segments)), 2), segments
    raise ValueError(name)


def _walk_blocks(monkeypatch):
    # Rows of each block the walk settles: its settle call passes two views
    # of one block, and no other iou_pairs call shares memory.
    blocks = []
    original = geometry.iou_pairs

    def recording(a, b):
        if np.shares_memory(a, b):
            blocks.append(a.shape[0])
        return original(a, b)

    monkeypatch.setattr(geometry, "iou_pairs", recording)
    return blocks


EDGES = [b + d for b in (16, 32, 64, 128, 256) for d in (-1, 0, 1)]


@pytest.mark.parametrize("threshold", [0.0, 1.0 / 3.0, 0.45, 0.5, 1.0])
@pytest.mark.parametrize(
    "case",
    [f"random-{n}" for n in [0, 1, *EDGES]]
    + [f"disjoint-{2 * b - 16 + d}" for b in (16, 32, 64, 128, 256) for d in (-1, 0, 1)]
    + ["copies-300", "flat-200", "halving", "frames", "sparse-1500"],
)
def test_segmented_nms_matches_the_walk_across_block_edges(case, threshold, monkeypatch):
    corners, scores, segments = _nms_case(case)
    blocks = _walk_blocks(monkeypatch)
    kept = geometry._segmented_nms(corners, scores, segments, threshold)
    assert np.array_equal(kept, walk_nms_ref(corners, scores, segments, threshold))
    assert kept.dtype == np.intp
    if case == "frames":
        assert blocks and sum(blocks) > 16  # the walk ran after the wavefront


@pytest.mark.parametrize("b", [16, 32, 64, 128, 256])
@pytest.mark.parametrize("d", [-1, 0, 1])
def test_walk_blocks_double_to_the_edge_of_the_frame(b, d, monkeypatch):
    # Disjoint rows that leave b + d live rows when the block size reaches b.
    blocks = _walk_blocks(monkeypatch)
    geometry._segmented_nms(*_nms_case(f"disjoint-{2 * b - 16 + d}"), 0.5)
    doubled = [16 << k for k in range(b.bit_length() - 5)]
    assert blocks == doubled + [min(b, b + d)] + [1] * (d == 1)


def test_walk_blocks_halve_when_half_the_block_is_suppressed(monkeypatch):
    blocks = _walk_blocks(monkeypatch)
    geometry._segmented_nms(*_doubling_then_halving(), 0.5)
    assert blocks[:8] == [16, 32, 64, 128, 64, 32, 16, 16]


def test_walk_blocks_stay_within_the_values_cap(monkeypatch):
    # After blocks of 16 to 128, 1,260 live rows allow 2**18 // 1,260 = 208.
    blocks = _walk_blocks(monkeypatch)
    geometry._segmented_nms(*_nms_case("disjoint-1500"), 0.5)
    assert blocks[:5] == [16, 32, 64, 128, 208]
    live = 1500 - np.cumsum([0, *blocks[:-1]])
    assert all(rows * n <= 1 << 18 for rows, n in zip(blocks, live.tolist()))


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
    inputs, columns = [], []
    for k, (dets, gts, as_table) in enumerate(frames):
        dets = [Detection(BBox(*box), score, "vis", "s80", f"{k}") for box, score in dets]
        evaluated = [GroundTruthBox(BBox(*box)) for box, ignored in gts if not ignored]
        ignored = [GroundTruthBox(BBox(*box), ignore=True) for box, ignored in gts if ignored]
        dets = DetectionTable.from_detections(dets) if as_table else dets
        inputs.append((dets, evaluated, ignored))
        # The matcher's columns hold each frame's ground truths as drawn,
        # evaluated and ignored ones interleaved.
        columns.append((
            [k] * len(dets), [d.box for d in dets], [d.score for d in dets],
            [k] * len(gts), [BBox(*box) for box, _ in gts], [not ignored for _, ignored in gts],
        ))
    det_frame, det_boxes, det_scores, gt_frame, gt_boxes, gt_evaluated = (
        [value for frame in columns for value in frame[i]] for i in range(6)
    )
    frame, scores, outcome = evaluation._match_frames(
        np.array(det_frame, dtype=np.intp), boxes_array(det_boxes), np.array(det_scores),
        np.array(gt_frame, dtype=np.intp), boxes_array(gt_boxes),
        np.array(gt_evaluated, dtype=bool), match_iou,
    )
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


# Curves for the log-average: FPPIs from the reference points themselves
# and values around them, so ties and exact hits are common, and misses
# including exact zeros.
curve_points = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, 0.005, 0.02, 0.5, 1.0, 2.0, *FPPI_REFERENCE_POINTS]),
                  st.floats(0.0, 5.0)),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1e-12]), st.floats(0.0, 1.0)),
    ),
    max_size=12,
)


@given(curve_points)
@example([])  # an empty curve samples 1.0 everywhere
@example([(0.0, 0.0), (3.0, 0.0)])  # an all-zero sample reports 0
@example([(0.5, 0.3), (2.0, 0.1), (0.5, 0.2)])  # references below the first FPPI
@example([(0.01, 0.4), (0.01, 0.3), (0.01, 0.5), (1.0, 0.3)])  # tied FPPIs
@settings(max_examples=300)
def test_log_average_matches_the_loop(points):
    got = evaluation._log_average(*np.array(points, dtype=np.float64).reshape(-1, 2).T)
    want = log_average_ref(points, FPPI_REFERENCE_POINTS)
    assert repr(got) == repr(want)


# Settings at the standard bounds (55 exclusive below, 45 and 115 inclusive)
# and random ones; heights exactly at a bound, and near one after the
# subtraction y_max - y_min.
bounds = st.one_of(st.none(), st.sampled_from([45.0, 55.0, 115.0]), st.floats(0.0, 300.0))
random_settings = st.builds(
    lambda lo, hi, lo_in, hi_in, occlusion: EvalSetting(
        "random", lo, hi if lo is None or hi is None or lo < hi else None, lo_in, hi_in,
        frozenset(occlusion),
    ),
    bounds, bounds, st.booleans(), st.booleans(),
    st.sets(st.sampled_from(OCCLUSION_LEVELS)),
)
height_boxes = st.tuples(
    st.sampled_from([0.0, 0.1, 7.3, 100.0]),
    st.one_of(st.sampled_from([0.0, 45.0, 55.0, 115.0]), st.floats(0.0, 300.0)),
).map(lambda t: BBox(0.0, t[0], 10.0, t[0] + t[1]))


@given(
    st.one_of(st.sampled_from(list(STANDARD_SETTINGS.values())), random_settings),
    st.lists(
        st.tuples(height_boxes, st.sampled_from(OCCLUSION_LEVELS), st.booleans()), max_size=12
    ),
)
@example(STANDARD_SETTINGS["reasonable"], [(BBox(0, 0, 10, 55.0), "none", False)])
@example(STANDARD_SETTINGS["medium"], [(BBox(0, 0, 10, 45.0), "none", False),
                                       (BBox(0, 0, 10, 115.0), "none", False)])
@example(STANDARD_SETTINGS["near"], [(BBox(0, 0, 10, 115.0), "none", False)])
@example(STANDARD_SETTINGS["far"], [(BBox(0, 0, 10, 45.0), "none", False)])
@settings(max_examples=300)
def test_setting_mask_matches_admits(setting, gts):
    gts = [GroundTruthBox(box, occlusion, ignore) for box, occlusion, ignore in gts]
    truths = GroundTruthTable.from_records([FrameRecord("f", gts=gts)])
    assert setting.mask(truths).tolist() == [setting.admits(g) for g in gts]


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
@example((2, 1, 6, 5), 3, 7, True, 2)  # 21 taps: the largest tap-sum kernel
@example((1, 2, 8, 4), 11, 7, True, 3)  # H + kh // 2 = 13 and W + kw // 2 = 7 are prime
@example((2, 1, 2, 1), 11, 9, False, 4)  # 7 FFT rows, fewer than the kernel's 11
@settings(max_examples=60, deadline=None)
def test_strip_conv_matches_the_loop_on_both_sides_of_the_fft_threshold(
    shape, kh, kw, per_channel, seed
):
    # Kernels from 1x1 to 11x11, so below and above the 25 taps at which
    # _depthwise switches from the tap sum to the FFT.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    kernel = rng.standard_normal((shape[1],) * per_channel + (kh, kw))
    np.testing.assert_allclose(
        strip_conv(x, kernel), loop_strip_conv(x, kernel), rtol=0, atol=1e-10
    )


conv_kernels = st.sampled_from([(1, 1), (1, 5), (5, 1), (3, 5), (3, 3)])


@given(
    st.integers(1, 2),
    st.sampled_from([1, 2, "C"]),
    st.integers(2, 3),
    st.integers(1, 4),
    st.integers(1, 3),
    st.tuples(st.integers(1, 7), st.integers(1, 7)),
    conv_kernels,
    st.integers(0, 2**32 - 1),
)
@example(1, 1, 2, 1, 1, (1, 6), (3, 5), 0)  # H = 1
@example(2, 2, 3, 1, 2, (5, 1), (1, 5), 1)  # W = 1
@example(1, "C", 2, 3, 2, (2, 3), (3, 5), 2)  # map smaller than the kernel
@settings(max_examples=60, deadline=None)
def test_conv2d_same_matches_the_loop(
    frames, groups, fan_in, channels, multiplier, side, ksize, seed
):
    # groups 1 and 2 with fan-in 2 or 3 take the flat per-tap products;
    # groups == C (fan-in 1) is depthwise at multiplier 1 and takes the
    # per-tap products above it.
    if groups == "C":
        groups, fan_in = channels, 1
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((frames, groups * fan_in) + side)
    weight = rng.standard_normal((groups * multiplier, fan_in) + ksize)
    bias = rng.standard_normal(groups * multiplier)
    np.testing.assert_allclose(
        conv2d_same(x, weight, bias, groups=groups),
        loop_conv2d(x, weight, bias, groups=groups),
        rtol=0,
        atol=1e-10,
    )
