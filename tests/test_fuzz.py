"""Boundary parsers under fuzzed input: each call either parses or raises a
ValueError. Any other exception (KeyError, TypeError, IndexError, ...) is a
missing check at the boundary."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msfusion.containers import TENSORS_MAGIC, load_tensors, save_tensors
from msfusion.ingest import (
    load_config,
    load_manifest,
    parse_annotation_text,
    parse_detection_line,
    run_config_from_mapping,
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
