"""File format parsing, serialization round trips, and run configuration."""

import json
import re

import pytest

from msfusion import ingest
from msfusion.evaluation import STANDARD_SETTINGS, apply_setting
from msfusion.geometry import SCALES, BBox, Detection, DetectionTable
from msfusion.ingest import (
    Manifest,
    ManifestFrame,
    RunConfig,
    group_by_frame,
    ingest_annotations,
    ingest_detections,
    load_config,
    load_manifest,
    parse_annotation_text,
    parse_detection_line,
    run_config_from_mapping,
    save_manifest,
    serialize_annotations,
    serialize_detections,
)


class TestAnnotations:
    def test_xywh_converted_to_corners(self):
        gts = parse_annotation_text("% bbGt version=3\nperson 10 20 30 60 0\n")
        assert len(gts) == 1
        assert gts[0].box == BBox(10, 20, 40, 80)
        assert gts[0].occlusion == "none"
        assert gts[0].height == 60
        assert not gts[0].ignore

    def test_empty_body(self):
        assert parse_annotation_text("% bbGt version=3\n") == []

    def test_heavy_occlusion_excluded_from_reasonable(self):
        gts = parse_annotation_text("% bbGt version=3\nperson 0 0 30 80 2\n")
        assert gts[0].occlusion == "heavy"
        evaluated, ignored = apply_setting(gts, STANDARD_SETTINGS["reasonable"])
        assert evaluated == [] and len(ignored) == 1

    def test_unknown_label_becomes_ignore(self):
        gts = parse_annotation_text("% bbGt version=3\nperson? 0 0 30 80 0\n")
        assert gts[0].ignore

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_annotation_text("person 0 0 30 80 0\n", source="x.txt")

    def test_malformed_line_reports_location(self):
        text = "% bbGt version=3\nperson 0 0 30 80 0\nperson a b c d 0\n"
        with pytest.raises(ValueError, match="x.txt:3"):
            parse_annotation_text(text, source="x.txt")

    def test_bad_occlusion_code(self):
        with pytest.raises(ValueError, match="occlusion"):
            parse_annotation_text("% bbGt version=3\nperson 0 0 30 80 5\n")

    def test_non_finite_annotation_rejected_with_location(self):
        with pytest.raises(ValueError, match="ann.txt:3: invalid box corners"):
            parse_annotation_text(
                "% bbGt version=3\nperson 0 0 10 20 0\nperson 0 0 inf 20 0\n", "ann.txt"
            )

    def test_scaling_applied(self):
        gts = parse_annotation_text(
            "% bbGt version=3\nperson 10 20 30 60 0\n", scale_x=2.0, scale_y=0.5
        )
        assert gts[0].box == BBox(20, 10, 80, 40)

    def test_roundtrip_lossless(self):
        text = (
            "% bbGt version=3\n"
            "person 10.0 20.0 30.0 60.0 0\n"
            "person 5.5 2.25 10.75 40.5 1\n"
            "ignore 0.0 0.0 12.0 12.0 2\n"
        )
        gts = parse_annotation_text(text)
        again = parse_annotation_text(serialize_annotations(gts))
        assert again == gts

    def test_directory_ingestion(self, tmp_path):
        for stem in ("000001", "000002"):
            (tmp_path / f"{stem}.txt").write_text(
                "% bbGt version=3\nperson 0 0 30 80 0\n", encoding="utf-8"
            )
        records = ingest_annotations(tmp_path, time_of_day="night")
        assert [r.frame_id for r in records] == ["000001", "000002"]
        assert all(r.time_of_day == "night" for r in records)
        assert all(len(r.gts) == 1 for r in records)


class TestDetections:
    def test_example_line(self):
        d = parse_detection_line("000123 vis s80 10 10 50 110 0.93")
        assert d == Detection(BBox(10, 10, 50, 110), 0.93, "vis", "s80", "000123")

    def test_modality_aliases(self):
        assert parse_detection_line("f thermal s40 0 0 1 1 0.5").modality == "ir"
        assert parse_detection_line("f visible s40 0 0 1 1 0.5").modality == "vis"

    def test_duplicates_kept(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            "000123 vis s80 10 10 50 110 0.93\n000123 vis s80 10 10 50 110 0.93\n",
            encoding="utf-8",
        )
        assert len(ingest_detections(path)) == 2

    def test_out_of_range_score_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("000123 vis s80 10 10 50 110 1.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"d\.txt:1"):
            ingest_detections(path)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError, match="invalid box"):
            parse_detection_line("f vis s80 50 10 10 110 0.5", "x", 4)

    def test_non_finite_corner_rejected_with_location(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("f1 vis s80 0 0 10 10 0.9\nf1 vis s80 0 0 inf 10 0.9\n", "utf-8")
        with pytest.raises(ValueError, match=r"d\.txt:2: invalid box corners"):
            ingest_detections(path)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale_id"):
            parse_detection_line("f vis s77 0 0 1 1 0.5")

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            "# header = 1\n\n000123 ir s20 0 0 5 5 0.25\n", encoding="utf-8"
        )
        dets = ingest_detections(path)
        assert len(dets) == 1 and dets[0].modality == "ir"

    def test_roundtrip_lossless(self, tmp_path):
        dets = [
            Detection(BBox(10.0, 10.0, 50.0, 110.0), 0.93, "vis", "s80", "000123"),
            Detection(BBox(0.25, 1.5, 5.75, 9.125), 0.5, "ir", "s40", "000124"),
        ]
        path = tmp_path / "d.txt"
        path.write_text(serialize_detections(dets, {"strategy": "both"}), encoding="utf-8")
        again = ingest_detections(path)
        assert [(d.frame_id, d.modality, d.scale_id, d.box, d.score) for d in again] == [
            (d.frame_id, d.modality, d.scale_id, d.box, d.score) for d in dets
        ]


    def test_reads_a_table_and_writes_it_back_byte_for_byte(self, tmp_path):
        dets = [
            Detection(BBox(10.0, -0.0, 50.0, 110.0), 0.93, "vis", "s80", "b"),
            Detection(BBox(0.25, 1.5, 5.75, 9.125), 0.5, "ir", "s40", "a"),
            Detection(BBox(1e-300, 2.0, 3.0, 1e300), 1.0, "fused", "s20", "a\x00"),
        ]
        text = serialize_detections(dets, {"k": "v"})
        path = tmp_path / "d.txt"
        path.write_text(text, encoding="utf-8")
        table = ingest_detections(path)
        assert isinstance(table, DetectionTable) and table == dets
        assert serialize_detections(table, {"k": "v"}) == text

    @pytest.mark.parametrize("frame_id", ["#x", "", "a b", "a\tb", "a\x0bb", "a\u2028b", "a\n"])
    def test_serialize_rejects_a_frame_id_the_line_format_cannot_carry(self, frame_id):
        # "#x" used to be written as a comment line, so its row was lost on
        # reading; "" and "a b" failed later, naming a line the writer made.
        dets = [
            Detection(BBox(0, 0, 1, 1), 0.5, "vis", "s80", "a"),
            Detection(BBox(0, 0, 1, 1), 0.5, "vis", "s80", frame_id),
        ]
        for rows in (dets, DetectionTable.from_detections(dets)):
            with pytest.raises(ValueError, match=f"frame id {re.escape(repr(frame_id))}"):
                serialize_detections(rows)

    def test_serialize_checks_only_the_frame_ids_of_its_rows(self):
        table = DetectionTable.from_detections(
            [Detection(BBox(0, 0, 1, 1), 0.5, "vis", "s80", f) for f in ("#x", "a#b")]
        )
        assert serialize_detections(table.subset(frame_id="a#b")).startswith("a#b vis s80 ")

    def test_a_valid_dump_never_reaches_the_line_parser(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("parse_detection_line called")

        monkeypatch.setattr(ingest, "parse_detection_line", refuse)
        lines = ["# header = 1", ""] + [
            f"{k // 7:06d}\t{('vis', 'ir')[k % 2]} {SCALES[k % 3]}  {k % 50}.5 0 {k % 50 + 10}.25 "
            f"20 0.{k:03d}"
            for k in range(1000)
        ]
        path = tmp_path / "d.txt"
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
        table = ingest_detections(path)
        assert len(table) == 1000 and len(table.frame_ids) == 143

    def test_group_by_frame_of_a_table_and_a_list_agree(self):
        dets = [
            Detection(BBox(0, 0, 1, 1), 0.5, "vis", "s80", frame)
            for frame in ("b", "a", "b", "a\x00")
        ]
        lists = group_by_frame(dets)
        tables = group_by_frame(DetectionTable.from_detections(dets))
        assert list(lists) == list(tables) == ["b", "a", "a\x00"]
        assert all(lists[f][0] is dets[[d.frame_id for d in dets].index(f)] for f in lists)
        assert all(tables[f] == lists[f] for f in lists)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.n_top == 300
        assert cfg.postprocess.strategy == "algo1"
        assert cfg.scale_strides["s80"] == 8.0

    def test_config_file_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# demo config\nn_top = 10\nstrategy = both\n"
            "iou_thres = 0.4\nsettings = reasonable,all\nstride_s20 = 64\n",
            encoding="utf-8",
        )
        cfg = run_config_from_mapping(load_config(path))
        assert cfg.n_top == 10
        assert cfg.postprocess.strategy == "both"
        assert cfg.postprocess.iou_thres == 0.4
        assert cfg.settings == ("reasonable", "all")
        assert cfg.scale_strides["s20"] == 64.0
        assert cfg.scale_strides["s80"] == 8.0  # untouched default

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            run_config_from_mapping({"betaa": "1"})

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("beta: 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="run.cfg:1"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [("n_top", "3.5"), ("n_top", "many"), ("iou_thres", "half"), ("stride_s40", "x")],
    )
    def test_malformed_value_names_the_key(self, key, value):
        # n_top = 3.5 used to fail as "invalid literal for int()".
        with pytest.raises(ValueError, match=f"^{key}: expected"):
            run_config_from_mapping({key: value})

    @pytest.mark.parametrize("value", ["0", "-8", "nan", "inf", "-inf"])
    def test_non_positive_or_non_finite_stride_rejected(self, value):
        with pytest.raises(ValueError, match="stride_s80"):
            run_config_from_mapping({"stride_s80": value})

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError, match="eval setting"):
            run_config_from_mapping({"settings": "unreasonable"})

    @pytest.mark.parametrize("value", ["", ",", " , "])
    def test_empty_settings_rejected(self, value):
        # ``settings =`` used to make eval print a header and no rows.
        with pytest.raises(ValueError, match="^settings: expected at least one eval setting$"):
            run_config_from_mapping({"settings": value})

    def test_echo_roundtrips_through_the_parser(self):
        cfg = run_config_from_mapping(
            {"strategy": "ir", "iou_thres": "0.41", "n_top": "12", "stride_s40": "12.5"}
        )
        again = run_config_from_mapping(cfg.echo())
        assert again == cfg

    def test_echo_covers_every_numeric_default(self):
        echo = RunConfig().echo()
        for key in (
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
        ):
            assert key in echo


class TestManifest:
    def _manifest(self, tmp_path):
        for stem in ("000001", "000004"):
            (tmp_path / f"{stem}.txt").write_text(
                "% bbGt version=3\nperson 0 0 30 80 0\n", encoding="utf-8"
            )
        return Manifest(
            frames=(
                ManifestFrame("000001", "day", annotations="000001.txt"),
                ManifestFrame("000004", "night", annotations="000004.txt"),
            ),
            frames_per_group=2,
            stride=3,
            groups=(("000001", "000004"),),
            root=tmp_path,
        )

    def test_roundtrip(self, tmp_path):
        manifest = self._manifest(tmp_path)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        back = load_manifest(path)
        assert back.frames == manifest.frames
        assert back.groups == manifest.groups
        assert back.stride == 3
        assert back.frames_per_group == 2

    def test_load_records_reads_annotations(self, tmp_path):
        manifest = self._manifest(tmp_path)
        records = manifest.load_records()
        assert [r.time_of_day for r in records] == ["day", "night"]
        assert all(len(r.gts) == 1 for r in records)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Manifest(
                frames=(
                    ManifestFrame("a", "day"),
                    ManifestFrame("a", "night"),
                )
            )

    def test_wrong_group_size_rejected(self):
        with pytest.raises(ValueError, match="members"):
            Manifest(
                frames=(ManifestFrame("000001", "day"), ManifestFrame("000002", "day")),
                frames_per_group=3,
                stride=1,
                groups=(("000001", "000002"),),
            )

    def test_wrong_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            Manifest(
                frames=(ManifestFrame("000001", "day"), ManifestFrame("000003", "day")),
                frames_per_group=2,
                stride=3,
                groups=(("000001", "000003"),),
            )

    @pytest.mark.parametrize(
        "payload",
        [
            {"frames": [{"time_of_day": "day"}]},  # no frame_id: was KeyError
            {"frames": [], "annotation_scale": [2]},  # was IndexError
            [{"frame_id": "a"}],  # top-level list: was AttributeError
            {"frames": ["a"]},
            {"frames": 3},
            {"frames": [], "sequence": [1, 2]},
            {"frames": [], "annotation_scale": [1, None]},
            {"frames": [], "annotation_scale": ["x", 1]},
            {"frames": [{"frame_id": "a", "time_of_day": "dusk"}]},  # failed in load_records
            {"frames": [{"frame_id": "a", "annotations": 5}]},  # TypeError in load_records
            {"frames": [{"frame_id": "a", "annotations": ["a.txt"]}]},
            {"frames": [], "annotation_scale": [0, 1]},  # zero-width gts: eval exited 0
            {"frames": [], "annotation_scale": [-1, 1]},
            {"frames": [], "annotation_scale": [float("nan"), 1]},
        ],
    )
    def test_malformed_manifest_raises_value_error_naming_file(self, tmp_path, payload):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_manifest(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "payload, message",
        [
            # A misspelt key used to be ignored: eval exited 0 with n/a rows.
            ({"frames": [], "sequnce": {"stride": 1}}, "unknown key 'sequnce'"),
            ({"frames": [], "sequence": {"strides": 2}}, "sequence: unknown key 'strides'"),
            (
                {"frames": [{"frame_id": "a", "anotations": "a.txt"}]},
                "frame 'a': unknown key 'anotations'",
            ),
            (
                {"frames": [{"frame_id": "a", "detections": "a.txt"}]},
                "frame 'a': unknown key 'detections'",
            ),
        ],
    )
    def test_unknown_key_names_file_and_key(self, tmp_path, payload, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}: {message}"

    @staticmethod
    def _sequence_manifest(path, **sequence):
        # Frames 1, 3 and 5 as one group of three spaced by stride 2, with
        # ``sequence`` written over the valid block.
        block = {"frames_per_group": 3, "stride": 2, "groups": [["1", "3", "5"]], **sequence}
        frames = [{"frame_id": fid} for fid in ("1", "3", "5")]
        path.write_text(json.dumps({"frames": frames, "sequence": block}), encoding="utf-8")
        return path

    def test_sequence_block_loads(self, tmp_path):
        manifest = load_manifest(self._sequence_manifest(tmp_path / "m.json"))
        assert (manifest.frames_per_group, manifest.stride) == (3, 2)
        assert manifest.groups == (("1", "3", "5"),)
        unset = load_manifest(
            self._sequence_manifest(tmp_path / "n.json", frames_per_group=None, stride=None)
        )
        assert (unset.frames_per_group, unset.stride) == (None, None)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("frames_per_group", "3"),  # was "does not have 3 members"
            ("frames_per_group", 0),
            ("frames_per_group", -2),
            ("frames_per_group", 2.5),
            ("frames_per_group", True),
            ("stride", "2"),  # was "is not spaced by stride 2"
            ("stride", 0),
            ("stride", -2),
            ("stride", 2.5),
            ("groups", "abc"),  # was read as groups of single characters
            ("groups", ["135"]),
            ("groups", 5),
            ("groups", {"a": ["1"]}),
        ],
    )
    def test_malformed_sequence_names_file_and_key(self, tmp_path, key, value):
        path = self._sequence_manifest(tmp_path / "manifest.json", **{key: value})
        with pytest.raises(ValueError) as err:
            load_manifest(path)
        assert str(err.value).startswith(f"{path}: sequence.{key}: ")

    def test_current_frames_are_group_tails(self, tmp_path):
        manifest = self._manifest(tmp_path)
        assert manifest.current_frames() == ["000004"]
