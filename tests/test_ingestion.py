import json
import logging

import pytest

from iodkit.geometry import BoundingBox
from iodkit.ingestion import (
    Dataset,
    canonical_json,
    denormalize,
    export_coco,
    fixture_path,
    normalize,
    parse_coco,
    to_coco_doc,
)


def minimal_doc():
    return {
        "images": [{"id": 1, "width": 100, "height": 100}],
        "annotations": [{"id": 1, "image_id": 1, "category_id": 5, "bbox": [25.0, 25.0, 50.0, 50.0]}],
        "categories": [{"id": 5, "name": "thing"}],
    }


def write_doc(tmp_path, doc, name="d.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestParse:
    def test_minimal_valid(self, tmp_path):
        raw = parse_coco(write_doc(tmp_path, minimal_doc()))
        assert len(raw.images) == 1
        assert len(raw.annotations) == 1
        assert raw.category_map == {5: 0}

    def test_unknown_image_id_listed(self, tmp_path):
        doc = minimal_doc()
        doc["annotations"].append({"id": 2, "image_id": 99, "category_id": 5, "bbox": [0, 0, 1, 1]})
        with pytest.raises(ValueError, match=r"unknown image ids: \[2\]"):
            parse_coco(write_doc(tmp_path, doc))

    def test_unknown_category_listed(self, tmp_path):
        doc = minimal_doc()
        doc["annotations"].append({"id": 7, "image_id": 1, "category_id": 42, "bbox": [0, 0, 1, 1]})
        with pytest.raises(ValueError, match=r"unknown category ids: \[7\]"):
            parse_coco(write_doc(tmp_path, doc))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="malformed JSON"):
            parse_coco(p)

    def test_zero_area_dropped_negative_clamped(self, tmp_path, caplog):
        doc = minimal_doc()
        doc["annotations"].append({"id": 2, "image_id": 1, "category_id": 5, "bbox": [10, 10, 0.0, 5.0]})
        doc["annotations"].append({"id": 3, "image_id": 1, "category_id": 5, "bbox": [10, 10, -4.0, 5.0]})
        doc["annotations"].append({"id": 4, "image_id": 1, "category_id": 5, "bbox": [10, 10, -4.0, -5.0]})
        with caplog.at_level(logging.WARNING, logger="iodkit.ingestion"):
            raw = parse_coco(write_doc(tmp_path, doc))
        assert [a.id for a in raw.annotations] == [1]
        # one counted warning lists every dropped id; nothing is clamped and kept
        assert [r.getMessage() for r in caplog.records] == [
            "3 annotations have a negative side or zero area; dropped: [2, 3, 4]"
        ]

    def test_fixture_counts(self):
        raw = parse_coco(fixture_path())
        assert len(raw.images) == 12
        assert len(raw.annotations) == 31
        assert len(raw.categories) == 4
        assert raw.category_map == {1: 0, 3: 1, 7: 2, 9: 3}


class TestNormalize:
    def test_centered_box(self, tmp_path):
        ds = normalize(parse_coco(write_doc(tmp_path, minimal_doc())))
        a = ds.annotations[0]
        assert a.box == BoundingBox(0.5, 0.5, 0.5, 0.5)
        assert a.area_px == 2500.0
        assert a.category == 0

    def test_full_image_box(self, tmp_path):
        doc = minimal_doc()
        doc["annotations"][0]["bbox"] = [0.0, 0.0, 100.0, 100.0]
        ds = normalize(parse_coco(write_doc(tmp_path, doc)))
        assert ds.annotations[0].box == BoundingBox(0.5, 0.5, 1.0, 1.0)

    def test_box_crossing_left_edge_is_cropped(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 640, "height": 480}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 5, "bbox": [-50.0, 10.0, 100.0, 20.0]}],
            "categories": [{"id": 5, "name": "thing"}],
        }
        a = normalize(parse_coco(write_doc(tmp_path, doc))).annotations[0]
        assert a.area_px == 1000.0
        assert a.bbox_px == (0.0, 10.0, 50.0, 20.0)
        assert a.box == BoundingBox(25.0 / 640, 20.0 / 480, 50.0 / 640, 20.0 / 480)

    def test_box_crossing_right_and_bottom_edges_is_cropped(self, tmp_path):
        doc = minimal_doc()
        doc["annotations"][0]["bbox"] = [80.0, 90.0, 40.0, 30.0]
        a = normalize(parse_coco(write_doc(tmp_path, doc))).annotations[0]
        assert a.bbox_px == (80.0, 90.0, 20.0, 10.0)
        assert a.area_px == 200.0

    def test_box_wholly_outside_is_dropped_with_a_count(self, tmp_path, caplog):
        doc = {
            "images": [{"id": 1, "width": 640, "height": 480}],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 5, "bbox": [700.0, 10.0, 50.0, 20.0]},
                {"id": 2, "image_id": 1, "category_id": 5, "bbox": [10.0, -40.0, 50.0, 20.0]},
                {"id": 3, "image_id": 1, "category_id": 5, "bbox": [10.0, 10.0, 50.0, 20.0]},
            ],
            "categories": [{"id": 5, "name": "thing"}],
        }
        with caplog.at_level("WARNING", logger="iodkit.ingestion"):
            ds = normalize(parse_coco(write_doc(tmp_path, doc)))
        assert [a.id for a in ds.annotations] == [3]
        assert "2 annotations lie wholly outside their image; dropped: [1, 2]" in caplog.text

    def test_box_inside_keeps_its_exact_fields(self, tmp_path):
        # (x + w) - x != w in floating point here; a box inside the image keeps w itself
        x, w = 16.823, 13.687
        assert (x + w) - x != w
        doc = minimal_doc()
        doc["annotations"][0]["bbox"] = [x, 25.0, w, 50.0]
        a = normalize(parse_coco(write_doc(tmp_path, doc))).annotations[0]
        assert a.bbox_px == (x, 25.0, w, 50.0)
        assert a.area_px == w * 50.0
        assert a.box == BoundingBox((x + w / 2) / 100, 0.5, w / 100, 0.5)

    def test_denormalize_roundtrip(self, tmp_path):
        ds = normalize(parse_coco(write_doc(tmp_path, minimal_doc())))
        a = ds.annotations[0]
        x, y, w, h = denormalize(a.box, 100, 100)
        assert abs(x - 25.0) < 1e-9
        assert abs(y - 25.0) < 1e-9
        assert abs(w - 50.0) < 1e-9
        assert abs(h - 50.0) < 1e-9


class TestExport:
    def test_fixture_is_canonical(self):
        text = fixture_path().read_text()
        ds = normalize(parse_coco(fixture_path()))
        assert canonical_json(to_coco_doc(ds)) == text

    def test_export_parse_identity(self, tmp_path):
        ds = normalize(parse_coco(fixture_path()))
        out = tmp_path / "exported.json"
        export_coco(ds, out)
        again = normalize(parse_coco(out))
        assert again.images == ds.images
        assert again.annotations == ds.annotations
        assert again.category_names == ds.category_names
        # second export byte-identical
        out2 = tmp_path / "exported2.json"
        export_coco(again, out2)
        assert out.read_text() == out2.read_text()

    def test_empty_dataset(self, tmp_path):
        ds = Dataset(images=[], annotations=[], category_names=[], category_map={})
        out = tmp_path / "empty.json"
        export_coco(ds, out)
        doc = json.loads(out.read_text())
        assert doc == {"images": [], "annotations": [], "categories": []}
