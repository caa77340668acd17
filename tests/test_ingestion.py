import json
import logging
from pathlib import Path

import pytest

from iodkit.geometry import BoundingBox
from iodkit.ingestion import Annotation, Dataset, ImageInfo, RawAnnotation, RawDataset, normalize, parse_coco

FIXTURE = Path(__file__).parent / "data" / "coco12.json"


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
        assert raw.categories == [(5, "thing")]

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

    def test_duplicate_annotation_ids_listed(self, tmp_path):
        doc = minimal_doc()
        for aid in (1, 3, 3):
            doc["annotations"].append({"id": aid, "image_id": 1, "category_id": 5, "bbox": [0, 0, 1, 1]})
        with pytest.raises(ValueError, match=r"duplicate annotation ids: \[1, 3\]"):
            parse_coco(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_bbox_listed(self, tmp_path, value):
        # json writes these as Infinity, -Infinity and NaN, which json.loads accepts
        doc = minimal_doc()
        doc["annotations"].append({"id": 2, "image_id": 1, "category_id": 5, "bbox": [10, 10, value, 20]})
        doc["annotations"].append({"id": 3, "image_id": 1, "category_id": 5, "bbox": [value, 10, 5, 20]})
        with pytest.raises(ValueError, match=r"non-finite bbox value: \[2, 3\]"):
            parse_coco(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("images", "id", 1.9, r"images have a non-integral id, width or height: \[1\.9\]"),
            ("images", "width", 640.7, r"images have a non-integral id, width or height: \[1\]"),
            ("images", "height", 480.2, r"images have a non-integral id, width or height: \[1\]"),
            ("categories", "id", 5.5, r"non-integral category ids: \[5\.5\]"),
            ("annotations", "id", 1.5, r"non-integral id, image_id or category_id: \[1\.5\]"),
            ("annotations", "image_id", 1.9, r"non-integral id, image_id or category_id: \[1\]"),
            ("annotations", "category_id", 5.5, r"non-integral id, image_id or category_id: \[1\]"),
            ("annotations", "image_id", "1", r"non-integral id, image_id or category_id: \[1\]"),
            # JSON true is not the integer 1, as it is not a bbox number
            ("images", "id", True, r"images have a non-integral id, width or height: \[True\]"),
            ("images", "width", True, r"images have a non-integral id, width or height: \[1\]"),
            ("images", "height", True, r"images have a non-integral id, width or height: \[1\]"),
            ("categories", "id", True, r"non-integral category ids: \[True\]"),
            ("annotations", "id", True, r"non-integral id, image_id or category_id: \[True\]"),
            ("annotations", "image_id", True, r"non-integral id, image_id or category_id: \[1\]"),
            ("annotations", "category_id", True, r"non-integral id, image_id or category_id: \[1\]"),
        ],
    )
    def test_non_integral_value_listed(self, tmp_path, section, key, value, message):
        # int() would truncate each of these silently; the parse names the record instead
        doc = minimal_doc()
        doc[section][0][key] = value
        with pytest.raises(ValueError, match=message):
            parse_coco(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "section, edit, message",
        [
            ("annotations", lambda recs: recs[0].pop("bbox"), r"annotations .*: id 1 lacks 'bbox'$"),
            ("annotations", lambda recs: recs[0].pop("id"), r"annotations .*: index 0 lacks 'id'$"),
            ("images", lambda recs: recs[0].pop("width"), r"images .*: id 1 lacks 'width'$"),
            ("images", lambda recs: recs[0].pop("id"), r"images .*: index 0 lacks 'id'$"),
            ("categories", lambda recs: recs[0].pop("name"), r"categories .*: id 5 lacks 'name'$"),
            ("categories", lambda recs: recs[0].pop("id"), r"categories .*: index 0 lacks 'id'$"),
            ("annotations", lambda recs: recs.append([2, 1, 5, [0, 0, 1, 1]]), r"annotations .*: index 1 is not an object$"),
            ("images", lambda recs: recs.append("2.jpg"), r"images .*: index 1 is not an object$"),
        ],
        ids=[
            "annotation-without-bbox",
            "annotation-without-id",
            "image-without-width",
            "image-without-id",
            "category-without-name",
            "category-without-id",
            "annotation-as-list",
            "image-as-string",
        ],
    )
    def test_malformed_record_named(self, tmp_path, section, edit, message):
        doc = minimal_doc()
        edit(doc[section])
        with pytest.raises(ValueError, match=message):
            parse_coco(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("doc", [5, "images", None])
    def test_top_level_not_an_object(self, tmp_path, doc):
        with pytest.raises(ValueError, match=r"missing or invalid 'images' array"):
            parse_coco(write_doc(tmp_path, doc))

    def test_every_malformed_record_listed(self, tmp_path):
        doc = minimal_doc()
        doc["annotations"] += [{"id": 2, "image_id": 1}, None, {"id": 4, "image_id": 1, "category_id": 5, "bbox": [0, 0, 1, 1]}]
        with pytest.raises(ValueError) as err:
            parse_coco(write_doc(tmp_path, doc))
        assert str(err.value) == (
            "annotations are not objects or lack a key: id 2 lacks 'category_id', 'bbox'; index 2 is not an object"
        )

    def test_infinite_image_width_listed(self, tmp_path):
        doc = minimal_doc()
        doc["images"].append({"id": 2, "width": float("inf"), "height": 100})
        with pytest.raises(ValueError, match=r"images have a non-integral id, width or height: \[2\]"):
            parse_coco(write_doc(tmp_path, doc))

    def test_nan_annotation_id_listed(self, tmp_path):
        doc = minimal_doc()
        doc["annotations"].append({"id": float("nan"), "image_id": 1, "category_id": 5, "bbox": [0, 0, 1, 1]})
        with pytest.raises(ValueError, match=r"non-integral id, image_id or category_id: \[nan\]"):
            parse_coco(write_doc(tmp_path, doc))

    def test_three_element_bbox_listed(self, tmp_path):
        doc = minimal_doc()
        doc["annotations"].append({"id": 2, "image_id": 1, "category_id": 5, "bbox": [0, 0, 1]})
        doc["annotations"].append({"id": 3, "image_id": 1, "category_id": 5, "bbox": [0, None, 1, 1]})
        with pytest.raises(ValueError, match=r"bbox that is not four numbers: \[2, 3\]"):
            parse_coco(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "bbox",
        [
            "1234",  # iterated, it gave (1, 2, 3, 4)
            {"5": 0, "6": 0, "7": 0, "8": 0},  # iterated, it gave its keys
            [True, 0, 1, 1],  # a bool read as 1.0
            ["1", "2", "3", "4"],  # numbers as text
            [10**400, 1, 1, 1],  # an int too large for a float, in each position
            [1, 10**400, 1, 1],
            [1, 1, 10**400, 1],
            [1, 1, 1, 10**400],
        ],
    )
    def test_bbox_that_is_not_a_list_of_four_numbers_listed(self, tmp_path, bbox):
        doc = minimal_doc()
        doc["annotations"].append({"id": 2, "image_id": 1, "category_id": 5, "bbox": bbox})
        with pytest.raises(ValueError, match=r"bbox that is not four numbers: \[2\]"):
            parse_coco(write_doc(tmp_path, doc))

    def test_null_ids_listed(self, tmp_path):
        doc = minimal_doc()
        doc["annotations"].append({"id": None, "image_id": 1, "category_id": 5, "bbox": [0, 0, 1, 1]})
        with pytest.raises(ValueError, match=r"non-integral id, image_id or category_id: \[None\]"):
            parse_coco(write_doc(tmp_path, doc))
        doc = minimal_doc()
        doc["categories"].append({"id": None, "name": "nothing"})
        with pytest.raises(ValueError, match=r"non-integral category ids: \[None\]"):
            parse_coco(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("name", [None, ["a"], 3])
    def test_non_string_category_name_listed(self, tmp_path, name):
        # read as text, null would become "None" and collide with the category of that name
        doc = minimal_doc()
        doc["categories"].append({"id": 6, "name": "None"})
        doc["categories"].append({"id": 7, "name": name})
        with pytest.raises(ValueError, match=r"category names that are not strings: \[7\]$"):
            parse_coco(write_doc(tmp_path, doc))

    def test_integral_floats_accepted(self, tmp_path):
        doc = minimal_doc()
        doc["images"][0].update(id=1.0, width=100.0, height=100.0)
        doc["annotations"][0].update(id=1.0, image_id=1.0, category_id=5.0)
        doc["categories"][0]["id"] = 5.0
        raw = parse_coco(write_doc(tmp_path, doc))
        assert raw.images == [ImageInfo(id=1, width=100, height=100)]
        assert [(a.id, a.image_id, a.category_id) for a in raw.annotations] == [(1, 1, 5)]
        assert raw.categories == [(5, "thing")] and type(raw.categories[0][0]) is int

    @pytest.mark.parametrize("size", [{"width": 0}, {"height": -480}], ids=["zero-width", "negative-height"])
    def test_non_positive_dimensions_named(self, tmp_path, size):
        doc = minimal_doc()
        doc["images"].append({"id": 2, "width": 640, "height": 480, **size})
        with pytest.raises(ValueError, match="^image 2 has non-positive dimensions$"):
            parse_coco(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "section, record, message",
        [
            ("images", {"id": 1, "width": 50, "height": 50}, "duplicate image ids"),
            ("categories", {"id": 5, "name": "other"}, "duplicate category ids"),
        ],
        ids=["images", "categories"],
    )
    def test_duplicate_ids_rejected(self, tmp_path, section, record, message):
        doc = minimal_doc()
        doc[section].append(record)
        with pytest.raises(ValueError, match=f"^{message}$"):
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
        raw = parse_coco(FIXTURE)
        assert len(raw.images) == 12
        assert len(raw.annotations) == 31
        assert [cid for cid, _ in raw.categories] == [1, 3, 7, 9]
        assert normalize(raw).category_map == {1: 0, 3: 1, 7: 2, 9: 3}


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

    @pytest.mark.parametrize("width, height", [(-640, 480), (640, -480), (0, 480)])
    def test_non_positive_image_size_rejected(self, tmp_path, width, height):
        # a hand-built RawDataset skips parse_coco's check; its boxes are not dropped as outside
        raw = parse_coco(write_doc(tmp_path, minimal_doc()))
        raw.images[0] = ImageInfo(id=1, width=width, height=height)
        with pytest.raises(ValueError, match="^image 1 has non-positive dimensions$"):
            normalize(raw)

    def test_unknown_image_rejected(self, tmp_path):
        raw = parse_coco(write_doc(tmp_path, minimal_doc()))
        raw.annotations.append(RawAnnotation(id=2, image_id=2, category_id=5, bbox=(0.0, 0.0, 1.0, 1.0)))
        with pytest.raises(ValueError, match=r"^annotations reference unknown image ids: \[2\]$"):
            normalize(raw)

    def test_unknown_category_rejected(self, tmp_path):
        raw = parse_coco(write_doc(tmp_path, minimal_doc()))
        raw.annotations.append(RawAnnotation(id=2, image_id=1, category_id=7, bbox=(0.0, 0.0, 1.0, 1.0)))
        with pytest.raises(ValueError, match=r"^annotations reference unknown category ids: \[2\]$"):
            normalize(raw)

    def test_dense_index_is_the_position_in_categories(self):
        # a hand-built RawDataset: nothing but the order of categories gives the dense index
        box = (0.0, 0.0, 10.0, 10.0)
        raw = RawDataset(
            images=[ImageInfo(id=1, width=100, height=100)],
            annotations=[RawAnnotation(1, 1, 9, box), RawAnnotation(2, 1, 3, box)],
            categories=[(3, "b"), (9, "a")],
        )
        ds = normalize(raw)
        assert [a.category for a in ds.annotations] == [1, 0]
        assert ds.category_names == ["b", "a"] and ds.category_map == {3: 0, 9: 1}

    def test_denormalize_roundtrip(self, tmp_path):
        ds = normalize(parse_coco(write_doc(tmp_path, minimal_doc())))
        a = ds.annotations[0]
        assert a.bbox_px == (25.0, 25.0, 50.0, 50.0)
        # the normalized center-size box scaled back to the 100 x 100 image is the pixel box
        x, y, w, h = a.bbox_px
        assert abs((a.box.cx - a.box.w / 2) * 100 - x) < 1e-9
        assert abs((a.box.cy - a.box.h / 2) * 100 - y) < 1e-9
        assert abs(a.box.w * 100 - w) < 1e-9
        assert abs(a.box.h * 100 - h) < 1e-9


class TestByImage:
    def test_groups_in_annotation_order(self, tmp_path):
        doc = minimal_doc()
        doc["images"].append({"id": 2, "width": 100, "height": 100})
        for aid, image_id in ((2, 2), (3, 1)):
            doc["annotations"].append({"id": aid, "image_id": image_id, "category_id": 5, "bbox": [0, 0, 1, 1]})
        groups = normalize(parse_coco(write_doc(tmp_path, doc))).by_image()
        assert {i: [a.id for a in anns] for i, anns in groups.items()} == {1: [1, 3], 2: [2]}

    def test_annotation_of_an_image_the_set_lacks_named(self):
        # a hand-built Dataset: by_image named only the key, as a bare KeyError: 2
        box = BoundingBox(0.5, 0.5, 0.2, 0.2)
        pairs = ((1, 1), (2, 2), (3, 1), (4, 2))
        anns = [Annotation(k, image_id, 0, box, 4.0, (4.0, 4.0, 2.0, 2.0)) for k, image_id in pairs]
        ds = Dataset([ImageInfo(1, 10, 10)], anns, ["thing"])
        with pytest.raises(ValueError, match=r"^annotations reference unknown image ids: \[2, 4\]$"):
            ds.by_image()
