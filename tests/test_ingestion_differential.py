"""The column path of ``parse_coco`` and ``normalize`` against the record-by-record oracle.

Both sides must return datasets of the same ``repr``, field by field (so a
-0.0 that became 0.0 shows), log the same warnings, and raise the same
error type with the same message. Documents are mostly valid, with boxes
that cross an edge, lie wholly outside, have zero area or -0.0 and
non-dyadic coordinates; a few faults are planted in some of them (ids that
are integral floats, bools, null or fractions; unknown images and
categories; duplicate ids; bboxes that are not four numbers or are not
finite; non-positive image sizes; malformed records). Hand-built
``RawDataset`` values reach ``normalize`` with what ``parse_coco`` would
reject: NaN and infinite boxes, non-positive sizes, dangling ids.
"""

import json
import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingestion_oracle
from iodkit import ingestion
from iodkit.ingestion import ImageInfo, RawAnnotation, RawDataset

NAN, INF = math.nan, math.inf
# corners and sides in pixels of 100 px and 640 px images: edges, -0.0, integral floats, ints
# and pairs such as 16.823 + 13.687, whose (x + w) - x is not w
COORDS = (-0.0, 0.0, 1.0, 16.823, 25, 50.5, 99.0, 100.0, -50.0, 630.0, 700.0, -1e-300)
SIDES = (-0.0, 0.0, 13.687, 50.0, 20, 100.0, 640.0, -4.0, 1e-300, 0.1)
coords = st.one_of(st.sampled_from(COORDS), st.floats(-150.0, 750.0))
sides = st.one_of(st.sampled_from(SIDES), st.floats(-10.0, 650.0))
image_sizes = st.sampled_from((100, 640, 100.0, 640, 37))


def outcome(fn, arg, logger: str):
    """What ``fn(arg)`` returns as a ``repr`` or raises as (type, message), and the warnings it logs."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    log = logging.getLogger(logger)
    log.addHandler(handler)
    try:
        result = ("returned", repr(fn(arg)))
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        result = ("raised", type(e).__name__, str(e))
    finally:
        log.removeHandler(handler)
    return result, [(r.levelname, r.getMessage()) for r in records]


def assert_normalize_same(raw):
    new = outcome(ingestion.normalize, raw, "iodkit.ingestion")
    assert new == outcome(ingestion_oracle.normalize, raw, "ingestion_oracle")
    return new


def assert_same(path):
    """Both parses of the file, then both normalizations of the parsed file; returns the new outcomes."""
    new = outcome(ingestion.parse_coco, path, "iodkit.ingestion")
    assert new == outcome(ingestion_oracle.parse_coco, path, "ingestion_oracle")
    if new[0][0] == "raised":
        return new, None
    return new, assert_normalize_same(ingestion.parse_coco(path))


def pick(draw, records):
    """One of the records, or a stand-in dict to edit if there is none or it is not an object."""
    record = draw(st.sampled_from(records)) if records else {}
    return record if isinstance(record, dict) else {}


def set_field(section, key, values):
    def plant(draw, doc):
        pick(draw, doc[section])[key] = draw(st.sampled_from(values))

    return plant


def set_bbox_value(draw, doc):
    bbox = pick(draw, doc["annotations"]).get("bbox")
    if bbox:
        bbox[draw(st.integers(0, 3))] = draw(st.sampled_from((NAN, INF, -INF, 10**400, True, "1", None, 2**60 + 1)))


def drop_key(draw, doc):
    section = draw(st.sampled_from(("images", "annotations", "categories")))
    record = pick(draw, doc[section])
    if record:
        del record[draw(st.sampled_from(sorted(record)))]


def not_an_object(draw, doc):
    section = draw(st.sampled_from(("images", "annotations")))
    doc[section].insert(draw(st.integers(0, len(doc[section]))), draw(st.sampled_from(([1, 2], "2.jpg", None, 3))))


FAULTS = (
    set_field("annotations", "id", (1, 2, 1.0, 2.5, True, None, "1", NAN)),
    set_field("annotations", "image_id", (99, 1.0, 1.9, True, None)),
    set_field("annotations", "category_id", (42, 5.0, 5.5, False)),
    set_field(
        "annotations",
        "bbox",
        ([0, 0, 1], "1234", {"a": 1}, [True, 0, 1, 1], [10**400, 0, 1, 1], [NAN, 0, 1, 1], [0, 0, INF, 1],
         [1, 1, 0.0, 5.0], [0, 0, -4.0, 5.0], [10, 10, 1e200, 1e200], [0, 0, 1e-200, 1e-200]),
    ),
    set_bbox_value,
    set_field("images", "width", (0, -480, 640.7, True, 100.0, INF, None)),
    set_field("images", "height", (0, -1, 480.2, 100.0)),
    set_field("images", "id", (1, 1.0, 1.9, None, True)),
    set_field("categories", "id", (5, 5.0, 5.5, None)),
    set_field("categories", "name", (None, 3, ["a"], "None")),
    drop_key,
    not_an_object,
)


@st.composite
def coco_docs(draw):
    """A COCO document of 1-4 images, 1-3 categories and 0-10 annotations, with 0-2 planted faults."""
    n_images = draw(st.integers(1, 4))
    images = [{"id": i + 1, "width": draw(image_sizes), "height": draw(image_sizes)} for i in range(n_images)]
    cat_ids = draw(st.lists(st.sampled_from((1, 3, 5, 9)), min_size=1, max_size=3, unique=True))
    annotations = [
        {
            "id": draw(st.sampled_from((k + 1, k + 1.0))) if k % 3 == 0 else k + 1,
            "image_id": draw(st.integers(1, n_images)),
            "category_id": draw(st.sampled_from(cat_ids)),
            "bbox": [draw(coords), draw(coords), draw(sides), draw(sides)],
        }
        for k in range(draw(st.integers(0, 10)))
    ]
    draw(st.randoms(use_true_random=False)).shuffle(annotations)  # ids out of order, for the sort
    doc = {"images": images, "annotations": annotations, "categories": [{"id": c, "name": f"c{c}"} for c in cat_ids]}
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 1, 2)))):
        draw(st.sampled_from(FAULTS))(draw, doc)
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("docs") / "doc.json"


@settings(max_examples=400, deadline=None)
@given(doc=coco_docs())
def test_parse_and_normalize_match_the_oracle(doc_path, doc):
    doc_path.write_text(json.dumps(doc))
    assert_same(doc_path)


@st.composite
def raw_datasets(draw):
    """A hand-built ``RawDataset``: any float box, any int size, and ids of images or categories it lacks."""
    n_images = draw(st.integers(1, 3))
    images = [
        ImageInfo(i + 1, draw(st.sampled_from((100, 640, 37, 100, 640, 0, -5))), draw(st.sampled_from((100, 480, 0))))
        for i in range(n_images)
    ]
    categories = [(3, "b"), (9, "a")]
    # floats only, as parse_coco gives them: an int kept on an uncut axis has no float twin
    corners = st.one_of(st.sampled_from(tuple(map(float, COORDS)) + (NAN, INF, -INF, 1e308)), st.floats(-150.0, 750.0))
    sides = st.one_of(st.sampled_from(tuple(map(float, SIDES)) + (NAN, INF)), st.floats(-10.0, 650.0))
    annotations = [
        RawAnnotation(
            k + 1,
            draw(st.integers(1, n_images + 1)),
            draw(st.sampled_from((3, 9, 9, 4))),
            (draw(corners), draw(corners), draw(sides), draw(sides)),
        )
        for k in range(draw(st.integers(0, 8)))
    ]
    return RawDataset(images=images, annotations=annotations, categories=categories)


@settings(max_examples=400, deadline=None)
@given(raw=raw_datasets())
def test_normalize_matches_the_oracle_on_hand_built_datasets(raw):
    assert_normalize_same(raw)


def raw(*annotations, sizes=((100, 100),)):
    images = [ImageInfo(i + 1, w, h) for i, (w, h) in enumerate(sizes)]
    return RawDataset(images, [RawAnnotation(k + 1, *a) for k, a in enumerate(annotations)], [(5, "thing")])


def test_nan_bbox_names_its_field():
    (result, warnings) = assert_normalize_same(raw((1, 5, (NAN, 10.0, 20.0, 20.0))))
    assert result == ("raised", "ValueError", "box field cx is not finite: nan") and warnings == []
    (result, _) = assert_normalize_same(raw((1, 5, (10.0, 10.0, 20.0, NAN))))
    assert result == ("raised", "ValueError", "box field cy is not finite: nan")  # cy reads h first


@pytest.mark.parametrize(
    "annotations, sizes, expected",
    [
        # a dangling image before a non-positive size: the size raises, the list waits
        ([(2, 5, (0.0, 0.0, 1.0, 1.0)), (1, 5, (0.0, 0.0, 1.0, 1.0))], ((0, 100),),
         "image 1 has non-positive dimensions"),
        # a bad box before a non-positive size, and after one
        ([(1, 5, (NAN, 0.0, 1.0, 1.0)), (2, 5, (0.0, 0.0, 1.0, 1.0))], ((100, 100), (-5, 100)),
         "box field cx is not finite: nan"),
        ([(2, 5, (0.0, 0.0, 1.0, 1.0)), (1, 5, (NAN, 0.0, 1.0, 1.0))], ((100, 100), (-5, 100)),
         "image 2 has non-positive dimensions"),
        # a box wholly outside its non-positive image still raises
        ([(1, 5, (500.0, 500.0, 1.0, 1.0))], ((0, 100),), "image 1 has non-positive dimensions"),
        # a box outside the image is dropped, not checked; the dangling list then raises, with no warning
        ([(1, 5, (NAN, 500.0, 1.0, 1.0)), (1, 5, (500.0, 0.0, 1.0, 1.0)), (1, 7, (0.0, 0.0, 1.0, 1.0))], ((100, 100),),
         "annotations reference unknown category ids: [3]"),
        ([(1, 7, (0.0, 0.0, 1.0, 1.0)), (3, 5, (0.0, 0.0, 1.0, 1.0))], ((100, 100),),
         "annotations reference unknown image ids: [2]"),
        # an unknown category on a non-positive image is listed, not sized
        ([(1, 7, (0.0, 0.0, 1.0, 1.0))], ((0, 100),), "annotations reference unknown category ids: [1]"),
    ],
    ids=["size-after-dangling", "box-before-size", "size-before-box", "outside-on-bad-size",
         "outside-then-dangling-category", "dangling-category-then-image", "dangling-on-bad-size"],
)
def test_normalize_error_precedence(annotations, sizes, expected):
    (result, warnings) = assert_normalize_same(raw(*annotations, sizes=sizes))
    assert result == ("raised", "ValueError", expected) and warnings == []


@pytest.mark.parametrize(
    "images, annotations, expected",
    [
        # two images of id 1: the first box must not be sized on the second image
        ([(1, 100, 100), (1, 200, 50)], [(1, 1, 5, (0.0, 0.0, 10.0, 10.0)), (1, 1, 5, (0.0, 0.0, 20.0, 20.0))],
         "duplicate image ids"),
        # a repeated image id before a non-positive size and an unknown category
        ([(1, 100, 100), (2, 0, 100), (1, 100, 100)], [(1, 2, 7, (0.0, 0.0, 1.0, 1.0))], "duplicate image ids"),
        # each repeat of an annotation id is listed, as parse_coco lists it
        ([(1, 100, 100)], [(aid, 1, 5, (0.0, 0.0, 1.0, 1.0)) for aid in (4, 2, 4, 4, 2)],
         "duplicate annotation ids: [4, 4, 2]"),
        # a repeated annotation id before a non-positive size, a bad box, a dangling image and a box wholly outside
        ([(1, 0, 100)],
         [(1, 1, 5, (NAN, 0.0, 1.0, 1.0)), (2, 9, 5, (0.0, 0.0, 1.0, 1.0)), (1, 1, 5, (500.0, 0.0, 1.0, 1.0))],
         "duplicate annotation ids: [1]"),
    ],
    ids=["image-ids", "image-ids-before-size", "annotation-ids-listed", "annotation-ids-before-box"],
)
def test_normalize_duplicate_ids_raise_first(images, annotations, expected):
    dataset = RawDataset([ImageInfo(*im) for im in images], [RawAnnotation(*a) for a in annotations], [(5, "thing")])
    (result, warnings) = assert_normalize_same(dataset)
    assert result == ("raised", "ValueError", expected) and warnings == []


def test_parse_error_precedence(doc_path):
    doc = {
        "images": [{"id": 1.5, "width": 100, "height": 100}, {"id": 2, "width": 0, "height": 100}],
        "annotations": [],
        "categories": [{"id": 5, "name": "thing"}],
    }
    doc_path.write_text(json.dumps(doc))
    ((result, warnings), _) = assert_same(doc_path)
    assert result == ("raised", "ValueError", "image 2 has non-positive dimensions")
    doc["annotations"] = [
        {"id": 1, "image_id": 9, "category_id": 5, "bbox": [0, 0, 1]},  # dangling first, so not "not four numbers"
        {"id": 2, "image_id": 1, "category_id": 5, "bbox": [0, 0, NAN, 1]},
        {"id": 1.5, "image_id": 1, "category_id": 5, "bbox": [0, 0, 1, 1]},
    ]
    doc["images"] = [{"id": 1, "width": 100, "height": 100}]
    doc_path.write_text(json.dumps(doc))
    ((result, warnings), _) = assert_same(doc_path)
    assert result == ("raised", "ValueError", "annotations have a non-integral id, image_id or category_id: [1.5]")
    doc["annotations"].pop()
    doc_path.write_text(json.dumps(doc))
    ((result, warnings), _) = assert_same(doc_path)
    assert result == ("raised", "ValueError", "annotations reference unknown image ids: [1]") and warnings == []


def test_edges_signed_zeros_and_exact_axes(doc_path):
    doc = {
        "images": [{"id": 1, "width": 100, "height": 100}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 5, "bbox": [-0.0, -0.0, 10.0, 10.0]},
            {"id": 2, "image_id": 1, "category_id": 5, "bbox": [16.823, -10.0, 13.687, 50.0]},  # y cut, x exact
            {"id": 3, "image_id": 1, "category_id": 5, "bbox": [90.0, 16.823, 20.0, 13.687]},  # x cut, y exact
            {"id": 4, "image_id": 1, "category_id": 5, "bbox": [150.0, 10.0, 5.0, 5.0]},  # wholly outside
            {"id": 5, "image_id": 1, "category_id": 5, "bbox": [10.0, 10.0, 0.0, 5.0]},  # zero area
            {"id": 6, "image_id": 1.0, "category_id": 5.0, "bbox": [1, 2, 3, 4]},  # integral floats, ints
        ],
        "categories": [{"id": 5, "name": "thing"}],
    }
    doc_path.write_text(json.dumps(doc))
    (_, warnings), (result, norm_warnings) = assert_same(doc_path)
    assert warnings == [("WARNING", "1 annotations have a negative side or zero area; dropped: [5]")]
    assert norm_warnings == [("WARNING", "1 annotations lie wholly outside their image; dropped: [4]")]
    ds = ingestion.normalize(ingestion.parse_coco(doc_path))
    by_id = {a.id: a for a in ds.annotations}
    assert repr(by_id[1].bbox_px) == "(-0.0, -0.0, 10.0, 10.0)"
    assert by_id[2].bbox_px == (16.823, 0.0, 13.687, 40.0) and by_id[3].bbox_px[1:] == (16.823, 10.0, 13.687)
    assert by_id[6].bbox_px == (1.0, 2.0, 3.0, 4.0) and all(type(v) is float for v in by_id[6].bbox_px)
