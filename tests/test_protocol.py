import json
import re

import numpy as np
import pytest

from iodkit.geometry import BoundingBox
from iodkit.ingestion import Annotation, Dataset, ImageInfo
from iodkit.protocol import PhasePlan, multi_phase_plan, plan_manifest, split, write_manifest


def make_dataset(rng, n_images=40, n_categories=4, max_objects=3):
    images = [ImageInfo(id=i + 1, width=100, height=100) for i in range(n_images)]
    annotations = []
    aid = 1
    for im in images:
        for _ in range(int(rng.integers(0, max_objects + 1))):
            annotations.append(
                Annotation(
                    id=aid,
                    image_id=im.id,
                    category=int(rng.integers(0, n_categories)),
                    box=BoundingBox(0.5, 0.5, 0.2, 0.2),
                    area_px=400.0,
                    bbox_px=(40.0, 40.0, 20.0, 20.0),
                )
            )
            aid += 1
    names = [f"cat{i}" for i in range(n_categories)]
    return Dataset(images=images, annotations=annotations, category_names=names, category_map={i: i for i in range(n_categories)})


class TestMultiPhasePlan:
    def test_seventy_ten(self):
        plan = multi_phase_plan("70+10", 80, seed=0)
        assert plan.n_phases == 2
        assert len(plan.category_partition[0]) == 70
        assert len(plan.category_partition[1]) == 10
        plan.validate(80)

    def test_forty_twenty_x2(self):
        plan = multi_phase_plan("40+20x2", 80, seed=1)
        assert plan.n_phases == 3
        assert [len(block) for block in plan.category_partition] == [40, 20, 20]

    def test_forty_ten_x4(self):
        plan = multi_phase_plan("40+10x4", 80, seed=2)
        assert plan.n_phases == 5
        assert [len(block) for block in plan.category_partition] == [40, 10, 10, 10, 10]

    def test_malformed_setup(self):
        with pytest.raises(ValueError, match="malformed setup"):
            multi_phase_plan("70&10", 80, seed=0)

    @pytest.mark.parametrize("setup", ["0+20", "10+0", "10+5x0"])
    def test_zero_count_setup(self, setup):
        with pytest.raises(ValueError, match=re.escape(f"setup counts must be positive: {setup!r}")):
            multi_phase_plan(setup, 20, seed=0)

    def test_wrong_category_total(self):
        with pytest.raises(ValueError, match="covers"):
            multi_phase_plan("70+10", 81, seed=0)

    @pytest.mark.parametrize(
        "partition, message",
        [
            (((0, 1), (1, 2)), "blocks overlap"),
            (((0, 1), (0,)), "blocks overlap"),
            (((0, 1), (3,)), r"does not cover 0\.\.C-1"),
            (((0,), (1,)), r"does not cover 0\.\.C-1"),
        ],
    )
    def test_bad_partition_rejected(self, partition, message):
        with pytest.raises(ValueError, match=message):
            PhasePlan(partition, seed=0).validate(3)

    def test_seeded_category_shuffle(self):
        a = multi_phase_plan("6+2", 8, seed=5)
        b = multi_phase_plan("6+2", 8, seed=5)
        c = multi_phase_plan("6+2", 8, seed=6)
        assert a.category_partition == b.category_partition
        assert a.category_partition != c.category_partition


class TestStrictSplit:
    def test_single_phase_everything(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng)
        plan = PhasePlan(((0, 1, 2, 3),), seed=0)
        phases = split(ds, plan)
        assert len(phases) == 1
        assert sorted(phases[0].image_ids()) == sorted(ds.image_ids())
        assert len(phases[0].annotations) == len(ds.annotations)

    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng, n_images=50)
        plan = multi_phase_plan("2+1x2", 4, seed=3)
        phases = split(ds, plan)
        seen = []
        for p in phases:
            ids = set(p.image_ids())
            for q in seen:
                assert not ids & q
            seen.append(ids)
        assert set().union(*seen) == set(ds.image_ids())

    def test_fraction_sizes_with_remainder(self):
        rng = np.random.default_rng(2)
        ds = make_dataset(rng, n_images=41, n_categories=8)
        plan = PhasePlan(((0, 1, 2, 3, 4, 5, 6), (7,)), seed=0)
        phases = split(ds, plan)
        assert len(phases[0].images) == 35  # floor(7 / 8 * 41)
        assert len(phases[1].images) == 6  # remainder

    @pytest.mark.parametrize(
        ("setup", "n_images", "sizes"),
        [
            ("15+5", 640, [480, 160]),
            ("10+10", 2000, [1000, 1000]),
            ("8+4x3", 200, [80, 40, 40, 40]),
            # the later fraction is (1 - 8/20) / 3 = 0.19999999999999998, not 4/20:
            # 0.2 would give 4/2/2/2 here
            ("8+4x3", 10, [4, 1, 1, 4]),
        ],
    )
    def test_phase_sizes_follow_the_partition(self, setup, n_images, sizes):
        ds = make_dataset(np.random.default_rng(0), n_images=n_images, n_categories=20, max_objects=0)
        phases = split(ds, multi_phase_plan(setup, 20, seed=0))
        assert [len(p.images) for p in phases] == sizes

    def test_empty_phase_rejected(self):
        # floor(1/8 * 2) = 0 images for each middle phase
        ds = make_dataset(np.random.default_rng(7), n_images=2, n_categories=8)
        plan = multi_phase_plan("4+1x4", 8, seed=0)
        with pytest.raises(ValueError, match="phase 2 gets no images from a dataset of 2 images"):
            split(ds, plan)

    def test_annotations_respect_categories(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng)
        plan = multi_phase_plan("2+2", 4, seed=1)
        for p in split(ds, plan):
            assert all(a.category in set(p.categories) for a in p.annotations)

    def test_empty_annotation_images_kept(self):
        images = [ImageInfo(1, 10, 10), ImageInfo(2, 10, 10)]
        anns = [
            Annotation(1, 1, 0, BoundingBox(0.5, 0.5, 0.2, 0.2), 4.0, (4.0, 4.0, 2.0, 2.0)),
        ]
        ds = Dataset(images, anns, ["a", "b"], {0: 0, 1: 1})
        plan = PhasePlan(((1,), (0,)), seed=0)
        phases = split(ds, plan)
        assert sum(len(p.images) for p in phases) == 2
        # whichever phase got image 1 may have zero annotations; it stays
        assert all(len(p.images) >= 1 for p in phases)

    def test_seed_determinism(self):
        rng = np.random.default_rng(4)
        ds = make_dataset(rng)
        plan = multi_phase_plan("2+2", 4, seed=9)
        a = split(ds, plan)
        b = split(ds, plan)
        assert [p.image_ids() for p in a] == [p.image_ids() for p in b]

    def test_empty_dataset_rejected(self):
        ds = Dataset([], [], ["a"], {0: 0})
        plan = PhasePlan(((0,),), seed=0)
        with pytest.raises(ValueError, match="phase 1 gets no images from a dataset of 0 images"):
            split(ds, plan)


class TestManifest:
    def test_manifest_shape(self):
        rng = np.random.default_rng(6)
        ds = make_dataset(rng)
        plan = multi_phase_plan("2+2", 4, seed=0)
        phases = split(ds, plan)
        doc = plan_manifest(plan, phases)
        assert set(doc) == {"seed", "phases"}
        assert doc["seed"] == 0
        assert len(doc["phases"]) == 2
        assert set(doc["phases"][0]) == {"categories", "images"}

    def test_written_manifest_depends_only_on_the_seed(self, tmp_path):
        ds = make_dataset(np.random.default_rng(6))

        def written(seed, name):
            plan = multi_phase_plan("2+2", 4, seed=seed)
            path = tmp_path / name
            write_manifest(path, plan, split(ds, plan))
            return path.read_bytes()

        first, again, other = written(0, "a.json"), written(0, "b.json"), written(1, "c.json")
        assert first == again
        assert json.loads(first)["phases"] != json.loads(other)["phases"]  # not only the seed field
