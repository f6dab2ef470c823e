import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import stub_command
from featkit.augment import (
    AugmentConfig,
    augment_training_set,
    augmentation_plans,
    crop_rects,
    negative_expansion_plans,
    plan_representation_id,
    pool_responses,
    positive_mirror_plans,
    quadrant_rects,
)
from featkit.errors import DegenerateImage, EmptyInput, UnknownId
from featkit.extractors import (
    ExternalProcessExtractor,
    FileBackedExtractor,
    ToyPixelExtractor,
    TransformPlan,
    serialize_plan,
)
from featkit.features import FeatureMatrix, PixelGrid, Rect
from featkit.preprocess import l2_normalize

sizes = st.integers(8, 400)


class TestCropRects:
    def test_canonical_300(self):
        rects = crop_rects(300, 300, 4.0 / 9.0)
        assert [(r.x, r.y, r.w, r.h) for r in rects] == [
            (0, 0, 200, 200),
            (100, 0, 200, 200),
            (0, 100, 200, 200),
            (100, 100, 200, 200),
            (50, 50, 200, 200),
        ]
        assert all(r.w * r.h * 9 == 300 * 300 * 4 for r in rects)

    def test_fraction_one_is_full_image(self):
        rects = crop_rects(120, 80, 1.0)
        assert all((r.x, r.y, r.w, r.h) == (0, 0, 120, 80) for r in rects)

    @given(sizes, sizes)
    def test_bounds_and_corner_contact(self, w, h):
        rects = crop_rects(w, h, 4.0 / 9.0)
        assert len(rects) == 5
        for r in rects:
            assert r.within(w, h)
        tl, tr, bl, br, _ = rects
        assert (tl.x, tl.y) == (0, 0)
        assert (tr.x + tr.w, tr.y) == (w, 0)
        assert (bl.x, bl.y + bl.h) == (0, h)
        assert (br.x + br.w, br.y + br.h) == (w, h)

    @given(sizes, sizes, st.floats(0.1, 1.0))
    def test_area_fraction_within_rounding(self, w, h, fraction):
        # rounding each side by <= 0.5 px perturbs the area fraction by
        # at most ~1/min(W, H); 2/min is a safe envelope
        rects = crop_rects(w, h, fraction)
        got = rects[0].w * rects[0].h / (w * h)
        assert abs(got - fraction) <= 2.0 / min(w, h) + 1e-9

    def test_degenerate(self):
        with pytest.raises(DegenerateImage):
            crop_rects(1, 1, 0.01)


class TestAugmentationPlans:
    @given(sizes, sizes)
    def test_sixteen_plans_eight_mirrored(self, w, h):
        plans = augmentation_plans(w, h)
        assert len(plans) == 16
        assert sum(p.mirrored for p in plans) == 8

    def test_first_plan_is_identity(self):
        assert augmentation_plans(64, 64)[0] == TransformPlan()

    def test_mirror_block_matches_base_block(self):
        plans = augmentation_plans(100, 60)
        for base, mirrored in zip(plans[:8], plans[8:]):
            assert mirrored == base.mirror_toggled()

    def test_structure(self):
        cfg = AugmentConfig(rotation_angles=(15.0, -15.0))
        plans = augmentation_plans(90, 90, cfg)
        assert plans[0].crop is None and plans[0].rotation_degrees == 0.0
        assert all(p.crop is not None for p in plans[1:6])
        assert [p.rotation_degrees for p in plans[6:8]] == [15.0, -15.0]

    def test_mirror_is_involution(self):
        for p in augmentation_plans(50, 50):
            assert p.mirror_toggled().mirror_toggled() == p


class TestPositiveAndNegativePlans:
    def test_positive_pair(self):
        plans = positive_mirror_plans()
        assert len(plans) == 2
        assert plans[0] == TransformPlan()
        assert plans[1] == TransformPlan(mirrored=True)

    def test_negative_count_and_layout(self):
        plans = negative_expansion_plans(200, 100)
        assert len(plans) == 10
        quads = [p.crop for p in plans[2:6]]
        assert [(r.x, r.y, r.w, r.h) for r in quads] == [
            (0, 0, 100, 50),
            (100, 0, 100, 50),
            (0, 50, 100, 50),
            (100, 50, 100, 50),
        ]
        assert sum(p.mirrored for p in plans) == 5

    @given(st.integers(2, 301), st.integers(2, 301))
    def test_quadrants_tile_exactly(self, w, h):
        quads = quadrant_rects(w, h)
        canvas = np.zeros((h, w), dtype=np.int64)
        for r in quads:
            canvas[r.y : r.y + r.h, r.x : r.x + r.w] += 1
        assert canvas.min() == 1 and canvas.max() == 1

    def test_even_dims_conserve_pixel_count(self):
        quads = quadrant_rects(64, 48)
        assert sum(r.w * r.h for r in quads) == 64 * 48

    def test_degenerate(self):
        with pytest.raises(DegenerateImage):
            negative_expansion_plans(1, 10)


class TestPoolResponses:
    def test_sum_and_max(self):
        assert pool_responses([1.0, 2.0, 3.0], "sum") == 6.0
        assert pool_responses([1.0, 2.0, 3.0], "max") == 3.0

    def test_singleton(self):
        assert pool_responses([4.5], "sum") == pool_responses([4.5], "max")

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            pool_responses([], "sum")

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8))
    def test_permutation_invariance(self, vals):
        rev = list(reversed(vals))
        assert pool_responses(vals, "max") == pool_responses(rev, "max")
        assert pool_responses(vals, "sum") == pytest.approx(
            pool_responses(rev, "sum"), rel=1e-12, abs=1e-12
        )

    def test_sum_additive_max_idempotent(self):
        a, b = [1.0, 2.0], [3.5]
        assert pool_responses(a + b, "sum") == pytest.approx(
            pool_responses(a, "sum") + pool_responses(b, "sum")
        )
        assert pool_responses(a + a, "max") == pool_responses(a, "max")

    def test_block_pools_each_column_like_its_own_list(self, rng):
        block = rng.normal(size=(16, 5)) * 1e3
        for mode in ("sum", "max"):
            pooled = pool_responses(block, mode)
            assert pooled.shape == (5,)
            for j in range(5):
                assert pooled[j] == pool_responses(list(block[:, j]), mode)


class TestAugmentTrainingSet:
    def test_toy_sixteen_rows_per_sample(self, rng):
        toy = ToyPixelExtractor(2)
        images = [
            (f"img{i}", PixelGrid(rng.random((30, 30)))) for i in range(3)
        ]
        labels = {sid: "pos" if i % 2 else "neg"
                  for i, (sid, _) in enumerate(images)}
        plans = augmentation_plans(30, 30)
        matrix, out_labels = augment_training_set(toy, images, plans, labels)
        assert matrix.n == 48
        assert matrix.ids[0] == "img0#0"
        assert out_labels["img1#7"] == "pos"
        norms = np.linalg.norm(matrix.values, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_rows_equal_per_row_normalize(self, rng):
        # one stacked normalization gives each row the bits of
        # l2_normalize on that row alone, so OTSVM1 output is unchanged
        for d in (12, 128, 512):
            store = FeatureMatrix(
                tuple(f"s{i}#{k}" for i in range(40) for k in range(2)),
                rng.normal(size=(80, d)) * rng.uniform(0.1, 50.0),
            )
            samples = [(f"s{i}", None) for i in range(40)]
            matrix, _ = augment_training_set(
                FileBackedExtractor(store), samples, positive_mirror_plans(),
                {sid: "a" for sid, _ in samples},
            )
            per_row = np.stack([l2_normalize(r) for r in store.values])
            assert np.array_equal(matrix.values, per_row)

    def test_file_backed_keys(self, rng):
        plans = positive_mirror_plans()
        ids = tuple(
            plan_representation_id(f"s{i}", k)
            for i in range(2)
            for k in range(2)
        )
        store = FeatureMatrix(ids, rng.normal(size=(4, 3)))
        binding = FileBackedExtractor(store)
        samples = [("s0", None), ("s1", None)]
        labels = {"s0": "a", "s1": "b"}
        matrix, out_labels = augment_training_set(
            binding, samples, plans, labels
        )
        assert matrix.ids == ids
        assert out_labels == {
            "s0#0": "a", "s0#1": "a", "s1#0": "b", "s1#1": "b"
        }

    def test_file_backed_missing_key(self, rng):
        store = FeatureMatrix(("s0#0",), rng.normal(size=(1, 3)))
        binding = FileBackedExtractor(store)
        with pytest.raises(UnknownId):
            augment_training_set(
                binding, [("s0", None)], positive_mirror_plans(),
                {"s0": "a"},
            )

    def test_external_one_session(self, popen_starts):
        binding = ExternalProcessExtractor(stub_command("derive"))
        samples = [(f"s{i}", (f"img{i}.x", 40, 32)) for i in range(3)]
        labels = {"s0": "a", "s1": "b", "s2": "a"}
        plans = augmentation_plans(40, 32)
        matrix, _ = augment_training_set(binding, samples, plans, labels)
        assert len(popen_starts) == 1
        assert matrix.n == 48 and matrix.ids[17] == "s1#1"

    def test_external_round_trip(self, tmp_path):
        binding = ExternalProcessExtractor(stub_command("derive"))
        samples = [("s0", ("fake.img", 40, 40))]
        labels = {"s0": "a"}
        plans = augmentation_plans(40, 40)
        matrix, _ = augment_training_set(binding, samples, plans, labels)
        assert matrix.n == 16
        # mirrored plans serialize differently, so rows must differ
        assert not np.array_equal(matrix.values[0], matrix.values[8])


def test_serialize_plan_formats():
    assert serialize_plan(TransformPlan(), 64, 48) == "0,0,64,48"
    assert (
        serialize_plan(TransformPlan(crop=Rect(1, 2, 3, 4)), 64, 48)
        == "1,2,3,4"
    )
    assert (
        serialize_plan(
            TransformPlan(rotation_degrees=-20.0, mirrored=True), 10, 10
        )
        == "0,0,10,10;rot=-20.0;mir=1"
    )
