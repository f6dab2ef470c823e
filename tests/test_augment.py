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
    representation_groups,
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
        vals, groups = [1.0, 2.0, 3.0, 10.0, 20.0], [0, 0, 0, 1, 1]
        assert pool_responses(vals, groups, "sum").tolist() == [6.0, 30.0]
        assert pool_responses(vals, groups, "max").tolist() == [3.0, 20.0]

    def test_singleton(self):
        vals = np.array([[4.5, -1.0], [2.0, 0.25]])
        for mode in ("sum", "max"):
            assert np.array_equal(pool_responses(vals, [0, 1], mode), vals)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            pool_responses(np.empty((0, 3)), [], "sum")

    def test_mode_and_group_count_checked(self):
        with pytest.raises(ValueError, match="unknown pooling mode 'mean'"):
            pool_responses([1.0, 2.0], [0, 0], "mean")
        with pytest.raises(ValueError, match="1 groups for 2 rows"):
            pool_responses([1.0, 2.0], [0], "sum")

    @given(st.lists(st.tuples(st.floats(-100, 100), st.integers(0, 3)),
                    min_size=1, max_size=12))
    def test_permutation_invariance(self, rows):
        vals, keys = map(np.asarray, zip(*rows))
        groups = np.unique(keys, return_inverse=True)[1]
        rev = pool_responses(vals[::-1], groups[::-1], "sum")
        assert np.array_equal(pool_responses(vals, groups, "max"),
                              pool_responses(vals[::-1], groups[::-1], "max"))
        assert pool_responses(vals, groups, "sum") == pytest.approx(
            rev, rel=1e-12, abs=1e-12
        )

    def test_sum_additive_max_idempotent(self):
        a, b = [1.0, 2.0], [3.5]
        assert pool_responses(a + b, [0, 0, 0], "sum")[0] == pytest.approx(
            pool_responses(a, [0, 0], "sum")[0]
            + pool_responses(b, [0], "sum")[0]
        )
        assert np.array_equal(pool_responses(a + a, [0] * 4, "max"),
                              pool_responses(a, [0, 0], "max"))

    def test_each_group_pools_like_it_alone(self, rng):
        # interleaved groups of unequal size, each reduced on its own rows
        block = rng.normal(size=(23, 5)) * 1e3
        groups = rng.permutation(np.arange(23) % 4)
        for mode in ("sum", "max"):
            pooled = pool_responses(block, groups, mode)
            assert pooled.shape == (4, 5)
            for g in range(4):
                alone = block[groups == g]
                assert np.array_equal(
                    pooled[g], pool_responses(alone, [0] * len(alone),
                                              mode)[0])


class TestRepresentationGroups:
    def test_bases_in_first_appearance_order(self):
        ids = ["b#1", "a", "b#0", "c#x", "b#2", "d#07"]
        bases, groups = representation_groups(ids)
        assert bases == ("b", "a", "c#x", "d")
        assert groups.tolist() == [0, 1, 0, 2, 0, 3]

    def test_inverse_of_plan_representation_id(self):
        ids = [plan_representation_id(s, k) for s in ("x", "y#z")
               for k in range(3)]
        bases, groups = representation_groups(ids)
        assert bases == ("x", "y#z")
        assert groups.tolist() == [0, 0, 0, 1, 1, 1]

    @pytest.mark.parametrize("ids, first, second", [
        (["a", "a#0", "a#1"], "a", "a#0"),
        (["a#0", "a"], "a#0", "a"),
        (["b#x", "b#x#2"], "b#x", "b#x#2"),
        (["a#7", "b#1", "a#07"], "a#7", "a#07"),
        (["a#0", "a#00"], "a#0", "a#00"),
    ])
    def test_ambiguous_ids_refused(self, ids, first, second):
        with pytest.raises(ValueError, match=(
                f"ambiguous representation ids {first!r} and {second!r}")):
            representation_groups(ids)


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

    def test_external_session_per_usable_core(self, popen_starts,
                                              usable_cores):
        binding = ExternalProcessExtractor(stub_command("derive"))
        samples = [(f"s{i}", (f"img{i}.x", 40, 32)) for i in range(3)]
        labels = {"s0": "a", "s1": "b", "s2": "a"}
        plans = augmentation_plans(40, 32)
        matrices = []
        for cores in (1, 2):
            usable_cores(cores)
            del popen_starts[:]
            matrix, _ = augment_training_set(binding, samples, plans, labels)
            assert len(popen_starts) == min(cores, len(samples))
            assert matrix.n == 48 and matrix.ids[17] == "s1#1"
            matrices.append(matrix)
        assert np.array_equal(matrices[0].values, matrices[1].values)

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
