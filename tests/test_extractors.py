import shlex
import signal
import sys
import time
import types

import numpy as np
import pytest

import featkit.extractors
from conftest import stub_command
from featkit.errors import (
    ExtractorFailure,
    ProtocolViolation,
    RegionOutOfBounds,
    UnknownId,
)
from featkit.extractors import (
    ExternalProcessExtractor,
    FileBackedExtractor,
    ToyPixelExtractor,
    TransformPlan,
    rotate_nearest,
    run_protocol,
    serialize_plan,
)
from featkit.features import (
    FeatureMatrix,
    PixelGrid,
    Rect,
    smallest_enclosing_square,
)


def _one(binding, image, plan=TransformPlan(), rep_id="r0"):
    """The row of a one-request batch."""
    return binding.extract_batch([(rep_id, image, plan)])[0]


def _lookup(binding, rep_id):
    return _one(binding, None, rep_id=rep_id)


@pytest.mark.parametrize("binding", [
    ToyPixelExtractor, FileBackedExtractor, ExternalProcessExtractor,
])
def test_binding_surface_is_image_size_and_extract_batch(binding):
    public = {name for name in vars(binding) if not name.startswith("_")}
    assert public == {"extract_batch", "image_size"}


PACKAGE_SURFACE = (
    "AugmentConfig", "BinaryModel", "C_PRESETS", "ExternalProcessExtractor",
    "FeatureMatrix", "FileBackedExtractor", "MulticlassModel",
    "PcaWhitenModel", "PixelGrid", "Rect", "RetrievalIndex", "SolverConfig",
    "SpatialSearchConfig", "ToyPixelExtractor", "TransformPlan",
    "augment_training_set", "augmentation_plans", "average_precision",
    "build_index", "confusion", "crop_rects", "decision", "extract_patches",
    "l2_normalize", "load_features", "load_index", "load_labels",
    "load_model", "load_pca_model", "load_pgm", "mean_ap",
    "mean_diag_accuracy", "negative_expansion_plans", "objective",
    "patch_grid", "pca_fit", "pca_whiten_apply", "pool_responses",
    "positive_mirror_plans", "pr_curve", "predict_ovo_from_scores",
    "query_distance", "recall_at_k", "representation_groups",
    "retrieval_pipeline_apply",
    "retrieval_pipeline_fit", "save_features", "save_index", "save_model",
    "save_pca_model", "search", "signed_power", "smallest_enclosing_square",
    "train_binary", "train_one_vs_all", "train_one_vs_one",
)


def test_package_surface_is_what_commands_reach():
    """featkit exports only the names listed above, and the helpers that
    no command reached are gone from their modules."""
    public = {name for name, value in vars(featkit).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(PACKAGE_SURFACE)
    for module, name in [("svm", "ova_scores"), ("svm", "predict_ovo"),
                         ("augment", "enlarge_bbox"),
                         ("features", "save_labels"),
                         ("features", "save_pgm")]:
        assert not hasattr(getattr(featkit, module), name)


class TestToyPixel:
    def test_uniform_image(self):
        grid = PixelGrid(np.full((10, 10), 0.5))
        toy = ToyPixelExtractor(2)
        assert np.array_equal(
            _one(toy, grid), [0.5, 0.5, 0.5, 0.5]
        )

    def test_g1_is_region_mean(self, rng):
        grid = PixelGrid(rng.random((12, 16)))
        toy = ToyPixelExtractor(1)
        region = Rect(3, 2, 5, 7)
        expected = grid.intensities[2:9, 3:8].mean()
        assert _one(toy, grid, TransformPlan(region))[0] == pytest.approx(
            expected)

    def test_output_dim_and_range(self, rng):
        grid = PixelGrid(rng.random((20, 20)))
        for g in (1, 2, 3, 5):
            vec = _one(ToyPixelExtractor(g), grid)
            assert vec.shape == (g * g,)
            assert vec.min() >= 0.0 and vec.max() <= 1.0

    def test_quadrant_means(self):
        pix = np.zeros((2, 2))
        pix[0, 1] = 1.0
        vec = _one(ToyPixelExtractor(2), PixelGrid(pix))
        assert np.array_equal(vec, [0.0, 1.0, 0.0, 0.0])

    def test_mirror_flips_columns(self, rng):
        grid = PixelGrid(rng.random((8, 8)))
        toy = ToyPixelExtractor(2)
        plain = _one(toy, grid)
        flipped = _one(toy, grid, TransformPlan(mirrored=True))
        assert np.allclose(plain.reshape(2, 2)[:, ::-1].ravel(), flipped)

    def test_region_out_of_bounds(self, rng):
        grid = PixelGrid(rng.random((8, 8)))
        with pytest.raises(RegionOutOfBounds):
            _one(ToyPixelExtractor(2), grid, TransformPlan(Rect(5, 5, 4, 4)))

    def test_square_mode_expands_region(self, rng):
        grid = PixelGrid(rng.random((40, 40)))
        toy = ToyPixelExtractor(2)
        square = smallest_enclosing_square(Rect(10, 10, 4, 12), 40, 40)
        squared = _one(toy, grid, TransformPlan(crop=square))
        by_hand = _one(toy, grid, TransformPlan(Rect(6, 10, 12, 12)))
        assert np.array_equal(squared, by_hand)

    def test_tiny_region_stays_finite(self, rng):
        grid = PixelGrid(rng.random((6, 6)))
        vec = _one(ToyPixelExtractor(4), grid, TransformPlan(Rect(0, 0, 2, 2)))
        assert np.all(np.isfinite(vec))

    def test_rotation_preserves_shape_and_range(self, rng):
        img = rng.random((9, 13))
        rot = rotate_nearest(img, 20.0)
        assert rot.shape == img.shape
        assert set(np.unique(rot)) <= set(np.unique(img))

    def test_rotation_zero_is_identity(self, rng):
        img = rng.random((5, 5))
        assert rotate_nearest(img, 0.0) is img

    def test_rotation_180_flips_both_axes(self, rng):
        img = rng.random((7, 7))
        rot = rotate_nearest(img, 180.0)
        assert np.allclose(rot, img[::-1, ::-1])


class TestFileBacked:
    def test_lookup_is_pure(self, random_matrix):
        binding = FileBackedExtractor(random_matrix())
        a = _lookup(binding, "v1")
        b = _lookup(binding, "v1")
        assert np.array_equal(a, b)
        a[0] = 123.0  # mutating the copy must not leak back
        assert _lookup(binding, "v1")[0] != 123.0

    def test_unknown_id(self, random_matrix):
        with pytest.raises(UnknownId):
            _lookup(FileBackedExtractor(random_matrix()), "missing")


class TestExternalProtocol:
    def test_fixed_stub_gives_identical_rows(self, tmp_path):
        reqs = [(f"r{i}", "img.pgm", "0,0,4,4") for i in range(5)]
        m = run_protocol(stub_command("fixed"), reqs)
        assert m.n == 5 and m.dim == 4
        assert np.array_equal(m.values, np.tile([1, 2, 3, 4], (5, 1)))

    def test_reply_order_is_request_order(self):
        reqs = [(f"r{i}", "x", f"0,0,{i + 1},1") for i in range(4)]
        m = run_protocol(stub_command("derive"), reqs)
        assert m.ids == ("r0", "r1", "r2", "r3")

    def test_out_of_order_replies_accepted(self):
        reqs = [(f"r{i}", "x", f"0,0,{i + 1},1") for i in range(4)]
        ordered = run_protocol(stub_command("derive"), reqs)
        reversed_ = run_protocol(
            stub_command("reverse"), reqs
        )
        assert reversed_.ids == ordered.ids
        assert np.array_equal(reversed_.values, ordered.values)

    def test_missing_reply_is_protocol_violation(self):
        reqs = [("a", "x", "0,0,1,1"), ("b", "x", "0,0,1,1")]
        with pytest.raises(ProtocolViolation, match="missing"):
            run_protocol(stub_command("omit-first"), reqs)

    def test_mixed_dims_is_protocol_violation(self):
        reqs = [("a", "x", "0,0,1,1"), ("b", "x", "0,0,1,1")]
        with pytest.raises(ProtocolViolation, match="dimension"):
            run_protocol(stub_command("mixed-dims"), reqs)

    def test_nonzero_exit_is_extractor_failure(self):
        with pytest.raises(ExtractorFailure, match="status 3"):
            run_protocol(
                stub_command("crash"), [("a", "x", "0,0,1,1")]
            )

    def test_single_extract_with_geometry_suffix(self):
        binding = ExternalProcessExtractor(stub_command("derive"))
        plain = _one(binding, ("img", 8, 8), TransformPlan(Rect(0, 0, 8, 8)))
        rotated = _one(
            binding, ("img", 8, 8), TransformPlan(Rect(0, 0, 8, 8), 20.0)
        )
        assert plain.shape == rotated.shape == (4,)
        assert not np.array_equal(plain, rotated)

    def test_region_field_format(self):
        assert (
            serialize_plan(TransformPlan(Rect(1, 2, 3, 4)), 8, 8)
            == "1,2,3,4"
        )
        assert (
            serialize_plan(TransformPlan(Rect(0, 0, 8, 8), 20.0, True), 8, 8)
            == "0,0,8,8;rot=20.0;mir=1"
        )


def test_module_level_extract_dispatch(random_matrix):
    matrix = random_matrix()
    binding = FileBackedExtractor(matrix)
    assert np.array_equal(
        _lookup(binding, "v0"), matrix.values[matrix.ids.index("v0")]
    )


def _python(script: str) -> str:
    return shlex.join([sys.executable, "-c", script])


def _print_then_hang(lines) -> str:
    """Command that prints ``lines``, flushes, then sleeps 60 s."""
    return _python(
        f"import sys, time; sys.stdout.write({lines!r}); "
        "sys.stdout.flush(); time.sleep(60)"
    )


class TestStreamingSession:
    two = [("a", "x", "0,0,1,1"), ("b", "x", "0,0,1,1")]

    def test_malformed_line_fails_fast_and_reaps(self, popen_starts):
        t0 = time.monotonic()
        with pytest.raises(ExtractorFailure, match="malformed"):
            run_protocol(stub_command("malformed-then-hang"), self.two)
        assert time.monotonic() - t0 < 10.0
        assert len(popen_starts) == 1
        assert popen_starts[0].poll() is not None

    @pytest.mark.parametrize("lines, match", [
        ("zz\t1.0\n", "unrequested"),
        ("a\t1.0\na\t1.0\n", "duplicate"),
        ("a\t1.0\nb\t1.0,2.0\n", "dimension"),
        ("a\tnan\n", "non-finite"),
    ])
    def test_bad_reply_fails_before_eof(self, popen_starts, lines, match):
        t0 = time.monotonic()
        with pytest.raises(ProtocolViolation, match=match):
            run_protocol(_print_then_hang(lines), self.two)
        assert time.monotonic() - t0 < 10.0
        assert popen_starts[0].poll() is not None

    def test_interrupt_kills_extractor(self, popen_starts, monkeypatch):
        def interrupted(stdout, slot):
            raise KeyboardInterrupt

        monkeypatch.setattr(featkit.extractors, "_read_replies", interrupted)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_protocol(stub_command("malformed-then-hang"), self.two)
        assert time.monotonic() - t0 < 10.0
        assert popen_starts[0].poll() is not None

    def test_large_session_streams(self):
        # far more request and reply bytes than a pipe buffer holds
        reqs = [(f"r{i}", "img", f"0,0,{i % 50 + 1},1")
                for i in range(20000)]
        m = run_protocol(stub_command("derive"), reqs)
        assert m.n == 20000 and m.ids[-1] == "r19999"

    def test_duplicate_request_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate request id"):
            run_protocol(stub_command("fixed"), [self.two[0], self.two[0]])


class TestReplyDeadline:
    two = TestStreamingSession.two

    @pytest.fixture(autouse=True)
    def short_deadline(self, monkeypatch):
        monkeypatch.setattr(featkit.extractors, "REPLY_TIMEOUT_S", 0.5)

    @pytest.mark.parametrize("command", [
        stub_command("reply-then-hang 0"),
        stub_command("reply-then-hang 1"),
        # every reply sent and stdout closed, but the process never exits
        _python("import os, sys, time; sys.stdin.read(); "
                "sys.stdout.write('a\\t1.0\\nb\\t2.0\\n'); "
                "sys.stdout.flush(); os.close(1); time.sleep(60)"),
        # a reply whose line never ends, however many bytes come
        _python("import sys, time\n"
                "sys.stdout.write('a\\t1.')\n"
                "for _ in range(300):\n"
                "    sys.stdout.write('0'); sys.stdout.flush(); "
                "time.sleep(0.2)"),
    ], ids=["silent", "one-of-two", "no-exit", "no-newline"])
    def test_silent_extractor_is_killed(self, popen_starts, command):
        t0 = time.monotonic()
        with pytest.raises(ExtractorFailure, match="no reply line for 0.5 s"):
            run_protocol(command, self.two)
        assert 0.5 <= time.monotonic() - t0 < 10.0
        assert len(popen_starts) == 1
        assert popen_starts[0].poll() is not None

    def test_deadline_is_per_line_not_per_session(self, monkeypatch):
        # five replies 0.3 s apart: 1.5 s in all, each within 1 s
        monkeypatch.setattr(featkit.extractors, "REPLY_TIMEOUT_S", 1.0)
        slow = _python("import sys, time\n"
                       "for line in sys.stdin:\n"
                       "    time.sleep(0.3)\n"
                       "    print(line.split('\\t')[0] + '\\t1.0', "
                       "flush=True)")
        reqs = [(f"r{i}", "img", "0,0,1,1") for i in range(5)]
        t0 = time.monotonic()
        m = run_protocol(slow, reqs)
        assert time.monotonic() - t0 > 1.0
        assert m.ids == tuple(r for r, _, _ in reqs)

    def test_line_in_two_writes_is_one_reply(self):
        split = _python("import sys, time; sys.stdin.read(); "
                        "sys.stdout.write('a\\t1.'); sys.stdout.flush(); "
                        "time.sleep(0.2); sys.stdout.write('5\\nb\\t2.0\\n')")
        m = run_protocol(split, self.two)
        assert m.ids == ("a", "b")
        assert np.array_equal(m.values, [[1.5], [2.0]])


class TestSessionsPerCore:
    """A batch is split by whole images into min(cores, images) sessions,
    each checked on its own."""

    @pytest.fixture(autouse=True)
    def two_cores(self, usable_cores):
        usable_cores(2)

    @staticmethod
    def _requests(counts):
        return [(f"{path}#{k}", path, f"0,0,{k + 1},1")
                for path, n in counts.items() for k in range(n)]

    @pytest.mark.parametrize("counts, cores, sizes", [
        ({"a": 30, "b": 30, "c": 30, "d": 30}, 2, [60, 60]),
        ({"a": 30, "b": 30, "c": 30}, 2, [30, 60]),
        ({"a": 100, "b": 1, "c": 1}, 3, [100, 1, 1]),
        ({"a": 1, "b": 1, "c": 100}, 2, [2, 100]),
        ({"a": 5, "b": 5}, 8, [5, 5]),
        ({"a": 5, "b": 5}, 1, [10]),
    ])
    def test_shards_are_whole_images(self, counts, cores, sizes):
        reqs = self._requests(counts)
        shards = featkit.extractors._shards(reqs, cores)
        assert [len(s) for s in shards] == sizes
        assert sorted(i for s in shards for i in s) == list(range(len(reqs)))
        paths = [[reqs[i][1] for i in s] for s in shards]
        assert [p for ps in paths for p in ps] == [p for _, p, _ in reqs]
        assert all(s == sorted(s) for s in shards)

    def test_shards_keep_first_appearance_order(self):
        reqs = [("x0", "x", "r"), ("y0", "y", "r"), ("x1", "x", "r"),
                ("z0", "z", "r")]
        assert featkit.extractors._shards(reqs, 2) == [[0, 2], [1, 3]]

    def test_sessions_overlap(self, tmp_path, popen_starts):
        # Each session waits for the other's marker file, so the batch
        # completes only if both run at once.
        reqs = self._requests({"img0": 3, "img1": 3})
        command = stub_command(f"rendezvous {shlex.quote(str(tmp_path))}")
        m = run_protocol(command, reqs)
        assert len(popen_starts) == 2
        assert len(list(tmp_path.iterdir())) == 2
        assert m.ids == tuple(r for r, _, _ in reqs)
        assert np.array_equal(m.values,
                              run_protocol(stub_command("derive"), reqs).values)

    def test_crash_kills_and_reaps_the_other(self, popen_starts):
        reqs = self._requests({"img0": 2, "img1": 2})
        with pytest.raises(ExtractorFailure,
                           match="status 3: crashed on img1"):
            run_protocol(stub_command("crash-if img1"), reqs)
        assert len(popen_starts) == 2
        # the sleeping session was killed, not reported as failing
        assert popen_starts[0].returncode == -signal.SIGKILL
        assert popen_starts[1].returncode == 3

    def test_reply_for_other_sessions_id_is_refused(self, popen_starts):
        reqs = self._requests({"img0": 1, "img1": 1})
        with pytest.raises(ProtocolViolation,
                           match="unrequested id 'img1#0'"):
            run_protocol(stub_command("also-reply img1#0"), reqs)
        assert all(p.poll() is not None for p in popen_starts)

    def test_hung_session_killed_while_other_replies(self, monkeypatch,
                                                     popen_starts):
        monkeypatch.setattr(featkit.extractors, "REPLY_TIMEOUT_S", 0.5)
        # img1's session replies each 0.2 s for 4 s; img0's never does.
        reqs = self._requests({"img0": 1, "img1": 20})
        with pytest.raises(ExtractorFailure, match="no reply line for 0.5 s"):
            run_protocol(stub_command("hang-if img0"), reqs)
        assert len(popen_starts) == 2
        assert [p.returncode for p in popen_starts] == [-signal.SIGKILL] * 2

    def test_lingering_session_does_not_stall_the_other(self, tmp_path,
                                                        popen_starts):
        # The "linger" session closes its stdout first and exits only
        # once the other has written more than a pipe buffer, which that
        # one can do only if its replies are read meanwhile.
        reqs = self._requests({"linger": 1, "img1": 4})
        command = stub_command(f"linger {shlex.quote(str(tmp_path))}")
        m = run_protocol(command, reqs)
        assert m.ids == tuple(r for r, _, _ in reqs)
        assert m.values.shape == (5, 4096)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["closed",
                                                              "done"]
        assert [p.returncode for p in popen_starts] == [0, 0]

    def test_missing_reply_named_in_request_order(self):
        reqs = self._requests({"img0": 2, "img1": 2})
        with pytest.raises(ProtocolViolation, match="missing reply for id "
                           "'img0#0'"):
            run_protocol(stub_command("omit-first"), reqs)


def _toy_requests(grid):
    square = smallest_enclosing_square(Rect(2, 5, 4, 11), 24, 20)
    return [
        ("a", grid, TransformPlan()),
        ("b", grid, TransformPlan(rotation_degrees=20.0)),
        ("c", grid, TransformPlan(mirrored=True)),
        ("d", grid, TransformPlan(Rect(1, 3, 9, 6), -20.0, True)),
        ("e", grid, TransformPlan(crop=square)),
    ]


class TestExtractBatch:
    def test_toy_batch_equals_single(self, rng):
        grid = PixelGrid(rng.random((20, 24)))
        toy = ToyPixelExtractor(3)
        rows = toy.extract_batch(_toy_requests(grid))
        single = [_one(toy, grid, plan)
                  for _, _, plan in _toy_requests(grid)]
        assert rows.shape == (5, 9)
        assert np.array_equal(rows, np.stack(single))

    def test_file_backed_batch_equals_single(self, random_matrix):
        binding = FileBackedExtractor(random_matrix())
        ids = ["v3", "v0", "v3", "v4"]
        rows = binding.extract_batch([(i, None, TransformPlan()) for i in ids])
        assert np.array_equal(
            rows, np.stack([_lookup(binding, i) for i in ids])
        )
        rows[0, 0] = 123.0  # the batch is a copy too
        assert _lookup(binding, "v3")[0] != 123.0

    def test_file_backed_names_missing_id(self, random_matrix):
        binding = FileBackedExtractor(random_matrix())
        reqs = [(i, None, TransformPlan()) for i in ("v0", "gone", "v1")]
        with pytest.raises(UnknownId, match="'gone'"):
            binding.extract_batch(reqs)

    def test_external_batch_equals_single(self, popen_starts):
        binding = ExternalProcessExtractor(stub_command("derive"))
        plans = [
            TransformPlan(),
            TransformPlan(Rect(0, 0, 8, 8), 20.0),
            TransformPlan(Rect(4, 2, 6, 9), mirrored=True),
        ]
        rows = binding.extract_batch(
            [(f"r{k}", ("img", 16, 12), p) for k, p in enumerate(plans)]
        )
        assert len(popen_starts) == 1
        single = [_one(binding, ("img", 16, 12), p) for p in plans]
        assert np.array_equal(rows, np.stack(single))

    def test_external_needs_sized_images(self):
        binding = ExternalProcessExtractor(stub_command("derive"))
        with pytest.raises(ExtractorFailure, match="width, height"):
            binding.extract_batch([("r0", "img", TransformPlan())])

    @pytest.mark.parametrize("binding", [
        ToyPixelExtractor(2),
        FileBackedExtractor(FeatureMatrix(("v0",), np.ones((1, 3)))),
        ExternalProcessExtractor(stub_command("fixed")),
    ])
    def test_empty_batch_rejected(self, binding):
        with pytest.raises(ValueError):
            binding.extract_batch([])
