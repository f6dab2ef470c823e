import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from featkit.errors import EmptyInput, MalformedFile, RegionOutOfBounds
from featkit.features import (
    FeatureMatrix,
    PixelGrid,
    Rect,
    load_features,
    load_labels,
    load_pgm,
    save_features,
    save_labels,
    save_pgm,
    single_labels,
    smallest_enclosing_square,
)
from oracles import smallest_square_oracle


class TestFeatureMatrix:
    def test_basic_shape(self):
        m = FeatureMatrix(("a", "b"), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert m.n == 2 and m.dim == 3
        assert m.values[m.index_of("b")][0] == 4.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FeatureMatrix(("a", "a"), [[1.0], [2.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureMatrix(("a",), [[np.nan]])

    def test_tab_in_id_rejected(self):
        with pytest.raises(ValueError):
            FeatureMatrix(("a\tb",), [[1.0]])

    def test_id_count_mismatch(self):
        with pytest.raises(ValueError):
            FeatureMatrix(("a",), [[1.0], [2.0]])


class TestTsvFormat:
    def test_parse_two_rows(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("a\t1.0\t2.0\t3.0\nb\t4.0\t5.0\t6.0\n")
        m = load_features(p, "tsv")
        assert m.n == 2 and m.dim == 3
        assert np.array_equal(m.values[1], [4.0, 5.0, 6.0])

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("a\t1.0\t2.0\nb\t4.0\n")
        with pytest.raises(MalformedFile, match="ragged"):
            load_features(p, "tsv")

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("a\t1.0\na\t2.0\n")
        with pytest.raises(MalformedFile):
            load_features(p, "tsv")

    def test_bad_float_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("a\tnot_a_number\n")
        with pytest.raises(MalformedFile):
            load_features(p, "tsv")

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("")
        with pytest.raises(MalformedFile, match="empty"):
            load_features(p, "tsv")

    def test_roundtrip_exact(self, tmp_path, random_matrix):
        m = random_matrix(n=6, d=4, float32=False)
        p = tmp_path / "f.tsv"
        save_features(m, p, "tsv")
        back = load_features(p, "tsv")
        assert back.ids == m.ids
        assert np.abs(back.values - m.values).max() <= 1e-6
        # repr-based text keeps full precision, so it is in fact exact
        assert np.array_equal(back.values, m.values)


class TestBinaryFormat:
    def test_roundtrip_bit_exact(self, tmp_path, random_matrix):
        m = random_matrix(n=5, d=8)
        p = tmp_path / "f.fvec"
        save_features(m, p, "binary")
        back = load_features(p, "binary")
        assert back.ids == m.ids
        assert np.array_equal(back.values, m.values)

    def test_file_bytes_stable(self, tmp_path, random_matrix):
        m = random_matrix(n=4, d=3)
        p1, p2 = tmp_path / "a.fvec", tmp_path / "b.fvec"
        save_features(m, p1, "binary")
        save_features(load_features(p1, "binary"), p2, "binary")
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_rows_rejected(self, tmp_path):
        import struct

        p = tmp_path / "f.fvec"
        p.write_bytes(b"FVEC1\n" + struct.pack("<II", 0, 3))
        with pytest.raises(MalformedFile, match="empty"):
            load_features(p, "binary")

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "f.fvec"
        p.write_bytes(b"NOPE!\n\x00\x00\x00\x00")
        with pytest.raises(MalformedFile, match="magic"):
            load_features(p, "binary")

    def test_truncated_payload_rejected(self, tmp_path, random_matrix):
        p = tmp_path / "f.fvec"
        save_features(random_matrix(), p, "binary")
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(MalformedFile):
            load_features(p, "binary")

    def test_empty_matrix_refused_on_save(self, tmp_path):
        m = FeatureMatrix((), np.zeros((0, 3)))
        with pytest.raises(EmptyInput):
            save_features(m, tmp_path / "f.fvec", "binary")


class TestLabels:
    def test_multilabel_accumulates(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("a\tcat\na\tdog\nb\tcat\n")
        labels = load_labels(p)
        assert labels == {"a": {"cat", "dog"}, "b": {"cat"}}

    def test_single_labels_guard(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("a\tcat\na\tdog\n")
        with pytest.raises(ValueError, match="2 labels"):
            single_labels(load_labels(p))

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "l.tsv"
        save_labels({"a": {"y", "x"}, "b": "z"}, p)
        assert load_labels(p) == {"a": {"x", "y"}, "b": {"z"}}


class TestPgm:
    def test_roundtrip(self, tmp_path, rng):
        grid = PixelGrid(rng.random((7, 9)))
        p = tmp_path / "img.pgm"
        save_pgm(grid, p)
        back = load_pgm(p)
        assert back.width == 9 and back.height == 7
        assert np.abs(back.intensities - grid.intensities).max() <= 0.5 / 255

    def test_ascii_variant(self, tmp_path):
        p = tmp_path / "img.pgm"
        p.write_text("P2\n# comment\n2 2\n255\n0 255\n128 64\n")
        g = load_pgm(p)
        assert g.intensities[0, 1] == 1.0
        assert g.intensities[1, 0] == pytest.approx(128 / 255)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "img.pgm"
        p.write_bytes(b"P5\n4 4\n255\nXX")
        with pytest.raises(MalformedFile):
            load_pgm(p)


class TestSmallestSquare:
    def test_hand_case(self):
        # 10x20 region inside 100x100: the square is 20x20 and contains it
        sq = smallest_enclosing_square(Rect(40, 30, 10, 20), 100, 100)
        assert (sq.w, sq.h) == (20, 20)
        assert sq.x <= 40 and sq.x + 20 >= 50
        assert sq.y <= 30 and sq.y + 20 >= 50

    def test_out_of_bounds_rect(self):
        with pytest.raises(RegionOutOfBounds):
            smallest_enclosing_square(Rect(95, 0, 10, 5), 100, 100)

    @given(
        st.integers(4, 24),
        st.integers(4, 24),
        st.data(),
    )
    def test_matches_bruteforce(self, width, height, data):
        x = data.draw(st.integers(0, width - 1))
        y = data.draw(st.integers(0, height - 1))
        w = data.draw(st.integers(1, width - x))
        h = data.draw(st.integers(1, height - y))
        rect = Rect(x, y, w, h)
        sq = smallest_enclosing_square(rect, width, height)
        assert sq.w == sq.h
        assert sq.within(width, height)
        oracle_side = smallest_square_oracle(rect, width, height)
        if oracle_side is not None:
            # minimal: same side as the brute-force optimum, and contains
            assert sq.w == oracle_side
            assert sq.x <= rect.x and sq.y <= rect.y
            assert rect.x + rect.w <= sq.x + sq.w
            assert rect.y + rect.h <= sq.y + sq.h
        else:
            # containment impossible: shrunk to the image's short side
            assert sq.w == min(width, height)
