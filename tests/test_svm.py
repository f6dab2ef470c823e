from dataclasses import replace

import numpy as np
import pytest

from conftest import sixteen_view_rows
from featkit import svm
from featkit.errors import (
    ConvergenceWarning,
    DimMismatch,
    MalformedFile,
    SingleClassData,
    SkippedClassWarning,
)
from featkit.features import FeatureMatrix
from featkit.metrics import average_precision
from featkit.svm import (
    BinaryModel,
    C_PRESETS,
    MulticlassModel,
    SolverConfig,
    decision,
    load_model,
    objective,
    predict_ovo_from_scores,
    save_model,
    train_binary,
    train_one_vs_all,
    train_one_vs_one,
)
from oracles import (
    dual_cd_reference,
    make_svm_instances,
    ovo_vote_oracle,
    svm_subgradient_oracle,
)

SEP_X = np.array([[1.0], [-1.0]])
SEP_Y = np.array([1.0, -1.0])


class TestObjective:
    def test_zero_weights(self, rng):
        x = rng.normal(size=(7, 3))
        y = np.where(rng.random(7) < 0.5, 1.0, -1.0)
        assert objective(np.zeros(3), x, y, 5.0) == pytest.approx(35.0)

    def test_hand_values(self):
        assert objective(np.array([1.0]), SEP_X, SEP_Y, 5.0) == 0.5
        assert objective(np.array([0.5]), SEP_X, SEP_Y, 0.25) == 0.375

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            objective(np.zeros(2), SEP_X, SEP_Y, 1.0)


class TestTrainBinary:
    def test_one_dim_analytic(self):
        m5 = train_binary(SEP_X, SEP_Y, SolverConfig(C=5.0, bias=False))
        assert abs(m5.w[0] - 1.0) <= 1e-4
        assert m5.objective_value == pytest.approx(0.5, abs=1e-6)
        m_quarter = train_binary(
            SEP_X, SEP_Y, SolverConfig(C=0.25, bias=False)
        )
        assert abs(m_quarter.w[0] - 0.5) <= 1e-4
        assert m_quarter.objective_value == pytest.approx(0.375, abs=1e-6)

    def test_decision_classifies_separable(self):
        m = train_binary(SEP_X, SEP_Y, SolverConfig(C=5.0, bias=False))
        assert decision(m, np.array([1.0])) > 0
        assert decision(m, np.array([-1.0])) < 0

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassData):
            train_binary(SEP_X, np.array([1.0, 1.0]), SolverConfig(C=1.0))

    def test_deterministic_for_seed(self, rng):
        x = rng.normal(size=(20, 4))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        cfg = SolverConfig(C=1.0, seed=7)
        a = train_binary(x, y, cfg)
        b = train_binary(x, y, cfg)
        assert np.array_equal(a.w, b.w)

    def test_label_flip_negates_weights(self, rng):
        x = rng.normal(size=(15, 3))
        y = np.where(rng.random(15) < 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        cfg = SolverConfig(C=1.0, bias=False, seed=3)
        a = train_binary(x, y, cfg)
        b = train_binary(x, -y, cfg)
        assert np.abs(a.w + b.w).max() <= 1e-6

    def test_convexity_no_perturbation_improves(self, rng):
        x = rng.normal(size=(25, 4))
        y = np.where(rng.random(25) < 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        cfg = SolverConfig(C=1.0, tol=1e-10)
        m = train_binary(x, y, cfg)
        xa = np.hstack([x, np.ones((25, 1))])
        base = m.objective_value
        for scale in (1e-3, 1e-2, 1e-1, 1.0):
            for _ in range(5):
                delta = rng.normal(size=m.w.size) * scale
                perturbed = objective(m.w + delta, xa, y, 1.0)
                assert perturbed >= base - cfg.tol * (1.0 + abs(base))

    def test_against_subgradient_oracle_short(self):
        # quick live check on 4 instances; the acceptance suite covers
        # all 25 against the frozen million-step run
        for inst in make_svm_instances(4):
            ref = svm_subgradient_oracle(
                inst.x_augmented, inst.y, inst.C, steps=100_000
            )
            m = train_binary(
                inst.x, inst.y, SolverConfig(C=inst.C, bias=inst.bias)
            )
            assert abs(m.objective_value - ref) <= 2e-4 * (1.0 + abs(ref))

    def test_bias_column_learns_offset(self):
        # all-positive features, labels split by a threshold at 2.5
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        m = train_binary(x, y, SolverConfig(C=10.0, bias=True))
        preds = [np.sign(decision(m, row)) for row in x]
        assert preds == [-1.0, -1.0, 1.0, 1.0]


def _shrinking_instance(seed, c, bias):
    """n=300, d=40 with overlapping classes, so many duals end at 0 or C;
    rows 20-29 duplicate rows 0-9, row 30 is row 0 with the opposite
    label, and the last row is all zero."""
    rng = np.random.default_rng(seed)
    n, d = 300, 40
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    x = rng.normal(size=(n, d)) + 0.4 * y[:, None] * rng.normal(size=d)
    x[20:30], y[20:30] = x[:10], y[:10]
    x[30], y[30] = x[0], -y[0]
    x[-1] = 0.0
    return x, y, SolverConfig(C=c, bias=bias)


SHRINKING_CASES = [(0.2, True), (0.2, False), (2.0, True), (2.0, False)]


class TestShrinking:
    @pytest.mark.parametrize("seed,case", enumerate(SHRINKING_CASES))
    def test_matches_unshrunk_reference(self, seed, case):
        x, y, cfg = _shrinking_instance(seed, *case)
        _, ref, _ = dual_cd_reference(x, y, cfg.C, cfg.bias, tol=cfg.tol)
        m = train_binary(x, y, cfg)
        obj = m.objective_value
        assert abs(obj - ref) <= 2 * cfg.tol * (1.0 + abs(obj))
        assert m.stats.converged
        assert m.stats.gap <= cfg.tol * (1.0 + abs(obj))
        assert m.stats.visits < m.stats.epochs * x.shape[0]

    @pytest.mark.filterwarnings("ignore::featkit.errors.ConvergenceWarning")
    @pytest.mark.parametrize("max_epochs", [1, 10000])
    @pytest.mark.parametrize("case", SHRINKING_CASES)
    def test_objective_value_is_objective_of_w(self, case, max_epochs):
        x, y, cfg = _shrinking_instance(1, *case)
        m = train_binary(x, y, replace(cfg, max_epochs=max_epochs))
        xa = np.hstack([x, np.ones((len(x), 1))]) if cfg.bias else x
        assert m.objective_value == objective(m.w, xa, y, cfg.C)

    def test_rerun_bit_identical(self):
        x, y, cfg = _shrinking_instance(0, 2.0, True)
        a = train_binary(x, y, cfg)
        b = train_binary(x, y, cfg)
        assert np.array_equal(a.w, b.w)
        assert a.objective_value == b.objective_value
        assert a.stats == b.stats

    def test_epoch_limit_warns(self):
        x, y, _ = _shrinking_instance(0, 1.0, True)
        with pytest.warns(ConvergenceWarning):
            m = train_binary(x, y, SolverConfig(C=1.0, max_epochs=1))
        assert m.stats.epochs == 1
        assert m.stats.visits == x.shape[0]
        assert not m.stats.converged
        assert m.stats.gap > 1e-8 * (1.0 + abs(m.objective_value))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_c_and_tol_rejected(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(C=bad)
        with pytest.raises(ValueError):
            SolverConfig(C=1.0, tol=bad)

    @pytest.mark.parametrize("field, bad, message", [
        ("max_epochs", 2.5, "not an integer"),   # TypeError in the solve
        ("max_epochs", True, "not an integer"),  # trained for 1 epoch
        ("max_epochs", 0, "at least 1"),
        ("seed", 2.5, "not an integer"),         # SeedSequence TypeError
        ("seed", True, "not an integer"),
        ("seed", -1, "at least 0"),              # numpy's "non-negative"
    ])
    def test_counts_are_whole_numbers(self, field, bad, message):
        with pytest.raises(ValueError, match=f"{field}.*{message}"):
            SolverConfig(C=1.0, **{field: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        x = np.array([[1.0, 0.0], [bad, 1.0], [-1.0, 0.5], [0.2, -1.0]])
        with pytest.raises(ValueError, match="finite"):
            train_binary(x, np.array([1.0, -1.0, -1.0, 1.0]),
                         SolverConfig(C=1.0))

    def test_stats_not_saved(self, tmp_path, rng):
        feats, labels = _blobs(rng)
        model = train_one_vs_all(feats, labels, SolverConfig(C=1.0))
        bare = MulticlassModel(
            "ova", model.classes,
            {k: BinaryModel(m.w, m.C_used, m.objective_value, m.bias)
             for k, m in model.models.items()},
            model.bias,
        )
        save_model(model, tmp_path / "a.tsvm")
        save_model(bare, tmp_path / "b.tsvm")
        assert (tmp_path / "a.tsvm").read_bytes() == (
            tmp_path / "b.tsvm"
        ).read_bytes()
        assert all(m.stats is None
                   for m in load_model(tmp_path / "a.tsvm").models.values())


def _duplicated_rows(seed, d, c, bias, sep):
    """40 rows with a class shift of ``sep`` along the diagonal, each
    appearing twice, so free duals come in pairs of identical rows."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    x = rng.normal(size=(40, d)) + sep * y[:, None] / np.sqrt(d)
    return np.vstack([x, x]), np.concatenate([y, y]), SolverConfig(
        C=c, bias=bias
    )


def _dual(alpha, z):
    """The dual sum(alpha) - 0.5|w|^2 with w = alpha z, every dual free."""
    return float(alpha.sum() - 0.5 * np.sum((alpha @ z) ** 2))


@pytest.fixture
def step_calls(monkeypatch):
    """(free set size, Gram rank) of every free-set step tried."""
    calls = []
    real = svm._free_set_step

    def recording(z, alpha_f, w, c):
        calls.append((len(z), int(np.linalg.matrix_rank(z @ z.T))))
        return real(z, alpha_f, w, c)

    monkeypatch.setattr(svm, "_free_set_step", recording)
    return calls


class TestFreeSetStep:
    @staticmethod
    def _check(x, y, cfg):
        _, ref, ref_epochs = dual_cd_reference(
            x, y, cfg.C, cfg.bias, tol=cfg.tol
        )
        m = train_binary(x, y, cfg)
        obj = m.objective_value
        assert abs(obj - ref) <= 2 * cfg.tol * (1.0 + abs(obj))
        assert m.stats.converged
        assert m.stats.gap <= cfg.tol * (1.0 + abs(obj))
        return m, ref_epochs

    @pytest.mark.parametrize("seed,case", enumerate(SHRINKING_CASES))
    def test_shrinking_instances(self, seed, case, step_calls):
        m, _ = self._check(*_shrinking_instance(seed, *case))
        assert 1 <= m.stats.free_set_steps <= m.stats.free_set_tries
        assert m.stats.free_set_tries <= len(step_calls)

    def test_step_that_lowers_the_dual_rejected(self, monkeypatch):
        tried = []

        def all_zero(z, alpha_f, w, c):
            tried.append(len(z))
            return np.zeros_like(alpha_f), w

        monkeypatch.setattr(svm, "_free_set_step", all_zero)
        m, _ = self._check(*_shrinking_instance(1, 0.2, False))
        assert tried
        assert m.stats.free_set_steps == 0

    def test_rank_deficient_free_set(self, step_calls):
        x, y, cfg = _duplicated_rows(0, 64, 1.0, True, 1.0)
        m, _ = self._check(x, y, cfg)
        assert m.stats.free_set_steps >= 1
        # Free duplicates make X_F X_F^T singular; the step takes the
        # minimum-norm lstsq solution.
        assert any(rank < size for size, rank in step_calls)

    def test_empty_free_set(self, step_calls):
        # With C this small every margin stays below 1, so every dual
        # goes straight to C and the free set is always empty.
        x, y, _ = _shrinking_instance(0, 1.0, True)
        m, _ = self._check(x, y, SolverConfig(C=1e-4))
        w_all_at_c = 1e-4 * (np.hstack([x, np.ones((300, 1))]) * y[:, None]
                             ).sum(axis=0)
        assert np.abs(m.w - w_all_at_c).max() <= 1e-12
        assert step_calls == []
        assert m.stats.free_set_steps == 0

    def test_duplicated_free_rows_beyond_columns_stepped(self, step_calls,
                                                          monkeypatch):
        x, y, cfg = _duplicated_rows(0, 10, 10.0, True, 1.5)
        m, _ = self._check(x, y, cfg)
        # More rows sit on the margin than there are columns (11), but
        # each appears twice, so the free set has few enough distinct rows.
        xa = np.hstack([x, np.ones((80, 1))])
        on_margin = np.abs(y * (xa @ m.w) - 1.0) < 1e-6
        assert on_margin.sum() > xa.shape[1]
        assert any(size > xa.shape[1] for size, _ in step_calls)
        assert m.stats.free_set_steps >= 1
        monkeypatch.setattr(svm, "STEP_FLOP_MULTIPLE", 0)
        no_step = train_binary(x, y, cfg)
        assert no_step.stats.free_set_tries == 0
        assert m.stats.epochs < no_step.stats.epochs

    def test_over_budget_free_set_not_tried(self, step_calls,
                                            monkeypatch):
        # 150 separable rows in 300 dimensions: about 130 end on the
        # margin with free duals, and their Gram costs more than the
        # budget of any one epoch, even one that visits every row.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(150, 300))
        y = np.where(rng.random(150) < 0.5, 1.0, -1.0)
        n, cols = 150, 301
        # The solver draws one permutation of its active rows per epoch:
        # record each epoch's visits and the steps tried before it.
        epochs = []
        real_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def permutation(self, active):
                epochs.append((len(active), len(step_calls)))
                return self._rng.permutation(active)

        monkeypatch.setattr(np.random, "default_rng", Recording)
        m = train_binary(x, y, SolverConfig(C=1e3))
        assert m.stats.converged

        def cost(f):
            return 2 * f * f * cols + 2 * f**3 / 3

        def budget(visits):
            return svm.STEP_FLOP_MULTIPLE * 2 * (visits + n) * cols

        xa = np.hstack([x, np.ones((n, 1))])
        f = int((np.abs(y * (xa @ m.w) - 1.0) < 1e-6).sum())
        assert cost(f) > budget(n)
        assert step_calls
        # No set here has more distinct rows than columns, so every call
        # is a step tried.  Each fits the flops of the epochs since the
        # last one, and the first did not fit its own epoch's.
        for j, (size, _) in enumerate(step_calls):
            since = [v for v, tried in epochs if tried == j]
            assert cost(size) <= sum(budget(v) for v in since)
        first = step_calls[0][0]
        assert cost(first) > budget(n)
        assert len([v for v, tried in epochs if tried == 0]) > 1

    def test_more_distinct_free_rows_than_columns_skipped(self,
                                                          monkeypatch):
        # Four distinct rows in three columns: the Gram must be singular.
        z = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                      [1.0, 1.0, 1.0]])
        alpha = np.full(4, 0.5)
        assert svm._free_set_step(z, alpha, alpha @ z, 1.0) is None
        # 80 distinct rows in 10 dimensions: early free sets with more
        # distinct rows than the 11 columns fit the budget, reach the
        # step, and are not counted as tried.
        returns = []
        real = svm._free_set_step

        def recording(z, alpha_f, w, c):
            returns.append((len(z), real(z, alpha_f, w, c)))
            return returns[-1][1]

        monkeypatch.setattr(svm, "_free_set_step", recording)
        rng = np.random.default_rng(0)
        y = np.where(rng.random(80) < 0.5, 1.0, -1.0)
        x = rng.normal(size=(80, 10)) + 1.5 * y[:, None] / np.sqrt(10)
        m, _ = self._check(x, y, SolverConfig(C=1.0))
        skipped = [size for size, step in returns if step is None]
        assert skipped and min(skipped) > 11
        assert m.stats.free_set_tries == len(returns) - len(skipped)

    def test_clipped_step_raises_the_dual(self):
        # The free optimum (4, 13) lies outside the box [0, 1]^2.  Clipped
        # to (1, 1) it has a lower dual than the start, but the dual rises
        # along the first part of the segment towards it.
        z = np.array([[1.0, -3.0], [0.0, 1.0]])
        alpha = np.array([0.25, 0.75])
        newton = np.linalg.solve(z @ z.T, np.ones(2))
        assert np.allclose(newton, [4.0, 13.0])
        assert _dual(np.clip(newton, 0.0, 1.0), z) < _dual(alpha, z)
        new, w = svm._free_set_step(z, alpha, alpha @ z, 1.0)
        assert _dual(new, z) > _dual(alpha, z)
        assert np.all((new >= 0.0) & (new <= 1.0))
        assert np.abs(w - new @ z).max() <= 1e-12

    def test_singular_gram_falls_back_to_lstsq(self, monkeypatch):
        # The third row is the sum of the others, so the LU solve meets
        # an exactly zero pivot.
        z = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        alpha = np.array([0.1, 0.2, 0.1])
        shapes = []
        real = np.linalg.lstsq

        def spy(a, b, **kwargs):
            shapes.append(a.shape)
            return real(a, b, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        new, w = svm._free_set_step(z, alpha, alpha @ z, 1.0)
        assert shapes == [(3, 3)]
        assert _dual(new, z) > _dual(alpha, z)
        assert np.abs(w - new @ z).max() <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2])
    def test_repeated_rows_take_the_minimum_norm_step(self, seed):
        # 30 rows in 64 dimensions, each twice: the Gram is singular but
        # an LU solve need not meet an exact zero pivot, so repeated rows
        # go to lstsq, whose minimum-norm point moves both copies alike.
        rng = np.random.default_rng(seed)
        r = rng.normal(size=(30, 64))
        z = np.vstack([r, r])
        alpha = np.full(60, 0.01)
        new, w = svm._free_set_step(z, alpha, alpha @ z, 10.0)
        assert np.abs(new[:30] - new[30:]).max() <= 1e-12
        assert _dual(new, z) > _dual(alpha, z) + 1e-3
        assert np.abs(w - new @ z).max() <= 1e-12

    def test_rerun_bit_identical(self):
        x, y, cfg = _duplicated_rows(0, 64, 1.0, True, 1.0)
        a = train_binary(x, y, cfg)
        b = train_binary(x, y, cfg)
        assert a.stats.free_set_steps >= 1
        assert np.array_equal(a.w, b.w)
        assert a.objective_value == b.objective_value
        assert a.stats == b.stats

    def test_pair_problem_epochs(self):
        # One one-vs-one pair of 16-view images: 2 images per class,
        # 64 rows of 128 values.
        _, x, labels = sixteen_view_rows(5, 2, 2, 128)
        y = np.repeat([1.0 if labels[k] == "c0" else -1.0
                       for k in sorted(labels)], 16)
        m, ref_epochs = self._check(x, y, SolverConfig(C=2.0))
        assert m.stats.epochs * 3 <= ref_epochs


class TestModelValues:
    @pytest.mark.parametrize("w,c,obj", [
        ([1.0, np.nan], 1.0, 0.5),
        ([1.0, np.inf], 1.0, 0.5),
        ([1.0, 0.0], -1.0, 0.5),
        ([1.0, 0.0], 0.0, 0.5),
        ([1.0, 0.0], np.nan, 0.5),
        ([1.0, 0.0], np.inf, 0.5),
        ([1.0, 0.0], 1.0, np.nan),
        ([1.0, 0.0], 1.0, -np.inf),
    ])
    def test_non_finite_or_bad_c_rejected(self, w, c, obj):
        with pytest.raises(ValueError):
            BinaryModel(np.array(w), c, obj, bias=False)

    @pytest.mark.parametrize("model_bias, sizes, match", [
        (False, (3, 3), "bias"),        # the bundle says bias=True
        (True, (3, 4), "weight size"),  # the two weight vectors differ
    ])
    def test_bundle_rejects_disagreeing_binary_models(self, model_bias,
                                                      sizes, match):
        models = {i: BinaryModel(np.ones(n), 1.0, 0.5, bias=model_bias)
                  for i, n in enumerate(sizes)}
        with pytest.raises(ValueError, match=match):
            MulticlassModel("ova", ("x", "y"), models, bias=True)

    @pytest.mark.parametrize("strategy, keys", [
        ("ova", [7]),          # no such class
        ("ova", [0, -1]),
        ("ova", []),           # nothing to score with
        ("ovo", [(1, 0)]),     # the pair is keyed (0, 1)
        ("ovo", [(0, 2)]),
    ])
    def test_bundle_rejects_keys_outside_the_classes(self, strategy, keys):
        m = BinaryModel(np.ones(3), 1.0, 0.5, bias=True)
        with pytest.raises(ValueError, match="needs"):
            MulticlassModel(strategy, ("x", "y"), dict.fromkeys(keys, m),
                            bias=True)

    @pytest.mark.parametrize("classes", [
        ("a\nb", "c"), ("a", "a"), ("", "x"), ("a\tb", "c"), ("a\rb", "c"),
        ("a", 1),
    ])
    def test_bundle_rejects_bad_class_names(self, classes):
        m = BinaryModel(np.ones(3), 1.0, 0.5, bias=True)
        with pytest.raises(ValueError, match="class name"):
            MulticlassModel("ova", classes, {0: m}, bias=True)

    @pytest.mark.parametrize("names", ["a\tb\nc", "a\na", "\nx"])
    def test_load_rejects_bad_class_names_naming_path(self, tmp_path,
                                                      names):
        p = tmp_path / "m.tsvm"
        p.write_text(f"OTSVM1\nova\t2\t1\n{names}\n"
                     "0\t1.0\t0.5\t1.0\t1.0\n")
        with pytest.raises(MalformedFile, match="class name") as err:
            load_model(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize("line", [
        "0\t1.0\t0.5\tnan\t1.0",
        "0\t-1\t0.5\t1.0\t1.0",
        "0\t1.0\tinf\t1.0\t1.0",
    ])
    def test_load_rejects_bad_values(self, tmp_path, line):
        p = tmp_path / "m.tsvm"
        header = "OTSVM1\nova\t2\t1\na\nb\n"
        p.write_text(header + "0\t1.0\t0.5\t1.0\t1.0\n")
        assert load_model(p).models[0].C_used == 1.0
        p.write_text(f"{header}{line}\n")
        with pytest.raises(MalformedFile):
            load_model(p)


class TestDecision:
    def test_dot_product(self):
        m = BinaryModel(np.array([1.0, -1.0]), 1.0, 0.0, bias=False)
        assert decision(m, np.array([2.0, 0.5])) == 1.5

    def test_zero_input(self):
        m = BinaryModel(np.array([1.0, -1.0]), 1.0, 0.0, bias=False)
        assert decision(m, np.zeros(2)) == 0.0

    def test_dim_mismatch(self):
        m = BinaryModel(np.array([1.0, -1.0]), 1.0, 0.0, bias=False)
        with pytest.raises(DimMismatch):
            decision(m, np.zeros(3))

    def test_rows_dim_mismatch(self):
        m = BinaryModel(np.array([1.0, -1.0]), 1.0, 0.0, bias=False)
        with pytest.raises(DimMismatch):
            decision(m, np.zeros((4, 3)))
        with pytest.raises(DimMismatch):
            decision(m, np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("bias", [True, False])
    def test_binary_rows_match_per_row(self, rng, bias):
        m = BinaryModel(rng.normal(size=7 + bias), 1.0, 0.0, bias=bias)
        x = rng.normal(size=(40, 7)) * 10.0
        batch = decision(m, x)
        assert batch.shape == (40,)
        per_row = np.asarray([decision(m, row) for row in x])
        assert np.abs(batch - per_row).max() <= 1e-12 * (
            1.0 + np.abs(per_row).max()
        )

    def test_multiclass_rows_match_per_model_rows(self, rng):
        feats, labels = _blobs(rng, classes=("a", "b", "c", "d"))
        x = rng.normal(size=(30, feats.dim)) * 3.0
        for train in (train_one_vs_all, train_one_vs_one):
            model = train(feats, labels, SolverConfig(C=1.0))
            keys = sorted(model.models)
            batch = decision(model, x)
            assert batch.shape == (30, len(keys))
            per_row = np.asarray([
                [decision(model.models[key], row) for key in keys]
                for row in x
            ])
            assert np.abs(batch - per_row).max() <= 1e-12
            assert np.abs(decision(model, x[3]) - batch[3]).max() <= 1e-12

    def test_ova_scores_and_votes_on_rows(self, rng):
        feats, labels = _blobs(rng, classes=("a", "b", "c", "d"))
        x = rng.normal(size=(30, feats.dim)) * 3.0
        ova = train_one_vs_all(feats, labels, SolverConfig(C=1.0))
        rows = decision(ova, x)
        assert rows.shape == (30, 4)
        for i, row in enumerate(x):
            assert np.abs(rows[i] - decision(ova, row)).max() <= 1e-12
        ovo = train_one_vs_one(feats, labels, SolverConfig(C=1.0))
        assert predict_ovo_from_scores(ovo, decision(ovo, x)) == [
            predict_ovo_from_scores(ovo, decision(ovo, row)[None])[0]
            for row in x
        ]


def _blobs(rng, n_per_class=20, d=6, spread=0.25, classes=("a", "b", "c")):
    centers = rng.normal(size=(len(classes), d)) * 2.0
    ids, rows, labels = [], [], {}
    for ci, cls in enumerate(classes):
        for t in range(n_per_class):
            fid = f"{cls}{t}"
            ids.append(fid)
            rows.append(centers[ci] + rng.normal(size=d) * spread)
            labels[fid] = cls
    return FeatureMatrix(tuple(ids), np.stack(rows)), labels


class TestOneVsAll:
    def test_model_count(self, rng):
        feats, labels = _blobs(rng)
        model = train_one_vs_all(feats, labels, SolverConfig(C=1.0))
        assert model.strategy == "ova"
        assert len(model.models) == 3

    def test_multilabel_sample_positive_for_both(self, rng):
        rows = rng.normal(size=(6, 3))
        feats = FeatureMatrix(tuple(f"s{i}" for i in range(6)), rows)
        labels = {
            "s0": {"a", "b"},
            "s1": {"a"},
            "s2": {"b"},
            "s3": {"c"},
            "s4": {"c"},
            "s5": {"b"},
        }
        model = train_one_vs_all(feats, labels, SolverConfig(C=1.0))
        assert len(model.models) == 3  # a, b, c all trainable

    def test_separable_blobs_reach_ap_one(self, rng):
        feats, labels = _blobs(rng, spread=0.05)
        model = train_one_vs_all(feats, labels, SolverConfig(C=5.0))
        scores = np.stack([decision(model, row) for row in feats.values])
        for ci, cls in enumerate(model.classes):
            truth = [labels[fid] == cls for fid in feats.ids]
            assert average_precision(scores[:, ci], truth) == 1.0

    def test_degenerate_class_skipped_with_warning(self, rng):
        rows = rng.normal(size=(4, 2))
        feats = FeatureMatrix(("a", "b", "c", "d"), rows)
        # every row is an "x": that class has no negatives
        labels = {
            "a": {"x", "y"},
            "b": {"x", "y"},
            "c": {"x"},
            "d": {"x"},
        }
        with pytest.warns(SkippedClassWarning):
            model = train_one_vs_all(feats, labels, SolverConfig(C=1.0))
        assert list(model.models) == [1]

    def test_every_class_degenerate_rejected(self, rng):
        feats = FeatureMatrix(("a", "b"), rng.normal(size=(2, 2)))
        labels = {"a": {"x", "y"}, "b": {"x", "y"}}
        with pytest.warns(SkippedClassWarning), pytest.raises(
                SingleClassData, match="every class"):
            train_one_vs_all(feats, labels, SolverConfig(C=1.0))


class TestOneVsOne:
    def test_pair_count_four_classes(self, rng):
        feats, labels = _blobs(rng, classes=("a", "b", "c", "d"))
        model = train_one_vs_one(feats, labels, SolverConfig(C=1.0))
        assert len(model.models) == 6

    def test_two_classes_equal_single_binary(self, rng):
        feats, labels = _blobs(rng, classes=("a", "b"))
        model = train_one_vs_one(feats, labels, SolverConfig(C=1.0))
        assert len(model.models) == 1
        for fid, row in zip(feats.ids, feats.values):
            voted = predict_ovo_from_scores(model,
                                            decision(model, row)[None])[0]
            s = decision(model.models[(0, 1)], row)
            assert voted == ("a" if s >= 0 else "b")

    def test_pair_training_excludes_third_class(self, rng):
        feats, labels = _blobs(rng, n_per_class=8)
        model = train_one_vs_one(feats, labels, SolverConfig(C=1.0))
        # retrain pair (0, 1) by hand on only those samples
        keep = [i for i, fid in enumerate(feats.ids)
                if labels[fid] in ("a", "b")]
        x = feats.values[keep]
        y = np.asarray(
            [1.0 if labels[feats.ids[i]] == "a" else -1.0 for i in keep]
        )
        direct = train_binary(x, y, SolverConfig(C=1.0))
        assert np.array_equal(direct.w, model.models[(0, 1)].w)

    def test_multilabel_input_rejected(self, rng):
        rows = rng.normal(size=(3, 2))
        feats = FeatureMatrix(("a", "b", "c"), rows)
        labels = {"a": {"x", "y"}, "b": {"x"}, "c": {"y"}}
        with pytest.raises(ValueError, match="single-label"):
            train_one_vs_one(feats, labels, SolverConfig(C=1.0))


TRAINERS = pytest.mark.parametrize(
    "train", [train_one_vs_all, train_one_vs_one], ids=["ova", "ovo"])


class TestLabelReader:
    """Both trainers read the label mapping one way."""

    @TRAINERS
    def test_unlabeled_feature_id_refused(self, rng, train):
        feats, labels = _blobs(rng)
        del labels["b3"]
        with pytest.raises(ValueError,
                           match="unlabeled feature ids, e.g. 'b3'"):
            train(feats, labels, SolverConfig(C=1.0))

    @TRAINERS
    def test_rows_naming_one_class_refused(self, rng, train):
        feats = FeatureMatrix(("a", "b"), rng.normal(size=(2, 2)))
        # "y" labels an id without a row, so the rows name only "x".
        labels = {"a": "x", "b": {"x"}, "c": "y"}
        with pytest.raises(SingleClassData,
                           match="^training rows name fewer than two "
                                 "classes$"):
            train(feats, labels, SolverConfig(C=1.0))

    @TRAINERS
    def test_one_label_reads_as_its_collections(self, rng, train):
        feats, labels = _blobs(rng, n_per_class=6)
        cfg = SolverConfig(C=1.0)
        want = train(feats, labels, cfg)
        for wrap in (lambda v: {v}, lambda v: [v], lambda v: (v,),
                     lambda v: frozenset([v])):
            got = train(feats, {k: wrap(v) for k, v in labels.items()}, cfg)
            assert got.classes == want.classes
            assert list(got.models) == list(want.models)
            for key, m in want.models.items():
                assert np.array_equal(got.models[key].w, m.w)


class TestModelKeyOrder:
    @TRAINERS
    def test_reverse_built_model_reads_in_key_order(self, rng, tmp_path,
                                                    train):
        feats, labels = _blobs(rng, classes=("a", "b", "c", "d"))
        model = train(feats, labels, SolverConfig(C=1.0))
        keys = sorted(model.models)
        given = {key: model.models[key] for key in reversed(keys)}
        rev = MulticlassModel(model.strategy, model.classes, given,
                              model.bias)
        assert list(rev.models) == keys
        assert list(given) == keys[::-1]  # the caller's dict is not reordered
        x = rng.normal(size=(7, feats.dim))
        scores = decision(rev, x)
        assert np.array_equal(scores, decision(model, x))
        for col, key in enumerate(keys):
            assert np.abs(scores[:, col]
                          - decision(model.models[key], x)).max() <= 1e-12
        save_model(model, tmp_path / "sorted.tsvm")
        save_model(rev, tmp_path / "reverse.tsvm")
        assert ((tmp_path / "reverse.tsvm").read_bytes()
                == (tmp_path / "sorted.tsvm").read_bytes())


def _stub_ovo(classes):
    k = len(classes)
    models = {
        (i, j): BinaryModel(np.zeros(2), 1.0, 0.0, bias=False)
        for i in range(k)
        for j in range(i + 1, k)
    }
    return MulticlassModel("ovo", tuple(classes), models, bias=False)


def _vote(model, scores):
    """The vote for one image from a {pair key: score} dict."""
    row = [scores[key] for key in sorted(model.models)]
    return predict_ovo_from_scores(model, np.array([row]))[0]


class TestOvoVoting:
    def test_unanimous_winner(self):
        model = _stub_ovo(("a", "b", "c"))
        scores = {(0, 1): -1.0, (0, 2): -2.0, (1, 2): 3.0}  # b beats all
        assert _vote(model, scores) == "b"

    def test_matches_exhaustive_tally(self, rng):
        for k in range(2, 6):
            classes = tuple(chr(ord("a") + i) for i in range(k))
            model = _stub_ovo(classes)
            for _ in range(40):
                scores = {
                    key: float(rng.normal()) for key in model.models
                }
                assert _vote(model, scores) == (
                    ovo_vote_oracle(classes, scores)
                )

    def test_block_matches_tally_per_image(self, rng):
        # Small integer scores make vote and margin ties common.
        for k in range(2, 7):
            classes = tuple(chr(ord("a") + i) for i in range(k))
            model = _stub_ovo(classes)
            keys = sorted(model.models)
            block = rng.integers(-2, 3, size=(60, len(keys))).astype(float)
            want = [ovo_vote_oracle(classes, dict(zip(keys, row)))
                    for row in block.tolist()]
            assert predict_ovo_from_scores(model, block) == want

    def test_block_shape_checked(self):
        model = _stub_ovo(("a", "b", "c"))
        for bad in (np.zeros(3), np.zeros((2, 2)), np.zeros((1, 3, 1))):
            with pytest.raises(DimMismatch):
                predict_ovo_from_scores(model, bad)

    def test_invariant_under_positive_scaling(self, rng):
        model = _stub_ovo(("a", "b", "c", "d"))
        for _ in range(25):
            scores = {key: float(rng.normal()) for key in model.models}
            base = _vote(model, scores)
            for lam in (0.001, 3.0, 1e4):
                scaled = {key: lam * v for key, v in scores.items()}
                assert _vote(model, scaled) == base

    def test_tie_breaks_by_margin_then_order(self):
        model = _stub_ovo(("a", "b", "c"))
        # a beats b, b beats c, c beats a: one vote each
        scores = {(0, 1): 1.0, (1, 2): 5.0, (0, 2): -2.0}
        # margins: a=1, b=5, c=2 -> b wins
        assert _vote(model, scores) == "b"
        # equal margins -> class order
        scores = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): -1.0}
        assert _vote(model, scores) == "a"


class TestModelPersistence:
    def test_ovo_roundtrip_predictions(self, tmp_path, rng):
        feats, labels = _blobs(rng)
        model = train_one_vs_one(feats, labels, SolverConfig(C=1.0))
        p = tmp_path / "m.tsvm"
        save_model(model, p)
        back = load_model(p)
        assert back.classes == model.classes
        probes = rng.normal(size=(100, feats.dim))
        for row in probes:
            assert (predict_ovo_from_scores(back, decision(back, row)[None])
                    == predict_ovo_from_scores(model,
                                               decision(model, row)[None]))
            for key in model.models:
                assert abs(
                    decision(back.models[key], row)
                    - decision(model.models[key], row)
                ) <= 1e-9

    def test_ova_roundtrip_scores(self, tmp_path, rng):
        feats, labels = _blobs(rng)
        model = train_one_vs_all(feats, labels, SolverConfig(C=0.5))
        p = tmp_path / "m.tsvm"
        save_model(model, p)
        back = load_model(p)
        for row in rng.normal(size=(20, feats.dim)):
            assert np.array_equal(decision(back, row), decision(model, row))

    def test_truncated_rejected(self, tmp_path, rng):
        feats, labels = _blobs(rng)
        model = train_one_vs_one(feats, labels, SolverConfig(C=1.0))
        p = tmp_path / "m.tsvm"
        save_model(model, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(MalformedFile):
            load_model(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.tsvm"
        p.write_text("WRONG9\nova\t2\t1\na\nb\n0\t1.0\t0.0\t1.0\n")
        with pytest.raises(MalformedFile):
            load_model(p)


def test_presets_match_documented_values():
    assert C_PRESETS["voc2007"] == 0.2
    assert C_PRESETS["mit67"] == 2.0
    assert C_PRESETS["birds"] == 2.0
    assert C_PRESETS["flowers"] == 2.0
    assert C_PRESETS["h3d"] == 0.2
    assert C_PRESETS["uiucatt"] == 0.2
    assert C_PRESETS["voc2007_companion"] == 5.0
