import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from conftest import em_from_outside_the_cone, make_model, make_pmf, poisson_histogram
from lpm import model as model_module
from lpm.errors import (AnalysisError, BinningMismatchError, EmptyInputError,
                        ParameterError)
from lpm.histograms import Histogram2D
from lpm.model import (ComponentPmf, LpmModel, TrainOptions, _nnls,
                       _purify_treatment, fit_quantities, model_expectation,
                       read_model_json, train_control, train_treatment,
                       write_model_json)


class TestComponentPmf:
    def test_must_sum_to_one(self, small_binning):
        with pytest.raises(ValueError):
            ComponentPmf(probs=np.full((8, 2), 0.1), phase="control", index=0)

    def test_negative_cells_rejected(self, small_binning):
        g = np.full((8, 2), 1.0 / 16)
        g[0, 0] = -g[0, 0]
        g[1, 0] += 2.0 / 16
        with pytest.raises(ValueError):
            ComponentPmf(probs=g, phase="control", index=0)


class TestLpmModel:
    def test_phase_ordering_enforced(self, small_binning):
        d = make_model(small_binning, n_control=1, n_treatment=1).to_json_dict()
        d["components"].reverse()
        with pytest.raises(ValueError):
            LpmModel.from_json_dict(d)

    def test_component_count_checked(self, small_binning):
        ctrl = make_pmf(small_binning, 0, "control", 0)
        with pytest.raises(ValueError):
            LpmModel(P=ctrl.probs.reshape(-1, 1), n_control=2,
                     binning=small_binning)
        d = make_model(small_binning, n_control=2).to_json_dict()
        d["n_control"] = 1
        with pytest.raises(ValueError):
            LpmModel.from_json_dict(d)

    def test_pmf_matrix_validated(self, small_binning):
        P = make_model(small_binning, n_control=2).P
        with pytest.raises(ValueError):
            LpmModel(P=P[:-2], n_control=2, binning=small_binning)
        with pytest.raises(ValueError):
            LpmModel(P=P * 1.1, n_control=2, binning=small_binning)
        neg = P.copy()
        neg[0, 0], neg[1, 0] = -neg[0, 0], neg[1, 0] + 2 * neg[0, 0]
        with pytest.raises(ValueError):
            LpmModel(P=neg, n_control=2, binning=small_binning)

    def test_pmf_matrix_read_only(self, small_binning):
        m = make_model(small_binning, n_control=2)
        assert m.P.flags.c_contiguous
        with pytest.raises(ValueError):
            m.P[0, 0] = 0.5

    def test_treatment_slice(self, small_binning):
        m = make_model(small_binning, n_control=2, n_treatment=1)
        assert m.treatment_slice == slice(2, 3)
        assert m.n_components == 3

    def test_pmf_matrix_columns_normalised(self, small_binning):
        m = make_model(small_binning, n_control=2, n_treatment=1)
        P = m.P
        assert P.shape == (16, 3)
        assert np.allclose(P.sum(axis=0), 1.0)

    def test_json_roundtrip_bitwise(self, tmp_path, small_binning):
        m = make_model(small_binning, n_control=2, n_treatment=1)
        path = tmp_path / "model.json"
        write_model_json(path, m)
        back = read_model_json(path)
        assert back.n_control == 2 and back.n_treatment == 1
        assert np.array_equal(back.P, m.P)


class TestFitQuantities:
    def test_recovers_exact_mixture(self, small_binning):
        m = make_model(small_binning, n_control=2)
        q_true = np.array([600.0, 1400.0])
        counts = np.round(model_expectation(m, q_true) * 50).astype(int)
        h = Histogram2D(tumor_id="t", cohort="control", counts=counts,
                        binning=small_binning)
        q, diag = fit_quantities(m, h)
        assert diag.converged
        assert np.allclose(q / q.sum(), q_true / q_true.sum(), atol=1e-3)

    def test_total_quantity_matches_counts(self, small_binning):
        m = make_model(small_binning, n_control=2)
        h = poisson_histogram(m, np.array([3000.0, 5000.0]), seed=1)
        q, _ = fit_quantities(m, h)
        assert q.sum() == pytest.approx(h.total, rel=1e-6)

    def test_unique_fixed_point_from_random_starts(self, small_binning):
        m = make_model(small_binning, n_control=3, seed=5)
        h = poisson_histogram(m, np.array([2000.0, 3000.0, 1000.0]), seed=2)
        rng = np.random.default_rng(0)
        fits = []
        for _ in range(5):
            q0 = rng.uniform(0.1, 2.0, size=3) * h.total / 3
            q, _ = fit_quantities(m, h, q_init=q0)
            fits.append(q)
        for q in fits[1:]:
            assert np.allclose(q, fits[0], rtol=1e-3, atol=1e-3 * h.total)

    def test_binning_mismatch(self, small_binning, binning):
        m = make_model(small_binning, n_control=2)
        h = Histogram2D(tumor_id="t", cohort="control",
                        counts=np.ones((32, 2)), binning=binning)
        with pytest.raises(BinningMismatchError):
            fit_quantities(m, h)

    def test_empty_histogram(self, small_binning):
        m = make_model(small_binning, n_control=2)
        h = Histogram2D(tumor_id="t", cohort="control",
                        counts=np.zeros((8, 2)), binning=small_binning)
        with pytest.raises(EmptyInputError):
            fit_quantities(m, h)


class TestEm:
    def test_objective_decrease_is_analysis_error(self):
        with pytest.raises(AnalysisError, match="objective decreased"):
            em_from_outside_the_cone()


def dirichlet_columns(rng, m, n):
    """(m, n) matrix of random PMF columns, like a model's control block."""
    return np.ascontiguousarray(rng.dirichlet(np.ones(m), size=n).T)


class TestNnls:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m, n = int(rng.integers(4, 65)), int(rng.integers(1, 11))
            A = dirichlet_columns(rng, m, n)
            b = rng.dirichlet(np.ones(m))
            ref, _ = scipy_nnls(A, b)
            x = _nnls(A, b)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max(), (m, n)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.integers(1, 10),
           st.booleans())
    def test_kkt(self, seed, m, n, duplicate):
        rng = np.random.default_rng(seed)
        A = dirichlet_columns(rng, m, n)
        if duplicate:
            A = np.column_stack([A, A[:, :1]])
        b = A @ rng.normal(size=A.shape[1]) + 0.1 * rng.normal(size=m) / m
        x = _nnls(A, b)
        g = A.T @ (b - A @ x)
        tol = 1e-10 * np.linalg.norm(A, axis=0).max() * np.linalg.norm(b)
        assert np.all(x >= 0)
        assert np.all(np.abs(g[x > 0]) <= tol)
        assert np.all(g[x == 0] <= tol)

    def test_recovers_b_in_the_cone(self):
        A = dirichlet_columns(np.random.default_rng(1), 30, 4)
        c = np.array([2.0, 0.0, 0.5, 1.0])
        assert np.allclose(_nnls(A, A @ c), c, rtol=0, atol=1e-12 * c.max())

    def test_b_orthogonal_to_every_column_gives_zero(self):
        A = np.zeros((20, 3))
        A[:10] = dirichlet_columns(np.random.default_rng(2), 10, 3)
        b = np.zeros(20)
        b[10:] = 1.0
        assert np.array_equal(_nnls(A, b), np.zeros(3))

    def test_duplicated_columns_terminate(self):
        rng = np.random.default_rng(3)
        a = dirichlet_columns(rng, 25, 2)
        A = a[:, [0, 1, 0, 1, 0]]  # rank 2
        b = a @ np.array([0.7, 0.4]) + 0.01 * rng.dirichlet(np.ones(25))
        x = _nnls(A, b)
        ref, _ = scipy_nnls(A, b)
        assert np.all(x >= 0)
        assert np.allclose(A @ x, A @ ref, rtol=0, atol=1e-12)

    def test_iteration_cap_is_analysis_error(self):
        A = dirichlet_columns(np.random.default_rng(4), 20, 2)
        b = A @ np.array([1.0, 1.0])  # both columns must enter
        assert np.allclose(_nnls(A, b, max_iter=2), [1.0, 1.0])
        with pytest.raises(AnalysisError, match="did not converge in 1 iter"):
            _nnls(A, b, max_iter=1)


class TestPurifyTreatment:
    def test_control_columns_bitwise_and_treatment_normalised(self):
        rng = np.random.default_rng(5)
        P = dirichlet_columns(rng, 16, 5)
        before = P.copy()
        out = _purify_treatment(P, 3)
        assert np.array_equal(P, before)
        assert np.array_equal(out[:, :3], P[:, :3])
        assert np.all(out[:, 3:] >= 0)
        assert np.allclose(out[:, 3:].sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_control_mixture_plus_bump_purifies_to_the_bump(self):
        rng = np.random.default_rng(6)
        P = np.zeros((16, 3))
        P[:8, :2] = dirichlet_columns(rng, 8, 2)
        bump = np.zeros(16)
        bump[8:] = rng.dirichlet(np.ones(8))
        P[:, 2] = 0.3 * P[:, 0] + 0.2 * P[:, 1] + 0.5 * bump
        out = _purify_treatment(P, 2)
        assert np.allclose(out[:, 2], bump, rtol=0, atol=1e-12)


class TestTrainControl:
    def test_basic_structure(self, small_binning):
        truth = make_model(small_binning, n_control=2, seed=9)
        cohort = [poisson_histogram(truth, np.array([4000.0, 2000.0]),
                                    seed=i, tumor_id=f"c{i}")
                  for i in range(4)]
        opts = TrainOptions(seed=0, restarts=2, max_iter=2000)
        result = train_control(cohort, 2, opts)
        m = result.model
        assert m.n_control == 2 and m.n_treatment == 0
        assert np.allclose(m.P.sum(axis=0), 1.0)
        assert set(result.quantities) == {f"c{i}" for i in range(4)}
        for h in cohort:
            assert result.quantities[h.tumor_id].sum() == pytest.approx(
                h.total, rel=1e-3)

    def test_deterministic_given_seed(self, small_binning):
        truth = make_model(small_binning, n_control=2, seed=9)
        cohort = [poisson_histogram(truth, np.array([4000.0, 2000.0]),
                                    seed=i, tumor_id=f"c{i}")
                  for i in range(3)]
        opts = TrainOptions(seed=7, restarts=2, max_iter=1000)
        a = train_control(cohort, 2, opts)
        b = train_control(cohort, 2, opts)
        assert np.array_equal(a.model.P, b.model.P)
        for tid in a.quantities:
            assert np.array_equal(a.quantities[tid], b.quantities[tid])

    def test_empty_cohort(self):
        with pytest.raises(EmptyInputError):
            train_control([], 2)

    def test_needs_a_restart(self):
        with pytest.raises(ParameterError, match="restarts"):
            TrainOptions(restarts=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"max_iter": -5}, "max_iter must be >= 1"),
        ({"tol": -1e-9}, "tol must be >= 0"),
        ({"tol": float("nan")}, "tol must be >= 0"),
    ])
    def test_needs_a_map_and_a_non_negative_tol(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            TrainOptions(**kwargs)


class TestTrainTreatment:
    @pytest.fixture
    def trained(self, small_binning):
        truth = make_model(small_binning, n_control=2, n_treatment=1, seed=3)
        control = [poisson_histogram(truth, np.array([4000.0, 2000.0, 0.0]),
                                     seed=i, tumor_id=f"c{i}")
                   for i in range(4)]
        treated = [poisson_histogram(truth, np.array([2500.0, 1500.0, 2000.0]),
                                     seed=10 + i, tumor_id=f"t{i}",
                                     cohort="treated")
                   for i in range(4)]
        opts = TrainOptions(seed=0, restarts=2, max_iter=2000)
        base = train_control(control, 2, opts)
        return base, train_treatment(base.model, treated, 1, opts), treated

    def test_control_components_frozen_bitwise(self, trained):
        base, full, _ = trained
        assert np.array_equal(full.model.P[:, :2], base.model.P)

    def test_treatment_component_added(self, trained):
        _, full, treated = trained
        assert full.model.n_treatment == 1
        assert set(full.quantities) == {h.tumor_id for h in treated}
        for h in treated:
            assert full.quantities[h.tumor_id].shape == (3,)

    def test_needs_treatment_components(self, trained):
        base, _, treated = trained
        with pytest.raises(ValueError):
            train_treatment(base.model, treated, 0)

    def test_rejects_base_with_treatment(self, trained):
        _, full, treated = trained
        with pytest.raises(ValueError):
            train_treatment(full.model, treated, 1)

    @pytest.mark.parametrize("forced", [None, True])
    def test_degenerate_meta_is_the_diagnostics_flag(self, small_binning,
                                                     monkeypatch, forced):
        # forced sets the flag of every training fit; quantity fits keep theirs
        real = model_module._em

        def em(H, P, Q, trainable, *args):
            P, Q, diag = real(H, P, Q, trainable, *args)
            if forced is not None and trainable.any():
                diag.degenerate = forced
            return P, Q, diag

        monkeypatch.setattr(model_module, "_em", em)
        truth = make_model(small_binning, n_control=2, n_treatment=1, seed=3)
        control = [poisson_histogram(truth, np.array([4000.0, 2000.0, 0.0]),
                                     seed=i, tumor_id=f"c{i}") for i in range(3)]
        treated = [poisson_histogram(truth, np.array([2500.0, 1500.0, 2000.0]),
                                     seed=10 + i, tumor_id=f"t{i}", cohort="treated")
                   for i in range(3)]
        opts = TrainOptions(seed=0, restarts=2, max_iter=2000)
        base = train_control(control, 2, opts)
        full = train_treatment(base.model, treated, 1, opts)
        assert base.diagnostics.degenerate is base.model.training_meta["degenerate"]
        assert (full.diagnostics.degenerate
                is full.model.training_meta["treatment_degenerate"])
        assert base.diagnostics.degenerate is bool(forced)
        assert full.diagnostics.degenerate is bool(forced)


class TestModelExpectation:
    def test_linear_in_quantities(self, small_binning):
        m = make_model(small_binning, n_control=2)
        m1 = model_expectation(m, [1000.0, 0.0])
        m2 = model_expectation(m, [0.0, 500.0])
        both = model_expectation(m, [1000.0, 500.0])
        assert np.allclose(both, m1 + m2)
        assert both.shape == (8, 2)
        assert both.sum() == pytest.approx(1500.0)

    def test_shape_checked(self, small_binning):
        m = make_model(small_binning, n_control=2)
        with pytest.raises(ValueError):
            model_expectation(m, [1.0, 2.0, 3.0])
