import math

import numpy as np
import pytest
import scipy.special

from conftest import make_model, poisson_histogram
from lpm.errors import AnalysisError, InputError
from lpm.inference import (GoodnessOfFit, chi2_statistic, combine_cohort, erf, erfc,
                           fit_and_score, ndtr, quantity_covariance, response_result,
                           two_tailed_p)
from lpm.histograms import BinningConfig, Histogram2D
from lpm.model import LpmModel, fit_quantities, model_expectation

UNIT_CHI2 = GoodnessOfFit(raw_chi2=1.0, dof=1, chi2_per_dof=1.0)


class TestTwoTailedP:
    def test_known_values(self):
        assert two_tailed_p(0.0) == pytest.approx(1.0)
        assert two_tailed_p(1.959964) == pytest.approx(0.05, abs=1e-6)
        assert two_tailed_p(-1.959964) == pytest.approx(0.05, abs=1e-6)

    def test_capped_at_one(self):
        assert two_tailed_p(0.0) <= 1.0


def _ndtr_inputs():
    """10^5 seeded draws, then every branch edge of ndtr, erf and erfc with
    its floating-point neighbours, signed zeros, subnormals, inf and nan."""
    rng = np.random.default_rng(20)
    draws = np.concatenate([rng.normal(size=40_000),
                            rng.uniform(-40.0, 40.0, size=30_000),
                            rng.standard_cauchy(size=30_000)]).tolist()
    # |a| = 1 and sqrt(2): |x| = 1/sqrt(2) and 1 (ndtr, erf and erfc switch);
    # 8 sqrt(2): x = 8 (erfc's second fit); sqrt(MAXLOG) sqrt(2): exp underflow
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
             math.sqrt(7.09782712893383996843E2) * math.sqrt(2.0), 37.7]
    near = []
    for e in edges + [x / math.sqrt(2.0) for x in edges]:
        for v in (e, -e):
            near += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    return draws + near + [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]


class TestNdtr:
    @pytest.mark.parametrize("ours, ref", [(ndtr, scipy.special.ndtr),
                                           (erf, scipy.special.erf),
                                           (erfc, scipy.special.erfc)],
                             ids=["ndtr", "erf", "erfc"])
    def test_bitwise_equal_to_scipy(self, ours, ref):
        xs = _ndtr_inputs()
        expected = ref(np.array(xs)).tolist()
        mismatched = [(x, ours(x), e) for x, e in zip(xs, expected)
                      if repr(ours(x)) != repr(e)]
        assert not mismatched, mismatched[:5]


class TestQuantityCovariance:
    @pytest.fixture
    def fitted(self, small_binning):
        model = make_model(small_binning, n_control=2, seed=8)
        h = poisson_histogram(model, np.array([4000.0, 6000.0]), seed=3)
        q, _ = fit_quantities(model, h)
        return model, h, q

    def test_symmetric_psd(self, fitted):
        model, h, q = fitted
        cov = quantity_covariance(model, h, q, UNIT_CHI2)
        C = cov.matrix
        assert np.allclose(C, C.T)
        eig = np.linalg.eigvalsh(C)
        assert eig.min() >= -1e-8 * max(eig.max(), 1.0)

    def test_chi2_scaling_is_linear(self, fitted):
        model, h, q = fitted
        chi2 = GoodnessOfFit(raw_chi2=6.0, dof=3, chi2_per_dof=2.0)
        unscaled = quantity_covariance(model, h, q, UNIT_CHI2)
        scaled = quantity_covariance(model, h, q, chi2)
        assert np.allclose(scaled.matrix, 2.0 * unscaled.matrix)

    def test_constrained_component_zeroed(self, small_binning):
        model = make_model(small_binning, n_control=2, seed=8)
        h = poisson_histogram(model, np.array([8000.0, 0.0]), seed=4)
        q = np.array([8000.0, 0.0])
        cov = quantity_covariance(model, h, q, UNIT_CHI2)
        assert cov.constrained.tolist() == [False, True]
        assert np.all(cov.matrix[1, :] == 0)
        assert np.all(cov.matrix[:, 1] == 0)
        assert cov.matrix[0, 0] > 0

    def test_rank_deficient_kernel_stays_psd(self):
        # one populated cell, two active components: A has rank 1, and its
        # plain inverse came out indefinite (eigenvalues -9e14 and 6e16)
        binning = BinningConfig(n_adc_bins=2)
        P = np.array([[0.39494071, 0.15248471], [0.59223638, 0.45161118],
                      [0.01150477, 0.18663111], [0.00131815, 0.20927301]])
        model = LpmModel(P=P / P.sum(axis=0), n_control=1, binning=binning)
        h = Histogram2D(tumor_id="t", cohort="treated",
                        counts=np.array([[0, 7], [0, 0]]), binning=binning)
        cov = quantity_covariance(model, h, np.array([9.35, 5.44]),
                                  GoodnessOfFit(raw_chi2=0.0, dof=1, chi2_per_dof=0.5))
        assert np.linalg.eigvalsh(cov.matrix).min() >= -1e-9 * np.abs(cov.matrix).max()

    def test_variance_scale_matches_poisson_for_one_component(self, small_binning):
        # with a single component q ~ total counts, so var(q) ~ q
        model = make_model(small_binning, n_control=1, seed=2)
        h = poisson_histogram(model, np.array([9000.0]), seed=5)
        q, _ = fit_quantities(model, h)
        cov = quantity_covariance(model, h, q, UNIT_CHI2)
        assert cov.matrix[0, 0] == pytest.approx(q[0], rel=0.05)


class TestResponseResult:
    def test_z_is_quantity_over_sigma(self, small_binning):
        model = make_model(small_binning, n_control=2, n_treatment=1, seed=6)
        h = poisson_histogram(model, np.array([3000.0, 2000.0, 5000.0]),
                              seed=7, cohort="treated")
        q, _ = fit_quantities(model, h)
        M = model_expectation(model, q)
        chi2 = chi2_statistic(h.counts, M, n_free_params=3)
        cov = quantity_covariance(model, h, q, chi2)
        r = response_result(model, h, q, cov)
        assert r.z == pytest.approx(r.q_treatment_total / r.sigma_treatment)
        assert r.effect_fraction == pytest.approx(q[2] / q.sum())
        assert 0 < r.p_two_tailed < 1e-6  # half the mass is treatment

    def test_zero_treatment_gives_zero_z(self, small_binning):
        model = make_model(small_binning, n_control=2, n_treatment=1, seed=6)
        h = poisson_histogram(model, np.array([5000.0, 5000.0, 0.0]), seed=8)
        q = np.array([5000.0, 5000.0, 0.0])
        chi2 = chi2_statistic(h.counts, model_expectation(model, q),
                              n_free_params=3)
        cov = quantity_covariance(model, h, q, chi2)
        r = response_result(model, h, q, cov)
        assert r.z == 0.0
        assert r.p_two_tailed == 1.0

    def test_requires_treatment_component(self, small_binning):
        model = make_model(small_binning, n_control=2, seed=6)
        h = poisson_histogram(model, np.array([5000.0, 5000.0]), seed=8)
        q, _ = fit_quantities(model, h)
        cov = quantity_covariance(model, h, q, UNIT_CHI2)
        with pytest.raises(ValueError):
            response_result(model, h, q, cov)

    def test_control_only_model_is_parameter_error(self, small_binning):
        model = make_model(small_binning, n_control=2, seed=6)
        h = poisson_histogram(model, np.array([5000.0, 5000.0]), seed=8)
        with pytest.raises(InputError, match="no treatment components"):
            fit_and_score(model, h)

    def test_exact_fit_of_nonzero_treatment_is_analysis_error(self):
        # two uniform 2-cell columns fit [3, 3, 5, 5] exactly: chi2 = 0
        # scales the covariance to zero under a nonzero treatment quantity
        binning = BinningConfig(n_adc_bins=2)
        model = LpmModel(P=[[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, 0.5]],
                         n_control=1, binning=binning)
        h = Histogram2D(tumor_id="t1", cohort="treated", counts=[[3, 3], [5, 5]],
                        binning=binning)
        with pytest.raises(AnalysisError, match="tumor t1: nonzero treatment "
                           "quantity with zero error"):
            fit_and_score(model, h)

    def test_treatment_pinned_in_sum_but_not_per_component_scores_zero(self, small_binning):
        # each treatment quantity is below _ACTIVE_FRACTION of the total,
        # their sum is above it: the covariance pins both, so z = 0
        model = make_model(small_binning, n_control=1, n_treatment=2, seed=6)
        q = np.array([1e6, 0.006, 0.006])
        h = poisson_histogram(model, q, seed=8, cohort="treated")
        chi2 = chi2_statistic(h.counts, model_expectation(model, q), n_free_params=3)
        cov = quantity_covariance(model, h, q, chi2)
        assert cov.constrained.tolist() == [False, True, True]
        r = response_result(model, h, q, cov)
        assert r.q_treatment_total == pytest.approx(0.012)
        assert (r.sigma_treatment, r.z, r.p_two_tailed) == (0.0, 0.0, 1.0)


class TestCombineCohort:
    def test_stouffer_formula(self):
        s = combine_cohort([1.0, 1.0, 1.0, 1.0])
        assert s.combined_z == pytest.approx(2.0)

    def test_single_value_passthrough(self):
        assert combine_cohort([3.0]).combined_z == pytest.approx(3.0)

    def test_empty_raises(self):
        with pytest.raises(InputError, match="no results to combine"):
            combine_cohort([])


class TestFitAndScore:
    def test_treated_scores_high_control_scores_low(self, small_binning):
        model = make_model(small_binning, n_control=2, n_treatment=1, seed=12)
        treated = poisson_histogram(model, np.array([2000.0, 2000.0, 4000.0]),
                                    seed=1, cohort="treated", tumor_id="trt")
        control = poisson_histogram(model, np.array([4000.0, 4000.0, 0.0]),
                                    seed=2, tumor_id="ctl")
        r_trt = fit_and_score(model, treated)
        r_ctl = fit_and_score(model, control)
        assert r_trt.z > 5.0
        assert abs(r_ctl.z) < 3.0
        assert r_trt.effect_fraction > 0.3
        assert r_ctl.effect_fraction < 0.1
