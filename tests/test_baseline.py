import csv
import math

import numpy as np
import pytest
from scipy import stats

from lpm.baseline import (cohort_baseline, combine_tests, summarise,
                          baseline_table, summary_change, t_test_p_and_z,
                          welch_t_test)
from lpm.cli import write_csv
from lpm.errors import InputError
from lpm.histograms import Histogram2D
from lpm.inference import two_tailed_p


def make_hist(binning, baseline_col, followup_col, tumor_id="t1",
              cohort="control"):
    counts = np.column_stack([baseline_col, followup_col])
    return Histogram2D(tumor_id=tumor_id, cohort=cohort, counts=counts,
                      binning=binning)


class TestSummarise:
    def test_volume_and_mean(self, small_binning):
        col0 = np.zeros(8, dtype=int)
        col0[2] = 10
        col1 = np.zeros(8, dtype=int)
        col1[2] = 5
        col1[4] = 5
        h = make_hist(small_binning, col0, col1)
        s = summarise(h)
        c = small_binning.centers
        assert tuple(s[0]) == (10.0, 10.0)
        assert s[1, 0] == pytest.approx(c[2])
        assert s[1, 1] == pytest.approx((c[2] + c[4]) / 2)

    def test_single_bin_has_zero_iqr(self, small_binning):
        col = np.zeros(8, dtype=int)
        col[3] = 7
        h = make_hist(small_binning, col, col)
        s = summarise(h)
        assert tuple(s[2]) == (0.0, 0.0)

    def test_wider_spread_wider_iqr(self, small_binning):
        narrow = np.zeros(8, dtype=int)
        narrow[3] = 20
        narrow[4] = 20
        wide = np.full(8, 5)
        h = make_hist(small_binning, narrow, wide)
        s = summarise(h)
        assert s[2, 1] > s[2, 0]

    def test_empty_timepoint_undefined(self, small_binning):
        col = np.zeros(8, dtype=int)
        col[3] = 7
        h = make_hist(small_binning, col, np.zeros(8, dtype=int))
        with pytest.raises(InputError, match="no counts at timepoint"):
            summarise(h)


class TestSummaryChange:
    def test_signs(self, small_binning):
        col0 = np.zeros(8, dtype=int)
        col0[2] = 10
        col1 = np.zeros(8, dtype=int)
        col1[5] = 8
        h = make_hist(small_binning, col0, col1, cohort="treated")
        d_volume, d_mean_adc, _ = summary_change(h)
        assert d_volume == -2.0
        assert d_mean_adc > 0


class TestWelchTTest:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, size=12)
        b = rng.normal(1.0, 2.0, size=9)
        ours = welch_t_test(a, b)
        ref = stats.ttest_ind(b, a, equal_var=False)
        assert ours.statistic == pytest.approx(ref.statistic)
        assert ours.p_two_tailed == pytest.approx(ref.pvalue)

    def test_p_and_z_bitwise_equal_to_scipy_stats(self):
        """scipy.special stands in for scipy.stats without changing a bit."""
        magnitudes = [0.0, 5e-324, 1e-300, 1e-12, 0.3, 1.959964, 6.5, 8.3,
                      37.0, 38.6, 1e3, 1e10, float("inf")]
        values = magnitudes + [-m for m in magnitudes]
        for z in values:
            expected = float(min(1.0, 2.0 * stats.norm.sf(abs(z))))
            assert repr(two_tailed_p(z)) == repr(expected), z
        for dof in [0.5, 1.0, 1.5, 2.7, 7.25, 16.0, 30.5, 1e3, 1e8]:
            for t in values:
                p = float(min(1.0, 2.0 * stats.t.sf(abs(t), dof)))
                z = float(math.copysign(stats.norm.isf(p / 2.0), t)) if p < 1.0 else 0.0
                assert repr(t_test_p_and_z(t, dof)) == repr((p, z)), (t, dof)

    def test_z_equivalent_sign_and_scale(self):
        r = welch_t_test([0.0, 0.1, -0.1, 0.05], [2.0, 2.1, 1.9, 2.05])
        assert r.statistic > 0 and r.z_equivalent > 0
        down = welch_t_test([2.0, 2.1, 1.9, 2.05], [0.0, 0.1, -0.1, 0.05])
        assert down.z_equivalent == pytest.approx(-r.z_equivalent)

    def test_degenerate_variance(self):
        with pytest.raises(InputError, match="both samples have zero variance"):
            welch_t_test([1.0, 1.0], [2.0, 2.0])

    def test_needs_two_per_sample(self):
        with pytest.raises(InputError, match="at least 2 values"):
            welch_t_test([1.0], [2.0, 3.0])


class TestCombineTests:
    def test_root_sum_square(self):
        assert combine_tests([3.0, 4.0]) == pytest.approx(5.0)

    def test_empty(self):
        with pytest.raises(InputError, match="no test results to combine"):
            combine_tests([])


class TestCohortBaseline:
    def _cohort(self, small_binning):
        rng = np.random.default_rng(1)
        control, treated = [], []
        for i in range(5):  # controls: stable distribution
            col = rng.poisson(200, size=8) + 1
            control.append(make_hist(small_binning, col, col + rng.poisson(5, 8),
                                     tumor_id=f"c{i}", cohort="control"))
        for i in range(5):  # treated: mass moves three bins up at follow-up
            col = rng.poisson(200, size=8) + 1
            shifted = np.zeros_like(col)
            shifted[3:] = col[:5]
            treated.append(make_hist(small_binning, col, shifted,
                                     tumor_id=f"t{i}", cohort="treated"))
        return control, treated

    def test_detects_mean_shift(self, small_binning):
        tests, combined = cohort_baseline(*self._cohort(small_binning))
        assert set(tests) == {"volume_change", "mean_adc_change", "iqr_change"}
        assert tests["mean_adc_change"].z_equivalent > 2.0
        assert combined >= abs(tests["mean_adc_change"].z_equivalent)

    def test_requires_both_cohorts(self, small_binning):
        col = np.full(8, 10)
        only_control = [make_hist(small_binning, col, col)]
        with pytest.raises(InputError, match="need both control and treated"):
            cohort_baseline(only_control, [])

    def test_csv_output(self, small_binning, tmp_path):
        tests, combined = cohort_baseline(*self._cohort(small_binning))
        path = tmp_path / "baseline.csv"
        write_csv(path, {"seed": 0, "config_hash": "0"}, baseline_table(tests, combined))
        with open(path, newline="") as fh:
            assert fh.readline() == "# seed=0 config_hash=0\n"
            rows = list(csv.DictReader(fh))
        assert rows[-1]["measure"] == "combined"
        assert float(rows[-1]["z_equivalent"]) == pytest.approx(combined)
