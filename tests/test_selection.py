import csv

import numpy as np
import pytest

from conftest import make_model, poisson_histogram
from lpm import selection
from lpm.cli import write_csv
from lpm.errors import OverParameterisedError, SelectionFailedError
from lpm.model import TrainOptions, fit_quantities
from lpm.selection import (SQRT_VARIANCE, SelectionPoint, chi2_per_dof,
                           chi2_statistic, choose_component_count,
                           select_components, selection_table)


class TestChi2Statistic:
    def test_zero_on_exact_match(self):
        counts = np.array([4.0, 9.0, 16.0])
        gof = chi2_statistic(counts, counts)
        assert gof.raw_chi2 == 0.0
        assert gof.dof == 3

    def test_hand_computed_value(self):
        # (sqrt(4) - sqrt(1))^2 / 0.25 = 4
        gof = chi2_statistic([4.0], [1.0])
        assert gof.raw_chi2 == pytest.approx(4.0)
        assert SQRT_VARIANCE == 0.25

    def test_empty_cells_not_counted(self):
        gof = chi2_statistic([4.0, 0.0], [4.0, 0.0])
        assert gof.dof == 1

    def test_free_params_reduce_dof(self):
        gof = chi2_statistic([4.0, 9.0, 16.0], [4.0, 9.0, 16.0],
                             n_free_params=2)
        assert gof.dof == 1

    def test_over_parameterised(self):
        with pytest.raises(OverParameterisedError):
            chi2_statistic([4.0], [4.0], n_free_params=1)


class TestChi2PerDof:
    def test_near_unity_for_true_model(self, small_binning):
        model = make_model(small_binning, n_control=2, seed=4)
        q_true = np.array([5000.0, 3000.0])
        cohort = [poisson_histogram(model, q_true, seed=i, tumor_id=f"c{i}")
                  for i in range(6)]
        quantities = {h.tumor_id: fit_quantities(model, h)[0] for h in cohort}
        gof = chi2_per_dof(cohort, model, quantities)
        assert 0.5 < gof.chi2_per_dof < 1.6

    def test_quantities_counted_as_free_params(self, small_binning):
        model = make_model(small_binning, n_control=2, seed=4)
        cohort = [poisson_histogram(model, np.array([5000.0, 3000.0]),
                                    seed=0, tumor_id="c0")]
        quantities = {"c0": fit_quantities(model, cohort[0])[0]}
        gof = chi2_per_dof(cohort, model, quantities)
        H = cohort[0].counts.reshape(-1)
        informative = int(((H + model.P @ quantities["c0"]) > 0).sum())
        assert gof.dof == informative - 2

    def test_trainable_pmf_params_within_support_union(self, small_binning):
        model = make_model(small_binning, n_control=1, seed=4)
        cohort = [poisson_histogram(model, np.array([5000.0]),
                                    seed=i, tumor_id=f"c{i}")
                  for i in range(3)]
        quantities = {h.tumor_id: fit_quantities(model, h)[0] for h in cohort}
        base = chi2_per_dof(cohort, model, quantities)
        trained = chi2_per_dof(cohort, model, quantities,
                               n_trainable_components=1)
        # one trainable PMF costs (union of active cells - 1) further dof
        union = np.zeros(small_binning.n_cells, dtype=bool)
        for h in cohort:
            H = h.counts.reshape(-1)
            M = model.P @ quantities[h.tumor_id]
            union |= (H + M) > 0
        assert base.dof - trained.dof == int(union.sum()) - 1


class TestChooseComponentCount:
    def _points(self, chis, degenerate=None, converged=None):
        degenerate = degenerate or [False] * len(chis)
        converged = converged or [True] * len(chis)
        return [SelectionPoint(n_components=k + 1, chi2_per_dof=c,
                               degenerate=d, converged=v)
                for k, (c, d, v) in enumerate(zip(chis, degenerate, converged))]

    def test_stops_when_improvement_small(self):
        points = self._points([50.0, 1.05, 1.02, 0.98])
        assert choose_component_count(points) == 2

    def test_continues_through_large_improvements(self):
        points = self._points([50.0, 20.0, 1.0, 0.99])
        assert choose_component_count(points) == 3

    def test_last_wins_when_curve_keeps_falling(self):
        points = self._points([50.0, 20.0, 5.0, 1.0])
        assert choose_component_count(points) == 4

    def test_degenerate_points_skipped(self):
        points = self._points([50.0, 1.05, float("nan"), 1.02],
                              degenerate=[False, False, True, False])
        assert choose_component_count(points) == 2

    def test_all_degenerate_raises(self):
        points = self._points([1.0, 1.0], degenerate=[True, True])
        with pytest.raises(SelectionFailedError):
            choose_component_count(points)

    def test_unconverged_points_skipped(self):
        points = self._points([50.0, 20.0, 1.0, 0.99],
                              converged=[True, True, False, True])
        assert choose_component_count(points) == 4
        with pytest.raises(SelectionFailedError):
            choose_component_count(self._points([1.0], converged=[False]))


def _easy_cohort():
    from lpm.histograms import BinningConfig
    from lpm.synth import SynthSpec, bump_pmf, generate

    binning = BinningConfig()
    pmfs = [bump_pmf(binning, 0.2, 0.22, width=0.05, floor=0.06,
                     phase="control", index=0),
            bump_pmf(binning, 0.6, 0.62, width=0.05, floor=0.06,
                     phase="control", index=1)]
    spec = SynthSpec(binning=binning, control_pmfs=pmfs, treatment_pmfs=[],
                     cohort_sizes=(6, 0), counts_per_tumor=20000.0,
                     quantity_dirichlet_alpha=np.full(2, 1.2), seed=11)
    cohort, _, _ = generate(spec)
    return cohort


@pytest.fixture(scope="module")
def easy_sweep():
    opts = TrainOptions(seed=11, restarts=2, max_iter=5000)
    return select_components(_easy_cohort(), "control", None, 1, 3, opts)


class TestSelectComponents:
    def test_recovers_true_count(self, easy_sweep):
        curve, best = easy_sweep
        assert curve.chosen == 2
        assert best.model.n_control == 2

    def test_curve_is_complete_and_ordered(self, easy_sweep):
        curve, _ = easy_sweep
        assert [p.n_components for p in curve.points] == [1, 2, 3]
        assert curve.points[0].chi2_per_dof > curve.points[1].chi2_per_dof

    def test_csv_output(self, easy_sweep, tmp_path):
        curve, _ = easy_sweep
        path = tmp_path / "selection.csv"
        write_csv(path, {"seed": 0, "config_hash": "0"}, selection_table(curve))
        with open(path, newline="") as fh:
            assert fh.readline() == "# seed=0 config_hash=0\n"
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        chosen = [r for r in rows if r["chosen"] == "1"]
        assert len(chosen) == 1
        assert chosen[0]["n_components"] == "2"
        assert [r["converged"] for r in rows] == ["1", "1", "1"]

    def test_candidate_capped_by_max_iter_flagged_not_chosen(self):
        # 20 maps converge K = 1 but stop K = 2 and 3 short; unflagged, the
        # capped K = 2 would win on chi2/dof as it does in easy_sweep
        opts = TrainOptions(seed=11, restarts=2, max_iter=20)
        curve, best = select_components(_easy_cohort(), "control", None, 1, 3, opts)
        assert [p.converged for p in curve.points] == [True, False, False]
        assert curve.chosen == 1 and best.model.n_control == 1
        rows = selection_table(curve)
        assert rows[0][-1] == "converged"
        assert [r[-1] for r in rows[1:]] == [1, 0, 0]

    def test_degenerate_fit_flagged_and_not_chosen(self, monkeypatch):
        # K = 2 wins in easy_sweep; its fit's degenerate flag alone must
        # mark it in the table and keep it from being chosen
        real = selection.train_control

        def train_control(cohort, k, opts):
            result = real(cohort, k, opts)
            result.diagnostics.degenerate = k == 2
            return result

        monkeypatch.setattr(selection, "train_control", train_control)
        opts = TrainOptions(seed=11, restarts=2, max_iter=5000)
        curve, best = select_components(_easy_cohort(), "control", None, 1, 3, opts)
        rows = selection_table(curve)
        assert rows[0][3] == "degenerate"
        assert [r[3] for r in rows[1:]] == [0, 1, 0]
        assert curve.chosen != 2 and best.model.n_control == curve.chosen

    def test_bad_sweep_bounds(self):
        with pytest.raises(ValueError):
            select_components([], "control", None, 3, 2)
        with pytest.raises(ValueError):
            select_components([], "control", None, 0, 3)
        with pytest.raises(ValueError):
            select_components([], "banana", None, 1, 3)
