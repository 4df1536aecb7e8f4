import numpy as np
import pytest

from lpm.errors import InputError
from lpm.histograms import bin_voxels, load_voxel_csv, write_voxel_csv
from lpm.synth import (SynthSpec, bump_pmf, default_scenarios, generate,
                       histogram_to_voxels, spread_components)


class TestBumpPmf:
    def test_normalised(self, binning):
        p = bump_pmf(binning, 0.3, 0.5)
        assert p.probs.sum() == pytest.approx(1.0)
        assert p.probs.shape == (32, 2)

    def test_centers_land_where_asked(self, binning):
        p = bump_pmf(binning, 0.25, 0.75, width=0.03)
        assert np.argmax(p.probs[:, 0]) == pytest.approx(8, abs=1)
        assert np.argmax(p.probs[:, 1]) == pytest.approx(24, abs=1)

    def test_floor_bounds_every_cell(self, binning):
        p = bump_pmf(binning, 0.2, 0.2, width=0.02, floor=0.06)
        assert p.probs.min() >= 0.06 / 64 * 0.99


class TestSynthSpec:
    def test_alpha_length_checked(self, binning):
        ctrl, trt = spread_components(binning, 2, 1)
        with pytest.raises(ValueError):
            SynthSpec(binning=binning, control_pmfs=ctrl, treatment_pmfs=trt,
                      cohort_sizes=(2, 2),
                      quantity_dirichlet_alpha=np.ones(2))

    def test_positive_counts_required(self, binning):
        ctrl, _ = spread_components(binning, 2, 0)
        with pytest.raises(ValueError):
            SynthSpec(binning=binning, control_pmfs=ctrl, treatment_pmfs=[],
                      cohort_sizes=(2, 0), counts_per_tumor=0.0)

    def test_nan_counts_rejected(self, binning):
        ctrl, _ = spread_components(binning, 2, 0)
        with pytest.raises(ValueError, match="counts_per_tumor must be > 0"):
            SynthSpec(binning=binning, control_pmfs=ctrl, treatment_pmfs=[],
                      cohort_sizes=(2, 0), counts_per_tumor=np.nan)

    @pytest.mark.parametrize("alpha", [0.0, np.nan])
    def test_positive_alphas_required(self, binning, alpha):
        ctrl, trt = spread_components(binning, 2, 1)
        with pytest.raises(ValueError, match="Dirichlet alphas must be positive"):
            SynthSpec(binning=binning, control_pmfs=ctrl, treatment_pmfs=trt,
                      cohort_sizes=(2, 2),
                      quantity_dirichlet_alpha=np.array([1.0, alpha, 1.0]))

    def test_needs_control_pmfs(self, binning):
        with pytest.raises(ValueError):
            SynthSpec(binning=binning, control_pmfs=[], treatment_pmfs=[],
                      cohort_sizes=(2, 0))


class TestGenerate:
    def _spec(self, binning, seed=0):
        ctrl, trt = spread_components(binning, 2, 1)
        return SynthSpec(binning=binning, control_pmfs=ctrl,
                         treatment_pmfs=trt, cohort_sizes=(3, 4),
                         counts_per_tumor=5000.0, seed=seed)

    def test_cohort_sizes_and_ids(self, binning):
        control, treated, truth = generate(self._spec(binning))
        assert [h.tumor_id for h in control] == ["ctl01", "ctl02", "ctl03"]
        assert [h.tumor_id for h in treated] == ["trt01", "trt02", "trt03",
                                                "trt04"]
        assert all(h.cohort == "control" for h in control)
        assert all(h.cohort == "treated" for h in treated)

    def test_control_tumors_have_no_treatment_mass(self, binning):
        control, _, truth = generate(self._spec(binning))
        for h in control:
            assert truth.quantities[h.tumor_id][2] == 0.0

    def test_effect_fractions_match_quantities(self, binning):
        _, treated, truth = generate(self._spec(binning))
        for h in treated:
            q = truth.quantities[h.tumor_id]
            assert truth.effect_fractions[h.tumor_id] == pytest.approx(
                q[2:].sum() / q.sum())
            assert 0.0 <= truth.effect_fractions[h.tumor_id] <= 1.0

    def test_total_counts_near_expectation(self, binning):
        control, treated, _ = generate(self._spec(binning))
        for h in control + treated:
            assert h.total == pytest.approx(5000.0, rel=0.1)

    def test_deterministic_given_seed(self, binning):
        a_control, a_treated, _ = generate(self._spec(binning, seed=5))
        b_control, b_treated, _ = generate(self._spec(binning, seed=5))
        for ha, hb in zip(a_control + a_treated, b_control + b_treated):
            assert np.array_equal(ha.counts, hb.counts)

    def test_different_seed_differs(self, binning):
        a, _, _ = generate(self._spec(binning, seed=1))
        b, _, _ = generate(self._spec(binning, seed=2))
        assert any(not np.array_equal(ha.counts, hb.counts)
                   for ha, hb in zip(a, b))


class TestDefaultScenarios:
    def test_presets(self):
        scenarios = default_scenarios()
        assert set(scenarios) == {"lovo_like", "hct_like"}
        lovo = scenarios["lovo_like"]
        assert len(lovo.control_pmfs) == 3
        assert len(lovo.treatment_pmfs) == 2
        assert lovo.cohort_sizes == (8, 10)
        hct = scenarios["hct_like"]
        assert len(hct.control_pmfs) == 4
        assert len(hct.treatment_pmfs) == 5
        assert hct.cohort_sizes == (13, 15)


class TestHistogramToVoxels:
    def test_roundtrip_through_binning(self, tmp_path, binning):
        control, treated, _ = generate(
            SynthSpec(binning=binning,
                      control_pmfs=spread_components(binning, 2, 0)[0],
                      treatment_pmfs=[], cohort_sizes=(1, 0),
                      counts_per_tumor=2000.0, seed=3))
        h = control[0]
        rows = histogram_to_voxels(h)
        assert len(rows) == h.total
        write_voxel_csv(tmp_path / "voxels.csv", rows)
        table = load_voxel_csv(tmp_path / "voxels.csv").records
        rebuilt = bin_voxels(table, binning)[h.tumor_id]
        assert np.array_equal(rebuilt.counts, h.counts)

    def test_empty_histogram_rejected(self, binning):
        from lpm.histograms import Histogram2D

        h = Histogram2D(tumor_id="t", cohort="control",
                        counts=np.zeros((32, 2)), binning=binning)
        with pytest.raises(InputError, match="empty histogram"):
            histogram_to_voxels(h)
