import csv

import pytest

from conftest import em_from_outside_the_cone
from lpm import model, validation
from lpm.cli import write_csv
from lpm.errors import InputError
from lpm.histograms import BinningConfig
from lpm.model import TrainOptions
from lpm.synth import SynthSpec, bump_pmf, generate, spread_components
from lpm.validation import leave_one_out, loo_table


def _cohorts():
    binning = BinningConfig()
    # floored bumps keep every cell populated, so each fold's trained
    # model retains full support for the held-out tumor
    ctrl = [bump_pmf(binning, 0.30, 0.32, floor=0.05,
                     phase="control", index=0)]
    trt = [bump_pmf(binning, 0.60, 0.85, floor=0.05,
                    phase="treatment", index=1)]
    spec = SynthSpec(binning=binning, control_pmfs=ctrl,
                     treatment_pmfs=trt, cohort_sizes=(4, 3),
                     counts_per_tumor=8000.0, seed=21)
    control, treated, _ = generate(spec)
    return control, treated


@pytest.fixture(scope="module")
def report():
    control, treated = _cohorts()
    opts = TrainOptions(seed=0, restarts=2, max_iter=3000)
    return leave_one_out(control, treated, 1, 1, opts), control


class TestLeaveOneOut:
    def test_every_control_scored_twice(self, report):
        entries, control = report
        assert len(entries) == len(control)
        for entry, h in zip(entries, control):
            assert entry.tumor_id == h.tumor_id
            assert entry.leave_all_in is not None
            assert not entry.failed
            assert entry.leave_one_out is not None

    def test_clean_cohort_mostly_unflagged(self, report):
        entries, _ = report
        assert sum(e.outlier for e in entries) <= 1

    def test_csv_output(self, report, tmp_path):
        entries, control = report
        path = tmp_path / "loo.csv"
        write_csv(path, {"seed": 0, "config_hash": "0"}, loo_table(entries))
        with open(path, newline="") as fh:
            assert fh.readline() == "# seed=0 config_hash=0\n"
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(control)
        for row in rows:
            float(row["z_lai"])
            float(row["z_loo"])
            assert row["outlier_flag"] in ("0", "1")

    def test_failing_fold_recorded_as_failed(self, monkeypatch):
        control, treated = _cohorts()
        real = model.train_control

        def train_control(cohort, n_control, opts):
            if cohort[0] is not control[0]:  # the fold that leaves out control[0]
                em_from_outside_the_cone()
            return real(cohort, n_control, opts)

        monkeypatch.setattr(model, "train_control", train_control)
        opts = TrainOptions(seed=0, restarts=1, max_iter=3000)
        entries = leave_one_out(control, treated, 1, 1, opts)
        assert [e.failed for e in entries] == [True, False, False, False]
        assert "objective decreased" in entries[0].error
        assert not entries[0].outlier
        assert loo_table(entries)[1][2] == "failed"

    def test_needs_three_controls(self):
        binning = BinningConfig()
        ctrl, trt = spread_components(binning, 1, 1)
        spec = SynthSpec(binning=binning, control_pmfs=ctrl,
                         treatment_pmfs=trt, cohort_sizes=(2, 2),
                         counts_per_tumor=2000.0, seed=0)
        control, treated, _ = generate(spec)
        with pytest.raises(InputError, match="at least 3 control tumors"):
            leave_one_out(control, treated, 1, 1)

    def test_needs_treated_cohort(self):
        binning = BinningConfig()
        ctrl, _ = spread_components(binning, 1, 0)
        spec = SynthSpec(binning=binning, control_pmfs=ctrl, treatment_pmfs=[],
                         cohort_sizes=(4, 0), counts_per_tumor=2000.0, seed=0)
        control, _, _ = generate(spec)
        with pytest.raises(InputError, match="treated cohort is empty"):
            leave_one_out(control, [], 1, 1)

    def test_needs_treatment_components(self):
        binning = BinningConfig()
        ctrl, trt = spread_components(binning, 1, 1)
        spec = SynthSpec(binning=binning, control_pmfs=ctrl,
                         treatment_pmfs=trt, cohort_sizes=(3, 2),
                         counts_per_tumor=2000.0, seed=0)
        control, treated, _ = generate(spec)
        with pytest.raises(InputError, match="n_treatment"):
            leave_one_out(control, treated, 1, 0)

    def test_jobs_below_one_rejected_before_training(self, monkeypatch):
        real = validation.train_model
        calls = []

        def train_model(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(validation, "train_model", train_model)
        control, treated = _cohorts()
        with pytest.raises(InputError, match="jobs must be >= 1"):
            leave_one_out(control, treated, 1, 1, jobs=0)
        assert calls == []
