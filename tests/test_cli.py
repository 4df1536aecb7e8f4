import ast
import contextlib
import csv
import io
import json
import operator
import os
import re
import shutil
import subprocess
import sys
import tomllib
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpm
from lpm import model as lpm_model
from lpm.cli import RESPONSE_COLUMNS, _load_cohorts, main, run_and_exit
from lpm.errors import AnalysisError
from lpm.histograms import BinningConfig, Histogram2D, write_histogram_json
from lpm.model import LpmModel, write_model_json

FAST = ["--restarts", "1", "--max-iter", "800", "--tol", "1e-8"]


def run(argv):
    return main([str(a) for a in argv])


def exit_code(argv):
    """main's return value, or the status argparse exits with."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


UNSCOREABLE_ERR = ("analysis failed: tumor trt02: 3 free parameters for 2 "
                   "informative cells\n")


def _unscoreable_cohort(tmp_path):
    """Write model.json to tmp_path and return a directory of four treated
    histograms, of which fit can score all but trt02."""
    binning = BinningConfig(n_adc_bins=8)
    P = np.zeros((16, 3))
    P[:2, 0] = 0.5  # control: ADC bin 0 at both timepoints
    P[2:10, 1] = 1 / 8
    P[8:, 2] = 1 / 8  # treatment
    write_model_json(tmp_path / "model.json",
                     LpmModel(P=P, n_control=2, binning=binning))
    hists = tmp_path / "h"
    hists.mkdir()
    rng = np.random.default_rng(0)
    for i in (1, 2, 3, 4):
        counts = rng.poisson(P @ [100.0, 400.0, 100.0 * i]).reshape(8, 2)
        if i == 2:  # counts in bin 0 only: 2 informative cells, 3 quantities
            counts = np.zeros((8, 2), dtype=int)
            counts[0] = [30, 25]
        write_histogram_json(hists / f"trt0{i}.json", Histogram2D(
            tumor_id=f"trt0{i}", cohort="treated", counts=counts,
            binning=binning))
    return hists


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> fit -> baseline -> report, shared across tests."""
    out = tmp_path_factory.mktemp("pipeline")
    assert run(["synth", "--preset", "lovo_like", "--seed", "3",
                "--out-dir", out]) == 0
    hist_dir = out / "histograms"
    assert run(["train", "--histograms", hist_dir, "--n-control", "3",
                "--n-treatment", "2", "--seed", "3", "--out-dir", out]
               + FAST) == 0
    assert run(["fit", "--model", out / "model.json", "--histograms", hist_dir,
                "--cohort", "treated", "--seed", "3", "--out-dir", out]) == 0
    assert run(["baseline", "--histograms", hist_dir, "--seed", "3",
                "--out-dir", out]) == 0
    assert run(["report", "--model", out / "model.json",
                "--response", out / "response_treated.csv",
                "--seed", "3", "--out-dir", out]) == 0
    return out


class TestPipeline:
    def test_synth_artifacts(self, pipeline):
        hists = list((pipeline / "histograms").glob("*.json"))
        assert len(hists) == 18  # 8 control + 10 treated
        truth = json.loads((pipeline / "ground_truth.json").read_text())
        assert truth["n_control_components"] == 3
        assert truth["n_treatment_components"] == 2
        assert "run" in truth

    def test_model_written(self, pipeline):
        model = json.loads((pipeline / "model.json").read_text())
        assert model["n_control"] == 3
        assert model["n_treatment"] == 2

    def test_response_csv_has_seed_comment(self, pipeline):
        text = (pipeline / "response_treated.csv").read_text()
        assert text.startswith("# seed=3 config_hash=")
        assert "combined" in text

    def test_baseline_csv(self, pipeline):
        text = (pipeline / "baseline.csv").read_text()
        assert "mean_adc_change" in text
        assert "combined" in text

    def test_report_artifacts(self, pipeline):
        assert (pipeline / "report.txt").exists()
        assert (pipeline / "effect_bars.svg").read_text().startswith("<svg")
        assert (pipeline / "components.svg").read_text().startswith("<svg")

    def test_report_lists_hash_prefixed_tumor(self, pipeline, tmp_path):
        # only the first line is the run comment; a tumor id may start with #
        response = tmp_path / "response_treated.csv"
        response.write_text((pipeline / "response_treated.csv").read_text()
                            .replace("\ntrt01,", "\n#trt01,"))
        assert run(["report", "--model", pipeline / "model.json",
                    "--response", response, "--out-dir", tmp_path]) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "Tumors scored: 10\n" in report
        assert "\n  #trt01: z=" in report

    def test_report_prints_unprintable_tumor_id_as_repr(self, pipeline, tmp_path, capsys):
        """A line break or tab in a tumor id cannot split a line of report.txt."""
        with open(pipeline / "response_treated.csv", newline="") as fh:
            comment = fh.readline()
            rows = list(csv.reader(fh))
        assert [rows[1][0], rows[2][0]] == ["trt01", "trt02"]
        rows[1][0] = "trt\n01"
        rows[2] = ["trt\t02"] + ["failed"] * (len(RESPONSE_COLUMNS) - 1)
        response = tmp_path / "response_treated.csv"
        with open(response, "w", newline="") as fh:
            fh.write(comment)
            csv.writer(fh, lineterminator="\n").writerows(rows)
        capsys.readouterr()
        assert run(["report", "--model", pipeline / "model.json",
                    "--response", response, "--out-dir", tmp_path]) == 0
        report = (tmp_path / "report.txt").read_text()
        assert capsys.readouterr().out == report
        lines = report.splitlines()
        assert lines[1:3] == ["Tumors scored: 9", "Tumors failed: 'trt\\t02'"]
        assert lines[4].startswith("  'trt\\n01': z=")
        assert len(lines) == 4 + 9

    @pytest.mark.parametrize("case", ["histogram", "model", "response"])
    def test_bom_led_input_writes_plain_run_bytes(self, pipeline, tmp_path, case):
        """An input file that starts with a UTF-8 byte-order mark is read as
        the same file without it."""
        def bom_copy(src, dst):
            dst.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
            return dst

        hists, model = pipeline / "histograms", pipeline / "model.json"
        if case == "histogram":
            hists = tmp_path / "histograms"
            shutil.copytree(pipeline / "histograms", hists)
            bom_copy(pipeline / "histograms" / "ctl01.json", hists / "ctl01.json")
            argv, outputs = ["baseline", "--histograms", hists], ["baseline.csv"]
        elif case == "model":
            argv = ["fit", "--model", bom_copy(model, tmp_path / "model.json"),
                    "--histograms", hists, "--cohort", "treated"]
            outputs = ["response_treated.csv"]
        else:
            response = bom_copy(pipeline / "response_treated.csv",
                                tmp_path / "response_treated.csv")
            argv = ["report", "--model", model, "--response", response]
            outputs = ["report.txt", "effect_bars.svg", "components.svg"]
        out = tmp_path / "out"
        assert run(argv + ["--seed", "3", "--out-dir", out]) == 0
        for name in outputs:
            assert (out / name).read_bytes() == (pipeline / name).read_bytes(), name


class TestHistogramDirectory:
    def test_model_in_histogram_dir_is_skipped(self, pipeline, tmp_path):
        hist_dir = shutil.copytree(pipeline / "histograms", tmp_path / "h")
        assert run(["train", "--histograms", hist_dir, "--n-control", "3",
                    "--n-treatment", "2", "--out-dir", hist_dir] + FAST) == 0
        assert run(["fit", "--model", hist_dir / "model.json",
                    "--histograms", hist_dir, "--out-dir", tmp_path]) == 0

    def test_histogram_missing_key_is_input_error(self, pipeline, tmp_path,
                                                  capsys):
        hist_dir = shutil.copytree(pipeline / "histograms", tmp_path / "h")
        (hist_dir / "zz.json").write_text('{"counts": [[1, 2]]}')
        assert run(["fit", "--model", pipeline / "model.json",
                    "--histograms", hist_dir, "--out-dir", tmp_path]) == 2
        assert "zz.json" in capsys.readouterr().err

    def test_duplicate_tumor_id_is_input_error(self, pipeline, tmp_path,
                                               capsys):
        hist_dir = shutil.copytree(pipeline / "histograms", tmp_path / "h")
        shutil.copy(hist_dir / "trt01.json", hist_dir / "zz_copy.json")
        assert run(["fit", "--model", pipeline / "model.json",
                    "--histograms", hist_dir, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "trt01.json" in err and "zz_copy.json" in err

    def test_unknown_cohort_is_input_error(self, pipeline, tmp_path, capsys):
        hist_dir = shutil.copytree(pipeline / "histograms", tmp_path / "h")
        d = json.loads((hist_dir / "trt01.json").read_text())
        d["cohort"] = "Treated"
        (hist_dir / "trt01.json").write_text(json.dumps(d))
        assert run(["fit", "--model", pipeline / "model.json",
                    "--histograms", hist_dir, "--out-dir", tmp_path]) == 2
        assert "trt01.json" in capsys.readouterr().err

    def test_truncated_histogram_is_input_error(self, pipeline, tmp_path,
                                                capsys):
        hist_dir = shutil.copytree(pipeline / "histograms", tmp_path / "h")
        text = (hist_dir / "trt01.json").read_text()
        (hist_dir / "trt01.json").write_text(text[:len(text) // 2])
        assert run(["baseline", "--histograms", hist_dir,
                    "--out-dir", tmp_path]) == 2
        assert "trt01.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "baseline"])
    @pytest.mark.parametrize("binning", [
        {"adc_min": "0.0", "adc_max": "0.003"}, {"n_adc_bins": 32.0},
        {"n_adc_bins": True}, {"adc_max": float("inf")}],
        ids=["string-bounds", "float-bins", "bool-bins", "infinite-bound"])
    def test_malformed_binning_is_input_error(self, pipeline, tmp_path, capsys,
                                              command, binning):
        hist_dir = shutil.copytree(pipeline / "histograms", tmp_path / "h")
        for path in hist_dir.glob("*.json"):
            d = json.loads(path.read_text())
            if "counts" in d:
                d["binning"].update(binning)
                path.write_text(json.dumps(d))
        extra = ["--n-control", "1"] + FAST if command == "train" else []
        assert run([command, "--histograms", hist_dir,
                    "--out-dir", tmp_path / "out"] + extra) == 2
        err = capsys.readouterr().err
        assert "malformed histogram" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "model.json").exists()

    def test_overflowing_baseline_summary_is_input_error(self, pipeline, tmp_path, capsys):
        """A finite adc_max so large that a t-test overflows exits 2, naming
        the measure, and writes no baseline.csv with a NaN dof in it."""
        hist_dir = shutil.copytree(pipeline / "histograms", tmp_path / "h")
        d = json.loads((hist_dir / "ctl01.json").read_text())
        d["binning"]["adc_max"] = 7.804299388787365e+155
        (hist_dir / "ctl01.json").write_text(json.dumps(d))
        assert run(["baseline", "--histograms", hist_dir,
                    "--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err == ("input error: mean_adc_change: summary change, t statistic "
                       "or dof not finite\n")
        assert not (tmp_path / "out" / "baseline.csv").exists()


class TestModelFile:
    def test_reversed_components_is_input_error(self, pipeline, tmp_path,
                                                capsys):
        model = json.loads((pipeline / "model.json").read_text())
        model["components"].reverse()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert run(["fit", "--model", path, "--histograms",
                    pipeline / "histograms", "--out-dir", tmp_path]) == 2
        assert str(path) in capsys.readouterr().err

    def test_float_bin_count_is_input_error(self, pipeline, tmp_path, capsys):
        model = json.loads((pipeline / "model.json").read_text())
        model["binning"]["n_adc_bins"] = float(model["binning"]["n_adc_bins"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert run(["fit", "--model", path, "--histograms",
                    pipeline / "histograms", "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "n_adc_bins" in err

    def test_nan_pmf_cell_is_input_error(self, pipeline, tmp_path, capsys):
        model = json.loads((pipeline / "model.json").read_text())
        model["components"][0]["probs"][0][0] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert run(["fit", "--model", path, "--histograms",
                    pipeline / "histograms", "--out-dir", tmp_path]) == 2
        assert f"{path}: malformed model" in capsys.readouterr().err
        assert not list(tmp_path.glob("response_*.csv"))

    def test_truncated_model_is_input_error(self, pipeline, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text((pipeline / "model.json").read_text()[:100])
        assert run(["fit", "--model", path, "--histograms",
                    pipeline / "histograms", "--out-dir", tmp_path]) == 2
        assert str(path) in capsys.readouterr().err


class TestIngest:
    def test_voxels_roundtrip(self, tmp_path):
        out = tmp_path / "synth"
        assert run(["synth", "--preset", "lovo_like", "--seed", "1",
                    "--out-dir", out, "--emit-voxels"]) == 0
        ingest_out = tmp_path / "ingest"
        assert run(["ingest", "--voxels", out / "voxels.csv",
                    "--out-dir", ingest_out]) == 0
        original = json.loads(
            (out / "histograms" / "ctl01.json").read_text())
        rebuilt = json.loads(
            (ingest_out / "histograms" / "ctl01.json").read_text())
        assert rebuilt["counts"] == original["counts"]
        summary = json.loads((ingest_out / "ingest_summary.json").read_text())
        assert len(summary["tumors"]) == 18
        assert summary["rejected_rows"] == []

    def test_bad_rows_survivable(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\n"
                        "t1,control,0,banana\n")
        assert run(["ingest", "--voxels", path, "--out-dir", tmp_path]) == 0
        summary = json.loads((tmp_path / "ingest_summary.json").read_text())
        assert len(summary["rejected_rows"]) == 1

    def test_warnings_survive_json_roundtrip(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\n"
                        "t2,control,0,0.001\n"
                        "t2,control,72,0.002\n")
        assert run(["ingest", "--voxels", path, "--out-dir", tmp_path]) == 0
        warning = "tumor t1: voxels at only one timepoint"
        summary = json.loads((tmp_path / "ingest_summary.json").read_text())
        assert summary["tumors"]["t1"]["warnings"] == [warning]
        assert "warnings" not in json.loads(
            (tmp_path / "histograms" / "t2.json").read_text())
        t1, t2 = _load_cohorts(tmp_path / "histograms")["control"]
        assert (t1.tumor_id, t1.warnings) == ("t1", (warning,))
        assert (t2.tumor_id, t2.warnings) == ("t2", ())

    def test_all_rows_bad_is_input_error(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,banana\n")
        assert run(["ingest", "--voxels", path, "--out-dir", tmp_path]) == 2

    def test_row_with_missing_fields_is_rejected_row(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\n"
                        "t1,control\n"
                        "t1,control,72,0.002\n")
        assert run(["ingest", "--voxels", path, "--out-dir", tmp_path]) == 0
        summary = json.loads((tmp_path / "ingest_summary.json").read_text())
        assert summary["rejected_rows"] == [
            {"line": 3, "message": "missing fields ['timepoint', 'adc']"}]
        assert summary["tumors"]["t1"]["voxels"] == 2

    @pytest.mark.parametrize("kind", ["voxels", "signals"])
    def test_tumor_in_both_cohorts_is_input_error(self, tmp_path, capsys, kind):
        path = tmp_path / f"{kind}.csv"
        if kind == "voxels":
            path.write_text("tumor_id,cohort,timepoint,adc\n"
                            "t7,control,0,0.001\n"
                            "t7,treated,72,0.002\n")
        else:
            path.write_text("tumor_id,cohort,timepoint,voxel_id,b,signal\n"
                            "t7,control,0,v1,0,1000\n"
                            "t7,control,0,v1,500,600\n"
                            "t7,treated,72,v2,0,1000\n"
                            "t7,treated,72,v2,500,600\n")
        assert run(["ingest", f"--{kind}", path, "--out-dir", tmp_path]) == 2
        assert "'t7'" in capsys.readouterr().err

    def test_field_beyond_csv_limit_is_input_error(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\n"
                        f"t{'1' * limit},control,0,0.001\n")
        assert run(["ingest", "--voxels", path, "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (f"input error: {path}: line 3: field "
                                           f"larger than field limit ({limit})\n")
        assert not (tmp_path / "out" / "histograms").exists()


class TestValidate:
    def test_outlier_is_named_and_flagged(self, tmp_path, capsys):
        """A control that carries a treated tumor's counts is the one outlier."""
        out = tmp_path / "synth"
        assert run(["synth", "--preset", "lovo_like", "--seed", "1",
                    "--out-dir", out]) == 0
        hists = out / "histograms"
        planted = json.loads((hists / "ctl08.json").read_text())
        planted["counts"] = json.loads((hists / "trt05.json").read_text())["counts"]
        (hists / "ctl08.json").write_text(json.dumps(planted))
        capsys.readouterr()
        assert run(["validate", "--histograms", hists, "--n-control", "3",
                    "--n-treatment", "2", "--restarts", "1", "--seed", "3",
                    "--out-dir", tmp_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "8 folds, 1 outlier flags"
        assert re.fullmatch(r"  outlier ctl08: leave-one-out z=\d+\.\d\d >= 2\.0 "
                            r"and exceeds leave-all-in z=\d+\.\d\d", lines[1]), lines
        assert len(lines) == 2
        with open(tmp_path / "loo_report.csv", newline="") as fh:
            fh.readline()
            flags = {r["tumor_id"]: r["outlier_flag"] for r in csv.DictReader(fh)}
        assert [t for t, flag in flags.items() if flag == "1"] == ["ctl08"]


class TestStaleHistograms:
    """ingest and synth refuse an --out-dir whose histograms/ holds a histogram
    they would not overwrite, as every later subcommand would read it."""

    def _voxels(self, tmp_path, tumors):
        path = tmp_path / f"{len(tumors)}.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n" + "".join(
            f"{t},control,0,0.001\n{t},control,72,0.002\n" for t in tumors))
        return path

    def test_ingest_refuses_stale_histogram(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["ingest", "--voxels", self._voxels(tmp_path, ["t1", "t2"]),
                    "--out-dir", out]) == 0
        summary = (out / "ingest_summary.json").read_bytes()
        capsys.readouterr()
        assert run(["ingest", "--voxels", self._voxels(tmp_path, ["t1"]),
                    "--out-dir", out]) == 2
        assert capsys.readouterr().err.startswith(
            f"input error: {out / 'histograms' / 't2.json'} holds a histogram "
            f"this run would not overwrite")
        assert (out / "ingest_summary.json").read_bytes() == summary

    def test_ingest_rerun_over_same_tumors_overwrites(self, tmp_path):
        out = tmp_path / "run"
        path = self._voxels(tmp_path, ["t1", "t2"])
        assert run(["ingest", "--voxels", path, "--out-dir", out]) == 0
        (out / "histograms" / "notes.json").write_text('{"comment": "kept"}\n')
        first = (out / "histograms" / "t2.json").read_bytes()
        assert run(["ingest", "--voxels", path, "--out-dir", out, "--bins", "16"]) == 0
        assert (out / "histograms" / "t2.json").read_bytes() != first
        assert sorted(p.name for p in (out / "histograms").iterdir()) == [
            "notes.json", "t1.json", "t2.json"]

    def test_synth_refuses_stale_histogram(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["synth", "--preset", "hct_like", "--out-dir", out]) == 0
        truth = (out / "ground_truth.json").read_bytes()
        assert run(["synth", "--preset", "hct_like", "--out-dir", out]) == 0
        capsys.readouterr()
        assert run(["synth", "--preset", "lovo_like", "--emit-voxels",
                    "--out-dir", out]) == 2
        assert capsys.readouterr().err.startswith(
            f"input error: {out / 'histograms' / 'ctl09.json'} holds a histogram "
            f"this run would not overwrite")
        assert (out / "ground_truth.json").read_bytes() == truth
        assert not (out / "voxels.csv").exists()


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path):
        assert run(["ingest", "--voxels", tmp_path / "nope.csv",
                    "--out-dir", tmp_path]) == 2

    def test_malformed_header_is_input_error(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("a,b\n1,2\n")
        assert run(["ingest", "--voxels", path, "--out-dir", tmp_path]) == 2

    @pytest.mark.parametrize("tumor_id", ["../escaped", "", "a/b", "t\0"])
    def test_unsafe_tumor_id_is_input_error_and_writes_nothing(self, tmp_path, tumor_id,
                                                              capsys):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\n"
                        f"{tumor_id},control,0,0.001\n")
        out = tmp_path / "out" / "run"
        out.mkdir(parents=True)
        assert run(["ingest", "--voxels", path, "--out-dir", out]) == 2
        assert "cannot name a histogram file" in capsys.readouterr().err
        assert list((tmp_path / "out").rglob("*")) == [out]

    def test_unknown_preset_is_input_error(self, tmp_path):
        assert run(["synth", "--preset", "nope", "--out-dir", tmp_path]) == 2

    def test_validate_without_treatment_is_input_error(self, pipeline, tmp_path):
        assert run(["validate", "--histograms", pipeline / "histograms",
                    "--n-control", "3", "--n-treatment", "0",
                    "--out-dir", tmp_path] + FAST) == 2

    def test_report_missing_inputs_is_input_error(self, tmp_path):
        assert run(["report", "--model", tmp_path / "nope.json",
                    "--response", tmp_path / "nope.csv",
                    "--out-dir", tmp_path]) == 2

    def test_response_missing_column_is_input_error(self, pipeline, tmp_path,
                                                    capsys):
        path = tmp_path / "response.csv"
        path.write_text("# seed=3 config_hash=0\ntumor_id,z\ntrt01,1.0\n")
        assert run(["report", "--model", pipeline / "model.json",
                    "--response", path, "--out-dir", tmp_path]) == 2
        assert "p_two_tailed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    @pytest.mark.parametrize("column", ["z", "effect_fraction"])
    def test_response_non_finite_is_input_error(self, pipeline, tmp_path, capsys,
                                                column, value):
        with open(pipeline / "response_treated.csv", newline="") as fh:
            comment = fh.readline()
            rows = list(csv.DictReader(fh))
        rows[0][column] = value
        path = tmp_path / "response.csv"
        with open(path, "w", newline="") as fh:
            fh.write(comment)
            writer = csv.DictWriter(fh, RESPONSE_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert run(["report", "--model", pipeline / "model.json",
                    "--response", path, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "non-finite" in err, err
        assert not (tmp_path / "report.txt").exists()
        assert not (tmp_path / "effect_bars.svg").exists()

    def test_model_zero_on_populated_cell_is_analysis_failure(self, pipeline,
                                                              tmp_path, capsys):
        model = json.loads((pipeline / "model.json").read_text())
        counts = np.array(json.loads(
            (pipeline / "histograms" / "trt01.json").read_text())["counts"])
        cell = np.unravel_index(np.argmax(counts), counts.shape)
        for component in model["components"]:
            probs = np.array(component["probs"])
            probs[cell] = 0.0
            component["probs"] = (probs / probs.sum()).tolist()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert run(["fit", "--model", path, "--histograms",
                    pipeline / "histograms", "--out-dir", tmp_path]) == 1
        assert "zero on a populated cell" in capsys.readouterr().err

    def test_unscoreable_tumor_is_recorded_failed(self, tmp_path, capsys):
        hists = _unscoreable_cohort(tmp_path)
        response = tmp_path / "response_treated.csv"
        assert run(["fit", "--model", tmp_path / "model.json", "--histograms",
                    hists, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == UNSCOREABLE_ERR
        header, *rows = csv.reader(response.read_text().splitlines()[1:])
        assert header == list(RESPONSE_COLUMNS)
        assert [r[0] for r in rows] == ["trt01", "trt02", "trt03", "trt04",
                                        "combined"]
        assert rows[1][1:] == ["failed"] * (len(RESPONSE_COLUMNS) - 1)
        scored = np.array([r[1:] for r in rows[:1] + rows[2:4]], dtype=float)
        assert np.all(np.isfinite(scored))
        assert float(rows[-1][1]) == pytest.approx(scored[:, 0].sum() / np.sqrt(3),
                                                   rel=1e-12)
        assert run(["report", "--model", tmp_path / "model.json", "--response",
                    response, "--out-dir", tmp_path]) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "Tumors scored: 3\nTumors failed: trt02\n" in report
        assert "trt02:" not in report

    def test_failed_fold_is_reported_and_exits_1(self, pipeline, tmp_path,
                                                 capsys, monkeypatch):
        hists = pipeline / "histograms"
        first = _load_cohorts(hists)["control"][0].tumor_id
        real = lpm_model.train_control

        def train_control(cohort, n_control, opts):
            if cohort[0].tumor_id != first:  # the fold that leaves out `first`
                raise AnalysisError("planted failure")
            return real(cohort, n_control, opts)

        monkeypatch.setattr(lpm_model, "train_control", train_control)
        assert run(["validate", "--histograms", hists, "--n-control", "1",
                    "--n-treatment", "1", "--out-dir", tmp_path] + FAST) == 1
        assert capsys.readouterr().err == f"analysis failed: fold {first}: planted failure\n"
        header, *rows = csv.reader(
            (tmp_path / "loo_report.csv").read_text().splitlines()[1:])
        assert rows[0][0] == first and rows[0][2] == "failed"
        assert all(row[2] != "failed" for row in rows[1:])

    def test_select_with_no_usable_candidate_is_analysis_failure(self, pipeline,
                                                                tmp_path, capsys):
        assert run(["select", "--histograms", pipeline / "histograms", "--k-max", "2",
                    "--restarts", "1", "--max-iter", "1", "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == ("analysis failed: all candidate models "
                                           "degenerate or unconverged\n")
        assert not (tmp_path / "model.json").exists()

    def test_fit_cohort_without_histograms_is_input_error(self, pipeline, tmp_path,
                                                          capsys):
        hists = tmp_path / "h"
        hists.mkdir()
        for path in (pipeline / "histograms").glob("trt*.json"):
            shutil.copy(path, hists)
        assert run(["fit", "--model", pipeline / "model.json", "--histograms", hists,
                    "--cohort", "control", "--out-dir", tmp_path]) == 2
        assert capsys.readouterr().err == f"input error: no control histograms in {hists}\n"
        assert not (tmp_path / "response_control.csv").exists()

    def test_fit_on_control_only_model_is_input_error(self, pipeline, tmp_path,
                                                      capsys):
        hists = pipeline / "histograms"
        assert run(["train", "--histograms", hists, "--n-control", "2",
                    "--out-dir", tmp_path] + FAST) == 0
        capsys.readouterr()
        assert run(["fit", "--model", tmp_path / "model.json", "--histograms",
                    hists, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1 and "no treatment components" in errors[0], err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["train", "--histograms", "{hists}", "--n-control", "0"],
                     "n_control must be >= 1", id="n-control-0"),
        pytest.param(["select", "--histograms", "{hists}", "--k-min", "3",
                      "--k-max", "3"], "need k_max > k_min", id="k-range-empty"),
        pytest.param(["ingest", "--voxels", "{voxels}", "--bins", "1"],
                     "n_adc_bins must be >= 2", id="bins-1"),
        pytest.param(["ingest", "--voxels", "{voxels}", "--adc-min", "0.003",
                      "--adc-max", "0.001"], "adc_min must be < adc_max",
                     id="adc-range-reversed"),
        pytest.param(["synth", "--config", "{config}"],
                     "invalid int value: 'abc'", id="config-seed-abc"),
        pytest.param(["train", "--histograms", "{hists}", "--n-control", "1",
                      "--restarts", "0"], "restarts must be >= 1", id="restarts-0"),
        pytest.param(["train", "--histograms", "{hists}", "--n-control", "1",
                      "--max-iter", "0"], "max_iter must be >= 1", id="max-iter-0"),
        pytest.param(["train", "--histograms", "{hists}", "--n-control", "1",
                      "--n-treatment", "-1"], "n_treatment must be >= 1",
                     id="n-treatment-negative"),
        pytest.param(["validate", "--histograms", "{hists}", "--n-control", "1",
                      "--n-treatment", "1", "--tol=-1e-9"], "tol must be >= 0",
                     id="tol-negative"),
        pytest.param(["ingest"], "exactly one of --voxels and --signals",
                     id="ingest-no-input"),
        pytest.param(["ingest", "--voxels", "{voxels}", "--signals", "{voxels}"],
                     "exactly one of --voxels and --signals", id="ingest-two-inputs"),
        pytest.param(["ingest", "--voxels", "{hists}"], "Is a directory",
                     id="voxels-directory"),
        pytest.param(["fit", "--model", "{hists}", "--histograms", "{hists}"],
                     "Is a directory", id="model-directory"),
        pytest.param(["baseline", "--histograms", "{hists}", "--config", "{hists}"],
                     "Is a directory", id="config-directory"),
        pytest.param(["baseline", "--histograms", "{empty}"],
                     "no histogram JSON files in", id="histograms-without-json"),
        pytest.param(["select", "--histograms", "{hists}", "--jobs", "0"],
                     "jobs must be >= 1", id="select-jobs-0"),
        pytest.param(["fit", "--model", "{hists}", "--histograms", "{hists}",
                      "--jobs", "0"], "jobs must be >= 1", id="fit-jobs-0"),
        pytest.param(["baseline", "--histograms", "{hists}", "--jobs", "0"],
                     "jobs must be >= 1", id="baseline-jobs-0"),
        pytest.param(["ingest", "--voxels", "{voxels}", "--jobs", "0"],
                     "jobs must be >= 1", id="ingest-jobs-0"),
        pytest.param(["baseline", "--histograms", "{hists}", "--config", "{jobs_config}"],
                     "jobs must be >= 1", id="config-jobs-0"),
        pytest.param(["validate", "--histograms", "{hists}", "--n-control", "3",
                      "--n-treatment", "2", "--jobs", "-2"] + FAST,
                     "jobs must be >= 1", id="validate-jobs-negative"),
        pytest.param(["synth", "--seed", "-1"], "seed must be >= 0",
                     id="synth-seed-negative"),
        pytest.param(["train", "--histograms", "{hists}", "--n-control", "1",
                      "--seed", "-1"], "seed must be >= 0", id="train-seed-negative"),
    ])
    def test_bad_value_is_input_error(self, pipeline, tmp_path, capsys, argv,
                                      message):
        voxels = tmp_path / "voxels.csv"
        voxels.write_text("tumor_id,cohort,timepoint,adc\nt1,control,0,0.001\n")
        config = tmp_path / "run.cfg"
        config.write_text("seed = abc\n")
        jobs_config = tmp_path / "jobs.cfg"
        jobs_config.write_text("jobs = 0\n")
        (tmp_path / "empty").mkdir()
        paths = {"hists": pipeline / "histograms", "voxels": voxels,
                 "config": config, "jobs_config": jobs_config,
                 "empty": tmp_path / "empty"}
        argv = [a.format(**paths) for a in argv] + ["--out-dir", tmp_path]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1 and message in errors[0], err
        assert "Traceback" not in err

    @pytest.mark.parametrize("count", ["2.5", "1" + "0" * 30, "Infinity"],
                             ids=["fraction", "beyond-int64", "infinite"])
    def test_malformed_histogram_counts_are_input_error(self, pipeline, tmp_path,
                                                        capsys, count):
        hists = tmp_path / "histograms"
        shutil.copytree(pipeline / "histograms", hists)
        path = sorted(hists.glob("ctl*.json"))[0]
        d = json.loads(path.read_text())
        d["counts"][0][0] = "COUNT"
        path.write_text(json.dumps(d).replace('"COUNT"', count))
        assert run(["baseline", "--histograms", hists, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1 and "malformed histogram" in errors[0], err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, name, key, value", [
        pytest.param("baseline", "trt01.json", "tumor_id", ["x"], id="tumor-id-list"),
        pytest.param("baseline", "trt01.json", "tumor_id", 5, id="tumor-id-number"),
        pytest.param("baseline", "trt01.json", "tumor_id", None, id="tumor-id-null"),
        pytest.param("baseline", "trt01.json", "tumor_id", "", id="tumor-id-empty"),
        pytest.param("baseline", "trt01.json", "cohort", ["treated"], id="cohort-list"),
        pytest.param("fit", "trt01.json", "tumor_id", "combined", id="tumor-id-combined"),
        pytest.param("ingest", "voxels.csv", "tumor_id", "combined",
                     id="voxel-tumor-id-combined"),
        pytest.param("baseline", "trt01.json", "overflow", -5, id="overflow-negative"),
        pytest.param("baseline", "trt01.json", "overflow", 2.5, id="overflow-fraction"),
        pytest.param("baseline", "trt01.json", "overflow", True, id="overflow-bool"),
        pytest.param("fit", "model.json", "n_control", True, id="n-control-bool"),
        pytest.param("fit", "model.json", "n_treatment", 4.0, id="n-treatment-float"),
    ])
    def test_malformed_field_is_input_error_naming_its_file(
            self, pipeline, tmp_path, capsys, command, name, key, value):
        hists = tmp_path / "histograms"
        shutil.copytree(pipeline / "histograms", hists)
        model = tmp_path / "model.json"
        trained = lpm_model.read_model_json(pipeline / "model.json")
        # one control component, so that n_control true or n_treatment 4.0
        # would pass the checks that compare them with the components
        write_model_json(model, LpmModel(P=trained.P, n_control=1, binning=trained.binning))
        path = hists / name if name.startswith("trt") else tmp_path / name
        if name == "voxels.csv":
            path.write_text(f"tumor_id,cohort,timepoint,adc\n{value},treated,0,0.001\n")
        else:
            d = json.loads(path.read_text())
            d[key] = value
            path.write_text(json.dumps(d))
        argv = {"baseline": ["baseline", "--histograms", hists],
                "fit": ["fit", "--model", model, "--histograms", hists],
                "ingest": ["ingest", "--voxels", path]}[command]
        assert run(argv + ["--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert f"input error: {path}: " in err and "Traceback" not in err, err
        assert not list((tmp_path / "out").glob("*.*"))

    def test_negative_treatment_count_is_rejected_before_training(
            self, pipeline, tmp_path, monkeypatch):
        def train_control(*args):
            pytest.fail("control training ran before --n-treatment was checked")

        monkeypatch.setattr(lpm_model, "train_control", train_control)
        assert run(["train", "--histograms", pipeline / "histograms",
                    "--n-control", "1", "--n-treatment", "-1",
                    "--out-dir", tmp_path] + FAST) == 2
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("case", ["undecodable-response", "undecodable-config",
                                      "deep-model", "deep-histogram"])
    def test_unreadable_input_file_is_input_error_naming_it(self, pipeline, tmp_path,
                                                           capsys, case):
        deep = "[" * 100_000 + "]" * 100_000
        hists = tmp_path / "histograms"
        shutil.copytree(pipeline / "histograms", hists)
        model = pipeline / "model.json"
        if case == "undecodable-response":
            path = tmp_path / "response.csv"
            path.write_bytes((pipeline / "response_treated.csv").read_bytes()
                             .replace(b"trt01", b"trt\xff1"))
            argv = ["report", "--model", model, "--response", path]
        elif case == "undecodable-config":
            path = tmp_path / "run.cfg"
            path.write_bytes(b"seed = 3\n# \xff\n")
            argv = ["baseline", "--histograms", hists, "--config", path]
        elif case == "deep-model":
            path = tmp_path / "model.json"
            path.write_text(deep)
            argv = ["fit", "--model", path, "--histograms", hists]
        else:
            path = hists / "zz.json"
            path.write_text(deep)
            argv = ["baseline", "--histograms", hists]
        assert run(argv + ["--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: ") and "Traceback" not in err, err
        assert err.count("\n") == 1, err
        assert not list((tmp_path / "out").glob("*.*"))


def _field_paths(value, path=()):
    """The path of every field of a JSON value: each key of an object and the
    first item of an array, at every depth."""
    fields = (value.items() if isinstance(value, dict)
              else [(0, value[0])] if isinstance(value, list) and value else [])
    for key, child in fields:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=6)


class TestMalformedFields:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_replaced_field_exits_0_or_2(self, pipeline, tmp_path_factory, data):
        """One field of a histogram or model.json replaced by any JSON value:
        train, baseline, fit and report exit 0 or 2 and print no traceback, and
        report scores every tumor of fit's response file."""
        run_dir = tmp_path_factory.mktemp("mutant")
        hists = shutil.copytree(pipeline / "histograms", run_dir / "histograms")
        model = shutil.copy(pipeline / "model.json", run_dir / "model.json")
        path = data.draw(st.sampled_from([model, hists / "ctl01.json", hists / "trt01.json"]))
        d = json.loads(path.read_text())
        *parents, key = data.draw(st.sampled_from(list(_field_paths(d))))
        reduce(operator.getitem, parents, d)[key] = data.draw(JSON_VALUES)
        path.write_text(json.dumps(d))
        out = run_dir / "out"
        response = out / "response_treated.csv"
        codes = {}
        for argv in (["train", "--histograms", hists, "--n-control", "3",
                      "--n-treatment", "2"] + FAST,
                     ["baseline", "--histograms", hists],
                     ["fit", "--model", model, "--histograms", hists],
                     ["report", "--model", model, "--response", response]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes[argv[0]] = run(argv + ["--out-dir", out])
            assert codes[argv[0]] in (0, 2) and "Traceback" not in err.getvalue(), \
                (argv[0], parents, key, err.getvalue())
        if codes["fit"] == 0:
            assert codes["report"] == 0
            with open(response, newline="") as fh:
                fh.readline()
                scored = [r for r in csv.DictReader(fh) if r["tumor_id"] != "combined"]
            assert f"Tumors scored: {len(scored)}\n" in (out / "report.txt").read_text()


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        for bom in ("", "\ufeff"):  # a leading byte-order mark is not part of the key
            cfg = tmp_path / f"run{len(bom)}.cfg"
            cfg.write_text(f"{bom}preset = hct_like\nseed = 9\n", encoding="utf-8")
            out = tmp_path / f"out{len(bom)}"
            assert run(["synth", "--config", cfg, "--out-dir", out]) == 0
            hists = list((out / "histograms").glob("*.json"))
            assert len(hists) == 28  # 13 control + 15 treated

    def test_cli_flag_wins_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = hct_like\n")
        out = tmp_path / "out"
        assert run(["synth", "--config", cfg, "--preset", "lovo_like",
                    "--out-dir", out]) == 0
        assert len(list((out / "histograms").glob("*.json"))) == 18

    def test_bad_config_line_is_input_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not key value\n")
        assert run(["synth", "--config", cfg, "--out-dir", tmp_path]) == 2

    def test_config_run_writes_flag_run_bytes(self, pipeline, tmp_path):
        hist_dir = pipeline / "histograms"
        cfg = tmp_path / "train.cfg"
        cfg.write_text("n_treatment = 2\nseed = 3\nrestarts = 1\n"
                       "max_iter = 800\ntol = 1e-8\n")
        assert run(["train", "--config", cfg, "--histograms", hist_dir,
                    "--n-control", "3", "--out-dir", tmp_path]) == 0
        assert ((tmp_path / "model.json").read_bytes()
                == (pipeline / "model.json").read_bytes())
        # fit takes neither n_control nor k_max: those keys are ignored
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("# scoring\ncohort = treated\nseed = 3\n"
                       "n_control = 3\nk-max = 5\n")
        assert run(["fit", "--config", cfg, "--model", tmp_path / "model.json",
                    "--histograms", hist_dir, "--out-dir", tmp_path]) == 0
        assert ((tmp_path / "response_treated.csv").read_bytes()
                == (pipeline / "response_treated.csv").read_bytes())

    def test_config_switches_on_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("emit_voxels = yes\n")
        assert run(["synth", "--config", cfg, "--out-dir", tmp_path]) == 0
        assert (tmp_path / "voxels.csv").is_file()


@pytest.fixture(scope="module")
def sweeps(pipeline, tmp_path_factory):
    """select and validate on the pipeline histograms with --jobs 1 and 2."""
    out = tmp_path_factory.mktemp("sweeps")
    for jobs in (1, 2):
        common = ["--histograms", pipeline / "histograms", "--seed", "3",
                  "--jobs", jobs, "--out-dir", out / f"jobs{jobs}"] + FAST
        assert run(["select", "--k-max", "3"] + common) == 0
        assert run(["validate", "--n-control", "3", "--n-treatment", "2"]
                   + common) == 0
    return out


class TestArtifacts:
    @pytest.mark.parametrize("name", ["selection_control.csv",
                                      "selection_treatment.csv", "model.json",
                                      "loo_report.csv"])
    def test_jobs_do_not_change_results(self, sweeps, name):
        one, two = ((sweeps / f"jobs{jobs}" / name).read_bytes() for jobs in (1, 2))
        assert one == two  # --jobs is left out of the config hash too

    def test_csv_artifacts_start_with_run_comment(self, pipeline, sweeps):
        paths = sorted(pipeline.glob("*.csv")) + sorted(sweeps.rglob("*.csv"))
        assert len(paths) == 2 + 2 * 3
        for path in paths:
            data = path.read_bytes()
            assert data.startswith(b"# seed=3 config_hash="), path
            assert data.endswith(b"\n") and b"\r" not in data, path


class TestDeterminism:
    def test_synth_outputs_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["synth", "--preset", "lovo_like", "--seed", "5",
                        "--out-dir", out]) == 0
            outs.append(out)
        for p in sorted((outs[0] / "histograms").glob("*.json")):
            q = outs[1] / "histograms" / p.name
            assert p.read_bytes() == q.read_bytes()
        assert ((outs[0] / "ground_truth.json").read_bytes()
                == (outs[1] / "ground_truth.json").read_bytes())

    def test_rerun_artifacts_byte_identical(self, pipeline, sweeps, tmp_path):
        """train, fit, validate, baseline and report, rerun into a new directory,
        write the bytes the pipeline and sweeps fixtures wrote."""
        hists = pipeline / "histograms"
        common = ["--seed", "3", "--out-dir", tmp_path]
        assert run(["train", "--histograms", hists, "--n-control", "3",
                    "--n-treatment", "2"] + common + FAST) == 0
        assert run(["fit", "--model", tmp_path / "model.json", "--histograms", hists,
                    "--cohort", "treated"] + common) == 0
        assert run(["validate", "--histograms", hists, "--n-control", "3",
                    "--n-treatment", "2"] + common + FAST) == 0
        assert run(["baseline", "--histograms", hists] + common) == 0
        assert run(["report", "--model", tmp_path / "model.json", "--response",
                    tmp_path / "response_treated.csv"] + common) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["baseline.csv", "components.svg", "effect_bars.svg",
                         "loo_report.csv", "model.json", "report.txt",
                         "response_treated.csv"]
        for name in names:
            first = (sweeps / "jobs1" if name == "loo_report.csv" else pipeline) / name
            assert (tmp_path / name).read_bytes() == first.read_bytes(), name


# lpm's modules in import order: each imports only modules before it
STACK = ("errors", "histograms", "model", "synth", "inference", "selection",
         "validation", "baseline", "svgplots", "cli")


def _modules_after(tmp_path, code, package="scipy"):
    """Modules of package a fresh interpreter has loaded after running code."""
    script = tmp_path / "probe.py"
    script.write_text("import sys\n" + code + "\n"
                      f"print('{package} modules:', *(m for m in sys.modules"
                      f" if m == {package!r} or m.startswith('{package}.')))\n")
    src = str(Path(lpm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, check=True)
    return done.stdout.splitlines()[-1].split()[2:]


class TestClosedStdout:
    """A reader that leaves, as `lpm report | head -1` does, changes no exit code.
    Its end of the pipe is closed before the subcommand prints, so the first
    write fails whether stdout is buffered or not."""

    @staticmethod
    def _run(command, args, out, unbuffered):
        env = dict(os.environ, PYTHONPATH=str(Path(lpm.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "lpm.cli", command, *map(str, args),
                 "--seed", "3", "--out-dir", str(out)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        return done.returncode, done.stderr

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_0_with_every_artifact(self, pipeline, tmp_path,
                                                       unbuffered):
        out = tmp_path / "out"
        commands = {
            "fit": (["--model", pipeline / "model.json", "--histograms",
                     pipeline / "histograms", "--cohort", "treated"],
                    ["response_treated.csv"]),
            "report": (["--model", pipeline / "model.json",
                        "--response", pipeline / "response_treated.csv"],
                       ["effect_bars.svg", "components.svg", "report.txt"]),
        }
        for command, (args, artifacts) in commands.items():
            assert (command, *self._run(command, args, out, unbuffered)) == \
                (command, 0, "")
            for name in artifacts:
                assert (out / name).stat().st_size > 0
        assert (out / "response_treated.csv").read_bytes() == \
            (pipeline / "response_treated.csv").read_bytes()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_keeps_analysis_failure(self, tmp_path, unbuffered):
        """fit prints its scored line and then fails on trt02: exit 1, one
        stderr line and no traceback, as with an open stdout."""
        hists = _unscoreable_cohort(tmp_path)
        out = tmp_path / "out"
        assert self._run("fit", ["--model", tmp_path / "model.json", "--histograms",
                                 hists], out, unbuffered) == (1, UNSCOREABLE_ERR)
        assert (out / "response_treated.csv").stat().st_size > 0

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_help_exits_0(self, tmp_path, unbuffered):
        assert self._run("--help", [], tmp_path / "out", unbuffered) == (0, "")


class _Exited(Exception):
    """Raised in place of os._exit, carrying its code."""


class TestProcessEntry:
    """run_and_exit, the entry of `python -m lpm.cli` and the lpm script,
    hands main's code (or argparse's) to os._exit after its flushes."""

    @pytest.mark.parametrize("case", ["ok", "input_error", "analysis_failure",
                                      "help", "usage_error"])
    def test_exit_code_handed_to_os_exit(self, pipeline, tmp_path, monkeypatch,
                                         case):
        hists = _unscoreable_cohort(tmp_path)
        out = ["--out-dir", tmp_path / "out"]
        argv, code = {
            "ok": (["report", "--model", pipeline / "model.json", "--response",
                    pipeline / "response_treated.csv"] + out, 0),
            "input_error": (["report", "--model", tmp_path / "missing.json",
                             "--response", tmp_path / "missing.csv"] + out, 2),
            "analysis_failure": (["fit", "--model", tmp_path / "model.json",
                                  "--histograms", hists] + out, 1),
            "help": (["--help"], 0),
            "usage_error": (["fit"], 2),
        }[case]

        def _exit(status):
            raise _Exited(status)

        monkeypatch.setattr(os, "_exit", _exit)
        with pytest.raises(_Exited) as exited:
            run_and_exit([str(a) for a in argv])
        assert exited.value.args == (code,)

    def test_buffered_stdout_reaches_a_pipe(self, pipeline, tmp_path):
        """Without its flush before os._exit, report's buffered lines would be
        lost."""
        env = dict(os.environ, PYTHONPATH=str(Path(lpm.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        done = subprocess.run(
            [sys.executable, "-m", "lpm.cli", "report", "--model",
             str(pipeline / "model.json"), "--response",
             str(pipeline / "response_treated.csv"), "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines() == \
            (tmp_path / "report.txt").read_text().splitlines()

    def test_script_and_module_share_the_entry(self):
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            script = tomllib.load(fh)["project"]["scripts"]["lpm"]
        tree = ast.parse((root / "src" / "lpm" / "cli.py").read_text())
        guard, = (node for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'")
        call, = guard.body
        assert script == f"lpm.cli:{ast.unparse(call.value.func)}"
        assert ast.unparse(call) == "run_and_exit()"


class TestStartup:
    def test_cli_import_loads_no_scipy_stats(self, tmp_path):
        loaded = _modules_after(tmp_path, "import lpm.cli")
        assert not [m for m in loaded if m.startswith("scipy.stats")]

    def test_ingest_loads_no_scipy(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\nt1,control,72,0.002\n")
        code = ("from lpm.cli import main\n"
                "for argv in (['ingest', '--help'],\n"
                "             ['ingest', '--voxels', 'voxels.csv', '--out-dir', 'out']):\n"
                "    try:\n"
                "        main(argv)\n"
                "    except SystemExit:\n"
                "        pass")
        assert _modules_after(tmp_path, code) == []
        assert (tmp_path / "out" / "histograms" / "t1.json").is_file()

    def test_help_and_ingest_load_no_later_layer(self, tmp_path):
        path = tmp_path / "voxels.csv"
        path.write_text("tumor_id,cohort,timepoint,adc\n"
                        "t1,control,0,0.001\nt1,control,72,0.002\n")
        code = ("from lpm.cli import main\n"
                "for argv in (['--help'],\n"
                "             ['ingest', '--voxels', 'voxels.csv', '--out-dir', 'out']):\n"
                "    try:\n"
                "        main(argv)\n"
                "    except SystemExit:\n"
                "        pass")
        loaded = _modules_after(tmp_path, code, "lpm")
        assert "lpm.histograms" in loaded
        assert not {f"lpm.{m}" for m in ("model", "inference", "selection", "validation",
                                         "baseline", "synth", "svgplots")} & set(loaded)
        assert (tmp_path / "out" / "histograms" / "t1.json").is_file()

    def test_front_end_loads_no_numpy_histograms_or_hashlib(self, tmp_path):
        """--help, argparse errors and bad --config files: a bad line, an
        undecodable byte, a missing file and a value argparse rejects."""
        (tmp_path / "bad.cfg").write_text("seed 3\n")
        (tmp_path / "undecodable.cfg").write_bytes(b"seed = \xff\n")
        (tmp_path / "bad_value.cfg").write_text("seed = abc\n")
        code = ("import lpm.cli\n"
                "codes = []\n"
                "for argv in [['--help'], ['fit'], ['fit', '--seed', 'x']] + [\n"
                "        ['baseline', '--histograms', 'h', '--config', cfg] for cfg in\n"
                "        ('bad.cfg', 'undecodable.cfg', 'missing.cfg', 'bad_value.cfg')]:\n"
                "    try:\n"
                "        codes.append(lpm.cli.main(argv))\n"
                "    except SystemExit as exc:\n"
                "        codes.append(exc.code)\n"
                "assert codes == [0, 2, 2, 2, 2, 2, 2], codes")
        assert _modules_after(tmp_path, code, "numpy") == []
        assert "lpm.histograms" not in _modules_after(tmp_path, code, "lpm")
        assert _modules_after(tmp_path, code, "_hashlib") == []
        assert _modules_after(tmp_path, code, "json") == []

    def test_package_imports_form_one_stack(self):
        """Each module imports, at any depth, only modules before it in STACK."""
        package = Path(lpm.__file__).resolve().parent
        assert sorted(STACK) == sorted(p.stem for p in package.glob("*.py")
                                       if p.stem != "__init__")
        for name in STACK:
            tree = ast.parse((package / f"{name}.py").read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level:
                    imported = ([node.module] if node.module
                                else [alias.name for alias in node.names])
                    for other in imported:
                        assert STACK.index(other) < STACK.index(name), \
                            f"{name} imports {other}"

    def test_scoring_commands_load_no_selection(self, pipeline, tmp_path):
        code = ("from lpm.cli import main\n"
                f"hists = {str(pipeline / 'histograms')!r}\n"
                f"model = {str(pipeline / 'model.json')!r}\n"
                "out = ['--out-dir', 'out']\n"
                "codes = [main(['fit', '--model', model, '--histograms', hists] + out),\n"
                "         main(['validate', '--histograms', hists, '--n-control', '1',\n"
                "               '--n-treatment', '1', '--restarts', '1',\n"
                "               '--max-iter', '200'] + out),\n"
                "         main(['report', '--model', model, '--response',\n"
                "               'out/response_treated.csv'] + out)]\n"
                "assert codes == [0, 0, 0], codes")
        loaded = _modules_after(tmp_path, code, "lpm")
        assert {"lpm.inference", "lpm.validation", "lpm.svgplots"} <= set(loaded)
        assert "lpm.selection" not in loaded
        assert (tmp_path / "out" / "report.txt").is_file()

    def test_training_and_scoring_commands_load_no_scipy(self, pipeline, tmp_path):
        fast = ["--restarts", "1", "--max-iter", "200", "--out-dir", "out"]
        code = ("from lpm.cli import main\n"
                f"hists = {str(pipeline / 'histograms')!r}\n"
                f"model = {str(pipeline / 'model.json')!r}\n"
                f"fast = {fast!r}\n"
                "codes = [main([cmd, '--histograms', hists] + args)\n"
                "         for cmd, args in (\n"
                "             ('select', ['--k-max', '2'] + fast),\n"
                "             ('train', ['--n-control', '1', '--n-treatment', '1'] + fast),\n"
                "             ('validate', ['--n-control', '1', '--n-treatment', '1'] + fast),\n"
                "             ('fit', ['--model', model, '--out-dir', 'out']))]\n"
                "assert codes == [0, 0, 0, 0], codes")
        assert _modules_after(tmp_path, code) == []
        assert (tmp_path / "out" / "loo_report.csv").is_file()
        assert (tmp_path / "out" / "response_treated.csv").is_file()
        code = ("from lpm.cli import main\n"
                f"assert main(['baseline', '--histograms', "
                f"{str(pipeline / 'histograms')!r}, '--out-dir', 'out']) == 0")
        # the Student-t tail of the t-test; the probe does see scipy
        assert "scipy.special" in _modules_after(tmp_path, code)

    def test_help_and_serial_select_load_no_multiprocessing(self, pipeline, tmp_path):
        code = ("from lpm.cli import main\n"
                "try:\n"
                "    main(['--help'])\n"
                "except SystemExit:\n"
                "    pass\n"
                f"assert main(['select', '--histograms', "
                f"{str(pipeline / 'histograms')!r}, '--k-max', '2', '--jobs', '1', "
                "'--restarts', '1', '--max-iter', '200', '--out-dir', 'out']) == 0")
        assert _modules_after(tmp_path, code, "multiprocessing") == []
        assert (tmp_path / "out" / "selection_control.csv").is_file()
