import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpm
from lpm import validation
from lpm.cli import RESPONSE_COLUMNS, _load_cohorts, main
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
        response = tmp_path / "response_treated.csv"
        assert run(["fit", "--model", tmp_path / "model.json", "--histograms",
                    hists, "--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert errors == ["error: tumor trt02: 3 free parameters for 2 "
                          "informative cells"], err
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
        real = validation.train_control

        def train_control(cohort, n_control, opts):
            if cohort[0].tumor_id != first:  # the fold that leaves out `first`
                raise AnalysisError("planted failure")
            return real(cohort, n_control, opts)

        monkeypatch.setattr(validation, "train_control", train_control)
        assert run(["validate", "--histograms", hists, "--n-control", "1",
                    "--n-treatment", "1", "--out-dir", tmp_path] + FAST) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert errors == [f"error: fold {first}: planted failure"], err
        header, *rows = csv.reader(
            (tmp_path / "loo_report.csv").read_text().splitlines()[1:])
        assert rows[0][0] == first and rows[0][2] == "failed"
        assert all(row[2] != "failed" for row in rows[1:])

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
    ])
    def test_bad_value_is_input_error(self, pipeline, tmp_path, capsys, argv,
                                      message):
        voxels = tmp_path / "voxels.csv"
        voxels.write_text("tumor_id,cohort,timepoint,adc\nt1,control,0,0.001\n")
        config = tmp_path / "run.cfg"
        config.write_text("seed = abc\n")
        paths = {"hists": pipeline / "histograms", "voxels": voxels,
                 "config": config}
        argv = [a.format(**paths) for a in argv] + ["--out-dir", tmp_path]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1 and message in errors[0], err
        assert "Traceback" not in err


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = hct_like\nseed = 9\n")
        out = tmp_path / "out"
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
                                      "selection_treatment.csv",
                                      "loo_report.csv"])
    def test_jobs_do_not_change_results(self, sweeps, name):
        one, two = ((sweeps / f"jobs{jobs}" / name).read_text().splitlines()
                    for jobs in (1, 2))
        assert one[0] != two[0]  # --jobs is part of the config hash
        assert one[1:] == two[1:]

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

    def test_every_export_resolves(self, tmp_path):
        code = ("import importlib, lpm\n"
                "assert set(lpm.__all__) <= set(dir(lpm))\n"
                "for name in lpm.__all__:\n"
                "    value = getattr(lpm, name)\n"
                "    assert value is getattr(importlib.import_module(value.__module__), name)")
        assert "lpm.validation" in _modules_after(tmp_path, code, "lpm")

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
