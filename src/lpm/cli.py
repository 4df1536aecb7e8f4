"""Command-line orchestration of the analysis pipeline.

main parses the arguments (and --config), creates --out-dir and computes the
run header: the seed plus a hash of the resolved configuration. Each
subcommand then loads its inputs once, computes, and writes every artifact
once with that header embedded, so identical configurations produce
byte-identical outputs.

Exit codes: 0 success, 1 analysis-level failure, 2 input error.

Only the histogram layer, and with it numpy, is imported at start-up; each
subcommand imports the layers it runs, so ``lpm --help`` and ``lpm ingest``
load no model, inference, selection, validation, baseline, synth or plotting
code.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from itertools import chain
from pathlib import Path

from .errors import AnalysisError, InputFormatError, LpmError
from .histograms import (COHORTS, BinningConfig, Histogram2D, bin_voxels,
                         load_signal_csv, load_voxel_csv,
                         write_histogram_json, write_voxel_csv)

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_INPUT = 2


# arguments that name filesystem locations rather than computation
# parameters; excluded from the hash so reruns from or into different
# directories produce identical artifacts
_PATH_ARGS = ("func", "config", "out_dir", "histograms", "model", "response",
              "voxels", "signals")

# response_*.csv columns; every column after tumor_id is a ResponseResult float
RESPONSE_COLUMNS = ("tumor_id", "z", "p_two_tailed", "effect_fraction",
                    "effect_fraction_sigma", "q_treatment_total", "sigma_treatment")


def _meta(args) -> dict:
    """The run seed and a hash of every parsed argument but the paths."""
    payload = {k: v for k, v in vars(args).items() if k not in _PATH_ARGS}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True,
                                       default=str).encode()).hexdigest()[:16]
    return {"seed": args.seed, "config_hash": digest}


def write_csv(path: Path, meta: dict, table):
    """Write the run comment line, then the header and rows of table."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={meta['seed']} config_hash={meta['config_hash']}\n")
        csv.writer(fh, lineterminator="\n").writerows(table)


def _write_json(path: Path, payload: dict, meta: dict):
    payload = dict(payload)
    payload["run"] = meta
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_cohorts(directory) -> dict:
    """Histograms of a directory by cohort label, each list in file-name order.

    Every JSON object with a "counts" key is a histogram; other JSON files
    (ingest summaries, ground truth, models) are skipped. Tumor ids must be
    unique and every cohort one of COHORTS.
    """
    cohorts = {label: [] for label in COHORTS}
    files = {}  # tumor_id -> file
    for p in sorted(Path(directory).glob("*.json")):
        try:
            with open(p) as fh:
                d = json.load(fh)
        except ValueError as exc:
            raise InputFormatError(f"{p}: not valid JSON: {exc}") from None
        if not isinstance(d, dict) or "counts" not in d:
            continue
        try:
            h = Histogram2D.from_json_dict(d)
        except KeyError as exc:
            raise InputFormatError(f"{p}: histogram lacks key {exc}") from None
        except (ValueError, TypeError) as exc:
            raise InputFormatError(f"{p}: malformed histogram: {exc}") from None
        if h.cohort not in cohorts:
            raise InputFormatError(f"{p}: cohort {h.cohort!r} is not one of {COHORTS}")
        if h.tumor_id in files:
            raise InputFormatError(f"{files[h.tumor_id]} and {p} both hold "
                                   f"tumor {h.tumor_id!r}")
        files[h.tumor_id] = p
        cohorts[h.cohort].append(h)
    if not files:
        raise InputFormatError(f"no histogram JSON files in {directory}")
    return cohorts


def _binning_from_args(args) -> BinningConfig:
    return BinningConfig(adc_min=args.adc_min, adc_max=args.adc_max,
                         n_adc_bins=args.bins)


def _train_options(args):
    from .model import TrainOptions
    return TrainOptions(seed=args.seed, restarts=args.restarts,
                        max_iter=args.max_iter, tol=args.tol)


def cmd_ingest(args, out: Path, meta: dict) -> int:
    config = _binning_from_args(args)
    if args.signals:
        loaded = load_signal_csv(args.signals)
    else:
        loaded = load_voxel_csv(args.voxels)
    if not loaded.records:
        print("error: no valid rows in input", file=sys.stderr)
        for line, msg in loaded.errors:
            print(f"  line {line}: {msg}", file=sys.stderr)
        return EXIT_INPUT
    hists = bin_voxels(loaded.records, config)
    hist_dir = out / "histograms"
    hist_dir.mkdir(exist_ok=True)
    summary = {"tumors": {}, "rejected_rows": [
        {"line": line, "message": msg} for line, msg in loaded.errors]}
    for tumor_id, h in hists.items():
        write_histogram_json(hist_dir / f"{tumor_id}.json", h)
        summary["tumors"][tumor_id] = {"voxels": h.total, "overflow": h.overflow,
                                       "warnings": list(h.warnings)}
    _write_json(out / "ingest_summary.json", summary, meta)
    print(f"ingested {len(hists)} tumors, {len(loaded.errors)} rejected rows")
    return EXIT_OK


def cmd_synth(args, out: Path, meta: dict) -> int:
    from .synth import default_scenarios, generate, histogram_to_voxels
    scenarios = default_scenarios(seed=args.seed)
    if args.preset not in scenarios:
        print(f"error: unknown preset {args.preset!r}; "
              f"choose from {sorted(scenarios)}", file=sys.stderr)
        return EXIT_INPUT
    spec = scenarios[args.preset]
    control, treated, truth = generate(spec)
    hist_dir = out / "histograms"
    hist_dir.mkdir(exist_ok=True)
    for h in control + treated:
        write_histogram_json(hist_dir / f"{h.tumor_id}.json", h)
    _write_json(out / "ground_truth.json", {
        "quantities": {k: v.tolist() for k, v in truth.quantities.items()},
        "effect_fractions": truth.effect_fractions,
        "n_control_components": truth.n_control_components,
        "n_treatment_components": truth.n_treatment_components,
    }, meta)
    if args.emit_voxels:
        write_voxel_csv(out / "voxels.csv",
                        chain.from_iterable(map(histogram_to_voxels, control + treated)))
    print(f"generated {len(control)} control + {len(treated)} treated tumors")
    return EXIT_OK


def cmd_train(args, out: Path, meta: dict) -> int:
    from .model import train_control, train_treatment, write_model_json
    cohorts = _load_cohorts(args.histograms)
    opts = _train_options(args)
    result = train_control(cohorts["control"], args.n_control, opts)
    model = result.model
    if args.n_treatment != 0:  # a negative count is a ParameterError
        result = train_treatment(model, cohorts["treated"], args.n_treatment, opts)
        model = result.model
    model.training_meta["run"] = meta
    write_model_json(out / "model.json", model)
    print(f"trained model: {model.n_control} control + "
          f"{model.n_treatment} treatment components")
    return EXIT_OK


def cmd_select(args, out: Path, meta: dict) -> int:
    from . import svgplots
    from .model import write_model_json
    from .selection import select_components, selection_table
    cohorts = _load_cohorts(args.histograms)
    treated = cohorts["treated"]
    opts = _train_options(args)
    curve_c, best_c = select_components(cohorts["control"], "control", None,
                                        args.k_min, args.k_max, opts,
                                        jobs=args.jobs)
    write_csv(out / "selection_control.csv", meta, selection_table(curve_c))
    (out / "selection_control.svg").write_text(svgplots.selection_curve_svg(curve_c))
    model = best_c.model
    if treated:
        k_min_t = args.k_min_treatment or model.n_control + 1
        k_max_t = args.k_max_treatment or model.n_control + (args.k_max - args.k_min) + 1
        curve_t, best_t = select_components(treated, "treatment", model,
                                            k_min_t, k_max_t, opts,
                                            jobs=args.jobs)
        write_csv(out / "selection_treatment.csv", meta, selection_table(curve_t))
        (out / "selection_treatment.svg").write_text(
            svgplots.selection_curve_svg(curve_t))
        model = best_t.model
    model.training_meta["run"] = meta
    write_model_json(out / "model.json", model)
    print(f"selected {model.n_control} control + "
          f"{model.n_treatment} treatment components")
    return EXIT_OK


def cmd_fit(args, out: Path, meta: dict) -> int:
    """Score every tumor of the cohort; one that fails is recorded as failed.

    A failed tumor's numeric cells read "failed", as in loo_table, and it is
    left out of the Stouffer combination; the run then exits 1.
    """
    from .inference import combine_cohort, fit_and_score
    from .model import read_model_json
    model = read_model_json(args.model)
    cohort = _load_cohorts(args.histograms)[args.cohort]
    if not cohort:
        print(f"error: no {args.cohort} histograms found", file=sys.stderr)
        return EXIT_INPUT
    failed_cells = ["failed"] * (len(RESPONSE_COLUMNS) - 1)
    table = [RESPONSE_COLUMNS]
    results = []
    failures = []
    for h in cohort:
        try:
            r = fit_and_score(model, h)
        except AnalysisError as exc:
            failures.append((h.tumor_id, exc))
            table.append([h.tumor_id] + failed_cells)
            continue
        results.append(r)
        table.append([r.tumor_id] + [repr(getattr(r, c)) for c in RESPONSE_COLUMNS[1:]])
    if results:
        combined = combine_cohort([r.z for r in results])
        cells = [repr(combined.combined_z), repr(combined.combined_p)]
        print(f"scored {len(results)} {args.cohort} tumors, "
              f"combined z = {combined.combined_z:.2f}")
    else:
        cells = ["failed", "failed"]
    table.append(["combined"] + cells + [""] * (len(RESPONSE_COLUMNS) - 3))
    write_csv(out / f"response_{args.cohort}.csv", meta, table)
    for tumor_id, exc in failures:
        print(f"error: tumor {tumor_id}: {exc}", file=sys.stderr)
    return EXIT_ANALYSIS if failures else EXIT_OK


def cmd_validate(args, out: Path, meta: dict) -> int:
    """Run the LOO protocol; a failed fold is reported as fit reports a
    failed tumor: its row reads "failed", it is named on stderr, and the
    run exits 1 once loo_report.csv is written."""
    from .validation import leave_one_out, loo_table
    cohorts = _load_cohorts(args.histograms)
    report = leave_one_out(cohorts["control"], cohorts["treated"], args.n_control,
                           args.n_treatment, _train_options(args), jobs=args.jobs)
    write_csv(out / "loo_report.csv", meta, loo_table(report))
    print(f"{len(report.entries)} folds, "
          f"{len(report.outlier_flags)} outlier flags")
    for tumor_id, reason in report.outlier_flags:
        print(f"  outlier {tumor_id}: {reason}")
    failed = [e for e in report.entries if e.failed]
    for e in failed:
        print(f"error: fold {e.tumor_id}: {e.reason}", file=sys.stderr)
    return EXIT_ANALYSIS if failed else EXIT_OK


def cmd_baseline(args, out: Path, meta: dict) -> int:
    from .baseline import baseline_table, cohort_baseline
    tests, combined = cohort_baseline(
        chain.from_iterable(_load_cohorts(args.histograms).values()))
    write_csv(out / "baseline.csv", meta, baseline_table(tests, combined))
    print(f"baseline combined z = {combined:.2f}")
    return EXIT_OK


def cmd_report(args, out: Path, meta: dict) -> int:
    from . import svgplots
    from .inference import ResponseResult
    from .model import read_model_json
    model = read_model_json(args.model)
    results = []
    failed = []  # tumors fit could not score
    combined_z = None
    with open(args.response, newline="") as fh:
        rows = [r for r in fh if not r.startswith("#")]
    try:
        for row in csv.DictReader(rows):
            if row["z"] == "failed":
                if row["tumor_id"] != "combined":
                    failed.append(row["tumor_id"])
                continue
            if row["tumor_id"] == "combined":
                combined_z = float(row["z"])
                continue
            results.append(ResponseResult(tumor_id=row["tumor_id"], **{
                c: float(row[c]) for c in RESPONSE_COLUMNS[1:]}))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputFormatError(f"{args.response}: malformed response CSV: "
                               f"{exc!r}") from None
    (out / "effect_bars.svg").write_text(
        svgplots.effect_bar_svg(results, "Treatment volume per tumor"))
    (out / "components.svg").write_text(svgplots.pmf_heatstrip_svg(model))
    lines = [f"Model: {model.n_control} control + {model.n_treatment} "
             f"treatment components",
             f"Tumors scored: {len(results)}"]
    if failed:
        lines.append(f"Tumors failed: {', '.join(failed)}")
    if combined_z is not None:
        lines.append(f"Combined cohort z: {combined_z:.2f}")
    for r in results:
        lines.append(f"  {r.tumor_id}: z={r.z:.2f} p={r.p_two_tailed:.3g} "
                     f"effect={100 * r.effect_fraction:.2f}% "
                     f"+/- {100 * r.effect_fraction_sigma:.2f}%")
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def _parse_args(parser, argv):
    """Parse argv; with --config, parse again with the file's keys as flags.

    Each `key = value` line becomes `--key=value` (a bare `--key` for a true
    on/off flag) placed before argv, so argparse converts and checks the
    value and an explicit flag, occurring later, wins. Keys the subcommand
    does not take are ignored.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    tokens = []
    with open(args.config) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            if "=" not in raw:
                raise InputFormatError(f"bad config line: {raw!r}")
            key, value = (part.strip() for part in raw.split("=", 1))
            dest = key.replace("-", "_")
            if dest in ("command", "func", "config") or not hasattr(args, dest):
                continue
            flag = "--" + dest.replace("_", "-")
            if not isinstance(getattr(args, dest), bool):
                tokens.append(f"{flag}={value}")
            elif value.lower() in ("1", "true", "yes"):
                tokens.append(flag)
    return parser.parse_args([args.command] + tokens + argv[1:])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpm",
        description="Treatment-response analysis of paired-timepoint ADC histograms")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out-dir", default=".")

    def training(p):
        p.add_argument("--restarts", type=int, default=5)
        p.add_argument("--max-iter", type=int, default=10000)
        p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("ingest", help="bin voxel or signal CSV into histograms")
    common(p)
    p.add_argument("--voxels", help="voxel CSV (tumor_id,cohort,timepoint,adc)")
    p.add_argument("--signals", help="signal CSV, ADC fitted per voxel")
    p.add_argument("--adc-min", type=float, default=0.0)
    p.add_argument("--adc-max", type=float, default=3.0e-3)
    p.add_argument("--bins", type=int, default=32)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic cohort with ground truth")
    common(p)
    p.add_argument("--preset", default="lovo_like")
    p.add_argument("--emit-voxels", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model at fixed component counts")
    common(p)
    training(p)
    p.add_argument("--histograms", required=True)
    p.add_argument("--n-control", type=int, required=True)
    p.add_argument("--n-treatment", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("select", help="sweep component counts and pick the best")
    common(p)
    training(p)
    p.add_argument("--histograms", required=True)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--k-min-treatment", type=int, default=0)
    p.add_argument("--k-max-treatment", type=int, default=0)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("fit", help="fit a trained model and score responses")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--histograms", required=True)
    p.add_argument("--cohort", default="treated", choices=["control", "treated"])
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("validate", help="leave-one-out control validation")
    common(p)
    training(p)
    p.add_argument("--histograms", required=True)
    p.add_argument("--n-control", type=int, required=True)
    p.add_argument("--n-treatment", type=int, required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("baseline", help="conventional t-test benchmark")
    common(p)
    p.add_argument("--histograms", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("report", help="render reports from prior outputs")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--response", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, out, _meta(args))
    except AnalysisError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (LpmError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
