"""Command-line orchestration of the analysis pipeline.

main parses the arguments (and --config), creates --out-dir and computes the
run header: the seed plus a hash of the resolved configuration. Each
subcommand then loads its inputs once, computes, and writes every artifact
once with that header embedded, so identical configurations produce
byte-identical outputs.

Exit codes: 0 success, 1 analysis-level failure, 2 input error. Only main
sets them: a subcommand returns nothing or raises AnalysisError or InputError.
A stdout whose reader has gone (``lpm report ... | head -1``, ``lpm --help |
head -1``) changes no exit code: what stdout shows is in the artifacts or the
help text, so _stdout drops it and the run goes on, and a failed analysis
still exits 1.

An lpm process enters at run_and_exit (``python -m lpm.cli`` and the ``lpm``
script alike). It runs main, takes argparse's exit status for --help and
usage errors, flushes stdout and stderr and ends with os._exit, which skips
interpreter finalization: freeing numpy and the other loaded modules costs a
process tens of milliseconds after its work is done. That is safe only while
three things hold: every artifact is written and closed inside main, the
leave-one-out pool is joined before main returns, and nothing registers
atexit work. Code that calls main itself (tests, perfbench's traced runs,
library callers) gets the exit code back, and its process exits as usual.

The front end (argument parsing, --config, the run header and dispatch) loads
no lpm module but lpm.errors, and no numpy, so ``lpm --help`` and a usage or
config error print at once. Each subcommand imports the layers it runs, so
``lpm ingest`` loads no model, inference, selection, validation, baseline,
synth or plotting code.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from itertools import chain
from pathlib import Path

from .errors import AnalysisError, InputError, read_input

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_INPUT = 2


# arguments that do not change results: filesystem locations and the worker
# count; excluded from the hash so reruns from or into other directories, or
# with other --jobs, produce identical artifacts
_UNHASHED_ARGS = ("func", "config", "out_dir", "histograms", "model", "response",
                  "voxels", "signals", "jobs")

# response_*.csv columns; every column after tumor_id is a ResponseResult float
RESPONSE_COLUMNS = ("tumor_id", "z", "p_two_tailed", "effect_fraction",
                    "effect_fraction_sigma", "q_treatment_total", "sigma_treatment")


def _meta(args) -> dict:
    """The run seed and a hash of every parsed argument that shapes results."""
    import hashlib
    import json
    payload = {k: v for k, v in vars(args).items() if k not in _UNHASHED_ARGS}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True,
                                       default=str).encode()).hexdigest()[:16]
    return {"seed": args.seed, "config_hash": digest}


def _stdout(call, *args):
    """call(*args), which writes to or flushes stdout. Once the reader of
    stdout has gone, stdout points at os.devnull: the artifacts hold what it
    would show, so no later write or flush fails the run."""
    try:
        call(*args)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _say(text: str):
    _stdout(print, text)


def write_csv(path: Path, meta: dict, table):
    """Write the run comment line, then the header and rows of table."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={meta['seed']} config_hash={meta['config_hash']}\n")
        csv.writer(fh, lineterminator="\n").writerows(table)


def _load_cohorts(directory) -> dict:
    """Histograms of a directory by cohort label, each list in file-name order.

    Every JSON object with a "counts" key is a histogram; other JSON files
    (ingest summaries, ground truth, models) are skipped. Tumor ids must be
    unique and every cohort one of COHORTS.
    """
    from .histograms import COHORTS
    cohorts = {label: [] for label in COHORTS}
    files = {}  # tumor_id -> file
    for p in sorted(Path(directory).glob("*.json")):
        h = read_input(p, "histogram", _histogram_or_none)
        if h is None:
            continue
        if h.cohort not in cohorts:
            raise InputError(f"{p}: cohort {h.cohort!r} is not one of {COHORTS}")
        if h.tumor_id in files:
            raise InputError(f"{files[h.tumor_id]} and {p} both hold "
                             f"tumor {h.tumor_id!r}")
        files[h.tumor_id] = p
        cohorts[h.cohort].append(h)
    if not files:
        raise InputError(f"no histogram JSON files in {directory}")
    return cohorts


def _histogram_or_none(fh):
    """The histogram of JSON file fh, or None when it holds no object with a
    "counts" key."""
    import json

    from .histograms import Histogram2D
    d = json.load(fh)
    return Histogram2D.from_json_dict(d) if isinstance(d, dict) and "counts" in d else None


def _histogram_dir(out: Path, tumor_ids) -> Path:
    """out/histograms, created if need be, for the histograms of tumor_ids.

    A histogram there that none of them overwrites, or a .json file that
    read_input cannot read, is an InputError: _load_cohorts would read it
    with them.
    """
    hist_dir = out / "histograms"
    names = {f"{tumor_id}.json" for tumor_id in tumor_ids}
    for p in sorted(hist_dir.glob("*.json")):
        if (p.name not in names
                and read_input(p, "histogram", _histogram_or_none) is not None):
            raise InputError(f"{p} holds a histogram this run would not overwrite; "
                             f"remove it or choose another --out-dir")
    hist_dir.mkdir(exist_ok=True)
    return hist_dir


def _train_options(args):
    from .model import TrainOptions
    return TrainOptions(seed=args.seed, restarts=args.restarts,
                        max_iter=args.max_iter, tol=args.tol)


def cmd_ingest(args, out: Path, meta: dict):
    from .histograms import (BinningConfig, bin_voxels, load_signal_csv, load_voxel_csv,
                             write_histogram_json, write_json)
    if bool(args.voxels) == bool(args.signals):
        raise InputError("ingest needs exactly one of --voxels and --signals")
    config = BinningConfig(adc_min=args.adc_min, adc_max=args.adc_max, n_adc_bins=args.bins)
    path = args.signals or args.voxels
    loaded = (load_signal_csv if args.signals else load_voxel_csv)(path)
    if not loaded.records:
        raise InputError("\n  ".join([f"{path}: no valid rows", *(
            f"line {line}: {msg}" for line, msg in loaded.errors)]))
    hists = bin_voxels(loaded.records, config)
    hist_dir = _histogram_dir(out, hists)
    summary = {"run": meta, "tumors": {}, "rejected_rows": [
        {"line": line, "message": msg} for line, msg in loaded.errors]}
    for tumor_id, h in hists.items():
        write_histogram_json(hist_dir / f"{tumor_id}.json", h)
        summary["tumors"][tumor_id] = {"voxels": h.total, "overflow": h.overflow,
                                       "warnings": list(h.warnings)}
    write_json(out / "ingest_summary.json", summary)
    _say(f"ingested {len(hists)} tumors, {len(loaded.errors)} rejected rows")


def cmd_synth(args, out: Path, meta: dict):
    from .histograms import write_histogram_json, write_json, write_voxel_csv
    from .synth import default_scenarios, generate, histogram_to_voxels
    scenarios = default_scenarios(seed=args.seed)
    if args.preset not in scenarios:
        raise InputError(f"unknown preset {args.preset!r}; "
                         f"choose from {sorted(scenarios)}")
    spec = scenarios[args.preset]
    control, treated, truth = generate(spec)
    hist_dir = _histogram_dir(out, [h.tumor_id for h in control + treated])
    for h in control + treated:
        write_histogram_json(hist_dir / f"{h.tumor_id}.json", h)
    write_json(out / "ground_truth.json", {
        "run": meta,
        "quantities": {k: v.tolist() for k, v in truth.quantities.items()},
        "effect_fractions": truth.effect_fractions,
        "n_control_components": truth.n_control_components,
        "n_treatment_components": truth.n_treatment_components,
    })
    if args.emit_voxels:
        write_voxel_csv(out / "voxels.csv",
                        chain.from_iterable(map(histogram_to_voxels, control + treated)))
    _say(f"generated {len(control)} control + {len(treated)} treated tumors")


def cmd_train(args, out: Path, meta: dict):
    from .model import train_model, write_model_json
    cohorts = _load_cohorts(args.histograms)
    model = train_model(cohorts["control"], cohorts["treated"], args.n_control,
                        args.n_treatment, _train_options(args))
    model.training_meta["run"] = meta
    write_model_json(out / "model.json", model)
    _say(f"trained model: {model.n_control} control + "
         f"{model.n_treatment} treatment components")


def cmd_select(args, out: Path, meta: dict):
    from . import svgplots
    from .model import write_model_json
    from .selection import select_components, selection_table
    cohorts = _load_cohorts(args.histograms)
    treated = cohorts["treated"]
    opts = _train_options(args)
    curve_c, best_c = select_components(cohorts["control"], None, args.k_min,
                                        args.k_max, opts)
    write_csv(out / "selection_control.csv", meta, selection_table(curve_c))
    (out / "selection_control.svg").write_text(svgplots.selection_curve_svg(curve_c))
    model = best_c.model
    if treated:
        k_min_t = model.n_control + 1
        curve_t, best_t = select_components(treated, model, k_min_t,
                                            k_min_t + args.k_max - args.k_min, opts)
        write_csv(out / "selection_treatment.csv", meta, selection_table(curve_t))
        (out / "selection_treatment.svg").write_text(
            svgplots.selection_curve_svg(curve_t))
        model = best_t.model
    model.training_meta["run"] = meta
    write_model_json(out / "model.json", model)
    _say(f"selected {model.n_control} control + "
         f"{model.n_treatment} treatment components")


def cmd_fit(args, out: Path, meta: dict):
    """Score every tumor of the cohort; one that fails is recorded as failed.

    A failed tumor's numeric cells read "failed", as in loo_table, and it is
    left out of the Stouffer combination; once the response CSV is written,
    one AnalysisError names each failed tumor and its reason.
    """
    from .histograms import shown_id
    from .inference import combine_cohort, fit_and_score
    from .model import read_model_json
    model = read_model_json(args.model)
    cohort = _load_cohorts(args.histograms)[args.cohort]
    if not cohort:
        raise InputError(f"no {args.cohort} histograms in {args.histograms}")
    failed_cells = ["failed"] * (len(RESPONSE_COLUMNS) - 1)
    table = [RESPONSE_COLUMNS]
    results = []
    failures = []
    for h in cohort:
        try:
            r = fit_and_score(model, h)
        except AnalysisError as exc:
            failures.append(f"tumor {shown_id(h.tumor_id)}: {exc}")
            table.append([h.tumor_id] + failed_cells)
            continue
        results.append(r)
        table.append([r.tumor_id] + [repr(getattr(r, c)) for c in RESPONSE_COLUMNS[1:]])
    if results:
        combined = combine_cohort([r.z for r in results])
        cells = [repr(combined.combined_z), repr(combined.combined_p)]
    else:
        cells = ["failed", "failed"]
    table.append(["combined"] + cells + [""] * (len(RESPONSE_COLUMNS) - 3))
    write_csv(out / f"response_{args.cohort}.csv", meta, table)
    if results:
        _say(f"scored {len(results)} {args.cohort} tumors, "
             f"combined z = {combined.combined_z:.2f}")
    if failures:
        raise AnalysisError("; ".join(failures))


def cmd_validate(args, out: Path, meta: dict):
    """Run the LOO protocol; a failed fold is reported as fit reports a
    failed tumor: its row reads "failed", and once loo_report.csv is written
    one AnalysisError names each failed fold and its reason."""
    from .histograms import shown_id
    from .validation import OUTLIER_Z, leave_one_out, loo_table
    cohorts = _load_cohorts(args.histograms)
    entries = leave_one_out(cohorts["control"], cohorts["treated"], args.n_control,
                            args.n_treatment, _train_options(args), jobs=args.jobs)
    write_csv(out / "loo_report.csv", meta, loo_table(entries))
    outliers = [e for e in entries if e.outlier]
    _say(f"{len(entries)} folds, {len(outliers)} outlier flags")
    for e in outliers:
        _say(f"  outlier {shown_id(e.tumor_id)}: leave-one-out z={e.leave_one_out.z:.2f} "
             f">= {OUTLIER_Z} and exceeds leave-all-in z={e.leave_all_in.z:.2f}")
    failed = [f"fold {shown_id(e.tumor_id)}: {e.error}" for e in entries if e.failed]
    if failed:
        raise AnalysisError("; ".join(failed))


def cmd_baseline(args, out: Path, meta: dict):
    from .baseline import baseline_table, cohort_baseline
    cohorts = _load_cohorts(args.histograms)
    tests, combined = cohort_baseline(cohorts["control"], cohorts["treated"])
    write_csv(out / "baseline.csv", meta, baseline_table(tests, combined))
    _say(f"baseline combined z = {combined:.2f}")


def _finite(text: str) -> float:
    """float(text), rejecting nan and +-inf; lpm fit writes neither."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _read_response(fh):
    """The scored ResponseResults, the ids of failed tumors and the combined z
    (None if it failed) of response_*.csv file fh; each number must be finite."""
    from .inference import ResponseResult
    results = []
    failed = []  # tumors fit could not score
    combined_z = None
    rows = fh.readlines()
    if rows and rows[0].startswith("#"):  # the run comment; a tumor id may start with #
        del rows[0]
    for row in csv.DictReader(rows):
        if row["z"] == "failed":
            if row["tumor_id"] != "combined":
                failed.append(row["tumor_id"])
            continue
        if row["tumor_id"] == "combined":
            combined_z = _finite(row["z"])
            continue
        results.append(ResponseResult(tumor_id=row["tumor_id"], **{
            c: _finite(row[c]) for c in RESPONSE_COLUMNS[1:]}))
    return results, failed, combined_z


def cmd_report(args, out: Path, meta: dict):
    from . import svgplots
    from .histograms import shown_id
    from .model import read_model_json
    model = read_model_json(args.model)
    results, failed, combined_z = read_input(args.response, "response CSV", _read_response)
    (out / "effect_bars.svg").write_text(
        svgplots.effect_bar_svg(results, "Treatment volume per tumor"))
    (out / "components.svg").write_text(svgplots.pmf_heatstrip_svg(model))
    lines = [f"Model: {model.n_control} control + {model.n_treatment} "
             f"treatment components",
             f"Tumors scored: {len(results)}"]
    if failed:
        lines.append(f"Tumors failed: {', '.join(map(shown_id, failed))}")
    if combined_z is not None:
        lines.append(f"Combined cohort z: {combined_z:.2f}")
    for r in results:
        lines.append(f"  {shown_id(r.tumor_id)}: z={r.z:.2f} p={r.p_two_tailed:.3g} "
                     f"effect={100 * r.effect_fraction:.2f}% "
                     f"+/- {100 * r.effect_fraction_sigma:.2f}%")
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    _say("\n".join(lines))


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
    for raw in read_input(args.config, "config file", list):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        if "=" not in raw:
            raise InputError(f"{args.config}: bad config line: {raw!r}")
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

    def jobs(text):  # argparse names it in "invalid jobs value: ..."
        n = int(text)
        if n < 1:
            raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {n}")
        return n

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--jobs", type=jobs, default=1)
    common.add_argument("--out-dir", default=".")
    training = argparse.ArgumentParser(add_help=False, parents=[common])
    training.add_argument("--restarts", type=int, default=5)
    training.add_argument("--max-iter", type=int, default=10000)
    training.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("ingest", parents=[common],
                       help="bin voxel or signal CSV into histograms")
    p.add_argument("--voxels", help="voxel CSV (tumor_id,cohort,timepoint,adc)")
    p.add_argument("--signals", help="signal CSV, ADC fitted per voxel")
    p.add_argument("--adc-min", type=float, default=0.0)
    p.add_argument("--adc-max", type=float, default=3.0e-3)
    p.add_argument("--bins", type=int, default=32)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic cohort with ground truth")
    p.add_argument("--preset", default="lovo_like")
    p.add_argument("--emit-voxels", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[training],
                       help="train a model at fixed component counts")
    p.add_argument("--histograms", required=True)
    p.add_argument("--n-control", type=int, required=True)
    p.add_argument("--n-treatment", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("select", parents=[training],
                       help="sweep component counts and pick the best")
    p.add_argument("--histograms", required=True)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=6)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("fit", parents=[common], help="fit a trained model and score responses")
    p.add_argument("--model", required=True)
    p.add_argument("--histograms", required=True)
    p.add_argument("--cohort", default="treated", choices=["control", "treated"])
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("validate", parents=[training], help="leave-one-out control validation")
    p.add_argument("--histograms", required=True)
    p.add_argument("--n-control", type=int, required=True)
    p.add_argument("--n-treatment", type=int, required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("baseline", parents=[common], help="conventional t-test benchmark")
    p.add_argument("--histograms", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("report", parents=[common], help="render reports from prior outputs")
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
        args.func(args, out, _meta(args))
    except AnalysisError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def run_and_exit(argv=None):
    """The process entry: main's exit code, or argparse's for --help and usage
    errors, after stdout and stderr are flushed; ends by os._exit (see the
    module docstring). An unexpected exception propagates with its traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    _stdout(sys.stdout.flush)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
