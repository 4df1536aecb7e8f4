"""Benchmark workloads: untimed input generation, the timed CLI sequence and
the output checks.

Each workload is a fixed synthetic study: the per-tumor ground-truth
quantities come from ``lpm.synth.generate`` at ``TRUTH_SEED``, and the
workload seed draws the Poisson counts of that study, so every seed is a
fresh measurement of the same tumors. (Drawing the truth from the seed too
makes the EM iteration count, and with it the wall time, vary ~2.7x between
seeds: the benchmark would measure the seed rather than the program.)
Every component carries a uniform background of ``BACKGROUND`` of its mass
(``synth.bump_pmf``'s ``floor``), so that every cell is populated in every
training cohort and no scored tumor or LOO fold has a voxel where the
trained PMFs are all zero (see ``scenario``).

The voxel CSV is written by the package's own ``synth --emit-voxels`` path
(``histogram_to_voxels`` and ``write_voxel_csv``: one row per voxel, ADC at
its bin centre). Every check returns ``(step, message)`` pairs so
that a miss is charged to the subcommand whose output it concerns.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lpm import synth
from lpm import histograms as lpm_histograms
from lpm.histograms import TIMEPOINTS, Histogram2D, read_histogram_json
from lpm.model import (ComponentPmf, TrainOptions, train_control, train_treatment,
                       write_model_json)

_HOURS = {"baseline": "0", "followup": "72"}
B_VALUES = (0.0, 250.0, 500.0, 1000.0)  # s/mm^2
S0 = 1000.0
SIGNAL_NOISE = 1e-3  # multiplicative; moves a fitted ADC by ~1e-6 of a 9e-5 bin
TRUTH_SEED = 1
# EM restarts of every training step; the CLI default of 5 would not fit
# a workload's sequence into the run budget (see README.md)
RESTARTS = 1
# share of every component's mass spread evenly over all cells: ~3 expected
# voxels per cell per tumor at the presets' 20000 voxels, against almost none in
# the Gaussian tails of the bare presets
BACKGROUND = 0.01


@dataclass
class Step:
    name: str  # unique within the sequence
    stage: str  # ingest | select | train | fit | validate | baseline | report
    argv: list


@dataclass
class Cohort:
    """Generated histograms of one cohort, keyed by tumor id, plus truth."""

    counts: dict  # tumor_id -> (n_adc_bins, 2) int array
    cohorts: dict  # tumor_id -> "control" | "treated"
    effect_fractions: dict  # treated tumor_id -> true responding fraction
    n_control: int
    n_treatment: int
    binning: object

    @classmethod
    def draw(cls, spec, seed: int):
        """Ground truth from ``spec.seed``, Poisson counts from ``seed``."""
        control, treated, truth = synth.generate(spec)
        P = np.column_stack([c.probs.reshape(-1)
                             for c in spec.control_pmfs + spec.treatment_pmfs])
        rng = np.random.default_rng(seed)
        shape = (spec.binning.n_adc_bins, 2)
        hists = control + treated
        return cls(counts={h.tumor_id: rng.poisson(P @ truth.quantities[h.tumor_id]).reshape(shape)
                           for h in hists},
                   cohorts={h.tumor_id: h.cohort for h in hists},
                   effect_fractions=dict(truth.effect_fractions),
                   n_control=truth.n_control_components,
                   n_treatment=truth.n_treatment_components,
                   binning=spec.binning)

    def histograms(self, cohort: str):
        return [Histogram2D(tumor_id=t, cohort=c, counts=self.counts[t], binning=self.binning)
                for t, c in self.cohorts.items() if c == cohort]

    @property
    def centers(self) -> np.ndarray:
        return self.binning.centers


@dataclass
class Prepared:
    """Everything the timed sequence reads plus what the checks compare to."""

    inputs: Path
    cohorts: dict  # ingest step name -> Cohort it must reproduce
    rejected: dict  # ingest step name -> injected malformed rows/groups
    scored: dict  # fit step name -> Cohort whose truth scores it


def scenario(preset: str):
    """A ``synth`` preset at ``TRUTH_SEED`` with ``BACKGROUND`` in every component.

    On the bare presets the tail cells of the ADC grid are empty in some
    training cohorts, every trained PMF is zero there, and a scored tumor
    with a voxel in such a cell makes ``fit`` exit 2 ("model expectation is
    zero on a populated cell"): 44 of 200 ``ingest_score`` seeds had a
    treated voxel outside the training support. With the background none of
    200 had, and no round-trip LOO fold either.
    """
    spec = synth.default_scenarios(TRUTH_SEED)[preset]

    def floored(c):
        probs = (1.0 - BACKGROUND) * c.probs + BACKGROUND / c.probs.size
        return ComponentPmf(probs=probs, phase=c.phase, index=c.index)

    return dataclasses.replace(spec, control_pmfs=[floored(c) for c in spec.control_pmfs],
                               treatment_pmfs=[floored(c) for c in spec.treatment_pmfs])


def _subseed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def write_voxel_csv(path: Path, cohort: Cohort, bad_lines=(), rng=None):
    """Voxel CSV of a cohort; ``bad_lines`` go in at seeded positions."""
    hists = cohort.histograms("control") + cohort.histograms("treated")
    lpm_histograms.write_voxel_csv(
        path, itertools.chain.from_iterable(map(synth.histogram_to_voxels, hists)))
    if not bad_lines:
        return
    with open(path, newline="") as fh:
        header, *lines = fh.readlines()
    for bad in bad_lines:
        lines.insert(int(rng.integers(0, len(lines) + 1)), bad)
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.writelines(lines)


def write_signal_csv(path: Path, cohort: Cohort, rng, bad_groups=()):
    """One row per (voxel, b-value); ADC at the voxel's bin centre."""
    b = np.asarray(B_VALUES)
    rows = []
    for tumor_id, counts in cohort.counts.items():
        kind = cohort.cohorts[tumor_id]
        voxel = 0
        for i, center in enumerate(cohort.centers):
            for t, timepoint in enumerate(TIMEPOINTS):
                n = int(counts[i, t])
                if n == 0:
                    continue
                noise = 1.0 + SIGNAL_NOISE * rng.standard_normal((n, b.size))
                signal = S0 * np.exp(-b * center) * noise
                for v in range(n):
                    voxel += 1
                    rows.append([[tumor_id, kind, _HOURS[timepoint], f"v{voxel}",
                                  repr(float(bv)), repr(float(s))]
                                 for bv, s in zip(b, signal[v])])
    for group in bad_groups:
        rows.insert(int(rng.integers(0, len(rows) + 1)), group)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tumor_id", "cohort", "timepoint", "voxel_id", "b", "signal"])
        for group in rows:
            writer.writerows(group)


def _read_csv_rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _file_check(step, path: Path):
    return [] if path.is_file() else [(step, f"missing {path.name}")]


def check_ingest(step, out: Path, cohort: Cohort, rejected: int):
    """The ingested histograms must equal the generated ones exactly."""
    misses = _file_check(step, out / "ingest_summary.json")
    if misses:
        return misses
    summary = json.loads((out / "ingest_summary.json").read_text())
    got = len(summary["rejected_rows"])
    if got != rejected:
        misses.append((step, f"{got} rejected rows, {rejected} injected"))
    hist_dir = out / "histograms"
    found = sorted(p.stem for p in hist_dir.glob("*.json"))
    if found != sorted(cohort.counts):
        return misses + [(step, f"tumors {found} differ from the generated cohort")]
    for tumor_id, counts in cohort.counts.items():
        h = read_histogram_json(hist_dir / f"{tumor_id}.json")
        if h.cohort != cohort.cohorts[tumor_id] or h.overflow:
            misses.append((step, f"{tumor_id}: cohort or overflow differs"))
        elif not np.array_equal(h.counts, counts):
            misses.append((step, f"{tumor_id}: histogram differs from the generated one"))
    return misses


def read_responses(path: Path) -> dict:
    return {r["tumor_id"]: r for r in _read_csv_rows(path) if r["tumor_id"] != "combined"}


def check_fit(step, out: Path, cohort: Cohort):
    path = out / "response_treated.csv"
    misses = _file_check(step, path)
    if misses:
        return misses
    rows = read_responses(path)
    if sorted(rows) != sorted(cohort.effect_fractions):
        return [(step, "scored tumors differ from the treated cohort")]
    for tumor_id, row in rows.items():
        values = [float(row[k]) for k in ("z", "effect_fraction", "effect_fraction_sigma")]
        if not all(math.isfinite(v) for v in values) or not 0 <= values[1] <= 1:
            misses.append((step, f"{tumor_id}: non-finite or out-of-range response"))
    return misses


def effect_rmse(out: Path, cohort: Cohort) -> float:
    rows = read_responses(out / "response_treated.csv")
    err = [float(rows[t]["effect_fraction"]) - f for t, f in cohort.effect_fractions.items()]
    return math.sqrt(sum(e * e for e in err) / len(err))


def chosen_counts(out: Path):
    """(control K, treatment K) chosen by the two selection sweeps."""
    chosen = {}
    for phase in ("control", "treatment"):
        rows = _read_csv_rows(out / f"selection_{phase}.csv")
        picks = [int(r["n_components"]) for r in rows if r["chosen"] == "1"]
        chosen[phase] = picks[0] if len(picks) == 1 else None
    if None in chosen.values():
        return None
    return chosen["control"], chosen["treatment"] - chosen["control"]


def loo_failed_folds(out: Path) -> int:
    return sum(r["z_loo"] == "failed" for r in _read_csv_rows(out / "loo_report.csv"))


@dataclass
class RoundTrip:
    """ingest --voxels -> select -> train -> fit -> validate -> baseline -> report."""

    preset: str
    cohort_sizes: tuple
    k_max: int
    stages: tuple  # stages whose summed wall time the report lists

    def params(self) -> dict:
        return {"preset": self.preset, "truth_seed": TRUTH_SEED, "background": BACKGROUND,
                "cohort_sizes": list(self.cohort_sizes),
                "restarts": RESTARTS, "k_min": 1, "k_max": self.k_max,
                "jobs": 1}

    def prepare(self, inputs: Path, seed: int) -> Prepared:
        spec = scenario(self.preset)
        cohort = Cohort.draw(dataclasses.replace(spec, cohort_sizes=self.cohort_sizes), seed)
        write_voxel_csv(inputs / "voxels.csv", cohort)
        return Prepared(inputs=inputs, cohorts={"ingest": cohort}, rejected={"ingest": 0},
                        scored={"fit": cohort})

    def steps(self, prep: Prepared, rep: Path, seed: int):
        cohort = prep.cohorts["ingest"]
        hist = str(rep / "ingest" / "histograms")
        model = str(rep / "train" / "model.json")
        k = [str(cohort.n_control), str(cohort.n_treatment)]
        train = ["--restarts", str(RESTARTS)]
        seq = [
            Step("ingest", "ingest", ["ingest", "--voxels", str(prep.inputs / "voxels.csv")]),
            Step("select", "select", ["select", "--histograms", hist, "--k-min", "1",
                                      "--k-max", str(self.k_max)] + train),
            Step("train", "train", ["train", "--histograms", hist, "--n-control", k[0],
                                    "--n-treatment", k[1]] + train),
            Step("fit", "fit", ["fit", "--model", model, "--histograms", hist,
                                "--cohort", "treated"]),
            Step("validate", "validate", ["validate", "--histograms", hist,
                                          "--n-control", k[0], "--n-treatment", k[1]] + train),
            Step("baseline", "baseline", ["baseline", "--histograms", hist]),
            Step("report", "report", ["report", "--model", model, "--response",
                                      str(rep / "fit" / "response_treated.csv")]),
        ]
        for s in seq:
            s.argv += ["--seed", str(seed), "--jobs", "1", "--out-dir", str(rep / s.name)]
        return seq

    def check(self, prep: Prepared, rep: Path):
        cohort = prep.cohorts["ingest"]
        misses = check_ingest("ingest", rep / "ingest", cohort, 0)
        selection = [m for phase in ("control", "treatment") for m in
                     _file_check("select", rep / "select" / f"selection_{phase}.csv")]
        if not selection and chosen_counts(rep / "select") is None:
            selection.append(("select", "a sweep did not choose exactly one K"))
        misses += selection
        model = rep / "train" / "model.json"
        misses += _file_check("train", model)
        if model.is_file():
            d = json.loads(model.read_text())
            if (d["n_control"], d["n_treatment"]) != (cohort.n_control, cohort.n_treatment):
                misses.append(("train", "model component counts differ from the request"))
        misses += check_fit("fit", rep / "fit", cohort)
        loo = rep / "validate" / "loo_report.csv"
        misses += _file_check("validate", loo)
        if loo.is_file() and len(_read_csv_rows(loo)) != len(cohort.counts) - len(
                cohort.effect_fractions):
            misses.append(("validate", "loo_report.csv does not list every control tumor"))
        base = rep / "baseline" / "baseline.csv"
        misses += _file_check("baseline", base)
        if base.is_file() and len(_read_csv_rows(base)) != 4:
            misses.append(("baseline", "baseline.csv needs 3 measures and a combined row"))
        for name in ("report.txt", "effect_bars.svg", "components.svg"):
            misses += _file_check("report", rep / "report" / name)
        return misses

    def loo_folds(self, prep: Prepared, rep: Path):
        """(folds attempted, folds failed) as listed in ``loo_report.csv``."""
        loo = rep / "validate" / "loo_report.csv"
        if not loo.is_file():  # the validate subcommand itself failed
            return 0, 0
        return len(_read_csv_rows(loo)), loo_failed_folds(rep / "validate")

    def quality(self, prep: Prepared, rep: Path, failed: set) -> dict:
        """Accuracy of the steps that succeeded: effect_rmse and k_error."""
        cohort = prep.cohorts["ingest"]
        out = {}
        if "fit" not in failed:
            out["effect_rmse"] = effect_rmse(rep / "fit", cohort)
        if "select" not in failed:
            chosen = chosen_counts(rep / "select")
            out["k_error"] = (abs(chosen[0] - cohort.n_control)
                              + abs(chosen[1] - cohort.n_treatment))
        return out


def _bad_voxel_lines(cohort: Cohort, per_kind: int):
    tumor_id = next(iter(cohort.counts))
    kind = cohort.cohorts[tumor_id]
    lines = []
    for j in range(per_kind):
        lines += [f"{tumor_id},{kind},48,0.001\r\n",  # unknown timepoint
                  f"{tumor_id},{kind},0,n/a\r\n",  # non-numeric ADC
                  f"{tumor_id},{kind},72,{-0.001 * (j + 1)!r}\r\n"]  # non-positive ADC
    return lines


def _bad_signal_groups(cohort: Cohort, per_kind: int):
    """Extra voxels that each yield exactly one rejection."""
    tumor_id = next(iter(cohort.counts))
    kind = cohort.cohorts[tumor_id]
    groups = []
    for j in range(per_kind):
        ok = [repr(S0 * math.exp(-b * 1e-3)) for b in B_VALUES]
        bs = [repr(b) for b in B_VALUES]
        groups.append([[tumor_id, kind, "48", f"bad_tp{j}", b, s]  # unknown timepoint
                       for b, s in zip(bs, ok)])
        groups.append([[tumor_id, kind, "0", f"bad_num{j}", "500.0", "n/a"]])  # non-numeric
        groups.append([[tumor_id, kind, "72", f"bad_pos{j}", b, s]  # non-positive signal
                       for b, s in zip(bs, ok[:-1] + ["0.0"])])
        groups.append([[tumor_id, kind, "0", f"bad_b{j}", "500.0", ok[2]]] * 2)  # one b-value
    return groups


@dataclass
class IngestScore:
    """New-patient path: ingest voxels and signals, score both with a trained model."""

    voxel_cohort: tuple
    signal_cohort: tuple
    signal_counts: float
    bad_per_kind: int
    stages = ("ingest", "fit")

    def params(self) -> dict:
        return {"preset": "hct_like", "truth_seeds": [TRUTH_SEED, TRUTH_SEED + 1, TRUTH_SEED + 2],
                "background": BACKGROUND,
                "voxel_cohort": list(self.voxel_cohort),
                "signal_cohort": list(self.signal_cohort),
                "signal_counts_per_tumor": self.signal_counts,
                "b_values": list(B_VALUES), "signal_noise": SIGNAL_NOISE,
                "malformed_per_kind": self.bad_per_kind,
                "model_restarts": RESTARTS, "jobs": 1}

    def prepare(self, inputs: Path, seed: int) -> Prepared:
        # three independent studies: training, voxel-path and signal-path cohorts
        spec = scenario("hct_like")
        train = Cohort.draw(spec, _subseed(seed, 0))
        opts = TrainOptions(seed=seed, restarts=RESTARTS)
        model = train_control(train.histograms("control"), train.n_control, opts).model
        model = train_treatment(model, train.histograms("treated"), train.n_treatment,
                                opts).model
        write_model_json(inputs / "model.json", model)

        voxels = Cohort.draw(dataclasses.replace(
            spec, seed=TRUTH_SEED + 1, cohort_sizes=self.voxel_cohort), _subseed(seed, 1))
        signals = Cohort.draw(dataclasses.replace(
            spec, seed=TRUTH_SEED + 2, cohort_sizes=self.signal_cohort,
            counts_per_tumor=self.signal_counts), _subseed(seed, 2))
        rng = np.random.default_rng(_subseed(seed, 3))
        bad_voxels = _bad_voxel_lines(voxels, self.bad_per_kind)
        write_voxel_csv(inputs / "voxels.csv", voxels, bad_voxels, rng)
        bad_groups = _bad_signal_groups(signals, self.bad_per_kind)
        write_signal_csv(inputs / "signals.csv", signals, rng, bad_groups)
        return Prepared(inputs=inputs,
                        cohorts={"ingest_voxels": voxels, "ingest_signals": signals},
                        rejected={"ingest_voxels": len(bad_voxels),
                                  "ingest_signals": len(bad_groups)},
                        scored={"fit_voxels": voxels, "fit_signals": signals})

    def steps(self, prep: Prepared, rep: Path, seed: int):
        model = str(prep.inputs / "model.json")
        vox = str(rep / "ingest_voxels" / "histograms")
        sig = str(rep / "ingest_signals" / "histograms")
        seq = [
            Step("ingest_voxels", "ingest", ["ingest", "--voxels", str(prep.inputs / "voxels.csv")]),
            Step("ingest_signals", "ingest", ["ingest", "--signals",
                                              str(prep.inputs / "signals.csv")]),
            Step("fit_voxels", "fit", ["fit", "--model", model, "--histograms", vox,
                                       "--cohort", "treated"]),
            Step("fit_signals", "fit", ["fit", "--model", model, "--histograms", sig,
                                        "--cohort", "treated"]),
            Step("baseline", "baseline", ["baseline", "--histograms", vox]),
        ]
        for s in seq:
            s.argv += ["--seed", str(seed), "--jobs", "1", "--out-dir", str(rep / s.name)]
        return seq

    def check(self, prep: Prepared, rep: Path):
        misses = []
        for step, cohort in prep.cohorts.items():
            misses += check_ingest(step, rep / step, cohort, prep.rejected[step])
        for step, cohort in prep.scored.items():
            misses += check_fit(step, rep / step, cohort)
        base = rep / "baseline" / "baseline.csv"
        misses += _file_check("baseline", base)
        if base.is_file() and len(_read_csv_rows(base)) != 4:
            misses.append(("baseline", "baseline.csv needs 3 measures and a combined row"))
        return misses

    def loo_folds(self, prep: Prepared, rep: Path):
        return 0, 0

    def quality(self, prep: Prepared, rep: Path, failed: set) -> dict:
        if "fit_voxels" in failed:
            return {}
        return {"effect_rmse": effect_rmse(rep / "fit_voxels", prep.scored["fit_voxels"])}


# Why each workload (BENCHMARK.json runs lovo_roundtrip and ingest_score;
# hct_roundtrip runs by name, see README.md):
# lovo_roundtrip: selection-dominated; the K sweep's over-parameterised
#   candidates and their quantity refits take most of the compute.
# hct_roundtrip: LOO-dominated at K=9; per-fold two-phase retraining and
#   fit_quantities take most of the compute.
# ingest_score: new-patient path; CSV ingest with malformed rows and
#   quantity-only fits, with no training, selection or LOO.
FULL = {
    "lovo_roundtrip": RoundTrip("lovo_like", (8, 10), k_max=6,
                                stages=("select",)),
    "hct_roundtrip": RoundTrip("hct_like", (6, 8), k_max=5,
                               stages=("select", "validate")),
    "ingest_score": IngestScore(voxel_cohort=(20, 20), signal_cohort=(2, 4),
                                signal_counts=6700.0, bad_per_kind=3),
}

# shrunken cohorts for the smoke mode: same code paths, seconds not minutes
SMOKE = {
    "lovo_roundtrip": RoundTrip("lovo_like", (3, 3), k_max=3, stages=("select",)),
    "hct_roundtrip": RoundTrip("hct_like", (3, 3), k_max=2,
                               stages=("select", "validate")),
    "ingest_score": IngestScore(voxel_cohort=(2, 2), signal_cohort=(1, 1),
                                signal_counts=300.0, bad_per_kind=1),
}
