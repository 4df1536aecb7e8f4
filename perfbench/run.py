#!/usr/bin/env python3
"""Benchmark of the ``lpm`` command line, end to end and per layer.

    python3 perfbench/run.py --workload lovo_roundtrip --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and nothing needs installing. Inputs are generated from ``--seed``
with ``lpm.synth`` (untimed). With ``--trace 0`` the workload's subcommands
run as child processes, one at a time, with ``--jobs 1`` and BLAS pinned to
one thread, round after round for ``--seconds`` (the first round whole, the
last one possibly part-way); each subcommand's time is its median over the
rounds, and ``wall_s`` is the sum of those medians. Set-up probes
(``lpm --help`` processes) run between the subcommands.
With ``--trace 1`` one child-process sequence is followed by four in-process
runs of ``lpm.cli.main`` on the same inputs: an untimed warm-up, an untraced
one, one with timing spans around every public function of every layer (see
``spans.py``) and an untraced one again.

Every output is checked: exit codes, exact reproduction of the generated
histograms by ingest, rejected-row counts, well-formed results, and a hash of
every artifact against the first round at the same seed and source.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any check failed and 2
when the checkout has no ``src/lpm``. ``--smoke`` shrinks the cohorts and
runs once, so a broken harness fails in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # scratch space, hash references and result records
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9  # at least; one before every second subcommand, the rest at the end
CHILD_TIMEOUT_S = 150.0
WORKLOADS = ("lovo_roundtrip", "hct_roundtrip", "ingest_score")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrunken cohorts, one round, one set-up probe")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_child(argv, log: Path):
    """Run one CLI process; returns (seconds, exit code, max RSS in MB)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "lpm.cli"] + argv, cwd=ROOT,
                                env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def probe_setup(log: Path) -> float:
    """One fresh ``lpm --help`` process: interpreter, imports and parser."""
    return run_child(["--help"], log)[0]


def digest_tree(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(args, workload) -> dict:
    import numpy
    import scipy

    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "params": workload.params(), "commit": commit or "unknown (not a git checkout)",
            "source_digest": source_digest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_ENV,
            "platform": platform.platform()}


def high_percentile(values):
    """Highest whole percentile with at least ten samples above it, if > 50."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Ledger:
    """Operations attempted and failed, plus every miss with its step.

    An operation is one subcommand or one LOO fold. A subcommand that exits
    nonzero, or a fold the program records as failed, is a failed operation
    that the program reported itself: it is counted and listed, and the
    checks of that subcommand's outputs are skipped. A failed check on the
    output of a subcommand that reported success is a miss: the output is
    wrong, and the run is not correct.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list = []
        self.notes: list = []

    def record(self, rep_label, steps, exits, misses, loo) -> bool:
        """Count one sequence's operations; True when none of them failed."""
        exited = {s.name for s, code in zip(steps, exits) if code != 0}
        self.notes += [(rep_label, s.name, f"exit code {code}")
                       for s, code in zip(steps, exits) if code != 0]
        self.misses += [(rep_label, step, msg) for step, msg in misses]
        folds, folds_failed = loo
        if folds_failed:
            self.notes.append((rep_label, "validate", f"{folds_failed} LOO folds failed"))
        self.attempted += len(steps) + folds
        failed = len(exited | {step for step, _ in misses}) + folds_failed
        self.failed += failed
        return failed == 0


class HashReference:
    """Artifact hashes of the first round at one seed and source digest."""

    def __init__(self, key: str):
        self.path = STATE / "hashes" / f"{key}.json"
        self.ref = json.loads(self.path.read_text()) if self.path.is_file() else None

    def compare(self, steps, rep: Path):
        got = {s.name: digest_tree(rep / s.name) for s in steps if (rep / s.name).is_dir()}
        if self.ref is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(got, indent=1, sort_keys=True))
            self.ref = got
            return []
        return [(s.name, "artifacts differ from the first run at this seed")
                for s in steps if got.get(s.name) != self.ref.get(s.name)]


def run_rounds(workload, prep, work: Path, logs: Path, seed: int, seconds: float,
               probe=None, once=False):
    """Run the sequence round after round, one subcommand at a time.

    The first round always runs whole. After it a subcommand is started
    only when its previous time says it ends within ``seconds`` of the
    start, so the last round may stop part-way and the budget is used to
    its end. ``probe()`` runs before every second subcommand and returns its
    time. Returns one dict per round: its directory, the steps that ran,
    their times, exit codes and max RSS.
    """
    deadline = time.perf_counter() + seconds
    rounds, last, setup_s, n = [], {}, [], 0
    while True:
        rep = work / f"rep{len(rounds)}"
        done = {"rep": rep, "steps": [], "times": {}, "exits": [], "rss": []}
        for s in workload.steps(prep, rep, seed):
            due = probe is not None and n % 2 == 0
            if rounds and (once or time.perf_counter() + last[s.name]
                           + (statistics.median(setup_s) if due else 0.0) > deadline):
                return rounds + ([done] if done["steps"] else [])
            if due:
                setup_s.append(probe())
            took, code, mb = run_child(s.argv, logs / f"{rep.name}-{s.name}.log")
            last[s.name] = took
            n += 1
            done["steps"].append(s)
            done["times"][s.name] = took
            done["exits"].append(code)
            done["rss"].append(mb)
        rounds.append(done)


def run_in_process(steps, logs: Path, label: str, wrap=None):
    """Call ``lpm.cli.main`` for each step; returns (seconds, exit codes)."""
    from lpm import cli

    main = wrap(cli.main) if wrap else cli.main
    exits = []
    buf = io.StringIO()
    t0 = time.perf_counter()
    for s in steps:
        with contextlib.redirect_stdout(buf):
            exits.append(main(list(s.argv)))
    seconds = time.perf_counter() - t0
    (logs / f"{label}.log").write_text(buf.getvalue())
    return seconds, exits


def sampled(name, unit, values):
    """A table row for a metric that is the median of its samples."""
    return name, unit, statistics.median(values), len(values), high_percentile(values)


def print_table(rows):
    """rows: (name, unit, value, samples, high percentile or None)."""
    print(f"{'metric':40s} {'unit':9s} {'value':>14s} {'high pct':>20s} {'n':>4s}")
    for name, unit, value, n, hp in rows:
        hp_s = f"p{hp[0]}={hp[1]:.6g}" if hp else "-"
        print(f"{name:40s} {unit:9s} {value:14.6g} {hp_s:>20s} {n:4d}")


def bench(args) -> int:
    import workloads

    catalogue = workloads.SMOKE if args.smoke else workloads.FULL
    workload = catalogue[args.workload]
    env = environment(args, workload)
    mode = "smoke" if args.smoke else "full"
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs, logs = work / "inputs", work / "logs"
    for d in (inputs, logs):
        d.mkdir(parents=True)
    ledger = Ledger()
    hashes = HashReference(f"{args.workload}-seed{args.seed}-{mode}-{env['source_digest']}")
    try:
        prep = workload.prepare(inputs, args.seed)
        all_steps = workload.steps(prep, work / "rep0", args.seed)
        setup = []

        def probe():
            setup.append(probe_setup(logs / "setup.log"))
            return setup[-1]

        def finish_rep(label, steps, rep, exits):
            """Check the steps of one round that ran; returns (quality, none failed)."""
            ran = {s.name for s in steps}
            exited = {s.name for s, code in zip(steps, exits) if code != 0}
            misses = [m for m in workload.check(prep, rep) if m[0] in ran - exited]
            misses += hashes.compare(steps, rep)
            clean = ledger.record(label, steps, exits, misses, workload.loo_folds(prep, rep))
            skipped = {s.name for s in all_steps} - ran
            return workload.quality(prep, rep, exited | skipped | {m[0] for m in misses}), clean

        rounds = run_rounds(workload, prep, work, logs, args.seed, args.seconds,
                            probe=None if args.smoke else probe,
                            once=args.smoke or bool(args.trace))
        for r in rounds:
            r["quality"], r["clean"] = finish_rep(r["rep"].name, r["steps"], r["rep"],
                                                  r["exits"])
            r["rep"], r["steps"] = r["rep"].name, [s.name for s in r["steps"]]
        while len(setup) < (1 if args.smoke else SETUP_PROBES):
            probe()

        layer_rows = layers = None
        if args.trace:
            layers, layer_rows = traced_layers(workload, prep, args, work, logs, all_steps,
                                               sum(rounds[0]["times"].values()),
                                               statistics.median(setup), finish_rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # each subcommand's time is its median over the rounds; a round with a
    # failed operation ran less work (``fit`` stops at the first tumor it
    # cannot score), so its times count only when no round ran the step clean
    timed = [r for r in rounds if r["clean"]]
    times, rss = {}, {}
    for s in all_steps:
        times[s.name] = ([r["times"][s.name] for r in timed if s.name in r["times"]]
                         or [r["times"][s.name] for r in rounds if s.name in r["times"]])
        rss[s.name] = [mb for r in rounds for name, mb in zip(r["steps"], r["rss"])
                       if name == s.name]
    step_s = {name: statistics.median(v) for name, v in times.items()}
    n_times = sum(map(len, times.values()))
    rows = [("wall_s", "s", sum(step_s.values()), n_times, None),
            sampled("setup_s", "s", setup),
            ("peak_rss_mb", "MB", max(map(statistics.median, rss.values())), n_times, None),
            ("ops_failed_frac", "ratio", ledger.failed / ledger.attempted, ledger.attempted,
             None)]
    for stage in workload.stages:
        names = [s.name for s in all_steps if s.stage == stage]
        rows.append((f"{stage}_s", "s", sum(step_s[k] for k in names),
                     sum(len(times[k]) for k in names), None))
    for key, unit in (("effect_rmse", "fraction"), ("k_error", "count")):
        values = [r["quality"][key] for r in rounds if key in r["quality"]]
        if values:
            rows.append(sampled(key, unit, values))
    for name, values in times.items():
        rows.append(sampled(f"step.{name}_s", "s", values))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} mode {mode}: "
          f"{len(rounds)} round(s) of {len(all_steps)} subcommands, {n_times} subcommands "
          f"timed, {len(setup)} set-up probes")
    print("env " + json.dumps(env, sort_keys=True))
    print_table(rows)
    if layer_rows:
        print("per-layer (traced in-process run):")
        print_table(layer_rows)
    for label, step, msg in ledger.notes:
        print(f"FAILED OPERATIONS [{label}] {step}: {msg}")
    for label, step, msg in ledger.misses:
        print(f"CHECK FAILED [{label}] {step}: {msg}")

    by_name = {name: (unit, value) for name, unit, value, _, _ in rows}
    e2e = ("wall_s", "setup_s", "peak_rss_mb")
    chosen = layers if args.trace else {k: by_name[k] for k in e2e}
    correct = not ledger.misses
    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (u, v) in chosen.items()}}
    record = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{mode}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"env": env, "rounds": rounds, "setup_s": setup,
                                  "summary": {n: {"unit": u, "value": v, "samples": k}
                                              for n, u, v, k, _ in rows},
                                  "layers": {n: {"unit": u, "value": v}
                                             for n, u, v, _, _ in layer_rows or []},
                                  "misses": ledger.misses, "notes": ledger.notes,
                                  "result": result},
                                 indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def traced_layers(workload, prep, args, work, logs, child_steps, child_wall_s, setup_s,
                  finish_rep):
    """In-process runs: warm-up, untraced, traced, untraced again.

    The warm-up pays the one-off costs of the harness process (lazy imports,
    first-touch allocations; ~3 s of ~11 s on lovo_roundtrip), and the two
    untraced runs around the traced one cancel a linear drift in machine
    speed, so that traced minus untraced time measures the tracing and not
    the order of the runs. Returns (JSON metrics, table rows).
    """
    import spans

    compute_s = {}
    tracer = spans.Tracer()
    for label in ("warmup", "untraced", "traced", "untraced_again"):
        rep = work / label
        steps = workload.steps(prep, rep, args.seed)
        if label == "traced":
            with spans.traced(tracer):
                seconds, exits = run_in_process(steps, logs, label,
                                                wrap=lambda f: tracer.wrap("cli.main", f))
        else:
            seconds, exits = run_in_process(steps, logs, label)
        compute_s[label] = seconds
        finish_rep(label, steps, rep, exits)

    g = tracer.get
    traced_s = compute_s["traced"]
    untraced_s = (compute_s["untraced"] + compute_s["untraced_again"]) / 2
    child_compute_s = child_wall_s - len(child_steps) * setup_s

    def share(seconds):
        return seconds / traced_s

    loads = (g("histograms.load_voxel_csv"), g("histograms.load_signal_csv"))
    fq = g("model.fit_quantities")
    trains = (g("model.train_control"), g("model.train_treatment"))
    fits = sum(st.counts.get("fits", 0) for st in trains + (fq,))
    unconverged = sum(st.counts.get("unconverged", 0) for st in trains + (fq,))
    voxel_rows = loads[0].counts.get("records", 0) + loads[0].counts.get("rejected", 0)
    svg_s = sum(st.total_s for name, st in tracer.spans.items() if name.startswith("svgplots."))
    folds = g("validation._run_fold")
    m = {
        "cli.self_s": ("s", g("cli.main").self_s),
        "cli.startup_share": ("fraction", len(child_steps) * setup_s / child_wall_s),
        "histograms.load_voxel_csv_s": ("s", loads[0].total_s),
        "histograms.voxel_rows_per_s": ("1/s", voxel_rows / loads[0].total_s),
        "histograms.bin_voxels_s": ("s", g("histograms.bin_voxels").total_s),
        "histograms.rows_rejected": ("count", sum(st.counts.get("rejected", 0) for st in loads)),
        "histograms.load_signal_csv.share": ("fraction", share(loads[1].total_s)),
        "model.train_control.share": ("fraction", share(trains[0].self_s)),
        "model.train_control.calls": ("count", trains[0].calls),
        "model.train_control.iterations": ("count", trains[0].counts.get("iterations", 0)),
        "model.train_treatment.share": ("fraction", share(trains[1].self_s)),
        "model.train_treatment.calls": ("count", trains[1].calls),
        "model.train_treatment.iterations": ("count", trains[1].counts.get("iterations", 0)),
        "model.fit_quantities_s": ("s", fq.self_s),
        "model.fit_quantities.calls": ("count", fq.calls),
        "model.fit_quantities.iterations": ("count", fq.counts.get("iterations", 0)),
        "model.fit_quantities.us_per_iter": (
            "us", 1e6 * fq.total_s / max(fq.counts.get("iterations", 0), 1)),
        "model.unconverged": ("fraction", unconverged / max(fits, 1)),
        "selection.select_components.share": ("fraction",
                                              share(g("selection.select_components").total_s)),
        "selection.candidates": ("count", g("selection.select_components").counts.get(
            "candidates", 0)),
        "selection.candidates_degenerate": ("count", g(
            "selection.select_components").counts.get("degenerate", 0)),
        "inference.fit_and_score_s": ("s", g("inference.fit_and_score").layer_s),
        "inference.fit_and_score.calls": ("count", g("inference.fit_and_score").calls),
        "inference.quantity_covariance_s": ("s", g("inference.quantity_covariance").total_s),
        "inference.pinv_used": ("count", g("inference.quantity_covariance").counts.get(
            "pinv_used", 0)),
        "validation.leave_one_out.share": ("fraction",
                                           share(g("validation.leave_one_out").total_s)),
        "validation.folds": ("count", folds.calls),
        "validation.folds_failed": ("count", folds.counts.get("failed", 0)),
        "baseline.cohort_baseline_s": ("s", g("baseline.cohort_baseline").total_s),
        "svgplots.share": ("fraction", share(svg_s)),
        "trace.overhead_s": ("s", traced_s - untraced_s),
        "trace.overhead_frac": ("fraction", traced_s / untraced_s - 1.0),
        "trace.spans": ("count", tracer.span_count),
    }
    # the same layers in seconds, as named in the layer list, for the table
    signal_voxels = loads[1].counts.get("records", 0)
    extra = {
        "histograms.load_signal_csv_s": ("s", loads[1].total_s),
        "histograms.signal_voxels_per_s": (
            "1/s", signal_voxels / loads[1].total_s if loads[1].calls else 0.0),
        "model.train_control_s": ("s", trains[0].self_s),
        "model.train_treatment_s": ("s", trains[1].self_s),
        "selection.select_components_s": ("s", g("selection.select_components").total_s),
        "validation.leave_one_out_s": ("s", g("validation.leave_one_out").total_s),
        "validation.fold_s": ("s", folds.total_s / folds.calls if folds.calls else 0.0),
        "svgplots_s": ("s", svg_s),
        # spans x the measured cost of one span: the overhead without the
        # run-to-run noise that the traced-minus-untraced difference carries
        "trace.overhead_est_s": ("s", tracer.span_count * spans.span_cost_s()),
        "trace.compute_untraced_s": ("s", untraced_s),
        "trace.compute_traced_s": ("s", traced_s),
        "trace.child_compute_s": ("s", child_compute_s),
        "trace.accounted_frac": ("fraction", traced_s / child_compute_s),
        "trace.unaccounted_s": ("s", child_compute_s - traced_s),
    }
    for layer, seconds in sorted(tracer.layer_self_s().items()):
        extra[f"layer.{layer}.self_s"] = ("s", seconds)
    rows = [sampled(k, u, [v]) for k, (u, v) in list(m.items()) + list(extra.items())]
    return m, rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lpm" / "cli.py").is_file():
        print(f"error: {SRC / 'lpm'} not found; run from a full source checkout",
              file=sys.stderr)
        return 2
    # a terminated run unwinds like an interrupted one: the running child is
    # killed and waited for, and the scratch inputs are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(bench(argparse.Namespace(**dict(vars(args), workload=name)))
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
