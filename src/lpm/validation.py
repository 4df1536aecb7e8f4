"""Leave-one-out validation of control cohorts and outlier flagging.

Each control tumor is excluded in turn, the two-phase model is retrained
on the reduced control set plus the full treated set, and the excluded
tumor is scored as independent data. Component counts stay fixed across
folds; a fold that fails to train is marked failed without stopping the
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyInputError, LpmError
from .inference import ResponseResult, fit_and_score
from .model import TrainOptions, train_model

OUTLIER_Z = 2.0


@dataclass
class LooEntry:
    tumor_id: str
    leave_all_in: ResponseResult
    leave_one_out: ResponseResult = None  # None when the fold failed
    outlier: bool = False
    reason: str = ""

    @property
    def failed(self) -> bool:
        return self.leave_one_out is None


@dataclass
class LooReport:
    entries: list
    outlier_flags: list  # (tumor_id, reason)


def _run_fold(args):
    control_cohort, treated_cohort, n_control, n_treatment, opts, k = args
    reduced = control_cohort[:k] + control_cohort[k + 1:]
    try:
        model = train_model(reduced, treated_cohort, n_control, n_treatment, opts)
        return k, fit_and_score(model, control_cohort[k]), ""
    except LpmError as exc:
        return k, None, str(exc)


def leave_one_out(control_cohort, treated_cohort, n_control: int,
                  n_treatment: int, opts: TrainOptions = TrainOptions(),
                  jobs: int = 1) -> LooReport:
    """Run the leave-all-in / leave-one-out protocol over a control cohort."""
    control_cohort = list(control_cohort)
    treated_cohort = list(treated_cohort)
    if len(control_cohort) < 3:
        raise EmptyInputError("leave-one-out needs at least 3 control tumors")
    if not treated_cohort:
        raise EmptyInputError("treated cohort is empty")
    if n_treatment < 1:
        raise LpmError("leave-one-out scores treatment response and needs "
                       "n_treatment >= 1")

    full_model = train_model(control_cohort, treated_cohort,
                             n_control, n_treatment, opts)
    lai = [fit_and_score(full_model, h) for h in control_cohort]

    tasks = [(control_cohort, treated_cohort, n_control, n_treatment, opts, k)
             for k in range(len(control_cohort))]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            fold_results = list(pool.map(_run_fold, tasks))
    else:
        fold_results = [_run_fold(t) for t in tasks]

    entries = []
    flags = []
    for (k, loo, err), lai_result in zip(fold_results, lai):
        tumor_id = control_cohort[k].tumor_id
        entry = LooEntry(tumor_id=tumor_id, leave_all_in=lai_result,
                         leave_one_out=loo, reason=err)
        if loo is not None and abs(loo.z) >= OUTLIER_Z and loo.z > lai_result.z:
            entry.outlier = True
            entry.reason = (f"leave-one-out z={loo.z:.2f} >= {OUTLIER_Z} "
                            f"and exceeds leave-all-in z={lai_result.z:.2f}")
            flags.append((tumor_id, entry.reason))
        entries.append(entry)
    return LooReport(entries=entries, outlier_flags=flags)


def loo_table(report: LooReport) -> list:
    """Header and one row per control tumor, as loo_report.csv holds them.

    A failed fold's leave-one-out cells read "failed".
    """
    table = [("tumor_id", "z_lai", "z_loo", "p_lai", "p_loo", "effect_lai",
              "effect_loo", "err_lai", "err_loo", "outlier_flag")]
    for e in report.entries:
        row = [e.tumor_id]
        for attr in ("z", "p_two_tailed", "effect_fraction", "effect_fraction_sigma"):
            loo = e.leave_one_out
            row += [repr(getattr(e.leave_all_in, attr)),
                    repr(getattr(loo, attr)) if loo else "failed"]
        table.append(row + [int(e.outlier)])
    return table
