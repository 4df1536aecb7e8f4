"""Leave-one-out validation of control cohorts and outlier flagging.

Each control tumor is excluded in turn, the two-phase model is retrained
on the reduced control set plus the full treated set, and the excluded
tumor is scored as independent data. Component counts stay fixed across
folds; a fold that fails to train is marked failed without stopping the
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import AnalysisError, InputError
from .inference import ResponseResult, fit_and_score
from .model import TrainOptions, train_model

OUTLIER_Z = 2.0


@dataclass
class LooEntry:
    tumor_id: str
    leave_all_in: ResponseResult
    leave_one_out: ResponseResult = None  # None when the fold failed
    error: str = ""  # why the fold failed

    @property
    def failed(self) -> bool:
        return self.leave_one_out is None

    @property
    def outlier(self) -> bool:
        """The held-out z reaches OUTLIER_Z in size and exceeds the
        leave-all-in z."""
        loo = self.leave_one_out
        return (loo is not None and abs(loo.z) >= OUTLIER_Z
                and loo.z > self.leave_all_in.z)


def _run_fold(control_cohort, treated_cohort, n_control, n_treatment, opts, k):
    """(k, leave-one-out result, "") of fold k, or (k, None, error) if its
    analysis failed. The leave-all-in run has already trained on a superset
    of the fold's cohort and scored its tumor, so no fold meets an
    InputError that run did not."""
    reduced = control_cohort[:k] + control_cohort[k + 1:]
    try:
        model = train_model(reduced, treated_cohort, n_control, n_treatment, opts)
        return k, fit_and_score(model, control_cohort[k]), ""
    except AnalysisError as exc:
        return k, None, str(exc)


def leave_one_out(control_cohort, treated_cohort, n_control: int,
                  n_treatment: int, opts: TrainOptions = TrainOptions(),
                  jobs: int = 1) -> list:
    """Run the leave-all-in / leave-one-out protocol over a control cohort.

    The folds run in this process at jobs 1 and in a pool of jobs worker
    processes, at most one per fold, above it; either way the result is the
    same. Returns one LooEntry per control tumor, in cohort order.
    """
    if jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    control_cohort = list(control_cohort)
    treated_cohort = list(treated_cohort)
    if len(control_cohort) < 3:
        raise InputError("leave-one-out needs at least 3 control tumors")
    if not treated_cohort:
        raise InputError("treated cohort is empty")
    if n_treatment < 1:
        raise InputError("leave-one-out scores treatment response and needs "
                         "n_treatment >= 1")

    full_model = train_model(control_cohort, treated_cohort,
                             n_control, n_treatment, opts)
    lai = [fit_and_score(full_model, h) for h in control_cohort]
    run_fold = partial(_run_fold, control_cohort, treated_cohort,
                       n_control, n_treatment, opts)
    ks = range(len(control_cohort))
    if jobs == 1:
        folds = list(map(run_fold, ks))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(control_cohort))) as pool:
            folds = list(pool.map(run_fold, ks))
    return [LooEntry(tumor_id=h.tumor_id, leave_all_in=r, leave_one_out=loo, error=err)
            for h, r, (_, loo, err) in zip(control_cohort, lai, folds)]


def loo_table(entries) -> list:
    """Header and one row per control tumor, as loo_report.csv holds them.

    A failed fold's leave-one-out cells read "failed".
    """
    table = [("tumor_id", "z_lai", "z_loo", "p_lai", "p_loo", "effect_lai",
              "effect_loo", "err_lai", "err_loo", "outlier_flag")]
    for e in entries:
        row = [e.tumor_id]
        for attr in ("z", "p_two_tailed", "effect_fraction", "effect_fraction_sigma"):
            loo = e.leave_one_out
            row += [repr(getattr(e.leave_all_in, attr)),
                    repr(getattr(loo, attr)) if loo else "failed"]
        table.append(row + [int(e.outlier)])
    return table
