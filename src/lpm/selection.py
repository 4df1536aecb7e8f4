"""Goodness-of-fit statistic and component-count selection sweeps.

The statistic compares square-root transformed counts against the model
expectation. The square root maps Poisson counts onto approximately
Gaussian variables of variance 1/4, so residuals are scored against a
constant sigma^2 = 1/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OverParameterisedError, ParameterError, SelectionFailedError
from .model import (LpmModel, TrainOptions, model_expectation, train_control,
                    train_treatment)

SQRT_VARIANCE = 0.25
# Minimum chi2/dof improvement that justifies another component. Adding a
# spurious non-parametric component always harvests somewhat more chi2 than
# its nominal parameter count (the mixture likelihood-ratio statistic is
# non-regular), giving a systematic per-step decline of up to ~0.07 past the
# true count; 0.1 sits above that while real components improve the
# statistic by an order of magnitude more.
TIE_TOLERANCE = 0.1


@dataclass
class GoodnessOfFit:
    raw_chi2: float
    dof: int
    chi2_per_dof: float


@dataclass
class SelectionPoint:
    n_components: int
    chi2_per_dof: float
    degenerate: bool
    converged: bool


@dataclass
class SelectionCurve:
    points: list  # SelectionPoint, ascending n_components
    phase: str  # "control" | "treatment"
    chosen: int


def chi2_statistic(counts, expected, n_free_params: int = 0) -> GoodnessOfFit:
    """Chi-squared per dof between one counts grid and its expectation.

    Only cells with counts + expectation > 0 are informative and counted
    toward the degrees of freedom.
    """
    H = np.asarray(counts, dtype=float).reshape(-1)
    M = np.asarray(expected, dtype=float).reshape(-1)
    active = (H + M) > 0
    raw = float(np.sum((np.sqrt(H[active]) - np.sqrt(M[active])) ** 2) / SQRT_VARIANCE)
    dof = int(active.sum()) - n_free_params
    if dof <= 0:
        raise OverParameterisedError(
            f"{n_free_params} free parameters for {int(active.sum())} informative cells")
    return GoodnessOfFit(raw_chi2=raw, dof=dof, chi2_per_dof=raw / dof)


def chi2_per_dof(histograms, model: LpmModel, quantities,
                 n_trainable_components: int = 0) -> GoodnessOfFit:
    """Cohort chi-squared per dof for converged fits of one model.

    quantities maps tumor_id -> quantity vector. Free parameters are the
    trainable PMF cells (one normalisation constraint each) plus every
    fitted quantity.
    """
    raw = 0.0
    active = 0
    union = np.zeros(model.binning.n_cells, dtype=bool)
    for h in histograms:
        M = model_expectation(model, quantities[h.tumor_id])
        gof = chi2_statistic(h.counts, M)
        raw += gof.raw_chi2
        active += gof.dof
        union |= (h.counts + M).reshape(-1) > 0
    # PMF cells outside the cohort's populated support are unconstrained by
    # the data, so they do not count as effective free parameters
    free = (n_trainable_components * (int(union.sum()) - 1)
            + len(histograms) * model.n_components)
    dof = active - free
    if dof <= 0:
        raise OverParameterisedError(f"{free} free parameters for {active} informative cells")
    return GoodnessOfFit(raw_chi2=raw, dof=dof, chi2_per_dof=raw / dof)


def choose_component_count(points) -> int:
    """Pick the component count where the statistic stops improving.

    Walk the converged, non-degenerate points in ascending K and stop at the
    first whose successor improves chi2/dof by no more than TIE_TOLERANCE; if
    the curve keeps improving to the end, the largest candidate wins.
    """
    usable = [p for p in points if p.converged and not p.degenerate]
    if not usable:
        raise SelectionFailedError("all candidate models degenerate or unconverged")
    for i, p in enumerate(usable[:-1]):
        if p.chi2_per_dof - usable[i + 1].chi2_per_dof <= TIE_TOLERANCE:
            return p.n_components
    return usable[-1].n_components


def _train_candidate(args):
    phase, cohort, base_model, k, opts = args
    if phase == "control":
        result = train_control(cohort, k, opts)
        n_trainable, key = k, ""
    else:
        result = train_treatment(base_model, cohort, k - base_model.n_control, opts)
        n_trainable, key = k - base_model.n_control, "treatment_"
    meta = result.model.training_meta
    degenerate = bool(meta[key + "degenerate"])
    converged = bool(meta[key + "converged"])
    try:
        gof = chi2_per_dof(cohort, result.model, result.quantities,
                           n_trainable_components=n_trainable)
    except OverParameterisedError:
        # too many parameters for the data; exclude from the argmin
        gof = GoodnessOfFit(raw_chi2=float("nan"), dof=0, chi2_per_dof=float("nan"))
        degenerate = True
    return k, result, gof, degenerate, converged


def select_components(cohort, phase: str, base_model, k_min: int, k_max: int,
                      opts: TrainOptions = TrainOptions(), jobs: int = 1):
    """Sweep component counts and pick the most parsimonious near-minimum.

    For phase "control", k counts control components. For phase "treatment",
    k counts total components on top of base_model (so k starts above
    base_model.n_control). Returns (SelectionCurve, best TrainResult).
    """
    if phase not in ("control", "treatment"):
        raise ValueError(f"unknown phase {phase!r}")
    floor = 1 if phase == "control" else base_model.n_control + 1
    if k_min < floor:
        raise ParameterError(f"k_min must be >= {floor} for phase {phase}, got {k_min}")
    if k_max <= k_min:
        raise ParameterError(f"need k_max > k_min, got [{k_min}, {k_max}]")
    tasks = [(phase, list(cohort), base_model, k, opts)
             for k in range(k_min, k_max + 1)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_train_candidate, tasks))
    else:
        outcomes = [_train_candidate(t) for t in tasks]
    outcomes.sort(key=lambda o: o[0])

    points = [SelectionPoint(n_components=k, chi2_per_dof=gof.chi2_per_dof,
                             degenerate=deg, converged=conv)
              for k, _, gof, deg, conv in outcomes]
    chosen = choose_component_count(points)
    curve = SelectionCurve(points=points, phase=phase, chosen=chosen)
    best_result = next(res for k, res, *_ in outcomes if k == chosen)
    return curve, best_result


def selection_table(curve: SelectionCurve) -> list:
    """Header and one row per candidate, as selection_*.csv holds them."""
    return [("phase", "n_components", "chi2_per_dof", "degenerate", "chosen",
             "converged")] + [
        (curve.phase, p.n_components, repr(p.chi2_per_dof), int(p.degenerate),
         int(p.n_components == curve.chosen), int(p.converged))
        for p in curve.points]
