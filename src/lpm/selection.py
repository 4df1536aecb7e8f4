"""Goodness-of-fit statistic and component-count selection sweeps.

The statistic compares square-root transformed counts against the model
expectation. The square root maps Poisson counts onto approximately
Gaussian variables of variance 1/4, so residuals are scored against a
constant sigma^2 = 1/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, InputError
from .model import (LpmModel, TrainOptions, _control_residual, fit_quantities,
                    model_expectation, train_control, train_treatment)

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

    @property
    def usable(self) -> bool:
        """Converged and not degenerate: a point the selection rule reads."""
        return self.converged and not self.degenerate


@dataclass
class SelectionCurve:
    points: list  # SelectionPoint, ascending n_components
    phase: str  # "control", or "treatment" for a sweep on a base model
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
        raise AnalysisError(
            f"{n_free_params} free parameters for {int(active.sum())} informative cells")
    return GoodnessOfFit(raw_chi2=raw, dof=dof, chi2_per_dof=raw / dof)


def chi2_per_dof(histograms, model: LpmModel, quantities,
                 n_trainable_components: int = 0) -> GoodnessOfFit:
    """Cohort chi-squared per dof for converged fits of one model.

    quantities holds one quantity vector per histogram, in the same order.
    Free parameters are the trainable PMF cells (one normalisation
    constraint each) plus every fitted quantity.
    """
    raw = 0.0
    active = 0
    union = np.zeros(model.binning.n_cells, dtype=bool)
    for h, q in zip(histograms, quantities, strict=True):
        M = model_expectation(model, q)
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
        raise AnalysisError(f"{free} free parameters for {active} informative cells")
    return GoodnessOfFit(raw_chi2=raw, dof=dof, chi2_per_dof=raw / dof)


def _first_tie(points):
    """(point, successor) of the first usable point whose next usable
    successor improves chi2/dof by no more than TIE_TOLERANCE, or None.

    The usable points of a prefix of a sweep are a prefix of the sweep's
    usable points, so a tie found in a prefix is the whole sweep's first tie.
    """
    usable = [p for p in points if p.usable]
    for p, successor in zip(usable, usable[1:]):
        if p.chi2_per_dof - successor.chi2_per_dof <= TIE_TOLERANCE:
            return p, successor
    return None


def choose_component_count(points) -> int:
    """Pick the component count where the statistic stops improving.

    Walk the usable points in ascending K and stop at the first whose
    successor improves chi2/dof by no more than TIE_TOLERANCE; if the curve
    keeps improving to the end, the largest candidate wins.
    """
    usable = [p for p in points if p.usable]
    if not usable:
        raise AnalysisError("all candidate models degenerate or unconverged")
    tie = _first_tie(usable)
    return (tie[0] if tie else usable[-1]).n_components


def _train_candidate(cohort, base_model, opts, k, residual):
    """(SelectionPoint, TrainResult) of one candidate component count;
    residual seeds a treatment candidate (see train_treatment)."""
    if base_model is None:
        n_trainable, result = k, train_control(cohort, k, opts)
        quantities = result.quantities
    else:
        n_trainable = k - base_model.n_control
        result = train_treatment(base_model, cohort, n_trainable, opts, residual)
        # EM's quantities predate purification; refit them under the model
        quantities = [fit_quantities(result.model, h,
                                     q_init=np.maximum(q, h.total * 1e-6))[0]
                      for h, q in zip(cohort, result.quantities)]
    diag = result.diagnostics
    degenerate = diag.degenerate
    try:
        chi2 = chi2_per_dof(cohort, result.model, quantities,
                            n_trainable_components=n_trainable).chi2_per_dof
    except AnalysisError:
        # too many parameters for the data; exclude from the argmin
        chi2, degenerate = float("nan"), True
    return SelectionPoint(n_components=k, chi2_per_dof=chi2, degenerate=degenerate,
                          converged=diag.converged), result


def select_components(cohort, base_model, k_min: int, k_max: int,
                      opts: TrainOptions = TrainOptions()):
    """Sweep component counts and pick the most parsimonious near-minimum.

    With base_model None, k counts control components. Otherwise k counts
    all components: base_model's control ones plus the treatment ones
    trained on them (so k starts above base_model.n_control), every
    candidate seeded from one _control_residual of the cohort. Candidates
    are trained one at a time in ascending K until choose_component_count
    is decided; the curve holds the candidates from k_min through the one
    that decided it, or through k_max if none did. Returns
    (SelectionCurve, best TrainResult).
    """
    phase = "control" if base_model is None else "treatment"
    floor = 1 if base_model is None else base_model.n_control + 1
    if k_min < floor:
        raise InputError(f"k_min must be >= {floor} for phase {phase}, got {k_min}")
    if k_max <= k_min:
        raise InputError(f"need k_max > k_min, got [{k_min}, {k_max}]")
    cohort = list(cohort)
    residual = None if base_model is None else _control_residual(base_model, cohort)
    outcomes = []
    for k in range(k_min, k_max + 1):
        outcomes.append(_train_candidate(cohort, base_model, opts, k, residual))
        if _first_tie([point for point, _ in outcomes]):
            break
    points = [point for point, _ in outcomes]
    chosen = choose_component_count(points)
    return (SelectionCurve(points=points, phase=phase, chosen=chosen),
            outcomes[chosen - k_min][1])


def selection_table(curve: SelectionCurve) -> list:
    """Header and one row per candidate, as selection_*.csv holds them."""
    return [("phase", "n_components", "chi2_per_dof", "degenerate", "chosen",
             "converged")] + [
        (curve.phase, p.n_components, repr(p.chi2_per_dof), int(p.degenerate),
         int(p.n_components == curve.chosen), int(p.converged))
        for p in curve.points]
