"""Error propagation into quantity covariances, Z-scores and P-values.

At the stationary point of the per-histogram extended likelihood the
quantity estimates are implicit functions of the counts. With

    A_kl = sum_c p_k(c) p_l(c) H(c) / M(c)^2   (negative Hessian)
    B_kl = sum_c p_k(c) p_l(c) sigma2_H(c) / M(c)^2,  sigma2_H = H

the propagated covariance is C = chi2 * A^-1 B A^-1 = chi2 * A^-1, a
pseudo-inverse when A is singular. Components pinned at the non-negativity
boundary are dropped from the inversion and reported with zero variance and
a constrained flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, EmptyInputError, ParameterError
from .model import LpmModel, fit_quantities, model_expectation
from .selection import GoodnessOfFit, chi2_statistic

_ACTIVE_FRACTION = 1e-8  # of total quantity; below this q_k counts as zero


@dataclass
class QuantityCovariance:
    matrix: np.ndarray  # (K, K) symmetric PSD
    scaled_by_chi2: bool
    chi2_used: float
    constrained: np.ndarray = None  # bool per component, True = pinned at 0
    pseudo_inverse_used: bool = False


@dataclass
class ResponseResult:
    tumor_id: str
    q_treatment_total: float
    sigma_treatment: float
    effect_fraction: float
    effect_fraction_sigma: float
    z: float
    p_two_tailed: float


@dataclass
class CohortSummary:
    per_tumor: list
    combined_z: float
    combined_p: float


def two_tailed_p(z: float) -> float:
    """2 * norm.sf(|z|), capped at 1; scipy.stats computes norm.sf(x) as ndtr(-x)."""
    from scipy.special import ndtr

    return float(min(1.0, 2.0 * ndtr(-abs(z))))


def quantity_covariance(model: LpmModel, h, q, chi2: GoodnessOfFit,
                        scale_by_chi2: bool = True) -> QuantityCovariance:
    """Propagate per-cell Poisson errors into the quantity covariance."""
    q = np.asarray(q, dtype=float)
    K = model.n_components
    P = model.P
    H = h.counts.reshape(-1).astype(float)
    M = P @ q
    if np.any((H > 0) & (M <= 0)):
        raise AnalysisError("model expectation is zero on a populated cell")
    active = q > _ACTIVE_FRACTION * max(q.sum(), 1.0)
    constrained = ~active
    C = np.zeros((K, K))
    pinv_used = False
    if active.any():
        Pa = P[:, active]
        mask = M > np.sqrt(np.finfo(float).tiny)  # M**2 must not underflow
        W = H[mask] / M[mask] ** 2
        A = Pa[mask].T @ (Pa[mask] * W[:, None])
        # B = A, so A^-1 B A^-1 = A^-1, formed as L^-T L^-1 from A = L L^T:
        # a Gram matrix stays PSD however ill-conditioned A is
        try:
            Linv = np.linalg.inv(np.linalg.cholesky(A))
            Ca = Linv.T @ Linv
        except np.linalg.LinAlgError:  # A singular to working precision
            Ca = np.linalg.pinv(A, hermitian=True)
            pinv_used = True
        if scale_by_chi2:
            Ca = chi2.chi2_per_dof * Ca
        Ca = 0.5 * (Ca + Ca.T)
        idx = np.flatnonzero(active)
        C[np.ix_(idx, idx)] = Ca
    return QuantityCovariance(matrix=C, scaled_by_chi2=scale_by_chi2,
                              chi2_used=chi2.chi2_per_dof if scale_by_chi2 else 1.0,
                              constrained=constrained,
                              pseudo_inverse_used=pinv_used)


def _require_treatment(model: LpmModel):
    if model.n_treatment < 1:
        raise ParameterError("model has no treatment components")


def response_result(model: LpmModel, h, q, cov: QuantityCovariance) -> ResponseResult:
    """Per-tumor treatment response: total treatment quantity, Z, P, fraction."""
    _require_treatment(model)
    q = np.asarray(q, dtype=float)
    C = cov.matrix
    tsl = model.treatment_slice
    q_t = float(q[tsl].sum())
    var_t = float(np.sum(C[tsl, tsl]))
    sigma_t = float(np.sqrt(max(var_t, 0.0)))
    total = float(q.sum())
    eff = q_t / total if total > 0 else 0.0

    # delta method on the ratio of sums
    g = np.full(model.n_components, -q_t / total ** 2)
    g[tsl] += 1.0 / total
    eff_var = float(g @ C @ g)
    eff_sigma = float(np.sqrt(max(eff_var, 0.0)))

    if sigma_t > 0:
        z = q_t / sigma_t
    elif cov.constrained[tsl].all():  # every treatment component pinned at 0
        z = 0.0
    else:
        raise AnalysisError(f"tumor {h.tumor_id}: nonzero treatment quantity "
                            f"with zero error")
    return ResponseResult(tumor_id=h.tumor_id, q_treatment_total=q_t,
                          sigma_treatment=sigma_t, effect_fraction=eff,
                          effect_fraction_sigma=eff_sigma, z=z,
                          p_two_tailed=two_tailed_p(z))


def combine_cohort(results) -> CohortSummary:
    """Stouffer combination of per-tumor Z-scores."""
    if not results:
        raise EmptyInputError("no results to combine")
    zs = [r.z if isinstance(r, ResponseResult) else float(r) for r in results]
    combined = float(np.sum(zs) / np.sqrt(len(zs)))
    per_tumor = [r for r in results if isinstance(r, ResponseResult)]
    return CohortSummary(per_tumor=per_tumor, combined_z=combined,
                         combined_p=two_tailed_p(combined))


def fit_and_score(model: LpmModel, h) -> ResponseResult:
    """Fit the full model to one histogram and score its treatment response.

    The covariance is scaled by this histogram's own fit chi2/dof, with the
    fitted quantities counted as free parameters.
    """
    _require_treatment(model)
    q, _ = fit_quantities(model, h)
    M = model_expectation(model, q)
    chi2 = chi2_statistic(h.counts, M, n_free_params=model.n_components)
    cov = quantity_covariance(model, h, q, chi2)
    return response_result(model, h, q, cov)


def control_consistency(model: LpmModel, control_histograms):
    """Score control tumors with the full model; inliers should sit at |z| < 2."""
    _require_treatment(model)
    return [fit_and_score(model, h) for h in control_histograms]
